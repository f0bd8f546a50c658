//! `server_load` — sustained serving throughput and tail latency.
//!
//! Starts a planning server in-process on an ephemeral port, drives the
//! seeded load generator at it, and writes `BENCH_server.json` — the
//! run's provenance (commit and source digest, as `perf_trajectory`
//! writes them), then its throughput, latency and outcome-class rows,
//! plus two measured curves:
//!
//! - `hit_curve` rows — outcome-cache hit rate vs cache capacity under
//!   the same Zipf mix, one fresh server per capacity point (this is the
//!   CLOCK eviction policy earning its keep: hot heads stay resident
//!   well below corpus size).
//! - a `shed` row — priority shedding under deliberate search pressure
//!   (no outcome cache, more distinct searches in flight than search
//!   permits, a small queue cap, every 3rd request `Low` priority).
//!
//! The deterministic report goes to stdout (byte-identical per seed),
//! timing to stderr. Run it from the repository root.
//!
//! Usage: `server_load [REQUESTS] [CONNECTIONS] [SEED]`
//! (defaults: 100000 requests, 4 connections, seed 0xC0FFEE).

use sekitei_model::LevelScenario;
use sekitei_server::{
    loadgen, request_shutdown, LoadgenConfig, ScenarioItem, Server, ServerConfig,
};
use sekitei_topology::scenarios::{self, NetSize};
use std::net::SocketAddr;

fn corpus() -> Vec<ScenarioItem> {
    [LevelScenario::A, LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E]
        .into_iter()
        .map(|sc| ScenarioItem::new(format!("Tiny/{sc:?}"), scenarios::problem(NetSize::Tiny, sc)))
        .collect()
}

fn spawn_server(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let requests: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let connections: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);

    let corpus = corpus();

    // main throughput run: closed loop, deep pipeline
    let (addr, join) =
        spawn_server(ServerConfig { workers: connections.max(1), ..ServerConfig::default() });
    let cfg = LoadgenConfig {
        requests,
        connections,
        seed,
        zipf_s: 1.1,
        pipeline: 8,
        rate_per_s: None,
        burst: 1,
        verify_every: 1_000,
        low_every: 0,
    };
    let report = loadgen::run(&cfg, addr, &corpus).expect("loadgen run");
    print!("{}", report.deterministic);
    eprint!("{}", report.timing);
    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");

    // hit-rate-vs-capacity curve: a fresh server per capacity point so
    // each measurement starts cold; the corpus has 5 distinct keys, so
    // capacities below 5 measure what CLOCK keeps resident under Zipf
    let sweep_requests = (requests / 5).clamp(2_000, 20_000);
    let mut extra_rows = String::new();
    for cache_cap in [1usize, 2, 3, 4, 5, 8] {
        let (addr, join) = spawn_server(ServerConfig {
            workers: connections.max(1),
            cache_cap,
            ..ServerConfig::default()
        });
        let cfg = LoadgenConfig {
            requests: sweep_requests,
            connections,
            seed,
            zipf_s: 1.1,
            pipeline: 8,
            rate_per_s: None,
            burst: 1,
            verify_every: 0,
            low_every: 0,
        };
        let r = loadgen::run(&cfg, addr, &corpus).expect("hit-curve run");
        let hit_rate = r.cache_hits as f64 / r.completed.max(1) as f64;
        eprintln!(
            "hit_curve cache_cap={cache_cap}: {} hits / {} requests = {hit_rate:.3}",
            r.cache_hits, r.completed
        );
        extra_rows.push_str(&format!(
            ",\n  {{\"row\": \"hit_curve\", \"cache_cap\": {cache_cap}, \"requests\": {}, \
\"cache_hits\": {}, \"coalesced\": {}, \"hit_rate\": {hit_rate:.4}}}",
            r.completed, r.cache_hits, r.coalesced
        ));
        request_shutdown(addr).expect("shutdown");
        join.join().unwrap().expect("server exits cleanly");
    }

    // shed run: search pressure with every 3rd request Low priority —
    // measures that the priority gate sheds the low class first. With no
    // outcome cache every request searches or joins a search, so the 5
    // keys keep up to 3 searches waiting for the 2 permits, past the Low
    // threshold (half the queue cap); the connections stay within the cap
    // of workers + queue_cap + 1.
    let shed_requests = (requests / 25).clamp(1_000, 4_000);
    let (workers, queue_cap, connections) = (2, 4, 6);
    let (addr, join) =
        spawn_server(ServerConfig { workers, queue_cap, cache_cap: 0, ..ServerConfig::default() });
    let cfg = LoadgenConfig {
        requests: shed_requests,
        connections,
        seed,
        zipf_s: 1.1,
        pipeline: 4,
        rate_per_s: None,
        burst: 1,
        verify_every: 0,
        low_every: 3,
    };
    let r = loadgen::run(&cfg, addr, &corpus).expect("shed run");
    eprintln!("shed low_every=3: {} shed / {} requests ({} errors)", r.shed, r.completed, r.errors);
    extra_rows.push_str(&format!(
        ",\n  {{\"row\": \"shed\", \"low_every\": 3, \"queue_cap\": {queue_cap}, \
\"cache_cap\": 0, \"workers\": {workers}, \"connections\": {connections}, \"requests\": {}, \
\"shed\": {}, \"errors\": {}}}",
        r.completed, r.shed, r.errors
    ));
    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");

    // the main run's rows, then the curve and shed rows, after the
    // provenance of the code measured
    let rows = report.bench_json.trim_end();
    let rows = rows.strip_prefix("[\n").and_then(|r| r.strip_suffix("\n]"));
    let rows = rows.expect("bench json is one array");
    let json = format!(
        "{{\"provenance\": {},\n\"rows\": [\n{rows}{extra_rows}\n]}}\n",
        sekitei_bench::provenance_json()
    );
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    eprintln!("wrote BENCH_server.json");
}
