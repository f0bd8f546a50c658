//! Loadgen and telemetry-plane integration tests: real sockets, the
//! real worker pool, and the seeded generator on top.

use sekitei_server::{
    decode_response, loadgen, parse_dump, read_frame, request_flight_recorder, request_metrics,
    request_shutdown, write_frame, LoadgenConfig, Response, ScenarioItem, Server, ServerConfig,
    ShutdownHandle,
};
use sekitei_topology::scenarios::{self, NetSize};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

fn start(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn tiny_corpus() -> Vec<ScenarioItem> {
    use sekitei_model::LevelScenario::*;
    [A, B, C, D, E]
        .into_iter()
        .map(|sc| ScenarioItem::new(format!("Tiny/{sc:?}"), scenarios::problem(NetSize::Tiny, sc)))
        .collect()
}

#[test]
fn same_seed_yields_byte_identical_deterministic_report() {
    let (addr, _, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let corpus = tiny_corpus();
    let cfg = LoadgenConfig {
        requests: 200,
        connections: 2,
        seed: 0xFEED_F00D,
        verify_every: 25,
        ..LoadgenConfig::default()
    };
    let first = loadgen::run(&cfg, addr, &corpus).expect("first run");
    let second = loadgen::run(&cfg, addr, &corpus).expect("second run");
    assert_eq!(first.completed, 200);
    assert_eq!(first.errors, 0);
    assert!(first.verified.0 > 0, "sampled subset must be non-empty");
    assert_eq!(first.verified.2, 0, "no certificate may fail verification");
    assert_eq!(
        first.deterministic, second.deterministic,
        "same seed + config must render byte-identical deterministic reports"
    );
    // second run hits the warmed outcome cache for every repeated key,
    // yet content classes stay the class of the cached bytes
    assert_eq!(first.class_counts, second.class_counts);
    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");
}

#[test]
fn malformed_control_frames_answer_error_and_keep_serving() {
    let (addr, _, join) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(addr).expect("connect");

    // unknown tag
    write_frame(&mut stream, &[0x77, 1, 2, 3]).expect("write");
    let resp = decode_response(&read_frame(&mut stream).expect("read")).expect("decode");
    assert!(matches!(resp, Response::Error(_)), "unknown tag answers Error, got {resp:?}");

    // trailing bytes on a control request (Metrics = tag 3)
    write_frame(&mut stream, &[3, 0xAA]).expect("write");
    let resp = decode_response(&read_frame(&mut stream).expect("read")).expect("decode");
    assert!(matches!(resp, Response::Error(_)), "trailing bytes answer Error, got {resp:?}");

    // truncated plan header (tag 0 with no trace id / flags)
    write_frame(&mut stream, &[0]).expect("write");
    let resp = decode_response(&read_frame(&mut stream).expect("read")).expect("decode");
    assert!(matches!(resp, Response::Error(_)), "short plan header answers Error, got {resp:?}");

    // the same connection still serves real traffic afterwards
    write_frame(&mut stream, &[3]).expect("write");
    let resp = decode_response(&read_frame(&mut stream).expect("read")).expect("decode");
    assert!(matches!(resp, Response::Metrics(_)), "valid metrics after garbage, got {resp:?}");
    drop(stream);

    // and the server as a whole still answers fresh connections
    let corpus = tiny_corpus();
    let cfg = LoadgenConfig { requests: 10, connections: 1, ..LoadgenConfig::default() };
    let report = loadgen::run(&cfg, addr, &corpus).expect("loadgen after garbage");
    assert_eq!(report.completed, 10);
    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");
}

#[test]
fn flight_exemplars_resolve_to_recorded_requests() {
    let (addr, _, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let corpus = tiny_corpus();
    let cfg = LoadgenConfig { requests: 120, connections: 2, seed: 7, ..LoadgenConfig::default() };
    loadgen::run(&cfg, addr, &corpus).expect("loadgen");

    let text = request_flight_recorder(addr).expect("flight dump");
    // parse_dump enforces the acceptance invariant: every latency-bucket
    // exemplar carries a trace id resolvable to a record in the dump
    let dump = parse_dump(&text).expect("dump validates");
    assert_eq!(dump.records.len(), 120);
    assert!(!dump.exemplars.is_empty());
    assert!(dump.records.iter().all(|r| r.trace_id != 0), "loadgen assigns nonzero trace ids");
    for ex in &dump.exemplars {
        let hit = dump
            .records
            .iter()
            .find(|r| r.trace_id == ex.trace_id && r.latency_us == ex.latency_us)
            .expect("exemplar resolves to a record");
        assert!((ex.lo..ex.hi).contains(&hit.latency_us));
    }

    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");
}

#[test]
fn metrics_scrape_reflects_loadgen_traffic() {
    let (addr, _, join) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let corpus = tiny_corpus();
    let cfg = LoadgenConfig { requests: 60, connections: 2, seed: 3, ..LoadgenConfig::default() };
    let report = loadgen::run(&cfg, addr, &corpus).expect("loadgen");

    let text = request_metrics(addr).expect("metrics scrape");
    let parsed = sekitei_obs::parse_exposition(&text).expect("exposition validates");
    assert_eq!(parsed.counters["served"], report.completed);
    assert_eq!(parsed.histograms["latency_us"].count, report.completed);
    let class_total: u64 = ["exact", "degraded", "cached", "budget_exhausted", "deadline_hit"]
        .iter()
        .map(|c| parsed.counters[&format!("class_{c}")])
        .sum::<u64>()
        + parsed.counters["class_error"];
    assert_eq!(class_total, report.completed, "class counters partition served requests");

    request_shutdown(addr).expect("shutdown");
    join.join().unwrap().expect("server exits cleanly");
}
