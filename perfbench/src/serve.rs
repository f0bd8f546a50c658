//! The serving workload: `serve-zipf`.
//!
//! An in-process server on loopback (2 workers) and the benchmark's client on
//! [`CONNECTIONS`] persistent connections, speaking the wire protocol
//! through its public functions (`encode_request`, `write_frame`,
//! `read_frame`, `decode_response`). Requests draw instances from a
//! Zipf distribution over a seeded corpus larger than the outcome cache,
//! so the head hits the cache and the tail misses into the planner.
//!
//! Two phases run on one request stream:
//! - an open loop at [`OFFERED_RATE`] with Poisson arrivals: a sender per
//!   connection writes each request at its due time whether or not
//!   earlier replies have arrived, a receiver reads the replies, and every
//!   latency runs from the request's due time, so a stall is charged to
//!   every request it delays;
//! - a closed loop on the same stream over one connection, one request in
//!   flight, for capacity and per-request latency. With nothing else in
//!   flight, the process CPU time ([`crate::clock`]) from a request's send
//!   to its reply is the client's and the server's work on it, and
//!   capacity is replies per CPU-second: neither moves with how long the
//!   host kept the process waiting for a processor. The loop runs the
//!   speed reference ([`crate::calib`]) every [`REFERENCE_EVERY`] requests
//!   and scales its times by it, as the plan workloads do.
//!
//! The whole workload runs on one processor ([`clock::pin_to_one_cpu`]).
//! With one request in flight the second one has nothing to overlap, and a
//! wake-up that may cross processors costs more CPU time, by how much
//! depending on what other tenants run on the second.
//!
//! Every reply is checked after the phases: a computed reply's
//! certificate against a client-side compile and its cost against the
//! recorded optimum, a cached reply byte-for-byte against a checked one.

use crate::corpus::{self, fnv, Rng, FNV_INIT};
use crate::expected::Table;
use crate::stats::{self, Metric};
use crate::trace::{Tracer, NO_PARENT};
use crate::{calib, clock, Report, Setup};
use sekitei_compile::{compile, PlanningTask};
use sekitei_server::{
    decode_response, encode_request, read_frame, write_frame, Priority, Request, Response,
    ServedVia, Server, ServerConfig,
};
use sekitei_spec::{WireOutcome, WirePhase};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Open-loop connections, each served by one of the server's 2 workers.
pub const CONNECTIONS: usize = 2;
/// Zipf exponent over corpus popularity ranks.
pub const ZIPF_S: f64 = 1.1;
/// Open-loop offered rate, requests/s: about a twelfth of the ~1800 req/s
/// closed-loop capacity measured on seeds 1–5 on a 2-vCPU VM. At a sixth,
/// misses slowed by other tenants queued the hits behind them on the same
/// connection, and the median swung with the tenants.
pub const OFFERED_RATE: f64 = 150.0;
/// Latency limit of one request, from its due time to its reply: above
/// the 35–42 ms p99.8 latency measured on the same seeds.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Share of `--seconds` given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.25;
/// Requests of the stream reserved for the closed loop (twice, for the
/// traced run's second half): more than it completes in its time.
const CLOSED_REQUESTS: usize = 60_000;
/// Replies per chunk the closed-loop rate is taken over.
const CHUNK: usize = 500;
/// Requests of the measured loop between two runs of the speed reference,
/// and references on each side of a request its speed factor is taken over.
const REFERENCE_EVERY: usize = 50;
const REFERENCE_RADIUS: usize = 2;
/// Replies per chunk the closed-loop tail is taken over.
const TAIL_CHUNK: usize = 1000;

fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, ..ServerConfig::default() }
}

/// The planner configuration the server applies, without its deadline
/// (for recording: no recorded instance comes near it).
pub fn record_config() -> sekitei_planner::PlannerConfig {
    sekitei_planner::PlannerConfig { deadline: None, ..server_config().planner }
}

struct Live {
    addr: SocketAddr,
    stop: sekitei_server::ShutdownHandle,
    join: thread::JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn start() -> Result<Live, String> {
        let server =
            Server::bind("127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.shutdown_handle();
        let join = thread::spawn(move || server.run());
        Ok(Live { addr, stop, join })
    }

    fn shutdown(self) -> Result<(), String> {
        self.stop.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One request of the stream: its id (echoed as the trace id), its
/// corpus index, and when it is due relative to the phase start.
#[derive(Debug, Clone, Copy)]
struct Req {
    id: u64,
    inst: usize,
    due: Duration,
}

/// One reply as the client saw it.
struct Reply {
    req: Req,
    sent: Instant,
    recv: Instant,
    /// Process CPU time from send to reply, and the speed reference taken
    /// last before the send: measured loop only, zero elsewhere.
    cpu: Duration,
    reference: usize,
    payload: Vec<u8>,
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    Ok(s)
}

fn plan_request(req: &Req, problem: &[u8], profile: bool) -> Vec<u8> {
    encode_request(&Request::Plan {
        trace_id: req.id,
        profile,
        priority: Priority::Normal,
        problem: problem.to_vec(),
    })
}

/// Closed loop, for the warm-up: one request in flight per connection,
/// through each connection's list once.
fn closed_loop(
    addr: SocketAddr,
    lists: &[Vec<Req>],
    bytes: &[Vec<u8>],
) -> Result<Vec<Reply>, String> {
    thread::scope(|s| {
        let workers: Vec<_> = lists
            .iter()
            .map(|list| {
                s.spawn(move || -> Result<Vec<Reply>, String> {
                    let mut stream = connect(addr)?;
                    let mut out = Vec::new();
                    for req in list {
                        let sent = Instant::now();
                        write_frame(&mut stream, &plan_request(req, &bytes[req.inst], false))
                            .map_err(|e| format!("send: {e}"))?;
                        let payload =
                            read_frame(&mut stream).map_err(|e| format!("receive: {e}"))?;
                        let (recv, cpu) = (Instant::now(), Duration::ZERO);
                        out.push(Reply { req: *req, sent, recv, cpu, reference: 0, payload });
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().map_err(|_| "client thread panicked".to_string())??);
        }
        Ok(all)
    })
}

/// The measured closed loop: one connection, one request in flight, on
/// the calling thread, through `list` until `until`. Every
/// [`REFERENCE_EVERY`] requests the speed reference runs between two
/// requests, while nothing is in flight. Returns the replies and the
/// references in time order.
fn measured_loop(
    addr: SocketAddr,
    list: &[Req],
    bytes: &[Vec<u8>],
    until: Instant,
    profile: bool,
) -> Result<(Vec<Reply>, Vec<f64>), String> {
    let mut stream = connect(addr)?;
    let (mut out, mut refs) = (Vec::new(), Vec::new());
    for (k, req) in list.iter().enumerate() {
        if Instant::now() >= until {
            break;
        }
        if k % REFERENCE_EVERY == 0 {
            refs.push(calib::reference_ms());
        }
        let request = plan_request(req, &bytes[req.inst], profile);
        let (sent, cpu) = (Instant::now(), clock::cpu());
        write_frame(&mut stream, &request).map_err(|e| format!("send: {e}"))?;
        let payload = read_frame(&mut stream).map_err(|e| format!("receive: {e}"))?;
        let cpu = clock::cpu().saturating_sub(cpu);
        let recv = Instant::now();
        out.push(Reply { req: *req, sent, recv, cpu, reference: refs.len() - 1, payload });
    }
    Ok((out, refs))
}

/// Open loop: per connection, a sender writes each request at its due
/// time and a receiver reads replies as they come.
fn open_loop(
    addr: SocketAddr,
    lists: &[Vec<Req>],
    bytes: &[Vec<u8>],
    start: Instant,
    profile: bool,
) -> Result<Vec<Reply>, String> {
    thread::scope(|s| {
        let mut handles = Vec::new();
        for list in lists {
            let stream = connect(addr)?;
            let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
            let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
                let mut sent = Vec::with_capacity(list.len());
                for req in list {
                    let due = start + req.due;
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let payload = plan_request(req, &bytes[req.inst], profile);
                    sent.push(Instant::now());
                    write_frame(&mut writer, &payload).map_err(|e| format!("send: {e}"))?;
                }
                Ok(sent)
            });
            let receiver = s.spawn(move || -> Result<Vec<(Instant, Vec<u8>)>, String> {
                let mut reader = BufReader::new(stream);
                let mut got = Vec::with_capacity(list.len());
                for _ in list {
                    let payload = read_frame(&mut reader).map_err(|e| format!("receive: {e}"))?;
                    got.push((Instant::now(), payload));
                }
                Ok(got)
            });
            handles.push((list, sender, receiver));
        }
        let mut all = Vec::new();
        for (list, sender, receiver) in handles {
            let sent = sender.join().map_err(|_| "sender panicked".to_string())??;
            let got = receiver.join().map_err(|_| "receiver panicked".to_string())??;
            for ((req, sent), (recv, payload)) in list.iter().zip(sent).zip(got) {
                let cpu = Duration::ZERO;
                all.push(Reply { req: *req, sent, recv, cpu, reference: 0, payload });
            }
        }
        all.sort_by_key(|r| r.req.id);
        Ok(all)
    })
}

/// A seeded popularity order over the corpus, stratified by family (the
/// instance key without its generator seed): each round of ranks takes
/// one instance of every family, in a seeded order. Every seed then spreads
/// the expensive families over hot and cold ranks alike, so which
/// instances miss the cache changes with the seed but their cost profile
/// does not; with one plain shuffle, capacity moved by 15% across seeds.
fn popularity(corpus: &[corpus::Instance], rng: &mut Rng) -> Vec<usize> {
    let mut families: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (i, inst) in corpus.iter().enumerate() {
        let family = inst.key.rsplit_once("-s").map_or(inst.key.as_str(), |(f, _)| f);
        families.entry(family).or_default().push(i);
    }
    let mut families: Vec<Vec<usize>> = families.into_values().collect();
    for f in &mut families {
        rng.shuffle(f);
    }
    let mut order = Vec::with_capacity(corpus.len());
    for round in 0.. {
        let mut present: Vec<&Vec<usize>> = families.iter().filter(|f| round < f.len()).collect();
        if present.is_empty() {
            break;
        }
        rng.shuffle(&mut present);
        order.extend(present.iter().map(|f| f[round]));
    }
    order
}

/// The request stream: Zipf draws over the seeded popularity order, with
/// Poisson arrival times at the offered rate.
fn stream(seed: u64, corpus: &[corpus::Instance], count: usize) -> (Vec<Req>, u64) {
    let mut rng = Rng::new(seed, 0x5E_4E);
    let n_inst = corpus.len();
    let by_rank = popularity(corpus, &mut rng);
    let mut cdf: Vec<f64> = (0..n_inst).map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
    let mut acc = 0.0;
    for w in &mut cdf {
        acc += *w;
        *w = acc;
    }
    let mut t = 0.0;
    let mut digest = FNV_INIT;
    let reqs = (0..count)
        .map(|i| {
            let u = rng.unit() * acc;
            let inst = by_rank[cdf.partition_point(|&c| c < u).min(n_inst - 1)];
            t += -(1.0 - rng.unit()).ln() / OFFERED_RATE;
            let due = Duration::from_secs_f64(t);
            digest = fnv(digest, &(inst as u64).to_le_bytes());
            digest = fnv(digest, &(due.as_nanos() as u64).to_le_bytes());
            Req { id: i as u64 + 1, inst, due }
        })
        .collect();
    (reqs, digest)
}

/// Deal a stream round-robin over the connections.
fn deal(reqs: &[Req]) -> Vec<Vec<Req>> {
    let mut lists = vec![Vec::new(); CONNECTIONS];
    for (i, r) in reqs.iter().enumerate() {
        lists[i % CONNECTIONS].push(*r);
    }
    lists
}

/// A checked reply.
struct Checked {
    via: ServedVia,
    phases: Vec<WirePhase>,
    cost: Option<f64>,
    proved: bool,
}

/// Client-side checks, each distinct outcome once.
struct Verifier<'a> {
    corpus: &'a [corpus::Instance],
    table: Table,
    /// The client-side compile of the instance being checked.
    task: Option<(usize, PlanningTask)>,
    verified: HashMap<usize, Vec<(WireOutcome, bool)>>,
}

impl Verifier<'_> {
    fn check(&mut self, r: &Reply) -> Result<Checked, String> {
        let (via, trace_id, phases, outcome) = match decode_response(&r.payload) {
            Ok(Response::Outcome { served_via, trace_id, phases, outcome }) => {
                (served_via, trace_id, phases, outcome)
            }
            Ok(Response::Rejected(m)) => return Err(format!("shed: {m}")),
            Ok(Response::Error(m)) => return Err(format!("server error: {m}")),
            Ok(_) => return Err("unexpected response".into()),
            Err(e) => return Err(format!("undecodable response: {e}")),
        };
        if trace_id != r.req.id {
            return Err(format!("reply for request {trace_id} arrived as {}", r.req.id));
        }
        let cost = outcome.plan.as_ref().map(|p| p.cost_lower_bound);
        let seen = self.verified.entry(r.req.inst).or_default();
        if let Some((_, proved)) = seen.iter().find(|(o, _)| *o == outcome) {
            return Ok(Checked { via, phases, cost, proved: *proved });
        }
        let inst = &self.corpus[r.req.inst];
        let proved = match &outcome.plan {
            None => false,
            Some(plan) => {
                let bytes =
                    outcome.certificate.as_ref().ok_or("plan served without a certificate")?;
                let cert = sekitei_cert::decode_certificate(bytes)
                    .map_err(|v| format!("undecodable certificate: {v}"))?;
                if self.task.as_ref().is_none_or(|(i, _)| *i != r.req.inst) {
                    let task =
                        compile(&inst.problem).map_err(|e| format!("client compile: {e}"))?;
                    self.task = Some((r.req.inst, task));
                }
                let (_, task) = self.task.as_ref().expect("compiled above");
                let report = sekitei_cert::check_certificate(task, &cert)
                    .map_err(|v| format!("certificate rejected: {v}"))?;
                if (cert.bound.plan_cost - plan.cost_lower_bound).abs() > 1e-9 {
                    return Err("certificate and plan disagree on cost".into());
                }
                report.gap_proved && cert.bound.claimed_gap == Some(0.0)
            }
        };
        self.table
            .check(&inst.key, outcome.plan.as_ref().map(|p| (p.cost_lower_bound, !p.degraded)))?;
        seen.push((outcome, proved));
        Ok(Checked { via, phases, cost, proved })
    }
}

/// Scrape the server's metrics exposition.
fn scrape(addr: SocketAddr) -> Result<sekitei_obs::Exposition, String> {
    let mut s = connect(addr)?;
    write_frame(&mut s, &encode_request(&Request::Metrics)).map_err(|e| e.to_string())?;
    let frame = read_frame(&mut s).map_err(|e| e.to_string())?;
    match decode_response(&frame) {
        Ok(Response::Metrics(text)) => sekitei_obs::parse_exposition(&text),
        _ => Err("bad metrics reply".into()),
    }
}

struct Ready {
    corpus: Vec<corpus::Instance>,
    bytes: Vec<Vec<u8>>,
    live: Live,
    warm: Vec<Reply>,
}

/// Set-up: corpus generation and encoding, server start, and a warm-up
/// that requests the most popular instances once each.
fn set_up(seed: u64, warm_ranks: &[Req]) -> Result<Ready, String> {
    let corpus = corpus::corpus("serve-zipf", seed);
    let bytes: Vec<Vec<u8>> =
        corpus.iter().map(|i| sekitei_spec::encode(&i.problem).to_vec()).collect();
    let live = Live::start()?;
    let warm = closed_loop(live.addr, &deal(warm_ranks), &bytes)?;
    Ok(Ready { corpus, bytes, live, warm })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    match run_inner(seed, seconds, traced) {
        Ok(r) => r,
        Err(e) => Report::failed(e),
    }
}

fn run_inner(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    // before any thread starts, so every thread inherits it
    clock::pin_to_one_cpu()?;
    let mut tr = Tracer::new();
    let open_secs = seconds * OPEN_SHARE;
    let count = (OFFERED_RATE * open_secs).round() as usize;
    // the stream continues past the open loop's requests into the closed
    // loop's, so capacity sees the stream's steady miss rate rather than
    // replays of the open loop's few hundred instances
    let (reqs, schedule_digest) =
        stream(seed, &corpus::corpus("serve-zipf", seed), count + 2 * CLOSED_REQUESTS);
    let (reqs, closed_reqs) = reqs.split_at(count);
    // warm-up: the first cache-capacity distinct instances of the closed
    // loop's long stretch of the stream, about the most popular ones
    let mut warm_reqs: Vec<Req> = Vec::new();
    let mut warm_seen = std::collections::HashSet::new();
    for r in closed_reqs {
        if warm_reqs.len() < server_config().cache_cap && warm_seen.insert(r.inst) {
            warm_reqs.push(Req { id: r.id + 1_000_000_000, ..*r });
        }
    }

    // set up three times, each between two references, and keep the last
    let (mut times, mut refs) = (Vec::new(), vec![calib::reference_ms()]);
    let mut ready = None;
    for _ in 0..3 {
        if let Some(r) = ready.take() {
            let r: Ready = r;
            r.live.shutdown()?;
        }
        let t = clock::cpu();
        ready = Some(set_up(seed, &warm_reqs)?);
        times.push(clock::ms_since(t) / 1e3);
        refs.push(calib::reference_ms());
    }
    let Ready { corpus, bytes, live, warm } = ready.expect("set up at least once");
    let corpus_digest = bytes.iter().fold(FNV_INIT, |h, b| fnv(h, b));
    let setup = Setup::new(times, calib::factor(&refs), corpus_digest);

    let open_start = Instant::now() + Duration::from_millis(20);
    let open = open_loop(live.addr, &deal(reqs), &bytes, open_start, traced)?;
    let closed_secs = seconds - open_secs;
    let (first, second) = closed_reqs.split_at(CLOSED_REQUESTS);
    // the traced run drives the closed loop untraced, then traced on the
    // stream's next requests, for the tracing overhead
    let ((closed, refs), closed_traced) = if traced {
        let half = Duration::from_secs_f64(closed_secs / 2.0);
        let a = measured_loop(live.addr, first, &bytes, Instant::now() + half, false)?;
        let b = measured_loop(live.addr, second, &bytes, Instant::now() + half, true)?;
        (a, Some(b))
    } else {
        let until = Instant::now() + Duration::from_secs_f64(closed_secs);
        (measured_loop(live.addr, first, &bytes, until, false)?, None)
    };
    let expo = scrape(live.addr)?;
    live.shutdown()?;
    // the high-water mark of the serving phases, before the checks below
    let peak_rss = stats::peak_rss_mb();

    // --- correctness gate over every reply, instance by instance so one
    // client-side compile serves all replies of an instance ---
    let mut v =
        Verifier { corpus: &corpus, table: Table::load(), task: None, verified: HashMap::new() };
    let mut failures = Vec::new();
    let all: Vec<&Reply> = warm
        .iter()
        .chain(&open)
        .chain(&closed)
        .chain(closed_traced.iter().flat_map(|t| &t.0))
        .collect();
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by_key(|&i| all[i].req.inst);
    let mut checked: Vec<Option<Checked>> = (0..all.len()).map(|_| None).collect();
    for i in order {
        match v.check(all[i]) {
            Ok(c) => checked[i] = Some(c),
            Err(e) => failures.push(format!("request {}: {e}", all[i].req.id)),
        }
    }
    let attempted = all.len();
    let checked_open = &checked[warm.len()..warm.len() + open.len()];

    // --- open-loop latency, from each request's due time ---
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let lat: Vec<f64> =
        open.iter().map(|r| ms(r.recv.saturating_duration_since(open_start + r.req.due))).collect();
    let lag: Vec<f64> =
        open.iter().map(|r| ms(r.sent.saturating_duration_since(open_start + r.req.due))).collect();
    let within = open
        .iter()
        .zip(&lat)
        .zip(checked_open)
        .filter(|((_, &l), c)| c.is_some() && l <= LATENCY_LIMIT_MS)
        .count();
    let ok_open: Vec<&Checked> = checked_open.iter().flatten().collect();
    let proved = ok_open.iter().filter(|c| c.proved).count();
    // mean cost over the distinct instances the warm-up and the open loop
    // answered (both fixed by the seed), so the few hottest instances do
    // not set it
    let fixed = warm.len() + open.len();
    let by_inst: std::collections::BTreeMap<usize, f64> = all[..fixed]
        .iter()
        .zip(&checked[..fixed])
        .filter_map(|(r, c)| Some((r.req.inst, c.as_ref()?.cost?)))
        .collect();
    let costs: Vec<f64> = by_inst.into_values().collect();
    // --- closed loop: capacity, CPU time from send to reply, and the tail
    // as the median over chunks of replies of each chunk's tail ---
    let closed_lat = scaled_ms(&closed, &refs);
    let windows = chunk_rates(&closed_lat);
    let capacity = rate(&closed_lat);
    let closed_wall: Vec<f64> = closed.iter().map(|r| ms(r.recv - r.sent)).collect();
    let chunk_tails: Vec<f64> =
        closed_lat.chunks_exact(TAIL_CHUNK).filter_map(|c| stats::tail(c).map(|t| t.0)).collect();
    let hits = ok_open.iter().filter(|c| c.via == ServedVia::Cache).count();

    let mut notes = vec![
        format!(
            "corpus {} instances; open loop: {} requests at {OFFERED_RATE} req/s over {open_secs:.1} s, {} cache hits, {} misses; closed loop: {} requests",
            corpus.len(),
            open.len(),
            hits,
            ok_open.iter().filter(|c| c.via == ServedVia::Computed).count(),
            closed.len()
        ),
        format!("latency limit {LATENCY_LIMIT_MS} ms; sender lag p50 {:.3} ms max {:.3} ms", stats::median(&lag), lag.iter().copied().fold(0.0, f64::max)),
    ];
    if !closed.is_empty() {
        let raw: Vec<f64> = closed.iter().map(|r| ms(r.cpu)).collect();
        notes.push(format!(
            "reference {:.3} ms median (nominal {}); raw: setup {:.6} s, {:.3} replies per CPU-second, p50 {:.4} ms",
            stats::median(&refs),
            calib::NOMINAL_MS,
            setup.raw_s,
            rate(&raw),
            stats::median(&raw)
        ));
    }
    // a run too short for one chunk takes the tail of all its replies
    let tail_cpu_ms = if chunk_tails.is_empty() {
        stats::tail(&closed_lat).map_or(f64::NAN, |t| t.0)
    } else {
        stats::median(&chunk_tails)
    };
    let (open_tail, open_pct) = stats::tail(&lat).unwrap_or((f64::NAN, f64::NAN));
    notes.push(format!(
        "tail_cpu_ms is the median over {} chunks of {TAIL_CHUNK} closed-loop replies of each chunk's p{:.2}; \
         wall clock: closed loop p50 {:.3} ms, open loop from due time p50 {:.3} ms, p{open_pct:.2} {open_tail:.3} ms",
        chunk_tails.len(),
        100.0 * (TAIL_CHUNK - 10) as f64 / TAIL_CHUNK as f64,
        if closed_wall.is_empty() { f64::NAN } else { stats::median(&closed_wall) },
        stats::median(&lat)
    ));
    notes.push(format!(
        "deterministic: corpus {:016x} schedule {schedule_digest:016x} proved_optimal_share {} mean_plan_cost {}",
        setup.corpus_digest,
        proved as f64 / open.len().max(1) as f64,
        stats::mean(&costs)
    ));

    let mut tracer = None;
    let metrics = if !traced {
        vec![
            Metric::new("setup_s", "s", stats::median(&setup.times)).with_samples(&setup.times),
            Metric::new("throughput_per_cpu_s", "1/s", capacity).with_samples(&windows),
            Metric::new("p50_cpu_ms", "ms", stats::median(&closed_lat)).with_samples(&closed_lat),
            Metric::new("tail_cpu_ms", "ms", tail_cpu_ms).with_samples(&chunk_tails),
            Metric::new("within_limit_share", "ratio", within as f64 / open.len().max(1) as f64),
            Metric::new("proved_optimal_share", "ratio", proved as f64 / open.len().max(1) as f64),
            Metric::new("mean_plan_cost", "cost", stats::mean(&costs)),
            Metric::new("peak_rss_mb", "MiB", peak_rss),
        ]
    } else {
        let b = closed_traced.as_ref().expect("traced run has a traced closed loop");
        let traced_rate = rate(&scaled_ms(&b.0, &b.1));
        for (r, c) in open.iter().zip(checked_open) {
            let root = tr.record("request", NO_PARENT, r.req.id, open_start + r.req.due, r.recv);
            tr.record("driver.lag", root, r.req.id, open_start + r.req.due, r.sent);
            let server = tr.record("server", root, r.req.id, r.sent, r.recv);
            for p in c.iter().flat_map(|c| &c.phases) {
                // queue_wait is the connection's accept wait, attributed to
                // every request it carries: not part of this request
                let name = match p.name.as_str() {
                    "cache" => "server.cache",
                    "decode" => "spec.decode",
                    "compile" => "compile",
                    "search" => "server.search",
                    "validate" => "sim.validate",
                    "encode" => "spec.encode",
                    _ => continue,
                };
                tr.aggregate(name, server, Duration::from_nanos(p.self_ns));
            }
        }
        let m = match tr.self_times() {
            Ok(self_ns) => {
                let misses: Vec<&Reply> = open
                    .iter()
                    .zip(checked_open)
                    .filter(|(_, c)| c.as_ref().is_some_and(|c| c.via == ServedVia::Computed))
                    .map(|(r, _)| r)
                    .collect();
                let via_ms = |via: ServedVia| {
                    let v: Vec<f64> = open
                        .iter()
                        .zip(checked_open)
                        .filter(|(_, c)| c.as_ref().is_some_and(|c| c.via == via))
                        .map(|(r, _)| ms(r.recv - r.sent))
                        .collect();
                    if v.is_empty() {
                        0.0
                    } else {
                        stats::median(&v)
                    }
                };
                let per_miss = |name: &str| {
                    self_ns.get(name).copied().unwrap_or(0) as f64
                        / 1e6
                        / misses.len().max(1) as f64
                };
                let request_ns = tr.total("request") as f64;
                let layers: u64 = self_ns.values().sum();
                notes.push(format!(
                    "trace self-check: layer self times {:.3} ms <= request spans {:.3} ms",
                    layers as f64 / 1e6,
                    request_ns / 1e6
                ));
                let counter = |k: &str| expo.counters.get(k).copied().unwrap_or(0) as f64;
                // each request's wait outside the server's timed phases:
                // queueing behind earlier requests on its connection, plus
                // transport and framing
                let waits: Vec<f64> = open
                    .iter()
                    .zip(checked_open)
                    .filter_map(|(r, c)| {
                        let phases: u64 = c
                            .as_ref()?
                            .phases
                            .iter()
                            .filter(|p| p.name != "queue_wait")
                            .map(|p| p.self_ns)
                            .sum();
                        Some((ms(r.recv - r.sent) - phases as f64 / 1e6).max(0.0))
                    })
                    .collect();
                let (wait_tail, _) = stats::tail(&waits).unwrap_or((f64::NAN, f64::NAN));
                let (lag_tail, _) = stats::tail(&lag).unwrap_or((f64::NAN, f64::NAN));
                vec![
                    Metric::new("compile.ms", "ms", per_miss("compile")),
                    Metric::new(
                        "compile.share",
                        "ratio",
                        self_ns.get("compile").copied().unwrap_or(0) as f64 / request_ns.max(1.0),
                    ),
                    Metric::new("sim.validate_ms", "ms", per_miss("sim.validate")),
                    Metric::new("spec.decode_ms", "ms", per_miss("spec.decode")),
                    Metric::new("spec.encode_ms", "ms", per_miss("spec.encode")),
                    Metric::new(
                        "spec.request_bytes",
                        "bytes",
                        stats::mean(
                            &open
                                .iter()
                                .map(|r| bytes[r.req.inst].len() as f64)
                                .collect::<Vec<_>>(),
                        ),
                    ),
                    Metric::new(
                        "spec.response_bytes",
                        "bytes",
                        stats::mean(
                            &open.iter().map(|r| r.payload.len() as f64).collect::<Vec<_>>(),
                        ),
                    ),
                    Metric::new(
                        "server.hit_share",
                        "ratio",
                        hits as f64 / open.len().max(1) as f64,
                    ),
                    Metric::new(
                        "server.task_hit_share",
                        "ratio",
                        counter("task_cache_hits") / counter("served").max(1.0),
                    ),
                    Metric::new("server.coalesced", "count", counter("coalesced")),
                    Metric::new(
                        "server.queue_wait_p50_ms",
                        "ms",
                        if waits.is_empty() { 0.0 } else { stats::median(&waits) },
                    ),
                    Metric::new("server.queue_wait_tail_ms", "ms", wait_tail),
                    Metric::new("server.hit_ms", "ms", via_ms(ServedVia::Cache)),
                    Metric::new("server.miss_ms", "ms", via_ms(ServedVia::Computed)),
                    Metric::new("server.search_ms", "ms", per_miss("server.search")),
                    Metric::new(
                        "server.shed",
                        "count",
                        counter("queue_shed") + counter("rejected"),
                    ),
                    Metric::new("server.errors", "count", counter("class_error")),
                    Metric::new("driver.lag_ms", "ms", lag_tail),
                    Metric::new("trace.overhead_share", "ratio", capacity / traced_rate - 1.0),
                ]
            }
            Err(e) => {
                failures.push(format!("trace accounting: {e}"));
                Vec::new()
            }
        };
        tracer = Some(tr);
        m
    };
    Ok(Report { attempted, failures, metrics, setup, notes, tracer })
}

/// Each reply's CPU time in ms, scaled to the reference's nominal speed by
/// the references taken around it (see [`crate::calib`]).
fn scaled_ms(replies: &[Reply], refs: &[f64]) -> Vec<f64> {
    let factors = calib::local_factors(refs, REFERENCE_RADIUS);
    replies.iter().map(|r| r.cpu.as_secs_f64() * 1e3 * factors[r.reference]).collect()
}

/// Replies per CPU-second, from each reply's CPU time in ms.
fn rate(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
}

/// [`rate`] over consecutive chunks of [`CHUNK`] replies, for the spread.
fn chunk_rates(ms: &[f64]) -> Vec<f64> {
    ms.chunks_exact(CHUNK).map(rate).collect()
}
