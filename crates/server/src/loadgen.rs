//! `sekitei loadgen`: a seeded open/closed-loop load generator for the
//! planning server.
//!
//! The generator drives a corpus of pre-encoded scenarios at the server
//! over `connections` persistent connections, sampling scenarios from a
//! Zipf distribution (rank 0 = hottest) so the outcome cache sees a
//! realistic skewed key stream. Per-connection request schedules —
//! scenario choice, trace id, and whether to verify the served
//! certificate — are precomputed from [`SplitMix64`] streams derived
//! from the seed, so the *deterministic report* (per-scenario and
//! per-content-class counts, certificate-verification tallies) is
//! byte-identical across runs with the same seed and config. Timing
//! data (sustained req/s, latency percentiles from merged
//! per-connection [`Histogram`] shards, cache-hit counts) is
//! nondeterministic by nature and rendered separately.
//!
//! Closed-loop mode (`rate_per_s == None`) keeps `pipeline` requests in
//! flight per connection back to back; open-loop mode paces bursts of
//! `burst` requests to hit a target aggregate arrival rate, measuring
//! what the queue does under bursty load rather than what the server
//! can absorb.
//!
//! Note: the server turns away connections past its cap of `workers +
//! queue_cap + 1`, so `connections` must stay within it.

use crate::client::ClientError;
use crate::flight::OutcomeClass;
use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Priority, Request, Response,
    ServedVia,
};
use sekitei_cert::{check_certificate, decode_certificate};
use sekitei_compile::{compile, PlanningTask};
use sekitei_model::CppProblem;
use sekitei_obs::Histogram;
use sekitei_util::SplitMix64;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One corpus entry: a scenario the generator can request.
#[derive(Debug, Clone)]
pub struct ScenarioItem {
    /// Display label (e.g. `Tiny/C`), used in the per-scenario report.
    pub label: String,
    /// The decoded problem (compiled client-side for cert verification).
    pub problem: CppProblem,
    /// Pre-encoded `SKT1` bytes sent on the wire.
    pub bytes: Vec<u8>,
}

impl ScenarioItem {
    /// Build an item from a problem, encoding it once up front.
    pub fn new(label: impl Into<String>, problem: CppProblem) -> ScenarioItem {
        let bytes = sekitei_spec::encode(&problem).to_vec();
        ScenarioItem { label: label.into(), problem, bytes }
    }
}

/// Load-generator knobs. All fields feed the deterministic schedule
/// except none — the whole config is echoed into the report header.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests across all connections.
    pub requests: u64,
    /// Persistent connections (each served in order by one server thread).
    pub connections: usize,
    /// Seed for every per-connection schedule stream.
    pub seed: u64,
    /// Zipf exponent over corpus ranks (0.0 = uniform).
    pub zipf_s: f64,
    /// Requests kept in flight per connection (min 1).
    pub pipeline: usize,
    /// Open-loop target arrival rate in requests/s across all
    /// connections; `None` runs closed-loop (as fast as replies come).
    pub rate_per_s: Option<f64>,
    /// Open-loop burst size: requests sent back to back per arrival
    /// slot (min 1; ignored in closed-loop mode).
    pub burst: usize,
    /// Verify the served certificate on every Nth request per
    /// connection (0 = never).
    pub verify_every: u64,
    /// Send every Nth request per connection at `Low` priority (0 =
    /// all `Normal`). Under queue pressure the server sheds these
    /// first; the `shed` tally measures how many.
    pub low_every: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 1_000,
            connections: 2,
            seed: 0xBADC_0FFE,
            zipf_s: 1.1,
            pipeline: 4,
            rate_per_s: None,
            burst: 1,
            verify_every: 0,
            low_every: 0,
        }
    }
}

/// Everything a loadgen run produces.
#[derive(Debug)]
pub struct LoadReport {
    /// Byte-identical across runs with the same seed, config and corpus
    /// (assuming the server plans deterministically, i.e. no deadline
    /// hits): config echo, per-scenario counts, content-class counts,
    /// certificate-verification tallies.
    pub deterministic: String,
    /// Wall-clock-dependent summary: elapsed, sustained req/s, latency
    /// percentiles, cache hits.
    pub timing: String,
    /// `BENCH_server.json` contents: throughput and tail-latency rows.
    pub bench_json: String,
    /// Requests completed (including error responses).
    pub completed: u64,
    /// Error responses received (server `Error`/`Rejected` replies).
    pub errors: u64,
    /// Outcome-cache hits observed (nondeterministic: depends on
    /// cross-connection interleaving).
    pub cache_hits: u64,
    /// Replies coalesced onto another connection's in-flight search
    /// (nondeterministic, like `cache_hits`).
    pub coalesced: u64,
    /// Requests shed by the server's priority gate (`Rejected` replies
    /// naming a shed; nondeterministic — depends on queue pressure).
    pub shed: u64,
    /// Sustained throughput over the measurement window.
    pub req_per_s: f64,
    /// Merged latency distribution across all connections.
    pub latency: Histogram,
    /// Content-class counts indexed `[exact, degraded, cached,
    /// budget_exhausted, deadline_hit, error]` — `cached` stays 0 here
    /// because the generator counts the *content* class of every reply.
    pub class_counts: [u64; 6],
    /// Certificates checked / passed / failed on the sampled subset.
    pub verified: (u64, u64, u64),
}

/// One request in a connection's precomputed schedule.
#[derive(Debug, Clone, Copy)]
struct Slot {
    scenario: usize,
    trace_id: u64,
    verify: bool,
    priority: Priority,
}

/// Per-connection tallies folded into the final report in connection
/// order (so aggregation is deterministic too).
struct WorkerOut {
    scenario_counts: Vec<u64>,
    class_counts: [u64; 6],
    cache_hits: u64,
    coalesced: u64,
    shed: u64,
    errors: u64,
    verified: (u64, u64, u64),
    hist: Histogram,
    completed: u64,
}

fn class_slot(class: OutcomeClass) -> usize {
    match class {
        OutcomeClass::Exact => 0,
        OutcomeClass::Degraded => 1,
        OutcomeClass::Cached => 2,
        OutcomeClass::BudgetExhausted => 3,
        OutcomeClass::DeadlineHit => 4,
        OutcomeClass::Error => 5,
    }
}

/// Cumulative Zipf distribution over `n` ranks with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 0..n {
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(total);
    }
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Precompute connection `c`'s schedule: `count` slots drawn from its
/// own seed-derived stream, independent of every other connection.
fn schedule(cfg: &LoadgenConfig, cdf: &[f64], c: usize, count: u64) -> Vec<Slot> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1));
    (0..count)
        .map(|i| {
            let scenario = sample_cdf(cdf, rng.unit());
            let trace_id = rng.next_u64().max(1);
            let verify = cfg.verify_every > 0 && i % cfg.verify_every == 0;
            let priority = if cfg.low_every > 0 && i % cfg.low_every == 0 {
                Priority::Low
            } else {
                Priority::Normal
            };
            Slot { scenario, trace_id, verify, priority }
        })
        .collect()
}

fn verify_served(
    tasks: &[Option<PlanningTask>],
    slot: Slot,
    outcome: &sekitei_spec::WireOutcome,
    out: &mut WorkerOut,
) {
    if outcome.plan.is_none() {
        return; // nothing to certify; not counted as sampled
    }
    out.verified.0 += 1;
    let ok = match (&outcome.certificate, &tasks[slot.scenario]) {
        (Some(bytes), Some(task)) => {
            decode_certificate(bytes).and_then(|cert| check_certificate(task, &cert)).is_ok()
        }
        _ => false,
    };
    if ok {
        out.verified.1 += 1;
    } else {
        out.verified.2 += 1;
    }
}

/// Drive one connection through its schedule, keeping up to
/// `cfg.pipeline` requests in flight (open-loop mode paces bursts
/// instead). Returns per-connection tallies.
fn drive(
    cfg: &LoadgenConfig,
    addr: SocketAddr,
    corpus: &[ScenarioItem],
    tasks: &[Option<PlanningTask>],
    slots: &[Slot],
) -> Result<WorkerOut, ClientError> {
    let mut out = WorkerOut {
        scenario_counts: vec![0; corpus.len()],
        class_counts: [0; 6],
        cache_hits: 0,
        coalesced: 0,
        shed: 0,
        errors: 0,
        verified: (0, 0, 0),
        hist: Histogram::new(),
        completed: 0,
    };
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    // batch the pipeline window into one write and drain replies through
    // a buffered reader — the syscall count per request is what bounds a
    // single-core closed loop, on the client exactly as on the server
    let mut reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(64 * 1024, stream);

    let batch_len = match cfg.rate_per_s {
        Some(_) => cfg.burst.max(1),
        None => cfg.pipeline.max(1),
    };
    // open-loop pacing: each burst owns a slice of the aggregate rate
    let burst_interval = cfg.rate_per_s.map(|rate| {
        let per_conn = (rate / cfg.connections.max(1) as f64).max(1e-9);
        Duration::from_secs_f64(batch_len as f64 / per_conn)
    });
    let start = Instant::now();

    let mut at = 0usize;
    let mut batch_no = 0u32;
    while at < slots.len() {
        if let Some(interval) = burst_interval {
            let due = start + interval * batch_no;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        batch_no += 1;
        let batch = &slots[at..(at + batch_len).min(slots.len())];
        at += batch.len();

        let t0 = Instant::now();
        for slot in batch {
            let req = Request::Plan {
                trace_id: slot.trace_id,
                profile: false,
                priority: slot.priority,
                problem: corpus[slot.scenario].bytes.clone(),
            };
            write_frame(&mut writer, &encode_request(&req))?;
        }
        writer.flush()?;
        for slot in batch {
            let frame = read_frame(&mut reader)?;
            let latency_us = t0.elapsed().as_micros() as u64;
            out.hist.record(latency_us);
            out.completed += 1;
            out.scenario_counts[slot.scenario] += 1;
            match decode_response(&frame)? {
                Response::Outcome { served_via, trace_id, outcome, .. } => {
                    if trace_id != slot.trace_id {
                        return Err(ClientError::Unexpected("trace id mismatch"));
                    }
                    match served_via {
                        ServedVia::Cache => out.cache_hits += 1,
                        ServedVia::Coalesced => out.coalesced += 1,
                        ServedVia::Computed => {}
                    }
                    // content class: identical whether served cached or
                    // computed, so it belongs in the deterministic report
                    out.class_counts[class_slot(OutcomeClass::of_outcome(&outcome))] += 1;
                    if slot.verify {
                        verify_served(tasks, *slot, &outcome, &mut out);
                    }
                }
                Response::Rejected(m) => {
                    // priority sheds are load feedback, not failures: they
                    // tally separately (timing section — pressure-dependent)
                    if m.contains("shed") {
                        out.shed += 1;
                    } else {
                        out.errors += 1;
                    }
                    out.class_counts[class_slot(OutcomeClass::Error)] += 1;
                }
                Response::Error(_) => {
                    out.errors += 1;
                    out.class_counts[class_slot(OutcomeClass::Error)] += 1;
                }
                _ => return Err(ClientError::Unexpected("non-outcome")),
            }
        }
    }
    Ok(out)
}

/// Run the generator against the server at `addr` and collect the
/// report. The corpus must be non-empty; scenario rank order (index 0 =
/// hottest under Zipf) is the caller's choice.
pub fn run(
    cfg: &LoadgenConfig,
    addr: SocketAddr,
    corpus: &[ScenarioItem],
) -> Result<LoadReport, ClientError> {
    assert!(!corpus.is_empty(), "loadgen needs a non-empty corpus");
    let conns = cfg.connections.max(1);
    let cdf = zipf_cdf(corpus.len(), cfg.zipf_s);

    // client-side compiled tasks for certificate checking, built before
    // the measurement window opens (None = scenario fails to compile;
    // its verifications count as failures)
    let tasks: Vec<Option<PlanningTask>> = if cfg.verify_every > 0 {
        corpus.iter().map(|s| compile(&s.problem).ok()).collect()
    } else {
        corpus.iter().map(|_| None).collect()
    };

    // split requests across connections; earlier connections absorb the
    // remainder so the total is exact
    let schedules: Vec<Vec<Slot>> = (0..conns)
        .map(|c| {
            let base = cfg.requests / conns as u64;
            let extra = u64::from((c as u64) < cfg.requests % conns as u64);
            schedule(cfg, &cdf, c, base + extra)
        })
        .collect();

    let started = Instant::now();
    let outs: Vec<Result<WorkerOut, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|slots| scope.spawn(|| drive(cfg, addr, corpus, &tasks, slots)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let elapsed = started.elapsed();

    let mut scenario_counts = vec![0u64; corpus.len()];
    let mut class_counts = [0u64; 6];
    let merged = Histogram::new();
    let (mut completed, mut errors, mut cache_hits) = (0u64, 0u64, 0u64);
    let (mut coalesced, mut shed) = (0u64, 0u64);
    let mut verified = (0u64, 0u64, 0u64);
    for out in outs {
        let out = out?;
        for (total, c) in scenario_counts.iter_mut().zip(&out.scenario_counts) {
            *total += c;
        }
        for (total, c) in class_counts.iter_mut().zip(&out.class_counts) {
            *total += c;
        }
        completed += out.completed;
        errors += out.errors;
        cache_hits += out.cache_hits;
        coalesced += out.coalesced;
        shed += out.shed;
        verified.0 += out.verified.0;
        verified.1 += out.verified.1;
        verified.2 += out.verified.2;
        merged.merge(&out.hist);
    }

    let req_per_s = completed as f64 / elapsed.as_secs_f64().max(1e-9);
    let deterministic =
        render_deterministic(cfg, corpus, &scenario_counts, &class_counts, verified);
    let timing = render_timing(elapsed, completed, req_per_s, cache_hits, coalesced, shed, &merged);
    let bench_json = render_bench_json(
        cfg,
        elapsed,
        completed,
        errors,
        req_per_s,
        cache_hits,
        coalesced,
        shed,
        &merged,
        &class_counts,
    );

    Ok(LoadReport {
        deterministic,
        timing,
        bench_json,
        completed,
        errors,
        cache_hits,
        coalesced,
        shed,
        req_per_s,
        latency: merged,
        class_counts,
        verified,
    })
}

fn render_deterministic(
    cfg: &LoadgenConfig,
    corpus: &[ScenarioItem],
    scenario_counts: &[u64],
    class_counts: &[u64; 6],
    verified: (u64, u64, u64),
) -> String {
    let mut s = String::new();
    s.push_str("# sekitei-loadgen v1\n");
    let mode = match cfg.rate_per_s {
        Some(rate) => format!("open rate_per_s={rate} burst={}", cfg.burst.max(1)),
        None => format!("closed pipeline={}", cfg.pipeline.max(1)),
    };
    s.push_str(&format!(
        "config seed={} requests={} connections={} zipf_s={} verify_every={} low_every={} mode={mode}\n",
        cfg.seed, cfg.requests, cfg.connections, cfg.zipf_s, cfg.verify_every, cfg.low_every
    ));
    s.push_str(&format!("corpus scenarios={}\n", corpus.len()));
    for (item, count) in corpus.iter().zip(scenario_counts) {
        s.push_str(&format!("scenario {} count={count}\n", item.label));
    }
    s.push_str(&format!(
        "classes exact={} degraded={} budget_exhausted={} deadline_hit={} error={}\n",
        class_counts[0], class_counts[1], class_counts[3], class_counts[4], class_counts[5]
    ));
    s.push_str(&format!("verify sampled={} ok={} fail={}\n", verified.0, verified.1, verified.2));
    s.push_str("# end sekitei-loadgen\n");
    s
}

fn render_timing(
    elapsed: Duration,
    completed: u64,
    req_per_s: f64,
    cache_hits: u64,
    coalesced: u64,
    shed: u64,
    hist: &Histogram,
) -> String {
    format!(
        "elapsed {:.3}s  completed {completed}  sustained {req_per_s:.0} req/s  cache_hits {cache_hits}  coalesced {coalesced}  shed {shed}\n\
         latency_us p50={} p95={} p99={} p99.9={} max={}\n",
        elapsed.as_secs_f64(),
        hist.quantile(0.50),
        hist.quantile(0.95),
        hist.quantile(0.99),
        hist.quantile(0.999),
        hist.max(),
    )
}

#[allow(clippy::too_many_arguments)]
fn render_bench_json(
    cfg: &LoadgenConfig,
    elapsed: Duration,
    completed: u64,
    errors: u64,
    req_per_s: f64,
    cache_hits: u64,
    coalesced: u64,
    shed: u64,
    hist: &Histogram,
    class_counts: &[u64; 6],
) -> String {
    let mode = if cfg.rate_per_s.is_some() { "open" } else { "closed" };
    format!(
        "[\n  {{\"row\": \"throughput\", \"mode\": \"{mode}\", \"seed\": {}, \"requests\": {completed}, \
\"connections\": {}, \"pipeline\": {}, \"elapsed_s\": {:.3}, \"req_per_s\": {req_per_s:.1}, \
\"errors\": {errors}, \"cache_hits\": {cache_hits}, \"coalesced\": {coalesced}, \"shed\": {shed}}},\n  \
{{\"row\": \"latency\", \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}},\n  \
{{\"row\": \"classes\", \"exact\": {}, \"degraded\": {}, \"budget_exhausted\": {}, \"deadline_hit\": {}, \"error\": {}}}\n]\n",
        cfg.seed,
        cfg.connections,
        cfg.pipeline.max(1),
        elapsed.as_secs_f64(),
        hist.quantile(0.50),
        hist.quantile(0.95),
        hist.quantile(0.99),
        hist.quantile(0.999),
        hist.max(),
        class_counts[0],
        class_counts[1],
        class_counts[3],
        class_counts[4],
        class_counts[5],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(8, 1.2);
        assert_eq!(cdf.len(), 8);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        // rank 0 dominates under s > 1
        assert!(cdf[0] > 0.3);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let cdf = zipf_cdf(4, 0.0);
        for (i, c) in cdf.iter().enumerate() {
            assert!((c - (i + 1) as f64 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn schedules_are_deterministic_and_independent_per_connection() {
        let cfg = LoadgenConfig { seed: 7, verify_every: 3, ..LoadgenConfig::default() };
        let cdf = zipf_cdf(5, 1.0);
        let a1 = schedule(&cfg, &cdf, 0, 100);
        let a2 = schedule(&cfg, &cdf, 0, 100);
        let b = schedule(&cfg, &cdf, 1, 100);
        assert_eq!(a1.len(), 100);
        for (x, y) in a1.iter().zip(&a2) {
            assert_eq!((x.scenario, x.trace_id, x.verify), (y.scenario, y.trace_id, y.verify));
        }
        assert!(
            a1.iter().zip(&b).any(|(x, y)| x.trace_id != y.trace_id),
            "distinct connections draw distinct streams"
        );
        assert!(a1.iter().all(|s| s.trace_id != 0));
        assert!(a1[0].verify && !a1[1].verify && a1[3].verify);
    }

    #[test]
    fn request_split_covers_total_exactly() {
        let cfg = LoadgenConfig { requests: 10, connections: 3, ..LoadgenConfig::default() };
        let cdf = zipf_cdf(2, 1.0);
        let total: u64 = (0..3)
            .map(|c| {
                let base = cfg.requests / 3;
                let extra = u64::from((c as u64) < cfg.requests % 3);
                schedule(&cfg, &cdf, c, base + extra).len() as u64
            })
            .sum();
        assert_eq!(total, 10);
    }
}
