//! Tail-latency flight recorder: a bounded in-memory ring of per-request
//! records, dumpable over the control protocol.
//!
//! Aggregate histograms answer "what does the p99.9 look like"; the
//! flight recorder answers "what was the p99.9 *request*". Every served
//! plan request (including errors) appends one fixed-size record —
//! problem fingerprint, outcome class, cache tier, queue wait, RG nodes,
//! latency, trace id — to a ring that keeps the most recent
//! `cap` requests. The dump derives per-latency-bucket *exemplars* from
//! the ring (the most recent in-ring request in each occupied bucket), so
//! every bucket in the dump links to a concrete recorded request by trace
//! id — resolvable by construction, never a dangling pointer to an
//! evicted record (a trace id without its record can't support a
//! post-mortem anyway).
//!
//! The dump is a versioned line-oriented text format in the same spirit
//! as the metrics exposition ([`sekitei_obs::expo`]):
//!
//! ```text
//! # sekitei-flight v1
//! record seq=4 trace=71 fp=00c5a2… class=exact tier=full queue_us=12 rg_nodes=420 latency_us=913
//! exemplar bucket=448 lo=896 hi=928 trace=71 latency_us=913
//! # end sekitei-flight records=1 exemplars=1 evicted=3
//! ```
//!
//! [`parse_dump`] is the strict inverse and *validates the exemplar
//! invariant*: every exemplar must name the trace id and latency of an
//! in-dump record whose latency falls in the exemplar's bucket.

use sekitei_obs::{bucket_bounds, bucket_index};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Which of the six serving outcome classes a request landed in. One
/// class per request; `Exact` includes proven-infeasible answers ("no
/// plan exists" is an exact result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Proven-optimal plan or proven infeasibility.
    Exact,
    /// Plan served through the graceful-degradation / anytime-incumbent
    /// path.
    Degraded,
    /// Answered from encoded bytes without a search: an outcome-cache hit
    /// or a coalesced join (`cache_hits + coalesced`). Flight records keep
    /// the *content* class of those bytes instead; this class appears in
    /// the stats partition, where skipping the search is the event.
    Cached,
    /// A search budget (nodes/rejects) was exhausted.
    BudgetExhausted,
    /// The wall-clock deadline cut the search short.
    DeadlineHit,
    /// The request failed (malformed problem, compile error, …).
    Error,
}

impl OutcomeClass {
    /// Dump-format token for this class.
    pub fn as_str(&self) -> &'static str {
        match self {
            OutcomeClass::Exact => "exact",
            OutcomeClass::Degraded => "degraded",
            OutcomeClass::Cached => "cached",
            OutcomeClass::BudgetExhausted => "budget_exhausted",
            OutcomeClass::DeadlineHit => "deadline_hit",
            OutcomeClass::Error => "error",
        }
    }

    /// Inverse of [`OutcomeClass::as_str`].
    pub fn parse(s: &str) -> Option<OutcomeClass> {
        Some(match s {
            "exact" => OutcomeClass::Exact,
            "degraded" => OutcomeClass::Degraded,
            "cached" => OutcomeClass::Cached,
            "budget_exhausted" => OutcomeClass::BudgetExhausted,
            "deadline_hit" => OutcomeClass::DeadlineHit,
            "error" => OutcomeClass::Error,
            _ => return None,
        })
    }

    /// Classify a computed outcome's *content*: precedence
    /// deadline > budget > degraded, and `Exact` covers both optimal
    /// plans and proven-infeasible answers (the planner finished its
    /// job either way). `Cached`/`Error` never come from here — they
    /// describe how the request was answered, not what the planner
    /// produced.
    pub fn of_outcome(wire: &sekitei_spec::WireOutcome) -> OutcomeClass {
        if wire.stats.deadline_hit {
            OutcomeClass::DeadlineHit
        } else if wire.stats.budget_exhausted {
            OutcomeClass::BudgetExhausted
        } else if wire.plan.as_ref().is_some_and(|p| p.degraded) {
            OutcomeClass::Degraded
        } else {
            OutcomeClass::Exact
        }
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which cache tier answered the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Outcome cache: encoded bytes replayed, no planner run.
    Outcome,
    /// Full path: decode + compile + search.
    Full,
}

impl CacheTier {
    /// Dump-format token for this tier.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheTier::Outcome => "outcome",
            CacheTier::Full => "full",
        }
    }

    /// Inverse of [`CacheTier::as_str`].
    pub fn parse(s: &str) -> Option<CacheTier> {
        Some(match s {
            "outcome" => CacheTier::Outcome,
            "full" => CacheTier::Full,
            _ => return None,
        })
    }
}

impl fmt::Display for CacheTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number (1-based, never reused); `seq` of the
    /// oldest in-ring record minus 1 is the evicted count.
    pub seq: u64,
    /// Client-assigned trace id (0 = unassigned).
    pub trace_id: u64,
    /// Content hash of the SKT1 problem bytes (the cache key).
    pub fingerprint: u64,
    /// Outcome class (content class for cached responses).
    pub class: OutcomeClass,
    /// Cache tier that answered.
    pub tier: CacheTier,
    /// Search-permit wait, microseconds (0 for answers from encoded bytes).
    pub queue_wait_us: u64,
    /// RG nodes the search created (0 for cache hits and errors).
    pub rg_nodes: u64,
    /// End-to-end server-side latency, microseconds.
    pub latency_us: u64,
}

/// A per-latency-bucket exemplar: the most recent in-ring request whose
/// latency fell in this bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Histogram bucket index (see [`sekitei_obs::bucket_index`]).
    pub bucket: usize,
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Exclusive upper bound of the bucket.
    pub hi: u64,
    /// Trace id of the exemplar request.
    pub trace_id: u64,
    /// Its recorded latency (within `[lo, hi)`).
    pub latency_us: u64,
}

/// Bounded ring of recent requests. `record` is O(1) under a mutex, and
/// assigns `seq` under it too, so the ring is in ascending `seq` order by
/// construction.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    cap: usize,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<FlightRecord>,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` requests (cap 0 is
    /// clamped to 1: a recorder that can't record anything would turn
    /// every dump invariant vacuous).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            inner: Mutex::new(Inner { ring: VecDeque::new(), evicted: 0 }),
            cap: cap.max(1),
        }
    }

    /// Append one request record (the recorder assigns `seq`; the passed
    /// value is ignored). Evicts the oldest record when full.
    pub fn record(&self, mut rec: FlightRecord) {
        let mut inner = self.inner.lock().expect("flight ring lock poisoned");
        // seqs are dense from 1, so the next one counts every record so far
        rec.seq = inner.evicted + inner.ring.len() as u64 + 1;
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(rec);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the dump (see module docs): records oldest → newest, then
    /// exemplars ascending by bucket, then a footer with counts.
    pub fn dump(&self) -> String {
        // copy out so rendering runs without holding up `record`
        let (records, evicted) = {
            let inner = self.inner.lock().expect("flight ring lock poisoned");
            (inner.ring.iter().copied().collect::<Vec<_>>(), inner.evicted)
        };
        let mut out = String::from("# sekitei-flight v1\n");
        for r in &records {
            out.push_str(&format!(
                "record seq={} trace={} fp={:016x} class={} tier={} queue_us={} rg_nodes={} \
                 latency_us={}\n",
                r.seq,
                r.trace_id,
                r.fingerprint,
                r.class,
                r.tier,
                r.queue_wait_us,
                r.rg_nodes,
                r.latency_us
            ));
        }
        // Most recent request per occupied latency bucket. Walking newest →
        // oldest and keeping first-seen gives exactly that.
        let mut exemplars: Vec<Exemplar> = Vec::new();
        for r in records.iter().rev() {
            let bucket = bucket_index(r.latency_us);
            if exemplars.iter().any(|e| e.bucket == bucket) {
                continue;
            }
            let (lo, hi) = bucket_bounds(bucket);
            exemplars.push(Exemplar {
                bucket,
                lo,
                hi,
                trace_id: r.trace_id,
                latency_us: r.latency_us,
            });
        }
        exemplars.sort_by_key(|e| e.bucket);
        for e in &exemplars {
            out.push_str(&format!(
                "exemplar bucket={} lo={} hi={} trace={} latency_us={}\n",
                e.bucket, e.lo, e.hi, e.trace_id, e.latency_us
            ));
        }
        out.push_str(&format!(
            "# end sekitei-flight records={} exemplars={} evicted={}\n",
            records.len(),
            exemplars.len(),
            evicted
        ));
        out
    }
}

/// Parsed form of a flight-recorder dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// In-ring records, oldest first.
    pub records: Vec<FlightRecord>,
    /// Per-latency-bucket exemplars, ascending by bucket.
    pub exemplars: Vec<Exemplar>,
    /// Records evicted from the ring over the recorder's lifetime.
    pub evicted: u64,
}

fn kv<'a>(part: Option<&'a str>, key: &str, line_no: usize) -> Result<&'a str, String> {
    let part = part.ok_or_else(|| format!("line {line_no}: missing field {key}"))?;
    part.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("line {line_no}: expected {key}=…, got {part:?}"))
}

fn kv_u64(part: Option<&str>, key: &str, line_no: usize) -> Result<u64, String> {
    let v = kv(part, key, line_no)?;
    v.parse().map_err(|_| format!("line {line_no}: bad {key} value {v:?}"))
}

/// Strict parser for the dump format; validates structure *and* the
/// exemplar invariant: every exemplar's `(trace, latency)` must match a
/// record in the dump whose latency falls inside the exemplar's bucket.
pub fn parse_dump(text: &str) -> Result<FlightDump, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "# sekitei-flight v1")) => {}
        Some((_, l)) => return Err(format!("bad header {l:?}")),
        None => return Err("empty dump".into()),
    }
    let mut dump = FlightDump::default();
    let mut footer: Option<(u64, u64, u64)> = None;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if footer.is_some() {
            return Err(format!("line {line_no}: content after footer"));
        }
        if let Some(rest) = line.strip_prefix("# end sekitei-flight ") {
            let mut parts = rest.split(' ');
            let records = kv_u64(parts.next(), "records", line_no)?;
            let exemplars = kv_u64(parts.next(), "exemplars", line_no)?;
            let evicted = kv_u64(parts.next(), "evicted", line_no)?;
            if parts.next().is_some() {
                return Err(format!("line {line_no}: trailing footer fields"));
            }
            footer = Some((records, exemplars, evicted));
            continue;
        }
        let mut parts = line.split(' ');
        match parts.next() {
            Some("record") => {
                let seq = kv_u64(parts.next(), "seq", line_no)?;
                let trace_id = kv_u64(parts.next(), "trace", line_no)?;
                let fp = kv(parts.next(), "fp", line_no)?;
                let fingerprint = u64::from_str_radix(fp, 16)
                    .map_err(|_| format!("line {line_no}: bad fp {fp:?}"))?;
                let class_s = kv(parts.next(), "class", line_no)?;
                let class = OutcomeClass::parse(class_s)
                    .ok_or_else(|| format!("line {line_no}: unknown class {class_s:?}"))?;
                let tier_s = kv(parts.next(), "tier", line_no)?;
                let tier = CacheTier::parse(tier_s)
                    .ok_or_else(|| format!("line {line_no}: unknown tier {tier_s:?}"))?;
                let queue_wait_us = kv_u64(parts.next(), "queue_us", line_no)?;
                let rg_nodes = kv_u64(parts.next(), "rg_nodes", line_no)?;
                let latency_us = kv_u64(parts.next(), "latency_us", line_no)?;
                if parts.next().is_some() {
                    return Err(format!("line {line_no}: trailing record fields"));
                }
                if let Some(prev) = dump.records.last() {
                    if prev.seq >= seq {
                        return Err(format!("line {line_no}: record seqs not ascending"));
                    }
                }
                dump.records.push(FlightRecord {
                    seq,
                    trace_id,
                    fingerprint,
                    class,
                    tier,
                    queue_wait_us,
                    rg_nodes,
                    latency_us,
                });
            }
            Some("exemplar") => {
                let bucket = kv_u64(parts.next(), "bucket", line_no)? as usize;
                let lo = kv_u64(parts.next(), "lo", line_no)?;
                let hi = kv_u64(parts.next(), "hi", line_no)?;
                let trace_id = kv_u64(parts.next(), "trace", line_no)?;
                let latency_us = kv_u64(parts.next(), "latency_us", line_no)?;
                if parts.next().is_some() {
                    return Err(format!("line {line_no}: trailing exemplar fields"));
                }
                if bucket_bounds(bucket) != (lo, hi) {
                    return Err(format!("line {line_no}: bucket {bucket} bounds disagree"));
                }
                if !(lo <= latency_us && (latency_us < hi || hi == u64::MAX)) {
                    return Err(format!(
                        "line {line_no}: exemplar latency {latency_us} outside bucket [{lo},{hi})"
                    ));
                }
                if let Some(prev) = dump.exemplars.last() {
                    if prev.bucket >= bucket {
                        return Err(format!("line {line_no}: exemplar buckets not ascending"));
                    }
                }
                dump.exemplars.push(Exemplar { bucket, lo, hi, trace_id, latency_us });
            }
            Some(kind) => return Err(format!("line {line_no}: unknown line kind {kind:?}")),
            None => return Err(format!("line {line_no}: empty line")),
        }
    }
    let Some((records, exemplars, evicted)) = footer else {
        return Err("missing footer (truncated dump?)".into());
    };
    if records != dump.records.len() as u64 || exemplars != dump.exemplars.len() as u64 {
        return Err(format!(
            "footer counts ({records} records, {exemplars} exemplars) disagree with body \
             ({} records, {} exemplars)",
            dump.records.len(),
            dump.exemplars.len()
        ));
    }
    dump.evicted = evicted;
    // The exemplar invariant: resolvable to a recorded request.
    for e in &dump.exemplars {
        let resolvable = dump.records.iter().any(|r| {
            r.trace_id == e.trace_id
                && r.latency_us == e.latency_us
                && bucket_index(r.latency_us) == e.bucket
        });
        if !resolvable {
            return Err(format!(
                "exemplar for bucket {} (trace {}) does not resolve to any recorded request",
                e.bucket, e.trace_id
            ));
        }
    }
    Ok(dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, latency_us: u64) -> FlightRecord {
        FlightRecord {
            seq: 0, // assigned by the recorder
            trace_id,
            fingerprint: 0xABCD_EF01_2345_6789,
            class: OutcomeClass::Exact,
            tier: CacheTier::Full,
            queue_wait_us: 3,
            rg_nodes: 420,
            latency_us,
        }
    }

    #[test]
    fn dump_roundtrips_and_orders() {
        let fr = FlightRecorder::new(16);
        fr.record(rec(11, 40));
        fr.record(rec(12, 41));
        fr.record(rec(13, 900));
        let dump = parse_dump(&fr.dump()).unwrap();
        assert_eq!(dump.records.len(), 3);
        assert_eq!(dump.evicted, 0);
        assert_eq!(dump.records[0].seq, 1);
        assert_eq!(dump.records[2].trace_id, 13);
        // 3 distinct latency buckets → 3 exemplars, ascending.
        assert_eq!(dump.exemplars.len(), 3);
        assert!(dump.exemplars.windows(2).all(|w| w[0].bucket < w[1].bucket));
    }

    #[test]
    fn exemplar_is_most_recent_in_bucket() {
        let fr = FlightRecorder::new(16);
        fr.record(rec(21, 40));
        fr.record(rec(22, 40)); // same bucket, newer
        let dump = parse_dump(&fr.dump()).unwrap();
        assert_eq!(dump.exemplars.len(), 1);
        assert_eq!(dump.exemplars[0].trace_id, 22);
    }

    #[test]
    fn eviction_keeps_exemplars_resolvable() {
        let fr = FlightRecorder::new(4);
        for i in 0..20u64 {
            fr.record(rec(100 + i, 10 + i * 100));
        }
        assert_eq!(fr.len(), 4);
        let dump = parse_dump(&fr.dump()).unwrap();
        assert_eq!(dump.records.len(), 4);
        assert_eq!(dump.evicted, 16);
        // Every exemplar points at an in-ring record (parse_dump already
        // enforces this; double-check the bucket set matches the ring).
        assert_eq!(dump.exemplars.len(), 4);
        for e in &dump.exemplars {
            assert!(dump.records.iter().any(|r| r.trace_id == e.trace_id));
        }
    }

    #[test]
    fn parser_rejects_unresolvable_exemplars_and_damage() {
        let fr = FlightRecorder::new(8);
        fr.record(rec(31, 40));
        let good = fr.dump();
        // An exemplar whose trace id matches no record must fail.
        let dangling =
            good.replace("trace=31 latency_us=40\n# end", "trace=99 latency_us=40\n# end");
        assert!(parse_dump(&dangling).unwrap_err().contains("resolve"));
        // Truncation (no footer).
        let truncated: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(parse_dump(&truncated).unwrap_err().contains("footer"));
        // Footer count mismatch.
        let miscounted = good.replace("records=1", "records=2");
        assert!(parse_dump(&miscounted).unwrap_err().contains("disagree"));
        // Unknown class.
        let badclass = good.replace("class=exact", "class=wat");
        assert!(parse_dump(&badclass).unwrap_err().contains("unknown class"));
    }

    #[test]
    fn concurrent_records_keep_one_dense_ascending_ring() {
        let fr = FlightRecorder::new(1024);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (fr, start) = (&fr, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..1_000 {
                        fr.record(rec(t * 1_000 + i, 10 + i));
                    }
                });
            }
        });
        // parse_dump rejects seqs that are not strictly ascending
        let dump = parse_dump(&fr.dump()).unwrap();
        assert_eq!(dump.records.len(), 1024);
        assert_eq!(dump.evicted, 2976);
        let seqs: Vec<u64> = dump.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (2977..=4000).collect::<Vec<u64>>(), "the newest 1024 seqs, no gaps");
    }

    #[test]
    fn class_and_tier_names_roundtrip() {
        for c in [
            OutcomeClass::Exact,
            OutcomeClass::Degraded,
            OutcomeClass::Cached,
            OutcomeClass::BudgetExhausted,
            OutcomeClass::DeadlineHit,
            OutcomeClass::Error,
        ] {
            assert_eq!(OutcomeClass::parse(c.as_str()), Some(c));
        }
        for t in [CacheTier::Outcome, CacheTier::Full] {
            assert_eq!(CacheTier::parse(t.as_str()), Some(t));
        }
        assert_eq!(OutcomeClass::parse("nope"), None);
    }
}
