//! Versioned text exposition of a [`MetricsRegistry`].
//!
//! A running server answers the `Metrics` control request with this
//! format, so any client (CLI, CI script, curl-equivalent) can scrape a
//! live process without restarting it. The format is line-oriented and
//! self-describing:
//!
//! ```text
//! # sekitei-metrics v1
//! counter served 3
//! gauge queue_depth -1
//! histogram latency_us count=3 sum=60 max=30
//! bucket latency_us 10 10 11 2
//! bucket latency_us 30 30 31 1
//! # end sekitei-metrics
//! ```
//!
//! * header/footer lines pin the version and detect truncation;
//! * metric lines are name-sorted (registry iteration order), so the
//!   exposition of a quiesced registry is byte-deterministic;
//! * `bucket <name> <index> <lo> <hi> <count>` lines follow their
//!   `histogram` line, ascending by index, non-zero buckets only. `lo`/`hi`
//!   are the half-open value bounds so a consumer never needs to
//!   re-derive the bucket layout.
//!
//! [`parse_exposition`] is the strict inverse: it validates the header,
//! footer, line shapes, bucket ordering/bounds, and that bucket counts
//! sum to each histogram's `count`. The server is scraped while hot, so
//! the one concession to concurrency is that totals are allowed to run
//! *ahead* of the bucket sum (a racing `record` bumps `count` before its
//! bucket) — never behind.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{bucket_bounds, Histogram, MetricView, MetricsRegistry};

/// Version tag in the exposition header. Bump on any breaking change to
/// the line grammar.
pub const EXPOSITION_VERSION: u32 = 1;

const HEADER: &str = "# sekitei-metrics v1";
const FOOTER: &str = "# end sekitei-metrics";

/// One non-empty bucket of an exposed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketEntry {
    pub index: usize,
    /// Half-open value bounds `[lo, hi)` of the bucket.
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// Point-in-time copy of one histogram as carried by the exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketEntry>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile over the snapshot buckets, mirroring
    /// [`Histogram::quantile`]: the lower bound of the bucket holding the
    /// rank-`ceil(q * count)` sample. Ranks that fall into the
    /// scrape-race gap (totals ahead of bucket sums) resolve to the last
    /// bucket's lower bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let n: u64 = self.buckets.iter().map(|b| b.count).sum();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.lo;
            }
        }
        self.buckets.last().map(|b| b.lo).unwrap_or(0)
    }
}

/// Parsed form of a metrics exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Render the registry in exposition format (see module docs).
pub fn expose(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    registry.for_each(|name, view| match view {
        MetricView::Counter(v) => {
            let _ = writeln!(out, "counter {name} {v}");
        }
        MetricView::Gauge(v) => {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        MetricView::Histogram(h) => {
            let snap = h.snapshot();
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} max={}",
                snap.count, snap.sum, snap.max
            );
            for b in &snap.buckets {
                let _ = writeln!(out, "bucket {name} {} {} {} {}", b.index, b.lo, b.hi, b.count);
            }
        }
    });
    out.push_str(FOOTER);
    out.push('\n');
    out
}

fn parse_u64(s: &str, what: &str, line_no: usize) -> Result<u64, String> {
    s.parse().map_err(|_| format!("line {line_no}: bad {what} {s:?}"))
}

/// Strict parser for the exposition format. Returns a description of the
/// first violation: unknown line kind, missing header/footer, orphaned or
/// out-of-order bucket lines, bounds that disagree with the bucket
/// layout, or bucket sums exceeding the histogram total.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l == HEADER => {}
        Some((_, l)) => return Err(format!("bad header {l:?}, expected {HEADER:?}")),
        None => return Err("empty exposition".into()),
    }
    let mut out = Exposition::default();
    // Name of the histogram whose bucket lines are currently legal.
    let mut open_hist: Option<String> = None;
    let mut saw_footer = false;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if saw_footer {
            return Err(format!("line {line_no}: content after footer"));
        }
        if line == FOOTER {
            saw_footer = true;
            continue;
        }
        let mut parts = line.split(' ');
        let kind = parts.next().unwrap_or("");
        if kind != "bucket" {
            open_hist = None;
        }
        match kind {
            "counter" => {
                let (name, val) = (parts.next(), parts.next());
                let (Some(name), Some(val), None) = (name, val, parts.next()) else {
                    return Err(format!("line {line_no}: malformed counter line"));
                };
                let v = parse_u64(val, "counter value", line_no)?;
                if out.counters.insert(name.to_string(), v).is_some() {
                    return Err(format!("line {line_no}: duplicate counter {name:?}"));
                }
            }
            "gauge" => {
                let (name, val) = (parts.next(), parts.next());
                let (Some(name), Some(val), None) = (name, val, parts.next()) else {
                    return Err(format!("line {line_no}: malformed gauge line"));
                };
                let v: i64 =
                    val.parse().map_err(|_| format!("line {line_no}: bad gauge value {val:?}"))?;
                if out.gauges.insert(name.to_string(), v).is_some() {
                    return Err(format!("line {line_no}: duplicate gauge {name:?}"));
                }
            }
            "histogram" => {
                let Some(name) = parts.next() else {
                    return Err(format!("line {line_no}: malformed histogram line"));
                };
                let mut snap = HistogramSnapshot::default();
                let mut seen = [false; 3];
                for field in parts {
                    let (key, val) = field
                        .split_once('=')
                        .ok_or_else(|| format!("line {line_no}: bad field {field:?}"))?;
                    let slot = match key {
                        "count" => 0,
                        "sum" => 1,
                        "max" => 2,
                        _ => return Err(format!("line {line_no}: unknown field {key:?}")),
                    };
                    if seen[slot] {
                        return Err(format!("line {line_no}: duplicate field {key:?}"));
                    }
                    seen[slot] = true;
                    let v = parse_u64(val, key, line_no)?;
                    match slot {
                        0 => snap.count = v,
                        1 => snap.sum = v,
                        _ => snap.max = v,
                    }
                }
                if seen != [true; 3] {
                    return Err(format!("line {line_no}: histogram line missing fields"));
                }
                if out.histograms.insert(name.to_string(), snap).is_some() {
                    return Err(format!("line {line_no}: duplicate histogram {name:?}"));
                }
                open_hist = Some(name.to_string());
            }
            "bucket" => {
                let Some(name) = parts.next() else {
                    return Err(format!("line {line_no}: malformed bucket line"));
                };
                if open_hist.as_deref() != Some(name) {
                    return Err(format!(
                        "line {line_no}: bucket for {name:?} not under its histogram line"
                    ));
                }
                let (Some(i), Some(lo), Some(hi), Some(c), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("line {line_no}: malformed bucket line"));
                };
                let index = parse_u64(i, "bucket index", line_no)? as usize;
                let entry = BucketEntry {
                    index,
                    lo: parse_u64(lo, "bucket lo", line_no)?,
                    hi: parse_u64(hi, "bucket hi", line_no)?,
                    count: parse_u64(c, "bucket count", line_no)?,
                };
                if entry.count == 0 {
                    return Err(format!("line {line_no}: zero-count bucket exposed"));
                }
                if bucket_bounds(index) != (entry.lo, entry.hi) {
                    return Err(format!("line {line_no}: bucket {index} bounds disagree"));
                }
                let hist = out.histograms.get_mut(name).unwrap();
                if let Some(prev) = hist.buckets.last() {
                    if prev.index >= index {
                        return Err(format!("line {line_no}: bucket indexes not ascending"));
                    }
                }
                hist.buckets.push(entry);
            }
            _ => return Err(format!("line {line_no}: unknown line kind {kind:?}")),
        }
    }
    if !saw_footer {
        return Err("missing footer (truncated exposition?)".into());
    }
    for (name, h) in &out.histograms {
        let bucket_sum: u64 = h.buckets.iter().map(|b| b.count).sum();
        if bucket_sum > h.count {
            return Err(format!(
                "histogram {name:?}: bucket sum {bucket_sum} exceeds count {}",
                h.count
            ));
        }
    }
    Ok(out)
}

impl Histogram {
    /// Point-in-time copy: totals plus the non-empty buckets in index
    /// order. Taken bucket-by-bucket with relaxed loads, so under
    /// concurrent recording the totals may run slightly ahead of the
    /// bucket sum (the same tolerance [`parse_exposition`] allows).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: Vec::new(),
        };
        self.for_each_bucket(|index, count| {
            let (lo, hi) = bucket_bounds(index);
            snap.buckets.push(BucketEntry { index, lo, hi, count });
        });
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("served").add(3);
        reg.gauge("queue_depth").set(-1);
        let h = reg.histogram("latency_us");
        h.record(10);
        h.record(10);
        h.record(30);
        reg
    }

    #[test]
    fn expose_then_parse_roundtrips() {
        let reg = sample_registry();
        let text = expose(&reg);
        let parsed = parse_exposition(&text).unwrap();
        assert_eq!(parsed.counters["served"], 3);
        assert_eq!(parsed.gauges["queue_depth"], -1);
        let h = &parsed.histograms["latency_us"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 50);
        assert_eq!(h.max, 30);
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets[0], BucketEntry { index: 10, lo: 10, hi: 11, count: 2 });
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), 30);
    }

    #[test]
    fn exposition_is_deterministic_and_framed() {
        let a = expose(&sample_registry());
        let b = expose(&sample_registry());
        assert_eq!(a, b);
        assert!(a.starts_with("# sekitei-metrics v1\n"));
        assert!(a.ends_with("# end sekitei-metrics\n"));
    }

    #[test]
    fn snapshot_quantile_matches_live_histogram() {
        let h = Histogram::new();
        for v in [1u64, 5, 7, 90, 4096, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), h.quantile(q), "q={q}");
        }
    }

    #[test]
    fn parse_rejects_malformed_expositions() {
        let good = expose(&sample_registry());
        // Truncation: drop the footer.
        let truncated = good.strip_suffix("# end sekitei-metrics\n").unwrap();
        assert!(parse_exposition(truncated).unwrap_err().contains("footer"));
        // Wrong header.
        assert!(parse_exposition("# sekitei-metrics v9\ncounter a 1\n# end sekitei-metrics\n")
            .unwrap_err()
            .contains("header"));
        // Orphan bucket line (no preceding histogram).
        let orphan = "# sekitei-metrics v1\nbucket latency_us 10 10 11 2\n# end sekitei-metrics\n";
        assert!(parse_exposition(orphan).unwrap_err().contains("not under"));
        // Bucket bounds that disagree with the layout.
        let bad_bounds =
            good.replace("bucket latency_us 10 10 11 2", "bucket latency_us 10 9 11 2");
        assert!(parse_exposition(&bad_bounds).unwrap_err().contains("disagree"));
        // Bucket sum exceeding the declared count.
        let overrun = good.replace("count=3", "count=1");
        assert!(parse_exposition(&overrun).unwrap_err().contains("exceeds"));
        // Unknown line kind.
        let unknown = "# sekitei-metrics v1\nblorp x 1\n# end sekitei-metrics\n";
        assert!(parse_exposition(unknown).unwrap_err().contains("unknown line kind"));
    }

    #[test]
    fn scrape_race_tolerance_totals_may_lead_buckets() {
        // count ahead of bucket sum parses (racing record); behind fails.
        let lead = "# sekitei-metrics v1\nhistogram h count=3 sum=30 max=10\nbucket h 10 10 11 2\n# end sekitei-metrics\n";
        assert!(parse_exposition(lead).is_ok());
    }
}
