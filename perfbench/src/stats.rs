//! Sample statistics and the result line.

use std::fmt::Write as _;

/// Linear-interpolated quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples, and that percentile. `None` below 11
/// samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples.to_vec());
    let n = s.len();
    (n > 10).then(|| (s[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// One reported metric with the spread of the values it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// First quartile, median and third quartile of the per-pass (or
    /// per-window, per-setup) values behind `value`, when there are any.
    pub spread: Option<[f64; 3]>,
    /// Samples behind `value`.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, spread: None, n: 1 }
    }

    pub fn with_samples(mut self, samples: &[f64]) -> Metric {
        if !samples.is_empty() {
            let s = sorted(samples.to_vec());
            self.spread = Some([quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75)]);
            self.n = samples.len();
        }
        self
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": …, "unit": …}, …}`, optionally with each metric's
/// quartiles and sample count.
pub fn metrics_json(metrics: &[Metric], with_spread: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}",
            json_str(m.name),
            num(m.value),
            json_str(m.unit)
        );
        if with_spread {
            if let Some([q1, med, q3]) = m.spread {
                let _ = write!(
                    out,
                    ", \"q1\": {}, \"median\": {}, \"q3\": {}",
                    num(q1),
                    num(med),
                    num(q3)
                );
            }
            let _ = write!(out, ", \"n\": {}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
