//! One-command benchmark of the Sekitei planner and planning server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-leveled|plan-adversarial|serve-zipf \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}` carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! and the spans go to `.perfbench/`. The line before it is the run's
//! provenance: commit, source digest, seed, workload and the quartiles
//! behind each metric. Any failed check makes the exit code 1.
//! `--record` re-plans every instance any seed can draw and prints the
//! recorded-outcome table (`expected_costs.tsv`).

mod calib;
mod clock;
mod corpus;
mod expected;
mod plan;
mod serve;
mod stats;
mod trace;

use stats::{json_str, Metric};

pub const WORKLOADS: [&str; 3] = ["plan-leveled", "plan-adversarial", "serve-zipf"];

const END_TO_END: [&str; 8] = [
    "setup_s",
    "throughput_per_cpu_s",
    "p50_cpu_ms",
    "tail_cpu_ms",
    "within_limit_share",
    "proved_optimal_share",
    "mean_plan_cost",
    "peak_rss_mb",
];

/// Every per-layer metric, printed for every workload; a layer a workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("compile.ms", "ms"),
    ("compile.symmetry_ms", "ms"),
    ("compile.actions", "count"),
    ("compile.pruned", "count"),
    ("compile.share", "ratio"),
    ("plrg.ms", "ms"),
    ("plrg.nodes", "count"),
    ("slrg.ms", "ms"),
    ("slrg.nodes", "count"),
    ("slrg.memo_hits", "count"),
    ("rg.ms", "ms"),
    ("rg.nodes", "count"),
    ("rg.expansions", "count"),
    ("rg.replay_prune_share", "ratio"),
    ("rg.dominance_pruned", "count"),
    ("rg.symmetry_pruned", "count"),
    ("rg.budget_exhausted_share", "ratio"),
    ("concretize.ms", "ms"),
    ("concretize.calls", "count"),
    ("concretize.accept_share", "ratio"),
    ("cert.emit_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("sim.validate_ms", "ms"),
    ("spec.decode_ms", "ms"),
    ("spec.encode_ms", "ms"),
    ("spec.request_bytes", "bytes"),
    ("spec.response_bytes", "bytes"),
    ("server.hit_share", "ratio"),
    ("server.task_hit_share", "ratio"),
    ("server.coalesced", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_tail_ms", "ms"),
    ("server.hit_ms", "ms"),
    ("server.miss_ms", "ms"),
    ("server.search_ms", "ms"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("driver.lag_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Set-up repetitions of one run and the digest of the corpus they built.
pub struct Setup {
    /// Each repetition's time, scaled as the workload scales its times, s.
    pub times: Vec<f64>,
    /// The median raw time, s.
    pub raw_s: f64,
    pub corpus_digest: u64,
}

impl Setup {
    /// Raw set-up times, scaled by `factor` (see [`calib`]).
    pub fn new(raw: Vec<f64>, factor: f64, corpus_digest: u64) -> Setup {
        let raw_s = stats::median(&raw);
        Setup { times: raw.iter().map(|t| t * factor).collect(), raw_s, corpus_digest }
    }
}

/// What a workload run hands back for printing.
pub struct Report {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub setup: Setup,
    pub notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn failed(e: String) -> Report {
        Report {
            attempted: 1,
            failures: vec![e],
            metrics: Vec::new(),
            setup: Setup { times: Vec::new(), raw_s: 0.0, corpus_digest: 0 },
            notes: Vec::new(),
            tracer: None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// The commit checked out, read from `.git` in the working directory
/// (no git process, nothing read outside the checkout); "unknown" when
/// the checkout is not a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the sources the benchmark builds (`crates/`, `Cargo.lock`,
/// `perfbench/src`), naming the code measured where git is unavailable.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk("crates".as_ref(), &mut files);
    walk("perfbench/src".as_ref(), &mut files);
    files.sort();
    let h = files.iter().fold(corpus::FNV_INIT, |h, f| {
        let h = corpus::fnv(h, f.to_string_lossy().as_bytes());
        corpus::fnv(h, &std::fs::read(f).unwrap_or_default())
    });
    format!("{h:016x}")
}

fn record() {
    let mut lines = vec![
        "# Recorded outcome of every instance a seed can draw: key, class, cost.".to_string(),
        "# Regenerate with `--record` (see README.md); exact costs are optimal costs.".to_string(),
    ];
    for w in WORKLOADS {
        let cfg = if w == "serve-zipf" { serve::record_config() } else { plan::config(w) };
        lines.extend(plan::record(w, &cfg));
    }
    println!("{}", lines.join("\n"));
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return record(),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace),
        w => plan::run(w, args.seed, args.seconds, args.trace),
    };

    let mut failures = report.failures;
    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            match report.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => metrics.push(m.clone()),
                Some(m) => failures.push(format!("{name} reported in {} not {unit}", m.unit)),
                None => metrics.push(Metric::new(name, unit, 0.0)),
            }
        }
        if let Some(tr) = &report.tracer {
            let path = format!(".perfbench/trace-{}-{}.jsonl", args.workload, args.seed);
            if let Err(e) = tr.write(path.as_ref()) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    } else {
        for name in END_TO_END {
            match report.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() && m.value != 0.0 => metrics.push(m.clone()),
                Some(m) => failures.push(format!("{name} measured {}", m.value)),
                None if failures.is_empty() => failures.push(format!("{name} not measured")),
                None => {}
            }
        }
    }

    for n in &report.notes {
        println!("# {n}");
    }
    for m in &metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for f in failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let failed = failures.len();
    let provenance = format!(
        "{{\"provenance\": {{\"commit\": {}, \"source_digest\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"corpus_digest\": \"{:016x}\", \"setups\": {}, \
         \"first_failures\": [{}], \"metrics\": {}}}}}",
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.setup.corpus_digest,
        report.setup.times.len(),
        failures.iter().take(5).map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        stats::metrics_json(&metrics, true),
    );
    println!("{provenance}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        report.attempted.max(1),
        failed,
        stats::metrics_json(&metrics, false)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
