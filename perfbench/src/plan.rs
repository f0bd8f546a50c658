//! The planning workloads: `plan-leveled` and `plan-adversarial`.
//!
//! Closed loop on one thread over the seeded corpus, pass after pass until
//! the run's time is up. Each instance is timed on the CPU clock
//! ([`crate::clock`]) from `compile` to a certified outcome: the planner
//! facade, then the independent certificate check and, for degraded plans,
//! the simulator.
//!
//! The traced run alternates an untraced pass with a traced pass. A traced
//! instance is compiled under the benchmark's span, then solved by the
//! facade on the compiled task with the program's own tracing on; the
//! facade's PLRG, RG, SLRG and candidate-validation spans and counters are
//! read back from that trace. The certificate check and the simulator run
//! under the benchmark's spans, and symmetry detection and certificate
//! emission are re-timed outside the instance's time.

use crate::corpus::{self, fnv, Instance, FNV_INIT};
use crate::expected::{self, Table};
use crate::stats::{self, Metric};
use crate::trace::{Tracer, NO_PARENT};
use crate::{calib, clock, Report, Setup};
use sekitei_cert::{check_certificate, emit};
use sekitei_compile::{compile, node_orbits, PlanningTask};
use sekitei_model::CppProblem;
use sekitei_planner::{Plan, Planner, PlannerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// RG node budget of `plan-adversarial`: deterministic (no deadline) and
/// large enough for Large/B to finish its exact search.
pub const ADVERSARIAL_BUDGET: usize = 35_000;

/// Latency limit of one certified plan: just above the highest p99 of
/// per-instance times measured on seeds 1–6 on a 2-vCPU VM (430–488 ms on
/// `plan-leveled`, where it is Large/E; 389–417 ms on `plan-adversarial`).
pub fn limit_ms(workload: &str) -> f64 {
    match workload {
        "plan-adversarial" => 450.0,
        _ => 520.0,
    }
}

/// Passes per instance the tail is taken over; every run makes more.
const TAIL_PASSES: usize = 6;

/// References on each side of an instance its speed factor is taken over.
const REFERENCE_RADIUS: usize = 2;

/// Spans re-timed outside an instance's time: they split a layer's time,
/// they are not extra work.
const RETIMED: [&str; 2] = ["compile.symmetry", "cert.emit"];

pub fn config(workload: &str) -> PlannerConfig {
    match workload {
        "plan-adversarial" => PlannerConfig {
            degrade: true,
            max_nodes: ADVERSARIAL_BUDGET,
            ..PlannerConfig::default()
        },
        _ => PlannerConfig::default(),
    }
}

/// A checked outcome: the plan's cost and class, or no plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// `(cost lower bound, exact)` of the returned plan.
    pub plan: Option<(f64, bool)>,
    /// The certificate proves a zero optimality gap.
    pub proved: bool,
}

/// Check a returned plan: its certificate against `task`, and a degraded
/// plan in the simulator. Spans go under `parent` when tracing.
fn certify(
    problem: &CppProblem,
    task: &PlanningTask,
    plan: Option<&Plan>,
    mut tr: Option<(&mut Tracer, usize, u64)>,
) -> Result<Answer, String> {
    let Some(plan) = plan else { return Ok(Answer { plan: None, proved: false }) };
    let cert = plan.certificate.as_ref().ok_or("plan returned without a certificate")?;
    let span = tr.as_mut().map(|(t, parent, item)| t.enter("cert.check", *parent, *item));
    let report = check_certificate(task, cert);
    if let (Some((t, ..)), Some(s)) = (tr.as_mut(), span) {
        t.exit(s);
    }
    let report = report.map_err(|v| format!("certificate rejected: {v}"))?;
    if plan.degraded {
        let span = tr.as_mut().map(|(t, parent, item)| t.enter("sim.validate", *parent, *item));
        let sim = sekitei_sim::validate_plan(problem, task, plan);
        if let (Some((t, ..)), Some(s)) = (tr.as_mut(), span) {
            t.exit(s);
        }
        if !sim.ok {
            return Err(format!("degraded plan fails simulation: {:?}", sim.violations));
        }
    }
    let proved = report.gap_proved && cert.bound.claimed_gap == Some(0.0);
    Ok(Answer { plan: Some((plan.cost_lower_bound, !plan.degraded)), proved })
}

/// The untraced path: the planner facade, then the checks.
pub fn solve(planner: &Planner, problem: &CppProblem) -> Result<(Answer, usize), String> {
    let o = planner.plan(problem).map_err(|e| format!("plan error: {e}"))?;
    let answer = certify(problem, &o.task, o.plan.as_ref(), None)?;
    Ok((answer, o.stats.rg_nodes))
}

/// Exact counts of one traced instance.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    actions: usize,
    pruned: usize,
    plrg_nodes: usize,
    slrg_nodes: usize,
    slrg_memo_hits: usize,
    rg_nodes: usize,
    rg_expansions: usize,
    replay_prunes: usize,
    dominance_pruned: usize,
    symmetry_pruned: usize,
    budget_exhausted: usize,
    concretize_calls: usize,
    candidate_rejects: usize,
}

/// The traced path: `compile` under the benchmark's span, then the facade
/// on the compiled task under the program's own tracing. Returns the
/// instance's CPU time, ms, beside the answer and counts.
fn solve_traced(
    planner: &Planner,
    problem: &CppProblem,
    tr: &mut Tracer,
    item: u64,
) -> Result<(Answer, Counts, f64), String> {
    let cpu = clock::cpu();
    let root = tr.enter("plan", NO_PARENT, item);
    let s = tr.enter("compile", root, item);
    let t0 = Instant::now();
    let task = compile(problem).map_err(|e| format!("compile error: {e}"))?;
    tr.exit(s);
    let facade = tr.enter("planner", root, item);
    sekitei_obs::enable();
    let o = planner.plan_task(task, t0);
    sekitei_obs::disable();
    tr.exit(facade);
    let answer = certify(problem, &o.task, o.plan.as_ref(), Some((tr, root, item)))?;
    tr.exit(root);
    let cpu_ms = clock::ms_since(cpu);

    // the facade's PLRG and RG spans, with SLRG and candidate validation as
    // aggregate children of RG, go under the benchmark's facade span
    let trace = sekitei_obs::take_trace();
    tr.import(&trace, facade)?;
    let event = |name: &str| trace.event_sum(name) as usize;
    let st = &o.stats;
    let c = Counts {
        actions: st.total_actions,
        pruned: st.compile.pruned,
        plrg_nodes: st.plrg_props + st.plrg_actions,
        slrg_nodes: st.slrg_nodes,
        slrg_memo_hits: event("slrg_memo_hits"),
        rg_nodes: st.rg_nodes,
        rg_expansions: event("rg_expansions"),
        replay_prunes: st.replay_prunes,
        dominance_pruned: st.dominance_pruned,
        symmetry_pruned: st.symmetry_pruned,
        budget_exhausted: usize::from(st.budget_exhausted),
        concretize_calls: trace
            .records
            .iter()
            .filter(|r| r.is_span() && r.name == "concretize")
            .map(|r| r.count as usize)
            .sum(),
        candidate_rejects: st.candidate_rejects,
    };

    // symmetry detection and certificate emission re-timed outside the
    // instance's time on the facade's own inputs: they split the compile
    // and facade spans, they are not extra work
    let s = tr.enter("compile.symmetry", NO_PARENT, item);
    let _ = node_orbits(&o.task, problem.network.num_nodes());
    tr.exit(s);
    if let Some(p) = &o.plan {
        let cert = p.certificate.as_ref().ok_or("plan returned without a certificate")?;
        let actions: Vec<_> = p.steps.iter().map(|s| s.action).collect();
        let s = tr.enter("cert.emit", NO_PARENT, item);
        let again = emit(
            &o.task,
            &actions,
            &p.execution.source_values,
            &p.execution.ledger,
            cert.outcome,
            cert.bound,
        );
        tr.exit(s);
        if &again != cert {
            return Err("re-emitted certificate differs from the planner's".into());
        }
    }
    Ok((answer, c, cpu_ms))
}

/// Set up the corpus several times and keep the last one. Each repetition
/// is timed next to a reference, and the times are scaled to its nominal
/// speed.
fn setup(workload: &str, seed: u64) -> (Vec<Instance>, Setup) {
    let mut times = Vec::new();
    let mut refs = Vec::new();
    let mut corpus = Vec::new();
    let mut digest = FNV_INIT;
    for _ in 0..40 {
        refs.push(calib::reference_ms());
        let t = clock::cpu();
        corpus = corpus::corpus(workload, seed);
        digest = corpus.iter().fold(FNV_INIT, |h, i| fnv(h, &sekitei_spec::encode(&i.problem)));
        times.push(clock::ms_since(t) / 1e3);
    }
    (corpus, Setup::new(times, calib::factor(&refs), digest))
}

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let table = Table::load();
    let (corpus, setup) = setup(workload, seed);
    let cfg = config(workload);
    let planner = Planner::new(cfg);
    let limit = limit_ms(workload);
    let n = corpus.len();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut answers: Vec<Option<(Answer, usize)>> = vec![None; n];
    // untraced instances in time order: (pass, instance, raw CPU ms,
    // reference ms taken just before it)
    let mut samples: Vec<(usize, usize, f64, f64)> = Vec::new();

    let mut tracer = Tracer::new();
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut counts: Vec<Option<Counts>> = vec![None; n];

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut pass = 0usize;
    // the traced run alternates untraced and traced passes
    'passes: loop {
        let traced_pass = traced && pass % 2 == 1;
        for (i, inst) in corpus.iter().enumerate() {
            if pass >= 2 - usize::from(!traced) && Instant::now() >= deadline {
                break 'passes;
            }
            let item = i as u64;
            // a traced instance's time leaves out the re-timed spans
            let mut cpu_ms = 0.0;
            let mut reference = 0.0;
            let result = if traced_pass {
                solve_traced(&planner, &inst.problem, &mut tracer, item).map(|(a, c, cpu)| {
                    cpu_ms = cpu;
                    (a, c.rg_nodes, Some(c))
                })
            } else {
                reference = calib::reference_ms();
                let t = clock::cpu();
                let r = solve(&planner, &inst.problem).map(|(a, nodes)| (a, nodes, None));
                cpu_ms = clock::ms_since(t);
                r
            };
            attempted += 1;
            let checked = result.and_then(|(answer, nodes, c)| {
                table.check(&inst.key, answer.plan)?;
                // every pass of an instance must reach the same outcome
                // with the same search, traced or not
                match answers[i] {
                    Some(prev) if prev != (answer, nodes) => Err(format!(
                        "outcome changed between passes: {prev:?} vs {:?}",
                        (answer, nodes)
                    )),
                    _ => {
                        answers[i] = Some((answer, nodes));
                        Ok(c)
                    }
                }
            });
            match checked {
                Ok(c) if traced_pass => {
                    traced_times[i].push(cpu_ms);
                    counts[i] = c;
                }
                Ok(_) => samples.push((pass, i, cpu_ms, reference)),
                Err(e) => failures.push(format!("{}: {e}", inst.key)),
            }
        }
        pass += 1;
    }
    let measured = start.elapsed().as_secs_f64();

    // times scaled to the reference's nominal speed, per instance
    let refs: Vec<f64> = samples.iter().map(|s| s.3).collect();
    let factors = calib::local_factors(&refs, REFERENCE_RADIUS);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut raw_times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_ms: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for (&(p, i, cpu, _), f) in samples.iter().zip(&factors) {
        times[i].push(cpu * f);
        raw_times[i].push(cpu);
        let e = pass_ms.entry(p).or_default();
        *e = (e.0 + 1, e.1 + cpu * f);
    }
    let pass_rates: Vec<f64> = pass_ms.values().map(|(k, ms)| *k as f64 / (ms / 1e3)).collect();
    let all: Vec<f64> = times.iter().flatten().copied().collect();
    let within = all.iter().filter(|&&w| w <= limit).count();
    let typical = medians(&times);
    let solved: Vec<&Answer> = answers.iter().flatten().map(|(a, _)| a).collect();
    let costs: Vec<f64> = solved.iter().filter_map(|a| a.plan.map(|(c, _)| c)).collect();
    let proved = solved.iter().filter(|a| a.proved).count();
    let raw_typical = medians(&raw_times);
    let mut notes = vec![
        format!("passes {pass}, {n} instances, measured {measured:.2} s"),
        format!(
            "reference {:.3} ms median (nominal {}); raw: setup {:.6} s, {:.3} plans/s, p50 {:.3} ms",
            if refs.is_empty() { f64::NAN } else { stats::median(&refs) },
            calib::NOMINAL_MS,
            setup.raw_s,
            n as f64 / (raw_typical.iter().sum::<f64>() / 1e3),
            stats::median(&raw_typical)
        ),
    ];

    let metrics = if !traced {
        let mid = middle(&times, TAIL_PASSES);
        let (tail_cpu_ms, tail_pct) = stats::tail(&mid).unwrap_or((f64::NAN, f64::NAN));
        notes.push(format!(
            "tail_cpu_ms is p{tail_pct:.2} of {} samples, the {TAIL_PASSES} middle passes of each instance; \
             p99 of all {} samples {:.3} ms, latency limit {limit} ms",
            mid.len(),
            all.len(),
            stats::quantile(&stats::sorted(all.clone()), 0.99)
        ));
        vec![
            Metric::new("setup_s", "s", stats::median(&setup.times)).with_samples(&setup.times),
            Metric::new(
                "throughput_per_cpu_s",
                "1/s",
                n as f64 / (typical.iter().sum::<f64>() / 1e3),
            )
            .with_samples(&pass_rates),
            Metric::new("p50_cpu_ms", "ms", stats::median(&typical)).with_samples(&all),
            Metric { n: mid.len(), ..Metric::new("tail_cpu_ms", "ms", tail_cpu_ms) },
            Metric::new("within_limit_share", "ratio", within as f64 / attempted.max(1) as f64),
            Metric::new("proved_optimal_share", "ratio", proved as f64 / n as f64),
            Metric::new("mean_plan_cost", "cost", stats::mean(&costs)),
            Metric::new("peak_rss_mb", "MiB", stats::peak_rss_mb()),
        ]
    } else {
        match tracer.self_times() {
            Ok(self_ns) => {
                layer_metrics(&self_ns, &tracer, &counts, &raw_times, &traced_times, &mut notes)
            }
            Err(e) => {
                failures.push(format!("trace accounting: {e}"));
                Vec::new()
            }
        }
    };
    let total_rg: usize = answers.iter().flatten().map(|(_, nodes)| nodes).sum();
    notes.push(format!(
        "deterministic: corpus {:016x} rg.nodes {total_rg} proved_optimal_share {} mean_plan_cost {}",
        setup.corpus_digest,
        proved as f64 / n as f64,
        stats::mean(&costs)
    ));
    Report { attempted, failures, metrics, setup, notes, tracer: traced.then_some(tracer) }
}

/// Each instance's typical time: the median of its passes.
fn medians(times: &[Vec<f64>]) -> Vec<f64> {
    times.iter().filter(|w| !w.is_empty()).map(|w| stats::median(w)).collect()
}

/// The `k` middle passes of each instance, pooled. The tail is taken over
/// these: a fixed count per instance keeps the tail's rank on the same
/// instances however many passes a run makes.
fn middle(times: &[Vec<f64>], k: usize) -> Vec<f64> {
    times
        .iter()
        .flat_map(|w| {
            let skip = w.len().saturating_sub(k) / 2;
            stats::sorted(w.clone()).into_iter().skip(skip).take(k)
        })
        .collect()
}

fn layer_metrics(
    self_ns: &std::collections::BTreeMap<&'static str, u64>,
    tracer: &Tracer,
    counts: &[Option<Counts>],
    times: &[Vec<f64>],
    traced_times: &[Vec<f64>],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let plans = tracer.spans.iter().filter(|s| s.name == "plan").count().max(1) as f64;
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / plans;
    let c: Vec<Counts> = counts.iter().flatten().copied().collect();
    let sum = |f: fn(&Counts) -> usize| c.iter().map(f).sum::<usize>() as f64;
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall_ns = tracer.total("plan") as f64;
    let layers: f64 =
        self_ns.iter().filter(|(k, _)| !RETIMED.contains(k)).map(|(_, v)| *v as f64).sum();
    notes.push(format!(
        "trace self-check: layer self times {:.3} ms <= plan spans {:.3} ms",
        layers / 1e6,
        wall_ns / 1e6
    ));
    // tracing overhead: per-instance medians, traced against untraced
    let total = |w: &[Vec<f64>]| medians(w).iter().sum::<f64>();
    let overhead = total(traced_times) / total(times) - 1.0;
    let replay = sum(|c| c.replay_prunes);
    let calls = sum(|c| c.concretize_calls);
    vec![
        Metric::new("compile.ms", "ms", ms("compile")),
        Metric::new("compile.symmetry_ms", "ms", ms("compile.symmetry")),
        Metric::new("compile.actions", "count", sum(|c| c.actions)),
        Metric::new("compile.pruned", "count", sum(|c| c.pruned)),
        Metric::new(
            "compile.share",
            "ratio",
            share(self_ns.get("compile").copied().unwrap_or(0) as f64, wall_ns),
        ),
        Metric::new("plrg.ms", "ms", ms("plrg")),
        Metric::new("plrg.nodes", "count", sum(|c| c.plrg_nodes)),
        Metric::new("slrg.ms", "ms", ms("slrg")),
        Metric::new("slrg.nodes", "count", sum(|c| c.slrg_nodes)),
        Metric::new("slrg.memo_hits", "count", sum(|c| c.slrg_memo_hits)),
        Metric::new("rg.ms", "ms", ms("rg")),
        Metric::new("rg.nodes", "count", sum(|c| c.rg_nodes)),
        Metric::new("rg.expansions", "count", sum(|c| c.rg_expansions)),
        Metric::new("rg.replay_prune_share", "ratio", share(replay, replay + sum(|c| c.rg_nodes))),
        Metric::new("rg.dominance_pruned", "count", sum(|c| c.dominance_pruned)),
        Metric::new("rg.symmetry_pruned", "count", sum(|c| c.symmetry_pruned)),
        Metric::new(
            "rg.budget_exhausted_share",
            "ratio",
            share(sum(|c| c.budget_exhausted), c.len() as f64),
        ),
        Metric::new("concretize.ms", "ms", ms("concretize")),
        Metric::new("concretize.calls", "count", calls),
        Metric::new(
            "concretize.accept_share",
            "ratio",
            share(calls - sum(|c| c.candidate_rejects), calls),
        ),
        Metric::new("cert.emit_ms", "ms", ms("cert.emit")),
        Metric::new("cert.check_ms", "ms", ms("cert.check")),
        Metric::new("sim.validate_ms", "ms", ms("sim.validate")),
        Metric::new("trace.overhead_share", "ratio", overhead),
    ]
}

/// Plan every pool instance of `workload` once and print its record line.
pub fn record(workload: &str, cfg: &PlannerConfig) -> Vec<String> {
    let planner = Planner::new(*cfg);
    corpus::pool(workload)
        .iter()
        .map(|inst| match solve(&planner, &inst.problem) {
            Ok((a, _)) => expected::line(&inst.key, a.plan),
            Err(e) => panic!("{}: {e}", inst.key),
        })
        .collect()
}
