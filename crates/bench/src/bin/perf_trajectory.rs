//! Per-phase performance trajectory of the planner pipeline.
//!
//! Runs every network size (Tiny / Small / Large) under every level
//! scenario (A–E), timing the four pipeline phases separately:
//!
//! * `compile` — grounding + leveling + static pruning,
//! * `plrg`    — per-proposition cost fixpoint,
//! * `slrg`    — cumulative wall time of uncached set-cost A* queries,
//! * `rg`      — main regression search minus the SLRG share.
//!
//! Every row runs `REPS` times and one helper ([`repeat`]) reduces its
//! samples: `wall_ms` is the minimum (least scheduler noise), and `q1_ms`
//! and `q3_ms` are the quartiles of all `reps` walls, so a swing inside the
//! spread can be told from a regression. Results go to stdout as a table
//! and to `BENCH_planner.json` in the current directory as
//! machine-readable records `{phase, scenario, wall_ms, q1_ms, q3_ms,
//! reps, nodes, budget_exhausted}` — the file the repo's committed
//! baselines under `crates/bench/baselines/` are snapshots of. `nodes` and
//! `budget_exhausted` come from the fastest sample. `budget_exhausted`
//! flags rows whose search aborted on a budget (Small/A and Large/A stop
//! at 2 000 rejected candidates), so their `wall_ms` measures the budget,
//! not the instance.
//!
//! The `rg` rows run the raw search with the pruning layer off. `rg-prune`
//! is the full search wall (SLRG queries included) with the pruning layer
//! on (orbit symmetry breaking, the `PlannerConfig` default); compare its
//! node counts against the `rg` rows to see what the layer removes.
//! Small/A and Large/A end on the 2 000-candidate reject budget in both.
//!
//! A fifth pair of phases times the serving path end to end over a real
//! socket (Tiny and Small scenarios only):
//!
//! * `serve-cold` — first request against a freshly started server: the
//!   full decode + compile + search pipeline plus framing,
//! * `serve-warm` — the identical repeat request: an outcome-cache hit,
//!   so just hashing plus framing.
//!
//! A sixth pair compares the two repair routes of the churn engine after
//! a bottleneck-link degradation (Tiny and Small, solvable scenarios):
//!
//! * `adapt-repair`   — replan the *adapted* problem (keep/migrate cost
//!   structure around the existing placements),
//! * `scratch-repair` — replan the mutated problem from scratch.
//!
//! A seventh pair prices the proof-carrying-plan layer on every size
//! (scenarios with a plan, planned once outside the timed region):
//!
//! * `cert-emit`  — package a `PlanCertificate` from the ledger the
//!   planner already produced (witness scan + ledger copy),
//! * `cert-check` — the independent checker re-deriving the execution
//!   from the compiled task (`nodes` = ledger entries re-derived).
//!
//! The design ablations run whole `Planner::plan` calls (`nodes` = RG
//! nodes); leveling on/off is the `compile` rows of A, C and E:
//!
//! * `heuristic-slrg` / `heuristic-plrg-max` / `heuristic-blind` — the RG
//!   heuristic on Small/C: what the two logical phases buy,
//! * `replay-on` / `replay-off` — optimistic-map replay pruning on Small/C,
//! * `cutpoints-1` … `cutpoints-8` — Small/A with k cutpoints on the
//!   stream bandwidth, the paper's §4.3 levels-vs-performance tradeoff.

use sekitei_compile::compile;
use sekitei_model::resource::names::LBW;
use sekitei_model::{
    adapt_problem, AdaptConfig, CppProblem, LevelScenario, LinkClass, MediaConfig,
};
use sekitei_planner::{rg, Heuristic, Planner, PlannerConfig, Plrg, Slrg};
use sekitei_sim::existing_from_plan;
use sekitei_topology::scenarios::{self, NetSize};
use std::time::Instant;

const REPS: usize = 5;

/// One sample of one row.
#[derive(Clone, Copy)]
struct PhaseRow {
    wall_ms: f64,
    nodes: usize,
    /// The measured run aborted on a search budget (node cap, reject cap
    /// or deadline) — its wall time bounds the budget, not the instance.
    budget_exhausted: bool,
}

/// One row reduced over its samples: the fastest sample, whose wall,
/// nodes and flag the row reports, and the spread of every sample's wall.
#[derive(Clone, Copy)]
struct Summary {
    best: PhaseRow,
    reps: usize,
    q1_ms: f64,
    q3_ms: f64,
}

impl Summary {
    fn of(samples: impl Iterator<Item = PhaseRow>) -> Summary {
        let samples: Vec<PhaseRow> = samples.collect();
        // `min_by` keeps the first of equal walls
        let best = *samples
            .iter()
            .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
            .expect("at least one sample");
        let mut walls: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
        walls.sort_by(f64::total_cmp);
        // nearest-rank quartiles: the 2nd and 4th of `REPS` = 5 walls
        let n = walls.len() - 1;
        Summary { best, reps: walls.len(), q1_ms: walls[n / 4], q3_ms: walls[3 * n / 4] }
    }
}

/// Run one measurement up to `REPS` times and reduce each of its `N` rows
/// over the samples. A measurement answers `None` when it has nothing to
/// measure; that ends the reps, and `None` on the first run means no row.
fn repeat<const N: usize>(mut run: impl FnMut() -> Option<[PhaseRow; N]>) -> Option<[Summary; N]> {
    let samples: Vec<[PhaseRow; N]> = (0..REPS).map_while(|_| run()).collect();
    if samples.is_empty() {
        return None;
    }
    Some(std::array::from_fn(|i| Summary::of(samples.iter().map(|s| s[i]))))
}

/// One full pipeline run; returns [compile, plrg, slrg, rg] rows.
fn run_once(size: NetSize, sc: LevelScenario) -> [PhaseRow; 4] {
    let p = scenarios::problem(size, sc);

    let t = Instant::now();
    let task = compile(&p).expect("scenario compiles");
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let plrg = Plrg::build(&task);
    let plrg_ms = t.elapsed().as_secs_f64() * 1e3;
    let (pp, pa) = plrg.sizes();

    let cfg = PlannerConfig { symmetry: false, ..PlannerConfig::default() };
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    let t = Instant::now();
    let r = rg::search(&task, &plrg, &mut slrg, &cfg, t);
    let search_ms = t.elapsed().as_secs_f64() * 1e3;
    let slrg_ms = slrg.stats().time.as_secs_f64() * 1e3;
    let rg_ms = (search_ms - slrg_ms).max(0.0);

    [
        PhaseRow { wall_ms: compile_ms, nodes: task.num_actions(), budget_exhausted: false },
        PhaseRow { wall_ms: plrg_ms, nodes: pp + pa, budget_exhausted: false },
        PhaseRow { wall_ms: slrg_ms, nodes: slrg.stats().nodes, budget_exhausted: false },
        PhaseRow { wall_ms: rg_ms, nodes: r.nodes_created, budget_exhausted: r.budget_exhausted },
    ]
}

/// One pruned-search run (`rg-prune`): the full sequential search wall
/// with symmetry breaking on.
fn run_pruned(size: NetSize, sc: LevelScenario) -> PhaseRow {
    let p = scenarios::problem(size, sc);
    let task = compile(&p).expect("scenario compiles");
    let plrg = Plrg::build(&task);
    let cfg = PlannerConfig::default();
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    let t = Instant::now();
    let r = rg::search(&task, &plrg, &mut slrg, &cfg, t);
    PhaseRow {
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        nodes: r.nodes_created,
        budget_exhausted: r.budget_exhausted,
    }
}

/// One anytime portfolio run (`anytime-<N>ms`): the exact search raced
/// against the SLS lane under a deadline, on the adversarial unleveled
/// scenario where the plain search returns nothing. Returns the full
/// wall plus the reported optimality gap (deterministic for the fixed
/// default `sls_seed`).
fn run_anytime(size: NetSize, deadline_ms: u64) -> (PhaseRow, f64) {
    let p = scenarios::problem(size, LevelScenario::A);
    let cfg = sekitei_planner::PlannerConfig {
        degrade: true,
        anytime: true,
        deadline: Some(std::time::Duration::from_millis(deadline_ms)),
        ..Default::default()
    };
    let t = Instant::now();
    let a = sekitei_anytime::plan(&p, &cfg).expect("scenario compiles");
    let row = PhaseRow {
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        nodes: a.outcome.stats.rg_nodes,
        budget_exhausted: a.outcome.stats.budget_exhausted,
    };
    (row, a.outcome.stats.optimality_gap.unwrap_or(f64::NAN))
}

/// One cold/warm serving measurement: fresh server (so the caches really
/// are cold), one connection, one cold request, then the warm repeat.
fn serve_once(size: NetSize, sc: LevelScenario) -> [PhaseRow; 2] {
    use sekitei_server::{Connection, Server, ServerConfig};

    let server = Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let p = scenarios::problem(size, sc);
    let mut conn = Connection::connect(addr).expect("connect");

    let t = Instant::now();
    let (cold, via) = conn.plan(&p).expect("cold request");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!via.is_warm(), "fresh server cannot have the outcome cached");

    let t = Instant::now();
    let (_, via) = conn.plan(&p).expect("warm request");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    // budget-exhaustion is deterministic and caches; only deadline-tripped
    // outcomes (wall-clock luck) are deliberately uncacheable
    assert!(
        via.is_warm() || cold.stats.deadline_hit,
        "identical repeat of a deadline-free run must hit the outcome cache"
    );

    drop(conn);
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");

    let nodes = cold.stats.rg_nodes as usize;
    let budget_exhausted = cold.stats.budget_exhausted;
    [
        PhaseRow { wall_ms: cold_ms, nodes, budget_exhausted },
        PhaseRow { wall_ms: warm_ms, nodes, budget_exhausted },
    ]
}

/// One repair-route comparison: plan, squeeze the tightest WAN link to
/// 86% of baseline (enough to invalidate deployments that reserve most of
/// it, mild enough to stay repairable at fine level granularity), then
/// time adaptation-based repair vs scratch replanning of the mutated
/// problem. `None` when the scenario has no initial plan (A — nothing to
/// repair) or the squeezed instance is unsolvable (coarse levels force
/// the full conservative reservation, e.g. Tiny/B).
fn repair_once(size: NetSize, sc: LevelScenario) -> Option<[PhaseRow; 2]> {
    let p = scenarios::problem(size, sc);
    // repair-grade planner: graceful degradation on, like the churn engine
    let planner =
        Planner::new(sekitei_planner::PlannerConfig { degrade: true, ..Default::default() });
    let initial = planner.plan(&p).ok()?.plan?;

    let mut q = p.clone();
    let wan = q.network.link_ids().filter(|&l| q.network.link(l).class == LinkClass::Wan).min_by(
        |&a, &b| q.network.link_capacity(a, LBW).total_cmp(&q.network.link_capacity(b, LBW)),
    )?;
    q.network.set_link_capacity(wan, LBW, q.network.link_capacity(wan, LBW) * 0.86);

    let existing = existing_from_plan(&p, &initial);
    let adapted = adapt_problem(&q, &existing, &AdaptConfig::default());

    let t = Instant::now();
    let a = planner.plan(&adapted).expect("adapted problem compiles");
    let adapt_ms = t.elapsed().as_secs_f64() * 1e3;
    a.plan.as_ref()?;

    let t = Instant::now();
    let s = planner.plan(&q).expect("mutated problem compiles");
    let scratch_ms = t.elapsed().as_secs_f64() * 1e3;
    s.plan.as_ref()?;

    Some([
        PhaseRow {
            wall_ms: adapt_ms,
            nodes: a.stats.rg_nodes,
            budget_exhausted: a.stats.budget_exhausted,
        },
        PhaseRow {
            wall_ms: scratch_ms,
            nodes: s.stats.rg_nodes,
            budget_exhausted: s.stats.budget_exhausted,
        },
    ])
}

/// One certificate-layer measurement: plan once (degrade on, like the
/// serving path), then time packaging the certificate from the existing
/// ledger (`cert-emit`) and independently re-checking it against the
/// compiled task (`cert-check`), `REPS` times each. `None` when the
/// scenario yields no plan.
fn cert_rows(size: NetSize, sc: LevelScenario) -> Option<[Summary; 2]> {
    let p = scenarios::problem(size, sc);
    let planner =
        Planner::new(sekitei_planner::PlannerConfig { degrade: true, ..Default::default() });
    let o = planner.plan(&p).ok()?;
    let plan = o.plan?;
    let cert = plan.certificate.as_ref()?;
    let actions: Vec<_> = plan.steps.iter().map(|s| s.action).collect();

    repeat(|| {
        let t = Instant::now();
        let emitted = sekitei_cert::emit(
            &o.task,
            &actions,
            &plan.execution.source_values,
            &plan.execution.ledger,
            cert.outcome,
            cert.bound,
        );
        let emit_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let report = sekitei_cert::check_certificate(&o.task, &emitted)
            .expect("issued certificate verifies");
        let check_ms = t.elapsed().as_secs_f64() * 1e3;
        Some([
            PhaseRow { wall_ms: emit_ms, nodes: plan.steps.len(), budget_exhausted: false },
            PhaseRow { wall_ms: check_ms, nodes: report.ledger_entries, budget_exhausted: false },
        ])
    })
}

/// One ablation sample: a whole `Planner::plan` run.
fn plan_once(planner: &Planner, p: &CppProblem) -> PhaseRow {
    let t = Instant::now();
    let o = planner.plan(p).expect("scenario compiles");
    PhaseRow {
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        nodes: o.stats.rg_nodes,
        budget_exhausted: o.stats.budget_exhausted,
    }
}

/// Small/A with `k` cutpoints between 80 and 120 on the stream bandwidth
/// `M`, scaled onto the interfaces derived from it by the media domain's
/// split and zip ratios.
fn cutpoint_problem(k: usize) -> CppProblem {
    let mut p = scenarios::small(LevelScenario::A);
    let cuts: Vec<f64> =
        (0..k).map(|i| 80.0 + 40.0 * (i as f64 + 1.0) / (k as f64 + 1.0)).collect();
    let spec = sekitei_model::LevelSpec::new(cuts).expect("cutpoints ascend");
    let m = MediaConfig::default();
    for iface in &mut p.interfaces {
        let factor = match iface.name.as_str() {
            "M" => 1.0,
            "T" => m.split_t,
            "I" => 1.0 - m.split_t,
            _ => m.split_t * m.zip_ratio,
        };
        iface.levels.insert("ibw".into(), spec.scaled(factor));
    }
    p
}

/// Cross-check the wall-clock phase accounting above against the tracing
/// layer before benching: with tracing on, the per-phase self times summed
/// from the trace must fit inside the `plan` span, which must fit inside
/// the wall clock around it. Panics (aborting the bench) if the trace
/// over-counts. Drains and disables tracing on exit so every measurement
/// below runs with tracing off.
fn obs_self_check() {
    sekitei_obs::enable();
    let _ = sekitei_obs::take_trace();
    let p = scenarios::problem(NetSize::Tiny, LevelScenario::C);
    let t = Instant::now();
    let outcome = Planner::default().plan(&p).expect("tiny/C plans");
    let wall_ns = t.elapsed().as_nanos() as u64;
    assert!(outcome.plan.is_some(), "tiny/C is solvable");
    let trace = sekitei_obs::take_trace();
    sekitei_obs::disable();

    let total = trace.span_total_ns("plan");
    let phases: u64 =
        ["compile", "plrg", "slrg", "rg", "concretize"].iter().map(|n| trace.span_self_ns(n)).sum();
    assert!(total > 0, "tracing recorded no `plan` span");
    assert!(phases <= total, "phase self-times over-count the pipeline: {phases} ns > {total} ns");
    assert!(total <= wall_ns, "`plan` span exceeds the wall clock: {total} ns > {wall_ns} ns");
    eprintln!(
        "obs self-check: phase sum {:.3} ms ≤ plan span {:.3} ms ≤ wall {:.3} ms",
        phases as f64 / 1e6,
        total as f64 / 1e6,
        wall_ns as f64 / 1e6
    );
}

/// Print one row and keep it for `BENCH_planner.json`.
fn record(
    records: &mut Vec<(String, &'static str, Summary)>,
    scenario: &str,
    phase: &'static str,
    row: Summary,
    note: &str,
) {
    println!(
        "{:<10}{:<19}{:>10.3}{:>10.3}{:>10.3}{:>10}{note}",
        scenario, phase, row.best.wall_ms, row.q1_ms, row.q3_ms, row.best.nodes
    );
    records.push((scenario.to_string(), phase, row));
}

fn main() {
    obs_self_check();
    const PHASES: [&str; 4] = ["compile", "plrg", "slrg", "rg"];
    let mut records = Vec::new();

    println!(
        "{:<10}{:<19}{:>10}{:>10}{:>10}{:>10}   (min and quartiles of {REPS} reps)",
        "scenario", "phase", "wall_ms", "q1_ms", "q3_ms", "nodes"
    );
    for size in NetSize::ALL {
        for sc in LevelScenario::ALL {
            let rows = repeat(|| Some(run_once(size, sc))).expect("REPS > 0");
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in PHASES.iter().zip(rows) {
                record(&mut records, &label, phase, row, "");
            }
        }
    }

    // the anytime portfolio on the adversarial unleveled scenario: the
    // plain search of the `rg` rows returns nothing there, the portfolio
    // returns a sim-validated incumbent with a measured gap; the gap is
    // deterministic (fixed sls_seed), and the largest over the reps is
    // printed
    const ANYTIME_PHASES: [(&str, u64); 3] =
        [("anytime-10ms", 10), ("anytime-50ms", 50), ("anytime-250ms", 250)];
    for size in [NetSize::Small, NetSize::Large] {
        let label = format!("{}/A", size.label());
        for (phase, deadline_ms) in ANYTIME_PHASES {
            let mut gap = f64::NAN;
            let [row] = repeat(|| {
                let (row, g) = run_anytime(size, deadline_ms);
                gap = gap.max(g);
                Some([row])
            })
            .expect("REPS > 0");
            record(&mut records, &label, phase, row, &format!("   gap ≤ {gap:.2}"));
        }
    }

    // the pruning layer on the same two sizes: node counts against the
    // `rg` rows show what symmetry breaking removes
    for size in [NetSize::Small, NetSize::Large] {
        for sc in LevelScenario::ALL {
            let label = format!("{}/{}", size.label(), sc.label());
            let [row] = repeat(|| Some([run_pruned(size, sc)])).expect("REPS > 0");
            record(&mut records, &label, "rg-prune", row, "");
        }
    }

    const HEURISTICS: [(&str, Heuristic); 3] = [
        ("heuristic-slrg", Heuristic::Slrg),
        ("heuristic-plrg-max", Heuristic::PlrgMax),
        ("heuristic-blind", Heuristic::Blind),
    ];
    const REPLAY: [(&str, bool); 2] = [("replay-on", true), ("replay-off", false)];
    const CUTPOINTS: [(&str, usize); 4] =
        [("cutpoints-1", 1), ("cutpoints-2", 2), ("cutpoints-4", 4), ("cutpoints-8", 8)];
    let small_c = scenarios::small(LevelScenario::C);
    let mut ablations: Vec<(&str, &'static str, CppProblem, PlannerConfig)> = Vec::new();
    for (phase, heuristic) in HEURISTICS {
        let cfg = PlannerConfig { heuristic, ..PlannerConfig::default() };
        ablations.push(("Small/C", phase, small_c.clone(), cfg));
    }
    for (phase, replay_pruning) in REPLAY {
        let cfg = PlannerConfig { replay_pruning, ..PlannerConfig::default() };
        ablations.push(("Small/C", phase, small_c.clone(), cfg));
    }
    for (phase, k) in CUTPOINTS {
        ablations.push(("Small/A", phase, cutpoint_problem(k), PlannerConfig::default()));
    }
    for (label, phase, p, cfg) in &ablations {
        let planner = Planner::new(*cfg);
        let [row] = repeat(|| Some([plan_once(&planner, p)])).expect("REPS > 0");
        record(&mut records, label, phase, row, "");
    }

    const SERVE_PHASES: [&str; 2] = ["serve-cold", "serve-warm"];
    for size in [NetSize::Tiny, NetSize::Small] {
        for sc in LevelScenario::ALL {
            let rows = repeat(|| Some(serve_once(size, sc))).expect("REPS > 0");
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in SERVE_PHASES.iter().zip(rows) {
                record(&mut records, &label, phase, row, "");
            }
        }
    }

    const REPAIR_PHASES: [&str; 2] = ["adapt-repair", "scratch-repair"];
    for size in [NetSize::Tiny, NetSize::Small] {
        for sc in LevelScenario::ALL {
            let Some(rows) = repeat(|| repair_once(size, sc)) else { continue };
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in REPAIR_PHASES.iter().zip(rows) {
                record(&mut records, &label, phase, row, "");
            }
        }
    }

    // certificate layer on every size: emission packages the planner's
    // own ledger, the check re-derives it independently — both are
    // microseconds next to the search that produced the plan
    const CERT_PHASES: [&str; 2] = ["cert-emit", "cert-check"];
    for size in NetSize::ALL {
        for sc in LevelScenario::ALL {
            let Some(rows) = cert_rows(size, sc) else { continue };
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in CERT_PHASES.iter().zip(rows) {
                record(&mut records, &label, phase, row, "");
            }
        }
    }

    let mut json = String::from("[\n");
    for (i, (scenario, phase, row)) in records.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"phase\": \"{}\", \"scenario\": \"{}\", \"wall_ms\": {:.3}, \"q1_ms\": {:.3}, \
             \"q3_ms\": {:.3}, \"reps\": {}, \"nodes\": {}, \"budget_exhausted\": {}}}{}\n",
            phase,
            scenario,
            row.best.wall_ms,
            row.q1_ms,
            row.q3_ms,
            row.reps,
            row.best.nodes,
            row.best.budget_exhausted,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    eprintln!("wrote BENCH_planner.json ({} records)", records.len());
}
