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
//! Each combination runs `REPS` times and the minimum wall per phase is
//! kept (least scheduler noise). Results go to stdout as a table and to
//! `BENCH_planner.json` in the current directory as machine-readable
//! records `{phase, scenario, wall_ms, nodes, budget_exhausted}` — the
//! file the repo's committed baselines under `crates/bench/baselines/`
//! are snapshots of. `budget_exhausted` flags rows whose search aborted
//! on a budget (Large/A burns its full 2M-node cap), so their `wall_ms`
//! measures the budget, not the instance.
//!
//! `rg-prune` is the full search wall (SLRG queries included) with the
//! pruning layer on (dominance + symmetry breaking + g-aware reopening, the
//! `PlannerConfig` default); compare its node counts against the `rg`
//! rows to see what the layer removes. The budget-exhausted rows are the
//! headline: Small/A and Large/A terminate via drain mode instead of
//! burning their full budgets.
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
use sekitei_planner::{rg, Heuristic, Planner, PlannerConfig, Plrg, RgConfig, Slrg};
use sekitei_sim::existing_from_plan;
use sekitei_topology::scenarios::{self, NetSize};
use std::time::Instant;

const REPS: usize = 5;

#[derive(Clone, Copy)]
struct PhaseRow {
    wall_ms: f64,
    nodes: usize,
    /// The measured run aborted on a search budget (node cap, reject cap
    /// or deadline) — its wall time bounds the budget, not the instance.
    budget_exhausted: bool,
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

    let mut slrg = Slrg::new(&task, &plrg, 50_000);
    let cfg = RgConfig::default();
    let t = Instant::now();
    let r = rg::search(&task, &plrg, &mut slrg, &cfg);
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
/// with dominance, symmetry breaking and g-aware reopening on.
fn run_pruned(size: NetSize, sc: LevelScenario) -> PhaseRow {
    let p = scenarios::problem(size, sc);
    let task = compile(&p).expect("scenario compiles");
    let plrg = Plrg::build(&task);
    let mut slrg = Slrg::new(&task, &plrg, 50_000);
    let cfg = RgConfig { dominance: true, symmetry: true, reopen: true, ..RgConfig::default() };
    let t = Instant::now();
    let r = rg::search(&task, &plrg, &mut slrg, &cfg);
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
/// compiled task (`cert-check`), min of `REPS` each. `None` when the
/// scenario yields no plan.
fn cert_once(size: NetSize, sc: LevelScenario) -> Option<[PhaseRow; 2]> {
    let p = scenarios::problem(size, sc);
    let planner =
        Planner::new(sekitei_planner::PlannerConfig { degrade: true, ..Default::default() });
    let o = planner.plan(&p).ok()?;
    let plan = o.plan?;
    let cert = plan.certificate.as_ref()?;
    let actions: Vec<_> = plan.steps.iter().map(|s| s.action).collect();

    let mut emit_ms = f64::INFINITY;
    let mut check_ms = f64::INFINITY;
    let mut entries = 0usize;
    for _ in 0..REPS {
        let t = Instant::now();
        let emitted = sekitei_cert::emit(
            &o.task,
            &actions,
            &plan.execution.source_values,
            &plan.execution.ledger,
            cert.outcome,
            cert.bound,
        );
        emit_ms = emit_ms.min(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let report = sekitei_cert::check_certificate(&o.task, &emitted)
            .expect("issued certificate verifies");
        check_ms = check_ms.min(t.elapsed().as_secs_f64() * 1e3);
        entries = report.ledger_entries;
    }
    Some([
        PhaseRow { wall_ms: emit_ms, nodes: plan.steps.len(), budget_exhausted: false },
        PhaseRow { wall_ms: check_ms, nodes: entries, budget_exhausted: false },
    ])
}

/// One ablation row: the min wall of `REPS` `Planner::plan` runs.
fn plan_row(p: &CppProblem, cfg: PlannerConfig) -> PhaseRow {
    let planner = Planner::new(cfg);
    let mut best: Option<PhaseRow> = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let o = planner.plan(p).expect("scenario compiles");
        let row = PhaseRow {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            nodes: o.stats.rg_nodes,
            budget_exhausted: o.stats.budget_exhausted,
        };
        best = match best {
            Some(b) if b.wall_ms <= row.wall_ms => Some(b),
            _ => Some(row),
        };
    }
    best.expect("REPS > 0")
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

fn main() {
    obs_self_check();
    const PHASES: [&str; 4] = ["compile", "plrg", "slrg", "rg"];
    let mut records: Vec<(String, &'static str, PhaseRow)> = Vec::new();

    println!(
        "{:<10}{:<9}{:>12}{:>10}   (min of {REPS} reps)",
        "scenario", "phase", "wall_ms", "nodes"
    );
    for size in NetSize::ALL {
        for sc in LevelScenario::ALL {
            let mut best: Option<[PhaseRow; 4]> = None;
            for _ in 0..REPS {
                let rows = run_once(size, sc);
                best = Some(match best {
                    None => rows,
                    Some(mut b) => {
                        for (bi, ri) in b.iter_mut().zip(rows) {
                            if ri.wall_ms < bi.wall_ms {
                                *bi = ri;
                            }
                        }
                        b
                    }
                });
            }
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in PHASES.iter().zip(best.unwrap()) {
                println!("{:<10}{:<9}{:>12.3}{:>10}", label, phase, row.wall_ms, row.nodes);
                records.push((label.clone(), phase, row));
            }
        }
    }

    // the anytime portfolio on the adversarial unleveled scenario: the
    // plain search of the `rg` rows returns nothing there, the portfolio
    // returns a sim-validated incumbent with a measured gap; the gap is
    // deterministic (fixed sls_seed), the wall is min-of-reps
    const ANYTIME_PHASES: [(&str, u64); 3] =
        [("anytime-10ms", 10), ("anytime-50ms", 50), ("anytime-250ms", 250)];
    for size in [NetSize::Small, NetSize::Large] {
        let label = format!("{}/A", size.label());
        for (phase, deadline_ms) in ANYTIME_PHASES {
            let mut best: Option<(PhaseRow, f64)> = None;
            for _ in 0..REPS {
                let (row, gap) = run_anytime(size, deadline_ms);
                best = Some(match best {
                    None => (row, gap),
                    Some(b) if row.wall_ms < b.0.wall_ms => (row, gap),
                    Some(b) => b,
                });
            }
            let (row, gap) = best.unwrap();
            println!(
                "{:<10}{:<14}{:>7.3}{:>10}   gap ≤ {:.2}",
                label, phase, row.wall_ms, row.nodes, gap
            );
            records.push((label.clone(), phase, row));
        }
    }

    // the pruning layer on the same two sizes: node counts against the
    // `rg` rows show what dominance + symmetry + drain mode remove
    for size in [NetSize::Small, NetSize::Large] {
        for sc in LevelScenario::ALL {
            let label = format!("{}/{}", size.label(), sc.label());
            let mut best: Option<PhaseRow> = None;
            for _ in 0..REPS {
                let row = run_pruned(size, sc);
                best = Some(match best {
                    None => row,
                    Some(b) if row.wall_ms < b.wall_ms => row,
                    Some(b) => b,
                });
            }
            let row = best.unwrap();
            println!("{:<10}{:<9}{:>12.3}{:>10}", label, "rg-prune", row.wall_ms, row.nodes);
            records.push((label.clone(), "rg-prune", row));
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
        let row = plan_row(p, *cfg);
        println!("{:<10}{:<19}{:>8.3}{:>10}", label, phase, row.wall_ms, row.nodes);
        records.push((label.to_string(), phase, row));
    }

    const SERVE_PHASES: [&str; 2] = ["serve-cold", "serve-warm"];
    for size in [NetSize::Tiny, NetSize::Small] {
        for sc in LevelScenario::ALL {
            let mut best: Option<[PhaseRow; 2]> = None;
            for _ in 0..REPS {
                let rows = serve_once(size, sc);
                best = Some(match best {
                    None => rows,
                    Some(mut b) => {
                        for (bi, ri) in b.iter_mut().zip(rows) {
                            if ri.wall_ms < bi.wall_ms {
                                *bi = ri;
                            }
                        }
                        b
                    }
                });
            }
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in SERVE_PHASES.iter().zip(best.unwrap()) {
                println!("{:<10}{:<11}{:>10.3}{:>10}", label, phase, row.wall_ms, row.nodes);
                records.push((label.clone(), phase, row));
            }
        }
    }

    const REPAIR_PHASES: [&str; 2] = ["adapt-repair", "scratch-repair"];
    for size in [NetSize::Tiny, NetSize::Small] {
        for sc in LevelScenario::ALL {
            let mut best: Option<[PhaseRow; 2]> = None;
            for _ in 0..REPS {
                let Some(rows) = repair_once(size, sc) else { break };
                best = Some(match best {
                    None => rows,
                    Some(mut b) => {
                        for (bi, ri) in b.iter_mut().zip(rows) {
                            if ri.wall_ms < bi.wall_ms {
                                *bi = ri;
                            }
                        }
                        b
                    }
                });
            }
            let Some(best) = best else { continue };
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in REPAIR_PHASES.iter().zip(best) {
                println!("{:<10}{:<15}{:>6.3}{:>10}", label, phase, row.wall_ms, row.nodes);
                records.push((label.clone(), phase, row));
            }
        }
    }

    // certificate layer on every size: emission packages the planner's
    // own ledger, the check re-derives it independently — both are
    // microseconds next to the search that produced the plan
    const CERT_PHASES: [&str; 2] = ["cert-emit", "cert-check"];
    for size in NetSize::ALL {
        for sc in LevelScenario::ALL {
            let Some(rows) = cert_once(size, sc) else { continue };
            let label = format!("{}/{}", size.label(), sc.label());
            for (phase, row) in CERT_PHASES.iter().zip(rows) {
                println!("{:<10}{:<11}{:>10.3}{:>10}", label, phase, row.wall_ms, row.nodes);
                records.push((label.clone(), phase, row));
            }
        }
    }

    let mut json = String::from("[\n");
    for (i, (scenario, phase, row)) in records.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"phase\": \"{}\", \"scenario\": \"{}\", \"wall_ms\": {:.3}, \"nodes\": {}, \
             \"budget_exhausted\": {}}}{}\n",
            phase,
            scenario,
            row.wall_ms,
            row.nodes,
            row.budget_exhausted,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    eprintln!("wrote BENCH_planner.json ({} records)", records.len());
}
