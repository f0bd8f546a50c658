//! Differential test: the optimized search core (interned `SetId`s, CSR
//! achievers, replays and candidate validation on reusable dense state)
//! must be *behavior-identical* to the
//! original boxed-`SetKey` implementation preserved in
//! [`sekitei_planner::reference`] — same plans, same cost bounds, same
//! node/prune/reject counters, on every scenario of both benchmark
//! topologies and under every heuristic/pruning configuration.

use sekitei_compile::{compile, PlanningTask};
use sekitei_model::LevelScenario;
use sekitei_planner::reference::search_reference;
use sekitei_planner::rg::{search, Heuristic};
use sekitei_planner::{PlannerConfig, Plrg, Slrg};
use sekitei_topology::scenarios;
use std::time::Instant;

/// The planner's defaults with the pruning layer off: the reference has
/// none, so only this configuration is counter-comparable.
fn plain() -> PlannerConfig {
    PlannerConfig { symmetry: false, ..PlannerConfig::default() }
}

fn assert_equivalent(task: &PlanningTask, cfg: &PlannerConfig, label: &str) {
    let plrg = Plrg::build(task);
    if !plrg.solvable(task) {
        // both pipelines would refuse before searching; nothing to compare
        return;
    }
    let mut slrg = Slrg::new(task, &plrg, cfg.slrg_budget);
    let opt = search(task, &plrg, &mut slrg, cfg, Instant::now());
    let reference = search_reference(task, &plrg, cfg);

    assert_eq!(opt.nodes_created, reference.nodes_created, "{label}: nodes_created");
    assert_eq!(opt.open_left, reference.open_left, "{label}: open_left");
    assert_eq!(opt.replay_prunes, reference.replay_prunes, "{label}: replay_prunes");
    assert_eq!(opt.candidate_rejects, reference.candidate_rejects, "{label}: candidate_rejects");
    assert_eq!(opt.expansions, reference.expansions, "{label}: expansions");
    assert_eq!(opt.budget_exhausted, reference.budget_exhausted, "{label}: budget_exhausted");
    assert_eq!(slrg.stats().nodes, reference.slrg_nodes, "{label}: slrg nodes");
    assert_eq!(slrg.stats().cache_hits, reference.slrg_cache_hits, "{label}: slrg cache hits");

    match (&opt.plan, &reference.plan) {
        (None, None) => {}
        (Some((pa, ca, _)), Some((pb, cb, _))) => {
            assert_eq!(pa, pb, "{label}: plan actions");
            assert_eq!(ca.to_bits(), cb.to_bits(), "{label}: cost bound (bit-identical)");
        }
        (a, b) => panic!("{label}: plan presence differs: {:?} vs {:?}", a.is_some(), b.is_some()),
    }
}

fn check_all_scenarios(make: impl Fn(LevelScenario) -> sekitei_model::CppProblem, topo: &str) {
    for sc in LevelScenario::ALL {
        let task = compile(&make(sc)).unwrap();
        assert_equivalent(&task, &plain(), &format!("{topo}/{sc:?}/default"));
    }
}

#[test]
fn tiny_all_scenarios_identical() {
    check_all_scenarios(scenarios::tiny, "tiny");
}

#[test]
fn small_all_scenarios_identical() {
    check_all_scenarios(scenarios::small, "small");
}

#[test]
fn tiny_scenario_a_still_fails_and_b_finds_seven_action_plan() {
    // the two paper-anchored outcomes, asserted against both pipelines
    let task_a = compile(&scenarios::tiny(LevelScenario::A)).unwrap();
    let plrg_a = Plrg::build(&task_a);
    let mut slrg_a = Slrg::new(&task_a, &plrg_a, plain().slrg_budget);
    let ra = search(&task_a, &plrg_a, &mut slrg_a, &plain(), Instant::now());
    let ra_ref = search_reference(&task_a, &plrg_a, &plain());
    assert!(ra.plan.is_none() && ra_ref.plan.is_none(), "scenario A must fail in both");

    let task_b = compile(&scenarios::tiny(LevelScenario::B)).unwrap();
    let plrg_b = Plrg::build(&task_b);
    let mut slrg_b = Slrg::new(&task_b, &plrg_b, plain().slrg_budget);
    let rb = search(&task_b, &plrg_b, &mut slrg_b, &plain(), Instant::now());
    let rb_ref = search_reference(&task_b, &plrg_b, &plain());
    let (plan, cost, _) = rb.plan.expect("B solves Tiny");
    let (plan_ref, cost_ref, _) = rb_ref.plan.expect("B solves Tiny (reference)");
    assert_eq!(plan.len(), 7);
    assert_eq!(plan, plan_ref);
    assert!((cost - 7.0).abs() < 1e-9, "paper Table 2 bound: {cost}");
    assert_eq!(cost.to_bits(), cost_ref.to_bits());
}

#[test]
fn equivalence_holds_without_replay_pruning() {
    let cfg = PlannerConfig { replay_pruning: false, ..plain() };
    for sc in [LevelScenario::B, LevelScenario::C, LevelScenario::E] {
        let task = compile(&scenarios::tiny(sc)).unwrap();
        assert_equivalent(&task, &cfg, &format!("tiny/{sc:?}/no-pruning"));
    }
}

#[test]
fn equivalence_holds_under_plrg_and_blind_heuristics() {
    for h in [Heuristic::PlrgMax, Heuristic::Blind] {
        let cfg = PlannerConfig { heuristic: h, ..plain() };
        for sc in [LevelScenario::B, LevelScenario::D] {
            let task = compile(&scenarios::tiny(sc)).unwrap();
            assert_equivalent(&task, &cfg, &format!("tiny/{sc:?}/{h:?}"));
        }
    }
}

#[test]
fn equivalence_holds_under_tight_node_budget() {
    // budget-exhaustion paths must cut off at the same node, too
    let cfg = PlannerConfig { max_nodes: 40, ..plain() };
    let task = compile(&scenarios::small(LevelScenario::E)).unwrap();
    assert_equivalent(&task, &cfg, "small/E/max_nodes=40");
}

#[test]
fn equivalence_holds_with_tracing_enabled() {
    // Instrumentation must be purely observational: the full pipeline with
    // tracing on produces bit-identical plans and counters to tracing off.
    use sekitei_planner::Planner;
    for sc in LevelScenario::ALL {
        let problem = scenarios::tiny(sc);
        let planner = Planner::new(PlannerConfig::default());
        let base = planner.plan(&problem).unwrap();

        sekitei_obs::enable();
        let traced = planner.plan(&problem).unwrap();
        let trace = sekitei_obs::take_trace();
        sekitei_obs::disable();

        let label = format!("tiny/{sc:?}/traced");
        assert_eq!(base.stats.rg_nodes, traced.stats.rg_nodes, "{label}: rg_nodes");
        assert_eq!(base.stats.rg_open_left, traced.stats.rg_open_left, "{label}: open_left");
        assert_eq!(base.stats.replay_prunes, traced.stats.replay_prunes, "{label}: prunes");
        assert_eq!(
            base.stats.candidate_rejects, traced.stats.candidate_rejects,
            "{label}: rejects"
        );
        assert_eq!(base.stats.slrg_nodes, traced.stats.slrg_nodes, "{label}: slrg nodes");
        match (&base.plan, &traced.plan) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{label}: plan text");
                assert_eq!(
                    a.cost_lower_bound.to_bits(),
                    b.cost_lower_bound.to_bits(),
                    "{label}: cost bound (bit-identical)"
                );
            }
            (a, b) => {
                panic!("{label}: plan presence differs: {:?} vs {:?}", a.is_some(), b.is_some())
            }
        }
        // the traced run actually recorded the search phases
        for phase in ["plan", "plrg", "rg"] {
            assert!(trace.span_count(phase) >= 1, "{label}: no `{phase}` span recorded");
        }
    }
}
