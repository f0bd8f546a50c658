//! Pruning soundness suite: with the pruning layer on (node-symmetry
//! breaking), the search must return plans whose *costs* are
//! bit-identical to the boxed reference implementation — which has no
//! pruning at all — on every scenario the reference solves, and must agree
//! on solvability everywhere else. Node counts may only drop.
//!
//! The randomized half drives the same comparison over fuzzed Waxman
//! topologies through the full `Planner` facade: pruning may never change
//! solvability or the cost of the returned plan.

use proptest::prelude::*;
use sekitei_compile::{compile, PlanningTask};
use sekitei_model::{
    media_domain_with, CppProblem, Goal, LevelScenario, MediaConfig, NodeId, StreamSource,
};
use sekitei_planner::reference::search_reference;
use sekitei_planner::rg::{search, RgConfig};
use sekitei_planner::{Planner, PlannerConfig, Plrg, Slrg};
use sekitei_topology::{scenarios, waxman, Capacities};

const SLRG_BUDGET: usize = 50_000;

fn pruned_cfg() -> RgConfig {
    RgConfig { symmetry: true, ..RgConfig::default() }
}

/// Reference (no pruning) vs. optimized search with the pruning layer on:
/// same solvability, bit-identical plan cost, never more nodes.
fn assert_cost_preserved(task: &PlanningTask, label: &str) {
    let plrg = Plrg::build(task);
    if !plrg.solvable(task) {
        return;
    }
    let reference = search_reference(task, &plrg, SLRG_BUDGET, &RgConfig::default());
    let mut slrg = Slrg::new(task, &plrg, SLRG_BUDGET);
    let pruned = search(task, &plrg, &mut slrg, &pruned_cfg());

    match (&reference.plan, &pruned.plan) {
        (None, None) => {}
        (Some((_, cr, _)), Some((_, cp, _))) => {
            assert_eq!(cr.to_bits(), cp.to_bits(), "{label}: plan cost must stay bit-identical");
        }
        (a, b) => panic!("{label}: solvability differs: {:?} vs {:?}", a.is_some(), b.is_some()),
    }
    assert!(
        pruned.nodes_created <= reference.nodes_created,
        "{label}: pruning grew the search ({} -> {})",
        reference.nodes_created,
        pruned.nodes_created
    );
}

#[test]
fn tiny_all_scenarios_keep_reference_costs() {
    for sc in LevelScenario::ALL {
        let task = compile(&scenarios::tiny(sc)).unwrap();
        assert_cost_preserved(&task, &format!("tiny/{sc:?}"));
    }
}

#[test]
fn small_all_scenarios_keep_reference_costs() {
    for sc in LevelScenario::ALL {
        let task = compile(&scenarios::small(sc)).unwrap();
        assert_cost_preserved(&task, &format!("small/{sc:?}"));
    }
}

#[test]
fn figure1_all_scenarios_keep_reference_costs() {
    for sc in LevelScenario::ALL {
        let task = compile(&scenarios::figure1(sc)).unwrap();
        assert_cost_preserved(&task, &format!("figure1/{sc:?}"));
    }
}

#[test]
fn large_solved_scenarios_keep_reference_costs() {
    // Large/A is excluded: the boxed reference creates 215 213 nodes on
    // the way to its reject budget there; its pruned-search counts are
    // pinned by `search_counts.rs`
    for sc in [LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E] {
        let task = compile(&scenarios::large(sc)).unwrap();
        assert_cost_preserved(&task, &format!("large/{sc:?}"));
    }
}

// ---- randomized: pruning never changes the facade's answer ----

fn attach_media(
    net: sekitei_model::Network,
    server: NodeId,
    client: NodeId,
    sc: LevelScenario,
    demand: f64,
) -> CppProblem {
    let cfg = MediaConfig { client_demand: demand, ..MediaConfig::default() };
    let d = media_domain_with(cfg, sc);
    CppProblem {
        network: net,
        resources: d.resources,
        interfaces: d.interfaces,
        components: d.components,
        sources: vec![StreamSource::up_to("M", server, "ibw", 200.0)],
        pre_placed: vec![],
        goals: vec![Goal { component: "Client".into(), node: client }],
    }
}

fn planner(prune: bool) -> Planner {
    Planner::new(PlannerConfig {
        max_nodes: 100_000,
        max_candidate_rejects: 1_000,
        slrg_budget: 20_000,
        symmetry: prune,
        ..PlannerConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Symmetry breaking may thin the search tree but never the answer:
    /// identical solvability, bit-identical plan cost.
    #[test]
    fn pruning_never_prunes_the_optimal_plan(
        seed in 0u64..10_000, n in 6usize..20,
        cpu in 20.0..60.0f64, bw in 40.0..160.0f64,
        demand in 50.0..110.0f64, sc_idx in 1..5usize,
    ) {
        let caps = Capacities { node_cpu: cpu.round(), lan_bw: bw.round(), wan_bw: bw.round() };
        let net = waxman(n, 0.5, 0.3, seed, &caps);
        let sc = LevelScenario::ALL[sc_idx];
        let p = attach_media(net, NodeId(0), NodeId((n - 1) as u32), sc, demand.round());
        let base = planner(false).plan(&p).expect("compiles");
        let pruned = planner(true).plan(&p).expect("compiles");
        match (&base.plan, &pruned.plan) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(
                    x.cost_lower_bound.to_bits(),
                    y.cost_lower_bound.to_bits(),
                    "pruning changed the plan cost"
                );
            }
            (a, b) => prop_assert!(
                false,
                "pruning changed solvability: {:?} vs {:?}",
                a.is_some(),
                b.is_some()
            ),
        }
        // NOTE: no node-count monotonicity here — on reject-capped
        // unsolvable instances, pruning a candidate-producing branch can
        // legitimately postpone the reject-budget terminator and grow the
        // count. The answer (solvability + cost) is the invariant.
    }
}
