//! Budget-exit bounds are admissible. A search cut short by its node or
//! reject budget records the `f` of the node it popped last as its
//! frontier bound. The search pops in `f` order and prunes no tail it
//! could still complete, so that bound never exceeds the optimum, and a
//! degraded plan certified with a proved zero gap costs no more than an
//! exact plan would.

use sekitei_model::resource::names::LBW;
use sekitei_model::{CppProblem, LevelScenario, LinkClass};
use sekitei_planner::cert::check_certificate;
use sekitei_planner::{PlanOutcome, Planner, PlannerConfig};
use sekitei_topology::scenarios::{self, NetSize};

/// Small/B with its tightest WAN link squeezed to 86% of its bandwidth:
/// solvable only after 1 333 rejected candidates.
fn squeezed_small_b() -> CppProblem {
    let mut p = scenarios::small(LevelScenario::B);
    let net = &mut p.network;
    let wan = net
        .link_ids()
        .filter(|&l| net.link(l).class == LinkClass::Wan)
        .min_by(|&a, &b| net.link_capacity(a, LBW).total_cmp(&net.link_capacity(b, LBW)))
        .unwrap();
    net.set_link_capacity(wan, LBW, net.link_capacity(wan, LBW) * 0.86);
    p
}

/// Every returned plan's certificate verifies; returns the plan's cost
/// when its certificate proves a zero gap.
fn proved_zero_gap_cost(o: &PlanOutcome, label: &str) -> Option<f64> {
    let plan = o.plan.as_ref()?;
    let cert = plan.certificate.as_ref().expect("every plan carries a certificate");
    let rep = check_certificate(&o.task, cert).unwrap_or_else(|v| panic!("{label}: {v}"));
    (rep.gap_proved && cert.bound.claimed_gap == Some(0.0)).then_some(plan.cost_lower_bound)
}

#[test]
fn budget_exit_bounds_never_exceed_the_optimum() {
    let mut grid: Vec<(String, CppProblem)> = vec![("squeezed Small/B".into(), squeezed_small_b())];
    for size in NetSize::ALL {
        for sc in &LevelScenario::ALL[1..] {
            grid.push((format!("{}/{sc:?}", size.label()), scenarios::problem(size, *sc)));
        }
    }
    for (name, p) in grid {
        let uncut = Planner::default().plan(&p).unwrap();
        let optimum = uncut.plan.as_ref().expect("B–E solve exactly").cost_lower_bound;
        assert_eq!(proved_zero_gap_cost(&uncut, &name), Some(optimum), "{name}");
        let (nodes, rejects) = (uncut.stats.rg_nodes, uncut.stats.candidate_rejects);
        let mut cuts: Vec<(String, PlannerConfig)> = (1..4)
            .map(|q| {
                let cfg = PlannerConfig { max_nodes: nodes * q / 4, ..PlannerConfig::default() };
                (format!("{name} cut at {}/{nodes} nodes", cfg.max_nodes), cfg)
            })
            .collect();
        if rejects >= 2 {
            let cfg = PlannerConfig { max_candidate_rejects: rejects / 2, ..Default::default() };
            cuts.push((format!("{name} cut at {}/{rejects} rejects", rejects / 2), cfg));
        }
        for (label, cfg) in cuts {
            let o = Planner::new(PlannerConfig { degrade: true, ..cfg }).plan(&p).unwrap();
            assert!(o.stats.budget_exhausted, "{label}: {}", o.stats);
            let bound = o.stats.best_bound.expect("a budget exit records its bound");
            assert!(bound <= optimum, "{label}: bound {bound} above the optimum {optimum}");
            if let Some(cost) = proved_zero_gap_cost(&o, &label) {
                assert!(cost <= optimum, "{label}: proved-gap plan costs {cost} > {optimum}");
            }
        }
    }
}
