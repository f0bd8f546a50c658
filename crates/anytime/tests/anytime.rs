//! Contract tests for the anytime portfolio facade.
//!
//! * Without a deadline the portfolio is purely additive: on instances
//!   the exact search solves, the returned plan is identical to the
//!   plain planner's.
//! * Under a deadline, previously all-or-nothing instances (the
//!   unleveled scenario-A family) return a sim-validated incumbent with
//!   a finite optimality gap.
//! * For a fixed `sls_seed` the returned plan and gap are byte-identical
//!   across repeated runs.

use proptest::prelude::*;
use sekitei_model::{
    media_domain_with, CppProblem, Goal, LevelScenario, MediaConfig, NodeId, StreamSource,
};
use sekitei_planner::{Planner, PlannerConfig, PlannerStats};
use sekitei_sim::validate_plan;
use sekitei_topology::{scenarios, waxman, Capacities};
use std::time::Duration;

fn anytime_cfg(deadline_ms: Option<u64>) -> PlannerConfig {
    PlannerConfig {
        degrade: true,
        anytime: true,
        deadline: deadline_ms.map(Duration::from_millis),
        ..PlannerConfig::default()
    }
}

/// Render the parts of an outcome that must be reproducible.
fn fingerprint(a: &sekitei_anytime::AnytimeOutcome) -> String {
    format!(
        "plan={:?} gap={:?} incumbent={}",
        a.outcome.plan.as_ref().map(|p| format!("{p}")),
        a.outcome.stats.optimality_gap.map(f64::to_bits),
        a.incumbent_used,
    )
}

/// Every counter and bound of a run, its wall times left out.
fn counters(stats: &PlannerStats) -> String {
    let mut s = stats.clone();
    s.total_time = Duration::ZERO;
    s.search_time = Duration::ZERO;
    s.compile.compile_time = Duration::ZERO;
    format!("{s:?}")
}

#[test]
fn no_deadline_matches_plain_planner() {
    for anytime in [true, false] {
        for sc in [LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E] {
            let problem = scenarios::small(sc);
            let cfg = PlannerConfig { anytime, ..anytime_cfg(None) };
            let a = sekitei_anytime::plan(&problem, &cfg).expect("compiles");
            let exact = Planner::new(PlannerConfig { anytime: false, ..cfg })
                .plan(&problem)
                .expect("compiles");
            match (&a.outcome.plan, &exact.plan) {
                (Some(x), Some(y)) if !y.degraded => {
                    assert_eq!(format!("{x}"), format!("{y}"), "{sc:?}: plan diverged");
                    assert!(!a.incumbent_used, "{sc:?}: incumbent replaced an exact plan");
                }
                // exact returned nothing usable: the portfolio may fill in
                (_, None) | (_, Some(_)) => {}
            }
            if !anytime {
                // without the flag the entry runs no SLS lane and returns
                // the plain planner's outcome
                let cert = |o: &sekitei_planner::PlanOutcome| {
                    o.plan.as_ref().map(|p| {
                        sekitei_cert::encode_certificate(p.certificate.as_ref().expect("cert"))
                    })
                };
                let shown =
                    |o: &sekitei_planner::PlanOutcome| o.plan.as_ref().map(|p| p.to_string());
                assert_eq!(shown(&a.outcome), shown(&exact), "{sc:?}");
                assert_eq!(cert(&a.outcome), cert(&exact), "{sc:?}");
                assert_eq!(counters(&a.outcome.stats), counters(&exact.stats), "{sc:?}");
                assert!(!a.incumbent_used, "{sc:?}");
                assert_eq!(a.sls.rollouts, 0, "{sc:?}");
            }
        }
    }
}

#[test]
fn deadline_small_a_returns_validated_incumbent() {
    let problem = scenarios::small(LevelScenario::A);
    let a = sekitei_anytime::plan(&problem, &anytime_cfg(Some(250))).expect("compiles");
    let plan = a.outcome.plan.as_ref().expect("anytime plan on Small/A");
    let gap = a.outcome.stats.optimality_gap.expect("gap reported");
    assert!(gap.is_finite() && gap >= 0.0, "bad gap {gap}");
    let report = validate_plan(&problem, &a.outcome.task, plan);
    assert!(report.ok, "incumbent failed simulation: {:?}", report.violations);
}

#[test]
fn incumbent_certificate_verifies_with_its_reported_gap() {
    let problem = scenarios::small(LevelScenario::A);
    let a = sekitei_anytime::plan(&problem, &anytime_cfg(Some(250))).expect("compiles");
    let plan = a.outcome.plan.as_ref().expect("anytime plan on Small/A");
    let cert = plan.certificate.as_ref().expect("anytime plan carries a certificate");
    let rep = sekitei_cert::check_certificate(&a.outcome.task, cert).unwrap();
    if a.incumbent_used {
        assert_eq!(rep.outcome, sekitei_cert::OutcomeClass::AnytimeIncumbent);
    }
    // the certified gap is the reported gap, not a parallel claim
    assert_eq!(cert.bound.claimed_gap, a.outcome.stats.optimality_gap);
}

#[test]
fn deadline_large_a_returns_validated_incumbent() {
    let problem = scenarios::large(LevelScenario::A);
    let a = sekitei_anytime::plan(&problem, &anytime_cfg(Some(250))).expect("compiles");
    let plan = a.outcome.plan.as_ref().expect("anytime plan on Large/A");
    let gap = a.outcome.stats.optimality_gap.expect("gap reported");
    assert!(gap.is_finite() && gap >= 0.0, "bad gap {gap}");
    let report = validate_plan(&problem, &a.outcome.task, plan);
    assert!(report.ok, "incumbent failed simulation: {:?}", report.violations);
}

#[test]
fn gap_zero_when_exact_search_proves_optimality() {
    // solvable leveled instance with a generous deadline: the exact lane
    // accepts its optimal plan (a cutoff cannot preempt an acceptance at
    // `f` at or below the incumbent — pops rise in `f` order), so the
    // reported gap must be exactly zero
    let problem = scenarios::small(LevelScenario::C);
    let a = sekitei_anytime::plan(&problem, &anytime_cfg(Some(5_000))).expect("compiles");
    let plan = a.outcome.plan.as_ref().expect("plan on Small/C");
    assert!(!plan.degraded);
    assert_eq!(a.outcome.stats.optimality_gap, Some(0.0));
}

#[test]
fn reported_times_include_the_sls_lane() {
    // the SLS lane runs its fixed schedule far past a 10 ms deadline on
    // Large/A; the reported times are what the caller waited for
    let problem = scenarios::large(LevelScenario::A);
    let a = sekitei_anytime::plan(&problem, &anytime_cfg(Some(10))).expect("compiles");
    let s = &a.outcome.stats;
    assert!(s.total_time >= a.sls.time, "total {:?} < sls {:?}", s.total_time, a.sls.time);
    assert!(s.search_time >= a.sls.time, "search {:?} < sls {:?}", s.search_time, a.sls.time);
}

#[test]
fn byte_identity_across_runs() {
    let problem = scenarios::small(LevelScenario::A);
    let cfg = anytime_cfg(Some(250));
    let prints: Vec<_> = (0..3)
        .map(|_| fingerprint(&sekitei_anytime::plan(&problem, &cfg).expect("compiles")))
        .collect();
    for p in &prints[1..] {
        assert_eq!(p, &prints[0], "anytime outcome varies across runs");
    }
}

#[test]
fn hinted_planning_returns_validated_plan() {
    // repair-style call: hint the lane with the action kinds of an
    // existing plan (churn passes the pre-churn deployment)
    let problem = scenarios::small(LevelScenario::C);
    let cfg = anytime_cfg(Some(250));
    let base = sekitei_anytime::plan(&problem, &cfg).expect("compiles");
    let hint: Vec<_> = base
        .outcome
        .plan
        .as_ref()
        .expect("base plan")
        .steps
        .iter()
        .map(|s| s.kind.clone())
        .collect();
    let task = sekitei_compile::compile(&problem).expect("compiles");
    let a =
        sekitei_anytime::plan_task_hinted(&problem, task, &cfg, std::time::Instant::now(), &hint);
    let plan = a.outcome.plan.as_ref().expect("hinted plan");
    let report = validate_plan(&problem, &a.outcome.task, plan);
    assert!(report.ok, "hinted plan failed simulation: {:?}", report.violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random-topology portfolio contract: any returned plan simulates
    /// cleanly, the gap is present and non-negative whenever the
    /// portfolio reports one, the incumbent is never worse than the
    /// greedy seed that opened the lane, and the whole outcome is
    /// deterministic.
    #[test]
    fn anytime_contract(seed in 0u64..5_000, n in 6usize..14,
                        demand in 60.0..100.0f64, sc_idx in 0..5usize) {
        let caps = Capacities { node_cpu: 40.0, lan_bw: 120.0, wan_bw: 120.0 };
        let net = waxman(n, 0.5, 0.3, seed, &caps);
        let cfg_media = MediaConfig { client_demand: demand.round(), ..MediaConfig::default() };
        let d = media_domain_with(cfg_media, LevelScenario::ALL[sc_idx]);
        let p = CppProblem {
            network: net,
            resources: d.resources,
            interfaces: d.interfaces,
            components: d.components,
            sources: vec![StreamSource::up_to("M", NodeId(0), "ibw", 200.0)],
            pre_placed: vec![],
            goals: vec![Goal { component: "Client".into(), node: NodeId((n - 1) as u32) }],
        };
        let cfg = anytime_cfg(Some(100));
        let a = sekitei_anytime::plan(&p, &cfg).expect("compiles");
        let b = sekitei_anytime::plan(&p, &cfg).expect("compiles");
        prop_assert_eq!(fingerprint(&a), fingerprint(&b), "nondeterministic outcome");
        if let Some(plan) = &a.outcome.plan {
            let report = validate_plan(&p, &a.outcome.task, plan);
            prop_assert!(report.ok, "plan failed simulation: {:?}\n{}", report.violations, plan);
            prop_assert!(plan.cost_lower_bound <= report.total_cost + 1e-6);
            if let Some(gap) = a.outcome.stats.optimality_gap {
                prop_assert!(gap.is_finite() && gap >= 0.0);
            }
            if let Some(seed_cost) = a.sls.seed_cost {
                prop_assert!(
                    plan.cost_lower_bound <= seed_cost + 1e-9,
                    "returned plan worse than the greedy seed: {} > {}",
                    plan.cost_lower_bound, seed_cost
                );
            }
        }
    }
}
