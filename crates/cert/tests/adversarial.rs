//! Adversarial certificate tests.
//!
//! Every tampering class must map to its *specific* violation — a checker
//! that rejects everything is useless for auditing, and one that accepts a
//! doctored certificate is unsound. The suite mutates real planner-issued
//! certificates one field at a time and pins the violation the checker
//! reports, then property-tests the SKC1 codec and the soundness of the
//! checker's acceptance under step permutations.

use proptest::prelude::*;
use sekitei_cert::{
    certify_by_execution, check_certificate, decode_certificate, encode_certificate, CertViolation,
    GapBasis, OutcomeClass, PlanCertificate, Provenance,
};
use sekitei_compile::PlanningTask;
use sekitei_model::{ActionId, LevelScenario};
use sekitei_planner::{Planner, PlannerConfig};
use sekitei_topology::scenarios::{self, NetSize};
use std::sync::OnceLock;

/// One planner run, shared by every mutation test: the Tiny/C task and the
/// exact certificate the planner issued for it.
fn tiny_c() -> &'static (PlanningTask, PlanCertificate) {
    static CELL: OnceLock<(PlanningTask, PlanCertificate)> = OnceLock::new();
    CELL.get_or_init(|| {
        let o = Planner::default().plan(&scenarios::tiny(LevelScenario::C)).unwrap();
        let plan = o.plan.expect("tiny C solves exactly");
        let cert = plan.certificate.expect("every plan carries a certificate");
        (o.task, cert)
    })
}

// ---------------------------------------------------------------- grid --

#[test]
fn issued_certificates_verify_across_the_scenario_grid() {
    let planner = Planner::new(PlannerConfig { degrade: true, ..PlannerConfig::default() });
    let mut verified = 0usize;
    let mut degraded = 0usize;
    let grid = LevelScenario::ALL
        .iter()
        .map(|&sc| (NetSize::Tiny, sc))
        .chain([(NetSize::Small, LevelScenario::C)]);
    for (size, sc) in grid {
        let o = planner.plan(&scenarios::problem(size, sc)).unwrap();
        let Some(plan) = o.plan else { continue };
        let cert = plan.certificate.as_ref().expect("every plan carries a certificate");
        let rep = check_certificate(&o.task, cert).unwrap();
        let want = if plan.degraded { OutcomeClass::Degraded } else { OutcomeClass::Exact };
        assert_eq!(rep.outcome, want, "{size:?}/{sc:?}");
        assert_eq!(rep.steps, plan.steps.len());
        verified += 1;
        degraded += usize::from(plan.degraded);
    }
    assert!(verified >= 5, "grid produced only {verified} certified plans");
    assert!(degraded >= 1, "the grid must exercise the degraded outcome class");
}

#[test]
fn budget_exhausted_outcome_carries_a_verifiable_certificate() {
    let planner =
        Planner::new(PlannerConfig { max_nodes: 2_000, degrade: true, ..PlannerConfig::default() });
    let o = planner.plan(&scenarios::problem(NetSize::Small, LevelScenario::A)).unwrap();
    assert!(o.stats.budget_exhausted, "Small/A must blow a 2k-node budget");
    let plan = o.plan.expect("graceful degradation salvages a relaxed plan");
    assert!(plan.degraded);
    let cert = plan.certificate.as_ref().expect("degraded plan carries a certificate");
    assert!(cert.bound.budget_exhausted, "the trail records why the search stopped");
    let rep = check_certificate(&o.task, cert).unwrap();
    assert_eq!(rep.outcome, OutcomeClass::Degraded);
}

// ---------------------------------------------- deterministic mutations --

#[test]
fn swapping_a_dependent_pair_is_rejected() {
    let (task, cert) = tiny_c();
    // find a step witnessed by its immediate predecessor; swapping the two
    // puts the consumer before its producer
    let i = (1..cert.steps.len())
        .find(|&i| cert.steps[i].preconds.iter().any(|w| w.by == Provenance::Step(i as u32 - 1)))
        .expect("tiny C has an adjacent producer/consumer pair");
    let mut m = cert.clone();
    m.steps.swap(i - 1, i);
    let err = check_certificate(task, &m).unwrap_err();
    assert!(
        matches!(err, CertViolation::BadWitness { .. }),
        "consumer-before-producer must fail the witness order, got: {err}"
    );
}

#[test]
fn inflated_capacity_claim_is_rejected() {
    let (task, cert) = tiny_c();
    let mut m = cert.clone();
    // claim one more unit of post-reservation headroom than execution leaves
    let cell = m
        .steps
        .iter_mut()
        .flat_map(|s| s.writes.iter_mut())
        .next()
        .expect("tiny C writes at least one ledger cell");
    cell.1 += 1.0;
    let err = check_certificate(task, &m).unwrap_err();
    assert!(matches!(err, CertViolation::LedgerMismatch { .. }), "got: {err}");
}

#[test]
fn truncated_ledger_is_rejected() {
    let (task, cert) = tiny_c();
    let mut m = cert.clone();
    let step =
        m.steps.iter_mut().find(|s| !s.writes.is_empty()).expect("tiny C has a step with writes");
    step.writes.pop();
    let err = check_certificate(task, &m).unwrap_err();
    assert!(matches!(err, CertViolation::LedgerShape { .. }), "got: {err}");
}

#[test]
fn understated_gap_is_rejected() {
    let (task, cert) = tiny_c();
    // recast the proved-optimal trail as a frontier-bound one with an
    // honest 5-unit gap — that verifies — then lower the claim
    let mut m = cert.clone();
    m.bound.gap_basis = GapBasis::FrontierBound;
    m.bound.frontier_bound = Some(m.bound.plan_cost - 5.0);
    m.bound.claimed_gap = Some(5.0);
    check_certificate(task, &m).expect("honest frontier gap must verify");

    m.bound.claimed_gap = Some(1.0);
    let err = check_certificate(task, &m).unwrap_err();
    assert!(
        matches!(err, CertViolation::GapUnderstated { claimed, justified }
            if claimed < justified),
        "got: {err}"
    );
}

#[test]
fn overstated_and_unbacked_gaps_are_rejected() {
    let (task, cert) = tiny_c();

    let mut m = cert.clone();
    m.bound.gap_basis = GapBasis::FrontierBound;
    m.bound.frontier_bound = Some(m.bound.plan_cost - 5.0);
    m.bound.claimed_gap = Some(9.0); // frontier justifies only 5
    let err = check_certificate(task, &m).unwrap_err();
    assert!(matches!(err, CertViolation::GapInconsistent { .. }), "got: {err}");

    let mut m = cert.clone();
    m.bound.gap_basis = GapBasis::Unbounded;
    let err = check_certificate(task, &m).unwrap_err();
    assert!(matches!(err, CertViolation::GapInconsistent { .. }), "got: {err}");
}

#[test]
fn proved_gap_after_a_budget_exit_is_rejected() {
    // a search that stopped on its budget proved nothing about the plans
    // it never reached, so it cannot certify a proved-optimal gap
    let (task, cert) = tiny_c();
    let mut m = cert.clone();
    m.bound.budget_exhausted = true;
    assert!(!m.bound.gap_proved());
    let err = check_certificate(task, &m).unwrap_err();
    assert!(matches!(err, CertViolation::GapInconsistent { .. }), "got: {err}");
}

#[test]
fn foreign_task_is_rejected_by_fingerprint() {
    let (_, cert) = tiny_c();
    let other = Planner::default().plan(&scenarios::tiny(LevelScenario::D)).unwrap();
    let err = check_certificate(&other.task, cert).unwrap_err();
    assert!(matches!(err, CertViolation::FingerprintMismatch { .. }), "got: {err}");
}

#[test]
fn structural_tampering_is_rejected() {
    let (task, cert) = tiny_c();

    let mut m = cert.clone();
    m.version = 99;
    assert!(matches!(check_certificate(task, &m).unwrap_err(), CertViolation::Malformed(_)));

    let mut m = cert.clone();
    m.steps[0].action = ActionId::from_index(task.num_actions());
    assert!(matches!(
        check_certificate(task, &m).unwrap_err(),
        CertViolation::UnknownAction { step: 0, .. }
    ));

    let mut m = cert.clone();
    m.steps[0].name.push('x');
    assert!(matches!(
        check_certificate(task, &m).unwrap_err(),
        CertViolation::ActionNameMismatch { step: 0, .. }
    ));

    let mut m = cert.clone();
    let i = m.steps.iter().position(|s| !s.preconds.is_empty()).unwrap();
    m.steps[i].preconds.clear();
    assert!(matches!(
        check_certificate(task, &m).unwrap_err(),
        CertViolation::MissingPrecondWitness { .. }
    ));

    let mut m = cert.clone();
    m.sources[0].1 += 1e6;
    assert!(matches!(
        check_certificate(task, &m).unwrap_err(),
        CertViolation::SourceOutOfRange { .. }
    ));

    let mut m = cert.clone();
    m.goals.clear();
    assert!(matches!(
        check_certificate(task, &m).unwrap_err(),
        CertViolation::GoalUnwitnessed { .. }
    ));

    let mut m = cert.clone();
    m.bound.plan_cost += 1.0;
    assert!(matches!(check_certificate(task, &m).unwrap_err(), CertViolation::CostMismatch { .. }));
}

// ----------------------------------------------------------- proptests --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness of acceptance under permutation: whenever the checker
    /// accepts a certificate with two steps swapped, the swapped action
    /// sequence must execute independently (the swap really was between
    /// independent steps, not waved through).
    #[test]
    fn accepted_swaps_are_independently_executable(i in 0usize..16, j in 0usize..16) {
        let (task, cert) = tiny_c();
        let n = cert.steps.len();
        let (i, j) = (i % n, j % n);
        let mut m = cert.clone();
        m.steps.swap(i, j);
        if check_certificate(task, &m).is_ok() {
            let actions: Vec<ActionId> = m.steps.iter().map(|s| s.action).collect();
            let re = certify_by_execution(task, &actions, &m.sources, m.outcome, m.bound);
            prop_assert!(re.is_ok(), "checker accepted swap ({i},{j}) the executor rejects");
        }
    }

    /// Understating the gap by any positive amount against a frontier
    /// basis is always caught (beyond the arithmetic tolerance).
    #[test]
    fn any_understated_gap_is_caught(shave in 0.001f64..4.9) {
        let (task, cert) = tiny_c();
        let mut m = cert.clone();
        m.bound.gap_basis = GapBasis::FrontierBound;
        m.bound.frontier_bound = Some(m.bound.plan_cost - 5.0);
        m.bound.claimed_gap = Some(5.0 - shave);
        let err = check_certificate(task, &m).unwrap_err();
        let understated = matches!(err, CertViolation::GapUnderstated { .. });
        prop_assert!(understated, "expected GapUnderstated, got: {}", err);
    }

    /// encode→decode→encode is the identity on SKC1 bytes, across the
    /// whole flags/bounds space.
    #[test]
    fn skc1_roundtrip_identity(flags in 0u8..64,
                               opts in 0u8..8,
                               gap in 0.0..100.0f64,
                               root in 0.0..100.0f64,
                               frontier in 0.0..100.0f64,
                               class in 0u8..4) {
        let gap = (opts & 0x01 != 0).then_some(gap);
        let root = (opts & 0x02 != 0).then_some(root);
        let frontier = (opts & 0x04 != 0).then_some(frontier);
        let (_, cert) = tiny_c();
        let mut m = cert.clone();
        m.outcome = match class {
            0 => OutcomeClass::Exact,
            1 => OutcomeClass::Degraded,
            2 => OutcomeClass::AnytimeIncumbent,
            _ => OutcomeClass::ChurnRepair,
        };
        m.bound.incumbent_cutoff = flags & 0x01 != 0;
        m.bound.budget_exhausted = flags & 0x02 != 0;
        m.bound.deadline_hit = flags & 0x04 != 0;
        m.bound.drain_mode = flags & 0x08 != 0;
        m.bound.dominance = flags & 0x10 != 0;
        m.bound.symmetry = flags & 0x20 != 0;
        m.bound.claimed_gap = gap;
        m.bound.root_bound = root;
        m.bound.frontier_bound = frontier;
        let bytes = encode_certificate(&m);
        let d = decode_certificate(&bytes).unwrap();
        prop_assert_eq!(&m, &d);
        prop_assert_eq!(&bytes, &encode_certificate(&d));
    }

    /// The SKC1 decoder must never panic on corrupted bytes.
    #[test]
    fn skc1_decoder_never_panics_on_mutation(idx in 0usize..4096, flip in any::<u8>()) {
        let (_, cert) = tiny_c();
        let mut bytes = encode_certificate(cert);
        let i = idx % bytes.len();
        bytes[i] ^= flip | 1;
        let _ = decode_certificate(&bytes);
    }

    /// Nor on truncation at any length.
    #[test]
    fn skc1_decoder_never_panics_on_truncation(len in 0usize..4096) {
        let (_, cert) = tiny_c();
        let bytes = encode_certificate(cert);
        let l = len % (bytes.len() + 1);
        prop_assert!(l == bytes.len() || decode_certificate(&bytes[..l]).is_err());
    }
}

// ---------------------------------------------------------------- perf --

/// The checker is an audit tool: it must stay orders of magnitude cheaper
/// than the search that produced the plan. Budget from ISSUE: < 1 ms on
/// the Large scenarios (measured in release — debug builds skip).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertion is for release builds")]
fn large_certificate_checks_under_a_millisecond() {
    let planner = Planner::new(PlannerConfig { degrade: true, ..PlannerConfig::default() });
    let o = planner.plan(&scenarios::problem(NetSize::Large, LevelScenario::C)).unwrap();
    let plan = o.plan.expect("large C yields a plan");
    let cert = plan.certificate.expect("every plan carries a certificate");
    let mut best = std::time::Duration::MAX;
    for _ in 0..50 {
        let t = std::time::Instant::now();
        check_certificate(&o.task, &cert).unwrap();
        best = best.min(t.elapsed());
    }
    assert!(best < std::time::Duration::from_millis(1), "best of 50 checks took {best:?}");
}
