//! Soundness gate for the SLRG's shared work. After a full RG search on
//! every Table 2 scenario under `PlannerConfig::default()`, each set the
//! oracle holds an answer or a hint for is asked again of a fresh `Slrg`,
//! which has neither hints nor path entries, so its query is plain `h_max`
//! A*:
//!
//! - every memo entry (a query's result or a solution-path entry) must
//!   equal the fresh answer bit for bit, with the same `exact` flag;
//! - every P−g hint must be at most the fresh exact cost. `C − g` may
//!   overshoot it by an ulp, so this check allows 1e-9 and compares no bits.

use sekitei_compile::compile;
use sekitei_model::LevelScenario;
use sekitei_planner::rg::search;
use sekitei_planner::{PlannerConfig, Plrg, SetCost, SetKey, Slrg};
use sekitei_topology::scenarios::{self, NetSize};
use std::time::Instant;

fn check(size: NetSize, sc: LevelScenario) {
    let label = format!("{}/{sc:?}", size.label());
    let cfg = PlannerConfig::default();
    let task = compile(&scenarios::problem(size, sc)).unwrap();
    let plrg = Plrg::build(&task);
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    search(&task, &plrg, &mut slrg, &cfg, Instant::now());

    let fresh = |props: &[_]| -> SetCost {
        Slrg::new(&task, &plrg, cfg.slrg_budget).achievement_cost(&SetKey::new(props.to_vec()))
    };
    let (mut memos, mut hints) = (0usize, 0usize);
    for id in slrg.pool().ids() {
        let (memo, hint) = (slrg.memo(id), slrg.hint(id));
        if memo.is_none() && hint == 0.0 {
            continue;
        }
        let props = slrg.pool().props_of(id);
        let want = fresh(props);
        if let Some(got) = memo {
            memos += 1;
            assert!(
                got.bound.to_bits() == want.bound.to_bits() && got.exact == want.exact,
                "{label}: memo of {props:?} is {got:?}, a fresh query answers {want:?}"
            );
        }
        if hint > 0.0 {
            hints += 1;
            assert!(want.exact, "{label}: a fresh query of {props:?} hit its budget");
            assert!(
                hint <= want.bound + 1e-9,
                "{label}: hint {hint} of {props:?} exceeds its exact cost {}",
                want.bound
            );
        }
    }
    assert!(memos > 0 && hints > 0, "{label}: {memos} memo entries, {hints} hints checked");
}

fn check_size(size: NetSize) {
    for sc in LevelScenario::ALL {
        check(size, sc);
    }
}

#[test]
fn tiny_slrg_answers_match_fresh_queries() {
    check_size(NetSize::Tiny);
}

#[test]
fn small_slrg_answers_match_fresh_queries() {
    check_size(NetSize::Small);
}

/// Large/A and Large/B leave tens of thousands of hinted sets, each asked
/// of its own fresh oracle: too slow for a debug build.
#[test]
#[cfg_attr(debug_assertions, ignore = "tens of thousands of fresh queries; run with --release")]
fn large_slrg_answers_match_fresh_queries() {
    check_size(NetSize::Large);
}
