//! Property test: the RG's allocation-free child replay decides what the
//! plain replay from the empty optimistic map decides,
//! `child_tail_fails(task, a, tail) == replay_tail(task, &[a] ++ tail,
//! None).is_err()`, on tails the search never builds: random action
//! sequences over the Tiny and Small A–E tasks, including ones that fail
//! partway. The search counters rely on this equality; the differential
//! suites check it only through them.
//!
//! The same holds for the replay from the initial state that validates
//! candidates: `replay_from_init(task, tail)` fails with the same
//! `ReplayFail` as `replay_tail(task, tail, Some(&task.init_values))`, or
//! reads the same interval bits on every variable, on the same random
//! draws and on every tail the Small/A search rejects.

use proptest::prelude::*;
use sekitei_compile::{compile, PlanningTask};
use sekitei_model::{ActionId, CppProblem, GVarId, Interval, LevelScenario};
use sekitei_planner::{replay_tail, rg, PlannerConfig, Plrg, ReplayScratch, Slrg};
use sekitei_topology::scenarios;
use std::sync::OnceLock;
use std::time::Instant;

/// Actions are drawn from a window of this many consecutive ids. The level
/// variants of one placement or crossing sit next to each other, so
/// windowed draws share variables and fail partway far more often than
/// uniform draws over the whole task.
const WINDOW: u32 = 24;

/// The Tiny and Small tasks under every level scenario, compiled once.
fn tasks() -> &'static [PlanningTask] {
    static TASKS: OnceLock<Vec<PlanningTask>> = OnceLock::new();
    TASKS.get_or_init(|| {
        let sizes: [fn(LevelScenario) -> CppProblem; 2] = [scenarios::tiny, scenarios::small];
        sizes.iter().flat_map(|f| LevelScenario::ALL.map(|sc| compile(&f(sc)).unwrap())).collect()
    })
}

/// The action sequence `base + offset` (mod the action count).
fn draw(task: &PlanningTask, base: u32, offsets: &[u32]) -> Vec<ActionId> {
    let n = task.num_actions() as u32;
    offsets.iter().map(|&o| ActionId(base.wrapping_add(o) % n)).collect()
}

/// Compare both replays on every split `[seq[k]] ++ seq[k + 1..]`, through
/// one scratch so that its reuse across calls is checked too.
fn check_splits(task: &PlanningTask, seq: &[ActionId]) {
    let mut scratch = ReplayScratch::new(task);
    for k in 0..seq.len() {
        let want = replay_tail(task, &seq[k..], None).is_err();
        let names: Vec<&str> = seq[k..].iter().map(|&a| task.action(a).name.as_str()).collect();
        assert_eq!(scratch.child_tail_fails(task, seq[k], &seq[k + 1..]), want, "{names:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn child_tail_fails_equals_full_replay(
        task_idx in 0usize..10,
        base in any::<u32>(),
        offsets in proptest::collection::vec(0..WINDOW, 1..10),
    ) {
        let task = &tasks()[task_idx];
        check_splits(task, &draw(task, base, &offsets));
    }
}

/// The draws are not vacuous: over a fixed sweep of the same generator,
/// some splits replay cleanly and some fail partway, after the child and
/// the first tail action have replayed.
#[test]
fn draws_cover_passing_and_partway_failing_tails() {
    let (mut pass, mut partway) = (0, 0);
    for task in tasks() {
        for base in (0..task.num_actions() as u32).step_by(3) {
            let seq = draw(task, base, &[3, 1, 4, 1, 5, 9, 2, 6, 5]);
            check_splits(task, &seq);
            for k in 0..seq.len() - 1 {
                let fails = |end: usize| replay_tail(task, &seq[k..end], None).is_err();
                pass += usize::from(!fails(seq.len()));
                partway += usize::from(!fails(k + 2) && fails(seq.len()));
            }
        }
    }
    assert!(pass > 0 && partway > 0, "{pass} pass, {partway} fail partway");
}

/// `seq` without the actions that read a variable before the initial
/// state or an earlier kept action defines it. The replay from the initial
/// state treats such a read as a broken invariant (a debug assertion), and
/// the RG never builds a candidate that makes one.
fn defined_reads(task: &PlanningTask, seq: &[ActionId]) -> Vec<ActionId> {
    let mut defined: Vec<bool> = task.init_values.iter().map(Option::is_some).collect();
    let mut kept = Vec::new();
    for &a in seq {
        let act = task.action(a);
        if act.optimistic.iter().any(|&(v, _)| !defined[v.index()]) {
            continue;
        }
        for e in act.effects.iter() {
            defined[e.target.index()] = true;
        }
        for &(v, _) in &act.post {
            defined[v.index()] = true;
        }
        kept.push(a);
    }
    kept
}

/// Compare both replays from the initial state on `tail`; true when the
/// replay succeeded. The scratch first replays a child tail from the empty
/// map, so stale writes of that mode would show here.
fn check_from_init(task: &PlanningTask, scratch: &mut ReplayScratch, tail: &[ActionId]) -> bool {
    if let Some((&a, rest)) = tail.split_first() {
        scratch.child_tail_fails(task, a, rest);
    }
    let names: Vec<&str> = tail.iter().map(|&a| task.action(a).name.as_str()).collect();
    let bits = |iv: Option<Interval>| iv.map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()));
    match (replay_tail(task, tail, Some(&task.init_values)), scratch.replay_from_init(task, tail)) {
        (Err(want), Err(got)) => {
            assert_eq!(want, got, "{names:?}");
            false
        }
        (Ok(map), Ok(view)) => {
            for v in (0..task.gvars.len()).map(GVarId::from_index) {
                assert_eq!(bits(view.get(v)), bits(map.get(&v).copied()), "{v} after {names:?}");
            }
            true
        }
        (want, got) => panic!("{names:?}: replay_tail {want:?}, scratch ok = {}", got.is_ok()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn replay_from_init_equals_full_replay(
        task_idx in 0usize..10,
        base in any::<u32>(),
        offsets in proptest::collection::vec(0..WINDOW, 1..10),
    ) {
        let task = &tasks()[task_idx];
        let tail = defined_reads(task, &draw(task, base, &offsets));
        check_from_init(task, &mut ReplayScratch::new(task), &tail);
    }
}

/// Every tail the Small/A search rejects replays alike, through one
/// scratch; a fixed sweep of the random draws has both outcomes.
#[test]
fn replay_from_init_equals_full_replay_on_rejected_and_swept_tails() {
    let task = compile(&scenarios::small(LevelScenario::A)).unwrap();
    let cfg = PlannerConfig::default();
    let plrg = Plrg::build(&task);
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    let r = rg::search(&task, &plrg, &mut slrg, &cfg, Instant::now());
    assert_eq!(r.rejected.len(), 2_000);
    let mut scratch = ReplayScratch::new(&task);
    for (tail, _) in &r.rejected {
        assert!(check_from_init(&task, &mut scratch, tail));
    }

    let (mut pass, mut fail) = (0, 0);
    for task in tasks() {
        let mut scratch = ReplayScratch::new(task);
        for base in (0..task.num_actions() as u32).step_by(3) {
            let tail = defined_reads(task, &draw(task, base, &[3, 1, 4, 1, 5, 9, 2, 6, 5]));
            if !tail.is_empty() {
                let ok = check_from_init(task, &mut scratch, &tail);
                (pass, fail) = (pass + usize::from(ok), fail + usize::from(!ok));
            }
        }
    }
    assert!(pass > 0 && fail > 0, "{pass} pass, {fail} fail");
}
