//! Property test: the RG's allocation-free child replay decides what the
//! plain replay from the empty optimistic map decides,
//! `child_tail_fails(task, a, tail) == replay_tail(task, &[a] ++ tail,
//! None).is_err()`, on tails the search never builds: random action
//! sequences over the Tiny and Small A–E tasks, including ones that fail
//! partway. The search counters rely on this equality; the differential
//! suites check it only through them.

use proptest::prelude::*;
use sekitei_compile::{compile, PlanningTask};
use sekitei_model::{ActionId, CppProblem, LevelScenario};
use sekitei_planner::{replay_tail, ReplayScratch};
use sekitei_topology::scenarios;
use std::sync::OnceLock;

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
