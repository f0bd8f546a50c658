//! Exact-count gate for the search layer: the work counters of every
//! Table 2 scenario under `PlannerConfig::default()` (with `degrade` on
//! for A). A change to the RG, the SLRG, the replay or the symmetry rule
//! that moves any count fails here, whether or not it moves a plan. On
//! failure the message prints the new table; a changed count is a changed
//! search, not a number to paste in.

use sekitei_model::LevelScenario;
use sekitei_planner::{Planner, PlannerConfig};
use sekitei_topology::scenarios::{self, NetSize};

/// (scenario, RG nodes, RG open-left, SLRG nodes, candidate rejects,
/// replay prunes, symmetry prunes, budget exhausted, plan cost)
type Row = (&'static str, usize, usize, usize, usize, usize, usize, bool, f64);

const COUNTS: &[Row] = &[
    ("Tiny/A", 115, 0, 71, 20, 2, 0, false, 7.0),
    ("Tiny/B", 35, 17, 154, 2, 31, 0, false, 7.0),
    ("Tiny/C", 29, 12, 110, 2, 27, 0, false, 49.3),
    ("Tiny/D", 29, 12, 110, 2, 27, 0, false, 49.3),
    ("Tiny/E", 16, 4, 106, 1, 54, 0, false, 49.3),
    ("Small/A", 18128, 9660, 2913, 2000, 601, 0, true, 10.0),
    ("Small/B", 326, 238, 2927, 11, 250, 0, false, 10.0),
    ("Small/C", 90, 68, 2054, 1, 62, 0, false, 72.85000000000001),
    ("Small/D", 90, 68, 2054, 1, 62, 0, false, 72.85000000000001),
    ("Small/E", 739, 477, 1887, 53, 2004, 0, false, 72.85000000000001),
    ("Large/A", 214021, 165800, 39261, 2000, 19869, 3097, true, 11.0),
    ("Large/B", 32898, 28877, 77299, 48, 23232, 270, false, 11.0),
    ("Large/C", 194, 172, 15859, 1, 109, 12, false, 72.85000000000001),
    ("Large/D", 194, 172, 15859, 1, 109, 12, false, 72.85000000000001),
    ("Large/E", 1843, 1641, 15094, 35, 2616, 228, false, 72.85000000000001),
];

/// One scenario's row, printed as its `COUNTS` entry would be.
fn run(size: NetSize, sc: LevelScenario) -> String {
    let cfg = PlannerConfig { degrade: sc == LevelScenario::A, ..PlannerConfig::default() };
    let o = Planner::new(cfg).plan(&scenarios::problem(size, sc)).unwrap();
    let s = &o.stats;
    assert_eq!(s.dominance_pruned, 0, "{size:?}/{sc:?}");
    let row = (
        format!("{}/{sc:?}", size.label()),
        s.rg_nodes,
        s.rg_open_left,
        s.slrg_nodes,
        s.candidate_rejects,
        s.replay_prunes,
        s.symmetry_pruned,
        s.budget_exhausted,
        o.plan.map_or(f64::NAN, |p| p.cost_lower_bound),
    );
    format!("{row:?}")
}

fn check(grid: &[(NetSize, LevelScenario)]) {
    let got: Vec<String> = grid.iter().map(|&(size, sc)| run(size, sc)).collect();
    let want: Vec<String> = grid
        .iter()
        .map(|&(size, sc)| {
            let label = format!("{}/{sc:?}", size.label());
            format!("{:?}", COUNTS.iter().find(|r| r.0 == label).unwrap())
        })
        .collect();
    let table: String = got.iter().map(|r| format!("    {r},\n")).collect();
    assert!(got == want, "search counts changed; now:\n{table}");
}

#[test]
fn tiny_and_small_search_counts_are_pinned() {
    let grid: Vec<_> = [NetSize::Tiny, NetSize::Small]
        .into_iter()
        .flat_map(|size| LevelScenario::ALL.map(|sc| (size, sc)))
        .collect();
    check(&grid);
}

#[test]
fn large_solved_search_counts_are_pinned() {
    let grid = [LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E];
    check(&grid.map(|sc| (NetSize::Large, sc)));
}

/// Large/A spends 214 021 nodes on the way to its reject budget: ~0.3 s
/// in a release build, too slow for a debug one.
#[test]
#[cfg_attr(debug_assertions, ignore = "214k-node search; run with --release")]
fn large_a_search_counts_are_pinned() {
    check(&[(NetSize::Large, LevelScenario::A)]);
}
