//! Phase 3 — the main regression graph (paper §3.2.3).
//!
//! A* over totally-ordered *plan tails*. Each node carries the action that
//! will execute first in its tail plus the set of propositions still to be
//! achieved before it; expanding a node regresses over the achievers of one
//! selected open proposition. Whenever a node is created, its tail is
//! replayed through the optimistic resource maps ([`crate::replay`]) and
//! pruned on failure — the early detection of resource violations that
//! distinguishes the RG from the purely logical SLRG. Because resource
//! feasibility depends on the whole tail, nodes are never shared: the RG is
//! a tree (paper: "it is not possible to reuse nodes in the RG").
//!
//! A node with an empty open set is a *candidate* plan; it is returned only
//! if its tail replays from the concrete initial state **and** the greedy
//! concretization executes exactly ([`mod@crate::concretize`]). Rejected
//! candidates are recorded ([`RgResult::rejected`]) and leave the search
//! running — this is how the planner walks past plausible-but-infeasible
//! configurations (e.g. sending raw T+I through a link that can only fit
//! the compressed pair).
//!
//! Hot-path engineering (behavior-identical to
//! [`crate::reference::search_reference`], enforced by
//! `tests/search_equivalence.rs`): node sets are interned [`SetId`]s in the
//! SLRG's shared [`crate::pool::SetPool`], each expansion collects its tail
//! once, and the per-child mid-search replay steps through the
//! allocation-free [`ReplayScratch`]; the [`replay_tail`]-from-init check
//! is reserved for terminal candidate validation.
//!
//! The search reads its budgets, heuristic and switches from the planner's
//! one [`PlannerConfig`]; fields the RG has no use for (`slrg_budget`,
//! `degrade`, the anytime knobs) belong to its callers.

use crate::concretize::{concretize, ConcreteExecution};
use crate::plrg::Plrg;
use crate::pool::SetId;
use crate::prune::IncumbentBound;
use crate::replay::{replay_tail, ReplayScratch};
use crate::slrg::Slrg;
use crate::PlannerConfig;
use sekitei_compile::PlanningTask;
use sekitei_model::{ActionId, PropId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Which remaining-cost heuristic the RG uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// The SLRG set-cost oracle (paper's choice).
    #[default]
    Slrg,
    /// The cheaper PLRG max bound (ablation).
    PlrgMax,
    /// No heuristic at all — uniform-cost search (ablation baseline; shows
    /// what the logical phases buy).
    Blind,
}

/// Amortization stride of the wall-clock deadline check: one `Instant::now`
/// per this many node creations + expansions, bounding both the overshoot
/// past the deadline and the syscall overhead when no deadline is set.
pub const DEADLINE_CHECK_STRIDE: usize = 1024;

/// Outcome of the RG search.
#[derive(Debug)]
pub struct RgResult {
    /// The plan (execution-ordered actions), its cost lower bound and its
    /// concrete execution — `None` when no plan was found.
    pub plan: Option<(Vec<ActionId>, f64, ConcreteExecution)>,
    /// Nodes created (Table 2 col 8, first number).
    pub nodes_created: usize,
    /// Nodes still open when the solution was found (col 8, second number).
    pub open_left: usize,
    /// Nodes discarded by optimistic-map replay.
    pub replay_prunes: usize,
    /// Achievers skipped by orbit symmetry breaking
    /// ([`PlannerConfig::symmetry`]).
    pub symmetry_pruned: usize,
    /// Candidate plans rejected by terminal validation/concretization.
    pub candidate_rejects: usize,
    /// Nodes expanded.
    pub expansions: usize,
    /// True when the node budget was exhausted.
    pub budget_exhausted: bool,
    /// True when the wall-clock deadline tripped (implies
    /// `budget_exhausted`).
    pub deadline_hit: bool,
    /// True when the search stopped because the popped node's `f` strictly
    /// exceeded a shared anytime incumbent cost
    /// ([`crate::prune::IncumbentBound`]): a *proof* that no remaining plan
    /// beats the incumbent, not a budget verdict. Never set outside
    /// anytime mode.
    pub incumbent_cutoff: bool,
    /// The root heuristic `h(goal)` — an admissible lower bound on *any*
    /// plan's cost that, unlike `best_open_f`, does not depend on where a
    /// wall-clock deadline happened to land, so deadline-hit gap reporting
    /// stays run-to-run deterministic. `0.0` when the search never seeded
    /// a root (trivial or empty-goal tasks), `+∞` when the goal is
    /// logically unsolvable.
    pub root_h: f64,
    /// Minimum `f` over the open list at exit when no plan was returned —
    /// an admissible lower bound on the cost of any plan the truncated
    /// search could still have found. `None` when a plan was returned or
    /// the open list drained.
    pub best_open_f: Option<f64>,
    /// Every candidate whose tail replayed from the initial state but
    /// failed greedy concretization (tail, cost lower bound), in pop order.
    /// Candidates pop in `g` order (`h(∅) = 0` and `h` is admissible), so
    /// costs never decrease along the list. The search only records them;
    /// the planner facade's degradation step re-binds them after the search.
    pub rejected: Vec<(Vec<ActionId>, f64)>,
    /// Cumulative wall time of terminal candidate validation (full replay
    /// from the initial state plus greedy concretization) — the
    /// "concretize" phase of the profile breakdown. Purely observational.
    pub concretize_time: std::time::Duration,
    /// Candidate plans validated (accepted + rejected).
    pub concretize_calls: usize,
}

impl RgResult {
    fn empty() -> RgResult {
        RgResult {
            plan: None,
            nodes_created: 0,
            open_left: 0,
            replay_prunes: 0,
            symmetry_pruned: 0,
            candidate_rejects: 0,
            expansions: 0,
            budget_exhausted: false,
            deadline_hit: false,
            incumbent_cutoff: false,
            root_h: 0.0,
            best_open_f: None,
            rejected: Vec::new(),
            concretize_time: std::time::Duration::ZERO,
            concretize_calls: 0,
        }
    }
}

struct RgNode {
    action: ActionId,
    parent: u32, // u32::MAX = root
    set: SetId,
    g: f64,
}

const ROOT: u32 = u32::MAX;

/// Run the RG search. `t0` anchors [`PlannerConfig::deadline`] (the
/// request's arrival); it is never read without a deadline.
pub fn search(
    task: &PlanningTask,
    plrg: &Plrg,
    slrg: &mut Slrg<'_>,
    cfg: &PlannerConfig,
    t0: Instant,
) -> RgResult {
    search_bounded(task, plrg, slrg, cfg, t0, IncumbentBound::none())
}

/// [`search`] with an anytime incumbent upper bound.
pub fn search_bounded(
    task: &PlanningTask,
    plrg: &Plrg,
    slrg: &mut Slrg<'_>,
    cfg: &PlannerConfig,
    t0: Instant,
    incumbent: IncumbentBound<'_>,
) -> RgResult {
    let mut result = RgResult::empty();
    let deadline = cfg.deadline.map(|d| t0 + d);

    let goal_props: Vec<PropId> =
        task.goal_props.iter().copied().filter(|&p| !task.initially(p)).collect();

    // the virtual root: nothing executed yet, the goal set open
    if goal_props.is_empty() {
        // goals already satisfied: the empty plan, executed trivially
        let exec = concretize(task, &[], &std::collections::HashMap::new())
            .expect("empty plan always executes");
        result.plan = Some((Vec::new(), 0.0, exec));
        return result;
    }
    let goal = slrg.pool_mut().intern(goal_props);

    let mut nodes: Vec<RgNode> = Vec::new();
    // (Reverse(f), g_bits: deeper-first tie-break, Reverse(counter), idx)
    let mut open: BinaryHeap<(Reverse<u64>, u64, Reverse<u64>, u32)> = BinaryHeap::new();
    let mut counter = 0u64;

    let h_of = |slrg: &mut Slrg<'_>, set: SetId| -> f64 {
        match cfg.heuristic {
            Heuristic::Slrg => slrg.achievement_cost_id(set).bound,
            Heuristic::PlrgMax => plrg.set_cost(slrg.pool().props_of(set)),
            // even blind search must skip logically-dead sets
            Heuristic::Blind => {
                if plrg.set_cost(slrg.pool().props_of(set)).is_finite() {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
        }
    };

    let h0 = h_of(slrg, goal);
    result.root_h = h0;
    if !h0.is_finite() {
        return result; // logically unsolvable
    }
    nodes.push(RgNode { action: ActionId(0), parent: ROOT, set: goal, g: 0.0 });
    result.nodes_created += 1;
    open.push((Reverse(h0.to_bits()), 0f64.to_bits(), Reverse(counter), 0));

    let mut scratch = ReplayScratch::new(task);
    let mut parent_tail: Vec<ActionId> = Vec::new();
    // search-work units (expansions + node creations) since the last
    // wall-clock check; only maintained when a deadline is set
    let mut work_since_check = 0usize;

    // the pruning layer
    let sym_on = cfg.symmetry && task.orbits.nontrivial();
    let mut used = crate::prune::UsedNodes::new(task.orbits.num_nodes());

    'search: while let Some((Reverse(f_bits), _, _, idx)) = open.pop() {
        // A* pops nodes in f order, so the f of the node in hand is a sound
        // lower bound on every solution not yet returned. The cutoff breaks
        // below consume this node without resolving it, so they must report
        // its f — not `open.peek()`, which can be strictly larger.
        let popped_f = f64::from_bits(f_bits);
        if result.nodes_created >= cfg.max_nodes {
            result.budget_exhausted = true;
            result.best_open_f = Some(popped_f);
            break;
        }
        if let Some(deadline) = deadline {
            work_since_check += 1;
            if work_since_check >= DEADLINE_CHECK_STRIDE {
                work_since_check = 0;
                if Instant::now() >= deadline {
                    result.budget_exhausted = true;
                    result.deadline_hit = true;
                    result.best_open_f = Some(popped_f);
                    break;
                }
            }
        }
        // anytime incumbent cutoff: strictly past the incumbent, nothing
        // left in the frontier can beat it — a proof, not a budget verdict
        if incumbent.cuts(popped_f) {
            result.incumbent_cutoff = true;
            result.best_open_f = Some(popped_f);
            break;
        }
        let (set, g) = {
            let n = &nodes[idx as usize];
            (n.set, n.g)
        };
        result.expansions += 1;

        if set == SetId::EMPTY {
            // candidate plan: validate from the initial state
            let t_cand = Instant::now();
            let mut solved = false;
            let tail = collect_tail(&nodes, idx);
            match replay_tail(task, &tail, Some(&task.init_values)) {
                Ok(map) => match concretize(task, &tail, &map) {
                    Ok(exec) => {
                        result.plan = Some((tail, g, exec));
                        solved = true;
                    }
                    Err(_) => {
                        result.candidate_rejects += 1;
                        result.rejected.push((tail, g));
                    }
                },
                Err(_) => {
                    result.candidate_rejects += 1;
                }
            }
            result.concretize_calls += 1;
            result.concretize_time += t_cand.elapsed();
            if solved {
                break;
            }
            if result.candidate_rejects >= cfg.max_candidate_rejects {
                result.budget_exhausted = true;
                result.best_open_f = Some(popped_f);
                break;
            }
            continue;
        }

        // collected once per expansion: serves the duplicate-action check
        // and every child's replay
        collect_tail_into(&nodes, idx, &mut parent_tail);
        if sym_on {
            used.begin();
            for &aid in &parent_tail {
                used.mark_action(task, aid);
            }
            for &p in slrg.pool().props_of(set) {
                used.mark_prop(task, p);
            }
        }

        // branch on the open proposition with the largest PLRG bound
        let target = select_prop(plrg, slrg.pool().props_of(set));
        for &a in task.achievers(target) {
            if !plrg.usable(a) {
                continue;
            }
            // A ground action never needs to appear twice in one tail:
            // repeating a placement or a crossing re-adds propositions that
            // are already guaranteed and (with `Set`/`Sub` numeric effects)
            // never delivers more than the first occurrence. Pruning
            // repeats bounds tail depth by the action count and kills the
            // cross-ping-pong regression ladders that would otherwise make
            // unsolvable instances (scenario A) run forever.
            if parent_tail.contains(&a) {
                continue;
            }
            // symmetry breaking runs before regression so a shadowed child
            // costs neither a set interning nor an SLRG query
            if sym_on && used.shadowed_by_sibling(task, &task.orbits, a) {
                result.symmetry_pruned += 1;
                continue;
            }
            let act = task.action(a);
            let child_set =
                slrg.pool_mut().regress(set, &act.adds, &act.preconds, |p| task.initially(p));
            let g2 = g + act.cost;
            let h = h_of(slrg, child_set);
            if !h.is_finite() {
                continue;
            }
            if cfg.replay_pruning && scratch.child_tail_fails(task, a, &parent_tail) {
                result.replay_prunes += 1;
                continue;
            }
            let child_idx = nodes.len() as u32;
            nodes.push(RgNode { action: a, parent: idx, set: child_set, g: g2 });
            result.nodes_created += 1;
            if deadline.is_some() {
                work_since_check += 1;
            }
            counter += 1;
            open.push((Reverse((g2 + h).to_bits()), g2.to_bits(), Reverse(counter), child_idx));
            if nodes.len() >= cfg.max_nodes {
                result.budget_exhausted = true;
                break 'search;
            }
        }
    }
    result.open_left = open.len();
    if result.plan.is_none() && result.best_open_f.is_none() {
        // budget tripped mid-expansion (all of the popped node's children are
        // back in `open`) or the frontier drained naturally: `open.peek()` is
        // the sound bound, and `None` on an empty frontier proves
        // infeasibility.
        result.best_open_f = open.peek().map(|&(Reverse(f_bits), ..)| f64::from_bits(f_bits));
    }
    result
}

/// Plan tail of a node in execution order: the node's own action runs
/// first, the root's child's action runs last.
fn collect_tail(nodes: &[RgNode], idx: u32) -> Vec<ActionId> {
    let mut tail = Vec::new();
    collect_tail_into(nodes, idx, &mut tail);
    tail
}

fn collect_tail_into(nodes: &[RgNode], mut idx: u32, tail: &mut Vec<ActionId>) {
    tail.clear();
    loop {
        let n = &nodes[idx as usize];
        if n.parent == ROOT {
            break; // the seeded root carries the goal set, not an action
        }
        tail.push(n.action);
        idx = n.parent;
    }
}

fn select_prop(plrg: &Plrg, props: &[PropId]) -> PropId {
    *props
        .iter()
        .max_by(|&&a, &&b| {
            plrg.prop_cost(a).partial_cmp(&plrg.prop_cost(b)).unwrap().then(a.cmp(&b))
        })
        .expect("non-empty set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_compile::compile;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    /// The search with the pruning layer off.
    fn plain() -> PlannerConfig {
        PlannerConfig { symmetry: false, ..PlannerConfig::default() }
    }

    /// [`super::search`] anchored now; no test here sets a deadline.
    fn search(
        task: &PlanningTask,
        plrg: &Plrg,
        slrg: &mut Slrg<'_>,
        cfg: &PlannerConfig,
    ) -> RgResult {
        super::search(task, plrg, slrg, cfg, Instant::now())
    }

    fn run(sc: LevelScenario) -> (PlanningTask, RgResult) {
        let p = scenarios::tiny(sc);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let r = search(&task, &plrg, &mut slrg, &plain());
        (task, r)
    }

    #[test]
    fn scenario_a_finds_no_plan() {
        let (_, r) = run(LevelScenario::A);
        assert!(r.plan.is_none(), "greedy scenario A must fail (paper §4.1)");
        assert!(!r.budget_exhausted);
        assert!(r.candidate_rejects > 0 || r.replay_prunes > 0);
    }

    #[test]
    fn scenario_b_finds_seven_action_plan() {
        let (task, r) = run(LevelScenario::B);
        let (plan, cost, _) = r.plan.expect("scenario B solves Tiny");
        assert_eq!(plan.len(), 7, "paper Table 2: 7 actions");
        // every action costs exactly 1 at level-lows of 0 ⇒ bound = 7
        assert!((cost - 7.0).abs() < 1e-9, "paper Table 2: lower bound 7, got {cost}");
        let names: Vec<_> = plan.iter().map(|&a| task.action(a).name.clone()).collect();
        assert!(names.iter().any(|n| n.contains("place(Splitter,n0)")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("place(Zip,n0)")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("cross(Z,n0→n1)")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("cross(I,n0→n1)")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("place(Unzip,n1)")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("place(Merger,n1)")), "{names:?}");
        assert!(names.last().unwrap().contains("place(Client,n1)"), "{names:?}");
    }

    #[test]
    fn scenario_c_same_plan_higher_bound() {
        let (_, r) = run(LevelScenario::C);
        let (plan, cost, exec) = r.plan.expect("scenario C solves Tiny");
        assert_eq!(plan.len(), 7);
        assert!(cost > 7.0, "C's bound reflects real bandwidth: {cost}");
        // processes 100 units (paper §4.2)
        assert!((exec.source_values[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn plan_ends_with_goal_achiever() {
        let (task, r) = run(LevelScenario::D);
        let (plan, _, _) = r.plan.unwrap();
        let last = task.action(*plan.last().unwrap());
        assert!(last.adds.iter().any(|&p| task.goal_props.contains(&p)));
    }

    #[test]
    fn replay_pruning_off_still_sound() {
        let p = scenarios::tiny(LevelScenario::B);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let cfg = PlannerConfig { replay_pruning: false, ..plain() };
        let r = search(&task, &plrg, &mut slrg, &cfg);
        let (plan, _, _) = r.plan.expect("still solvable without replay pruning");
        assert_eq!(plan.len(), 7);
        assert_eq!(r.replay_prunes, 0);
    }

    #[test]
    fn plrg_heuristic_finds_same_cost() {
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let slrg_cost = search(&task, &plrg, &mut slrg, &plain()).plan.unwrap().1;
        let mut slrg2 = Slrg::new(&task, &plrg, 50_000);
        let cfg = PlannerConfig { heuristic: Heuristic::PlrgMax, ..plain() };
        let plrg_cost = search(&task, &plrg, &mut slrg2, &cfg).plan.unwrap().1;
        assert!((slrg_cost - plrg_cost).abs() < 1e-9, "{slrg_cost} vs {plrg_cost}");
    }

    #[test]
    fn pruning_flags_preserve_tiny_outcomes() {
        for sc in LevelScenario::ALL {
            let p = scenarios::tiny(sc);
            let task = compile(&p).unwrap();
            let plrg = Plrg::build(&task);
            let mut slrg = Slrg::new(&task, &plrg, 50_000);
            let base = search(&task, &plrg, &mut slrg, &plain());
            let mut slrg2 = Slrg::new(&task, &plrg, 50_000);
            let cfg = PlannerConfig { symmetry: true, ..plain() };
            let pruned = search(&task, &plrg, &mut slrg2, &cfg);
            match (&base.plan, &pruned.plan) {
                (Some((_, c1, _)), Some((_, c2, _))) => {
                    assert_eq!(c1.to_bits(), c2.to_bits(), "{sc:?}: cost drifted");
                }
                (None, None) => {}
                (a, b) => {
                    panic!("{sc:?}: solvability drifted: {:?} vs {:?}", a.is_some(), b.is_some())
                }
            }
            assert!(pruned.nodes_created <= base.nodes_created, "{sc:?}: pruning grew the search");
        }
    }

    #[test]
    fn pruning_flags_off_leave_counters_zero() {
        let (_, r) = run(LevelScenario::C);
        assert_eq!(r.symmetry_pruned, 0);
    }

    #[test]
    fn unsolvable_when_no_source() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.sources.clear();
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let r = search(&task, &plrg, &mut slrg, &plain());
        assert!(r.plan.is_none());
        assert_eq!(r.nodes_created, 0);
    }
}
