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
//! SLRG's shared [`crate::pool::SetPool`], the per-node mid-search replay
//! runs through the incremental [`ReplayScratch`] instead of collecting and
//! re-replaying the whole tail per child, and the full
//! [`replay_tail`]-from-init check is reserved for terminal candidate
//! validation.

use crate::concretize::{concretize, ConcreteExecution};
use crate::plrg::Plrg;
use crate::pool::SetId;
use crate::prune::IncumbentBound;
use crate::replay::{replay_tail, ReplayScratch};
use crate::slrg::Slrg;
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

/// RG search configuration.
#[derive(Debug, Clone, Copy)]
pub struct RgConfig {
    /// Abort after creating this many nodes.
    pub max_nodes: usize,
    /// Abort after rejecting this many candidate plans at terminal
    /// validation. An unsolvable unleveled instance (scenario A) generates
    /// candidate after candidate whose greedy-max execution fails; this is
    /// the "bound is reached" cutoff the paper mentions for that case.
    pub max_candidate_rejects: usize,
    /// Remaining-cost heuristic.
    pub heuristic: Heuristic,
    /// Replay tails through optimistic maps and prune failures
    /// (disabling this is the ablation showing why Figure 8 matters).
    pub replay_pruning: bool,
    /// Wall-clock cutoff. Checked amortized (every
    /// [`DEADLINE_CHECK_STRIDE`] units of search work) in the expansion
    /// loop; tripping it sets `budget_exhausted` and `deadline_hit` on the
    /// result. `None` (the default) never checks the clock, so the search
    /// stays bit-identical to the pre-deadline implementation — the
    /// [`crate::reference`] oracle ignores this field for the same reason.
    pub deadline: Option<Instant>,
    /// Drain-mode dominance: once the drain trigger fires, drop a new
    /// node when its interned open set was already reached with no-larger
    /// `g` (closed-set semantics, see `prune::DomTable`). Inert
    /// before drain mode — collapsing distinct tails over the same open
    /// set is unsound against the order-sensitive greedy concretizer (see
    /// `prune.rs`) — and inert without `replay_pruning`. Defaults to
    /// **off** so the plain search stays counter-identical to
    /// [`crate::reference`]; the planner facade turns it on.
    pub dominance: bool,
    /// Orbit symmetry breaking: expand only the lexicographically minimal
    /// representative among achievers that differ solely by a verified
    /// network-node automorphism ([`sekitei_compile::NodeOrbits`]). No-op
    /// on tasks without nontrivial orbits. Defaults to **off**, same
    /// reason as `dominance`.
    pub symmetry: bool,
    /// g-aware reopening: when a strictly better arrival supersedes a
    /// closed-set entry in drain mode, mark the superseded node so the
    /// search skips it if still queued. Only meaningful together with
    /// `dominance`. Also gates **drain mode** (see `drain_after_rejects`).
    pub reopen: bool,
    /// Drain-mode trigger: once this many candidate plans have been
    /// rejected at terminal validation without a single acceptance, the
    /// sound pruning rules have demonstrably stopped converging and the
    /// search switches new arrivals to g-aware closed-set duplicate
    /// detection over interned sets, with symmetry coarsened to the
    /// unverified signature classes ([`PlanningTask::sig_classes`]). Plans
    /// found afterwards still validate against the initial state (always
    /// sound), but a frontier drained in this mode reports
    /// `budget_exhausted` instead of an unsolvability proof. The default
    /// sits 20× above the largest reject count any solvable benchmark
    /// scenario reaches, so previously-solved instances never engage it.
    /// Needs `dominance` + `reopen` + `replay_pruning`.
    pub drain_after_rejects: usize,
    /// Node-count drain trigger, for searches that drown in breadth
    /// without ever completing candidates (Large/A reaches 3 candidates in
    /// 2M nodes). Same semantics as `drain_after_rejects`; the default is
    /// ~8× the node count of the largest solved benchmark scenario.
    pub drain_after_nodes: usize,
    /// Drain-mode depth horizon: open nodes whose tails already hold this
    /// many actions are cut instead of expanded. Without a horizon the
    /// duplicate-action rule is the only depth bound, and on an unleveled
    /// task that is the total ground-action count — a regress chain
    /// thousands of actions deep that keeps minting fresh open sets
    /// faster than closure retires them: Large/A drains in ~3 s under a
    /// 16-action horizon, needs 80 s at 24, and never converges at 32.
    /// Solved benchmark plans stay comfortably inside the default.
    pub drain_depth: usize,
}

/// Amortization stride of the wall-clock deadline check: one `Instant::now`
/// per this many node creations + expansions, bounding both the overshoot
/// past the deadline and the syscall overhead when no deadline is set.
pub const DEADLINE_CHECK_STRIDE: usize = 1024;

impl Default for RgConfig {
    fn default() -> Self {
        RgConfig {
            max_nodes: 2_000_000,
            max_candidate_rejects: 20_000,
            heuristic: Heuristic::Slrg,
            replay_pruning: true,
            deadline: None,
            dominance: false,
            symmetry: false,
            reopen: false,
            drain_after_rejects: 2_000,
            drain_after_nodes: 250_000,
            drain_depth: 16,
        }
    }
}

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
    /// Nodes never created because drain-mode duplicate detection closed
    /// their open set at no-larger `g` ([`RgConfig::dominance`]).
    pub dominance_pruned: usize,
    /// Achievers skipped by orbit symmetry breaking
    /// ([`RgConfig::symmetry`]).
    pub symmetry_pruned: usize,
    /// Closed-set entries superseded by strictly better arrivals in drain
    /// mode ([`RgConfig::reopen`]); the superseded nodes are skipped when
    /// popped.
    pub reopened: usize,
    /// Candidate plans rejected by terminal validation/concretization.
    pub candidate_rejects: usize,
    /// True when the search escalated to lossy closed-set drain mode
    /// ([`RgConfig::drain_after_rejects`]); such a run's missing plan is a
    /// budget verdict, never an unsolvability proof.
    pub drain_mode: bool,
    /// Open nodes cut by the drain-mode depth horizon
    /// ([`RgConfig::drain_depth`]).
    pub drain_depth_pruned: usize,
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
            dominance_pruned: 0,
            symmetry_pruned: 0,
            reopened: 0,
            candidate_rejects: 0,
            drain_mode: false,
            drain_depth_pruned: 0,
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
    /// Tail length (root = 0); lets drain mode apply its depth horizon
    /// without walking the parent chain.
    depth: u32,
}

const ROOT: u32 = u32::MAX;

/// Run the RG search.
pub fn search(task: &PlanningTask, plrg: &Plrg, slrg: &mut Slrg<'_>, cfg: &RgConfig) -> RgResult {
    search_bounded(task, plrg, slrg, cfg, IncumbentBound::none())
}

/// [`search`] with an anytime incumbent upper bound.
pub fn search_bounded(
    task: &PlanningTask,
    plrg: &Plrg,
    slrg: &mut Slrg<'_>,
    cfg: &RgConfig,
    incumbent: IncumbentBound<'_>,
) -> RgResult {
    let mut result = RgResult::empty();

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
    nodes.push(RgNode { action: ActionId(0), parent: ROOT, set: goal, g: 0.0, depth: 0 });
    result.nodes_created += 1;
    open.push((Reverse(h0.to_bits()), 0f64.to_bits(), Reverse(counter), 0));

    let mut scratch = ReplayScratch::new(task);
    let mut parent_tail: Vec<ActionId> = Vec::new();
    // search-work units (expansions + node creations) since the last
    // wall-clock check; only maintained when a deadline is set
    let mut work_since_check = 0usize;

    // pruning layer (all off at RgConfig::default())
    let dom_on = cfg.dominance && cfg.replay_pruning;
    let sym_on = cfg.symmetry && task.orbits.nontrivial();
    // drain mode escalates duplicate detection and coarsens symmetry; the
    // flip reads only the reject and node counters, never the clock, so
    // it engages at the same pop on every run
    let drain_enabled = dom_on && cfg.reopen;
    let sym_drain_on = cfg.symmetry && task.sig_classes.nontrivial();
    let mut drain = false;
    let mut dom = crate::prune::DomTable::new(cfg.reopen);
    let mut dominated: Vec<bool> = vec![false]; // parallel to `nodes`
    let mut evicted: Vec<u32> = Vec::new();
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
        if let Some(deadline) = cfg.deadline {
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
        if drain_enabled
            && !drain
            && (result.candidate_rejects >= cfg.drain_after_rejects
                || result.nodes_created >= cfg.drain_after_nodes)
        {
            drain = true;
            result.drain_mode = true;
        }
        if dom_on && dominated[idx as usize] {
            continue; // superseded by a strictly better arrival at its set
        }
        let (set, g, depth) = {
            let n = &nodes[idx as usize];
            (n.set, n.g, n.depth)
        };
        // drain-mode depth horizon: the unleveled abstraction admits
        // non-repeating action chains as deep as the whole ground action
        // set, an abyss no amount of duplicate detection can drain; plans
        // worth validating are orders of magnitude shorter
        if drain && set != SetId::EMPTY && depth >= cfg.drain_depth as u32 {
            result.drain_depth_pruned += 1;
            continue;
        }
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
        // and seeds the incremental replay for every child
        collect_tail_into(&nodes, idx, &mut parent_tail);
        if cfg.replay_pruning {
            scratch.begin_expansion(&parent_tail);
        }
        let sym_here = if drain { sym_drain_on } else { sym_on };
        let orbit_table = if drain { &task.sig_classes } else { &task.orbits };
        if sym_here {
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
            if sym_here && used.shadowed_by_sibling(task, orbit_table, a) {
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
            if cfg.replay_pruning {
                if scratch.child_tail_fails(task, a, &parent_tail) {
                    result.replay_prunes += 1;
                    continue;
                }
                // g-aware duplicate detection fires only in drain mode:
                // collapsing distinct tails over the same open set is
                // unsound against the order-sensitive greedy concretizer
                // (see prune.rs), so the pre-drain search keeps every
                // replay-feasible tail. Candidates (empty set) always go
                // to terminal validation — dominance never gates them.
                if drain && dom_on && child_set != SetId::EMPTY {
                    evicted.clear();
                    if dom.check_and_insert(child_set, g2, nodes.len() as u32, &mut evicted) {
                        result.dominance_pruned += 1;
                        continue;
                    }
                    for &e in &evicted {
                        dominated[e as usize] = true;
                        result.reopened += 1;
                    }
                }
            }
            let child_idx = nodes.len() as u32;
            nodes.push(RgNode { action: a, parent: idx, set: child_set, g: g2, depth: depth + 1 });
            dominated.push(false);
            result.nodes_created += 1;
            if cfg.deadline.is_some() {
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
    // a frontier drained under lossy closed-set semantics is a budget
    // verdict, not an unsolvability proof — branches were merged on set
    // identity alone
    if result.drain_mode && result.plan.is_none() {
        result.budget_exhausted = true;
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

    fn run(sc: LevelScenario) -> (PlanningTask, RgResult) {
        let p = scenarios::tiny(sc);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let r = search(&task, &plrg, &mut slrg, &RgConfig::default());
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
        let cfg = RgConfig { replay_pruning: false, ..RgConfig::default() };
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
        let slrg_cost = search(&task, &plrg, &mut slrg, &RgConfig::default()).plan.unwrap().1;
        let mut slrg2 = Slrg::new(&task, &plrg, 50_000);
        let cfg = RgConfig { heuristic: Heuristic::PlrgMax, ..RgConfig::default() };
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
            let base = search(&task, &plrg, &mut slrg, &RgConfig::default());
            let mut slrg2 = Slrg::new(&task, &plrg, 50_000);
            let cfg =
                RgConfig { dominance: true, symmetry: true, reopen: true, ..RgConfig::default() };
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
        assert_eq!(r.dominance_pruned, 0);
        assert_eq!(r.symmetry_pruned, 0);
        assert_eq!(r.reopened, 0);
    }

    #[test]
    fn unsolvable_when_no_source() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.sources.clear();
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let r = search(&task, &plrg, &mut slrg, &RgConfig::default());
        assert!(r.plan.is_none());
        assert_eq!(r.nodes_created, 0);
    }
}
