//! Reference (pre-optimization) search semantics, kept verbatim as a
//! differential-testing oracle.
//!
//! The optimized [`crate::slrg`]/[`crate::rg`] pipeline interns
//! proposition sets in a [`crate::pool::SetPool`], replays tails through a
//! reused dense store and reuses scratch buffers — all of which is
//! supposed to be *behavior-preserving*: identical plans, identical cost
//! bounds, identical node/prune/reject counts. This module preserves the original
//! boxed-[`SetKey`] implementation (allocating regression, `HashMap`
//! memoization, full `collect_tail` + [`replay_tail`] on every node
//! creation) so `tests/search_equivalence.rs` can assert that equivalence
//! on every scenario. It is **not** part of the planner's hot path and
//! intentionally favors obviousness over speed; when changing search
//! semantics on purpose, change both sides and record it in CHANGES.md.

use crate::concretize::{concretize, ConcreteExecution};
use crate::plrg::Plrg;
use crate::replay::replay_tail;
use crate::rg::Heuristic;
use crate::setkey::SetKey;
use crate::PlannerConfig;
use sekitei_compile::PlanningTask;
use sekitei_model::{ActionId, PropId};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Everything the equivalence test compares between the two pipelines.
#[derive(Debug)]
pub struct ReferenceOutcome {
    /// The plan (execution-ordered actions), its cost lower bound and
    /// concrete execution — `None` when no plan was found.
    pub plan: Option<(Vec<ActionId>, f64, ConcreteExecution)>,
    /// RG nodes created.
    pub nodes_created: usize,
    /// RG nodes still open at return.
    pub open_left: usize,
    /// Nodes discarded by optimistic-map replay.
    pub replay_prunes: usize,
    /// Candidate plans rejected by terminal validation/concretization.
    pub candidate_rejects: usize,
    /// RG nodes expanded.
    pub expansions: usize,
    /// True when a budget was exhausted.
    pub budget_exhausted: bool,
    /// SLRG set nodes generated.
    pub slrg_nodes: usize,
    /// SLRG queries answered from the memo table.
    pub slrg_cache_hits: usize,
}

/// The original memoizing SLRG, keyed on boxed [`SetKey`]s, with the same
/// two work-sharing rules as [`crate::slrg::Slrg`]: P−g hints and solution
/// path memo entries.
struct RefSlrg<'t> {
    task: &'t PlanningTask,
    plrg: &'t Plrg,
    budget: usize,
    cache: HashMap<SetKey, (f64, bool)>,
    hint: HashMap<SetKey, f64>,
    nodes: usize,
    cache_hits: usize,
}

impl<'t> RefSlrg<'t> {
    fn h(&self, key: &SetKey) -> f64 {
        let h_max = self.plrg.set_cost(key.props());
        self.hint.get(key).map_or(h_max, |&hint| h_max.max(hint))
    }

    /// Record an exact answer `cost` from `start`: the hint `cost − g` on
    /// every generated set, and a memo entry on every set of the solution
    /// path, at its suffix cost summed from the set toward ∅.
    fn share(
        &mut self,
        start: &SetKey,
        cost: f64,
        best_g: &HashMap<SetKey, f64>,
        parent: &HashMap<SetKey, (SetKey, ActionId)>,
    ) {
        for (key, &g) in best_g {
            let hint = self.hint.entry(key.clone()).or_insert(0.0);
            *hint = hint.max(cost - g);
        }
        if !cost.is_finite() {
            return;
        }
        let mut path: Vec<(SetKey, ActionId)> = Vec::new();
        let mut cur = SetKey::empty();
        while &cur != start {
            let (set, a) = parent[&cur].clone();
            cur = set.clone();
            path.push((set, a));
        }
        // path[i] is the set i + 1 steps before ∅; a fresh query from it
        // adds path[i]'s action first and path[0]'s last
        for i in 0..path.len() {
            let mut bound = 0.0;
            for (_, a) in path[..=i].iter().rev() {
                bound += self.task.action(*a).cost;
            }
            self.cache.entry(path[i].0.clone()).or_insert((bound, true));
        }
    }

    fn select_prop(&self, key: &SetKey) -> PropId {
        *key.props()
            .iter()
            .max_by(|&&a, &&b| {
                self.plrg.prop_cost(a).partial_cmp(&self.plrg.prop_cost(b)).unwrap().then(a.cmp(&b))
            })
            .expect("non-empty set")
    }

    fn achievement_cost(&mut self, set: &SetKey) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        if let Some(&(b, _)) = self.cache.get(set) {
            self.cache_hits += 1;
            return b;
        }
        if set.props().iter().any(|&p| !self.plrg.prop_cost(p).is_finite()) {
            self.cache.insert(set.clone(), (f64::INFINITY, true));
            return f64::INFINITY;
        }
        let result = self.astar(set);
        self.cache.insert(set.clone(), result);
        result.0
    }

    fn astar(&mut self, start: &SetKey) -> (f64, bool) {
        let mut open: BinaryHeap<(Reverse<u64>, Reverse<u64>, u64, SetKey)> = BinaryHeap::new();
        let mut best_g: HashMap<SetKey, f64> = HashMap::new();
        let mut parent: HashMap<SetKey, (SetKey, ActionId)> = HashMap::new();
        let mut counter = 0u64;

        let h0 = self.h(start);
        open.push((Reverse(h0.to_bits()), Reverse(counter), 0f64.to_bits(), start.clone()));
        best_g.insert(start.clone(), 0.0);
        self.nodes += 1;

        let mut expansions = 0usize;
        while let Some((Reverse(fbits), _, gbits, key)) = open.pop() {
            let f = f64::from_bits(fbits);
            let g = f64::from_bits(gbits);
            match best_g.get(&key) {
                Some(&bg) if g <= bg + 1e-12 => {}
                _ => continue,
            }
            if key.is_empty() {
                self.share(start, g, &best_g, &parent);
                return (g, true);
            }
            expansions += 1;
            if expansions > self.budget {
                return (f.max(0.0), false);
            }

            let target = self.select_prop(&key);
            let task = self.task;
            for &a in task.achievers(target) {
                if !self.plrg.usable(a) {
                    continue;
                }
                let act = self.task.action(a);
                let child = key.regress(&act.adds, &act.preconds, |p| self.task.initially(p));
                let g2 = g + act.cost;
                let hc = self.h(&child);
                if !hc.is_finite() {
                    continue;
                }
                match best_g.entry(child.clone()) {
                    Entry::Occupied(mut e) => {
                        if g2 + 1e-12 < *e.get() {
                            e.insert(g2);
                            parent.insert(child.clone(), (key.clone(), a));
                            counter += 1;
                            open.push((
                                Reverse((g2 + hc).to_bits()),
                                Reverse(counter),
                                g2.to_bits(),
                                child,
                            ));
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(g2);
                        parent.insert(child.clone(), (key.clone(), a));
                        self.nodes += 1;
                        counter += 1;
                        open.push((
                            Reverse((g2 + hc).to_bits()),
                            Reverse(counter),
                            g2.to_bits(),
                            child,
                        ));
                    }
                }
            }
        }
        self.share(start, f64::INFINITY, &best_g, &parent);
        (f64::INFINITY, true)
    }
}

struct RefNode {
    action: ActionId,
    parent: u32,
    set: SetKey,
    g: f64,
}

const ROOT: u32 = u32::MAX;

fn tail_contains(nodes: &[RefNode], mut idx: u32, a: ActionId) -> bool {
    while idx != ROOT {
        let n = &nodes[idx as usize];
        if n.parent == ROOT {
            break;
        }
        if n.action == a {
            return true;
        }
        idx = n.parent;
    }
    false
}

fn collect_tail(nodes: &[RefNode], mut idx: u32) -> Vec<ActionId> {
    let mut tail = Vec::new();
    loop {
        let n = &nodes[idx as usize];
        if n.parent == ROOT {
            break;
        }
        tail.push(n.action);
        idx = n.parent;
    }
    tail
}

fn select_prop(plrg: &Plrg, set: &SetKey) -> PropId {
    *set.props()
        .iter()
        .max_by(|&&a, &&b| {
            plrg.prop_cost(a).partial_cmp(&plrg.prop_cost(b)).unwrap().then(a.cmp(&b))
        })
        .expect("non-empty set")
}

/// Run the original RG search (full per-child tail replay, boxed set keys)
/// with the SLRG's per-query budget from [`PlannerConfig::slrg_budget`].
///
/// The oracle has no pruning layer, so it ignores
/// [`PlannerConfig::symmetry`]; compare it with a `symmetry: false`
/// search for equal counters. It also ignores
/// [`PlannerConfig::deadline`]: wall-clock cutoffs are nondeterministic by
/// nature, so the differential `search_equivalence` suite only ever
/// compares runs with `deadline: None`, where the optimized search never
/// reads the clock either.
pub fn search_reference(task: &PlanningTask, plrg: &Plrg, cfg: &PlannerConfig) -> ReferenceOutcome {
    let budget = cfg.slrg_budget;
    let mut slrg = RefSlrg {
        task,
        plrg,
        budget,
        cache: HashMap::new(),
        hint: HashMap::new(),
        nodes: 0,
        cache_hits: 0,
    };
    let mut result = ReferenceOutcome {
        plan: None,
        nodes_created: 0,
        open_left: 0,
        replay_prunes: 0,
        candidate_rejects: 0,
        expansions: 0,
        budget_exhausted: false,
        slrg_nodes: 0,
        slrg_cache_hits: 0,
    };

    let goal =
        SetKey::new(task.goal_props.iter().copied().filter(|&p| !task.initially(p)).collect());

    let mut nodes: Vec<RefNode> = Vec::new();
    let mut open: BinaryHeap<(Reverse<u64>, u64, Reverse<u64>, u32)> = BinaryHeap::new();
    let mut counter = 0u64;

    let h_of = |slrg: &mut RefSlrg<'_>, set: &SetKey| -> f64 {
        match cfg.heuristic {
            Heuristic::Slrg => slrg.achievement_cost(set),
            Heuristic::PlrgMax => plrg.set_cost(set.props()),
            Heuristic::Blind => {
                if plrg.set_cost(set.props()).is_finite() {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
        }
    };

    if goal.is_empty() {
        let exec = concretize(task, &[], &std::collections::HashMap::new())
            .expect("empty plan always executes");
        result.plan = Some((Vec::new(), 0.0, exec));
        return result;
    }
    let h0 = h_of(&mut slrg, &goal);
    if !h0.is_finite() {
        result.slrg_nodes = slrg.nodes;
        result.slrg_cache_hits = slrg.cache_hits;
        return result;
    }
    nodes.push(RefNode { action: ActionId(0), parent: ROOT, set: goal, g: 0.0 });
    result.nodes_created += 1;
    open.push((Reverse(h0.to_bits()), 0f64.to_bits(), Reverse(counter), 0));

    while let Some((_, _, _, idx)) = open.pop() {
        if result.nodes_created >= cfg.max_nodes {
            result.budget_exhausted = true;
            break;
        }
        result.expansions += 1;
        let (set, g) = {
            let n = &nodes[idx as usize];
            (n.set.clone(), n.g)
        };

        if set.is_empty() {
            let tail = collect_tail(&nodes, idx);
            match replay_tail(task, &tail, Some(&task.init_values)) {
                Ok(map) => match concretize(task, &tail, &map) {
                    Ok(exec) => {
                        result.plan = Some((tail, g, exec));
                        result.open_left = open.len();
                        result.slrg_nodes = slrg.nodes;
                        result.slrg_cache_hits = slrg.cache_hits;
                        return result;
                    }
                    Err(_) => {
                        result.candidate_rejects += 1;
                    }
                },
                Err(_) => {
                    result.candidate_rejects += 1;
                }
            }
            if result.candidate_rejects >= cfg.max_candidate_rejects {
                result.budget_exhausted = true;
                break;
            }
            continue;
        }

        let target = select_prop(plrg, &set);
        for &a in task.achievers(target) {
            if !plrg.usable(a) {
                continue;
            }
            if tail_contains(&nodes, idx, a) {
                continue;
            }
            let act = task.action(a);
            let child_set = set.regress(&act.adds, &act.preconds, |p| task.initially(p));
            let g2 = g + act.cost;
            let h = h_of(&mut slrg, &child_set);
            if !h.is_finite() {
                continue;
            }
            let child_idx = nodes.len() as u32;
            nodes.push(RefNode { action: a, parent: idx, set: child_set, g: g2 });

            if cfg.replay_pruning {
                let tail = collect_tail(&nodes, child_idx);
                if replay_tail(task, &tail, None).is_err() {
                    result.replay_prunes += 1;
                    nodes.pop();
                    continue;
                }
            }
            result.nodes_created += 1;
            counter += 1;
            open.push((Reverse((g2 + h).to_bits()), g2.to_bits(), Reverse(counter), child_idx));
            if nodes.len() >= cfg.max_nodes {
                result.budget_exhausted = true;
                result.open_left = open.len();
                result.slrg_nodes = slrg.nodes;
                result.slrg_cache_hits = slrg.cache_hits;
                return result;
            }
        }
    }
    result.open_left = open.len();
    result.slrg_nodes = slrg.nodes;
    result.slrg_cache_hits = slrg.cache_hits;
    result
}
