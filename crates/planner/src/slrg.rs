//! Phase 2 — the set logical regression graph (paper §3.2.2).
//!
//! Estimates the minimum *logical* cost of achieving a **set** of
//! propositions from the initial state. Unlike the PLRG (which maxes over
//! individual propositions and therefore assumes achievers can share all
//! work), the SLRG regresses over actions in sequence, so e.g. two link
//! crossings are costed additively (the paper's 18-vs-19 example).
//!
//! Implementation: A* regression from the queried set toward the initial
//! state, branching on the achievers of a single selected open
//! proposition — complete and optimality-preserving in the delete-free
//! propositional projection, because any plan can be reordered to end with
//! an achiever of any chosen proposition it achieves. Query results are
//! memoized; a per-query expansion budget degrades gracefully to the best
//! admissible lower bound discovered (the minimum f-value left in the open
//! list) instead of blowing up.
//!
//! Queries share their work, as in Hierarchical A* (Holte et al., AAAI
//! 1996). The RG branches exactly as the SLRG does, so the sets it asks
//! about are mostly sets an earlier query already generated:
//!
//! - **P−g hints.** A query from `S` that ends exactly at cost `C` proves
//!   that every set `n` it generated at best cost `g(n)` costs at least
//!   `C − g(n)`. Each set keeps the largest such hint, and later queries
//!   take `max(h_max, hint)` as their heuristic.
//! - **Path memo entries.** Per-query parent pointers let an exact answer
//!   walk its solution path; every set on it is memoized as exact, at the
//!   cost of its own suffix toward ∅ summed in the order a fresh query
//!   from that set would add it, so the entry is bit-identical to that
//!   query's answer.
//!
//! The oracle owns the search core's [`SetPool`]: every set is interned
//! once and addressed by a copyable [`SetId`], so the memo table and the
//! hints are dense `Vec` lookups, heap entries are `Copy`, and the
//! per-query `best_g` map and parent pointers are epoch-stamped arrays — no
//! hashing of boxed slices anywhere on the hot path (see DESIGN.md,
//! "Search-core performance").

use crate::plrg::Plrg;
use crate::pool::{SetId, SetPool};
use crate::setkey::SetKey;
use sekitei_compile::PlanningTask;
use sekitei_model::{ActionId, PropId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A memoized cost (exact or lower bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetCost {
    /// Cost bound. `f64::INFINITY` means "proved unreachable".
    pub bound: f64,
    /// Whether the bound is the exact optimal logical cost.
    pub exact: bool,
}

/// SLRG statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlrgStats {
    /// Set nodes generated, summed over all queries (Table 2 col 7): each
    /// query counts the distinct sets it generates. Hints from earlier
    /// queries shrink later ones, so the count depends on query history.
    pub nodes: usize,
    /// Queries answered from the memo table, whether by an earlier query's
    /// own result or by a path entry an earlier query left.
    pub cache_hits: usize,
    /// Queries that exhausted their expansion budget.
    pub budget_exhausted: usize,
    /// Wall time spent inside uncached A* queries (lets callers split the
    /// search phase into SLRG vs RG time).
    pub time: std::time::Duration,
}

/// The SLRG: a memoizing set-cost oracle over interned proposition sets.
pub struct Slrg<'t> {
    task: &'t PlanningTask,
    plrg: &'t Plrg,
    /// Expansion budget per query.
    budget: usize,
    /// The shared set arena (also used by the RG, which borrows it through
    /// [`Slrg::pool`]/[`Slrg::pool_mut`]).
    pool: SetPool,
    /// Memoized query results and solution-path entries, indexed by
    /// [`SetId`].
    cache: Vec<Option<SetCost>>,
    /// P−g hints, indexed by [`SetId`]: each a lower bound on the set's
    /// exact cost (0 where no query has left one).
    hint: Vec<f64>,
    /// Epoch-stamped per-query `best_g` and the step that reached it (the
    /// parent set and the action regressed), indexed by [`SetId`].
    gval: Vec<f64>,
    gparent: Vec<(SetId, ActionId)>,
    gstamp: Vec<u32>,
    gepoch: u32,
    /// Sets the current query generated, in generation order.
    generated: Vec<SetId>,
    stats: SlrgStats,
}

impl<'t> Slrg<'t> {
    /// Create an oracle with the given per-query expansion budget.
    pub fn new(task: &'t PlanningTask, plrg: &'t Plrg, budget: usize) -> Self {
        Slrg {
            task,
            plrg,
            budget,
            pool: SetPool::new(),
            cache: Vec::new(),
            hint: Vec::new(),
            gval: Vec::new(),
            gparent: Vec::new(),
            gstamp: Vec::new(),
            gepoch: 0,
            generated: Vec::new(),
            stats: SlrgStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> SlrgStats {
        self.stats
    }

    /// The shared set arena.
    pub fn pool(&self) -> &SetPool {
        &self.pool
    }

    /// Mutable access to the shared set arena (the RG interns and
    /// regresses sets through this).
    pub fn pool_mut(&mut self) -> &mut SetPool {
        &mut self.pool
    }

    /// The memo entry of a set: a query's answer or a path entry, `None`
    /// when neither exists yet. Read-only; it counts no memo hit.
    pub fn memo(&self, id: SetId) -> Option<SetCost> {
        self.cache.get(id.index()).copied().flatten()
    }

    /// The P−g hint of a set: the largest `C − g` an exact query has proved
    /// for it, 0 when none has.
    pub fn hint(&self, id: SetId) -> f64 {
        self.hint.get(id.index()).copied().unwrap_or(0.0)
    }

    /// In-search heuristic: the PLRG max bound, raised to the set's P−g
    /// hint. Both are admissible, but the hint is not consistent: a hinted
    /// set's heuristic can exceed an action's cost plus that of the child
    /// it regresses to. A* still returns the optimum on its first pop of ∅
    /// because it reopens sets: [`Slrg::astar`] re-pushes a set reached on
    /// a cheaper `g`, whether or not it was expanded, and skips the stale
    /// entry.
    fn h(&self, id: SetId) -> f64 {
        self.plrg.set_cost(self.pool.props_of(id)).max(self.hint(id))
    }

    /// Pick the open proposition to branch on: the one with the largest
    /// PLRG bound (most constrained first), ties broken by id for
    /// determinism.
    fn select_prop(&self, id: SetId) -> PropId {
        *self
            .pool
            .props_of(id)
            .iter()
            .max_by(|&&a, &&b| {
                self.plrg.prop_cost(a).partial_cmp(&self.plrg.prop_cost(b)).unwrap().then(a.cmp(&b))
            })
            .expect("non-empty set")
    }

    /// Minimum logical cost of achieving `set` from the initial state
    /// (compatibility wrapper: interns the key and delegates).
    pub fn achievement_cost(&mut self, set: &SetKey) -> SetCost {
        let id = self.pool.intern_sorted(set.props());
        self.achievement_cost_id(id)
    }

    /// Minimum logical cost of achieving an interned set.
    pub fn achievement_cost_id(&mut self, id: SetId) -> SetCost {
        if id == SetId::EMPTY {
            return SetCost { bound: 0.0, exact: true };
        }
        if let Some(Some(c)) = self.cache.get(id.index()) {
            self.stats.cache_hits += 1;
            return *c;
        }
        // fast infeasibility check
        if self.pool.props_of(id).iter().any(|&p| !self.plrg.prop_cost(p).is_finite()) {
            let c = SetCost { bound: f64::INFINITY, exact: true };
            self.cache_put(id, c);
            return c;
        }

        let t = std::time::Instant::now();
        let result = self.astar(id);
        self.stats.time += t.elapsed();
        self.cache_put(id, result);
        result
    }

    fn cache_put(&mut self, id: SetId, c: SetCost) {
        if self.cache.len() <= id.index() {
            self.cache.resize(id.index() + 1, None);
        }
        self.cache[id.index()] = Some(c);
    }

    /// `best_g` lookup for the current query epoch.
    fn bg_get(&self, id: SetId) -> Option<f64> {
        match self.gstamp.get(id.index()) {
            Some(&s) if s == self.gepoch => Some(self.gval[id.index()]),
            _ => None,
        }
    }

    /// `best_g` store for the current query epoch, with the step that
    /// reached it (grows the arrays to the pool's current size on demand).
    fn bg_set(&mut self, id: SetId, g: f64, parent: (SetId, ActionId)) {
        if self.gval.len() <= id.index() {
            let n = self.pool.len().max(id.index() + 1);
            self.gval.resize(n, 0.0);
            self.gparent.resize(n, (SetId::EMPTY, ActionId(0)));
            self.gstamp.resize(n, 0);
        }
        self.gval[id.index()] = g;
        self.gparent[id.index()] = parent;
        self.gstamp[id.index()] = self.gepoch;
    }

    /// Leave an exact answer's work to later queries: a P−g hint on every
    /// set this query generated, and a memo entry on every set of the
    /// solution path (none when `cost` is infinite: there is no path).
    fn share(&mut self, start: SetId, cost: f64) {
        if self.hint.len() < self.pool.len() {
            self.hint.resize(self.pool.len(), 0.0);
        }
        for &n in &self.generated {
            let hint = &mut self.hint[n.index()];
            *hint = hint.max(cost - self.gval[n.index()]);
        }
        if !cost.is_finite() {
            return;
        }
        // the path back from ∅: steps[i] is the set i + 1 steps before ∅
        // and the action regressed from it
        let mut steps = Vec::new();
        let mut cur = SetId::EMPTY;
        while cur != start {
            let step = self.gparent[cur.index()];
            steps.push(step);
            cur = step.0;
        }
        for i in 0..steps.len() {
            // a fresh query from steps[i].0 adds its suffix from the set
            // outward: steps[i].1 first, the action reaching ∅ last
            let bound =
                steps[..=i].iter().rev().fold(0.0, |g, &(_, a)| g + self.task.action(a).cost);
            let set = steps[i].0;
            if self.memo(set).is_none() {
                self.cache_put(set, SetCost { bound, exact: true });
            }
        }
    }

    fn astar(&mut self, start: SetId) -> SetCost {
        // open: (f, counter, g, id) — counter gives FIFO tie-breaking and a
        // total order without comparing keys; g detects stale entries
        let mut open: BinaryHeap<(Reverse<u64>, Reverse<u64>, u64, SetId)> = BinaryHeap::new();
        let mut counter = 0u64;
        self.gepoch = self.gepoch.wrapping_add(1);
        if self.gepoch == 0 {
            // epoch wrapped: old stamps could alias, wipe them once
            self.gstamp.fill(0);
            self.gepoch = 1;
        }

        let h0 = self.h(start);
        open.push((Reverse(h0.to_bits()), Reverse(counter), 0f64.to_bits(), start));
        self.bg_set(start, 0.0, (start, ActionId(0)));
        self.generated.clear();
        self.generated.push(start);
        self.stats.nodes += 1;

        let mut expansions = 0usize;
        while let Some((Reverse(fbits), _, gbits, key)) = open.pop() {
            let f = f64::from_bits(fbits);
            let g = f64::from_bits(gbits);
            match self.bg_get(key) {
                Some(bg) if g <= bg + 1e-12 => {}
                _ => continue, // a cheaper path to this set superseded us
            }
            if key == SetId::EMPTY {
                self.share(start, g);
                return SetCost { bound: g, exact: true };
            }
            expansions += 1;
            if expansions > self.budget {
                self.stats.budget_exhausted += 1;
                // everything left in open is an admissible completion bound
                let lb = f.max(0.0);
                return SetCost { bound: lb, exact: false };
            }

            let target = self.select_prop(key);
            // the achiever slice borrows the task (lifetime 't), not self
            let task = self.task;
            for &a in task.achievers(target) {
                if !self.plrg.usable(a) {
                    continue;
                }
                let act = task.action(a);
                let child = self.pool.regress(key, &act.adds, &act.preconds, |p| task.initially(p));
                let g2 = g + act.cost;
                let hc = self.h(child);
                if !hc.is_finite() {
                    continue;
                }
                match self.bg_get(child) {
                    Some(bg) => {
                        if g2 + 1e-12 < bg {
                            self.bg_set(child, g2, (key, a));
                            counter += 1;
                            open.push((
                                Reverse((g2 + hc).to_bits()),
                                Reverse(counter),
                                g2.to_bits(),
                                child,
                            ));
                        }
                    }
                    None => {
                        self.bg_set(child, g2, (key, a));
                        self.generated.push(child);
                        self.stats.nodes += 1;
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
        // open exhausted without reaching the initial state: no set this
        // query generated reaches it either
        self.share(start, f64::INFINITY);
        SetCost { bound: f64::INFINITY, exact: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_compile::compile;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    fn setup(sc: LevelScenario) -> (PlanningTask, Plrg) {
        let p = scenarios::tiny(sc);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        (task, plrg)
    }

    #[test]
    fn goal_cost_at_least_plrg_bound() {
        let (task, plrg) = setup(LevelScenario::C);
        let mut slrg = Slrg::new(&task, &plrg, 100_000);
        let goal = SetKey::new(task.goal_props.clone());
        let c = slrg.achievement_cost(&goal);
        assert!(c.exact);
        assert!(c.bound >= plrg.set_cost(goal.props()) - 1e-9);
        assert!(c.bound.is_finite());
    }

    #[test]
    fn empty_set_costs_zero() {
        let (task, plrg) = setup(LevelScenario::C);
        let mut slrg = Slrg::new(&task, &plrg, 1000);
        assert_eq!(slrg.achievement_cost(&SetKey::empty()).bound, 0.0);
    }

    #[test]
    fn init_prop_costs_zero() {
        let (task, plrg) = setup(LevelScenario::C);
        let mut slrg = Slrg::new(&task, &plrg, 1000);
        let s = SetKey::new(vec![task.init_props[0]]);
        // an initially-true prop is never open after regression… but as a
        // direct query it terminates immediately at cost 0? No: the start
        // key retains it, so it must be re-achieved or the search notes the
        // set is not empty. Regression semantics drop init props when
        // *generated*; for a direct query the set is satisfied iff the
        // props are init-true — normalize at the caller. Here we verify the
        // oracle at least returns a finite bound.
        let c = slrg.achievement_cost(&s);
        assert!(c.bound >= 0.0);
    }

    #[test]
    fn memoization_hits() {
        let (task, plrg) = setup(LevelScenario::C);
        let mut slrg = Slrg::new(&task, &plrg, 100_000);
        let goal = SetKey::new(task.goal_props.clone());
        let a = slrg.achievement_cost(&goal);
        let before = slrg.stats().cache_hits;
        let b = slrg.achievement_cost(&goal);
        assert_eq!(a, b);
        assert_eq!(slrg.stats().cache_hits, before + 1);
    }

    #[test]
    fn solution_path_sets_hit_the_memo() {
        let (task, plrg) = setup(LevelScenario::C);
        let mut slrg = Slrg::new(&task, &plrg, 100_000);
        let goal = slrg.pool_mut().intern(task.goal_props.clone());
        let c = slrg.achievement_cost_id(goal);
        let path: Vec<SetId> =
            slrg.pool().ids().filter(|&id| id != goal && slrg.memo(id).is_some()).collect();
        assert!(!path.is_empty(), "an exact answer memoizes its solution path");
        let nodes = slrg.stats().nodes;
        for &id in &path {
            let entry = slrg.achievement_cost_id(id);
            assert!(entry.exact && entry.bound <= c.bound);
            assert!(slrg.hint(id) <= entry.bound + 1e-9);
        }
        assert_eq!(slrg.stats().nodes, nodes, "path entries answer without a search");
        assert_eq!(slrg.stats().cache_hits, path.len());
    }

    #[test]
    fn budget_exhaustion_returns_admissible_bound() {
        let (task, plrg) = setup(LevelScenario::E);
        let goal = SetKey::new(task.goal_props.clone());
        let mut tight = Slrg::new(&task, &plrg, 2);
        let lb = tight.achievement_cost(&goal);
        let mut roomy = Slrg::new(&task, &plrg, 1_000_000);
        let exact = roomy.achievement_cost(&goal);
        assert!(exact.exact);
        assert!(
            lb.bound <= exact.bound + 1e-9,
            "budgeted bound {} must stay below exact {}",
            lb.bound,
            exact.bound
        );
    }

    #[test]
    fn unreachable_set_is_infinite() {
        let p = {
            let mut p = scenarios::tiny(LevelScenario::C);
            p.sources.clear();
            p
        };
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 1000);
        let goal = SetKey::new(task.goal_props.clone());
        let c = slrg.achievement_cost(&goal);
        assert!(c.bound.is_infinite());
    }

    #[test]
    fn sequence_costs_exceed_parallel_plrg_estimate() {
        // the paper's 18-vs-19 point: SLRG counts the two crossings in
        // sequence, so a 2-prop set costs at least as much as its PLRG max
        // and — when both props need separate crossings — strictly more
        // than either alone.
        let p = scenarios::tiny(LevelScenario::D);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 1_000_000);
        // find avail(T, n1, ·) and avail(I, n1, ·) props with finite cost
        let mut t_prop = None;
        let mut i_prop = None;
        for (i, pd) in task.props.iter().enumerate() {
            if let sekitei_compile::PropData::Avail { iface, node, level } = pd {
                let name = &p.iface(*iface).name;
                if node.index() == 1 && plrg.value[i].is_finite() && *level >= 1 {
                    let pid = PropId::from_index(i);
                    if name == "T" {
                        t_prop = Some(pid);
                    }
                    if name == "I" {
                        i_prop = Some(pid);
                    }
                }
            }
        }
        let (tp, ip) = (t_prop.unwrap(), i_prop.unwrap());
        let pair = slrg.achievement_cost(&SetKey::new(vec![tp, ip])).bound;
        let t_alone = slrg.achievement_cost(&SetKey::new(vec![tp])).bound;
        let i_alone = slrg.achievement_cost(&SetKey::new(vec![ip])).bound;
        assert!(pair >= t_alone.max(i_alone) - 1e-9);
        assert!(pair > t_alone.min(i_alone) + 1e-9);
    }
}
