//! Search-quality pruning primitives of the RG search: the drain-mode
//! dominance table over interned open sets and the epoch-stamped
//! used-node marker behind orbit symmetry breaking.
//!
//! # Why there is no witness dominance outside drain mode
//!
//! An earlier revision also pruned *before* drain mode, with rich
//! per-set witnesses: an arrival at an already-seen open set was dropped
//! when some stored node reached it with no-larger `g`, a pointwise
//! no-tighter optimistic replay map, and a tail whose action multiset was
//! contained in the arrival's. That rule is sound for interval-level
//! feasibility — every interval-feasible completion of the arrival is an
//! interval-feasible completion of the witness at no greater cost — but
//! terminal acceptance is *not* interval-level: a candidate must replay
//! from the concrete initial state **and** survive greedy-max
//! concretization, which pushes `min(sup(level), availability, caps)`
//! through the plan *in tail order*. Greedy push amounts are neither
//! monotone under removing actions (fewer consumers ⇒ bigger pushes ⇒ a
//! squeezed link can newly overflow) nor invariant under reordering a
//! tail's actions, so a witness can shadow the one tail whose
//! concretization would have succeeded while its own candidates keep
//! getting rejected. This is not theoretical: on the Small/B repair
//! instance (WAN squeezed to 86 %), witness dominance turned a
//! 21,954-node solve into a 20,000-reject exhaustion over a million
//! nodes. Any tail-collapsing rule has this hole — even exact-multiset
//! witnesses differ in order — so dominance is confined to drain mode,
//! where lossiness is already the contract and every no-plan outcome is
//! reported as `budget_exhausted`, never as an unsolvability proof.

use crate::pool::SetId;
use sekitei_compile::{ActionKind, PlanningTask, PropData};
use sekitei_model::{ActionId, NodeId, PropId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper-bound hook for the anytime portfolio: a shared monotone incumbent
/// cost (f64 bits in an atomic, `+∞` when no incumbent exists) published
/// by the stochastic local-search lane and consulted by the RG search at
/// every pop.
///
/// Soundness: A* pops nodes in nondecreasing `f` order, so when the node
/// in hand satisfies `f > incumbent` *strictly*, every plan the remaining
/// search could return costs at least `f` — strictly worse than the
/// already-validated incumbent — and the whole search can stop. A node
/// whose `f` is below (or equal to) the incumbent is never cut, which is
/// exactly the "never prunes a node whose f is below the incumbent"
/// contract. Ties continue searching so an equal-cost exact plan is still
/// found and preferred.
///
/// The cutoff *terminates* the search rather than skipping individual
/// nodes. Termination leaves the explored prefix byte-identical to an
/// unbounded run: only where the trajectory *ends* depends on the
/// incumbent's arrival time, and the planner facade's final-selection
/// rule makes the returned plan and gap invariant to that timing (see
/// `crates/anytime`). A per-node skip would let that timing reorder the
/// rest of the trajectory instead.
#[derive(Clone, Copy)]
pub struct IncumbentBound<'a>(Option<&'a AtomicU64>);

impl<'a> IncumbentBound<'a> {
    /// No incumbent sharing: every query answers "keep searching".
    pub fn none() -> Self {
        IncumbentBound(None)
    }

    /// Bound backed by a shared atomic holding `f64::to_bits` of the best
    /// validated incumbent cost (`f64::INFINITY.to_bits()` initially).
    pub fn shared(cell: &'a AtomicU64) -> Self {
        IncumbentBound(Some(cell))
    }

    /// Current incumbent cost (`+∞` when none).
    pub fn load(&self) -> f64 {
        match self.0 {
            Some(cell) => f64::from_bits(cell.load(Ordering::Relaxed)),
            None => f64::INFINITY,
        }
    }

    /// True when a node popped at `f` proves the remaining search cannot
    /// beat the incumbent (strict comparison — see the type doc).
    pub fn cuts(&self, f: f64) -> bool {
        match self.0 {
            Some(cell) => f > f64::from_bits(cell.load(Ordering::Relaxed)),
            None => false,
        }
    }
}

impl std::fmt::Debug for IncumbentBound<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IncumbentBound({})", self.load())
    }
}

struct DomEntry {
    g: f64,
    node: u32,
}

/// Drain-mode dominance table: g-aware closed-set semantics over interned
/// open sets. An arrival at an already-seen set is a duplicate whenever
/// some entry reached the set with no-larger `g`; with reopening enabled
/// a strictly cheaper arrival evicts every entry it supersedes and the
/// evicted node indices are reported so the search can drop those nodes
/// lazily when popped. This is deliberately lossy — two tails over the
/// same open set can differ in init-grounded validity and in how they
/// concretize (see the module doc) — so the search only engages it after
/// budget pressure proves the exact rules are not converging, and a
/// frontier drained in this mode reports `budget_exhausted` rather than
/// claiming an unsolvability proof.
pub(crate) struct DomTable {
    by_set: HashMap<SetId, Vec<DomEntry>>,
    reopen: bool,
}

impl DomTable {
    pub(crate) fn new(reopen: bool) -> DomTable {
        DomTable { by_set: HashMap::new(), reopen }
    }

    /// Check the arrival `(set, g)` against the table. Returns `true` when
    /// the arrival is a duplicate (caller prunes it). Otherwise the
    /// arrival is recorded under node index `node`, superseded entries are
    /// appended to `evicted`, and `false` is returned. Deterministic:
    /// entries are scanned and retained in insertion order, and nothing
    /// here reads wall-clock or map iteration order.
    pub(crate) fn check_and_insert(
        &mut self,
        set: SetId,
        g: f64,
        node: u32,
        evicted: &mut Vec<u32>,
    ) -> bool {
        let entries = self.by_set.entry(set).or_default();
        if entries.iter().any(|e| e.g <= g) {
            return true;
        }
        if self.reopen {
            // reaching this point implies g < e.g for every entry
            // (otherwise the arrival would be a duplicate), so the
            // strictly better arrival supersedes them all
            entries.retain(|e| {
                if g <= e.g {
                    evicted.push(e.node);
                    false
                } else {
                    true
                }
            });
        }
        entries.push(DomEntry { g, node });
        false
    }
}

/// Epoch-stamped set of network nodes already *used* by the current
/// expansion — mentioned by a parent-tail action or by an open
/// proposition. Symmetry breaking may only swap nodes the partial plan is
/// entirely agnostic about, and this is the agnosticism test.
pub(crate) struct UsedNodes {
    stamp: Vec<u32>,
    epoch: u32,
}

impl UsedNodes {
    pub(crate) fn new(num_nodes: usize) -> UsedNodes {
        UsedNodes { stamp: vec![0; num_nodes], epoch: 0 }
    }

    /// Start marking for a fresh expansion (O(1) reset).
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn mark(&mut self, n: NodeId) {
        if let Some(s) = self.stamp.get_mut(n.index()) {
            *s = self.epoch;
        }
    }

    fn used(&self, n: NodeId) -> bool {
        self.stamp.get(n.index()).is_some_and(|&s| s == self.epoch)
    }

    /// Mark the network nodes an action mentions.
    pub(crate) fn mark_action(&mut self, task: &PlanningTask, a: ActionId) {
        match &task.action(a).kind {
            ActionKind::Place { node, .. } => self.mark(*node),
            ActionKind::Cross { dir, .. } => {
                self.mark(dir.from);
                self.mark(dir.to);
            }
        }
    }

    /// Mark the network node an open proposition lives on.
    pub(crate) fn mark_prop(&mut self, task: &PlanningTask, p: PropId) {
        match task.prop(p) {
            PropData::Placed { node, .. } | PropData::Avail { node, .. } => self.mark(node),
        }
    }

    /// The orbit canonicalization rule: prune achiever `a` when it
    /// introduces a fresh (unused) node `n` that has an orbit sibling
    /// `m < n` which is also unused and not itself mentioned by `a`. The
    /// verified transposition `(m, n)` then maps the partial plan onto
    /// itself and `a` onto an equal-cost achiever of the same proposition
    /// introducing `m` instead — and along the chain of such swaps the
    /// lexicographically minimal representative is never pruned, so an
    /// equal-cost completion always survives. Orbit members share exact
    /// resource profiles and adjacency, so the swapped plan also replays,
    /// validates and greedy-concretizes identically — unlike tail
    /// dominance, symmetry breaking is exact all the way through terminal
    /// acceptance, which is why it alone runs outside drain mode.
    pub(crate) fn shadowed_by_sibling(
        &self,
        task: &PlanningTask,
        orbits: &sekitei_compile::NodeOrbits,
        a: ActionId,
    ) -> bool {
        let mentioned: [Option<NodeId>; 2] = match &task.action(a).kind {
            ActionKind::Place { node, .. } => [Some(*node), None],
            ActionKind::Cross { dir, .. } => [Some(dir.from), Some(dir.to)],
        };
        for n in mentioned.into_iter().flatten() {
            if self.used(n) {
                continue;
            }
            for &m in orbits.siblings(n) {
                if m >= n {
                    break;
                }
                if !self.used(m) && !mentioned.contains(&Some(m)) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SetPool;

    /// Distinct interned set ids for table tests.
    fn sets(n: usize) -> Vec<SetId> {
        let mut pool = SetPool::new();
        (0..n).map(|i| pool.intern(vec![PropId::from_index(i)])).collect()
    }

    #[test]
    fn closes_sets_and_reopens_on_better_g() {
        let s = sets(1)[0];
        let mut t = DomTable::new(true);
        let mut ev = Vec::new();
        // first arrival recorded
        assert!(!t.check_and_insert(s, 5.0, 1, &mut ev));
        // equal g: a duplicate
        assert!(t.check_and_insert(s, 5.0, 2, &mut ev));
        // worse g: a duplicate
        assert!(t.check_and_insert(s, 6.0, 3, &mut ev));
        assert!(ev.is_empty());
        // strictly better g evicts the closed entry and takes its place
        assert!(!t.check_and_insert(s, 4.0, 4, &mut ev));
        assert_eq!(ev, vec![1]);
        // and the new entry now closes its g
        assert!(t.check_and_insert(s, 4.5, 5, &mut ev));
    }

    #[test]
    fn without_reopen_never_evicts() {
        let mut t = DomTable::new(false);
        let s = sets(1)[0];
        let mut ev = Vec::new();
        assert!(!t.check_and_insert(s, 5.0, 1, &mut ev));
        // better g is kept as an additional entry, nothing evicted
        assert!(!t.check_and_insert(s, 4.0, 2, &mut ev));
        assert!(ev.is_empty());
        // both entries retained: an equal-g arrival is a duplicate
        assert!(t.check_and_insert(s, 5.0, 3, &mut ev));
        assert!(t.check_and_insert(s, 4.0, 4, &mut ev));
    }

    #[test]
    fn distinct_sets_do_not_interact() {
        let mut t = DomTable::new(true);
        let ids = sets(2);
        let mut ev = Vec::new();
        assert!(!t.check_and_insert(ids[0], 1.0, 1, &mut ev));
        assert!(!t.check_and_insert(ids[1], 5.0, 2, &mut ev));
        assert!(ev.is_empty());
        // each set closes independently
        assert!(t.check_and_insert(ids[0], 1.0, 3, &mut ev));
        assert!(t.check_and_insert(ids[1], 5.0, 4, &mut ev));
    }

    #[test]
    fn reopening_chain_evicts_every_superseded_entry() {
        let mut t = DomTable::new(true);
        let s = sets(1)[0];
        let mut ev = Vec::new();
        assert!(!t.check_and_insert(s, 9.0, 1, &mut ev));
        assert!(!t.check_and_insert(s, 7.0, 2, &mut ev));
        assert_eq!(ev, vec![1]);
        ev.clear();
        assert!(!t.check_and_insert(s, 3.0, 3, &mut ev));
        assert_eq!(ev, vec![2]);
    }
}
