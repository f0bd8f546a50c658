//! Search-quality pruning primitives of the RG search: the anytime
//! incumbent bound and the epoch-stamped used-node marker behind orbit
//! symmetry breaking.
//!
//! # Why there is no dominance
//!
//! An earlier revision pruned with rich per-set witnesses: an arrival at
//! an already-seen open set was dropped when some stored node reached it
//! with no-larger `g`, a pointwise no-tighter optimistic replay map, and a
//! tail whose action multiset was contained in the arrival's. That rule is
//! sound for interval-level feasibility — every interval-feasible
//! completion of the arrival is an interval-feasible completion of the
//! witness at no greater cost — but terminal acceptance is *not*
//! interval-level: a candidate must replay from the concrete initial state
//! **and** survive greedy-max concretization, which pushes
//! `min(sup(level), availability, caps)` through the plan *in tail order*.
//! Greedy push amounts are neither monotone under removing actions (fewer
//! consumers ⇒ bigger pushes ⇒ a squeezed link can newly overflow) nor
//! invariant under reordering a tail's actions, so a witness can shadow
//! the one tail whose concretization would have succeeded while its own
//! candidates keep getting rejected. This is not theoretical: on the
//! Small/B repair instance (WAN squeezed to 86 %), witness dominance
//! turned a 21,954-node solve into a 20,000-reject exhaustion over a
//! million nodes. Any tail-collapsing rule has this hole — even
//! exact-multiset witnesses differ in order — so the search keeps every
//! replay-feasible tail, and budget-bound searches end on the candidate
//! reject budget ([`crate::RgConfig::max_candidate_rejects`]) instead.

use sekitei_compile::{ActionKind, PlanningTask, PropData};
use sekitei_model::{ActionId, NodeId, PropId};
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
    /// acceptance, which is why it is the one pruning rule the search
    /// runs.
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
