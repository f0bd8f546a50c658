//! Goal relevance ahead of emission: the `avail` propositions that can
//! contribute to a goal, known before any ground action is built.
//!
//! This is the backward half of the PLRG (paper §3.2.1) moved in front of
//! the grounder. A proposition is relevant when it is a goal or a
//! precondition of a relevant action, and an action is relevant when it
//! adds a relevant proposition; [`crate::compile`] builds exactly the
//! relevant actions. Unlike the PLRG the closure ignores forward
//! reachability, so it keeps the PLRG's slice and at most some actions
//! that can never fire, which the PLRG then skips as before.
//!
//! The closure needs no ground action. Which level variants of a schema
//! survive static pruning, and which levels they consume and produce, the
//! grounder has already evaluated once per capacity class of nodes or
//! links (`ground.rs`). The closure reads those same class tables and runs
//! per node over `avail(iface, node, level)`.

use crate::ground::{CrossSchema, PlaceSchema};
use crate::task::NodeBlocks;
use sekitei_model::{CompId, CppProblem, IfaceId, NodeId};

/// Which `avail` propositions, and so which ground actions, can contribute
/// to a goal.
pub(crate) struct Relevance {
    /// `avail[layout.at(i, n, l)]`: `avail(i, n, l)` is relevant.
    avail: Vec<bool>,
    layout: NodeBlocks,
    degradable: Vec<bool>,
    /// Goal placements.
    goals: Vec<(CompId, NodeId)>,
}

impl Relevance {
    /// The backward closure from the goals of `p`, over the level
    /// transitions of its place and cross schemas; `layout` is the shape
    /// of the `avail` propositions.
    pub(crate) fn closure(
        p: &CppProblem,
        places: &[PlaceSchema<'_>],
        crosses: &[CrossSchema<'_>],
        layout: &NodeBlocks,
    ) -> Relevance {
        let net = &p.network;
        let mut r = Relevance {
            avail: vec![false; layout.len()],
            layout: layout.clone(),
            degradable: p.interfaces.iter().map(|i| i.degradable).collect(),
            goals: Vec::with_capacity(p.goals.len()),
        };

        // every variant of a goal placement is relevant
        let mut stack = Vec::new();
        for g in &p.goals {
            let comp = p.comp_id(&g.component).expect("validated");
            r.goals.push((comp, g.node));
            let schema = &places[comp.index()];
            for levels in schema.classes.levels_at(g.node.index()) {
                for (&i, &l) in schema.req.iter().zip(levels) {
                    r.mark(i, g.node, l, &mut stack);
                }
            }
        }
        // then every variant that adds a relevant proposition
        let mut producers: Vec<Vec<(&PlaceSchema<'_>, usize)>> = vec![Vec::new(); crosses.len()];
        for schema in places {
            for (k, &o) in schema.outs.iter().enumerate() {
                producers[o.index()].push((schema, k));
            }
        }
        while let Some((i, node, l)) = stack.pop() {
            for &link in net.incident(node) {
                let from = net.opposite(link, node).expect("incident link");
                for levels in crosses[i.index()].classes.levels_at(link.index()) {
                    if r.adds(i, levels[1], l) {
                        r.mark(i, from, levels[0], &mut stack);
                    }
                }
            }
            for &(schema, k) in &producers[i.index()] {
                for levels in schema.classes.levels_at(node.index()) {
                    if r.adds(i, levels[schema.req.len() + k], l) {
                        for (&ri, &li) in schema.req.iter().zip(levels) {
                            r.mark(ri, node, li, &mut stack);
                        }
                    }
                }
            }
        }
        r
    }

    fn index(&self, i: IfaceId, node: NodeId, level: usize) -> usize {
        self.layout.at(i, node, level)
    }

    fn mark(
        &mut self,
        i: IfaceId,
        node: NodeId,
        level: usize,
        stack: &mut Vec<(IfaceId, NodeId, usize)>,
    ) {
        let k = self.index(i, node, level);
        if !self.avail[k] {
            self.avail[k] = true;
            stack.push((i, node, level));
        }
    }

    /// Whether producing `i` at level `produced` adds `avail(i, ·, level)`:
    /// a degradable stream also adds every level below.
    fn adds(&self, i: IfaceId, produced: usize, level: usize) -> bool {
        if self.degradable[i.index()] {
            level <= produced
        } else {
            level == produced
        }
    }

    /// Whether producing `i` at `level` on `node` adds a relevant
    /// proposition.
    fn useful(&self, i: IfaceId, node: NodeId, level: usize) -> bool {
        (0..=level).any(|l| self.adds(i, level, l) && self.avail[self.index(i, node, l)])
    }

    /// Whether a `place(comp, node)` variant producing `outs` at
    /// `out_levels` is relevant: it places a goal or adds a relevant
    /// proposition.
    pub(crate) fn place(
        &self,
        comp: CompId,
        node: NodeId,
        outs: &[IfaceId],
        out_levels: &[usize],
    ) -> bool {
        self.goals.contains(&(comp, node))
            || outs.iter().zip(out_levels).any(|(&o, &l)| self.useful(o, node, l))
    }

    /// Whether a crossing that delivers `i` to `to` at level `l_out` is
    /// relevant.
    pub(crate) fn cross(&self, i: IfaceId, to: NodeId, l_out: usize) -> bool {
        self.useful(i, to, l_out)
    }
}
