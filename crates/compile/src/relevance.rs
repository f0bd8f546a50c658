//! Goal relevance ahead of grounding: the `avail` propositions that can
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
//! The closure needs no ground action. Whether a level variant survives
//! static pruning, and which levels it consumes and produces, depends on
//! its schema and on the capacities of the resources the schema mentions,
//! not on which node or link carries them. So each schema is evaluated
//! once per distinct capacity vector (one or two per schema on the paper's
//! networks) with throwaway variable ids, and the closure runs per node
//! over `avail(iface, node, level)` with those level transitions.

use crate::ground::{CompileError, CrossSchema, PlaceSchema, Scratch};
use crate::task::GVarData;
use sekitei_model::{CompId, CppProblem, DirLink, GVarId, IfaceId, Interval, NodeId};

/// Which `avail` propositions, and so which ground actions, can contribute
/// to a goal.
pub(crate) struct Relevance {
    /// `avail[base[i] + n · levels[i] + l]`: `avail(i, n, l)` is relevant.
    avail: Vec<bool>,
    base: Vec<usize>,
    levels: Vec<usize>,
    degradable: Vec<bool>,
    /// Goal placements.
    goals: Vec<(CompId, NodeId)>,
}

/// One schema's surviving level variants per capacity vector: `at[k]`
/// indexes `tables` for node or link `k` (`None` where the schema has no
/// instance), and each table lists `stride` levels per variant.
struct Transitions {
    at: Vec<Option<usize>>,
    tables: Vec<Vec<usize>>,
    stride: usize,
}

impl Transitions {
    /// Group `sites` by `avail` (the capacity vector a site offers the
    /// schema, `false` where it has no instance) and fill one table per
    /// distinct vector with `eval` on its first site.
    fn build(
        sites: usize,
        stride: usize,
        mut avail: impl FnMut(usize, &mut Vec<Interval>) -> bool,
        mut eval: impl FnMut(usize, &mut Vec<usize>) -> Result<(), CompileError>,
    ) -> Result<Transitions, CompileError> {
        let mut t = Transitions { at: Vec::with_capacity(sites), tables: Vec::new(), stride };
        let mut seen: Vec<Vec<Interval>> = Vec::new();
        let mut caps = Vec::new();
        for site in 0..sites {
            if !avail(site, &mut caps) {
                t.at.push(None);
                continue;
            }
            let k = match seen.iter().position(|c| *c == caps) {
                Some(k) => k,
                None => {
                    let mut table = Vec::new();
                    eval(site, &mut table)?;
                    t.tables.push(table);
                    seen.push(caps.clone());
                    seen.len() - 1
                }
            };
            t.at.push(Some(k));
        }
        Ok(t)
    }

    /// The variants at `site`, `stride` levels each (none listed for a
    /// schema without interfaces, which has no levels to propagate).
    fn at(&self, site: usize) -> impl Iterator<Item = &[usize]> + '_ {
        let table = self.at[site].map_or(&[][..], |k| &self.tables[k][..]);
        table.chunks(self.stride.max(1))
    }
}

/// Throwaway variable ids for evaluating a schema outside the task: equal
/// data get equal ids, as interning gives them.
fn local_vars() -> impl FnMut(GVarData) -> GVarId {
    let mut seen: Vec<GVarData> = Vec::new();
    move |d| {
        let k = seen.iter().position(|&x| x == d).unwrap_or_else(|| {
            seen.push(d);
            seen.len() - 1
        });
        GVarId::from_index(k)
    }
}

impl Relevance {
    /// The backward closure from the goals of `p`, over the level
    /// transitions of its place and cross schemas.
    pub(crate) fn closure(
        p: &CppProblem,
        places: &[PlaceSchema<'_>],
        crosses: &[CrossSchema<'_>],
        s: &mut Scratch,
    ) -> Result<Relevance, CompileError> {
        let net = &p.network;
        let nodes = net.num_nodes();

        // level transitions: per place variant its input then its output
        // levels, per cross variant its input and output level
        let mut place = Vec::with_capacity(places.len());
        for schema in places {
            let stride = schema.req.len() + schema.outs.len();
            let node = NodeId::from_index;
            place.push(Transitions::build(
                nodes,
                stride,
                |n, caps| {
                    let placeable = schema.allows(p, node(n));
                    if placeable {
                        schema.res_avail(p, node(n), caps);
                    }
                    placeable
                },
                |n, table| {
                    let inst = schema.instance(p, node(n), &mut local_vars())?;
                    schema.variants(&inst, s, |v| {
                        table.extend_from_slice(v.in_levels);
                        table.extend_from_slice(v.out_levels);
                    });
                    Ok(())
                },
            )?);
        }
        // one direction per link: both read the same capacities
        let links: Vec<DirLink> = net.directed_links().step_by(2).collect();
        let mut cross = Vec::with_capacity(crosses.len());
        for schema in crosses {
            cross.push(Transitions::build(
                links.len(),
                2,
                |k, caps| {
                    schema.res_avail(p, links[k].link, caps);
                    true
                },
                |k, table| {
                    let inst = schema.instance(p, links[k], &mut local_vars())?;
                    schema.variants(&inst, s, |v| table.extend([v.l_in, v.l_out]));
                    Ok(())
                },
            )?);
        }

        let mut base = Vec::with_capacity(p.interfaces.len());
        let mut levels = Vec::with_capacity(p.interfaces.len());
        let mut size = 0;
        for schema in crosses {
            base.push(size);
            levels.push(schema.levels());
            size += nodes * schema.levels();
        }
        let mut r = Relevance {
            avail: vec![false; size],
            base,
            levels,
            degradable: p.interfaces.iter().map(|i| i.degradable).collect(),
            goals: Vec::with_capacity(p.goals.len()),
        };

        // every variant of a goal placement is relevant
        let mut stack = Vec::new();
        for g in &p.goals {
            let comp = p.comp_id(&g.component).expect("validated");
            r.goals.push((comp, g.node));
            let schema = &places[comp.index()];
            for v in place[comp.index()].at(g.node.index()) {
                for (&i, &l) in schema.req.iter().zip(v) {
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
                for v in cross[i.index()].at(link.index()) {
                    if r.adds(i, v[1], l) {
                        r.mark(i, from, v[0], &mut stack);
                    }
                }
            }
            for &(schema, k) in &producers[i.index()] {
                for v in place[schema.comp.index()].at(node.index()) {
                    if r.adds(i, v[schema.req.len() + k], l) {
                        for (&ri, &li) in schema.req.iter().zip(v) {
                            r.mark(ri, node, li, &mut stack);
                        }
                    }
                }
            }
        }
        Ok(r)
    }

    fn index(&self, i: IfaceId, node: NodeId, level: usize) -> usize {
        self.base[i.index()] + node.index() * self.levels[i.index()] + level
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
