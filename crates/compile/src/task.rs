//! Compiled planning task: ground propositions, ground numeric variables,
//! and leveled ground actions with optimistic resource maps.
//!
//! The compilation (see [`crate::ground`]) turns a validated
//! [`CppProblem`] into the AI-style planning
//! problem of paper §2.2/§3.1: `place(component, node)` and
//! `cross(interface, link)` actions, each instantiated once per feasible
//! combination of resource levels, carrying
//!
//! * propositional preconditions/effects (used by the logical phases),
//! * numeric conditions/effects over ground variables (used by replay),
//! * an *optimistic resource map* — the level intervals the action assumes,
//! * a lower-bound cost evaluated at those intervals.

use sekitei_model::codec::Fnv1a;
use sekitei_model::{
    ActionId, CompId, Cond, CppProblem, DirLink, Effect, GVarId, IfaceId, Interval, LevelIdx,
    LinkId, NodeId, PropId,
};
use std::fmt;
use std::sync::Arc;

/// A ground proposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropData {
    /// Component `comp` is deployed on `node`.
    Placed {
        /// Component.
        comp: CompId,
        /// Host node.
        node: NodeId,
    },
    /// Interface `iface` is available on `node` with its (single leveled)
    /// property in level `level`. Degradable interfaces add downward
    /// closure at the *effect* side, so preconditions match exactly.
    Avail {
        /// Interface.
        iface: IfaceId,
        /// Node where the stream is available.
        node: NodeId,
        /// Property level (for multi-property interfaces, levels of the
        /// lexicographically first leveled property; further properties are
        /// handled numerically).
        level: LevelIdx,
    },
}

/// A ground numeric variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GVarData {
    /// Property `prop` (index into the interface's property list) of
    /// `iface` as materialized on `node`.
    IfaceProp {
        /// Interface.
        iface: IfaceId,
        /// Property index within the interface spec.
        prop: u8,
        /// Node.
        node: NodeId,
    },
    /// Node resource (index into the problem's resource catalog).
    NodeRes {
        /// Catalog index.
        res: u16,
        /// Node.
        node: NodeId,
    },
    /// Link resource.
    LinkRes {
        /// Catalog index.
        res: u16,
        /// Link.
        link: LinkId,
    },
}

/// What a ground action does, semantically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionKind {
    /// Deploy `comp` on `node`.
    Place {
        /// Component.
        comp: CompId,
        /// Host node.
        node: NodeId,
    },
    /// Send stream `iface` across a directed link.
    Cross {
        /// Interface.
        iface: IfaceId,
        /// Directed link traversal.
        dir: DirLink,
    },
}

/// A fully ground, leveled action.
#[derive(Debug, Clone)]
pub struct GroundAction {
    /// Human-readable rendering, e.g. `place(Splitter,n0)[M=1]`.
    pub name: String,
    /// Semantic kind.
    pub kind: ActionKind,
    /// Propositional preconditions (sorted, deduplicated).
    pub preconds: Vec<PropId>,
    /// Propositional add effects (sorted; includes degradable closure).
    pub adds: Vec<PropId>,
    /// Numeric preconditions, over ground variables. Shared (never
    /// copied) by every level variant of one schema instance.
    pub conditions: Arc<[Cond<GVarId>]>,
    /// Numeric effects (all value expressions read the pre-state).
    /// Shared like `conditions`.
    pub effects: Arc<[Effect<GVarId>]>,
    /// Optimistic resource map: interval assumed for each variable the
    /// action *reads or consumes*, from its level assignment (paper §3.1).
    pub optimistic: Vec<(GVarId, Interval)>,
    /// Post-effect constraints: produced variables must land in these
    /// intervals (the action's declared output levels).
    pub post: Vec<(GVarId, Interval)>,
    /// Level assignment, for display/statistics.
    pub levels: Vec<(GVarId, LevelIdx)>,
    /// Lower bound of the user cost formula over the optimistic map.
    pub cost: f64,
}

/// Compilation statistics (feeds Table 2 column 5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Ground actions after leveling and pruning: the full grounding's
    /// count (Table 2 column 5), whether built or not.
    pub actions: usize,
    /// Ground actions built: the goal-relevant slice of `actions`
    /// ([`crate::compile`]), or all of them ([`crate::compile_full`]).
    pub built: usize,
    /// Level combinations discarded by the static pruning procedure.
    pub pruned: usize,
    /// Ground propositions created.
    pub props: usize,
    /// Ground numeric variables created.
    pub gvars: usize,
    /// Compilation wall time, symmetry detection included.
    pub compile_time: std::time::Duration,
}

/// Flattened (CSR) achiever index: one contiguous array of action ids plus
/// per-proposition offsets. Search loops iterate borrowed `&[ActionId]`
/// slices straight out of the arena — no per-proposition `Vec` headers, no
/// pointer chasing, cache-friendly sequential reads.
#[derive(Debug, Clone, Default)]
pub struct AchieverIndex {
    /// All achiever lists back to back, grouped by proposition, each group
    /// in ascending action order.
    flat: Vec<ActionId>,
    /// `offsets[p]..offsets[p+1]` bounds proposition `p`'s group.
    offsets: Vec<u32>,
}

impl AchieverIndex {
    /// Build the index by counting-sort over every action's add list.
    pub fn build(num_props: usize, actions: &[GroundAction]) -> Self {
        let mut offsets = vec![0u32; num_props + 1];
        for a in actions {
            for &p in &a.adds {
                offsets[p.index() + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut flat = vec![ActionId::from_index(0); offsets[num_props] as usize];
        let mut cursor: Vec<u32> = offsets[..num_props].to_vec();
        for (i, a) in actions.iter().enumerate() {
            for &p in &a.adds {
                flat[cursor[p.index()] as usize] = ActionId::from_index(i);
                cursor[p.index()] += 1;
            }
        }
        AchieverIndex { flat, offsets }
    }

    /// Actions adding proposition `p`, in ascending action order.
    pub fn of(&self, p: PropId) -> &[ActionId] {
        &self.flat[self.offsets[p.index()] as usize..self.offsets[p.index() + 1] as usize]
    }

    /// Number of indexed propositions.
    pub fn num_props(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total achiever entries across all propositions.
    pub fn num_entries(&self) -> usize {
        self.flat.len()
    }
}

/// The compiled planning task.
#[derive(Debug, Clone, Default)]
pub struct PlanningTask {
    /// Ground propositions (index = `PropId`).
    pub props: Vec<PropData>,
    /// Human-readable proposition names (parallel to `props`).
    pub prop_names: Vec<String>,
    /// Ground actions (index = `ActionId`).
    pub actions: Vec<GroundAction>,
    /// Ground numeric variables (index = `GVarId`).
    pub gvars: Vec<GVarData>,
    /// Human-readable variable names (parallel to `gvars`).
    pub gvar_names: Vec<String>,
    /// Initially true propositions (sorted).
    pub init_props: Vec<PropId>,
    /// Initial membership bitmap (index = `PropId`).
    pub init_mask: Vec<bool>,
    /// Initial numeric state: `Some(interval)` for variables with a defined
    /// initial value (resource capacities as points, source stream
    /// properties as their producible ranges), `None` otherwise.
    pub init_values: Vec<Option<Interval>>,
    /// Goal propositions (sorted).
    pub goal_props: Vec<PropId>,
    /// Achievers of every proposition, in one flat CSR arena.
    pub achievers: AchieverIndex,
    /// Network-node equivalence classes under verified task automorphisms
    /// (see [`crate::symmetry`]); the search uses them to expand one
    /// placement representative per orbit. Derived data — excluded from
    /// [`PlanningTask::fingerprint`].
    pub orbits: crate::symmetry::NodeOrbits,
    /// Compilation statistics.
    pub stats: CompileStats,
    pub(crate) index: GroundIndex,
}

/// Layout of a table holding `width[i]` slots per node for each interface
/// `i`, interface-major: the shape of `avail(i, n, level)` and of
/// `IfaceProp(i, prop, n)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeBlocks {
    nodes: usize,
    base: Vec<usize>,
    width: Vec<usize>,
}

impl NodeBlocks {
    /// The layout, or `None` when its size overflows.
    fn new(nodes: usize, widths: impl IntoIterator<Item = usize>) -> Option<Self> {
        let width: Vec<usize> = widths.into_iter().collect();
        let mut base = Vec::with_capacity(width.len() + 1);
        let mut len = 0usize;
        base.push(len);
        for w in &width {
            len = len.checked_add(nodes.checked_mul(*w)?)?;
            base.push(len);
        }
        Some(NodeBlocks { nodes, base, width })
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.base.last().copied().unwrap_or(0)
    }

    /// The slot of entry `k` of interface `i` on `node`; `None` outside
    /// the table.
    fn slot(&self, i: IfaceId, node: NodeId, k: usize) -> Option<usize> {
        let width = *self.width.get(i.index())?;
        (node.index() < self.nodes && k < width).then(|| self.at(i, node, k))
    }

    /// The slot of entry `k` of interface `i` on `node`, all three within
    /// the table.
    pub(crate) fn at(&self, i: IfaceId, node: NodeId, k: usize) -> usize {
        debug_assert!(node.index() < self.nodes && k < self.width[i.index()]);
        self.base[i.index()] + node.index() * self.width[i.index()] + k
    }
}

/// Marks a slot no datum has been interned at.
const NONE: u32 = u32::MAX;

/// Most slots a [`GroundIndex`] may hold (64 MiB of ids): far above any
/// problem the planner can ground, and a bound on what a problem read
/// from outside can make it allocate.
pub(crate) const MAX_SLOTS: usize = 1 << 24;

/// Dense id tables of the ground propositions and variables, one slot for
/// every datum the problem's dimensions allow, so a lookup is a
/// range-checked array read. Propositions: `placed` (components × nodes),
/// then `avail` (nodes × levels per interface). Variables: interface
/// properties (nodes × properties per interface), then node resources
/// (catalog × nodes), then link resources (catalog × links).
#[derive(Debug, Clone, Default)]
pub(crate) struct GroundIndex {
    comps: usize,
    nodes: usize,
    links: usize,
    resources: usize,
    avail: NodeBlocks,
    iface_props: NodeBlocks,
    props: Vec<u32>,
    gvars: Vec<u32>,
}

impl GroundIndex {
    /// Empty tables for `p`, whose interfaces carry `levels` levels each;
    /// `None` when they would hold more than [`MAX_SLOTS`] slots.
    pub(crate) fn new(p: &CppProblem, levels: impl IntoIterator<Item = usize>) -> Option<Self> {
        let (comps, nodes, links) =
            (p.components.len(), p.network.num_nodes(), p.network.num_links());
        let resources = p.resources.len();
        let avail = NodeBlocks::new(nodes, levels)?;
        let iface_props = NodeBlocks::new(nodes, p.interfaces.iter().map(|i| i.properties.len()))?;
        let props = comps.checked_mul(nodes)?.checked_add(avail.len())?;
        let gvars =
            resources.checked_mul(nodes.checked_add(links)?)?.checked_add(iface_props.len())?;
        if props.checked_add(gvars)? > MAX_SLOTS {
            return None;
        }
        Some(GroundIndex {
            props: vec![NONE; props],
            gvars: vec![NONE; gvars],
            comps,
            nodes,
            links,
            resources,
            avail,
            iface_props,
        })
    }

    /// The `avail` block layout.
    pub(crate) fn avail(&self) -> &NodeBlocks {
        &self.avail
    }

    fn prop_slot(&self, data: &PropData) -> Option<usize> {
        match *data {
            PropData::Placed { comp, node } => (comp.index() < self.comps
                && node.index() < self.nodes)
                .then(|| comp.index() * self.nodes + node.index()),
            PropData::Avail { iface, node, level } => {
                Some(self.comps * self.nodes + self.avail.slot(iface, node, level as usize)?)
            }
        }
    }

    fn gvar_slot(&self, data: &GVarData) -> Option<usize> {
        let node_res = self.iface_props.len();
        let link_res = node_res + self.resources * self.nodes;
        match *data {
            GVarData::IfaceProp { iface, prop, node } => {
                self.iface_props.slot(iface, node, prop as usize)
            }
            GVarData::NodeRes { res, node } => (usize::from(res) < self.resources
                && node.index() < self.nodes)
                .then(|| node_res + usize::from(res) * self.nodes + node.index()),
            GVarData::LinkRes { res, link } => (usize::from(res) < self.resources
                && link.index() < self.links)
                .then(|| link_res + usize::from(res) * self.links + link.index()),
        }
    }

    fn prop(&self, data: &PropData) -> Option<PropId> {
        let id = *self.props.get(self.prop_slot(data)?)?;
        (id != NONE).then_some(PropId(id))
    }

    fn gvar(&self, data: &GVarData) -> Option<GVarId> {
        let id = *self.gvars.get(self.gvar_slot(data)?)?;
        (id != NONE).then_some(GVarId(id))
    }

    /// The id of `data`, entering `next` for it when it has none yet;
    /// true when it is new. Panics outside the problem's dimensions,
    /// which the grounder never leaves.
    pub(crate) fn intern_prop(&mut self, data: &PropData, next: usize) -> (PropId, bool) {
        let slot = self.prop_slot(data).expect("proposition within the problem's dimensions");
        let (id, new) = enter(&mut self.props[slot], next);
        (PropId(id), new)
    }

    /// The id of `data`, as [`GroundIndex::intern_prop`].
    pub(crate) fn intern_gvar(&mut self, data: &GVarData, next: usize) -> (GVarId, bool) {
        let slot = self.gvar_slot(data).expect("variable within the problem's dimensions");
        let (id, new) = enter(&mut self.gvars[slot], next);
        (GVarId(id), new)
    }
}

/// The id in `entry`, or `next` entered there; true when it is new.
fn enter(entry: &mut u32, next: usize) -> (u32, bool) {
    let new = *entry == NONE;
    if new {
        *entry = u32::try_from(next).expect("fewer ids than `MAX_SLOTS`");
    }
    (*entry, new)
}

impl PlanningTask {
    /// Number of ground actions in the task: the built ones, of the
    /// `stats.actions` the full grounding counts.
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// A structural content fingerprint (FNV-1a over the ground names,
    /// initial state and goals). Compilation is deterministic, so equal
    /// problems compile to equal fingerprints — a cheap identity for
    /// task caches and cross-process sanity checks that doesn't require
    /// hashing the whole struct.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut eat = |bytes: &[u8]| {
            h.write(bytes);
            h.write_u8(0xff); // separator so field boundaries can't alias
        };
        for n in &self.prop_names {
            eat(n.as_bytes());
        }
        for a in &self.actions {
            eat(a.name.as_bytes());
            eat(&a.cost.to_bits().to_le_bytes());
        }
        for n in &self.gvar_names {
            eat(n.as_bytes());
        }
        for p in &self.init_props {
            eat(&(p.index() as u64).to_le_bytes());
        }
        for v in &self.init_values {
            match v {
                None => eat(&[0]),
                Some(iv) => {
                    eat(&iv.lo.to_bits().to_le_bytes());
                    eat(&iv.hi.to_bits().to_le_bytes());
                }
            }
        }
        for p in &self.goal_props {
            eat(&(p.index() as u64).to_le_bytes());
        }
        h.finish()
    }

    /// Number of ground propositions.
    pub fn num_props(&self) -> usize {
        self.props.len()
    }

    /// Action by id.
    pub fn action(&self, a: ActionId) -> &GroundAction {
        &self.actions[a.index()]
    }

    /// Proposition data by id.
    pub fn prop(&self, p: PropId) -> PropData {
        self.props[p.index()]
    }

    /// Proposition id lookup: `None` for a proposition the task does not
    /// have, whatever its components, nodes or levels.
    pub fn prop_id(&self, data: &PropData) -> Option<PropId> {
        self.index.prop(data)
    }

    /// Ground variable id lookup: `None` for a variable the task does not
    /// have, whatever its interfaces, nodes, links or resources.
    pub fn gvar_id(&self, data: &GVarData) -> Option<GVarId> {
        self.index.gvar(data)
    }

    /// True iff `p` holds initially.
    pub fn initially(&self, p: PropId) -> bool {
        self.init_mask[p.index()]
    }

    /// Actions adding proposition `p` (borrowed straight from the CSR
    /// arena, ascending action order).
    pub fn achievers(&self, p: PropId) -> &[ActionId] {
        self.achievers.of(p)
    }

    /// Render a proposition for diagnostics.
    pub fn prop_name(&self, p: PropId) -> &str {
        &self.prop_names[p.index()]
    }

    /// Render a ground variable for diagnostics.
    pub fn gvar_name(&self, v: GVarId) -> &str {
        &self.gvar_names[v.index()]
    }

    /// Iterate all action ids.
    pub fn action_ids(&self) -> impl Iterator<Item = ActionId> + '_ {
        (0..self.actions.len()).map(ActionId::from_index)
    }
}

impl fmt::Display for GroundAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn prop_data_hash_and_eq() {
        let a = PropData::Avail { iface: IfaceId(0), node: NodeId(3), level: 2 };
        let b = PropData::Avail { iface: IfaceId(0), node: NodeId(3), level: 2 };
        let c = PropData::Avail { iface: IfaceId(0), node: NodeId(3), level: 1 };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut m = HashMap::new();
        m.insert(a, PropId(0));
        assert_eq!(m.get(&b), Some(&PropId(0)));
    }

    #[test]
    fn task_defaults_empty() {
        let t = PlanningTask::default();
        assert_eq!(t.num_actions(), 0);
        assert_eq!(t.num_props(), 0);
        assert!(t.prop_id(&PropData::Placed { comp: CompId(0), node: NodeId(0) }).is_none());
    }
}
