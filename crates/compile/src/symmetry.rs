//! Compile-time network-node symmetry detection.
//!
//! Transit-stub WANs are full of interchangeable machines: stub nodes with
//! the same capacities, the same link signature and the same placement
//! possibilities generate search branches that differ only by a renaming
//! of nodes. This module partitions the network nodes of a compiled
//! [`PlanningTask`] into *orbits* — equivalence classes under verified
//! automorphisms of the ground task — so the search can expand a single
//! representative per orbit (`sekitei-planner`, `rg.rs` achiever
//! enumeration).
//!
//! The computation is a two-stage sieve:
//!
//! 1. **Candidate classes** by cheap invariant signature, one round with
//!    no iterated refinement: initial node resource values, the multiset
//!    of incident-link resource values, per-node ground-action mention
//!    counts, and whether the node is pinned by the initial state or the
//!    goal (source/client nodes are never symmetric to anything).
//! 2. **Exact verification**: the members of each candidate class are
//!    chained onto representatives — a member joins the first orbit whose
//!    representative `r` it swaps with, else founds a new one. A
//!    transposition `(r, x)` passes when it is a full automorphism of the
//!    *compiled* task: it maps every ground variable onto one with
//!    bit-identical initial value, fixes the initial and goal proposition
//!    sets, and maps every ground action (kind, preconditions, adds,
//!    numeric conditions/effects, optimistic map, post levels, bitwise
//!    cost) onto an existing ground action. Members that pass no swap stay
//!    singleton orbits.
//!
//! Stage 2 checks a swap `(u, v)` only on the items that *mention* `u` or
//! `v`. An item mentions a node directly (a placement's host, a crossing's
//! endpoints), through a proposition or ground variable it reads or
//! writes, or through the endpoints of a link it names. An item that
//! mentions neither node is its own image, and the image of an item that
//! mentions `u` or `v` mentions `v` or `u`, so the incident items alone
//! decide the swap exactly. Initial and goal propositions mention only
//! pinned nodes, which are never candidates, so every candidate swap fixes
//! both sets. Ground variables are listed per node up front; actions are
//! listed per node once the first swap passes the variable stage, and each
//! swap fingerprints only the actions incident to its two nodes.
//!
//! Verified transpositions against a common representative compose:
//! `(x, y) = (r, x)(r, y)(r, x)`, so every pairwise swap inside an orbit
//! is itself an automorphism — exactly the property the search-side
//! canonicalization rule needs.

use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::codec::Fnv1a;
use sekitei_model::{Cond, Effect, Expr, GVarId, Interval, LinkId, NodeId, PropId};
use std::collections::HashMap;

/// Node equivalence classes of a compiled task. Default = no nodes, every
/// lookup returns an empty sibling list (safe for hand-built tasks that
/// never ran [`node_orbits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeOrbits {
    /// Orbit index per node.
    orbit_of: Vec<u32>,
    /// Orbit members, each sorted ascending.
    members: Vec<Vec<NodeId>>,
}

const NO_SIBLINGS: &[NodeId] = &[];

impl NodeOrbits {
    /// Every node in its own singleton orbit (no exploitable symmetry).
    pub fn trivial(num_nodes: usize) -> NodeOrbits {
        NodeOrbits {
            orbit_of: (0..num_nodes as u32).collect(),
            members: (0..num_nodes).map(|n| vec![NodeId::from_index(n)]).collect(),
        }
    }

    /// Number of network nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.orbit_of.len()
    }

    /// Number of orbits.
    pub fn orbit_count(&self) -> usize {
        self.members.len()
    }

    /// True when at least one orbit has two or more members — the gate
    /// for the search-side symmetry rule.
    pub fn nontrivial(&self) -> bool {
        self.members.iter().any(|m| m.len() > 1)
    }

    /// All members of `n`'s orbit (ascending, includes `n` itself). Nodes
    /// outside the covered range get an empty list.
    pub fn siblings(&self, n: NodeId) -> &[NodeId] {
        match self.orbit_of.get(n.index()) {
            Some(&o) => &self.members[o as usize],
            None => NO_SIBLINGS,
        }
    }

    /// Iterate the orbits (each sorted ascending).
    pub fn orbits(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.members.iter().map(|m| m.as_slice())
    }

    /// The classes of two or more members in the given order (each sorted
    /// ascending, pairwise disjoint), then every other node as its own
    /// singleton, ascending.
    fn from_classes(num_nodes: usize, classes: Vec<Vec<NodeId>>) -> NodeOrbits {
        let mut orbit_of = vec![u32::MAX; num_nodes];
        let mut members: Vec<Vec<NodeId>> = classes.into_iter().filter(|c| c.len() > 1).collect();
        for (o, class) in members.iter().enumerate() {
            for &n in class {
                orbit_of[n.index()] = o as u32;
            }
        }
        for (n, o) in orbit_of.iter_mut().enumerate() {
            if *o == u32::MAX {
                *o = members.len() as u32;
                members.push(vec![NodeId::from_index(n)]);
            }
        }
        NodeOrbits { orbit_of, members }
    }
}

/// Undirected link endpoints, derived from the cross actions (the only
/// ground structures that mention links together with nodes). Links that
/// never appear under a cross action are inert to the task and map to
/// themselves.
struct LinkTable {
    /// Endpoints by link index; `None` for an inert link.
    endpoints: Vec<Option<(NodeId, NodeId)>>,
    by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl LinkTable {
    fn build(task: &PlanningTask) -> LinkTable {
        let mut endpoints = Vec::new();
        let mut by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>> = HashMap::new();
        for act in &task.actions {
            if let ActionKind::Cross { dir, .. } = &act.kind {
                let ends = (dir.from.min(dir.to), dir.from.max(dir.to));
                let l = dir.link.index();
                if l >= endpoints.len() {
                    endpoints.resize(l + 1, None);
                }
                if endpoints[l].replace(ends).is_none() {
                    by_ends.entry(ends).or_default().push(dir.link);
                }
            }
        }
        LinkTable { endpoints, by_ends }
    }

    fn ends(&self, l: LinkId) -> Option<(NodeId, NodeId)> {
        self.endpoints.get(l.index()).copied().flatten()
    }

    /// The nodes `l` mentions: its endpoints, none for an inert link.
    fn push_ends(&self, l: LinkId, out: &mut Vec<NodeId>) {
        if let Some((a, b)) = self.ends(l) {
            out.extend([a, b]);
        }
    }
}

/// The transposition `(u, v)` lifted to every ground id space. With
/// `u == v` this is the identity (used to fingerprint the actions a
/// swap's images are looked up among). Every mapping returns `None` when
/// the image does not exist in the compiled task — which makes the
/// candidate transposition fail verification, never silently mismap.
struct Swap<'t> {
    task: &'t PlanningTask,
    links: &'t LinkTable,
    u: NodeId,
    v: NodeId,
}

impl<'t> Swap<'t> {
    fn node(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            n
        }
    }

    fn link(&self, l: LinkId) -> Option<LinkId> {
        let Some((a, b)) = self.links.ends(l) else {
            return Some(l); // inert link: no action mentions it
        };
        let (ma, mb) = (self.node(a), self.node(b));
        let ends = (ma.min(mb), ma.max(mb));
        if ends == (a, b) {
            return Some(l); // both endpoints fixed (or swapped in place)
        }
        match self.links.by_ends.get(&ends).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            // missing or ambiguous (multigraph): refuse to guess
            _ => None,
        }
    }

    fn prop(&self, p: PropId) -> Option<PropId> {
        let data = match self.task.prop(p) {
            PropData::Placed { comp, node } => PropData::Placed { comp, node: self.node(node) },
            PropData::Avail { iface, node, level } => {
                PropData::Avail { iface, node: self.node(node), level }
            }
        };
        self.task.prop_id(&data)
    }

    fn gvar(&self, g: GVarId) -> Option<GVarId> {
        let data = match self.task.gvars[g.index()] {
            GVarData::IfaceProp { iface, prop, node } => {
                GVarData::IfaceProp { iface, prop, node: self.node(node) }
            }
            GVarData::NodeRes { res, node } => GVarData::NodeRes { res, node: self.node(node) },
            GVarData::LinkRes { res, link } => GVarData::LinkRes { res, link: self.link(link)? },
        };
        self.task.gvar_id(&data)
    }

    fn kind(&self, k: &ActionKind) -> Option<ActionKind> {
        Some(match k {
            ActionKind::Place { comp, node } => {
                ActionKind::Place { comp: *comp, node: self.node(*node) }
            }
            ActionKind::Cross { iface, dir } => ActionKind::Cross {
                iface: *iface,
                dir: sekitei_model::DirLink {
                    link: self.link(dir.link)?,
                    from: self.node(dir.from),
                    to: self.node(dir.to),
                },
            },
        })
    }

    fn hash_expr(&self, e: &Expr<GVarId>, h: &mut Fnv1a) -> Option<()> {
        match e {
            Expr::Const(c) => {
                h.write_u8(0);
                h.write_u64(c.to_bits());
            }
            Expr::Var(v) => {
                h.write_u8(1);
                h.write_u32(self.gvar(*v)?.index() as u32);
            }
            Expr::Add(a, b) => {
                h.write_u8(2);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Sub(a, b) => {
                h.write_u8(3);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Mul(a, b) => {
                h.write_u8(4);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Div(a, b) => {
                h.write_u8(5);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Min(a, b) => {
                h.write_u8(6);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Max(a, b) => {
                h.write_u8(7);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Neg(a) => {
                h.write_u8(8);
                self.hash_expr(a, h)?;
            }
        }
        Some(())
    }

    /// Structural fingerprint of an action's image under the swap.
    /// Prop/var *sets* are hashed in sorted-image order so the fingerprint
    /// is independent of declaration order; condition/effect *lists* keep
    /// their order (compilation emits them in schema order, which is
    /// identical across symmetric groundings).
    fn action_hash(&self, act: &GroundAction) -> Option<u64> {
        let mut h = Fnv1a::new();
        match self.kind(&act.kind)? {
            ActionKind::Place { comp, node } => {
                h.write_u8(0);
                h.write_u32(comp.index() as u32);
                h.write_u32(node.index() as u32);
            }
            ActionKind::Cross { iface, dir } => {
                h.write_u8(1);
                h.write_u32(iface.index() as u32);
                h.write_u32(dir.link.index() as u32);
                h.write_u32(dir.from.index() as u32);
                h.write_u32(dir.to.index() as u32);
            }
        }
        let mut props: Vec<u32> = Vec::with_capacity(act.preconds.len().max(act.adds.len()));
        for group in [&act.preconds, &act.adds] {
            props.clear();
            for &p in group {
                props.push(self.prop(p)?.index() as u32);
            }
            props.sort_unstable();
            h.write_u8(0xb7); // group separator
            for &p in &props {
                h.write_u32(p);
            }
        }
        for c in act.conditions.iter() {
            h.write_u8(0xc0);
            self.hash_expr(&c.lhs, &mut h)?;
            h.write_u8(cmp_tag(c));
            self.hash_expr(&c.rhs, &mut h)?;
        }
        for e in act.effects.iter() {
            h.write_u8(0xe0);
            h.write_u32(self.gvar(e.target)?.index() as u32);
            h.write_u8(assign_tag(e));
            self.hash_expr(&e.value, &mut h)?;
        }
        let mut ivs: Vec<(u32, u64, u64)> = Vec::new();
        for group in [&act.optimistic, &act.post] {
            ivs.clear();
            for &(v, iv) in group.iter() {
                ivs.push((self.gvar(v)?.index() as u32, iv.lo.to_bits(), iv.hi.to_bits()));
            }
            ivs.sort_unstable();
            h.write_u8(0xa0);
            for &(v, lo, hi) in &ivs {
                h.write_u32(v);
                h.write_u64(lo);
                h.write_u64(hi);
            }
        }
        let mut lvls: Vec<(u32, u8)> = Vec::new();
        for &(v, l) in &act.levels {
            lvls.push((self.gvar(v)?.index() as u32, l));
        }
        lvls.sort_unstable();
        for &(v, l) in &lvls {
            h.write_u32(v);
            h.write_u8(l);
        }
        h.write_u64(act.cost.to_bits());
        Some(h.finish())
    }

    /// Exact structural equality of `a`'s image with `b` (collision guard
    /// behind the fingerprint index).
    fn mapped_equals(&self, a: &GroundAction, b: &GroundAction) -> bool {
        match self.kind(&a.kind) {
            Some(k) if k == b.kind => {}
            _ => return false,
        }
        if a.cost.to_bits() != b.cost.to_bits() {
            return false;
        }
        let mut ok = true;
        let mut map_props = |group: &[PropId]| -> Vec<PropId> {
            let mut out: Vec<PropId> = group
                .iter()
                .map(|&p| {
                    self.prop(p).unwrap_or_else(|| {
                        ok = false;
                        p
                    })
                })
                .collect();
            out.sort_unstable();
            out
        };
        let (pre, adds) = (map_props(&a.preconds), map_props(&a.adds));
        if !ok || pre != b.preconds || adds != b.adds {
            return false;
        }
        let mut map_var = |v: &GVarId| {
            self.gvar(*v).unwrap_or_else(|| {
                ok = false;
                *v
            })
        };
        let conds: Vec<Cond<GVarId>> =
            a.conditions.iter().map(|c| c.map_vars(&mut map_var)).collect();
        let effs: Vec<Effect<GVarId>> =
            a.effects.iter().map(|e| e.map_vars(&mut map_var)).collect();
        if !ok || *conds != *b.conditions || *effs != *b.effects {
            return false;
        }
        let sort_ivs = |g: &[(GVarId, Interval)], mapped: bool| -> Option<Vec<(u32, u64, u64)>> {
            let mut out = Vec::with_capacity(g.len());
            for &(v, iv) in g {
                let v = if mapped { self.gvar(v)? } else { v };
                out.push((v.index() as u32, iv.lo.to_bits(), iv.hi.to_bits()));
            }
            out.sort_unstable();
            Some(out)
        };
        match (sort_ivs(&a.optimistic, true), sort_ivs(&b.optimistic, false)) {
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
        match (sort_ivs(&a.post, true), sort_ivs(&b.post, false)) {
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
        let sort_lvls = |g: &[(GVarId, u8)], mapped: bool| -> Option<Vec<(u32, u8)>> {
            let mut out = Vec::with_capacity(g.len());
            for &(v, l) in g {
                let v = if mapped { self.gvar(v)? } else { v };
                out.push((v.index() as u32, l));
            }
            out.sort_unstable();
            Some(out)
        };
        matches!(
            (sort_lvls(&a.levels, true), sort_lvls(&b.levels, false)),
            (Some(x), Some(y)) if x == y
        )
    }
}

fn cmp_tag(c: &Cond<GVarId>) -> u8 {
    use sekitei_model::CmpOp::*;
    match c.op {
        Le => 0,
        Lt => 1,
        Ge => 2,
        Gt => 3,
        Eq => 4,
    }
}

fn assign_tag(e: &Effect<GVarId>) -> u8 {
    use sekitei_model::AssignOp::*;
    match e.op {
        Set => 0,
        Sub => 1,
        Add => 2,
    }
}

/// Stage-1 sieve of [`node_orbits`]: group unpinned nodes by the cheap
/// invariant signature (initial node resources, incident-link resource
/// multiset, ground-action mention counts). Returns the groups; pinned
/// nodes are absent, and a node with a unique signature is a group of one.
fn signature_groups(task: &PlanningTask, num_nodes: usize, links: &LinkTable) -> Vec<Vec<NodeId>> {
    let mut pinned = vec![false; num_nodes];
    for &p in task.init_props.iter().chain(&task.goal_props) {
        if let Some(pin) = pinned.get_mut(prop_node(task, p).index()) {
            *pin = true;
        }
    }

    // per-node initial resource values
    let mut node_res: Vec<Vec<(u16, u64, u64)>> = vec![Vec::new(); num_nodes];
    let mut link_res: HashMap<LinkId, Vec<(u16, u64, u64)>> = HashMap::new();
    for (i, data) in task.gvars.iter().enumerate() {
        let iv = task.init_values[i].map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()));
        match *data {
            GVarData::NodeRes { res, node } if node.index() < num_nodes => {
                let (lo, hi) = iv.unwrap_or((u64::MAX, u64::MAX));
                node_res[node.index()].push((res, lo, hi));
            }
            GVarData::LinkRes { res, link } => {
                let (lo, hi) = iv.unwrap_or((u64::MAX, u64::MAX));
                link_res.entry(link).or_default().push((res, lo, hi));
            }
            _ => {}
        }
    }
    for v in &mut node_res {
        v.sort_unstable();
    }
    let link_sig: HashMap<LinkId, u64> = link_res
        .into_iter()
        .map(|(l, mut v)| {
            v.sort_unstable();
            let mut h = Fnv1a::new();
            for (r, lo, hi) in v {
                h.write_u32(r as u32);
                h.write_u64(lo);
                h.write_u64(hi);
            }
            (l, h.finish())
        })
        .collect();

    // per-node action mention counts + incident link signature multiset
    let mut mentions = vec![(0u32, 0u32, 0u32); num_nodes]; // (place, cross-out, cross-in)
    let mut incident: Vec<Vec<u64>> = vec![Vec::new(); num_nodes];
    for (l, ends) in links.endpoints.iter().enumerate() {
        let Some((a, b)) = *ends else { continue };
        let sig = link_sig.get(&LinkId::from_index(l)).copied().unwrap_or(0);
        if a.index() < num_nodes {
            incident[a.index()].push(sig);
        }
        if b.index() < num_nodes {
            incident[b.index()].push(sig);
        }
    }
    for v in &mut incident {
        v.sort_unstable();
    }
    for act in &task.actions {
        match &act.kind {
            ActionKind::Place { node, .. } if node.index() < num_nodes => {
                mentions[node.index()].0 += 1;
            }
            ActionKind::Cross { dir, .. } => {
                if dir.from.index() < num_nodes {
                    mentions[dir.from.index()].1 += 1;
                }
                if dir.to.index() < num_nodes {
                    mentions[dir.to.index()].2 += 1;
                }
            }
            _ => {}
        }
    }

    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut group_of_sig: HashMap<u64, usize> = HashMap::new();
    for n in 0..num_nodes {
        if pinned[n] {
            continue; // sources/clients/pre-placed hosts stay singleton
        }
        let mut h = Fnv1a::new();
        for &(r, lo, hi) in &node_res[n] {
            h.write_u32(r as u32);
            h.write_u64(lo);
            h.write_u64(hi);
        }
        h.write_u8(0xee);
        for &s in &incident[n] {
            h.write_u64(s);
        }
        h.write_u8(0xef);
        let (p, o, i) = mentions[n];
        h.write_u32(p);
        h.write_u32(o);
        h.write_u32(i);
        let g = *group_of_sig.entry(h.finish()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(NodeId::from_index(n));
    }
    groups
}

/// The node a proposition mentions.
fn prop_node(task: &PlanningTask, p: PropId) -> NodeId {
    match task.prop(p) {
        PropData::Placed { node, .. } | PropData::Avail { node, .. } => node,
    }
}

/// Push the nodes ground variable `g` mentions.
fn push_gvar_nodes(task: &PlanningTask, links: &LinkTable, g: GVarId, out: &mut Vec<NodeId>) {
    match task.gvars[g.index()] {
        GVarData::IfaceProp { node, .. } | GVarData::NodeRes { node, .. } => out.push(node),
        GVarData::LinkRes { link, .. } => links.push_ends(link, out),
    }
}

/// Push every node `act` mentions: in its kind, in its propositions, in
/// the ground variables of its numeric parts, and through link endpoints.
/// The swap maps exactly these fields, so an action that mentions neither
/// swapped node is its own image.
fn push_action_nodes(
    task: &PlanningTask,
    links: &LinkTable,
    act: &GroundAction,
    out: &mut Vec<NodeId>,
) {
    match &act.kind {
        ActionKind::Place { node, .. } => out.push(*node),
        ActionKind::Cross { dir, .. } => {
            out.extend([dir.from, dir.to]);
            links.push_ends(dir.link, out);
        }
    }
    out.extend(act.preconds.iter().chain(&act.adds).map(|&p| prop_node(task, p)));
    let mut var = |g: &GVarId| push_gvar_nodes(task, links, *g, out);
    for c in act.conditions.iter() {
        c.for_each_var(&mut var);
    }
    for e in act.effects.iter() {
        e.for_each_var(&mut var);
    }
    for (g, _) in act.optimistic.iter().chain(&act.post) {
        var(g);
    }
    for (g, _) in &act.levels {
        var(g);
    }
}

/// Item ids (ascending) per network node of every item that mentions the
/// node; `mentions(i, out)` pushes item `i`'s nodes, duplicates allowed.
/// Nodes outside the network are never swapped and are not listed.
fn incidence(
    num_nodes: usize,
    num_items: usize,
    mut mentions: impl FnMut(usize, &mut Vec<NodeId>),
) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); num_nodes];
    let mut nodes = Vec::new();
    for i in 0..num_items {
        nodes.clear();
        mentions(i, &mut nodes);
        for n in &nodes {
            if let Some(list) = lists.get_mut(n.index()) {
                if list.last() != Some(&(i as u32)) {
                    list.push(i as u32);
                }
            }
        }
    }
    lists
}

/// Do ground variables `i` and `j` start from bit-identical values?
fn same_init(task: &PlanningTask, i: usize, j: usize) -> bool {
    match (&task.init_values[i], &task.init_values[j]) {
        (None, None) => true,
        (Some(a), Some(b)) => a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits(),
        _ => false,
    }
}

/// The incident-only transposition check (see the module doc), with its
/// work counters.
struct SwapCheck<'t> {
    task: &'t PlanningTask,
    links: &'t LinkTable,
    /// Ground variables per network node.
    vars: Vec<Vec<u32>>,
    /// Ground actions per node, listed when the first swap passes the
    /// variable stage.
    actions: Option<Vec<Vec<u32>>>,
    swaps_checked: u64,
    actions_checked: u64,
}

impl<'t> SwapCheck<'t> {
    fn new(task: &'t PlanningTask, links: &'t LinkTable, num_nodes: usize) -> SwapCheck<'t> {
        let vars = incidence(num_nodes, task.gvars.len(), |g, out| {
            push_gvar_nodes(task, links, GVarId::from_index(g), out)
        });
        SwapCheck { task, links, vars, actions: None, swaps_checked: 0, actions_checked: 0 }
    }

    /// Is the lifted transposition `(u, v)` a full automorphism of the
    /// task? `u` and `v` are unpinned network nodes.
    fn ok(&mut self, u: NodeId, v: NodeId) -> bool {
        self.swaps_checked += 1;
        let (task, links) = (self.task, self.links);
        let swap = Swap { task, links, u, v };
        // the swap is an involution, so totality plus matching initial
        // values in one direction make it a bijection on the variables
        for &g in self.vars[u.index()].iter().chain(&self.vars[v.index()]) {
            match swap.gvar(GVarId::from_index(g as usize)) {
                Some(h) if same_init(task, g as usize, h.index()) => {}
                _ => return false,
            }
        }
        let num_nodes = self.vars.len();
        let by_node = self.actions.get_or_insert_with(|| {
            incidence(num_nodes, task.actions.len(), |a, out| {
                push_action_nodes(task, links, &task.actions[a], out)
            })
        });
        let mut incident = [&by_node[u.index()][..], &by_node[v.index()][..]].concat();
        incident.sort_unstable();
        incident.dedup();
        self.actions_checked += incident.len() as u64;
        // the image of an incident action is incident, so the incident
        // actions are the only candidates to look images up among
        let identity = Swap { task, links, u, v: u };
        let mut index: HashMap<u64, Vec<u32>> = HashMap::with_capacity(incident.len());
        for &a in &incident {
            if let Some(h) = identity.action_hash(&task.actions[a as usize]) {
                index.entry(h).or_default().push(a);
            }
        }
        incident.iter().all(|&a| {
            let act = &task.actions[a as usize];
            let cands = swap.action_hash(act).and_then(|h| index.get(&h));
            cands.is_some_and(|c| {
                c.iter().any(|&b| swap.mapped_equals(act, &task.actions[b as usize]))
            })
        })
    }
}

/// Chain each candidate group's members onto representatives: a member
/// joins the first orbit whose representative it swaps with per
/// `swap_ok`, else founds a new one. A signature group can hold several
/// genuine orbits (e.g. twin leaves of *different* parents all share one
/// signature).
fn verified_orbits(
    groups: &[Vec<NodeId>],
    num_nodes: usize,
    mut swap_ok: impl FnMut(NodeId, NodeId) -> bool,
) -> NodeOrbits {
    let mut verified = Vec::new();
    for group in groups.iter().filter(|g| g.len() > 1) {
        let mut orbits: Vec<Vec<NodeId>> = Vec::new();
        for &x in group {
            match orbits.iter_mut().find(|orbit| swap_ok(orbit[0], x)) {
                Some(orbit) => orbit.push(x),
                None => orbits.push(vec![x]),
            }
        }
        verified.extend(orbits);
    }
    NodeOrbits::from_classes(num_nodes, verified)
}

/// The outcome of one symmetry pass over a compiled task.
pub(crate) struct Symmetry {
    /// Verified orbits ([`node_orbits`]).
    pub orbits: NodeOrbits,
    /// Candidate transpositions checked.
    pub swaps_checked: u64,
    /// Ground actions fingerprinted, summed over the swaps that reached
    /// the action stage.
    pub actions_checked: u64,
}

/// Run the two-stage sieve once: the signature groups feed the exact
/// verification.
pub(crate) fn detect(task: &PlanningTask, num_nodes: usize) -> Symmetry {
    let links = LinkTable::build(task);
    let groups = signature_groups(task, num_nodes, &links);
    let mut check = SwapCheck::new(task, &links, num_nodes);
    let orbits = verified_orbits(&groups, num_nodes, |u, v| check.ok(u, v));
    Symmetry { orbits, swaps_checked: check.swaps_checked, actions_checked: check.actions_checked }
}

/// Compute the node orbits of a compiled task over a network of
/// `num_nodes` nodes.
pub fn node_orbits(task: &PlanningTask, num_nodes: usize) -> NodeOrbits {
    detect(task, num_nodes).orbits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use sekitei_model::{
        media_domain_with, CmpOp, CppProblem, Goal, LevelScenario, LinkClass, MediaConfig,
        StreamSource,
    };
    use sekitei_topology::generators::{self, Capacities, TransitStubConfig};
    use sekitei_topology::scenarios::{self, RandomMediaConfig, RandomModel};
    use LevelScenario::{A, C, E};

    /// The reference: every candidate swap checked on every ground
    /// variable, every initial and goal proposition and every ground
    /// action, looked up in a fingerprint index of all actions.
    fn transposition_ok(
        task: &PlanningTask,
        swap: &Swap<'_>,
        index: &HashMap<u64, Vec<u32>>,
    ) -> bool {
        for i in 0..task.gvars.len() {
            let Some(j) = swap.gvar(GVarId::from_index(i)) else { return false };
            if !same_init(task, i, j.index()) {
                return false;
            }
        }
        for &p in &task.init_props {
            match swap.prop(p) {
                Some(q) if task.initially(q) => {}
                _ => return false,
            }
        }
        for &p in &task.goal_props {
            match swap.prop(p) {
                Some(q) if task.goal_props.binary_search(&q).is_ok() => {}
                _ => return false,
            }
        }
        for act in &task.actions {
            let Some(h) = swap.action_hash(act) else { return false };
            let Some(cands) = index.get(&h) else { return false };
            if !cands.iter().any(|&c| swap.mapped_equals(act, &task.actions[c as usize])) {
                return false;
            }
        }
        true
    }

    /// Orbits as computed before the incident-only check: a fingerprint
    /// index of every action, the full scan per swap, and the orbits
    /// numbered in push order.
    fn full_scan(task: &PlanningTask, num_nodes: usize) -> NodeOrbits {
        let links = LinkTable::build(task);
        let groups = signature_groups(task, num_nodes, &links);
        let identity = Swap { task, links: &links, u: NodeId(0), v: NodeId(0) };
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, act) in task.actions.iter().enumerate() {
            let h = identity.action_hash(act).expect("the identity maps every action");
            index.entry(h).or_default().push(i as u32);
        }
        let number = |classes: Vec<Vec<NodeId>>| {
            let mut orbit_of = vec![u32::MAX; num_nodes];
            let mut members: Vec<Vec<NodeId>> = Vec::new();
            let singletons = (0..num_nodes).map(|n| vec![NodeId::from_index(n)]);
            for ns in classes.into_iter().chain(singletons) {
                if ns.iter().all(|n| orbit_of[n.index()] == u32::MAX) {
                    for &n in &ns {
                        orbit_of[n.index()] = members.len() as u32;
                    }
                    members.push(ns);
                }
            }
            NodeOrbits { orbit_of, members }
        };
        let mut orbits = Vec::new();
        for group in groups.iter().filter(|g| g.len() >= 2) {
            let mut chained: Vec<Vec<NodeId>> = Vec::new();
            for &x in group {
                let found = chained.iter_mut().find(|orbit| {
                    transposition_ok(task, &Swap { task, links: &links, u: orbit[0], v: x }, &index)
                });
                match found {
                    Some(orbit) => orbit.push(x),
                    None => chained.push(vec![x]),
                }
            }
            orbits.extend(chained.into_iter().filter(|o| o.len() > 1));
        }
        number(orbits)
    }

    /// Compile each problem and compare what `compile` stored with the
    /// full-scan reference; returns the number of verified multi-node
    /// orbits, so a grid can show it exercised passing swaps.
    fn assert_matches_full_scan(problems: impl IntoIterator<Item = (String, CppProblem)>) -> usize {
        let mut merged = 0;
        for (name, p) in problems {
            let task = compile(&p).unwrap();
            let orbits = full_scan(&task, p.network.num_nodes());
            assert_eq!(task.orbits, orbits, "{name}: orbits differ from the full scan");
            merged += orbits.orbits().filter(|o| o.len() > 1).count();
        }
        merged
    }

    /// The Large problem on the transit-stub network of another seed.
    fn transit_stub(seed: u64, sc: LevelScenario) -> CppProblem {
        let ts = generators::transit_stub(&TransitStubConfig { seed, ..Default::default() });
        let mut p = scenarios::large(sc);
        p.sources[0].node = ts.members[0][0][1];
        p.goals[0].node = ts.members[0][1][1];
        p.network = ts.net;
        p
    }

    /// Media delivery over a star: server on the hub `n0`, client on leaf
    /// `n1`, leaves `n2..` interchangeable.
    fn star(leaves: usize, sc: LevelScenario) -> CppProblem {
        let domain = media_domain_with(MediaConfig::default(), sc);
        CppProblem {
            network: generators::star(1 + leaves, LinkClass::Lan, &Capacities::default()),
            resources: domain.resources,
            interfaces: domain.interfaces,
            components: domain.components,
            sources: vec![StreamSource::up_to("M", NodeId(0), "ibw", scenarios::SERVER_CAPACITY)],
            pre_placed: vec![],
            goals: vec![Goal { component: "Client".into(), node: NodeId(1) }],
        }
    }

    #[test]
    fn transit_stub_orbits_match_the_full_scan() {
        let grid = [A, C, E].into_iter().flat_map(|sc| {
            (1..=16).map(move |seed| (format!("ts{seed}/{sc:?}"), transit_stub(seed, sc)))
        });
        assert!(assert_matches_full_scan(grid) > 0, "no transit-stub grid instance has twins");
    }

    #[test]
    fn random_network_orbits_match_the_full_scan() {
        let grid = [A, E].into_iter().flat_map(|sc| {
            (8..=30).flat_map(move |nodes| {
                [RandomModel::Waxman, RandomModel::BarabasiAlbert].map(|model| {
                    let cfg = RandomMediaConfig {
                        model,
                        nodes,
                        scenario: sc,
                        seed: nodes as u64,
                        ..Default::default()
                    };
                    (format!("{model:?}{nodes}/{sc:?}"), scenarios::random_media(&cfg))
                })
            })
        });
        assert_matches_full_scan(grid);
    }

    #[test]
    fn star_orbits_match_the_full_scan() {
        let grid = (3..=8).map(|leaves| (format!("star{leaves}"), star(leaves, C)));
        assert_eq!(assert_matches_full_scan(grid), 6, "every star's free leaves form one orbit");
    }

    #[test]
    fn reading_another_nodes_resource_breaks_its_symmetry() {
        // leaves n2..n6 are interchangeable until one placement on n2 also
        // reads a resource of n3: the action's kind names n2 only, so the
        // swaps that move n3 must find it through the variable it reads
        let p = star(6, C);
        let mut task = compile(&p).unwrap();
        let leaves: Vec<NodeId> = (2..7).map(NodeId).collect();
        assert_eq!(task.orbits.siblings(NodeId(2)), leaves.as_slice());
        let read = task
            .gvars
            .iter()
            .position(|g| matches!(g, GVarData::NodeRes { node: NodeId(3), .. }))
            .expect("n3 has a node resource");
        let reader = task
            .actions
            .iter_mut()
            .find(|a| matches!(a.kind, ActionKind::Place { node: NodeId(2), .. }))
            .expect("n2 hosts a placement");
        // formulas are shared by level variants: give only this action
        // the extra condition
        let mut conditions = reader.conditions.to_vec();
        conditions.push(Cond::new(Expr::var(GVarId::from_index(read)), CmpOp::Ge, Expr::c(0.0)));
        reader.conditions = conditions.into();

        let sym = detect(&task, p.network.num_nodes());
        assert_eq!(sym.orbits.siblings(NodeId(2)), &[NodeId(2)]);
        assert_eq!(sym.orbits.siblings(NodeId(3)), &[NodeId(3)], "the swap moving n3 passed");
        assert_eq!(sym.orbits.siblings(NodeId(5)), &leaves[2..]);
        assert_eq!(sym.orbits, full_scan(&task, p.network.num_nodes()));
    }
}
