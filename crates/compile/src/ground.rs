//! Grounding and leveling: [`compile`] turns a validated
//! [`CppProblem`] into a [`PlanningTask`].
//!
//! For every component × node (respecting placement restrictions) and every
//! interface × directed link, the compiler enumerates the combinations of
//! resource levels mentioned by the action schema (paper §3.1 "leveled
//! actions"), keeping only combinations that pass the *static pruning
//! procedure*: conditions must be possibly-satisfiable over the level
//! intervals, consumption must possibly fit capacities, and computed output
//! ranges must intersect the declared output levels. Each surviving
//! combination is one ground action carrying its optimistic resource map
//! and a lower-bound cost.
//!
//! Static pruning reads a site (a node for `place`, a link for `cross`)
//! only through the capacities of the resources the schema mentions. So
//! each schema is evaluated once per *capacity class*, the sites whose
//! capacity intervals have the same bit patterns, over its *slots*: its
//! variables numbered by first use, standing in for the site's ground
//! variables. The class's surviving variants, with their optimistic maps,
//! output claims, level assignments, costs and name suffixes, are then
//! emitted at each site of the class by binding the slots to the site's
//! variables. On the paper's networks a schema has one or two classes.
//!
//! [`compile`] builds only the actions that can contribute to a goal: the
//! goal-relevant propositions are computed from the same class tables
//! before emission starts (`relevance.rs`). A variant that adds none of
//! them, nor a goal, is counted and has its propositions interned (one
//! array read each), but is not built. Every proposition and variable
//! therefore keeps the id [`compile_full`] gives it, and the built actions
//! keep their relative order.

use crate::relevance::Relevance;
use crate::task::{
    ActionKind, GVarData, GroundAction, GroundIndex, PlanningTask, PropData, MAX_SLOTS,
};
use sekitei_model::{
    AssignOp, CompId, ComponentSpec, Cond, CppProblem, DirLink, Effect, Expr, GVarId, IfaceId,
    InterfaceSpec, Interval, LevelSpec, LinkId, Locus, ModelError, NodeId, Placement, PropId,
    SpecVar,
};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on level combinations per action schema — a guard against
/// accidentally exponential level products, not a tuning knob.
const MAX_COMBOS: usize = 200_000;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The problem failed structural validation.
    Model(ModelError),
    /// A single action schema produced too many level combinations.
    TooManyCombinations {
        /// Which schema exploded.
        schema: String,
        /// How many combinations it would have produced.
        count: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Model(e) => write!(f, "invalid problem: {e}"),
            CompileError::TooManyCombinations { schema, count } => {
                write!(f, "schema `{schema}` yields {count} level combinations (max {MAX_COMBOS})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ModelError> for CompileError {
    fn from(e: ModelError) -> Self {
        CompileError::Model(e)
    }
}

/// Compile a CPP instance into a leveled planning task, building only the
/// ground actions that can contribute to a goal.
///
/// ```
/// use sekitei_model::LevelScenario;
/// use sekitei_topology::scenarios;
///
/// let problem = scenarios::tiny(LevelScenario::C);
/// let task = sekitei_compile::compile(&problem).unwrap();
/// assert!(task.num_actions() > 0);
/// // leveling multiplied the action schemas (paper Table 2, col 5)
/// let unleveled = sekitei_compile::compile(&scenarios::tiny(LevelScenario::A)).unwrap();
/// assert!(task.stats.actions > unleveled.stats.actions);
/// // and the goal-relevant slice is what got built
/// assert!(task.stats.built == task.num_actions() && task.stats.built < task.stats.actions);
/// ```
pub fn compile(problem: &CppProblem) -> Result<PlanningTask, CompileError> {
    build(problem, true)
}

/// Compile a CPP instance with every ground action, goal-relevant or not:
/// the task whose goal-relevant slice [`compile`] builds, with the same
/// propositions and variables. Failure diagnosis uses it to ask where else
/// a component could be deployed.
pub fn compile_full(problem: &CppProblem) -> Result<PlanningTask, CompileError> {
    build(problem, false)
}

/// Ground `problem`, building only the goal-relevant actions when
/// `slice` is set.
fn build(problem: &CppProblem, slice: bool) -> Result<PlanningTask, CompileError> {
    problem.validate()?;
    let _span = sekitei_obs::span("compile");
    let start = Instant::now();
    let (places, crosses) = {
        let _g = sekitei_obs::span("evaluate");
        let mut scratch = Scratch::default();
        let places = (0..problem.components.len())
            .map(|c| PlaceSchema::new(problem, CompId::from_index(c), &mut scratch))
            .collect::<Result<Vec<_>, _>>()?;
        let crosses = (0..problem.interfaces.len())
            .map(|i| CrossSchema::new(problem, IfaceId::from_index(i), &mut scratch))
            .collect::<Result<Vec<_>, _>>()?;
        (places, crosses)
    };
    let index =
        GroundIndex::new(problem, crosses.iter().map(CrossSchema::levels)).ok_or_else(|| {
            ModelError::Invalid(format!(
                "too large to ground: more than {MAX_SLOTS} proposition and variable slots"
            ))
        })?;
    let relevant = slice.then(|| {
        let _g = sekitei_obs::span("relevance");
        Relevance::closure(problem, &places, &crosses, index.avail())
    });
    let mut ctx = Ctx {
        p: problem,
        task: PlanningTask { index, ..PlanningTask::default() },
        relevant,
        counted: 0,
        pruned: 0,
        bind: Vec::new(),
        pre: Vec::new(),
        adds: Vec::new(),
        name: String::new(),
    };
    {
        let _g = sekitei_obs::span("ground-place");
        for schema in &places {
            ctx.ground_place(schema);
        }
    }
    {
        let _g = sekitei_obs::span("ground-cross");
        for schema in &crosses {
            ctx.ground_cross(schema);
        }
    }
    {
        let _g = sekitei_obs::span("finalize");
        ctx.build_initial_state();
        ctx.build_goals();
        ctx.finalize();
    }
    let symmetry = {
        let _g = sekitei_obs::span("symmetry");
        crate::symmetry::detect(&ctx.task, problem.network.num_nodes())
    };
    ctx.task.orbits = symmetry.orbits;
    ctx.task.stats.compile_time = start.elapsed();
    let evaluated: usize = places.iter().map(|s| s.classes.evaluated()).sum::<usize>()
        + crosses.iter().map(|s| s.classes.evaluated()).sum::<usize>();
    sekitei_obs::event("ground_actions", ctx.task.stats.actions as u64);
    sekitei_obs::event("level_combos_evaluated", evaluated as u64);
    sekitei_obs::event("level_combos_pruned", ctx.pruned as u64);
    sekitei_obs::event(
        "symmetry_orbits",
        ctx.task.orbits.orbits().filter(|m| m.len() > 1).count() as u64,
    );
    sekitei_obs::event("symmetry_swaps_checked", symmetry.swaps_checked);
    sekitei_obs::event("symmetry_actions_checked", symmetry.actions_checked);
    Ok(ctx.task)
}

/// Iterate the cartesian product of `dims[i]` choices per slot.
fn for_each_combo(dims: &[usize], mut f: impl FnMut(&[usize])) {
    if dims.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        f(&idx);
        if !advance(&mut idx, |k| 0..dims[k]) {
            return;
        }
    }
}

/// Step `idx` to the next combination, last slot fastest, slot `k`
/// ranging over `range(k)`; false after the last one.
fn advance(idx: &mut [usize], range: impl Fn(usize) -> Range<usize>) -> bool {
    for k in (0..idx.len()).rev() {
        let r = range(k);
        idx[k] += 1;
        if idx[k] < r.end {
            return true;
        }
        idx[k] = r.start;
    }
    false
}

fn combo_count(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Refuse a schema with more than [`MAX_COMBOS`] level combinations,
/// naming it at its first site, if it has one.
fn guard(dims: &[usize], first_site: Option<String>) -> Result<(), CompileError> {
    let count = combo_count(dims);
    match first_site {
        Some(schema) if count > MAX_COMBOS => {
            Err(CompileError::TooManyCombinations { schema, count })
        }
        _ => Ok(()),
    }
}

/// Values a resource with capacity `cap` may hold: a consumable resource
/// may have been drained to anything below its capacity, a static
/// property has exactly its declared value.
fn available(consumable: bool, cap: f64) -> Interval {
    if consumable {
        Interval::new(0.0, cap)
    } else {
        Interval::point(cap)
    }
}

/// The interval bound to `v` in a binding list, the last binding winning
/// (as if the list were inserted into a map in order); unbound variables
/// are only known to be non-negative.
fn lookup(bindings: &[(GVarId, Interval)], v: GVarId) -> Interval {
    bindings.iter().rev().find(|b| b.0 == v).map_or_else(Interval::nonneg, |b| b.1)
}

fn res_index(p: &CppProblem, name: &str, locus: Locus) -> u16 {
    p.resources.iter().position(|r| r.name == name && r.locus == locus).expect("validated resource")
        as u16
}

/// Level spec of an interface's primary (first) property; trivial when
/// the interface has no properties.
fn primary_levels(p: &CppProblem, iface: IfaceId) -> LevelSpec {
    let spec = p.iface(iface);
    match spec.properties.first() {
        Some(prop) => spec.levels_of(prop),
        None => LevelSpec::trivial(),
    }
}

// ------------------------------------------------------------------ slots

/// A schema variable before a site binds it to a ground variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotVar {
    /// Property `prop` of `iface` on the placement's node, or on a
    /// crossing's sending (`to: false`) or receiving node.
    Iface { iface: IfaceId, prop: u8, to: bool },
    /// A resource of the placement's node.
    Node(u16),
    /// A resource of the crossed link.
    Link(u16),
}

/// Where a schema instance sits.
#[derive(Debug, Clone, Copy)]
enum Site {
    Node(NodeId),
    Dir(DirLink),
}

impl SlotVar {
    /// The ground variable this slot is at `site`. Distinct slots are
    /// distinct variables at every site (a link joins two distinct
    /// nodes), so a variant evaluated over slots is the variant evaluated
    /// over any site's variables.
    fn at(self, site: Site) -> GVarData {
        match (self, site) {
            (SlotVar::Iface { iface, prop, .. }, Site::Node(node)) => {
                GVarData::IfaceProp { iface, prop, node }
            }
            (SlotVar::Iface { iface, prop, to }, Site::Dir(d)) => {
                GVarData::IfaceProp { iface, prop, node: if to { d.to } else { d.from } }
            }
            (SlotVar::Node(res), Site::Node(node)) => GVarData::NodeRes { res, node },
            (SlotVar::Link(res), Site::Dir(d)) => GVarData::LinkRes { res, link: d.link },
            _ => unreachable!("validated: node resources in place, link resources in cross"),
        }
    }
}

/// A schema's slots, numbered in the order the schema first uses them —
/// formulas (conditions, effects, cost), then the level variables — which
/// is the order a site interns their ground variables in.
#[derive(Default)]
struct Slots(Vec<SlotVar>);

impl Slots {
    fn of(&mut self, v: SlotVar) -> GVarId {
        let k = self.0.iter().position(|&s| s == v).unwrap_or_else(|| {
            self.0.push(v);
            self.0.len() - 1
        });
        GVarId::from_index(k)
    }

    /// The slot of `iface`'s primary property, if it has one.
    fn primary(&mut self, p: &CppProblem, iface: IfaceId, to: bool) -> Option<GVarId> {
        (!p.iface(iface).properties.is_empty())
            .then(|| self.of(SlotVar::Iface { iface, prop: 0, to }))
    }
}

/// The index of property `prop` of `iface`.
fn prop_index(p: &CppProblem, iface: IfaceId, prop: &str) -> u8 {
    p.iface(iface).properties.iter().position(|n| n == prop).expect("validated property") as u8
}

/// A schema's slots and its numeric formulas over them (a slot's number
/// stands in for a `GVarId`).
struct Formulas {
    slots: Vec<SlotVar>,
    conditions: Vec<Cond<GVarId>>,
    effects: Vec<Effect<GVarId>>,
    cost: Expr<GVarId>,
}

/// A site's ground conditions and effects, shared by every level variant
/// built there.
type Ground = (Arc<[Cond<GVarId>]>, Arc<[Effect<GVarId>]>);

impl Formulas {
    /// The conditions and effects at a site whose slot `k` is `bind[k]`.
    fn ground(&self, bind: &[GVarId]) -> Ground {
        let mut at = |s: &GVarId| bind[s.index()];
        (
            self.conditions.iter().map(|c| c.map_vars(&mut at)).collect(),
            self.effects.iter().map(|e| e.map_vars(&mut at)).collect(),
        )
    }
}

// ------------------------------------------------------- capacity classes

/// Per-combination evaluation scratch, reused by every class evaluation.
#[derive(Default)]
struct Scratch {
    optimistic: Vec<(GVarId, Interval)>,
    assigned: Vec<(GVarId, u8)>,
    produced: Vec<(GVarId, Interval)>,
    full: Vec<(GVarId, Interval)>,
    out_ranges: Vec<Range<usize>>,
    out_levels: Vec<usize>,
}

/// One capacity class's level variants that survive static pruning, in
/// emission order and over the schema's slots: all a site needs to emit
/// them but its variable ids and its name. Stored flat; variant `k` owns
/// `stride` entries of `levels` and runs to `ends[k]` in the other lists.
#[derive(Default)]
struct Variants {
    stride: usize,
    levels: Vec<usize>,
    optimistic: Vec<(GVarId, Interval)>,
    post: Vec<(GVarId, Interval)>,
    assigned: Vec<(GVarId, u8)>,
    names: String,
    ends: Vec<Ends>,
    /// Level combinations evaluated.
    evaluated: usize,
    /// Level combinations static pruning discarded.
    pruned: usize,
}

/// Where one variant's lists end, and its cost.
#[derive(Clone, Copy, Default)]
struct Ends {
    optimistic: usize,
    post: usize,
    assigned: usize,
    name: usize,
    cost: f64,
}

/// A surviving level variant, borrowed from its class's [`Variants`].
struct Variant<'a> {
    /// Interface levels: a placement's inputs then outputs, or a
    /// crossing's stream on the sending then on the receiving node.
    levels: &'a [usize],
    /// Optimistic resource map.
    optimistic: &'a [(GVarId, Interval)],
    /// Output claims.
    post: &'a [(GVarId, Interval)],
    /// Level assignment.
    assigned: &'a [(GVarId, u8)],
    /// Name suffix: the non-trivial levels in brackets, or nothing.
    name: &'a str,
    /// Lower-bound cost.
    cost: f64,
}

impl Variants {
    fn new(stride: usize) -> Self {
        Variants { stride, ..Variants::default() }
    }

    /// Close the variant whose entries were pushed last.
    fn close(&mut self, cost: f64) {
        self.ends.push(Ends {
            optimistic: self.optimistic.len(),
            post: self.post.len(),
            assigned: self.assigned.len(),
            name: self.names.len(),
            cost,
        });
    }

    fn iter(&self) -> impl Iterator<Item = Variant<'_>> {
        let starts = std::iter::once(Ends::default()).chain(self.ends.iter().copied());
        starts.zip(&self.ends).enumerate().map(move |(k, (s, e))| Variant {
            levels: &self.levels[k * self.stride..(k + 1) * self.stride],
            optimistic: &self.optimistic[s.optimistic..e.optimistic],
            post: &self.post[s.post..e.post],
            assigned: &self.assigned[s.assigned..e.assigned],
            name: &self.names[s.name..e.name],
            cost: e.cost,
        })
    }
}

/// A schema's variants per capacity class. Sites (nodes for a placement,
/// links for a crossing, whose two directions read the same capacities)
/// whose capacity intervals have the same bit patterns share one
/// evaluation; the bit patterns, not `==`, so 0.0 and −0.0 stay apart.
#[derive(Default)]
pub(crate) struct Classes {
    /// The class of each site; `None` where the schema has no instance.
    at: Vec<Option<usize>>,
    classes: Vec<Variants>,
}

impl Classes {
    /// Group `sites` by the capacities `caps` reports (`false` where the
    /// site has no instance), evaluating each new class with `eval`.
    fn build(
        sites: usize,
        mut caps: impl FnMut(usize, &mut Vec<Interval>) -> bool,
        mut eval: impl FnMut(&[Interval]) -> Variants,
    ) -> Classes {
        let mut by_bits: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let (mut avail, mut bits) = (Vec::new(), Vec::new());
        let mut c = Classes { at: Vec::with_capacity(sites), classes: Vec::new() };
        for site in 0..sites {
            if !caps(site, &mut avail) {
                c.at.push(None);
                continue;
            }
            bits.clear();
            bits.extend(avail.iter().flat_map(|iv| [iv.lo.to_bits(), iv.hi.to_bits()]));
            let k = match by_bits.get(bits.as_slice()) {
                Some(&k) => k,
                None => {
                    by_bits.insert(bits.clone(), c.classes.len());
                    c.classes.push(eval(&avail));
                    c.classes.len() - 1
                }
            };
            c.at.push(Some(k));
        }
        c
    }

    /// The variants at `site`; none where the schema has no instance.
    fn at(&self, site: usize) -> Option<&Variants> {
        self.at[site].map(|k| &self.classes[k])
    }

    /// The interface levels of each variant at `site` (none listed for a
    /// schema without interfaces, which has no levels to propagate).
    pub(crate) fn levels_at(&self, site: usize) -> std::slice::Chunks<'_, usize> {
        let (levels, stride) = self.at(site).map_or((&[][..], 1), |v| (&v.levels[..], v.stride));
        levels.chunks(stride.max(1))
    }

    /// Level combinations evaluated, over every class.
    fn evaluated(&self) -> usize {
        self.classes.iter().map(|v| v.evaluated).sum()
    }
}

// ---------------------------------------------------------- place schemas

/// What every `place(comp, ·)` instance shares: the component's interfaces,
/// the node resources its formulas mention, their level specs, its
/// formulas over slots, and its variants per capacity class.
pub(crate) struct PlaceSchema<'p> {
    comp: CompId,
    spec: &'p ComponentSpec,
    /// Required interfaces, in declaration order.
    pub(crate) req: Vec<IfaceId>,
    /// Implemented interfaces, in declaration order.
    pub(crate) outs: Vec<IfaceId>,
    node_res: Vec<u16>,
    in_specs: Vec<LevelSpec>,
    res_specs: Vec<&'p LevelSpec>,
    out_specs: Vec<LevelSpec>,
    dims: Vec<usize>,
    formulas: Formulas,
    in_slots: Vec<Option<GVarId>>,
    res_slots: Vec<GVarId>,
    out_slots: Vec<Option<GVarId>>,
    /// Surviving variants per node capacity class.
    pub(crate) classes: Classes,
}

impl<'p> PlaceSchema<'p> {
    /// The schema of `comp`, evaluated once per capacity class.
    fn new(p: &'p CppProblem, comp: CompId, s: &mut Scratch) -> Result<Self, CompileError> {
        let spec = p.component(comp);
        let iface = |n: &String| p.iface_id(n).expect("validated");
        let req: Vec<IfaceId> = spec.requires.iter().map(iface).collect();
        let outs: Vec<IfaceId> = spec.implements.iter().map(iface).collect();
        // node resources mentioned anywhere in the schema's formulas
        let mut node_res: Vec<u16> = Vec::new();
        let mut collect = |v: &SpecVar| {
            if let SpecVar::Node { res } = v {
                let idx = res_index(p, res, Locus::Node);
                if !node_res.contains(&idx) {
                    node_res.push(idx);
                }
            }
        };
        for c in &spec.conditions {
            c.for_each_var(&mut collect);
        }
        for e in &spec.effects {
            e.for_each_var(&mut collect);
        }
        spec.cost.for_each_var(&mut collect);
        let in_specs: Vec<LevelSpec> = req.iter().map(|&r| primary_levels(p, r)).collect();
        let res_specs: Vec<&LevelSpec> =
            node_res.iter().map(|&r| &p.resources[r as usize].levels).collect();
        let dims = in_specs
            .iter()
            .map(LevelSpec::num_levels)
            .chain(res_specs.iter().map(|s| s.num_levels()))
            .collect();

        let mut slots = Slots::default();
        let mut gv = |v: &SpecVar| match v {
            SpecVar::Iface { iface, prop } => {
                let iface = p.iface_id(iface).expect("validated");
                slots.of(SlotVar::Iface { iface, prop: prop_index(p, iface, prop), to: false })
            }
            SpecVar::Node { res } => slots.of(SlotVar::Node(res_index(p, res, Locus::Node))),
            SpecVar::Link { .. } => unreachable!("validated: no link vars in place formulas"),
        };
        let conditions = spec.conditions.iter().map(|c| c.map_vars(&mut gv)).collect();
        let effects = spec.effects.iter().map(|e| e.map_vars(&mut gv)).collect();
        let cost = spec.cost.map_vars(&mut gv);
        let in_slots = req.iter().map(|&r| slots.primary(p, r, false)).collect();
        let res_slots = node_res.iter().map(|&r| slots.of(SlotVar::Node(r))).collect();
        let out_slots = outs.iter().map(|&o| slots.primary(p, o, false)).collect();
        let formulas = Formulas { slots: slots.0, conditions, effects, cost };

        let mut schema = PlaceSchema {
            comp,
            spec,
            out_specs: outs.iter().map(|&o| primary_levels(p, o)).collect(),
            req,
            outs,
            node_res,
            in_specs,
            res_specs,
            dims,
            formulas,
            in_slots,
            res_slots,
            out_slots,
            classes: Classes::default(),
        };
        let first = p.network.node_ids().find(|&n| schema.allows(p, n));
        guard(
            &schema.dims,
            first.map(|n| format!("place({},{})", spec.name, p.network.node(n).name)),
        )?;
        let nodes = p.network.num_nodes();
        let classes = Classes::build(
            nodes,
            |n, caps| {
                let node = NodeId::from_index(n);
                let placeable = schema.allows(p, node);
                if placeable {
                    schema.res_avail(p, node, caps);
                }
                placeable
            },
            |caps| schema.evaluate(p, caps, s),
        );
        schema.classes = classes;
        Ok(schema)
    }

    /// Whether the component may be placed on `node`.
    fn allows(&self, p: &CppProblem, node: NodeId) -> bool {
        match &self.spec.placement {
            Placement::Anywhere => true,
            Placement::Only(names) => names.contains(&p.network.node(node).name),
        }
    }

    /// Values the mentioned node resources may hold on `node` — the only
    /// thing a variant's evaluation reads from the node.
    fn res_avail(&self, p: &CppProblem, node: NodeId, out: &mut Vec<Interval>) {
        out.clear();
        out.extend(self.node_res.iter().map(|&r| {
            let res = &p.resources[r as usize];
            available(res.consumable, p.network.node_capacity(node, &res.name))
        }));
    }

    /// Evaluate every level combination against the static pruning
    /// procedure on nodes whose mentioned resources may hold `avail`.
    fn evaluate(&self, p: &CppProblem, avail: &[Interval], s: &mut Scratch) -> Variants {
        let Scratch { optimistic, assigned, produced, full, out_ranges, out_levels } = s;
        let mut vs = Variants::new(self.req.len() + self.outs.len());
        for_each_combo(&self.dims, |combo| {
            vs.evaluated += 1;
            let (in_levels, res_levels) = combo.split_at(self.in_specs.len());

            // optimistic map for this level assignment
            optimistic.clear();
            assigned.clear();
            for (k, &l) in in_levels.iter().enumerate() {
                if let Some(v) = self.in_slots[k] {
                    optimistic.push((v, self.in_specs[k].requirement(l)));
                    assigned.push((v, l as u8));
                }
            }
            for (k, &l) in res_levels.iter().enumerate() {
                let iv = self.res_specs[k].requirement(l).intersect(&avail[k]);
                if iv.is_empty() {
                    vs.pruned += 1;
                    return;
                }
                optimistic.push((self.res_slots[k], iv));
                if !self.res_specs[k].is_trivial() {
                    assigned.push((self.res_slots[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(optimistic, *v);
            if !self.formulas.conditions.iter().all(|c| c.possibly(&mut env)) {
                vs.pruned += 1;
                return;
            }

            // evaluate effects against the pre-state
            produced.clear();
            for eff in &self.formulas.effects {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => produced.push((eff.target, val)),
                    AssignOp::Sub => {
                        if lookup(optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            vs.pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            // output levels from the computed ranges
            out_ranges.clear();
            for (k, ov) in self.out_slots.iter().enumerate() {
                let range = match ov {
                    Some(v) => self.out_specs[k].intersecting_half_open(&lookup(produced, *v)),
                    None => 0..1,
                };
                if range.is_empty() {
                    vs.pruned += 1;
                    return;
                }
                out_ranges.push(range);
            }
            out_levels.clear();
            out_levels.extend(out_ranges.iter().map(|r| r.start));
            loop {
                vs.levels.extend_from_slice(in_levels);
                vs.levels.extend_from_slice(out_levels);
                vs.optimistic.extend_from_slice(optimistic);
                vs.assigned.extend_from_slice(assigned);
                // full map including produced outputs, for the cost bound
                full.clear();
                full.extend_from_slice(optimistic);
                for (k, ov) in self.out_slots.iter().enumerate() {
                    if let Some(var) = *ov {
                        let claimed = self.out_specs[k].requirement(out_levels[k]);
                        full.push((var, lookup(produced, var).intersect(&claimed)));
                        vs.post.push((var, claimed));
                        vs.assigned.push((var, out_levels[k] as u8));
                    }
                }
                let cost = self.formulas.cost.eval_interval(&mut |x| lookup(full, *x)).lo.max(0.0);

                let name = &mut vs.names;
                let mut sep = '[';
                for (k, &l) in in_levels.iter().enumerate() {
                    if !self.in_specs[k].is_trivial() {
                        let _ = write!(name, "{sep}{}={l}", p.iface(self.req[k]).name);
                        sep = ',';
                    }
                }
                for (k, &o) in self.outs.iter().enumerate() {
                    if !self.out_specs[k].is_trivial() {
                        let _ = write!(name, "{sep}→{}={}", p.iface(o).name, out_levels[k]);
                        sep = ',';
                    }
                }
                if sep == ',' {
                    name.push(']');
                }
                vs.close(cost);
                if !advance(out_levels, |k| out_ranges[k].clone()) {
                    break;
                }
            }
        });
        vs
    }
}

// ---------------------------------------------------------- cross schemas

/// What every `cross(iface, ·)` instance shares: the link resources its
/// formulas mention, the level specs, its formulas over slots, and its
/// variants per capacity class.
pub(crate) struct CrossSchema<'p> {
    iface: IfaceId,
    spec: &'p InterfaceSpec,
    link_res: Vec<u16>,
    level_spec: LevelSpec,
    res_specs: Vec<&'p LevelSpec>,
    dims: Vec<usize>,
    formulas: Formulas,
    in_slot: Option<GVarId>,
    out_slot: Option<GVarId>,
    res_slots: Vec<GVarId>,
    /// Surviving variants per link capacity class.
    pub(crate) classes: Classes,
}

impl<'p> CrossSchema<'p> {
    /// The schema of `iface`, evaluated once per capacity class.
    fn new(p: &'p CppProblem, iface: IfaceId, s: &mut Scratch) -> Result<Self, CompileError> {
        let spec = p.iface(iface);
        // link resources mentioned in cross formulas
        let mut link_res: Vec<u16> = Vec::new();
        let mut collect = |v: &SpecVar| {
            if let SpecVar::Link { res } = v {
                let idx = res_index(p, res, Locus::Link);
                if !link_res.contains(&idx) {
                    link_res.push(idx);
                }
            }
        };
        for c in &spec.cross_conditions {
            c.for_each_var(&mut collect);
        }
        for e in &spec.cross_effects {
            e.for_each_var(&mut collect);
        }
        spec.cross_cost.for_each_var(&mut collect);
        let level_spec = primary_levels(p, iface);
        let res_specs: Vec<&LevelSpec> =
            link_res.iter().map(|&r| &p.resources[r as usize].levels).collect();
        let dims = std::iter::once(level_spec.num_levels())
            .chain(res_specs.iter().map(|s| s.num_levels()))
            .collect();

        // readers reference the sending side; effect targets on the
        // interface reference the receiving side (the stream after
        // crossing); link-resource targets are consumed in place
        let mut slots = Slots::default();
        let mut gv = |v: &SpecVar, to: bool| match v {
            SpecVar::Iface { prop, .. } => {
                slots.of(SlotVar::Iface { iface, prop: prop_index(p, iface, prop), to })
            }
            SpecVar::Link { res } => slots.of(SlotVar::Link(res_index(p, res, Locus::Link))),
            SpecVar::Node { .. } => unreachable!("validated: no node vars in cross formulas"),
        };
        let conditions =
            spec.cross_conditions.iter().map(|c| c.map_vars(&mut |v| gv(v, false))).collect();
        let effects = spec
            .cross_effects
            .iter()
            .map(|e| {
                let value = e.value.map_vars(&mut |v| gv(v, false));
                let target = gv(&e.target, matches!(e.target, SpecVar::Iface { .. }));
                Effect { target, op: e.op, value }
            })
            .collect();
        let cost = spec.cross_cost.map_vars(&mut |v| gv(v, false));
        let in_slot = slots.primary(p, iface, false);
        let out_slot = slots.primary(p, iface, true);
        let res_slots = link_res.iter().map(|&r| slots.of(SlotVar::Link(r))).collect();
        let formulas = Formulas { slots: slots.0, conditions, effects, cost };

        let mut schema = CrossSchema {
            iface,
            spec,
            link_res,
            level_spec,
            res_specs,
            dims,
            formulas,
            in_slot,
            out_slot,
            res_slots,
            classes: Classes::default(),
        };
        let first = p.network.directed_links().next();
        guard(&schema.dims, first.map(|dir| format!("cross({},{dir})", spec.name)))?;
        let classes = Classes::build(
            p.network.num_links(),
            |l, caps| {
                schema.res_avail(p, LinkId::from_index(l), caps);
                true
            },
            |caps| schema.evaluate(p, caps, s),
        );
        schema.classes = classes;
        Ok(schema)
    }

    /// Number of levels of the stream's primary property.
    fn levels(&self) -> usize {
        self.level_spec.num_levels()
    }

    /// Values the mentioned link resources may hold on `link` — the only
    /// thing a variant's evaluation reads from the link.
    fn res_avail(&self, p: &CppProblem, link: LinkId, out: &mut Vec<Interval>) {
        out.clear();
        out.extend(self.link_res.iter().map(|&r| {
            let res = &p.resources[r as usize];
            available(res.consumable, p.network.link_capacity(link, &res.name))
        }));
    }

    /// Evaluate every level combination against the static pruning
    /// procedure on links whose mentioned resources may hold `avail`.
    fn evaluate(&self, p: &CppProblem, avail: &[Interval], s: &mut Scratch) -> Variants {
        let Scratch { optimistic, assigned, .. } = s;
        let mut vs = Variants::new(2);
        for_each_combo(&self.dims, |combo| {
            vs.evaluated += 1;
            let l_in = combo[0];
            let link_levels = &combo[1..];

            optimistic.clear();
            assigned.clear();
            if let Some(v) = self.in_slot {
                optimistic.push((v, self.level_spec.requirement(l_in)));
                if !self.level_spec.is_trivial() {
                    assigned.push((v, l_in as u8));
                }
            }
            for (k, &l) in link_levels.iter().enumerate() {
                let iv = self.res_specs[k].requirement(l).intersect(&avail[k]);
                if iv.is_empty() {
                    vs.pruned += 1;
                    return;
                }
                optimistic.push((self.res_slots[k], iv));
                if !self.res_specs[k].is_trivial() {
                    assigned.push((self.res_slots[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(optimistic, *v);
            if !self.formulas.conditions.iter().all(|c| c.possibly(&mut env)) {
                vs.pruned += 1;
                return;
            }

            // computed delivery range of the primary property
            let mut delivered = Interval::nonneg();
            for eff in &self.formulas.effects {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => {
                        if Some(eff.target) == self.out_slot {
                            delivered = val;
                        }
                    }
                    AssignOp::Sub => {
                        if lookup(optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            vs.pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            let cost = self.formulas.cost.eval_interval(&mut env).lo.max(0.0);

            let out_range = if self.out_slot.is_some() {
                self.level_spec.intersecting_half_open(&delivered)
            } else {
                0..1
            };
            if out_range.is_empty() {
                vs.pruned += 1;
                return;
            }
            for l_out in out_range {
                vs.levels.extend([l_in, l_out]);
                vs.optimistic.extend_from_slice(optimistic);
                vs.assigned.extend_from_slice(assigned);
                if let Some(var) = self.out_slot {
                    vs.post.push((var, self.level_spec.requirement(l_out)));
                    if !self.level_spec.is_trivial() {
                        vs.assigned.push((var, l_out as u8));
                    }
                }
                let name = &mut vs.names;
                let mut sep = '[';
                if !self.level_spec.is_trivial() {
                    let _ = write!(name, "{sep}in={l_in},out={l_out}");
                    sep = ',';
                }
                for (k, &l) in link_levels.iter().enumerate() {
                    if !self.res_specs[k].is_trivial() {
                        let res = &p.resources[self.link_res[k] as usize].name;
                        let _ = write!(name, "{sep}{res}={l}");
                        sep = ',';
                    }
                }
                if sep == ',' {
                    name.push(']');
                }
                vs.close(cost);
            }
        });
        vs
    }
}

// ------------------------------------------------------------- grounding

struct Ctx<'p> {
    p: &'p CppProblem,
    task: PlanningTask,
    /// The goal-relevant propositions; `None` builds every variant.
    relevant: Option<Relevance>,
    /// Level variants that survived static pruning, built or not.
    counted: usize,
    /// Level combinations discarded by static pruning.
    pruned: usize,
    /// The current site's variable of each slot.
    bind: Vec<GVarId>,
    // emission scratch; each built action copies out what it keeps
    pre: Vec<PropId>,
    adds: Vec<PropId>,
    name: String,
}

impl<'p> Ctx<'p> {
    // ------------------------------------------------------------- interning

    fn intern_prop(&mut self, data: PropData) -> PropId {
        let (id, new) = self.task.index.intern_prop(&data, self.task.props.len());
        if new {
            self.task.props.push(data);
            let name = self.render_prop(&data);
            self.task.prop_names.push(name);
        }
        id
    }

    fn intern_gvar(&mut self, data: GVarData) -> GVarId {
        let (id, new) = self.task.index.intern_gvar(&data, self.task.gvars.len());
        if new {
            self.task.gvars.push(data);
            let name = self.render_gvar(&data);
            self.task.gvar_names.push(name);
        }
        id
    }

    fn render_prop(&self, data: &PropData) -> String {
        match data {
            PropData::Placed { comp, node } => format!(
                "placed({},{})",
                self.p.component(*comp).name,
                self.p.network.node(*node).name
            ),
            PropData::Avail { iface, node, level } => format!(
                "avail({},{},L{})",
                self.p.iface(*iface).name,
                self.p.network.node(*node).name,
                level
            ),
        }
    }

    fn render_gvar(&self, data: &GVarData) -> String {
        match data {
            GVarData::IfaceProp { iface, prop, node } => {
                let spec = self.p.iface(*iface);
                format!(
                    "{}({},{})",
                    spec.properties[*prop as usize],
                    spec.name,
                    self.p.network.node(*node).name
                )
            }
            GVarData::NodeRes { res, node } => format!(
                "{}({})",
                self.p.resources[*res as usize].name,
                self.p.network.node(*node).name
            ),
            GVarData::LinkRes { res, link } => {
                let l = self.p.network.link(*link);
                format!(
                    "{}({}-{})",
                    self.p.resources[*res as usize].name,
                    self.p.network.node(l.a).name,
                    self.p.network.node(l.b).name
                )
            }
        }
    }

    /// Bind a schema's slots at `site`, interning the site's variables in
    /// slot order: the order its instance first uses them, which fixes
    /// every `GVarId`.
    fn bind(&mut self, slots: &[SlotVar], site: Site) {
        self.bind.clear();
        for &s in slots {
            let v = self.intern_gvar(s.at(site));
            self.bind.push(v);
        }
    }

    /// Push onto `self.adds` the `Avail` effect propositions of producing
    /// `iface` at `level` on `node`, with degradable downward closure.
    fn avail_adds(&mut self, iface: IfaceId, node: NodeId, level: usize) {
        let lo = if self.p.iface(iface).degradable { 0 } else { level };
        for l in lo..=level {
            let id = self.intern_prop(PropData::Avail { iface, node, level: l as u8 });
            self.adds.push(id);
        }
    }

    /// Emit one site's variants of a schema. Bind the schema's slots
    /// there, count and intern each variant with `intern`, which says
    /// whether it can contribute to a goal, and build those that can as
    /// `kind`, named `self.name` (the site's prefix) and their suffix. The
    /// site's formulas are ground once, for the first built variant.
    fn emit_site(
        &mut self,
        formulas: &Formulas,
        site: Site,
        variants: &Variants,
        kind: ActionKind,
        mut intern: impl FnMut(&mut Self, &Variant<'_>) -> bool,
    ) {
        self.pruned += variants.pruned;
        self.bind(&formulas.slots, site);
        let prefix = self.name.len();
        let mut ground = None;
        for v in variants.iter() {
            if intern(self, &v) {
                let f = ground.get_or_insert_with(|| formulas.ground(&self.bind));
                self.name.truncate(prefix);
                self.push_action(kind.clone(), f, &v);
            }
        }
    }

    /// Build variant `v` as `kind`: named `self.name` and its suffix, with
    /// `self.pre`/`self.adds`, the site's formulas, and its slots bound.
    fn push_action(&mut self, kind: ActionKind, formulas: &Ground, v: &Variant<'_>) {
        let bind = &self.bind;
        self.name.push_str(v.name);
        self.pre.sort_unstable();
        self.pre.dedup();
        self.adds.sort_unstable();
        self.adds.dedup();
        self.task.actions.push(GroundAction {
            name: self.name.clone(),
            kind,
            preconds: self.pre.clone(),
            adds: self.adds.clone(),
            conditions: Arc::clone(&formulas.0),
            effects: Arc::clone(&formulas.1),
            optimistic: v.optimistic.iter().map(|&(s, iv)| (bind[s.index()], iv)).collect(),
            post: v.post.iter().map(|&(s, iv)| (bind[s.index()], iv)).collect(),
            levels: v.assigned.iter().map(|&(s, l)| (bind[s.index()], l)).collect(),
            cost: v.cost,
        });
    }

    // ------------------------------------------------------ place grounding

    /// Emit every `place(comp, node)` instance of one schema.
    fn ground_place(&mut self, schema: &PlaceSchema<'_>) {
        let (p, comp) = (self.p, schema.comp);
        for node in p.network.node_ids() {
            let Some(variants) = schema.classes.at(node.index()) else { continue };
            self.name.clear();
            let _ = write!(self.name, "place({},{})", schema.spec.name, p.network.node(node).name);
            self.emit_site(
                &schema.formulas,
                Site::Node(node),
                variants,
                ActionKind::Place { comp, node },
                |ctx, v| ctx.place_variant(schema, node, v),
            );
        }
    }

    /// Count one place variant and intern its propositions in emission
    /// order (preconditions, `placed`, output closure) — that order fixes
    /// every `PropId` — and say whether it can contribute to a goal.
    fn place_variant(&mut self, schema: &PlaceSchema<'_>, node: NodeId, v: &Variant<'_>) -> bool {
        let comp = schema.comp;
        self.counted += 1;
        let (in_levels, out_levels) = v.levels.split_at(schema.req.len());
        self.pre.clear();
        for (&r, &l) in schema.req.iter().zip(in_levels) {
            let id = self.intern_prop(PropData::Avail { iface: r, node, level: l as u8 });
            self.pre.push(id);
        }
        self.adds.clear();
        let placed = self.intern_prop(PropData::Placed { comp, node });
        self.adds.push(placed);
        for (&o, &l) in schema.outs.iter().zip(out_levels) {
            self.avail_adds(o, node, l);
        }
        self.relevant.as_ref().is_none_or(|r| r.place(comp, node, &schema.outs, out_levels))
    }

    // ------------------------------------------------------ cross grounding

    /// Emit every `cross(iface, link)` instance of one schema, in both
    /// directions.
    fn ground_cross(&mut self, schema: &CrossSchema<'_>) {
        let (p, iface) = (self.p, schema.iface);
        for dir in p.network.directed_links() {
            let Some(variants) = schema.classes.at(dir.link.index()) else { continue };
            let (from, to) = (&p.network.node(dir.from).name, &p.network.node(dir.to).name);
            self.name.clear();
            let _ = write!(self.name, "cross({},{from}→{to})", schema.spec.name);
            self.emit_site(
                &schema.formulas,
                Site::Dir(dir),
                variants,
                ActionKind::Cross { iface, dir },
                |ctx, v| ctx.cross_variant(iface, dir, v),
            );
        }
    }

    /// Count one cross variant and intern its propositions in emission
    /// order (precondition, then output closure), and say whether it can
    /// contribute to a goal.
    fn cross_variant(&mut self, iface: IfaceId, dir: DirLink, v: &Variant<'_>) -> bool {
        let (l_in, l_out) = (v.levels[0], v.levels[1]);
        self.counted += 1;
        self.pre.clear();
        let pre = self.intern_prop(PropData::Avail { iface, node: dir.from, level: l_in as u8 });
        self.pre.push(pre);
        self.adds.clear();
        self.avail_adds(iface, dir.to, l_out);
        self.relevant.as_ref().is_none_or(|r| r.cross(iface, dir.to, l_out))
    }

    // --------------------------------------------------------- init & goals

    fn build_initial_state(&mut self) {
        let p = self.p;
        // stream sources: every level their producible range reaches
        for s in &p.sources {
            let iface = p.iface_id(&s.iface).expect("validated");
            let spec = primary_levels(p, iface);
            let props = &p.iface(iface).properties;
            if let Some(primary) = props.first() {
                let range = s.properties.get(primary).copied().unwrap_or_else(Interval::nonneg);
                for l in spec.intersecting(&range) {
                    let pid =
                        self.intern_prop(PropData::Avail { iface, node: s.node, level: l as u8 });
                    self.task.init_props.push(pid);
                }
                // initial values for every declared source property (the
                // primary gets its producible range; further properties —
                // e.g. accumulated latency — default to a point 0)
                for (pi, pname) in props.iter().enumerate() {
                    let v = self.intern_gvar(GVarData::IfaceProp {
                        iface,
                        prop: pi as u8,
                        node: s.node,
                    });
                    let value = s.properties.get(pname).copied().unwrap_or_else(|| {
                        if pi == 0 {
                            Interval::nonneg()
                        } else {
                            Interval::point(0.0)
                        }
                    });
                    while self.task.init_values.len() < self.task.gvars.len() {
                        self.task.init_values.push(None);
                    }
                    self.task.init_values[v.index()] = Some(value);
                }
            } else {
                let pid = self.intern_prop(PropData::Avail { iface, node: s.node, level: 0 });
                self.task.init_props.push(pid);
            }
        }
        for pp in &p.pre_placed {
            let comp = p.comp_id(&pp.component).expect("validated");
            let pid = self.intern_prop(PropData::Placed { comp, node: pp.node });
            self.task.init_props.push(pid);
        }
        self.task.init_props.sort_unstable();
        self.task.init_props.dedup();
    }

    fn build_goals(&mut self) {
        let p = self.p;
        for g in &p.goals {
            let comp = p.comp_id(&g.component).expect("validated");
            let pid = self.intern_prop(PropData::Placed { comp, node: g.node });
            self.task.goal_props.push(pid);
        }
        self.task.goal_props.sort_unstable();
        self.task.goal_props.dedup();
    }

    fn finalize(&mut self) {
        let np = self.task.props.len();
        self.task.init_mask = vec![false; np];
        for &p in &self.task.init_props {
            self.task.init_mask[p.index()] = true;
        }
        // initial numeric state: capacities for every interned resource var
        self.task.init_values.resize(self.task.gvars.len(), None);
        for (i, gv) in self.task.gvars.iter().enumerate() {
            match gv {
                GVarData::NodeRes { res, node } => {
                    let cap =
                        self.p.network.node_capacity(*node, &self.p.resources[*res as usize].name);
                    self.task.init_values[i] = Some(Interval::point(cap));
                }
                GVarData::LinkRes { res, link } => {
                    let cap =
                        self.p.network.link_capacity(*link, &self.p.resources[*res as usize].name);
                    self.task.init_values[i] = Some(Interval::point(cap));
                }
                GVarData::IfaceProp { .. } => {} // sources already set
            }
        }
        // achievers index (flat CSR)
        self.task.achievers = crate::task::AchieverIndex::build(np, &self.task.actions);
        self.task.stats = crate::task::CompileStats {
            actions: self.counted,
            built: self.task.actions.len(),
            pruned: self.pruned,
            props: np,
            gvars: self.task.gvars.len(),
            // stamped by `compile` once the symmetry pass is done
            compile_time: Duration::ZERO,
        };
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::{ActionId, LevelScenario};
    use sekitei_topology::scenarios;

    #[test]
    fn compile_tiny_scenario_a() {
        let p = scenarios::tiny(LevelScenario::A);
        let t = compile_full(&p).unwrap();
        assert!(t.num_actions() > 0);
        assert!(!t.goal_props.is_empty());
        assert!(!t.init_props.is_empty());
        // without levels there is exactly one place action per (comp, node)
        let places =
            t.actions.iter().filter(|a| matches!(a.kind, ActionKind::Place { .. })).count();
        assert_eq!(places, 5 * 2); // 5 components × 2 nodes
    }

    #[test]
    fn leveling_multiplies_actions() {
        let a = compile(&scenarios::tiny(LevelScenario::A)).unwrap().stats.actions;
        let b = compile(&scenarios::tiny(LevelScenario::B)).unwrap().stats.actions;
        let d = compile(&scenarios::tiny(LevelScenario::D)).unwrap().stats.actions;
        let e = compile(&scenarios::tiny(LevelScenario::E)).unwrap().stats.actions;
        assert!(a < b && b < d && d < e, "{a} < {b} < {d} < {e} expected");
    }

    #[test]
    fn high_m_cross_pruned_on_weak_link() {
        // paper §3.2.1: crossing the 70-unit link with M at levels above
        // [30,70) is pruned — the delivered range cannot reach level 2+.
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        for a in &t.actions {
            if let ActionKind::Cross { iface, .. } = a.kind {
                if iface == m {
                    for &(_, iv) in &a.post {
                        assert!(iv.lo < 90.0, "M cross claiming ≥90 must be pruned: {}", a.name);
                    }
                }
            }
        }
    }

    #[test]
    fn merger_ratio_prunes_mismatched_levels() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let merger = p.comp_id("Merger").unwrap();
        let ti = p.iface_id("T").unwrap();
        let ii = p.iface_id("I").unwrap();
        let t_spec = p.iface(ti).levels_of("ibw");
        let i_spec = p.iface(ii).levels_of("ibw");
        for a in &t.actions {
            if let ActionKind::Place { comp, .. } = a.kind {
                if comp == merger {
                    // the surviving (T, I) level pair must have ratio-
                    // compatible intervals: 3·T ∩ 7·I ≠ ∅
                    let mut t_iv = None;
                    let mut i_iv = None;
                    for &(v, iv) in &a.optimistic {
                        match t.gvars[v.index()] {
                            GVarData::IfaceProp { iface, .. } if iface == ti => t_iv = Some(iv),
                            GVarData::IfaceProp { iface, .. } if iface == ii => i_iv = Some(iv),
                            _ => {}
                        }
                    }
                    let (t_iv, i_iv) = (t_iv.unwrap(), i_iv.unwrap());
                    let lhs = t_iv.mul(&Interval::point(3.0));
                    let rhs = i_iv.mul(&Interval::point(7.0));
                    assert!(lhs.intersects(&rhs), "{}", a.name);
                }
            }
        }
        let _ = (t_spec, i_spec);
    }

    #[test]
    fn initial_state_has_source_levels() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        let src = p.sources[0].node;
        // 200 units reach all five levels
        for l in 0..5u8 {
            let pid = t.prop_id(&PropData::Avail { iface: m, node: src, level: l });
            assert!(pid.is_some_and(|pid| t.initially(pid)), "level {l} missing");
        }
        // and the source var carries [0, 200]
        let v = t.gvar_id(&GVarData::IfaceProp { iface: m, prop: 0, node: src }).unwrap();
        assert_eq!(t.init_values[v.index()], Some(Interval::new(0.0, 200.0)));
    }

    #[test]
    fn goal_is_client_placement() {
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        assert_eq!(t.goal_props.len(), 1);
        let g = t.prop(t.goal_props[0]);
        let cl = p.comp_id("Client").unwrap();
        assert_eq!(g, PropData::Placed { comp: cl, node: p.goals[0].node });
        assert!(!t.initially(t.goal_props[0]));
    }

    #[test]
    fn costs_are_lower_bounds_at_level_lo() {
        // Merger at T=[63,70),I=[27,30) costs 1 + 90/10 = 10 (paper §3.1)
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        let merger = p.comp_id("Merger").unwrap();
        let found = t.actions.iter().any(|a| {
            matches!(a.kind, ActionKind::Place { comp, .. } if comp == merger)
                && a.post.iter().any(|(_, iv)| iv.lo == 90.0)
                && (a.cost - 10.0).abs() < 1e-9
        });
        assert!(found, "expected a Merger action with cost 10");
    }

    #[test]
    fn achievers_cover_all_adds() {
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        for (i, a) in t.actions.iter().enumerate() {
            for &pr in &a.adds {
                assert!(t.achievers(pr).contains(&ActionId::from_index(i)));
            }
        }
    }

    #[test]
    fn degradable_closure_in_adds() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        // a Merger producing M at level 3 also adds levels 0..=2
        let act = t
            .actions
            .iter()
            .find(|a| {
                matches!(a.kind, ActionKind::Place { comp, .. }
                    if p.component(comp).name == "Merger")
                    && a.post.iter().any(|(_, iv)| iv.lo == 90.0 && (iv.hi - 100.0).abs() < 1e-3)
            })
            .expect("level-3 merger");
        let mut avail_levels: Vec<u8> = act
            .adds
            .iter()
            .filter_map(|&pr| match t.prop(pr) {
                PropData::Avail { iface, level, .. } if iface == m => Some(level),
                _ => None,
            })
            .collect();
        avail_levels.sort_unstable();
        assert_eq!(avail_levels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compile_rejects_invalid_problem() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.goals.clear();
        assert!(matches!(compile(&p), Err(CompileError::Model(_))));
    }

    #[test]
    fn oversized_index_is_refused_before_grounding() {
        // 4 096 nodes × 17 interfaces × 256 levels is 17.8M `avail` slots,
        // past `MAX_SLOTS` (2^24), though no level spec is wider than the
        // 256 levels `validate` allows
        use sekitei_model::{
            ComponentSpec, Goal, InterfaceSpec, LevelSpec, Network, ResourceDef, StreamSource,
        };
        let mut network = Network::new();
        let nodes: Vec<NodeId> =
            (0..4096).map(|i| network.add_node(format!("n{i}"), [("cpu", 1.0)])).collect();
        let cuts = LevelSpec::new((1..256).map(f64::from).collect()).unwrap();
        let p = CppProblem {
            network,
            resources: vec![ResourceDef::node("cpu"), ResourceDef::link("lbw")],
            interfaces: (0..17)
                .map(|k| {
                    InterfaceSpec::bandwidth_stream(format!("X{k}"), "ibw", "lbw")
                        .with_levels("ibw", cuts.clone())
                })
                .collect(),
            components: vec![ComponentSpec::new("C").requires("X0")],
            sources: vec![StreamSource::up_to("X0", nodes[0], "ibw", 10.0)],
            pre_placed: vec![],
            goals: vec![Goal { component: "C".into(), node: nodes[1] }],
        };
        match compile(&p) {
            Err(CompileError::Model(ModelError::Invalid(msg))) => {
                assert!(msg.contains("too large to ground"), "{msg}")
            }
            other => panic!("expected the size guard, got {other:?}"),
        }
    }

    #[test]
    fn combo_helper() {
        let mut seen = Vec::new();
        for_each_combo(&[2, 3], |c| seen.push((c[0], c[1])));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[5], (1, 2));
        let mut none = 0;
        for_each_combo(&[2, 0], |_| none += 1);
        assert_eq!(none, 0);
        let mut empty = 0;
        for_each_combo(&[], |_| empty += 1);
        assert_eq!(empty, 1); // one empty combination
        assert_eq!(combo_count(&[2, 3]), 6);
    }
}
