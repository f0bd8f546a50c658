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
//! [`compile`] builds only the actions that can contribute to a goal: the
//! goal-relevant propositions are computed before grounding starts
//! (`relevance.rs`), and a level variant that adds none of them, nor a
//! goal, is still evaluated, counted and has its propositions interned,
//! but is not built. Every proposition and variable therefore keeps the id
//! [`compile_full`] gives it, and the built actions keep their relative
//! order.

use crate::relevance::Relevance;
use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::{
    AssignOp, CompId, ComponentSpec, Cond, CppProblem, DirLink, Effect, Expr, GVarId, IfaceId,
    InterfaceSpec, Interval, LevelSpec, LinkId, Locus, ModelError, NodeId, Placement, PropId,
    SpecVar,
};
use std::collections::HashMap;
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
    let places: Vec<PlaceSchema> = (0..problem.components.len())
        .map(|c| PlaceSchema::new(problem, CompId::from_index(c)))
        .collect();
    let crosses: Vec<CrossSchema> = (0..problem.interfaces.len())
        .map(|i| CrossSchema::new(problem, IfaceId::from_index(i)))
        .collect();
    let mut scratch = Scratch::default();
    let relevant = if slice {
        let _g = sekitei_obs::span("relevance");
        Some(Relevance::closure(problem, &places, &crosses, &mut scratch)?)
    } else {
        None
    };
    let mut ctx = Ctx {
        p: problem,
        task: PlanningTask::default(),
        relevant,
        counted: 0,
        pruned: 0,
        pre: Vec::new(),
        adds: Vec::new(),
        full: Vec::new(),
        name: String::new(),
    };
    {
        let _g = sekitei_obs::span("ground-place");
        for schema in &places {
            ctx.ground_place(schema, &mut scratch)?;
        }
    }
    {
        let _g = sekitei_obs::span("ground-cross");
        for schema in &crosses {
            ctx.ground_cross(schema, &mut scratch)?;
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
    ctx.task.sig_classes = symmetry.sig_classes;
    ctx.task.stats.compile_time = start.elapsed();
    sekitei_obs::event("ground_actions", ctx.task.stats.actions as u64);
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

/// The variable of `iface`'s primary property on `node`, if it has one.
fn primary_var(
    p: &CppProblem,
    iface: IfaceId,
    node: NodeId,
    var: &mut impl FnMut(GVarData) -> GVarId,
) -> Option<GVarId> {
    (!p.iface(iface).properties.is_empty())
        .then(|| var(GVarData::IfaceProp { iface, prop: 0, node }))
}

/// A schema instance's numeric formulas, ground once and shared by every
/// level variant built from it.
pub(crate) struct Formulas {
    conditions: Arc<[Cond<GVarId>]>,
    effects: Arc<[Effect<GVarId>]>,
    cost: Expr<GVarId>,
}

/// Per-combination evaluation scratch, reused by every schema instance.
#[derive(Default)]
pub(crate) struct Scratch {
    optimistic: Vec<(GVarId, Interval)>,
    levels: Vec<(GVarId, u8)>,
    produced: Vec<(GVarId, Interval)>,
    out_ranges: Vec<Range<usize>>,
    out_levels: Vec<usize>,
}

// ---------------------------------------------------------- place schemas

/// What every `place(comp, ·)` instance shares: the component's interfaces,
/// the node resources its formulas mention, and their level specs.
pub(crate) struct PlaceSchema<'p> {
    pub(crate) comp: CompId,
    spec: &'p ComponentSpec,
    /// Required interfaces, in declaration order.
    pub(crate) req: Vec<IfaceId>,
    /// Implemented interfaces, in declaration order.
    pub(crate) outs: Vec<IfaceId>,
    /// Interface names in scope of the formulas.
    scope: HashMap<&'p str, IfaceId>,
    node_res: Vec<u16>,
    in_specs: Vec<LevelSpec>,
    res_specs: Vec<&'p LevelSpec>,
    out_specs: Vec<LevelSpec>,
    dims: Vec<usize>,
}

/// One `place(comp, node)` instance.
pub(crate) struct PlaceInst {
    node: NodeId,
    formulas: Formulas,
    in_vars: Vec<Option<GVarId>>,
    res_vars: Vec<GVarId>,
    res_avail: Vec<Interval>,
    out_vars: Vec<Option<GVarId>>,
}

/// A level variant of a place instance that survived static pruning,
/// borrowed from the evaluation scratch.
pub(crate) struct PlaceVariant<'a> {
    /// Level of each required interface.
    pub(crate) in_levels: &'a [usize],
    /// Level of each implemented interface.
    pub(crate) out_levels: &'a [usize],
    optimistic: &'a [(GVarId, Interval)],
    levels: &'a [(GVarId, u8)],
    produced: &'a [(GVarId, Interval)],
}

impl<'p> PlaceSchema<'p> {
    fn new(p: &'p CppProblem, comp: CompId) -> Self {
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
        PlaceSchema {
            comp,
            spec,
            scope: spec.scope().map(|n| (n, p.iface_id(n).expect("validated"))).collect(),
            out_specs: outs.iter().map(|&o| primary_levels(p, o)).collect(),
            req,
            outs,
            node_res,
            in_specs,
            res_specs,
            dims,
        }
    }

    /// Whether the component may be placed on `node`.
    pub(crate) fn allows(&self, p: &CppProblem, node: NodeId) -> bool {
        match &self.spec.placement {
            Placement::Anywhere => true,
            Placement::Only(names) => names.contains(&p.network.node(node).name),
        }
    }

    /// Values the mentioned node resources may hold on `node` — the only
    /// thing a variant's evaluation reads from the node.
    pub(crate) fn res_avail(&self, p: &CppProblem, node: NodeId, out: &mut Vec<Interval>) {
        out.clear();
        out.extend(self.node_res.iter().map(|&r| {
            let res = &p.resources[r as usize];
            available(res.consumable, p.network.node_capacity(node, &res.name))
        }));
    }

    /// Ground the instance on `node`, resolving its variables through
    /// `var` in a fixed order: formulas (conditions, effects, cost), then
    /// inputs, resources and outputs.
    pub(crate) fn instance(
        &self,
        p: &CppProblem,
        node: NodeId,
        var: &mut impl FnMut(GVarData) -> GVarId,
    ) -> Result<PlaceInst, CompileError> {
        let count = combo_count(&self.dims);
        if count > MAX_COMBOS {
            return Err(CompileError::TooManyCombinations {
                schema: format!("place({},{})", self.spec.name, p.network.node(node).name),
                count,
            });
        }
        let mut gv = |v: &SpecVar| -> GVarId {
            match v {
                SpecVar::Iface { iface, prop } => {
                    let id = self.scope[iface.as_str()];
                    let pidx = p.iface(id).properties.iter().position(|n| n == prop).unwrap() as u8;
                    var(GVarData::IfaceProp { iface: id, prop: pidx, node })
                }
                SpecVar::Node { res } => {
                    var(GVarData::NodeRes { res: res_index(p, res, Locus::Node), node })
                }
                SpecVar::Link { .. } => unreachable!("validated: no link vars in place formulas"),
            }
        };
        let formulas = Formulas {
            conditions: self.spec.conditions.iter().map(|c| c.map_vars(&mut gv)).collect(),
            effects: self.spec.effects.iter().map(|e| e.map_vars(&mut gv)).collect(),
            cost: self.spec.cost.map_vars(&mut gv),
        };
        let in_vars = self.req.iter().map(|&r| primary_var(p, r, node, var)).collect();
        let res_vars =
            self.node_res.iter().map(|&r| var(GVarData::NodeRes { res: r, node })).collect();
        let mut res_avail = Vec::new();
        self.res_avail(p, node, &mut res_avail);
        let out_vars = self.outs.iter().map(|&o| primary_var(p, o, node, var)).collect();
        Ok(PlaceInst { node, formulas, in_vars, res_vars, res_avail, out_vars })
    }

    /// Evaluate every level combination of `inst` against the static
    /// pruning procedure, calling `visit` on each surviving variant in
    /// emission order. Returns how many combinations were pruned.
    pub(crate) fn variants(
        &self,
        inst: &PlaceInst,
        s: &mut Scratch,
        mut visit: impl FnMut(&PlaceVariant<'_>),
    ) -> usize {
        let Scratch { optimistic, levels, produced, out_ranges, out_levels } = s;
        let mut pruned = 0;
        for_each_combo(&self.dims, |combo| {
            let (in_levels, res_levels) = combo.split_at(self.in_specs.len());

            // optimistic map for this level assignment
            optimistic.clear();
            levels.clear();
            for (k, &l) in in_levels.iter().enumerate() {
                if let Some(v) = inst.in_vars[k] {
                    optimistic.push((v, self.in_specs[k].requirement(l)));
                    levels.push((v, l as u8));
                }
            }
            for (k, &l) in res_levels.iter().enumerate() {
                let iv = self.res_specs[k].requirement(l).intersect(&inst.res_avail[k]);
                if iv.is_empty() {
                    pruned += 1;
                    return;
                }
                optimistic.push((inst.res_vars[k], iv));
                if !self.res_specs[k].is_trivial() {
                    levels.push((inst.res_vars[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(optimistic, *v);
            if !inst.formulas.conditions.iter().all(|c| c.possibly(&mut env)) {
                pruned += 1;
                return;
            }

            // evaluate effects against the pre-state
            produced.clear();
            for eff in inst.formulas.effects.iter() {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => produced.push((eff.target, val)),
                    AssignOp::Sub => {
                        if lookup(optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            // output levels from the computed ranges
            out_ranges.clear();
            for (k, ov) in inst.out_vars.iter().enumerate() {
                let range = match ov {
                    Some(v) => self.out_specs[k].intersecting_half_open(&lookup(produced, *v)),
                    None => 0..1,
                };
                if range.is_empty() {
                    pruned += 1;
                    return;
                }
                out_ranges.push(range);
            }
            out_levels.clear();
            out_levels.extend(out_ranges.iter().map(|r| r.start));
            loop {
                visit(&PlaceVariant { in_levels, out_levels, optimistic, levels, produced });
                if !advance(out_levels, |k| out_ranges[k].clone()) {
                    break;
                }
            }
        });
        pruned
    }
}

// ---------------------------------------------------------- cross schemas

/// What every `cross(iface, ·)` instance shares: the link resources its
/// formulas mention and the level specs.
pub(crate) struct CrossSchema<'p> {
    pub(crate) iface: IfaceId,
    spec: &'p InterfaceSpec,
    link_res: Vec<u16>,
    level_spec: LevelSpec,
    res_specs: Vec<&'p LevelSpec>,
    dims: Vec<usize>,
}

/// One `cross(iface, link)` instance in one direction.
pub(crate) struct CrossInst {
    dir: DirLink,
    formulas: Formulas,
    in_var: Option<GVarId>,
    out_var: Option<GVarId>,
    res_vars: Vec<GVarId>,
    res_avail: Vec<Interval>,
}

/// A level variant of a cross instance that survived static pruning,
/// borrowed from the evaluation scratch.
pub(crate) struct CrossVariant<'a> {
    /// Level of the stream on the sending node.
    pub(crate) l_in: usize,
    /// Level of the stream delivered to the receiving node.
    pub(crate) l_out: usize,
    link_levels: &'a [usize],
    optimistic: &'a [(GVarId, Interval)],
    levels: &'a [(GVarId, u8)],
    cost: f64,
}

impl<'p> CrossSchema<'p> {
    fn new(p: &'p CppProblem, iface: IfaceId) -> Self {
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
        CrossSchema { iface, spec, link_res, level_spec, res_specs, dims }
    }

    /// Number of levels of the stream's primary property.
    pub(crate) fn levels(&self) -> usize {
        self.level_spec.num_levels()
    }

    /// Values the mentioned link resources may hold on `link` — the only
    /// thing a variant's evaluation reads from the link.
    pub(crate) fn res_avail(&self, p: &CppProblem, link: LinkId, out: &mut Vec<Interval>) {
        out.clear();
        out.extend(self.link_res.iter().map(|&r| {
            let res = &p.resources[r as usize];
            available(res.consumable, p.network.link_capacity(link, &res.name))
        }));
    }

    /// Ground the instance on `dir`, resolving its variables through `var`
    /// in a fixed order: formulas (conditions, effects, cost), then the
    /// stream on both ends and the link resources.
    pub(crate) fn instance(
        &self,
        p: &CppProblem,
        dir: DirLink,
        var: &mut impl FnMut(GVarData) -> GVarId,
    ) -> Result<CrossInst, CompileError> {
        let count = combo_count(&self.dims);
        if count > MAX_COMBOS {
            return Err(CompileError::TooManyCombinations {
                schema: format!("cross({},{dir})", self.spec.name),
                count,
            });
        }
        // readers reference the `from` side; effect targets on the
        // interface reference the `to` side (the stream after crossing)
        let iface = self.iface;
        let mut gv = |v: &SpecVar, write: bool| -> GVarId {
            match v {
                SpecVar::Iface { prop, .. } => {
                    let pidx = self.spec.properties.iter().position(|n| n == prop).unwrap() as u8;
                    let node = if write { dir.to } else { dir.from };
                    var(GVarData::IfaceProp { iface, prop: pidx, node })
                }
                SpecVar::Link { res } => {
                    var(GVarData::LinkRes { res: res_index(p, res, Locus::Link), link: dir.link })
                }
                SpecVar::Node { .. } => unreachable!("validated: no node vars in cross formulas"),
            }
        };
        let conditions =
            self.spec.cross_conditions.iter().map(|c| c.map_vars(&mut |v| gv(v, false))).collect();
        let effects = self
            .spec
            .cross_effects
            .iter()
            .map(|e| {
                let value = e.value.map_vars(&mut |v| gv(v, false));
                // link-resource targets are consumed in place; interface
                // targets materialize on the destination node
                let target = gv(&e.target, matches!(e.target, SpecVar::Iface { .. }));
                Effect { target, op: e.op, value }
            })
            .collect();
        let cost = self.spec.cross_cost.map_vars(&mut |v| gv(v, false));
        let formulas = Formulas { conditions, effects, cost };
        let in_var = primary_var(p, iface, dir.from, var);
        let out_var = primary_var(p, iface, dir.to, var);
        let res_vars = self
            .link_res
            .iter()
            .map(|&r| var(GVarData::LinkRes { res: r, link: dir.link }))
            .collect();
        let mut res_avail = Vec::new();
        self.res_avail(p, dir.link, &mut res_avail);
        Ok(CrossInst { dir, formulas, in_var, out_var, res_vars, res_avail })
    }

    /// Evaluate every level combination of `inst` against the static
    /// pruning procedure, calling `visit` on each surviving variant in
    /// emission order. Returns how many combinations were pruned.
    pub(crate) fn variants(
        &self,
        inst: &CrossInst,
        s: &mut Scratch,
        mut visit: impl FnMut(&CrossVariant<'_>),
    ) -> usize {
        let Scratch { optimistic, levels, .. } = s;
        let mut pruned = 0;
        for_each_combo(&self.dims, |combo| {
            let l_in = combo[0];
            let link_levels = &combo[1..];

            optimistic.clear();
            levels.clear();
            if let Some(v) = inst.in_var {
                optimistic.push((v, self.level_spec.requirement(l_in)));
                if !self.level_spec.is_trivial() {
                    levels.push((v, l_in as u8));
                }
            }
            for (k, &l) in link_levels.iter().enumerate() {
                let iv = self.res_specs[k].requirement(l).intersect(&inst.res_avail[k]);
                if iv.is_empty() {
                    pruned += 1;
                    return;
                }
                optimistic.push((inst.res_vars[k], iv));
                if !self.res_specs[k].is_trivial() {
                    levels.push((inst.res_vars[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(optimistic, *v);
            if !inst.formulas.conditions.iter().all(|c| c.possibly(&mut env)) {
                pruned += 1;
                return;
            }

            // computed delivery range of the primary property
            let mut delivered = Interval::nonneg();
            for eff in inst.formulas.effects.iter() {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => {
                        if Some(eff.target) == inst.out_var {
                            delivered = val;
                        }
                    }
                    AssignOp::Sub => {
                        if lookup(optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            let cost = inst.formulas.cost.eval_interval(&mut env).lo.max(0.0);

            let out_range = if inst.out_var.is_some() {
                self.level_spec.intersecting_half_open(&delivered)
            } else {
                0..1
            };
            if out_range.is_empty() {
                pruned += 1;
                return;
            }
            for l_out in out_range {
                visit(&CrossVariant { l_in, l_out, link_levels, optimistic, levels, cost });
            }
        });
        pruned
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
    // emission scratch; each built action copies out what it keeps
    pre: Vec<PropId>,
    adds: Vec<PropId>,
    full: Vec<(GVarId, Interval)>,
    name: String,
}

impl<'p> Ctx<'p> {
    // ------------------------------------------------------------- interning

    fn intern_prop(&mut self, data: PropData) -> PropId {
        if let Some(&id) = self.task.prop_index.get(&data) {
            return id;
        }
        let id = PropId::from_index(self.task.props.len());
        self.task.props.push(data);
        self.task.prop_names.push(self.render_prop(&data));
        self.task.prop_index.insert(data, id);
        id
    }

    fn intern_gvar(&mut self, data: GVarData) -> GVarId {
        if let Some(&id) = self.task.gvar_index.get(&data) {
            return id;
        }
        let id = GVarId::from_index(self.task.gvars.len());
        self.task.gvars.push(data);
        self.task.gvar_names.push(self.render_gvar(&data));
        self.task.gvar_index.insert(data, id);
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

    /// Push onto `self.adds` the `Avail` effect propositions of producing
    /// `iface` at `level` on `node`, with degradable downward closure.
    fn avail_adds(&mut self, iface: IfaceId, node: NodeId, level: usize) {
        let lo = if self.p.iface(iface).degradable { 0 } else { level };
        for l in lo..=level {
            let id = self.intern_prop(PropData::Avail { iface, node, level: l as u8 });
            self.adds.push(id);
        }
    }

    // ------------------------------------------------------ place grounding

    /// Ground every `place(comp, node)` instance of one schema: its
    /// formulas once per node, then each feasible level variant.
    fn ground_place(
        &mut self,
        schema: &PlaceSchema<'_>,
        scratch: &mut Scratch,
    ) -> Result<(), CompileError> {
        let p = self.p;
        for node in p.network.node_ids() {
            if schema.allows(p, node) {
                let inst = schema.instance(p, node, &mut |d| self.intern_gvar(d))?;
                let pruned =
                    schema.variants(&inst, scratch, |v| self.place_variant(schema, &inst, v));
                self.pruned += pruned;
            }
        }
        Ok(())
    }

    /// Count one place variant and intern its propositions in emission
    /// order (preconditions, `placed`, output closure) — that order fixes
    /// every `PropId` — then build it if it can contribute to a goal.
    fn place_variant(&mut self, schema: &PlaceSchema<'_>, inst: &PlaceInst, v: &PlaceVariant<'_>) {
        let (p, comp, node) = (self.p, schema.comp, inst.node);
        self.counted += 1;
        self.pre.clear();
        for (&r, &l) in schema.req.iter().zip(v.in_levels) {
            let id = self.intern_prop(PropData::Avail { iface: r, node, level: l as u8 });
            self.pre.push(id);
        }
        self.adds.clear();
        let placed = self.intern_prop(PropData::Placed { comp, node });
        self.adds.push(placed);
        for (&o, &l) in schema.outs.iter().zip(v.out_levels) {
            self.avail_adds(o, node, l);
        }
        if self.relevant.as_ref().is_some_and(|r| !r.place(comp, node, &schema.outs, v.out_levels))
        {
            return;
        }

        // full map including produced outputs, for the cost bound
        self.full.clear();
        self.full.extend_from_slice(v.optimistic);
        let mut post = Vec::with_capacity(schema.outs.len());
        let mut lv = Vec::with_capacity(v.levels.len() + schema.outs.len());
        lv.extend_from_slice(v.levels);
        for (k, ov) in inst.out_vars.iter().enumerate() {
            if let Some(var) = *ov {
                let claimed = schema.out_specs[k].requirement(v.out_levels[k]);
                self.full.push((var, lookup(v.produced, var).intersect(&claimed)));
                post.push((var, claimed));
                lv.push((var, v.out_levels[k] as u8));
            }
        }
        let cost = inst.formulas.cost.eval_interval(&mut |x| lookup(&self.full, *x)).lo.max(0.0);

        let name = &mut self.name;
        name.clear();
        let _ = write!(name, "place({},{})", schema.spec.name, p.network.node(node).name);
        let mut sep = '[';
        for (k, &l) in v.in_levels.iter().enumerate() {
            if !schema.in_specs[k].is_trivial() {
                let _ = write!(name, "{sep}{}={l}", p.iface(schema.req[k]).name);
                sep = ',';
            }
        }
        for (k, &o) in schema.outs.iter().enumerate() {
            if !schema.out_specs[k].is_trivial() {
                let _ = write!(name, "{sep}→{}={}", p.iface(o).name, v.out_levels[k]);
                sep = ',';
            }
        }
        if sep == ',' {
            name.push(']');
        }

        self.pre.sort_unstable();
        self.pre.dedup();
        self.adds.sort_unstable();
        self.adds.dedup();
        self.task.actions.push(GroundAction {
            name: self.name.clone(),
            kind: ActionKind::Place { comp, node },
            preconds: self.pre.clone(),
            adds: self.adds.clone(),
            conditions: Arc::clone(&inst.formulas.conditions),
            effects: Arc::clone(&inst.formulas.effects),
            optimistic: v.optimistic.to_vec(),
            post,
            levels: lv,
            cost,
        });
    }

    // ------------------------------------------------------ cross grounding

    /// Ground every `cross(iface, link)` instance of one schema, in both
    /// directions: its formulas once per direction, then each feasible
    /// level variant.
    fn ground_cross(
        &mut self,
        schema: &CrossSchema<'_>,
        scratch: &mut Scratch,
    ) -> Result<(), CompileError> {
        let p = self.p;
        for dir in p.network.directed_links() {
            let inst = schema.instance(p, dir, &mut |d| self.intern_gvar(d))?;
            let pruned = schema.variants(&inst, scratch, |v| self.cross_variant(schema, &inst, v));
            self.pruned += pruned;
        }
        Ok(())
    }

    /// Count one cross variant and intern its propositions in emission
    /// order (precondition, then output closure), then build it if it can
    /// contribute to a goal.
    fn cross_variant(&mut self, schema: &CrossSchema<'_>, inst: &CrossInst, v: &CrossVariant<'_>) {
        let (p, iface, dir) = (self.p, schema.iface, inst.dir);
        self.counted += 1;
        let pre = self.intern_prop(PropData::Avail { iface, node: dir.from, level: v.l_in as u8 });
        self.adds.clear();
        self.avail_adds(iface, dir.to, v.l_out);
        if self.relevant.as_ref().is_some_and(|r| !r.cross(iface, dir.to, v.l_out)) {
            return;
        }

        let post = match inst.out_var {
            Some(var) => vec![(var, schema.level_spec.requirement(v.l_out))],
            None => Vec::new(),
        };
        let mut lv = Vec::with_capacity(v.levels.len() + 1);
        lv.extend_from_slice(v.levels);
        if let (Some(var), false) = (inst.out_var, schema.level_spec.is_trivial()) {
            lv.push((var, v.l_out as u8));
        }

        let name = &mut self.name;
        name.clear();
        let from = &p.network.node(dir.from).name;
        let to = &p.network.node(dir.to).name;
        let _ = write!(name, "cross({},{from}→{to})", schema.spec.name);
        let mut sep = '[';
        if !schema.level_spec.is_trivial() {
            let _ = write!(name, "{sep}in={},out={}", v.l_in, v.l_out);
            sep = ',';
        }
        for (k, &l) in v.link_levels.iter().enumerate() {
            if !schema.res_specs[k].is_trivial() {
                let _ = write!(name, "{sep}{}={l}", p.resources[schema.link_res[k] as usize].name);
                sep = ',';
            }
        }
        if sep == ',' {
            name.push(']');
        }

        self.adds.sort_unstable();
        self.adds.dedup();
        self.task.actions.push(GroundAction {
            name: self.name.clone(),
            kind: ActionKind::Cross { iface, dir },
            preconds: vec![pre],
            adds: self.adds.clone(),
            conditions: Arc::clone(&inst.formulas.conditions),
            effects: Arc::clone(&inst.formulas.effects),
            optimistic: v.optimistic.to_vec(),
            post,
            levels: lv,
            cost: v.cost,
        });
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
