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
//! combination becomes one ground action carrying its optimistic resource
//! map and a lower-bound cost.

use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::{
    AssignOp, CompId, Cond, CppProblem, DirLink, Effect, GVarId, IfaceId, Interval, LevelSpec,
    Locus, ModelError, NodeId, Placement, PropId, SpecVar,
};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
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

/// Compile a CPP instance into a leveled planning task.
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
/// assert!(task.num_actions() > unleveled.num_actions());
/// ```
pub fn compile(problem: &CppProblem) -> Result<PlanningTask, CompileError> {
    problem.validate()?;
    let _span = sekitei_obs::span("compile");
    let start = Instant::now();
    let mut ctx = Ctx { p: problem, task: PlanningTask::default(), pruned: 0 };
    {
        let _g = sekitei_obs::span("ground-place");
        ctx.ground_place_actions()?;
    }
    {
        let _g = sekitei_obs::span("ground-cross");
        ctx.ground_cross_actions()?;
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
    sekitei_obs::event("ground_actions", ctx.task.num_actions() as u64);
    sekitei_obs::event("level_combos_pruned", ctx.pruned as u64);
    sekitei_obs::event(
        "symmetry_orbits",
        ctx.task.orbits.orbits().filter(|m| m.len() > 1).count() as u64,
    );
    sekitei_obs::event("symmetry_swaps_checked", symmetry.swaps_checked);
    sekitei_obs::event("symmetry_actions_checked", symmetry.actions_checked);
    Ok(ctx.task)
}

struct Ctx<'p> {
    p: &'p CppProblem,
    task: PlanningTask,
    pruned: usize,
}

/// Iterate the cartesian product of `dims[i]` choices per slot.
fn for_each_combo(dims: &[usize], mut f: impl FnMut(&[usize])) {
    if dims.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        f(&idx);
        let mut k = dims.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < dims[k] {
                break;
            }
            idx[k] = 0;
        }
    }
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

    fn res_index(&self, name: &str, locus: Locus) -> u16 {
        self.p
            .resources
            .iter()
            .position(|r| r.name == name && r.locus == locus)
            .expect("validated resource") as u16
    }

    /// Level spec of an interface's primary (first) property; trivial when
    /// the interface has no properties.
    fn primary_levels(&self, iface: IfaceId) -> LevelSpec {
        let spec = self.p.iface(iface);
        match spec.properties.first() {
            Some(p) => spec.levels_of(p),
            None => LevelSpec::trivial(),
        }
    }

    fn primary_var(&mut self, iface: IfaceId, node: NodeId) -> Option<GVarId> {
        if self.p.iface(iface).properties.is_empty() {
            None
        } else {
            Some(self.intern_gvar(GVarData::IfaceProp { iface, prop: 0, node }))
        }
    }

    /// Push the `Avail` effect propositions of producing `iface` at
    /// `level` on `node`, with degradable downward closure.
    fn avail_adds(&mut self, iface: IfaceId, node: NodeId, level: usize, adds: &mut Vec<PropId>) {
        let lo = if self.p.iface(iface).degradable { 0 } else { level };
        for l in lo..=level {
            adds.push(self.intern_prop(PropData::Avail { iface, node, level: l as u8 }));
        }
    }

    // ------------------------------------------------------ place grounding

    fn ground_place_actions(&mut self) -> Result<(), CompileError> {
        for ci in 0..self.p.components.len() {
            let comp = CompId::from_index(ci);
            for node in self.p.network.node_ids() {
                if let Placement::Only(names) = &self.p.components[ci].placement {
                    let nname = &self.p.network.node(node).name;
                    if !names.contains(nname) {
                        continue;
                    }
                }
                self.ground_place_at(comp, node)?;
            }
        }
        Ok(())
    }

    /// Ground one `place(comp, node)` schema instance: its formulas once,
    /// then one action per feasible level combination, each sharing them.
    /// Propositions are interned action by action, in emission order
    /// (preconditions, `placed`, output closure); that order fixes every
    /// `PropId`.
    fn ground_place_at(&mut self, comp: CompId, node: NodeId) -> Result<(), CompileError> {
        let p = self.p;
        let spec = p.component(comp);

        // interface-name → id within this component's scope
        let req: Vec<IfaceId> =
            spec.requires.iter().map(|n| p.iface_id(n).expect("validated")).collect();
        let outs: Vec<IfaceId> =
            spec.implements.iter().map(|n| p.iface_id(n).expect("validated")).collect();

        // node resources mentioned anywhere in the schema's formulas
        let mut node_res: Vec<u16> = Vec::new();
        let mut collect = |v: &SpecVar| {
            if let SpecVar::Node { res } = v {
                let idx = self.res_index(res, Locus::Node);
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

        // ground the formulas once per (comp, node)
        let iface_in_scope: HashMap<&str, IfaceId> =
            spec.scope().map(|n| (n, p.iface_id(n).expect("validated"))).collect();
        let gv = |ctx: &mut Self, v: &SpecVar| -> GVarId {
            match v {
                SpecVar::Iface { iface, prop } => {
                    let id = iface_in_scope[iface.as_str()];
                    let pidx = p.iface(id).properties.iter().position(|n| n == prop).unwrap() as u8;
                    ctx.intern_gvar(GVarData::IfaceProp { iface: id, prop: pidx, node })
                }
                SpecVar::Node { res } => {
                    let idx = ctx.res_index(res, Locus::Node);
                    ctx.intern_gvar(GVarData::NodeRes { res: idx, node })
                }
                SpecVar::Link { .. } => unreachable!("validated: no link vars in place formulas"),
            }
        };
        let conditions: Arc<[Cond<GVarId>]> =
            spec.conditions.iter().map(|c| c.map_vars(&mut |v| gv(self, v))).collect();
        let effects: Arc<[Effect<GVarId>]> =
            spec.effects.iter().map(|e| e.map_vars(&mut |v| gv(self, v))).collect();
        let cost_expr = spec.cost.map_vars(&mut |v| gv(self, v));

        let in_vars: Vec<Option<GVarId>> = req.iter().map(|&r| self.primary_var(r, node)).collect();
        let in_specs: Vec<LevelSpec> = req.iter().map(|&r| self.primary_levels(r)).collect();
        let res_vars: Vec<GVarId> = node_res
            .iter()
            .map(|&r| self.intern_gvar(GVarData::NodeRes { res: r, node }))
            .collect();
        let res_specs: Vec<&LevelSpec> =
            node_res.iter().map(|&r| &p.resources[r as usize].levels).collect();
        let res_avail: Vec<Interval> = node_res
            .iter()
            .map(|&r| {
                let res = &p.resources[r as usize];
                available(res.consumable, p.network.node_capacity(node, &res.name))
            })
            .collect();
        let out_vars: Vec<Option<GVarId>> =
            outs.iter().map(|&o| self.primary_var(o, node)).collect();
        let out_specs: Vec<LevelSpec> = outs.iter().map(|&o| self.primary_levels(o)).collect();

        let dims: Vec<usize> = in_specs
            .iter()
            .map(LevelSpec::num_levels)
            .chain(res_specs.iter().map(|s| s.num_levels()))
            .collect();
        let count = combo_count(&dims);
        if count > MAX_COMBOS {
            return Err(CompileError::TooManyCombinations {
                schema: format!("place({},{})", spec.name, p.network.node(node).name),
                count,
            });
        }

        let node_name = &p.network.node(node).name;
        // per-combination scratch; each action copies out what it keeps
        let mut optimistic: Vec<(GVarId, Interval)> = Vec::new();
        let mut levels: Vec<(GVarId, u8)> = Vec::new();
        let mut produced: Vec<(GVarId, Interval)> = Vec::new();
        let mut out_options: Vec<Vec<usize>> = Vec::new();
        let mut full: Vec<(GVarId, Interval)> = Vec::new();
        let mut name = String::new();

        for_each_combo(&dims, |combo| {
            let (in_levels, res_levels) = combo.split_at(in_specs.len());

            // optimistic map for this level assignment
            optimistic.clear();
            levels.clear();
            for (k, &l) in in_levels.iter().enumerate() {
                if let Some(v) = in_vars[k] {
                    optimistic.push((v, in_specs[k].requirement(l)));
                    levels.push((v, l as u8));
                }
            }
            for (k, &l) in res_levels.iter().enumerate() {
                let iv = res_specs[k].requirement(l).intersect(&res_avail[k]);
                if iv.is_empty() {
                    self.pruned += 1;
                    return;
                }
                optimistic.push((res_vars[k], iv));
                if !res_specs[k].is_trivial() {
                    levels.push((res_vars[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(&optimistic, *v);
            if !conditions.iter().all(|c| c.possibly(&mut env)) {
                self.pruned += 1;
                return;
            }

            // evaluate effects against the pre-state
            produced.clear();
            for eff in effects.iter() {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => produced.push((eff.target, val)),
                    AssignOp::Sub => {
                        if lookup(&optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            self.pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            // enumerate output levels from the computed ranges
            out_options.clear();
            for (k, ov) in out_vars.iter().enumerate() {
                let opts = match ov {
                    Some(v) => out_specs[k].intersecting_half_open(&lookup(&produced, *v)),
                    None => vec![0],
                };
                if opts.is_empty() {
                    self.pruned += 1;
                    return;
                }
                out_options.push(opts);
            }

            let out_dims: Vec<usize> = out_options.iter().map(Vec::len).collect();
            for_each_combo(&out_dims, |out_combo| {
                let out_level = |k: usize| out_options[k][out_combo[k]];

                // full map including produced outputs, for the cost bound
                full.clone_from(&optimistic);
                let mut post = Vec::with_capacity(outs.len());
                let mut lv = Vec::with_capacity(levels.len() + outs.len());
                lv.extend_from_slice(&levels);
                for (k, ov) in out_vars.iter().enumerate() {
                    if let Some(v) = *ov {
                        let claimed = out_specs[k].requirement(out_level(k));
                        full.push((v, lookup(&produced, v).intersect(&claimed)));
                        post.push((v, claimed));
                        lv.push((v, out_level(k) as u8));
                    }
                }
                let cost = cost_expr.eval_interval(&mut |v| lookup(&full, *v)).lo.max(0.0);

                name.clear();
                let _ = write!(name, "place({},{node_name})", spec.name);
                let mut sep = '[';
                for (k, &l) in in_levels.iter().enumerate() {
                    if !in_specs[k].is_trivial() {
                        let _ = write!(name, "{sep}{}={l}", p.iface(req[k]).name);
                        sep = ',';
                    }
                }
                for (k, &o) in outs.iter().enumerate() {
                    if !out_specs[k].is_trivial() {
                        let _ = write!(name, "{sep}→{}={}", p.iface(o).name, out_level(k));
                        sep = ',';
                    }
                }
                if sep == ',' {
                    name.push(']');
                }

                let mut preconds: Vec<PropId> = req
                    .iter()
                    .zip(in_levels)
                    .map(|(&r, &l)| {
                        self.intern_prop(PropData::Avail { iface: r, node, level: l as u8 })
                    })
                    .collect();
                preconds.sort_unstable();
                preconds.dedup();
                let mut adds = vec![self.intern_prop(PropData::Placed { comp, node })];
                for (k, &o) in outs.iter().enumerate() {
                    self.avail_adds(o, node, out_level(k), &mut adds);
                }
                adds.sort_unstable();
                adds.dedup();

                self.task.actions.push(GroundAction {
                    name: name.clone(),
                    kind: ActionKind::Place { comp, node },
                    preconds,
                    adds,
                    conditions: Arc::clone(&conditions),
                    effects: Arc::clone(&effects),
                    optimistic: optimistic.clone(),
                    post,
                    levels: lv,
                    cost,
                });
            });
        });
        Ok(())
    }

    // ------------------------------------------------------ cross grounding

    fn ground_cross_actions(&mut self) -> Result<(), CompileError> {
        for ii in 0..self.p.interfaces.len() {
            let iface = IfaceId::from_index(ii);
            for dir in self.p.network.directed_links() {
                self.ground_cross_at(iface, dir)?;
            }
        }
        Ok(())
    }

    /// Ground one `cross(iface, link)` schema instance in one direction:
    /// its formulas once, then one action per feasible level combination,
    /// each sharing them. Propositions are interned action by action, in
    /// emission order (precondition, then output closure).
    fn ground_cross_at(&mut self, iface: IfaceId, dir: DirLink) -> Result<(), CompileError> {
        let p = self.p;
        let spec = p.iface(iface);

        // link resources mentioned in cross formulas
        let mut link_res: Vec<u16> = Vec::new();
        let mut collect = |v: &SpecVar| {
            if let SpecVar::Link { res } = v {
                let idx = self.res_index(res, Locus::Link);
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

        // readers reference the `from` side; effect targets on the
        // interface reference the `to` side (the stream after crossing)
        let gv = |ctx: &mut Self, v: &SpecVar, write: bool| -> GVarId {
            match v {
                SpecVar::Iface { prop, .. } => {
                    let pidx = spec.properties.iter().position(|n| n == prop).unwrap() as u8;
                    let node = if write { dir.to } else { dir.from };
                    ctx.intern_gvar(GVarData::IfaceProp { iface, prop: pidx, node })
                }
                SpecVar::Link { res } => {
                    let idx = ctx.res_index(res, Locus::Link);
                    ctx.intern_gvar(GVarData::LinkRes { res: idx, link: dir.link })
                }
                SpecVar::Node { .. } => unreachable!("validated: no node vars in cross formulas"),
            }
        };
        let conditions: Arc<[Cond<GVarId>]> =
            spec.cross_conditions.iter().map(|c| c.map_vars(&mut |v| gv(self, v, false))).collect();
        let effects: Arc<[Effect<GVarId>]> = spec
            .cross_effects
            .iter()
            .map(|e| {
                let value = e.value.map_vars(&mut |v| gv(self, v, false));
                // link-resource targets are consumed in place; interface
                // targets materialize on the destination node
                let target = gv(self, &e.target, matches!(e.target, SpecVar::Iface { .. }));
                Effect { target, op: e.op, value }
            })
            .collect();
        let cost_expr = spec.cross_cost.map_vars(&mut |v| gv(self, v, false));

        let in_var = self.primary_var(iface, dir.from);
        let out_var = self.primary_var(iface, dir.to);
        let level_spec = self.primary_levels(iface);
        let res_vars: Vec<GVarId> = link_res
            .iter()
            .map(|&r| self.intern_gvar(GVarData::LinkRes { res: r, link: dir.link }))
            .collect();
        let res_specs: Vec<&LevelSpec> =
            link_res.iter().map(|&r| &p.resources[r as usize].levels).collect();
        let res_avail: Vec<Interval> = link_res
            .iter()
            .map(|&r| {
                let res = &p.resources[r as usize];
                available(res.consumable, p.network.link_capacity(dir.link, &res.name))
            })
            .collect();

        let dims: Vec<usize> = std::iter::once(level_spec.num_levels())
            .chain(res_specs.iter().map(|s| s.num_levels()))
            .collect();
        let count = combo_count(&dims);
        if count > MAX_COMBOS {
            return Err(CompileError::TooManyCombinations {
                schema: format!("cross({},{dir})", spec.name),
                count,
            });
        }

        let from_name = &p.network.node(dir.from).name;
        let to_name = &p.network.node(dir.to).name;
        // per-combination scratch; each action copies out what it keeps
        let mut optimistic: Vec<(GVarId, Interval)> = Vec::new();
        let mut levels: Vec<(GVarId, u8)> = Vec::new();
        let mut name = String::new();

        for_each_combo(&dims, |combo| {
            let l_in = combo[0];
            let link_levels = &combo[1..];

            optimistic.clear();
            levels.clear();
            if let Some(v) = in_var {
                optimistic.push((v, level_spec.requirement(l_in)));
                if !level_spec.is_trivial() {
                    levels.push((v, l_in as u8));
                }
            }
            for (k, &l) in link_levels.iter().enumerate() {
                let iv = res_specs[k].requirement(l).intersect(&res_avail[k]);
                if iv.is_empty() {
                    self.pruned += 1;
                    return;
                }
                optimistic.push((res_vars[k], iv));
                if !res_specs[k].is_trivial() {
                    levels.push((res_vars[k], l as u8));
                }
            }

            let mut env = |v: &GVarId| lookup(&optimistic, *v);
            if !conditions.iter().all(|c| c.possibly(&mut env)) {
                self.pruned += 1;
                return;
            }

            // computed delivery range of the primary property
            let mut delivered = Interval::nonneg();
            for eff in effects.iter() {
                let val = eff.value.eval_interval(&mut env);
                match eff.op {
                    AssignOp::Set => {
                        if Some(eff.target) == out_var {
                            delivered = val;
                        }
                    }
                    AssignOp::Sub => {
                        if lookup(&optimistic, eff.target).sub(&val).clamp_nonneg().is_empty() {
                            self.pruned += 1;
                            return;
                        }
                    }
                    AssignOp::Add => {}
                }
            }

            let cost = cost_expr.eval_interval(&mut env).lo.max(0.0);

            let out_opts = if out_var.is_some() {
                level_spec.intersecting_half_open(&delivered)
            } else {
                vec![0]
            };
            if out_opts.is_empty() {
                self.pruned += 1;
                return;
            }
            for l_out in out_opts {
                let post = match out_var {
                    Some(v) => vec![(v, level_spec.requirement(l_out))],
                    None => Vec::new(),
                };
                let mut lv = Vec::with_capacity(levels.len() + 1);
                lv.extend_from_slice(&levels);
                if let (Some(v), false) = (out_var, level_spec.is_trivial()) {
                    lv.push((v, l_out as u8));
                }

                name.clear();
                let _ = write!(name, "cross({},{from_name}→{to_name})", spec.name);
                let mut sep = '[';
                if !level_spec.is_trivial() {
                    let _ = write!(name, "{sep}in={l_in},out={l_out}");
                    sep = ',';
                }
                for (k, &l) in link_levels.iter().enumerate() {
                    if !res_specs[k].is_trivial() {
                        let _ = write!(name, "{sep}{}={l}", p.resources[link_res[k] as usize].name);
                        sep = ',';
                    }
                }
                if sep == ',' {
                    name.push(']');
                }

                let pre =
                    self.intern_prop(PropData::Avail { iface, node: dir.from, level: l_in as u8 });
                let mut adds = Vec::with_capacity(l_out + 1);
                self.avail_adds(iface, dir.to, l_out, &mut adds);
                adds.sort_unstable();
                adds.dedup();

                self.task.actions.push(GroundAction {
                    name: name.clone(),
                    kind: ActionKind::Cross { iface, dir },
                    preconds: vec![pre],
                    adds,
                    conditions: Arc::clone(&conditions),
                    effects: Arc::clone(&effects),
                    optimistic: optimistic.clone(),
                    post,
                    levels: lv,
                    cost,
                });
            }
        });
        Ok(())
    }

    // --------------------------------------------------------- init & goals

    fn build_initial_state(&mut self) {
        let p = self.p;
        // stream sources: every level their producible range reaches
        for s in &p.sources {
            let iface = p.iface_id(&s.iface).expect("validated");
            let spec = self.primary_levels(iface);
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
            actions: self.task.actions.len(),
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
        let t = compile(&p).unwrap();
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
        let a = compile(&scenarios::tiny(LevelScenario::A)).unwrap().num_actions();
        let b = compile(&scenarios::tiny(LevelScenario::B)).unwrap().num_actions();
        let d = compile(&scenarios::tiny(LevelScenario::D)).unwrap().num_actions();
        let e = compile(&scenarios::tiny(LevelScenario::E)).unwrap().num_actions();
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
