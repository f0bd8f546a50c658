//! Concretization: bind the plan's interval-valued streams to concrete
//! numbers and validate by exact execution.
//!
//! Following the paper's greedy-within-level semantics (§2.2, §4.2), every
//! stream source is pushed at the **maximum** value of its final feasible
//! interval (the upper end of the chosen resource level, capped by the
//! source's own capacity) — this is what makes scenario C "process 100
//! units" although the client only needs 90, and what makes the unleveled
//! scenario A fail outright (its sup is the full 200-unit availability).
//!
//! The point execution is the soundness gate: a plan is only returned to
//! the caller if all conditions hold exactly, no resource goes negative
//! and every goal demand is met at these concrete values.

use crate::replay::ResourceMap;
use sekitei_cert::{LedgerRow, ResourceLedger};
use sekitei_compile::{GVarData, PlanningTask};
use sekitei_model::{ActionId, AssignOp, GVarId, Interval};
use std::collections::HashMap;

/// Why concretization rejected a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcretizeFail {
    /// A condition evaluated false at the concrete values.
    ConditionFailed {
        /// Position in the plan.
        step: usize,
        /// Condition index within the action.
        cond: usize,
    },
    /// A resource went below zero.
    ResourceExhausted {
        /// Position in the plan.
        step: usize,
        /// The exhausted variable.
        var: GVarId,
    },
    /// An action read a variable that was never produced.
    UndefinedRead {
        /// Position in the plan.
        step: usize,
        /// The variable.
        var: GVarId,
    },
}

impl std::fmt::Display for ConcretizeFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcretizeFail::ConditionFailed { step, cond } => {
                write!(f, "step {step}: condition #{cond} failed at concrete values")
            }
            ConcretizeFail::ResourceExhausted { step, var } => {
                write!(f, "step {step}: resource {var} exhausted")
            }
            ConcretizeFail::UndefinedRead { step, var } => {
                write!(f, "step {step}: read of undefined {var}")
            }
        }
    }
}

/// A concrete execution of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteExecution {
    /// Chosen value per stream-source variable.
    pub source_values: Vec<(GVarId, f64)>,
    /// Final value of every touched variable.
    pub final_state: HashMap<GVarId, f64>,
    /// The resource ledger: per step, the post-value of every variable the
    /// action wrote, recorded *as the execution binds* — this is the row
    /// data a [`sekitei_cert::PlanCertificate`] carries verbatim.
    pub ledger: ResourceLedger,
}

/// Greedily concretize and exactly execute `plan`.
///
/// `final_map` is the interval state produced by the successful terminal
/// replay from the initial state — its interval for each source variable is
/// precisely the set of source values consistent with every optimistic
/// assumption along the plan. The greedy choice is its (finite) upper end.
pub fn concretize(
    task: &PlanningTask,
    plan: &[ActionId],
    final_map: &ResourceMap,
) -> Result<ConcreteExecution, ConcretizeFail> {
    // Greedy source choices. Level requirement intervals carry shaved
    // upper bounds (`[90, 100 - 1e-6]` for the half-open `[90, 100)`), but
    // the paper's planner reserves the cutpoint itself ("the plans involve
    // processing 100 units"), so we first try the values snapped up to the
    // cutpoint grid and fall back to the raw interval tops if the snapped
    // execution fails.
    let snapped = source_choices(task, final_map, true);
    match execute(task, plan, &snapped) {
        Ok(exec) => Ok(exec),
        Err(_) => {
            let raw = source_choices(task, final_map, false);
            execute(task, plan, &raw)
        }
    }
}

fn source_choices(task: &PlanningTask, final_map: &ResourceMap, snap: bool) -> Vec<(GVarId, f64)> {
    let mut out = Vec::new();
    for (i, init) in task.init_values.iter().enumerate() {
        let Some(init) = init else { continue };
        if !matches!(task.gvars[i], GVarData::IfaceProp { .. }) {
            continue;
        }
        let v = GVarId::from_index(i);
        let feasible = final_map.get(&v).copied().unwrap_or(*init).intersect(init);
        let mut chosen = feasible.finite_hi(init.hi);
        if snap {
            // undo the LEVEL_SHAVE: round up onto a 1e-5 grid
            chosen = ((chosen + 2.0 * sekitei_model::levels::LEVEL_SHAVE) * 1e5).round() / 1e5;
            chosen = chosen.min(init.hi); // never exceed availability
        }
        out.push((v, chosen));
    }
    out
}

fn execute(
    task: &PlanningTask,
    plan: &[ActionId],
    sources: &[(GVarId, f64)],
) -> Result<ConcreteExecution, ConcretizeFail> {
    // capacities are point intervals, read from the task until the plan
    // writes them: `state` holds only the sources (stream-source
    // variables from `source_choices`, never capacities) and the written
    // variables, so an execution costs what the plan touches, not the size
    // of the network (relaxed binding executes up to ~130 times per
    // candidate)
    let capacity = |v: GVarId| match task.init_values[v.index()] {
        Some(init) if !matches!(task.gvars[v.index()], GVarData::IfaceProp { .. }) => Some(init.lo),
        _ => None,
    };
    let read =
        |state: &HashMap<GVarId, f64>, v: GVarId| state.get(&v).copied().or_else(|| capacity(v));
    let mut state: HashMap<GVarId, f64> = sources.iter().copied().collect();
    let source_values = sources.to_vec();

    // exact forward execution, recording the ledger as it binds
    let mut ledger = ResourceLedger { rows: Vec::with_capacity(plan.len()) };
    for (step, &aid) in plan.iter().enumerate() {
        let act = task.action(aid);
        // reads must be defined
        for &(v, _) in &act.optimistic {
            if read(&state, v).is_none() {
                return Err(ConcretizeFail::UndefinedRead { step, var: v });
            }
        }
        {
            let mut env = |v: &GVarId| read(&state, *v).unwrap_or(0.0);
            for (ci, cond) in act.conditions.iter().enumerate() {
                if !cond.holds(&mut env) {
                    return Err(ConcretizeFail::ConditionFailed { step, cond: ci });
                }
            }
        }
        let values: Vec<f64> = act
            .effects
            .iter()
            .map(|e| {
                let mut env = |v: &GVarId| read(&state, *v).unwrap_or(0.0);
                e.value.eval(&mut env)
            })
            .collect();
        let mut written = Vec::with_capacity(act.effects.len());
        for (e, val) in act.effects.iter().zip(values) {
            let new = match e.op {
                AssignOp::Set => val,
                AssignOp::Sub => {
                    let pre = read(&state, e.target).unwrap_or(0.0);
                    let post = pre - val;
                    if post < -sekitei_model::EPS {
                        return Err(ConcretizeFail::ResourceExhausted { step, var: e.target });
                    }
                    post.max(0.0)
                }
                AssignOp::Add => read(&state, e.target).unwrap_or(0.0) + val,
            };
            state.insert(e.target, new);
            written.push((e.target, new));
        }
        ledger.rows.push(LedgerRow { writes: written });
    }
    for i in 0..task.init_values.len() {
        let v = GVarId::from_index(i);
        if let Some(c) = capacity(v) {
            state.entry(v).or_insert(c);
        }
    }

    Ok(ConcreteExecution { source_values, final_state: state, ledger })
}

/// Degraded-mode concretization for the serving path: bind sources to *any*
/// feasible value, not just the greedy maximum.
///
/// The paper's planner deliberately keeps the greedy-within-level choice and
/// lets unleveled problems (scenario A) fail — that asymmetry is its central
/// experimental result. A serving system can't return an error for a plan
/// whose structure is fine, so when the greedy execution fails this walks a
/// value grid per source from the interval's low end upward (the demand floor
/// binds from below, capacity from above, so under the monotonicity
/// assumption of §2.2 the feasible set per source is an interval and the
/// first executing grid point is its near-minimal element). Sources are
/// adjusted coordinate-wise over two passes; with a single stream source —
/// every shipped scenario — one pass is exact. Returns the original greedy
/// failure if no grid point executes.
pub fn concretize_relaxed(
    task: &PlanningTask,
    plan: &[ActionId],
    final_map: &ResourceMap,
) -> Result<ConcreteExecution, ConcretizeFail> {
    let greedy_err = match concretize(task, plan, final_map) {
        Ok(exec) => return Ok(exec),
        Err(e) => e,
    };
    const GRID_STEPS: usize = 64;
    let mut choices = source_choices(task, final_map, false);
    for _pass in 0..2 {
        for i in 0..choices.len() {
            if execute(task, plan, &choices).is_ok() {
                break;
            }
            let v = choices[i].0;
            let Some(init) = task.init_values[v.index()] else { continue };
            let feasible = final_map.get(&v).copied().unwrap_or(init).intersect(&init);
            let lo = feasible.lo.max(0.0);
            let hi = feasible.finite_hi(init.hi);
            let saved = choices[i].1;
            let mut found = false;
            for k in 0..=GRID_STEPS {
                let x = lo + (hi - lo) * (k as f64 / GRID_STEPS as f64);
                // demands are round numbers: snap up onto the 1e-5 grid
                choices[i].1 = (x * 1e5).ceil() / 1e5;
                if execute(task, plan, &choices).is_ok() {
                    found = true;
                    break;
                }
            }
            if !found {
                choices[i].1 = saved;
            }
        }
        if let Ok(exec) = execute(task, plan, &choices) {
            return Ok(exec);
        }
    }
    Err(greedy_err)
}

/// Convert the chosen source interval to the greedy concrete value without
/// running the execution — exposed for diagnostics and tests.
pub fn greedy_source_value(feasible: &Interval, availability: &Interval) -> f64 {
    feasible.intersect(availability).finite_hi(availability.hi)
}

/// The *original* Sekitei's post-processing step (paper §2.3): given an
/// already-valid plan, shrink each source to the minimum value that still
/// executes — reducing resource consumption without changing the plan's
/// structure. The paper's point stands here too: minimization can trim a
/// suboptimal plan's flows (e.g. scenario B's 100 units down to the
/// demanded 90) but cannot repair a structurally suboptimal configuration,
/// and it never helps when the greedy planner found no plan at all.
///
/// Under the monotonicity assumption (§2.2) the feasible set of each
/// source value is an interval, so a binary search per source suffices.
/// Returns the minimized execution; errors only if even the greedy values
/// fail (i.e. the plan was never valid).
pub fn minimize_sources(
    task: &PlanningTask,
    plan: &[ActionId],
    final_map: &ResourceMap,
) -> Result<ConcreteExecution, ConcretizeFail> {
    // start from the validated greedy choice
    let mut choices = source_choices(task, final_map, true);
    if execute(task, plan, &choices).is_err() {
        choices = source_choices(task, final_map, false);
        execute(task, plan, &choices)?;
    }

    for i in 0..choices.len() {
        let v = choices[i].0;
        let hi = choices[i].1;
        let lo_bound = task.init_values[v.index()]
            .map(|iv| final_map.get(&v).copied().unwrap_or(iv).intersect(&iv).lo)
            .unwrap_or(0.0)
            .max(0.0);
        let feasible = |x: f64, choices: &mut Vec<(GVarId, f64)>| {
            choices[i].1 = x;
            execute(task, plan, choices).is_ok()
        };
        let mut lo = lo_bound;
        let mut best = hi;
        if feasible(lo, &mut choices) {
            best = lo;
        } else {
            let mut hi_cur = hi;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi_cur);
                if feasible(mid, &mut choices) {
                    best = mid;
                    hi_cur = mid;
                } else {
                    lo = mid;
                }
            }
        }
        // snap the minimized value up onto a friendly grid (demands are
        // typically round numbers); fall back to the raw bound otherwise
        let snapped = (best * 1e5).ceil() / 1e5;
        if feasible(snapped, &mut choices) {
            best = snapped;
        }
        choices[i].1 = best;
    }
    execute(task, plan, &choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_tail;
    use sekitei_compile::compile;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    fn pick(task: &PlanningTask, pat: &str, frag: &str) -> ActionId {
        task.action_ids()
            .find(|&a| {
                let n = &task.action(a).name;
                n.contains(pat) && n.contains(frag)
            })
            .unwrap_or_else(|| panic!("no `{pat}` with `{frag}`"))
    }

    fn figure4(task: &PlanningTask) -> Vec<ActionId> {
        vec![
            pick(task, "place(Splitter,n0)", "[M=1"),
            pick(task, "place(Zip,n0)", "[T=1"),
            pick(task, "cross(Z,n0→n1)", "in=1,out=1"),
            pick(task, "cross(I,n0→n1)", "in=1,out=1"),
            pick(task, "place(Unzip,n1)", "[Z=1"),
            pick(task, "place(Merger,n1)", "[T=1,I=1"),
            pick(task, "place(Client,n1)", "[M=1]"),
        ]
    }

    #[test]
    fn figure4_concretizes_at_100_units() {
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let plan = figure4(&task);
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let exec = concretize(&task, &plan, &map).unwrap();
        // paper §4.2: the selected plans process 100 units of M
        assert_eq!(exec.source_values.len(), 1);
        let (_, s) = exec.source_values[0];
        assert!((s - 100.0).abs() < 1e-9, "greedy source = {s}");
        // client-side M is exactly 100
        let m = p.iface_id("M").unwrap();
        let v = task
            .gvar_id(&GVarData::IfaceProp { iface: m, prop: 0, node: p.goals[0].node })
            .unwrap();
        assert!((exec.final_state[&v] - 100.0).abs() < 1e-9);
        // CPU books balance: n0 used 100/5 + 70/10 = 27 of 30
        let cpu0 =
            task.gvar_id(&GVarData::NodeRes { res: 0, node: sekitei_model::NodeId(0) }).unwrap();
        assert!((exec.final_state[&cpu0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scenario_a_greedy_max_fails() {
        // without levels, the greedy source value is the full 200 units —
        // the Splitter then demands 40 CPU on a 30-CPU node (paper §2.3)
        let p = scenarios::tiny(LevelScenario::A);
        let task = compile(&p).unwrap();
        let plan = vec![
            pick(&task, "place(Splitter,n0)", ""),
            pick(&task, "place(Zip,n0)", ""),
            pick(&task, "cross(Z,n0→n1)", ""),
            pick(&task, "cross(I,n0→n1)", ""),
            pick(&task, "place(Unzip,n1)", ""),
            pick(&task, "place(Merger,n1)", ""),
            pick(&task, "place(Client,n1)", ""),
        ];
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let r = concretize(&task, &plan, &map);
        assert!(
            matches!(r, Err(ConcretizeFail::ConditionFailed { step: 0, .. })),
            "greedy 200-unit execution must fail at the Splitter: {r:?}"
        );
    }

    #[test]
    fn scenario_a_relaxed_binds_a_feasible_value() {
        // the degraded serving path repairs what greedy-max cannot: the
        // feasible source set for tiny/A is ≈ [90, 107.7] and the grid scan
        // finds a point just above the 90-unit demand floor
        let p = scenarios::tiny(LevelScenario::A);
        let task = compile(&p).unwrap();
        let plan = vec![
            pick(&task, "place(Splitter,n0)", ""),
            pick(&task, "place(Zip,n0)", ""),
            pick(&task, "cross(Z,n0→n1)", ""),
            pick(&task, "cross(I,n0→n1)", ""),
            pick(&task, "place(Unzip,n1)", ""),
            pick(&task, "place(Merger,n1)", ""),
            pick(&task, "place(Client,n1)", ""),
        ];
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let exec = concretize_relaxed(&task, &plan, &map).unwrap();
        assert_eq!(exec.source_values.len(), 1);
        let (_, s) = exec.source_values[0];
        assert!((90.0..=110.0).contains(&s), "relaxed source = {s}");
    }

    #[test]
    fn relaxed_is_greedy_when_greedy_works() {
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let plan = figure4(&task);
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let greedy = concretize(&task, &plan, &map).unwrap();
        let relaxed = concretize_relaxed(&task, &plan, &map).unwrap();
        assert_eq!(greedy, relaxed);
    }

    #[test]
    fn ledger_row_shapes() {
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let plan = figure4(&task);
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let exec = concretize(&task, &plan, &map).unwrap();
        assert_eq!(exec.ledger.rows.len(), plan.len());
        // every step wrote something except the pure-condition client
        for (i, row) in exec.ledger.rows.iter().enumerate() {
            if i + 1 < plan.len() {
                assert!(!row.writes.is_empty(), "step {i} wrote nothing");
            }
            // one write per effect, in effect order — the certificate contract
            assert_eq!(row.writes.len(), task.action(plan[i]).effects.len());
        }
        assert!(exec.ledger.entries() > 0);
    }

    #[test]
    fn minimize_trims_to_demand() {
        // scenario B processes 100 units greedily; post-processing shrinks
        // the flow to the demanded 90, reaching the paper's "ideal" 58.5
        // units of link reservation — on this structure.
        let p = scenarios::tiny(LevelScenario::B);
        let task = compile(&p).unwrap();
        let plan = vec![
            pick(&task, "place(Splitter,n0)", "[M=0"),
            pick(&task, "place(Zip,n0)", "[T=0"),
            pick(&task, "cross(Z,n0→n1)", "in=0,out=0"),
            pick(&task, "cross(I,n0→n1)", "in=0,out=0"),
            pick(&task, "place(Unzip,n1)", "[Z=0"),
            pick(&task, "place(Merger,n1)", "[T=0,I=0"),
            pick(&task, "place(Client,n1)", "[M=0]"),
        ];
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let greedy = concretize(&task, &plan, &map).unwrap();
        assert!((greedy.source_values[0].1 - 100.0).abs() < 1e-9);

        let minimized = minimize_sources(&task, &plan, &map).unwrap();
        let s = minimized.source_values[0].1;
        assert!((s - 90.0).abs() < 1e-4, "minimized source = {s}");
        // link usage drops to I(27) + Z(31.5) = 58.5
        let lbw =
            task.gvar_id(&GVarData::LinkRes { res: 1, link: sekitei_model::LinkId(0) }).unwrap();
        let remaining = minimized.final_state[&lbw];
        assert!((70.0 - remaining - 58.5).abs() < 1e-3, "used {}", 70.0 - remaining);
    }

    #[test]
    fn minimize_noop_when_demand_binds_exactly() {
        // a plan already at its minimum stays put
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let plan = figure4(&task);
        let map = replay_tail(&task, &plan, Some(&task.init_values)).unwrap();
        let m = minimize_sources(&task, &plan, &map).unwrap();
        // demand 90 binds from below; the chosen level floor is 90 too
        assert!((m.source_values[0].1 - 90.0).abs() < 1e-4, "{:?}", m.source_values);
    }

    #[test]
    fn greedy_source_value_prefers_finite_hi() {
        let avail = Interval::new(0.0, 200.0);
        assert_eq!(greedy_source_value(&Interval::new(90.0, 100.0), &avail), 100.0);
        assert_eq!(greedy_source_value(&Interval::new(100.0, f64::INFINITY), &avail), 200.0);
        assert_eq!(greedy_source_value(&Interval::new(0.0, f64::INFINITY), &avail), 200.0);
    }
}
