//! The independent certificate checker.
//!
//! A self-contained forward executor over `compile`/`model` types — it
//! shares no code with the planner's search, replay, or concretization.
//! Everything the certificate claims is recomputed here from the compiled
//! task and the certified source values; the only claims *trusted* are the
//! recorded admissible bounds, whose arithmetic (and soundness caveats)
//! are validated against the [`GapBasis`].

use crate::{CertViolation, GapBasis, OutcomeClass, PlanCertificate, Provenance};
use sekitei_compile::{GVarData, PlanningTask};
use sekitei_model::{AssignOp, GVarId, PropId};

/// Absolute tolerance for comparing a claimed ledger cell against the
/// recomputed value. Executions are deterministic IEEE-754 over the same
/// expressions, so byte-equality normally holds; the epsilon only absorbs
/// a re-serialized `f64` that round-tripped through text.
const VALUE_TOL: f64 = 1e-9;

/// Absolute tolerance for gap/cost arithmetic over sums of `f64` costs.
const COST_TOL: f64 = 1e-6;

/// Slack allowed when checking a certified source value against its
/// availability interval (the planner's grid snapping rounds up by at
/// most `2 × LEVEL_SHAVE = 2e-6`).
const SOURCE_TOL: f64 = 1e-5;

/// What a successful check proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Certified steps re-executed.
    pub steps: usize,
    /// Ledger cells re-verified.
    pub ledger_entries: usize,
    /// The certificate's outcome class.
    pub outcome: OutcomeClass,
    /// [`BoundTrail::gap_proved`](crate::BoundTrail::gap_proved) of the
    /// verified trail. False means the plan itself is still fully
    /// verified, but the gap is advisory.
    pub gap_proved: bool,
}

/// Validate `cert` against `task`.
///
/// On success the returned [`CheckReport`] summarizes what was proved; on
/// the first violation the check stops with a line-precise
/// [`CertViolation`]. Runtime is linear in the certificate size — tens of
/// microseconds on the Large scenarios.
pub fn check_certificate(
    task: &PlanningTask,
    cert: &PlanCertificate,
) -> Result<CheckReport, CertViolation> {
    if cert.version != crate::CERT_VERSION {
        return Err(CertViolation::Malformed(format!(
            "unsupported certificate version {} (checker speaks {})",
            cert.version,
            crate::CERT_VERSION
        )));
    }
    let expected = task.fingerprint();
    if cert.task_fingerprint != expected {
        return Err(CertViolation::FingerprintMismatch { expected, actual: cert.task_fingerprint });
    }

    // ---- structural validity of action references --------------------
    for (i, step) in cert.steps.iter().enumerate() {
        if step.action.index() >= task.num_actions() {
            return Err(CertViolation::UnknownAction { step: i, name: step.name.clone() });
        }
        let name = &task.action(step.action).name;
        if *name != step.name {
            return Err(CertViolation::ActionNameMismatch {
                step: i,
                cert: step.name.clone(),
                task: name.clone(),
            });
        }
    }

    // ---- propositional layer: precondition & goal witnesses ----------
    let adds_prop = |k: u32, p: PropId| -> bool {
        let act = task.action(cert.steps[k as usize].action);
        act.adds.binary_search(&p).is_ok()
    };
    for (i, step) in cert.steps.iter().enumerate() {
        let act = task.action(step.action);
        for w in &step.preconds {
            if w.prop.index() >= task.num_props() {
                return Err(CertViolation::Malformed(format!(
                    "step {i}: witness names proposition #{} of {}",
                    w.prop.index(),
                    task.num_props()
                )));
            }
            let pname = || task.prop_name(w.prop).to_string();
            if act.preconds.binary_search(&w.prop).is_err() {
                return Err(CertViolation::BadWitness {
                    step: i,
                    prop: pname(),
                    reason: format!("not a precondition of `{}`", act.name),
                });
            }
            match w.by {
                Provenance::Init => {
                    if !task.initially(w.prop) {
                        return Err(CertViolation::BadWitness {
                            step: i,
                            prop: pname(),
                            reason: "claimed initial but not initially true".into(),
                        });
                    }
                }
                Provenance::Step(k) => {
                    if k as usize >= i {
                        return Err(CertViolation::BadWitness {
                            step: i,
                            prop: pname(),
                            reason: format!("witness step {k} is not earlier"),
                        });
                    }
                    if !adds_prop(k, w.prop) {
                        return Err(CertViolation::BadWitness {
                            step: i,
                            prop: pname(),
                            reason: format!(
                                "step {k} (`{}`) does not add it",
                                cert.steps[k as usize].name
                            ),
                        });
                    }
                }
            }
        }
        // completeness: every precondition must be witnessed
        for &p in &act.preconds {
            if !step.preconds.iter().any(|w| w.prop == p) {
                return Err(CertViolation::MissingPrecondWitness {
                    step: i,
                    prop: task.prop_name(p).to_string(),
                });
            }
        }
    }
    for &g in &task.goal_props {
        let Some(w) = cert.goals.iter().find(|w| w.prop == g) else {
            return Err(CertViolation::GoalUnwitnessed { prop: task.prop_name(g).to_string() });
        };
        match w.by {
            Provenance::Init => {
                if !task.initially(g) {
                    return Err(CertViolation::BadWitness {
                        step: usize::MAX,
                        prop: task.prop_name(g).to_string(),
                        reason: "claimed initial but not initially true".into(),
                    });
                }
            }
            Provenance::Step(k) => {
                if k as usize >= cert.steps.len() || !adds_prop(k, g) {
                    return Err(CertViolation::BadWitness {
                        step: usize::MAX,
                        prop: task.prop_name(g).to_string(),
                        reason: format!("step {k} does not add it"),
                    });
                }
            }
        }
    }

    // ---- numeric layer: independent exact execution ------------------
    let actions: Vec<_> = cert.steps.iter().map(|s| s.action).collect();
    let claimed: Vec<&[(GVarId, f64)]> = cert.steps.iter().map(|s| s.writes.as_slice()).collect();
    execute_against(task, &actions, &cert.sources, Some(&claimed))?;

    // ---- bound trail -------------------------------------------------
    let cost: f64 = actions.iter().map(|&a| task.action(a).cost).sum();
    let b = &cert.bound;
    if (cost - b.plan_cost).abs() > COST_TOL {
        return Err(CertViolation::CostMismatch { claimed: b.plan_cost, actual: cost });
    }
    let check_gap = |basis: f64, label: &str| -> Result<(), CertViolation> {
        let justified = (b.plan_cost - basis).max(0.0);
        match b.claimed_gap {
            None => Err(CertViolation::GapInconsistent {
                detail: format!("{label} basis recorded but no gap claimed"),
            }),
            Some(g) if g < justified - COST_TOL => {
                Err(CertViolation::GapUnderstated { claimed: g, justified })
            }
            Some(g) if g > justified + COST_TOL => Err(CertViolation::GapInconsistent {
                detail: format!("claims ≤ {g} but the {label} bound justifies ≤ {justified}"),
            }),
            Some(_) => Ok(()),
        }
    };
    match b.gap_basis {
        GapBasis::Proved => {
            // a search cut short by a budget, a deadline or lossy pruning
            // proved nothing about the plans it never reached
            if !b.gap_proved() {
                return Err(CertViolation::GapInconsistent {
                    detail: "proved-optimal basis but the trail records a cut-short search".into(),
                });
            }
            match b.claimed_gap {
                Some(g) if g.abs() <= COST_TOL => {}
                other => {
                    return Err(CertViolation::GapInconsistent {
                        detail: format!("proved-optimal basis requires gap 0.0, found {other:?}"),
                    })
                }
            }
        }
        GapBasis::RootBound => {
            let Some(rb) = b.root_bound else {
                return Err(CertViolation::GapInconsistent {
                    detail: "root-bound basis but no root bound recorded".into(),
                });
            };
            check_gap(rb, "root")?;
        }
        GapBasis::FrontierBound => {
            let Some(fb) = b.frontier_bound else {
                return Err(CertViolation::GapInconsistent {
                    detail: "frontier-bound basis but no frontier bound recorded".into(),
                });
            };
            check_gap(fb, "frontier")?;
        }
        GapBasis::Unbounded => {
            if let Some(g) = b.claimed_gap {
                return Err(CertViolation::GapInconsistent {
                    detail: format!("gap ≤ {g} claimed with no recorded bound"),
                });
            }
        }
    }
    Ok(CheckReport {
        steps: cert.steps.len(),
        ledger_entries: cert.ledger_entries(),
        outcome: cert.outcome,
        gap_proved: b.gap_proved(),
    })
}

/// The checker's exact forward executor.
///
/// Runs `actions` at the given `sources` over the task's initial numeric
/// state. When `claimed` rows are supplied, every recomputed write is
/// compared cell-by-cell against its claim; otherwise the computed rows
/// are returned (used by [`crate::certify_by_execution`] to *build* a
/// ledger with the same machinery that later checks it).
pub(crate) fn execute_against(
    task: &PlanningTask,
    actions: &[sekitei_model::ActionId],
    sources: &[(GVarId, f64)],
    claimed: Option<&[&[(GVarId, f64)]]>,
) -> Result<Vec<Vec<(GVarId, f64)>>, CertViolation> {
    let n = task.gvars.len();
    let mut state: Vec<f64> = vec![0.0; n];
    let mut defined: Vec<bool> = vec![false; n];

    // capacities enter as point values; sources must be certified
    for (i, init) in task.init_values.iter().enumerate() {
        let Some(init) = init else { continue };
        if !matches!(task.gvars[i], GVarData::IfaceProp { .. }) {
            state[i] = init.lo;
            defined[i] = true;
        }
    }
    for &(v, x) in sources {
        if v.index() >= n {
            return Err(CertViolation::Malformed(format!(
                "source names variable #{} of {n}",
                v.index()
            )));
        }
        let within = match task.init_values[v.index()] {
            Some(avail) if matches!(task.gvars[v.index()], GVarData::IfaceProp { .. }) => {
                x >= avail.lo - SOURCE_TOL && x <= avail.hi + SOURCE_TOL
            }
            _ => false, // not a stream source at all
        };
        if !within {
            return Err(CertViolation::SourceOutOfRange {
                var: task.gvar_name(v).to_string(),
                value: x,
            });
        }
        if defined[v.index()] {
            return Err(CertViolation::Malformed(format!(
                "duplicate source `{}`",
                task.gvar_name(v)
            )));
        }
        state[v.index()] = x;
        defined[v.index()] = true;
    }

    let mut rows: Vec<Vec<(GVarId, f64)>> = Vec::with_capacity(actions.len());
    let mut values: Vec<f64> = Vec::new();
    for (i, &aid) in actions.iter().enumerate() {
        let act = task.action(aid);
        for &(v, _) in &act.optimistic {
            if !defined[v.index()] {
                return Err(CertViolation::UndefinedRead {
                    step: i,
                    var: task.gvar_name(v).to_string(),
                });
            }
        }
        {
            let mut env = |v: &GVarId| if defined[v.index()] { state[v.index()] } else { 0.0 };
            for (ci, cond) in act.conditions.iter().enumerate() {
                if !cond.holds(&mut env) {
                    return Err(CertViolation::ConditionFailed {
                        step: i,
                        cond: ci,
                        text: render_cond(task, cond),
                    });
                }
            }
        }
        // value expressions read the pre-state; accumulation below reads
        // the running state (an action's earlier effect on the same target
        // is visible to its later ones) — identical to the planner's
        // binding semantics, re-derived here from the model contract
        values.clear();
        {
            let mut env = |v: &GVarId| if defined[v.index()] { state[v.index()] } else { 0.0 };
            values.extend(act.effects.iter().map(|e| e.value.eval(&mut env)));
        }
        let mut written: Vec<(GVarId, f64)> = Vec::with_capacity(act.effects.len());
        for (k, (e, &val)) in act.effects.iter().zip(&values).enumerate() {
            let cur = if defined[e.target.index()] { state[e.target.index()] } else { 0.0 };
            let new = match e.op {
                AssignOp::Set => val,
                AssignOp::Sub => {
                    let post = cur - val;
                    if post < -sekitei_model::EPS {
                        return Err(CertViolation::ResourceNegative {
                            step: i,
                            var: task.gvar_name(e.target).to_string(),
                            value: post,
                        });
                    }
                    post.max(0.0)
                }
                AssignOp::Add => cur + val,
            };
            state[e.target.index()] = new;
            defined[e.target.index()] = true;
            if let Some(claims) = claimed {
                let row = claims[i];
                let Some(&(cv, cx)) = row.get(k) else {
                    return Err(CertViolation::LedgerShape {
                        step: i,
                        detail: format!(
                            "row has {} writes, action `{}` performs {}",
                            row.len(),
                            act.name,
                            act.effects.len()
                        ),
                    });
                };
                if cv != e.target {
                    return Err(CertViolation::LedgerShape {
                        step: i,
                        detail: format!(
                            "write #{k} targets `{}`, execution writes `{}`",
                            task.gvar_name(cv),
                            task.gvar_name(e.target)
                        ),
                    });
                }
                if (cx - new).abs() > VALUE_TOL {
                    return Err(CertViolation::LedgerMismatch {
                        step: i,
                        var: task.gvar_name(e.target).to_string(),
                        claimed: cx,
                        actual: new,
                    });
                }
            }
            written.push((e.target, new));
        }
        if let Some(claims) = claimed {
            if claims[i].len() > act.effects.len() {
                return Err(CertViolation::LedgerShape {
                    step: i,
                    detail: format!(
                        "row has {} writes, action `{}` performs {}",
                        claims[i].len(),
                        act.name,
                        act.effects.len()
                    ),
                });
            }
        }
        rows.push(written);
    }
    Ok(rows)
}

fn render_cond(task: &PlanningTask, cond: &sekitei_model::Cond<GVarId>) -> String {
    cond.map_vars(&mut |v: &GVarId| task.gvar_name(*v).to_string()).to_string()
}
