//! Failure diagnosis: explain *why* a CPP instance has no plan.
//!
//! The paper distinguishes two failure modes: logical unreachability (the
//! PLRG cannot even connect the goal to the initial state — "the problem
//! has no solution", §3.2.1) and resource infeasibility (every logically
//! valid configuration dies in replay or concretization — scenario A's
//! fate). [`diagnose`] classifies a failure and names the first missing
//! ingredient, which turns "no plan" into something a domain expert can
//! act on (add a source, relax a level, raise a capacity).

use crate::plan::Plan;
use crate::plrg::Plrg;
use crate::{PlanError, Planner, PlannerConfig};
use sekitei_compile::{compile_full, PropData};
use sekitei_model::CppProblem;

/// Outcome of a diagnosis.
#[derive(Debug)]
pub enum Diagnosis {
    /// A plan exists; included for convenience.
    Solvable {
        /// The plan found.
        plan: Box<Plan>,
    },
    /// The goal is logically unreachable: no sequence of actions can even
    /// propositionally connect it to the initial state.
    LogicallyUnreachable {
        /// Human-readable reasons, most fundamental first.
        reasons: Vec<String>,
    },
    /// Logically reachable, but every candidate plan violates resource
    /// constraints (the greedy scenario-A failure mode).
    ResourceInfeasible {
        /// Candidate plans rejected at terminal validation.
        candidate_rejects: usize,
        /// Plan tails pruned by optimistic-map replay.
        replay_prunes: usize,
        /// True when a search budget cut the exploration short — the
        /// instance *might* still be solvable.
        budget_exhausted: bool,
    },
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnosis::Solvable { plan } => {
                write!(f, "solvable: {} actions, cost ≥ {:.2}", plan.len(), plan.cost_lower_bound)
            }
            Diagnosis::LogicallyUnreachable { reasons } => {
                writeln!(f, "logically unreachable:")?;
                for r in reasons {
                    writeln!(f, "  - {r}")?;
                }
                Ok(())
            }
            Diagnosis::ResourceInfeasible {
                candidate_rejects,
                replay_prunes,
                budget_exhausted,
            } => {
                write!(
                    f,
                    "resource-infeasible: {candidate_rejects} candidate plans rejected, \
                     {replay_prunes} tails pruned by interval replay{}",
                    if *budget_exhausted {
                        " (search budget exhausted — possibly still solvable)"
                    } else {
                        ""
                    }
                )
            }
        }
    }
}

/// Diagnose a problem instance.
///
/// Works on the full grounding ([`compile_full`]): whether the goal
/// component can be deployed on some *other* node is a question about
/// actions outside the goal-relevant slice the planner builds.
pub fn diagnose(problem: &CppProblem, config: &PlannerConfig) -> Result<Diagnosis, PlanError> {
    let task = compile_full(problem)?;
    let plrg = Plrg::build(&task);

    if !plrg.solvable(&task) {
        let mut reasons = Vec::new();
        // goal-level reasons
        for &g in &task.goal_props {
            if plrg.prop_cost(g).is_finite() {
                continue;
            }
            if let PropData::Placed { comp, node } = task.prop(g) {
                let spec = problem.component(comp);
                let node_name = &problem.network.node(node).name;
                // does any placement of this component fire anywhere?
                let fires_somewhere = task.actions.iter().enumerate().any(|(i, a)| {
                    matches!(a.kind, sekitei_compile::ActionKind::Place { comp: c2, .. } if c2 == comp)
                        && plrg.action_value[i].is_finite()
                });
                if fires_somewhere {
                    reasons.push(format!(
                        "`{}` is deployable elsewhere but not on `{node_name}` — its inputs \
                         never reach that node at the required levels",
                        spec.name
                    ));
                } else {
                    // name the first required interface that is nowhere available
                    let mut named = false;
                    for r in &spec.requires {
                        let iface = problem.iface_id(r).expect("validated");
                        let reachable = task.props.iter().enumerate().any(|(pi, pd)| {
                            matches!(pd, PropData::Avail { iface: i2, .. } if *i2 == iface)
                                && plrg.value[pi].is_finite()
                        });
                        if !reachable {
                            reasons.push(format!(
                                "stream `{r}` (required by `{}`) is not producible anywhere: \
                                 no source provides it and no reachable component implements it",
                                spec.name
                            ));
                            named = true;
                        }
                    }
                    if !named {
                        reasons.push(format!(
                            "`{}` cannot be deployed on any node (level-pruned everywhere)",
                            spec.name
                        ));
                    }
                }
            }
        }
        if reasons.is_empty() {
            reasons.push("goal unreachable for an unidentified logical reason".into());
        }
        return Ok(Diagnosis::LogicallyUnreachable { reasons });
    }

    let outcome = Planner::new(*config).plan_task(task, std::time::Instant::now());
    match outcome.plan {
        Some(plan) => Ok(Diagnosis::Solvable { plan: Box::new(plan) }),
        None => Ok(Diagnosis::ResourceInfeasible {
            candidate_rejects: outcome.stats.candidate_rejects,
            replay_prunes: outcome.stats.replay_prunes,
            budget_exhausted: outcome.stats.budget_exhausted,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    #[test]
    fn solvable_instance() {
        let p = scenarios::tiny(LevelScenario::C);
        let d = diagnose(&p, &PlannerConfig::default()).unwrap();
        assert!(matches!(d, Diagnosis::Solvable { .. }));
        assert!(d.to_string().contains("solvable"));
    }

    #[test]
    fn missing_source_is_logical() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.sources.clear();
        let d = diagnose(&p, &PlannerConfig::default()).unwrap();
        match &d {
            Diagnosis::LogicallyUnreachable { reasons } => {
                assert!(
                    reasons.iter().any(|r| r.contains("`M`")),
                    "should name the missing M stream: {reasons:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(d.to_string().contains("unreachable"));
    }

    #[test]
    fn thin_link_leaves_the_client_deployable_elsewhere() {
        // a 10-unit link starves n1 of the M stream, but the client could
        // still run beside the server on n0 — an action outside the
        // goal-relevant slice the planner builds
        let mut p = scenarios::tiny(LevelScenario::C);
        let link = p.network.link_ids().next().unwrap();
        p.network.set_link_capacity(link, "lbw", 10.0);
        let d = diagnose(&p, &PlannerConfig::default()).unwrap();
        match &d {
            Diagnosis::LogicallyUnreachable { reasons } => {
                assert_eq!(reasons.len(), 1, "{reasons:?}");
                assert!(
                    reasons[0].starts_with("`Client` is deployable elsewhere but not on `n1`"),
                    "{reasons:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scenario_a_is_resource_infeasible() {
        let p = scenarios::tiny(LevelScenario::A);
        let d = diagnose(&p, &PlannerConfig::default()).unwrap();
        match d {
            Diagnosis::ResourceInfeasible { candidate_rejects, .. } => {
                assert!(candidate_rejects > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn impossible_deadline_is_resource_infeasible() {
        let p = scenarios::tradeoff_deadline(0.3, 10.0);
        let d = diagnose(&p, &PlannerConfig::default()).unwrap();
        match d {
            Diagnosis::ResourceInfeasible { replay_prunes, .. } => {
                assert!(replay_prunes > 0, "latency pruning should show up");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_error_propagates() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.goals.clear();
        assert!(diagnose(&p, &PlannerConfig::default()).is_err());
    }
}
