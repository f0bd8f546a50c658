//! Plans: the planner's deliverable.

use crate::concretize::ConcreteExecution;
use crate::{PlannerConfig, PlannerStats};
use sekitei_cert::{BoundTrail, GapBasis, OutcomeClass};
use sekitei_compile::{ActionKind, GVarData, PlanningTask};
use sekitei_model::{ActionId, CppProblem, LinkClass};
use std::fmt;

/// One step of a deployment plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The ground action.
    pub action: ActionId,
    /// Rendered name (`place(Splitter,n0)[M=1,…]`).
    pub name: String,
    /// Semantic kind.
    pub kind: ActionKind,
    /// The action's lower-bound cost contribution.
    pub cost_lb: f64,
}

/// A validated deployment plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// Lower bound on the plan cost (the quantity the planner optimizes —
    /// paper §4: "our algorithm optimizes the minimum cost of the plan").
    pub cost_lower_bound: f64,
    /// The concrete greedy execution that validated the plan.
    pub execution: ConcreteExecution,
    /// True when this plan came from the graceful-degradation path (a
    /// budget or deadline tripped and the planner returned the cheapest
    /// interval-feasible candidate with relaxed source binding) rather than
    /// the optimal greedy-validated search exit.
    pub degraded: bool,
    /// The machine-checkable certificate for this plan, attached by the
    /// planning facade (and re-issued by the anytime portfolio / churn
    /// re-certification). `None` only for plans assembled outside the
    /// facade, e.g. directly from a raw RG search result in tests.
    pub certificate: Option<sekitei_cert::PlanCertificate>,
}

impl Plan {
    /// Assemble from the RG result.
    pub fn from_actions(
        task: &PlanningTask,
        actions: &[ActionId],
        cost: f64,
        execution: ConcreteExecution,
    ) -> Plan {
        let steps = actions
            .iter()
            .map(|&a| {
                let act = task.action(a);
                PlanStep {
                    action: a,
                    name: act.name.clone(),
                    kind: act.kind.clone(),
                    cost_lb: act.cost,
                }
            })
            .collect();
        Plan { steps, cost_lower_bound: cost, execution, degraded: false, certificate: None }
    }

    /// Issue this plan's certificate: the ledger its execution recorded
    /// while binding, plus the bound trail justifying
    /// [`PlannerStats::optimality_gap`], the gap the caller reports. Every
    /// certificate a planning run returns is issued here.
    pub fn certify(
        &mut self,
        task: &PlanningTask,
        stats: &PlannerStats,
        cfg: &PlannerConfig,
        class: OutcomeClass,
        gap_basis: GapBasis,
    ) {
        let trail = BoundTrail {
            plan_cost: self.cost_lower_bound,
            root_bound: stats.root_bound,
            frontier_bound: stats.best_bound,
            gap_basis,
            claimed_gap: stats.optimality_gap,
            incumbent_cutoff: stats.incumbent_cutoff,
            budget_exhausted: stats.budget_exhausted,
            deadline_hit: stats.deadline_hit,
            drain_mode: false,
            dominance: false,
            symmetry: cfg.symmetry,
        };
        let actions: Vec<_> = self.steps.iter().map(|s| s.action).collect();
        self.certificate = Some(sekitei_cert::emit(
            task,
            &actions,
            &self.execution.source_values,
            &self.execution.ledger,
            class,
            trail,
        ));
    }

    /// Number of actions (Table 2 col 3).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty plan (goals already satisfied).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Count of `place` steps.
    pub fn placements(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.kind, ActionKind::Place { .. })).count()
    }

    /// Count of `cross` steps.
    pub fn crossings(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.kind, ActionKind::Cross { .. })).count()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan ({} actions, cost ≥ {:.2}){}:",
            self.len(),
            self.cost_lower_bound,
            if self.degraded { " [degraded]" } else { "" }
        )?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>2}. {}  (cost ≥ {:.2})", i + 1, s.name, s.cost_lb)?;
        }
        Ok(())
    }
}

/// Resource-usage metrics of a concrete plan execution — Table 2 col 4 and
/// the Figure 9 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanMetrics {
    /// Maximum bandwidth reserved on any single LAN link.
    pub reserved_lan_bw: f64,
    /// Maximum bandwidth reserved on any single WAN link.
    pub reserved_wan_bw: f64,
    /// Total CPU consumed across all nodes.
    pub total_cpu: f64,
    /// Total bandwidth reserved across all links.
    pub total_bw: f64,
}

/// Compute resource metrics by differencing the concrete final state
/// against the network capacities.
pub fn plan_metrics(problem: &CppProblem, task: &PlanningTask, plan: &Plan) -> PlanMetrics {
    let mut m = PlanMetrics::default();
    for (i, gv) in task.gvars.iter().enumerate() {
        let v = sekitei_model::GVarId::from_index(i);
        let Some(&fin) = plan.execution.final_state.get(&v) else { continue };
        match gv {
            GVarData::NodeRes { res, node } => {
                let def = &problem.resources[*res as usize];
                let used = problem.network.node_capacity(*node, &def.name) - fin;
                if def.name == sekitei_model::resource::names::CPU {
                    m.total_cpu += used.max(0.0);
                }
            }
            GVarData::LinkRes { res, link } => {
                let def = &problem.resources[*res as usize];
                let used = (problem.network.link_capacity(*link, &def.name) - fin).max(0.0);
                if def.name == sekitei_model::resource::names::LBW {
                    m.total_bw += used;
                    match problem.network.link(*link).class {
                        LinkClass::Lan => m.reserved_lan_bw = m.reserved_lan_bw.max(used),
                        LinkClass::Wan => m.reserved_wan_bw = m.reserved_wan_bw.max(used),
                        LinkClass::Other => {}
                    }
                }
            }
            GVarData::IfaceProp { .. } => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plrg::Plrg;
    use crate::rg::{search, RgConfig};
    use crate::slrg::Slrg;
    use sekitei_compile::compile;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    fn plan_for(sc: LevelScenario) -> (sekitei_model::CppProblem, PlanningTask, Plan) {
        let p = scenarios::tiny(sc);
        let task = compile(&p).unwrap();
        let plrg = Plrg::build(&task);
        let mut slrg = Slrg::new(&task, &plrg, 50_000);
        let r = search(&task, &plrg, &mut slrg, &RgConfig::default());
        let (actions, cost, exec) = r.plan.expect("solvable");
        let plan = Plan::from_actions(&task, &actions, cost, exec);
        (p, task, plan)
    }

    #[test]
    fn plan_shape_and_display() {
        let (_, _, plan) = plan_for(LevelScenario::C);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.placements(), 5);
        assert_eq!(plan.crossings(), 2);
        assert!(!plan.is_empty());
        let s = plan.to_string();
        assert!(s.contains("7 actions"));
        assert!(s.contains("place(Client,n1)"));
    }

    #[test]
    fn metrics_on_tiny() {
        let (p, task, plan) = plan_for(LevelScenario::C);
        let m = plan_metrics(&p, &task, &plan);
        // Z(35) + I(30) cross the single WAN link at 100 processed units
        assert!((m.reserved_wan_bw - 65.0).abs() < 1e-6, "{m:?}");
        assert_eq!(m.reserved_lan_bw, 0.0);
        // CPU: 27 at n0 (Splitter+Zip) + 27 at n1 (Unzip+Merger)
        assert!((m.total_cpu - 54.0).abs() < 1e-6, "{m:?}");
        assert!((m.total_bw - 65.0).abs() < 1e-6);
    }

    #[test]
    fn step_costs_sum_to_bound() {
        let (_, _, plan) = plan_for(LevelScenario::C);
        let sum: f64 = plan.steps.iter().map(|s| s.cost_lb).sum();
        assert!((sum - plan.cost_lower_bound).abs() < 1e-9);
    }
}
