//! The closed maintenance loop: deploy, watch the network churn, detect
//! violations with the simulator, repair with the adaptation planner.
//!
//! Per event the engine (1) applies the mutation to its working copy of
//! the problem's network, (2) re-validates the *current* deployment with
//! [`sekitei_sim::simulate`] — the independent oracle, not the planner's
//! own model — (3) on violation classifies which placements / crossings /
//! goals broke, and (4) repairs: first via [`adapt_problem`] (keep/migrate
//! pricing around the existing placements), falling back to scratch
//! replanning, validating every candidate in the simulator before
//! adopting it. A failed repair leaves the deployment down until a later
//! event (typically a recovery or rejoin) makes it valid or repairable
//! again — the engine retries on every event while down.
//!
//! Determinism contract: with a deadline-free [`PlannerConfig`] (the
//! default here — worst-case search is bounded by the deterministic
//! [`PlannerConfig::max_nodes`] budget instead of wall-clock), the full
//! event log and summary are identical across runs. Wall-clock repair
//! latency is still *measured*, but kept out of the deterministic
//! rendering — [`ChurnSummary::render_timing`] is a separate, explicitly
//! non-reproducible report.

use crate::event::{apply, ChurnEvent};
use sekitei_cert::{check_certificate, rebind, PlanCertificate};
use sekitei_compile::{compile, ActionKind, PlanningTask};
use sekitei_model::{adapt_problem, AdaptConfig, CppProblem};
use sekitei_planner::{plan_diff, Plan, Planner, PlannerConfig};
use sekitei_sim::{existing_from_plan, plan_ops, plan_sources, simulate, DeployOp, SourceValue};
use std::time::{Duration, Instant};

/// Closed-loop configuration.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Planner configuration for the initial plan and every repair.
    pub planner: PlannerConfig,
    /// Keep/migrate cost model for adaptation repairs.
    pub adapt: AdaptConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            planner: PlannerConfig {
                // deterministic search bound (see module docs) plus
                // graceful degradation, so a repair under pressure yields
                // a degraded plan rather than an outage
                max_nodes: 300_000,
                degrade: true,
                ..PlannerConfig::default()
            },
            adapt: AdaptConfig::default(),
        }
    }
}

/// Which route produced a repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairRoute {
    /// Adaptation around the existing placements.
    Adapt,
    /// Scratch replanning (adaptation failed or produced an invalid plan).
    Scratch,
}

/// A successful repair.
#[derive(Debug, Clone)]
pub struct Repair {
    /// How the repaired plan was obtained.
    pub route: RepairRoute,
    /// Placements unchanged from the previous deployment.
    pub kept: usize,
    /// Components that moved to a different node.
    pub moved: usize,
    /// True when the planner returned a degraded (relaxed-bound) plan.
    pub degraded: bool,
    /// The repair's certificate, rebound onto a fresh compile of the
    /// *mutated, unadapted* problem and checked before adoption. The
    /// engine refuses to adopt a candidate whose certificate does not
    /// re-check, so an adopted repair always carries one.
    pub certificate: Option<PlanCertificate>,
    /// Repair wall-clock (measured; excluded from deterministic output).
    pub wall: Duration,
}

/// What happened at one event.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The current deployment still validates.
    Healthy,
    /// The deployment broke and was repaired.
    Repaired(Repair),
    /// The deployment broke (or stayed broken) and no repair was found.
    Down {
        /// Wall-clock spent on the failed repair attempt.
        wall: Duration,
    },
}

/// Per-event log entry.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// The event.
    pub event: ChurnEvent,
    /// Broken deployment sites (placements `C@n`, crossings `I:a→b`,
    /// goals `goal(C@n)`), deduplicated, in violation order. Empty when
    /// healthy.
    pub broken: Vec<String>,
    /// The outcome.
    pub outcome: Outcome,
}

impl EventRecord {
    /// Render one deterministic log line (wall-clock omitted).
    pub fn render(&self, problem: &CppProblem) -> String {
        let mut line = format!("{:<28}", crate::event::render_event(&self.event, &problem.network));
        match &self.outcome {
            Outcome::Healthy => line.push_str(" ok"),
            Outcome::Repaired(r) => {
                let route = match r.route {
                    RepairRoute::Adapt => "adapt",
                    RepairRoute::Scratch => "scratch",
                };
                line.push_str(&format!(
                    " broken [{}] repaired via {route} (kept {}, moved {}{})",
                    self.broken.join(", "),
                    r.kept,
                    r.moved,
                    if r.degraded { ", degraded" } else { "" },
                ));
            }
            Outcome::Down { .. } => {
                line.push_str(&format!(
                    " broken [{}] DOWN (no repair found)",
                    self.broken.join(", ")
                ));
            }
        }
        line
    }
}

/// Aggregate maintenance statistics over a run.
#[derive(Debug, Clone, Default)]
pub struct ChurnSummary {
    /// Events processed.
    pub events: usize,
    /// Events that found the current deployment invalid.
    pub faults: usize,
    /// Successful adaptation repairs.
    pub adapt_repairs: usize,
    /// Successful scratch repairs.
    pub scratch_repairs: usize,
    /// Repairs that adopted a degraded plan.
    pub degraded_repairs: usize,
    /// Events where no repair was found.
    pub failed_repairs: usize,
    /// Repairs whose certificate was rebound and re-checked against the
    /// mutated network before adoption (always equals `repairs()` — the
    /// engine rejects candidates that fail re-certification).
    pub recertified_repairs: usize,
    /// Placements kept across all repairs.
    pub kept: usize,
    /// Components moved across all repairs.
    pub moved: usize,
    /// Simulated time units the deployment was valid.
    pub up_time: u64,
    /// Total simulated time (last event time + 1; 1 for an empty trace).
    pub total_time: u64,
    /// Wall-clock of every repair attempt, successful or not (measured;
    /// excluded from deterministic output).
    pub repair_walls: Vec<Duration>,
}

impl ChurnSummary {
    /// Successful repairs (either route).
    pub fn repairs(&self) -> usize {
        self.adapt_repairs + self.scratch_repairs
    }

    /// Fraction of simulated time the deployment was valid.
    pub fn availability(&self) -> f64 {
        self.up_time as f64 / self.total_time as f64
    }

    /// Render the deterministic summary table.
    pub fn render(&self) -> String {
        format!(
            "events          {}\n\
             faults          {}\n\
             repairs         {} (adapt {}, scratch {}, degraded {}, recertified {})\n\
             failed repairs  {}\n\
             plan churn      kept {}, moved {}\n\
             availability    {:.1}% ({}/{} time units)\n",
            self.events,
            self.faults,
            self.repairs(),
            self.adapt_repairs,
            self.scratch_repairs,
            self.degraded_repairs,
            self.recertified_repairs,
            self.failed_repairs,
            self.kept,
            self.moved,
            100.0 * self.availability(),
            self.up_time,
            self.total_time,
        )
    }

    /// Render measured repair latency (min/median/max). Wall-clock, hence
    /// *not* deterministic — callers keep it out of reproducible output
    /// (the CLI sends it to stderr).
    pub fn render_timing(&self) -> String {
        if self.repair_walls.is_empty() {
            return "repair latency  (no repair attempts)\n".into();
        }
        let mut walls = self.repair_walls.clone();
        walls.sort();
        format!(
            "repair latency  min {:?}, median {:?}, max {:?} over {} attempts\n",
            walls[0],
            walls[walls.len() / 2],
            walls[walls.len() - 1],
            walls.len(),
        )
    }
}

/// Full result of a closed-loop run.
#[derive(Debug)]
pub struct ChurnReport {
    /// Per-event log.
    pub records: Vec<EventRecord>,
    /// Aggregates.
    pub summary: ChurnSummary,
    /// Certificate of the initial (pre-churn) deployment, exactly as the
    /// planner emitted it.
    pub initial_certificate: Option<PlanCertificate>,
}

/// A live deployment: the plan plus its simulator realization.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The plan (CompIds valid against the *base* problem — adaptation
    /// only appends resources and rewrites cost formulas).
    pub plan: Plan,
    /// Simulator operations.
    pub ops: Vec<DeployOp>,
    /// Concrete source injections.
    pub sources: Vec<SourceValue>,
}

impl Deployment {
    fn new(problem: &CppProblem, task: &PlanningTask, plan: Plan) -> Self {
        let ops = plan_ops(problem, &plan);
        let sources = plan_sources(problem, task, &plan);
        Deployment { plan, ops, sources }
    }
}

/// Why a closed-loop run could not start.
#[derive(Debug)]
pub enum ChurnError {
    /// The initial problem failed to compile/plan.
    Plan(String),
    /// The initial problem is unsolvable — nothing to maintain.
    Unsolvable,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Plan(e) => write!(f, "initial planning failed: {e}"),
            ChurnError::Unsolvable => write!(f, "initial problem is unsolvable"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Run the closed loop: plan `problem`, then process `events` in order.
///
/// Availability accounting: the deployment's validity during
/// `[t_prev, t_ev)` is its state *after* processing the previous event;
/// repairs are instantaneous in simulated time (downtime accrues only
/// while no repair exists). The horizon is `last_t + 1`, so the final
/// post-event state contributes one unit.
pub fn run(
    problem: &CppProblem,
    events: &[ChurnEvent],
    cfg: &ChurnConfig,
) -> Result<ChurnReport, ChurnError> {
    let _span = sekitei_obs::span("churn_run");
    let mut current = problem.clone();
    let baseline = problem.network.clone();

    let outcome =
        Planner::new(cfg.planner).plan(&current).map_err(|e| ChurnError::Plan(e.to_string()))?;
    let plan = outcome.plan.ok_or(ChurnError::Unsolvable)?;
    let initial_certificate = plan.certificate.clone();
    let mut dep = Deployment::new(&current, &outcome.task, plan);
    debug_assert!(simulate(&current, &dep.sources, &dep.ops).ok);

    let mut records = Vec::with_capacity(events.len());
    let mut summary = ChurnSummary { events: events.len(), ..ChurnSummary::default() };
    let mut valid = true;
    let mut prev_t = 0u64;

    for ev in events {
        if valid {
            summary.up_time += ev.t.saturating_sub(prev_t);
        }
        prev_t = ev.t;
        apply(&ev.mutation, &mut current.network, &baseline);

        let _ev_span = sekitei_obs::span("churn_event");
        let report = {
            let _g = sekitei_obs::span("validate");
            simulate(&current, &dep.sources, &dep.ops)
        };
        if report.ok {
            // either still healthy, or a recovery/rejoin just made the
            // old deployment valid again after a failed repair
            valid = true;
            records.push(EventRecord {
                event: ev.clone(),
                broken: Vec::new(),
                outcome: Outcome::Healthy,
            });
            continue;
        }

        summary.faults += 1;
        sekitei_obs::event("churn_fault", 1);
        let broken = {
            let _g = sekitei_obs::span("classify");
            classify(&current, &dep.ops, &report.violations)
        };
        let t0 = Instant::now();
        let repaired = {
            let _g = sekitei_obs::span("repair");
            repair(&cfg.planner, &current, &dep, &cfg.adapt)
        };
        let wall = t0.elapsed();
        // wall-clock stays out of the deterministic stdout rendering; the
        // trace is where timing per event lives (`--trace-json` on churn)
        sekitei_obs::event("repair_wall_ns", wall.as_nanos() as u64);
        summary.repair_walls.push(wall);

        let outcome = match repaired {
            Some((route, new_dep)) => {
                let diff = plan_diff(&dep.plan, &new_dep.plan);
                let repair = Repair {
                    route,
                    kept: diff.kept.len(),
                    moved: diff.moved.len(),
                    degraded: new_dep.plan.degraded,
                    certificate: new_dep.plan.certificate.clone(),
                    wall,
                };
                summary.kept += repair.kept;
                summary.moved += repair.moved;
                summary.degraded_repairs += usize::from(repair.degraded);
                summary.recertified_repairs += usize::from(repair.certificate.is_some());
                match route {
                    RepairRoute::Adapt => {
                        summary.adapt_repairs += 1;
                        sekitei_obs::event("repair_adapt", 1);
                    }
                    RepairRoute::Scratch => {
                        summary.scratch_repairs += 1;
                        sekitei_obs::event("repair_scratch", 1);
                    }
                }
                dep = new_dep;
                valid = true;
                Outcome::Repaired(repair)
            }
            None => {
                summary.failed_repairs += 1;
                sekitei_obs::event("repair_failed", 1);
                valid = false;
                Outcome::Down { wall }
            }
        };
        records.push(EventRecord { event: ev.clone(), broken, outcome });
    }

    if valid {
        summary.up_time += 1;
    }
    summary.total_time = events.last().map_or(1, |e| e.t + 1);
    Ok(ChurnReport { records, summary, initial_certificate })
}

/// Attempt a repair of `dep` against the mutated `current` problem:
/// adaptation first, scratch as fallback. Every candidate is validated in
/// the simulator **against the unadapted problem** before adoption (the
/// marker resources only appear in cost formulas, so ops and sources
/// carry over unchanged).
fn repair(
    planner_cfg: &PlannerConfig,
    current: &CppProblem,
    dep: &Deployment,
    adapt_cfg: &AdaptConfig,
) -> Option<(RepairRoute, Deployment)> {
    let existing = existing_from_plan(current, &dep.plan);
    let adapted = adapt_problem(current, &existing, adapt_cfg);
    // an anytime repair seeds the SLS incumbent near the pre-churn
    // deployment: the greedy constructor breaks ties toward the current
    // plan's action kinds, so a repair under pressure starts from "move as
    // little as possible" rather than from scratch
    let hint: Vec<ActionKind> = dep.plan.steps.iter().map(|s| s.kind.clone()).collect();
    if let Some((task, plan)) = plan_for_repair(planner_cfg, &adapted, &hint) {
        let d = Deployment::new(&adapted, &task, plan);
        if simulate(current, &d.sources, &d.ops).ok {
            if let Some(d) = recertify(current, &task, d) {
                return Some((RepairRoute::Adapt, d));
            }
        }
    }
    let (task, plan) = plan_for_repair(planner_cfg, current, &hint)?;
    let d = Deployment::new(current, &task, plan);
    if !simulate(current, &d.sources, &d.ops).ok {
        return None;
    }
    recertify(current, &task, d).map(|d| (RepairRoute::Scratch, d))
}

/// Re-certify a repair candidate against the mutated network: rebind the
/// planner's certificate from the task it was planned against (which may
/// be the *adapted* problem's, whose marker resources shift every index)
/// onto a fresh compile of the unadapted `current` problem, then run the
/// independent checker on the result. A candidate that cannot produce a
/// checkable certificate is rejected — the loop falls through to the next
/// route or reports the deployment down, so every adopted repair is
/// auditable offline against the network it actually runs on.
fn recertify(
    current: &CppProblem,
    planned_task: &PlanningTask,
    mut d: Deployment,
) -> Option<Deployment> {
    let cert = d.plan.certificate.as_ref()?;
    let fresh = compile(current).ok()?;
    let rebound = rebind(cert, planned_task, &fresh).ok()?;
    check_certificate(&fresh, &rebound).ok()?;
    d.plan.certificate = Some(rebound);
    Some(d)
}

/// One repair-planning attempt through the planning entry, which runs the
/// anytime portfolio (hinted toward the pre-churn deployment) when
/// configured. `t0` is taken before `compile`, as [`Planner::plan`] does.
fn plan_for_repair(
    planner_cfg: &PlannerConfig,
    problem: &CppProblem,
    hint: &[ActionKind],
) -> Option<(PlanningTask, Plan)> {
    let _span = sekitei_obs::span("plan");
    let t0 = Instant::now();
    let task = compile(problem).ok()?;
    let a = sekitei_anytime::plan_task_hinted(problem, task, planner_cfg, t0, hint);
    let plan = a.outcome.plan?;
    Some((a.outcome.task, plan))
}

/// Map violations to deployment sites: the op at the violating step, or
/// the goal itself. Deduplicated, order of first occurrence.
fn classify(
    problem: &CppProblem,
    ops: &[DeployOp],
    violations: &[sekitei_sim::Violation],
) -> Vec<String> {
    use sekitei_sim::Violation;
    let name = |n: sekitei_model::NodeId| problem.network.node(n).name.as_str();
    let site = |step: usize| match &ops[step] {
        DeployOp::Place { component, node } => format!("{component}@{}", name(*node)),
        DeployOp::Cross { iface, dir } => {
            format!("{iface}:{}→{}", name(dir.from), name(dir.to))
        }
    };
    let mut out: Vec<String> = Vec::new();
    for v in violations {
        let s = match v {
            Violation::MissingInput { step, .. }
            | Violation::ConditionViolated { step, .. }
            | Violation::ResourceNegative { step, .. }
            | Violation::PlacementForbidden { step, .. }
            | Violation::UnknownName { step, .. } => site(*step),
            Violation::GoalUnmet { component, node } => {
                format!("goal({component}@{})", name(*node))
            }
        };
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}
