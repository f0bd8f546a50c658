//! # sekitei-anytime
//!
//! Anytime portfolio planning: the exact RG search raced against a
//! stochastic local-search lane under an SLO, so a serving stack always
//! has *some* sim-validated plan with a reported optimality gap instead
//! of the all-or-nothing exact verdict.
//!
//! Two lanes run in scoped threads over one compiled task:
//!
//! * **Exact** — [`sekitei_planner::Planner::plan_task_bounded`], the
//!   unchanged A* regression search.
//! * **SLS** — [`sls`]: a deterministic seeded greedy constructor (the
//!   paper's original-Sekitei baseline) produces an initial incumbent,
//!   then fixed-schedule stochastic rollouts with simulated-annealing
//!   acceptance improve it. Every candidate incumbent is validated by
//!   replay, concretization and the full simulator before publication.
//!
//! The entry points ([`plan`], [`plan_task`], [`plan_task_hinted`]) are
//! what the CLI, the server and the churn engine call; they run the SLS
//! lane only when [`PlannerConfig::anytime`] is set, and otherwise return
//! the plain planner's outcome.
//!
//! The lanes share one monotone incumbent cost through an atomic
//! ([`sekitei_planner::IncumbentBound`]). When a deadline is configured,
//! the RG consumes it as a sound A* upper bound: a popped node with
//! `f` strictly above the incumbent proves the remaining search cannot
//! beat it and terminates the exact lane. Without a deadline the bound is
//! left unarmed, so the exact trajectory — and therefore the returned
//! plan on every solvable instance — is bit-identical to the plain
//! planner (the anytime lane is purely additive: its incumbent only
//! fills in where the exact search returns nothing, replacing the weaker
//! `concretize_relaxed` degraded path).
//!
//! # Determinism
//!
//! The incumbent cell has a single writer (the SLS thread), and the SLS
//! schedule is fixed work, not wall-clock work — so for a fixed
//! `sls_seed` the final incumbent is a pure function of the problem,
//! byte-identical across runs. The exact lane's *counters* can vary
//! under an armed cutoff (where the trajectory ends depends on when
//! improvements land), but the returned plan and gap cannot:
//!
//! * With no deadline the cutoff is unarmed and every ending is
//!   deterministic.
//! * With a deadline, the incumbent (deterministic) is returned whenever
//!   the exact lane has no accepted plan, and its gap is measured
//!   against the *root* heuristic bound `h(goal)` — deterministic by
//!   construction — rather than the timing-dependent frontier bound.
//!   When the exact lane does finish first with a plan at least as cheap
//!   as the incumbent, that plan was produced before any cutoff could
//!   fire (A* pops in `f` order, so a cutoff implies the incumbent
//!   strictly beats every remaining plan), and the selection below picks
//!   the same winner either way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sls;

pub use sls::{Incumbent, SlsStats};

use sekitei_cert as cert;
use sekitei_compile::{compile, ActionKind, PlanningTask};
use sekitei_model::CppProblem;
use sekitei_planner::{IncumbentBound, PlanError, PlanOutcome, Planner, PlannerConfig};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Result of an anytime planning run: the planner outcome (with
/// [`sekitei_planner::PlannerStats::optimality_gap`] filled in under the
/// deterministic gap rules) plus lane accounting.
#[derive(Debug)]
pub struct AnytimeOutcome {
    /// The selected outcome. `outcome.plan` is the exact plan when the RG
    /// accepted one at least as cheap as the incumbent, otherwise the
    /// sim-validated incumbent (tagged `degraded` when its sources bound
    /// at relaxed values).
    pub outcome: PlanOutcome,
    /// True when the returned plan is the SLS incumbent rather than the
    /// exact search's answer.
    pub incumbent_used: bool,
    /// SLS lane counters (all zero when the lane did not run).
    pub sls: SlsStats,
}

/// Compile and solve a CPP instance in anytime portfolio mode.
pub fn plan(problem: &CppProblem, cfg: &PlannerConfig) -> Result<AnytimeOutcome, PlanError> {
    let _span = sekitei_obs::span("plan");
    let t0 = Instant::now();
    let task = compile(problem)?;
    Ok(plan_task(problem, task, cfg, t0))
}

/// Anytime-solve an already-compiled task (`t0` anchors deadlines and
/// total-time reporting, like [`Planner::plan_task`]).
pub fn plan_task(
    problem: &CppProblem,
    task: PlanningTask,
    cfg: &PlannerConfig,
    t0: Instant,
) -> AnytimeOutcome {
    plan_task_hinted(problem, task, cfg, t0, &[])
}

/// [`plan_task`] with a hint: action kinds of a prior plan (churn repair
/// passes the pre-churn deployment) that bias the greedy constructor's
/// tie-breaks, seeding the incumbent near the current configuration.
///
/// This is the one place that decides whether the SLS lane runs. Without
/// [`PlannerConfig::anytime`] the outcome is [`Planner::plan_task`]'s,
/// with `incumbent_used` false, empty [`SlsStats`] and no `anytime` span.
pub fn plan_task_hinted(
    problem: &CppProblem,
    task: PlanningTask,
    cfg: &PlannerConfig,
    t0: Instant,
    hint: &[ActionKind],
) -> AnytimeOutcome {
    let planner = Planner::new(*cfg);
    if !cfg.anytime {
        let outcome = planner.plan_task(task, t0);
        return AnytimeOutcome { outcome, incumbent_used: false, sls: SlsStats::default() };
    }
    let _span = sekitei_obs::span("anytime");
    let cell = AtomicU64::new(f64::INFINITY.to_bits());
    // the incumbent prunes the exact search only under an SLO; with no
    // deadline the exact lane must run to its deterministic conclusion so
    // plans stay bit-identical to the non-anytime planner
    let armed = cfg.deadline.is_some();
    let sls_t0 = sekitei_obs::now_ns();
    let t_portfolio = Instant::now();
    let (mut outcome, lane) = std::thread::scope(|s| {
        let task_ref = &task;
        let cell_ref = &cell;
        let handle = s.spawn(move || sls::run_lane(problem, task_ref, cfg, hint, cell_ref));
        let bound = if armed { IncumbentBound::shared(&cell) } else { IncumbentBound::none() };
        let outcome = planner.plan_task_bounded(task.clone(), t0, bound);
        // always join the full fixed schedule: the final incumbent must be
        // a pure function of the seed, not of how fast the exact lane ran
        let lane = handle.join().expect("sls lane never panics");
        (outcome, lane)
    });
    // the caller waited for both lanes, not just the exact one
    outcome.stats.search_time = t_portfolio.elapsed();
    if sekitei_obs::enabled() {
        sekitei_obs::aggregate(
            "sls",
            sls_t0,
            lane.stats.time.as_nanos() as u64,
            lane.stats.rollouts as u64,
        );
        sekitei_obs::event("sls_rollouts", lane.stats.rollouts as u64);
        sekitei_obs::event("sls_completed", lane.stats.completed as u64);
        sekitei_obs::event("sls_validated", lane.stats.validated as u64);
        sekitei_obs::event("sls_incumbent_improvements", lane.stats.improvements as u64);
    }

    let mut incumbent_used = false;
    if let Some(inc) = lane.best {
        let exact_wins = match &outcome.plan {
            // an accepted exact plan is kept unless the portfolio is racing
            // under a deadline AND the incumbent strictly beats it — the
            // one selection rule that is invariant to whether a cutoff
            // preempted this very ending (see the module doc)
            Some(p) if !p.degraded => !(armed && inc.cost < p.cost_lower_bound),
            // a degraded fallback (or nothing) always yields to a
            // sim-validated incumbent
            _ => false,
        };
        if !exact_wins {
            let (gap, gap_basis) = if armed {
                // deterministic under a deadline: measured against the
                // root bound, never the timing-dependent frontier bound
                match outcome.stats.root_bound {
                    Some(rb) if rb.is_finite() => {
                        ((inc.cost - rb).max(0.0), cert::GapBasis::RootBound)
                    }
                    Some(_) => (0.0, cert::GapBasis::RootBound),
                    _ => (0.0, cert::GapBasis::Proved),
                }
            } else if outcome.stats.budget_exhausted {
                // deterministic exhaustion: the frontier bound stands
                match outcome.stats.best_bound {
                    Some(b) => ((inc.cost - b).max(0.0), cert::GapBasis::FrontierBound),
                    None => (0.0, cert::GapBasis::Proved),
                }
            } else {
                // the exact search proved no (cheaper) greedy-valid plan
                // exists — the incumbent is optimal-or-better
                (0.0, cert::GapBasis::Proved)
            };
            // re-certify: the incumbent replaces whatever the exact lane
            // produced, so it gets its own certificate under the anytime
            // gap rules just applied
            outcome.stats.optimality_gap = Some(gap);
            let mut inc_plan = inc.plan;
            inc_plan.certify(
                &outcome.task,
                &outcome.stats,
                cfg,
                cert::OutcomeClass::AnytimeIncumbent,
                gap_basis,
            );
            outcome.plan = Some(inc_plan);
            incumbent_used = true;
            if sekitei_obs::enabled() {
                sekitei_obs::event("optimality_gap_milli", (gap * 1000.0).round() as u64);
            }
        }
    }
    outcome.stats.total_time = t0.elapsed();
    AnytimeOutcome { outcome, incumbent_used, sls: lane.stats }
}
