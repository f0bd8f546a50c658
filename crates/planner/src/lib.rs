//! # sekitei-planner
//!
//! The Sekitei regression planner with resource levels and cost
//! optimization — the primary contribution of *"Optimal Resource-Aware
//! Deployment Planning for Component-based Distributed Applications"*
//! (HPDC 2004).
//!
//! The algorithm runs in three phases (paper §3.2):
//!
//! 1. [`plrg`] — per-proposition cost bounds (admissible heuristic),
//! 2. [`slrg`] — A* cost bounds for *sets* of propositions,
//! 3. [`rg`] — A* over plan tails with optimistic-map [`replay`] pruning
//!    and greedy [`mod@concretize`]-and-validate termination.
//!
//! The original greedy Sekitei (paper §2.2) is the same machinery run on a
//! problem with trivial `[0, ∞)` levels (scenario A): level sups of ∞ make
//! the greedy concretization push maximum availability, reproducing the
//! worst-case resource assumption and its failures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concretize;
pub mod diagnose;
pub mod diff;
pub mod plan;
pub mod plrg;
pub mod pool;
mod prune;
pub mod reference;
pub mod replay;
pub mod rg;
pub mod setkey;
pub mod slrg;
pub mod viz;

pub use concretize::{
    concretize, concretize_relaxed, greedy_source_value, minimize_sources, ConcreteExecution,
    ConcretizeFail,
};
pub use diagnose::{diagnose, Diagnosis};
pub use diff::{plan_diff, PlanDiff};
pub use plan::{plan_metrics, Plan, PlanMetrics, PlanStep};
pub use plrg::Plrg;
pub use pool::{SetId, SetPool};
pub use prune::IncumbentBound;
pub use reference::{search_reference, ReferenceOutcome};
pub use replay::{replay_tail, ReplayFail, ReplayScratch, ResourceMap};
pub use rg::{Heuristic, RgResult};
pub use setkey::SetKey;
pub use slrg::{SetCost, Slrg, SlrgStats};
pub use viz::{network_dot, plan_dot};

pub use sekitei_cert as cert;

use sekitei_compile::{compile, CompileError, CompileStats, PlanningTask};
use sekitei_model::{ActionId, CppProblem};
use std::time::{Duration, Instant};

/// Planner configuration: the one configuration of the whole pipeline,
/// read by the RG search ([`rg::search`]), the reference oracle
/// ([`search_reference`]) and the anytime facade alike.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// RG node budget: the search aborts (reporting
    /// [`PlannerStats::budget_exhausted`] and a sound
    /// [`PlannerStats::best_bound`]) once this many RG nodes exist. Checked
    /// in the same budget slot of the expansion loop as the wall-clock
    /// deadline, but unlike the deadline it is *deterministic* — repair
    /// loops (`crates/churn`) use it to hard-bound worst-case search
    /// without giving up run-to-run reproducibility.
    pub max_nodes: usize,
    /// RG candidate-reject budget: the search aborts after rejecting this
    /// many candidate plans at terminal validation. An unsolvable
    /// unleveled instance (scenario A) generates candidate after candidate
    /// whose greedy-max execution fails; this is the "bound is reached"
    /// cutoff the paper mentions for that case. The exit records the
    /// rejected candidate's `f` as [`PlannerStats::best_bound`]
    /// ([`RgResult::best_open_f`]): candidates pop in `f` order, so no plan
    /// the search could still return costs less.
    pub max_candidate_rejects: usize,
    /// SLRG per-query expansion budget.
    pub slrg_budget: usize,
    /// Remaining-cost heuristic for the RG.
    pub heuristic: Heuristic,
    /// Replay tails through optimistic maps and prune failures. Keep on;
    /// turning it off is the ablation showing why Figure 8 matters.
    pub replay_pruning: bool,
    /// Wall-clock budget for one planning run, measured from the `t0`
    /// anchor (request arrival; includes compilation). The RG checks it
    /// amortized, every [`rg::DEADLINE_CHECK_STRIDE`] units of search
    /// work; tripping it sets [`PlannerStats::budget_exhausted`] and
    /// [`PlannerStats::deadline_hit`]. `None` (the default) never reads
    /// the clock, so the search stays bit-identical to one without
    /// deadlines; the [`mod@reference`] oracle ignores this field for the same
    /// reason.
    pub deadline: Option<Duration>,
    /// Graceful degradation: when the search ends without a validated
    /// optimal plan, a step after the search returns the cheapest rejected
    /// candidate re-bound with [`concretize_relaxed`], tagged
    /// [`Plan::degraded`], instead of no plan at all. The search itself
    /// runs the same either way.
    pub degrade: bool,
    /// Orbit symmetry breaking: among achievers that differ solely by a
    /// verified network-node automorphism
    /// ([`sekitei_compile::NodeOrbits`]), expand only the lexicographically
    /// minimal representative. A no-op on tasks without nontrivial orbits.
    /// On by default: the differential suite
    /// (`tests/pruning_equivalence.rs`) holds plan costs bit-identical to
    /// the unpruned reference, and `--no-prune` is the CLI escape hatch.
    /// [`search_reference`] has no pruning layer, so its counters equal
    /// those of a search with this off.
    pub symmetry: bool,
    /// Anytime portfolio mode (`crates/anytime`): race the exact RG
    /// search against a seeded greedy constructor + stochastic
    /// local-search lane sharing a monotone incumbent cost, and return
    /// whichever validated answer is available when the search concludes
    /// or the deadline trips. Plain-data flag here; the orchestration
    /// lives in the `sekitei-anytime` crate (which sits *above* the
    /// planner), whose entry points are the only code that reads it.
    /// [`Planner::plan`] ignores it.
    pub anytime: bool,
    /// Seed of the anytime SLS lane's `SplitMix64` stream
    /// (`sekitei-util`). With a fixed seed the lane's full rollout
    /// schedule — and therefore the final incumbent, the returned plan
    /// and the reported gap — is byte-identical across runs.
    pub sls_seed: u64,
    /// Restart count of the anytime SLS lane (each restart runs a fixed
    /// rollout schedule with simulated-annealing-style acceptance).
    pub sls_restarts: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_nodes: 2_000_000,
            max_candidate_rejects: 2_000,
            slrg_budget: 50_000,
            heuristic: Heuristic::Slrg,
            replay_pruning: true,
            deadline: None,
            degrade: false,
            symmetry: true,
            anytime: false,
            sls_seed: 0,
            sls_restarts: 3,
        }
    }
}

/// Statistics of one planning run — everything Table 2 reports.
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Ground actions after leveling and pruning (col 5): the full
    /// grounding's count, of which [`CompileStats::built`] were built.
    pub total_actions: usize,
    /// PLRG proposition nodes (col 6, first).
    pub plrg_props: usize,
    /// PLRG action nodes (col 6, second).
    pub plrg_actions: usize,
    /// SLRG set nodes generated (col 7).
    pub slrg_nodes: usize,
    /// SLRG queries that stopped at their expansion budget
    /// ([`PlannerConfig::slrg_budget`]) and answered with the bound their
    /// open list had reached.
    pub slrg_budget_exhausted: usize,
    /// RG nodes created (col 8, first).
    pub rg_nodes: usize,
    /// RG nodes still open at solution time (col 8, second).
    pub rg_open_left: usize,
    /// RG nodes pruned by optimistic-map replay.
    pub replay_prunes: usize,
    /// Always 0: the search has no dominance pruning. Kept because the
    /// benchmark harness (`perfbench/src/plan.rs`) reads it.
    pub dominance_pruned: usize,
    /// RG achievers skipped by orbit symmetry breaking
    /// ([`PlannerConfig::symmetry`]).
    pub symmetry_pruned: usize,
    /// Candidate plans rejected at terminal validation.
    pub candidate_rejects: usize,
    /// Total wall time including compilation (col 9, first).
    pub total_time: std::time::Duration,
    /// Search-only wall time (col 9, second).
    pub search_time: std::time::Duration,
    /// Compilation statistics.
    pub compile: CompileStats,
    /// True if a search budget was exhausted before exhausting the space.
    pub budget_exhausted: bool,
    /// True if specifically the wall-clock deadline tripped the search
    /// (implies `budget_exhausted`).
    pub deadline_hit: bool,
    /// Admissible lower bound on the optimal plan cost at search exit when
    /// no optimal plan was returned: the minimum f over the unexplored
    /// frontier. `None` means either a plan was found (its
    /// `cost_lower_bound` is the bound) or infeasibility was proven.
    pub best_bound: Option<f64>,
    /// True when the RG search stopped because the frontier's minimum `f`
    /// strictly exceeded a shared anytime incumbent cost — a proof that
    /// the incumbent beats every plan the exact search could still return
    /// ([`RgResult::incumbent_cutoff`]). Never set outside anytime mode.
    pub incumbent_cutoff: bool,
    /// Root heuristic `h(goal)`: a deterministic admissible lower bound on
    /// any plan's cost, independent of where a wall-clock deadline landed
    /// ([`RgResult::root_h`]). `None` when the search never seeded a root.
    pub root_bound: Option<f64>,
    /// Gap between the returned plan's cost lower bound and the best known
    /// admissible bound on the optimal cost, when both exist:
    /// `max(0, cost − bound)`. `0.0` means the plan is proven optimal (or
    /// proven at least as cheap as any exact plan, for anytime
    /// incumbents); `None` means no plan or no usable bound.
    pub optimality_gap: Option<f64>,
}

impl std::fmt::Display for PlannerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ground actions ({} built, {} pruned), PLRG {}/{}, SLRG {}, RG {}/{} \
             ({} replay-pruned, {} symmetry-pruned, {} candidates rejected), \
             time {:?} ({:?} search){}",
            self.total_actions,
            self.compile.built,
            self.compile.pruned,
            self.plrg_props,
            self.plrg_actions,
            self.slrg_nodes,
            self.rg_nodes,
            self.rg_open_left,
            self.replay_prunes,
            self.symmetry_pruned,
            self.candidate_rejects,
            self.total_time,
            self.search_time,
            if self.deadline_hit {
                " [deadline hit]"
            } else if self.budget_exhausted {
                " [budget exhausted]"
            } else if self.incumbent_cutoff {
                " [incumbent cutoff]"
            } else {
                ""
            },
        )
    }
}

/// Result of a planning run.
#[derive(Debug)]
pub struct PlanOutcome {
    /// The cost-optimal plan, or `None` when the problem has no solution
    /// the planner can prove feasible.
    pub plan: Option<Plan>,
    /// Run statistics.
    pub stats: PlannerStats,
    /// The compiled task (kept for inspection, metrics and replays).
    pub task: PlanningTask,
}

/// Planner errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The problem failed to compile.
    Compile(CompileError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CompileError> for PlanError {
    fn from(e: CompileError) -> Self {
        PlanError::Compile(e)
    }
}

/// The planner facade.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Create a planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        Planner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Compile and solve a CPP instance.
    pub fn plan(&self, problem: &CppProblem) -> Result<PlanOutcome, PlanError> {
        let _span = sekitei_obs::span("plan");
        let t0 = Instant::now();
        let task = compile(problem)?;
        Ok(self.plan_task(task, t0))
    }

    /// Solve several independent instances concurrently on scoped worker
    /// threads (one per available core, capped by the batch size). Results
    /// come back in input order and are identical to calling
    /// [`Planner::plan`] sequentially — instances share nothing.
    pub fn plan_batch(&self, problems: &[CppProblem]) -> Vec<Result<PlanOutcome, PlanError>> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.plan_batch_with(problems, threads)
    }

    /// [`Planner::plan_batch`] with an explicit worker-thread count
    /// (`1` degenerates to a plain sequential loop).
    pub fn plan_batch_with(
        &self,
        problems: &[CppProblem],
        threads: usize,
    ) -> Vec<Result<PlanOutcome, PlanError>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let threads = threads.clamp(1, problems.len().max(1));
        if threads == 1 {
            return problems.iter().map(|p| self.plan(p)).collect();
        }
        // work-stealing by atomic index: long rows (Large/A) don't hold up
        // workers that finish their early picks
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<PlanOutcome, PlanError>>>> =
            problems.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= problems.len() {
                        break;
                    }
                    *slots[i].lock().unwrap() = Some(self.plan(&problems[i]));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every index claimed by exactly one worker"))
            .collect()
    }

    /// Solve an already-compiled task (`t0` anchors total-time reporting).
    pub fn plan_task(&self, task: PlanningTask, t0: Instant) -> PlanOutcome {
        self.plan_task_bounded(task, t0, IncumbentBound::none())
    }

    /// [`Planner::plan_task`] with an anytime incumbent upper bound shared
    /// with a concurrently-running SLS lane (see [`IncumbentBound`]). With
    /// [`IncumbentBound::none`] this is exactly `plan_task`.
    pub fn plan_task_bounded(
        &self,
        task: PlanningTask,
        t0: Instant,
        incumbent: IncumbentBound<'_>,
    ) -> PlanOutcome {
        let t_search = Instant::now();
        let plrg = {
            let _g = sekitei_obs::span("plrg");
            Plrg::build(&task)
        };
        let mut stats = PlannerStats {
            total_actions: task.stats.actions,
            compile: task.stats.clone(),
            ..PlannerStats::default()
        };
        let (pp, pa) = plrg.sizes();
        stats.plrg_props = pp;
        stats.plrg_actions = pa;

        let plan = if plrg.solvable(&task) {
            let mut slrg = Slrg::new(&task, &plrg, self.config.slrg_budget);
            let r = {
                let _g = sekitei_obs::span("rg");
                let search_t0 = sekitei_obs::now_ns();
                let r = rg::search_bounded(&task, &plrg, &mut slrg, &self.config, t0, incumbent);
                // SLRG queries and candidate concretization interleave with
                // RG expansions, so their externally-measured totals enter
                // the trace as aggregate child spans of "rg" — self-time
                // accounting then splits the search phase exactly.
                if sekitei_obs::enabled() {
                    let st = slrg.stats();
                    sekitei_obs::aggregate(
                        "slrg",
                        search_t0,
                        st.time.as_nanos() as u64,
                        st.nodes as u64,
                    );
                    sekitei_obs::aggregate(
                        "concretize",
                        search_t0,
                        r.concretize_time.as_nanos() as u64,
                        r.concretize_calls as u64,
                    );
                    sekitei_obs::event("rg_nodes", r.nodes_created as u64);
                    sekitei_obs::event("rg_expansions", r.expansions as u64);
                    sekitei_obs::event("rg_open_left", r.open_left as u64);
                    sekitei_obs::event("replay_prunes", r.replay_prunes as u64);
                    sekitei_obs::event("rg_symmetry_pruned", r.symmetry_pruned as u64);
                    sekitei_obs::event("candidate_rejects", r.candidate_rejects as u64);
                    sekitei_obs::event("slrg_memo_hits", st.cache_hits as u64);
                    sekitei_obs::event("slrg_budget_exhausted", st.budget_exhausted as u64);
                    sekitei_obs::event("pool_sets", slrg.pool().len() as u64);
                    if r.budget_exhausted {
                        sekitei_obs::event("budget_exhausted", 1);
                    }
                    if r.deadline_hit {
                        sekitei_obs::event("deadline_hit", 1);
                    }
                    if r.incumbent_cutoff {
                        sekitei_obs::event("incumbent_cutoff", 1);
                    }
                }
                r
            };
            stats.slrg_nodes = slrg.stats().nodes;
            stats.slrg_budget_exhausted = slrg.stats().budget_exhausted;
            stats.rg_nodes = r.nodes_created;
            stats.rg_open_left = r.open_left;
            stats.replay_prunes = r.replay_prunes;
            stats.symmetry_pruned = r.symmetry_pruned;
            stats.candidate_rejects = r.candidate_rejects;
            stats.budget_exhausted = r.budget_exhausted;
            stats.deadline_hit = r.deadline_hit;
            stats.incumbent_cutoff = r.incumbent_cutoff;
            stats.best_bound = r.best_open_f;
            stats.root_bound = Some(r.root_h);
            match r.plan {
                Some((actions, cost, exec)) => {
                    Some(Plan::from_actions(&task, &actions, cost, exec))
                }
                None if self.config.degrade => degraded_plan(&task, &r.rejected),
                None => None,
            }
        } else {
            None
        };
        // gap accounting: an accepted optimal plan is its own bound; a
        // degraded fallback measures against the frontier bound the search
        // left behind. Anytime incumbents overwrite this in the facade
        // (`crates/anytime`) with their deterministic gap rules.
        stats.optimality_gap = match &plan {
            Some(p) if !p.degraded => Some(0.0),
            Some(p) => stats.best_bound.map(|b| (p.cost_lower_bound - b).max(0.0)),
            None => None,
        };
        if sekitei_obs::enabled() {
            if let Some(gap) = stats.optimality_gap {
                sekitei_obs::event("optimality_gap_milli", (gap * 1000.0).round() as u64);
            }
        }
        let plan = plan.map(|mut p| {
            let (class, gap_basis) = if !p.degraded {
                (cert::OutcomeClass::Exact, cert::GapBasis::Proved)
            } else if stats.best_bound.is_some() {
                (cert::OutcomeClass::Degraded, cert::GapBasis::FrontierBound)
            } else {
                (cert::OutcomeClass::Degraded, cert::GapBasis::Unbounded)
            };
            p.certify(&task, &stats, &self.config, class, gap_basis);
            p
        });
        stats.search_time = t_search.elapsed();
        stats.total_time = t0.elapsed();
        PlanOutcome { plan, stats, task }
    }
}

/// Graceful degradation, run after a search that returned no plan: the
/// first rejected candidate whose tail, replayed from the initial state,
/// binds under [`concretize_relaxed`], tagged [`Plan::degraded`].
/// Candidates are recorded in cost order ([`RgResult::rejected`]), so the
/// first that binds is the cheapest. Interval replay is optimistic, so
/// many rejected tails bind at no concrete value and are skipped.
fn degraded_plan(task: &PlanningTask, rejected: &[(Vec<ActionId>, f64)]) -> Option<Plan> {
    let _g = sekitei_obs::span("degrade");
    rejected.iter().find_map(|(tail, g)| {
        let map = replay_tail(task, tail, Some(&task.init_values)).ok()?;
        let exec = concretize_relaxed(task, tail, &map).ok()?;
        let mut plan = Plan::from_actions(task, tail, *g, exec);
        plan.degraded = true;
        Some(plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    #[test]
    fn facade_tiny_all_scenarios() {
        let planner = Planner::default();
        for sc in LevelScenario::ALL {
            let outcome = planner.plan(&scenarios::tiny(sc)).unwrap();
            match sc {
                LevelScenario::A => assert!(outcome.plan.is_none(), "A must fail"),
                _ => {
                    let plan = outcome.plan.expect("B–E solve Tiny");
                    assert_eq!(plan.len(), 7, "scenario {sc:?}");
                }
            }
            assert!(outcome.stats.total_actions > 0);
            assert!(outcome.stats.total_time >= outcome.stats.search_time);
        }
    }

    #[test]
    fn stats_match_paper_shape() {
        // more levels ⇒ more ground actions (Table 2 col 5 growth)
        let planner = Planner::default();
        let b = planner.plan(&scenarios::tiny(LevelScenario::B)).unwrap().stats;
        let e = planner.plan(&scenarios::tiny(LevelScenario::E)).unwrap().stats;
        assert!(e.total_actions > b.total_actions);
        assert!(b.plrg_props > 0 && b.plrg_actions > 0);
        assert!(b.slrg_nodes > 0);
        assert!(b.rg_nodes > 0);
    }

    #[test]
    fn degrade_returns_candidate_for_tiny_a() {
        // Tiny/A's structure is fine — only the greedy-max source binding
        // fails. The degradation path returns it with a relaxed binding.
        let planner = Planner::new(PlannerConfig { degrade: true, ..Default::default() });
        let outcome = planner.plan(&scenarios::tiny(LevelScenario::A)).unwrap();
        let plan = outcome.plan.expect("degraded plan");
        assert!(plan.degraded);
        assert_eq!(plan.len(), 7);
        assert!(outcome.stats.candidate_rejects > 0);
        // the degraded source value is feasible, not the greedy 200
        let (_, s) = plan.execution.source_values[0];
        assert!((90.0..=110.0).contains(&s), "source = {s}");
    }

    /// Every counter and bound of a run, its wall times left out.
    fn counters(stats: &PlannerStats) -> String {
        let mut s = stats.clone();
        s.total_time = Duration::ZERO;
        s.search_time = Duration::ZERO;
        s.compile.compile_time = Duration::ZERO;
        s.optimality_gap = None;
        format!("{s:?}")
    }

    #[test]
    fn degrade_runs_after_the_search_and_leaves_it_unchanged() {
        let runs = [
            (scenarios::tiny(LevelScenario::A), PlannerConfig::default()),
            (scenarios::small(LevelScenario::A), PlannerConfig::default()),
            (
                scenarios::small(LevelScenario::A),
                PlannerConfig { max_nodes: 18_500, ..PlannerConfig::default() },
            ),
        ];
        for (i, (problem, cfg)) in runs.iter().enumerate() {
            let off = Planner::new(PlannerConfig { degrade: false, ..*cfg }).plan(problem).unwrap();
            let on = Planner::new(PlannerConfig { degrade: true, ..*cfg }).plan(problem).unwrap();
            assert!(off.plan.is_none(), "run {i}");
            assert!(on.plan.as_ref().is_some_and(|p| p.degraded), "run {i}");
            assert_eq!(counters(&on.stats), counters(&off.stats), "run {i}");
            let bits = |s: &PlannerStats| s.best_bound.map(f64::to_bits);
            assert_eq!(bits(&on.stats), bits(&off.stats), "run {i}");
        }
    }

    #[test]
    fn rejected_candidates_are_recorded_in_cost_order() {
        let plain = PlannerConfig { symmetry: false, ..PlannerConfig::default() };
        let pruned = PlannerConfig::default();
        let capped = |cfg: PlannerConfig| PlannerConfig { max_nodes: 35_000, ..cfg };
        let runs = [
            (scenarios::tiny(LevelScenario::A), plain),
            (scenarios::small(LevelScenario::A), plain),
            (scenarios::small(LevelScenario::A), pruned),
            (scenarios::large(LevelScenario::A), capped(pruned)),
            (scenarios::large(LevelScenario::B), capped(pruned)),
        ];
        for (i, (p, cfg)) in runs.iter().enumerate() {
            let task = compile(p).unwrap();
            let plrg = Plrg::build(&task);
            let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
            let r = rg::search(&task, &plrg, &mut slrg, cfg, Instant::now());
            assert!(!r.rejected.is_empty(), "run {i}: no rejected candidate recorded");
            assert!(r.rejected.len() <= r.candidate_rejects, "run {i}");
            for w in r.rejected.windows(2) {
                assert!(w[0].1 <= w[1].1, "run {i}: cost fell from {} to {}", w[0].1, w[1].1);
            }
        }
    }

    #[test]
    fn slrg_budget_hits_are_counted_and_traced() {
        let problem = scenarios::tiny(LevelScenario::C);
        let roomy = Planner::default().plan(&problem).unwrap().stats;
        assert_eq!(roomy.slrg_budget_exhausted, 0);

        let tight = Planner::new(PlannerConfig { slrg_budget: 1, ..PlannerConfig::default() });
        sekitei_obs::enable();
        let root = sekitei_obs::span("test");
        let root_id = root.id();
        let stats = tight.plan(&problem).unwrap().stats;
        drop(root);
        sekitei_obs::disable();
        let records = sekitei_obs::take_trace().records;
        assert!(stats.slrg_budget_exhausted > 0, "{stats}");
        // the event sits in this run's `rg` span, beside `slrg_memo_hits`
        let child = |parent: u64, name: &str| {
            records.iter().find(|r| r.is_span() && r.name == name && r.parent == parent).unwrap().id
        };
        let rg = child(child(root_id, "plan"), "rg");
        let traced: Vec<u64> = records
            .iter()
            .filter(|r| r.parent == rg && r.name == "slrg_budget_exhausted")
            .map(|r| r.value)
            .collect();
        assert_eq!(traced, [stats.slrg_budget_exhausted as u64]);
    }

    #[test]
    fn degrade_off_leaves_a_unsolved() {
        let outcome = Planner::default().plan(&scenarios::tiny(LevelScenario::A)).unwrap();
        assert!(outcome.plan.is_none());
    }

    #[test]
    fn deadline_bounds_adversarial_search() {
        // Large/A otherwise runs 214 021 nodes to its reject budget
        // (~0.3 s); a 50 ms deadline must cut it off and still report an
        // admissible bound.
        let planner = Planner::new(PlannerConfig {
            deadline: Some(Duration::from_millis(50)),
            ..Default::default()
        });
        let t = Instant::now();
        let outcome = planner.plan(&scenarios::large(LevelScenario::A)).unwrap();
        assert!(outcome.stats.deadline_hit, "{}", outcome.stats);
        assert!(outcome.stats.budget_exhausted);
        assert!(outcome.stats.best_bound.is_some());
        assert!(t.elapsed() < Duration::from_secs(5), "deadline ignored: {:?}", t.elapsed());
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        // a deadline that never trips must not perturb the search result
        let base = Planner::default().plan(&scenarios::tiny(LevelScenario::C)).unwrap();
        let planner = Planner::new(PlannerConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..Default::default()
        });
        let timed = planner.plan(&scenarios::tiny(LevelScenario::C)).unwrap();
        assert!(!timed.stats.deadline_hit);
        let (a, b) = (base.plan.unwrap(), timed.plan.unwrap());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.cost_lower_bound.to_bits(), b.cost_lower_bound.to_bits());
        assert_eq!(base.stats.rg_nodes, timed.stats.rg_nodes);
    }

    #[test]
    fn compile_error_propagates() {
        let mut p = scenarios::tiny(LevelScenario::B);
        p.goals.clear();
        assert!(matches!(Planner::default().plan(&p), Err(PlanError::Compile(_))));
    }

    #[test]
    fn plan_batch_matches_sequential_in_order() {
        let planner = Planner::default();
        let problems: Vec<_> = LevelScenario::ALL.iter().map(|&sc| scenarios::tiny(sc)).collect();
        let parallel = planner.plan_batch(&problems);
        let sequential = planner.plan_batch_with(&problems, 1);
        assert_eq!(parallel.len(), problems.len());
        for (sc, (par, seq)) in LevelScenario::ALL.iter().zip(parallel.iter().zip(&sequential)) {
            let (par, seq) = (par.as_ref().unwrap(), seq.as_ref().unwrap());
            match (&par.plan, &seq.plan) {
                (None, None) => assert!(matches!(sc, LevelScenario::A)),
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len(), "{sc:?}");
                    assert_eq!(
                        a.cost_lower_bound.to_bits(),
                        b.cost_lower_bound.to_bits(),
                        "{sc:?}"
                    );
                }
                _ => panic!("{sc:?}: batch and sequential disagree on solvability"),
            }
            assert_eq!(par.stats.rg_nodes, seq.stats.rg_nodes, "{sc:?}");
        }
    }

    #[test]
    fn plan_batch_reports_per_item_errors() {
        let planner = Planner::default();
        let good = scenarios::tiny(LevelScenario::C);
        let mut bad = scenarios::tiny(LevelScenario::C);
        bad.goals.clear();
        let results = planner.plan_batch(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(PlanError::Compile(_))));
    }

    #[test]
    fn plan_batch_empty_and_oversubscribed() {
        let planner = Planner::default();
        assert!(planner.plan_batch(&[]).is_empty());
        // more threads than work is fine
        let one = planner.plan_batch_with(&[scenarios::tiny(LevelScenario::B)], 64);
        assert_eq!(one.len(), 1);
        assert!(one[0].as_ref().unwrap().plan.is_some());
    }
}
