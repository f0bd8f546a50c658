//! The stochastic local-search lane: seeded greedy regression rollouts
//! with simulated-annealing-style acceptance, every candidate incumbent
//! validated end-to-end before publication.
//!
//! A *rollout* is one pass of the paper's original-Sekitei greedy
//! regression: start from the goal set, repeatedly pick the open
//! proposition with the largest PLRG bound (the exact search's branching
//! rule) and commit one achiever for it, until the set empties (a
//! candidate) or no achiever survives the feasibility filters (a dead
//! end). The *seed* rollout commits the `cost + h` argmin at every step —
//! the deterministic greedy baseline, biased toward a caller-provided
//! hint plan (churn repair passes the pre-churn plan's action kinds).
//! Subsequent rollouts randomize the commitment: with tunable
//! probabilities they copy an action from the current SA reference
//! solution (the "move set over placements and routings" — re-rolling a
//! neighbor of the reference), take the greedy argmin, or explore
//! uniformly. A completed rollout becomes the new SA reference if it is
//! cheaper, or with probability `exp(−Δ/T)` under a decaying temperature
//! — the acceptance shape of the genetic/annealing optimizers this lane
//! is modeled on.
//!
//! Publication is gated hard: a candidate becomes the incumbent only if
//! its tail replays from the concrete initial state, concretizes (greedy
//! first, relaxed as the degraded fallback) **and** passes the full
//! simulator ([`sekitei_sim::validate_plan`]). The incumbent cost cell is
//! written by this thread alone — the exact RG lane only reads it — so
//! for a fixed seed the entire incumbent trajectory is a pure function of
//! the problem, byte-identical across runs.

use sekitei_compile::{ActionKind, PlanningTask};
use sekitei_model::{ActionId, CppProblem, PropId};
use sekitei_planner::{
    concretize, concretize_relaxed, replay_tail, ConcretizeFail, Plan, PlannerConfig, Plrg,
    ReplayScratch, SetId, Slrg,
};
use sekitei_util::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stochastic rollouts per restart (after the deterministic seed
/// rollout). Fixed — the lane's work is a schedule, not a wall-clock
/// loop, so the final incumbent never depends on machine speed.
const ROLLOUTS_PER_RESTART: usize = 48;

/// Probability of copying an action from the SA reference solution when
/// one is available (the local-search "move around the reference" step).
const P_BIAS: f64 = 0.30;

/// Probability mass of the greedy argmin commitment (measured after the
/// bias band: a uniform draw below `P_BIAS` re-rolls the reference,
/// below `P_BIAS + P_GREEDY` follows the heuristic, above explores).
const P_GREEDY: f64 = 0.40;

/// Limited-discrepancy sweep bounds: deviation positions tried (the
/// first `DEVIATE_POSITIONS` regression steps) × alternative ranks per
/// position. The sweep is deterministic and runs once, before the
/// stochastic restarts.
const DEVIATE_POSITIONS: usize = 12;
const DEVIATE_RANKS: usize = 2;
const DEVIATE_WINDOW: usize = 3;

/// Initial SA temperature (relative-cost units) and per-rollout decay.
const SA_TEMP0: f64 = 0.30;
const SA_DECAY: f64 = 0.85;

/// Failure-centered repair: rounds of deterministic mixed-rank window
/// enumeration around the deepest tail's execution-failure point, and
/// how far (in regression picks) the window start may sit from it.
const REPAIR_ROUNDS: usize = 8;
const REPAIR_JITTER: usize = 2;
const REPAIR_WINDOW_MAX: usize = 3;

/// A validated anytime incumbent.
#[derive(Debug, Clone)]
pub struct Incumbent {
    /// The sim-validated plan (`degraded` marks relaxed source binding).
    pub plan: Plan,
    /// Its cost lower bound — the quantity compared against RG `f`.
    pub cost: f64,
}

/// Counters of one SLS lane run.
#[derive(Debug, Clone, Default)]
pub struct SlsStats {
    /// Rollouts attempted (including the seed rollout per restart).
    pub rollouts: usize,
    /// Rollouts that reached an empty open set (candidate plans).
    pub completed: usize,
    /// Candidates taken through full validation (replay + concretize +
    /// simulator) because they beat the incumbent cost.
    pub validated: usize,
    /// Incumbent improvements published to the shared cell.
    pub improvements: usize,
    /// Candidates dropped because their tail does not replay from the
    /// concrete initial state.
    pub replay_failures: usize,
    /// Candidates dropped because neither greedy nor relaxed
    /// concretization produced an execution.
    pub concretize_failures: usize,
    /// Candidates dropped by the simulator.
    pub sim_failures: usize,
    /// Cost of the first (deterministic greedy seed) incumbent, when the
    /// seed rollout validated.
    pub seed_cost: Option<f64>,
    /// Wall time of the whole lane. Observational.
    pub time: std::time::Duration,
}

/// Everything the lane hands back to the facade.
#[derive(Debug)]
pub(crate) struct LaneResult {
    pub best: Option<Incumbent>,
    pub stats: SlsStats,
}

impl LaneResult {
    fn empty() -> LaneResult {
        LaneResult { best: None, stats: SlsStats::default() }
    }
}

/// Run the lane to completion. `cell` is the shared incumbent cost
/// (`f64::to_bits`, `+∞` when none); this thread is its only writer.
pub(crate) fn run_lane(
    problem: &CppProblem,
    task: &PlanningTask,
    cfg: &PlannerConfig,
    hint: &[ActionKind],
    cell: &AtomicU64,
) -> LaneResult {
    let t0 = std::time::Instant::now();
    let goal_props: Vec<_> =
        task.goal_props.iter().copied().filter(|&p| !task.initially(p)).collect();
    if goal_props.is_empty() {
        return LaneResult::empty(); // trivial task; the exact lane owns it
    }
    let plrg = Plrg::build(task);
    if !plrg.solvable(task) {
        return LaneResult::empty();
    }
    let mut slrg = Slrg::new(task, &plrg, cfg.slrg_budget);
    let goal = slrg.pool_mut().intern(goal_props);

    let mut engine = Engine {
        problem,
        task,
        plrg: &plrg,
        slrg,
        scratch: ReplayScratch::new(task),
        goal,
        // plans worth validating are far shorter than the ground action
        // count; the duplicate-action rule bounds depth anyway, this just
        // stops hopeless rollouts early
        max_depth: 48.min(task.num_actions()),
        hint,
        best: None,
        deepest: None,
        evaluated: std::collections::HashMap::new(),
        stats: SlsStats::default(),
    };
    let mut rng = SplitMix64::new(cfg.sls_seed);

    // the seeded greedy constructor: the original-Sekitei baseline
    if let Some((tail, g)) = engine.rollout(&mut rng, Mode::Greedy, &[]) {
        engine.evaluate(&tail, g, cell);
        if engine.best.is_some() {
            engine.stats.seed_cost = Some(g);
        }
    }

    // limited-discrepancy sweep: greedy except one step, systematically
    // over positions and alternative ranks. On problems where exact
    // execution rejects the pure greedy structure (the unleveled
    // scenario A family), the fix is typically one substitution — e.g.
    // decompress-on-arrival instead of shipping the raw stream — and this
    // deterministic pass finds every such single substitution
    for len in 1..=DEVIATE_WINDOW {
        for rank in 1..=DEVIATE_RANKS {
            for at in 0..DEVIATE_POSITIONS {
                let mode = Mode::Deviate { at, rank, len };
                if let Some((tail, g)) = engine.rollout(&mut rng, mode, &[]) {
                    engine.evaluate(&tail, g, cell);
                }
            }
        }
    }

    // failure-centered repair: when even the best tail dies mid-execution
    // (the unleveled scenarios, where a feasible plan needs a coordinated
    // multi-step substitution like compress → ship → decompress that no
    // single deviation expresses), enumerate mixed-rank deviation windows
    // centered on the failure's own pick index. Execution order is the
    // reverse of pick order, so a failure at execution step `depth − 1`
    // points at pick index `len − depth` — the window lands exactly where
    // the repair has to go. Hill-climb on execution depth: recenter on
    // every strictly deeper tail, stop when a full sweep finds none.
    'repair: for _round in 0..REPAIR_ROUNDS {
        let Some((anchor, depth, _)) = engine.deepest.clone() else { break };
        if depth >= usize::MAX - 1 {
            break; // executes end-to-end; nothing left to repair
        }
        let target = anchor.len().saturating_sub(depth.min(anchor.len()));
        let lo = target.saturating_sub(REPAIR_JITTER);
        let hi = (target + REPAIR_JITTER).min(anchor.len());
        for at in lo..=hi {
            for len in 2..=REPAIR_WINDOW_MAX {
                for code in 1..3usize.pow(len as u32) {
                    let mut ranks = [0u8; REPAIR_WINDOW_MAX];
                    let mut c = code;
                    for r in ranks.iter_mut().take(len) {
                        *r = (c % 3) as u8;
                        c /= 3;
                    }
                    let mode = Mode::Repair { at, len, ranks };
                    if let Some((tail, g)) = engine.rollout(&mut rng, mode, &anchor) {
                        if engine.evaluate(&tail, g, cell) > depth {
                            continue 'repair; // recenter on the deeper tail
                        }
                    }
                }
            }
        }
        break; // a full sweep found nothing deeper
    }

    for _restart in 0..cfg.sls_restarts {
        // each restart re-anchors the SA reference on the incumbent when
        // one exists, else on the deepest-executing candidate so far —
        // the execution-depth gradient is what walks an infeasible greedy
        // family toward a structure the exact executor accepts
        let (mut reference, mut ref_depth, mut ref_cost) = match (&engine.best, &engine.deepest) {
            (Some(b), _) => {
                let tail: Vec<ActionId> = b.plan.steps.iter().map(|s| s.action).collect();
                (tail, usize::MAX, b.cost)
            }
            (None, Some((tail, depth, g))) => (tail.clone(), *depth, *g),
            (None, None) => (Vec::new(), 0, f64::INFINITY),
        };
        let mut temp = SA_TEMP0;
        for _iter in 0..ROLLOUTS_PER_RESTART {
            if let Some((tail, g)) = engine.rollout(&mut rng, Mode::Stochastic, &reference) {
                let depth = engine.evaluate(&tail, g, cell);
                let cost_sa = |rng: &mut SplitMix64, ref_cost: f64, temp: f64| {
                    g < ref_cost || {
                        let scale = if ref_cost.is_finite() { ref_cost.max(1e-9) } else { 1.0 };
                        let delta = if ref_cost.is_finite() { (g - ref_cost) / scale } else { 0.0 };
                        rng.unit() < (-delta / temp).exp()
                    }
                };
                // acceptance: once an incumbent exists the lane anneals on
                // cost alone (cheaper wins, costlier with probability
                // exp(−Δ/T) under the decaying temperature — the shape of
                // the annealing optimizers this lane is modeled on).
                // Before one exists it is lexicographic on the
                // execution-depth fitness: strictly deeper always wins,
                // equal depth falls back to the cost rule
                let accept = if engine.best.is_some() {
                    cost_sa(&mut rng, ref_cost, temp)
                } else {
                    depth > ref_depth || (depth == ref_depth && cost_sa(&mut rng, ref_cost, temp))
                };
                if accept {
                    reference = tail;
                    ref_depth = depth;
                    ref_cost = g;
                }
            }
            temp *= SA_DECAY;
        }
    }

    engine.stats.time = t0.elapsed();
    LaneResult { best: engine.best, stats: engine.stats }
}

enum Mode {
    /// Deterministic `cost + h` argmin at every step (the seed).
    Greedy,
    /// Greedy everywhere except steps `at .. at + len`, which take the
    /// `rank`-th best candidate — one arm of the limited-discrepancy
    /// sweep. Windows longer than one step cover coordinated
    /// substitutions (a deviated pick whose new subgoals must also be
    /// achieved non-greedily, e.g. decompress-on-arrival plus shipping
    /// the compressed stream).
    Deviate {
        /// First regression step of the deviation window.
        at: usize,
        /// Greedy-order rank taken inside the window (1 = second best).
        rank: usize,
        /// Window length in regression steps.
        len: usize,
    },
    /// Failure-centered repair arm: copy the reference's picks verbatim
    /// before the window, take the given greedy-order ranks inside it,
    /// then splice the *rest of the reference* back in by scanning
    /// forward for its next pick still offered as a candidate. Unlike
    /// [`Mode::Deviate`] (greedy continuation), this preserves the whole
    /// surviving structure of the reference around the substitution.
    Repair {
        /// First pick index of the deviation window.
        at: usize,
        /// Window length (uses `ranks[..len]`).
        len: usize,
        /// Greedy-order rank taken at each window step (0 = greedy).
        ranks: [u8; REPAIR_WINDOW_MAX],
    },
    /// Randomized commitment: bias / greedy / explore bands.
    Stochastic,
}

struct Engine<'t> {
    problem: &'t CppProblem,
    task: &'t PlanningTask,
    plrg: &'t Plrg,
    slrg: Slrg<'t>,
    scratch: ReplayScratch,
    goal: SetId,
    max_depth: usize,
    hint: &'t [ActionKind],
    best: Option<Incumbent>,
    /// Deepest-executing completed rollout seen so far (tail, execution
    /// depth, cost) — the SA anchor while no incumbent exists. Carried
    /// across restarts so each one resumes from the best partial
    /// structure instead of re-deriving it.
    deepest: Option<(Vec<ActionId>, usize, f64)>,
    /// Evaluation cache: deterministic tail fingerprint → execution
    /// depth. Point lookups only, so map iteration order never matters.
    evaluated: std::collections::HashMap<u64, usize>,
    stats: SlsStats,
}

impl<'t> Engine<'t> {
    /// One greedy-regression rollout. Returns the execution-ordered tail
    /// and its cost lower bound, or `None` on a dead end.
    fn rollout(
        &mut self,
        rng: &mut SplitMix64,
        mode: Mode,
        reference: &[ActionId],
    ) -> Option<(Vec<ActionId>, f64)> {
        self.stats.rollouts += 1;
        let mut set = self.goal;
        // actions in pick order; execution order is the reverse (each
        // regression step commits the action that runs *before* the tail
        // built so far — same orientation as the RG's parent links)
        let mut picks: Vec<ActionId> = Vec::new();
        let mut tail_exec: Vec<ActionId> = Vec::new();
        let mut g = 0.0;
        let mut cands: Vec<(ActionId, f64, SetId, bool)> = Vec::new();
        // propositions this rollout has already committed an achiever for.
        // A candidate whose preconditions re-introduce one is *rework* —
        // the cross ping-pong cycles (ship M over a link, then ship it
        // right back) that the exact search's closed set forbids but a
        // memoryless greedy rollout happily walks until the depth cap
        let mut achieved: Vec<PropId> = Vec::new();

        // regression-order view of the reference, and how many of its
        // picks this rollout replays verbatim before mutating. Copying a
        // prefix pins the open-set trajectory to the reference's, so the
        // mutation happens at exactly one chosen depth — and because the
        // execution order is the reverse of the pick order, deep copy
        // points mutate the *early execution steps*, which is where a
        // tail that fails mid-execution needs its repair.
        let ref_picks: Vec<ActionId> = reference.iter().rev().copied().collect();
        let follow = if matches!(mode, Mode::Stochastic) && !ref_picks.is_empty() {
            rng.below(ref_picks.len() as u64 + 1) as usize
        } else {
            0
        };
        // repair-mode scan cursor into `ref_picks` for the post-window
        // splice (starts at the window: the picks it displaced may no
        // longer apply, scanning forward skips them naturally)
        let mut cursor = match mode {
            Mode::Repair { at, .. } => at,
            _ => 0,
        };

        while set != SetId::EMPTY {
            if picks.len() >= self.max_depth {
                return None;
            }
            // the exact search's branching rule: the open proposition with
            // the largest PLRG bound (ties to the largest id)
            let target = {
                let props = self.slrg.pool().props_of(set);
                *props
                    .iter()
                    .max_by(|&&a, &&b| {
                        self.plrg
                            .prop_cost(a)
                            .partial_cmp(&self.plrg.prop_cost(b))
                            .unwrap()
                            .then(a.cmp(&b))
                    })
                    .expect("non-empty open set")
            };
            tail_exec.clear();
            tail_exec.extend(picks.iter().rev());
            cands.clear();
            for &a in self.task.achievers(target) {
                if !self.plrg.usable(a) || picks.contains(&a) {
                    continue;
                }
                let act = self.task.action(a);
                let child = self
                    .slrg
                    .pool_mut()
                    .regress(set, &act.adds, &act.preconds, |p| self.task.initially(p));
                let h = self.slrg.achievement_cost_id(child).bound;
                if !h.is_finite() {
                    continue;
                }
                // same optimistic-map feasibility filter the RG applies to
                // children — rollouts never waste depth on tails the exact
                // search would prune immediately
                if self.scratch.child_tail_fails(self.task, a, &tail_exec) {
                    continue;
                }
                let rework = act.preconds.iter().any(|p| achieved.contains(p));
                cands.push((a, act.cost + h, child, rework));
            }
            if cands.is_empty() {
                return None;
            }
            let pick = match mode {
                Mode::Greedy => self.greedy_pick(&cands, &picks),
                Mode::Deviate { at, rank, len } if (at..at + len).contains(&picks.len()) => {
                    self.ranked_pick(&cands, &picks, rank)
                }
                Mode::Deviate { .. } => self.greedy_pick(&cands, &picks),
                Mode::Repair { at, len, ranks } => {
                    let i = picks.len();
                    if i < at {
                        // exact prefix copy — the trajectory matches the
                        // reference's, so its pick is offered unless the
                        // reference itself came from a different filter
                        // state (then fall back to greedy)
                        match cands.iter().position(|&(a, ..)| Some(&a) == ref_picks.get(i)) {
                            Some(p) => p,
                            None => self.greedy_pick(&cands, &picks),
                        }
                    } else if i < at + len {
                        self.ranked_pick(&cands, &picks, ranks[i - at] as usize)
                    } else {
                        // splice the surviving remainder of the reference
                        // back in: next reference pick still on offer
                        match (cursor..ref_picks.len())
                            .find(|&j| cands.iter().any(|&(a, ..)| a == ref_picks[j]))
                        {
                            Some(j) => {
                                cursor = j + 1;
                                cands.iter().position(|&(a, ..)| a == ref_picks[j]).unwrap()
                            }
                            None => self.greedy_pick(&cands, &picks),
                        }
                    }
                }
                Mode::Stochastic
                    if picks.len() < follow
                        && cands.iter().any(|&(a, ..)| a == ref_picks[picks.len()]) =>
                {
                    let want = ref_picks[picks.len()];
                    cands.iter().position(|&(a, ..)| a == want).unwrap()
                }
                Mode::Stochastic => {
                    let u = rng.unit();
                    let biased: Vec<usize> = if reference.is_empty() {
                        Vec::new()
                    } else {
                        (0..cands.len()).filter(|&i| reference.contains(&cands[i].0)).collect()
                    };
                    if u < P_BIAS && !biased.is_empty() {
                        biased[rng.below(biased.len() as u64) as usize]
                    } else if u < P_BIAS + P_GREEDY {
                        self.greedy_pick(&cands, &picks)
                    } else {
                        // uniform exploration, but over the non-redundant
                        // candidates when any exist: re-placing a component
                        // already placed elsewhere in this rollout almost
                        // always dies at exact execution, and rework picks
                        // walk the ping-pong cycles
                        let fresh: Vec<usize> = (0..cands.len())
                            .filter(|&i| !self.dup_place(cands[i].0, &picks) && !cands[i].3)
                            .collect();
                        if fresh.is_empty() {
                            rng.below(cands.len() as u64) as usize
                        } else {
                            fresh[rng.below(fresh.len() as u64) as usize]
                        }
                    }
                }
            };
            let (a, _, child, _) = cands[pick];
            g += self.task.action(a).cost;
            picks.push(a);
            achieved.push(target);
            set = child;
        }
        self.stats.completed += 1;
        picks.reverse();
        Some((picks, g))
    }

    /// Deterministic greedy commitment: avoid duplicate component
    /// placements and rework first, then minimum `cost + h`, ties broken
    /// toward hinted action kinds (churn's pre-churn plan), then the
    /// lowest action id.
    fn greedy_pick(&self, cands: &[(ActionId, f64, SetId, bool)], picks: &[ActionId]) -> usize {
        let mut best = 0usize;
        let mut best_key = self.pick_key(cands[0], picks);
        for (i, &c) in cands.iter().enumerate().skip(1) {
            let key = self.pick_key(c, picks);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// The `rank`-th candidate in greedy order (clamped to the last) —
    /// the single-step alternative a discrepancy arm commits to.
    fn ranked_pick(
        &self,
        cands: &[(ActionId, f64, SetId, bool)],
        picks: &[ActionId],
        rank: usize,
    ) -> usize {
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by_key(|&i| self.pick_key(cands[i], picks));
        order[rank.min(order.len() - 1)]
    }

    /// `(duplicate-placement, rework, score-bits, !hinted, id)` —
    /// lexicographic minimum is the greedy choice. Scores are finite and
    /// non-negative, so their IEEE bit patterns order like the values.
    fn pick_key(
        &self,
        (a, score, _, rework): (ActionId, f64, SetId, bool),
        picks: &[ActionId],
    ) -> (bool, bool, u64, bool, ActionId) {
        (self.dup_place(a, picks), rework, score.to_bits(), !self.hinted(a), a)
    }

    /// True when `a` places a component some earlier pick already placed
    /// on a different node — legal, but it rarely survives exact
    /// execution, so both the greedy and explore bands steer around it.
    fn dup_place(&self, a: ActionId, picks: &[ActionId]) -> bool {
        let ActionKind::Place { comp, .. } = self.task.action(a).kind else {
            return false;
        };
        picks.iter().any(
            |&p| matches!(self.task.action(p).kind, ActionKind::Place { comp: c, .. } if c == comp),
        )
    }

    fn hinted(&self, a: ActionId) -> bool {
        !self.hint.is_empty() && self.hint.contains(&self.task.action(a).kind)
    }

    /// Evaluate a completed rollout: while no incumbent exists this
    /// computes the execution-depth fitness signal (publishing as a side
    /// effect when the tail executes end-to-end); once one exists it only
    /// validates candidates that beat the incumbent cost. Results are
    /// cached per tail, so the biased rollout phases re-deriving the same
    /// tail pay a hash lookup instead of a replay + concretize +
    /// simulate pipeline.
    fn evaluate(&mut self, tail: &[ActionId], g: f64, cell: &AtomicU64) -> usize {
        let current = self.best.as_ref().map_or(f64::INFINITY, |b| b.cost);
        if self.best.is_some() && g >= current {
            return 0; // cannot publish, and the depth gradient has retired
        }
        let key = tail_hash(tail);
        if let Some(&d) = self.evaluated.get(&key) {
            return d;
        }
        self.stats.validated += 1;
        let depth = match replay_tail(self.task, tail, Some(&self.task.init_values)) {
            Err(_) => {
                self.stats.replay_failures += 1;
                0
            }
            Ok(map) => match concretize(self.task, tail, &map) {
                Ok(exec) => {
                    if self.publish(tail, g, exec, false, cell) {
                        usize::MAX
                    } else {
                        tail.len() // executes, but the simulator objects
                    }
                }
                Err(e1) => match concretize_relaxed(self.task, tail, &map) {
                    Ok(exec) => {
                        if self.publish(tail, g, exec, true, cell) {
                            usize::MAX - 1
                        } else {
                            tail.len()
                        }
                    }
                    Err(e2) => {
                        self.stats.concretize_failures += 1;
                        fail_step(&e1).max(fail_step(&e2)) + 1
                    }
                },
            },
        };
        // deepest-partial anchor for the repair and SA phases
        let better = match &self.deepest {
            None => true,
            Some((_, d, c)) => depth > *d || (depth == *d && g < *c),
        };
        if better {
            self.deepest = Some((tail.to_vec(), depth, g));
        }
        self.evaluated.insert(key, depth);
        depth
    }

    /// Sim-validate a concrete execution and publish it as the incumbent.
    fn publish(
        &mut self,
        tail: &[ActionId],
        g: f64,
        exec: sekitei_planner::ConcreteExecution,
        degraded: bool,
        cell: &AtomicU64,
    ) -> bool {
        let mut plan = Plan::from_actions(self.task, tail, g, exec);
        plan.degraded = degraded;
        if !sekitei_sim::validate_plan(self.problem, self.task, &plan).ok {
            self.stats.sim_failures += 1;
            return false;
        }
        self.best = Some(Incumbent { plan, cost: g });
        self.stats.improvements += 1;
        // single-writer monotone publish; the RG lane reads Relaxed — a
        // stale read only delays its cutoff, never unsounds it
        cell.store(g.to_bits(), Ordering::Release);
        true
    }
}

/// Deterministic tail fingerprint for the evaluation cache (std hashers
/// are randomly seeded per process, which would break replayability of
/// the lane's counters).
fn tail_hash(tail: &[ActionId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &a in tail {
        h ^= a.index() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The step index a concretization failure occurred at.
fn fail_step(e: &ConcretizeFail) -> usize {
    match e {
        ConcretizeFail::ConditionFailed { step, .. }
        | ConcretizeFail::ResourceExhausted { step, .. }
        | ConcretizeFail::UndefinedRead { step, .. } => *step,
    }
}
