//! Optimistic-map replay of plan tails (paper §3.2.3, Figure 8).
//!
//! A plan tail is executed forward over an interval-valued resource map.
//! Before each action, the current interval of every variable the action
//! reads is intersected with the action's optimistic interval (new
//! variables adopt the optimistic interval outright); then the action's
//! numeric conditions are checked for *possible* satisfaction, its effects
//! are applied with interval arithmetic (all value expressions reading the
//! pre-state), and produced variables are clamped into the action's
//! declared output levels. Any empty interval or impossible condition
//! proves that **no** concrete execution of the tail exists, so the RG
//! node carrying it can be pruned.

use sekitei_compile::{GroundAction, PlanningTask};
use sekitei_model::{ActionId, AssignOp, GVarId, Interval};
use std::collections::HashMap;

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayFail {
    /// A variable's interval became empty when intersected with an
    /// action's optimistic requirement.
    EmptyRequirement {
        /// Position in the tail.
        step: usize,
        /// The variable.
        var: GVarId,
    },
    /// A numeric condition cannot be satisfied by any point assignment.
    ImpossibleCondition {
        /// Position in the tail.
        step: usize,
        /// Index of the condition within the action.
        cond: usize,
    },
    /// A consumption effect would certainly drive a resource negative.
    Overconsumption {
        /// Position in the tail.
        step: usize,
        /// The consumed variable.
        var: GVarId,
    },
    /// A produced value cannot land in the action's declared output level.
    OutputLevelMiss {
        /// Position in the tail.
        step: usize,
        /// The produced variable.
        var: GVarId,
    },
}

impl std::fmt::Display for ReplayFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayFail::EmptyRequirement { step, var } => {
                write!(f, "step {step}: requirement on {var} unsatisfiable")
            }
            ReplayFail::ImpossibleCondition { step, cond } => {
                write!(f, "step {step}: condition #{cond} impossible")
            }
            ReplayFail::Overconsumption { step, var } => {
                write!(f, "step {step}: {var} certainly overconsumed")
            }
            ReplayFail::OutputLevelMiss { step, var } => {
                write!(f, "step {step}: produced {var} misses its level")
            }
        }
    }
}

/// The interval state threaded through a replay.
pub type ResourceMap = HashMap<GVarId, Interval>;

/// Interval-state storage a replay steps through. Three implementations:
/// the public [`ResourceMap`] (callers inspect the final map), and inside
/// [`ReplayScratch`] the dense epoch-stamped store (a child replay from the
/// empty optimistic map) and that store over the initial state (terminal
/// validation).
trait IvStore {
    fn read(&self, v: GVarId) -> Option<Interval>;
    fn write(&mut self, v: GVarId, iv: Interval);
}

impl IvStore for ResourceMap {
    fn read(&self, v: GVarId) -> Option<Interval> {
        self.get(&v).copied()
    }
    fn write(&mut self, v: GVarId, iv: Interval) {
        self.insert(v, iv);
    }
}

/// Replay a tail starting from an explicit initial numeric state (used for
/// the terminal check: resource capacities as point intervals, stream
/// sources as their producible ranges). Pass `None` for the mid-search
/// replay that starts from the first action's own optimistic map.
pub fn replay_tail(
    task: &PlanningTask,
    tail: &[ActionId],
    init: Option<&[Option<Interval>]>,
) -> Result<ResourceMap, ReplayFail> {
    let mut map: ResourceMap = HashMap::new();
    if let Some(init) = init {
        for (i, iv) in init.iter().enumerate() {
            if let Some(iv) = iv {
                map.insert(GVarId::from_index(i), *iv);
            }
        }
    }
    let from_init = init.is_some();
    let mut vals = Vec::new();
    for (step, &aid) in tail.iter().enumerate() {
        step_action(task.action(aid), step, &mut map, from_init, &mut vals)?;
    }
    Ok(map)
}

fn step_action<S: IvStore>(
    act: &GroundAction,
    step: usize,
    map: &mut S,
    from_init: bool,
    vals: &mut Vec<Interval>,
) -> Result<(), ReplayFail> {
    // 1. intersect requirements (adding fresh optimistic intervals only in
    //    mid-tail mode; from the initial state every resource is known and
    //    stream variables must have been produced upstream)
    for &(v, iv) in &act.optimistic {
        match map.read(v) {
            Some(cur) => {
                let x = cur.intersect(&iv);
                if x.is_empty() {
                    return Err(ReplayFail::EmptyRequirement { step, var: v });
                }
                map.write(v, x);
            }
            None => {
                if from_init {
                    // a read of a variable with no upstream producer: the
                    // logical phases should prevent this; treat the
                    // optimistic interval as the assumption it is.
                    debug_assert!(
                        false,
                        "terminal replay read undefined variable {v} in {}",
                        act.name
                    );
                }
                map.write(v, iv);
            }
        }
    }

    // 2. conditions must be possibly satisfiable
    for (ci, cond) in act.conditions.iter().enumerate() {
        let mut env = |v: &GVarId| map.read(*v).unwrap_or_else(Interval::nonneg);
        if !cond.possibly(&mut env) {
            return Err(ReplayFail::ImpossibleCondition { step, cond: ci });
        }
    }

    // 3. effects: evaluate every value against the pre-state, then apply
    vals.clear();
    for e in act.effects.iter() {
        let mut env = |v: &GVarId| map.read(*v).unwrap_or_else(Interval::nonneg);
        vals.push(e.value.eval_interval(&mut env));
    }
    for (e, &val) in act.effects.iter().zip(vals.iter()) {
        match e.op {
            AssignOp::Set => {
                map.write(e.target, val);
            }
            AssignOp::Sub => {
                let pre = map.read(e.target).unwrap_or_else(Interval::nonneg);
                let post = pre.sub(&val).clamp_nonneg();
                if post.is_empty() {
                    return Err(ReplayFail::Overconsumption { step, var: e.target });
                }
                map.write(e.target, post);
            }
            AssignOp::Add => {
                let pre = map.read(e.target).unwrap_or_else(Interval::nonneg);
                map.write(e.target, pre.add(&val));
            }
        }
    }

    // 4. produced values must land in the declared output levels
    for &(v, iv) in &act.post {
        let cur = map.read(v).unwrap_or_else(Interval::nonneg);
        let x = cur.intersect(&iv);
        if x.is_empty() {
            return Err(ReplayFail::OutputLevelMiss { step, var: v });
        }
        map.write(v, x);
    }
    Ok(())
}

/// Dense epoch-stamped per-variable store: `reset` is O(1), an unwritten
/// variable is recognized by a stale stamp. The replay keeps intervals in
/// it, the concrete executor ([`mod@crate::concretize`]) values.
pub(crate) struct DenseStore<T> {
    val: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl<T: Copy> DenseStore<T> {
    pub(crate) fn new(num_vars: usize, fill: T) -> Self {
        DenseStore { val: vec![fill; num_vars], stamp: vec![0; num_vars], epoch: 1 }
    }

    /// Forget every write.
    pub(crate) fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // epoch wrapped: old stamps could alias, wipe them once
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The value written to `v` since the last reset.
    #[inline]
    pub(crate) fn get(&self, v: GVarId) -> Option<T> {
        (self.stamp[v.index()] == self.epoch).then(|| self.val[v.index()])
    }

    #[inline]
    pub(crate) fn set(&mut self, v: GVarId, x: T) {
        self.val[v.index()] = x;
        self.stamp[v.index()] = self.epoch;
    }
}

impl IvStore for DenseStore<Interval> {
    fn read(&self, v: GVarId) -> Option<Interval> {
        self.get(v)
    }
    fn write(&mut self, v: GVarId, iv: Interval) {
        self.set(v, iv);
    }
}

/// A [`DenseStore`] over the initial state: an unwritten variable reads its
/// `task.init_values` entry, so the replay from the initial state needs no
/// seeding and its reset stays O(1).
struct OverInit<'a> {
    store: &'a mut DenseStore<Interval>,
    init: &'a [Option<Interval>],
}

impl IvStore for OverInit<'_> {
    fn read(&self, v: GVarId) -> Option<Interval> {
        self.store.get(v).or(self.init[v.index()])
    }
    fn write(&mut self, v: GVarId, iv: Interval) {
        self.store.set(v, iv);
    }
}

/// The interval state a successful [`ReplayScratch::replay_from_init`]
/// left behind.
pub struct InitReplay<'a> {
    store: &'a DenseStore<Interval>,
    init: &'a [Option<Interval>],
}

impl InitReplay<'_> {
    /// The interval of `v`: what the map of `replay_tail(task, tail,
    /// Some(&task.init_values))` holds for it, `None` where it holds none.
    pub fn get(&self, v: GVarId) -> Option<Interval> {
        self.store.get(v).or(self.init[v.index()])
    }
}

/// Allocation-free replays for the RG hot path, through one dense store
/// with O(1) reset instead of a freshly allocated `HashMap`.
///
/// - [`ReplayScratch::child_tail_fails`] replays a child's tail `[a] ++
///   parent_tail` from the empty optimistic map: it steps `a` and then the
///   parent tail, so its outcome is exactly `replay_tail(task,
///   &child_tail, None).is_err()`.
/// - [`ReplayScratch::replay_from_init`] replays a candidate's tail from
///   the initial state, as `replay_tail(task, tail,
///   Some(&task.init_values))` does.
pub struct ReplayScratch {
    store: DenseStore<Interval>,
    /// Effect-value buffer shared across steps.
    vals: Vec<Interval>,
}

impl ReplayScratch {
    /// A scratch sized for the task's ground variables.
    pub fn new(task: &PlanningTask) -> Self {
        ReplayScratch {
            store: DenseStore::new(task.gvars.len(), Interval::nonneg()),
            vals: Vec::new(),
        }
    }

    /// Exact replacement for `replay_tail(task, &[a] ++ parent_tail,
    /// None).is_err()`.
    pub fn child_tail_fails(
        &mut self,
        task: &PlanningTask,
        a: ActionId,
        parent_tail: &[ActionId],
    ) -> bool {
        self.store.reset();
        std::iter::once(&a).chain(parent_tail).enumerate().any(|(step, &aid)| {
            step_action(task.action(aid), step, &mut self.store, false, &mut self.vals).is_err()
        })
    }

    /// Exact replacement for `replay_tail(task, tail,
    /// Some(&task.init_values))`: the same failure, or on success a view
    /// that reads what the returned map holds.
    pub fn replay_from_init<'a>(
        &'a mut self,
        task: &'a PlanningTask,
        tail: &[ActionId],
    ) -> Result<InitReplay<'a>, ReplayFail> {
        self.store.reset();
        let mut store = OverInit { store: &mut self.store, init: &task.init_values };
        for (step, &aid) in tail.iter().enumerate() {
            step_action(task.action(aid), step, &mut store, true, &mut self.vals)?;
        }
        Ok(InitReplay { store: &self.store, init: &task.init_values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_compile::{compile, ActionKind};
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    /// Find an action by predicate on its name.
    fn find(task: &PlanningTask, pat: &str) -> ActionId {
        task.action_ids()
            .find(|&a| task.action(a).name.contains(pat))
            .unwrap_or_else(|| panic!("no action matching `{pat}`"))
    }

    #[test]
    fn direct_m_cross_fails_client_demand() {
        // scenario B Tiny: cross M at level 0 then place the client —
        // the delivered [0,70] interval cannot satisfy ibw ≥ 90.
        let p = scenarios::tiny(LevelScenario::B);
        let task = compile(&p).unwrap();
        let cross = find(&task, "cross(M,n0→n1)");
        let client = find(&task, "place(Client,n1)[M=0]");
        let r = replay_tail(&task, &[cross, client], Some(&task.init_values));
        assert!(matches!(r, Err(ReplayFail::ImpossibleCondition { step: 1, .. })), "{r:?}");
    }

    #[test]
    fn paper_plan_replays_from_init() {
        // the Figure 4 plan under scenario C
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let tail = figure4_tail(&p, &task);
        let map = replay_tail(&task, &tail, Some(&task.init_values)).expect("plan must replay");
        // delivered M at the client node ends in [90, 100]
        let m = p.iface_id("M").unwrap();
        let v = task
            .gvar_id(&sekitei_compile::GVarData::IfaceProp {
                iface: m,
                prop: 0,
                node: p.goals[0].node,
            })
            .unwrap();
        let iv = map[&v];
        assert!(iv.lo >= 90.0 - 1e-9 && iv.hi <= 100.0 + 1e-9, "{iv}");
    }

    /// Assemble the Figure 4 action sequence at the M=[90,100) level.
    fn figure4_tail(p: &sekitei_model::CppProblem, task: &PlanningTask) -> Vec<ActionId> {
        let pick = |pat: &str, lvl_frag: &str| {
            task.action_ids()
                .find(|&a| {
                    let n = &task.action(a).name;
                    n.contains(pat) && n.contains(lvl_frag)
                })
                .unwrap_or_else(|| panic!("no `{pat}` with `{lvl_frag}`"))
        };
        let _ = p;
        vec![
            pick("place(Splitter,n0)", "[M=1,→T=1,→I=1]"),
            pick("place(Zip,n0)", "[T=1,→Z=1]"),
            pick("cross(Z,n0→n1)", "in=1,out=1"),
            pick("cross(I,n0→n1)", "in=1,out=1"),
            pick("place(Unzip,n1)", "[Z=1,→T=1]"),
            pick("place(Merger,n1)", "[T=1,I=1,→M=1]"),
            pick("place(Client,n1)", "[M=1]"),
        ]
    }

    #[test]
    fn uncompressed_t_plus_i_overconsumes_link() {
        // sending raw T and I over the 70-unit link at level 1 each:
        // T∈[63,70) consumes the link, then I∈[27,30) cannot be delivered
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let sp = find(&task, "place(Splitter,n0)[M=1,→T=1,→I=1]");
        let ct = find(&task, "cross(T,n0→n1)[in=1,out=1]");
        let ci = find(&task, "cross(I,n0→n1)[in=1,out=1]");
        let r = replay_tail(&task, &[sp, ct, ci], Some(&task.init_values));
        assert!(r.is_err(), "link overconsumption must be caught: {r:?}");
    }

    #[test]
    fn mid_tail_replay_assumes_optimistic_intervals() {
        // without an initial map, a lone client placement succeeds on its
        // own optimistic assumption
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let client = find(&task, "place(Client,n1)[M=1]");
        let map = replay_tail(&task, &[client], None).unwrap();
        assert!(!map.is_empty());
    }

    #[test]
    fn cpu_overconsumption_detected() {
        // Splitter at M=[100,∞) needs ≥40 CPU on a 30-CPU node once the
        // source cap [0,200] forces the interval up; two Splitters at the
        // top level certainly exhaust the node.
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let sp = task
            .action_ids()
            .find(|&a| {
                let n = &task.action(a).name;
                n.contains("place(Splitter,n0)") && n.contains("[M=2")
            })
            .unwrap();
        // one is optimistically fine (CPU [30,30] − [20, 40] → possibly ≥ 0)
        replay_tail(&task, &[sp], Some(&task.init_values)).unwrap();
        // two certainly overconsume: remaining [0,10] minus [20,40] < 0
        let r = replay_tail(&task, &[sp, sp], Some(&task.init_values));
        assert!(
            matches!(
                r,
                Err(ReplayFail::ImpossibleCondition { .. })
                    | Err(ReplayFail::Overconsumption { .. })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn replay_is_pure() {
        let p = scenarios::tiny(LevelScenario::C);
        let task = compile(&p).unwrap();
        let tail = figure4_tail(&p, &task);
        let a = replay_tail(&task, &tail, Some(&task.init_values)).unwrap();
        let b = replay_tail(&task, &tail, Some(&task.init_values)).unwrap();
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(b[k], *v);
        }
        let _ = task.actions.iter().filter(|a| matches!(a.kind, ActionKind::Cross { .. })).count();
    }
}
