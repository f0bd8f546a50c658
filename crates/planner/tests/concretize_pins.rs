//! Pins the concrete executor's outputs on the Tiny and Small A–E
//! searches (`PlannerConfig::default()`, `degrade` on for A), as digests
//! of `f64` bits. Per scenario:
//!
//! - every candidate the RG rejects after its tail replayed from the
//!   initial state: its tail, its cost and its `ConcretizeFail`;
//! - every such candidate re-bound by `concretize_relaxed`, the degraded
//!   fallbacks, and the plan the facade returns (accepted or degraded);
//! - `minimize_sources` on the B–E plans.
//!
//! An execution's digest covers its source values, its ledger rows and
//! its `final_state`. The digests were recorded before the executor moved
//! onto dense state; a changed digest is a changed executor or search, not
//! a number to paste in.

use sekitei_compile::{compile, PlanningTask};
use sekitei_model::{ActionId, LevelScenario};
use sekitei_planner::{
    concretize, concretize_relaxed, minimize_sources, replay_tail, rg, ConcreteExecution,
    ConcretizeFail, Planner, PlannerConfig, Plrg, Slrg,
};
use sekitei_topology::scenarios::{self, NetSize};
use std::time::Instant;

/// (scenario, outcome, items digested, digest): `rejected` digests each
/// recorded candidate's tail, cost and greedy failure; `relaxed` the
/// `concretize_relaxed` outcome of each (the count is how many bind);
/// `plan` the plan the facade returns, with its execution; `minimized`
/// the `minimize_sources` execution of a B–E plan.
type Pin = (&'static str, &'static str, usize, u64);

const PINS: &[Pin] = &[
    ("Tiny/A", "rejected", 20, 0x6605d9af812ae394),
    ("Tiny/A", "relaxed", 1, 0x54a79800fa3fd083),
    ("Tiny/A", "plan", 7, 0x1b67ff587c935ae7),
    ("Tiny/A", "minimized", 0, 0xcbf29ce484222325),
    ("Tiny/B", "rejected", 2, 0xd3e71f5b73db79bd),
    ("Tiny/B", "relaxed", 0, 0x6287a67a0ff13023),
    ("Tiny/B", "plan", 7, 0xf8de8c45a2896d7f),
    ("Tiny/B", "minimized", 7, 0xa61669dd5317970d),
    ("Tiny/C", "rejected", 0, 0xcbf29ce484222325),
    ("Tiny/C", "relaxed", 0, 0xcbf29ce484222325),
    ("Tiny/C", "plan", 7, 0x483437d8ce151972),
    ("Tiny/C", "minimized", 7, 0x1b1aac377682310f),
    ("Tiny/D", "rejected", 0, 0xcbf29ce484222325),
    ("Tiny/D", "relaxed", 0, 0xcbf29ce484222325),
    ("Tiny/D", "plan", 7, 0x483437d8ce151972),
    ("Tiny/D", "minimized", 7, 0x1b1aac377682310f),
    ("Tiny/E", "rejected", 0, 0xcbf29ce484222325),
    ("Tiny/E", "relaxed", 0, 0xcbf29ce484222325),
    ("Tiny/E", "plan", 7, 0x6e607310cfe2aacc),
    ("Tiny/E", "minimized", 7, 0x1b1aac377682310f),
    ("Small/A", "rejected", 2000, 0x9014ff3e31226708),
    ("Small/A", "relaxed", 112, 0x6a1df3ee019b65bc),
    ("Small/A", "plan", 10, 0x664466cc17d035b7),
    ("Small/A", "minimized", 0, 0xcbf29ce484222325),
    ("Small/B", "rejected", 11, 0x0cb79bb10c29d8e6),
    ("Small/B", "relaxed", 0, 0xb8a244d87aecd866),
    ("Small/B", "plan", 10, 0x9532b436c9d56182),
    ("Small/B", "minimized", 10, 0x821301c25da2ea99),
    ("Small/C", "rejected", 0, 0xcbf29ce484222325),
    ("Small/C", "relaxed", 0, 0xcbf29ce484222325),
    ("Small/C", "plan", 13, 0xaf5869df6707895d),
    ("Small/C", "minimized", 13, 0xeae2be745cfdfa27),
    ("Small/D", "rejected", 0, 0xcbf29ce484222325),
    ("Small/D", "relaxed", 0, 0xcbf29ce484222325),
    ("Small/D", "plan", 13, 0xaf5869df6707895d),
    ("Small/D", "minimized", 13, 0xeae2be745cfdfa27),
    ("Small/E", "rejected", 0, 0xcbf29ce484222325),
    ("Small/E", "relaxed", 0, 0xcbf29ce484222325),
    ("Small/E", "plan", 13, 0xeb50abef122f8628),
    ("Small/E", "minimized", 13, 0xeae2be745cfdfa27),
];

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn real(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn fail(&mut self, e: &ConcretizeFail) {
        match *e {
            ConcretizeFail::ConditionFailed { step, cond } => {
                self.num(1);
                self.num(step);
                self.num(cond);
            }
            ConcretizeFail::ResourceExhausted { step, var } => {
                self.num(2);
                self.num(step);
                self.num(var.index());
            }
            ConcretizeFail::UndefinedRead { step, var } => {
                self.num(3);
                self.num(step);
                self.num(var.index());
            }
        }
    }

    fn exec(&mut self, x: &ConcreteExecution) {
        self.num(x.source_values.len());
        for &(v, val) in &x.source_values {
            self.num(v.index());
            self.real(val);
        }
        self.num(x.ledger.rows.len());
        for row in &x.ledger.rows {
            self.num(row.writes.len());
            for &(v, val) in &row.writes {
                self.num(v.index());
                self.real(val);
            }
        }
        let mut state: Vec<_> = x.final_state.iter().map(|(v, val)| (v.index(), *val)).collect();
        state.sort_by_key(|&(v, _)| v);
        self.num(state.len());
        for (v, val) in state {
            self.num(v);
            self.real(val);
        }
    }

    fn outcome(&mut self, r: &Result<ConcreteExecution, ConcretizeFail>) {
        match r {
            Ok(x) => {
                self.num(0);
                self.exec(x);
            }
            Err(e) => {
                self.num(1);
                self.fail(e);
            }
        }
    }

    fn tail(&mut self, tail: &[ActionId], g: f64) {
        self.num(tail.len());
        for a in tail {
            self.num(a.index());
        }
        self.real(g);
    }
}

fn config(sc: LevelScenario) -> PlannerConfig {
    PlannerConfig { degrade: sc == LevelScenario::A, ..PlannerConfig::default() }
}

/// One scenario's pins, printed as their `PINS` entries would be.
fn pins(size: NetSize, sc: LevelScenario) -> Vec<String> {
    let label = format!("{}/{sc:?}", size.label());
    let problem = scenarios::problem(size, sc);
    let cfg = config(sc);
    let task: PlanningTask = compile(&problem).unwrap();
    let plrg = Plrg::build(&task);
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    let r = rg::search(&task, &plrg, &mut slrg, &cfg, Instant::now());

    let (mut rejected, mut relaxed, mut bound) = (Digest::new(), Digest::new(), 0);
    for (tail, g) in &r.rejected {
        let map = replay_tail(&task, tail, Some(&task.init_values)).expect("recorded tails replay");
        rejected.tail(tail, *g);
        let greedy = concretize(&task, tail, &map);
        assert!(greedy.is_err(), "{label}: a recorded candidate concretizes");
        rejected.outcome(&greedy);
        let rebound = concretize_relaxed(&task, tail, &map);
        bound += usize::from(rebound.is_ok());
        relaxed.outcome(&rebound);
    }

    let (mut plan, mut minimized) = (Digest::new(), Digest::new());
    let (mut steps, mut trimmed) = (0, 0);
    if let Some(p) = Planner::new(cfg).plan(&problem).unwrap().plan {
        let actions: Vec<ActionId> = p.steps.iter().map(|s| s.action).collect();
        steps = actions.len();
        plan.num(usize::from(p.degraded));
        plan.tail(&actions, p.cost_lower_bound);
        plan.exec(&p.execution);
        if !p.degraded {
            let map = replay_tail(&task, &actions, Some(&task.init_values)).unwrap();
            minimized.outcome(&minimize_sources(&task, &actions, &map));
            trimmed = steps;
        }
    }
    [
        ("rejected", r.rejected.len(), rejected.0),
        ("relaxed", bound, relaxed.0),
        ("plan", steps, plan.0),
        ("minimized", trimmed, minimized.0),
    ]
    .iter()
    .map(|&(kind, n, digest)| format!("({label:?}, {kind:?}, {n}, {digest:#018x})"))
    .collect()
}

#[test]
fn executor_outputs_are_pinned() {
    let got: Vec<String> = [NetSize::Tiny, NetSize::Small]
        .into_iter()
        .flat_map(|size| LevelScenario::ALL.map(|sc| (size, sc)))
        .flat_map(|(size, sc)| pins(size, sc))
        .collect();
    let want: Vec<String> = PINS
        .iter()
        .map(|&(label, kind, n, digest)| format!("({label:?}, {kind:?}, {n}, {digest:#018x})"))
        .collect();
    let table: String = got.iter().map(|r| format!("    {r},\n")).collect();
    assert!(got == want, "executor outputs changed; now:\n{table}");
}
