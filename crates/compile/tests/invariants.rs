//! Property-based invariants of the grounding/leveling compiler: every
//! ground action the compiler emits must be internally consistent, and the
//! compiled task must be a faithful skeleton of the problem.

use proptest::prelude::*;
use sekitei_compile::{
    compile, compile_full, node_orbits, signature_classes, AchieverIndex, ActionKind, CompileStats,
    GVarData, NodeOrbits, PlanningTask, PropData,
};
use sekitei_model::{CppProblem, Expr, GVarId, Interval, LevelScenario, MediaConfig, PropId};
use sekitei_topology::scenarios::{self, RandomMediaConfig, RandomModel};
use std::time::Duration;

fn check_invariants(_p: &CppProblem, task: &PlanningTask) -> Result<(), TestCaseError> {
    // proposition table is consistent with the index
    for (i, pd) in task.props.iter().enumerate() {
        let id = task.prop_id(pd).expect("interned");
        prop_assert_eq!(id.index(), i);
    }
    // goals and inits are valid ids; init mask matches the list
    for &g in &task.goal_props {
        prop_assert!(g.index() < task.num_props());
    }
    for (i, &m) in task.init_mask.iter().enumerate() {
        let in_list = task.init_props.binary_search(&sekitei_model::PropId(i as u32)).is_ok();
        prop_assert_eq!(m, in_list);
    }

    for a in &task.actions {
        // sorted, deduplicated propositional lists
        prop_assert!(a.preconds.windows(2).all(|w| w[0] < w[1]), "{}", a.name);
        prop_assert!(a.adds.windows(2).all(|w| w[0] < w[1]), "{}", a.name);
        // non-negative finite lower-bound cost
        prop_assert!(a.cost.is_finite() && a.cost >= 0.0, "{}: cost {}", a.name, a.cost);
        // optimistic intervals non-empty
        for (v, iv) in &a.optimistic {
            prop_assert!(!iv.is_empty(), "{}: {} empty", a.name, task.gvar_name(*v));
        }
        for (v, iv) in &a.post {
            prop_assert!(!iv.is_empty(), "{}: post {} empty", a.name, task.gvar_name(*v));
        }
        // kind ↔ proposition consistency
        match &a.kind {
            ActionKind::Place { comp, node } => {
                let placed = task
                    .prop_id(&PropData::Placed { comp: *comp, node: *node })
                    .expect("placed prop interned");
                prop_assert!(a.adds.contains(&placed), "{}", a.name);
            }
            ActionKind::Cross { iface, dir } => {
                // precondition availability on the from-side
                prop_assert!(
                    a.preconds.iter().any(|&p| matches!(
                        task.prop(p),
                        PropData::Avail { iface: i2, node, .. }
                            if i2 == *iface && node == dir.from
                    )),
                    "{}",
                    a.name
                );
                // all adds land on the to-side
                for &add in &a.adds {
                    let lands_on_to = matches!(
                        task.prop(add),
                        PropData::Avail { node, .. } if node == dir.to
                    );
                    prop_assert!(lands_on_to, "{} adds off the to-side", a.name);
                }
            }
        }
        // every numeric variable referenced is interned
        for c in a.conditions.iter() {
            c.for_each_var(&mut |v| assert!(v.index() < task.gvars.len()));
        }
        for e in a.effects.iter() {
            e.for_each_var(&mut |v| assert!(v.index() < task.gvars.len()));
        }
    }

    // achievers index is exactly inverse of adds
    for pi in 0..task.num_props() {
        let p = sekitei_model::PropId(pi as u32);
        for &a in task.achievers(p) {
            prop_assert!(task.action(a).adds.contains(&p));
        }
    }

    // every resource-typed gvar has a concrete initial value
    for (i, gv) in task.gvars.iter().enumerate() {
        match gv {
            GVarData::NodeRes { .. } | GVarData::LinkRes { .. } => {
                let iv = task.init_values[i].expect("resources always have capacities");
                prop_assert!(!iv.is_empty());
            }
            GVarData::IfaceProp { .. } => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn media_grounding_invariants(demand in 40.0..130.0f64,
                                  split in 3..8usize,
                                  sc_idx in 0..5usize) {
        let cfg = MediaConfig {
            client_demand: demand.round(),
            split_t: split as f64 / 10.0,
            ..MediaConfig::default()
        };
        let p = scenarios::small_with(cfg, LevelScenario::ALL[sc_idx]);
        let task = compile(&p).unwrap();
        check_invariants(&p, &task)?;
    }

    #[test]
    fn source_range_respected(max in 50.0..400.0f64) {
        let mut p = scenarios::tiny(LevelScenario::D);
        let max = max.round();
        p.sources[0].properties.insert("ibw".into(), Interval::new(0.0, max));
        let task = compile(&p).unwrap();
        check_invariants(&p, &task)?;
        // the source var's initial value is the declared range
        let m = p.iface_id("M").unwrap();
        let v = task
            .gvar_id(&GVarData::IfaceProp { iface: m, prop: 0, node: p.sources[0].node })
            .unwrap();
        prop_assert_eq!(task.init_values[v.index()], Some(Interval::new(0.0, max)));
        // initial avail levels exactly cover the range
        let spec = p.iface(m).levels_of("ibw");
        for l in 0..spec.num_levels() {
            let pid = task.prop_id(&PropData::Avail {
                iface: m,
                node: p.sources[0].node,
                level: l as u8,
            });
            let expected = spec.interval(l).intersects(&Interval::new(0.0, max));
            let actual = pid.is_some_and(|pid| task.initially(pid));
            prop_assert_eq!(actual, expected, "level {}", l);
        }
    }

    #[test]
    fn grounding_is_deterministic(sc_idx in 0..5usize) {
        let p = scenarios::small(LevelScenario::ALL[sc_idx]);
        let a = compile(&p).unwrap();
        let b = compile(&p).unwrap();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.num_actions(), b.num_actions());
        prop_assert_eq!(a.num_props(), b.num_props());
        for (x, y) in a.actions.iter().zip(&b.actions) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!(x.cost, y.cost);
            prop_assert_eq!(&x.preconds, &y.preconds);
            prop_assert_eq!(&x.adds, &y.adds);
        }
    }
}

#[test]
fn fingerprint_separates_distinct_problems() {
    // the structural fingerprint is a cache identity: equal problems must
    // collide (checked per-scenario in `grounding_is_deterministic`), and
    // distinct scenarios must not
    let mut seen = std::collections::HashSet::new();
    for sc in LevelScenario::ALL {
        let fp = compile(&scenarios::tiny(sc)).unwrap().fingerprint();
        assert!(seen.insert(fp), "fingerprint collision for {sc:?}");
    }
    for sc in LevelScenario::ALL {
        let fp = compile(&scenarios::small(sc)).unwrap().fingerprint();
        assert!(seen.insert(fp), "fingerprint collision for small/{sc:?}");
    }
}

#[test]
fn tradeoff_and_latency_grounding_invariants() {
    for p in [
        scenarios::tradeoff(0.5),
        scenarios::tradeoff_deadline(0.5, 30.0),
        scenarios::large(LevelScenario::E),
    ] {
        let task = compile(&p).unwrap();
        check_invariants(&p, &task).unwrap();
    }
}

#[test]
fn combo_explosion_guarded() {
    // a component requiring 8 interfaces, each with 4 cutpoints (5 levels),
    // would ground to 5^8 ≈ 390k level combinations — the compiler must
    // refuse instead of hanging
    use sekitei_model::{
        ComponentSpec, CppProblem, Goal, InterfaceSpec, LevelSpec, LinkClass, Network, ResourceDef,
        StreamSource,
    };
    let mut net = Network::new();
    let a = net.add_node("a", [("cpu", 10.0)]);
    let b = net.add_node("b", [("cpu", 10.0)]);
    net.add_link(a, b, LinkClass::Lan, [("lbw", 100.0)]);

    let levels = LevelSpec::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
    let mut interfaces = Vec::new();
    let mut omnivore = ComponentSpec::new("Omnivore");
    let mut sources = Vec::new();
    for i in 0..8 {
        let name = format!("S{i}");
        interfaces.push(
            InterfaceSpec::bandwidth_stream(&name, "ibw", "lbw").with_levels("ibw", levels.clone()),
        );
        omnivore = omnivore.requires(&name);
        sources.push(StreamSource::up_to(&name, a, "ibw", 50.0));
    }
    let p = CppProblem {
        network: net,
        resources: vec![ResourceDef::node("cpu"), ResourceDef::link("lbw")],
        interfaces,
        components: vec![omnivore],
        sources,
        pre_placed: vec![],
        goals: vec![Goal { component: "Omnivore".into(), node: a }],
    };
    p.validate().unwrap();
    match compile(&p) {
        Err(sekitei_compile::CompileError::TooManyCombinations { count, .. }) => {
            assert!(count > 200_000);
        }
        other => panic!("expected combo guard, got {other:?}"),
    }
}

#[test]
fn rigid_interfaces_skip_degradable_closure() {
    // mark M non-degradable: producing level 3 must add ONLY level 3
    let mut p = scenarios::tiny(LevelScenario::D);
    let m_idx = p.iface_id("M").unwrap().index();
    p.interfaces[m_idx].degradable = false;
    let task = compile(&p).unwrap();
    let m = p.iface_id("M").unwrap();
    for a in &task.actions {
        if !a.name.starts_with("place(Merger") {
            continue;
        }
        let m_levels: Vec<u8> = a
            .adds
            .iter()
            .filter_map(|&pr| match task.prop(pr) {
                PropData::Avail { iface, level, .. } if iface == m => Some(level),
                _ => None,
            })
            .collect();
        assert_eq!(m_levels.len(), 1, "{}: {m_levels:?}", a.name);
    }
    // ... and the degradable default adds the closure
    let q = scenarios::tiny(LevelScenario::D);
    let task2 = compile(&q).unwrap();
    let closure_found = task2.actions.iter().any(|a| {
        a.name.starts_with("place(Merger")
            && a.adds
                .iter()
                .filter(
                    |&&pr| matches!(task2.prop(pr), PropData::Avail { iface, .. } if iface == m),
                )
                .count()
                > 1
    });
    assert!(closure_found);
}

/// FNV-1a over every field of a compiled task, floats by their bits and
/// every list length-prefixed. Unlike [`PlanningTask::fingerprint`], which
/// hashes names, costs and the initial state only, this pins the numeric
/// formulas, optimistic maps, level assignments and symmetry classes too.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn idx(&mut self, i: usize) {
        self.u64(i as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.idx(s.len());
        self.bytes(s.as_bytes());
    }

    fn interval(&mut self, iv: Interval) {
        self.f64(iv.lo);
        self.f64(iv.hi);
    }

    fn bindings(&mut self, list: &[(GVarId, Interval)]) {
        self.idx(list.len());
        for &(v, iv) in list {
            self.idx(v.index());
            self.interval(iv);
        }
    }

    fn expr(&mut self, e: &Expr<GVarId>) {
        let (tag, kids): (u8, [Option<&Expr<GVarId>>; 2]) = match e {
            Expr::Const(c) => {
                self.bytes(&[0]);
                return self.f64(*c);
            }
            Expr::Var(v) => {
                self.bytes(&[1]);
                return self.idx(v.index());
            }
            Expr::Add(a, b) => (2, [Some(a), Some(b)]),
            Expr::Sub(a, b) => (3, [Some(a), Some(b)]),
            Expr::Mul(a, b) => (4, [Some(a), Some(b)]),
            Expr::Div(a, b) => (5, [Some(a), Some(b)]),
            Expr::Min(a, b) => (6, [Some(a), Some(b)]),
            Expr::Max(a, b) => (7, [Some(a), Some(b)]),
            Expr::Neg(a) => (8, [Some(a), None]),
        };
        self.bytes(&[tag]);
        for k in kids.into_iter().flatten() {
            self.expr(k);
        }
    }

    fn orbits(&mut self, o: &NodeOrbits) {
        self.idx(o.num_nodes());
        self.idx(o.orbit_count());
        for members in o.orbits() {
            self.idx(members.len());
            for n in members {
                self.idx(n.index());
            }
        }
    }

    fn task(&mut self, t: &PlanningTask) {
        self.idx(t.actions.len());
        for a in &t.actions {
            self.str(&a.name);
            match &a.kind {
                ActionKind::Place { comp, node } => {
                    self.bytes(&[0]);
                    self.idx(comp.index());
                    self.idx(node.index());
                }
                ActionKind::Cross { iface, dir } => {
                    self.bytes(&[1]);
                    self.idx(iface.index());
                    self.idx(dir.link.index());
                    self.idx(dir.from.index());
                    self.idx(dir.to.index());
                }
            }
            for group in [&a.preconds, &a.adds] {
                self.idx(group.len());
                for p in group {
                    self.idx(p.index());
                }
            }
            self.idx(a.conditions.len());
            for c in a.conditions.iter() {
                self.expr(&c.lhs);
                self.str(&format!("{:?}", c.op));
                self.expr(&c.rhs);
            }
            self.idx(a.effects.len());
            for e in a.effects.iter() {
                self.idx(e.target.index());
                self.str(&format!("{:?}", e.op));
                self.expr(&e.value);
            }
            self.bindings(&a.optimistic);
            self.bindings(&a.post);
            self.idx(a.levels.len());
            for &(v, l) in &a.levels {
                self.idx(v.index());
                self.bytes(&[l]);
            }
            self.f64(a.cost);
        }
        self.idx(t.props.len());
        for (p, name) in t.props.iter().zip(&t.prop_names) {
            match *p {
                PropData::Placed { comp, node } => {
                    self.bytes(&[0]);
                    self.idx(comp.index());
                    self.idx(node.index());
                }
                PropData::Avail { iface, node, level } => {
                    self.bytes(&[1]);
                    self.idx(iface.index());
                    self.idx(node.index());
                    self.bytes(&[level]);
                }
            }
            self.str(name);
        }
        self.idx(t.gvars.len());
        for (g, name) in t.gvars.iter().zip(&t.gvar_names) {
            match *g {
                GVarData::IfaceProp { iface, prop, node } => {
                    self.bytes(&[0, prop]);
                    self.idx(iface.index());
                    self.idx(node.index());
                }
                GVarData::NodeRes { res, node } => {
                    self.bytes(&[1]);
                    self.idx(res as usize);
                    self.idx(node.index());
                }
                GVarData::LinkRes { res, link } => {
                    self.bytes(&[2]);
                    self.idx(res as usize);
                    self.idx(link.index());
                }
            }
            self.str(name);
        }
        for list in [&t.init_props, &t.goal_props] {
            self.idx(list.len());
            for p in list {
                self.idx(p.index());
            }
        }
        self.idx(t.init_mask.len());
        for &m in &t.init_mask {
            self.bytes(&[m as u8]);
        }
        self.idx(t.init_values.len());
        for v in &t.init_values {
            match v {
                None => self.bytes(&[0]),
                Some(iv) => {
                    self.bytes(&[1]);
                    self.interval(*iv);
                }
            }
        }
        for p in 0..t.num_props() {
            let achievers = t.achievers(sekitei_model::PropId(p as u32));
            self.idx(achievers.len());
            for a in achievers {
                self.idx(a.index());
            }
        }
        self.orbits(&t.orbits);
        self.orbits(&t.sig_classes);
        let s = &t.stats;
        for n in [s.actions, s.pruned, s.props, s.gvars] {
            self.idx(n);
        }
    }
}

/// Structural digests of the goal-relevant tasks [`compile`] builds for
/// the Table 2 grid and a seeded random-network grid: each is the task
/// [`compile_full`] builds cut to its goal-relevant slice
/// (`built_task_is_the_full_task_cut_to_its_goal_relevant_slice`).
/// Compilation must reproduce every field bit for bit.
const TASK_DIGESTS: &[(&str, u64)] = &[
    ("tiny/A", 0x8401f1cef3f030fe),
    ("small/A", 0xe5092ffc675b5e03),
    ("large/A", 0x188ee1b903f72ebb),
    ("tiny/B", 0xf039fd864c241d4b),
    ("small/B", 0xe01304a10383db24),
    ("large/B", 0x8dd1985738404aa6),
    ("tiny/C", 0x25712a2839210652),
    ("small/C", 0x7a29a0720d0bb005),
    ("large/C", 0xb65c6ce20671fa8b),
    ("tiny/D", 0x88425cdf4859ac8d),
    ("small/D", 0x77eec8e8d9b1b61f),
    ("large/D", 0x0b34f7a57d37efb3),
    ("tiny/E", 0x86519fe5883f629e),
    ("small/E", 0x94c6b4a467b19f1c),
    ("large/E", 0xeb0e24c712a87db9),
    ("Waxman10/A", 0x91b2b293a4a60aa8),
    ("Waxman10/C", 0x465aa12a5f7bf100),
    ("Waxman10/E", 0x1f9dcd03e317ed29),
    ("Waxman16/A", 0x830f198f14b9c13f),
    ("Waxman16/C", 0x78fdf18889ad42b3),
    ("Waxman16/E", 0x953211efadc2deda),
    ("BarabasiAlbert10/A", 0x7ecadd0e2be77103),
    ("BarabasiAlbert10/C", 0xfd0c33432357257e),
    ("BarabasiAlbert10/E", 0x69e382f94bf663dc),
    ("BarabasiAlbert16/A", 0x89b4141f048d0b3b),
    ("BarabasiAlbert16/C", 0x4715c42700fbf747),
    ("BarabasiAlbert16/E", 0xeb104697ae8ec5e5),
];

/// Structural digests of every task [`compile_full`] builds on the same
/// grid, recorded before the grounder shared formulas across level
/// variants. The full grounding is the grounder with the goal-relevance
/// closure off, so it must still reproduce them bit for bit.
const FULL_DIGESTS: &[(&str, u64)] = &[
    ("tiny/A", 0xd052332af3b16385),
    ("small/A", 0x68ee1a40b99f1bbb),
    ("large/A", 0xbe1252c15905f834),
    ("tiny/B", 0x35e18bb9fa92409a),
    ("small/B", 0x5ab90a58e773f3ef),
    ("large/B", 0x1fe58e466e7eb65a),
    ("tiny/C", 0xcfa3c497915f92b9),
    ("small/C", 0x112fd810934bcfdd),
    ("large/C", 0x1ceb8de9e1c2fe33),
    ("tiny/D", 0x93d09e4ac17c5a55),
    ("small/D", 0x15b1b28db5120d16),
    ("large/D", 0x6197c11c8615c727),
    ("tiny/E", 0x5245d0ebe8e07102),
    ("small/E", 0xc53c7ba02ee9ab8e),
    ("large/E", 0x39fbe016ee33048f),
    ("Waxman10/A", 0x461ea54f35731698),
    ("Waxman10/C", 0xcd9c55d30f03d0f2),
    ("Waxman10/E", 0xfc4f0ce94ab80310),
    ("Waxman16/A", 0x6c23f0c34b231550),
    ("Waxman16/C", 0x7413ac01c2f4412a),
    ("Waxman16/E", 0x8be2793dc50018e9),
    ("BarabasiAlbert10/A", 0xc80f729bba8e27bc),
    ("BarabasiAlbert10/C", 0x06bbbbfdb56c4256),
    ("BarabasiAlbert10/E", 0xcf25e6c58c761858),
    ("BarabasiAlbert16/A", 0x864f1a319bc97843),
    ("BarabasiAlbert16/C", 0x3ef556a259fe22ed),
    ("BarabasiAlbert16/E", 0x3f3bfc8afe5acf3d),
];

/// The Table 2 grid, then Waxman and Barabási–Albert networks of 10 and 16
/// nodes at levels A, C and E.
fn digest_grid() -> Vec<(String, CppProblem)> {
    let mut grid: Vec<(String, CppProblem)> = Vec::new();
    for sc in LevelScenario::ALL {
        grid.push((format!("tiny/{sc:?}"), scenarios::tiny(sc)));
        grid.push((format!("small/{sc:?}"), scenarios::small(sc)));
        grid.push((format!("large/{sc:?}"), scenarios::large(sc)));
    }
    for model in [RandomModel::Waxman, RandomModel::BarabasiAlbert] {
        for nodes in [10, 16] {
            for sc in [LevelScenario::A, LevelScenario::C, LevelScenario::E] {
                let cfg = RandomMediaConfig {
                    model,
                    nodes,
                    scenario: sc,
                    seed: 7 + nodes as u64,
                    ..Default::default()
                };
                grid.push((format!("{model:?}{nodes}/{sc:?}"), scenarios::random_media(&cfg)));
            }
        }
    }
    grid
}

fn digest(t: &PlanningTask) -> u64 {
    let mut d = Digest(0xcbf29ce484222325);
    d.task(t);
    d.0
}

/// Compile the digest grid with `compile` and compare against `want`.
fn check_digests(want: &[(&str, u64)], compile: fn(&CppProblem) -> PlanningTask) {
    let got: Vec<(String, u64)> =
        digest_grid().iter().map(|(name, p)| (name.clone(), digest(&compile(p)))).collect();
    let want: Vec<(String, u64)> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let table: String = got.iter().map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n")).collect();
    assert!(got == want, "compiled task digests changed; now:\n{table}");
}

#[test]
fn compiled_tasks_match_their_recorded_digests() {
    check_digests(TASK_DIGESTS, |p| compile(p).unwrap());
}

#[test]
fn full_grounding_matches_the_recorded_digests() {
    check_digests(FULL_DIGESTS, |p| compile_full(p).unwrap());
}

/// The PLRG's goal-relevant slice of a task (paper §3.2.1), recomputed
/// from its ground actions without costs: the actions that can fire from
/// the initial state and add a reachable proposition the goals need.
fn goal_relevant_slice(t: &PlanningTask) -> Vec<bool> {
    let mut reached = t.init_mask.clone();
    let mut fires = vec![false; t.num_actions()];
    let mut grew = true;
    while grew {
        grew = false;
        for (i, a) in t.actions.iter().enumerate() {
            if !fires[i] && a.preconds.iter().all(|p| reached[p.index()]) {
                fires[i] = true;
                grew = true;
                for p in &a.adds {
                    reached[p.index()] = true;
                }
            }
        }
    }
    let mut needed = vec![false; t.num_props()];
    let mut relevant = vec![false; t.num_actions()];
    let mut stack: Vec<PropId> = Vec::new();
    for &g in &t.goal_props {
        if reached[g.index()] && !needed[g.index()] {
            needed[g.index()] = true;
            stack.push(g);
        }
    }
    while let Some(p) = stack.pop() {
        for &a in t.achievers(p) {
            if !fires[a.index()] || relevant[a.index()] {
                continue;
            }
            relevant[a.index()] = true;
            for &q in &t.action(a).preconds {
                if reached[q.index()] && !needed[q.index()] {
                    needed[q.index()] = true;
                    stack.push(q);
                }
            }
        }
    }
    relevant
}

/// `full` without the actions outside its goal-relevant slice: achievers
/// rebuilt, symmetry classes recomputed, everything else as it was.
fn cut_to_slice(full: &PlanningTask, num_nodes: usize) -> PlanningTask {
    let keep = goal_relevant_slice(full);
    let mut cut = full.clone();
    cut.actions =
        full.actions.iter().zip(&keep).filter(|(_, &k)| k).map(|(a, _)| a.clone()).collect();
    cut.achievers = AchieverIndex::build(cut.num_props(), &cut.actions);
    cut.orbits = node_orbits(&cut, num_nodes);
    cut.sig_classes = signature_classes(&cut, num_nodes);
    cut.stats.built = cut.num_actions();
    cut
}

#[test]
fn built_task_is_the_full_task_cut_to_its_goal_relevant_slice() {
    for (name, p) in digest_grid() {
        let full = compile_full(&p).unwrap();
        let built = compile(&p).unwrap();
        let cut = cut_to_slice(&full, p.network.num_nodes());
        // every proposition and variable keeps its id
        assert_eq!(built.props, full.props, "{name}: propositions");
        assert_eq!(built.prop_names, full.prop_names, "{name}");
        assert_eq!(built.gvars, full.gvars, "{name}: variables");
        assert_eq!(built.gvar_names, full.gvar_names, "{name}");
        assert_eq!(built.init_props, full.init_props, "{name}");
        assert_eq!(built.goal_props, full.goal_props, "{name}");
        // the built actions are the slice, in the full grounding's order
        let names = |t: &PlanningTask| t.actions.iter().map(|a| a.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&built), names(&cut), "{name}: built actions");
        // and so is every other field, bit for bit
        assert_eq!(digest(&built), digest(&cut), "{name}: task digest");
        let stats =
            |t: &PlanningTask| CompileStats { compile_time: Duration::ZERO, ..t.stats.clone() };
        assert_eq!(stats(&built), stats(&cut), "{name}: stats");
        assert_eq!(stats(&full), CompileStats { built: full.stats.actions, ..stats(&cut) });
    }
}

#[test]
fn built_and_full_action_counts_are_pinned() {
    // (built, full) per Table 2 scenario A–E; the full count is Table 2
    // column 5
    let want: [(&str, [(usize, usize); 5]); 3] = [
        ("tiny", [(17, 18), (38, 40), (34, 68), (34, 150), (46, 230)]),
        ("small", [(65, 70), (166, 176), (162, 316), (162, 718), (222, 1118)]),
        ("large", [(1525, 1617), (4154, 4338), (4106, 8118), (4106, 19158), (5834, 30678)]),
    ];
    let mut got = String::new();
    for (size, _) in want {
        let counts: Vec<(usize, usize)> = LevelScenario::ALL
            .iter()
            .map(|&sc| {
                let p = match size {
                    "tiny" => scenarios::tiny(sc),
                    "small" => scenarios::small(sc),
                    _ => scenarios::large(sc),
                };
                let s = compile(&p).unwrap().stats;
                (s.built, s.actions)
            })
            .collect();
        got.push_str(&format!("        (\"{size}\", {counts:?}),\n"));
    }
    let want: String =
        want.iter().map(|(size, c)| format!("        (\"{size}\", {c:?}),\n")).collect();
    assert!(got == want, "built and full action counts changed; now:\n{got}");
}
