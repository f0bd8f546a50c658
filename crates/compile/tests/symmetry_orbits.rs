//! Node-equivalence-class computation on the benchmark topologies.
//!
//! The orbits feed the planner's symmetry-breaking rule, so the
//! properties asserted here are exactly what that rule's soundness
//! argument consumes: pinned (source/client) nodes are singletons, orbit
//! members agree bitwise on initial resource capacities, and the verified
//! transpositions really do map the ground action set onto itself
//! (checked indirectly: every orbit survived exact verification).

use sekitei_compile::{compile, GVarData, PlanningTask, PropData};
use sekitei_model::{
    media_domain_with, CppProblem, Goal, Interval, LevelScenario, LinkClass, MediaConfig, NodeId,
    StreamSource,
};
use sekitei_obs::{Record, RecordKind};
use sekitei_topology::generators::{self, Capacities};
use sekitei_topology::scenarios;
use std::sync::Mutex;

/// Serializes the tests that drain the process-wide trace.
static TRACE: Mutex<()> = Mutex::new(());

/// Compile `p` with tracing on; returns the task and the records directly
/// under its `compile` span (found through a test span, so records of
/// tests compiling concurrently are left out).
fn traced_compile(p: &CppProblem) -> (PlanningTask, Vec<Record>) {
    let _serial = TRACE.lock().unwrap();
    sekitei_obs::enable();
    let root = sekitei_obs::span("test");
    let root_id = root.id();
    let task = compile(p).unwrap();
    drop(root);
    sekitei_obs::disable();
    let records = sekitei_obs::take_trace().records;
    let compile_id = records
        .iter()
        .find(|r| r.is_span() && r.name == "compile" && r.parent == root_id)
        .expect("compile span")
        .id;
    (task, records.into_iter().filter(|r| r.parent == compile_id).collect())
}

/// Media delivery over a star: server on the hub `n0`, client on leaf
/// `n1`, leaves `n2..` identical in every respect — the canonical
/// maximum-symmetry instance.
fn star_problem(leaves: usize, sc: LevelScenario) -> CppProblem {
    let net = generators::star(1 + leaves, LinkClass::Lan, &Capacities::default());
    let domain = media_domain_with(MediaConfig::default(), sc);
    let p = CppProblem {
        network: net,
        resources: domain.resources,
        interfaces: domain.interfaces,
        components: domain.components,
        sources: vec![StreamSource::up_to("M", NodeId(0), "ibw", scenarios::SERVER_CAPACITY)],
        pre_placed: vec![],
        goals: vec![Goal { component: "Client".into(), node: NodeId(1) }],
    };
    p.validate().unwrap();
    p
}

/// Initial node-resource intervals of one node, sorted by catalog index.
fn res_profile(task: &sekitei_compile::PlanningTask, n: NodeId) -> Vec<(u16, u64, u64)> {
    let mut out = Vec::new();
    for (i, g) in task.gvars.iter().enumerate() {
        if let GVarData::NodeRes { res, node } = *g {
            if node == n {
                let iv = task.init_values[i].unwrap_or(Interval::nonneg());
                out.push((res, iv.lo.to_bits(), iv.hi.to_bits()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Nodes mentioned by the initial state or the goal.
fn pinned_nodes(task: &sekitei_compile::PlanningTask) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &p in task.init_props.iter().chain(&task.goal_props) {
        out.push(match task.prop(p) {
            PropData::Placed { node, .. } => node,
            PropData::Avail { node, .. } => node,
        });
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn tiny_has_no_symmetry() {
    // two nodes: the source and the client — both pinned
    let task = compile(&scenarios::tiny(LevelScenario::C)).unwrap();
    assert_eq!(task.orbits.num_nodes(), 2);
    assert!(!task.orbits.nontrivial(), "pinned endpoints cannot be symmetric");
    assert_eq!(task.orbits.orbit_count(), 2);
}

#[test]
fn small_line_distractor_is_asymmetric() {
    // the Small line n0—n1—n2—n3—n4 plus the distractor x off n1: every
    // node has a distinct position (different link classes / endpoints),
    // so no two are interchangeable
    let task = compile(&scenarios::small(LevelScenario::B)).unwrap();
    assert_eq!(task.orbits.num_nodes(), 6);
    for orbit in task.orbits.orbits() {
        assert_eq!(orbit.len(), 1, "line topology must stay asymmetric: {orbit:?}");
    }
}

#[test]
fn large_transit_stub_finds_exactly_the_graph_twins() {
    // 93-node GT-ITM transit-stub: the random stub trees plus extra LAN
    // edges break almost all symmetry — the generated instance has exactly
    // two structural twin pairs (leaf nodes sharing a parent: s0_0_4/s0_0_7
    // and s0_2_5/s0_2_7), and the orbit computation must find both and
    // nothing more (any larger orbit would be an unsound merge)
    let task = compile(&scenarios::large(LevelScenario::A)).unwrap();
    assert_eq!(task.orbits.num_nodes(), 93);
    assert!(task.orbits.nontrivial(), "transit-stub twin leaves must be detected");
    let pairs: Vec<&[NodeId]> = task.orbits.orbits().filter(|m| m.len() > 1).collect();
    assert_eq!(pairs.len(), 2, "expected exactly the two twin-leaf pairs, got {pairs:?}");
    assert!(pairs.iter().all(|m| m.len() == 2));
}

#[test]
fn star_leaves_form_one_orbit() {
    // hub pinned by the source, n1 pinned by the goal; the remaining five
    // leaves are fully interchangeable and must land in a single orbit
    let task = compile(&star_problem(6, LevelScenario::C)).unwrap();
    assert_eq!(task.orbits.num_nodes(), 7);
    assert_eq!(task.orbits.siblings(NodeId(0)), &[NodeId(0)]);
    assert_eq!(task.orbits.siblings(NodeId(1)), &[NodeId(1)]);
    let expected: Vec<NodeId> = (2..7).map(NodeId).collect();
    assert_eq!(task.orbits.siblings(NodeId(4)), expected.as_slice());
    assert_eq!(task.orbits.orbit_count(), 3);
}

#[test]
fn pinned_nodes_are_singletons() {
    let sizes = [scenarios::tiny, scenarios::small, scenarios::large];
    for make in [LevelScenario::B, LevelScenario::C].iter().flat_map(|&sc| sizes.map(|f| f(sc))) {
        let task = compile(&make).unwrap();
        for n in pinned_nodes(&task) {
            assert_eq!(task.orbits.siblings(n), &[n], "init/goal node {n} must be its own orbit");
        }
    }
}

#[test]
fn orbit_members_share_resource_profiles() {
    let task = compile(&scenarios::large(LevelScenario::B)).unwrap();
    for orbit in task.orbits.orbits() {
        let profile = res_profile(&task, orbit[0]);
        for &n in &orbit[1..] {
            assert_eq!(res_profile(&task, n), profile, "orbit {orbit:?} mixes capacities");
        }
    }
}

#[test]
fn orbit_members_are_sorted_and_partition_the_nodes() {
    for sc in [LevelScenario::A, LevelScenario::E] {
        let task = compile(&scenarios::large(sc)).unwrap();
        let mut seen = vec![false; task.orbits.num_nodes()];
        for orbit in task.orbits.orbits() {
            assert!(orbit.windows(2).all(|w| w[0] < w[1]), "orbit not sorted: {orbit:?}");
            for &n in orbit {
                assert!(!seen[n.index()], "node {n} in two orbits");
                seen[n.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{sc:?}: orbits must cover every node");
        // membership and siblings() agree
        for n in 0..task.orbits.num_nodes() {
            let n = NodeId::from_index(n);
            assert!(task.orbits.siblings(n).contains(&n));
        }
    }
}

#[test]
fn capacity_perturbation_splits_an_orbit() {
    // make one symmetric node's CPU capacity unique: it must drop out of
    // its orbit while the rest keep theirs
    let base = compile(&scenarios::large(LevelScenario::A)).unwrap();
    let big = base
        .orbits
        .orbits()
        .filter(|m| m.len() > 1)
        .max_by_key(|m| m.len())
        .expect("nontrivial orbit")
        .to_vec();
    let victim = big[0];

    let mut p = scenarios::large(LevelScenario::A);
    let old = p.network.node_capacity(victim, "cpu");
    p.network.set_node_capacity(victim, "cpu", old + 1.0);
    let task = compile(&p).unwrap();
    assert_eq!(task.orbits.siblings(victim), &[victim], "perturbed node must be singleton");
    // the survivors (minus the victim) are still symmetric to each other
    let survivors = task.orbits.siblings(big[1]);
    assert!(survivors.len() >= big.len() - 1 && !survivors.contains(&victim));
}

#[test]
fn out_of_range_lookup_is_empty() {
    let task = compile(&scenarios::tiny(LevelScenario::B)).unwrap();
    assert_eq!(task.orbits.siblings(NodeId::from_index(999)), &[] as &[NodeId]);
    let t = sekitei_compile::PlanningTask::default();
    assert_eq!(t.orbits.num_nodes(), 0);
    assert_eq!(t.orbits.siblings(NodeId::from_index(0)), &[] as &[NodeId]);
}

// ---- work and time accounting ----

#[test]
fn compile_time_covers_every_compile_phase() {
    let (task, phases) = traced_compile(&scenarios::large(LevelScenario::C));
    let mut sum = 0;
    for name in ["ground-place", "ground-cross", "finalize", "symmetry"] {
        let spans: Vec<&Record> = phases.iter().filter(|r| r.is_span() && r.name == name).collect();
        assert_eq!(spans.len(), 1, "one {name} span under compile");
        sum += spans[0].value;
    }
    let stamped = task.stats.compile_time.as_nanos() as u64;
    assert!(stamped >= sum, "compile_time {stamped} ns < its phases' {sum} ns");
}

#[test]
fn large_e_checks_under_a_tenth_of_its_actions() {
    // a swap is checked only on the actions that mention a swapped node;
    // the full scan fingerprinted every action once for its index and
    // again for each of the two swaps that verify here
    let (task, records) = traced_compile(&scenarios::large(LevelScenario::E));
    let event = |name: &str| -> u64 {
        records
            .iter()
            .filter(|r| r.kind == RecordKind::Event && r.name == name)
            .map(|r| r.value)
            .sum()
    };
    assert!(event("symmetry_swaps_checked") > 0, "no candidate swap checked");
    let checked = event("symmetry_actions_checked");
    assert!(checked > 0, "the verified twins must reach the action stage");
    assert!(
        checked * 10 < task.num_actions() as u64,
        "{checked} of {} actions checked",
        task.num_actions()
    );
}
