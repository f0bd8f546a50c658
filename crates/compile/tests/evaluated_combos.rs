//! Exact work gate for static pruning: the level combinations evaluated
//! when compiling Table 2's Large C–E.
//!
//! Static pruning reads a node or link only through the capacities of the
//! resources its schema mentions, so the grounder evaluates each schema
//! once per capacity class, and Large has one or two classes per schema.
//! The count is deterministic, so it cannot flake on a loaded machine; a
//! grounder that evaluates site by site again multiplies it.

use sekitei_compile::compile;
use sekitei_model::LevelScenario;
use sekitei_topology::scenarios;

/// Sum of the `name` events of one traced `compile` of `scenario`.
fn compile_event(scenario: LevelScenario, name: &str) -> u64 {
    let p = scenarios::large(scenario);
    sekitei_obs::enable();
    let root = sekitei_obs::span("test");
    let root_id = root.id();
    compile(&p).unwrap();
    drop(root);
    sekitei_obs::disable();
    let records = sekitei_obs::take_trace().records;
    let compile_id = records
        .iter()
        .find(|r| r.is_span() && r.name == "compile" && r.parent == root_id)
        .expect("compile span")
        .id;
    records.iter().filter(|r| r.parent == compile_id && r.name == name).map(|r| r.value).sum()
}

#[test]
fn large_c_to_e_evaluate_each_schema_once_per_capacity_class() {
    let want = [(LevelScenario::C, 45), (LevelScenario::D, 85), (LevelScenario::E, 165)];
    let got: Vec<(LevelScenario, u64)> =
        want.iter().map(|&(sc, _)| (sc, compile_event(sc, "level_combos_evaluated"))).collect();
    assert_eq!(got, want, "level combinations evaluated on Large C–E");
}
