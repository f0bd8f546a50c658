//! Totality of the proposition and variable lookups. Any datum, from any
//! problem, looked up in a task gives the id that task interned for it or
//! `None`: never a wrong id and never a panic. Re-certification
//! (`cert::emit`) maps one task's variables into another task this way,
//! and symmetry detection looks up the image of every swapped datum.

use sekitei_compile::{compile, GVarData, PlanningTask, PropData};
use sekitei_model::{CompId, IfaceId, LevelScenario, LinkId, NodeId};
use sekitei_topology::scenarios;
use std::collections::HashMap;

/// `n`, its successor and two ids past any network.
fn nodes(n: NodeId) -> [NodeId; 4] {
    [n, NodeId(n.0.saturating_add(1)), NodeId(999), NodeId(u32::MAX)]
}

fn links(l: LinkId) -> [LinkId; 4] {
    [l, LinkId(l.0.saturating_add(1)), LinkId(999), LinkId(u32::MAX)]
}

fn ifaces(i: IfaceId) -> [IfaceId; 3] {
    [i, IfaceId(i.0.saturating_add(1)), IfaceId(u16::MAX)]
}

fn small(k: u8) -> [u8; 3] {
    [k, k.saturating_add(1), u8::MAX]
}

fn wide(k: u16) -> [u16; 3] {
    [k, k.saturating_add(1), u16::MAX]
}

/// `d` and its neighbours: every field moved one past and far past.
fn prop_probes(d: PropData) -> Vec<PropData> {
    let mut out = Vec::new();
    match d {
        PropData::Placed { comp, node } => {
            for node in nodes(node) {
                for comp in [comp, CompId(comp.0.saturating_add(1)), CompId(u16::MAX)] {
                    out.push(PropData::Placed { comp, node });
                }
            }
        }
        PropData::Avail { iface, node, level } => {
            for node in nodes(node) {
                for iface in ifaces(iface) {
                    for level in small(level) {
                        out.push(PropData::Avail { iface, node, level });
                    }
                }
            }
        }
    }
    out
}

fn gvar_probes(d: GVarData) -> Vec<GVarData> {
    let mut out = Vec::new();
    match d {
        GVarData::IfaceProp { iface, prop, node } => {
            for node in nodes(node) {
                for iface in ifaces(iface) {
                    for prop in small(prop) {
                        out.push(GVarData::IfaceProp { iface, prop, node });
                    }
                }
            }
        }
        GVarData::NodeRes { res, node } => {
            for node in nodes(node) {
                for res in wide(res) {
                    out.push(GVarData::NodeRes { res, node });
                }
            }
        }
        GVarData::LinkRes { res, link } => {
            for link in links(link) {
                for res in wide(res) {
                    out.push(GVarData::LinkRes { res, link });
                }
            }
        }
    }
    out
}

/// Look up every datum of `from` and of `into`, each with its
/// neighbours, in `into`, and compare against maps of `into`'s own data;
/// returns how many lookups found an id.
fn lookups_agree(from: &PlanningTask, into: &PlanningTask, label: &str) -> usize {
    let props: HashMap<PropData, usize> =
        into.props.iter().enumerate().map(|(i, &d)| (d, i)).collect();
    let gvars: HashMap<GVarData, usize> =
        into.gvars.iter().enumerate().map(|(i, &d)| (d, i)).collect();
    let mut found = 0;
    for &d in from.props.iter().chain(&into.props) {
        for probe in prop_probes(d) {
            let got = into.prop_id(&probe).map(|id| id.index());
            assert_eq!(got, props.get(&probe).copied(), "{label}: {probe:?}");
            found += got.is_some() as usize;
        }
    }
    for &d in from.gvars.iter().chain(&into.gvars) {
        for probe in gvar_probes(d) {
            let got = into.gvar_id(&probe).map(|id| id.index());
            assert_eq!(got, gvars.get(&probe).copied(), "{label}: {probe:?}");
            found += got.is_some() as usize;
        }
    }
    found
}

#[test]
fn lookups_across_tasks_give_the_interned_id_or_none() {
    let tiny = compile(&scenarios::tiny(LevelScenario::C)).unwrap();
    let small = compile(&scenarios::small(LevelScenario::C)).unwrap();
    let large = compile(&scenarios::large(LevelScenario::E)).unwrap();
    // every datum of a task finds itself
    let own = lookups_agree(&tiny, &tiny, "Tiny/C in Tiny/C");
    assert!(own >= tiny.num_props() + tiny.gvars.len());
    // a larger task's data fall off the smaller task's tables, and back
    assert!(lookups_agree(&small, &tiny, "Small/C in Tiny/C") >= own);
    lookups_agree(&tiny, &small, "Tiny/C in Small/C");
    lookups_agree(&large, &tiny, "Large/E in Tiny/C");
    lookups_agree(&small, &large, "Small/C in Large/E");
}

#[test]
fn an_empty_task_finds_nothing() {
    let empty = PlanningTask::default();
    let tiny = compile(&scenarios::tiny(LevelScenario::C)).unwrap();
    assert_eq!(lookups_agree(&tiny, &empty, "Tiny/C in the empty task"), 0);
}
