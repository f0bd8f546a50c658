//! Seeded churn-event generation.
//!
//! The generator is a small weighted state machine over a
//! [`ChurnProfile`]: each tick
//! it picks an event class (degrade / recover / crash / rejoin / drift)
//! by relative weight among the classes that currently have a target —
//! recovery needs a degraded link, rejoin needs a crashed node, crashes
//! never hit protected nodes or nodes already down — then picks a uniform
//! target and magnitude. Everything derives from one [`SplitMix64`]
//! stream, so a `(network, profile, seed, count)` quadruple always yields
//! the same trace, byte for byte.

use crate::event::{ChurnEvent, Mutation};
use sekitei_model::resource::names::{CPU, LBW};
use sekitei_model::{LinkId, Network, NodeId};
use sekitei_topology::scenarios::ChurnProfile;
use std::collections::BTreeSet;

// Re-exported here (in addition to the crate root) because older callers
// reached the generator's RNG as `churn::generator::SplitMix64`; the
// implementation itself now lives in `sekitei-util` so the anytime SLS
// lane draws from the same audited stream.
pub use sekitei_util::SplitMix64;

/// One decimal place: keeps generated traces short and hand-editable
/// without affecting feasibility at scenario magnitudes.
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Generate `count` events against `net` (treated as the pristine
/// baseline) under `profile`, deterministically from `seed`.
///
/// Degradation targets link `lbw`, drift targets node `cpu` — the two
/// capacities every canonical scenario prices. Magnitudes are fractions
/// of the *baseline* capacity, so repeated events fluctuate rather than
/// compound, and the profile's range floor bounds how bad the network
/// can get (the scenario profiles calibrate it so churn stays repairable
/// where the topology has no redundancy).
pub fn generate(net: &Network, profile: &ChurnProfile, seed: u64, count: usize) -> Vec<ChurnEvent> {
    let mut rng = SplitMix64::new(seed);
    let mut degraded: BTreeSet<LinkId> = BTreeSet::new();
    let mut down: BTreeSet<NodeId> = BTreeSet::new();
    let mut events = Vec::with_capacity(count);

    for i in 0..count {
        let t = (i as u64 + 1) * profile.gap;
        let alive = |n: NodeId| !down.contains(&n);

        let degradable: Vec<LinkId> = net
            .link_ids()
            .filter(|&l| {
                let d = net.link(l);
                net.link_capacity(l, LBW) > 0.0 && alive(d.a) && alive(d.b)
            })
            .collect();
        let recoverable: Vec<LinkId> = degraded.iter().copied().collect();
        let crashable: Vec<NodeId> =
            net.node_ids().filter(|&n| alive(n) && !profile.protected.contains(&n)).collect();
        let rejoinable: Vec<NodeId> = down.iter().copied().collect();
        let driftable: Vec<NodeId> =
            net.node_ids().filter(|&n| alive(n) && net.node_capacity(n, CPU) > 0.0).collect();

        let weights = [
            if degradable.is_empty() { 0 } else { profile.degrade_weight },
            if recoverable.is_empty() { 0 } else { profile.recover_weight },
            if crashable.is_empty() { 0 } else { profile.crash_weight },
            if rejoinable.is_empty() { 0 } else { profile.rejoin_weight },
            if driftable.is_empty() { 0 } else { profile.drift_weight },
        ];
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        if total == 0 {
            break; // no class has a target; profile is degenerate
        }
        let mut pick = rng.below(total);
        let class = weights
            .iter()
            .position(|&w| {
                if pick < w as u64 {
                    true
                } else {
                    pick -= w as u64;
                    false
                }
            })
            .expect("total > 0");

        let mutation = match class {
            0 => {
                let link = degradable[rng.below(degradable.len() as u64) as usize];
                let frac = rng.in_range(profile.degrade_range.0, profile.degrade_range.1);
                degraded.insert(link);
                Mutation::SetLink {
                    link,
                    res: LBW.into(),
                    value: round1(net.link_capacity(link, LBW) * frac),
                }
            }
            1 => {
                let link = recoverable[rng.below(recoverable.len() as u64) as usize];
                degraded.remove(&link);
                Mutation::SetLink { link, res: LBW.into(), value: net.link_capacity(link, LBW) }
            }
            2 => {
                let node = crashable[rng.below(crashable.len() as u64) as usize];
                down.insert(node);
                // incident links are zeroed by the crash and restored by
                // the rejoin; they are no longer "degraded"
                for l in net.incident(node) {
                    degraded.remove(l);
                }
                Mutation::Crash { node }
            }
            3 => {
                let node = rejoinable[rng.below(rejoinable.len() as u64) as usize];
                down.remove(&node);
                Mutation::Rejoin { node }
            }
            _ => {
                let node = driftable[rng.below(driftable.len() as u64) as usize];
                let frac = rng.in_range(profile.drift_range.0, profile.drift_range.1);
                Mutation::SetNode {
                    node,
                    res: CPU.into(),
                    value: round1(net.node_capacity(node, CPU) * frac),
                }
            }
        };
        events.push(ChurnEvent { t, mutation });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::render_trace;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios::{self, NetSize};

    #[test]
    fn splitmix_reference_values() {
        // reference sequence for seed 1234567 from the published algorithm;
        // duplicated from sekitei-util so a drift in the re-export (e.g. a
        // local reimplementation sneaking back in) fails here too
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        let u = SplitMix64::new(42).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = scenarios::small(LevelScenario::C);
        let prof = scenarios::churn_profile(NetSize::Small, &p);
        let a = generate(&p.network, &prof, 7, 50);
        let b = generate(&p.network, &prof, 7, 50);
        assert_eq!(a, b);
        assert_eq!(render_trace(&a, &p.network), render_trace(&b, &p.network));
        let c = generate(&p.network, &prof, 8, 50);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn generated_events_respect_invariants() {
        let p = scenarios::small(LevelScenario::C);
        let prof = scenarios::churn_profile(NetSize::Small, &p);
        let events = generate(&p.network, &prof, 99, 200);
        assert_eq!(events.len(), 200);
        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        let mut prev_t = 0;
        for ev in &events {
            assert!(ev.t > prev_t, "strictly increasing timestamps");
            prev_t = ev.t;
            match &ev.mutation {
                Mutation::Crash { node } => {
                    assert!(!prof.protected.contains(node), "protected node crashed");
                    assert!(down.insert(*node), "double crash of {node}");
                }
                Mutation::Rejoin { node } => {
                    assert!(down.remove(node), "rejoin of a live node {node}");
                }
                Mutation::SetLink { value, .. } => assert!(*value >= 0.0),
                Mutation::SetNode { value, .. } => assert!(*value >= 0.0),
            }
        }
    }

    #[test]
    fn tiny_profile_generates_no_crashes() {
        let p = scenarios::tiny(LevelScenario::C);
        let prof = scenarios::churn_profile(NetSize::Tiny, &p);
        let events = generate(&p.network, &prof, 7, 100);
        assert_eq!(events.len(), 100);
        assert!(!events.iter().any(|e| matches!(e.mutation, Mutation::Crash { .. })));
    }
}
