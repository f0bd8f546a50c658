//! Seeded workload corpora.
//!
//! Every instance has a canonical key naming how it is generated
//! (`large-E`, `ts7-C`, `wax23-E-s5`, …); the key, not the run seed, owns
//! the instance, so its recorded optimal cost (`expected.rs`) holds for
//! every run that draws it. Seeded families draw from a finite pool of
//! generator seeds per slot; the run seed only chooses which pool members
//! a corpus holds and, for `serve-zipf`, their popularity order.

use sekitei_model::resource::names::LBW;
use sekitei_model::{CppProblem, LevelScenario, LinkClass};
use sekitei_topology::generators::{transit_stub, TransitStubConfig};
use sekitei_topology::scenarios::{self, NetSize, RandomMediaConfig, RandomModel};

/// SplitMix64: the benchmark's own seeded stream, so a corpus depends on
/// the seed and the generators alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a, used for corpus and schedule digests.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// How an instance is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// A Table 2 instance verbatim.
    Table2(NetSize, LevelScenario),
    /// A Table 2 instance with its tightest WAN link squeezed to 86% of
    /// capacity, the degradation `perf_trajectory::repair_once` applies.
    Squeezed(NetSize, LevelScenario),
    /// The Large problem on a transit-stub network of another seed.
    TransitStub(u64, LevelScenario),
    /// The media domain on a random network (server on the first node,
    /// client on the last).
    Random(RandomModel, usize, LevelScenario, u64),
}

#[derive(Debug, Clone)]
pub struct Instance {
    pub key: String,
    pub problem: CppProblem,
}

fn level(sc: LevelScenario) -> &'static str {
    match sc {
        LevelScenario::A => "A",
        LevelScenario::B => "B",
        LevelScenario::C => "C",
        LevelScenario::D => "D",
        LevelScenario::E => "E",
    }
}

impl Family {
    pub fn key(self) -> String {
        match self {
            Family::Table2(size, sc) => format!("{}-{}", size.label().to_lowercase(), level(sc)),
            Family::Squeezed(size, sc) => {
                format!("{}-{}-squeezed", size.label().to_lowercase(), level(sc))
            }
            Family::TransitStub(seed, sc) => format!("ts{seed}-{}", level(sc)),
            Family::Random(model, n, sc, seed) => {
                let m = match model {
                    RandomModel::Waxman => "wax",
                    RandomModel::BarabasiAlbert => "ba",
                };
                format!("{m}{n}-{}-s{seed}", level(sc))
            }
        }
    }

    pub fn build(self) -> Instance {
        let problem = match self {
            Family::Table2(size, sc) => scenarios::problem(size, sc),
            Family::Squeezed(size, sc) => {
                let mut p = scenarios::problem(size, sc);
                let net = &mut p.network;
                let wan = net
                    .link_ids()
                    .filter(|&l| net.link(l).class == LinkClass::Wan)
                    .min_by(|&a, &b| {
                        net.link_capacity(a, LBW).total_cmp(&net.link_capacity(b, LBW))
                    })
                    .expect("Table 2 networks have a WAN link");
                let cap = net.link_capacity(wan, LBW);
                net.set_link_capacity(wan, LBW, cap * 0.86);
                p
            }
            Family::TransitStub(seed, sc) => {
                let ts = transit_stub(&TransitStubConfig { seed, ..TransitStubConfig::default() });
                // the Large placement: one LAN hop inside two stubs of the
                // first transit node
                let mut p = scenarios::large(sc);
                p.sources[0].node = ts.members[0][0][1];
                p.goals[0].node = ts.members[0][1][1];
                p.network = ts.net;
                p
            }
            Family::Random(model, nodes, sc, seed) => scenarios::random_media(&RandomMediaConfig {
                model,
                nodes,
                scenario: sc,
                seed,
                ..RandomMediaConfig::default()
            }),
        };
        Instance { key: self.key(), problem }
    }
}

/// One corpus slot: a fixed instance, or a seeded family (its own seed
/// ignored) with a pool of generator seeds, of which a corpus draws
/// `picks` distinct members.
#[derive(Debug, Clone)]
enum Slot {
    Fixed(Family),
    Pool(Family, Vec<u64>, usize),
}

impl Family {
    fn with_seed(self, seed: u64) -> Family {
        match self {
            Family::TransitStub(_, sc) => Family::TransitStub(seed, sc),
            Family::Random(model, n, sc, _) => Family::Random(model, n, sc, seed),
            fixed => fixed,
        }
    }
}

use LevelScenario::{A, B, C, D, E};
use RandomModel::{BarabasiAlbert as Ba, Waxman as Wax};

/// The planning pools: of generator seeds 1–16, the four whose plan times
/// lay closest together near the slot's median on a 2-vCPU VM, of which a
/// corpus draws `picks`. A seed then changes the corpus without changing
/// its cost profile, so runs on different seeds stay comparable.
fn planning_pool(family: Family, seeds: [u64; 4], picks: usize) -> Slot {
    Slot::Pool(family, seeds.to_vec(), picks)
}

/// Leveled instances on large networks: grounding and symmetry dominate.
fn plan_leveled() -> Vec<Slot> {
    vec![
        Slot::Fixed(Family::Table2(NetSize::Large, C)),
        Slot::Fixed(Family::Table2(NetSize::Large, D)),
        Slot::Fixed(Family::Table2(NetSize::Large, E)),
        planning_pool(Family::TransitStub(0, C), [1, 3, 14, 15], 2),
        planning_pool(Family::Random(Wax, 20, E, 0), [2, 5, 11, 15], 2),
        planning_pool(Family::Random(Wax, 23, E, 0), [5, 9, 11, 15], 2),
        planning_pool(Family::Random(Wax, 26, E, 0), [5, 9, 14, 15], 2),
        planning_pool(Family::Random(Wax, 29, E, 0), [2, 6, 7, 10], 2),
        planning_pool(Family::Random(Ba, 21, E, 0), [3, 4, 5, 9], 2),
        planning_pool(Family::Random(Ba, 24, E, 0), [3, 13, 15, 16], 2),
        planning_pool(Family::Random(Ba, 27, E, 0), [3, 5, 9, 15], 2),
        planning_pool(Family::Random(Ba, 30, E, 0), [4, 6, 8, 9], 2),
    ]
}

/// Unleveled or tight instances: SLRG, RG and concretization dominate.
/// The instances fall into a faster cluster (~60–145 ms: Small, Waxman 8
/// and 12, Barabási–Albert 8) and a slower one (~145–250 ms: Large/B,
/// Waxman 10, Barabási–Albert 10 and 12). Three picks from the faster
/// pools and two from the slower put the corpus median inside the faster
/// cluster's dense middle; with equal picks it sat at the gap between
/// them, and which side it fell on changed with the seed.
fn plan_adversarial() -> Vec<Slot> {
    vec![
        Slot::Fixed(Family::Table2(NetSize::Small, A)),
        Slot::Fixed(Family::Table2(NetSize::Large, B)),
        Slot::Fixed(Family::Squeezed(NetSize::Small, C)),
        Slot::Fixed(Family::Squeezed(NetSize::Small, D)),
        Slot::Fixed(Family::Squeezed(NetSize::Small, E)),
        planning_pool(Family::Random(Wax, 8, A, 0), [2, 7, 11, 13], 3),
        planning_pool(Family::Random(Wax, 10, A, 0), [1, 9, 11, 14], 2),
        planning_pool(Family::Random(Wax, 12, A, 0), [6, 12, 13, 14], 3),
        planning_pool(Family::Random(Ba, 8, A, 0), [2, 5, 7, 16], 3),
        planning_pool(Family::Random(Ba, 10, A, 0), [1, 5, 8, 15], 2),
        planning_pool(Family::Random(Ba, 12, A, 0), [1, 5, 10, 13], 2),
    ]
}

/// Generator seeds per serving slot, and how many a corpus draws.
const SERVE_POOL: u64 = 48;
const SERVE_PICKS: usize = 28;

/// Small leveled instances for the serving workload: Tiny/Small-sized
/// random networks at levels B–E, more of them than the outcome cache holds.
fn serve_zipf() -> Vec<Slot> {
    let mut slots = Vec::new();
    for sc in [B, C, D, E] {
        for model in [Wax, Ba] {
            for n in 4..=7 {
                let seeds = (1..=SERVE_POOL).collect();
                slots.push(Slot::Pool(Family::Random(model, n, sc, 0), seeds, SERVE_PICKS));
            }
        }
    }
    slots
}

fn slots(workload: &str) -> Vec<Slot> {
    match workload {
        "plan-leveled" => plan_leveled(),
        "plan-adversarial" => plan_adversarial(),
        "serve-zipf" => serve_zipf(),
        other => panic!("unknown workload {other}"),
    }
}

/// The corpus of `workload` for `seed`: fixed slots verbatim, seeded slots
/// as `picks` distinct pool members chosen by the seed. Instances whose
/// problems coincide (small random graphs repeat) are kept once.
pub fn corpus(workload: &str, seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 0xC0_4905);
    let mut out: Vec<Instance> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for slot in slots(workload) {
        let families = match slot {
            Slot::Fixed(f) => vec![f],
            Slot::Pool(family, mut members, picks) => {
                rng.shuffle(&mut members);
                members.truncate(picks);
                members.sort_unstable();
                members.into_iter().map(|s| family.with_seed(s)).collect()
            }
        };
        for f in families {
            let inst = f.build();
            if seen.insert(sekitei_spec::encode(&inst.problem).to_vec()) {
                out.push(inst);
            }
        }
    }
    out
}

/// Every instance any seed can draw for `workload` (the recording set).
pub fn pool(workload: &str) -> Vec<Instance> {
    let mut out = Vec::new();
    for slot in slots(workload) {
        match slot {
            Slot::Fixed(f) => out.push(f.build()),
            Slot::Pool(family, seeds, _) => {
                out.extend(seeds.iter().map(|&s| family.with_seed(s).build()))
            }
        }
    }
    out
}
