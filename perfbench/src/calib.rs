//! The speed reference the plan workloads' times are scaled by.
//!
//! Other tenants of a small shared VM slow memory-bound code by up to 1.8×
//! for stretches of seconds to minutes, and a whole run can sit inside one
//! such stretch, so no choice among a run's own samples removes it. The
//! reference is fixed work of the benchmark's own with the compiler's mix
//! of hashing, allocation and vector growth, timed next to the program's
//! work. It slows with the program: over 6-second windows of a 90-second
//! probe, `compile` (Large/E) moved by 1.7× while its ratio to the
//! reference moved by at most 1.2×. A reported time is therefore
//! `raw × NOMINAL_MS / reference`, the time at the reference's nominal
//! speed, and a rate is scaled the other way. No program change moves the
//! reference. The raw figures stay in the notes.

use crate::clock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The reference's time on the 2-vCPU VM the benchmark was built on, in a
/// quiet stretch.
pub const NOMINAL_MS: f64 = 5.0;

/// Inserts of one reference pass, spread over `KEYS` keys.
const INSERTS: u64 = 80_000;
const KEYS: u64 = 8_000;

/// Run the reference once and return its CPU time ([`crate::clock`]), ms.
pub fn reference_ms() -> f64 {
    let t = clock::cpu();
    std::hint::black_box(work(std::hint::black_box(INSERTS)));
    clock::ms_since(t)
}

/// Hash-map inserts into growing vectors, then lookups; the fixed-key
/// hasher keeps the work identical from run to run.
fn work(inserts: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 1u64;
    for i in 0..inserts {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        map.entry(x % KEYS).or_default().push(i);
    }
    (0..inserts).map(|i| map.get(&(i % KEYS)).map_or(0, |v| v.len() as u64)).sum()
}

/// The factor that scales a time measured next to `refs` to nominal
/// speed: `NOMINAL_MS` over their median.
pub fn factor(refs: &[f64]) -> f64 {
    NOMINAL_MS / crate::stats::median(refs)
}

/// Per-sample factors from references taken in time order, each from the
/// median of the `2 * radius + 1` references around it: one reference is
/// noisy, the contention it tracks changes over seconds.
pub fn local_factors(refs: &[f64], radius: usize) -> Vec<f64> {
    (0..refs.len())
        .map(|k| factor(&refs[k.saturating_sub(radius)..(k + radius + 1).min(refs.len())]))
        .collect()
}
