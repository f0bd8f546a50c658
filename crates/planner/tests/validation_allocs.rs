//! Exact work gate for candidate validation: heap allocations of the whole
//! Small/A RG search under `PlannerConfig::default()`.
//!
//! Small/A is unleveled: every candidate the search pops fails greedy
//! concretization, and the search ends on the 2 000-candidate reject
//! budget, so validation is most of its per-candidate work. Validating on
//! reusable dense state allocates only the recorded rejected tail per
//! candidate; a `HashMap` replay state or executor state per candidate
//! makes about 44 allocations each. The count is deterministic, so it
//! cannot flake on a loaded machine.

use sekitei_compile::compile;
use sekitei_model::LevelScenario;
use sekitei_planner::{rg, PlannerConfig, Plrg, Slrg};
use sekitei_topology::scenarios;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// The system allocator, counting the calling thread's `alloc` and
/// `realloc` calls (thread-local, so concurrently running tests do not
/// disturb the count).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn small_a_search_makes_fewer_than_2_allocations_per_validation() {
    let task = compile(&scenarios::small(LevelScenario::A)).unwrap();
    let cfg = PlannerConfig::default();
    let plrg = Plrg::build(&task);
    let mut slrg = Slrg::new(&task, &plrg, cfg.slrg_budget);
    let before = allocs();
    let r = rg::search(&task, &plrg, &mut slrg, &cfg, Instant::now());
    let made = allocs() - before;
    assert_eq!(r.concretize_calls, 2_000, "Small/A no longer ends on the reject budget");
    let per_validation = made as f64 / r.concretize_calls as f64;
    assert!(
        per_validation < 2.0,
        "the Small/A search made {made} allocations for {} validations ({per_validation:.1} each)",
        r.concretize_calls
    );
}
