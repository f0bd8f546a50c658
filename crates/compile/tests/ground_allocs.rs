//! Exact work gate for the grounding layer: heap allocations per ground
//! action when compiling the paper's Large/E instance.
//!
//! Grounding cost is per action (Large/E has tens of thousands of ground
//! actions against a few thousand propositions and variables), so the
//! allocation count per action is a deterministic proxy for grounding
//! time that cannot flake on a loaded machine. Grounding that deep-clones
//! each schema's formulas into every level variant, or builds a hash map
//! per level combination, makes about 25 allocations per action; sharing
//! the formulas and evaluating on the binding list makes about 9.

use sekitei_compile::compile;
use sekitei_model::LevelScenario;
use sekitei_topology::scenarios;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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
fn large_e_compiles_with_fewer_than_16_allocations_per_action() {
    let p = scenarios::large(LevelScenario::E);
    let before = allocs();
    let task = compile(&p).unwrap();
    let made = allocs() - before;
    let per_action = made as f64 / task.num_actions() as f64;
    assert!(
        per_action < 16.0,
        "compiling Large/E made {made} allocations for {} ground actions ({per_action:.1} each)",
        task.num_actions()
    );
}

#[test]
fn level_variants_share_their_schema_formulas() {
    let task = compile(&scenarios::large(LevelScenario::E)).unwrap();
    let mut variants = 0;
    for pair in task.actions.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.kind == b.kind {
            variants += 1;
            assert!(Arc::ptr_eq(&a.conditions, &b.conditions), "{a} and {b}: conditions");
            assert!(Arc::ptr_eq(&a.effects, &b.effects), "{a} and {b}: effects");
        }
    }
    assert!(variants > task.num_actions() / 2, "Large/E has few level variants: {variants}");
    // variants of one kind are emitted consecutively, so adjacent pairs
    // cover every kind
    let kinds: std::collections::HashSet<String> =
        task.actions.iter().map(|a| format!("{:?}", a.kind)).collect();
    let runs = 1 + task.actions.windows(2).filter(|w| w[0].kind != w[1].kind).count();
    assert_eq!(kinds.len(), runs, "variants of one kind are not contiguous");
}
