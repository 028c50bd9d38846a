//! A snapshot load allocates per structure, not per field it reads.
//!
//! A counting global allocator records the heap allocations that
//! `SkylineEngine::from_snapshot` makes for a `Hybrid { top_k: 10 }` engine over the
//! paper-default corpus at two sizes. Quadrupling the rows must leave the count nearly
//! where it was: a decoder that allocates on every field read (an error message built
//! eagerly, a vector per posting) grows it with the tree's posting ids and the rows.

use skyline::datagen::ExperimentConfig;
use skyline::{EngineConfig, SkylineEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. `const`-initialized, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate after its
    // thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; counting touches only a
// `const`-initialized thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by one `from_snapshot` of a hybrid engine over `n` paper-default rows.
fn load_allocations(n: usize) -> u64 {
    let cfg = ExperimentConfig {
        n,
        seed: 1,
        ..ExperimentConfig::paper_default()
    };
    let data = cfg.generate_dataset();
    let template = cfg.template(&data);
    let engine = SkylineEngine::build(data, template, EngineConfig::Hybrid { top_k: 10 }).unwrap();
    let bytes = engine.write_snapshot().unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let loaded = SkylineEngine::from_snapshot(&bytes).unwrap();
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(loaded.write_snapshot().unwrap(), bytes);
    made
}

#[test]
fn snapshot_load_allocations_do_not_grow_with_the_rows() {
    let small = load_allocations(5_000);
    let large = load_allocations(20_000);
    assert!(
        small.abs_diff(large) < 200,
        "from_snapshot made {small} allocations at n = 5 000 and {large} at n = 20 000"
    );
}
