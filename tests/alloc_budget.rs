//! Allocation budget of the per-module pipeline: parse plus
//! `check_modes` over the 589 corpus modules of the default seed.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc`; the pass asserts a ceiling on the total
//! and prints the split by phase (parse, base analysis, the confine
//! scan, the rest of confine inference, the three-mode lock check).
//! Run with `--nocapture` to see the split:
//!
//! ```text
//! cargo test --release --test alloc_budget -- --nocapture
//! ```

use localias::ast::parse_module;
use localias::core::{propose_confines, SharedAnalysis};
use localias::corpus::generate;
use localias::cqual::check_modes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The ceiling on one corpus pass: the 215,986 allocations this
/// pipeline makes, plus under 2% headroom.
const CEILING: u64 = 220_000;

#[test]
fn corpus_pass_stays_inside_its_allocation_budget() {
    let corpus = generate(20030609);
    assert_eq!(corpus.len(), 589);
    let [mut parse, mut base, mut propose, mut confine, mut check] = [0u64; 5];
    for g in &corpus {
        let (m, n) = counted(|| parse_module(&g.name, &g.source).expect("corpus parses"));
        parse += n;
        // `check_modes` over a prefilled `SharedAnalysis` runs only the
        // checks, so the pass splits into its phases without changing.
        let mut shared = SharedAnalysis::new(&m);
        base += counted(|| {
            shared.base_frozen();
        })
        .1;
        confine += counted(|| {
            shared.confine_frozen();
        })
        .1;
        check += counted(|| check_modes(&mut shared)).1;
        // The scan again, alone, to split it out of confine inference.
        propose += counted(|| propose_confines(&m)).1;
    }
    let total = parse + base + confine + check;
    println!(
        "allocations per corpus pass: {total} (parse {parse}, base {base}, \
         propose {propose}, confine {}, check {check})",
        confine - propose
    );
    assert!(
        total <= CEILING,
        "{total} allocations per corpus pass, over the ceiling of {CEILING}"
    );
}
