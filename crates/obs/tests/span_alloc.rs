//! Closing a span on a path the thread has used before allocates
//! nothing: the tracer counts it against the path's interned id, merges
//! counters without building strings, and renders paths only at drain.
//! A counting global allocator tallies this thread's `alloc`,
//! `alloc_zeroed` and `realloc` calls.

use localias_obs::{self as obs, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
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

/// One framed root with three children, each closed in turn; the root's
/// close empties the stack and merges the thread's counters.
fn spans() {
    let _root = Span::enter("root", None);
    for _ in 0..3 {
        let _child = Span::enter("child", None);
    }
}

#[test]
fn closing_a_span_on_a_seen_path_allocates_nothing() {
    let _l = obs::test_lock();
    obs::enable_spans();
    let _ = obs::drain();
    spans(); // interns both paths and sizes the thread's counters
    let before = ALLOCS.with(Cell::get);
    spans();
    let allocs = ALLOCS.with(Cell::get) - before;
    let trace = obs::drain();
    obs::disable_spans();
    assert_eq!(allocs, 0, "a span on a seen path allocated");
    let count = |path: &str| trace.spans.iter().find(|s| s.path == path).map(|s| s.count);
    assert_eq!((count("root"), count("root/child")), (Some(2), Some(6)));
}
