//! Phase-scoped spans with deterministic cross-thread merging — the
//! pipeline's one clock.
//!
//! Each live thread keeps a stack of open spans. A completed span is
//! counted against its hierarchical *path* — the names of every
//! enclosing span joined with `/` — with its total/self wall time. Paths
//! are interned once, into one process-wide table of `(parent, name)`
//! pairs, and each thread caches its lookups in a small trie, so closing
//! a span on a path the thread has seen before adds to a per-thread
//! counter and allocates nothing. The thread's counters merge into the
//! global aggregate whenever its span stack empties, and paths are
//! rendered to strings only at drain. Aggregation is commutative, so the
//! merged result is independent of thread count and scheduling: the span
//! *tree* (paths and counts) is byte-stable for any `--jobs` value, and
//! only the recorded durations vary run to run.
//!
//! A *lazy* span ([`Span::enter`]) reads the clock only when a sink
//! wants it: spans, or the histogram it names. A *timed* span
//! ([`Span::timed`]) always reads it and returns its duration from
//! [`Span::close`], for the phases a report carries the duration of;
//! the report and the span tree then hold the same nanoseconds.
//!
//! Worker threads do not start inside their spawner's spans — their
//! stacks are empty — so a parallel run would record different paths
//! than a sequential one. [`fork`] captures the spawner's current path
//! and [`SpanContext::attach`] grafts it onto a worker as a base prefix,
//! making the merged tree identical whichever thread did the work.

use std::cell::RefCell;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::{hists_enabled, record, Hist};

/// Global gate for span collection (see [`crate::enable_spans`]).
pub(crate) static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` if spans are being collected.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// No path: the parent of a top-level path, and the end of a trie's
/// child list.
const NONE: u32 = u32::MAX;

/// One open span on a thread's stack. Its start time lives in the
/// [`Span`] guard, which times the span.
struct Frame {
    name: &'static str,
    /// The span's path, as a node of the thread's trie.
    node: u32,
    /// Nanoseconds spent in already-completed direct children (on this
    /// thread), subtracted from total to get self time.
    child_ns: u64,
}

/// `(count, total_ns, self_ns)` of one span path.
type AggStats = (u64, u64, u64);

/// A node of a thread's path trie: one interned path.
struct TrieNode {
    /// The path's id in the global [`Registry`].
    id: u32,
    /// The path's last name.
    name: &'static str,
    first_child: u32,
    next_sibling: u32,
}

struct ThreadSpans {
    /// Path prefix grafted by [`SpanContext::attach`], and its trie node.
    base: Vec<&'static str>,
    base_node: u32,
    stack: Vec<Frame>,
    /// The paths this thread has used; node 0 is the empty path.
    trie: Vec<TrieNode>,
    /// Stats by path id, not yet merged into the global aggregate, and
    /// the ids they are nonzero for.
    pending: Vec<AggStats>,
    dirty: Vec<u32>,
}

impl Default for ThreadSpans {
    fn default() -> Self {
        ThreadSpans {
            base: Vec::new(),
            base_node: 0,
            stack: Vec::new(),
            trie: vec![TrieNode {
                id: NONE,
                name: "",
                first_child: NONE,
                next_sibling: NONE,
            }],
            pending: Vec::new(),
            dirty: Vec::new(),
        }
    }
}

impl ThreadSpans {
    /// The trie node of path `parent`/`name`, interning it on first use.
    fn child(&mut self, parent: u32, name: &'static str) -> u32 {
        let mut c = self.trie[parent as usize].first_child;
        while c != NONE {
            let node = &self.trie[c as usize];
            if node.name == name {
                return c;
            }
            c = node.next_sibling;
        }
        let id = lock(&REGISTRY).intern(self.trie[parent as usize].id, name);
        let node = self.trie.len() as u32;
        self.trie.push(TrieNode {
            id,
            name,
            first_child: NONE,
            next_sibling: self.trie[parent as usize].first_child,
        });
        self.trie[parent as usize].first_child = node;
        node
    }

    /// The trie node of a whole path.
    fn path(&mut self, names: &[&'static str]) -> u32 {
        names.iter().fold(0, |node, name| self.child(node, name))
    }

    fn record(&mut self, node: u32, total_ns: u64, self_ns: u64) {
        let id = self.trie[node as usize].id as usize;
        if id >= self.pending.len() {
            self.pending.resize(id + 1, (0, 0, 0));
        }
        let slot = &mut self.pending[id];
        if slot.0 == 0 {
            self.dirty.push(id as u32);
        }
        slot.0 += 1;
        slot.1 += total_ns;
        slot.2 += self_ns;
    }
}

thread_local! {
    static TLS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Hierarchical span path, enclosing names joined with `/`.
    pub path: String,
    /// Number of times a span completed at this path.
    pub count: u64,
    /// Total wall nanoseconds across all completions.
    pub total_ns: u64,
    /// Total minus time spent in same-thread child spans.
    pub self_ns: u64,
}

/// Every span path any thread has used, and the merged stats since the
/// last drain. Path ids index both; the table is never emptied, so the
/// ids threads cache stay valid.
struct Registry {
    /// `(parent id, last name)` of each path.
    paths: Vec<(u32, &'static str)>,
    stats: Vec<AggStats>,
}

impl Registry {
    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        if let Some(id) = self.paths.iter().position(|&p| p == (parent, name)) {
            return id as u32;
        }
        self.paths.push((parent, name));
        self.stats.push((0, 0, 0));
        (self.paths.len() - 1) as u32
    }

    /// Path `id` rendered with `/` separators.
    fn render(&self, id: u32) -> String {
        let mut names = Vec::new();
        let mut at = id;
        while at != NONE {
            let (parent, name) = self.paths[at as usize];
            names.push(name);
            at = parent;
        }
        names.reverse();
        names.join("/")
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    paths: Vec::new(),
    stats: Vec::new(),
});

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Flushes the calling thread's span counters into the global aggregate.
pub(crate) fn flush_current_thread() {
    TLS.with(|t| {
        let t = &mut *t.borrow_mut();
        if t.dirty.is_empty() {
            return;
        }
        let mut reg = lock(&REGISTRY);
        for &id in &t.dirty {
            let (count, total, own) = std::mem::take(&mut t.pending[id as usize]);
            let slot = &mut reg.stats[id as usize];
            slot.0 += count;
            slot.1 += total;
            slot.2 += own;
        }
        t.dirty.clear();
    });
}

/// Takes the global span aggregate, sorted by path.
pub(crate) fn take_aggregate() -> Vec<SpanAgg> {
    let mut reg = lock(&REGISTRY);
    let mut out: Vec<SpanAgg> = Vec::new();
    for id in 0..reg.paths.len() {
        let (count, total_ns, self_ns) = std::mem::take(&mut reg.stats[id]);
        if count > 0 {
            out.push(SpanAgg {
                path: reg.render(id as u32),
                count,
                total_ns,
                self_ns,
            });
        }
    }
    drop(reg);
    out.sort_by(|a, b| a.path.cmp(&b.path));
    // Distinct name sequences can render alike (a name holding `/`).
    out.dedup_by(|later, kept| {
        let same = later.path == kept.path;
        if same {
            kept.count += later.count;
            kept.total_ns += later.total_ns;
            kept.self_ns += later.self_ns;
        }
        same
    });
    out
}

/// A live span: created by [`crate::span!`] or [`Span::timed`], records
/// when it closes ([`Span::close`] or drop). An inert span — a lazy one
/// with no sink on — holds no start time and records nothing.
#[must_use = "a span records the lifetime of its guard"]
pub struct Span {
    /// When the span opened; `None` for an inert span.
    start: Option<Instant>,
    /// Whether this span has a frame on the thread's span stack.
    framed: bool,
    /// The histogram the span's duration also goes to.
    hist: Option<Hist>,
}

impl Span {
    /// Opens a lazy span named `name` under the thread's current span
    /// path, recording its duration into the span tree when spans are
    /// enabled and into `hist`, if given, when histograms are. Inert —
    /// one relaxed atomic load per sink asked, no clock read — when
    /// neither records.
    #[inline]
    pub fn enter(name: &'static str, hist: Option<Hist>) -> Span {
        let framed = spans_enabled();
        let hist = hist.filter(|_| hists_enabled());
        if !framed && hist.is_none() {
            return Span {
                start: None,
                framed,
                hist,
            };
        }
        Span::open(name, framed, hist)
    }

    /// Opens a timed span: it reads the clock whether or not spans are
    /// enabled, and [`Span::close`] returns its duration — the same
    /// nanoseconds the span tree records when spans are on.
    pub fn timed(name: &'static str) -> Span {
        Span::open(name, spans_enabled(), None)
    }

    fn open(name: &'static str, framed: bool, hist: Option<Hist>) -> Span {
        if framed {
            TLS.with(|t| {
                let t = &mut *t.borrow_mut();
                let parent = t.stack.last().map_or(t.base_node, |f| f.node);
                let node = t.child(parent, name);
                t.stack.push(Frame {
                    name,
                    node,
                    child_ns: 0,
                });
            });
        }
        Span {
            start: Some(Instant::now()),
            framed,
            hist,
        }
    }

    /// Closes the span and returns how long it was open (zero for an
    /// inert span).
    pub fn close(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let took = start.elapsed();
        let total_ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        if let Some(h) = self.hist {
            record(h, total_ns);
        }
        let flush = self.framed
            && TLS.with(|t| {
                let mut t = t.borrow_mut();
                let Some(frame) = t.stack.pop() else {
                    return false; // drained mid-span; nothing to attribute
                };
                let self_ns = total_ns.saturating_sub(frame.child_ns);
                if let Some(parent) = t.stack.last_mut() {
                    parent.child_ns += total_ns;
                }
                t.record(frame.node, total_ns, self_ns);
                t.stack.is_empty()
            });
        if flush {
            flush_current_thread();
        }
        took
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.start.is_some() {
            self.finish();
        }
    }
}

/// A captured span path, cloneable into worker threads (see [`fork`]).
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    path: Vec<&'static str>,
}

/// Captures the calling thread's current span path so worker threads can
/// record their spans *under* it ([`SpanContext::attach`]); this is what
/// keeps the merged span tree identical across thread counts.
pub fn fork() -> SpanContext {
    if !spans_enabled() {
        return SpanContext::default();
    }
    TLS.with(|t| {
        let t = t.borrow();
        SpanContext {
            path: t
                .base
                .iter()
                .copied()
                .chain(t.stack.iter().map(|f| f.name))
                .collect(),
        }
    })
}

impl SpanContext {
    /// Grafts this context onto the calling thread as its base span path
    /// until the returned guard drops (which also flushes the thread's
    /// buffer — worker threads typically end right after).
    pub fn attach(&self) -> AttachGuard {
        let (prev, prev_node) = TLS.with(|t| {
            let t = &mut *t.borrow_mut();
            let node = t.path(&self.path);
            (
                std::mem::replace(&mut t.base, self.path.clone()),
                std::mem::replace(&mut t.base_node, node),
            )
        });
        AttachGuard { prev, prev_node }
    }
}

/// Restores the previous base path (and flushes) on drop.
pub struct AttachGuard {
    prev: Vec<&'static str>,
    prev_node: u32,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        flush_current_thread();
        // Worker threads flush their histogram samples on the same edge
        // their spans flush — detaching is the "this thread's work is
        // merged" point for every sink.
        crate::hist::flush_current_thread();
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            t.base = std::mem::take(&mut self.prev);
            t.base_node = self.prev_node;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let _l = crate::test_lock();
        crate::enable_spans();
        let _ = crate::drain();
        {
            let _a = Span::enter("outer", None);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = Span::enter("inner", None);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = crate::drain();
        crate::disable_spans();
        let outer = t.spans.iter().find(|s| s.path == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.path == "outer/inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "self excludes child time"
        );
    }

    #[test]
    fn long_runs_under_one_root_count_every_close() {
        let _l = crate::test_lock();
        crate::enable_spans();
        let _ = crate::drain();
        {
            let _root = Span::enter("root", None);
            for _ in 0..519 {
                let _s = Span::enter("leaf", None);
            }
        }
        let t = crate::drain();
        crate::disable_spans();
        let leaf = t.spans.iter().find(|s| s.path == "root/leaf").unwrap();
        assert_eq!(leaf.count, 519);
    }

    #[test]
    fn timed_span_returns_the_recorded_duration() {
        let _l = crate::test_lock();
        crate::disable_spans();
        let _ = crate::drain();
        let off = Span::timed("timed");
        std::thread::sleep(Duration::from_millis(1));
        assert!(
            off.close() >= Duration::from_millis(1),
            "timed spans always read the clock"
        );
        assert!(
            crate::drain().spans.is_empty(),
            "but record only when spans are on"
        );

        crate::enable_spans();
        let took = {
            let _outer = Span::enter("outer", None);
            Span::timed("timed").close()
        };
        let t = crate::drain();
        crate::disable_spans();
        let timed = t.spans.iter().find(|s| s.path == "outer/timed").unwrap();
        assert_eq!(timed.total_ns, took.as_nanos() as u64, "to the nanosecond");
    }

    #[test]
    fn hist_span_records_into_each_enabled_sink() {
        let _l = crate::test_lock();
        crate::disable_spans();
        crate::disable_hists();
        let _ = crate::drain();
        let _ = Span::enter("h", Some(Hist::CheckFunction));
        assert!(crate::drain().is_empty(), "inert with both sinks off");

        crate::enable_hists();
        let _ = Span::enter("h", Some(Hist::CheckFunction));
        let t = crate::drain();
        assert!(t.spans.is_empty());
        assert_eq!(t.hist(Hist::CheckFunction).map(|h| h.count), Some(1));

        crate::enable_spans();
        {
            let _h = Span::enter("h", Some(Hist::CheckFunction));
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = crate::drain();
        crate::disable_spans();
        crate::disable_hists();
        let span = t.spans.iter().find(|s| s.path == "h").unwrap();
        let hist = t.hist(Hist::CheckFunction).unwrap();
        assert_eq!((span.count, hist.count), (1, 1));
        assert_eq!(span.total_ns, hist.sum_ns, "one clock for both sinks");
        assert!(hist.min_ns >= 1_000_000, "slept a millisecond");
    }
}
