//! Phase-scoped spans with deterministic cross-thread merging — the
//! pipeline's one clock.
//!
//! Each live thread keeps a stack of open spans plus a bounded buffer
//! (the "ring") of completed span records. A completed span records its
//! hierarchical *path* — the names of every enclosing span joined with
//! `/` — and its total/self wall time. Buffers flush into one global
//! aggregate keyed by path whenever the thread's span stack empties (or
//! the buffer fills), and aggregation is commutative, so the merged
//! result is independent of thread count and scheduling: the span *tree*
//! (paths and counts) is byte-stable for any `--jobs` value, and only
//! the recorded durations vary run to run.
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
use std::collections::HashMap;
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

/// Completed spans buffered per thread before the next flush.
const RING_CAPACITY: usize = 256;

/// One open span on a thread's stack. Its start time lives in the
/// [`Span`] guard, which times the span.
struct Frame {
    name: &'static str,
    /// Nanoseconds spent in already-completed direct children (on this
    /// thread), subtracted from total to get self time.
    child_ns: u64,
}

/// One completed span, not yet merged into the global aggregate.
struct SpanRec {
    path: String,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct ThreadSpans {
    /// Path prefix grafted by [`SpanContext::attach`].
    base: Vec<&'static str>,
    stack: Vec<Frame>,
    buf: Vec<SpanRec>,
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

/// `(count, total_ns, self_ns)` per span path in the global aggregate.
type AggStats = (u64, u64, u64);

static AGGREGATE: Mutex<Option<HashMap<String, AggStats>>> = Mutex::new(None);

fn merge_into_global(records: Vec<SpanRec>) {
    if records.is_empty() {
        return;
    }
    let mut guard = match AGGREGATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let map = guard.get_or_insert_with(HashMap::new);
    for r in records {
        let slot = map.entry(r.path).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += r.total_ns;
        slot.2 += r.self_ns;
    }
}

/// Flushes the calling thread's completed-span buffer into the global
/// aggregate.
pub(crate) fn flush_current_thread() {
    let records = TLS.with(|t| std::mem::take(&mut t.borrow_mut().buf));
    merge_into_global(records);
}

/// Takes the global span aggregate, sorted by path.
pub(crate) fn take_aggregate() -> Vec<SpanAgg> {
    let map = {
        let mut guard = match AGGREGATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.take().unwrap_or_default()
    };
    let mut out: Vec<SpanAgg> = map
        .into_iter()
        .map(|(path, (count, total_ns, self_ns))| SpanAgg {
            path,
            count,
            total_ns,
            self_ns,
        })
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
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
            TLS.with(|t| t.borrow_mut().stack.push(Frame { name, child_ns: 0 }));
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
                let mut path = String::new();
                for name in t.base.iter().chain(t.stack.iter().map(|f| &f.name)) {
                    path.push_str(name);
                    path.push('/');
                }
                path.push_str(frame.name);
                t.buf.push(SpanRec {
                    path,
                    total_ns,
                    self_ns,
                });
                t.stack.is_empty() || t.buf.len() >= RING_CAPACITY
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
        let prev = TLS.with(|t| {
            let mut t = t.borrow_mut();
            std::mem::replace(&mut t.base, self.path.clone())
        });
        AttachGuard { prev }
    }
}

/// Restores the previous base path (and flushes) on drop.
pub struct AttachGuard {
    prev: Vec<&'static str>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        flush_current_thread();
        // Worker threads flush their histogram samples on the same edge
        // their spans flush — detaching is the "this thread's work is
        // merged" point for every sink.
        crate::hist::flush_current_thread();
        TLS.with(|t| {
            t.borrow_mut().base = std::mem::take(&mut self.prev);
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
    fn ring_overflow_flushes_instead_of_dropping() {
        let _l = crate::test_lock();
        crate::enable_spans();
        let _ = crate::drain();
        {
            let _root = Span::enter("root", None);
            for _ in 0..(RING_CAPACITY * 2 + 7) {
                let _s = Span::enter("leaf", None);
            }
        }
        let t = crate::drain();
        crate::disable_spans();
        let leaf = t.spans.iter().find(|s| s.path == "root/leaf").unwrap();
        assert_eq!(leaf.count, (RING_CAPACITY * 2 + 7) as u64);
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
