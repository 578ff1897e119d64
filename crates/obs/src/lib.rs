#![warn(missing_docs)]

//! Structured tracing and metrics for the whole analysis pipeline.
//!
//! The paper's empirical claims are about *where time and precision go*
//! — O(kn) `CHECK-SAT`, O(n²) restrict inference, 589 flow-checked
//! driver modules — and this crate is how the repo sees any of that.
//! Three facilities, all process-global, all zero-dep, all compiled down
//! to **a branch on one relaxed atomic load when no sink is installed**
//! (timed spans excepted: they read the clock for their caller):
//!
//! * **Spans** ([`span!`], [`Span::timed`]): phase-scoped timers, the
//!   pipeline's one clock, recorded into a thread-local ring buffer and
//!   merged *deterministically* into a process-wide aggregate keyed by
//!   hierarchical path — traces are stable (modulo timestamps) for any
//!   `--jobs` value. Worker threads inherit their spawner's span path
//!   through [`fork`]/[`SpanContext::attach`], so the span tree is
//!   identical whether a sweep ran sequentially or on eight threads. A
//!   *timed* span always reads the clock and returns its duration, for
//!   the phases a report carries the duration of.
//! * **Counters** ([`count`]/[`counter!`]): named monotonic event
//!   counters ([`Counter`]) incremented from deep inside the alias,
//!   effects and cqual crates. Relaxed atomic adds commute, so totals
//!   are byte-identical for every thread count.
//! * **Histograms** ([`record`], or a span that names a [`Hist`]:
//!   `span!(name, hist)`): log2-bucketed latency distributions with
//!   exact count/sum/min/max and deterministic percentiles, merged
//!   thread-locally exactly like spans — the per-event view (p50/p95/p99)
//!   that sums and means hide.
//!
//! Sinks are pulled, not pushed: enable collection with
//! [`enable_metrics`]/[`enable_spans`]/[`enable_hists`], run the
//! pipeline, then [`drain`] a [`Trace`]. It has two renderings: the
//! human `--profile` table ([`Trace::render_profile`]) and the `profile`
//! and `hist` blocks of a bench artifact, which the bench crate writes
//! through [`json`].

mod hist;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use hist::{
    bucket_upper_bound, fmt_ns, hist_name, hists_enabled, record, Hist, HistSnapshot, ALL_HISTS,
    HIST_COUNT,
};
pub use metrics::{
    count, counter_name, gauge_max, metrics_enabled, peak_rss_bytes, Counter, Metrics,
};
pub use span::{fork, spans_enabled, Span, SpanAgg, SpanContext};
pub use trace::{text_histogram, Trace};

use std::sync::atomic::Ordering;

/// Enables counter collection ([`count`] becomes live).
pub fn enable_metrics() {
    metrics::METRICS_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables counter collection (counts keep their values).
pub fn disable_metrics() {
    metrics::METRICS_ENABLED.store(false, Ordering::Relaxed);
}

/// Enables span collection ([`span!`] starts recording).
pub fn enable_spans() {
    span::SPANS_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables span collection (already-recorded spans stay buffered).
pub fn disable_spans() {
    span::SPANS_ENABLED.store(false, Ordering::Relaxed);
}

/// Enables histogram collection ([`record`] and the spans that name a
/// [`Hist`] become live). Histograms are cheap enough that the bench harness keeps them
/// on even when no span/counter sink is installed — every bench
/// artifact carries latency percentiles.
pub fn enable_hists() {
    hist::HISTS_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables histogram collection (already-recorded samples stay
/// buffered).
pub fn disable_hists() {
    hist::HISTS_ENABLED.store(false, Ordering::Relaxed);
}

/// Enables spans, counters and histograms — the "install a sink" call
/// behind `--profile`.
pub fn enable_all() {
    enable_metrics();
    enable_spans();
    enable_hists();
}

/// Drains everything recorded so far into a [`Trace`]: flushes the
/// calling thread's span and histogram buffers, merges the global
/// aggregates, and snapshots every counter. All three stores are reset
/// so a subsequent drain observes only new work.
pub fn drain() -> Trace {
    span::flush_current_thread();
    Trace {
        spans: span::take_aggregate(),
        hists: hist::take_hists(),
        counters: metrics::take_counters(),
    }
}

/// A serialized test lock for code that asserts on exact global counter
/// or span values. Process-global counters mean concurrently running
/// tests that *enable* collection would observe each other; tests hold
/// this lock across enable → work → [`drain`] → disable.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Opens a lazy phase-scoped span ([`Span::enter`]): records wall time
/// from here to the end of the enclosing scope under the given
/// `&'static str` name, nested under whatever span is live on this
/// thread. Compiles to one relaxed atomic load when spans are disabled.
/// With a second argument, a [`Hist`], the span also records its
/// duration into that histogram.
///
/// ```
/// # use localias_obs as obs;
/// let _guard = obs::span!("alias.analyze");
/// let _timed = obs::span!("core.analyze", obs::Hist::AnalyzeModule);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, None)
    };
    ($name:expr, $hist:expr) => {
        $crate::Span::enter($name, Some($hist))
    };
}

/// Increments a named [`Counter`] (alias for calling [`count`]).
///
/// ```
/// # use localias_obs as obs;
/// obs::counter!(obs::Counter::AliasUnifications, 1);
/// ```
#[macro_export]
macro_rules! counter {
    ($c:expr, $n:expr) => {
        $crate::count($c, $n)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_roundtrip_counts_and_spans() {
        let _l = test_lock();
        enable_all();
        {
            let _root = span!("test.root");
            let _child = span!("test.child");
            count(Counter::AliasUnifications, 3);
            count(Counter::AliasUnifications, 4);
        }
        let t = drain();
        disable_metrics();
        disable_spans();
        disable_hists();
        assert_eq!(t.counter(Counter::AliasUnifications), 7);
        let paths: Vec<&str> = t.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"test.root"), "{paths:?}");
        assert!(paths.contains(&"test.root/test.child"), "{paths:?}");
        // A second drain observes nothing.
        let t2 = drain();
        assert_eq!(t2.counter(Counter::AliasUnifications), 0);
        assert!(t2.spans.is_empty());
    }

    #[test]
    fn disabled_macros_record_nothing() {
        let _l = test_lock();
        disable_metrics();
        disable_spans();
        disable_hists();
        let _ = drain();
        {
            let _s = span!("test.dead");
            count(Counter::EffectVars, 99);
        }
        let t = drain();
        assert_eq!(t.counter(Counter::EffectVars), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn forked_context_merges_worker_spans_under_parent() {
        let _l = test_lock();
        enable_all();
        let _ = drain();
        {
            let _root = span!("test.sweep");
            let cx = fork();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let cx = cx.clone();
                    s.spawn(move || {
                        let _att = cx.attach();
                        let _w = span!("test.module");
                    });
                }
            });
            // Sequential sibling takes the same path.
            let _w = span!("test.module");
        }
        let t = drain();
        disable_metrics();
        disable_spans();
        disable_hists();
        let m = t
            .spans
            .iter()
            .find(|s| s.path == "test.sweep/test.module")
            .expect("worker spans nest under the forked parent");
        assert_eq!(m.count, 3, "two workers + one sequential");
    }
}
