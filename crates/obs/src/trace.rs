//! What one [`crate::drain`] observed, and the human `--profile` table
//! it renders as.
//!
//! Spans come sorted by path, histograms by name, and counters in
//! registry order, so two traces of the same work differ only in their
//! timings and bucket placement: strip those (see [`Trace::normalized`])
//! and the trace is identical for any thread count.

use crate::hist::{bucket_upper_bound, fmt_ns, HistSnapshot};
use crate::metrics::{Counter, Metrics};
use crate::span::SpanAgg;
use std::fmt::Write as _;

/// Everything one [`crate::drain`] observed: the merged span aggregate,
/// the latency histograms, and a counter snapshot.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanAgg>,
    /// Non-empty latency histograms, sorted by name.
    pub hists: Vec<HistSnapshot>,
    /// Counter totals.
    pub counters: Metrics,
}

impl Trace {
    /// The total of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// The drained histogram of one [`crate::Hist`], if it recorded
    /// anything.
    pub fn hist(&self, h: crate::Hist) -> Option<&HistSnapshot> {
        let name = crate::hist_name(h);
        self.hists.iter().find(|s| s.name == name)
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.hists.is_empty() && self.counters.is_empty()
    }

    /// The thread-count-invariant shape of the trace: `(path, count)`
    /// per span, `(name, count)` per histogram, plus every non-zero
    /// counter — timestamps and bucket placement stripped.
    pub fn normalized(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .spans
            .iter()
            .map(|s| (format!("span:{}", s.path), s.count))
            .collect();
        out.extend(
            self.hists
                .iter()
                .map(|h| (format!("hist:{}", h.name), h.count)),
        );
        out.extend(
            self.counters
                .iter_nonzero()
                .map(|(n, v)| (format!("counter:{n}"), v)),
        );
        out
    }

    /// Renders the human `--profile` table: spans sorted by total time
    /// (descending), then latency histograms with exact percentiles and
    /// log2 bucket bars, then every non-zero counter.
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>9} {:>12} {:>12}",
            "span", "count", "total (ms)", "self (ms)"
        );
        let mut spans: Vec<&SpanAgg> = self.spans.iter().collect();
        spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.path.cmp(&b.path)));
        for s in spans {
            let _ = writeln!(
                out,
                "{:<52} {:>9} {:>12.3} {:>12.3}",
                s.path,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p90", "p95", "p99", "max"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "{:<24} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    fmt_ns(h.percentile(50)),
                    fmt_ns(h.percentile(90)),
                    fmt_ns(h.percentile(95)),
                    fmt_ns(h.percentile(99)),
                    fmt_ns(h.max_ns)
                );
            }
            for h in &self.hists {
                if h.buckets.is_empty() {
                    continue;
                }
                let _ = writeln!(out);
                let _ = writeln!(out, "{} latency ({} samples):", h.name, h.count);
                let buckets: Vec<(String, usize)> = h
                    .buckets
                    .iter()
                    .map(|&(i, c)| (format!("≤{}", fmt_ns(bucket_upper_bound(i))), c as usize))
                    .collect();
                out.push_str(&text_histogram(&buckets, 40));
            }
        }
        let mut counters: Vec<(&str, u64)> = self.counters.iter_nonzero().collect();
        // Registry declaration order puts the `mem.*` gauges in a block
        // at the end; sorting by name instead files every row — counter
        // or gauge — under its subsystem prefix.
        counters.sort_unstable_by_key(|&(name, _)| name);
        if !counters.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<52} {:>12}", "counter", "total");
            for (name, value) in counters {
                let _ = writeln!(out, "{name:<52} {:>12}", render_counter_value(name, value));
            }
        }
        out
    }
}

/// Renders a text histogram: `buckets` of `(label, count)`, bars scaled
/// to `width` columns. (Shared by the `--profile` table here and the
/// bench crate's Figure 6 rendering.)
pub fn text_histogram(buckets: &[(String, usize)], width: usize) -> String {
    let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (label, count) in buckets {
        let bar = "#".repeat(count * width / max);
        let _ = writeln!(out, "{label:>12} | {bar} {count}");
    }
    out
}

/// Renders one counter row's value. `mem.*` byte gauges humanize to
/// B/KiB/MiB (the artifact's `profile` block keeps the raw byte count);
/// everything else prints as a plain count.
fn render_counter_value(name: &str, value: u64) -> String {
    if !(name.starts_with("mem.") && name.ends_with("_bytes")) {
        return value.to_string();
    }
    const KIB: f64 = 1024.0;
    let v = value as f64;
    if v < KIB {
        format!("{value} B")
    } else if v < KIB * KIB {
        format!("{:.1} KiB", v / KIB)
    } else {
        format!("{:.1} MiB", v / (KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, drain, enable_all, span, test_lock, Counter, Hist};

    fn sample_trace() -> Trace {
        let _l = test_lock();
        enable_all();
        let _ = drain();
        {
            let _a = span!("unit.alpha");
            let _b = span!("unit.beta");
            count(Counter::CheckSatQueries, 11);
            count(Counter::AliasUnifications, 4);
            crate::record(Hist::CheckFunction, 700);
            crate::record(Hist::CheckFunction, 90_000);
            crate::record(Hist::AnalyzeModule, 1_500);
        }
        let t = drain();
        crate::disable_metrics();
        crate::disable_spans();
        crate::disable_hists();
        t
    }

    #[test]
    fn normalized_strips_timestamps_only() {
        let t = sample_trace();
        let norm = t.normalized();
        assert!(norm.iter().any(|(k, v)| k == "span:unit.alpha" && *v == 1));
        assert!(norm
            .iter()
            .any(|(k, v)| k == "counter:effects.checksat_queries" && *v == 11));
        assert!(norm
            .iter()
            .any(|(k, v)| k == "hist:check.function" && *v == 2));
        // Only shape survives: every entry is a span path, hist name, or
        // counter name.
        assert!(norm.iter().all(|(k, _)| k.starts_with("span:")
            || k.starts_with("hist:")
            || k.starts_with("counter:")));
    }

    #[test]
    fn profile_table_renders_spans_hists_and_counters() {
        let t = sample_trace();
        let table = t.render_profile();
        assert!(table.contains("unit.alpha"));
        assert!(table.contains("unit.alpha/unit.beta"));
        assert!(table.contains("effects.checksat_queries"));
        assert!(table.contains("total (ms)"));
        // The histogram section: header, a row per hist with humanized
        // percentiles, and bucket bars.
        assert!(table.contains("histogram"), "{table}");
        assert!(table.contains("p99"), "{table}");
        assert!(table.contains("check.function"), "{table}");
        assert!(
            table.contains("check.function latency (2 samples):"),
            "{table}"
        );
        assert!(
            table.contains("≤1.0 µs"),
            "bucket label for 700 ns: {table}"
        );
        assert!(
            table.contains("≤131.1 µs"),
            "bucket label for 90 µs: {table}"
        );
    }

    #[test]
    fn profile_table_sorts_rows_and_humanizes_byte_gauges() {
        let _l = test_lock();
        enable_all();
        let _ = drain();
        count(Counter::CqualLockSites, 3);
        count(Counter::CacheLockRetries, 5);
        crate::gauge_max(Counter::MemPeakRssBytes, 27 * 1024 * 1024 + 512 * 1024);
        crate::gauge_max(Counter::MemArenaBytes, 1536);
        let t = drain();
        crate::disable_metrics();
        crate::disable_spans();
        crate::disable_hists();
        let table = t.render_profile();
        // Rows sort by name, not registry declaration order (which puts
        // cqual.* before cache.* and the mem.* gauges in a trailing
        // block).
        let pos = |needle: &str| {
            table
                .find(needle)
                .unwrap_or_else(|| panic!("{needle} missing: {table}"))
        };
        assert!(pos("cache.lock_retries") < pos("cqual.lock_sites"));
        assert!(pos("cqual.lock_sites") < pos("mem.arena_bytes"));
        // Byte gauges humanize; plain counters stay plain counts.
        assert!(table.contains("1.5 KiB"), "{table}");
        assert!(table.contains("27.5 MiB"), "{table}");
        assert!(!table.contains("28835840"), "{table}");
    }

    #[test]
    fn text_histogram_renders_scaled_bars() {
        let buckets = vec![
            ("0".to_string(), 2),
            ("1-2".to_string(), 10),
            ("3+".to_string(), 5),
        ];
        let text = text_histogram(&buckets, 20);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains(&"#".repeat(20)), "max bucket fills width");
        assert!(lines[2].contains(&"#".repeat(10)), "half bucket half width");
        assert!(lines[0].ends_with("2"));
    }
}
