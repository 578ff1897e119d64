//! Trace sinks: the versioned JSON-lines format (`localias-trace/v2`),
//! its validator, and the human `--profile` table.
//!
//! A trace file is one JSON object per line:
//!
//! ```text
//! {"schema":"localias-trace/v2"}
//! {"type":"span","path":"experiment/sweep/module.check","count":589,"total_ns":48210934,"self_ns":48210934}
//! {"type":"hist","name":"analyze.module","count":1178,"sum_ns":64170212,"min_ns":9875,"max_ns":1403210,"buckets":[[14,310],[15,704],[16,164]]}
//! {"type":"counter","name":"alias.unifications","value":151320}
//! ```
//!
//! Span lines come sorted by path, then histogram lines sorted by name,
//! then counter lines in registry order, so two traces of the same work
//! differ only in the `*_ns` fields and bucket placement — strip those
//! (see [`Trace::normalized`]) and the trace is byte-identical for any
//! thread count. The validator still accepts the v1 schema (spans +
//! counters only); histogram lines are only legal in v2.

use crate::hist::{bucket_upper_bound, fmt_ns, hist_by_name, HistSnapshot, HIST_BUCKETS};
use crate::json::{self, Value};
use crate::metrics::{counter_by_name, Counter, Metrics};
use crate::span::SpanAgg;
use std::fmt::Write as _;

/// The trace file schema identifier.
pub const SCHEMA: &str = "localias-trace/v2";

/// The previous schema identifier — still accepted by the validator so
/// pre-histogram trace files keep validating (and converting to Chrome
/// traces); new files are always written as v2.
pub const SCHEMA_V1: &str = "localias-trace/v1";

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

    /// Renders the versioned JSON-lines trace.
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![Value::obj([("schema", SCHEMA.into())])];
        lines.extend(self.spans.iter().map(|s| {
            Value::obj([
                ("type", "span".into()),
                ("path", s.path.as_str().into()),
                ("count", s.count.into()),
                ("total_ns", s.total_ns.into()),
                ("self_ns", s.self_ns.into()),
            ])
        }));
        lines.extend(self.hists.iter().map(|h| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(i, c)| vec![i.into(), c.into()].into());
            Value::obj([
                ("type", "hist".into()),
                ("name", h.name.as_str().into()),
                ("count", h.count.into()),
                ("sum_ns", h.sum_ns.into()),
                ("min_ns", h.min_ns.into()),
                ("max_ns", h.max_ns.into()),
                ("buckets", Value::Arr(buckets.collect())),
            ])
        }));
        lines.extend(self.counters.iter_nonzero().map(|(name, value)| {
            Value::obj([
                ("type", "counter".into()),
                ("name", name.into()),
                ("value", value.into()),
            ])
        }));
        lines.iter().map(|l| l.render() + "\n").collect()
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
/// B/KiB/MiB (the JSON trace keeps the raw byte count); everything else
/// prints as a plain count.
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

/// What [`validate_jsonl`] learned about a well-formed trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of span lines.
    pub spans: usize,
    /// The parsed span aggregate, in file (path-sorted) order — enough
    /// to rebuild a Chrome trace from an on-disk file.
    pub span_rows: Vec<SpanAgg>,
    /// Parsed histogram lines, in file (name-sorted) order.
    pub hists: Vec<HistSnapshot>,
    /// Parsed `(name, value)` counter lines.
    pub counters: Vec<(String, u64)>,
}

impl TraceSummary {
    /// The reported total of one counter (0 when absent: counters are
    /// omitted from the file when zero).
    pub fn counter(&self, c: Counter) -> u64 {
        let name = crate::counter_name(c);
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// A strict validator for the `localias-trace/v2` (and legacy v1)
/// JSON-lines format — the tiny schema check `scripts/check.sh` runs
/// against real trace files. Verifies the header, every line's exact
/// key set and order, span-path and histogram-name sortedness,
/// histogram internal consistency (bucket counts sum to the sample
/// count, min/max land in the first/last bucket), and that names come
/// from the registries.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err("empty trace".into());
    };
    let schema = json::parse(header)
        .ok()
        .and_then(|h| fields(&h, ["schema"]).ok()?[0].as_str().map(str::to_string));
    let v2 = match schema.as_deref() {
        Some(SCHEMA) => true,
        Some(SCHEMA_V1) => false,
        _ => return Err(format!("bad header line: {header}")),
    };
    let mut summary = TraceSummary::default();
    let mut seen_hist = false;
    let mut seen_counter = false;
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let at = |e: String| format!("line {lineno}: {e}");
        let v = json::parse(line).map_err(|e| at(e.to_string()))?;
        match v.get("type").and_then(Value::as_str) {
            Some("span") => {
                if seen_hist || seen_counter {
                    return Err(at("span after hist/counter lines".into()));
                }
                let [_, path, count, total_ns, self_ns] =
                    fields(&v, ["type", "path", "count", "total_ns", "self_ns"]).map_err(at)?;
                let span = SpanAgg {
                    path: string(path).map_err(at)?,
                    count: uint(count).map_err(at)?,
                    total_ns: uint(total_ns).map_err(at)?,
                    self_ns: uint(self_ns).map_err(at)?,
                };
                if span.count == 0 {
                    return Err(at("zero-count span".into()));
                }
                if span.self_ns > span.total_ns {
                    return Err(at("self_ns exceeds total_ns".into()));
                }
                if summary
                    .span_rows
                    .last()
                    .is_some_and(|prev| prev.path >= span.path)
                {
                    return Err(at("span paths not sorted".into()));
                }
                summary.spans += 1;
                summary.span_rows.push(span);
            }
            Some("hist") => {
                if !v2 {
                    return Err(at("hist line in a v1 trace".into()));
                }
                if seen_counter {
                    return Err(at("hist after counter lines".into()));
                }
                seen_hist = true;
                let hist = hist_line(&v).map_err(at)?;
                if hist_by_name(&hist.name).is_none() {
                    return Err(at(format!("unknown histogram `{}`", hist.name)));
                }
                if summary
                    .hists
                    .last()
                    .is_some_and(|prev| prev.name >= hist.name)
                {
                    return Err(at("histogram names not sorted".into()));
                }
                summary.hists.push(hist);
            }
            Some("counter") => {
                seen_counter = true;
                let [_, name, value] = fields(&v, ["type", "name", "value"]).map_err(at)?;
                let name = string(name).map_err(at)?;
                if counter_by_name(&name).is_none() {
                    return Err(at(format!("unknown counter `{name}`")));
                }
                summary.counters.push((name, uint(value).map_err(at)?));
            }
            _ => return Err(at(format!("unrecognized line {line:?}"))),
        }
    }
    Ok(summary)
}

/// The values of an object whose keys are exactly `keys`, in order.
fn fields<'v, const N: usize>(v: &'v Value, keys: [&str; N]) -> Result<[&'v Value; N], String> {
    match v {
        Value::Obj(pairs) if pairs.iter().map(|(k, _)| k.as_str()).eq(keys) => {
            Ok(std::array::from_fn(|i| &pairs[i].1))
        }
        _ => Err(format!("expected an object with keys {keys:?}")),
    }
}

/// Numbers parse as `f64`, which holds every integer below 2^53 exactly;
/// anything at or above that would read back rounded or saturated.
const MAX_EXACT_INT: f64 = (1u64 << 53) as f64;

fn uint(v: &Value) -> Result<u64, String> {
    if v.as_f64().is_some_and(|n| n >= MAX_EXACT_INT) {
        return Err(format!("integer out of range: {}", v.render()));
    }
    v.as_u64()
        .ok_or_else(|| format!("expected a non-negative integer, got {}", v.render()))
}

fn string(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("expected a string, got {}", v.render()))
}

/// Decodes (and consistency-checks) one hist line.
fn hist_line(v: &Value) -> Result<HistSnapshot, String> {
    let [_, name, count, sum_ns, min_ns, max_ns, buckets] = fields(
        v,
        [
            "type", "name", "count", "sum_ns", "min_ns", "max_ns", "buckets",
        ],
    )?;
    let (count, sum_ns, min_ns, max_ns) =
        (uint(count)?, uint(sum_ns)?, uint(min_ns)?, uint(max_ns)?);
    let mut pairs: Vec<(usize, u64)> = Vec::new();
    for pair in buckets.as_arr().ok_or("buckets is not an array")? {
        let (index, bcount) = match pair.as_arr() {
            Some([i, c]) => (uint(i)?, uint(c)?),
            _ => return Err("malformed bucket".to_string()),
        };
        if index as usize >= HIST_BUCKETS {
            return Err(format!("bucket index {index} out of range"));
        }
        if pairs
            .last()
            .is_some_and(|&(prev, _)| prev >= index as usize)
        {
            return Err("bucket indices not ascending".to_string());
        }
        if bcount == 0 {
            return Err("zero-count bucket".to_string());
        }
        pairs.push((index as usize, bcount));
    }
    if count == 0 {
        return Err("zero-count histogram".to_string());
    }
    if min_ns > max_ns {
        return Err("min_ns exceeds max_ns".to_string());
    }
    if sum_ns < max_ns {
        return Err("sum_ns below max_ns".to_string());
    }
    let bucket_total = pairs
        .iter()
        .try_fold(0u64, |sum, &(_, c)| sum.checked_add(c))
        .ok_or("bucket counts overflow")?;
    if bucket_total != count {
        return Err(format!("buckets sum to {bucket_total}, count is {count}"));
    }
    let first = pairs.first().map_or(0, |&(i, _)| i);
    let last = pairs.last().map_or(0, |&(i, _)| i);
    if crate::hist::bucket_index(min_ns) != first || crate::hist::bucket_index(max_ns) != last {
        return Err("min/max fall outside the first/last bucket".to_string());
    }
    Ok(HistSnapshot {
        name: string(name)?,
        count,
        sum_ns,
        min_ns,
        max_ns,
        buckets: pairs,
    })
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
    fn jsonl_round_trips_through_the_validator() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let summary = validate_jsonl(&text).expect("well-formed trace validates");
        assert_eq!(summary.spans, t.spans.len());
        assert_eq!(summary.span_rows.len(), t.spans.len());
        assert_eq!(summary.counter(Counter::CheckSatQueries), 11);
        assert_eq!(summary.counter(Counter::AliasUnifications), 4);
        assert_eq!(summary.counter(Counter::EffectVars), 0, "absent means 0");
        // Histograms survive the round trip exactly.
        assert_eq!(summary.hists, t.hists);
        assert_eq!(summary.hists.len(), 2);
        assert_eq!(summary.hists[0].name, "analyze.module");
        assert_eq!(summary.hists[1].name, "check.function");
        assert_eq!(summary.hists[1].count, 2);
    }

    #[test]
    fn v1_traces_still_validate_but_reject_hist_lines() {
        let v1 = format!(
            "{{\"schema\":\"{SCHEMA_V1}\"}}\n{{\"type\":\"counter\",\"name\":\"cqual.errors\",\"value\":3}}\n"
        );
        let summary = validate_jsonl(&v1).expect("v1 still validates");
        assert_eq!(summary.counter(Counter::CqualErrors), 3);
        let v1_with_hist = format!(
            "{{\"schema\":\"{SCHEMA_V1}\"}}\n{{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":1,\"sum_ns\":5,\"min_ns\":5,\"max_ns\":5,\"buckets\":[[3,1]]}}\n"
        );
        assert!(validate_jsonl(&v1_with_hist).is_err(), "hist is v2-only");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let t = sample_trace();
        let good = t.to_jsonl();
        assert!(validate_jsonl("").is_err(), "empty");
        assert!(validate_jsonl("{\"schema\":\"other/v9\"}\n").is_err());
        let truncated = &good[..good.len() - 3];
        assert!(validate_jsonl(truncated).is_err(), "truncated final line");
        let garbled = good.replace("\"count\":", "\"cont\":");
        assert!(validate_jsonl(&garbled).is_err(), "bad key");
        let unknown = format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"type\":\"counter\",\"name\":\"bogus.counter\",\"value\":1}}\n");
        assert!(validate_jsonl(&unknown).is_err(), "unknown counter");
    }

    #[test]
    fn validator_rejects_inconsistent_histograms() {
        let line = |body: &str| format!("{{\"schema\":\"{SCHEMA}\"}}\n{body}\n");
        let ok = line(
            "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":2,\"sum_ns\":12,\"min_ns\":4,\"max_ns\":8,\"buckets\":[[3,1],[4,1]]}",
        );
        assert!(validate_jsonl(&ok).is_ok(), "baseline hist validates");
        for (why, bad) in [
            (
                "unknown name",
                "{\"type\":\"hist\",\"name\":\"bogus.hist\",\"count\":2,\"sum_ns\":12,\"min_ns\":4,\"max_ns\":8,\"buckets\":[[3,1],[4,1]]}",
            ),
            (
                "bucket sum mismatch",
                "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":3,\"sum_ns\":12,\"min_ns\":4,\"max_ns\":8,\"buckets\":[[3,1],[4,1]]}",
            ),
            (
                "min above max",
                "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":2,\"sum_ns\":12,\"min_ns\":9,\"max_ns\":8,\"buckets\":[[3,1],[4,1]]}",
            ),
            (
                "min outside first bucket",
                "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":2,\"sum_ns\":12,\"min_ns\":1,\"max_ns\":8,\"buckets\":[[3,1],[4,1]]}",
            ),
            (
                "unsorted buckets",
                "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":2,\"sum_ns\":12,\"min_ns\":4,\"max_ns\":8,\"buckets\":[[4,1],[3,1]]}",
            ),
            (
                "bucket index out of range",
                "{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":1,\"sum_ns\":8,\"min_ns\":8,\"max_ns\":8,\"buckets\":[[64,1]]}",
            ),
        ] {
            assert!(validate_jsonl(&line(bad)).is_err(), "{why} should fail");
        }
        // Hist lines after counter lines violate the section order.
        let misordered = format!(
            "{{\"schema\":\"{SCHEMA}\"}}\n{{\"type\":\"counter\",\"name\":\"cqual.errors\",\"value\":1}}\n{{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":1,\"sum_ns\":5,\"min_ns\":5,\"max_ns\":5,\"buckets\":[[3,1]]}}\n"
        );
        assert!(validate_jsonl(&misordered).is_err(), "hist after counters");
    }

    #[test]
    fn validator_rejects_out_of_range_and_fractional_integers() {
        let hist = |count: &str, bucket: &str| {
            format!(
                "{{\"schema\":\"{SCHEMA}\"}}\n{{\"type\":\"hist\",\"name\":\"analyze.module\",\"count\":{count},\"sum_ns\":5,\"min_ns\":5,\"max_ns\":5,\"buckets\":[[3,{bucket}]]}}\n"
            )
        };
        assert!(
            validate_jsonl(&hist("1", "1")).is_ok(),
            "baseline hist validates"
        );
        for (count, bucket) in [
            ("1e300", "1e300"),
            ("1.5", "1.5"),
            ("9007199254740992", "1"),
        ] {
            let err = validate_jsonl(&hist(count, bucket)).unwrap_err();
            assert!(err.contains("integer"), "count {count}: {err}");
        }
        let counter = |value: &str| {
            format!("{{\"schema\":\"{SCHEMA}\"}}\n{{\"type\":\"counter\",\"name\":\"cqual.errors\",\"value\":{value}}}\n")
        };
        assert!(validate_jsonl(&counter("9007199254740991")).is_ok());
        for value in ["1e300", "1.5", "-1"] {
            let err = validate_jsonl(&counter(value)).unwrap_err();
            assert!(err.contains("integer"), "value {value}: {err}");
        }
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
        count(Counter::CacheShardHits, 5);
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
        assert!(pos("cache.shard_hits") < pos("cqual.lock_sites"));
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
