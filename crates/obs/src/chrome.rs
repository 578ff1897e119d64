//! Chrome trace-event export: renders a drained trace as a JSON
//! document that `chrome://tracing` and Perfetto open directly.
//!
//! The obs aggregate is *merged* — per span path it keeps a count and
//! total/self time, not individual begin/end timestamps — so this
//! exporter synthesizes a timeline: root spans lie end to end from
//! t = 0, and each span's children lie end to end inside it, scaled
//! down proportionally when same-thread re-entry makes the children's
//! totals sum past their parent. The picture preserves the span tree's
//! shape and relative magnitudes, not the original interleaving; the
//! `args` payload on every slice carries the exact aggregate numbers,
//! and counters/histograms ride along as counter events at t = 0.

use crate::hist::HistSnapshot;
use crate::json::Value;
use crate::span::SpanAgg;

/// Renders spans, counters and histograms as one Chrome trace-event
/// JSON object (`{"traceEvents":[...]}`). Spans must be sorted by path
/// (the shape [`crate::drain`] and [`crate::validate_jsonl`] produce).
pub fn chrome_trace(
    spans: &[SpanAgg],
    counters: &[(String, u64)],
    hists: &[HistSnapshot],
) -> String {
    let mut events: Vec<Value> = Vec::new();
    layout(spans, None, 0.0, f64::INFINITY, &mut events);
    let counter_event = |name: &str, cat: &str, args: Value| {
        Value::obj([
            ("name", name.into()),
            ("cat", cat.into()),
            ("ph", "C".into()),
            ("ts", 0u64.into()),
            ("pid", 1u64.into()),
            ("args", args),
        ])
    };
    for (name, value) in counters {
        let args = Value::obj([("value", (*value).into())]);
        events.push(counter_event(name, "counter", args));
    }
    for h in hists {
        let args = Value::obj([
            ("count", h.count.into()),
            ("p50_ns", h.percentile(50).into()),
            ("p90_ns", h.percentile(90).into()),
            ("p95_ns", h.percentile(95).into()),
            ("p99_ns", h.percentile(99).into()),
            ("max_ns", h.max_ns.into()),
        ]);
        events.push(counter_event(&format!("hist:{}", h.name), "hist", args));
    }
    let doc = Value::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", events.into()),
    ]);
    doc.render() + "\n"
}

/// Direct children of `parent` (or the roots, when `None`) in a
/// path-sorted span aggregate.
fn children<'a>(spans: &'a [SpanAgg], parent: Option<&str>) -> Vec<&'a SpanAgg> {
    spans
        .iter()
        .filter(|s| match parent {
            None => !s.path.contains('/'),
            Some(p) => s
                .path
                .strip_prefix(p)
                .and_then(|r| r.strip_prefix('/'))
                .is_some_and(|r| !r.contains('/')),
        })
        .collect()
}

/// Emits one "X" (complete) event per span under `parent`, laid
/// sequentially from `start_ns` and squeezed into `budget_ns`, then
/// recurses into each span's own children within its allotted window.
fn layout(
    spans: &[SpanAgg],
    parent: Option<&str>,
    start_ns: f64,
    budget_ns: f64,
    events: &mut Vec<Value>,
) {
    let kids = children(spans, parent);
    if kids.is_empty() {
        return;
    }
    let natural: f64 = kids.iter().map(|s| s.total_ns as f64).sum();
    let scale = if natural > budget_ns && natural > 0.0 {
        budget_ns / natural
    } else {
        1.0
    };
    let mut cursor = start_ns;
    for s in kids {
        let dur_ns = s.total_ns as f64 * scale;
        let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
        // Timestamps are in microseconds, kept to nanosecond precision.
        let us = |ns: f64| Value::Num(ns.round() / 1e3);
        events.push(Value::obj([
            ("name", leaf.into()),
            ("cat", "span".into()),
            ("ph", "X".into()),
            ("ts", us(cursor)),
            ("dur", us(dur_ns)),
            ("pid", 1u64.into()),
            ("tid", 1u64.into()),
            (
                "args",
                Value::obj([
                    ("path", s.path.as_str().into()),
                    ("count", s.count.into()),
                    ("total_ns", s.total_ns.into()),
                    ("self_ns", s.self_ns.into()),
                ]),
            ),
        ]));
        layout(spans, Some(&s.path), cursor, dur_ns, events);
        cursor += dur_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(path: &str, count: u64, total_ns: u64, self_ns: u64) -> SpanAgg {
        SpanAgg {
            path: path.to_string(),
            count,
            total_ns,
            self_ns,
        }
    }

    #[test]
    fn nests_children_inside_their_parent_window() {
        let spans = vec![
            agg("sweep", 1, 1_000_000, 400_000),
            agg("sweep/analyze", 10, 500_000, 500_000),
            agg("sweep/check", 10, 100_000, 100_000),
        ];
        let out = chrome_trace(&spans, &[], &[]);
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        crate::json::parse(&out).expect("chrome trace is valid JSON");
        assert!(out.contains("\"name\":\"sweep\""));
        assert!(out.contains("\"name\":\"analyze\""));
        // sweep spans [0, 1000) µs; analyze spans [0, 500) µs inside it.
        assert!(out.contains("\"ts\":0,\"dur\":1000"));
        assert!(out.contains("\"ts\":0,\"dur\":500"));
        // check follows analyze sequentially.
        assert!(out.contains("\"ts\":500,\"dur\":100"));
        assert!(out.contains("\"path\":\"sweep/check\""));
    }

    #[test]
    fn overflowing_children_scale_into_the_parent() {
        // Two children of 800 µs each inside a 1 ms parent: scaled ×0.625.
        let spans = vec![
            agg("p", 1, 1_000_000, 0),
            agg("p/a", 1, 800_000, 800_000),
            agg("p/b", 1, 800_000, 800_000),
        ];
        let out = chrome_trace(&spans, &[], &[]);
        assert!(out.contains("\"ts\":0,\"dur\":500"), "{out}");
        assert!(out.contains("\"ts\":500,\"dur\":500"), "{out}");
        // The exact aggregate survives in args even when scaled.
        assert!(out.contains("\"total_ns\":800000"));
    }

    #[test]
    fn counters_and_hists_become_counter_events() {
        let h = {
            let mut h = HistSnapshot::empty("analyze.module");
            h.count = 4;
            h.sum_ns = 40;
            h.min_ns = 10;
            h.max_ns = 10;
            h.buckets = vec![(4, 4)];
            h
        };
        let out = chrome_trace(&[], &[("alias.unifications".to_string(), 7)], &[h]);
        assert!(out.contains("\"name\":\"alias.unifications\""));
        assert!(out.contains("\"args\":{\"value\":7}"));
        assert!(out.contains("\"name\":\"hist:analyze.module\""));
        assert!(out.contains("\"p50_ns\":10"), "clamped to max: {out}");
        assert!(out.contains("\"count\":4"));
        assert!(out.ends_with("]}\n"));
    }
}
