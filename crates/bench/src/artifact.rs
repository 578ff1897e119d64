//! The one writer every bench artifact goes through.
//!
//! Each family (experiment, alias, scale, fuzz, and the
//! bench-diff report itself) builds an [`Artifact`]: the shared envelope
//! — `schema`, `seed`, `host: {nproc}` first; `hist`, `profile` and
//! `gate` last — around the family's own fields. A number written with
//! [`Artifact::metric`] is recorded in `gate` together with the
//! direction that counts as better, which is all `bench-diff` needs to
//! compare it: adding a gated metric to a bench edits only the line
//! that writes it.

use crate::default_jobs;
use localias_obs::json::Value;
use localias_obs::{self as obs, HistSnapshot, Trace};

/// Which way a gated metric may move without being a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies, memory, error rates: growing is a regression.
    Lower,
    /// Throughput, speedups, hit rates: shrinking is a regression.
    Higher,
}

impl Better {
    /// The direction's name in a `gate` entry.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Reads a `gate` entry's direction name.
    pub fn from_name(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A bench artifact under construction.
pub struct Artifact {
    doc: Value,
    gate: Vec<Value>,
}

impl Artifact {
    /// Starts an artifact with the envelope's leading fields.
    pub fn new(schema: &str, seed: impl Into<Value>) -> Artifact {
        let mut a = Artifact {
            doc: Value::Obj(Vec::new()),
            gate: Vec::new(),
        };
        a.set(&["schema"], schema);
        a.set(&["seed"], seed);
        a.set(&["host", "nproc"], default_jobs());
        a
    }

    /// Writes an ungated field at a path of object keys.
    pub fn set(&mut self, path: &[&str], v: impl Into<Value>) {
        self.doc.insert(path, v.into());
    }

    /// Writes a gated number and records its direction in `gate`.
    pub fn metric(&mut self, path: &[&str], value: f64, better: Better) {
        self.set(path, value);
        let path: Vec<Value> = path.iter().map(|&k| k.into()).collect();
        self.gate.push(Value::obj([
            ("path", path.into()),
            ("better", better.name().into()),
        ]));
    }

    /// Closes the envelope with the `hist`, `profile` and `gate` blocks
    /// and renders the document.
    pub fn finish(mut self, hist: Value, profile: Value) -> String {
        self.set(&["hist"], hist);
        self.set(&["profile"], profile);
        let gate = std::mem::take(&mut self.gate);
        self.set(&["gate"], gate);
        self.doc.pretty()
    }
}

/// The `gate` entries of a document, in order; a document written
/// before the envelope existed has none.
pub fn gated_paths(doc: &Value) -> Vec<(Vec<String>, Better)> {
    let entries = doc.get("gate").and_then(Value::as_arr).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|e| {
            let path = e.get("path")?.as_arr()?;
            let path = path.iter().map(|k| Some(k.as_str()?.to_string()));
            let better = Better::from_name(e.get("better")?.as_str()?)?;
            Some((path.collect::<Option<Vec<_>>>()?, better))
        })
        .collect()
}

/// The `hist` block every artifact embeds: one entry per *registered*
/// histogram (zero-sample histograms included, so the block's shape is
/// identical across cold and warm runs), keyed by dotted name, carrying
/// the exact aggregate plus the p50/p90/p95/p99 percentiles and the
/// sparse `[bucket_index, count]` pairs.
pub fn json_hists(hists: &[HistSnapshot]) -> Value {
    let entries = obs::ALL_HISTS.iter().map(|&h| {
        let name = obs::hist_name(h);
        let empty = HistSnapshot::empty(name);
        let h = hists.iter().find(|h| h.name == name).unwrap_or(&empty);
        let buckets = h
            .buckets
            .iter()
            .map(|&(i, c)| vec![i.into(), c.into()].into());
        let block = Value::obj([
            ("count", h.count.into()),
            ("sum_ns", h.sum_ns.into()),
            ("min_ns", h.min_ns.into()),
            ("max_ns", h.max_ns.into()),
            ("p50_ns", h.percentile(50).into()),
            ("p90_ns", h.percentile(90).into()),
            ("p95_ns", h.percentile(95).into()),
            ("p99_ns", h.percentile(99).into()),
            ("buckets", Value::Arr(buckets.collect())),
        ]);
        (name, block)
    });
    Value::obj(entries)
}

/// The `profile` block: a `spans` array (path, count, total/self
/// nanoseconds) plus a `counters` object keyed by the registry's dotted
/// names, non-zero entries only; `null` when the run collected no trace.
pub fn json_trace(trace: Option<&Trace>) -> Value {
    let Some(t) = trace else {
        return Value::Null;
    };
    let spans = t.spans.iter().map(|s| {
        Value::obj([
            ("path", s.path.as_str().into()),
            ("count", s.count.into()),
            ("total_ns", s.total_ns.into()),
            ("self_ns", s.self_ns.into()),
        ])
    });
    let counters = t.counters.iter_nonzero().map(|(n, v)| (n, v.into()));
    Value::obj([
        ("spans", Value::Arr(spans.collect())),
        ("counters", Value::obj(counters)),
    ])
}
