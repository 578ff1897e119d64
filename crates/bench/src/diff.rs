//! `bench-diff` — the perf-regression gate over two bench artifacts.
//!
//! Compares an old and a new bench JSON document of the same family
//! (`localias-bench-experiment`, `-scale`, `-fuzz`, or `-diff`) metric
//! by metric. The metrics are the ones each
//! artifact lists in its `gate` block — every number its writer
//! recorded with a direction ([`crate::artifact`]) — plus the
//! percentiles of every sampled histogram in its `hist` block (lower is
//! better). A relative change past the threshold in the *worse*
//! direction is a regression.
//!
//! Comparison is intersection-based: the union of both documents'
//! `gate` paths is compared wherever both documents hold a number there
//! (so a document written before `gate` existed still compares on the
//! paths it shares with a newer one), and a path present in only one
//! document is listed as skipped. Two documents that both predate `gate`
//! compare only on their histograms, and a diff that finds nothing to
//! compare is an error rather than a clean result. The two schemas must
//! belong to the same family — diffing a fuzz report against an
//! experiment sweep is a usage error, not a clean result. A metric whose
//! old value is zero
//! and whose new value is worse counts as a 100% regression (rates that
//! were clean must stay clean); zero-to-zero is unchanged.
//!
//! The report renders as a human table ([`DiffReport::render_table`])
//! and as an artifact of its own (schema `localias-bench-diff/v2`,
//! [`DiffReport::to_json`]).

use crate::artifact::{gated_paths, Artifact, Better};
use crate::json::{self, Value};
use std::fmt::Write as _;

/// The default regression threshold, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// One metric compared across the two artifacts.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// The metric's path joined with dots (`modules_per_second`,
    /// `hist.analyze.module.p95_ns`, …).
    pub name: String,
    /// Value in the old artifact.
    pub old: f64,
    /// Value in the new artifact.
    pub new: f64,
    /// Which direction is better.
    pub better: Better,
}

impl MetricDiff {
    /// Relative change in the *worse* direction, in percent: positive
    /// means the new artifact regressed, negative that it improved.
    /// An old value of zero compares exactly: unchanged if new is also
    /// zero, ±100% otherwise.
    pub fn delta_pct(&self) -> f64 {
        let worse = match self.better {
            Better::Lower => self.new - self.old,
            Better::Higher => self.old - self.new,
        };
        if self.old == 0.0 {
            if worse == 0.0 {
                0.0
            } else {
                100.0_f64.copysign(worse)
            }
        } else {
            100.0 * worse / self.old.abs()
        }
    }

    /// Whether this metric regressed past `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.delta_pct() > threshold_pct
    }
}

/// The outcome of one bench-diff comparison.
#[derive(Debug)]
pub struct DiffReport {
    /// The shared schema family (e.g. `localias-bench-experiment`).
    pub family: String,
    /// The two artifacts' full schema strings.
    pub schemas: (String, String),
    /// Regression threshold in percent.
    pub threshold_pct: f64,
    /// Every compared metric, in extraction order.
    pub metrics: Vec<MetricDiff>,
    /// Metrics present in only one document, as `old:<name>` or
    /// `new:<name>` (skipped).
    pub skipped: Vec<String>,
}

impl DiffReport {
    /// The metrics that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.regressed(self.threshold_pct))
            .collect()
    }

    /// Human-readable comparison table with a verdict line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench-diff: {} ({} vs {}), threshold {}%",
            self.family, self.schemas.0, self.schemas.1, self.threshold_pct
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>9}  verdict",
            "metric", "old", "new", "delta"
        );
        for m in &self.metrics {
            let delta = m.delta_pct();
            let verdict = if m.regressed(self.threshold_pct) {
                "REGRESSED"
            } else if delta < -self.threshold_pct {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<34} {:>14} {:>14} {:>+8.1}%  {}",
                m.name,
                fmt_value(m.old),
                fmt_value(m.new),
                delta,
                verdict
            );
        }
        for name in &self.skipped {
            let _ = writeln!(out, "{name:<34} (present in only one artifact — skipped)");
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            let _ = writeln!(
                out,
                "no regressions past {}% across {} metrics",
                self.threshold_pct,
                self.metrics.len()
            );
        } else {
            let _ = writeln!(
                out,
                "{} metric(s) regressed past {}%",
                regressions.len(),
                self.threshold_pct
            );
        }
        out
    }

    /// The report as a bench artifact (schema `localias-bench-diff/v2`):
    /// the shared envelope (with a `null` seed) around the compared
    /// metrics and the skipped names. The regression count is gated, so
    /// two diff reports compare like any other artifacts.
    pub fn to_json(&self) -> String {
        let mut a = Artifact::new("localias-bench-diff/v2", Value::Null);
        a.set(&["family"], self.family.as_str());
        a.set(&["old_schema"], self.schemas.0.as_str());
        a.set(&["new_schema"], self.schemas.1.as_str());
        a.set(&["threshold_pct"], self.threshold_pct);
        let regressions = self.regressions().len() as f64;
        a.metric(&["regressions"], regressions, Better::Lower);
        let metrics = self.metrics.iter().map(|m| {
            Value::obj([
                ("name", m.name.as_str().into()),
                ("old", m.old.into()),
                ("new", m.new.into()),
                ("delta_pct", m.delta_pct().into()),
                ("regressed", m.regressed(self.threshold_pct).into()),
            ])
        });
        a.set(&["metrics"], Value::Arr(metrics.collect()));
        let skipped = self.skipped.iter().map(|s| s.as_str().into());
        a.set(&["skipped"], Value::Arr(skipped.collect()));
        a.finish(Value::Null, Value::Null)
    }
}

/// Renders a metric value compactly: integers plainly, small floats
/// with enough precision to see the change.
fn fmt_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}

/// Every comparable metric of a document: its gated paths, then the
/// percentiles of each histogram.
fn metric_paths(doc: &Value) -> Vec<(Vec<String>, Better)> {
    let mut out = gated_paths(doc);
    if let Some(Value::Obj(hists)) = doc.get("hist") {
        for (name, _) in hists {
            for pct in ["p50_ns", "p90_ns", "p95_ns", "p99_ns", "max_ns"] {
                let path = ["hist", name, pct].map(str::to_string).to_vec();
                out.push((path, Better::Lower));
            }
        }
    }
    out
}

/// The number at `path`, unless it belongs to a histogram that saw no
/// samples (zero-sample histograms are shape padding, not measurements).
fn value(doc: &Value, path: &[String]) -> Option<f64> {
    if let [first, name, ..] = path {
        if first == "hist" && doc.at(&[first, name])?.get("count")?.as_u64()? == 0 {
            return None;
        }
    }
    doc.at(path)?.as_f64()
}

/// Extracts the schema string and its family prefix (the part before
/// the `/vN` version suffix).
fn schema_of(doc: &Value, label: &str) -> Result<(String, String), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{label}: missing or non-string \"schema\" field"))?
        .to_string();
    let family = schema
        .split_once('/')
        .map(|(f, _)| f.to_string())
        .unwrap_or_else(|| schema.clone());
    Ok((schema, family))
}

/// Compares two bench artifacts of the same schema family.
///
/// `threshold_pct` bounds how much any metric may move in its worse
/// direction; pass [`DEFAULT_THRESHOLD_PCT`] for the standard gate.
pub fn diff_benches(
    old_text: &str,
    new_text: &str,
    threshold_pct: f64,
) -> Result<DiffReport, String> {
    if threshold_pct.is_nan() || threshold_pct < 0.0 {
        return Err(format!(
            "threshold must be a non-negative percent, got {threshold_pct}"
        ));
    }
    let old_doc = json::parse(old_text).map_err(|e| format!("old artifact: {e}"))?;
    let new_doc = json::parse(new_text).map_err(|e| format!("new artifact: {e}"))?;
    let (old_schema, old_family) = schema_of(&old_doc, "old artifact")?;
    let (new_schema, new_family) = schema_of(&new_doc, "new artifact")?;
    if old_family != new_family {
        return Err(format!(
            "schema family mismatch: old is {old_schema:?}, new is {new_schema:?} — \
             bench-diff compares artifacts from the same harness"
        ));
    }
    // The union of both documents' metrics, old document's order first.
    let mut paths = metric_paths(&old_doc);
    for entry in metric_paths(&new_doc) {
        if !paths.iter().any(|(p, _)| *p == entry.0) {
            paths.push(entry);
        }
    }
    let mut metrics = Vec::new();
    let mut skipped = Vec::new();
    for (path, better) in paths {
        let name = path.join(".");
        let (old, new) = (value(&old_doc, &path), value(&new_doc, &path));
        match (old, new) {
            (Some(old), Some(new)) => metrics.push(MetricDiff {
                name,
                old,
                new,
                better,
            }),
            (Some(_), None) => skipped.push(format!("old:{name}")),
            (None, Some(_)) => skipped.push(format!("new:{name}")),
            (None, None) => {}
        }
    }
    if metrics.is_empty() {
        return Err(format!(
            "no metric to compare: {old_schema:?} and {new_schema:?} share no gated \
             path or sampled histogram"
        ));
    }
    Ok(DiffReport {
        family: old_family,
        schemas: (old_schema, new_schema),
        threshold_pct,
        metrics,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer-rendered experiment artifact, parsed so a test can edit
    /// single metrics.
    fn experiment() -> Value {
        json::parse(&crate::tests::sample_bench().to_json()).unwrap()
    }

    /// `doc` with the numbers at `edits` replaced, rendered.
    fn edited(doc: &Value, edits: &[(&[&str], f64)]) -> String {
        let mut doc = doc.clone();
        for (path, v) in edits {
            doc.insert(path, Value::Num(*v));
        }
        doc.pretty()
    }

    const MPS: &[&str] = &["modules_per_second"];
    const CHECK: &[&str] = &["phase_cpu_seconds", "check"];
    const P95: &[&str] = &["hist", "analyze.module", "p95_ns"];

    #[test]
    fn self_compare_is_clean() {
        let doc = experiment().pretty();
        let report = diff_benches(&doc, &doc, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.render_table());
        assert!(report.skipped.is_empty(), "{}", report.render_table());
        // Every delta is exactly zero on a self-compare.
        for m in &report.metrics {
            assert_eq!(m.delta_pct(), 0.0, "{}", m.name);
        }
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"cache.hit_rate"), "{names:?}");
        assert!(names.contains(&"hist.analyze.module.p95_ns"), "{names:?}");
        // Zero-sample histograms are not compared.
        assert!(
            names.iter().all(|n| !n.contains("fuzz.execute")),
            "{names:?}"
        );
    }

    #[test]
    fn throughput_drop_past_threshold_regresses() {
        let doc = experiment();
        let (old, new) = (
            edited(&doc, &[(MPS, 1000.0)]),
            edited(&doc, &[(MPS, 800.0)]),
        );
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "{}", report.render_table());
        assert_eq!(regs[0].name, "modules_per_second");
        assert!((regs[0].delta_pct() - 20.0).abs() < 1e-9);

        // The same drop under a looser threshold passes.
        let relaxed = diff_benches(&old, &new, 25.0).unwrap();
        assert!(relaxed.regressions().is_empty());
    }

    #[test]
    fn latency_and_percentile_growth_regress() {
        let doc = experiment();
        let old = edited(&doc, &[(CHECK, 0.75), (P95, 300.0)]);
        let new = edited(&doc, &[(CHECK, 1.5), (P95, 600.0)]);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["phase_cpu_seconds.check", "hist.analyze.module.p95_ns"]
        );
    }

    #[test]
    fn improvements_are_not_regressions() {
        let doc = experiment();
        let old = edited(&doc, &[(MPS, 1000.0), (CHECK, 1.5), (P95, 600.0)]);
        let new = edited(&doc, &[(MPS, 2000.0), (CHECK, 0.5), (P95, 200.0)]);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.render_table());
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let exp = experiment().pretty();
        let fuzz = r#"{"schema": "localias-bench-fuzz/v3", "gate": []}"#;
        let err = diff_benches(&exp, fuzz, 10.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    /// A document written before the envelope existed (the committed
    /// `BENCH_experiment_v6.json`) has no `gate`: the new document's gate
    /// decides what is compared, on the paths both documents hold.
    #[test]
    fn pre_gate_artifacts_compare_on_shared_paths() {
        let v6 = r#"{
  "schema": "localias-bench-experiment/v6",
  "modules_per_second": 1000.0,
  "wall_seconds": 1.0,
  "phase_cpu_seconds": {"parse": 0.5, "check": 0.75, "confine": 0.25},
  "cache": {"hits": 580, "misses": 9, "load_seconds": 0.01, "store_seconds": 0.02},
  "hist": {
    "analyze.module": {"count": 589, "sum_ns": 100, "min_ns": 1, "max_ns": 9000,
      "p50_ns": 100, "p90_ns": 200, "p95_ns": 300, "p99_ns": 400, "buckets": [[7,589]]}
  }
}"#;
        let new = edited(&experiment(), &[(MPS, 500.0)]);
        for (old, new, worse) in [(v6, new.as_str(), true), (new.as_str(), v6, false)] {
            let report = diff_benches(old, new, 10.0).unwrap();
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            for shared in ["modules_per_second", "wall_seconds", "cache.store_seconds"] {
                assert!(
                    names.contains(&shared),
                    "{shared}: {}",
                    report.render_table()
                );
            }
            assert!(names.contains(&"hist.analyze.module.p95_ns"), "{names:?}");
            // The hit rate, added in v7, is skipped, not compared.
            let side = if worse { "new" } else { "old" };
            assert_eq!(report.skipped, [format!("{side}:cache.hit_rate")]);
            let regressed = report
                .regressions()
                .iter()
                .any(|m| m.name == "modules_per_second");
            assert_eq!(regressed, worse, "{}", report.render_table());
        }
    }

    /// Two pre-`gate` documents share only their sampled histograms; with
    /// none, the diff compared nothing and must not read as clean.
    #[test]
    fn a_diff_with_nothing_to_compare_is_an_error() {
        let hist = r#""hist": {"analyze.module": {"count": 2, "p50_ns": 31, "p90_ns": 32,
            "p95_ns": 32, "p99_ns": 32, "max_ns": 32}}"#;
        let v6 = |extra: &str| {
            format!(r#"{{"schema": "localias-bench-experiment/v6", "wall_seconds": 1.0{extra}}}"#)
        };
        let report = diff_benches(&v6(""), &v6(&format!(", {hist}")), 10.0);
        let err = report.unwrap_err();
        assert!(err.contains("no metric to compare"), "{err}");
        let both = v6(&format!(", {hist}"));
        let report = diff_benches(&both, &both, 10.0).unwrap();
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), 5, "{names:?}");
        assert!(names.iter().all(|n| n.starts_with("hist.")), "{names:?}");
    }

    #[test]
    fn unsampled_histograms_are_skipped_not_compared() {
        let doc = experiment();
        let unsampled = edited(&doc, &[(&["hist", "analyze.module", "count"], 0.0)]);
        let report = diff_benches(&doc.pretty(), &unsampled, 10.0).unwrap();
        assert!(report.metrics.iter().all(|m| !m.name.starts_with("hist.")));
        assert_eq!(report.skipped.len(), 5, "{}", report.render_table());
        assert_eq!(report.skipped[0], "old:hist.analyze.module.p50_ns");
    }

    #[test]
    fn zero_baselines_must_stay_zero() {
        let doc = experiment();
        let store = &["cache", "store_seconds"][..];
        let zero = edited(&doc, &[(store, 0.0)]);
        let clean = diff_benches(&zero, &zero, 10.0).unwrap();
        assert!(clean.regressions().is_empty());
        let dirty = diff_benches(&zero, &edited(&doc, &[(store, 0.25)]), 10.0).unwrap();
        let regs = dirty.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "cache.store_seconds");
        assert_eq!(regs[0].delta_pct(), 100.0);
    }

    #[test]
    fn report_is_an_artifact_of_its_own() {
        let doc = experiment();
        let old = edited(&doc, &[(MPS, 1000.0)]);
        let report = diff_benches(&old, &edited(&doc, &[(MPS, 800.0)]), 10.0).unwrap();
        let text = report.to_json();
        let out = json::parse(&text).unwrap();
        assert_eq!(
            out.get("schema").and_then(Value::as_str),
            Some("localias-bench-diff/v2")
        );
        assert_eq!(out.get("regressions").and_then(Value::as_u64), Some(1));
        let metrics = out.get("metrics").unwrap().as_arr().unwrap();
        let mps = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("modules_per_second"))
            .unwrap();
        assert_eq!(mps.get("regressed"), Some(&Value::Bool(true)));
        crate::testkit::assert_writer_contract(&text, &["regressions"]);
    }

    #[test]
    fn table_renders_verdicts() {
        let doc = experiment();
        let old = edited(&doc, &[(MPS, 1000.0)]);
        let report = diff_benches(&old, &edited(&doc, &[(MPS, 800.0)]), 10.0).unwrap();
        let table = report.render_table();
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("modules_per_second"), "{table}");
        assert!(table.contains("1 metric(s) regressed past 10%"), "{table}");
    }
}
