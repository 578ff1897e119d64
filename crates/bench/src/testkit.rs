//! Test support shared by the library's and the bench binaries' unit
//! tests (each includes this file as a `#[cfg(test)]` module).

use localias_bench::artifact::{gated_paths, Better};
use localias_bench::json::{self, Value};
use localias_bench::{diff_benches, DEFAULT_THRESHOLD_PCT};

/// The contract every family's writer keeps: every `gate` path resolves
/// to a number in the document, a self-diff compares every gated path
/// and skips none, and doubling the lower-is-better metric at `lower`
/// (non-zero in the fixture) regresses exactly that metric.
pub fn assert_writer_contract(text: &str, lower: &[&str]) {
    let doc = json::parse(text).expect("artifact parses");
    let gated = gated_paths(&doc);
    assert!(!gated.is_empty(), "no gated metrics:\n{text}");
    for (path, _) in &gated {
        let v = doc.at(path).and_then(Value::as_f64);
        assert!(v.is_some(), "gate path {path:?} is not a number:\n{text}");
    }

    let report = diff_benches(text, text, DEFAULT_THRESHOLD_PCT).expect("self-diff");
    assert!(report.skipped.is_empty(), "{}", report.render_table());
    assert!(report.regressions().is_empty(), "{}", report.render_table());
    for (path, _) in &gated {
        let name = path.join(".");
        assert!(
            report.metrics.iter().any(|m| m.name == name),
            "self-diff did not compare {name}:\n{}",
            report.render_table()
        );
    }

    let lower_path: Vec<String> = lower.iter().map(|k| k.to_string()).collect();
    assert!(
        gated.contains(&(lower_path, Better::Lower)),
        "{lower:?} is not gated lower-is-better"
    );
    let old = doc.at(lower).and_then(Value::as_f64).unwrap();
    assert!(old > 0.0, "fixture value at {lower:?} must be non-zero");
    let mut worse = doc.clone();
    worse.insert(lower, Value::Num(old * 2.0));
    let report = diff_benches(text, &worse.pretty(), DEFAULT_THRESHOLD_PCT).expect("diff");
    let regressed: Vec<&str> = report
        .regressions()
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(regressed, [lower.join(".")], "{}", report.render_table());
}
