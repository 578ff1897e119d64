//! `BENCHMARK.json`: the workloads, the end-to-end metrics with their
//! regression bounds, and the per-layer metrics. The file is embedded at
//! build time, so the binary and its tests read exactly the table that
//! is in the repository.

use localias_bench::json::{self, Value};

/// The repository's `BENCHMARK.json`.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric row.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit the value is reported in.
    pub unit: String,
    /// Whether a smaller value is the better one.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark table.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Metric>,
}

/// Whether `s` is a valid workload or metric name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let rows = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("`{key}` must be an array"))?;
    rows.iter()
        .map(|row| {
            let field = |f: &str| {
                row.get(f)
                    .and_then(Value::as_str)
                    .ok_or(format!("{key}: every row needs a string `{f}`"))
            };
            let name = field("name")?;
            if !valid_name(name) {
                return Err(format!("{key}: bad metric name `{name}`"));
            }
            let lower_is_better = match field("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("{name}: `better` is `{other}`")),
            };
            Ok(Metric {
                name: name.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better,
                bound: row.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parses `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("`workloads` must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .filter(|n| valid_name(n))
                .map(str::to_string)
                .ok_or("every workload needs a valid `name`".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spec = Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("`run_seconds` must be a number")?,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    };
    if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(spec)
}

/// The embedded `BENCHMARK.json`, parsed.
pub fn load() -> Result<Spec, String> {
    parse(SPEC_JSON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "ast.parse_us_p50", "fuzz.fp_rate-x", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/y",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn the_embedded_table_parses_with_unique_names() {
        let spec = load().expect("BENCHMARK.json parses");
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.lower_is_better));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound);
        assert_eq!(
            widest.fold(0.0, f64::max),
            setup.and_then(|m| m.bound).unwrap_or(0.0),
            "setup_s carries the widest bound"
        );
    }
}
