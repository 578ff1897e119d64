//! The localias benchmark: four seeded workloads timed from outside the
//! program, and a traced pass that splits each workload's time by layer.
//! `BENCHMARK.json` at the repository root lists the workloads and the
//! metrics; `benchmark/README.md` says why each was chosen.
//!
//! ```text
//! localias-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last line of standard output is its JSON result
//! localias-benchmark [SEED]
//!     every workload untraced and traced, each in its own process;
//!     writes benchmark/out/results.json, exits 1 if an output was wrong
//! localias-benchmark agree A.json B.json | A1.json ... -- B1.json ...
//!     exits 1 unless two results files, or the medians of two sets of
//!     them, agree within BENCHMARK.json's bounds
//! ```

mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use localias_bench::json::{self, Value};
use spec::{Metric, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str =
    "usage: localias-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     localias-benchmark [SEED]\n       \
                     localias-benchmark agree A.json B.json | A1.json ... -- B1.json ...";

/// Spans of this many traced units go into the trace file.
const TRACE_FILE_UNITS: u32 = 3;

/// The benchmark's own directory; everything it writes goes under `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("agree") => agree(&args[1..]),
        Some(a) if a.starts_with("--") => single(&args),
        _ => suite(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("localias-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn num(x: f64) -> Value {
    Value::Num(if x.is_finite() { x } else { 0.0 })
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn parse_config(args: &[String], spec: &Spec) -> Result<run::Config, String> {
    let mut cfg = run::Config {
        workload: String::new(),
        seed: localias_corpus::DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !spec.workloads.contains(&cfg.workload) {
        return Err(format!(
            "--workload must be one of {}",
            spec.workloads.join(", ")
        ));
    }
    Ok(cfg)
}

/// The result object a run prints last: every metric of the run's kind,
/// by name with its unit. A metric the workload does not exercise reads 0.
fn result_json(o: &run::Outcome, table: &[Metric]) -> Value {
    let metrics = table
        .iter()
        .map(|m| {
            let value = o.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
            let entry = obj(vec![
                ("value", num(value)),
                ("unit", Value::Str(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(o.failed == 0)),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// Writes the spans of the first traced units, with their self times.
fn write_trace(cfg: &run::Config, o: &run::Outcome) -> Result<PathBuf, String> {
    // Units run one after another, so their spans form a prefix.
    let spans: Vec<trace::Span> = o
        .rec
        .spans()
        .iter()
        .take_while(|s| s.unit < TRACE_FILE_UNITS)
        .cloned()
        .collect();
    let self_ns = trace::self_ns(&spans);
    let rows = spans
        .iter()
        .zip(self_ns)
        .map(|(s, own)| {
            obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("unit", num(f64::from(s.unit))),
                ("start_us", num(s.start_ns as f64 * 1e-3)),
                ("end_us", num(s.end_ns as f64 * 1e-3)),
                ("self_us", num(own as f64 * 1e-3)),
                ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("workload", Value::Str(cfg.workload.clone())),
        ("seed", num(cfg.seed as f64)),
        ("units", num(f64::from(TRACE_FILE_UNITS))),
        ("spans", Value::Arr(rows)),
    ]);
    let dir = out_dir().join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", cfg.workload));
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `--workload ...`: one run in this process.
fn single(args: &[String]) -> Result<i32, String> {
    let spec = spec::load()?;
    let cfg = parse_config(args, &spec)?;
    warn_if_loaded();
    let work = out_dir().join(format!("work-{}", std::process::id()));
    let outcome = run::run(&cfg, workloads::Sizes::FULL, &work);
    let _ = std::fs::remove_dir_all(&work);
    let o = outcome?;
    let table = if cfg.trace {
        let path = write_trace(&cfg, &o)?;
        println!(
            "{}: spans of {TRACE_FILE_UNITS} traced units in {}",
            cfg.workload,
            path.display()
        );
        &spec.per_layer
    } else {
        // The tail is shown, not gated: on a shared host it mostly measures
        // bursts of interference from other tenants.
        let tail = o.tail.map_or(String::new(), |(p, ms)| {
            format!("; p{p} (ten units beyond it) {ms:.3} ms")
        });
        println!("{}: {} units{tail}", cfg.workload, o.units);
        &spec.end_to_end
    };
    let result = result_json(&o, table);
    for m in table {
        let v = o.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
        println!("{:<12} {:<30} {v:>14.6} {}", cfg.workload, m.name, m.unit);
    }
    println!("{}", result.render());
    Ok(0)
}

/// `/proc/loadavg`'s three load averages.
fn loadavg() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .filter_map(|x| x.parse().ok())
        .collect()
}

fn warn_if_loaded() {
    let nproc = localias_bench::default_jobs();
    if let Some(&load) = loadavg().first() {
        if load > nproc as f64 {
            eprintln!("localias-benchmark: warning: load {load} exceeds {nproc} cores");
        }
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `[SEED]`: every workload, untraced then traced, each run in a
/// child process so that each has its own peak memory.
fn suite(args: &[String]) -> Result<i32, String> {
    let spec = spec::load()?;
    let seed: u64 = match args {
        [] => localias_corpus::DEFAULT_SEED,
        [s] => s.parse().map_err(|_| format!("bad seed `{s}`\n{USAGE}"))?,
        _ => return Err(USAGE.to_string()),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let load_start = loadavg();
    warn_if_loaded();
    let mut wrong = false;
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let mut runs = Vec::new();
        for (key, trace) in [("untraced", "0"), ("traced", "1")] {
            let seconds = spec.run_seconds.to_string();
            let seed = seed.to_string();
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            let result =
                json::parse(last).map_err(|e| format!("{w} --trace {trace}: no result ({e})"))?;
            if !out.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
                eprintln!("localias-benchmark: {w} --trace {trace}: an output check failed");
                wrong = true;
            }
            runs.push((key, result));
        }
        rows.push((w.clone(), obj(runs)));
    }
    let host = obj(vec![
        ("nproc", num(localias_bench::default_jobs() as f64)),
        (
            "loadavg_start",
            Value::Arr(load_start.into_iter().map(num).collect()),
        ),
        (
            "loadavg_end",
            Value::Arr(loadavg().into_iter().map(num).collect()),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    let doc = obj(vec![
        ("seed", num(seed as f64)),
        ("seconds", num(spec.run_seconds)),
        ("host", host),
        ("workloads", Value::Obj(rows)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(i32::from(wrong))
}

/// `agree A.json B.json`, or `agree A1.json ... -- B1.json ...` for two
/// sets of results: for every workload, the median of every end-to-end
/// metric over set B lies within the metric's bound of its median over
/// set A, in either direction, and every run's output checks passed.
fn agree(args: &[String]) -> Result<i32, String> {
    let (a, b) = match args.iter().position(|x| x == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => return Err(USAGE.to_string()),
    };
    if a.is_empty() || b.is_empty() {
        return Err(USAGE.to_string());
    }
    let spec = spec::load()?;
    let read = |paths: &[String]| -> Result<Vec<Value>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (a, b) = (read(a)?, read(b)?);
    let mut agreed = true;
    for w in &spec.workloads {
        let untraced = |docs: &[Value]| -> Option<Vec<Value>> {
            docs.iter()
                .map(|d| {
                    d.get("workloads")
                        .and_then(|ws| ws.get(w))
                        .and_then(|r| r.get("untraced"))
                        .cloned()
                })
                .collect()
        };
        let (Some(ra), Some(rb)) = (untraced(&a), untraced(&b)) else {
            println!("{w:<12} missing from a results file");
            agreed = false;
            continue;
        };
        let clean = |r: &Value| {
            r.get("correct") == Some(&Value::Bool(true))
                && r.get("failed") == Some(&Value::Num(0.0))
        };
        if !ra.iter().chain(&rb).all(clean) {
            println!("{w:<12} an output check failed");
            agreed = false;
        }
        for m in &spec.end_to_end {
            let median = |runs: &[Value]| -> Option<f64> {
                let values: Option<Vec<f64>> = runs
                    .iter()
                    .map(|r| {
                        r.get("metrics")
                            .and_then(|ms| ms.get(&m.name))
                            .and_then(|v| v.get("value"))
                            .and_then(Value::as_f64)
                    })
                    .collect();
                values.map(|v| stats::pct_of(&v, 50.0))
            };
            let (Some(va), Some(vb)) = (median(&ra), median(&rb)) else {
                println!("{w:<12} {:<16} missing", m.name);
                agreed = false;
                continue;
            };
            // Positive when B is worse than A.
            let worse = if m.lower_is_better { vb - va } else { va - vb };
            let shift = if va > 0.0 { worse / va } else { f64::INFINITY };
            let bound = m.bound.unwrap_or(0.0);
            let ok = shift.abs() <= bound;
            agreed &= ok;
            println!(
                "{w:<12} {:<16} {va:>12.4} {vb:>12.4} {:>+7.1}% worse (bound {:.0}%){}",
                m.name,
                shift * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    println!("{}", if agreed { "agree" } else { "disagree" });
    Ok(i32::from(!agreed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every metric `BENCHMARK.json` names is measured by a tiny run of
    /// some workload, no workload emits a metric the file does not name,
    /// and the untraced metrics come from every workload.
    #[test]
    fn tiny_runs_emit_every_named_metric() {
        let spec = spec::load().unwrap();
        let dir = out_dir().join(format!("test-{}", std::process::id()));
        let mut layer_names = BTreeSet::new();
        for w in &spec.workloads {
            for trace in [false, true] {
                let cfg = run::Config {
                    workload: w.clone(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                };
                let o = run::run(&cfg, workloads::Sizes::TINY, &dir).unwrap();
                assert_eq!(o.failed, 0, "{w} trace={trace}");
                let table = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let named: BTreeSet<&str> = table.iter().map(|m| m.name.as_str()).collect();
                for (&name, &v) in &o.metrics {
                    assert!(named.contains(name), "{w} emits unlisted metric {name}");
                    assert!(v.is_finite(), "{w}: {name} = {v}");
                }
                if trace {
                    layer_names.extend(o.metrics.keys().copied());
                } else {
                    let emitted: BTreeSet<&str> = o.metrics.keys().copied().collect();
                    assert_eq!(emitted, named, "{w}");
                    assert!(o.metrics.values().all(|&v| v > 0.0), "{w}: {:?}", o.metrics);
                }
                let result = json::parse(&result_json(&o, table).render()).unwrap();
                for m in table {
                    let entry = result.get("metrics").and_then(|ms| ms.get(&m.name));
                    let unit = entry.and_then(|e| e.get("unit")).and_then(Value::as_str);
                    assert_eq!(unit, Some(m.unit.as_str()), "{w}: {}", m.name);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let missing: Vec<&str> = spec
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !layer_names.contains(n))
            .collect();
        assert!(missing.is_empty(), "no workload measures {missing:?}");
    }
}
