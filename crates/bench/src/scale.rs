//! Throughput and memory vs. corpus size (`localias scale`).
//!
//! Sweeps a list of corpus sizes. Every point runs in a fresh
//! `localias experiment` child process over a cold cache, so peak RSS is
//! measured per sweep rather than accumulating across points.
//!
//! The report (schema `localias-bench-scale/v4`; v2 added the `hist`
//! block, v3 the shared artifact envelope, v4 dropped the partition
//! count and keys `points` by size) embeds the obs profile and
//! latency-histogram blocks from the largest run, so the per-phase span
//! tree, the `mem.*` gauges, and the per-module latency distribution for
//! the heaviest sweep travel with the curve.

use crate::json::{self, Value};
use crate::Artifact;
use crate::Better::{Higher, Lower};
use std::fmt;
use std::path::Path;
use std::process::{Command, Stdio};

/// The sizes to sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Corpus seed.
    pub seed: u64,
    /// Corpus sizes, in modules.
    pub sizes: Vec<usize>,
    /// `--jobs` of each child sweep (`0` = all cores).
    pub jobs: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: localias_corpus::DEFAULT_SEED,
            sizes: vec![1_000, 5_000, 20_000, 50_000],
            jobs: 0,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Corpus size.
    modules: usize,
    /// Wall time of the sweep.
    wall_seconds: f64,
    /// `modules / wall_seconds`.
    modules_per_second: f64,
    /// Peak RSS of the sweep process.
    peak_rss_bytes: u64,
    /// Name-table text of the sweep process (`mem.arena_bytes`).
    arena_bytes: u64,
    /// Name-table deduplication saving of the sweep process.
    arena_saved_bytes: u64,
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>7} modules: {:>8.0} modules/s, peak RSS {:.1} MiB, wall {:.2}s",
            self.modules,
            self.modules_per_second,
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            self.wall_seconds,
        )
    }
}

/// Sweeps every size of `cfg` with `exe` (the `localias` binary),
/// calling `progress` as each point finishes, and returns the
/// `localias-bench-scale/v4` report.
pub fn run(
    cfg: &ScaleConfig,
    exe: &Path,
    mut progress: impl FnMut(&Point),
) -> Result<String, String> {
    let scratch = std::env::temp_dir().join(format!("localias-scale-{}", std::process::id()));
    let mut points = Vec::new();
    // The profile and hist blocks embedded in the report: the largest
    // sweep's.
    let mut headline: Option<(usize, Value, Value)> = None;
    for &size in &cfg.sizes {
        let measured = run_point(cfg, exe, &scratch, size);
        // Nothing outlives its point, so neither a failed sweep nor a
        // `progress` that ends the process leaves files behind.
        let _ = std::fs::remove_dir_all(&scratch);
        let (point, profile, hist) = measured?;
        progress(&point);
        if headline.as_ref().is_none_or(|(s, ..)| size > *s) {
            headline = Some((size, profile, hist));
        }
        points.push(point);
    }
    let (profile, hist) = headline
        .map(|(_, p, h)| (p, h))
        .unwrap_or((Value::Null, Value::Null));
    Ok(render_report(cfg, &points, profile, hist))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn counter(profile: &Value, name: &str) -> u64 {
    profile
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Runs one point; returns it plus the child's profile and hist blocks
/// (for embedding when this is the headline point).
fn run_point(
    cfg: &ScaleConfig,
    exe: &Path,
    scratch: &Path,
    size: usize,
) -> Result<(Point, Value, Value), String> {
    let dir = scratch.join(format!("point-{size}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = dir.join("bench.json");
    let status = Command::new(exe)
        .args([
            "experiment",
            &cfg.seed.to_string(),
            "--modules",
            &size.to_string(),
            "--jobs",
            &cfg.jobs.to_string(),
            "--profile",
            "--cache",
        ])
        .arg(dir.join("cache"))
        .arg("--bench-out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("the {size}-module sweep failed ({status})"));
    }
    let doc = read_json(&out)?;
    let wall = doc
        .get("wall_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{}: missing wall_seconds", out.display()))?;
    let profile = doc
        .get("profile")
        .cloned()
        .filter(|p| !p.is_null())
        .ok_or_else(|| format!("{}: missing profile block", out.display()))?;
    let hist = doc.get("hist").cloned().unwrap_or(Value::Null);
    let point = Point {
        modules: size,
        wall_seconds: wall,
        modules_per_second: size as f64 / wall.max(1e-9),
        peak_rss_bytes: counter(&profile, "mem.peak_rss_bytes"),
        arena_bytes: counter(&profile, "mem.arena_bytes"),
        arena_saved_bytes: counter(&profile, "mem.arena_saved_bytes"),
    };
    Ok((point, profile, hist))
}

/// The `localias-bench-scale/v4` artifact.
fn render_report(cfg: &ScaleConfig, points: &[Point], profile: Value, hist: Value) -> String {
    let mut a = Artifact::new("localias-bench-scale/v4", cfg.seed);
    a.set(&["jobs"], cfg.jobs);
    for p in points {
        let key = p.modules.to_string();
        let at = |field| ["points", key.as_str(), field];
        a.set(&at("modules"), p.modules);
        a.set(&at("wall_seconds"), p.wall_seconds);
        a.metric(&at("modules_per_second"), p.modules_per_second, Higher);
        a.metric(&at("peak_rss_bytes"), p.peak_rss_bytes as f64, Lower);
        a.set(&at("arena_bytes"), p.arena_bytes);
        a.set(&at("arena_saved_bytes"), p.arena_saved_bytes);
    }
    a.finish(hist, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_keeps_the_contract() {
        let cfg = ScaleConfig {
            seed: 1,
            sizes: vec![1000, 2000],
            jobs: 2,
        };
        let point = |modules| Point {
            modules,
            wall_seconds: 0.5,
            modules_per_second: 2.0 * modules as f64,
            peak_rss_bytes: 30 << 20,
            arena_bytes: 1 << 20,
            arena_saved_bytes: 1 << 19,
        };
        let text = render_report(&cfg, &[point(1000), point(2000)], Value::Null, Value::Null);
        crate::testkit::assert_writer_contract(&text, &["points", "2000", "peak_rss_bytes"]);
    }
}
