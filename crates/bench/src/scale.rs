//! Throughput and memory vs. corpus size (`localias scale`).
//!
//! Sweeps a grid of (corpus size, partition count) points. Every point
//! runs in fresh `localias experiment` child processes — one per
//! partition, concurrently, over a shared cold cache — so peak RSS is
//! measured per sweep rather than accumulating across points.
//! Multi-partition points are `bench-merge`d and the merged module count
//! cross-checked, so the sweep exercises the same split/merge pipeline
//! a real multi-process run uses.
//!
//! The report (schema `localias-bench-scale/v3`; v2 added the `hist`
//! block, v3 the shared artifact envelope and `points` keyed by
//! `<modules>x<partitions>`) embeds the obs profile and latency-histogram
//! blocks from the largest single-partition run, so the per-phase span
//! tree, the `mem.*` gauges, and the per-module latency distribution for
//! the heaviest sweep travel with the curve.

use crate::json::{self, Value};
use crate::Artifact;
use crate::Better::{Higher, Lower};
use std::fmt;
use std::path::Path;
use std::process::{Command, Stdio};

/// The grid to sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Corpus seed.
    pub seed: u64,
    /// Corpus sizes, in modules.
    pub sizes: Vec<usize>,
    /// Partition counts to run each size under.
    pub partitions: Vec<usize>,
    /// `--jobs` of each child sweep (`0` = all cores).
    pub jobs: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: localias_corpus::DEFAULT_SEED,
            sizes: vec![1_000, 5_000, 20_000, 50_000],
            partitions: vec![1, 2],
            jobs: 0,
        }
    }
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Corpus size.
    modules: usize,
    /// Partition processes the corpus was split across.
    partitions: usize,
    /// Wall time of the slowest partition.
    wall_seconds: f64,
    /// `modules / wall_seconds`.
    modules_per_second: f64,
    /// Largest peak RSS of any partition process.
    peak_rss_bytes: u64,
    /// Largest interner footprint of any partition process.
    arena_bytes: u64,
    /// Largest interner deduplication saving of any partition process.
    arena_saved_bytes: u64,
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>7} modules x {} partition{}: {:>8.0} modules/s, peak RSS {:.1} MiB, wall {:.2}s",
            self.modules,
            self.partitions,
            if self.partitions == 1 { " " } else { "s" },
            self.modules_per_second,
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            self.wall_seconds,
        )
    }
}

/// Sweeps every point of `cfg`'s grid with `exe` (the `localias`
/// binary), calling `progress` as each point finishes, and returns the
/// `localias-bench-scale/v3` report.
pub fn run(
    cfg: &ScaleConfig,
    exe: &Path,
    mut progress: impl FnMut(&Point),
) -> Result<String, String> {
    let scratch = std::env::temp_dir().join(format!("localias-scale-{}", std::process::id()));
    let mut points = Vec::new();
    // The profile and hist blocks embedded in the report: the largest
    // single-partition sweep, i.e. the heaviest single process.
    let mut headline: Option<(usize, Value, Value)> = None;
    for &size in &cfg.sizes {
        for &parts in &cfg.partitions {
            let (point, profile, hist) =
                run_point(cfg, exe, &scratch, size, parts).inspect_err(|_| {
                    let _ = std::fs::remove_dir_all(&scratch);
                })?;
            progress(&point);
            if parts == 1 && headline.as_ref().is_none_or(|(s, ..)| size > *s) {
                headline = Some((size, profile, hist));
            }
            points.push(point);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
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

/// Runs one (size, partitions) point; returns the point plus the
/// profile and hist blocks of partition 0 (for embedding when this is
/// the headline point).
fn run_point(
    cfg: &ScaleConfig,
    exe: &Path,
    scratch: &Path,
    size: usize,
    parts: usize,
) -> Result<(Point, Value, Value), String> {
    let dir = scratch.join(format!("point-{size}-{parts}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache = dir.join("cache");

    let mut children = Vec::with_capacity(parts);
    for i in 0..parts {
        let out = dir.join(format!("p{i}.json"));
        let child = Command::new(exe)
            .args([
                "experiment",
                &cfg.seed.to_string(),
                "--modules",
                &size.to_string(),
                "--partition",
                &format!("{i}/{parts}"),
                "--jobs",
                &cfg.jobs.to_string(),
                "--profile",
                "--quiet",
                "--cache",
            ])
            .arg(&cache)
            .arg("--bench-out")
            .arg(&out)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        children.push((child, out));
    }

    let mut wall = 0.0f64;
    let mut peak_rss = 0u64;
    let mut arena = 0u64;
    let mut arena_saved = 0u64;
    let mut profile0 = Value::Null;
    let mut hist0 = Value::Null;
    for (i, (mut child, out)) in children.into_iter().enumerate() {
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!(
                "partition {i}/{parts} of the {size}-module sweep failed ({status})"
            ));
        }
        let doc = read_json(&out)?;
        let w = doc
            .get("wall_seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: missing wall_seconds", out.display()))?;
        wall = wall.max(w);
        let profile = doc
            .get("profile")
            .cloned()
            .filter(|p| !p.is_null())
            .ok_or_else(|| format!("{}: missing profile block", out.display()))?;
        peak_rss = peak_rss.max(counter(&profile, "mem.peak_rss_bytes"));
        arena = arena.max(counter(&profile, "mem.arena_bytes"));
        arena_saved = arena_saved.max(counter(&profile, "mem.arena_saved_bytes"));
        if i == 0 {
            profile0 = profile;
            hist0 = doc.get("hist").cloned().unwrap_or(Value::Null);
        }
    }

    // Multi-partition points go through the real merge step, and the
    // merged artifact must cover the whole corpus.
    if parts > 1 {
        let merged = dir.join("merged.json");
        let mut cmd = Command::new(exe);
        cmd.arg("bench-merge");
        for i in 0..parts {
            cmd.arg(dir.join(format!("p{i}.json")));
        }
        let status = cmd
            .arg("--out")
            .arg(&merged)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("bench-merge: {e}"))?;
        if !status.success() {
            return Err(format!("bench-merge of the {size}-module sweep failed"));
        }
        let doc = read_json(&merged)?;
        let total = doc.get("modules").and_then(Value::as_usize);
        if total != Some(size) {
            return Err(format!(
                "merged artifact covers {total:?} modules, expected {size}"
            ));
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        Point {
            modules: size,
            partitions: parts,
            wall_seconds: wall,
            modules_per_second: size as f64 / wall.max(1e-9),
            peak_rss_bytes: peak_rss,
            arena_bytes: arena,
            arena_saved_bytes: arena_saved,
        },
        profile0,
        hist0,
    ))
}

/// The `localias-bench-scale/v3` artifact.
fn render_report(cfg: &ScaleConfig, points: &[Point], profile: Value, hist: Value) -> String {
    let mut a = Artifact::new("localias-bench-scale/v3", cfg.seed);
    a.set(&["jobs"], cfg.jobs);
    for p in points {
        let key = format!("{}x{}", p.modules, p.partitions);
        let at = |field| ["points", key.as_str(), field];
        a.set(&at("modules"), p.modules);
        a.set(&at("partitions"), p.partitions);
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
            sizes: vec![1000],
            partitions: vec![1, 2],
            jobs: 2,
        };
        let point = |partitions| Point {
            modules: 1000,
            partitions,
            wall_seconds: 0.5,
            modules_per_second: 2000.0,
            peak_rss_bytes: 30 << 20,
            arena_bytes: 1 << 20,
            arena_saved_bytes: 1 << 19,
        };
        let text = render_report(&cfg, &[point(1), point(2)], Value::Null, Value::Null);
        crate::testkit::assert_writer_contract(&text, &["points", "1000x2", "peak_rss_bytes"]);
    }
}
