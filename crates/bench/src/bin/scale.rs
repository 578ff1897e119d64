//! `scale` — throughput and memory vs. corpus size.
//!
//! Sweeps a grid of (corpus size, partition count) points. Every point
//! runs in fresh child processes of the `localias` driver binary — one
//! per partition, concurrently, over a shared cold cache — so peak RSS
//! is measured per sweep rather than accumulating across points.
//! Multi-partition points are `bench-merge`d and the merged module count
//! cross-checked, so the sweep exercises the same split/merge pipeline
//! a real multi-process run uses.
//!
//! ```text
//! scale [SEED] [--sizes N,N,...] [--partitions N,N,...] [--jobs N]
//!       [--bench-out FILE] [--bin PATH]
//! ```
//!
//! Defaults: sizes 1000,5000,20000,50000; partitions 1,2; the driver
//! binary at target/release/localias (or `$LOCALIAS_BIN`). The report
//! (schema `localias-bench-scale/v3`; v2 added the `hist` block, v3 the
//! shared artifact envelope and `points` keyed by `<modules>x<partitions>`)
//! embeds the obs profile and latency-histogram blocks from the largest
//! single-partition run, so the per-phase span tree, the `mem.*`
//! gauges, and the per-module latency distribution for the heaviest
//! sweep travel with the curve.

use localias_bench::json::{self, Value};
use localias_bench::Artifact;
use localias_bench::Better::{Higher, Lower};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct Opts {
    seed: u64,
    sizes: Vec<usize>,
    partitions: Vec<usize>,
    jobs: usize,
    bench_out: Option<String>,
    bin: PathBuf,
}

struct Point {
    modules: usize,
    partitions: usize,
    wall_seconds: f64,
    modules_per_second: f64,
    peak_rss_bytes: u64,
    arena_bytes: u64,
    arena_saved_bytes: u64,
}

fn parse_list(val: &str, flag: &str) -> Result<Vec<usize>, String> {
    let out = val
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| format!("{flag}: bad list `{val}` (expected N,N,...)"))?;
    if out.is_empty() || out.contains(&0) {
        return Err(format!("{flag}: entries must be positive (got `{val}`)"));
    }
    Ok(out)
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        seed: localias_corpus::DEFAULT_SEED,
        sizes: vec![1_000, 5_000, 20_000, 50_000],
        partitions: vec![1, 2],
        jobs: 0,
        bench_out: None,
        bin: std::env::var_os("LOCALIAS_BIN")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/release/localias")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a_flag} requires {what}", a_flag = a.clone()))
        };
        match a.as_str() {
            "--sizes" => opts.sizes = parse_list(&val("a size list")?, "--sizes")?,
            "--partitions" => {
                opts.partitions = parse_list(&val("a partition list")?, "--partitions")?;
            }
            "--jobs" | "-j" => {
                let v = val("a thread count")?;
                opts.jobs = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--bench-out" => opts.bench_out = Some(val("a file path")?),
            "--bin" => opts.bin = PathBuf::from(val("a driver binary path")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => {
                opts.seed = positional
                    .parse()
                    .map_err(|_| format!("bad seed `{positional}`"))?;
            }
        }
    }
    Ok(opts)
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
    opts: &Opts,
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
        let child = Command::new(&opts.bin)
            .args([
                "experiment",
                &opts.seed.to_string(),
                "--modules",
                &size.to_string(),
                "--partition",
                &format!("{i}/{parts}"),
                "--jobs",
                &opts.jobs.to_string(),
                "--cache",
                cache.to_str().unwrap(),
                "--bench-out",
                out.to_str().unwrap(),
                "--profile",
                "--quiet",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", opts.bin.display()))?;
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
        let mut cmd = Command::new(&opts.bin);
        cmd.arg("bench-merge");
        for i in 0..parts {
            cmd.arg(dir.join(format!("p{i}.json")));
        }
        let status = cmd
            .args(["--out", merged.to_str().unwrap()])
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
fn render_report(opts: &Opts, points: &[Point], profile: Value, hist: Value) -> String {
    let mut a = Artifact::new("localias-bench-scale/v3", opts.seed);
    a.set(&["jobs"], opts.jobs);
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

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scale: {e}");
            std::process::exit(2);
        }
    };
    if !opts.bin.exists() {
        eprintln!(
            "scale: driver binary {} not found — build it first \
             (cargo build --release -p localias-driver) or set LOCALIAS_BIN",
            opts.bin.display()
        );
        std::process::exit(2);
    }

    let scratch = std::env::temp_dir().join(format!("localias-scale-{}", std::process::id()));
    let mut points = Vec::new();
    // The profile and hist blocks embedded in the report: the largest
    // single-partition sweep, i.e. the heaviest single process.
    let mut headline: Option<(usize, Value, Value)> = None;
    for &size in &opts.sizes {
        for &parts in &opts.partitions {
            match run_point(&opts, &scratch, size, parts) {
                Ok((point, profile, hist)) => {
                    println!(
                        "{:>7} modules x {} partition{}: {:>8.0} modules/s, \
                         peak RSS {:.1} MiB, wall {:.2}s",
                        point.modules,
                        point.partitions,
                        if point.partitions == 1 { " " } else { "s" },
                        point.modules_per_second,
                        point.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                        point.wall_seconds,
                    );
                    if parts == 1 && headline.as_ref().is_none_or(|(s, ..)| size > *s) {
                        headline = Some((size, profile, hist));
                    }
                    points.push(point);
                }
                Err(e) => {
                    let _ = std::fs::remove_dir_all(&scratch);
                    eprintln!("scale: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let (profile, hist) = headline
        .map(|(_, p, h)| (p, h))
        .unwrap_or((Value::Null, Value::Null));
    let report = render_report(&opts, &points, profile, hist);
    match &opts.bench_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("scale: {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        None => print!("{report}"),
    }
}

#[cfg(test)]
#[path = "../testkit.rs"]
mod testkit;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_keeps_the_contract() {
        let opts = Opts {
            seed: 1,
            sizes: vec![1000],
            partitions: vec![1, 2],
            jobs: 2,
            bench_out: None,
            bin: PathBuf::from("localias"),
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
        let text = render_report(&opts, &[point(1), point(2)], Value::Null, Value::Null);
        testkit::assert_writer_contract(&text, &["points", "1000x2", "peak_rss_bytes"]);
    }
}
