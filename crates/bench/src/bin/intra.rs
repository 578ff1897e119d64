//! Benchmarks the wave-parallel intra-module checking pipeline on the
//! synthesized mega-module: one module, hundreds of functions, a wide
//! three-layer call DAG (see `localias_corpus::mega_module`).
//!
//! For each mode the frozen-analysis checker runs once sequentially
//! (`intra_jobs = 1`) and once wave-parallel, asserts the two reports are
//! identical (the pipeline's core invariant), and reports the speedup.
//!
//! Run with `cargo run --release -p localias-bench --bin intra`.
//! Accepts `[SEED] [--funs N] [--intra-jobs N] [--bench-out FILE]`;
//! `--intra-jobs` sets the parallel row's thread count (default: all
//! cores). The machine-readable report (`--bench-out`, conventionally
//! `BENCH_intra.json`) uses schema `localias-bench-intra/v4` with
//! per-wave timings from the parallel run; v2 added each wave's
//! `max_fun_seconds` — the straggler function that bounds how much
//! parallelism can help that wave — v3 the `hist` latency block
//! (per-function check and per-wave histograms with exact percentiles),
//! and v4 the shared artifact envelope (`host`, `profile`, `gate`).

use localias_bench::harness::best_of;
use localias_bench::json::Value;
use localias_bench::Better::{Higher, Lower};
use localias_bench::{finish_obs, init_obs, json_hists, json_trace, Artifact, CliOpts, ObsReport};
use localias_corpus::{mega_module, DEFAULT_MEGA_FUNS};
use localias_cqual::{check_locks_frozen_timed, IntraStats, Mode};
use localias_obs as obs;

const MODES: [(Mode, &str); 3] = [
    (Mode::NoConfine, "no_confine"),
    (Mode::Confine, "confine"),
    (Mode::AllStrong, "all_strong"),
];

/// Timing runs per row; the minimum is reported.
const REPS: usize = 3;

struct ModeRow {
    key: &'static str,
    sequential: f64,
    parallel: f64,
    stats: IntraStats,
}

fn main() {
    // Pre-extract `--funs N`; everything else is the shared surface.
    let mut rest = Vec::new();
    let mut funs = DEFAULT_MEGA_FUNS;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--funs" {
            let val = args.next().unwrap_or_default();
            funs = match val.parse() {
                Ok(n) => n,
                Err(_) => {
                    obs::error!("intra: bad function count `{val}`");
                    std::process::exit(2);
                }
            };
        } else {
            rest.push(a);
        }
    }
    let opts = match CliOpts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("intra: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    if opts.cache_explicit {
        obs::warn!("intra: note: intra measures uncached analysis; cache flags are ignored");
    }
    // Default (1 = the surface's sequential default) means "all cores"
    // here: the sequential row is always measured anyway.
    let par_jobs = if opts.intra_jobs <= 1 {
        0
    } else {
        opts.intra_jobs
    };
    let seed = opts.seed_or_default();

    let m = mega_module(seed, funs);
    let parsed = m.parse();
    let mut shared = localias_core::SharedAnalysis::new(&parsed);

    println!("Intra-module wave parallelism on the mega-module ({funs} functions, seed {seed})");
    println!();
    println!(
        "{:<12} {:>16} {:>16} {:>9} {:>7}",
        "mode", "sequential (ms)", "parallel (ms)", "speedup", "waves"
    );

    let mut rows: Vec<ModeRow> = Vec::new();
    for (mode, key) in MODES {
        let (analysis, frozen) = match mode {
            Mode::Confine => shared.confine_frozen(),
            Mode::NoConfine | Mode::AllStrong => shared.base_frozen(),
        };

        // Reports are byte-identical run to run, so best-of-REPS may keep
        // the first run's report with the fastest run's time.
        let time = |jobs: usize, label: &'static str| {
            let ((report, stats), best) = best_of(label, REPS, || {
                check_locks_frozen_timed(&parsed, analysis, frozen, mode, jobs)
            });
            (best, report, stats)
        };

        let (sequential, seq_report, _) = time(1, "intra.sequential");
        let (parallel, par_report, stats) = time(par_jobs, "intra.parallel");
        assert_eq!(
            par_report, seq_report,
            "parallel report must be byte-identical to sequential ({mode:?})"
        );

        println!(
            "{:<12} {:>16.3} {:>16.3} {:>8.2}x {:>7}",
            key,
            sequential * 1e3,
            parallel * 1e3,
            sequential / parallel,
            stats.waves.len()
        );
        rows.push(ModeRow {
            key,
            sequential,
            parallel,
            stats,
        });
    }

    let total_seq: f64 = rows.iter().map(|r| r.sequential).sum();
    let total_par: f64 = rows.iter().map(|r| r.parallel).sum();
    let threads = rows[0].stats.threads;
    println!();
    println!(
        "overall: {:.3} ms sequential vs {:.3} ms on {threads} threads — {:.2}x",
        total_seq * 1e3,
        total_par * 1e3,
        total_seq / total_par
    );

    // Drain obs before rendering the report so the hist block covers
    // every timed run above.
    let obs_report = match finish_obs(&opts) {
        Ok(r) => r,
        Err(e) => {
            obs::error!("intra: {e}");
            std::process::exit(1);
        }
    };

    if let Some(path) = &opts.bench_out {
        if let Err(e) = std::fs::write(path, report(seed, funs, &rows, &obs_report)) {
            obs::error!("intra: {path}: {e}");
            std::process::exit(1);
        }
        println!("(wrote {path})");
    }
}

/// The `localias-bench-intra/v4` artifact.
fn report(seed: u64, funs: usize, rows: &[ModeRow], obs_report: &ObsReport) -> String {
    let total_seq: f64 = rows.iter().map(|r| r.sequential).sum();
    let total_par: f64 = rows.iter().map(|r| r.parallel).sum();
    let mut a = Artifact::new("localias-bench-intra/v4", seed);
    a.set(&["funs"], funs);
    a.set(&["threads"], rows[0].stats.threads);
    a.metric(&["sequential_seconds"], total_seq, Lower);
    a.metric(&["parallel_seconds"], total_par, Lower);
    a.metric(&["speedup"], total_seq / total_par, Higher);
    for r in rows {
        let waves = r.stats.waves.iter().map(|w| {
            Value::obj([
                ("functions", w.functions.into()),
                ("seconds", w.seconds.into()),
                ("max_fun_seconds", w.max_fun_seconds.into()),
            ])
        });
        a.set(&["modes", r.key, "sequential_seconds"], r.sequential);
        a.set(&["modes", r.key, "parallel_seconds"], r.parallel);
        a.set(&["modes", r.key, "speedup"], r.sequential / r.parallel);
        a.set(&["modes", r.key, "sccs"], r.stats.sccs);
        a.set(&["modes", r.key, "waves"], Value::Arr(waves.collect()));
    }
    a.finish(
        json_hists(&obs_report.hists),
        json_trace(obs_report.trace.as_ref()),
    )
}

#[cfg(test)]
#[path = "../testkit.rs"]
mod testkit;

#[cfg(test)]
mod tests {
    use super::*;
    use localias_cqual::WaveStat;

    #[test]
    fn writer_keeps_the_contract() {
        let stats = IntraStats {
            threads: 2,
            functions: 3,
            sccs: 3,
            waves: vec![WaveStat {
                functions: 3,
                seconds: 0.002,
                max_fun_seconds: 0.001,
            }],
        };
        let rows: Vec<ModeRow> = MODES
            .iter()
            .map(|&(_, key)| ModeRow {
                key,
                sequential: 0.004,
                parallel: 0.002,
                stats: stats.clone(),
            })
            .collect();
        let text = report(1, 3, &rows, &ObsReport::default());
        assert!(
            text.contains("\"schema\": \"localias-bench-intra/v4\""),
            "{text}"
        );
        testkit::assert_writer_contract(&text, &["parallel_seconds"]);
    }
}
