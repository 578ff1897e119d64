//! Regenerates the Section 7 performance claim: the cost of confine
//! inference is a modest fraction of the total analysis time. The paper
//! reports 28.5 s with vs. 26.0 s without confine inference on its
//! largest affected module (`ide-tape`), i.e. ~10% overhead; we measure
//! the same ratio on our corpus (absolute times differ — 2003 hardware
//! and a real C frontend vs. this reimplementation).
//!
//! Run with `cargo run --release -p localias-bench --bin perf`.
//! Accepts the shared CLI surface ([`CliOpts`]) for uniformity; note that
//! `perf` always measures the analyses themselves, so the result cache is
//! never consulted here (`--cache`/`--no-cache` draw a warning).

use localias_alias::Backend;
use localias_bench::harness::{avg_of, timed};
use localias_bench::{finish_obs, init_obs, measure_corpus_cached, CliOpts};
use localias_corpus::generate;
use localias_cqual::{check_locks, Mode};
use localias_obs as obs;
use std::time::Duration;

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("perf: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    if opts.cache_explicit {
        obs::warn!("perf: note: perf measures uncached analysis; cache flags are ignored");
    }
    let seed = opts.seed_or_default();
    let corpus = generate(seed);

    // The largest modules by source size, plus the paper's example.
    let mut by_size: Vec<&localias_corpus::GeneratedModule> = corpus.iter().collect();
    by_size.sort_by_key(|m| std::cmp::Reverse(m.source.len()));
    let mut subjects: Vec<&localias_corpus::GeneratedModule> =
        by_size.into_iter().take(3).collect();
    if let Some(ide) = corpus.iter().find(|m| m.name == "ide_tape") {
        if !subjects.iter().any(|m| m.name == ide.name) {
            subjects.push(ide);
        }
    }

    println!("Confine-inference overhead (paper: ide-tape 28.5 s with vs 26.0 s without, ~10%)");
    println!();
    println!(
        "{:<22} {:>10} {:>14} {:>14} {:>9}",
        "module", "size (B)", "without (ms)", "with (ms)", "overhead"
    );

    const REPS: usize = 20;
    for m in subjects {
        let parsed = m.parse();
        // Warm up.
        let _ = check_locks(&parsed, Mode::NoConfine);
        let _ = check_locks(&parsed, Mode::Confine);

        let (_, without) = avg_of("perf.no_confine", REPS, || {
            check_locks(&parsed, Mode::NoConfine)
        });
        let (_, with) = avg_of("perf.confine", REPS, || check_locks(&parsed, Mode::Confine));

        let overhead = 100.0 * (with - without) / without;
        println!(
            "{:<22} {:>10} {:>14.3} {:>14.3} {:>8.0}%",
            m.name,
            m.source.len(),
            without * 1e3,
            with * 1e3,
            overhead
        );
    }
    println!();
    println!("(paper overhead on ide-tape: ~10%)");

    // Full-sweep comparison: three independent pipelines per module (the
    // pre-shared-analysis behaviour) vs. the shared-analysis path where
    // no-confine and all-strong reuse one base analysis. Single-threaded
    // by default so the two rows compare like for like (`--jobs N`
    // parallelizes the shared row only).
    let sweep_jobs = opts.jobs.max(1);
    println!();
    println!(
        "Full corpus sweep, {}:",
        if sweep_jobs == 1 {
            "single thread".to_string()
        } else {
            format!("{sweep_jobs} threads (shared row only)")
        }
    );
    let (_, independent) = timed("perf.independent_sweep", || {
        for m in &corpus {
            let p = m.parse();
            let _ = check_locks(&p, Mode::NoConfine).error_count();
            let _ = check_locks(&p, Mode::Confine).error_count();
            let _ = check_locks(&p, Mode::AllStrong).error_count();
        }
    });
    let (_, shared) = timed("perf.shared_sweep", || {
        measure_corpus_cached(&corpus, sweep_jobs, seed, Backend::Steensgaard, None)
    });

    println!(
        "{:<38} {:>10.1?}",
        "  three independent pipelines/module",
        Duration::from_secs_f64(independent)
    );
    println!(
        "{:<38} {:>10.1?}",
        "  shared base analysis",
        Duration::from_secs_f64(shared)
    );
    println!(
        "  speedup: {:.2}x (before parallel fan-out; multiply by cores)",
        independent / shared
    );
    if let Err(e) = finish_obs(&opts) {
        obs::error!("perf: {e}");
        std::process::exit(1);
    }
}
