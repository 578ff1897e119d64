//! Regenerates Figure 7: the modules for which confine inference does not
//! infer all possible strong updates, with per-mode error counts measured
//! and compared against the paper's table.
//!
//! Run with `cargo run --release -p localias-bench --bin fig7`.
//! Accepts an optional corpus seed, `--jobs N` worker threads, and
//! `--cache DIR` / `--no-cache` / `--cache-shards N` for the incremental
//! result cache (shared with `summary`/`fig6`/`experiment`: a warm store
//! serves the 14 rows here without re-analysis, and the sharded,
//! lock-protected store makes running them side by side safe).

use localias_bench::{finish_obs, init_obs, measure_corpus_with_cache, CliOpts};
use localias_corpus::{generate, FIGURE7};
use localias_obs as obs;

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("fig7: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    let seed = opts.seed_or_default();
    let corpus = generate(seed);

    println!("Figure 7: modules where confine inference misses strong updates");
    println!();
    println!(
        "{:<18} {:>24} {:>24} {:>24}",
        "module", "no confine", "confine inference", "all updates strong"
    );
    println!(
        "{:<18} {:>12} {:>11} {:>12} {:>11} {:>12} {:>11}",
        "", "paper", "measured", "paper", "measured", "paper", "measured"
    );
    let rows: Vec<localias_corpus::GeneratedModule> = FIGURE7
        .iter()
        .map(|&(name, ..)| {
            corpus
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing from corpus"))
                .clone()
        })
        .collect();
    let (measured, mut bench) =
        measure_corpus_with_cache(&rows, opts.jobs, 1, seed, opts.alias, &opts.cache);
    match finish_obs(&opts) {
        Ok(report) => {
            bench.profile = report.trace;
            bench.hist = report.hists;
        }
        Err(e) => {
            obs::error!("fig7: {e}");
            std::process::exit(1);
        }
    }
    let mut exact = 0;
    for (&(name, nc, cf, as_), r) in FIGURE7.iter().zip(&measured) {
        if (r.no_confine, r.confine, r.all_strong) == (nc, cf, as_) {
            exact += 1;
        }
        println!(
            "{:<18} {:>12} {:>11} {:>12} {:>11} {:>12} {:>11}",
            name, nc, r.no_confine, cf, r.confine, as_, r.all_strong
        );
    }
    println!();
    println!("{exact}/{} rows match the paper exactly", FIGURE7.len());
    if let Some(c) = &bench.cache {
        println!(
            "(cache: {} hits, {} misses, dir {})",
            c.hits, c.misses, c.dir
        );
    }
    if let Some(path) = &opts.bench_out {
        if let Err(e) = std::fs::write(path, bench.to_json()) {
            obs::error!("fig7: {path}: {e}");
            std::process::exit(1);
        }
    }
}
