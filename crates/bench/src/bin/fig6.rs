//! Regenerates Figure 6: the distribution of spurious type errors
//! eliminated by confine inference over the modules where strong updates
//! matter.
//!
//! Run with `cargo run --release -p localias-bench --bin fig6`.
//! Accepts an optional corpus seed, `--jobs N` worker threads, and
//! `--cache DIR` / `--no-cache` / `--cache-shards N` for the incremental
//! result cache.

use localias_bench::{
    finish_obs, init_obs, measure_stream_with_cache, text_histogram, CliOpts, CorpusStream,
};
use localias_obs as obs;

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("fig6: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    let seed = opts.seed_or_default();
    let stream = CorpusStream::paper(seed);
    let (results, mut bench) =
        measure_stream_with_cache(&stream, 0..stream.len(), opts.jobs, opts.alias, &opts.cache);
    match finish_obs(&opts) {
        Ok(report) => {
            bench.profile = report.trace;
            bench.hist = report.hists;
        }
        Err(e) => {
            obs::error!("fig6: {e}");
            std::process::exit(1);
        }
    }

    // The modules where confine inference could make a difference.
    let eliminations: Vec<usize> = results
        .iter()
        .filter(|r| r.no_confine > r.all_strong)
        .map(|r| r.eliminated())
        .collect();

    const BUCKETS: [(usize, usize, &str); 10] = [
        (0, 0, "0"),
        (1, 1, "1"),
        (2, 2, "2"),
        (3, 4, "3-4"),
        (5, 8, "5-8"),
        (9, 16, "9-16"),
        (17, 32, "17-32"),
        (33, 64, "33-64"),
        (65, 128, "65-128"),
        (129, usize::MAX, "129+"),
    ];
    let buckets: Vec<(String, usize)> = BUCKETS
        .iter()
        .map(|&(lo, hi, label)| {
            let n = eliminations.iter().filter(|&&e| lo <= e && e <= hi).count();
            (label.to_string(), n)
        })
        .collect();

    println!("Figure 6: spurious type errors eliminated by confine inference");
    println!(
        "({} modules where strong updates matter, seed {seed})",
        eliminations.len()
    );
    println!();
    println!("  eliminated | modules");
    print!("{}", text_histogram(&buckets, 50));
    println!();
    println!(
        "total eliminated: {} (paper: 3,116)",
        eliminations.iter().sum::<usize>()
    );
    if let Some(path) = &opts.bench_out {
        if let Err(e) = std::fs::write(path, bench.to_json()) {
            obs::error!("fig6: {path}: {e}");
            std::process::exit(1);
        }
    }
}
