//! Regenerates the Section 7 summary statistics — the experiment's
//! headline numbers — and prints them next to the paper's values.
//!
//! Run with `cargo run --release -p localias-bench --bin summary`.
//! Accepts an optional corpus seed, `--jobs N` worker threads (default:
//! all available cores), `--cache DIR` / `--no-cache` / `--cache-shards N`
//! to control the incremental result cache (default: `.localias-cache/`,
//! 16 shard files), and `--bench-out FILE` for the machine-readable
//! report.

use localias_bench::{
    category_counts, finish_obs, init_obs, measure_stream_with_cache, CliOpts, CorpusStream,
    ModuleResult,
};
use localias_obs as obs;

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("summary: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    let seed = opts.seed_or_default();
    let stream = CorpusStream::paper(seed);
    let (results, mut bench) =
        measure_stream_with_cache(&stream, 0..stream.len(), opts.jobs, &opts.cache);
    match finish_obs(&opts) {
        Ok(report) => {
            bench.profile = report.trace;
            bench.hist = report.hists;
        }
        Err(e) => {
            obs::error!("summary: {e}");
            std::process::exit(1);
        }
    }

    let [clean, real, full, partial] = category_counts(&results);
    let potential: usize = results.iter().map(ModuleResult::potential).sum();
    let eliminated: usize = results.iter().map(ModuleResult::eliminated).sum();
    let pct = 100.0 * eliminated as f64 / potential as f64;

    println!(
        "Section 7 experiment — {} modules (seed {seed})",
        results.len()
    );
    println!();
    println!("{:<46} {:>8} {:>8}", "", "paper", "measured");
    println!("{:<46} {:>8} {:>8}", "modules analyzed", 589, results.len());
    println!(
        "{:<46} {:>8} {:>8}",
        "error-free without confine", 352, clean
    );
    println!(
        "{:<46} {:>8} {:>8}",
        "errors unrelated to weak updates", 85, real
    );
    println!(
        "{:<46} {:>8} {:>8}",
        "confine == all-strong (fully recovered)", 138, full
    );
    println!(
        "{:<46} {:>8} {:>8}",
        "confine misses strong updates (Figure 7)", 14, partial
    );
    println!(
        "{:<46} {:>8} {:>8}",
        "potentially eliminable type errors", 3277, potential
    );
    println!(
        "{:<46} {:>8} {:>8}",
        "eliminated by confine inference", 3116, eliminated
    );
    println!("{:<46} {:>7}% {:>7.0}%", "elimination rate", 95, pct);
    println!();
    println!(
        "(full corpus analyzed in {:.2?} on {} thread{}, {:.0} modules/s)",
        bench.wall,
        bench.threads,
        if bench.threads == 1 { "" } else { "s" },
        bench.modules_per_sec()
    );
    if let Some(c) = &bench.cache {
        println!(
            "(cache: {} hits, {} misses, dir {})",
            c.hits, c.misses, c.dir
        );
    }
    if let Some(path) = &opts.bench_out {
        if let Err(e) = std::fs::write(path, bench.to_json()) {
            obs::error!("summary: {path}: {e}");
            std::process::exit(1);
        }
        println!("(wrote {path})");
    }
}
