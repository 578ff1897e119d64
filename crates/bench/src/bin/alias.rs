//! The alias-backend precision/perf frontier: runs the full Section 7
//! experiment once per alias backend and prints the two sweeps side by
//! side — the four module categories, per-mode error totals, the
//! elimination rate, and wall-clock throughput — so the cost of the
//! more precise inclusion-based (Andersen) freeze is measured against
//! the paper's unification-based (Steensgaard) configuration rather
//! than guessed.
//!
//! Run with `cargo run --release -p localias-bench --bin alias`.
//! Accepts the shared sweep flags (`--seed`, `--jobs N`,
//! `--cache DIR` / `--no-cache` / `--cache-shards N`, `--obs` /
//! `--obs-out FILE`). `--alias` is accepted but ignored: this binary
//! always sweeps every backend. The machine-readable report (schema
//! `localias-bench-alias/v4`; v2 added the `hist` latency block, v3 the
//! shared artifact envelope and `backends` keyed by name, v4 drops the
//! wave thread count) is written to `BENCH_alias.json`, or to
//! `--bench-out FILE` when given.
//!
//! On the default seed the Steensgaard sweep must reproduce the paper's
//! headline split — 352/85/138/14 over 589 modules — and the binary
//! exits non-zero if it does not, so the frontier numbers are anchored
//! to a verified baseline.

use localias_alias::Backend;
use localias_bench::json::Value;
use localias_bench::Better::{Higher, Lower};
use localias_bench::{
    category_counts, finish_obs, init_obs, json_hists, json_trace, measure_stream_with_cache,
    Artifact, CliOpts, CorpusStream, ExperimentBench, ModuleResult, ObsReport,
};
use localias_corpus::DEFAULT_SEED;
use localias_obs as obs;

/// The paper's four-way module split at 589 modules: error-free without
/// confine, errors unrelated to weak updates, fully recovered by confine
/// inference, and the Figure 7 residue.
const PAPER_CATEGORIES: [usize; 4] = [352, 85, 138, 14];

/// One backend's sweep, reduced to the frontier quantities.
struct FrontierRow {
    backend: Backend,
    modules: usize,
    categories: [usize; 4],
    errors: (usize, usize, usize),
    potential: usize,
    eliminated: usize,
    bench: ExperimentBench,
}

fn sweep(backend: Backend, seed: u64, opts: &CliOpts) -> FrontierRow {
    let stream = CorpusStream::paper(seed);
    let (results, bench) =
        measure_stream_with_cache(&stream, 0..stream.len(), opts.jobs, backend, &opts.cache);
    let errors = (
        results.iter().map(|r| r.no_confine).sum(),
        results.iter().map(|r| r.confine).sum(),
        results.iter().map(|r| r.all_strong).sum(),
    );
    FrontierRow {
        backend,
        modules: results.len(),
        categories: category_counts(&results),
        errors,
        potential: results.iter().map(ModuleResult::potential).sum(),
        eliminated: results.iter().map(ModuleResult::eliminated).sum(),
        bench,
    }
}

impl FrontierRow {
    fn elimination_rate(&self) -> f64 {
        100.0 * self.eliminated as f64 / self.potential.max(1) as f64
    }

    fn matches_paper(&self) -> Option<bool> {
        (self.modules == 589).then(|| self.categories == PAPER_CATEGORIES)
    }

    /// Writes this row under `backends.<name>`.
    fn write(&self, a: &mut Artifact) {
        let name = self.backend.name();
        let [clean, real, full, partial] = self.categories;
        let (nc, cf, st) = self.errors;
        let at = |key| ["backends", name, key];
        a.set(&at("modules"), self.modules);
        a.metric(&at("wall_seconds"), self.bench.wall.as_secs_f64(), Lower);
        a.metric(&at("modules_per_sec"), self.bench.modules_per_sec(), Higher);
        a.set(
            &at("errors"),
            counts(&[("no_confine", nc), ("confine", cf), ("all_strong", st)]),
        );
        let categories = [
            ("clean", clean),
            ("real", real),
            ("full", full),
            ("partial", partial),
        ];
        a.set(&at("categories"), counts(&categories));
        a.set(&at("potential"), self.potential);
        a.set(&at("eliminated"), self.eliminated);
        a.metric(&at("elimination_rate"), self.elimination_rate(), Higher);
        a.set(&at("matches_paper"), self.matches_paper());
        let cache = self.bench.cache.as_ref();
        let cache = cache.map(|c| counts(&[("hits", c.hits), ("misses", c.misses)]));
        a.set(&at("cache"), cache);
    }
}

/// An object of named counts.
fn counts(pairs: &[(&str, usize)]) -> Value {
    Value::obj(pairs.iter().map(|&(k, n)| (k, n.into())))
}

/// The `localias-bench-alias/v4` artifact.
fn report_json(seed: u64, opts: &CliOpts, rows: &[FrontierRow], report: &ObsReport) -> String {
    let mut a = Artifact::new("localias-bench-alias/v4", seed);
    a.set(&["jobs"], opts.jobs);
    for row in rows {
        row.write(&mut a);
    }
    a.finish(json_hists(&report.hists), json_trace(report.trace.as_ref()))
}

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("alias: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    let seed = opts.seed_or_default();

    let rows: Vec<FrontierRow> = Backend::ALL
        .iter()
        .map(|&b| sweep(b, seed, &opts))
        .collect();
    let report = match finish_obs(&opts) {
        Ok(report) => report,
        Err(e) => {
            obs::error!("alias: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "Alias backend frontier — {} modules (seed {seed})",
        rows[0].modules
    );
    println!();
    println!("{:<42} {:>14} {:>14}", "", "steensgaard", "andersen");
    let pair =
        |f: &dyn Fn(&FrontierRow) -> String| -> (String, String) { (f(&rows[0]), f(&rows[1])) };
    let print_row = |label: &str, f: &dyn Fn(&FrontierRow) -> String| {
        let (a, b) = pair(f);
        println!("{label:<42} {a:>14} {b:>14}");
    };
    print_row("error-free without confine", &|r| {
        r.categories[0].to_string()
    });
    print_row("errors unrelated to weak updates", &|r| {
        r.categories[1].to_string()
    });
    print_row("confine == all-strong (fully recovered)", &|r| {
        r.categories[2].to_string()
    });
    print_row("confine misses strong updates (Figure 7)", &|r| {
        r.categories[3].to_string()
    });
    print_row("no-confine errors (total)", &|r| r.errors.0.to_string());
    print_row("confine errors (total)", &|r| r.errors.1.to_string());
    print_row("all-strong errors (total)", &|r| r.errors.2.to_string());
    print_row("eliminated / potential", &|r| {
        format!("{}/{}", r.eliminated, r.potential)
    });
    print_row("elimination rate", &|r| {
        format!("{:.0}%", r.elimination_rate())
    });
    print_row("wall time", &|r| format!("{:.2?}", r.bench.wall));
    print_row("modules/s", &|r| {
        format!("{:.0}", r.bench.modules_per_sec())
    });
    println!();

    let out_path = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_alias.json".to_string());
    if let Err(e) = std::fs::write(&out_path, report_json(seed, &opts, &rows, &report)) {
        obs::error!("alias: {out_path}: {e}");
        std::process::exit(1);
    }
    println!("(wrote {out_path})");

    // Anchor the frontier to the verified baseline: on the default seed
    // the Steensgaard sweep must reproduce the paper's headline split.
    if seed == DEFAULT_SEED {
        if let Some(false) = rows[0].matches_paper() {
            obs::error!(
                "alias: steensgaard categories {:?} diverge from the paper's {:?}",
                rows[0].categories,
                PAPER_CATEGORIES
            );
            std::process::exit(1);
        }
        println!("steensgaard baseline matches the paper: 352/85/138/14 over 589 modules");
    }
}

#[cfg(test)]
#[path = "../testkit.rs"]
mod testkit;

#[cfg(test)]
mod tests {
    use super::*;
    use localias_bench::PhaseTimes;
    use std::time::Duration;

    #[test]
    fn writer_keeps_the_contract() {
        let row = |backend| FrontierRow {
            backend,
            modules: 4,
            categories: [1, 1, 1, 1],
            errors: (9, 3, 2),
            potential: 7,
            eliminated: 6,
            bench: ExperimentBench {
                seed: 1,
                modules: 4,
                threads: 1,
                wall: Duration::from_millis(8),
                phases: PhaseTimes::default(),
                errors: (9, 3, 2),
                potential: 7,
                eliminated: 6,
                cache: None,
                profile: None,
                hist: Vec::new(),
                partition: None,
                results: None,
            },
        };
        let rows: Vec<FrontierRow> = Backend::ALL.into_iter().map(row).collect();
        let opts = CliOpts::parse(Vec::<String>::new()).unwrap();
        let text = report_json(1, &opts, &rows, &ObsReport::default());
        testkit::assert_writer_contract(&text, &["backends", "andersen", "wall_seconds"]);
    }
}
