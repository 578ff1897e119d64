//! Differential-fuzzing benchmark: throughput and precision of the
//! checker-vs-interpreter oracle loop (`localias_bench::fuzz`).
//!
//! Run with `cargo run --release -p localias-bench --bin fuzz`.
//! `--modules N` sets the number of fuzzed modules (default 2000), the
//! positional argument the corpus seed; the shared observability flags
//! (`--trace-out FILE`, `--profile`, `--quiet`) are honored. The
//! machine-readable report (schema `localias-bench-fuzz/v3`; v2 added
//! the `hist` latency block, v3 the shared artifact envelope and
//! `fp_rates` keyed by backend) is written to `BENCH_fuzz.json`, or to
//! `--bench-out FILE` when given: modules/s fuzzed, the false-positive
//! rate per mode per backend, shrinker statistics, per-operation latency
//! histograms, and the embedded obs profile block.
//!
//! The binary exits non-zero on any soundness divergence — a fuzz
//! sweep doubles as a release gate.

use std::time::Instant;

use localias_alias::Backend;
use localias_bench::fuzz::{mode_name, run_fuzz, FuzzConfig, FuzzReport};
use localias_bench::Better::{Higher, Lower};
use localias_bench::{finish_obs, init_obs, json_hists, json_trace, Artifact, CliOpts, ObsReport};
use localias_cqual::MODES;
use localias_obs as obs;

/// The `localias-bench-fuzz/v3` artifact.
fn report_json(
    cfg: &FuzzConfig,
    report: &FuzzReport,
    wall_seconds: f64,
    obs_report: &ObsReport,
) -> String {
    let mut a = Artifact::new("localias-bench-fuzz/v3", cfg.seed);
    a.set(&["iterations"], cfg.iterations);
    a.set(&["fuel"], cfg.fuel);
    a.metric(&["wall_seconds"], wall_seconds, Lower);
    let per_sec = report.modules as f64 / wall_seconds.max(1e-9);
    a.metric(&["modules_per_sec"], per_sec, Higher);
    let counts = [
        ("entries", report.entries),
        ("runs", report.runs),
        ("dyn_faults", report.dyn_faults),
        ("leaks", report.leaks),
        ("restrict_violations", report.restrict_violations),
        ("out_of_fuel", report.out_of_fuel),
        ("exec_errors", report.exec_errors),
        ("divergences", report.divergences.len() as u64),
    ];
    for (key, n) in counts {
        a.set(&[key], n);
    }
    for backend in Backend::ALL {
        for (mi, &mode) in MODES.iter().enumerate() {
            let st = &report.stats[backend.index()][mi];
            let (b, m) = (backend.name(), mode_name(mode));
            a.set(&["fp_rates", b, m, "flagged"], st.flagged_funs);
            a.set(&["fp_rates", b, m, "true_positives"], st.true_positive_funs);
            a.set(
                &["fp_rates", b, m, "false_positives"],
                st.false_positive_funs,
            );
            a.metric(&["fp_rates", b, m, "rate"], st.fp_rate(), Lower);
        }
    }
    a.set(&["shrink", "candidates"], report.shrink_candidates);
    a.set(&["shrink", "steps"], report.shrink_steps);
    a.finish(
        json_hists(&obs_report.hists),
        json_trace(obs_report.trace.as_ref()),
    )
}

fn main() {
    let opts = match CliOpts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("fuzz: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    let cfg = FuzzConfig {
        seed: opts.seed_or_default(),
        iterations: opts.modules.unwrap_or(2000) as u64,
        ..FuzzConfig::default()
    };

    let t0 = Instant::now();
    let report = run_fuzz(&cfg);
    let wall = t0.elapsed();
    let obs_report = match finish_obs(&opts) {
        Ok(report) => report,
        Err(e) => {
            obs::error!("fuzz: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "Differential fuzzing — {} modules (seed {}), {:.2?}, {:.0} modules/s",
        report.modules,
        cfg.seed,
        wall,
        report.modules as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!();
    print!("{}", report.summary());
    println!();

    let out_path = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_fuzz.json".to_string());
    let json = report_json(&cfg, &report, wall.as_secs_f64(), &obs_report);
    if let Err(e) = std::fs::write(&out_path, json) {
        obs::error!("fuzz: {out_path}: {e}");
        std::process::exit(1);
    }
    println!("(wrote {out_path})");

    if !report.clean() {
        obs::error!(
            "fuzz: {} soundness divergence(s) — the checker missed real faults",
            report.divergences.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
#[path = "../testkit.rs"]
mod testkit;

#[cfg(test)]
mod tests {
    use super::*;
    use localias_bench::fuzz::ModeStats;

    #[test]
    fn writer_keeps_the_contract() {
        let mut report = FuzzReport {
            modules: 10,
            ..FuzzReport::default()
        };
        report.stats[0][0] = ModeStats {
            flagged_funs: 4,
            true_positive_funs: 3,
            false_positive_funs: 1,
        };
        let text = report_json(&FuzzConfig::default(), &report, 0.5, &ObsReport::default());
        testkit::assert_writer_contract(&text, &["fp_rates", "steensgaard", "noconfine", "rate"]);
    }
}
