//! Benchmarks function-granular incremental recheck on the mega-module:
//! the edit→report loop a `localias watch` session lives in.
//!
//! One `IncrementalSession` analyzes the mega-module cold, then a stream
//! of seeded single-function edits (`localias_corpus::mega_edit`,
//! alternating benign constant tweaks and lock-pair breaks), then two
//! no-op variants (a trailing comment and a byte-identical repeat). For
//! **every** iteration the incremental reports are asserted byte-equal
//! to from-scratch checking of the same source, and — for edits built by
//! the generator — the error triple is asserted against its closed form.
//!
//! Run with `cargo run --release -p localias-bench --bin watch`.
//! Accepts `[SEED] [--funs N] [--edits N] [--intra-jobs N]
//! [--bench-out FILE] [--trace-out FILE] [--profile] [--quiet]`.
//! The machine-readable report (`--bench-out`, conventionally
//! `BENCH_watch.json`) uses schema `localias-bench-watch/v3`: cold /
//! per-edit / no-op latencies, hit/recheck slot counts, the check-phase
//! and end-to-end speedups over from-scratch analysis, the `hist`
//! latency block (v2), the embedded obs profile block (`incr.*`
//! counters) when `--profile` or `--trace-out` is given, and the shared
//! artifact envelope (v3).

use localias_bench::json::Value;
use localias_bench::Better::{Higher, Lower};
use localias_bench::{finish_obs, init_obs, json_hists, json_trace, Artifact, CliOpts, ObsReport};
use localias_corpus::{mega_edit, mega_module, MegaEditKind, DEFAULT_MEGA_FUNS};
use localias_cqual::{check_locks_frozen, IncrStats, IncrementalSession, LockReport, MODES};
use localias_obs as obs;
use std::time::Instant;

/// Default number of seeded edits.
const DEFAULT_EDITS: usize = 8;

/// One from-scratch analysis of `source`: the three mode reports plus
/// `(total_seconds, check_seconds)` — the latter covering only the three
/// check passes, the phase the function cache accelerates.
fn full_check(name: &str, source: &str, jobs: usize) -> ([LockReport; 3], f64, f64) {
    let t0 = Instant::now();
    let parsed = localias_ast::parse_module(name, source).expect("generated module parses");
    let mut shared = localias_core::SharedAnalysis::new(&parsed);
    // Force both analyses up front so the check timing below is pure.
    shared.base_frozen();
    shared.confine_frozen();
    let t_check = Instant::now();
    let reports = MODES.map(|mode| {
        let (analysis, frozen) = mode.analysis(&mut shared);
        check_locks_frozen(&parsed, analysis, frozen, mode, jobs)
    });
    let check = t_check.elapsed().as_secs_f64();
    (reports, t0.elapsed().as_secs_f64(), check)
}

struct EditRow {
    label: String,
    function: String,
    stats: IncrStats,
    full_total: f64,
    full_check: f64,
}

/// Everything the `--bench-out` report records about one run.
struct Run {
    seed: u64,
    funs: usize,
    intra_jobs: usize,
    cold: IncrStats,
    /// From-scratch `(total, check)` seconds of the cold source.
    cold_full: (f64, f64),
    rows: Vec<EditRow>,
    /// The whitespace-only no-op edit.
    ws: IncrStats,
    /// The byte-identical repeat of the no-op edit.
    repeat_seconds: f64,
}

/// Per-edit means over a run's edit rows (zero with no edits).
struct Means {
    incr_total: f64,
    incr_check: f64,
    full_total: f64,
    full_check: f64,
    fraction: f64,
}

impl Means {
    fn check_speedup(&self) -> f64 {
        self.full_check / self.incr_check.max(1e-9)
    }

    fn total_speedup(&self) -> f64 {
        self.full_total / self.incr_total.max(1e-9)
    }
}

impl Run {
    fn means(&self) -> Means {
        let n = self.rows.len().max(1) as f64;
        let mean = |f: &dyn Fn(&EditRow) -> f64| self.rows.iter().map(f).sum::<f64>() / n;
        Means {
            incr_total: mean(&|r| r.stats.total_seconds),
            incr_check: mean(&|r| r.stats.check_seconds),
            full_total: mean(&|r| r.full_total),
            full_check: mean(&|r| r.full_check),
            fraction: mean(&|r| r.stats.rechecked as f64 / r.stats.slots.max(1) as f64),
        }
    }

    /// The `localias-bench-watch/v3` artifact.
    fn report(&self, obs_report: &ObsReport) -> String {
        let m = self.means();
        let mut a = Artifact::new("localias-bench-watch/v3", self.seed);
        a.set(&["funs"], self.funs);
        a.set(&["edits"], self.rows.len());
        a.set(&["intra_jobs"], self.intra_jobs);
        a.metric(&["cold", "total_seconds"], self.cold.total_seconds, Lower);
        a.set(&["cold", "check_seconds"], self.cold.check_seconds);
        a.set(&["cold", "full_total_seconds"], self.cold_full.0);
        a.set(&["cold", "full_check_seconds"], self.cold_full.1);
        a.metric(&["edit", "mean_total_seconds"], m.incr_total, Lower);
        a.metric(&["edit", "mean_check_seconds"], m.incr_check, Lower);
        a.set(&["edit", "mean_full_total_seconds"], m.full_total);
        a.set(&["edit", "mean_full_check_seconds"], m.full_check);
        a.set(&["edit", "mean_rechecked_fraction"], m.fraction);
        a.metric(&["edit", "check_speedup"], m.check_speedup(), Higher);
        a.metric(&["edit", "total_speedup"], m.total_speedup(), Higher);
        let rows = self.rows.iter().map(|r| {
            Value::obj([
                ("kind", r.label.as_str().into()),
                ("function", r.function.as_str().into()),
                ("total_seconds", r.stats.total_seconds.into()),
                ("check_seconds", r.stats.check_seconds.into()),
                ("full_total_seconds", r.full_total.into()),
                ("full_check_seconds", r.full_check.into()),
                ("rechecked", r.stats.rechecked.into()),
                ("hits", r.stats.hits.into()),
                ("slots", r.stats.slots.into()),
                ("summary_changes", r.stats.summary_changes.into()),
            ])
        });
        a.set(&["edit", "rows"], Value::Arr(rows.collect()));
        a.set(&["noop", "whitespace_seconds"], self.ws.total_seconds);
        a.set(&["noop", "whitespace_rechecked"], self.ws.rechecked);
        a.metric(&["noop", "module_hit_seconds"], self.repeat_seconds, Lower);
        a.finish(
            json_hists(&obs_report.hists),
            json_trace(obs_report.trace.as_ref()),
        )
    }
}

fn edit_kind_label(kind: MegaEditKind) -> &'static str {
    match kind {
        MegaEditKind::Compute => "compute",
        MegaEditKind::Whitespace => "whitespace",
        MegaEditKind::BreakLock => "break_lock",
    }
}

/// Analyzes `source` incrementally, asserts byte-identity against
/// from-scratch checking, and returns the stats plus the full run's
/// timings.
fn step(
    session: &mut IncrementalSession,
    name: &str,
    source: &str,
    jobs: usize,
    what: &str,
) -> (IncrStats, f64, f64) {
    let out = session.analyze(source).expect("generated module parses");
    // The from-scratch baseline runs at the same worker count as the
    // session, so the speedup never flatters the incremental side.
    let (want, full_total, full_check_secs) = full_check(name, source, jobs);
    assert_eq!(
        out.reports, want,
        "{what}: incremental report must be byte-identical to from-scratch checking"
    );
    (out.stats, full_total, full_check_secs)
}

fn main() {
    // Pre-extract `--funs N` and `--edits N`; the rest is the shared
    // surface.
    let mut rest = Vec::new();
    let mut funs = DEFAULT_MEGA_FUNS;
    let mut edits = DEFAULT_EDITS;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--funs" || a == "--edits" {
            let val = args.next().unwrap_or_default();
            let Ok(n) = val.parse() else {
                obs::error!("watch: bad count `{val}` for {a}");
                std::process::exit(2);
            };
            if a == "--funs" {
                funs = n;
            } else {
                edits = n;
            }
        } else {
            rest.push(a);
        }
    }
    let opts = match CliOpts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("watch: {e}");
            std::process::exit(2);
        }
    };
    init_obs(&opts);
    if opts.cache_explicit {
        obs::warn!(
            "watch: note: watch measures the in-process function cache; cache flags are ignored"
        );
    }
    let seed = opts.seed_or_default();

    let base = mega_module(seed, funs);
    let mut session = IncrementalSession::new(&base.name, opts.intra_jobs);

    println!(
        "Incremental recheck on the mega-module ({funs} functions, seed {seed}, \
         intra-jobs {})",
        opts.intra_jobs
    );
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>11} {:>11} {:>9}",
        "iteration", "recheck", "hits", "incr (ms)", "full (ms)", "speedup"
    );
    let row = |label: &str, s: &IncrStats, full_total: f64| {
        println!(
            "{label:<22} {:>4}/{:<4} {:>9} {:>11.3} {:>11.3} {:>8.2}x",
            s.rechecked,
            s.slots,
            s.hits,
            s.total_seconds * 1e3,
            full_total * 1e3,
            full_total / s.total_seconds.max(1e-9),
        );
    };

    // ---- Cold ----
    let (cold, cold_full_total, cold_full_check) = step(
        &mut session,
        &base.name,
        &base.source,
        opts.intra_jobs,
        "cold",
    );
    assert!(cold.cold);
    row("cold", &cold, cold_full_total);

    // ---- Seeded single-function edits ----
    let mut rows: Vec<EditRow> = Vec::new();
    for i in 0..edits {
        let kind = if i.is_multiple_of(2) {
            MegaEditKind::Compute
        } else {
            MegaEditKind::BreakLock
        };
        let e = mega_edit(seed, funs, i as u64, kind);
        let what = format!("edit {i} ({})", edit_kind_label(kind));
        let (stats, full_total, full_check_secs) = step(
            &mut session,
            &e.module.name,
            &e.module.source,
            opts.intra_jobs,
            &what,
        );
        // The generator's closed-form triple must hold for the edited
        // module (the from-scratch reports already matched above, so an
        // immediate byte-identical repeat reads the same reports back).
        let out = session
            .analyze(&e.module.source)
            .expect("re-analysis parses");
        assert!(out.stats.module_hit, "immediate repeat is a module hit");
        let counts: Vec<usize> = out.reports.iter().map(LockReport::error_count).collect();
        assert_eq!(
            counts,
            vec![
                e.module.expect.no_confine,
                e.module.expect.confine,
                e.module.expect.all_strong
            ],
            "{what}: closed-form triple"
        );
        row(&what, &stats, full_total);
        rows.push(EditRow {
            label: edit_kind_label(kind).to_string(),
            function: e.function.clone().unwrap_or_default(),
            stats,
            full_total,
            full_check: full_check_secs,
        });
    }

    // ---- No-op edits ----
    let last = if edits > 0 {
        let kind = if (edits - 1).is_multiple_of(2) {
            MegaEditKind::Compute
        } else {
            MegaEditKind::BreakLock
        };
        mega_edit(seed, funs, (edits - 1) as u64, kind).module
    } else {
        base.clone()
    };
    let ws_source = format!("{}// watch no-op\n", last.source);
    let (ws, ws_full_total, _) = step(
        &mut session,
        &last.name,
        &ws_source,
        opts.intra_jobs,
        "whitespace no-op",
    );
    assert_eq!(ws.rechecked, 0, "canonical no-op must recheck nothing");
    row("noop (whitespace)", &ws, ws_full_total);

    let t0 = Instant::now();
    let repeat = session.analyze(&ws_source).expect("repeat parses");
    let repeat_seconds = t0.elapsed().as_secs_f64();
    assert!(
        repeat.stats.module_hit,
        "byte-identical repeat is a module hit"
    );
    println!(
        "{:<22} {:>4}/{:<4} {:>9} {:>11.3}",
        "noop (byte-identical)",
        0,
        repeat.stats.slots,
        repeat.stats.hits,
        repeat_seconds * 1e3,
    );

    let run = Run {
        seed,
        funs,
        intra_jobs: opts.intra_jobs,
        cold,
        cold_full: (cold_full_total, cold_full_check),
        rows,
        ws,
        repeat_seconds,
    };
    let m = run.means();
    println!();
    println!(
        "edits: mean recheck fraction {:.1}% — check phase {:.3} ms vs {:.3} ms full \
         ({:.1}x), end-to-end {:.3} ms vs {:.3} ms full ({:.2}x)",
        m.fraction * 100.0,
        m.incr_check * 1e3,
        m.full_check * 1e3,
        m.check_speedup(),
        m.incr_total * 1e3,
        m.full_total * 1e3,
        m.total_speedup(),
    );
    println!(
        "(end-to-end stays analysis-dominated: parse + alias/confine analysis re-run \
         whole-module; only the check phase is incremental)"
    );

    let obs_report = match finish_obs(&opts) {
        Ok(r) => r,
        Err(e) => {
            obs::error!("watch: {e}");
            std::process::exit(1);
        }
    };

    if let Some(path) = &opts.bench_out {
        if let Err(e) = std::fs::write(path, run.report(&obs_report)) {
            obs::error!("watch: {path}: {e}");
            std::process::exit(1);
        }
        println!("(wrote {path})");
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
        let stats = |total_seconds: f64| IncrStats {
            slots: 6,
            rechecked: 2,
            total_seconds,
            check_seconds: total_seconds / 10.0,
            ..IncrStats::default()
        };
        let run = Run {
            seed: 1,
            funs: 3,
            intra_jobs: 1,
            cold: stats(0.05),
            cold_full: (0.05, 0.01),
            rows: vec![EditRow {
                label: "compute".into(),
                function: "f0".into(),
                stats: stats(0.02),
                full_total: 0.05,
                full_check: 0.01,
            }],
            ws: stats(0.01),
            repeat_seconds: 0.0001,
        };
        let text = run.report(&ObsReport::default());
        testkit::assert_writer_contract(&text, &["edit", "mean_total_seconds"]);
    }
}
