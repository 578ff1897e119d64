//! The interprocedural lock-checking pipeline.
//!
//! This module is the *scheduler*; the actual abstract interpretation
//! lives in [`crate::intra`], the call-graph structure in
//! [`crate::callgraph`], and the interprocedural artifacts in
//! [`crate::summary`]. Checking a module is:
//!
//! 1. **Freeze** the analysis' location table ([`localias_core::Analysis::freeze`])
//!    — after analysis no unification ever happens again, so resolution
//!    becomes an immutable, `Sync` lookup.
//! 2. **Build** the [`crate::callgraph::CallGraph`]: Tarjan SCC
//!    condensation, a deterministic bottom-up schedule, and a wave
//!    partition of the summary-dependency DAG.
//! 3. **Check** each function ([`crate::intra::check_function`]) against
//!    the frozen facts and its dependencies' published summaries — wave
//!    by wave, each wave's functions in parallel when `intra_jobs > 1`.
//! 4. **Assemble** the report in schedule order, so the output is
//!    byte-identical for every thread count (and to the historical
//!    sequential checker).
//!
//! Interprocedural behaviour goes through per-function summaries applied
//! bottom-up; calls into recursive cycles conservatively havoc the
//! store. See `crates/cqual/src/intra.rs` for where the paper's
//! restrict/confine machinery plugs into the per-function walk.

use crate::fx::FxHashMap;
use crate::intra::{check_function, CheckContext, FunOutcome};
use crate::report::LockReport;
use crate::summary::Summaries;
use localias_alias::FrozenLocs;
use localias_ast::{FunDef, Module};
use localias_core::{Analysis, SharedAnalysis};
use localias_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The three analysis modes of the Section 7 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain analysis: strong updates only where aliasing already permits
    /// them (single-object locations such as scalar global locks).
    NoConfine,
    /// Run confine inference first; inferred confines introduce
    /// single-object locations at the lock sites they cover.
    Confine,
    /// Pretend every update is strong — the upper bound on what any
    /// amount of confining could recover.
    AllStrong,
}

impl Mode {
    /// The analysis this mode checks against, with its frozen snapshot,
    /// computed on first use by `shared`: the base analysis for
    /// `NoConfine` and `AllStrong`, the confine-inference analysis for
    /// `Confine`.
    pub fn analysis<'s>(self, shared: &'s mut SharedAnalysis) -> (&'s Analysis, &'s FrozenLocs) {
        match self {
            Mode::Confine => shared.confine_frozen(),
            Mode::NoConfine | Mode::AllStrong => shared.base_frozen(),
        }
    }
}

/// The three experiment modes, in report order (matching the corpus
/// `Expected` triple: no-confine, confine, all-strong).
pub const MODES: [Mode; 3] = [Mode::NoConfine, Mode::Confine, Mode::AllStrong];

/// Per-wave execution record of one checker run.
#[derive(Debug, Clone)]
pub struct WaveStat {
    /// Number of functions checked in this wave.
    pub functions: usize,
    /// Wall-clock seconds the wave took.
    pub seconds: f64,
    /// Wall-clock seconds of the single slowest function in the wave —
    /// the straggler that bounds how much parallelism can help.
    pub max_fun_seconds: f64,
}

/// Execution statistics of one [`check_locks_frozen_timed`] run.
#[derive(Debug, Clone)]
pub struct IntraStats {
    /// Worker threads the run was allowed to use per wave.
    pub threads: usize,
    /// Number of defined functions checked.
    pub functions: usize,
    /// Number of SCCs in the call graph's condensation.
    pub sccs: usize,
    /// Per-wave records, in schedule order.
    pub waves: Vec<WaveStat>,
}

impl IntraStats {
    /// Total wall-clock seconds across all waves.
    pub fn total_seconds(&self) -> f64 {
        self.waves.iter().map(|w| w.seconds).sum()
    }
}

/// Checks the locking behaviour of `m` under `mode`, running the
/// appropriate `localias-core` analysis first.
pub fn check_locks(m: &Module, mode: Mode) -> LockReport {
    check_mode(&mut SharedAnalysis::new(m), mode)
}

/// Checks the module of `shared` in all three modes, in [`MODES`] order,
/// sequentially.
///
/// `Mode::NoConfine` and `Mode::AllStrong` both consume the base
/// analysis; `Mode::Confine` consumes the confine-inference analysis.
/// The checker reads an analysis only through its frozen location
/// snapshot, so the memoized analyses of `shared` serve every mode (two
/// analyses per module, not three) and the reports are byte-identical to
/// fresh per-mode [`check_locks`] runs.
pub fn check_modes(shared: &mut SharedAnalysis) -> [LockReport; 3] {
    MODES.map(|mode| check_mode(shared, mode))
}

/// One mode's check against the analysis `shared` memoizes for it.
fn check_mode(shared: &mut SharedAnalysis, mode: Mode) -> LockReport {
    let m = shared.module();
    let (analysis, frozen) = mode.analysis(shared);
    check_locks_frozen(m, analysis, frozen, mode, 1)
}

/// Checks locking against a frozen analysis with up to `intra_jobs`
/// worker threads per wave (`0` = one per available core, `1` =
/// sequential).
///
/// The report is byte-identical for every `intra_jobs` value: functions
/// are checked wave-by-wave (so every summary a function consumes is
/// published first), and errors are assembled in schedule order.
pub fn check_locks_frozen(
    m: &Module,
    analysis: &Analysis,
    frozen: &FrozenLocs,
    mode: Mode,
    intra_jobs: usize,
) -> LockReport {
    check_locks_frozen_timed(m, analysis, frozen, mode, intra_jobs).0
}

/// Like [`check_locks_frozen`], also returning per-wave execution
/// statistics.
pub fn check_locks_frozen_timed(
    m: &Module,
    analysis: &Analysis,
    frozen: &FrozenLocs,
    mode: Mode,
    intra_jobs: usize,
) -> (LockReport, IntraStats) {
    let _span = obs::span!("cqual.check");
    let cx = CheckContext::new(m, analysis, frozen, mode);
    let threads = resolve_jobs(intra_jobs);
    // With duplicate definitions the later one wins (legacy behaviour of
    // the name-keyed function map).
    let by_name: FxHashMap<&str, &FunDef> =
        m.functions().map(|f| (f.name.name.as_str(), f)).collect();

    let n = cx.graph.len();
    let mut outcomes: Vec<Option<FunOutcome>> = (0..n).map(|_| None).collect();
    let mut summaries: Summaries = Summaries::default();
    let mut stats = IntraStats {
        threads,
        functions: n,
        sccs: cx.graph.scc_count(),
        waves: Vec::with_capacity(cx.graph.waves().len()),
    };

    for wave in cx.graph.waves() {
        obs::count(obs::Counter::CqualWaves, 1);
        let wave_span = obs::span!("cqual.wave");
        let started = Instant::now();
        let mut max_fun_seconds = 0.0f64;
        if threads <= 1 || wave.len() <= 1 {
            for &v in wave {
                if let Some(f) = by_name.get(cx.graph.name(v)) {
                    let t0 = Instant::now();
                    outcomes[v] = Some(check_function(&cx, &summaries, f));
                    max_fun_seconds = max_fun_seconds.max(t0.elapsed().as_secs_f64());
                }
            }
        } else {
            for (v, out, secs) in check_wave_parallel(&cx, &summaries, &by_name, wave, threads) {
                outcomes[v] = Some(out);
                max_fun_seconds = max_fun_seconds.max(secs);
            }
        }
        // Publish the wave's summaries (in schedule order) before the
        // next wave starts.
        for &v in wave {
            if let Some(out) = &outcomes[v] {
                summaries.insert(cx.graph.name(v).to_string(), out.summary.clone());
            }
        }
        obs::record_duration(obs::Hist::CheckWave, started.elapsed());
        drop(wave_span);
        stats.waves.push(WaveStat {
            functions: wave.len(),
            seconds: started.elapsed().as_secs_f64(),
            max_fun_seconds,
        });
    }

    // Assemble in schedule order — the exact order the sequential
    // checker emitted errors in.
    let mut report = LockReport::default();
    for &v in cx.graph.order() {
        if let Some(out) = outcomes[v].take() {
            report.errors.extend(out.errors);
            report.sites += out.sites;
        }
    }
    (report, stats)
}

/// Checks one wave's functions on `threads` scoped worker threads with
/// an atomic work-stealing cursor (the same pool shape the corpus sweep
/// uses), returning `(node, outcome, seconds)` triples. Workers record
/// their spans under the spawner's current span path (via
/// [`obs::fork`]), so the merged span tree is identical to a sequential
/// run's.
pub(crate) fn check_wave_parallel(
    cx: &CheckContext<'_>,
    summaries: &Summaries,
    by_name: &FxHashMap<&str, &FunDef>,
    wave: &[usize],
    threads: usize,
) -> Vec<(usize, FunOutcome, f64)> {
    let workers = threads.min(wave.len());
    let next = AtomicUsize::new(0);
    let span_cx = obs::fork();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let span_cx = span_cx.clone();
                s.spawn(move || {
                    let _attached = span_cx.attach();
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&v) = wave.get(i) else { break };
                        if let Some(f) = by_name.get(cx.graph.name(v)) {
                            let t0 = Instant::now();
                            let out = check_function(cx, summaries, f);
                            got.push((v, out, t0.elapsed().as_secs_f64()));
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker thread panicked"))
            .collect()
    })
}

/// Resolves an `--intra-jobs` value: `0` means one worker per available
/// core.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_alias::Backend;

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn check_modes_matches_per_mode_checks_at_any_thread_count() {
        let m = localias_ast::parse_module(
            "t",
            r#"
            lock l;
            void locker() { spin_lock(&l); }
            void unlocker() { spin_unlock(&l); }
            void seq() { locker(); unlocker(); }
            "#,
        )
        .expect("parse");
        let mut shared = SharedAnalysis::new(&m);
        let all = check_modes(&mut shared);
        for (mode, got) in MODES.into_iter().zip(&all) {
            assert_eq!(got, &check_locks(&m, mode), "{mode:?}");
            for jobs in [2, 8] {
                let (analysis, frozen) = mode.analysis(&mut shared);
                let parallel = check_locks_frozen(&m, analysis, frozen, mode, jobs);
                assert_eq!(&parallel, got, "{mode:?} jobs={jobs}");
            }
        }
    }

    /// The checker consumes *only* the frozen snapshot: once a
    /// [`FrozenLocs`](localias_alias::FrozenLocs) view is captured,
    /// mutating the live location table must not change the report. This
    /// is the invariant that makes alias backends pluggable — a backend
    /// only has to produce a snapshot, never to keep the live table in
    /// sync with it.
    #[test]
    fn checker_reads_only_the_frozen_view() {
        let m = localias_ast::parse_module(
            "t",
            r#"
            lock a;
            lock b;
            extern void work();
            void f() {
                spin_lock(&a); work(); spin_unlock(&a);
                spin_lock(&b); work(); spin_unlock(&b);
            }
            "#,
        )
        .expect("parse");
        for mode in MODES {
            let mut a = localias_core::check(&m);
            let frozen = a.freeze();
            let base = check_locks_frozen(&m, &a, &frozen, mode, 1);
            // Vandalize the live table: merge everything into one tainted,
            // weakly-updatable class.
            let n = a.state.locs.len() as u32;
            for i in 1..n {
                a.state
                    .locs
                    .union_raw(localias_alias::Loc(0), localias_alias::Loc(i));
            }
            a.state.locs.taint(localias_alias::Loc(0));
            a.state.locs.raise_multiplicity(
                localias_alias::Loc(0),
                localias_alias::loc::Multiplicity::Many,
            );
            let got = check_locks_frozen(&m, &a, &frozen, mode, 1);
            assert_eq!(
                got, base,
                "{mode:?}: live-table mutation leaked into the report"
            );
        }
    }

    /// The Steensgaard backend selected explicitly through
    /// [`SharedAnalysis::new_with_backend`](localias_core::SharedAnalysis::new_with_backend)
    /// is byte-identical to the historical default path, across all three
    /// modes.
    #[test]
    fn steensgaard_backend_reports_are_byte_identical() {
        let m = localias_ast::parse_module(
            "t",
            r#"
            lock l;
            lock other;
            void locker() { spin_lock(&l); }
            void unlocker() { spin_unlock(&l); }
            void seq() { locker(); unlocker(); spin_lock(&other); spin_unlock(&other); }
            "#,
        )
        .expect("parse");
        let mut shared = SharedAnalysis::new_with_backend(&m, Backend::Steensgaard);
        let got = check_modes(&mut shared);
        assert_eq!(got, MODES.map(|mode| check_locks(&m, mode)));
    }

    /// End-to-end precision win: on a module where unification conflates
    /// two locks that inclusion-based analysis keeps apart, the Andersen
    /// backend eliminates the spurious weak-update errors in the
    /// no-confine baseline, and all three modes still run to completion.
    #[test]
    fn andersen_backend_eliminates_spurious_conflation_errors() {
        let m = localias_ast::parse_module(
            "t",
            r#"
            lock a;
            lock b;
            extern void work();
            void f() {
                spin_lock(&a); work(); spin_unlock(&a);
                spin_lock(&b); work(); spin_unlock(&b);
            }
            void g() {
                lock *x;
                lock *y;
                x = &a;
                y = &b;
                x = y;
            }
            "#,
        )
        .expect("parse");
        // `check_modes` runs every mode, so the refined classes must not
        // break the other two either.
        let [steens, ..] = check_modes(&mut SharedAnalysis::new(&m));
        let [anders, ..] =
            check_modes(&mut SharedAnalysis::new_with_backend(&m, Backend::Andersen));
        assert!(
            steens.error_count() > 0,
            "Steensgaard should conflate a with b and report weak-update errors"
        );
        assert!(
            anders.error_count() < steens.error_count(),
            "Andersen ({}) should beat Steensgaard ({}) on the conflated module",
            anders.error_count(),
            steens.error_count()
        );
    }
}
