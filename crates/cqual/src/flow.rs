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
//! 2. **Build** the [`crate::callgraph::CallGraph`] and its
//!    deterministic bottom-up schedule. [`check_modes`] builds one graph
//!    and one base context for all three modes, and times the two
//!    analyses and the checks under timed spans ([`CheckTimes`]).
//! 3. **Walk** the schedule once per mode: check each function
//!    ([`crate::intra::check_function`]) against the frozen facts and
//!    the summaries of the functions checked before it, append its errors
//!    and sites to the report, and store its summary in a slot indexed by
//!    node id.
//!
//! Interprocedural behaviour goes through per-function summaries applied
//! bottom-up: a call applies its callee's summary when the callee's slot
//! is filled, and calls into recursive cycles that are not yet summarized
//! conservatively havoc the store. See `crates/cqual/src/intra.rs` for
//! where the paper's restrict/confine machinery plugs into the
//! per-function walk.

use crate::callgraph::CallGraph;
use crate::intra::{check_function, CheckContext, Walk};
use crate::report::LockReport;
use localias_alias::FrozenLocs;
use localias_ast::{FunDef, Module};
use localias_core::{Analysis, SharedAnalysis};
use localias_obs as obs;
use std::time::Duration;

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

/// Checks the locking behaviour of `m` under `mode`, running the
/// appropriate `localias-core` analysis first.
pub fn check_locks(m: &Module, mode: Mode) -> LockReport {
    let mut shared = SharedAnalysis::new(m);
    let (analysis, frozen) = mode.analysis(&mut shared);
    check_locks_frozen(m, analysis, frozen, mode, 1)
}

/// What [`check_modes`] spent, read from its timed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckTimes {
    /// The base analysis and its freeze (`core.base`).
    pub base: Duration,
    /// Confine inference and its freeze (`core.confine`).
    pub confine: Duration,
    /// The call graph and the three mode checks (`cqual.check`).
    pub check: Duration,
}

/// Checks the module of `shared` in all three modes, in [`MODES`] order,
/// sequentially, and says how long each step took.
///
/// `Mode::NoConfine` and `Mode::AllStrong` both consume the base
/// analysis; `Mode::Confine` consumes the confine-inference analysis.
/// The checker reads an analysis only through its frozen location
/// snapshot, so the memoized analyses of `shared` serve every mode (two
/// analyses per module, not three), one call graph serves all three
/// checks, and `AllStrong` re-tags the base context instead of building
/// its own. The reports are byte-identical to fresh per-mode
/// [`check_locks`] runs.
///
/// Each analysis (with its freeze) and the checks run under a timed
/// span — `core.base`, `core.confine`, `cqual.check` — whose durations
/// come back as [`CheckTimes`]. An analysis `shared` already holds is
/// not run again, so its span times only the lookup.
pub fn check_modes(shared: &mut SharedAnalysis) -> ([LockReport; 3], CheckTimes) {
    let span = obs::Span::timed("core.base");
    shared.base_frozen();
    let base = span.close();
    let span = obs::Span::timed("core.confine");
    shared.confine_frozen();
    let confine = span.close();
    let m = shared.module();
    let ((base_a, base_f), (conf_a, conf_f)) = shared.both_frozen();
    let span = obs::Span::timed("cqual.check");
    let graph = CallGraph::build(m);
    let defs = definitions(m, &graph);
    let base_cx = CheckContext::new(m, base_a, base_f, Mode::NoConfine, &graph);
    let confine_cx = CheckContext::new(m, conf_a, conf_f, Mode::Confine, &graph);
    let mut walk = Walk::default();
    let no_confine = check_schedule(&defs, &base_cx, &mut walk);
    let confine_report = check_schedule(&defs, &confine_cx, &mut walk);
    let all_strong = check_schedule(&defs, &base_cx.with_mode(Mode::AllStrong), &mut walk);
    let times = CheckTimes {
        base,
        confine,
        check: span.close(),
    };
    ([no_confine, confine_report, all_strong], times)
}

/// Checks locking against a frozen analysis, building the module's call
/// graph and walking its schedule once.
///
/// `intra_jobs` is kept only so the benchmark crate's calls keep their
/// signature; the checker is sequential and the value must be 1.
pub fn check_locks_frozen(
    m: &Module,
    analysis: &Analysis,
    frozen: &FrozenLocs,
    mode: Mode,
    intra_jobs: usize,
) -> LockReport {
    assert_eq!(intra_jobs, 1, "the lock checker is sequential");
    let _span = obs::span!("cqual.check");
    let graph = CallGraph::build(m);
    let cx = CheckContext::new(m, analysis, frozen, mode, &graph);
    check_schedule(&definitions(m, &graph), &cx, &mut Walk::default())
}

/// The definition each node of `graph` stands for. With duplicate
/// definitions the later one wins (legacy behaviour of the name-keyed
/// function map).
fn definitions<'m>(m: &'m Module, graph: &CallGraph) -> Vec<Option<&'m FunDef>> {
    let mut defs = vec![None; graph.len()];
    for (f, &v) in m.functions().zip(graph.defs()) {
        defs[v] = Some(f);
    }
    defs
}

/// Walks `cx`'s schedule over the definitions `defs` once: each function
/// is checked, its errors and sites go to the report, and its summary
/// fills its slot. In schedule order a filled slot means exactly that
/// the callee comes earlier in the order.
fn check_schedule(defs: &[Option<&FunDef>], cx: &CheckContext<'_>, walk: &mut Walk) -> LockReport {
    walk.reset(cx.graph.len());
    for &v in cx.graph.order() {
        let f = defs[v].expect("every node is a defined function");
        check_function(cx, walk, f, v);
    }
    LockReport {
        errors: std::mem::take(&mut walk.errors),
        sites: walk.sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_alias::Backend;

    /// The shared-analysis path equals fresh per-mode checks, also on the
    /// schedule's corner cases: a self-recursive callee scheduled after
    /// its caller, mutual recursion, and functions downstream of a cycle.
    #[test]
    fn check_modes_matches_per_mode_checks() {
        let simple = r#"
            lock l;
            void locker() { spin_lock(&l); }
            void unlocker() { spin_unlock(&l); }
            void seq() { locker(); unlocker(); }
        "#;
        let cyclic = r#"
            lock gl;
            lock arr[8];
            extern void work();
            void zrec(int n) { spin_lock(&gl); zrec(n); spin_unlock(&gl); }
            void arec(int n) { arec(n); spin_lock(&gl); spin_unlock(&gl); }
            void even(int n) { odd(n); }
            void odd(int n) { even(n); }
            void down(int n) { even(n); spin_lock(&arr[n]); work(); spin_unlock(&arr[n]); }
            void caller(int n) { arec(n); zrec(n); down(n); }
            void leaf(int i) { spin_lock(&arr[i]); work(); spin_unlock(&arr[i]); }
            void mid1(int i) { leaf(i); }
            void mid2(int i) { leaf(i); }
            void top(int i) { mid1(i); mid2(i); }
        "#;
        for src in [simple, cyclic] {
            let m = localias_ast::parse_module("t", src).expect("parse");
            let (all, _) = check_modes(&mut SharedAnalysis::new(&m));
            for (mode, got) in MODES.into_iter().zip(&all) {
                assert_eq!(got, &check_locks(&m, mode), "{mode:?}");
            }
        }
    }

    /// The checker consumes *only* the frozen snapshot: once a
    /// [`FrozenLocs`](localias_alias::FrozenLocs) view is captured,
    /// mutating the live location table must not change the report. The
    /// Andersen refinement (`localias_alias::backend`) relies on this: a
    /// freeze only has to produce a snapshot, never to keep the live
    /// table in sync with it.
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
        let (got, _) = check_modes(&mut shared);
        assert_eq!(got, MODES.map(|mode| check_locks(&m, mode)));
    }

    /// End-to-end precision win: on a module where unification conflates
    /// two locks that inclusion-based analysis keeps apart, the Andersen
    /// backend eliminates the spurious weak-update errors in the
    /// no-confine baseline, and all three modes still run to completion.
    /// Only the library reaches this freeze: `localias` runs Steensgaard
    /// alone, which gives the same §7 and fuzz numbers (DESIGN.md §11).
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
        let ([steens, ..], _) = check_modes(&mut SharedAnalysis::new(&m));
        let ([anders, ..], _) =
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
