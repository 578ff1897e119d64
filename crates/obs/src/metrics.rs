//! Named monotonic counters.
//!
//! A fixed registry of process-global `AtomicU64`s, incremented with
//! relaxed ordering. Addition commutes, so whatever thread layout the
//! pipeline ran under, the totals a [`Metrics`] snapshot reports are
//! byte-identical — the property the determinism tests pin.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global gate for counter collection (see [`crate::enable_metrics`]).
pub(crate) static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` if counters are being collected.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

macro_rules! counters {
    ($( $(#[$doc:meta])* $variant:ident => $name:literal, )+) => {
        /// Every named counter the pipeline can bump.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $( $(#[$doc])* $variant, )+
        }

        /// Number of counters in the registry.
        pub const COUNTER_COUNT: usize = [$( Counter::$variant ),+].len();

        /// All counters, in declaration order.
        pub const ALL_COUNTERS: [Counter; COUNTER_COUNT] = [$( Counter::$variant ),+];

        /// The stable dotted name a counter serializes under.
        pub fn counter_name(c: Counter) -> &'static str {
            match c {
                $( Counter::$variant => $name, )+
            }
        }

        // Derived `Default` stops at 32-element arrays, so the registry
        // generates this impl itself: adding a counter stays a one-line
        // change to the list below.
        impl Default for Metrics {
            fn default() -> Self {
                Metrics {
                    vals: [0; COUNTER_COUNT],
                }
            }
        }
    };
}

counters! {
    /// Abstract locations allocated (`LocTable::fresh`).
    AliasFreshLocs => "alias.fresh_locs",
    /// Location-class unifications performed (`ρ1 = ρ2` merges).
    AliasUnifications => "alias.unifications",
    /// Union-find `find` operations (live table and frozen snapshot).
    AliasFindOps => "alias.find_ops",
    /// Freezes performed by the Steensgaard backend (identity capture).
    BackendSteensgaardFreezes => "alias.backend.steensgaard_freezes",
    /// Freezes performed by the Andersen backend (points-to refinement).
    BackendAndersenFreezes => "alias.backend.andersen_freezes",
    /// Steensgaard classes the Andersen backend split into finer classes.
    BackendSplitClasses => "alias.backend.split_classes",
    /// Effect variables allocated.
    EffectVars => "effects.vars",
    /// Constraint edges added (inclusions + equations).
    ConstraintEdges => "effects.constraint_edges",
    /// Deliveries during least-solution propagation: each one unions a
    /// node's whole per-kind location bitsets into a successor along one
    /// graph edge. Counted in a local and added once per solve.
    DeliverOps => "effects.deliver_ops",
    /// Conditional-constraint fixpoint rounds.
    SolveRounds => "effects.solve_rounds",
    /// Conditional constraints fired.
    ConditionalsFired => "effects.conditionals_fired",
    /// Single-location `CHECK-SAT` reachability queries.
    CheckSatQueries => "effects.checksat_queries",
    /// Nodes visited across all `CHECK-SAT` queries.
    CheckSatNodes => "effects.checksat_nodes",
    /// Edges traversed across all `CHECK-SAT` queries.
    CheckSatEdges => "effects.checksat_edges",
    /// Modules run through the full analysis pipeline.
    ModulesAnalyzed => "core.modules_analyzed",
    /// Functions checked by the flow-sensitive lock checker.
    CqualFunctionsChecked => "cqual.functions_checked",
    /// Statements the lock checker visits, loop passes included: only
    /// those that can change a lock state. Counted in a local and added
    /// once per function check.
    CqualStmtsWalked => "cqual.stmts_walked",
    /// Nothing increments this counter: the lock checker walks its
    /// schedule once, with no waves, so it always reads 0. It is kept
    /// only because the `benchmark/` workspace still reads it as the
    /// per-layer metric `cqual.waves`.
    CqualWaves => "cqual.waves",
    /// Lock acquire/release sites verified.
    CqualLockSites => "cqual.lock_sites",
    /// Lock-state errors reported.
    CqualErrors => "cqual.errors",
    /// Cache store-lock acquisition retries.
    CacheLockRetries => "cache.lock_retries",
    /// Cache persists skipped because the store stayed locked.
    CacheLockSkips => "cache.lock_skips",
    /// Cache stores quarantined as corrupt or version-stale.
    CacheQuarantined => "cache.quarantined",
    /// Watch session: analyses answered without parsing (source
    /// byte-identical to the previous one).
    IncrModuleHits => "incr.module_hits",
    /// Differential fuzzing: modules generated and checked.
    FuzzModules => "fuzz.modules",
    /// Differential fuzzing: entry functions executed under the oracle.
    FuzzEntries => "fuzz.entries",
    /// Differential fuzzing: interpreter runs (entry × argument tuple).
    FuzzRuns => "fuzz.runs",
    /// Differential fuzzing: dynamic lock faults the oracle observed.
    FuzzDynFaults => "fuzz.dyn_faults",
    /// Differential fuzzing: soundness divergences (dynamic fault with no
    /// static error in the entry's reachable region, or a Theorem-1
    /// restrict violation in a check-clean module).
    FuzzUnsound => "fuzz.unsound",
    /// Differential fuzzing: statically flagged functions that never
    /// faulted dynamically (false-positive tally).
    FuzzFalsePositives => "fuzz.false_positives",
    /// Counterexample shrinker: candidate edits attempted.
    FuzzShrinkCandidates => "fuzz.shrink_candidates",
    /// Counterexample shrinker: edits accepted (divergence preserved).
    FuzzShrinkSteps => "fuzz.shrink_steps",
    /// Peak resident-set size of the process, in bytes (high-water mark;
    /// recorded with [`gauge_max`], so concurrent flushes keep the max).
    MemPeakRssBytes => "mem.peak_rss_bytes",
    /// Bytes of identifier text held in AST symbol arenas (cumulative).
    MemArenaBytes => "mem.arena_bytes",
    /// Bytes the symbol arenas avoided allocating via interning dedup.
    MemArenaSavedBytes => "mem.arena_saved_bytes",
}

/// The registry itself.
static COUNTERS: [AtomicU64; COUNTER_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; COUNTER_COUNT]
};

/// Adds `n` to counter `c`. One relaxed load + branch when collection is
/// disabled; one relaxed add when enabled.
#[inline]
pub fn count(c: Counter, n: u64) {
    if METRICS_ENABLED.load(Ordering::Relaxed) {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises counter `c` to at least `v` (a high-water-mark gauge). Unlike
/// [`count`], repeated flushes of the same measurement don't accumulate:
/// `fetch_max` keeps the largest value seen since the last drain.
#[inline]
pub fn gauge_max(c: Counter, v: u64) {
    if METRICS_ENABLED.load(Ordering::Relaxed) {
        COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// The process's peak resident-set size in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs
/// or if the field is missing — callers treat 0 as "unavailable".
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// Takes every counter's value, resetting it to zero.
pub(crate) fn take_counters() -> Metrics {
    let mut vals = [0u64; COUNTER_COUNT];
    for (i, slot) in COUNTERS.iter().enumerate() {
        vals[i] = slot.swap(0, Ordering::Relaxed);
    }
    Metrics { vals }
}

/// A point-in-time snapshot of every counter: the `Metrics` handle the
/// pipeline's observers hold. Obtained from [`crate::drain`] (which
/// resets the registry) as part of a [`crate::Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    pub(crate) vals: [u64; COUNTER_COUNT],
}

impl Metrics {
    /// The value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Iterates `(name, value)` pairs in declaration order, skipping
    /// zero counters.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL_COUNTERS
            .iter()
            .map(|&c| (counter_name(c), self.get(c)))
            .filter(|&(_, v)| v != 0)
    }

    /// `true` if every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_COUNTERS.iter().map(|&c| counter_name(c)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT, "duplicate counter name");
    }

    #[test]
    fn gauge_max_keeps_high_water_mark() {
        let _l = crate::test_lock();
        crate::enable_metrics();
        let _ = take_counters();
        gauge_max(Counter::MemPeakRssBytes, 100);
        gauge_max(Counter::MemPeakRssBytes, 40);
        gauge_max(Counter::MemPeakRssBytes, 70);
        crate::disable_metrics();
        assert_eq!(take_counters().get(Counter::MemPeakRssBytes), 100);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // Any running test binary has touched at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM should be over 1 MiB, got {rss}");
        }
    }

    #[test]
    fn disabled_count_is_dropped() {
        let _l = crate::test_lock();
        crate::disable_metrics();
        let _ = take_counters();
        count(Counter::CacheLockRetries, 5);
        assert_eq!(take_counters().get(Counter::CacheLockRetries), 0);
        crate::enable_metrics();
        count(Counter::CacheLockRetries, 5);
        count(Counter::CacheLockRetries, 2);
        crate::disable_metrics();
        assert_eq!(take_counters().get(Counter::CacheLockRetries), 7);
    }
}
