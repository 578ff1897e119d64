//! Deterministic, mergeable log2-bucketed latency histograms.
//!
//! Counters say how *often*; spans say how *long in aggregate*.
//! Histograms say how long *per event*, which is the only way tail
//! latency (p95/p99 — what a serving tier promises) becomes visible:
//! a mean hides one 40 ms module behind five hundred 60 µs ones.
//!
//! The collection discipline mirrors spans: samples accumulate in a
//! thread-local table and flush into a process-global merge whenever a
//! worker detaches its [`crate::SpanContext`] (the attach guard's drop)
//! or the trace drains. Bucket addition commutes, so the merged
//! histogram is byte-identical for any thread layout that records the
//! same multiset of values — the same determinism contract the span
//! tree and counters already keep for any `--jobs` value.
//!
//! **Bucket scheme.** [`HIST_BUCKETS`] (64) logarithmic buckets: a
//! value lands in the bucket indexed by its bit length — bucket 0 holds
//! exactly 0, bucket *i* (1 ≤ i ≤ 62) holds `[2^(i−1), 2^i − 1]`, and
//! bucket 63 holds everything ≥ 2^62. Exact count/sum/min/max ride
//! alongside the buckets, and a percentile resolves to the inclusive
//! upper bound of the bucket holding the rank-⌈pct·count/100⌉ sample,
//! clamped to the observed max. That makes p50/p90/p95/p99 a pure
//! integer function of the bucket counts: deterministic across runs of
//! the same multiset and exactly assertable in tests, at a bounded
//! relative error of <2× (one bucket) against the true sample.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Global gate for histogram collection (see [`crate::enable_hists`]).
pub(crate) static HISTS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` if histograms are being collected.
#[inline]
pub fn hists_enabled() -> bool {
    HISTS_ENABLED.load(Ordering::Relaxed)
}

/// Number of log2 buckets per histogram.
pub const HIST_BUCKETS: usize = 64;

macro_rules! hists {
    ($( $(#[$doc:meta])* $variant:ident => $name:literal, )+) => {
        /// Every named latency histogram the pipeline can record into.
        /// Values are nanoseconds by convention ([`record_duration`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Hist {
            $( $(#[$doc])* $variant, )+
        }

        /// Number of histograms in the registry.
        pub const HIST_COUNT: usize = [$( Hist::$variant ),+].len();

        /// All histograms, in declaration order.
        pub const ALL_HISTS: [Hist; HIST_COUNT] = [$( Hist::$variant ),+];

        /// The stable dotted name a histogram serializes under.
        pub fn hist_name(h: Hist) -> &'static str {
            match h {
                $( Hist::$variant => $name, )+
            }
        }

        /// Resolves a serialized histogram name back to its [`Hist`].
        pub fn hist_by_name(name: &str) -> Option<Hist> {
            match name {
                $( $name => Some(Hist::$variant), )+
                _ => None,
            }
        }
    };
}

hists! {
    /// Full analysis pipeline per module (alias walk, effect solving,
    /// confine inference; parsing excluded).
    AnalyzeModule => "analyze.module",
    /// Flow-sensitive lock check of one function under one mode.
    CheckFunction => "check.function",
    /// One call-graph wave of the check schedule (all modes).
    CheckWave => "check.wave",
    /// Result-cache shard read + parse on load.
    CacheShardLoad => "cache.shard_load",
    /// Result-cache shard serialize + locked rename on persist.
    CacheShardPersist => "cache.shard_persist",
    /// Differential fuzzing: one interpreter-oracle entry execution.
    FuzzExecute => "fuzz.execute",
    /// Differential fuzzing: one module checked under all three modes.
    FuzzCheck => "fuzz.check",
}

/// One histogram's accumulator: exact moments plus dense buckets.
#[derive(Clone, Copy)]
struct HistAcc {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

const EMPTY_ACC: HistAcc = HistAcc {
    count: 0,
    sum: 0,
    min: 0,
    max: 0,
    buckets: [0; HIST_BUCKETS],
};

thread_local! {
    static TLS_HISTS: RefCell<[HistAcc; HIST_COUNT]> =
        const { RefCell::new([EMPTY_ACC; HIST_COUNT]) };
}

/// The process-wide merge every thread flushes into.
static GLOBAL: Mutex<Option<Box<[HistAcc; HIST_COUNT]>>> = Mutex::new(None);

/// The bucket a value lands in: its bit length, capped at the top
/// bucket (`0 → 0`, `[2^(i−1), 2^i − 1] → i`, `≥ 2^62 → 63`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` — what a percentile resolves
/// to before clamping to the observed max.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Records one sample (nanoseconds by convention) into histogram `h`.
/// One relaxed load + early return when collection is disabled.
#[inline]
pub fn record(h: Hist, v: u64) {
    if !hists_enabled() {
        return;
    }
    TLS_HISTS.with(|t| {
        let mut t = t.borrow_mut();
        let acc = &mut t[h as usize];
        if acc.count == 0 || v < acc.min {
            acc.min = v;
        }
        if v > acc.max {
            acc.max = v;
        }
        acc.count += 1;
        acc.sum = acc.sum.saturating_add(v);
        acc.buckets[bucket_index(v)] += 1;
    });
}

/// Records a [`Duration`] as nanoseconds (saturating at `u64::MAX`).
#[inline]
pub fn record_duration(h: Hist, d: Duration) {
    record(h, d.as_nanos().min(u64::MAX as u128) as u64);
}

/// Times a scope into a histogram: created by [`crate::hist_timer!`],
/// records the elapsed nanoseconds on drop. Inert (no clock read) when
/// histogram collection is disabled at construction.
#[must_use = "a histogram timer records the lifetime of its guard"]
pub struct HistTimer {
    hist: Hist,
    start: Option<Instant>,
}

impl HistTimer {
    /// Starts timing into `h`.
    #[inline]
    pub fn start(hist: Hist) -> HistTimer {
        let start = hists_enabled().then(Instant::now);
        HistTimer { hist, start }
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_duration(self.hist, start.elapsed());
        }
    }
}

fn lock_global() -> std::sync::MutexGuard<'static, Option<Box<[HistAcc; HIST_COUNT]>>> {
    match GLOBAL.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn merge_acc(g: &mut HistAcc, l: &HistAcc) {
    if l.count == 0 {
        return;
    }
    if g.count == 0 || l.min < g.min {
        g.min = l.min;
    }
    if l.max > g.max {
        g.max = l.max;
    }
    g.count += l.count;
    g.sum = g.sum.saturating_add(l.sum);
    for (gb, lb) in g.buckets.iter_mut().zip(l.buckets.iter()) {
        *gb += *lb;
    }
}

/// Flushes the calling thread's histogram accumulators into the global
/// merge. Runs when a worker detaches its span context and on
/// [`crate::drain`].
pub(crate) fn flush_current_thread() {
    let local =
        TLS_HISTS.with(|t| std::mem::replace(&mut *t.borrow_mut(), [EMPTY_ACC; HIST_COUNT]));
    if local.iter().all(|a| a.count == 0) {
        return;
    }
    let mut guard = lock_global();
    let global = guard.get_or_insert_with(|| Box::new([EMPTY_ACC; HIST_COUNT]));
    for (g, l) in global.iter_mut().zip(local.iter()) {
        merge_acc(g, l);
    }
}

/// Takes every non-empty histogram as a snapshot, sorted by name,
/// resetting the registry (flushes the calling thread first).
pub(crate) fn take_hists() -> Vec<HistSnapshot> {
    flush_current_thread();
    let Some(accs) = lock_global().take() else {
        return Vec::new();
    };
    let mut out: Vec<HistSnapshot> = ALL_HISTS
        .iter()
        .zip(accs.iter())
        .filter(|(_, a)| a.count > 0)
        .map(|(&h, a)| HistSnapshot::from_acc(hist_name(h), a))
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// A drained histogram: exact count/sum/min/max plus the non-zero log2
/// buckets, sparse and sorted by index. Obtained from [`crate::drain`]
/// as part of a [`crate::Trace`], or rebuilt from a trace file by
/// [`crate::validate_jsonl`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// The registry name (`analyze.module`, `check.function`, …).
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample (0 when empty).
    pub max_ns: u64,
    /// Non-zero buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// An empty histogram under `name` — what a bench artifact reports
    /// for a registered histogram nothing recorded into.
    pub fn empty(name: &str) -> HistSnapshot {
        HistSnapshot {
            name: name.to_string(),
            ..HistSnapshot::default()
        }
    }

    fn from_acc(name: &str, a: &HistAcc) -> HistSnapshot {
        HistSnapshot {
            name: name.to_string(),
            count: a.count,
            sum_ns: a.sum,
            min_ns: a.min,
            max_ns: a.max,
            buckets: a
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }

    /// Merges another histogram into this one. Bucket addition
    /// commutes, so merge order never changes the result — the property
    /// partitioned bench runs rely on.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        let mut dense = [0u64; HIST_BUCKETS];
        for &(i, c) in self.buckets.iter().chain(other.buckets.iter()) {
            dense[i.min(HIST_BUCKETS - 1)] += c;
        }
        self.buckets = dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
    }

    /// The exact `pct`-th percentile (`pct` in 1..=100): the inclusive
    /// upper bound of the bucket holding the rank-⌈pct·count/100⌉
    /// sample, clamped to the observed max. 0 when empty.
    pub fn percentile(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u64::from(pct) * self.count).div_ceil(100).max(1);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Humanizes a nanosecond duration the way the profile table humanizes
/// `mem.*` bytes: `412 ns`, `61.4 µs`, `3.1 ms`, `2.05 s`.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", v / 1e6)
    } else {
        format!("{:.2} s", v / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(values: &[u64]) -> HistSnapshot {
        let _l = crate::test_lock();
        crate::enable_hists();
        let _ = take_hists();
        for &v in values {
            record(Hist::AnalyzeModule, v);
        }
        crate::disable_hists();
        let mut hists = take_hists();
        assert_eq!(hists.len(), 1);
        hists.pop().unwrap()
    }

    #[test]
    fn bucket_index_is_the_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Round-trip: every value sits at or below its bucket's bound.
        for i in 0..HIST_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert!(bucket_index(ub) <= i.max(1));
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_are_exact_on_a_known_distribution() {
        // 100 fast samples (10 ns → bucket 4, bound 15), 10 slow (1000 ns
        // → bucket 10, bound 1023), one outlier (1 ms → bucket 20, bound
        // 1048575 but clamped to the observed max).
        let mut values = vec![10u64; 100];
        values.extend([1000u64; 10]);
        values.push(1_000_000);
        let h = snap(&values);
        assert_eq!(h.count, 111);
        assert_eq!(h.sum_ns, 100 * 10 + 10 * 1000 + 1_000_000);
        assert_eq!(h.min_ns, 10);
        assert_eq!(h.max_ns, 1_000_000);
        assert_eq!(h.buckets, vec![(4, 100), (10, 10), (20, 1)]);
        assert_eq!(h.percentile(50), 15, "rank 56 lands in the 10 ns bucket");
        assert_eq!(h.percentile(90), 15, "rank 100 still in the 10 ns bucket");
        assert_eq!(h.percentile(95), 1023, "rank 106 lands in the 1 µs bucket");
        assert_eq!(h.percentile(99), 1023, "rank 110 lands in the 1 µs bucket");
        assert_eq!(h.percentile(100), 1_000_000, "top bucket clamps to max");
        assert_eq!(h.mean_ns(), (100 * 10 + 10 * 1000 + 1_000_000) / 111);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = HistSnapshot::empty("analyze.module");
        assert_eq!(h.count, 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.mean_ns(), 0);
        assert!(h.buckets.is_empty());
    }

    #[test]
    fn merge_equals_recording_everything_in_one_place() {
        let all: Vec<u64> = (0..200u64).map(|i| i * i * 37 % 100_000).collect();
        let whole = snap(&all);
        let mut left = snap(&all[..77]);
        let right = snap(&all[77..]);
        left.merge(&right);
        assert_eq!(left, whole, "merge is exact, not approximate");
        // Merging an empty histogram is the identity.
        left.merge(&HistSnapshot::empty("analyze.module"));
        assert_eq!(left, whole);
        // Merging *into* an empty histogram copies the distribution.
        let mut start = HistSnapshot::empty("analyze.module");
        start.name = whole.name.clone();
        start.merge(&whole);
        assert_eq!(start, whole);
    }

    #[test]
    fn threaded_recording_is_byte_identical_to_sequential() {
        let values: Vec<u64> = (0..1000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        let sequential = snap(&values);
        for workers in [2usize, 8] {
            let _l = crate::test_lock();
            crate::enable_hists();
            let _ = take_hists();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let chunk: Vec<u64> = values.iter().copied().skip(w).step_by(workers).collect();
                    s.spawn(move || {
                        for v in chunk {
                            record(Hist::AnalyzeModule, v);
                        }
                        flush_current_thread();
                    });
                }
            });
            crate::disable_hists();
            let mut hists = take_hists();
            assert_eq!(hists.len(), 1);
            assert_eq!(
                hists.pop().unwrap(),
                sequential,
                "{workers} workers merge to the sequential histogram"
            );
        }
    }

    #[test]
    fn timer_records_once_and_only_when_enabled() {
        let _l = crate::test_lock();
        crate::disable_hists();
        let _ = take_hists();
        {
            let _t = HistTimer::start(Hist::CheckWave);
        }
        assert!(take_hists().is_empty(), "disabled timer records nothing");
        crate::enable_hists();
        {
            let _t = HistTimer::start(Hist::CheckWave);
            std::thread::sleep(Duration::from_millis(1));
        }
        crate::disable_hists();
        let hists = take_hists();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].name, "check.wave");
        assert_eq!(hists[0].count, 1);
        assert!(hists[0].min_ns >= 1_000_000, "slept a millisecond");
    }

    #[test]
    fn hist_names_are_unique_and_resolvable() {
        for &h in &ALL_HISTS {
            assert_eq!(hist_by_name(hist_name(h)), Some(h));
        }
        let mut names: Vec<_> = ALL_HISTS.iter().map(|&h| hist_name(h)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HIST_COUNT, "duplicate histogram name");
        assert_eq!(hist_by_name("no.such.hist"), None);
    }

    #[test]
    fn fmt_ns_picks_the_right_unit() {
        assert_eq!(fmt_ns(0), "0 ns");
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(61_400), "61.4 µs");
        assert_eq!(fmt_ns(3_100_000), "3.1 ms");
        assert_eq!(fmt_ns(2_050_000_000), "2.05 s");
    }
}
