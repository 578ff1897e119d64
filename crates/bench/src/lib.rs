//! The paper's evaluation behind the `localias` driver's `experiment`,
//! `fuzz`, `scale` and `precision` subcommands: the experiment runner
//! (one work queue over a corpus slice or stream) and its one-file
//! result cache, the renderers of the paper's tables
//! ([`paper`]), the artifact writers, and the differential fuzzer — plus
//! synthetic program generators for the complexity benches and a small
//! in-repo timing harness ([`harness`]) standing in for criterion.

pub mod artifact;
pub mod cache;
pub mod diff;
pub mod fuzz;
pub mod harness;
pub mod paper;
pub mod precision;
pub mod scale;

pub use artifact::{json_hists, json_trace, Artifact, Better};

pub use cache::{
    AnalysisCache, CachePolicy, CacheStats, CachedValues, ANALYSIS_VERSION, DEFAULT_SHARDS,
};
pub use diff::{diff_benches, DiffReport, DEFAULT_THRESHOLD_PCT};
pub use localias_corpus::CorpusStream;
pub use localias_obs::json;

use cache::CachedOutcome;
use localias_alias::Backend;
use localias_ast::Module;
use localias_core::SharedAnalysis;
use localias_corpus::{Category, GeneratedModule};
use localias_cqual::check_modes;
use localias_obs as obs;
use localias_obs::json::Value;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-module measured error counts under the three modes.
#[derive(Debug, Clone)]
pub struct ModuleResult {
    /// Module name.
    pub name: String,
    /// Errors without confine inference.
    pub no_confine: usize,
    /// Errors with confine inference.
    pub confine: usize,
    /// Errors assuming all updates strong.
    pub all_strong: usize,
}

/// Wall-clock time one module spent in each pipeline phase, as its spans
/// recorded it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Lexing + parsing (`ast.parse`).
    pub parse: Duration,
    /// Base analysis plus the lock check of all three modes, which walk
    /// one call graph (`core.base` + `cqual.check`).
    pub check: Duration,
    /// Confine inference alone (`core.confine`; its mode's check is
    /// counted in `check`).
    pub confine: Duration,
}

impl PhaseTimes {
    fn accumulate(&mut self, other: PhaseTimes) {
        self.parse += other.parse;
        self.check += other.check;
        self.confine += other.confine;
    }
}

impl ModuleResult {
    /// Measures one parsed corpus module under all three modes through
    /// [`check_modes`], which times each phase. The no-confine and
    /// all-strong modes share one base analysis through
    /// [`SharedAnalysis`], so this runs two (not three) analysis
    /// pipelines.
    fn measure_parsed(
        name: &str,
        shared: &mut SharedAnalysis<'_>,
        parse: Duration,
    ) -> (ModuleResult, PhaseTimes) {
        let (reports, t) = check_modes(shared);
        let [no_confine, confine, all_strong] = reports.map(|r| r.error_count());
        (
            ModuleResult {
                name: name.to_string(),
                no_confine,
                confine,
                all_strong,
            },
            PhaseTimes {
                parse,
                check: t.base + t.check,
                confine: t.confine,
            },
        )
    }

    /// Spurious errors that strong updates could eliminate.
    pub fn potential(&self) -> usize {
        self.no_confine - self.all_strong.min(self.no_confine)
    }

    /// Spurious errors confine inference eliminated.
    pub fn eliminated(&self) -> usize {
        self.no_confine - self.confine.min(self.no_confine)
    }

    /// The module's §7 category, judged from its measured error counts.
    /// Every module falls in exactly one.
    pub fn category(&self) -> Category {
        if self.no_confine == 0 {
            Category::Clean
        } else if self.no_confine == self.all_strong {
            Category::RealBugs
        } else if self.confine == self.all_strong {
            Category::Recovered
        } else {
            Category::Partial
        }
    }
}

/// How many of `results` fall in each [`Category`], in declaration
/// order: the paper's 352 / 85 / 138 / 14.
pub fn category_counts(results: &[ModuleResult]) -> [usize; 4] {
    let mut counts = [0; 4];
    for r in results {
        counts[r.category() as usize] += 1;
    }
    counts
}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Aggregate timing and error statistics for one corpus sweep, ready to
/// serialize as `BENCH_experiment.json`.
#[derive(Debug, Clone)]
pub struct ExperimentBench {
    /// Corpus seed.
    pub seed: u64,
    /// Modules measured.
    pub modules: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time of the sweep (excluding cache store
    /// I/O, which is reported separately in [`ExperimentBench::cache`]).
    pub wall: Duration,
    /// Per-phase CPU time, summed over all modules (and threads). Cache
    /// hits replay the phase times of the run that produced them, so this
    /// keeps describing the analysis cost the results represent even when
    /// `wall` collapses on a warm sweep.
    pub phases: PhaseTimes,
    /// Total error counts per mode, summed over all modules.
    pub errors: (usize, usize, usize),
    /// Total spurious errors strong updates could eliminate.
    pub potential: usize,
    /// Total spurious errors confine inference eliminated.
    pub eliminated: usize,
    /// Result-cache statistics (`None` when the sweep ran uncached).
    pub cache: Option<CacheStats>,
    /// Observability snapshot of the sweep (`None` unless the caller
    /// enabled obs collection and attached a drained [`obs::Trace`]).
    pub profile: Option<obs::Trace>,
    /// Latency histograms recorded during the sweep (empty when the
    /// caller did not attach the drained snapshots). Unlike `profile`,
    /// histograms are always collected — see [`init_obs`].
    pub hist: Vec<obs::HistSnapshot>,
}

/// The experiment artifact's schema.
pub const EXPERIMENT_SCHEMA: &str = "localias-bench-experiment/v9";

impl ExperimentBench {
    /// Sweep throughput in modules per wall-clock second.
    pub fn modules_per_sec(&self) -> f64 {
        self.modules as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Renders the stats through the artifact writer (schema
    /// [`EXPERIMENT_SCHEMA`]).
    ///
    /// v2 added the `cache` block (`null` on uncached sweeps), v3 its
    /// sharded-store fields, v4 the `profile` block, v5 `partition` and
    /// per-module `results` rows, v6 the `hist` block. v7 moved to the
    /// shared envelope (`host`, `gate`) and added `cache.hit_rate`. v8
    /// drops `partition` and `results` with the partitioned sweep, v9
    /// the `cache` block's `shards`, `shard_hits` and `shard_misses` with
    /// the sharded store.
    pub fn to_json(&self) -> String {
        use Better::{Higher, Lower};
        let mut a = Artifact::new(EXPERIMENT_SCHEMA, self.seed);
        a.set(&["modules"], self.modules);
        a.set(&["threads"], self.threads);
        a.metric(&["wall_seconds"], self.wall.as_secs_f64(), Lower);
        a.metric(&["modules_per_second"], self.modules_per_sec(), Higher);
        let phases = [
            ("parse", self.phases.parse),
            ("check", self.phases.check),
            ("confine", self.phases.confine),
        ];
        for (phase, t) in phases {
            a.metric(&["phase_cpu_seconds", phase], t.as_secs_f64(), Lower);
        }
        let (nc, cf, st) = self.errors;
        a.set(&["errors", "no_confine"], nc);
        a.set(&["errors", "confine"], cf);
        a.set(&["errors", "all_strong"], st);
        a.set(&["spurious", "potential"], self.potential);
        a.set(&["spurious", "eliminated"], self.eliminated);
        match &self.cache {
            None => a.set(&["cache"], Value::Null),
            Some(c) => {
                a.set(&["cache", "hits"], c.hits);
                a.set(&["cache", "misses"], c.misses);
                a.set(&["cache", "dir"], c.dir.as_str());
                a.set(&["cache", "quarantined"], c.quarantined);
                a.set(&["cache", "lock_retries"], c.lock_retries);
                a.set(&["cache", "lock_skips"], c.lock_skips);
                let rate = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
                a.metric(&["cache", "hit_rate"], rate, Higher);
                a.metric(&["cache", "load_seconds"], c.load.as_secs_f64(), Lower);
                a.metric(&["cache", "store_seconds"], c.store.as_secs_f64(), Lower);
            }
        }
        a.finish(json_hists(&self.hist), json_trace(self.profile.as_ref()))
    }
}

/// What a worker learned about one module, beyond its result.
enum CacheNote {
    /// Sweep ran uncached.
    Uncached,
    /// The raw source fingerprint was already known — served without
    /// even parsing.
    RawHit,
    /// Raw source changed but the canonical fingerprint still hit; the
    /// new raw fingerprint should alias it for the next sweep.
    CanonHit { fp: u128, raw: u128 },
    /// True miss: record the fresh measurement under this fingerprint.
    Miss { fp: u128, raw: u128 },
}

/// One worker's verdict on one module.
struct SweepOutcome {
    slot: usize,
    result: ModuleResult,
    times: PhaseTimes,
    note: CacheNote,
}

/// The sweep's view of its corpus: the module at each position, borrowed
/// from a slice or generated from a [`CorpusStream`].
type ModuleAt<'m> = dyn Fn(usize) -> Cow<'m, GeneratedModule> + Sync + 'm;

/// The streaming sweep engine every `measure_*` entry point feeds.
///
/// `module_at(slot)` yields the module at each position `0..len`; `slot`
/// is its index in the returned result vector. With one worker the loop
/// runs on the calling thread. With more, the workers claim positions
/// from one shared counter, so however large the corpus is, each worker
/// holds at most one module at a time and drops it as soon as the result
/// (or cache note) is extracted. Results are merged back into slot order
/// afterwards, so output is byte-identical for every `jobs` value.
///
/// With a cache, each worker first resolves the module's raw source
/// fingerprint against an immutable cache snapshot — a hit skips the
/// parse entirely. Otherwise it parses and checks the canonical
/// fingerprint, so a formatting-only change is still a hit and only
/// genuine content changes pay for analysis. Cache mutations (aliases,
/// fresh records) are applied on the calling thread after the sweep;
/// persisting the store is the caller's job (see
/// [`measure_corpus_with_cache`]).
fn sweep_modules(
    len: usize,
    module_at: &ModuleAt<'_>,
    jobs: usize,
    seed: u64,
    mut cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench) {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    // At most one worker per module: a worker with no module to claim
    // would only be started and joined.
    let threads = jobs.min(len).max(1);
    let _sweep_span = obs::span!("bench.sweep");
    let start = Instant::now();

    // One run of outcomes per worker, each in increasing slot order.
    let runs: Vec<Vec<SweepOutcome>> = {
        let snapshot: Option<&AnalysisCache> = cache.as_deref();
        let work = |slot: usize| -> SweepOutcome {
            let m = module_at(slot);
            let served = |e: CachedOutcome, note| SweepOutcome {
                slot,
                result: e.to_result(&m.name),
                times: e.times,
                note,
            };
            let keyed = snapshot.map(|c| {
                let _span = obs::span!("cache.raw_fp");
                (
                    c,
                    cache::source_fingerprint(&m.source, Backend::Steensgaard),
                )
            });
            if let Some((c, raw)) = keyed {
                let hit = {
                    let _span = obs::span!("cache.lookup");
                    c.resolve_raw(raw).and_then(|fp| c.lookup_fp(fp))
                };
                if let Some(e) = hit {
                    return served(e, CacheNote::RawHit);
                }
            }
            let span = obs::Span::timed("ast.parse");
            let parsed = m.parse();
            let parse = span.close();
            let note = match keyed {
                None => CacheNote::Uncached,
                Some((c, raw)) => {
                    let fp = {
                        let _span = obs::span!("cache.canon_fp");
                        cache::module_fingerprint(&parsed, Backend::Steensgaard)
                    };
                    let hit = {
                        let _span = obs::span!("cache.lookup");
                        c.lookup_fp(fp)
                    };
                    if let Some(e) = hit {
                        let span = obs::span!("bench.drop");
                        drop(parsed);
                        drop(span);
                        return served(e, CacheNote::CanonHit { fp, raw });
                    }
                    CacheNote::Miss { fp, raw }
                }
            };
            let mut shared = SharedAnalysis::new(&parsed);
            let (result, times) = ModuleResult::measure_parsed(&m.name, &mut shared, parse);
            // Freeing the module's nodes and analyses is the worker's
            // largest cost outside every layer.
            let span = obs::span!("bench.drop");
            drop(shared);
            drop(parsed);
            drop(span);
            SweepOutcome {
                slot,
                result,
                times,
                note,
            }
        };

        if threads <= 1 {
            vec![(0..len).map(work).collect()]
        } else {
            // The next unclaimed position. `Relaxed` suffices: the counter
            // publishes no other data, and the outcomes come back through
            // `join`.
            let next = AtomicUsize::new(0);
            // Workers inherit the sweep's span path, so the span tree is
            // identical whatever the thread count.
            let span_cx = obs::fork();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let span_cx = span_cx.clone();
                        let (next, work) = (&next, &work);
                        s.spawn(move || {
                            let _attached = span_cx.attach();
                            let claim = || Some(next.fetch_add(1, Ordering::Relaxed));
                            std::iter::from_fn(claim)
                                .take_while(|&slot| slot < len)
                                .map(work)
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        }
    };

    // Merge in slot order, applying the cache notes on this thread. Each
    // slot is at the head of exactly one run when its turn comes, so no
    // outcome is copied into a combined vector first.
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let mut results = Vec::with_capacity(len);
    let mut phases = PhaseTimes::default();
    let mut hits = 0usize;
    let mut misses = 0usize;
    for slot in 0..len {
        let o = runs
            .iter_mut()
            .find_map(|run| run.next_if(|o| o.slot == slot))
            .expect("every module measured exactly once");
        match o.note {
            CacheNote::Uncached => {}
            CacheNote::RawHit => hits += 1,
            CacheNote::CanonHit { fp, raw } => {
                hits += 1;
                if let Some(c) = cache.as_deref_mut() {
                    c.alias_raw(raw, fp);
                }
            }
            CacheNote::Miss { fp, raw } => {
                misses += 1;
                if let Some(c) = cache.as_deref_mut() {
                    c.record(fp, raw, CachedOutcome::of(&o.result, o.times));
                }
            }
        }
        phases.accumulate(o.times);
        results.push(o.result);
    }

    let errors = results.iter().fold((0, 0, 0), |(nc, cf, st), r| {
        (nc + r.no_confine, cf + r.confine, st + r.all_strong)
    });
    let cache_stats = cache.as_deref().map(|c| CacheStats {
        hits,
        misses,
        dir: c.dir_display(),
        quarantined: c.quarantined(),
        lock_retries: 0, // lock counters are filled in after persist
        lock_skips: 0,
        load: c.load_time(),
        store: Duration::ZERO, // filled in after persist
    });
    let bench = ExperimentBench {
        seed,
        modules: results.len(),
        threads,
        wall: start.elapsed(),
        phases,
        errors,
        potential: results.iter().map(ModuleResult::potential).sum(),
        eliminated: results.iter().map(ModuleResult::eliminated).sum(),
        cache: cache_stats,
        profile: None,
        hist: Vec::new(),
    };
    (results, bench)
}

/// The streaming sweep over an already-materialized corpus slice,
/// optionally backed by an [`AnalysisCache`] the caller loads and
/// persists. Results come back in slice order, byte-identical for every
/// `jobs` value.
pub fn measure_corpus_cached(
    corpus: &[GeneratedModule],
    jobs: usize,
    seed: u64,
    cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench) {
    sweep_modules(
        corpus.len(),
        &|i| Cow::Borrowed(&corpus[i]),
        jobs,
        seed,
        cache,
    )
}

/// [`sweep_modules`] under a [`CachePolicy`]: loads the store, sweeps,
/// and atomically persists the store back. Cache I/O failures degrade to
/// warnings — results are never affected.
fn sweep_with_policy(
    len: usize,
    module_at: &ModuleAt<'_>,
    jobs: usize,
    seed: u64,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    let CachePolicy::Dir { dir, .. } = policy else {
        return sweep_modules(len, module_at, jobs, seed, None);
    };
    let mut c = AnalysisCache::load(dir);
    let (results, mut bench) = sweep_modules(len, module_at, jobs, seed, Some(&mut c));
    if let Err(e) = c.persist() {
        eprintln!(
            "localias-bench: warning: cache not fully written to {}: {e}",
            dir.display()
        );
    }
    if let Some(stats) = bench.cache.as_mut() {
        stats.store = c.store_time();
        stats.quarantined = c.quarantined();
        stats.lock_retries = c.lock_retries();
        stats.lock_skips = c.lock_skips();
    }
    (results, bench)
}

/// One full streamed sweep of `stream` under a [`CachePolicy`], without
/// ever materializing the corpus: each worker generates the module at the
/// position it claims and drops it as soon as it is measured or served
/// from cache, so peak memory is `O(jobs)` modules however long the
/// stream is. Results come back in stream order. The paper's experiment
/// is `CorpusStream::paper(seed)`.
pub fn measure_stream_with_cache(
    stream: &CorpusStream,
    jobs: usize,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    sweep_with_policy(
        stream.len(),
        &|i| {
            let _span = obs::span!("corpus.generate");
            Cow::Owned(stream.module_at(i))
        },
        jobs,
        stream.seed(),
        policy,
    )
}

/// One full sweep of an already-materialized corpus slice under a
/// [`CachePolicy`] (see [`measure_stream_with_cache`]).
///
/// `intra_jobs` and `backend` are kept only so the benchmark crate's
/// calls keep their signature: the lock checker is sequential and
/// Steensgaard is the only alias configuration the sweep runs.
pub fn measure_corpus_with_cache(
    corpus: &[GeneratedModule],
    jobs: usize,
    intra_jobs: usize,
    seed: u64,
    backend: Backend,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    assert_eq!(intra_jobs, 1, "the lock checker is sequential");
    assert_eq!(backend, Backend::Steensgaard, "the sweep runs Steensgaard");
    sweep_with_policy(
        corpus.len(),
        &|i| Cow::Borrowed(&corpus[i]),
        jobs,
        seed,
        policy,
    )
}

/// What [`finish_obs`] drained from the run's observability sinks.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// The full span/counter trace — `Some` only when the run asked for
    /// obs output (`--profile`).
    pub trace: Option<obs::Trace>,
    /// Merged latency histograms. Always populated (histograms are
    /// cheap enough to collect unconditionally), so every bench
    /// artifact carries its `hist` block even without `--profile`.
    pub hists: Vec<obs::HistSnapshot>,
}

/// Installs the obs sinks (clearing any stale state so the trace covers
/// exactly the run that follows). Latency histograms are always enabled
/// — they cost one TLS array update per sample — while spans and
/// counters only turn on when `profile` (`--profile`) asks for them.
/// Call once, right after argument parsing.
pub fn init_obs(profile: bool) {
    if profile {
        obs::enable_all();
    } else {
        obs::enable_hists();
    }
    let _ = obs::drain();
}

/// Drains the obs sinks after the run: prints the `--profile` table to
/// stderr and returns the drained snapshots so callers can embed them
/// (see [`ExperimentBench::profile`] and [`ExperimentBench::hist`]). The
/// report's histograms are populated on every run; its trace only when
/// the run asked for obs output (`profile`, as given to [`init_obs`]).
pub fn finish_obs(profile: bool) -> ObsReport {
    if !profile {
        let trace = obs::drain();
        obs::disable_hists();
        return ObsReport {
            trace: None,
            hists: trace.hists,
        };
    }
    // Flush the memory gauges exactly once, here — not inside the sweep,
    // so the trace shape stays invariant across thread counts.
    obs::gauge_max(obs::Counter::MemPeakRssBytes, obs::peak_rss_bytes());
    let arena = localias_ast::intern::stats();
    obs::gauge_max(obs::Counter::MemArenaBytes, arena.arena_bytes);
    obs::gauge_max(obs::Counter::MemArenaSavedBytes, arena.saved_bytes);
    let trace = obs::drain();
    obs::disable_hists();
    eprint!("{}", trace.render_profile());
    ObsReport {
        hists: trace.hists.clone(),
        trace: Some(trace),
    }
}

/// Generates a synthetic program of roughly `n` statements with `k`
/// explicit `restrict` annotations, for the §4 `O(kn)` checking bench.
pub fn checking_workload(n: usize, k: usize) -> Module {
    let mut src = String::from("int g;\nextern void work();\n");
    let funs = n.max(1) / 10 + 1;
    let per_fun = n / funs + 1;
    let mut annotated = 0;
    for f in 0..funs {
        let _ = writeln!(src, "void f{f}(int *q{f}) {{");
        for s in 0..per_fun {
            match s % 5 {
                0 => {
                    let _ = writeln!(src, "    int *a{s} = q{f};");
                }
                1 if annotated < k => {
                    // Each annotation restricts its own fresh location
                    // (two restricts of one location in one scope are
                    // correctly rejected by the checker).
                    annotated += 1;
                    let _ = writeln!(src, "    int *s{s} = new (0);");
                    let _ = writeln!(src, "    restrict int *r{s} = s{s};");
                    let _ = writeln!(src, "    *r{s} = {s};");
                }
                2 => {
                    let _ = writeln!(src, "    int x{s} = g + {s};");
                }
                3 => {
                    let _ = writeln!(src, "    int *h{s} = new ({s});");
                    let _ = writeln!(src, "    *h{s} = {s};");
                }
                _ => {
                    let _ = writeln!(src, "    work();");
                }
            }
        }
        let _ = writeln!(src, "}}");
    }
    localias_ast::parse_module("workload", &src).expect("workload parses")
}

/// Generates a driver-like program with `pairs` confinable lock regions,
/// for the inference scaling benches.
pub fn confine_workload(pairs: usize) -> Module {
    let mut src = String::from("extern void work();\n");
    for p in 0..pairs {
        let _ = writeln!(src, "lock locks{p}[8];");
        let _ = writeln!(src, "void f{p}(int i) {{");
        let _ = writeln!(src, "    spin_lock(&locks{p}[i]);");
        let _ = writeln!(src, "    work();");
        let _ = writeln!(src, "    spin_unlock(&locks{p}[i]);");
        let _ = writeln!(src, "}}");
    }
    localias_ast::parse_module("confine-workload", &src).expect("workload parses")
}

#[cfg(test)]
mod testkit;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checking_workload_scales_and_checks() {
        let m = checking_workload(100, 5);
        let a = localias_core::check(&m);
        assert_eq!(a.restricts.len(), 5);
        assert!(a.restricts.iter().all(|r| r.ok()), "{:?}", a.restricts);
    }

    #[test]
    fn confine_workload_is_fully_recoverable() {
        let m = confine_workload(4);
        let [nc, cf, _] = check_modes(&mut SharedAnalysis::new(&m))
            .0
            .map(|r| r.error_count());
        assert_eq!(nc, 4);
        assert_eq!(cf, 0);
    }

    #[test]
    fn every_triple_falls_in_one_category() {
        let r = |no_confine, confine, all_strong| ModuleResult {
            name: "m".into(),
            no_confine,
            confine,
            all_strong,
        };
        let cases = [
            (r(0, 0, 0), Category::Clean),
            (r(3, 3, 3), Category::RealBugs),
            (r(4, 1, 1), Category::Recovered),
            (r(5, 2, 0), Category::Partial),
        ];
        for (m, want) in &cases {
            assert_eq!(m.category(), *want, "{m:?}");
        }
        let results: Vec<ModuleResult> = cases.into_iter().map(|(m, _)| m).collect();
        assert_eq!(category_counts(&results), [1, 1, 1, 1]);
    }

    /// An experiment artifact with every optional block filled in.
    pub(crate) fn sample_bench() -> ExperimentBench {
        ExperimentBench {
            seed: 7,
            modules: 1000,
            threads: 1,
            wall: Duration::from_secs(1),
            phases: PhaseTimes {
                parse: Duration::from_millis(500),
                check: Duration::from_millis(750),
                confine: Duration::from_millis(250),
            },
            errors: (3, 2, 1),
            potential: 2,
            eliminated: 1,
            cache: Some(CacheStats {
                hits: 580,
                misses: 9,
                dir: ".localias-cache".into(),
                quarantined: 1,
                lock_retries: 2,
                lock_skips: 0,
                load: Duration::from_millis(10),
                store: Duration::from_millis(20),
            }),
            profile: None,
            hist: vec![obs::HistSnapshot {
                name: "analyze.module".into(),
                count: 2,
                sum_ns: 48,
                min_ns: 16,
                max_ns: 32,
                buckets: vec![(5, 1), (6, 1)],
            }],
        }
    }

    #[test]
    fn experiment_writer_keeps_the_contract() {
        crate::testkit::assert_writer_contract(&sample_bench().to_json(), &["wall_seconds"]);
    }

    #[test]
    fn bench_json_parses_back_field_for_field() {
        let bench = ExperimentBench {
            wall: Duration::from_nanos(313_788_123),
            ..sample_bench()
        };
        let text = bench.to_json();
        // The `"key": value` layout scripts/check.sh greps for.
        for line in [
            "\"schema\": \"localias-bench-experiment/v9\"",
            "\"hits\": 580",
            "\"misses\": 9",
            "\"dir\": \".localias-cache\"",
            "\"quarantined\": 1",
            "\"lock_retries\": 2",
            "\"lock_skips\": 0",
            "\"profile\": null",
            "\"hist\": {",
        ] {
            assert!(text.contains(line), "{line} missing:\n{text}");
        }
        let v = json::parse(&text).unwrap();
        let num = |path: &[&str]| v.at(path).and_then(Value::as_f64).unwrap();
        assert_eq!(num(&["seed"]), 7.0);
        assert_eq!(num(&["host", "nproc"]), default_jobs() as f64);
        assert_eq!(num(&["wall_seconds"]), bench.wall.as_secs_f64());
        let cache = v.get("cache").unwrap();
        assert_eq!(
            cache.get("dir").and_then(Value::as_str),
            Some(".localias-cache")
        );
        assert_eq!(num(&["cache", "hit_rate"]), 580.0 / 589.0);
        for gone in ["shards", "shard_hits", "shard_misses"] {
            assert!(cache.get(gone).is_none(), "{gone} is not a v9 cache key");
        }
        assert_eq!(num(&["cache", "quarantined"]), 1.0);
        assert_eq!(num(&["cache", "lock_retries"]), 2.0);
        assert_eq!(num(&["cache", "lock_skips"]), 0.0);
        for gone in ["partition", "results"] {
            assert!(v.get(gone).is_none(), "{gone} is not a v8 key");
        }
        // p50 hits bucket 5 (upper bound 31); p99 hits bucket 6, clamped
        // to the exact observed max.
        assert_eq!(num(&["hist", "analyze.module", "p50_ns"]), 31.0);
        assert_eq!(num(&["hist", "analyze.module", "p99_ns"]), 32.0);
        // Every registered histogram appears, sampled or not.
        assert_eq!(num(&["hist", "fuzz.execute", "count"]), 0.0);

        let bare = ExperimentBench {
            cache: None,
            ..bench
        };
        let v = json::parse(&bare.to_json()).unwrap();
        for key in ["cache", "profile"] {
            assert!(v.get(key).unwrap().is_null(), "{key}");
        }
        // Without a cache there is no hit rate to gate.
        let gate = artifact::gated_paths(&v);
        assert!(gate.iter().all(|(p, _)| p[0] != "cache"), "{gate:?}");
    }

    /// The `profile` block carries the trace's spans and non-zero
    /// counters.
    #[test]
    fn profile_block_serializes_spans_and_counters() {
        let mut trace = obs::Trace::default();
        trace.spans.push(obs::SpanAgg {
            path: "bench.sweep".into(),
            count: 1,
            total_ns: 5_000,
            self_ns: 2_000,
        });
        let block = json_trace(Some(&trace));
        assert_eq!(
            block.render(),
            r#"{"spans":[{"path":"bench.sweep","count":1,"total_ns":5000,"self_ns":2000}],"counters":{}}"#
        );
        assert!(json_trace(None).is_null());

        let (results, mut bench) = {
            let corpus = localias_corpus::generate(1);
            measure_corpus_cached(&corpus[..1], 1, 1, None)
        };
        assert_eq!(results.len(), 1);
        bench.profile = Some(trace);
        let v = json::parse(&bench.to_json()).unwrap();
        assert_eq!(v.get("profile"), Some(&block));
    }

    /// The `hist` block names every registered histogram — zeros
    /// included — so cold and warm artifacts share a shape, and renders
    /// exact percentiles for the ones that saw samples.
    #[test]
    fn hist_block_renders_all_registered_names() {
        let empty = json_hists(&[]);
        for h in obs::ALL_HISTS {
            let count = empty.at(&[obs::hist_name(h), "count"]);
            assert_eq!(count.and_then(Value::as_u64), Some(0), "{}", empty.render());
        }

        let mut snap = obs::HistSnapshot::empty("analyze.module");
        snap.count = 4;
        snap.sum_ns = 100;
        snap.min_ns = 10;
        snap.max_ns = 40;
        // Samples 10, 20, 30, 40 land in log2 buckets 4, 5, 5, 6.
        snap.buckets = vec![(4, 1), (5, 2), (6, 1)];
        let block = json_hists(&[snap.clone()]);
        let h = block.get("analyze.module").unwrap();
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(4));
        let p50 = h.get("p50_ns").and_then(Value::as_u64);
        assert_eq!(p50, Some(snap.percentile(50)));
        assert_eq!(h.get("buckets").unwrap().render(), "[[4,1],[5,2],[6,1]]");
    }
}
