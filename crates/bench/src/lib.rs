//! The paper's evaluation behind the `localias` driver's `experiment`,
//! `fuzz`, `scale` and `precision` subcommands: the experiment runner
//! and its result cache, the renderers of the paper's tables
//! ([`paper`]), the artifact writers, and the differential fuzzer — plus
//! synthetic program generators for the complexity benches and a small
//! in-repo timing harness ([`harness`]) standing in for criterion.

pub mod artifact;
pub mod cache;
pub mod cli;
pub mod diff;
pub mod fuzz;
pub mod harness;
pub mod merge;
pub mod paper;
pub mod precision;
pub mod scale;
#[cfg(test)]
mod testkit;

pub use artifact::{json_hists, json_trace, Artifact, Better};

pub use cache::{
    AnalysisCache, CachePolicy, CacheStats, CachedValues, ANALYSIS_VERSION, DEFAULT_SHARDS,
    MAX_SHARDS,
};
pub use cli::CliOpts;
pub use diff::{diff_benches, DiffReport, DEFAULT_THRESHOLD_PCT};
pub use localias_corpus::{partition_range, CorpusStream};
pub use localias_obs::json;
pub use merge::merge_partitions;

use cache::CachedOutcome;
use localias_alias::{Backend, FrozenLocs};
use localias_ast::Module;
use localias_core::{Analysis, SharedAnalysis};
use localias_corpus::GeneratedModule;
use localias_cqual::{check_locks_frozen, Mode};
use localias_obs as obs;
use localias_obs::json::Value;
use std::fmt::Write as _;
use std::ops::Range;
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

/// Wall-clock time one module spent in each pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Base analysis plus the no-confine and all-strong checks (the two
    /// modes that share one analysis).
    pub check: Duration,
    /// Confine inference plus its check.
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
    /// Measures one parsed corpus module under all three modes, timing
    /// each phase. The no-confine and all-strong modes share one base
    /// analysis through [`SharedAnalysis`], so this runs two (not three)
    /// analysis pipelines.
    fn measure_parsed(name: &str, parsed: &Module, parse: Duration) -> (ModuleResult, PhaseTimes) {
        let mut shared = SharedAnalysis::new(parsed);
        let errors = |(analysis, frozen): (&Analysis, &FrozenLocs), mode| {
            check_locks_frozen(parsed, analysis, frozen, mode, 1).error_count()
        };
        let t1 = Instant::now();
        let base = shared.base_frozen();
        let no_confine = errors(base, Mode::NoConfine);
        let all_strong = errors(base, Mode::AllStrong);
        let check = t1.elapsed();

        let t2 = Instant::now();
        let confine = errors(shared.confine_frozen(), Mode::Confine);
        let confine_time = t2.elapsed();

        (
            ModuleResult {
                name: name.to_string(),
                no_confine,
                confine,
                all_strong,
            },
            PhaseTimes {
                parse,
                check,
                confine: confine_time,
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

    /// The module's §7 category. Every module falls in exactly one.
    pub fn category(&self) -> Category {
        if self.no_confine == 0 {
            Category::Clean
        } else if self.no_confine == self.all_strong {
            Category::Real
        } else if self.confine == self.all_strong {
            Category::Full
        } else {
            Category::Partial
        }
    }
}

/// The paper's §7 split of the modules, in the order it reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Error-free without confine.
    Clean,
    /// Errors unrelated to weak updates: all-strong removes none.
    Real,
    /// Confine inference removes every error all-strong removes.
    Full,
    /// Confine inference misses some strong updates (Figure 7).
    Partial,
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
    /// Which slice of the corpus this sweep covered (`None` for a full,
    /// unpartitioned run).
    pub partition: Option<PartitionInfo>,
    /// Per-module `(name, no-confine, confine, all-strong)` rows, in
    /// sweep order. `None` unless the caller opts in — partition
    /// artifacts carry them so `bench-merge` can union disjoint sweeps
    /// into one result set.
    pub results: Option<Vec<ModuleResult>>,
}

/// Which disjoint slice of a seeded corpus one partitioned sweep covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Partition index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of cooperating partitions.
    pub count: usize,
    /// Total modules in the *whole* corpus the partitions split.
    pub total: usize,
}

impl ExperimentBench {
    /// Sweep throughput in modules per wall-clock second.
    pub fn modules_per_sec(&self) -> f64 {
        self.modules as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Renders the stats through the artifact writer (schema
    /// `localias-bench-experiment/v7`).
    ///
    /// v2 added the `cache` block (`null` on uncached sweeps), v3 its
    /// sharded-store fields, v4 the `profile` block, v5 `partition` and
    /// per-module `results` rows (`[name, nc, cf, as]`, the fields
    /// `bench-merge` unions partition sweeps with), v6 the `hist` block.
    /// v7 moves to the shared envelope (`host`, `gate`) and adds
    /// `cache.hit_rate`.
    pub fn to_json(&self) -> String {
        use Better::{Higher, Lower};
        let mut a = Artifact::new(crate::merge::MERGE_SCHEMA, self.seed);
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
                let counts = |xs: &[usize]| Value::Arr(xs.iter().map(|&x| x.into()).collect());
                a.set(&["cache", "hits"], c.hits);
                a.set(&["cache", "misses"], c.misses);
                a.set(&["cache", "dir"], c.dir.as_str());
                a.set(&["cache", "shards"], c.shards);
                a.set(&["cache", "shard_hits"], counts(&c.shard_hits));
                a.set(&["cache", "shard_misses"], counts(&c.shard_misses));
                a.set(&["cache", "quarantined"], c.quarantined);
                a.set(&["cache", "lock_retries"], c.lock_retries);
                a.set(&["cache", "lock_skips"], c.lock_skips);
                let rate = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
                a.metric(&["cache", "hit_rate"], rate, Higher);
                a.metric(&["cache", "load_seconds"], c.load.as_secs_f64(), Lower);
                a.metric(&["cache", "store_seconds"], c.store.as_secs_f64(), Lower);
            }
        }
        let partition = self.partition.map(|p| {
            Value::obj([
                ("index", p.index.into()),
                ("count", p.count.into()),
                ("total", p.total.into()),
            ])
        });
        a.set(&["partition"], partition);
        let results = self.results.as_ref().map(|rows| {
            let row = |r: &ModuleResult| -> Value {
                let cells = [r.no_confine, r.confine, r.all_strong].map(Value::from);
                std::iter::once(r.name.as_str().into())
                    .chain(cells)
                    .collect::<Vec<_>>()
                    .into()
            };
            rows.iter().map(row).collect::<Vec<_>>()
        });
        a.set(&["results"], results);
        a.finish(json_hists(&self.hist), json_trace(self.profile.as_ref()))
    }
}

/// What a worker learned about one module, beyond its result.
enum CacheNote {
    /// Sweep ran uncached.
    Uncached,
    /// The raw source fingerprint was already known — served without
    /// even parsing.
    RawHit { fp: u128 },
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

/// Corpus size above which the default shard count starts to contend.
const LARGE_CORPUS_SHARD_WARN: usize = 10_000;

/// The concrete `--cache-shards` value to suggest for a corpus of
/// `modules` modules currently running on `shards` shards.
///
/// Targets roughly one shard per thousand modules (shards hold whole
/// result records, so a thousand records per shard file keeps each file
/// small enough to rewrite cheaply), rounded up to a power of two to
/// match the sharding hash's mixing; never suggests less than doubling
/// the current count (the warning only fires when the current count
/// contends, so any useful suggestion is a strict increase) and never
/// more than [`MAX_SHARDS`].
fn suggest_cache_shards(modules: usize, shards: usize) -> usize {
    (modules / 1_000)
        .next_power_of_two()
        .max(shards.saturating_mul(2))
        .min(MAX_SHARDS)
}

/// The streaming sweep engine every `measure_*` entry point feeds.
///
/// `modules` yields `(slot, module)` pairs; `slot` is the module's index
/// in the returned result vector (`0..out_len`). With more than one
/// worker the iterator is drained by a producer thread into a *bounded*
/// channel (capacity `2·threads`), so no matter how large the corpus is,
/// only `O(threads)` modules are ever alive at once — each worker drops
/// its module as soon as the result (or cache note) is extracted.
/// Results are merged back into slot order afterwards, so output is
/// byte-identical for every `jobs` value and for the sequential path.
///
/// With a cache, each worker first resolves the module's raw source
/// fingerprint against an immutable cache snapshot — a hit skips the
/// parse entirely. Otherwise it parses and checks the canonical
/// fingerprint, so a formatting-only change is still a hit and only
/// genuine content changes pay for analysis. Cache mutations (aliases,
/// fresh records) are applied on the calling thread after the sweep;
/// persisting the store is the caller's job (see
/// [`measure_corpus_with_cache`]).
fn sweep_modules<M, I>(
    modules: I,
    out_len: usize,
    jobs: usize,
    seed: u64,
    mut cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench)
where
    M: std::borrow::Borrow<GeneratedModule> + Send,
    I: Iterator<Item = (usize, M)> + Send,
{
    let threads = if jobs == 0 { default_jobs() } else { jobs };
    let _sweep_span = obs::span!("bench.sweep");
    let start = Instant::now();

    let shards = cache.as_deref().map_or(0, AnalysisCache::shard_count);
    if shards > 0 && shards <= DEFAULT_SHARDS && out_len > LARGE_CORPUS_SHARD_WARN {
        obs::warn!(
            "localias-bench: {out_len} modules over {shards} cache shards will contend; \
             consider --cache-shards {} (max {MAX_SHARDS})",
            suggest_cache_shards(out_len, shards),
        );
    }

    let outcomes: Vec<SweepOutcome> = {
        let snapshot: Option<&AnalysisCache> = cache.as_deref();
        let work = |slot: usize, m: &GeneratedModule| -> SweepOutcome {
            let served = |e: CachedOutcome, note| SweepOutcome {
                slot,
                result: e.to_result(&m.name),
                times: e.times,
                note,
            };
            let keyed = snapshot.map(|c| {
                (
                    c,
                    cache::source_fingerprint(&m.source, Backend::Steensgaard),
                )
            });
            if let Some((c, raw)) = keyed {
                if let Some((fp, e)) = c
                    .resolve_raw(raw)
                    .and_then(|fp| Some((fp, c.lookup_fp(fp)?)))
                {
                    return served(e, CacheNote::RawHit { fp });
                }
            }
            let t0 = Instant::now();
            let parsed = m.parse();
            let parse = t0.elapsed();
            let note = match keyed {
                None => CacheNote::Uncached,
                Some((c, raw)) => {
                    let fp = cache::module_fingerprint(&parsed, Backend::Steensgaard);
                    if let Some(e) = c.lookup_fp(fp) {
                        return served(e, CacheNote::CanonHit { fp, raw });
                    }
                    CacheNote::Miss { fp, raw }
                }
            };
            let (result, times) = ModuleResult::measure_parsed(&m.name, &parsed, parse);
            SweepOutcome {
                slot,
                result,
                times,
                note,
            }
        };

        if threads <= 1 {
            // Sequential path: generate, measure, drop — one module live.
            modules.map(|(slot, m)| work(slot, m.borrow())).collect()
        } else {
            // Bounded in-flight set: the producer blocks once the channel
            // holds 2·threads undrained modules.
            let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, M)>(threads * 2);
            let rx = std::sync::Mutex::new(rx);
            // Workers inherit the sweep's span path, so the span tree is
            // identical whatever the thread count.
            let span_cx = obs::fork();
            std::thread::scope(|s| {
                let producer = s.spawn(move || {
                    for item in modules {
                        if tx.send(item).is_err() {
                            break; // workers gone (a worker panicked)
                        }
                    }
                });
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let span_cx = span_cx.clone();
                        let (rx, work) = (&rx, &work);
                        s.spawn(move || {
                            let _attached = span_cx.attach();
                            let mut out = Vec::new();
                            loop {
                                let item = rx.lock().expect("receiver poisoned").recv();
                                match item {
                                    Ok((slot, m)) => out.push(work(slot, m.borrow())),
                                    Err(_) => break out, // producer done, channel drained
                                }
                            }
                        })
                    })
                    .collect();
                producer.join().expect("producer thread panicked");
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        }
    };

    let mut slots: Vec<Option<(ModuleResult, PhaseTimes)>> = (0..out_len).map(|_| None).collect();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut shard_hits = vec![0usize; shards];
    let mut shard_misses = vec![0usize; shards];
    for o in outcomes {
        match o.note {
            CacheNote::Uncached => {}
            CacheNote::RawHit { fp } => {
                hits += 1;
                if let Some(c) = cache.as_deref() {
                    shard_hits[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardHits, 1);
                }
            }
            CacheNote::CanonHit { fp, raw } => {
                hits += 1;
                if let Some(c) = cache.as_deref_mut() {
                    shard_hits[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardHits, 1);
                    c.alias_raw(raw, fp);
                }
            }
            CacheNote::Miss { fp, raw } => {
                misses += 1;
                if let Some(c) = cache.as_deref_mut() {
                    shard_misses[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardMisses, 1);
                    c.record(fp, raw, CachedOutcome::of(&o.result, o.times));
                }
            }
        }
        slots[o.slot] = Some((o.result, o.times));
    }

    let mut phases = PhaseTimes::default();
    let results: Vec<ModuleResult> = slots
        .into_iter()
        .map(|s| {
            let (r, t) = s.expect("every module measured exactly once");
            phases.accumulate(t);
            r
        })
        .collect();

    let errors = results.iter().fold((0, 0, 0), |(nc, cf, st), r| {
        (nc + r.no_confine, cf + r.confine, st + r.all_strong)
    });
    let cache_stats = cache.as_deref().map(|c| CacheStats {
        hits,
        misses,
        dir: c.dir_display(),
        shards,
        shard_hits,
        shard_misses,
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
        partition: None,
        results: None,
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
    sweep_modules(corpus.iter().enumerate(), corpus.len(), jobs, seed, cache)
}

/// [`sweep_modules`] under a [`CachePolicy`]: loads the store, sweeps,
/// and atomically persists the store back. Cache I/O failures degrade to
/// warnings — results are never affected.
fn sweep_with_policy<M, I>(
    modules: I,
    out_len: usize,
    jobs: usize,
    seed: u64,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench)
where
    M: std::borrow::Borrow<GeneratedModule> + Send,
    I: Iterator<Item = (usize, M)> + Send,
{
    let CachePolicy::Dir { dir, shards } = policy else {
        return sweep_modules(modules, out_len, jobs, seed, None);
    };
    let mut c = AnalysisCache::load_sharded(dir, *shards);
    let (results, mut bench) = sweep_modules(modules, out_len, jobs, seed, Some(&mut c));
    if let Err(e) = c.persist() {
        obs::warn!(
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

/// One full streamed sweep of stream positions `range` under a
/// [`CachePolicy`], without ever materializing the corpus: modules are
/// generated one at a time (by the producer thread when `jobs > 1`) and
/// dropped as soon as they are measured or served from cache, so peak
/// memory is `O(jobs)` modules however large the range is. Results come
/// back in stream order. The paper's experiment is
/// `CorpusStream::paper(seed)` over its whole length.
pub fn measure_stream_with_cache(
    stream: &CorpusStream,
    range: Range<usize>,
    jobs: usize,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    let base = range.start;
    sweep_with_policy(
        range.clone().map(|p| (p - base, stream.module_at(p))),
        range.len(),
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
    sweep_with_policy(corpus.iter().enumerate(), corpus.len(), jobs, seed, policy)
}

/// What [`finish_obs`] drained from the run's observability sinks.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// The full span/counter trace — `Some` only when the run asked for
    /// obs output (`--trace-out`, `--trace-chrome`, or `--profile`).
    pub trace: Option<obs::Trace>,
    /// Merged latency histograms. Always populated (histograms are
    /// cheap enough to collect unconditionally), so every bench
    /// artifact carries its `hist` block even without `--profile`.
    pub hists: Vec<obs::HistSnapshot>,
}

/// Applies the CLI's logging options and installs the obs sinks
/// (clearing any stale state so the trace covers exactly the run that
/// follows). Latency histograms are always enabled — they cost one TLS
/// array update per sample — while spans and counters only turn on
/// when `--trace-out`, `--trace-chrome`, or `--profile` asks for them.
/// Call once, right after argument parsing.
pub fn init_obs(opts: &CliOpts) {
    opts.apply_log_level();
    if opts.wants_obs() {
        obs::enable_all();
    } else {
        obs::enable_hists();
    }
    let _ = obs::drain();
}

/// Drains the obs sinks after the run: writes the JSON-lines trace to
/// `--trace-out`, the Chrome trace-event file to `--trace-chrome`,
/// prints the `--profile` table to stderr, and returns the drained
/// snapshots so callers can embed them (see [`ExperimentBench::profile`]
/// and [`ExperimentBench::hist`]). The report's histograms are populated
/// on every run; its trace only when the run asked for obs output.
pub fn finish_obs(opts: &CliOpts) -> Result<ObsReport, String> {
    if !opts.wants_obs() {
        let trace = obs::drain();
        obs::disable_hists();
        return Ok(ObsReport {
            trace: None,
            hists: trace.hists,
        });
    }
    // Flush the memory gauges exactly once, here — not inside the sweep,
    // so the trace shape stays invariant across thread counts.
    obs::gauge_max(obs::Counter::MemPeakRssBytes, obs::peak_rss_bytes());
    let arena = localias_ast::intern::stats();
    obs::gauge_max(obs::Counter::MemArenaBytes, arena.arena_bytes);
    obs::gauge_max(obs::Counter::MemArenaSavedBytes, arena.saved_bytes);
    let trace = obs::drain();
    obs::disable_hists();
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_chrome {
        let counters: Vec<(String, u64)> = trace
            .counters
            .iter_nonzero()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let chrome = obs::chrome_trace(&trace.spans, &counters, &trace.hists);
        std::fs::write(path, chrome).map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.profile {
        eprint!("{}", trace.render_profile());
    }
    Ok(ObsReport {
        hists: trace.hists.clone(),
        trace: Some(trace),
    })
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
mod tests {
    use super::*;
    use localias_cqual::check_modes;

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
        let [nc, cf, _] = check_modes(&mut SharedAnalysis::new(&m)).map(|r| r.error_count());
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
            (r(3, 3, 3), Category::Real),
            (r(4, 1, 1), Category::Full),
            (r(5, 2, 0), Category::Partial),
        ];
        for (m, want) in &cases {
            assert_eq!(m.category(), *want, "{m:?}");
        }
        let results: Vec<ModuleResult> = cases.into_iter().map(|(m, _)| m).collect();
        assert_eq!(category_counts(&results), [1, 1, 1, 1]);
    }

    #[test]
    fn shard_suggestion_tracks_corpus_size() {
        // ~1k modules per shard, rounded up to a power of two.
        assert_eq!(suggest_cache_shards(50_000, DEFAULT_SHARDS), 64);
        assert_eq!(suggest_cache_shards(100_000, DEFAULT_SHARDS), 128);
        assert_eq!(suggest_cache_shards(200_000, DEFAULT_SHARDS), MAX_SHARDS);
        // Huge corpora clamp at the store's shard-count ceiling.
        assert_eq!(suggest_cache_shards(10_000_000, DEFAULT_SHARDS), MAX_SHARDS);
        // The suggestion is always a strict increase over a contending
        // count (the warning's precondition: shards <= DEFAULT_SHARDS).
        for shards in 1..=DEFAULT_SHARDS {
            for modules in [LARGE_CORPUS_SHARD_WARN + 1, 20_000, 500_000] {
                let s = suggest_cache_shards(modules, shards);
                assert!(s > shards, "modules={modules} shards={shards} -> {s}");
                assert!(s <= MAX_SHARDS);
            }
        }
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
                shards: 4,
                shard_hits: vec![147, 148, 147, 138],
                shard_misses: vec![2, 2, 2, 3],
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
            partition: Some(PartitionInfo {
                index: 1,
                count: 2,
                total: 589,
            }),
            results: Some(vec![ModuleResult {
                name: "net_x0".into(),
                no_confine: 2,
                confine: 1,
                all_strong: 0,
            }]),
        }
    }

    #[test]
    fn experiment_writer_keeps_the_contract() {
        crate::testkit::assert_writer_contract(&sample_bench().to_json(), &["wall_seconds"]);
    }

    #[test]
    fn bench_json_parses_back_field_for_field() {
        let mut results = sample_bench().results.unwrap();
        results.push(ModuleResult {
            name: "scsi_y1".into(),
            no_confine: 1,
            confine: 1,
            all_strong: 1,
        });
        let bench = ExperimentBench {
            wall: Duration::from_nanos(313_788_123),
            results: Some(results),
            ..sample_bench()
        };
        let text = bench.to_json();
        // The `"key": value` layout scripts/check.sh greps for.
        for line in [
            "\"schema\": \"localias-bench-experiment/v7\"",
            "\"hits\": 580",
            "\"misses\": 9",
            "\"dir\": \".localias-cache\"",
            "\"shards\": 4",
            "\"shard_hits\": [147, 148, 147, 138]",
            "\"shard_misses\": [2, 2, 2, 3]",
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
        assert_eq!(num(&["cache", "shards"]), 4.0);
        assert_eq!(num(&["cache", "hit_rate"]), 580.0 / 589.0);
        let shard_hits = cache.get("shard_hits").unwrap().render();
        assert_eq!(shard_hits, "[147,148,147,138]");
        let shard_misses = cache.get("shard_misses").unwrap().render();
        assert_eq!(shard_misses, "[2,2,2,3]");
        assert_eq!(num(&["cache", "quarantined"]), 1.0);
        assert_eq!(num(&["cache", "lock_retries"]), 2.0);
        assert_eq!(num(&["cache", "lock_skips"]), 0.0);
        assert_eq!(num(&["partition", "index"]), 1.0);
        assert_eq!(num(&["partition", "count"]), 2.0);
        assert_eq!(num(&["partition", "total"]), 589.0);
        let rows = v.at(&["results"]).unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].render(), r#"["net_x0",2,1,0]"#);
        assert_eq!(rows[1].render(), r#"["scsi_y1",1,1,1]"#);
        // p50 hits bucket 5 (upper bound 31); p99 hits bucket 6, clamped
        // to the exact observed max.
        assert_eq!(num(&["hist", "analyze.module", "p50_ns"]), 31.0);
        assert_eq!(num(&["hist", "analyze.module", "p99_ns"]), 32.0);
        // Every registered histogram appears, sampled or not.
        assert_eq!(num(&["hist", "fuzz.execute", "count"]), 0.0);

        let bare = ExperimentBench {
            cache: None,
            partition: None,
            results: None,
            ..bench
        };
        let v = json::parse(&bare.to_json()).unwrap();
        for key in ["cache", "partition", "results", "profile"] {
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
