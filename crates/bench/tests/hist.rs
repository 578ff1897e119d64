//! Integration tests for the latency-histogram layer: the distribution
//! a sweep reports must describe the *work*, never the *schedule*.
//!
//! Two determinism contracts are pinned here, one per failure mode:
//!
//! * **Real sweeps** time real work, so the nanosecond values differ run
//!   to run — but the *event multiset structure* (which histograms
//!   recorded, and how many samples each took) is a pure function of the
//!   corpus. Those counts must be identical for every `--jobs` value.
//! * **Equal multisets** must merge to byte-identical artifacts whatever
//!   thread layout recorded them: the same samples pushed through the
//!   real fork/attach flush discipline under 1, 2, or 8 workers render
//!   the exact same `hist` JSON block, byte for byte.
//!
//! Every test holds [`obs::test_lock`] across enable → work → drain —
//! the histogram registry is process-global.

use localias_alias::Backend;
use localias_bench::CachePolicy;
use localias_bench::{json, json_hists, measure_corpus_cached, measure_corpus_with_cache};
use localias_corpus::{generate, GeneratedModule, DEFAULT_SEED};
use localias_obs as obs;

/// Corpus prefix the sweeps run: enough modules for the work-stealing
/// loop to interleave on while staying fast in debug builds.
const PREFIX: usize = 40;

fn slice() -> Vec<GeneratedModule> {
    let corpus = generate(DEFAULT_SEED);
    assert!(corpus.len() >= PREFIX);
    corpus[..PREFIX].to_vec()
}

/// Sweeps `slice` with only histogram collection on (the default-run
/// configuration: no spans, no counters) and returns the drained
/// snapshots. Caller holds the test lock.
fn hist_sweep(slice: &[GeneratedModule], jobs: usize) -> Vec<obs::HistSnapshot> {
    obs::enable_hists();
    let _ = obs::drain();
    let _ = measure_corpus_cached(slice, jobs, DEFAULT_SEED, None);
    let trace = obs::drain();
    obs::disable_hists();
    trace.hists
}

/// The schedule-free shape of a drained histogram set: name and sample
/// count per histogram (the nanosecond fields are wall-clock readings
/// and legitimately vary).
fn shape(hists: &[obs::HistSnapshot]) -> Vec<(String, u64)> {
    hists.iter().map(|h| (h.name.clone(), h.count)).collect()
}

/// The pinned acceptance criterion, event-count half: every histogram
/// records exactly the same number of samples whatever `--jobs` the
/// sweep ran under.
#[test]
fn sweep_hist_counts_are_thread_invariant() {
    let slice = slice();
    let _l = obs::test_lock();

    let base = hist_sweep(&slice, 1);
    let names: Vec<&str> = base.iter().map(|h| h.name.as_str()).collect();
    assert!(
        names.contains(&"analyze.module"),
        "per-module analysis went unrecorded: {names:?}"
    );
    assert!(
        names.contains(&"check.function"),
        "per-function checks went unrecorded: {names:?}"
    );
    assert!(
        names.contains(&"check.wave"),
        "check waves went unrecorded: {names:?}"
    );
    for h in &base {
        assert!(h.count > 0, "{} drained empty", h.name);
        assert_eq!(
            h.count,
            h.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            "{}: bucket counts must sum to the sample count",
            h.name
        );
    }

    let base_shape = shape(&base);
    for jobs in [2, 8] {
        let got = shape(&hist_sweep(&slice, jobs));
        assert_eq!(
            got, base_shape,
            "histogram shape depends on schedule at jobs={jobs}"
        );
    }
}

/// Records `values` into `check.function` under `workers` threads, each
/// flushing through the real [`obs::SpanContext`] attach-guard edge —
/// the same path sweep workers take — and returns the drained
/// snapshots. Caller holds the test lock.
fn layout_hists(values: &[u64], workers: usize) -> Vec<obs::HistSnapshot> {
    obs::enable_hists();
    let _ = obs::drain();
    let ctx = obs::fork();
    std::thread::scope(|s| {
        for w in 0..workers {
            let chunk: Vec<u64> = values.iter().copied().skip(w).step_by(workers).collect();
            let ctx = &ctx;
            s.spawn(move || {
                let _attached = ctx.attach();
                for v in chunk {
                    obs::record(obs::Hist::CheckFunction, v);
                }
            });
        }
    });
    let trace = obs::drain();
    obs::disable_hists();
    trace.hists
}

/// The pinned acceptance criterion, byte-identity half: the same sample
/// multiset recorded under any worker layout renders the exact same
/// bench-artifact `hist` block. This is what lets partitioned and
/// multi-threaded runs be compared byte-for-byte.
#[test]
fn equal_multisets_render_byte_identical_hist_blocks() {
    let values: Vec<u64> = (0..1_000u64)
        .map(|i| (i * 2654435761) % 5_000_000)
        .collect();
    let _l = obs::test_lock();

    let base = layout_hists(&values, 1);
    let base_json = json_hists(&base).render();
    json::parse(&base_json).expect("hist block is valid JSON");
    for workers in [2usize, 4, 8] {
        let hists = layout_hists(&values, workers);
        assert_eq!(hists, base, "{workers}-worker snapshots diverged");
        assert_eq!(
            json_hists(&hists).render(),
            base_json,
            "{workers}-worker hist block is not byte-identical"
        );
    }
}

/// End to end through the artifact format: a known distribution renders
/// exact, hand-computable percentiles in the JSON the bench files embed.
#[test]
fn hist_block_reports_exact_percentiles() {
    // 100 fast samples (10 ns → bucket 4, bound 15), 10 slow (1000 ns →
    // bucket 10, bound 1023), one outlier (1 ms, clamped to max).
    let mut values = vec![10u64; 100];
    values.extend([1000u64; 10]);
    values.push(1_000_000);

    let _l = obs::test_lock();
    obs::enable_hists();
    let _ = obs::drain();
    for &v in &values {
        obs::record(obs::Hist::AnalyzeModule, v);
    }
    let trace = obs::drain();
    obs::disable_hists();

    let doc = json::parse(&json_hists(&trace.hists).render()).expect("hist block parses");
    let h = doc.get("analyze.module").expect("analyze.module present");
    let field = |name: &str| h.get(name).and_then(json::Value::as_u64).unwrap();
    assert_eq!(field("count"), 111);
    assert_eq!(field("sum_ns"), 100 * 10 + 10 * 1000 + 1_000_000);
    assert_eq!(field("min_ns"), 10);
    assert_eq!(field("max_ns"), 1_000_000);
    assert_eq!(field("p50_ns"), 15, "rank 56 lands in the 10 ns bucket");
    assert_eq!(field("p90_ns"), 15, "rank 100 still in the 10 ns bucket");
    assert_eq!(field("p95_ns"), 1023, "rank 106 lands in the 1 µs bucket");
    assert_eq!(field("p99_ns"), 1023, "rank 110 lands in the 1 µs bucket");
    // Histograms nothing recorded into still render, zeroed, so warm and
    // cold artifacts keep the same shape.
    let idle = doc.get("fuzz.execute").expect("registered but idle hist");
    assert_eq!(idle.get("count").and_then(json::Value::as_u64), Some(0));
}

/// The cache path is instrumented on both edges: a cold cached sweep
/// times shard persists, a warm one times shard loads.
#[test]
fn cached_sweeps_record_shard_load_and_persist_latencies() {
    let dir = std::env::temp_dir().join(format!("localias-hist-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CachePolicy::dir(&dir);
    let slice = slice();

    let _l = obs::test_lock();
    obs::enable_hists();
    let _ = obs::drain();
    let _ = measure_corpus_with_cache(&slice, 2, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let cold = obs::drain();
    obs::disable_hists();
    let persist = cold
        .hist(obs::Hist::CacheShardPersist)
        .expect("cold run persisted shards");
    assert!(persist.count > 0);

    obs::enable_hists();
    let _ = obs::drain();
    let _ = measure_corpus_with_cache(&slice, 2, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let warm = obs::drain();
    obs::disable_hists();
    let load = warm
        .hist(obs::Hist::CacheShardLoad)
        .expect("warm run loaded shards");
    assert!(load.count > 0);

    let _ = std::fs::remove_dir_all(&dir);
}
