//! Correctness regression tests for the incremental analysis cache: warm
//! results must be byte-identical to cold ones, invalidation must be
//! exact (one changed module = one miss), a broken store must quarantine
//! and degrade the sweep to a cold run, a newer binary's store must be
//! left alone, concurrent writers sharing one store must lose no
//! entries, and warm sweeps must stay deterministic across thread counts
//! and seed changes.

use localias_alias::Backend;
use localias_bench::{
    measure_corpus_cached, measure_corpus_with_cache, AnalysisCache, CachePolicy, ModuleResult,
    ANALYSIS_VERSION,
};
use localias_corpus::{generate, GeneratedModule, DEFAULT_SEED};
use std::path::{Path, PathBuf};

/// Corpus prefix the tests sweep: big enough to cover every generator
/// archetype, small enough for debug builds.
const PREFIX: usize = 40;

/// A fresh, empty cache directory unique to this test.
fn cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("localias-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy(dir: &Path) -> CachePolicy {
    CachePolicy::dir(dir)
}

fn slice() -> Vec<GeneratedModule> {
    let corpus = generate(DEFAULT_SEED);
    assert!(corpus.len() >= PREFIX);
    corpus[..PREFIX].to_vec()
}

/// The results of an uncached sweep: the reference every cached sweep
/// must reproduce.
fn uncached(slice: &[GeneratedModule], seed: u64) -> Vec<ModuleResult> {
    measure_corpus_cached(slice, 1, seed, None).0
}

/// Renders results the way the report-diffing contract sees them: every
/// field of every module, in order.
fn render(results: &[ModuleResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {}\n",
                r.name, r.no_confine, r.confine, r.all_strong
            )
        })
        .collect()
}

/// The store file under `dir`.
fn store_path(dir: &Path) -> PathBuf {
    dir.join("store.jsonl")
}

/// Where a quarantined store under `dir` lands.
fn bad_path(dir: &Path) -> PathBuf {
    dir.join("store.jsonl.bad")
}

/// The names of every file under `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    out.sort();
    out
}

/// Number of entry lines (excluding the header) in the store file.
fn entry_count(path: &Path) -> usize {
    std::fs::read_to_string(path).unwrap().lines().count() - 1
}

#[test]
fn cold_then_warm_is_byte_identical_and_fully_hits() {
    let dir = cache_dir("cold-warm");
    let policy = policy(&dir);
    let slice = slice();

    let (cold, cold_bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = cold_bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (0, PREFIX));
    assert_eq!((stats.quarantined, stats.lock_skips), (0, 0));
    assert_eq!(
        listing(&dir),
        ["store.jsonl"],
        "one store file, nothing else"
    );
    assert_eq!(
        entry_count(&store_path(&dir)),
        PREFIX,
        "one entry per module"
    );

    let (warm, warm_bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = warm_bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (PREFIX, 0));
    assert_eq!(
        render(&cold),
        render(&warm),
        "warm report must be byte-identical"
    );

    // And both must equal an uncached run.
    assert_eq!(render(&uncached(&slice, DEFAULT_SEED)), render(&warm));
}

#[test]
fn perturbing_one_module_invalidates_exactly_one() {
    let dir = cache_dir("perturb");
    let policy = policy(&dir);
    let mut slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);

    // A content change (new global) must invalidate exactly its module.
    slice[7].source.push_str("\nint cache_perturbation_g;\n");
    let (warm, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (PREFIX - 1, 1),
        "exactly the perturbed module must miss"
    );

    // The mixed warm/miss report must equal a cold, uncached run of the
    // same perturbed corpus.
    let cold = uncached(&slice, DEFAULT_SEED);
    assert_eq!(render(&cold), render(&warm));
}

#[test]
fn comment_only_change_hits_via_canonical_fingerprint() {
    let dir = cache_dir("comment");
    let policy = policy(&dir);
    let mut slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);

    // Comments normalize away in the canonical form: raw fingerprint
    // misses, canonical fingerprint hits, no re-analysis.
    slice[3].source.push_str("\n// a trailing comment\n");
    let (_, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (PREFIX, 0));

    // The new raw fingerprint was aliased: the next sweep takes the
    // no-parse fast path for every module again.
    let (_, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (PREFIX, 0));
}

/// Corrupting the store degrades the whole sweep to a cold run — and
/// the broken file is quarantined to `store.jsonl.bad`, never re-parsed.
#[test]
fn corrupt_store_falls_back_to_cold_run() {
    let dir = cache_dir("corrupt");
    let policy = policy(&dir);
    let slice = slice();

    let (cold, _) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    std::fs::write(store_path(&dir), b"garbage\x00not a store\n").unwrap();

    let (recovered, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (0, PREFIX),
        "a corrupt store must be discarded, not half-used"
    );
    assert_eq!(stats.quarantined, 1);
    assert!(bad_path(&dir).exists(), "quarantined for inspection");
    assert_eq!(render(&cold), render(&recovered));

    // The rewrite healed the store.
    let (_, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (PREFIX, 0));
    assert_eq!(stats.quarantined, 0);
}

/// Truncating the store mid-entry (the way an interrupted write would,
/// were the store not written to a temp file and renamed) quarantines it
/// whole: every module re-analyzes to the uncached result, and the next
/// sweep heals the store.
#[test]
fn truncated_store_is_quarantined_whole() {
    let dir = cache_dir("truncated");
    let policy = policy(&dir);
    let slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let store = store_path(&dir);
    let full = std::fs::read(&store).unwrap();
    // Cut mid-entry (also severing the trailing newline).
    std::fs::write(&store, &full[..full.len() - 3]).unwrap();

    let (results, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (0, PREFIX),
        "every module of a truncated store re-analyzes"
    );
    assert_eq!(stats.quarantined, 1);
    assert!(bad_path(&dir).exists(), "quarantined for inspection");
    assert_eq!(render(&uncached(&slice, DEFAULT_SEED)), render(&results));

    // The re-analysis healed the store.
    let (_, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (PREFIX, 0));
    assert_eq!(stats.quarantined, 0);
}

/// The store's `analysis_version` with `version` in place of ours.
fn with_version(text: &str, version: u32) -> String {
    let bumped = text.replacen(
        &format!("\"analysis_version\":{ANALYSIS_VERSION}"),
        &format!("\"analysis_version\":{version}"),
        1,
    );
    assert_ne!(text, bumped);
    bumped
}

#[test]
fn version_mismatched_store_is_discarded() {
    let dir = cache_dir("version");
    let policy = policy(&dir);
    let slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let store = store_path(&dir);
    let text = std::fs::read_to_string(&store).unwrap();
    std::fs::write(&store, with_version(&text, ANALYSIS_VERSION - 1)).unwrap();

    let (_, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!((stats.hits, stats.misses), (0, PREFIX));
    assert_eq!(stats.quarantined, 1);
}

/// A store whose header names a newer `analysis_version` belongs to a
/// newer binary: a sweep serves nothing from it, and neither its load
/// nor its persist quarantines or rewrites it.
#[test]
fn newer_binarys_store_is_left_alone() {
    let dir = cache_dir("newer");
    let policy = policy(&dir);
    let slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let store = store_path(&dir);
    let text = std::fs::read_to_string(&store).unwrap();
    let newer = with_version(&text, ANALYSIS_VERSION + 1);
    std::fs::write(&store, &newer).unwrap();

    let (results, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (0, PREFIX),
        "nothing is served from a newer binary's store"
    );
    assert_eq!(stats.quarantined, 0);
    assert!(
        !bad_path(&dir).exists(),
        "a newer store is never quarantined"
    );
    assert_eq!(
        std::fs::read_to_string(&store).unwrap(),
        newer,
        "a newer store is left byte-identical"
    );
    assert_eq!(render(&uncached(&slice, DEFAULT_SEED)), render(&results));
}

/// A store written by the PR-2 binary (schema `localias-cache/v1`,
/// `analysis_version: 1`, named-field entry lines) must be discarded
/// whole: the checker pipeline changed in v2, so every v1 entry is
/// potentially stale and none may be served. It sits where the one-file
/// store lives, so the load quarantines it.
#[test]
fn stale_v1_store_is_discarded_whole() {
    let dir = cache_dir("v1-store");
    let policy = policy(&dir);
    let slice = slice();

    // Reconstruct the exact v1 format from before the bump, entry lines
    // included — a plausible leftover from a PR-2 sweep of this corpus.
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = String::from("{\"schema\":\"localias-cache/v1\",\"analysis_version\":1}\n");
    for (i, _) in slice.iter().enumerate() {
        store.push_str(&format!(
            "{{\"fp\":\"{i:032x}\",\"raw\":\"{:032x}\",\"nc\":7,\"cf\":7,\"as\":7,\
             \"parse_ns\":1,\"check_ns\":1,\"confine_ns\":1}}\n",
            i + 1000
        ));
    }
    std::fs::write(dir.join("store.jsonl"), store).unwrap();

    let (results, bench) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (0, PREFIX),
        "every stale v1 entry must be discarded, none served"
    );
    assert_eq!(stats.quarantined, 1);
    assert_eq!(render(&uncached(&slice, DEFAULT_SEED)), render(&results));
}

#[test]
fn warm_sweep_is_deterministic_across_thread_counts() {
    let dir = cache_dir("jobs");
    let policy = policy(&dir);
    let slice = slice();

    let _ = measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);

    let (warm1, b1) =
        measure_corpus_with_cache(&slice, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    let (warm8, b8) =
        measure_corpus_with_cache(&slice, 8, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);
    assert_eq!(render(&warm1), render(&warm8));
    assert_eq!(b1.cache.unwrap().hits, PREFIX);
    assert_eq!(b8.cache.unwrap().hits, PREFIX);

    // Mixed hit/miss sweeps must also be jobs-independent.
    let mut perturbed = slice.clone();
    for m in perturbed.iter_mut().take(5) {
        m.source.push_str("\nint jobs_perturbation_g;\n");
    }
    let (mixed1, _) = measure_corpus_cached(
        &perturbed,
        1,
        DEFAULT_SEED,
        Some(&mut AnalysisCache::load(&dir)),
    );
    let (mixed8, _) = measure_corpus_cached(
        &perturbed,
        8,
        DEFAULT_SEED,
        Some(&mut AnalysisCache::load(&dir)),
    );
    assert_eq!(render(&mixed1), render(&mixed8));
}

/// The ISSUE's cold → warm → perturbed-seed trajectory: re-running with a
/// different seed against a warm store must report exactly what a cold,
/// uncached run of that seed's corpus reports.
#[test]
fn perturbed_seed_reports_match_a_cold_run() {
    let dir = cache_dir("seed");
    let policy = policy(&dir);

    let slice_a = slice();
    let _ = measure_corpus_with_cache(&slice_a, 1, 1, DEFAULT_SEED, Backend::Steensgaard, &policy);

    let corpus_b = generate(DEFAULT_SEED + 1);
    let slice_b = corpus_b[..PREFIX].to_vec();
    let (via_cache, _) = measure_corpus_with_cache(
        &slice_b,
        1,
        1,
        DEFAULT_SEED + 1,
        Backend::Steensgaard,
        &policy,
    );
    let cold = uncached(&slice_b, DEFAULT_SEED + 1);
    assert_eq!(render(&cold), render(&via_cache));
}

// ---------------------------------------------------------------------
// Multi-process concurrency: the PR-2/PR-3 monolithic store lost one
// writer's entries whenever two processes raced the final rename. The
// merge-on-write store must keep the exact union.

/// Child-process entry point, re-executed from the test binary itself
/// (guarded by an env var, so it is an instant no-op as a normal test).
/// Loads the shared cache while it is still empty, rendezvouses with its
/// sibling, then sweeps its half of the corpus and persists — the exact
/// interleaving (load before the sibling's persist) that clobbered the
/// monolithic store.
#[test]
fn concurrent_child() {
    let Ok(spec) = std::env::var("LOCALIAS_CACHE_TEST_CHILD") else {
        return;
    };
    let parts: Vec<&str> = spec.split('|').collect();
    let [dir, lo, hi, peer] = parts[..] else {
        panic!("bad child spec {spec:?}");
    };
    let dir = PathBuf::from(dir);
    let (lo, hi): (usize, usize) = (lo.parse().unwrap(), hi.parse().unwrap());

    let corpus = generate(DEFAULT_SEED);
    let slice = corpus[lo..hi].to_vec();
    let mut cache = AnalysisCache::load(&dir);
    assert!(cache.is_empty(), "child must load the pre-sweep store");

    // Rendezvous: both children hold an empty in-memory store before
    // either persists, so a lost-update bug cannot hide behind timing.
    std::fs::write(dir.join(format!("ready.{lo}")), "").unwrap();
    let peer = dir.join(format!("ready.{peer}"));
    let t0 = std::time::Instant::now();
    while !peer.exists() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "sibling never arrived"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let (_, bench) = measure_corpus_cached(&slice, 1, DEFAULT_SEED, Some(&mut cache));
    assert_eq!(bench.cache.unwrap().misses, hi - lo);
    cache.persist().expect("child persist");
}

/// Two real processes sweep disjoint corpus halves into one cache
/// directory concurrently; the final store must hold the exact union
/// (a third, warm sweep over the full slice hits on every module).
#[test]
fn concurrent_disjoint_sweeps_lose_no_entries() {
    let dir = cache_dir("concurrent");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mid = PREFIX / 2;

    let spawn = |lo: usize, hi: usize, peer: usize| {
        std::process::Command::new(&exe)
            .args(["--exact", "concurrent_child", "--nocapture"])
            .env(
                "LOCALIAS_CACHE_TEST_CHILD",
                format!("{}|{lo}|{hi}|{peer}", dir.display()),
            )
            .spawn()
            .expect("child spawns")
    };
    let mut a = spawn(0, mid, mid);
    let mut b = spawn(mid, PREFIX, 0);
    assert!(a.wait().expect("child a").success(), "child a failed");
    assert!(b.wait().expect("child b").success(), "child b failed");

    // The union survived: a warm sweep over the full slice serves every
    // module from the store and re-analyzes nothing.
    let slice = slice();
    let (warm, bench) = measure_corpus_with_cache(
        &slice,
        1,
        1,
        DEFAULT_SEED,
        Backend::Steensgaard,
        &policy(&dir),
    );
    let stats = bench.cache.expect("cache stats present");
    assert_eq!(
        (stats.hits, stats.misses),
        (PREFIX, 0),
        "both children's entries must survive concurrent persists"
    );
    assert_eq!(stats.quarantined, 0, "no shard was harmed in the race");
    let cold = uncached(&slice, DEFAULT_SEED);
    assert_eq!(render(&cold), render(&warm), "union serves exact results");
}
