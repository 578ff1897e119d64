//! Incremental analysis cache: content-addressed per-module results with
//! an on-disk store, so a corpus sweep only re-analyzes modules whose
//! source actually changed since the last sweep.
//!
//! # Keying
//!
//! The cache key is a 128-bit FNV-1a fingerprint of the module's
//! *canonical* source — the [`localias_ast::pretty`] rendering of its
//! parse tree — mixed with [`ANALYSIS_VERSION`] and the (seed-independent)
//! analysis configuration. Canonicalizing through the pretty printer makes
//! the key insensitive to comments and formatting, and the printer's
//! fixpoint guarantee (`print ∘ parse ∘ print = print`, pinned by
//! `tests/pretty_stability.rs`) makes it stable across round trips.
//!
//! Because canonicalization requires a parse, every entry also remembers
//! the raw-source fingerprint of the text that produced it. An unchanged
//! module hits on the raw fingerprint without being parsed at all — the
//! fast path a fully warm sweep takes for all 589 modules. A raw miss
//! falls back to the canonical fingerprint (catching comment-only or
//! whitespace-only edits) before counting as a true miss.
//!
//! A lookup is a hit *only* on an exact fingerprint match; the raw-path
//! shortcut is sound because the canonical fingerprint is a pure function
//! of the raw source.
//!
//! # Store: sharded, crash-safe, safe under concurrent writers
//!
//! The store is a directory (default `.localias-cache/`) holding N shard
//! files `shard-00.jsonl` … (N = [`DEFAULT_SHARDS`]). Entries are
//! partitioned by canonical fingerprint (`fp mod N`); each shard is a
//! JSON-lines file — a schema header line followed by one entry per
//! `(raw, canonical)` fingerprint pair.
//!
//! *Loads are lock-free*: every `shard-*.jsonl` present is read at sweep
//! start, whatever N it was written under. A shard that fails the strict
//! parse — truncation, corruption, a schema or [`ANALYSIS_VERSION`]
//! mismatch — is *quarantined individually* (renamed to `<shard>.bad`)
//! with a warning; the rest of the store keeps serving hits. A cache can
//! never panic a sweep or change its results.
//!
//! *Persists are merge-on-write under an advisory lock*: for each shard
//! with new entries, the writer takes `shard-NN.lock` (created with
//! `create_new`, the portable flock analogue) with bounded exponential
//! backoff, re-reads the shard, unions it with its in-memory entries —
//! on-disk wins ties, and a shard header carrying a *newer*
//! `analysis_version` is left entirely alone — and atomically replaces
//! the file (temp + rename). If the lock cannot be acquired in time the
//! shard is skipped with a warning rather than blocking the sweep: the
//! unsaved entries are merely recomputed (or merged) by a later run.
//! Locks held by dead processes (the holder's pid is written into the
//! lockfile) are broken; orphaned `*.tmp.<pid>` files from crashed
//! writers are swept at load time once their writer is gone.
//!
//! Two sweeps sharing one cache directory — two `localias experiment`
//! processes started side by side, over the same corpus or disjoint
//! ones — therefore lose no entries: each persist folds the other's
//! fresh entries into the union instead of clobbering the store
//! wholesale.

use crate::{ModuleResult, PhaseTimes};
use localias_ast::fp;
use localias_obs as obs;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bumped whenever any analysis stage changes observable results, so
/// stale caches from older binaries can never serve wrong answers. Mixed
/// into every canonical fingerprint *and* written in every shard header.
///
/// Single-sourced from [`localias_ast::fp`], next to the fingerprint
/// core.
///
/// v2: the checker moved to the frozen-analysis, call-graph-scheduled
/// pipeline and the store grew the generic `"v"` payload (see
/// [`CachedValues`]); every v1 store is discarded whole on load.
pub const ANALYSIS_VERSION: u32 = localias_ast::fp::ANALYSIS_VERSION;

/// Key-domain identifier, mixed into every canonical fingerprint.
///
/// Deliberately *frozen* at the `v2` literal across the v3 sharded store
/// layout: sharding changed where entries live, not what they mean, so
/// existing fingerprints must keep hitting.
const STORE_SCHEMA: &str = "localias-cache/v2";

/// Schema identifier written in every shard file's header line.
const SHARD_SCHEMA: &str = "localias-cache/v3-shard";

/// Seed-independent description of what one cached result covers. Keyed
/// into the fingerprint so a config change invalidates rather than hits.
const ANALYSIS_CONFIG: &str = "modes=no_confine,confine,all_strong";

/// Default number of shard files per cache directory.
pub const DEFAULT_SHARDS: usize = 16;

/// Upper bound on a store's shard count (beyond this, per-file overheads
/// beat any contention win).
pub const MAX_SHARDS: usize = 256;

/// Attempts to take one shard lock before skipping its persist.
const LOCK_ATTEMPTS: u32 = 8;

/// First backoff sleep; doubles per attempt up to [`LOCK_CAP_MS`].
const LOCK_BASE_MS: u64 = 1;

/// Backoff ceiling per sleep.
const LOCK_CAP_MS: u64 = 50;

/// Fingerprint of a module's raw source text (the pre-parse fast path).
///
/// `backend` is kept only so the benchmark crate's calls keep their
/// signature; the sweep runs Steensgaard alone, whose keys were always
/// the untagged `raw;` domain.
pub fn source_fingerprint(source: &str, backend: localias_alias::Backend) -> u128 {
    assert_eq!(backend, localias_alias::Backend::Steensgaard);
    fp::fingerprint("raw;", source)
}

/// Canonical fingerprint of a parsed module: hash of its pretty-printed
/// source, domain-separated by the analysis version and configuration.
/// Deliberately independent of the corpus seed and the module's name.
/// `backend` is a signature shim, as for [`source_fingerprint`].
pub fn module_fingerprint(m: &localias_ast::Module, backend: localias_alias::Backend) -> u128 {
    assert_eq!(backend, localias_alias::Backend::Steensgaard);
    let canon = localias_ast::pretty::print_module(m);
    let domain = format!("{STORE_SCHEMA};av{ANALYSIS_VERSION};{ANALYSIS_CONFIG};");
    fp::fingerprint(&domain, &canon)
}

/// Where (whether) a sweep keeps its cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: every sweep is cold and nothing touches the disk.
    Disabled,
    /// Cache under the given directory, partitioned into `shards` files.
    Dir {
        /// Cache directory.
        dir: PathBuf,
        /// Shard-file count (clamped to `1..=`[`MAX_SHARDS`] on load).
        /// The CLI always uses [`DEFAULT_SHARDS`]; the field stays so the
        /// benchmark crate's calls keep their signature.
        shards: usize,
    },
}

impl CachePolicy {
    /// The default policy: caching on, under `.localias-cache/` in the
    /// current directory, with [`DEFAULT_SHARDS`] shards.
    pub fn enabled_default() -> CachePolicy {
        CachePolicy::dir(".localias-cache")
    }

    /// Caching on under `dir` with the default shard count.
    pub fn dir(dir: impl Into<PathBuf>) -> CachePolicy {
        CachePolicy::Dir {
            dir: dir.into(),
            shards: DEFAULT_SHARDS,
        }
    }
}

/// The store payload: six unsigned values per entry, a packed
/// [`CachedOutcome`].
pub type CachedValues = [u64; 6];

/// One cached per-module outcome: the error triple plus the phase times
/// of the run that produced it (replayed into warm reports so the phase
/// breakdown keeps describing the analysis cost the results represent).
#[derive(Debug, Clone, Copy)]
pub struct CachedOutcome {
    /// Errors without confine inference.
    pub no_confine: usize,
    /// Errors with confine inference.
    pub confine: usize,
    /// Errors assuming all updates strong.
    pub all_strong: usize,
    /// Phase times of the original (cold) measurement.
    pub times: PhaseTimes,
}

impl CachedOutcome {
    /// Captures a freshly measured result.
    pub fn of(r: &ModuleResult, times: PhaseTimes) -> CachedOutcome {
        CachedOutcome {
            no_confine: r.no_confine,
            confine: r.confine,
            all_strong: r.all_strong,
            times,
        }
    }

    /// Rehydrates a [`ModuleResult`] under the *current* module name
    /// (names are seed-dependent and not part of the key).
    pub fn to_result(self, name: &str) -> ModuleResult {
        ModuleResult {
            name: name.to_string(),
            no_confine: self.no_confine,
            confine: self.confine,
            all_strong: self.all_strong,
        }
    }

    /// Packs into the generic store payload.
    pub fn to_values(self) -> CachedValues {
        [
            self.no_confine as u64,
            self.confine as u64,
            self.all_strong as u64,
            self.times.parse.as_nanos() as u64,
            self.times.check.as_nanos() as u64,
            self.times.confine.as_nanos() as u64,
        ]
    }

    /// Unpacks from the generic store payload.
    pub fn from_values(v: CachedValues) -> CachedOutcome {
        CachedOutcome {
            no_confine: v[0] as usize,
            confine: v[1] as usize,
            all_strong: v[2] as usize,
            times: PhaseTimes {
                parse: Duration::from_nanos(v[3]),
                check: Duration::from_nanos(v[4]),
                confine: Duration::from_nanos(v[5]),
            },
        }
    }
}

/// Cache statistics for one sweep, reported in the experiment
/// artifact's `cache` block ([`crate::EXPERIMENT_SCHEMA`]).
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Modules served from the cache (raw or canonical fingerprint).
    pub hits: usize,
    /// Modules analyzed from scratch this sweep.
    pub misses: usize,
    /// Cache directory, as given.
    pub dir: String,
    /// Shard files the store is partitioned into.
    pub shards: usize,
    /// Hits per home shard (`len == shards`).
    pub shard_hits: Vec<usize>,
    /// Misses per home shard (`len == shards`).
    pub shard_misses: Vec<usize>,
    /// Shards quarantined (renamed to `*.bad`) this sweep.
    pub quarantined: usize,
    /// Lock-acquisition retries (backoff sleeps) while persisting.
    pub lock_retries: usize,
    /// Shards whose persist was skipped because the lock stayed
    /// contended past the bounded backoff.
    pub lock_skips: usize,
    /// Time spent reading + parsing the shards at sweep start.
    pub load: Duration,
    /// Time spent merging + atomically rewriting them at sweep end.
    pub store: Duration,
}

/// The in-memory index over the on-disk store.
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
    /// Shard-file count new entries are partitioned into.
    shards: usize,
    /// canonical fingerprint → generic payload.
    entries: HashMap<u128, CachedValues>,
    /// raw-source fingerprint → canonical fingerprint.
    by_raw: HashMap<u128, u128>,
    /// Home shards holding entries not yet persisted.
    dirty: HashSet<usize>,
    quarantined: usize,
    lock_retries: usize,
    lock_skips: usize,
    load_time: Duration,
    store_time: Duration,
}

impl AnalysisCache {
    /// [`AnalysisCache::load_sharded`] with [`DEFAULT_SHARDS`].
    pub fn load(dir: &Path) -> AnalysisCache {
        Self::load_sharded(dir, DEFAULT_SHARDS)
    }

    /// Loads every shard under `dir` (lock-free), or starts empty when
    /// there are none. Corrupt, truncated, or version-mismatched shards
    /// are quarantined individually (renamed to `*.bad`) with a warning —
    /// never an error, and never at the expense of the healthy shards.
    /// New entries go to `shards` files; the argument stays so the
    /// benchmark crate's calls keep their signature.
    pub fn load_sharded(dir: &Path, shards: usize) -> AnalysisCache {
        let t0 = Instant::now();
        let mut cache = AnalysisCache {
            dir: dir.to_path_buf(),
            shards: shards.clamp(1, MAX_SHARDS),
            entries: HashMap::new(),
            by_raw: HashMap::new(),
            dirty: HashSet::new(),
            quarantined: 0,
            lock_retries: 0,
            lock_skips: 0,
            load_time: Duration::ZERO,
            store_time: Duration::ZERO,
        };

        sweep_orphaned_tmp_files(dir);

        // Read whatever shard files exist, in index order, whatever shard
        // count wrote them: entries are keyed by fingerprint, so a shard
        // written under a different shard count still serves hits
        // (its entries re-home at the next persist that touches them).
        let mut shard_files: Vec<(usize, PathBuf)> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(dir) {
            for entry in rd.flatten() {
                if let Some(idx) = shard_index_of(&entry.file_name().to_string_lossy()) {
                    shard_files.push((idx, entry.path()));
                }
            }
        }
        shard_files.sort();
        for (idx, path) in shard_files {
            let _hist = obs::hist_timer!(obs::Hist::CacheShardLoad);
            // A read error means the file vanished since listing (a
            // concurrent writer's rename) — skip, never quarantine.
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            match parse_store(&text, &shard_header_line(idx)) {
                Ok((entries, by_raw)) => {
                    cache.entries.extend(entries);
                    cache.by_raw.extend(by_raw);
                }
                Err(why) => {
                    eprintln!(
                        "localias-bench: warning: quarantining cache shard {} ({why})",
                        path.display()
                    );
                    quarantine(&path);
                    cache.quarantined += 1;
                    obs::count(obs::Counter::CacheQuarantined, 1);
                }
            }
        }

        cache.load_time = t0.elapsed();
        cache
    }

    /// The directory this cache persists under, for display.
    pub fn dir_display(&self) -> String {
        self.dir.display().to_string()
    }

    /// Shard files new entries are partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The home shard of a canonical fingerprint.
    pub fn shard_of(&self, fp: u128) -> usize {
        (fp % self.shards as u128) as usize
    }

    /// Shards quarantined while loading or persisting.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Lock-acquisition retries (backoff sleeps) over all persists.
    pub fn lock_retries(&self) -> usize {
        self.lock_retries
    }

    /// Shard persists skipped because their lock stayed contended.
    pub fn lock_skips(&self) -> usize {
        self.lock_skips
    }

    /// Time [`AnalysisCache::load_sharded`] spent on the store files.
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// Time the last [`AnalysisCache::persist`] spent merging + writing.
    pub fn store_time(&self) -> Duration {
        self.store_time
    }

    /// Number of distinct cached module outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical fingerprint a raw-source fingerprint aliases, if
    /// this source has been seen before.
    pub fn resolve_raw(&self, raw: u128) -> Option<u128> {
        self.by_raw.get(&raw).copied()
    }

    /// Lookup by canonical fingerprint.
    pub fn lookup_fp(&self, fp: u128) -> Option<CachedOutcome> {
        self.lookup_values(fp).map(CachedOutcome::from_values)
    }

    /// Records a freshly measured outcome under both fingerprints.
    pub fn record(&mut self, fp: u128, raw: u128, outcome: CachedOutcome) {
        self.record_values(fp, raw, outcome.to_values());
    }

    /// Lookup of the packed payload under a canonical key.
    fn lookup_values(&self, fp: u128) -> Option<CachedValues> {
        self.entries.get(&fp).copied()
    }

    /// Record of a packed payload under `(fp, raw)`.
    fn record_values(&mut self, fp: u128, raw: u128, values: CachedValues) {
        self.entries.insert(fp, values);
        self.by_raw.insert(raw, fp);
        self.dirty.insert(self.shard_of(fp));
    }

    /// Remembers that `raw` canonicalizes to the already-cached `fp`, so
    /// the next sweep takes the no-parse fast path for this source.
    pub fn alias_raw(&mut self, raw: u128, fp: u128) {
        if self.by_raw.get(&raw) != Some(&fp) {
            self.by_raw.insert(raw, fp);
            self.dirty.insert(self.shard_of(fp));
        }
    }

    /// Persists every dirty shard: merge-on-write under the shard lock,
    /// then an atomic temp + rename replace. A no-op when nothing changed
    /// since load. Lock timeouts skip the shard with a warning (bounded
    /// backoff, never blocking the sweep); I/O errors are reported after
    /// every shard has been attempted.
    pub fn persist(&mut self) -> std::io::Result<()> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        std::fs::create_dir_all(&self.dir)?;

        // Group every in-memory line by its home shard. A raw alias whose
        // backing entry is gone (a quarantined shard held the entry but
        // another shard held the alias) is dropped — loudly, so store
        // corruption is observable instead of invisible.
        let mut lines: HashMap<usize, ShardLines> = HashMap::new();
        let mut dangling = 0usize;
        for (&raw, &fp) in &self.by_raw {
            match self.entries.get(&fp) {
                Some(v) => {
                    lines
                        .entry(self.shard_of(fp))
                        .or_default()
                        .insert(raw, (fp, *v));
                }
                None => dangling += 1,
            }
        }
        if dangling > 0 {
            eprintln!(
                "localias-bench: warning: dropping {dangling} raw alias(es) whose backing \
                 entry is missing (store was corrupted or partially quarantined)"
            );
        }

        let mut first_err: Option<std::io::Error> = None;
        let mut todo: Vec<usize> = self.dirty.iter().copied().collect();
        todo.sort_unstable();
        for s in todo {
            match self.persist_shard(s, lines.get(&s)) {
                Ok(true) => {
                    self.dirty.remove(&s);
                }
                Ok(false) => {} // skipped (contended or foreign); stays dirty
                Err(e) => {
                    eprintln!(
                        "localias-bench: warning: cache shard {} not written: {e}",
                        self.dir.join(shard_file_name(s)).display()
                    );
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }

        self.store_time = t0.elapsed();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Persists one shard. `Ok(true)` on success, `Ok(false)` when the
    /// shard was skipped (lock contention past the backoff bound, or a
    /// shard owned by a newer binary).
    fn persist_shard(&mut self, s: usize, mine: Option<&ShardLines>) -> std::io::Result<bool> {
        let _hist = obs::hist_timer!(obs::Hist::CacheShardPersist);
        let path = self.dir.join(shard_file_name(s));
        let lock_path = self.dir.join(format!("shard-{s:02}.lock"));
        let Some(_guard) = acquire_lock(&lock_path, &mut self.lock_retries)? else {
            eprintln!(
                "localias-bench: warning: cache shard {} is locked by another live \
                 process; skipping persist (its entries merge or recompute next run)",
                path.display()
            );
            self.lock_skips += 1;
            obs::count(obs::Counter::CacheLockSkips, 1);
            return Ok(false);
        };

        // Merge-on-write: union with whatever is on disk *now*, which a
        // concurrent writer may have extended since our lock-free load.
        // On-disk wins ties (same analysis_version ⇒ same deterministic
        // values, and keeping disk avoids churn); a shard written by a
        // *newer* analysis_version is theirs, not ours — leave it alone.
        let mut merged: ShardLines = mine.cloned().unwrap_or_default();
        if let Ok(text) = std::fs::read_to_string(&path) {
            match parse_store(&text, &shard_header_line(s)) {
                Ok((entries, by_raw)) => {
                    for (raw, fp) in by_raw {
                        if let Some(v) = entries.get(&fp) {
                            merged.insert(raw, (fp, *v));
                        }
                    }
                }
                Err(why) => {
                    if header_version(&text).is_some_and(|v| v > ANALYSIS_VERSION) {
                        eprintln!(
                            "localias-bench: warning: cache shard {} was written by a \
                             newer binary; leaving it alone",
                            path.display()
                        );
                        return Ok(false);
                    }
                    eprintln!(
                        "localias-bench: warning: quarantining cache shard {} ({why})",
                        path.display()
                    );
                    quarantine(&path);
                    self.quarantined += 1;
                    obs::count(obs::Counter::CacheQuarantined, 1);
                }
            }
        }

        let mut out = String::with_capacity(64 + merged.len() * 128);
        out.push_str(&shard_header_line(s));
        out.push('\n');
        // BTreeMap iteration is raw-sorted: byte-stable for a given
        // contents regardless of hash-map iteration order.
        for (raw, (fp, v)) in &merged {
            out.push_str(&entry_line(*fp, *raw, v));
            out.push('\n');
        }
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", shard_file_name(s), std::process::id()));
        std::fs::write(&tmp, &out)?;
        let result = std::fs::rename(&tmp, &path);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        Ok(true)
    }
}

/// The file name of shard `i` (`shard-00.jsonl`, `shard-01.jsonl`, …).
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:02}.jsonl")
}

/// Parses a shard index back out of a file name; `None` for anything
/// that is not exactly a shard file (`*.bad`, `*.tmp.*`, locks, …).
fn shard_index_of(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?.strip_suffix(".jsonl")?;
    if digits.is_empty() || digits.len() > 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Renames a broken store file to `<name>.bad` (replacing any previous
/// quarantine of the same file) so the evidence survives for inspection
/// without ever being parsed again.
fn quarantine(path: &Path) {
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".bad");
    let bad = PathBuf::from(bad);
    let _ = std::fs::remove_file(&bad);
    if std::fs::rename(path, &bad).is_err() {
        // Cross-device or permission trouble: removal still protects the
        // next run from re-parsing garbage.
        let _ = std::fs::remove_file(path);
    }
}

/// Removes `*.tmp.<pid>` files left behind by writers that died between
/// `write` and `rename`. Only files whose writing process is provably
/// gone are swept; a live writer's in-flight temp file is left alone.
fn sweep_orphaned_tmp_files(dir: &Path) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some((_, pid)) = name.rsplit_once(".tmp.") else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else {
            continue;
        };
        if pid_is_dead(pid) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Whether `pid` provably no longer exists. Conservative: `false`
/// (assume alive) when liveness cannot be determined, so stale-state
/// cleanup never races a live process.
fn pid_is_dead(pid: u32) -> bool {
    if pid == std::process::id() {
        return false;
    }
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        !proc_dir.join(pid.to_string()).exists()
    } else {
        false
    }
}

/// Holds `path` as an advisory lock; removes it on drop.
struct ShardLock {
    path: PathBuf,
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One `create_new` attempt on the lockfile (the portable atomic
/// test-and-set). The holder's pid is written inside for stale-lock
/// detection and debugging.
fn try_lock(path: &Path) -> std::io::Result<Option<ShardLock>> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
    {
        Ok(mut f) => {
            let _ = write!(f, "{}", std::process::id());
            Ok(Some(ShardLock {
                path: path.to_path_buf(),
            }))
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(e),
    }
}

/// Takes the shard lock with bounded exponential backoff, breaking locks
/// whose holder is provably dead. `Ok(None)` when the lock stayed
/// contended through every attempt — the caller skips, never blocks.
fn acquire_lock(path: &Path, retries: &mut usize) -> std::io::Result<Option<ShardLock>> {
    for attempt in 0..LOCK_ATTEMPTS {
        if attempt > 0 {
            *retries += 1;
            obs::count(obs::Counter::CacheLockRetries, 1);
            let ms = (LOCK_BASE_MS << (attempt - 1)).min(LOCK_CAP_MS);
            std::thread::sleep(Duration::from_millis(ms));
        }
        if let Some(guard) = try_lock(path)? {
            return Ok(Some(guard));
        }
        // Contended: break the lock iff its holder died. The steal is an
        // atomic rename (only one breaker wins), and a post-steal re-read
        // restores the rare live lock taken in the read/steal window.
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.trim().parse::<u32>().is_ok_and(pid_is_dead) {
                let stolen = path.with_extension(format!("stale.{}", std::process::id()));
                if std::fs::rename(path, &stolen).is_ok() {
                    let live = std::fs::read_to_string(&stolen)
                        .ok()
                        .and_then(|t| t.trim().parse::<u32>().ok())
                        .is_some_and(|pid| !pid_is_dead(pid));
                    if live && std::fs::rename(&stolen, path).is_ok() {
                        continue;
                    }
                    let _ = std::fs::remove_file(&stolen);
                }
            }
        }
    }
    Ok(None)
}

/// Header line of shard `i`.
fn shard_header_line(i: usize) -> String {
    format!(
        "{{\"schema\":\"{SHARD_SCHEMA}\",\"analysis_version\":{ANALYSIS_VERSION},\"shard\":{i}}}"
    )
}

/// Best-effort extraction of `analysis_version` from a store file that
/// failed the strict parse, to tell "older garbage" (quarantine) from
/// "newer binary's store" (hands off).
fn header_version(text: &str) -> Option<u32> {
    let head = text.lines().next()?;
    let rest = head.split("\"analysis_version\":").nth(1)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn entry_line(fp: u128, raw: u128, v: &CachedValues) -> String {
    format!(
        "{{\"fp\":\"{fp:032x}\",\"raw\":\"{raw:032x}\",\"v\":[{},{},{},{},{},{}]}}",
        v[0], v[1], v[2], v[3], v[4], v[5],
    )
}

/// Lines of one shard keyed by raw fingerprint: raw → (canonical,
/// payload). Raw-sorted so the written file is byte-stable.
type ShardLines = BTreeMap<u128, (u128, CachedValues)>;

type StoreIndex = (HashMap<u128, CachedValues>, HashMap<u128, u128>);

/// Strictly parses a store file against the expected header. Any
/// deviation from the written shape is an error (the caller quarantines
/// the file): a half-written or hand-edited shard must degrade to a cold
/// run of its modules, not half-hit.
fn parse_store(text: &str, header: &str) -> Result<StoreIndex, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == header => {}
        Some(_) => return Err("schema, shard, or analysis-version mismatch".into()),
        None => return Err("empty store".into()),
    }
    if !text.ends_with('\n') {
        return Err("truncated store (no trailing newline)".into());
    }
    let mut entries = HashMap::new();
    let mut by_raw = HashMap::new();
    for (n, line) in lines.enumerate() {
        let (fp, raw, outcome) =
            parse_entry(line).ok_or_else(|| format!("malformed entry on line {}", n + 2))?;
        entries.insert(fp, outcome);
        by_raw.insert(raw, fp);
    }
    Ok((entries, by_raw))
}

/// A minimal strict scanner over one entry line (we parse only what
/// [`entry_line`] writes; anything else is corruption).
struct Scan<'a>(&'a str);

impl<'a> Scan<'a> {
    fn lit(&mut self, l: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(l)?;
        Some(())
    }

    fn hex(&mut self) -> Option<u128> {
        let end = self.0.find(|c: char| !c.is_ascii_hexdigit())?;
        let (digits, rest) = self.0.split_at(end);
        if digits.len() != 32 {
            return None;
        }
        self.0 = rest;
        u128::from_str_radix(digits, 16).ok()
    }

    fn int(&mut self) -> Option<u64> {
        let end = self
            .0
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.0.len());
        let (digits, rest) = self.0.split_at(end);
        if digits.is_empty() {
            return None;
        }
        self.0 = rest;
        digits.parse().ok()
    }

    fn end(&self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

fn parse_entry(line: &str) -> Option<(u128, u128, CachedValues)> {
    let mut s = Scan(line);
    s.lit("{\"fp\":\"")?;
    let fp = s.hex()?;
    s.lit("\",\"raw\":\"")?;
    let raw = s.hex()?;
    s.lit("\",\"v\":[")?;
    let mut v = [0u64; 6];
    for (i, slot) in v.iter_mut().enumerate() {
        if i > 0 {
            s.lit(",")?;
        }
        *slot = s.int()?;
    }
    s.lit("]}")?;
    s.end()?;
    Some((fp, raw, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;

    /// A fresh, empty cache directory unique to this unit test.
    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("localias-cache-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn canonical_fingerprint_ignores_comments_and_whitespace() {
        let a = parse_module("a", "int g;\nvoid f() { g = 1; }\n").unwrap();
        let b = parse_module(
            "b",
            "// a comment\nint   g;\nvoid f()   {\n\n    g = 1;\n}\n",
        )
        .unwrap();
        let steens = localias_alias::Backend::Steensgaard;
        assert_eq!(
            module_fingerprint(&a, steens),
            module_fingerprint(&b, steens)
        );

        let c = parse_module("c", "int g;\nvoid f() { g = 2; }\n").unwrap();
        assert_ne!(
            module_fingerprint(&a, steens),
            module_fingerprint(&c, steens)
        );
    }

    #[test]
    fn raw_fingerprint_is_exact() {
        let steens = localias_alias::Backend::Steensgaard;
        assert_eq!(
            source_fingerprint("int g;", steens),
            source_fingerprint("int g;", steens)
        );
        assert_ne!(
            source_fingerprint("int g;", steens),
            source_fingerprint("int g; ", steens)
        );
    }

    #[test]
    fn entry_lines_round_trip() {
        let outcome = CachedOutcome {
            no_confine: 22,
            confine: 16,
            all_strong: 15,
            times: PhaseTimes {
                parse: Duration::from_nanos(123_456),
                check: Duration::from_nanos(789),
                confine: Duration::from_nanos(1_000_000_001),
            },
        };
        let line = entry_line(u128::MAX - 7, 42, &outcome.to_values());
        let (fp, raw, v) = parse_entry(&line).expect("round trip");
        assert_eq!(fp, u128::MAX - 7);
        assert_eq!(raw, 42);
        let back = CachedOutcome::from_values(v);
        assert_eq!(
            (back.no_confine, back.confine, back.all_strong),
            (22, 16, 15)
        );
        assert_eq!(back.times.parse, outcome.times.parse);
        assert_eq!(back.times.confine, outcome.times.confine);
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"fp\":\"zz\",...}",
            // The v1 (PR-2) entry shape: named fields instead of the
            // generic payload. Must scan as corruption, never half-parse.
            "{\"fp\":\"00000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"nc\":1,\"cf\":1,\"as\":1,\"parse_ns\":1,\"check_ns\":1,\"confine_ns\":1}",
            // Wrong arity.
            "{\"fp\":\"00000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"v\":[1,2,3,4,5]}",
            "{\"fp\":\"00000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"v\":[1,2,3,4,5,6,7]}",
            "garbage",
        ] {
            assert!(parse_entry(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn shard_header_mismatch_is_an_error() {
        let h = shard_header_line(3);
        assert!(parse_store(
            "{\"schema\":\"localias-cache/v0\",\"analysis_version\":1}\n",
            &h
        )
        .is_err());
        // The PR-2/PR-3 monolithic header on a shard file: rejected.
        let monolithic =
            format!("{{\"schema\":\"{STORE_SCHEMA}\",\"analysis_version\":{ANALYSIS_VERSION}}}\n");
        assert!(parse_store(&monolithic, &h).is_err());
        // The right schema under the wrong shard index: rejected.
        assert!(parse_store(&format!("{}\n", shard_header_line(4)), &h).is_err());
        assert!(parse_store("", &h).is_err());
        let good = format!("{h}\n");
        assert!(parse_store(&good, &h).is_ok());
        // Truncation (missing trailing newline) is corruption.
        assert!(parse_store(good.trim_end(), &h).is_err());
    }

    #[test]
    fn header_version_is_extracted_even_from_unparseable_stores() {
        assert_eq!(
            header_version(&format!("{}\n", shard_header_line(0))),
            Some(ANALYSIS_VERSION)
        );
        assert_eq!(
            header_version(
                "{\"schema\":\"localias-cache/v9\",\"analysis_version\":7,\"shard\":1}\ngarbage"
            ),
            Some(7)
        );
        assert_eq!(header_version("no header at all"), None);
        assert_eq!(header_version(""), None);
    }

    #[test]
    fn shard_file_names_round_trip_and_reject_cousins() {
        for i in [0, 1, 15, 99, 255] {
            assert_eq!(shard_index_of(&shard_file_name(i)), Some(i), "{i}");
        }
        for bad in [
            "shard-00.jsonl.bad",
            "shard-00.jsonl.tmp.123",
            "shard-00.lock",
            "shard-.jsonl",
            "shard-xx.jsonl",
            "shard-1234.jsonl",
            "store.jsonl",
        ] {
            assert_eq!(shard_index_of(bad), None, "{bad}");
        }
    }

    /// The keys the sweep writes, pinned to the values existing stores
    /// hold: changing either one turns every warm store cold.
    #[test]
    fn sweep_fingerprints_are_pinned() {
        let steens = localias_alias::Backend::Steensgaard;
        let src = "int g;\nvoid f() { g = 1; }\n";
        assert_eq!(
            source_fingerprint(src, steens),
            269324119259027002061589211670920555604
        );
        let m = parse_module("m", src).unwrap();
        assert_eq!(
            module_fingerprint(&m, steens),
            23901358085728585275109580152370666306
        );
    }

    /// The in-process shape of the PR-2/PR-3 lost-update bug: two caches
    /// load the same (empty) store, each records its own entries, and
    /// both persist. The monolithic rewrite made the second persist
    /// clobber the first; merge-on-write must keep the union.
    #[test]
    fn interleaved_persists_keep_the_union() {
        let dir = test_dir("interleave");
        let mut a = AnalysisCache::load(&dir);
        let mut b = AnalysisCache::load(&dir);
        for i in 0..40u128 {
            a.record_values(i, i + 1000, [i as u64, 0, 0, 0, 0, 0]);
            b.record_values(i + 500, i + 2000, [i as u64, 1, 0, 0, 0, 0]);
        }
        a.persist().unwrap();
        b.persist().unwrap();

        let c = AnalysisCache::load(&dir);
        assert_eq!(c.len(), 80, "no entry lost to the concurrent writer");
        for i in 0..40u128 {
            assert_eq!(c.lookup_values(i), Some([i as u64, 0, 0, 0, 0, 0]));
            assert_eq!(c.lookup_values(i + 500), Some([i as u64, 1, 0, 0, 0, 0]));
            assert_eq!(c.resolve_raw(i + 1000), Some(i));
            assert_eq!(c.resolve_raw(i + 2000), Some(i + 500));
        }
        assert_eq!((c.quarantined(), c.lock_skips()), (0, 0));
    }

    /// Entries partition across multiple shard files, every shard file
    /// carries its own header, and a foreign shard count still loads.
    #[test]
    fn entries_partition_across_shards() {
        let dir = test_dir("partition");
        let mut c = AnalysisCache::load_sharded(&dir, 4);
        for i in 0..64u128 {
            c.record_values(i, i + 1, [1, 0, 0, 0, 0, 0]);
        }
        c.persist().unwrap();

        let mut files = 0;
        for i in 0..4 {
            let path = dir.join(shard_file_name(i));
            if !path.is_file() {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with(&shard_header_line(i)), "own header");
            for line in text.lines().skip(1) {
                let (fp, _, _) = parse_entry(line).unwrap();
                assert_eq!((fp % 4) as usize, i, "entry in its home shard");
            }
        }
        assert!(files > 1, "entries spread over multiple shards");

        // A different shard count still loads everything (entries are
        // keyed by fingerprint, not by which file holds them).
        let c8 = AnalysisCache::load_sharded(&dir, 8);
        assert_eq!(c8.len(), 64);
    }

    /// `*.tmp.<pid>` files from dead writers are swept at load; a live
    /// writer's temp file is left alone.
    #[test]
    fn orphaned_tmp_files_are_swept_at_load() {
        let dir = test_dir("tmp-sweep");
        // Dead pid: well above any default pid_max.
        let dead = dir.join("shard-03.jsonl.tmp.999999999");
        let live = dir.join(format!("shard-03.jsonl.tmp.{}", std::process::id()));
        std::fs::write(&dead, "half-written").unwrap();
        std::fs::write(&live, "in flight").unwrap();

        let _ = AnalysisCache::load(&dir);
        assert!(!dead.exists(), "dead writer's temp file swept");
        assert!(live.exists(), "live writer's temp file untouched");
    }

    /// A lockfile whose holder died mid-persist must not wedge the shard
    /// forever: the next persist breaks it and writes through.
    #[test]
    fn stale_lock_from_dead_process_is_broken() {
        let dir = test_dir("stale-lock");
        let mut c = AnalysisCache::load(&dir);
        c.record_values(5, 6, [9, 0, 0, 0, 0, 0]);
        let lock = dir.join(format!("shard-{:02}.lock", c.shard_of(5)));
        std::fs::write(&lock, "999999999").unwrap();

        c.persist().unwrap();
        assert_eq!(c.lock_skips(), 0, "stale lock broken, not skipped");
        assert!(!lock.exists(), "lock released after persist");
        assert_eq!(
            AnalysisCache::load(&dir).lookup_values(5),
            Some([9, 0, 0, 0, 0, 0])
        );
    }

    /// A lock held by a *live* process is honored: bounded backoff, then
    /// skip-persist with a warning — never blocking, never clobbering.
    #[test]
    fn contended_lock_skips_persist_without_blocking() {
        let dir = test_dir("live-lock");
        let mut c = AnalysisCache::load(&dir);
        c.record_values(5, 6, [9, 0, 0, 0, 0, 0]);
        let shard = c.shard_of(5);
        let lock = dir.join(format!("shard-{shard:02}.lock"));
        // Our own pid is definitionally alive.
        std::fs::write(&lock, format!("{}", std::process::id())).unwrap();

        c.persist().unwrap();
        assert_eq!(c.lock_skips(), 1, "contended shard skipped");
        assert!(c.lock_retries() >= 1, "backoff retries counted");
        assert!(
            !dir.join(shard_file_name(shard)).exists(),
            "skipped shard not written"
        );
        assert!(lock.exists(), "foreign lock left in place");
        std::fs::remove_file(&lock).unwrap();

        // With the lock gone the still-dirty shard persists fine.
        c.persist().unwrap();
        assert_eq!(
            AnalysisCache::load(&dir).lookup_values(5),
            Some([9, 0, 0, 0, 0, 0])
        );
    }
}
