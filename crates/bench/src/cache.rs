//! Incremental analysis cache: content-addressed per-module results with
//! an on-disk store, so a corpus sweep only re-analyzes modules whose
//! source actually changed since the last sweep.
//!
//! # Keying
//!
//! Both keys are 128-bit MurmurHash3 x64_128 digests from the one
//! streaming kernel in [`localias_ast::fp`], which reads 16-byte blocks
//! into two 64-bit lanes. The canonical key hashes the module's
//! *structure* — a prefix-free encoding of its parse tree's node tags,
//! names, literals and types ([`localias_ast::fp::structural`]) — under
//! a domain that names [`ANALYSIS_VERSION`] and the (seed-independent)
//! analysis configuration. Spans, node ids and the module's name stay out
//! of it, so the key is insensitive to comments, formatting and redundant
//! parentheses, and nothing is printed to compute it.
//!
//! Because the canonical key requires a parse, every entry also remembers
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
//! Up to version 3 both keys were byte-serial FNV-1a-128, one 128-bit
//! multiply per byte, and hashing source text was most of a warm sweep.
//! Version 4 moved both keys, so a v3 store is quarantined once on load
//! and serves nothing, and a v3 binary leaves a v4 store alone as a
//! newer binary's. Measured with `benchmark/run.sh` on a 2-core Xeon at
//! 2.1 GHz (medians): a traced warm sweep's raw key p50 went from 2.35
//! to 0.44 µs and its store load from 0.64 to 0.11 ms; a traced cold
//! sweep's raw key p50 from 2.50 to 0.76 µs and its canonical key p50
//! from 4.71 to 3.35 µs (the walk over the AST, not the hash, is most of
//! that key now); an untraced warm sweep's p50 from 2.51 to 0.53 ms.
//!
//! # Store: one file, crash-safe, safe under concurrent writers
//!
//! The store is one JSON-lines file, `store.jsonl`, under a cache
//! directory (default `.localias-cache/`): a schema header line followed
//! by one entry per `(raw, canonical)` fingerprint pair, sorted by raw
//! fingerprint so the bytes are a pure function of the contents.
//!
//! *Loads are lock-free* and read the file line by line. A file that
//! fails the strict parse — truncation, corruption, a schema or older
//! [`ANALYSIS_VERSION`] — is *quarantined* (renamed to `store.jsonl.bad`)
//! with a warning, and every module re-analyzes once. A store whose
//! header names a *newer* `analysis_version` belongs to a newer binary:
//! it serves nothing, is never quarantined and is never overwritten. A
//! cache can never panic a sweep or change its results.
//!
//! *Persists are merge-on-write under an advisory lock*: the writer takes
//! `store.lock` (created with `create_new`, the portable flock analogue)
//! with bounded exponential backoff, re-reads the file, folds its entries
//! into the in-memory ones — on-disk wins ties — and writes the union to
//! a temp file that is atomically renamed over the store. If the lock
//! cannot be acquired in time the persist is skipped with a warning
//! rather than blocking the sweep: the unsaved entries are merely
//! recomputed (or merged) by a later run. Locks held by dead processes
//! (the holder's pid is written into the lockfile) are broken; orphaned
//! `*.tmp.<pid>` files from crashed writers are swept at load time once
//! their writer is gone.
//!
//! Two sweeps sharing one cache directory — two `localias experiment`
//! processes started side by side, over the same corpus or disjoint
//! ones — therefore lose no entries: each persist folds the other's
//! fresh entries into the union instead of clobbering the store
//! wholesale.

use crate::{ModuleResult, PhaseTimes};
use localias_ast::fp;
use localias_ast::fx::FxMap;
use localias_obs as obs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Bumped whenever any analysis stage changes observable results, so
/// stale caches from older binaries can never serve wrong answers. Mixed
/// into every canonical fingerprint *and* written in the store's header.
///
/// Single-sourced from [`localias_ast::fp`], next to the fingerprint
/// core.
///
/// v2: the checker moved to the frozen-analysis, call-graph-scheduled
/// pipeline and the store grew the generic `"v"` payload (see
/// [`CachedValues`]); every v1 store is discarded whole on load.
///
/// v3: havoc through recursive cycles became total.
///
/// v4: both keys moved from FNV-1a-128 to MurmurHash3 x64_128; a v3
/// store is quarantined once and serves nothing.
pub const ANALYSIS_VERSION: u32 = localias_ast::fp::ANALYSIS_VERSION;

/// Key-domain identifier, mixed into every canonical fingerprint.
///
/// The structural key got a domain of its own when it replaced the
/// printed-source key (`localias-cache/v2`): results did not change, so
/// [`ANALYSIS_VERSION`] did not move, and entries an older store keyed
/// by printed source still hit through their raw-source alias.
const CANON_SCHEMA: &str = "localias-cache/ast-v1";

/// Schema identifier written in the store's header line.
///
/// v4 is the one-file store; the 16 `shard-NN.jsonl` files of
/// `localias-cache/v3-shard` are never read.
const STORE_SCHEMA: &str = "localias-cache/v4";

/// The store's file name inside the cache directory.
const STORE_FILE: &str = "store.jsonl";

/// The advisory lockfile persists take, inside the cache directory.
const LOCK_FILE: &str = "store.lock";

/// Seed-independent description of what one cached result covers. Keyed
/// into the fingerprint so a config change invalidates rather than hits.
const ANALYSIS_CONFIG: &str = "modes=no_confine,confine,all_strong";

/// The store is one file. The constant stays so the benchmark crate's
/// calls keep their signature; every shard count is ignored.
pub const DEFAULT_SHARDS: usize = 1;

/// Attempts to take the store lock before skipping the persist.
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

/// Canonical fingerprint of a parsed module: hash of its structure,
/// domain-separated by the analysis version and configuration.
/// Deliberately independent of the corpus seed, the module's name and
/// its spans. `backend` is a signature shim, as for
/// [`source_fingerprint`].
pub fn module_fingerprint(m: &localias_ast::Module, backend: localias_alias::Backend) -> u128 {
    assert_eq!(backend, localias_alias::Backend::Steensgaard);
    static DOMAIN: std::sync::LazyLock<String> = std::sync::LazyLock::new(|| {
        format!("{CANON_SCHEMA};av{ANALYSIS_VERSION};{ANALYSIS_CONFIG};")
    });
    fp::structural(&DOMAIN, m)
}

/// Where (whether) a sweep keeps its cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: every sweep is cold and nothing touches the disk.
    Disabled,
    /// Cache in the one store file under the given directory.
    Dir {
        /// Cache directory.
        dir: PathBuf,
        /// Ignored: the store is one file. The field stays so the
        /// benchmark crate's calls keep their signature.
        shards: usize,
    },
}

impl CachePolicy {
    /// Caching on under `dir`.
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
    /// Store files quarantined (renamed to `*.bad`) this sweep.
    pub quarantined: usize,
    /// Lock-acquisition retries (backoff sleeps) while persisting.
    pub lock_retries: usize,
    /// Persists skipped because the lock stayed contended past the
    /// bounded backoff.
    pub lock_skips: usize,
    /// Time spent reading + parsing the store at sweep start.
    pub load: Duration,
    /// Time spent merging + atomically rewriting it at sweep end.
    pub store: Duration,
}

/// The in-memory index over the on-disk store. Both maps hash with the
/// workspace's [`FxMap`]: their keys are already uniform 128-bit hash
/// outputs, so a one-multiply mix spreads them as well as SipHash would.
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
    /// canonical fingerprint → generic payload.
    entries: FxMap<u128, CachedValues>,
    /// raw-source fingerprint → canonical fingerprint.
    by_raw: FxMap<u128, u128>,
    /// Entries or aliases not yet persisted.
    dirty: bool,
    /// A newer binary's store was found (and warned about) already.
    newer_seen: bool,
    quarantined: usize,
    lock_retries: usize,
    lock_skips: usize,
    load_time: Duration,
    store_time: Duration,
}

/// One store entry: canonical fingerprint, raw fingerprint, payload.
type Row = (u128, u128, CachedValues);

/// What reading the store file found.
enum StoreRead {
    /// Every entry of a valid store, in file order (none when there is no
    /// store file, or it vanished before it could be opened).
    Loaded(Vec<Row>),
    /// The header names this newer `analysis_version`; nothing was read.
    Newer(u32),
    /// The strict parse failed, for this reason.
    Bad(String),
}

impl AnalysisCache {
    /// Loads the store under `dir` (lock-free, line by line), or starts
    /// empty when there is none. A corrupt, truncated, or older-version
    /// store is quarantined (renamed to `*.bad`) with a warning — never
    /// an error. A newer binary's store serves nothing and is left in
    /// place.
    pub fn load(dir: &Path) -> AnalysisCache {
        let span = obs::Span::timed("cache.load");
        let mut cache = AnalysisCache {
            dir: dir.to_path_buf(),
            entries: FxMap::default(),
            by_raw: FxMap::default(),
            dirty: false,
            newer_seen: false,
            quarantined: 0,
            lock_retries: 0,
            lock_skips: 0,
            load_time: Duration::ZERO,
            store_time: Duration::ZERO,
        };

        sweep_orphaned_tmp_files(dir);

        let path = dir.join(STORE_FILE);
        match read_store(&path) {
            StoreRead::Loaded(rows) => {
                cache.entries.reserve(rows.len());
                cache.by_raw.reserve(rows.len());
                for (fp, raw, v) in rows {
                    cache.entries.insert(fp, v);
                    cache.by_raw.insert(raw, fp);
                }
            }
            StoreRead::Newer(v) => cache.warn_newer(&path, v),
            // A partial parse is never half-trusted: nothing was kept.
            StoreRead::Bad(why) => cache.quarantine(&path, &why),
        }

        cache.load_time = span.close();
        cache
    }

    /// [`AnalysisCache::load`]. `shards` is ignored: the store is one
    /// file. The argument stays so the benchmark crate's calls keep their
    /// signature.
    pub fn load_sharded(dir: &Path, _shards: usize) -> AnalysisCache {
        Self::load(dir)
    }

    /// The directory this cache persists under, for display.
    pub fn dir_display(&self) -> String {
        self.dir.display().to_string()
    }

    /// Store files quarantined while loading or persisting.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Lock-acquisition retries (backoff sleeps) over all persists.
    pub fn lock_retries(&self) -> usize {
        self.lock_retries
    }

    /// Persists skipped because the lock stayed contended.
    pub fn lock_skips(&self) -> usize {
        self.lock_skips
    }

    /// Time [`AnalysisCache::load`] spent, by its `cache.load` span.
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// Time the last [`AnalysisCache::persist`] spent, by its
    /// `cache.persist` span.
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
        self.dirty = true;
    }

    /// Remembers that `raw` canonicalizes to the already-cached `fp`, so
    /// the next sweep takes the no-parse fast path for this source.
    pub fn alias_raw(&mut self, raw: u128, fp: u128) {
        if self.by_raw.insert(raw, fp) != Some(fp) {
            self.dirty = true;
        }
    }

    /// Persists the store when anything changed since load:
    /// merge-on-write under the store lock, then an atomic temp + rename
    /// replace. A lock timeout skips the persist with a warning (bounded
    /// backoff, never blocking the sweep), as does a store a newer binary
    /// wrote; either way the entries stay unsaved for a later persist.
    pub fn persist(&mut self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let span = obs::Span::timed("cache.persist");
        let written = self.persist_locked();
        self.store_time = span.close();
        if written? {
            self.dirty = false;
        }
        Ok(())
    }

    /// The locked merge and write. `Ok(false)` when skipped.
    fn persist_locked(&mut self) -> std::io::Result<bool> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(STORE_FILE);
        let Some(_guard) = acquire_lock(&self.dir.join(LOCK_FILE), &mut self.lock_retries)? else {
            eprintln!(
                "localias-bench: warning: cache store {} is locked by another live \
                 process; skipping persist (its entries merge or recompute next run)",
                path.display()
            );
            self.lock_skips += 1;
            obs::count(obs::Counter::CacheLockSkips, 1);
            return Ok(false);
        };

        // Merge-on-write: fold in whatever is on disk *now*, which a
        // concurrent writer may have extended since our lock-free load.
        // On-disk wins ties (same analysis_version ⇒ same deterministic
        // results, and keeping disk avoids churn).
        match read_store(&path) {
            StoreRead::Loaded(on_disk) => {
                for (fp, raw, v) in on_disk {
                    self.entries.insert(fp, v);
                    self.by_raw.insert(raw, fp);
                }
            }
            StoreRead::Newer(v) => {
                self.warn_newer(&path, v);
                return Ok(false);
            }
            StoreRead::Bad(why) => self.quarantine(&path, &why),
        }

        // Raw-sorted, so the file is byte-stable for a given contents
        // whatever the hash maps' iteration order. A raw alias whose
        // backing entry is missing is dropped — loudly, so store
        // corruption is observable instead of invisible.
        let mut lines: Vec<(u128, u128)> = self.by_raw.iter().map(|(&r, &f)| (r, f)).collect();
        lines.sort_unstable();
        let tmp = self
            .dir
            .join(format!("{STORE_FILE}.tmp.{}", std::process::id()));
        let written = self
            .write_store(&tmp, &lines)
            .and_then(|dangling| std::fs::rename(&tmp, &path).map(|()| dangling));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        let dangling = written?;
        if dangling > 0 {
            eprintln!(
                "localias-bench: warning: dropped {dangling} raw alias(es) whose backing \
                 entry is missing (the store was corrupted)"
            );
        }
        Ok(true)
    }

    /// Writes the header and every backed `(raw, fp)` line to `tmp`;
    /// returns how many lines had no backing entry.
    fn write_store(&self, tmp: &Path, lines: &[(u128, u128)]) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(tmp)?);
        writeln!(out, "{}", header_line())?;
        let mut dangling = 0;
        for &(raw, fp) in lines {
            match self.entries.get(&fp) {
                Some(v) => write_entry(&mut out, fp, raw, v)?,
                None => dangling += 1,
            }
        }
        out.into_inner().map_err(|e| e.into_error())?;
        Ok(dangling)
    }

    /// Renames a broken store to `<name>.bad` with a warning (replacing
    /// any previous quarantine) so the evidence survives for inspection
    /// without ever being parsed again.
    fn quarantine(&mut self, path: &Path, why: &str) {
        eprintln!(
            "localias-bench: warning: quarantining cache store {} ({why})",
            path.display()
        );
        let mut bad = path.as_os_str().to_os_string();
        bad.push(".bad");
        let _ = std::fs::remove_file(&bad);
        if std::fs::rename(path, &bad).is_err() {
            // Cross-device or permission trouble: removal still protects
            // the next run from re-parsing garbage.
            let _ = std::fs::remove_file(path);
        }
        self.quarantined += 1;
        obs::count(obs::Counter::CacheQuarantined, 1);
    }

    /// Warns, once per cache, that a newer binary owns the store.
    fn warn_newer(&mut self, path: &Path, version: u32) {
        if !std::mem::replace(&mut self.newer_seen, true) {
            eprintln!(
                "localias-bench: warning: cache store {} was written by a newer binary \
                 (analysis_version {version}); serving nothing from it and leaving it alone",
                path.display()
            );
        }
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
struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One `create_new` attempt on the lockfile (the portable atomic
/// test-and-set). The holder's pid is written inside for stale-lock
/// detection and debugging.
fn try_lock(path: &Path) -> std::io::Result<Option<StoreLock>> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
    {
        Ok(mut f) => {
            let _ = write!(f, "{}", std::process::id());
            Ok(Some(StoreLock {
                path: path.to_path_buf(),
            }))
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(e),
    }
}

/// Takes the store lock with bounded exponential backoff, breaking locks
/// whose holder is provably dead. `Ok(None)` when the lock stayed
/// contended through every attempt — the caller skips, never blocks.
fn acquire_lock(path: &Path, retries: &mut usize) -> std::io::Result<Option<StoreLock>> {
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

/// The store's header line.
fn header_line() -> String {
    format!("{{\"schema\":\"{STORE_SCHEMA}\",\"analysis_version\":{ANALYSIS_VERSION}}}")
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

/// Writes one entry line, newline included.
fn write_entry(
    out: &mut impl std::io::Write,
    fp: u128,
    raw: u128,
    v: &CachedValues,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{{\"fp\":\"{fp:032x}\",\"raw\":\"{raw:032x}\",\"v\":[{},{},{},{},{},{}]}}",
        v[0], v[1], v[2], v[3], v[4], v[5],
    )
}

/// The shortest entry line [`write_entry`] writes, newline included: both
/// fingerprints and six one-digit values. A store of `n` bytes holds at
/// most `n / MIN_ENTRY_BYTES` entries, which bounds what a load reserves.
const MIN_ENTRY_BYTES: usize = 101;

/// Strictly reads the store at `path` line by line. Any deviation from
/// the written shape is [`StoreRead::Bad`] (the caller quarantines the
/// file): a half-written or hand-edited store must degrade to a cold run,
/// not half-hit.
fn read_store(path: &Path) -> StoreRead {
    // An open error means there is no store, or a concurrent writer's
    // rename raced the open — never quarantine for it.
    let Ok(file) = std::fs::File::open(path) else {
        return StoreRead::Loaded(Vec::new());
    };
    let bytes = file.metadata().map_or(0, |m| m.len());
    let mut reader = std::io::BufReader::new(file);
    let mut line = Vec::new();
    let header = next_line(&mut reader, &mut line);
    if line != header_line().as_bytes() {
        return match header_version(&String::from_utf8_lossy(&line)) {
            Some(v) if v > ANALYSIS_VERSION => StoreRead::Newer(v),
            _ if line.is_empty() => StoreRead::Bad("empty store".into()),
            _ => StoreRead::Bad("schema or analysis-version mismatch".into()),
        };
    }
    if let Err(why) = header {
        return StoreRead::Bad(why);
    }
    let mut rows = Vec::with_capacity(usize::try_from(bytes).unwrap_or(0) / MIN_ENTRY_BYTES);
    for n in 2.. {
        match next_line(&mut reader, &mut line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(why) => return StoreRead::Bad(why),
        }
        let Some(row) = parse_entry(&line) else {
            return StoreRead::Bad(format!("malformed entry on line {n}"));
        };
        rows.push(row);
    }
    StoreRead::Loaded(rows)
}

/// Reads the next line into `buf`, newline stripped. `Ok(false)` at the
/// end of the file; a last line without its newline is truncation.
fn next_line(reader: &mut impl std::io::BufRead, buf: &mut Vec<u8>) -> Result<bool, String> {
    buf.clear();
    match reader.read_until(b'\n', buf) {
        Ok(0) => Ok(false),
        Ok(_) if buf.ends_with(b"\n") => {
            buf.pop();
            Ok(true)
        }
        Ok(_) => Err("truncated store (no trailing newline)".into()),
        Err(e) => Err(format!("read error: {e}")),
    }
}

/// A minimal strict scanner over one entry line's bytes (we parse only
/// what [`write_entry`] writes; anything else is corruption).
struct Scan<'a>(&'a [u8]);

impl Scan<'_> {
    fn lit(&mut self, l: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(l.as_bytes())?;
        Some(())
    }

    /// Exactly 32 hex digits.
    fn hex(&mut self) -> Option<u128> {
        let (digits, rest) = self.0.split_at_checked(32)?;
        if rest.first().is_some_and(u8::is_ascii_hexdigit) {
            return None;
        }
        // Two 64-bit halves: cheaper than shifting a u128 per digit.
        let (hi, lo) = digits.split_at(16);
        let half = |ds: &[u8]| {
            ds.iter().try_fold(0u64, |n, &d| {
                Some(n << 4 | (d as char).to_digit(16)? as u64)
            })
        };
        let n = (half(hi)? as u128) << 64 | half(lo)? as u128;
        self.0 = rest;
        Some(n)
    }

    /// One or more decimal digits that fit a `u64`.
    fn int(&mut self) -> Option<u64> {
        let end = self
            .0
            .iter()
            .position(|d| !d.is_ascii_digit())
            .unwrap_or(self.0.len());
        let (digits, rest) = self.0.split_at(end);
        if digits.is_empty() {
            return None;
        }
        let mut n = 0u64;
        for &d in digits {
            n = n.checked_mul(10)?.checked_add((d - b'0') as u64)?;
        }
        self.0 = rest;
        Some(n)
    }

    fn end(&self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

fn parse_entry(line: &[u8]) -> Option<Row> {
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
        let mut line = Vec::new();
        write_entry(&mut line, u128::MAX - 7, 42, &outcome.to_values()).unwrap();
        let (fp, raw, v) = parse_entry(line.strip_suffix(b"\n").unwrap()).expect("round trip");
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
    fn shortest_entry_line_is_min_entry_bytes() {
        let mut line = Vec::new();
        write_entry(&mut line, 0, 0, &[0; 6]).unwrap();
        assert_eq!(line.len(), MIN_ENTRY_BYTES);
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
            // One hex digit short, one too many, and a value past u64.
            "{\"fp\":\"0000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"v\":[1,2,3,4,5,6]}",
            "{\"fp\":\"000000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"v\":[1,2,3,4,5,6]}",
            "{\"fp\":\"00000000000000000000000000000000\",\"raw\":\"00000000000000000000000000000000\",\"v\":[1,2,3,4,5,18446744073709551616]}",
            "garbage",
        ] {
            assert!(parse_entry(bad.as_bytes()).is_none(), "accepted {bad:?}");
        }
    }

    /// Reads `text` as a store file: the entries it yields, or `Err`
    /// with the verdict's name when it is not a valid store.
    fn read_text(tag: &str, text: impl AsRef<[u8]>) -> Result<usize, &'static str> {
        let path = test_dir(tag).join(STORE_FILE);
        std::fs::write(&path, text).unwrap();
        match read_store(&path) {
            StoreRead::Loaded(rows) => Ok(rows.len()),
            StoreRead::Newer(_) => Err("newer"),
            StoreRead::Bad(_) => Err("bad"),
        }
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let h = header_line();
        let old = "{\"schema\":\"localias-cache/v0\",\"analysis_version\":1}\n";
        assert_eq!(read_text("hdr-old", old), Err("bad"));
        // The monolithic v2 header and a v3 shard header: rejected.
        let v2 = format!(
            "{{\"schema\":\"localias-cache/v2\",\"analysis_version\":{ANALYSIS_VERSION}}}\n"
        );
        assert_eq!(read_text("hdr-v2", &v2), Err("bad"));
        let shard = format!(
            "{{\"schema\":\"localias-cache/v3-shard\",\"analysis_version\":{ANALYSIS_VERSION},\"shard\":0}}\n"
        );
        assert_eq!(read_text("hdr-shard", &shard), Err("bad"));
        assert_eq!(read_text("hdr-empty", ""), Err("bad"));
        // A newer analysis version is someone else's store, whatever its
        // shape, even truncated.
        let newer = h.replace(
            &format!(":{ANALYSIS_VERSION}}}"),
            &format!(":{}}}", ANALYSIS_VERSION + 1),
        );
        assert_ne!(newer, h);
        assert_eq!(read_text("hdr-newer", format!("{newer}\n")), Err("newer"));
        assert_eq!(read_text("hdr-newer-cut", &newer), Err("newer"));
        assert_eq!(read_text("hdr-good", format!("{h}\n")), Ok(0));
        // Truncation (missing trailing newline) is corruption.
        assert_eq!(read_text("hdr-cut", &h), Err("bad"));
        let mut entry = Vec::new();
        write_entry(&mut entry, 1, 2, &[0; 6]).unwrap();
        let entry = String::from_utf8(entry).unwrap();
        let full = format!("{h}\n{entry}{entry}");
        assert_eq!(read_text("entries", &full), Ok(2));
        assert_eq!(read_text("entry-cut", &full[..full.len() - 1]), Err("bad"));
        let not_utf8 = [h.as_bytes(), b"\n\xff\n"].concat();
        assert_eq!(read_text("no-utf8", not_utf8), Err("bad"));
        // No store file reads as an empty store.
        let missing = test_dir("hdr-missing").join(STORE_FILE);
        assert!(matches!(
            read_store(&missing),
            StoreRead::Loaded(rows) if rows.is_empty()
        ));
    }

    #[test]
    fn header_version_is_extracted_even_from_unparseable_stores() {
        assert_eq!(
            header_version(&format!("{}\n", header_line())),
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

    /// The keys the sweep writes, pinned. The raw key moves only together
    /// with an [`ANALYSIS_VERSION`] bump: an unchanged source keeps
    /// hitting through its raw alias, whatever canonical key the store
    /// filed it under, so a raw key that moved within one version would
    /// turn every hit of a warm store into a miss. Version 4 moved both
    /// keys to MurmurHash3.
    #[test]
    fn sweep_fingerprints_are_pinned() {
        let steens = localias_alias::Backend::Steensgaard;
        let src = "int g;\nvoid f() { g = 1; }\n";
        assert_eq!(
            source_fingerprint(src, steens),
            132340149445011377643917980337766520357
        );
        let m = parse_module("m", src).unwrap();
        assert_eq!(
            module_fingerprint(&m, steens),
            229907014862262878035601102130416633238
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

    /// `*.tmp.<pid>` files from dead writers are swept at load; a live
    /// writer's temp file is left alone.
    #[test]
    fn orphaned_tmp_files_are_swept_at_load() {
        let dir = test_dir("tmp-sweep");
        // Dead pid: well above any default pid_max.
        let dead = dir.join("store.jsonl.tmp.999999999");
        let live = dir.join(format!("store.jsonl.tmp.{}", std::process::id()));
        std::fs::write(&dead, "half-written").unwrap();
        std::fs::write(&live, "in flight").unwrap();

        let _ = AnalysisCache::load(&dir);
        assert!(!dead.exists(), "dead writer's temp file swept");
        assert!(live.exists(), "live writer's temp file untouched");
    }

    /// A lockfile whose holder died mid-persist must not wedge the store
    /// forever: the next persist breaks it and writes through.
    #[test]
    fn stale_lock_from_dead_process_is_broken() {
        let dir = test_dir("stale-lock");
        let mut c = AnalysisCache::load(&dir);
        c.record_values(5, 6, [9, 0, 0, 0, 0, 0]);
        let lock = dir.join(LOCK_FILE);
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
        let lock = dir.join(LOCK_FILE);
        // Our own pid is definitionally alive.
        std::fs::write(&lock, format!("{}", std::process::id())).unwrap();

        c.persist().unwrap();
        assert_eq!(c.lock_skips(), 1, "contended persist skipped");
        assert!(c.lock_retries() >= 1, "backoff retries counted");
        assert!(!dir.join(STORE_FILE).exists(), "skipped store not written");
        assert!(lock.exists(), "foreign lock left in place");
        std::fs::remove_file(&lock).unwrap();

        // With the lock gone the still-dirty store persists fine.
        c.persist().unwrap();
        assert_eq!(
            AnalysisCache::load(&dir).lookup_values(5),
            Some([9, 0, 0, 0, 0, 0])
        );
    }
}
