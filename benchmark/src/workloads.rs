//! The four workloads.
//!
//! Each workload has two ways to run one unit (a sweep pass, an edit, a
//! fuzz batch). [`Workload::unit`] calls the same public entry point the
//! `localias` CLI calls and is what the end-to-end metrics time.
//! [`Workload::traced_unit`] does the same work as a sequence of public
//! per-layer calls with a span around each, which is where the per-layer
//! metrics come from. Every unit's output is checked against a reference
//! that does not come from the code path under test, outside the timed
//! region.

use crate::stats::percentile;
use crate::trace::Recorder;
use localias_alias::Backend;
use localias_ast::{Module, ParseError};
use localias_bench::cache::{module_fingerprint, source_fingerprint, CachedOutcome};
use localias_bench::fuzz::{run_fuzz, run_fuzz_with, FuzzConfig, ModeStats, StaticMatrix};
use localias_bench::{
    measure_corpus_with_cache, AnalysisCache, CachePolicy, ModuleResult, PhaseTimes, DEFAULT_SHARDS,
};
use localias_core::SharedAnalysis;
use localias_corpus::{generate, mega_edit, mega_module, GeneratedModule, MegaEdit, MegaEditKind};
use localias_cqual::{
    check_locks_frozen, IncrOutcome, IncrStats, IncrementalSession, LockReport, Mode, MODES,
};
use localias_obs as obs;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Modules of the paper corpus a sweep covers; `None` is all 589,
    /// and then the paper's §7 totals are checked too.
    pub corpus: Option<usize>,
    /// Functions in the watched module.
    pub mega_funs: usize,
    /// Modules per fuzz batch.
    pub fuzz_iterations: u64,
}

impl Sizes {
    /// The sizes every benchmark run uses.
    pub const FULL: Sizes = Sizes {
        corpus: None,
        mega_funs: localias_corpus::DEFAULT_MEGA_FUNS,
        fuzz_iterations: 100,
    };

    /// Sizes small enough for a unit test to run every workload.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        corpus: Some(12),
        mega_funs: 24,
        fuzz_iterations: 3,
    };
}

/// What one unit did.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall seconds of the timed region.
    pub secs: f64,
    /// Modules the unit analyzed or served.
    pub modules: usize,
    /// Whether every output matched its reference.
    pub ok: bool,
}

/// One workload, set up and ready to run units.
pub trait Workload {
    /// Runs one unit through the program's own entry point.
    fn unit(&mut self) -> Unit;

    /// Runs one unit as public per-layer calls, each inside a span.
    fn traced_unit(&mut self, rec: &mut Recorder) -> Unit;

    /// Adds the per-layer metrics only this workload measures and returns
    /// the seconds, summed over every traced unit, that the measured
    /// layers account for.
    fn layers(&self, rec: &Recorder, out: &mut Metrics) -> f64;
}

/// Sets up workload `name` from `seed`, keeping its files under `dir`.
pub fn build(name: &str, seed: u64, dir: &Path, sizes: Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep_cold" => Box::new(Sweep::new(seed, dir, true, sizes)),
        "sweep_warm" => Box::new(Sweep::new(seed, dir, false, sizes)),
        "watch_edit" => Box::new(Watch::new(seed, sizes)),
        "fuzz_oracle" => Box::new(Fuzz::new(seed, sizes)),
        _ => return None,
    })
}

/// Per-layer metrics of a traced run: the ones every workload measures
/// the same way, then the workload's own. Span metrics come from `rec`,
/// filled by the traced units; the program's own obs spans and
/// counters come from `program`, one drain per unit that ran the
/// program's entry point with obs on and covered `program_modules`
/// modules between them. Also returns the seconds the measured layers
/// account for.
pub fn layer_metrics(
    w: &dyn Workload,
    rec: &Recorder,
    program: &[obs::Trace],
    program_modules: usize,
) -> (Metrics, f64) {
    let mut m = Metrics::new();
    let p = |name: &str, pct: f64| percentile(&rec.secs(name), pct);
    if rec.counter("ast.parse_bytes") > 0 {
        m.insert("ast.parse_us_p50", p("ast.parse", 50.0) * 1e6);
        m.insert("ast.parse_us_p99", p("ast.parse", 99.0) * 1e6);
        let mb = rec.counter("ast.parse_bytes") as f64 / 1e6;
        m.insert("ast.parse_mb_s", ratio(mb, rec.total("ast.parse")));
    }
    for (metric, span, scale, pct) in [
        ("cache.raw_fp_us_p50", "cache.raw_fp", 1e6, 50.0),
        ("cache.canon_fp_us_p50", "cache.canon_fp", 1e6, 50.0),
        ("cache.lookup_us_p50", "cache.lookup", 1e6, 50.0),
        ("cache.load_ms", "cache.load", 1e3, 50.0),
        ("cache.persist_ms", "cache.persist", 1e3, 50.0),
        ("core.base_ms_p50", "core.base", 1e3, 50.0),
        ("core.base_ms_p99", "core.base", 1e3, 99.0),
        ("core.confine_ms_p50", "core.confine", 1e3, 50.0),
        ("core.confine_ms_p99", "core.confine", 1e3, 99.0),
        (
            "cqual.check_noconfine_us_p50",
            check_span(Mode::NoConfine),
            1e6,
            50.0,
        ),
        (
            "cqual.check_confine_us_p50",
            check_span(Mode::Confine),
            1e6,
            50.0,
        ),
        (
            "cqual.check_allstrong_us_p50",
            check_span(Mode::AllStrong),
            1e6,
            50.0,
        ),
    ] {
        m.insert(metric, p(span, pct) * scale);
    }

    let per_unit = |x: f64| ratio(x, program.len() as f64);
    let per_module = |x: f64| ratio(x, program_modules as f64);
    for (metric, leaf) in [
        ("core.alias_self_s", "core.alias"),
        ("core.solve_self_s", "core.solve"),
        ("core.outcomes_self_s", "core.outcomes"),
    ] {
        m.insert(
            metric,
            per_unit(obs_spans(program, leaf, false).2 as f64 * 1e-9),
        );
    }
    for (metric, c) in [
        ("alias.find_ops", obs::Counter::AliasFindOps),
        ("alias.unifications", obs::Counter::AliasUnifications),
        ("effects.deliver_ops", obs::Counter::DeliverOps),
        ("effects.constraint_edges", obs::Counter::ConstraintEdges),
        ("effects.solve_rounds", obs::Counter::SolveRounds),
        (
            "cqual.functions_checked",
            obs::Counter::CqualFunctionsChecked,
        ),
        ("cqual.waves", obs::Counter::CqualWaves),
    ] {
        m.insert(
            metric,
            per_unit(program.iter().map(|t| t.counter(c)).sum::<u64>() as f64),
        );
    }
    let analyses = obs_spans(program, "core.analyze", false).0;
    m.insert("core.analyses_per_module", per_module(analyses as f64));
    let (builds, graph_ns, _) = obs_spans(program, "cqual.graph", false);
    m.insert(
        "cqual.graph_us_mean",
        ratio(graph_ns as f64 * 1e-3, builds as f64),
    );
    m.insert("cqual.graph_builds_per_module", per_module(builds as f64));

    let attributed = w.layers(rec, &mut m);
    (m, attributed)
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `(count, total ns, self ns)` of the obs spans named `leaf` in
/// `traces`: at any depth, or with `top` only those no other obs span
/// encloses.
fn obs_spans(traces: &[obs::Trace], leaf: &str, top: bool) -> (u64, u64, u64) {
    let nested = format!("/{leaf}");
    traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.path == leaf || (!top && s.path.ends_with(&nested)))
        .fold((0, 0, 0), |(n, t, o), s| {
            (n + s.count, t + s.total_ns, o + s.self_ns)
        })
}

/// Span name of one mode's lock check.
fn check_span(mode: Mode) -> &'static str {
    match mode {
        Mode::NoConfine => "cqual.check_noconfine",
        Mode::Confine => "cqual.check_confine",
        Mode::AllStrong => "cqual.check_allstrong",
    }
}

/// Checks `m` in all three modes through `backend`, with a span around
/// each analysis and each check. Returns the reports in [`MODES`] order
/// and the seconds spent on the base and on the confine side.
fn check_modes(
    rec: &mut Recorder,
    m: &Module,
    backend: Backend,
) -> ([LockReport; 3], Duration, Duration) {
    let mut shared = SharedAnalysis::new_with_backend(m, backend);
    rec.open("core.base");
    shared.base_frozen();
    let mut base = rec.close();
    rec.open("core.confine");
    shared.confine_frozen();
    let mut confine = rec.close();
    let reports = MODES.map(|mode| {
        rec.open(check_span(mode));
        let (analysis, frozen) = match mode {
            Mode::Confine => shared.confine_frozen(),
            Mode::NoConfine | Mode::AllStrong => shared.base_frozen(),
        };
        let report = check_locks_frozen(m, analysis, frozen, mode, 1);
        let took = rec.close();
        match mode {
            Mode::Confine => confine += took,
            Mode::NoConfine | Mode::AllStrong => base += took,
        }
        report
    });
    (reports, base, confine)
}

/// Error counts `(no-confine, confine, all-strong)` of one module.
type Triple = (usize, usize, usize);

/// The §7 sweep over the paper corpus, from an empty store (cold) or
/// against one a set-up pass filled (warm). One worker: with two on a
/// two-core host, thread start-up and allocator arenas made one seed's
/// pass time vary by a quarter and its peak memory by 30% from run to
/// run.
pub struct Sweep {
    corpus: Vec<GeneratedModule>,
    whole: bool,
    seed: u64,
    dir: PathBuf,
    policy: CachePolicy,
    cold: bool,
    store_bytes: u64,
}

/// What a traced sweep learned about one module beyond its triple.
enum Note {
    RawHit,
    CanonHit {
        fp: u128,
        raw: u128,
    },
    Miss {
        fp: u128,
        raw: u128,
        times: PhaseTimes,
    },
}

struct Done {
    triple: Triple,
    note: Note,
}

impl Sweep {
    fn new(seed: u64, dir: &Path, cold: bool, sizes: Sizes) -> Sweep {
        let mut corpus = generate(seed);
        if let Some(n) = sizes.corpus {
            corpus.truncate(n);
        }
        let dir = dir.join("store");
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = Sweep {
            corpus,
            whole: sizes.corpus.is_none(),
            seed,
            policy: CachePolicy::Dir {
                dir: dir.clone(),
                shards: DEFAULT_SHARDS,
            },
            dir,
            cold,
            store_bytes: 0,
        };
        if !cold {
            sweep.pass(); // fills the store every timed pass reads
        }
        sweep
    }

    /// One pass through the program's sweep; returns the module triples
    /// and how many modules the store served.
    fn pass(&self) -> (Vec<Triple>, usize) {
        let (results, bench) = measure_corpus_with_cache(
            &self.corpus,
            1,
            1,
            self.seed,
            Backend::Steensgaard,
            &self.policy,
        );
        let served = bench.cache.map_or(0, |c| c.hits);
        let triples = results
            .iter()
            .map(|r| (r.no_confine, r.confine, r.all_strong))
            .collect();
        (triples, served)
    }

    /// A cold pass starts from an empty store; emptying it is not timed.
    fn prepare(&self) {
        if self.cold {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Every triple equals what the generator planned for its module, the
    /// store served every module (warm) or none (cold), and on the whole
    /// corpus the totals are the paper's.
    fn check(&self, triples: &[Triple], served: usize) -> bool {
        let planned =
            triples.len() == self.corpus.len()
                && self.corpus.iter().zip(triples).all(|(m, &t)| {
                    t == (m.expect.no_confine, m.expect.confine, m.expect.all_strong)
                });
        let want_served = if self.cold { 0 } else { self.corpus.len() };
        planned && served == want_served && (!self.whole || section7_totals(triples))
    }
}

/// The paper's §7 numbers: 352 modules clean, 85 with real bugs only, 138
/// fully recovered by confine inference, 14 partly, and 3116 of 3277
/// spurious errors eliminated.
fn section7_totals(t: &[Triple]) -> bool {
    let count = |f: fn(&Triple) -> bool| t.iter().filter(|x| f(x)).count();
    let clean = count(|&(nc, _, _)| nc == 0);
    let real = count(|&(nc, _, st)| nc > 0 && nc == st);
    let full = count(|&(nc, cf, st)| nc > st && cf == st);
    let partial = count(|&(nc, cf, st)| nc > st && cf > st);
    let potential: usize = t.iter().map(|&(nc, _, st)| nc - st.min(nc)).sum();
    let eliminated: usize = t.iter().map(|&(nc, cf, _)| nc - cf.min(nc)).sum();
    (clean, real, full, partial, eliminated, potential) == (352, 85, 138, 14, 3116, 3277)
}

/// One module of a traced sweep: the sweep engine's per-module steps, in
/// its order, each under a span.
fn traced_module(rec: &mut Recorder, cache: &AnalysisCache, m: &GeneratedModule) -> Done {
    rec.count("cache.queries", 1);
    let raw = rec.time("cache.raw_fp", || {
        source_fingerprint(&m.source, Backend::Steensgaard)
    });
    let served = rec.time("cache.lookup", || {
        cache.resolve_raw(raw).and_then(|fp| cache.lookup_fp(fp))
    });
    let triple = |e: CachedOutcome| (e.no_confine, e.confine, e.all_strong);
    if let Some(e) = served {
        return Done {
            triple: triple(e),
            note: Note::RawHit,
        };
    }
    rec.count("ast.parse_bytes", m.source.len() as u64);
    rec.open("ast.parse");
    let parsed = m.parse();
    let parse = rec.close();
    let fp = rec.time("cache.canon_fp", || {
        module_fingerprint(&parsed, Backend::Steensgaard)
    });
    if let Some(e) = rec.time("cache.lookup", || cache.lookup_fp(fp)) {
        return Done {
            triple: triple(e),
            note: Note::CanonHit { fp, raw },
        };
    }
    let (reports, check, confine) = check_modes(rec, &parsed, Backend::Steensgaard);
    let [nc, cf, st] = reports.map(|r| r.error_count());
    Done {
        triple: (nc, cf, st),
        note: Note::Miss {
            fp,
            raw,
            times: PhaseTimes {
                parse,
                check,
                confine,
            },
        },
    }
}

/// Bytes in the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

impl Workload for Sweep {
    fn unit(&mut self) -> Unit {
        self.prepare();
        let t0 = Instant::now();
        let (triples, served) = self.pass();
        let secs = t0.elapsed().as_secs_f64();
        Unit {
            secs,
            modules: triples.len(),
            ok: self.check(&triples, served),
        }
    }

    fn traced_unit(&mut self, rec: &mut Recorder) -> Unit {
        self.prepare();
        let t0 = Instant::now();
        let mut cache = rec.time("cache.load", || {
            AnalysisCache::load_sharded(&self.dir, DEFAULT_SHARDS)
        });
        // Like the engine, look every module up in the store as loaded and
        // apply the outcomes afterwards.
        let done: Vec<Done> = self
            .corpus
            .iter()
            .map(|m| traced_module(rec, &cache, m))
            .collect();
        // Applying the outcomes is the engine's own bookkeeping, not a
        // layer, so it stays outside every span.
        let mut triples = Vec::with_capacity(done.len());
        let mut served = 0;
        for d in done {
            triples.push(d.triple);
            match d.note {
                Note::RawHit => served += 1,
                Note::CanonHit { fp, raw } => {
                    served += 1;
                    cache.alias_raw(raw, fp);
                }
                Note::Miss { fp, raw, times } => {
                    let (no_confine, confine, all_strong) = d.triple;
                    let r = ModuleResult {
                        name: String::new(),
                        no_confine,
                        confine,
                        all_strong,
                    };
                    cache.record(fp, raw, CachedOutcome::of(&r, times));
                }
            }
        }
        let persisted = rec.time("cache.persist", || cache.persist());
        let secs = t0.elapsed().as_secs_f64();
        rec.count("cache.hits", served as u64);
        self.store_bytes = dir_bytes(&self.dir);
        Unit {
            secs,
            modules: triples.len(),
            ok: persisted.is_ok() && self.check(&triples, served),
        }
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) -> f64 {
        let queries = rec.counter("cache.queries") as f64;
        out.insert(
            "cache.hit_frac",
            ratio(rec.counter("cache.hits") as f64, queries),
        );
        out.insert("cache.store_bytes", self.store_bytes as f64);
        rec.attributed()
    }
}

/// `localias watch`: seeded single-function edits to one large module,
/// each analyzed by one incremental session.
pub struct Watch {
    seed: u64,
    funs: usize,
    session: IncrementalSession,
    next: u64,
    stats: Vec<IncrStats>,
}

/// Every tenth edit is also compared byte for byte with checking from
/// scratch (untimed).
const SCRATCH_EVERY: u64 = 10;

impl Watch {
    fn new(seed: u64, sizes: Sizes) -> Watch {
        let base = mega_module(seed, sizes.mega_funs);
        let mut session = IncrementalSession::new(&base.name, 1);
        session
            .analyze(&base.source)
            .expect("the generated module parses");
        Watch {
            seed,
            funs: sizes.mega_funs,
            session,
            next: 0,
            stats: Vec::new(),
        }
    }

    /// The next edit: constant tweaks (every verdict kept) alternate with
    /// broken lock pairs (one more error without and with confine).
    fn edit(&mut self) -> (u64, MegaEdit) {
        let i = self.next;
        self.next += 1;
        let kind = if i.is_multiple_of(2) {
            MegaEditKind::Compute
        } else {
            MegaEditKind::BreakLock
        };
        (i, mega_edit(self.seed, self.funs, i, kind))
    }

    /// The triple equals the edit's closed form, and every tenth edit's
    /// reports equal checking from scratch.
    fn check(i: u64, e: &MegaEdit, out: &Result<IncrOutcome, ParseError>) -> bool {
        let Ok(out) = out else { return false };
        let [nc, cf, st] = out.reports.each_ref().map(LockReport::error_count);
        let x = e.module.expect;
        (nc, cf, st) == (x.no_confine, x.confine, x.all_strong)
            && (!i.is_multiple_of(SCRATCH_EVERY) || out.reports == from_scratch(&e.module))
    }
}

/// The three reports of checking `m` from scratch, the reference the
/// incremental session must reproduce.
fn from_scratch(m: &GeneratedModule) -> [LockReport; 3] {
    let parsed = m.parse();
    let mut shared = SharedAnalysis::new(&parsed);
    MODES.map(|mode| {
        let (analysis, frozen) = match mode {
            Mode::Confine => shared.confine_frozen(),
            Mode::NoConfine | Mode::AllStrong => shared.base_frozen(),
        };
        check_locks_frozen(&parsed, analysis, frozen, mode, 1)
    })
}

impl Workload for Watch {
    fn unit(&mut self) -> Unit {
        let (i, e) = self.edit();
        let t0 = Instant::now();
        let out = self.session.analyze(&e.module.source);
        let secs = t0.elapsed().as_secs_f64();
        Unit {
            secs,
            modules: 1,
            ok: Self::check(i, &e, &out),
        }
    }

    fn traced_unit(&mut self, rec: &mut Recorder) -> Unit {
        let (i, e) = self.edit();
        let t0 = Instant::now();
        let out = rec.time("incr.analyze", || self.session.analyze(&e.module.source));
        let secs = t0.elapsed().as_secs_f64();
        if let Ok(o) = &out {
            self.stats.push(o.stats.clone());
        }
        Unit {
            secs,
            modules: 1,
            ok: Self::check(i, &e, &out),
        }
    }

    fn layers(&self, _rec: &Recorder, out: &mut Metrics) -> f64 {
        let sorted = |f: fn(&IncrStats) -> f64| {
            let mut v: Vec<f64> = self.stats.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let parse = sorted(|s| s.parse_seconds);
        let analysis = sorted(|s| s.analysis_seconds);
        let check = sorted(|s| s.check_seconds);
        // The session parses the whole module on every edit.
        out.insert("ast.parse_us_p50", percentile(&parse, 50.0) * 1e6);
        out.insert("ast.parse_us_p99", percentile(&parse, 99.0) * 1e6);
        out.insert("incr.analysis_ms_p50", percentile(&analysis, 50.0) * 1e3);
        out.insert("incr.check_ms_p50", percentile(&check, 50.0) * 1e3);
        let sum = |f: fn(&IncrStats) -> usize| self.stats.iter().map(f).sum::<usize>() as f64;
        out.insert(
            "incr.recheck_frac",
            ratio(sum(|s| s.rechecked), sum(|s| s.slots)),
        );
        out.insert(
            "incr.summary_changes",
            ratio(sum(|s| s.summary_changes), self.stats.len() as f64),
        );
        parse.iter().chain(&analysis).chain(&check).sum()
    }
}

/// `localias fuzz`: batches of generated modules, each checked
/// statically and executed by the reference interpreter.
pub struct Fuzz {
    seed: u64,
    iterations: u64,
    next: u64,
    stats: [ModeStats; 3],
    runs: u64,
    modules: u64,
    obs: Vec<obs::Trace>,
}

/// Interpreter fuel per run: the CLI's default.
const FUEL: u64 = 100_000;

impl Fuzz {
    fn new(seed: u64, sizes: Sizes) -> Fuzz {
        Fuzz {
            seed,
            iterations: sizes.fuzz_iterations,
            next: 0,
            stats: [ModeStats::default(); 3],
            runs: 0,
            modules: 0,
            obs: Vec::new(),
        }
    }

    /// The next batch. Shrinking stays off so that a batch's work is the
    /// same whether or not the checker under test is sound.
    fn batch(&mut self) -> FuzzConfig {
        let b = self.next;
        self.next += 1;
        FuzzConfig {
            seed: self.seed.wrapping_add(b),
            iterations: self.iterations,
            fuel: FUEL,
            shrink: false,
        }
    }
}

/// The fuzzer's static side (every mode through both backends) under
/// spans.
fn traced_matrix(rec: &mut Recorder, m: &Module) -> StaticMatrix {
    // Nests the checker's analyses under one obs span, so that the
    // oracle's Theorem-1 gate is the only `core.analyze` at the top.
    let _nest = obs::span!("bench.static");
    rec.open("fuzz.static");
    let mut out = StaticMatrix::default();
    for backend in Backend::ALL {
        rec.open(match backend {
            Backend::Steensgaard => "fuzz.steensgaard",
            Backend::Andersen => "fuzz.andersen",
        });
        out.0[backend.index()] = check_modes(rec, m, backend).0;
        rec.close();
    }
    rec.close();
    out
}

impl Workload for Fuzz {
    fn unit(&mut self) -> Unit {
        let cfg = self.batch();
        let t0 = Instant::now();
        let report = run_fuzz(&cfg);
        let secs = t0.elapsed().as_secs_f64();
        Unit {
            secs,
            modules: report.modules as usize,
            ok: report.clean() && report.modules == cfg.iterations,
        }
    }

    fn traced_unit(&mut self, rec: &mut Recorder) -> Unit {
        let cfg = self.batch();
        let t0 = Instant::now();
        // The oracle's Theorem-1 gate, its call graph and its interpreter
        // runs happen inside the fuzzer, so obs spans and histograms time
        // them; its counters stay off.
        obs::enable_spans();
        obs::enable_hists();
        let report = {
            let rec = RefCell::new(&mut *rec);
            run_fuzz_with(&cfg, &|m: &Module| traced_matrix(&mut rec.borrow_mut(), m))
        };
        obs::disable_spans();
        obs::disable_hists();
        let secs = t0.elapsed().as_secs_f64();
        self.obs.push(obs::drain());
        let steensgaard = &report.stats[Backend::Steensgaard.index()];
        for (acc, st) in self.stats.iter_mut().zip(steensgaard) {
            acc.flagged_funs += st.flagged_funs;
            acc.true_positive_funs += st.true_positive_funs;
            acc.false_positive_funs += st.false_positive_funs;
        }
        self.runs += report.runs;
        self.modules += report.modules;
        Unit {
            secs,
            modules: report.modules as usize,
            ok: report.clean() && report.modules == cfg.iterations,
        }
    }

    fn layers(&self, rec: &Recorder, out: &mut Metrics) -> f64 {
        let static_s = rec.total("fuzz.static");
        out.insert(
            "fuzz.static_ms_p50",
            percentile(&rec.secs("fuzz.static"), 50.0) * 1e3,
        );
        out.insert(
            "fuzz.andersen_share",
            ratio(rec.total("fuzz.andersen"), static_s),
        );
        let (gates, gate_ns, _) = obs_spans(&self.obs, "core.analyze", true);
        out.insert(
            "fuzz.gate_us_mean",
            ratio(gate_ns as f64 * 1e-3, gates as f64),
        );
        let exec_ns: u64 = self
            .obs
            .iter()
            .filter_map(|t| t.hist(obs::Hist::FuzzExecute))
            .map(|h| h.sum_ns)
            .sum();
        out.insert(
            "interp.run_us_mean",
            ratio(exec_ns as f64 * 1e-3, self.runs as f64),
        );
        out.insert(
            "interp.runs_per_module",
            ratio(self.runs as f64, self.modules as f64),
        );
        for (metric, st) in [
            "fuzz.fp_rate_noconfine",
            "fuzz.fp_rate_confine",
            "fuzz.fp_rate_allstrong",
        ]
        .into_iter()
        .zip(&self.stats)
        {
            out.insert(metric, st.fp_rate());
        }
        // The oracle's own call graph is the only one outside the checker.
        let (_, graph_ns, _) = obs_spans(&self.obs, "cqual.graph", true);
        static_s + (gate_ns + exec_ns + graph_ns) as f64 * 1e-9
    }
}
