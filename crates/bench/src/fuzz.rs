//! Differential soundness fuzzing: the interpreter as ground-truth
//! oracle for the static lock checker (`localias fuzz`).
//!
//! Each iteration draws a module from the seeded catalog generator
//! ([`localias_corpus::fuzz_module`]), runs the three checker modes,
//! and *executes* every defined function under `localias-interp`,
//! which detects real locking mistakes (double acquire, release of an
//! unheld lock) the way a kernel lockdep would. The two verdicts are compared per entry function:
//!
//! * **unsound** — the entry faulted dynamically but no function it can
//!   reach (itself plus transitive defined callees) carries a static
//!   error under some mode. The checker blessed a real bug; any such
//!   divergence fails the run.
//! * **theorem-1** — the module passes the checking analysis
//!   ([`localias_core::check`] reports no diagnostics and every
//!   explicit `restrict`/`confine` verifies) yet execution raises a
//!   restrict violation. Theorem 1 of the paper says this can never
//!   happen, so it too fails the run.
//! * **true/false positive** — a statically flagged function that does
//!   / does not fault under any executed entry. False positives are
//!   expected (the analysis is conservative); their *rate* per mode is
//!   the report's precision metric.
//!
//! Reachability (not "errored in the same function") is the soundness
//! bar because the checker may attribute one dynamic mistake to a
//! different frame than the oracle does: a callee's unmet lock
//! requirement surfaces as a `CallRequirement` error at the caller,
//! and a havocked summary reports at the first post-havoc site.
//!
//! Divergences are shrunk to 1-minimal counterexamples by
//! [`shrink_source`]: repeatedly delete a top-level item, delete a
//! statement, or splice a control-flow statement's body inline, keeping
//! any edit that still diverges, until no single edit does. The checker
//! is pluggable ([`run_fuzz_with`]) so the harness tests can inject a
//! deliberately broken checker and watch the fuzzer catch and shrink
//! it.
//!
//! Everything is single-threaded and seeded: the same
//! [`FuzzConfig`] produces a byte-identical verdict
//! [`stream`](FuzzReport::stream), which the determinism tests pin.
//! See `DESIGN.md` §12.

use crate::Better::{Higher, Lower};
use crate::{json_hists, json_trace, Artifact, ObsReport};
use localias_ast::{parse_module, pretty, Block, ItemKind, Module, Stmt, StmtKind, TypeExpr};
use localias_core::SharedAnalysis;
use localias_corpus::fuzz_module;
use localias_cqual::{check_modes, CallGraph, LockReport, Mode, MODES};
use localias_interp::memory::default_value;
use localias_interp::{Interp, RuntimeError, Value};
use localias_obs as obs;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Corpus seed; module `i` is a pure function of `(seed, i)`.
    pub seed: u64,
    /// Number of modules to generate and check.
    pub iterations: u64,
    /// Interpreter fuel per execution (statements + expressions).
    pub fuel: u64,
    /// Whether to shrink divergent modules to minimal counterexamples.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iterations: 1000,
            fuel: 100_000,
            shrink: true,
        }
    }
}

/// Static lock reports per checker mode, in [`MODES`] order, and the
/// Theorem-1 gate's verdict. The fuzzer judges row 0 alone; row 1 is
/// kept so existing callers that build a two-row matrix still compile,
/// and the engine leaves it empty.
///
/// The gate verdict is whether [`localias_core::check`] accepts the
/// module ([`localias_core::Analysis::clean`]). A checker that ran that
/// analysis anyway hands the verdict back; `None` makes the oracle run
/// the check itself.
#[derive(Debug, Clone, Default)]
pub struct StaticMatrix(pub [[LockReport; 3]; 2], pub Option<bool>);

/// The real checker under test: all three modes over one
/// [`SharedAnalysis`], whose base analysis also answers the Theorem-1
/// gate.
pub fn real_static_matrix(m: &Module) -> StaticMatrix {
    let mut shared = SharedAnalysis::new(m);
    let (reports, _) = check_modes(&mut shared);
    let gate = shared.base().clean();
    StaticMatrix([reports, Default::default()], Some(gate))
}

/// Per-mode precision tally over statically flagged functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeStats {
    /// Functions with at least one static error attributed to them.
    pub flagged_funs: u64,
    /// Flagged functions that also faulted dynamically.
    pub true_positive_funs: u64,
    /// Flagged functions that never faulted under any executed entry.
    pub false_positive_funs: u64,
}

impl ModeStats {
    /// Fraction of flagged functions that never faulted (0.0 when
    /// nothing was flagged).
    pub fn fp_rate(&self) -> f64 {
        if self.flagged_funs == 0 {
            0.0
        } else {
            self.false_positive_funs as f64 / self.flagged_funs as f64
        }
    }

    fn accumulate(&mut self, o: ModeStats) {
        self.flagged_funs += o.flagged_funs;
        self.true_positive_funs += o.true_positive_funs;
        self.false_positive_funs += o.false_positive_funs;
    }
}

/// How a module's static and dynamic verdicts disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A dynamic lock fault with no static error anywhere the entry
    /// reaches — the checker missed a real bug.
    Unsound,
    /// A check-clean module raised a restrict violation at run time,
    /// contradicting the paper's Theorem 1.
    Theorem1,
}

impl DivergenceKind {
    /// Lower-case tag used in the verdict stream and repro file names.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Unsound => "unsound",
            DivergenceKind::Theorem1 => "theorem1",
        }
    }
}

/// One soundness divergence, with the module that exhibits it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Module name (`fuzz<index>`).
    pub module: String,
    /// Corpus index of the module (replay with the run's seed).
    pub index: u64,
    /// The entry function whose execution diverged.
    pub entry: String,
    /// Mode under which the checker missed the fault; `None` for
    /// Theorem-1 divergences (the gate is mode-independent).
    pub mode: Option<Mode>,
    /// The divergence class.
    pub kind: DivergenceKind,
    /// The oracle's description of the dynamic fault.
    pub detail: String,
    /// Full source of the diverging module.
    pub source: String,
    /// 1-minimal shrunk source, when shrinking was enabled.
    pub shrunk: Option<String>,
}

/// The result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Modules generated and differentially checked.
    pub modules: u64,
    /// Entry functions executed.
    pub entries: u64,
    /// Interpreter runs (entry × argument tuple).
    pub runs: u64,
    /// Dynamic lock faults observed across all runs.
    pub dyn_faults: u64,
    /// Runs that returned normally with a lock still held.
    pub leaks: u64,
    /// Runs ending in a memory/type/unbound execution error.
    pub exec_errors: u64,
    /// Runs that exhausted their fuel (inconclusive, not counted as
    /// ground truth).
    pub out_of_fuel: u64,
    /// Runs that raised a restrict violation (only divergent when the
    /// module was check-clean).
    pub restrict_violations: u64,
    /// Precision tallies per mode, in [`MODES`] order, in row 0. Row 1
    /// is kept for the matrix's shape and stays zero.
    pub stats: [[ModeStats; 3]; 2],
    /// All soundness divergences found (empty on a clean run).
    pub divergences: Vec<Divergence>,
    /// Shrinker edits attempted.
    pub shrink_candidates: u64,
    /// Shrinker edits accepted.
    pub shrink_steps: u64,
    /// The deterministic per-module verdict stream (byte-identical for
    /// identical configs).
    pub stream: String,
}

impl FuzzReport {
    /// `true` when no soundness divergence was found.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzzed {} modules: {} entries, {} runs, {} dynamic faults, \
             {} leaks, {} restrict violations, {} fuel-outs, {} exec errors",
            self.modules,
            self.entries,
            self.runs,
            self.dyn_faults,
            self.leaks,
            self.restrict_violations,
            self.out_of_fuel,
            self.exec_errors,
        );
        let _ = writeln!(
            s,
            "false-positive rate (flagged functions that never fault):"
        );
        let mut row = String::from("  steensgaard ");
        for (st, &mode) in self.stats[0].iter().zip(&MODES) {
            let _ = write!(
                row,
                " {}={:.1}% ({}/{})",
                mode_name(mode),
                100.0 * st.fp_rate(),
                st.false_positive_funs,
                st.flagged_funs
            );
        }
        let _ = writeln!(s, "{row}");
        let _ = writeln!(
            s,
            "shrinker: {} steps over {} candidates",
            self.shrink_steps, self.shrink_candidates
        );
        let _ = writeln!(s, "divergences: {}", self.divergences.len());
        for d in &self.divergences {
            let _ = writeln!(s, "  {}", divergence_line(d));
        }
        s
    }
}

/// Short lower-case mode tag.
pub fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::NoConfine => "noconfine",
        Mode::Confine => "confine",
        Mode::AllStrong => "allstrong",
    }
}

fn divergence_line(d: &Divergence) -> String {
    let at = match d.mode {
        Some(m) => format!(" mode={}", mode_name(m)),
        None => String::new(),
    };
    format!(
        "!! {} {} entry={}{}: {}",
        d.kind.name(),
        d.module,
        d.entry,
        at,
        d.detail
    )
}

/// The `localias-bench-fuzz/v4` artifact of one run (`localias fuzz
/// --bench-out`): throughput, the oracle's counts, the false-positive
/// rate per mode, shrinker statistics and the run's obs blocks. v2
/// added the `hist` block, v3 the shared envelope and `fp_rates` keyed
/// by backend, v4 keeps only `fp_rates.steensgaard`.
pub fn artifact_json(
    cfg: &FuzzConfig,
    report: &FuzzReport,
    wall_seconds: f64,
    obs_report: &ObsReport,
) -> String {
    let mut a = Artifact::new("localias-bench-fuzz/v4", cfg.seed);
    a.set(&["iterations"], cfg.iterations);
    a.set(&["fuel"], cfg.fuel);
    a.metric(&["wall_seconds"], wall_seconds, Lower);
    let per_sec = report.modules as f64 / wall_seconds.max(1e-9);
    a.metric(&["modules_per_sec"], per_sec, Higher);
    let counts = [
        ("entries", report.entries),
        ("runs", report.runs),
        ("dyn_faults", report.dyn_faults),
        ("leaks", report.leaks),
        ("restrict_violations", report.restrict_violations),
        ("out_of_fuel", report.out_of_fuel),
        ("exec_errors", report.exec_errors),
        ("divergences", report.divergences.len() as u64),
    ];
    for (key, n) in counts {
        a.set(&[key], n);
    }
    for (st, &mode) in report.stats[0].iter().zip(&MODES) {
        let (b, m) = ("steensgaard", mode_name(mode));
        a.set(&["fp_rates", b, m, "flagged"], st.flagged_funs);
        a.set(&["fp_rates", b, m, "true_positives"], st.true_positive_funs);
        a.set(
            &["fp_rates", b, m, "false_positives"],
            st.false_positive_funs,
        );
        a.metric(&["fp_rates", b, m, "rate"], st.fp_rate(), Lower);
    }
    a.set(&["shrink", "candidates"], report.shrink_candidates);
    a.set(&["shrink", "steps"], report.shrink_steps);
    a.finish(
        json_hists(&obs_report.hists),
        json_trace(obs_report.trace.as_ref()),
    )
}

/// Writes the run's divergences under `dir` (`localias fuzz
/// --repro-dir`): one `{module}_{kind}.mc` file per diverging module and
/// kind, headed by one `// !! …` line per divergence it witnesses
/// (entry, mode, detail) and a replay line, then the module's shrunk
/// source, which every divergence of one kind in one module shares.
/// Returns the number of files written.
pub fn write_repros(dir: &Path, seed: u64, report: &FuzzReport) -> Result<usize, String> {
    let at = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    std::fs::create_dir_all(dir).map_err(|e| at(dir, e))?;
    let mut files: BTreeMap<(u64, &str), Vec<&Divergence>> = BTreeMap::new();
    for d in &report.divergences {
        files.entry((d.index, d.kind.name())).or_default().push(d);
    }
    for ((index, kind), ds) in &files {
        let mut body = String::new();
        for d in ds {
            let _ = writeln!(body, "// {}", divergence_line(d));
        }
        let _ = writeln!(
            body,
            "// replay: localias fuzz --seed {seed} --iterations {} (module index {index})",
            index + 1
        );
        body.push_str(ds[0].shrunk.as_deref().unwrap_or(&ds[0].source));
        let path = dir.join(format!("{}_{kind}.mc", ds[0].module));
        std::fs::write(&path, body).map_err(|e| at(&path, e))?;
    }
    Ok(files.len())
}

/// A divergence detected inside [`check_one`], before the module source
/// is attached.
#[derive(Debug, Clone)]
struct Diverge {
    entry: String,
    mode: Option<Mode>,
    kind: DivergenceKind,
    detail: String,
}

/// The differential verdict for one module.
#[derive(Debug, Clone, Default)]
struct ModuleOutcome {
    entries: u64,
    runs: u64,
    dyn_faults: u64,
    leaks: u64,
    exec_errors: u64,
    out_of_fuel: u64,
    restrict_violations: u64,
    /// Static error counts per mode.
    errs: [usize; 3],
    stats: [ModeStats; 3],
    divergences: Vec<Diverge>,
}

/// The integer argument tuples an entry is executed under: indices
/// distinct per parameter (drives distinct-element paths), all ones
/// (drives guarded branches, recursion depth, and same-value aliasing),
/// and all zeros (the guard-off path). Deduplicated, so a nullary entry
/// runs once.
fn int_assignments(params: usize) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::new();
    let distinct: Vec<i64> = (0..params as i64).collect();
    let ones = vec![1i64; params];
    let zeros = vec![0i64; params];
    for v in [distinct, ones, zeros] {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Functions reachable from `entry` in the call graph (itself plus
/// transitive defined callees).
fn reach_of(cg: &CallGraph, entry: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let Some(start) = cg.node(entry) else {
        seen.insert(entry.to_string());
        return seen;
    };
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if seen.insert(cg.name(v).to_string()) {
            stack.extend_from_slice(cg.callees(v));
        }
    }
    seen
}

/// Differentially checks one parsed module: static matrix vs. the
/// interpreter oracle. Pure and deterministic — also the shrinker's
/// predicate.
fn check_one(m: &Module, fuel: u64, checker: &dyn Fn(&Module) -> StaticMatrix) -> ModuleOutcome {
    let matrix = {
        let _span = obs::span!("fuzz.check", obs::Hist::FuzzCheck);
        checker(m)
    };

    // Theorem-1 gate: does the plain checking analysis accept the
    // module? (Diagnostics clean, every explicit restrict/confine
    // verified.) Only then is a dynamic restrict violation a divergence.
    let check_clean = matrix.1.unwrap_or_else(|| localias_core::check(m).clean());

    let mut out = ModuleOutcome::default();
    // Functions the oracle saw fault (by the frame the fault occurred
    // in), and entries whose execution produced at least one fault.
    let mut fault_funs: BTreeSet<String> = BTreeSet::new();
    let mut faulted_entries: Vec<(String, String)> = Vec::new();
    let mut theorem1: Option<(String, String)> = None;

    for f in m.functions() {
        let _span = obs::span!("fuzz.execute", obs::Hist::FuzzExecute);
        out.entries += 1;
        let name = f.name.name.to_string();
        let mut first_fault: Option<String> = None;
        for ints in int_assignments(f.params.len()) {
            out.runs += 1;
            let mut interp = Interp::new(m, fuel);
            let args: Vec<Value> = f
                .params
                .iter()
                .enumerate()
                .map(|(pi, p)| match &p.ty {
                    TypeExpr::Int => Value::Int(ints[pi]),
                    TypeExpr::Ptr(inner) => interp.fresh_object(inner),
                    other => default_value(other),
                })
                .collect();
            let res = interp.call_entry(&name, &args);
            out.dyn_faults += interp.lock_faults.len() as u64;
            for lf in &interp.lock_faults {
                fault_funs.insert(lf.fun.clone());
                if first_fault.is_none() {
                    first_fault = Some(format!("{}: {}", lf.fun, lf.detail));
                }
            }
            match res {
                Ok(_) => {
                    if interp.held_locks() > 0 {
                        out.leaks += 1;
                    }
                }
                Err(RuntimeError::RestrictViolation { detail }) => {
                    out.restrict_violations += 1;
                    if check_clean && theorem1.is_none() {
                        theorem1 = Some((name.clone(), detail));
                    }
                }
                Err(RuntimeError::OutOfFuel) => out.out_of_fuel += 1,
                Err(_) => out.exec_errors += 1,
            }
        }
        if let Some(detail) = first_fault {
            faulted_entries.push((name, detail));
        }
    }

    // Reach sets only matter for entries that actually faulted, so the
    // call graph is built only when one did.
    let reaches: Vec<(String, BTreeSet<String>, String)> = if faulted_entries.is_empty() {
        Vec::new()
    } else {
        let cg = CallGraph::build(m);
        faulted_entries
            .into_iter()
            .map(|(entry, detail)| {
                let reach = reach_of(&cg, &entry);
                (entry, reach, detail)
            })
            .collect()
    };

    for (mi, &mode) in MODES.iter().enumerate() {
        let rep = &matrix.0[0][mi];
        out.errs[mi] = rep.errors.len();
        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for e in &rep.errors {
            flagged.insert(e.fun.as_str());
        }
        let st = &mut out.stats[mi];
        for &fun in &flagged {
            st.flagged_funs += 1;
            if fault_funs.contains(fun) {
                st.true_positive_funs += 1;
            } else {
                st.false_positive_funs += 1;
            }
        }
        for (entry, reach, detail) in &reaches {
            if reach.iter().all(|g| !flagged.contains(g.as_str())) {
                out.divergences.push(Diverge {
                    entry: entry.clone(),
                    mode: Some(mode),
                    kind: DivergenceKind::Unsound,
                    detail: detail.clone(),
                });
            }
        }
    }
    if let Some((entry, detail)) = theorem1 {
        out.divergences.push(Diverge {
            entry,
            mode: None,
            kind: DivergenceKind::Theorem1,
            detail: format!("restrict violation: {detail}"),
        });
    }
    out
}

/// Runs the fuzzer against the real checker.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(cfg, &real_static_matrix)
}

/// Runs the fuzzer against an arbitrary checker — the harness tests
/// inject a deliberately unsound one here and assert it is caught.
pub fn run_fuzz_with(cfg: &FuzzConfig, checker: &dyn Fn(&Module) -> StaticMatrix) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.iterations {
        let fm = fuzz_module(cfg.seed, i);
        let m = parse_module(&fm.name, &fm.source).unwrap_or_else(|e| {
            panic!(
                "fuzz generator produced an unparsable module \
                 (seed {}, index {i}): {e}\n{}",
                cfg.seed, fm.source
            )
        });
        let oc = check_one(&m, cfg.fuel, checker);

        report.modules += 1;
        report.entries += oc.entries;
        report.runs += oc.runs;
        report.dyn_faults += oc.dyn_faults;
        report.leaks += oc.leaks;
        report.exec_errors += oc.exec_errors;
        report.out_of_fuel += oc.out_of_fuel;
        report.restrict_violations += oc.restrict_violations;
        for (acc, st) in report.stats[0].iter_mut().zip(oc.stats) {
            acc.accumulate(st);
        }
        obs::count(obs::Counter::FuzzModules, 1);
        obs::count(obs::Counter::FuzzEntries, oc.entries);
        obs::count(obs::Counter::FuzzRuns, oc.runs);
        obs::count(obs::Counter::FuzzDynFaults, oc.dyn_faults);

        let _ = writeln!(
            report.stream,
            "{} idioms={} entries={} runs={} faults={} st={}/{}/{}",
            fm.name,
            fm.idioms.join("+"),
            oc.entries,
            oc.runs,
            oc.dyn_faults,
            oc.errs[0],
            oc.errs[1],
            oc.errs[2],
        );

        // One shrink per (module, kind): divergences of the same kind
        // share the predicate, so they shrink to the same witness.
        let mut shrunk_by_kind: [Option<String>; 2] = [None, None];
        for d in oc.divergences {
            obs::count(obs::Counter::FuzzUnsound, 1);
            let slot = match d.kind {
                DivergenceKind::Unsound => 0,
                DivergenceKind::Theorem1 => 1,
            };
            let shrunk = if cfg.shrink {
                if shrunk_by_kind[slot].is_none() {
                    let sh = shrink_source(&fm.name, &fm.source, cfg.fuel, checker, d.kind);
                    report.shrink_candidates += sh.candidates;
                    report.shrink_steps += sh.steps;
                    shrunk_by_kind[slot] = Some(sh.source);
                }
                shrunk_by_kind[slot].clone()
            } else {
                None
            };
            let full = Divergence {
                module: fm.name.clone(),
                index: i,
                entry: d.entry,
                mode: d.mode,
                kind: d.kind,
                detail: d.detail,
                source: fm.source.clone(),
                shrunk,
            };
            let _ = writeln!(report.stream, "{}", divergence_line(&full));
            report.divergences.push(full);
        }
    }
    for st in &report.stats[0] {
        obs::count(obs::Counter::FuzzFalsePositives, st.false_positive_funs);
    }
    report
}

// ---------------------------------------------------------------------
// Counterexample shrinking
// ---------------------------------------------------------------------

/// Result of shrinking one diverging module.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The 1-minimal diverging source (canonically pretty-printed).
    pub source: String,
    /// Candidate edits attempted.
    pub candidates: u64,
    /// Edits accepted (each strictly shrank the module).
    pub steps: u64,
}

/// Path to a statement: descend through `(statement index, sub-block
/// selector)` pairs, then index `at` in the final block.
#[derive(Debug, Clone)]
struct StmtAddr {
    descend: Vec<(usize, u8)>,
    at: usize,
}

/// One candidate shrinking edit.
#[derive(Debug, Clone)]
enum Edit {
    /// Delete top-level item `i`.
    RemoveItem(usize),
    /// Delete the statement at `addr` in function item `item`.
    RemoveStmt { item: usize, addr: StmtAddr },
    /// Replace the control-flow statement at `addr` with its nested
    /// statements, spliced inline (`if`/`while`/`restrict`/`confine`/
    /// bare block).
    Splice { item: usize, addr: StmtAddr },
}

/// The nested blocks of a statement, in a fixed selector order.
fn sub_blocks(s: &StmtKind) -> Vec<&Block> {
    match s {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            let mut v = vec![then_blk];
            if let Some(e) = else_blk {
                v.push(e);
            }
            v
        }
        StmtKind::While { body, .. }
        | StmtKind::Restrict { body, .. }
        | StmtKind::Confine { body, .. } => vec![body],
        StmtKind::Block(b) => vec![b],
        _ => Vec::new(),
    }
}

fn sub_blocks_mut(s: &mut StmtKind) -> Vec<&mut Block> {
    match s {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            let mut v = vec![then_blk];
            if let Some(e) = else_blk {
                v.push(e);
            }
            v
        }
        StmtKind::While { body, .. }
        | StmtKind::Restrict { body, .. }
        | StmtKind::Confine { body, .. } => vec![body],
        StmtKind::Block(b) => vec![b],
        _ => Vec::new(),
    }
}

/// The statements inside a control-flow statement, concatenated — what
/// a splice leaves behind. `None` for leaf statements.
fn spliced_stmts(kind: StmtKind) -> Option<Vec<Stmt>> {
    match kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            let mut v = then_blk.stmts;
            if let Some(e) = else_blk {
                v.extend(e.stmts);
            }
            Some(v)
        }
        StmtKind::While { body, .. }
        | StmtKind::Restrict { body, .. }
        | StmtKind::Confine { body, .. } => Some(body.stmts),
        StmtKind::Block(b) => Some(b.stmts),
        _ => None,
    }
}

fn collect_stmt_edits(b: &Block, item: usize, descend: &mut Vec<(usize, u8)>, out: &mut Vec<Edit>) {
    for (si, s) in b.stmts.iter().enumerate() {
        let addr = StmtAddr {
            descend: descend.clone(),
            at: si,
        };
        out.push(Edit::RemoveStmt {
            item,
            addr: addr.clone(),
        });
        let subs = sub_blocks(&s.kind);
        if !subs.is_empty() {
            out.push(Edit::Splice { item, addr });
            for (bi, sub) in subs.into_iter().enumerate() {
                descend.push((si, bi as u8));
                collect_stmt_edits(sub, item, descend, out);
                descend.pop();
            }
        }
    }
}

/// All candidate edits of `m`, coarsest first (whole items, then
/// statements in pre-order). The fixed order keeps shrinking
/// deterministic.
fn enumerate_edits(m: &Module) -> Vec<Edit> {
    let mut out = Vec::new();
    for i in 0..m.items.len() {
        out.push(Edit::RemoveItem(i));
    }
    for (i, item) in m.items.iter().enumerate() {
        if let ItemKind::Fun(f) = &item.kind {
            collect_stmt_edits(&f.body, i, &mut Vec::new(), &mut out);
        }
    }
    out
}

/// Navigates to the block `addr.descend` points into, inside function
/// item `item`.
fn block_at_mut<'a>(
    m: &'a mut Module,
    item: usize,
    descend: &[(usize, u8)],
) -> Option<&'a mut Block> {
    let f = match &mut m.items.get_mut(item)?.kind {
        ItemKind::Fun(f) => f,
        _ => return None,
    };
    let mut blk = &mut f.body;
    for &(si, bi) in descend {
        let s = blk.stmts.get_mut(si)?;
        blk = sub_blocks_mut(&mut s.kind).into_iter().nth(bi as usize)?;
    }
    Some(blk)
}

/// Applies `e` to `m`; `false` if the address no longer exists.
fn apply_edit(m: &mut Module, e: &Edit) -> bool {
    match e {
        Edit::RemoveItem(i) => {
            if *i < m.items.len() {
                m.items.remove(*i);
                true
            } else {
                false
            }
        }
        Edit::RemoveStmt { item, addr } => {
            let Some(blk) = block_at_mut(m, *item, &addr.descend) else {
                return false;
            };
            if addr.at < blk.stmts.len() {
                blk.stmts.remove(addr.at);
                true
            } else {
                false
            }
        }
        Edit::Splice { item, addr } => {
            let Some(blk) = block_at_mut(m, *item, &addr.descend) else {
                return false;
            };
            if addr.at >= blk.stmts.len() {
                return false;
            }
            let s = blk.stmts.remove(addr.at);
            match spliced_stmts(s.kind) {
                Some(inner) => {
                    blk.stmts.splice(addr.at..addr.at, inner);
                    true
                }
                None => false,
            }
        }
    }
}

/// Shrinks `source` to a 1-minimal module that still exhibits a
/// divergence of `kind` under `checker`: no single item deletion,
/// statement deletion, or body splice preserves the divergence.
/// Deterministic — the edit order is fixed and the first accepted edit
/// restarts the pass on the smaller module.
pub fn shrink_source(
    name: &str,
    source: &str,
    fuel: u64,
    checker: &dyn Fn(&Module) -> StaticMatrix,
    kind: DivergenceKind,
) -> ShrinkOutcome {
    let mut candidates = 0u64;
    let mut steps = 0u64;
    let diverges = |src: &str| -> bool {
        match parse_module(name, src) {
            Ok(m) => check_one(&m, fuel, checker)
                .divergences
                .iter()
                .any(|d| d.kind == kind),
            Err(_) => false,
        }
    };

    // Canonicalize formatting so the output is print-stable.
    let mut cur = match parse_module(name, source) {
        Ok(m) => pretty::print_module(&m),
        Err(_) => {
            return ShrinkOutcome {
                source: source.to_string(),
                candidates,
                steps,
            }
        }
    };
    if !diverges(&cur) {
        // Caller handed us a non-diverging module; nothing to shrink.
        return ShrinkOutcome {
            source: cur,
            candidates,
            steps,
        };
    }

    loop {
        let m = parse_module(name, &cur).expect("shrink state re-parses");
        let mut advanced = false;
        for e in enumerate_edits(&m) {
            let mut m2 = m.clone();
            if !apply_edit(&mut m2, &e) {
                continue;
            }
            let src2 = pretty::print_module(&m2);
            if src2 == cur {
                continue;
            }
            candidates += 1;
            obs::count(obs::Counter::FuzzShrinkCandidates, 1);
            if diverges(&src2) {
                cur = src2;
                steps += 1;
                obs::count(obs::Counter::FuzzShrinkSteps, 1);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    ShrinkOutcome {
        source: cur,
        candidates,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_keeps_the_contract() {
        let mut report = FuzzReport {
            modules: 10,
            ..FuzzReport::default()
        };
        report.stats[0][0] = ModeStats {
            flagged_funs: 4,
            true_positive_funs: 3,
            false_positive_funs: 1,
        };
        let text = artifact_json(&FuzzConfig::default(), &report, 0.5, &ObsReport::default());
        crate::testkit::assert_writer_contract(
            &text,
            &["fp_rates", "steensgaard", "noconfine", "rate"],
        );
    }

    #[test]
    fn int_assignments_dedupe() {
        assert_eq!(int_assignments(0), vec![Vec::<i64>::new()]);
        assert_eq!(int_assignments(1), vec![vec![0], vec![1]]);
        assert_eq!(int_assignments(2), vec![vec![0, 1], vec![1, 1], vec![0, 0]]);
    }

    #[test]
    fn real_checker_catches_a_planted_bug() {
        let m = parse_module(
            "planted",
            "lock mu;\nvoid f() { spin_lock(&mu); spin_lock(&mu); }\n",
        )
        .unwrap();
        let oc = check_one(&m, 100_000, &real_static_matrix);
        assert!(oc.dyn_faults > 0, "oracle sees the double acquire");
        assert!(oc.divergences.is_empty(), "checker flags it too");
        for st in oc.stats {
            assert_eq!(st.true_positive_funs, 1);
        }
    }

    #[test]
    fn blind_checker_is_unsound_and_shrinks_minimal() {
        let blind = |_m: &Module| StaticMatrix::default();
        let m = parse_module(
            "planted",
            "lock mu;\nint x;\nvoid f() { x = 1; spin_lock(&mu); spin_lock(&mu); }\n",
        )
        .unwrap();
        let oc = check_one(&m, 100_000, &blind);
        assert_eq!(oc.divergences.len(), 3, "unsound under every mode");
        let src = pretty::print_module(&m);
        let sh = shrink_source("planted", &src, 100_000, &blind, DivergenceKind::Unsound);
        assert!(sh.steps > 0, "something was deleted");
        // The globals `x` and the store to it must be gone; the two
        // acquires and the lock declaration must survive.
        assert!(
            !sh.source.contains('x'),
            "irrelevant global removed:\n{}",
            sh.source
        );
        assert_eq!(sh.source.matches("spin_lock").count(), 2, "{}", sh.source);
        // 1-minimality: no single further edit still diverges.
        let min = parse_module("planted", &sh.source).unwrap();
        for e in enumerate_edits(&min) {
            let mut m2 = min.clone();
            if !apply_edit(&mut m2, &e) {
                continue;
            }
            let src2 = pretty::print_module(&m2);
            if src2 == sh.source {
                continue;
            }
            let still = match parse_module("planted", &src2) {
                Ok(p) => check_one(&p, 100_000, &blind)
                    .divergences
                    .iter()
                    .any(|d| d.kind == DivergenceKind::Unsound),
                Err(_) => false,
            };
            assert!(
                !still,
                "not 1-minimal; edit left a diverging module:\n{src2}"
            );
        }
        // Determinism.
        let sh2 = shrink_source("planted", &src, 100_000, &blind, DivergenceKind::Unsound);
        assert_eq!(sh.source, sh2.source);
    }
}
