//! The edit→report session behind `localias watch`: every save of the
//! module is checked whole.
//!
//! An [`IncrementalSession`] keeps only the previous source text and its
//! three reports. A byte-identical source gets those reports back without
//! parsing (a module hit); any other source is parsed, analyzed and
//! checked from scratch by [`check_modes`]. The whole-module check is
//! `O(kn)` (the paper's §4) and walks only the code that can change a
//! lock state: on a 300-function module it takes about 0.4 ms of a
//! 4–5 ms edit (1.6–1.7 ms when it walked every statement), so nothing
//! finer is cached (DESIGN.md §10).

use crate::flow::{check_modes, MODES};
use crate::report::LockReport;
use localias_ast::{parse_module, ParseError};
use localias_core::SharedAnalysis;
use localias_obs as obs;

/// What one [`IncrementalSession::analyze`] call did.
///
/// A slot is one function checked in one mode, so `slots` is the
/// defined functions times three.
#[derive(Debug, Clone, Default)]
pub struct IncrStats {
    /// Function×mode slots of the module.
    pub slots: usize,
    /// Slots checked: all of them, or none on a module hit.
    pub rechecked: usize,
    /// Always 0: no summary outlives an analysis.
    pub summary_changes: usize,
    /// The source was byte-identical to the previous one, so its reports
    /// were returned without parsing.
    pub module_hit: bool,
    /// Wall-clock seconds parsing (the `ast.parse` span).
    pub parse_seconds: f64,
    /// Wall-clock seconds in the base and confine analyses (the
    /// `core.base` and `core.confine` spans of [`check_modes`]).
    pub analysis_seconds: f64,
    /// Wall-clock seconds in the three mode checks (`cqual.check`).
    pub check_seconds: f64,
}

/// The result of one analysis: the three mode reports (in [`MODES`]
/// order) and the call's statistics.
#[derive(Debug, Clone)]
pub struct IncrOutcome {
    /// Per-mode lock reports, equal to [`check_modes`] on the source.
    pub reports: [LockReport; 3],
    /// What the session did to produce them.
    pub stats: IncrStats,
}

/// A session over successive versions of one module.
///
/// # Example
///
/// ```
/// use localias_cqual::incremental::IncrementalSession;
///
/// let v1 = "lock l;\nvoid f() { spin_lock(&l); }\nvoid g() { f(); }\n";
/// let v2 = "lock l;\nvoid f() { spin_lock(&l); spin_unlock(&l); }\nvoid g() { f(); }\n";
/// let mut session = IncrementalSession::new("m", 1);
/// session.analyze(v1)?;
/// let edit = session.analyze(v2)?;
/// // Every function is checked again in every mode...
/// assert_eq!(edit.stats.rechecked, edit.stats.slots);
/// // ...unless the saved source did not change at all.
/// assert!(session.analyze(v2)?.stats.module_hit);
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub struct IncrementalSession {
    name: String,
    /// The last source that parsed, with its reports and slot count.
    prev: Option<(String, [LockReport; 3], usize)>,
}

impl IncrementalSession {
    /// Creates a session for a module named `name`.
    ///
    /// `intra_jobs` is kept only so the benchmark crate's calls keep
    /// their signature; the checker is sequential and the value must
    /// be 1.
    pub fn new(name: &str, intra_jobs: usize) -> IncrementalSession {
        assert_eq!(intra_jobs, 1, "the lock checker is sequential");
        IncrementalSession {
            name: name.to_string(),
            prev: None,
        }
    }

    /// Analyzes one version of the module source. A parse error leaves
    /// the session as it was.
    pub fn analyze(&mut self, source: &str) -> Result<IncrOutcome, ParseError> {
        let _span = obs::span!("incr.analyze");
        if let Some((prev, reports, slots)) = &self.prev {
            if prev == source {
                obs::count(obs::Counter::IncrModuleHits, 1);
                let stats = IncrStats {
                    slots: *slots,
                    module_hit: true,
                    ..IncrStats::default()
                };
                let reports = reports.clone();
                return Ok(IncrOutcome { reports, stats });
            }
        }
        let span = obs::Span::timed("ast.parse");
        let module = parse_module(&self.name, source)?;
        let parse = span.close();
        let (reports, times) = check_modes(&mut SharedAnalysis::new(&module));
        let slots = module.functions().count() * MODES.len();
        self.prev = Some((source.to_string(), reports.clone(), slots));
        let stats = IncrStats {
            slots,
            rechecked: slots,
            summary_changes: 0,
            module_hit: false,
            parse_seconds: parse.as_secs_f64(),
            analysis_seconds: (times.base + times.confine).as_secs_f64(),
            check_seconds: times.check.as_secs_f64(),
        };
        Ok(IncrOutcome { reports, stats })
    }

    /// The module name the session analyzes under.
    pub fn name(&self) -> &str {
        &self.name
    }
}
