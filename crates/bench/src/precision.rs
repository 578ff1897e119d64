//! The §8 headroom study (`localias precision`): how much precision
//! unification (Steensgaard) gives up against inclusion (Andersen) —
//! the direction the paper leaves unexplored ("restrict checking can
//! also be combined with more precise alias analyses").
//!
//! Metric: for every pair of pointer-typed locals in a function, does the
//! analysis consider their targets overlapping? Pairs aliased by
//! unification but *not* by inclusion are unification's precision loss —
//! each is a site where a more precise back-end could admit more
//! restricts/confines.

use crate::harness::timed;
use localias_alias::andersen::{self, Cell};
use localias_alias::{steensgaard, Loc};
use localias_corpus::random_module_source;
use std::fmt::Write as _;
use std::time::Duration;

/// Number of random pointer-heavy modules compared.
const MODULES: u64 = 400;
/// Statements per module.
const STMTS: usize = 14;

/// The study's totals over the random modules of one seed.
#[derive(Debug, Clone, Default)]
pub struct PrecisionStudy {
    /// Corpus seed.
    seed: u64,
    /// Pointer-local pairs compared.
    pairs: u64,
    /// Pairs aliased under unification (Steensgaard).
    aliased_uni: u64,
    /// Pairs aliased under inclusion (Andersen).
    aliased_incl: u64,
    /// Modules with at least one pair only unification conflates.
    modules_with_gap: u64,
    /// Wall time of both analyses over every module.
    seconds: f64,
}

impl PrecisionStudy {
    /// Runs both analyses over the seed's modules.
    pub fn run(seed: u64) -> PrecisionStudy {
        let mut study = PrecisionStudy {
            seed,
            ..PrecisionStudy::default()
        };
        let ((), seconds) = timed("precision.sweep", || {
            for k in 0..MODULES {
                study.measure(&random_module_source(seed.wrapping_add(k), STMTS));
            }
        });
        study.seconds = seconds;
        study
    }

    /// Adds one module's pairs to the totals.
    fn measure(&mut self, src: &str) {
        let parsed = localias_ast::parse_module("synth", src).expect("generated modules parse");
        let pts = andersen::analyze(&parsed);
        let mut uni = steensgaard::analyze(&parsed);
        let mut gap = false;
        for f in parsed.functions() {
            let fun = parsed.name(f.name.name);
            let ptrs: Vec<(localias_ast::Symbol, Loc)> = uni
                .state
                .vars
                .iter()
                .filter(|v| v.fun == Some(f.name.name))
                .filter_map(|v| v.ty.pointee().map(|l| (v.name, l)))
                .collect();
            let cell = |name| Cell::Var(Some(fun.to_string()), parsed.name(name).to_string());
            for i in 0..ptrs.len() {
                for j in (i + 1)..ptrs.len() {
                    self.pairs += 1;
                    let u = uni.state.locs.same(ptrs[i].1, ptrs[j].1);
                    let a = pts.may_point_same(&cell(ptrs[i].0), &cell(ptrs[j].0));
                    self.aliased_uni += u as u64;
                    self.aliased_incl += a as u64;
                    gap |= u && !a;
                }
            }
        }
        self.modules_with_gap += gap as u64;
    }

    /// The study's table and timing line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Alias-analysis precision over {MODULES} random pointer-heavy modules (seed {})",
            self.seed
        );
        let _ = writeln!(s);
        let rows = [
            ("pointer-local pairs compared", self.pairs),
            ("aliased under unification (Steensgaard)", self.aliased_uni),
            ("aliased under inclusion (Andersen)", self.aliased_incl),
            (
                "pairs only unification conflates",
                self.aliased_uni - self.aliased_incl,
            ),
            ("modules where precision differs", self.modules_with_gap),
        ];
        for (label, n) in rows {
            let _ = writeln!(s, "{label:<46} {n:>10}");
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "(both analyses over {MODULES} modules in {:.2?})",
            Duration::from_secs_f64(self.seconds)
        );
        s
    }
}
