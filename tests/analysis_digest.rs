//! Pins the analysis pipeline's exact output: over the paper corpus at
//! three seeds and the first three watched mega modules, everything a
//! module's analyses decide folds into one FNV-1a digest. Per module that
//! is the `propose_confines` candidates (block, range, key); for the base
//! analysis and for confine inference, the diagnostics, restrict,
//! candidate and confine outcomes, type mismatches, the solved effect of
//! every defined function, the solver's round and fired counts and the
//! frozen location table; the outermost confines; and the three
//! `check_modes` reports. A change to constraint generation or solving
//! that moves any verdict, location, effect set or report moves the
//! digest. Raw per-variable effect sets are left out: effect variables
//! are an internal numbering that the generator may change.

use localias::ast::fp::{fnv1a, FNV_OFFSET};
use localias::ast::Module;
use localias::core::{
    infer_confines_general, infer_restricts, propose_confines, Analysis, SharedAnalysis,
};
use localias::corpus::{generate, mega_module};
use localias::cqual::check_modes;
use std::fmt::Write as _;

/// A running FNV-1a state that `write!` can stream into.
struct Digest(u128);

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

impl Digest {
    /// Folds one `Debug` dump, then a separator byte that no dump
    /// contains (0xFF is never valid UTF-8).
    fn fold(&mut self, v: &dyn std::fmt::Debug) {
        write!(self, "{v:?}").expect("hashing never fails");
        self.0 = fnv1a(self.0, &[0xFF]);
    }

    fn analysis(&mut self, m: &Module, a: &Analysis) {
        self.fold(&a.diags);
        self.fold(&a.restricts);
        self.fold(&a.candidates);
        self.fold(&a.confines);
        self.fold(&a.state.mismatches);
        for f in m.functions() {
            let name = m.name(f.name.name);
            self.fold(&(name, a.function_effect(m, name)));
        }
        self.fold(&(a.solution.rounds, a.solution.fired));
    }

    fn module(&mut self, m: &Module) {
        for c in propose_confines(m) {
            self.fold(&(c.block, c.start, c.end, c.key));
        }
        let mut shared = SharedAnalysis::new(m);
        let reports = check_modes(&mut shared).0;
        let ((base, base_frozen), (confine, confine_frozen)) = shared.both_frozen();
        self.analysis(m, base);
        self.fold(base_frozen);
        self.analysis(m, confine);
        self.fold(confine_frozen);
        self.fold(&confine.outermost_confines(m));
        self.fold(&reports);
    }
}

#[test]
fn analysis_output_is_pinned() {
    let mut d = Digest(FNV_OFFSET);
    for seed in [20030609, 1, 7] {
        for g in generate(seed) {
            d.module(&g.parse());
        }
    }
    for seed in 1..=3 {
        d.module(&mega_module(seed, 300).parse());
    }
    assert_eq!(
        d.0, 137090181040945283310287877168359227443,
        "analysis digest moved"
    );
}

/// Pins what the two inference strategies decide over the paper corpus:
/// every outcome of the general §7 confine strategy with its outermost
/// pick, and every §5 `let-or-restrict` verdict.
#[test]
fn inference_strategies_are_pinned() {
    let mut d = Digest(FNV_OFFSET);
    for g in generate(20030609) {
        let m = g.parse();
        let a = infer_confines_general(&m);
        d.fold(&a.confines);
        d.fold(&a.outermost_confines(&m));
        d.fold(&infer_restricts(&m).candidates);
    }
    assert_eq!(
        d.0, 311007846907309571114725206753154018111,
        "inference strategies digest moved"
    );
}
