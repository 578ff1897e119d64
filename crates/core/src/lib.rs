#![warn(missing_docs)]

//! `restrict`/`confine` checking and inference — the primary contribution
//! of *Checking and Inferring Local Non-Aliasing* (Aiken, Foster, Kodumal
//! & Terauchi, PLDI 2003).
//!
//! The crate offers one entry point, [`analyze`], configured by
//! [`Options`]:
//!
//! * **Checking** (§3–§4): with default options, explicit `restrict`
//!   parameters/declarations/statements and explicit `confine` statements
//!   are verified against the type-and-effect system; violations are
//!   reported per annotation with a [`Reason`].
//! * **Restrict inference** (§5): `Options::infer_restrict` treats every
//!   initialized pointer declaration as a `let-or-restrict` and computes
//!   the unique maximal set that can soundly be `restrict`.
//! * **Confine inference** (§6–§7): [`infer_confines`] proposes
//!   `confine?` candidates with the paper's block heuristic
//!   ([`heuristic::propose_confines`]), solves, and keeps the outermost
//!   successes.
//!
//! # Example: checking the paper's Figure 1
//!
//! ```
//! use localias_ast::parse_module;
//! use localias_core::{analyze, Options};
//!
//! let m = parse_module(
//!     "fig1",
//!     r#"
//!     lock locks[8];
//!     extern void work();
//!     void do_with_lock(lock *restrict l) {
//!         spin_lock(l);
//!         work();
//!         spin_unlock(l);
//!     }
//!     void foo(int i) { do_with_lock(&locks[i]); }
//!     "#,
//! )?;
//! let a = analyze(&m, Options::default());
//! assert!(a.restricts.iter().all(|r| r.ok()));
//! # Ok::<(), localias_ast::ParseError>(())
//! ```

pub mod gen;
pub mod heuristic;
pub mod outcome;

pub use gen::{Gen, Options};
pub use heuristic::{
    propose_confines, propose_confines_general, select_outermost, ConfineCandidate,
};
pub use outcome::{CandidateOutcome, ConfineOutcome, ConfineSite, Diag, Reason, RestrictOutcome};

use localias_alias::{analyze_with, Backend, FrozenLocs, FxHashSet, FxMap, Loc, State};
use localias_ast::visit::{walk_module, Visitor};
use localias_ast::{FunDef, Module, NodeId, Param, StmtKind};
use localias_effects::{solve_with, Solution};
use localias_obs as obs;

/// The complete result of one module analysis.
#[derive(Debug)]
pub struct Analysis {
    /// The typing/aliasing state (location table with final unifications
    /// and multiplicities, per-expression types, variables, signatures).
    pub state: State,
    /// The least solution (with conditional constraints fired).
    pub solution: Solution,
    /// Free-standing diagnostics (malformed annotations etc.).
    pub diags: Vec<Diag>,
    /// Verdicts on explicit `restrict` annotations.
    pub restricts: Vec<RestrictOutcome>,
    /// Verdicts on §5 `let-or-restrict` candidates (inference mode only).
    pub candidates: Vec<CandidateOutcome>,
    /// Verdicts on `confine` annotations and `confine?` candidates.
    pub confines: Vec<ConfineOutcome>,
    /// The `(Down)`-masked effect-summary variable of each defined
    /// function; resolve through [`Analysis::function_effect`].
    pub fun_effects: FxMap<localias_ast::Symbol, localias_effects::EffVar>,
}

impl Analysis {
    /// The solved effect summary of a defined function: the locations it
    /// may read/write/allocate, as visible to its callers (after the
    /// `(Down)` mask).
    pub fn function_effect(
        &self,
        name: &str,
    ) -> Vec<(localias_alias::Loc, localias_effects::KindMask)> {
        match self.fun_effects.get(name) {
            Some(&v) => self.solution.set(v),
            None => Vec::new(),
        }
    }

    /// Freezes the analysis' abstract-location table into an immutable,
    /// `Sync` [`FrozenLocs`] snapshot (see
    /// [`localias_alias::loc::LocTable::freeze`]).
    ///
    /// After the analysis pipeline completes no further unifications
    /// happen, so the snapshot answers every later `find`/multiplicity/
    /// taint query identically to the live table — with `&self`, from any
    /// thread.
    pub fn freeze(&mut self) -> FrozenLocs {
        self.state.locs.freeze()
    }

    /// The locations the downstream checker consults *by identity*: the
    /// `(ρ, ρ')` pairs of every restrict/candidate/confine outcome, plus
    /// the pointee `ρ_p` of every `restrict` parameter (explicit or
    /// inferred as a restricted candidate). The checker transfers lock
    /// state across scope boundaries and retargets summaries through
    /// these exact keys, so a refining alias backend must leave their
    /// classes untouched — see [`Analysis::freeze_with`].
    pub fn pinned_locs(&self, m: &Module) -> Vec<Loc> {
        let mut pinned = Vec::new();
        let push_pair = |locs: Option<(Loc, Loc)>, pinned: &mut Vec<Loc>| {
            if let Some((a, b)) = locs {
                pinned.push(a);
                pinned.push(b);
            }
        };
        for r in &self.restricts {
            push_pair(r.locs, &mut pinned);
        }
        for c in &self.candidates {
            push_pair(c.locs, &mut pinned);
        }
        for c in &self.confines {
            push_pair(c.locs, &mut pinned);
        }
        // Parameter pointees the checker may retarget through.
        let is_restrict = self.restrict_param();
        for f in m.functions() {
            let Some(vars) = self.state.param_vars(&f.name.name) else {
                continue;
            };
            for (p, var) in f.params.iter().zip(vars) {
                if is_restrict(f, p) {
                    if let Some(l) = var.ty.pointee() {
                        pinned.push(l);
                    }
                }
            }
        }
        pinned
    }

    /// The test of whether a parameter behaves as `restrict`, the one
    /// rule [`Analysis::pinned_locs`] and the lock checker share: the
    /// programmer wrote the qualifier, or parameter-restrict inference
    /// restricted a candidate keyed by the function's node and the
    /// parameter's name.
    pub fn restrict_param(&self) -> impl Fn(&FunDef, &Param) -> bool + '_ {
        let inferred: FxHashSet<(NodeId, &str)> = self
            .candidates
            .iter()
            .filter(|c| c.restricted)
            .map(|c| (c.at, c.name.as_str()))
            .collect();
        move |f: &FunDef, p: &Param| p.restrict || inferred.contains(&(f.id, p.name.name.as_str()))
    }

    /// Freezes the location table through the selected alias [`Backend`].
    ///
    /// [`Backend::Steensgaard`] is the verbatim capture of
    /// [`Analysis::freeze`] (byte-identical snapshot); [`Backend::Andersen`]
    /// refines that capture by splitting unification classes the
    /// inclusion-based points-to analysis proves independent, never
    /// touching classes that hold a [`Analysis::pinned_locs`] key. Only
    /// the refinement reads those keys, so only it computes them.
    pub fn freeze_with(&mut self, backend: Backend, m: &Module) -> FrozenLocs {
        let pinned = match backend {
            Backend::Steensgaard => Vec::new(),
            Backend::Andersen => self.pinned_locs(m),
        };
        backend.freeze(m, &mut self.state, &pinned)
    }

    /// `true` if every explicit annotation checked and the module has no
    /// standard type errors.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
            && self.state.mismatches.is_empty()
            && self.restricts.iter().all(|r| r.ok())
            && self.confines.iter().filter(|c| c.explicit).all(|c| c.ok())
    }
}

/// Runs the full analysis over one module.
pub fn analyze(m: &Module, opts: Options) -> Analysis {
    let _span = obs::span!("core.analyze", obs::Hist::AnalyzeModule);
    obs::count(obs::Counter::ModulesAnalyzed, 1);
    let (mut state, mut gen) = {
        let _s = obs::span!("core.alias");
        let mut hooks = Gen::new(opts);
        hooks.reserve_for(m);
        let (mut state, mut gen) = analyze_with(m, hooks);
        gen.finalize(&mut state);
        (state, gen)
    };
    let solution = {
        let _s = obs::span!("core.solve");
        solve_with(&mut gen.cs, &mut state.locs, &mut gen.loc_vars)
    };
    let _outcomes_span = obs::span!("core.outcomes");
    let (mut diags, restricts, candidates, confines, fun_effects) =
        gen.into_outcomes(&mut state, &solution);
    for d in &mut diags {
        d.span = m.span_of(d.at);
    }
    Analysis {
        state,
        solution,
        diags,
        restricts,
        candidates,
        confines,
        fun_effects,
    }
}

/// Checks a module's explicit annotations (no inference).
pub fn check(m: &Module) -> Analysis {
    analyze(m, Options::default())
}

/// Runs §5 restrict inference: every initialized pointer declaration is a
/// `let-or-restrict`.
pub fn infer_restricts(m: &Module) -> Analysis {
    analyze(
        m,
        Options {
            infer_restrict: true,
            ..Options::default()
        },
    )
}

/// Extension: infers `restrict` qualifiers for unannotated pointer
/// *parameters* (the annotation the paper's Figure 1 asks the programmer
/// to write by hand). Candidate verdicts land in [`Analysis::candidates`]
/// keyed by the function node and parameter name.
pub fn infer_param_restricts(m: &Module) -> Analysis {
    analyze(
        m,
        Options {
            infer_restrict_params: true,
            ..Options::default()
        },
    )
}

/// The result of confine inference: the analysis plus which candidate
/// outcomes were selected (outermost successes per confined expression).
#[derive(Debug)]
pub struct ConfineInference {
    /// The underlying analysis (candidate verdicts are in
    /// [`Analysis::confines`]).
    pub analysis: Analysis,
    /// The proposed candidates, parallel to the non-explicit entries of
    /// `analysis.confines`.
    pub candidates: Vec<ConfineCandidate>,
    /// Indices (into `candidates`) of the outermost successful confines.
    pub chosen: Vec<usize>,
}

/// Runs §6 confine inference with the §7 block heuristic and §6.2
/// outermost-scope selection.
pub fn infer_confines(m: &Module) -> ConfineInference {
    let candidates = {
        let _span = obs::span!("core.propose");
        propose_confines(m)
    };
    infer_confines_from(m, candidates)
}

/// Confine inference with the *general* §7 strategy: per-occurrence
/// candidates let safe sub-regions survive even when the heuristic's
/// min–max range fails (e.g. interleaved critical sections of aliased
/// locks).
pub fn infer_confines_general(m: &Module) -> ConfineInference {
    infer_confines_from(m, heuristic::propose_confines_general(m))
}

fn infer_confines_from(m: &Module, candidates: Vec<ConfineCandidate>) -> ConfineInference {
    let analysis = analyze(
        m,
        Options {
            confine_candidates: &candidates,
            ..Options::default()
        },
    );
    // The first `candidates.len()` confine outcomes correspond 1:1 to the
    // proposed candidates (units are created eagerly in that order).
    let successes: Vec<bool> = analysis.confines[..candidates.len()]
        .iter()
        .map(|c| c.ok())
        .collect();
    let parents = block_parents(m);
    let enclosing = |a: &ConfineCandidate, b: &ConfineCandidate| encloses(&parents, a, b);
    let chosen = select_outermost(&candidates, &successes, &enclosing);
    ConfineInference {
        analysis,
        candidates,
        chosen,
    }
}

/// Lazily computed per-module analyses, shared across experiment modes.
///
/// The §7 experiment measures every module under three lock-checking
/// modes. Two of them (no-confine and all-strong) differ only in how the
/// flow-sensitive checker treats updates — they consume the *same* base
/// analysis — and only confine mode needs the separate
/// [`infer_confines`] run (candidate confines re-type in-scope
/// expressions to fresh `ρ'` locations, which must not leak into the
/// other modes). `SharedAnalysis` memoizes both, so a three-mode sweep
/// runs two analysis pipelines per module instead of three.
///
/// Sharing the base analysis across modes is sound because the checker
/// never mutates it: each mode consumes a frozen location snapshot
/// ([`SharedAnalysis::base_frozen`]/[`SharedAnalysis::confine_frozen`]),
/// which answers resolution queries immutably and never changes which
/// locations are equal.
///
/// The snapshots are Steensgaard captures unless the cache was made
/// with [`SharedAnalysis::new_with_backend`], which the §8 headroom
/// study uses to freeze through [`Backend::Andersen`].
#[derive(Debug)]
pub struct SharedAnalysis<'m> {
    module: &'m Module,
    backend: Backend,
    base: Option<Analysis>,
    confine: Option<ConfineInference>,
    base_frozen: Option<FrozenLocs>,
    confine_frozen: Option<FrozenLocs>,
}

impl<'m> SharedAnalysis<'m> {
    /// Creates an empty cache for `module`; nothing is computed yet.
    pub fn new(module: &'m Module) -> Self {
        Self::new_with_backend(module, Backend::Steensgaard)
    }

    /// Creates an empty cache for `module` freezing through `backend`.
    pub fn new_with_backend(module: &'m Module, backend: Backend) -> Self {
        SharedAnalysis {
            module,
            backend,
            base: None,
            confine: None,
            base_frozen: None,
            confine_frozen: None,
        }
    }

    /// The module under analysis.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The plain checking analysis ([`check`]), computed on first use.
    pub fn base(&mut self) -> &mut Analysis {
        if self.base.is_none() {
            self.base = Some(check(self.module));
        }
        self.base.as_mut().expect("just computed")
    }

    /// The confine-inference result ([`infer_confines`]), computed on
    /// first use.
    pub fn confine(&mut self) -> &mut ConfineInference {
        if self.confine.is_none() {
            self.confine = Some(infer_confines(self.module));
        }
        self.confine.as_mut().expect("just computed")
    }

    /// The base analysis together with its frozen location snapshot —
    /// the `freeze()` step of the pipeline. Both are computed on first
    /// use and memoized; the returned references are immutable, so any
    /// number of checker threads can share them.
    pub fn base_frozen(&mut self) -> (&Analysis, &FrozenLocs) {
        if self.base_frozen.is_none() {
            let (backend, module) = (self.backend, self.module);
            let base = self.base();
            let _span = obs::span!("core.freeze");
            let frozen = base.freeze_with(backend, module);
            self.base_frozen = Some(frozen);
        }
        (
            self.base.as_ref().expect("base computed"),
            self.base_frozen.as_ref().expect("just computed"),
        )
    }

    /// The confine-inference analysis together with its frozen location
    /// snapshot, computed on first use.
    pub fn confine_frozen(&mut self) -> (&Analysis, &FrozenLocs) {
        if self.confine_frozen.is_none() {
            let (backend, module) = (self.backend, self.module);
            let confine = &mut self.confine().analysis;
            let _span = obs::span!("core.freeze");
            let frozen = confine.freeze_with(backend, module);
            self.confine_frozen = Some(frozen);
        }
        (
            &self.confine.as_ref().expect("confine computed").analysis,
            self.confine_frozen.as_ref().expect("just computed"),
        )
    }

    /// Both frozen analyses at once — `(base, confine)` — for callers
    /// that interleave modes over one borrow (e.g. the three-mode check,
    /// which keeps one check context per analysis alive across its three
    /// mode passes). Each separate `base_frozen()` /
    /// `confine_frozen()` call reborrows `&mut self` and so invalidates
    /// the other's references; this forces both memoizations first and
    /// then hands out shared references together.
    pub fn both_frozen(&mut self) -> ((&Analysis, &FrozenLocs), (&Analysis, &FrozenLocs)) {
        self.base_frozen();
        self.confine_frozen();
        (
            (
                self.base.as_ref().expect("base computed"),
                self.base_frozen.as_ref().expect("base frozen"),
            ),
            (
                &self.confine.as_ref().expect("confine computed").analysis,
                self.confine_frozen.as_ref().expect("confine frozen"),
            ),
        )
    }
}

/// Maps each block to `(parent block, index of the containing statement)`.
/// Function bodies have no parent.
pub fn block_parents(m: &Module) -> FxMap<NodeId, (NodeId, usize)> {
    struct P {
        out: FxMap<NodeId, (NodeId, usize)>,
        stack: Vec<(NodeId, usize)>,
    }
    impl Visitor for P {
        fn visit_block(&mut self, b: &localias_ast::Block) {
            if let Some(&(parent, idx)) = self.stack.last() {
                self.out.insert(b.id, (parent, idx));
            }
            for (i, s) in b.stmts.iter().enumerate() {
                self.stack.push((b.id, i));
                self.visit_stmt(s);
                self.stack.pop();
            }
        }
        fn visit_stmt(&mut self, s: &localias_ast::Stmt) {
            match &s.kind {
                StmtKind::Restrict { body, .. }
                | StmtKind::Confine { body, .. }
                | StmtKind::While { body, .. }
                | StmtKind::Block(body) => self.visit_block(body),
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    self.visit_block(then_blk);
                    if let Some(e) = else_blk {
                        self.visit_block(e);
                    }
                }
                _ => {}
            }
        }
    }
    let mut p = P {
        out: FxMap::default(),
        stack: Vec::new(),
    };
    walk_module(&mut p, m);
    p.out
}

/// Does candidate `a` enclose candidate `b` (strictly)?
pub fn encloses(
    parents: &FxMap<NodeId, (NodeId, usize)>,
    a: &ConfineCandidate,
    b: &ConfineCandidate,
) -> bool {
    if a.block == b.block {
        return a.start <= b.start && b.end <= a.end && (a.start, a.end) != (b.start, b.end);
    }
    // Walk b's ancestry looking for a's block.
    let mut cur = b.block;
    while let Some(&(parent, idx)) = parents.get(&cur) {
        if parent == a.block {
            return a.start <= idx && idx <= a.end;
        }
        cur = parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_alias::loc::Multiplicity;
    use localias_alias::Ty;
    use localias_ast::parse_module;
    use localias_ast::visit::{walk_expr, walk_module as wm};
    use localias_ast::{Expr, ExprKind};

    fn parse(src: &str) -> Module {
        parse_module("test", src).expect("parse")
    }

    /// The first argument's node id of call expression `call`.
    fn find_first_arg(m: &Module, call: NodeId) -> NodeId {
        struct F {
            call: NodeId,
            found: Option<NodeId>,
        }
        impl Visitor for F {
            fn visit_expr(&mut self, e: &Expr) {
                if e.id == self.call {
                    if let ExprKind::Call(_, args) = &e.kind {
                        self.found = Some(args[0].id);
                    }
                }
                walk_expr(self, e);
            }
        }
        let mut f = F { call, found: None };
        wm(&mut f, m);
        f.found.expect("call args")
    }

    /// First expression matching `pred`, by a fresh walk.
    fn find_expr(m: &Module, pred: impl Fn(&Expr) -> bool) -> NodeId {
        struct F<P> {
            pred: P,
            found: Option<NodeId>,
        }
        impl<P: Fn(&Expr) -> bool> Visitor for F<P> {
            fn visit_expr(&mut self, e: &Expr) {
                if self.found.is_none() && (self.pred)(e) {
                    self.found = Some(e.id);
                }
                walk_expr(self, e);
            }
        }
        let mut f = F { pred, found: None };
        wm(&mut f, m);
        f.found.expect("expr")
    }

    // ---- Checking ---------------------------------------------------------

    #[test]
    fn figure1_restrict_param_checks() {
        let m = parse(
            r#"
            lock locks[8];
            extern void work();
            void do_with_lock(lock *restrict l) {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
            void foo(int i) { do_with_lock(&locks[i]); }
            "#,
        );
        let a = check(&m);
        assert_eq!(a.restricts.len(), 1);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
        assert!(a.clean());
    }

    #[test]
    fn deref_of_alias_in_scope_fails() {
        // The paper's §2 first example: *q is invalid inside p's restrict.
        let m = parse("void f(int *q) { restrict p = q { *p = 1; *q = 2; } }");
        let a = check(&m);
        assert_eq!(a.restricts.len(), 1);
        assert!(a.restricts[0].reasons.contains(&Reason::AliasAccessed));
    }

    #[test]
    fn deref_of_alias_after_scope_is_fine() {
        let m = parse("void f(int *q) { restrict p = q { *p = 1; } *q = 2; }");
        let a = check(&m);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
    }

    #[test]
    fn local_copies_are_allowed() {
        // §2: copies of the restricted pointer may be used inside.
        let m = parse("void f(int *q) { restrict p = q { int *r = p; *r = 1; } }");
        let a = check(&m);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
    }

    #[test]
    fn escaping_copy_fails() {
        // §2: `x = p` lets a copy escape.
        let m = parse(
            r#"
            int *x;
            void f(int *q) { restrict p = q { x = p; } }
            "#,
        );
        let a = check(&m);
        assert!(
            a.restricts[0].reasons.contains(&Reason::Escapes),
            "{:?}",
            a.restricts[0]
        );
    }

    #[test]
    fn rebinding_in_inner_scope_works() {
        // §2: restrict r = p inside restrict p's scope; *r valid, *p
        // invalid inside, valid outside.
        let valid =
            parse("void f(int *q) { restrict p = q { restrict r = p { *r = 1; } *p = 2; } }");
        let a = check(&valid);
        assert!(a.restricts.iter().all(|r| r.ok()), "{:?}", a.restricts);

        let invalid =
            parse("void f(int *q) { restrict p = q { restrict r = p { *r = 1; *p = 2; } } }");
        let a = check(&invalid);
        // The inner restrict (of p's location) is violated by *p.
        assert!(
            a.restricts
                .iter()
                .any(|r| r.reasons.contains(&Reason::AliasAccessed)),
            "{:?}",
            a.restricts
        );
    }

    #[test]
    fn double_restrict_of_same_location_fails() {
        // §3's "sneaky program": restricting the same location twice in
        // nested scopes with both names used.
        let m = parse("void f(int *x) { restrict y = x { restrict z = x { *y = 1; *z = 2; } } }");
        let a = check(&m);
        assert!(
            a.restricts.iter().any(|r| !r.ok()),
            "nested double restrict must fail: {:?}",
            a.restricts
        );
    }

    #[test]
    fn restrict_through_function_call_fails() {
        // Accessing the restricted location through a global alias inside
        // a called function is still an access in the scope.
        let m = parse(
            r#"
            int g;
            void touch() { g = 1; }
            void f() {
                int *q = &g;
                restrict p = q { touch(); *p = 2; }
            }
            "#,
        );
        let a = check(&m);
        assert!(
            a.restricts[0].reasons.contains(&Reason::AliasAccessed),
            "call effects must count: {:?}",
            a.restricts[0]
        );
    }

    #[test]
    fn unrelated_function_call_is_fine() {
        let m = parse(
            r#"
            int g;
            int h;
            void touch() { h = 1; }
            void f() {
                int *q = &g;
                restrict p = q { touch(); *p = 2; }
            }
            "#,
        );
        let a = check(&m);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
    }

    #[test]
    fn down_masks_temporaries() {
        // The callee's effect on its own temporaries must not leak into
        // callers ((Down) at the function boundary), or g's restrict
        // would spuriously fail.
        let m = parse(
            r#"
            int g;
            void tmp() { int *t = new 0; *t = 1; }
            void f() {
                int *q = &g;
                restrict p = q { tmp(); *p = 2; }
            }
            "#,
        );
        let a = check(&m);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
    }

    #[test]
    fn restrict_decl_scope_is_rest_of_block() {
        let m = parse("void f(int *q) { restrict int *p = q; *p = 1; *q = 2; }");
        let a = check(&m);
        assert!(
            a.restricts[0].reasons.contains(&Reason::AliasAccessed),
            "{:?}",
            a.restricts[0]
        );

        let m = parse("void f(int *q) { *q = 2; restrict int *p = q; *p = 1; }");
        let a = check(&m);
        assert!(a.restricts[0].ok(), "uses before the decl don't count");
    }

    #[test]
    fn restrict_of_non_pointer_is_diagnosed() {
        let m = parse("void f(int x) { restrict p = x { p; } }");
        let a = check(&m);
        assert!(!a.diags.is_empty());
    }

    // ---- Restrict inference (§5) -------------------------------------------

    #[test]
    fn candidate_without_alias_use_is_restricted() {
        let m = parse("void f(int *q) { int *p = q; *p = 1; }");
        let a = infer_restricts(&m);
        assert_eq!(a.candidates.len(), 1);
        assert!(a.candidates[0].restricted, "{:?}", a.candidates);
    }

    #[test]
    fn candidate_with_alias_use_is_let() {
        let m = parse("void f(int *q) { int *p = q; *p = 1; *q = 2; }");
        let a = infer_restricts(&m);
        assert_eq!(a.candidates.len(), 1);
        assert!(!a.candidates[0].restricted, "{:?}", a.candidates);
    }

    #[test]
    fn candidate_that_escapes_is_let() {
        let m = parse(
            r#"
            int *g;
            void f(int *q) { int *p = q; g = p; }
            "#,
        );
        let a = infer_restricts(&m);
        assert!(!a.candidates[0].restricted, "{:?}", a.candidates);
    }

    #[test]
    fn inference_is_maximal() {
        // Two independent candidates: both can be restricts.
        let m = parse(
            r#"
            void f(int *q, int *r) {
                int *a = q;
                int *b = r;
                *a = 1;
                *b = 2;
            }
            "#,
        );
        let a = infer_restricts(&m);
        assert_eq!(a.candidates.len(), 2);
        assert!(
            a.candidates.iter().all(|c| c.restricted),
            "{:?}",
            a.candidates
        );
    }

    #[test]
    fn chained_aliases_demote_together() {
        // b = a's value; using *b and *q in b's scope demotes both a and
        // b (they are the same location as q).
        let m = parse(
            r#"
            void f(int *q) {
                int *a = q;
                int *b = a;
                *b = 1;
                *q = 2;
            }
            "#,
        );
        let a = infer_restricts(&m);
        assert!(
            a.candidates.iter().all(|c| !c.restricted),
            "{:?}",
            a.candidates
        );
    }

    // ---- Confine (§6) -------------------------------------------------------

    #[test]
    fn explicit_confine_checks_and_enables_strong_updates() {
        let m = parse(
            r#"
            lock locks[4];
            extern void work();
            void f(int i) {
                confine (&locks[i]) {
                    spin_lock(&locks[i]);
                    work();
                    spin_unlock(&locks[i]);
                }
            }
            "#,
        );
        let mut a = check(&m);
        let explicit: Vec<_> = a.confines.iter().filter(|c| c.explicit).cloned().collect();
        assert_eq!(explicit.len(), 1);
        assert!(explicit[0].ok(), "{:?}", explicit[0]);

        // The spin_lock argument inside the scope is re-typed to the
        // fresh ρ' of multiplicity One — i.e., strongly updatable.
        let arg = find_expr(
            &m,
            |e| matches!(&e.kind, ExprKind::Call(f, _) if f.name == "spin_lock"),
        );
        let arg = find_first_arg(&m, arg);
        match a.state.expr_ty[arg.index()].clone() {
            Some(Ty::Ref(l)) => {
                assert_eq!(a.state.locs.multiplicity(l), Multiplicity::One);
            }
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn confine_with_alias_access_fails() {
        let m = parse(
            r#"
            lock locks[4];
            void f(int i, int j) {
                confine (&locks[i]) {
                    spin_lock(&locks[i]);
                    spin_unlock(&locks[j]);
                }
            }
            "#,
        );
        let a = check(&m);
        let explicit: Vec<_> = a.confines.iter().filter(|c| c.explicit).collect();
        assert!(
            explicit[0].reasons.contains(&Reason::AliasAccessed),
            "{:?}",
            explicit[0]
        );
    }

    #[test]
    fn confine_with_reassigned_index_fails() {
        let m = parse(
            r#"
            lock locks[4];
            void f(int i) {
                confine (&locks[i]) {
                    spin_lock(&locks[i]);
                    i = i + 1;
                    spin_unlock(&locks[i]);
                }
            }
            "#,
        );
        let a = check(&m);
        let explicit: Vec<_> = a.confines.iter().filter(|c| c.explicit).collect();
        assert!(
            explicit[0].reasons.contains(&Reason::RegisterReassigned),
            "{:?}",
            explicit[0]
        );
    }

    #[test]
    fn confine_inference_recovers_figure1_without_annotations() {
        let m = parse(
            r#"
            lock locks[4];
            extern void work();
            void f(int i) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
            "#,
        );
        let inf = infer_confines(&m);
        assert!(!inf.chosen.is_empty(), "{:?}", inf.analysis.confines);
        // The chosen candidate enables a strong update at the lock sites.
        let mut a = inf.analysis;
        let arg = find_expr(
            &m,
            |e| matches!(&e.kind, ExprKind::Call(f, _) if f.name == "spin_lock"),
        );
        let arg = find_first_arg(&m, arg);
        match a.state.expr_ty[arg.index()].clone() {
            Some(Ty::Ref(l)) => {
                assert_eq!(a.state.locs.multiplicity(l), Multiplicity::One);
            }
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn confine_inference_rejects_cross_element_access() {
        let m = parse(
            r#"
            lock locks[4];
            extern void work();
            void f(int i, int j) {
                spin_lock(&locks[i]);
                spin_lock(&locks[j]);
                spin_unlock(&locks[j]);
                spin_unlock(&locks[i]);
            }
            "#,
        );
        let inf = infer_confines(&m);
        // &locks[i] and &locks[j] share one abstract location. The outer
        // (i) region contains j's accesses and must fail; the inner (j)
        // region contains no stale-alias access and is confinable.
        let chosen_keys: Vec<&str> = inf
            .chosen
            .iter()
            .map(|&k| inf.candidates[k].key.as_str())
            .collect();
        assert!(
            !chosen_keys.contains(&"&(locks[i])"),
            "outer region must fail: {:?}",
            inf.analysis.confines
        );
        assert!(
            chosen_keys.contains(&"&(locks[j])"),
            "inner region is sound: {:?}",
            inf.analysis.confines
        );
    }

    #[test]
    fn confine_inference_picks_outermost_scope() {
        let m = parse(
            r#"
            lock mu;
            extern void work();
            void f(int c) {
                if (c) {
                    spin_lock(&mu);
                    work();
                    spin_unlock(&mu);
                }
            }
            "#,
        );
        let inf = infer_confines(&m);
        assert_eq!(inf.chosen.len(), 1, "{:?}", inf.analysis.confines);
        let chosen = &inf.candidates[inf.chosen[0]];
        let f = m.function("f").unwrap();
        assert_eq!(
            chosen.block, f.body.id,
            "outermost (function-body) scope must win: {chosen:?}"
        );
    }

    #[test]
    fn confine_inference_handles_struct_locks() {
        let m = parse(
            r#"
            struct dev { lock mu; int n; };
            struct dev devs[8];
            extern void work();
            void f(int i) {
                struct dev *d = &devs[i];
                spin_lock(&d->mu);
                d->n = d->n + 1;
                spin_unlock(&d->mu);
            }
            "#,
        );
        let inf = infer_confines(&m);
        assert!(
            !inf.chosen.is_empty(),
            "&d->mu should be confinable: {:?}",
            inf.analysis.confines
        );
    }

    #[test]
    fn confine_inference_rejects_write_to_read_input() {
        // The confined expression *q reads pp's storage (address-taken);
        // the scope writes it — not referentially transparent.
        let m = parse(
            r#"
            lock a;
            lock b;
            void f() {
                lock *pp = &a;
                lock **q = &pp;
                spin_lock(*q);
                pp = &b;
                spin_unlock(*q);
            }
            "#,
        );
        let inf = infer_confines(&m);
        assert!(
            inf.chosen.is_empty(),
            "writing pp must block confining *q: {:?}",
            inf.analysis.confines
        );
    }

    #[test]
    fn cast_taints_and_blocks_confine() {
        let m = parse(
            r#"
            lock locks[4];
            int sink;
            void f(int i) {
                sink = (int) (&locks[i]);
                spin_lock(&locks[i]);
                spin_unlock(&locks[i]);
            }
            "#,
        );
        let inf = infer_confines(&m);
        assert!(
            inf.chosen.is_empty(),
            "tainted locations must not confine: {:?}",
            inf.analysis.confines
        );
    }

    // ---- Interprocedural shape ---------------------------------------------

    #[test]
    fn restrict_param_isolates_callers() {
        // Two callers with different lock elements; the restrict
        // parameter still checks because accesses go through ρ'.
        let m = parse(
            r#"
            lock locks[8];
            lock other[8];
            void with(lock *restrict l) { spin_lock(l); spin_unlock(l); }
            void a(int i) { with(&locks[i]); }
            void b(int i) { with(&other[i]); }
            "#,
        );
        let a = check(&m);
        assert!(a.restricts[0].ok(), "{:?}", a.restricts[0]);
    }

    #[test]
    fn block_parents_and_encloses() {
        let m = parse(
            r#"
            lock mu;
            void f(int c) { if (c) { spin_lock(&mu); spin_unlock(&mu); } }
            "#,
        );
        let parents = block_parents(&m);
        let f = m.function("f").unwrap();
        // One inner block (the if-then) whose parent is the body.
        assert!(parents.values().any(|&(p, i)| p == f.body.id && i == 0));
    }

    // ---- (Down) ablation -----------------------------------------------------

    #[test]
    fn down_masks_callee_local_effects_from_summaries() {
        // §3.1: "e may have subexpressions that allocate temporary
        // storage and have effects on that storage" — (Down) removes
        // those from the function's visible effect. The ablation switch
        // shows exactly what leaks without it.
        let m = parse(
            r#"
            int g;
            void tmp() {
                int *t = new (0);
                *t = 1;
            }
            void toucher() { g = 2; }
            "#,
        );
        let with_down = analyze(&m, Options::default());
        assert!(
            with_down.function_effect("tmp").is_empty(),
            "tmp's effects are all on dead temporaries: {:?}",
            with_down.function_effect("tmp")
        );
        assert_eq!(
            with_down.function_effect("toucher").len(),
            1,
            "the global write is visible"
        );

        let without_down = analyze(
            &m,
            Options {
                apply_down: false,
                ..Options::default()
            },
        );
        assert!(
            !without_down.function_effect("tmp").is_empty(),
            "ablation: the temporary's alloc/write leaks into the summary"
        );
    }

    #[test]
    fn recursive_functions_keep_compact_summaries_with_down() {
        // The paper: without effect removal, extra locations accumulate
        // through recursive calls. Each recursion level allocates a
        // temporary; (Down) keeps the summary to just the visible part.
        let m = parse(
            r#"
            int g;
            void walk(int n) {
                if (n > 0) {
                    int *frame = new (n);
                    *frame = n;
                    g = *frame;
                    walk(n - 1);
                }
            }
            "#,
        );
        let with_down = analyze(&m, Options::default());
        let masked = with_down.function_effect("walk");
        assert_eq!(masked.len(), 1, "only the write to g survives: {masked:?}");

        let without_down = analyze(
            &m,
            Options {
                apply_down: false,
                ..Options::default()
            },
        );
        let leaked = without_down.function_effect("walk");
        assert!(
            leaked.len() > masked.len(),
            "ablation: frame's location pollutes the recursive summary: {leaked:?}"
        );
    }

    // ---- Parameter restrict inference (extension) -----------------------------

    #[test]
    fn figure1_param_restrict_is_inferred() {
        // The annotation the paper adds by hand is inferable: inside
        // do_with_lock, l is the sole access path to its referent.
        let m = parse(
            r#"
            lock locks[8];
            extern void work();
            void do_with_lock(lock *l) {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
            void foo(int i) { do_with_lock(&locks[i]); }
            "#,
        );
        let a = infer_param_restricts(&m);
        let l = a
            .candidates
            .iter()
            .find(|c| c.name == "l")
            .expect("candidate for l");
        assert!(l.restricted, "{:?}", a.candidates);
    }

    #[test]
    fn param_with_global_alias_access_stays_unrestricted() {
        // The callee also reaches the lock array through a global index:
        // l is not the sole access path.
        let m = parse(
            r#"
            lock locks[8];
            int hot;
            void bad(lock *l) {
                spin_lock(l);
                spin_unlock(&locks[hot]);
            }
            void foo(int i) { bad(&locks[i]); }
            "#,
        );
        let a = infer_param_restricts(&m);
        let l = a
            .candidates
            .iter()
            .find(|c| c.name == "l")
            .expect("candidate for l");
        assert!(!l.restricted, "{:?}", a.candidates);
    }

    #[test]
    fn escaping_param_stays_unrestricted() {
        let m = parse(
            r#"
            lock *stash;
            void keep(lock *l) { stash = l; }
            "#,
        );
        let a = infer_param_restricts(&m);
        let l = a
            .candidates
            .iter()
            .find(|c| c.name == "l")
            .expect("candidate for l");
        assert!(!l.restricted, "escape must demote: {:?}", a.candidates);
    }

    #[test]
    fn non_pointer_params_are_not_candidates() {
        let m = parse("void f(int x, int *p) { *p = x; }");
        let a = infer_param_restricts(&m);
        assert_eq!(a.candidates.len(), 1);
        assert_eq!(a.candidates[0].name, "p");
        assert!(a.candidates[0].restricted);
    }

    /// Two locks only conflated by Steensgaard's flow-insensitivity:
    /// `g` merges their classes through pointer assignments, while every
    /// lock operation in `f` consults them independently.
    const SPLITTABLE: &str = r#"
        lock a;
        lock b;
        extern void work();
        void f() {
            spin_lock(&a); work(); spin_unlock(&a);
            spin_lock(&b); work(); spin_unlock(&b);
        }
        void g() {
            lock *x;
            lock *y;
            x = &a;
            y = &b;
            x = y;
        }
    "#;

    #[test]
    fn freeze_with_steensgaard_is_identical_to_freeze() {
        let m = parse(SPLITTABLE);
        let mut a = check(&m);
        let plain = a.freeze();
        let via_backend = a.freeze_with(Backend::Steensgaard, &m);
        assert_eq!(plain, via_backend);
    }

    #[test]
    fn freeze_with_andersen_refines_conflated_locks() {
        let m = parse(SPLITTABLE);
        let mut a = check(&m);
        let coarse = a.freeze();
        let la = loc_of_global(&a, "a");
        let lb = loc_of_global(&a, "b");
        assert!(coarse.same(la, lb), "Steensgaard conflates a and b");
        assert!(!coarse.strong_updatable(la));
        let fine = a.freeze_with(Backend::Andersen, &m);
        assert!(!fine.same(la, lb), "Andersen splits a from b");
        assert!(fine.strong_updatable(fine.find(la)));
        assert!(fine.strong_updatable(fine.find(lb)));
    }

    #[test]
    fn pinned_locs_cover_outcomes_and_restrict_params() {
        let m = parse(
            r#"
            lock locks[8];
            extern void work();
            void do_with_lock(lock *restrict l) {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
            void foo(int i) { do_with_lock(&locks[i]); }
            "#,
        );
        let a = check(&m);
        let pinned = a.pinned_locs(&m);
        assert!(!pinned.is_empty());
        for r in &a.restricts {
            let (rho, rho_p) = r.locs.expect("checked restrict has locs");
            assert!(pinned.contains(&rho));
            assert!(pinned.contains(&rho_p));
        }
    }

    #[test]
    fn shared_analysis_freezes_through_andersen() {
        // Confine mode runs end-to-end under Andersen.
        let m = parse(SPLITTABLE);
        let mut shared = SharedAnalysis::new_with_backend(&m, Backend::Andersen);
        let ((_, bf), (_, cf)) = shared.both_frozen();
        assert!(!bf.is_empty());
        assert!(!cf.is_empty());
    }

    /// The canonical location of global `name` in `a`'s state.
    fn loc_of_global(a: &Analysis, name: &str) -> Loc {
        a.state
            .vars
            .iter()
            .find_map(|v| match (v.name == name && v.fun.is_none(), &v.kind) {
                (true, localias_alias::VarKind::Addressed(l)) => Some(*l),
                _ => None,
            })
            .expect("global location")
    }
}
