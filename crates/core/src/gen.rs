//! Constraint generation: the paper's Figure 3 rules, §5 `let-or-restrict`
//! inference, and §6 `confine?` inference, implemented as [`Hooks`] over
//! the shared typing walk of `localias-alias`.
//!
//! ## Scope frames and effects
//!
//! Reads/writes/allocs are included into the innermost frame's effect
//! variable, and a frame's effect flows into its parent when it is
//! popped. A frame gets a variable of its own only where a constraint
//! reads it. A statement gets a frame only when a statement-range
//! registration covers it (a `confine?` candidate's range, or the rest
//! of the block after a declaration binding a restrict or a §5
//! candidate), because only then does an `L2` read its effect; any other
//! statement's effects go straight into its scope's variable. A plain
//! block shares its parent's variable, while restrict and confine bodies
//! keep their own for their `L2`. Function frames are the exception:
//! their raw body effect is *masked* by the `(Down)` rule — intersected
//! with the locations visible through globals and the function's own
//! signature — before becoming the function's effect summary, which call
//! sites then include. This is exactly the paper's §3.1 observation that
//! `(Down)` is only profitably applied at function boundaries.
//!
//! ## Environments
//!
//! `ε_Γ` is maintained incrementally (the paper's §4 memoization): each
//! binder allocates a fresh environment variable that includes the old
//! one plus the `ε_τ` chain of the bound type. The `ε_τ` chains
//! themselves (one variable per abstract location, containing its
//! `Mention` atom plus the chains of everything reachable from its
//! content type) are emitted *after* the walk, over the final unified
//! location structure, by [`Gen::finalize`].
//!
//! ## Restrict
//!
//! A `restrict` binder gives its name a fresh location `ρ'` sharing the
//! original `ρ`'s content. Checking emits `ρ ∉ L2` and `ρ' ∉
//! locs(Γ, τ1, τ_ret)` as checked disinclusions plus the `{ρ}`
//! restriction effect; inference replaces them with the §5 conditional
//! constraints whose firing demotes the candidate (unifies `ρ = ρ'`).
//!
//! ## Confine
//!
//! `confine` candidates watch for syntactic occurrences of their
//! expression inside their scope. The first occurrence is evaluated
//! normally with its effect captured (that is `L1`); every occurrence is
//! then re-typed to `ref ρ'(τ1)` with effect `p'` — the translation
//! `confine e1 in e2[e1/x] = restrict x = e1 in e2` performed without
//! rewriting the AST. Referential transparency adds the §6.1 guards: `L1`
//! must be write/alloc-free, and nothing `L1` reads may be written or
//! allocated in `L2`.

use crate::heuristic::ConfineCandidate;
use crate::outcome::{
    CandidateOutcome, ConfineOutcome, ConfineSite, Diag, Reason, RestrictOutcome,
};
use localias_alias::{BindSite, FxMap, FxSet, Hooks, Loc, ScopeKind, State, Ty, VarId, VarKind};
use localias_ast::visit::{walk_expr, Visitor};
use localias_ast::{pretty, Block, Expr, ExprKind, NodeId, Span, Symbol};
use localias_effects::{
    ConstraintSystem, EffVar, Effect, EffectKind, FlagId, Guard, KindMask, LocVars,
};
use std::borrow::Cow;

/// What to generate beyond plain checking.
#[derive(Debug)]
pub struct Options<'a> {
    /// Treat every initialized pointer declaration as a §5
    /// `let-or-restrict` candidate.
    pub infer_restrict: bool,
    /// `confine?` candidates (typically from
    /// [`crate::heuristic::propose_confines`]), borrowed for the whole
    /// analysis.
    pub confine_candidates: &'a [ConfineCandidate],
    /// Treat every unannotated pointer parameter as a restrict candidate
    /// — the natural extension of §5 to function boundaries, inferring
    /// the annotation Figure 1 asks the programmer to write.
    pub infer_restrict_params: bool,
    /// Apply the `(Down)` rule at function boundaries (§3.1). On by
    /// default; turning it off is an *ablation* switch that demonstrates
    /// why the rule exists — without it, effects on callee-local
    /// temporaries leak into callers and restrict checking fails
    /// spuriously (and recursive functions over-unify).
    pub apply_down: bool,
}

impl Default for Options<'_> {
    fn default() -> Self {
        Options {
            infer_restrict: false,
            confine_candidates: &[],
            infer_restrict_params: false,
            apply_down: true,
        }
    }
}

/// Why a frame exists.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FrameKind {
    /// Top level.
    Module,
    /// A function body; carries the function name.
    Fun(Symbol),
    /// A block, restrict body or confine body scope. A plain block's
    /// frame shares its parent's effect variable.
    Scope,
    /// One statement of a block that a range registration covers.
    Stmt { block: NodeId },
    /// Captures the effect of evaluating a confined expression (`L1`).
    Capture,
}

#[derive(Debug)]
struct Frame {
    kind: FrameKind,
    eff: EffVar,
    /// Current `ε_Γ` for real scopes; `None` for stmt/capture frames.
    gamma: Option<EffVar>,
}

/// Per-function effect summary variables.
#[derive(Debug, Clone, Copy)]
struct FunEff {
    /// Unmasked body effect.
    raw: EffVar,
    /// `(Down)`-masked summary included at call sites.
    summary: EffVar,
}

/// A pending `restrict`/candidate binder between `bind_ty` and `on_bind`.
#[derive(Debug)]
struct PendingBind {
    rho: Loc,
    rho_p: Loc,
    gamma_pre: EffVar,
    explicit: bool,
}

/// State of one confine unit (explicit annotation or `confine?`
/// candidate). A candidate's expression and text are borrowed from it.
#[derive(Debug)]
struct Unit<'a> {
    site: ConfineSite,
    /// The confined expression; its occurrences are the expressions
    /// syntactically equal to it.
    expr: Cow<'a, Expr>,
    /// The expression printed once, for [`ConfineOutcome::expr`].
    text: Cow<'a, str>,
    /// Leftmost identifier of the expression (interception pre-filter).
    root: Option<Symbol>,
    explicit: bool,
    fun: Option<Symbol>,
    /// The scope effect `L2`.
    l2: EffVar,
    /// `ε_Γ` snapshot at the confine point.
    gamma: EffVar,
    /// Enclosing effect the confine's own effects flow into.
    parent_eff: EffVar,
    /// Carries the confine's own restriction effect `{ρ}`: flows into
    /// the parent effect and into the `L2` of every *sibling* scope, but
    /// not into this unit's own `L2` (the `{ρ}` of the (Restrict)
    /// conclusion is outside `e2`).
    xeff: EffVar,
    /// Demotion flag (candidates) — set means "could not confine".
    demoted: FlagId,
    /// Reason flags: the first flag and the reason of each consecutive
    /// flag from it; a set flag reports its reason.
    reason_flags: (FlagId, &'static [Reason]),
    /// Reasons known before solving (shape, taint, ...).
    pre_reasons: Vec<Reason>,
    /// Filled at materialization.
    mat: Option<Mat>,
    /// `true` once the unit cannot proceed (bad shape / not a pointer).
    aborted: bool,
}

#[derive(Debug)]
struct Mat {
    rho: Loc,
    rho_p: Loc,
    /// The occurrence-effect variable `p'`.
    p_var: EffVar,
}

/// A statement-range registration: statement effects of `block` with
/// index in `start..=end` flow into `l2`.
#[derive(Debug, Clone, Copy)]
struct RangeReg {
    start: usize,
    end: usize,
    l2: EffVar,
    /// The owning unit's restriction-effect variable, if the registration
    /// belongs to a confine unit (None for plain declaration scopes,
    /// whose restriction effect flows into their statement's effect,
    /// which every covering `L2` already reads).
    xeff: Option<EffVar>,
}

/// A block being walked.
#[derive(Debug, Clone, Copy)]
struct WalkedBlock {
    /// The index of its statement being walked.
    stmt: usize,
    /// Where its registrations start in [`Gen::range_regs`].
    regs: usize,
}

/// Marks an activated entry of [`Gen::pending_ranges`].
const NO_UNIT: usize = usize::MAX;

/// The reasons of a `confine?` candidate's four demotion guards, in the
/// order [`Gen::materialize`] wires them.
const INFERENCE_REASONS: &[Reason] = &[
    Reason::AliasAccessed,
    Reason::Escapes,
    Reason::ConfinedExprHasSideEffect,
    Reason::ScopeWritesConfinedInput,
];

/// The reasons of an explicit confine's two referential-transparency
/// flags, in wiring order.
const EXPLICIT_REASONS: &[Reason] = &[
    Reason::ConfinedExprHasSideEffect,
    Reason::ScopeWritesConfinedInput,
];

/// Leftmost identifier of an expression (the cheap signature the
/// interception pre-filter keys on).
fn root_of(e: &Expr) -> Option<&Symbol> {
    match &e.kind {
        ExprKind::Var(x) => Some(&x.name),
        ExprKind::Unary(_, i) | ExprKind::New(i) | ExprKind::Cast(_, i) => root_of(i),
        ExprKind::Field(b, _) | ExprKind::Arrow(b, _) | ExprKind::Index(b, _) => root_of(b),
        ExprKind::Binary(_, a, _) | ExprKind::Assign(a, _) => root_of(a),
        ExprKind::Int(_) | ExprKind::Call(_, _) => None,
    }
}

/// The pieces a restrict binder's constraints are wired from.
#[derive(Debug, Clone, Copy)]
struct RestrictWiring {
    /// The original location `ρ`.
    rho: Loc,
    /// The fresh scope-local `ρ'`.
    rho_p: Loc,
    /// `ε_Γ` before the binding (the escape check's environment).
    gamma_pre: EffVar,
    /// The scope effect `L2`.
    l2: EffVar,
    /// Where the restriction's own `{ρ}` effect flows.
    parent_eff: EffVar,
}

/// Which outcome a checked disinclusion tag belongs to.
#[derive(Debug, Clone, Copy)]
enum TagTarget {
    Restrict(usize),
    Confine(usize),
}

/// The constraint generator. Implements [`Hooks`]; drive it with
/// [`localias_alias::analyze_with`] and then [`Gen::finalize`].
#[derive(Debug)]
pub struct Gen<'a> {
    /// The constraint system under construction.
    pub cs: ConstraintSystem,
    /// Memoized per-location `ε_ρ` variables.
    pub loc_vars: LocVars,
    opts: Options<'a>,
    frames: Vec<Frame>,
    gamma_globals: EffVar,
    /// Per-function effect variables, iterated by
    /// [`Gen::into_outcomes`].
    fun_effs: FxMap<Symbol, FunEff>,
    /// Per-struct `ε` variables, iterated by [`Gen::finalize`].
    struct_eps: FxMap<Symbol, EffVar>,
    pending_bind: Option<PendingBind>,
    pending_confine_stmt: Vec<NodeId>,
    /// Explicit confine units awaiting their body scope, by stmt id.
    pending_body: FxMap<NodeId, usize>,
    units: Vec<Unit<'a>>,
    /// Active unit indices in activation order (outermost first).
    active: Vec<usize>,
    /// Reference counts of the leftmost identifiers of active units'
    /// expressions — a cheap pre-filter so interception compares only
    /// expressions that could match.
    active_roots: FxMap<Symbol, usize>,
    /// Range registrations (confine? candidates and decl scopes) of the
    /// blocks being walked. A block registers ranges only while it is the
    /// innermost block walked, so its registrations are the run from its
    /// [`WalkedBlock::regs`] to the end, dropped when the block ends.
    range_regs: Vec<RangeReg>,
    /// Confine? candidates waiting to activate as `(block, start, unit)`,
    /// sorted by site and, per site, widest range first (ties in unit
    /// order) so the occurrence-interception stack reflects lexical
    /// nesting. `unit` becomes [`NO_UNIT`] once activated.
    pending_ranges: Vec<(NodeId, usize, usize)>,
    /// Stack of in-flight first-occurrence evaluations.
    awaiting: Vec<(NodeId, usize)>,
    /// The blocks being walked, innermost last.
    blocks: Vec<WalkedBlock>,
    /// Tag bookkeeping for checked disinclusions.
    tag_targets: Vec<(TagTarget, Reason)>,
    /// Outcome accumulators.
    pub diags: Vec<Diag>,
    restrict_outcomes: Vec<RestrictOutcome>,
    candidate_flags: Vec<(CandidateOutcome, FlagId)>,
    /// Failed explicit annotations whose `ρ'` must lose its
    /// strong-update eligibility after solving.
    mult_fixups: Vec<(usize, Loc)>,
}

impl<'a> Gen<'a> {
    /// Creates a generator for a module analysis with the given options.
    pub fn new(opts: Options<'a>) -> Self {
        let mut cs = ConstraintSystem::new();
        // A materialized candidate wires seven conditionals.
        cs.reserve_conditionals(7 * opts.confine_candidates.len());
        let gamma_globals = cs.fresh_var();
        let module_eff = cs.fresh_var();
        let mut pending_ranges = Vec::with_capacity(opts.confine_candidates.len());
        let mut units = Vec::with_capacity(opts.confine_candidates.len());
        for (i, cand) in opts.confine_candidates.iter().enumerate() {
            pending_ranges.push((cand.block, cand.start, i));
            // Units are created eagerly so indices line up with
            // `opts.confine_candidates`; variables are cheap.
            let l2 = cs.fresh_var();
            let xeff = cs.fresh_var();
            let demoted = cs.fresh_flag();
            let root = root_of(&cand.expr).cloned();
            units.push(Unit {
                site: cand.site(),
                expr: Cow::Borrowed(&cand.expr),
                text: Cow::Borrowed(&cand.key),
                root,
                explicit: false,
                fun: None,
                l2,
                gamma: gamma_globals,   // overwritten at activation
                parent_eff: module_eff, // overwritten at activation
                xeff,
                demoted,
                reason_flags: (demoted, &[]),
                pre_reasons: Vec::new(),
                mat: None,
                aborted: false,
            });
        }
        let cands = opts.confine_candidates;
        pending_ranges.sort_unstable_by_key(|&(block, start, i)| {
            (block, start, std::cmp::Reverse(cands[i].end - start), i)
        });
        Gen {
            cs,
            loc_vars: LocVars::new(),
            opts,
            frames: vec![Frame {
                kind: FrameKind::Module,
                eff: module_eff,
                gamma: Some(gamma_globals),
            }],
            gamma_globals,
            fun_effs: FxMap::default(),
            struct_eps: FxMap::default(),
            pending_bind: None,
            pending_confine_stmt: Vec::new(),
            pending_body: FxMap::default(),
            units,
            active: Vec::new(),
            active_roots: FxMap::default(),
            range_regs: Vec::new(),
            pending_ranges,
            awaiting: Vec::new(),
            blocks: Vec::new(),
            tag_targets: Vec::new(),
            diags: Vec::new(),
            restrict_outcomes: Vec::new(),
            candidate_flags: Vec::new(),
            mult_fixups: Vec::new(),
        }
    }

    /// Sizes the constraint system and the per-location and per-function
    /// tables for walking `m`. A corpus module makes one inclusion per
    /// 1–4 AST nodes and one location per 8–12; the watched mega module
    /// makes fewer of both, so the sizes stay at the low end.
    pub(crate) fn reserve_for(&mut self, m: &localias_ast::Module) {
        let nodes = m.node_count as usize;
        self.cs.includes.reserve(nodes / 4);
        self.loc_vars.reserve(nodes / 16);
        self.fun_effs.reserve(m.functions().count());
    }

    // ---- Small helpers ----------------------------------------------------

    fn top_eff(&self) -> EffVar {
        self.frames.last().expect("frame stack never empty").eff
    }

    fn cur_gamma(&self) -> EffVar {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.gamma)
            .expect("module frame has gamma")
    }

    fn loc_var(&mut self, st: &mut State, l: Loc) -> EffVar {
        let r = st.locs.find(l);
        self.loc_vars.var_for(&mut self.cs, r)
    }

    fn struct_var(&mut self, name: &Symbol) -> EffVar {
        if let Some(&v) = self.struct_eps.get(name) {
            return v;
        }
        let v = self.cs.fresh_var();
        self.struct_eps.insert(name.clone(), v);
        v
    }

    /// `ε_τ` pieces of a type: the location chains reachable from it.
    fn ty_eps(&mut self, st: &mut State, ty: &Ty) -> Option<EffVar> {
        match ty {
            Ty::Ref(l) => Some(self.loc_var(st, *l)),
            Ty::Struct(s) => Some(self.struct_var(s)),
            _ => None,
        }
    }

    fn fun_eff(&mut self, name: &Symbol) -> FunEff {
        if let Some(&fe) = self.fun_effs.get(name) {
            return fe;
        }
        let raw = self.cs.fresh_var();
        let summary = self.cs.fresh_var();
        let fe = FunEff { raw, summary };
        self.fun_effs.insert(name.clone(), fe);
        fe
    }

    fn emit(&mut self, st: &mut State, kind: EffectKind, l: Loc) {
        let r = st.locs.find(l);
        let eff = self.top_eff();
        self.cs.include(Effect::atom(kind, r), eff);
    }

    fn activate(&mut self, ix: usize) {
        if let Some(root) = &self.units[ix].root {
            *self.active_roots.entry(root.clone()).or_insert(0) += 1;
        }
        self.active.push(ix);
    }

    fn deactivate(&mut self, ix: usize) {
        self.active.retain(|&i| i != ix);
        if let Some(root) = &self.units[ix].root {
            if let Some(n) = self.active_roots.get_mut(root) {
                *n -= 1;
                if *n == 0 {
                    self.active_roots.remove(root);
                }
            }
        }
    }

    fn tag(&mut self, target: TagTarget, reason: Reason) -> u32 {
        let t = self.tag_targets.len() as u32;
        self.tag_targets.push((target, reason));
        t
    }

    /// The escape set `locs(Γ, τ1, τ_ret)` for a restriction at the
    /// current point: `gamma_pre ∪ ε(content(ρ)) ∪ ε(return type)`.
    fn escape_var(&mut self, st: &mut State, gamma_pre: EffVar, rho: Loc) -> EffVar {
        let esc = self.cs.fresh_var();
        self.cs.include(Effect::var(gamma_pre), esc);
        let content = st.locs.content(rho);
        if let Some(v) = self.ty_eps(st, &content) {
            self.cs.include(Effect::var(v), esc);
        }
        let ret = st
            .current_fun()
            .and_then(|f| st.funs.get(f))
            .map(|sig| sig.ret.clone());
        if let Some(v) = ret.and_then(|ret| self.ty_eps(st, &ret)) {
            self.cs.include(Effect::var(v), esc);
        }
        esc
    }

    /// Registers a statement range for `block` and wires restriction
    /// effects between it and every already-registered range of the same
    /// block. A unit's `{ρ}` effect sits where the confine construct
    /// itself sits — *outside its own scope* — so:
    ///
    /// * an **enclosed** range's effect is visible to its encloser's
    ///   `L2` (the inner confine is a statement of the outer scope);
    /// * an **enclosing** range's effect is *not* visible to the inner
    ///   `L2`;
    /// * lexically impossible partial overlaps are wired both ways,
    ///   conservatively.
    ///
    /// Equal ranges count as the later registration nesting inside the
    /// earlier one (the paper's innermost-first translation order).
    fn register_range(&mut self, reg: RangeReg) {
        let from = self.blocks.last().expect("a block is walked").regs;
        for &other in &self.range_regs[from..] {
            let intersects = reg.start <= other.end && other.start <= reg.end;
            if !intersects {
                continue;
            }
            let other_encloses_reg = other.start <= reg.start && reg.end <= other.end;
            let reg_encloses_other = reg.start <= other.start && other.end <= reg.end;
            // `reg` nested in `other` (ties nest the newcomer inside).
            if other_encloses_reg {
                if let Some(x) = reg.xeff {
                    self.cs.include(Effect::var(x), other.l2);
                }
            } else if reg_encloses_other {
                if let Some(x) = other.xeff {
                    self.cs.include(Effect::var(x), reg.l2);
                }
            } else {
                if let Some(x) = other.xeff {
                    self.cs.include(Effect::var(x), reg.l2);
                }
                if let Some(x) = reg.xeff {
                    self.cs.include(Effect::var(x), other.l2);
                }
            }
        }
        self.range_regs.push(reg);
    }

    // ---- Restrict wiring ---------------------------------------------------

    /// Wires an *explicit* restrict check: `ρ ∉ L2`, `ρ' ∉ esc`, and the
    /// `{ρ}` restriction effect into `wiring.parent_eff`.
    fn wire_restrict_check(
        &mut self,
        st: &mut State,
        name: &Symbol,
        at: NodeId,
        w: RestrictWiring,
    ) {
        let RestrictWiring {
            rho,
            rho_p,
            gamma_pre,
            l2,
            parent_eff,
        } = w;
        let idx = self.restrict_outcomes.len();
        self.restrict_outcomes.push(RestrictOutcome {
            at,
            name: name.clone(),
            reasons: Vec::new(),
            locs: Some((rho, rho_p)),
        });
        let t1 = self.tag(TagTarget::Restrict(idx), Reason::AliasAccessed);
        self.cs.check_not_in(rho, KindMask::ACCESS, l2, t1);
        let esc = self.escape_var(st, gamma_pre, rho);
        let t2 = self.tag(TagTarget::Restrict(idx), Reason::Escapes);
        self.cs.check_not_in(rho_p, KindMask::MENTION, esc, t2);
        self.cs
            .include(Effect::atom(EffectKind::Write, rho), parent_eff);
        self.mult_fixups.push((idx, rho_p));
    }

    /// Wires a §5 `let-or-restrict` candidate: conditional demotions plus
    /// the conditional extra effects.
    fn wire_restrict_candidate(
        &mut self,
        st: &mut State,
        name: &Symbol,
        at: NodeId,
        w: RestrictWiring,
    ) {
        let RestrictWiring {
            rho,
            rho_p,
            gamma_pre,
            l2,
            parent_eff,
        } = w;
        let flag = self.cs.fresh_flag();
        self.candidate_flags.push((
            CandidateOutcome {
                at,
                name: name.clone(),
                restricted: false, // patched after solving
                locs: Some((rho, rho_p)),
            },
            flag,
        ));
        // ρ accessed in the scope ⇒ must be a let.
        self.cs.conditional_parts(
            Guard::LocIn {
                loc: rho,
                kinds: KindMask::ACCESS,
                var: l2,
            },
            [(rho, rho_p)],
            [],
            [flag],
        );
        // ρ' escapes ⇒ must be a let.
        let esc = self.escape_var(st, gamma_pre, rho);
        self.cs.conditional_parts(
            Guard::LocIn {
                loc: rho_p,
                kinds: KindMask::MENTION,
                var: esc,
            },
            [(rho, rho_p)],
            [],
            [flag],
        );
        // If the restricted pointer is actually used, the restriction is
        // an effect on ρ (prevents overlapping sibling restricts).
        for kind in [EffectKind::Read, EffectKind::Write, EffectKind::Alloc] {
            self.cs.conditional_parts(
                Guard::LocIn {
                    loc: rho_p,
                    kinds: kind.mask(),
                    var: l2,
                },
                [],
                [(Effect::atom(kind, rho), parent_eff)],
                [],
            );
        }
    }

    // ---- Confine wiring ----------------------------------------------------

    /// Materializes a confine unit once its `ρ` and `L1` are known.
    fn materialize(&mut self, st: &mut State, ix: usize, rho: Loc, l1_effect: Effect) -> bool {
        let rho = st.locs.find(rho);
        if st.locs.is_tainted(rho) {
            self.units[ix].pre_reasons.push(Reason::Tainted);
            self.units[ix].aborted = true;
            return false;
        }
        let content = st.locs.content(rho);
        let rho_p = st
            .locs
            .fresh_with(content, localias_alias::loc::Multiplicity::One);

        let l1 = self.cs.fresh_var();
        self.cs.include(l1_effect, l1);
        let p_var = self.cs.fresh_var();

        let (l2, gamma, parent_eff, xeff, explicit, demoted) = {
            let u = &self.units[ix];
            (u.l2, u.gamma, u.parent_eff, u.xeff, u.explicit, u.demoted)
        };
        let esc = self.escape_var(st, gamma, rho);
        // The restriction effect propagates outward through xeff.
        self.cs.include(Effect::var(xeff), parent_eff);

        if explicit {
            let t1 = self.tag(TagTarget::Confine(ix), Reason::AliasAccessed);
            self.cs.check_not_in(rho, KindMask::ACCESS, l2, t1);
            let t2 = self.tag(TagTarget::Confine(ix), Reason::Escapes);
            self.cs.check_not_in(rho_p, KindMask::MENTION, esc, t2);
            // Referential transparency, reported via flags.
            let f_side = self.cs.fresh_flag();
            let f_rt = self.cs.fresh_flag();
            self.units[ix].reason_flags = (f_side, EXPLICIT_REASONS);
            self.cs.conditional_parts(
                Guard::AnyKind {
                    var: l1,
                    kinds: KindMask::WRITE_OR_ALLOC,
                },
                [],
                [],
                [f_side],
            );
            self.cs.conditional_parts(
                Guard::Overlap {
                    left: l1,
                    left_kinds: KindMask::READ,
                    right: l2,
                    right_kinds: KindMask::WRITE_OR_ALLOC,
                },
                [],
                [],
                [f_rt],
            );
            // The restriction itself is an effect.
            self.cs.include(Effect::atom(EffectKind::Write, rho), xeff);
        } else {
            // Inference: each guard both demotes and records its reason
            // (`INFERENCE_REASONS`, one flag each).
            let guards = [
                Guard::LocIn {
                    loc: rho,
                    kinds: KindMask::ACCESS,
                    var: l2,
                },
                Guard::LocIn {
                    loc: rho_p,
                    kinds: KindMask::MENTION,
                    var: esc,
                },
                Guard::AnyKind {
                    var: l1,
                    kinds: KindMask::WRITE_OR_ALLOC,
                },
                Guard::Overlap {
                    left: l1,
                    left_kinds: KindMask::READ,
                    right: l2,
                    right_kinds: KindMask::WRITE_OR_ALLOC,
                },
            ];
            for (i, guard) in guards.into_iter().enumerate() {
                let rf = self.cs.fresh_flag();
                if i == 0 {
                    self.units[ix].reason_flags = (rf, INFERENCE_REASONS);
                }
                self.cs.conditional_parts(
                    guard,
                    [(rho, rho_p)],
                    [(Effect::var(l1), p_var)],
                    [demoted, rf],
                );
            }
            // Conditional extra effects: the confine is an effect on ρ of
            // whatever kinds ρ' is used at.
            for kind in [EffectKind::Read, EffectKind::Write, EffectKind::Alloc] {
                self.cs.conditional_parts(
                    Guard::LocIn {
                        loc: rho_p,
                        kinds: kind.mask(),
                        var: l2,
                    },
                    [],
                    [(Effect::atom(kind, rho), xeff)],
                    [],
                );
            }
        }

        self.units[ix].mat = Some(Mat { rho, rho_p, p_var });
        true
    }

    /// Handles a possible occurrence `e` of active units' expressions.
    /// Its stack is the active units whose expression is syntactically
    /// equal to `e`, outermost first; this materializes pending units in
    /// the stack outside-in and returns the replacement type, or
    /// schedules a first-occurrence evaluation.
    fn occurrence(&mut self, st: &mut State, e: &Expr) -> Option<Ty> {
        // Find the first unmaterialized (and unaborted) unit outside-in;
        // everything before it is materialized. Nothing here changes
        // `active`, so the stack is read in place.
        let mut base: Option<usize> = None; // innermost materialized
        for j in 0..self.active.len() {
            let ix = self.active[j];
            if !self.units[ix].expr.syntactically_equal(e) {
                continue;
            }
            if self.units[ix].aborted {
                continue;
            }
            if self.units[ix].mat.is_some() {
                base = Some(ix);
                continue;
            }
            match base {
                None => {
                    // Outermost pending: evaluate this occurrence raw,
                    // capturing its effect as L1.
                    let cap = self.cs.fresh_var();
                    self.frames.push(Frame {
                        kind: FrameKind::Capture,
                        eff: cap,
                        gamma: None,
                    });
                    self.awaiting.push((e.id, ix));
                    return None;
                }
                Some(prev) => {
                    let (prev_rho_p, prev_p) = {
                        let m = self.units[prev].mat.as_ref().expect("materialized");
                        (m.rho_p, m.p_var)
                    };
                    if self.materialize(st, ix, prev_rho_p, Effect::var(prev_p)) {
                        base = Some(ix);
                    }
                }
            }
        }
        let inner = base?;
        let (rho_p, p_var) = {
            let m = self.units[inner].mat.as_ref().expect("materialized");
            (m.rho_p, m.p_var)
        };
        let eff = self.top_eff();
        self.cs.include(Effect::var(p_var), eff);
        Some(Ty::Ref(rho_p))
    }

    /// Completes a scheduled first-occurrence evaluation.
    fn finish_awaited(&mut self, st: &mut State, e: &Expr, ty: Ty) -> Ty {
        let (_, ix) = self.awaiting.pop().expect("awaiting non-empty");
        // Pop the capture frame; its contents are L1 and also flow to the
        // enclosing effect (the confine evaluates e1 once).
        let cap = self.frames.pop().expect("capture frame");
        debug_assert_eq!(cap.kind, FrameKind::Capture);
        let eff = self.top_eff();
        self.cs.include(Effect::var(cap.eff), eff);

        let rho = match &ty {
            Ty::Ref(l) => *l,
            _ => {
                self.units[ix].pre_reasons.push(Reason::NotAPointer);
                self.units[ix].aborted = true;
                return ty;
            }
        };
        if !self.materialize(st, ix, rho, Effect::var(cap.eff)) {
            return ty;
        }
        // Deeper pending units for the same expression chain off this one.
        self.occurrence(st, e).unwrap_or(ty)
    }

    // ---- Post-walk ----------------------------------------------------------

    /// Emits the memoized `locs(·)` chains over the final location
    /// structure and replays walk-time location merges. Must be called
    /// after the typing walk, before solving.
    pub fn finalize(&mut self, st: &mut State) {
        for (winner, loser) in st.locs.take_merges() {
            for (l, v) in self.loc_vars.merge(winner, loser) {
                self.cs.include(l, v);
            }
        }

        // Finalizing creates no location, so a flag per location serves.
        let mut emitted = vec![false; st.locs.len()];
        let mut structs_done: FxSet<Symbol> = FxSet::default();
        let mut stack: Vec<(Loc, EffVar)> = self.loc_vars.iter().collect();
        let mut struct_stack: Vec<Symbol> = self.struct_eps.keys().cloned().collect();
        loop {
            while let Some((l, v)) = stack.pop() {
                let r = st.locs.find(l);
                if std::mem::replace(&mut emitted[r.index()], true) {
                    continue;
                }
                self.cs.include(Effect::atom(EffectKind::Mention, r), v);
                match st.locs.content(r) {
                    Ty::Ref(l2) => {
                        let v2 = self.loc_var(st, l2);
                        self.cs.include(Effect::var(v2), v);
                        stack.push((st.locs.find(l2), v2));
                    }
                    Ty::Struct(s) => {
                        let vs = self.struct_var(&s);
                        self.cs.include(Effect::var(vs), v);
                        struct_stack.push(s);
                    }
                    _ => {}
                }
            }
            if struct_stack.is_empty() {
                break;
            }
            while let Some(s) = struct_stack.pop() {
                if !structs_done.insert(s.clone()) {
                    continue;
                }
                let vs = self.struct_var(&s);
                let fields: Vec<Loc> = st
                    .fields
                    .iter()
                    .filter(|((sn, _), _)| *sn == s)
                    .map(|(_, &l)| l)
                    .collect();
                for fl in fields {
                    let fv = self.loc_var(st, fl);
                    self.cs.include(Effect::var(fv), vs);
                    stack.push((st.locs.find(fl), fv));
                }
            }
            if stack.is_empty() {
                break;
            }
        }
    }

    /// Consumes the generator after solving, producing the outcome lists
    /// plus the per-function effect-summary variables.
    #[allow(clippy::type_complexity)]
    pub fn into_outcomes(
        mut self,
        st: &mut State,
        sol: &localias_effects::Solution,
    ) -> (
        Vec<Diag>,
        Vec<RestrictOutcome>,
        Vec<CandidateOutcome>,
        Vec<ConfineOutcome>,
        FxMap<Symbol, EffVar>,
    ) {
        // Attach violated checks to their outcomes.
        for v in sol.violations() {
            let (target, reason) = self.tag_targets[v.tag as usize];
            match target {
                TagTarget::Restrict(i) => self.restrict_outcomes[i].reasons.push(reason),
                TagTarget::Confine(i) => self.units[i].pre_reasons.push(reason),
            }
        }
        // Failed explicit restricts lose strong-update eligibility.
        for &(idx, rho_p) in &self.mult_fixups {
            if !self.restrict_outcomes[idx].reasons.is_empty() {
                st.locs
                    .raise_multiplicity(rho_p, localias_alias::loc::Multiplicity::Many);
            }
        }

        let mut candidates = Vec::new();
        for (mut outcome, flag) in self.candidate_flags {
            outcome.restricted = !sol.flag(flag);
            candidates.push(outcome);
        }

        let mut confines = Vec::new();
        for u in &mut self.units {
            let mut reasons = std::mem::take(&mut u.pre_reasons);
            let (first, flagged) = u.reason_flags;
            for (k, &reason) in (first.0..).zip(flagged) {
                if sol.flag(FlagId(k)) {
                    reasons.push(reason);
                }
            }
            if !u.explicit && sol.flag(u.demoted) && reasons.is_empty() {
                reasons.push(Reason::AliasAccessed);
            }
            // Failed explicit confines lose strong-update eligibility.
            if u.explicit && !reasons.is_empty() {
                if let Some(m) = &u.mat {
                    st.locs
                        .raise_multiplicity(m.rho_p, localias_alias::loc::Multiplicity::Many);
                }
            }
            confines.push(ConfineOutcome {
                site: u.site,
                expr: std::mem::take(&mut u.text).into_owned(),
                explicit: u.explicit,
                reasons,
                unused: u.mat.is_none() && !u.aborted,
                locs: u.mat.as_ref().map(|m| (m.rho, m.rho_p)),
            });
        }

        let fun_effects = self
            .fun_effs
            .iter()
            .map(|(name, fe)| (name.clone(), fe.summary))
            .collect();
        (
            self.diags,
            self.restrict_outcomes,
            candidates,
            confines,
            fun_effects,
        )
    }

    /// Free register variables of `e` (resolved during the walk) that are
    /// assigned inside `body` — the syntactic complement of referential
    /// transparency for effect-free locals.
    fn register_rt_violation(&self, st: &State, e: &Expr, body: &Block) -> bool {
        let mut free_regs: FxSet<Symbol> = FxSet::default();
        struct Fv<'a> {
            st: &'a State,
            out: &'a mut FxSet<Symbol>,
        }
        impl Visitor for Fv<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Var(x) = &e.kind {
                    if let Some(Some(v)) = self.st.var_of_expr.get(e.id.index()) {
                        if matches!(self.st.vars[v.index()].kind, VarKind::Register) {
                            self.out.insert(x.name.clone());
                        }
                    }
                }
                walk_expr(self, e);
            }
        }
        let mut fv = Fv {
            st,
            out: &mut free_regs,
        };
        fv.visit_expr(e);
        if free_regs.is_empty() {
            return false;
        }
        let mut assigned = FxSet::default();
        struct Av<'a>(&'a mut FxSet<Symbol>);
        impl Visitor for Av<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Assign(lhs, _) = &e.kind {
                    if let ExprKind::Var(x) = &lhs.kind {
                        self.0.insert(x.name.clone());
                    }
                }
                walk_expr(self, e);
            }
        }
        let mut av = Av(&mut assigned);
        av.visit_block(body);
        free_regs.iter().any(|n| assigned.contains(n))
    }
}

impl Hooks for Gen<'_> {
    fn on_read(&mut self, st: &mut State, loc: Loc, _at: NodeId) {
        self.emit(st, EffectKind::Read, loc);
    }

    fn on_write(&mut self, st: &mut State, loc: Loc, _at: NodeId) {
        self.emit(st, EffectKind::Write, loc);
    }

    fn on_alloc(&mut self, st: &mut State, loc: Loc, _at: NodeId) {
        self.emit(st, EffectKind::Alloc, loc);
    }

    fn on_call(&mut self, _st: &mut State, callee: &Symbol, _at: NodeId) {
        let fe = self.fun_eff(callee);
        let eff = self.top_eff();
        self.cs.include(Effect::var(fe.summary), eff);
    }

    fn enter_scope(&mut self, st: &mut State, kind: ScopeKind) {
        match kind {
            ScopeKind::Fun(_) => {
                let name = st.current_fun().expect("in a function").clone();
                let fe = self.fun_eff(&name);
                let gamma = self.cs.fresh_var();
                self.cs.include(Effect::var(self.gamma_globals), gamma);
                self.frames.push(Frame {
                    kind: FrameKind::Fun(name),
                    eff: fe.raw,
                    gamma: Some(gamma),
                });
            }
            ScopeKind::Block(_) | ScopeKind::RestrictBody(_) | ScopeKind::ConfineBody(_) => {
                // A plain block's effect would only relay into its
                // parent's, so the block shares it. Restrict and confine
                // bodies keep their own: their `L2` reads it.
                let eff = if matches!(kind, ScopeKind::Block(_)) {
                    self.top_eff()
                } else {
                    self.cs.fresh_var()
                };
                let gamma = self.cur_gamma();
                self.frames.push(Frame {
                    kind: FrameKind::Scope,
                    eff,
                    gamma: Some(gamma),
                });
                if let ScopeKind::ConfineBody(stmt) = kind {
                    if let Some(&ix) = self.pending_body.get(&stmt) {
                        // The explicit confine's L2 is this body's effect.
                        self.cs.include(Effect::var(eff), self.units[ix].l2);
                        self.activate(ix);
                    }
                }
            }
        }
    }

    fn exit_scope(&mut self, st: &mut State, kind: ScopeKind) {
        let frame = self.frames.pop().expect("scope frame");
        match kind {
            ScopeKind::Fun(_) => {
                let FrameKind::Fun(name) = &frame.kind else {
                    panic!("frame mismatch: expected function frame");
                };
                let name = name.clone();
                let fe = self.fun_eff(&name);
                if self.opts.apply_down {
                    // (Down): mask the raw body effect by the locations
                    // visible through globals and the signature.
                    let vis = self.cs.fresh_var();
                    self.cs.include(Effect::var(self.gamma_globals), vis);
                    // By index: `ty_eps` needs the state mutably.
                    let params = st.funs.get(&name).map_or(0, |sig| sig.params.len());
                    for i in 0..params {
                        let p = st.funs[&name].params[i].clone();
                        if let Some(v) = self.ty_eps(st, &p) {
                            self.cs.include(Effect::var(v), vis);
                        }
                    }
                    if let Some(ret) = st.funs.get(&name).map(|sig| sig.ret.clone()) {
                        if let Some(v) = self.ty_eps(st, &ret) {
                            self.cs.include(Effect::var(v), vis);
                        }
                    }
                    self.cs.include(
                        Effect::inter(Effect::var(fe.raw), Effect::var(vis)),
                        fe.summary,
                    );
                } else {
                    // Ablation: no masking — the raw effect is the
                    // summary.
                    self.cs.include(Effect::var(fe.raw), fe.summary);
                }
            }
            ScopeKind::Block(_) => {}
            ScopeKind::RestrictBody(_) => {
                let eff = self.top_eff();
                self.cs.include(Effect::var(frame.eff), eff);
            }
            ScopeKind::ConfineBody(stmt) => {
                let eff = self.top_eff();
                self.cs.include(Effect::var(frame.eff), eff);
                if let Some(ix) = self.pending_body.remove(&stmt) {
                    self.deactivate(ix);
                }
            }
        }
    }

    fn on_stmt_index(&mut self, st: &mut State, block: NodeId, index: usize, total: usize) {
        if index == 0 {
            self.blocks.push(WalkedBlock {
                stmt: 0,
                regs: self.range_regs.len(),
            });
        }
        // Pop the previous statement's frame, if it had one.
        if matches!(
            self.frames.last().map(|f| &f.kind),
            Some(FrameKind::Stmt { block: b }) if *b == block
        ) {
            let frame = self.frames.pop().expect("stmt frame");
            let eff = self.top_eff();
            self.cs.include(Effect::var(frame.eff), eff);
        }

        // Deactivate range candidates that ended at index - 1.
        let mut j = 0;
        while j < self.active.len() {
            let ix = self.active[j];
            match self.units[ix].site {
                ConfineSite::Range { block: b, end, .. } if b == block && end + 1 == index => {
                    self.deactivate(ix);
                }
                _ => j += 1,
            }
        }

        if index >= total {
            let walked = self.blocks.pop().expect("pushed at index 0");
            self.range_regs.truncate(walked.regs);
            return;
        }
        self.blocks.last_mut().expect("pushed at index 0").stmt = index;

        // Activate candidates starting here, widest first so the
        // occurrence-interception stack reflects lexical nesting (the
        // innermost-first translation order).
        let mut next = self
            .pending_ranges
            .partition_point(|&(b, start, _)| (b, start) < (block, index));
        while let Some(&(b, start, ix)) = self.pending_ranges.get(next) {
            if (b, start) != (block, index) {
                break;
            }
            self.pending_ranges[next].2 = NO_UNIT;
            next += 1;
            if ix == NO_UNIT {
                continue;
            }
            let ConfineSite::Range { start, end, .. } = self.units[ix].site else {
                continue;
            };
            self.units[ix].gamma = self.cur_gamma();
            self.units[ix].parent_eff = self.top_eff();
            self.units[ix].fun = st.current_fun().cloned();
            self.activate(ix);
            let l2 = self.units[ix].l2;
            let xeff = self.units[ix].xeff;
            self.register_range(RangeReg {
                start,
                end,
                l2,
                xeff: Some(xeff),
            });
        }

        // A statement that a registration covers gets its own frame,
        // feeding every covering `L2`; any other statement's effects go
        // straight into the enclosing scope's.
        let regs = &self.range_regs[self.blocks.last().expect("pushed at index 0").regs..];
        let covers = |r: &RangeReg| r.start <= index && index <= r.end;
        if !regs.iter().any(covers) {
            return;
        }
        let eff = self.cs.fresh_var();
        for r in regs.iter().filter(|r| covers(r)) {
            self.cs.include(Effect::var(eff), r.l2);
        }
        self.frames.push(Frame {
            kind: FrameKind::Stmt { block },
            eff,
            gamma: None,
        });
    }

    fn bind_ty(&mut self, st: &mut State, site: BindSite, init_ty: Ty, at: NodeId) -> Ty {
        use localias_ast::BindingKind;
        let explicit = match site {
            BindSite::Param { restrict } => {
                if restrict {
                    true
                } else if self.opts.infer_restrict_params {
                    false
                } else {
                    return init_ty;
                }
            }
            BindSite::Decl { binding, has_init } => match binding {
                BindingKind::Restrict => true,
                BindingKind::Let => {
                    if !(self.opts.infer_restrict && has_init) {
                        return init_ty;
                    }
                    false
                }
            },
            BindSite::RestrictStmt => true,
            BindSite::Global => return init_ty,
        };

        let rho = match &init_ty {
            Ty::Ref(l) => st.locs.find(*l),
            _ => {
                if explicit {
                    self.diags.push(Diag {
                        at,
                        span: Span::DUMMY,
                        msg: format!("cannot restrict a non-pointer ({})", Reason::NotAPointer),
                    });
                }
                return init_ty;
            }
        };
        if st.locs.is_tainted(rho) {
            if explicit {
                self.diags.push(Diag {
                    at,
                    span: Span::DUMMY,
                    msg: format!("cannot restrict: {}", Reason::Tainted),
                });
            }
            return init_ty;
        }
        let content = st.locs.content(rho);
        let rho_p = st
            .locs
            .fresh_with(content, localias_alias::loc::Multiplicity::One);
        self.pending_bind = Some(PendingBind {
            rho,
            rho_p,
            gamma_pre: self.cur_gamma(),
            explicit,
        });
        Ty::Ref(rho_p)
    }

    fn on_bind(&mut self, st: &mut State, var: VarId, site: BindSite, at: NodeId) {
        let info = st.vars[var.index()].clone();

        // Extend ε_Γ with the new binding's reachable locations.
        let ty_part = self.ty_eps(st, &info.ty);
        let addr_part = match info.kind {
            VarKind::Addressed(l) => Some(self.loc_var(st, l)),
            VarKind::Register => None,
        };
        let parts = [ty_part, addr_part];
        if matches!(site, BindSite::Global) {
            for v in parts.into_iter().flatten() {
                self.cs.include(Effect::var(v), self.gamma_globals);
            }
        } else if parts.iter().any(Option::is_some) {
            let old = self.cur_gamma();
            let new = self.cs.fresh_var();
            self.cs.include(Effect::var(old), new);
            for v in parts.into_iter().flatten() {
                self.cs.include(Effect::var(v), new);
            }
            let frame = self
                .frames
                .iter_mut()
                .rev()
                .find(|f| f.gamma.is_some())
                .expect("a gamma frame");
            frame.gamma = Some(new);
        }
        // A binding that reaches no location adds nothing: `ε_Γ` stays.

        // Wire a pending restrict/candidate.
        let Some(pending) = self.pending_bind.take() else {
            return;
        };
        let PendingBind {
            rho,
            rho_p,
            gamma_pre,
            explicit,
        } = pending;

        // L2 and the parent effect depend on the binder's shape.
        let (l2, parent_eff) = match site {
            BindSite::Param { .. } => {
                let name = st.current_fun().expect("param binds in a function").clone();
                let fe = self.fun_eff(&name);
                let l2 = self.cs.fresh_var();
                self.cs.include(Effect::var(fe.raw), l2);
                // The restriction effect of a parameter belongs to the
                // function's summary (it happens at each call).
                (l2, fe.summary)
            }
            BindSite::RestrictStmt => {
                let body_eff = self.top_eff();
                let l2 = self.cs.fresh_var();
                self.cs.include(Effect::var(body_eff), l2);
                let parent = self.frames[self.frames.len() - 2].eff;
                (l2, parent)
            }
            BindSite::Decl { .. } => {
                // Scope: the rest of the enclosing block — all statement
                // frames with a higher index feed this L2.
                let l2 = self.cs.fresh_var();
                let parent = self.top_eff();
                let idx = self
                    .blocks
                    .last()
                    .expect("a declaration is a statement")
                    .stmt;
                self.register_range(RangeReg {
                    start: idx + 1,
                    end: usize::MAX,
                    l2,
                    xeff: None,
                });
                (l2, parent)
            }
            BindSite::Global => return,
        };

        let wiring = RestrictWiring {
            rho,
            rho_p,
            gamma_pre,
            l2,
            parent_eff,
        };
        if explicit {
            self.wire_restrict_check(st, &info.name, at, wiring);
        } else {
            self.wire_restrict_candidate(st, &info.name, at, wiring);
        }
    }

    fn on_confine_start(&mut self, _st: &mut State, at: NodeId) {
        let cap = self.cs.fresh_var();
        self.frames.push(Frame {
            kind: FrameKind::Capture,
            eff: cap,
            gamma: None,
        });
        self.pending_confine_stmt.push(at);
    }

    fn on_confine_expr(&mut self, st: &mut State, expr: &Expr, body: &Block, at: NodeId) {
        let stmt = self.pending_confine_stmt.pop().expect("confine start");
        debug_assert_eq!(stmt, at);
        let cap = self.frames.pop().expect("capture frame");
        debug_assert_eq!(cap.kind, FrameKind::Capture);
        let eff = self.top_eff();
        self.cs.include(Effect::var(cap.eff), eff);

        let l2 = self.cs.fresh_var();
        let xeff = self.cs.fresh_var();
        let demoted = self.cs.fresh_flag();
        let ix = self.units.len();
        let root = root_of(expr).cloned();
        self.units.push(Unit {
            site: ConfineSite::Stmt(at),
            expr: Cow::Owned(expr.clone()),
            text: Cow::Owned(pretty::print_expr(expr)),
            root,
            explicit: true,
            fun: st.current_fun().cloned(),
            l2,
            gamma: self.cur_gamma(),
            parent_eff: self.top_eff(),
            xeff,
            demoted,
            reason_flags: (demoted, &[]),
            pre_reasons: Vec::new(),
            mat: None,
            aborted: false,
        });

        if !expr.is_confinable_shape() {
            self.units[ix].pre_reasons.push(Reason::NotConfinableShape);
            self.units[ix].aborted = true;
            return;
        }
        if self.register_rt_violation(st, expr, body) {
            self.units[ix].pre_reasons.push(Reason::RegisterReassigned);
        }
        let ty = st.expr_ty[expr.id.index()].clone();
        let rho = match ty {
            Some(Ty::Ref(l)) => l,
            _ => {
                self.units[ix].pre_reasons.push(Reason::NotAPointer);
                self.units[ix].aborted = true;
                return;
            }
        };
        if self.materialize(st, ix, rho, Effect::var(cap.eff)) {
            self.pending_body.insert(at, ix);
        }
    }

    fn intercept_expr(&mut self, st: &mut State, e: &Expr) -> Option<Ty> {
        if self.active_roots.is_empty() {
            return None;
        }
        // Cheap shape filter before comparing.
        if !matches!(
            e.kind,
            ExprKind::Var(_)
                | ExprKind::Unary(_, _)
                | ExprKind::Field(_, _)
                | ExprKind::Arrow(_, _)
                | ExprKind::Index(_, _)
        ) {
            return None;
        }
        // Pre-filter on the leftmost identifier before comparing with
        // every active unit.
        match root_of(e) {
            Some(root) if self.active_roots.contains_key(root) => {}
            _ => return None,
        }
        self.occurrence(st, e)
    }

    fn after_expr(&mut self, st: &mut State, e: &Expr, ty: Ty) -> Ty {
        if let Some(&(id, _)) = self.awaiting.last() {
            if id == e.id {
                return self.finish_awaited(st, e, ty);
            }
        }
        ty
    }
}
