//! The unification-based may-alias analysis (Steensgaard-style), shared
//! typing walk, and its hook interface.
//!
//! The paper's constraint generation (its Figure 3) interleaves two
//! activities over one AST traversal: *typing* (assigning every expression
//! an analysis type, unifying at assignments and calls — the may-alias
//! analysis itself) and *effect bookkeeping* (recording reads, writes and
//! allocations, scope extents, and binder sites). This module implements
//! the typing walk once, generically over a [`Hooks`] implementation:
//!
//! * with the no-op [`NoHooks`], [`analyze`] is a plain Steensgaard
//!   analysis — `restrict`/`confine` degrade to ordinary `let`s, which is
//!   exactly the conservative baseline the paper starts from;
//! * `localias-core` supplies hooks that emit the paper's effect
//!   constraints and give `restrict` bindings their fresh location `ρ'`.
//!
//! ## Modelling choices
//!
//! * **Arrays collapse** to a single element location (the imprecision
//!   that makes Figure 1's lock array need `restrict` at all).
//! * **Struct fields are field-based**: one location per `(struct, field)`
//!   pair, shared by all instances. This is coarser than instance-based
//!   models and is again exactly the kind of conflation `confine`
//!   recovers from locally.
//! * **Locals whose address is never taken are registers**: reading or
//!   writing them is not a location effect (the paper's `let`-bound names
//!   likewise have effect-free uses via its (Var) rule). Their role in
//!   confine's referential transparency is handled syntactically by
//!   `localias-core`.
//! * **Unknown externs are effect-free and alias-free** aside from
//!   unifying argument types with the (per-extern) parameter types. The
//!   corpus declares its externs, so this stays honest there.

use crate::fx::{FxMap, FxSet};
use crate::loc::{Loc, LocTable};
use crate::ty::{unify, Ty, TypeMismatch};
use localias_ast::{
    BinOp, BindingKind, Block, Expr, ExprKind, FunDef, Ident, ItemKind, Module, NodeId, Param,
    Stmt, StmtKind, Symbol, TypeExpr, UnOp,
};

/// A dense identifier for a variable binding (global, parameter or local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a variable is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// A local (or parameter) whose address is never taken: reads/writes
    /// are not location effects.
    Register,
    /// A variable with addressable storage at the given location.
    Addressed(Loc),
}

/// Metadata about one variable binding.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name.
    pub name: Symbol,
    /// Storage classification.
    pub kind: VarKind,
    /// The variable's *value* type (for an [`VarKind::Addressed`] variable
    /// this equals the content type of its location).
    pub ty: Ty,
    /// Enclosing function, or `None` for globals.
    pub fun: Option<Symbol>,
}

/// The signature of a defined or extern function.
#[derive(Debug, Clone)]
pub struct FunSig {
    /// Parameter value types (shared across all call sites — the analysis
    /// is context-insensitive, like the paper's).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// `true` for `extern` declarations (no body).
    pub is_extern: bool,
}

/// Why a scope was entered (reported to [`Hooks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// A function body; carries the function item's node id.
    Fun(NodeId),
    /// An ordinary `{ ... }` block (or `if`/`while` body).
    Block(NodeId),
    /// The body of a `restrict x = e { ... }` statement.
    RestrictBody(NodeId),
    /// The body of a `confine (e) { ... }` statement.
    ConfineBody(NodeId),
}

/// Where a variable was bound (reported to [`Hooks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindSite {
    /// A global declaration.
    Global,
    /// A function parameter; `restrict` is the C99-style qualifier.
    Param {
        /// Whether the parameter is `restrict`-qualified.
        restrict: bool,
    },
    /// A block-local declaration with the given binding kind.
    Decl {
        /// `let` or `restrict`.
        binding: BindingKind,
        /// Whether the declaration has an initializer.
        has_init: bool,
    },
    /// The scoped `restrict x = e { ... }` statement.
    RestrictStmt,
}

/// The mutable analysis state threaded through the walk and exposed to
/// hooks.
#[derive(Debug)]
pub struct State {
    /// All abstract locations.
    pub locs: LocTable,
    /// Per-expression value type, indexed by [`NodeId`].
    pub expr_ty: Vec<Option<Ty>>,
    /// Per-expression lvalue location (for expressions that denote
    /// storage), indexed by [`NodeId`].
    pub expr_lval: Vec<Option<Loc>>,
    /// Resolved variable for each `Var` expression, indexed by [`NodeId`].
    pub var_of_expr: Vec<Option<VarId>>,
    /// All variable bindings.
    pub vars: Vec<VarInfo>,
    /// Field-based field locations: `(struct name, field name) → loc`.
    pub fields: FxMap<(Symbol, Symbol), Loc>,
    /// Function signatures by name.
    pub funs: FxMap<Symbol, FunSig>,
    /// Per defined function, the run of [`State::vars`] its parameters
    /// were bound to, in declaration order ([`State::param_vars`]). For
    /// duplicate definitions the first body wins, matching the variable
    /// table's scan order.
    param_runs: FxMap<Symbol, (u32, u32)>,
    /// Type mismatches found (standard typing errors; the analyses treat
    /// the involved locations as tainted rather than aborting).
    pub mismatches: Vec<TypeMismatch>,
    /// The module scope's bindings (the globals).
    globals: FxMap<Symbol, VarId>,
    /// The bindings of the open local scopes, innermost last: a lookup
    /// scans back from the end, so a later binding hides an earlier one.
    locals: Vec<(Symbol, VarId)>,
    /// Where each open scope starts in `locals`; the first is the
    /// module scope, whose bindings go to `globals`.
    scopes: Vec<usize>,
    /// Names of variables whose address is taken somewhere in the module.
    addr_taken: FxSet<Symbol>,
    /// Current function name during body walks.
    current_fun: Option<Symbol>,
}

impl State {
    fn new(m: &Module) -> Self {
        // A corpus module has one location and one variable per 8–12 AST
        // nodes, the watched mega module one variable per 16 and far
        // fewer locations; tables sized at one per 16 nodes grow at most
        // once or twice and hold little spare room on large modules.
        let n = m.node_count as usize;
        State {
            locs: LocTable::with_capacity(n / 16),
            expr_ty: vec![None; n],
            expr_lval: vec![None; n],
            var_of_expr: vec![None; n],
            vars: Vec::with_capacity(n / 16),
            fields: FxMap::default(),
            funs: FxMap::default(),
            param_runs: FxMap::default(),
            mismatches: Vec::new(),
            globals: FxMap::default(),
            locals: Vec::new(),
            scopes: Vec::new(),
            addr_taken: FxSet::default(),
            current_fun: None,
        }
    }

    /// Lowers a syntactic type to an analysis type, creating fresh
    /// locations for pointer/array structure.
    pub fn lower(&mut self, ty: &TypeExpr) -> Ty {
        match ty {
            TypeExpr::Int => Ty::Int,
            TypeExpr::Lock => Ty::Lock,
            TypeExpr::Void => Ty::Void,
            TypeExpr::Struct(s) => Ty::Struct(s.clone()),
            TypeExpr::Ptr(inner) => {
                let content = self.lower(inner);
                Ty::Ref(self.locs.fresh(content))
            }
            TypeExpr::Array(elem, _) => {
                // Arrays collapse: the declared object's value is a
                // pointer to the single element location, which stands for
                // many concrete objects.
                let content = self.lower(elem);
                Ty::Ref(
                    self.locs
                        .fresh_with(content, crate::loc::Multiplicity::Many),
                )
            }
        }
    }

    /// The field location for `(struct_name, field)`, creating it (with
    /// content lowered from `ty`) on first use.
    pub fn field_loc(
        &mut self,
        struct_name: &Symbol,
        field: &Symbol,
        ty: Option<&TypeExpr>,
    ) -> Loc {
        let key = (struct_name.clone(), field.clone());
        if let Some(&l) = self.fields.get(&key) {
            return l;
        }
        let content = match ty {
            Some(t) => self.lower(t),
            None => Ty::Unknown,
        };
        // Field-based field classes stand for one field per instance —
        // possibly many objects.
        let l = self
            .locs
            .fresh_with(content, crate::loc::Multiplicity::Many);
        self.fields.insert(key, l);
        l
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("a scope is open");
        self.locals.truncate(start);
        if self.scopes.is_empty() {
            self.globals.clear();
        }
    }

    fn bind(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        match self.scopes.len() {
            0 => panic!("bind outside any scope"),
            1 => {
                self.globals.insert(info.name.clone(), id);
            }
            _ => self.locals.push((info.name.clone(), id)),
        }
        self.vars.push(info);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        match self.locals.iter().rev().find(|(n, _)| n.as_str() == name) {
            Some(&(_, id)) => Some(id),
            None => self.globals.get(name).copied(),
        }
    }

    /// The parameter variables of defined function `fun`, in declaration
    /// order. Their types are the *bound* parameter value types — the
    /// types after any binding hooks ran (a restrict parameter's pointee
    /// is its fresh ρ′, not the signature's ρ).
    pub fn param_vars(&self, fun: &str) -> Option<&[VarInfo]> {
        let &(start, end) = self.param_runs.get(fun)?;
        Some(&self.vars[start as usize..end as usize])
    }

    /// Records and returns the value type of expression `e`.
    fn set_ty(&mut self, e: &Expr, ty: Ty) -> Ty {
        self.expr_ty[e.id.index()] = Some(ty.clone());
        ty
    }

    /// Unifies, collecting mismatches into the state.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Ty {
        unify(&mut self.locs, a, b, &mut self.mismatches)
    }

    /// The function whose body is currently being walked (available to
    /// hooks).
    pub fn current_fun(&self) -> Option<&Symbol> {
        self.current_fun.as_ref()
    }
}

/// Callbacks invoked by the typing walk. All methods have no-op defaults;
/// see the module docs for who overrides what.
#[allow(unused_variables)]
pub trait Hooks {
    /// A location is read at expression/statement `at`.
    fn on_read(&mut self, st: &mut State, loc: Loc, at: NodeId) {}
    /// A location is written at `at`.
    fn on_write(&mut self, st: &mut State, loc: Loc, at: NodeId) {}
    /// A location is allocated (`new`) at `at`.
    fn on_alloc(&mut self, st: &mut State, loc: Loc, at: NodeId) {}
    /// A call to a *defined* (non-extern, non-intrinsic) function.
    fn on_call(&mut self, st: &mut State, callee: &Symbol, at: NodeId) {}
    /// A scope was entered.
    fn enter_scope(&mut self, st: &mut State, kind: ScopeKind) {}
    /// A scope was exited.
    fn exit_scope(&mut self, st: &mut State, kind: ScopeKind) {}
    /// A variable is about to be bound with initializer type `init_ty`;
    /// the returned type becomes the variable's value type. The default
    /// returns `init_ty` unchanged; `localias-core` overrides this to give
    /// `restrict` binders (and inference candidates) a fresh `ρ'`.
    fn bind_ty(&mut self, st: &mut State, site: BindSite, init_ty: Ty, at: NodeId) -> Ty {
        init_ty
    }
    /// A variable was bound.
    fn on_bind(&mut self, st: &mut State, var: VarId, site: BindSite, at: NodeId) {}
    /// The expression of a `confine (e) { ... }` statement, evaluated once
    /// before its body. Hooks for confine checking live in
    /// `localias-core`.
    fn on_confine_expr(&mut self, st: &mut State, expr: &Expr, body: &Block, at: NodeId) {}
    /// Called just before the expression of a `confine` statement is
    /// evaluated (so a hook can capture its effect `L1`).
    fn on_confine_start(&mut self, st: &mut State, at: NodeId) {}
    /// Called before the `index`-th statement of block `block` is walked,
    /// and once more with `index == total` after the last statement. This
    /// lets `localias-core` scope `confine?` candidates to statement
    /// sub-ranges of a block (the §7 heuristic).
    fn on_stmt_index(&mut self, st: &mut State, block: NodeId, index: usize, total: usize) {}
    /// Offered every expression before normal evaluation; returning
    /// `Some(ty)` short-circuits the walk with that type (used to replace
    /// occurrences of a confined expression by its binder, §6).
    fn intercept_expr(&mut self, st: &mut State, e: &Expr) -> Option<Ty> {
        None
    }
    /// Offered every normally-evaluated expression after evaluation; the
    /// returned type replaces `ty` (used to re-type the defining
    /// occurrence of a confined expression).
    fn after_expr(&mut self, st: &mut State, e: &Expr, ty: Ty) -> Ty {
        ty
    }
}

/// The no-op hook set: plain Steensgaard analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// The result of the standalone may-alias analysis.
#[derive(Debug)]
pub struct ModuleAliases {
    /// The analysis state (location table, per-expression types, ...).
    pub state: State,
}

impl ModuleAliases {
    /// Returns `true` if the storage denoted by lvalue expressions `a` and
    /// `b` may alias (same abstract location class).
    ///
    /// Returns `false` when either expression does not denote storage.
    pub fn may_alias(&mut self, a: NodeId, b: NodeId) -> bool {
        match (
            self.state.expr_lval[a.index()],
            self.state.expr_lval[b.index()],
        ) {
            (Some(la), Some(lb)) => self.state.locs.same(la, lb),
            _ => false,
        }
    }

    /// The abstract location an lvalue expression denotes, if any.
    pub fn lval_loc(&mut self, e: NodeId) -> Option<Loc> {
        self.state.expr_lval[e.index()].map(|l| self.state.locs.find(l))
    }

    /// The pointee location of a pointer-valued expression, if any.
    pub fn pointee(&mut self, e: NodeId) -> Option<Loc> {
        match self.state.expr_ty[e.index()] {
            Some(Ty::Ref(l)) => Some(self.state.locs.find(l)),
            _ => None,
        }
    }
}

/// Runs the plain (hook-free) may-alias analysis over a module.
///
/// # Example
///
/// ```
/// use localias_ast::parse_module;
/// use localias_alias::steensgaard::analyze;
///
/// let m = parse_module("m", "void f(int *p) { int *q = p; *q = 1; }")?;
/// let aliases = analyze(&m);
/// assert!(aliases.state.mismatches.is_empty());
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub fn analyze(m: &Module) -> ModuleAliases {
    let (state, _) = analyze_with(m, NoHooks);
    ModuleAliases { state }
}

/// Runs the typing walk with caller-supplied hooks, returning the final
/// state and the hooks back.
pub fn analyze_with<H: Hooks>(m: &Module, hooks: H) -> (State, H) {
    let mut w = Walker {
        st: State::new(m),
        hooks,
        args: Vec::new(),
    };
    w.module(m);
    (w.st, w.hooks)
}

struct Walker<H: Hooks> {
    st: State,
    hooks: H,
    /// The argument types of the calls being walked, innermost last;
    /// each call reads its own run and truncates it.
    args: Vec<Ty>,
}

impl<H: Hooks> Walker<H> {
    fn module(&mut self, m: &Module) {
        // Pass 0: which names have their address taken anywhere?
        self.collect_addr_taken(m);

        // Pass 1: struct field locations (so field types exist even if a
        // field is used before its struct's textual definition).
        for s in m.structs() {
            for (fname, fty) in &s.fields {
                self.st.field_loc(&s.name.name, &fname.name, Some(fty));
            }
        }

        // Pass 2: globals.
        self.st.push_scope();
        let globals = m.globals().count();
        self.st.globals.reserve(globals);
        for item in &m.items {
            if let ItemKind::Global(g) = &item.kind {
                let ty = self.st.lower(&g.ty);
                // Globals always have addressable storage (one object).
                let l = self
                    .st
                    .locs
                    .fresh_with(ty.clone(), crate::loc::Multiplicity::One);
                let var = self.st.bind(VarInfo {
                    name: g.name.name.clone(),
                    kind: VarKind::Addressed(l),
                    ty,
                    fun: None,
                });
                self.hooks
                    .on_bind(&mut self.st, var, BindSite::Global, g.id);
            }
        }

        // Pass 3: function signatures (defined + extern), so calls in any
        // order unify against shared parameter types.
        self.st.funs.reserve(m.items.len() - globals);
        self.st.param_runs.reserve(m.functions().count());
        for item in &m.items {
            match &item.kind {
                ItemKind::Fun(f) => self.declare_fun(&f.name.name, &f.params, &f.ret, false),
                ItemKind::Extern(e) => self.declare_fun(&e.name.name, &e.params, &e.ret, true),
                _ => {}
            }
        }

        // Pass 4: function bodies.
        for item in &m.items {
            if let ItemKind::Fun(f) = &item.kind {
                self.fun(f);
            }
        }
        self.st.pop_scope();
    }

    fn collect_addr_taken(&mut self, m: &Module) {
        struct Collect<'a>(&'a mut FxSet<Symbol>);
        impl localias_ast::visit::Visitor for Collect<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Unary(UnOp::AddrOf, inner) = &e.kind {
                    if let ExprKind::Var(x) = &inner.kind {
                        self.0.insert(x.name.clone());
                    }
                }
                localias_ast::visit::walk_expr(self, e);
            }
        }
        let mut c = Collect(&mut self.st.addr_taken);
        localias_ast::visit::walk_module(&mut c, m);
    }

    fn declare_fun(&mut self, name: &Symbol, params: &[Param], ret: &TypeExpr, is_extern: bool) {
        if self.st.funs.contains_key(name) {
            return;
        }
        let params = params.iter().map(|p| self.st.lower(&p.ty)).collect();
        let ret = self.st.lower(ret);
        self.st.funs.insert(
            name.clone(),
            FunSig {
                params,
                ret,
                is_extern,
            },
        );
    }

    fn fun(&mut self, f: &FunDef) {
        self.st.current_fun = Some(f.name.name.clone());
        self.hooks.enter_scope(&mut self.st, ScopeKind::Fun(f.id));
        self.st.push_scope();

        // Parameters bind to consecutive variables (hooks cannot bind).
        let name = &f.name.name;
        let first = self.st.vars.len() as u32;
        let bound = self.st.funs[name].params.len().min(f.params.len());
        for (i, p) in f.params[..bound].iter().enumerate() {
            let site = BindSite::Param {
                restrict: p.restrict,
            };
            let sig_ty = self.st.funs[name].params[i].clone();
            let value_ty = self.hooks.bind_ty(&mut self.st, site, sig_ty, f.id);
            let var = self.bind_var(&p.name.name, value_ty);
            self.hooks.on_bind(&mut self.st, var, site, f.id);
        }
        let run = (first, self.st.vars.len() as u32);
        self.st.param_runs.entry(name.clone()).or_insert(run);

        self.block_inner(&f.body);

        self.st.pop_scope();
        self.hooks.exit_scope(&mut self.st, ScopeKind::Fun(f.id));
        self.st.current_fun = None;
    }

    /// Binds a local or parameter of the current function in the
    /// innermost scope. Address-taken variables get a fresh location
    /// whose content is the value type; the rest are registers.
    fn bind_var(&mut self, name: &Symbol, ty: Ty) -> VarId {
        let kind = if self.st.addr_taken.contains(name) {
            let l = self
                .st
                .locs
                .fresh_with(ty.clone(), crate::loc::Multiplicity::One);
            VarKind::Addressed(l)
        } else {
            VarKind::Register
        };
        let fun = self.st.current_fun.clone();
        self.st.bind(VarInfo {
            name: name.clone(),
            kind,
            ty,
            fun,
        })
    }

    fn scoped_block(&mut self, b: &Block, kind: ScopeKind) {
        self.hooks.enter_scope(&mut self.st, kind);
        self.st.push_scope();
        self.block_inner(b);
        self.st.pop_scope();
        self.hooks.exit_scope(&mut self.st, kind);
    }

    fn block_inner(&mut self, b: &Block) {
        let total = b.stmts.len();
        for (i, s) in b.stmts.iter().enumerate() {
            self.hooks.on_stmt_index(&mut self.st, b.id, i, total);
            self.stmt(s);
        }
        self.hooks.on_stmt_index(&mut self.st, b.id, total, total);
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.rval(e);
            }
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => {
                let declared = self.st.lower(ty);
                let init_ty = match init {
                    Some(e) => {
                        let t = self.rval(e);
                        self.st.unify(&declared, &t)
                    }
                    None => declared,
                };
                let site = BindSite::Decl {
                    binding: *binding,
                    has_init: init.is_some(),
                };
                let value_ty = self.hooks.bind_ty(&mut self.st, site, init_ty, s.id);
                let var = self.bind_var(&name.name, value_ty);
                self.hooks.on_bind(&mut self.st, var, site, s.id);
            }
            StmtKind::Restrict { name, init, body } => {
                let init_ty = self.rval(init);
                let site = BindSite::RestrictStmt;
                let value_ty = self.hooks.bind_ty(&mut self.st, site, init_ty, s.id);
                self.hooks
                    .enter_scope(&mut self.st, ScopeKind::RestrictBody(s.id));
                self.st.push_scope();
                let var = self.bind_var(&name.name, value_ty);
                self.hooks.on_bind(&mut self.st, var, site, s.id);
                self.block_inner(body);
                self.st.pop_scope();
                self.hooks
                    .exit_scope(&mut self.st, ScopeKind::RestrictBody(s.id));
            }
            StmtKind::Confine { expr, body } => {
                self.hooks.on_confine_start(&mut self.st, s.id);
                self.rval(expr);
                self.hooks.on_confine_expr(&mut self.st, expr, body, s.id);
                self.scoped_block(body, ScopeKind::ConfineBody(s.id));
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let t = self.rval(cond);
                self.expect_scalar(&t);
                self.scoped_block(then_blk, ScopeKind::Block(then_blk.id));
                if let Some(e) = else_blk {
                    self.scoped_block(e, ScopeKind::Block(e.id));
                }
            }
            StmtKind::While { cond, body, step } => {
                let t = self.rval(cond);
                self.expect_scalar(&t);
                self.scoped_block(body, ScopeKind::Block(body.id));
                if let Some(step) = step {
                    self.rval(step);
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let t = self.rval(e);
                    if let Some(f) = self.st.current_fun.clone() {
                        let ret = self.st.funs[&f].ret.clone();
                        self.st.unify(&ret, &t);
                    }
                }
            }
            // Control transfers have no typing or effect content.
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.scoped_block(b, ScopeKind::Block(b.id)),
        }
    }

    /// Conditions may be ints or pointers (null tests); anything else is a
    /// mismatch.
    fn expect_scalar(&mut self, t: &Ty) {
        match t {
            Ty::Int | Ty::Ref(_) | Ty::Unknown => {}
            other => {
                let other = other.to_string();
                self.st.mismatches.push(TypeMismatch {
                    left: other,
                    right: "scalar".to_string(),
                });
            }
        }
    }

    /// Computes the lvalue location of `e`, or `None` if `e` does not
    /// denote storage (e.g. a register variable or a literal).
    fn lval(&mut self, e: &Expr) -> Option<Loc> {
        let loc = match &e.kind {
            ExprKind::Var(x) => {
                let var = self.resolve(x, e.id)?;
                match self.st.vars[var.index()].kind {
                    VarKind::Addressed(l) => Some(l),
                    VarKind::Register => None,
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let t = self.rval(inner);
                self.deref_loc(&t)
            }
            ExprKind::Index(arr, idx) => {
                let it = self.rval(idx);
                self.st.unify(&it, &Ty::Int);
                let at = self.rval(arr);
                self.deref_loc(&at)
            }
            ExprKind::Field(base, fname) => {
                // Field-based: we need the struct name from the base's
                // type; the base's own storage is irrelevant.
                let bt = self.base_struct_ty(base, false);
                self.struct_field(bt, fname)
            }
            ExprKind::Arrow(base, fname) => {
                let bt = self.base_struct_ty(base, true);
                self.struct_field(bt, fname)
            }
            _ => None,
        };
        if let Some(l) = loc {
            self.st.expr_lval[e.id.index()] = Some(l);
        }
        loc
    }

    /// Type of the struct a field access goes through. `through_ptr` for
    /// `e->f`.
    fn base_struct_ty(&mut self, base: &Expr, through_ptr: bool) -> Option<Symbol> {
        let t = if through_ptr {
            let pt = self.rval(base);
            match self.deref_loc(&pt) {
                Some(l) => {
                    // Reading through the pointer to reach the struct.
                    self.hooks.on_read(&mut self.st, l, base.id);
                    self.st.locs.content(l)
                }
                None => Ty::Unknown,
            }
        } else {
            // `e.f`: evaluate `e` only for its type; a struct-typed
            // lvalue's storage is not read by taking a field.
            match self.lval(base) {
                Some(l) => self.st.locs.content(l),
                None => self.rval(base),
            }
        };
        match t {
            Ty::Struct(s) => Some(s),
            _ => {
                self.st.mismatches.push(TypeMismatch {
                    left: t.to_string(),
                    right: "a struct".to_string(),
                });
                None
            }
        }
    }

    fn struct_field(&mut self, struct_name: Option<Symbol>, fname: &Ident) -> Option<Loc> {
        let s = struct_name?;
        Some(self.st.field_loc(&s, &fname.name, None))
    }

    /// Pointee location of a pointer type, creating a tainted placeholder
    /// for `Unknown` and recording a mismatch otherwise.
    fn deref_loc(&mut self, t: &Ty) -> Option<Loc> {
        match t {
            Ty::Ref(l) => Some(self.st.locs.find(*l)),
            Ty::Unknown => {
                let l = self.st.locs.fresh(Ty::Unknown);
                self.st.locs.taint(l);
                Some(l)
            }
            other => {
                self.st.mismatches.push(TypeMismatch {
                    left: other.to_string(),
                    right: "a pointer".to_string(),
                });
                None
            }
        }
    }

    fn resolve(&mut self, x: &Ident, at: NodeId) -> Option<VarId> {
        match self.st.lookup(&x.name) {
            Some(v) => {
                self.st.var_of_expr[at.index()] = Some(v);
                Some(v)
            }
            None => {
                self.st.mismatches.push(TypeMismatch {
                    left: format!("unbound variable `{}`", x.name),
                    right: "a binding".to_string(),
                });
                None
            }
        }
    }

    /// Evaluates `e` for its value, recording its type and emitting
    /// read/write/alloc hook events.
    fn rval(&mut self, e: &Expr) -> Ty {
        if let Some(ty) = self.hooks.intercept_expr(&mut self.st, e) {
            return self.st.set_ty(e, ty);
        }
        let ty = match &e.kind {
            ExprKind::Int(_) => Ty::Int,
            ExprKind::Var(x) => match self.resolve(x, e.id) {
                Some(v) => {
                    let info = self.st.vars[v.index()].clone();
                    match info.kind {
                        VarKind::Register => info.ty,
                        VarKind::Addressed(l) => {
                            self.st.expr_lval[e.id.index()] = Some(l);
                            self.hooks.on_read(&mut self.st, l, e.id);
                            self.st.locs.content(l)
                        }
                    }
                }
                None => Ty::Unknown,
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                let t = self.rval(inner);
                match self.deref_loc(&t) {
                    Some(l) => {
                        self.st.expr_lval[e.id.index()] = Some(l);
                        self.hooks.on_read(&mut self.st, l, e.id);
                        self.st.locs.content(l)
                    }
                    None => Ty::Unknown,
                }
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => match self.lval(inner) {
                Some(l) => Ty::Ref(l),
                None => {
                    self.st.mismatches.push(TypeMismatch {
                        left: "&<non-lvalue>".to_string(),
                        right: "an lvalue".to_string(),
                    });
                    Ty::Unknown
                }
            },
            ExprKind::Unary(UnOp::Neg | UnOp::Not, inner) => {
                let t = self.rval(inner);
                self.st.unify(&t, &Ty::Int);
                Ty::Int
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.rval(a);
                let tb = self.rval(b);
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        // Pointer comparisons are allowed and do *not*
                        // unify their operands (comparing is not aliasing).
                        match (&ta, &tb) {
                            (Ty::Ref(_), Ty::Ref(_)) => {}
                            _ => {
                                self.st.unify(&ta, &Ty::Int);
                                self.st.unify(&tb, &Ty::Int);
                            }
                        }
                    }
                    _ => {
                        self.st.unify(&ta, &Ty::Int);
                        self.st.unify(&tb, &Ty::Int);
                    }
                }
                Ty::Int
            }
            ExprKind::Assign(lhs, rhs) => {
                let rt = self.rval(rhs);
                match &lhs.kind {
                    // Assignment to a register variable updates its value
                    // type but is not a location effect.
                    ExprKind::Var(x) => match self.resolve(x, lhs.id) {
                        Some(v) => {
                            let info = self.st.vars[v.index()].clone();
                            match info.kind {
                                VarKind::Register => {
                                    let merged = self.st.unify(&info.ty, &rt);
                                    self.st.vars[v.index()].ty = merged.clone();
                                    merged
                                }
                                VarKind::Addressed(l) => {
                                    self.st.expr_lval[lhs.id.index()] = Some(l);
                                    let content = self.st.locs.content(l);
                                    let merged = self.st.unify(&content, &rt);
                                    self.st.locs.set_content(l, merged.clone());
                                    self.hooks.on_write(&mut self.st, l, e.id);
                                    merged
                                }
                            }
                        }
                        None => Ty::Unknown,
                    },
                    _ => match self.lval(lhs) {
                        Some(l) => {
                            let content = self.st.locs.content(l);
                            let merged = self.st.unify(&content, &rt);
                            self.st.locs.set_content(l, merged.clone());
                            self.hooks.on_write(&mut self.st, l, e.id);
                            merged
                        }
                        None => {
                            self.st.mismatches.push(TypeMismatch {
                                left: "assignment target".to_string(),
                                right: "an lvalue".to_string(),
                            });
                            rt
                        }
                    },
                }
            }
            ExprKind::Call(f, args) => self.call(f, args, e.id),
            ExprKind::Index(arr, idx) => {
                let it = self.rval(idx);
                self.st.unify(&it, &Ty::Int);
                let at = self.rval(arr);
                match self.deref_loc(&at) {
                    Some(l) => {
                        self.st.expr_lval[e.id.index()] = Some(l);
                        self.hooks.on_read(&mut self.st, l, e.id);
                        self.st.locs.content(l)
                    }
                    None => Ty::Unknown,
                }
            }
            ExprKind::Field(base, fname) => {
                let bt = self.base_struct_ty(base, false);
                match self.struct_field(bt, fname) {
                    Some(l) => {
                        self.st.expr_lval[e.id.index()] = Some(l);
                        self.hooks.on_read(&mut self.st, l, e.id);
                        self.st.locs.content(l)
                    }
                    None => Ty::Unknown,
                }
            }
            ExprKind::Arrow(base, fname) => {
                let bt = self.base_struct_ty(base, true);
                match self.struct_field(bt, fname) {
                    Some(l) => {
                        self.st.expr_lval[e.id.index()] = Some(l);
                        self.hooks.on_read(&mut self.st, l, e.id);
                        self.st.locs.content(l)
                    }
                    None => Ty::Unknown,
                }
            }
            ExprKind::New(init) => {
                let t = self.rval(init);
                // An allocation site may execute many times.
                let l = self.st.locs.fresh_with(t, crate::loc::Multiplicity::Many);
                self.hooks.on_alloc(&mut self.st, l, e.id);
                Ty::Ref(l)
            }
            ExprKind::Cast(ty, inner) => {
                let src = self.rval(inner);
                let dst = self.st.lower(ty);
                // Compatible casts unify cleanly; incompatible ones record
                // a mismatch and taint — losing the ability to restrict or
                // confine anything laundered through the cast.
                self.st.unify(&src, &dst)
            }
        };
        let ty = self.hooks.after_expr(&mut self.st, e, ty);
        self.st.set_ty(e, ty)
    }

    fn call(&mut self, f: &Ident, args: &[Expr], at: NodeId) -> Ty {
        let base = self.args.len();
        for a in args {
            let t = self.rval(a);
            self.args.push(t);
        }
        let ret = self.call_with(f, base, at);
        self.args.truncate(base);
        ret
    }

    /// Types a call to `f` whose argument types are `self.args[base..]`.
    fn call_with(&mut self, f: &Ident, base: usize, at: NodeId) -> Ty {
        let arg_tys = &self.args[base..];
        if localias_ast::intrinsics::is_change_type(&f.name) {
            // change_type(e): writes the lock state at e's pointee.
            for t in arg_tys {
                if let Ty::Ref(l) = t {
                    let l = self.st.locs.find(*l);
                    let content = self.st.locs.content(l);
                    self.st.unify(&content, &Ty::Lock);
                    let merged = self.st.locs.content(l);
                    self.st.locs.set_content(l, merged);
                    self.hooks.on_write(&mut self.st, l, at);
                } else {
                    self.st.mismatches.push(TypeMismatch {
                        left: t.to_string(),
                        right: "lock*".to_string(),
                    });
                }
            }
            return Ty::Void;
        }
        let st = &mut self.st;
        let sig = st.funs.entry(f.name.clone()).or_insert_with(|| FunSig {
            // Implicit extern: parameters adopt the argument types; the
            // return type is unknown.
            params: arg_tys.to_vec(),
            ret: Ty::Unknown,
            is_extern: true,
        });
        if sig.params.len() != arg_tys.len() {
            st.mismatches.push(TypeMismatch {
                left: format!("{} arguments to `{}`", arg_tys.len(), f.name),
                right: format!("{}", sig.params.len()),
            });
        }
        for (a, p) in arg_tys.iter().zip(&sig.params) {
            unify(&mut st.locs, a, p, &mut st.mismatches);
        }
        let (ret, is_extern) = (sig.ret.clone(), sig.is_extern);
        if !is_extern {
            self.hooks.on_call(&mut self.st, &f.name, at);
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;
    use localias_ast::visit::{walk_module, Visitor};

    /// Finds the first expression satisfying `pred` in source order.
    fn find_expr(m: &Module, pred: impl Fn(&Expr) -> bool) -> NodeId {
        struct Find<F> {
            pred: F,
            found: Option<NodeId>,
        }
        impl<F: Fn(&Expr) -> bool> Visitor for Find<F> {
            fn visit_expr(&mut self, e: &Expr) {
                if self.found.is_none() && (self.pred)(e) {
                    self.found = Some(e.id);
                }
                localias_ast::visit::walk_expr(self, e);
            }
        }
        let mut f = Find { pred, found: None };
        walk_module(&mut f, m);
        f.found.expect("expression not found")
    }

    fn deref_of(m: &Module, name: &str) -> NodeId {
        find_expr(m, |e| match &e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => {
                matches!(&inner.kind, ExprKind::Var(x) if x.name == name)
            }
            _ => false,
        })
    }

    #[test]
    fn copies_alias() {
        let m = parse_module("m", "void f(int *p) { int *q = p; *p = 1; *q = 2; }").unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let dq = deref_of(&m, "q");
        assert!(a.may_alias(dp, dq));
        assert!(a.state.mismatches.is_empty());
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let m = parse_module(
            "m",
            "void f() { int *p = new 0; int *q = new 0; *p = 1; *q = 2; }",
        )
        .unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let dq = deref_of(&m, "q");
        assert!(!a.may_alias(dp, dq));
    }

    #[test]
    fn assignment_unifies() {
        let m = parse_module(
            "m",
            "void f() { int *p = new 0; int *q = new 1; q = p; *p = 1; *q = 2; }",
        )
        .unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let dq = deref_of(&m, "q");
        assert!(a.may_alias(dp, dq), "q = p must unify pointees");
    }

    #[test]
    fn array_elements_collapse() {
        let m = parse_module(
            "m",
            "lock locks[8]; void f(int i, int j) { spin_lock(&locks[i]); spin_lock(&locks[j]); }",
        )
        .unwrap();
        let mut a = analyze(&m);
        struct Idx(Vec<NodeId>);
        impl Visitor for Idx {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(e.kind, ExprKind::Index(_, _)) {
                    self.0.push(e.id);
                }
                localias_ast::visit::walk_expr(self, e);
            }
        }
        let mut v = Idx(Vec::new());
        walk_module(&mut v, &m);
        assert_eq!(v.0.len(), 2);
        assert!(
            a.may_alias(v.0[0], v.0[1]),
            "all elements of a lock array share one location"
        );
    }

    #[test]
    fn calls_unify_args_with_params() {
        let m = parse_module(
            "m",
            r#"
            int g;
            void callee(int *x) { *x = 1; }
            void caller() { int *p = &g; callee(p); *p = 2; }
            "#,
        )
        .unwrap();
        let mut a = analyze(&m);
        let dx = deref_of(&m, "x");
        let dp = deref_of(&m, "p");
        assert!(a.may_alias(dx, dp));
    }

    #[test]
    fn struct_fields_are_field_based() {
        let m = parse_module(
            "m",
            r#"
            struct dev { lock mu; int n; };
            struct dev a;
            struct dev b;
            void f() { a.n = 1; b.n = 2; a.mu; }
            "#,
        )
        .unwrap();
        let mut an = analyze(&m);
        struct Fields(Vec<(String, NodeId)>);
        impl Visitor for Fields {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Field(_, f) = &e.kind {
                    self.0.push((f.name.to_string(), e.id));
                }
                localias_ast::visit::walk_expr(self, e);
            }
        }
        let mut v = Fields(Vec::new());
        walk_module(&mut v, &m);
        let ns: Vec<NodeId> =
            v.0.iter()
                .filter(|(n, _)| n == "n")
                .map(|&(_, id)| id)
                .collect();
        let mu: Vec<NodeId> =
            v.0.iter()
                .filter(|(n, _)| n == "mu")
                .map(|&(_, id)| id)
                .collect();
        assert!(an.may_alias(ns[0], ns[1]), "field-based: a.n aliases b.n");
        assert!(!an.may_alias(ns[0], mu[0]), "different fields do not alias");
    }

    #[test]
    fn registers_have_no_storage() {
        let m = parse_module("m", "void f(int x) { x = 3; }").unwrap();
        let mut a = analyze(&m);
        let lhs = find_expr(&m, |e| matches!(&e.kind, ExprKind::Var(v) if v.name == "x"));
        assert_eq!(a.lval_loc(lhs), None);
    }

    #[test]
    fn address_taken_locals_get_storage() {
        let m = parse_module("m", "void f() { int x = 0; int *p = &x; *p = 1; x = 2; }").unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        // *p and x share storage.
        let x_use = find_expr(
            &m,
            |e| matches!(&e.kind, ExprKind::Var(v) if v.name == "x" && e.span != localias_ast::Span::DUMMY),
        );
        let _ = x_use;
        let lx = a.state.vars.iter().position(|v| v.name == "x").unwrap();
        match a.state.vars[lx].kind {
            VarKind::Addressed(l) => {
                let dl = a.lval_loc(dp).unwrap();
                let l = a.state.locs.find(l);
                assert_eq!(dl, l);
            }
            VarKind::Register => panic!("x must be addressed"),
        }
    }

    #[test]
    fn incompatible_cast_taints() {
        let m = parse_module("m", "void f(lock *l) { int x = (int) l; spin_lock(l); }").unwrap();
        let mut a = analyze(&m);
        assert!(!a.state.mismatches.is_empty());
        let dl = find_expr(&m, |e| matches!(&e.kind, ExprKind::Var(v) if v.name == "l"));
        if let Some(Ty::Ref(loc)) = a.state.expr_ty[dl.index()].clone() {
            assert!(a.state.locs.is_tainted(loc));
        } else {
            panic!("l should be a pointer");
        }
    }

    #[test]
    fn compatible_pointer_cast_keeps_tracking() {
        let m = parse_module("m", "void f(int *p) { int *q = (int*) p; *q = 1; *p = 2; }").unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let dq = deref_of(&m, "q");
        assert!(a.may_alias(dp, dq));
        assert!(a.state.mismatches.is_empty());
    }

    #[test]
    fn unbound_variable_reports_mismatch() {
        let m = parse_module("m", "void f() { zz = 1; }").unwrap();
        let a = analyze(&m);
        assert!(a
            .state
            .mismatches
            .iter()
            .any(|e| e.left.contains("unbound")));
    }

    #[test]
    fn restrict_stmt_in_plain_analysis_degrades_to_let() {
        // Without core's hooks, restrict behaves like let: aliases merge.
        let m = parse_module("m", "void f(int *q) { restrict p = q { *p = 1; } *q = 2; }").unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let dq = deref_of(&m, "q");
        assert!(a.may_alias(dp, dq));
    }

    #[test]
    fn arrow_field_access() {
        let m = parse_module(
            "m",
            r#"
            struct dev { lock mu; };
            void f(struct dev *d, struct dev *e) { spin_lock(&d->mu); spin_lock(&e->mu); }
            "#,
        )
        .unwrap();
        let mut a = analyze(&m);
        struct Mu(Vec<NodeId>);
        impl Visitor for Mu {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(&e.kind, ExprKind::Arrow(_, f) if f.name == "mu") {
                    self.0.push(e.id);
                }
                localias_ast::visit::walk_expr(self, e);
            }
        }
        let mut v = Mu(Vec::new());
        walk_module(&mut v, &m);
        assert!(a.may_alias(v.0[0], v.0[1]), "field-based ->mu conflates");
    }

    #[test]
    fn return_unifies_with_signature() {
        let m = parse_module(
            "m",
            r#"
            int g;
            int *get() { return &g; }
            void f() { int *p = get(); *p = 1; }
            "#,
        )
        .unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        let g_loc = {
            let v = a.state.vars.iter().position(|v| v.name == "g").unwrap();
            match a.state.vars[v].kind {
                VarKind::Addressed(l) => a.state.locs.find(l),
                _ => panic!("global must be addressed"),
            }
        };
        assert_eq!(a.lval_loc(dp), Some(g_loc));
    }
}
