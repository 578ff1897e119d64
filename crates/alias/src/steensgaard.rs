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

use crate::fx::FxMap;
use crate::loc::{Loc, LocTable};
use crate::ty::{unify, Ty, TypeMismatch};
use localias_ast::{
    BinOp, BindingKind, BlockId, Expr, ExprId, ExprKind, ExprList, FunDef, Ident, ItemKind, Module,
    Names, NodeId, ParamList, Stmt, StmtKind, Symbol, TypeExpr, TypeKind, UnOp,
};
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy)]
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

/// What the typing walk learned about one expression: an entry of
/// [`State::exprs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprInfo {
    /// The expression's value type.
    pub ty: Option<Ty>,
    /// The location it denotes, for an expression that denotes storage.
    pub lval: Option<Loc>,
    /// The variable a `Var` expression resolved to.
    pub var: Option<VarId>,
}

/// What the typing walk knows about one of the module's names.
#[derive(Debug, Clone, Copy, Default)]
struct NameInfo {
    /// The global the name binds.
    global: Option<VarId>,
    /// The signature of the function the name declares, or of the
    /// implicit extern a call to it met.
    sig: Option<FunSig>,
    /// For a defined function, the run of [`State::vars`] its parameters
    /// were bound to, in declaration order ([`State::param_vars`]). For
    /// duplicate definitions the first body wins, matching the variable
    /// table's scan order.
    params: Option<(u32, u32)>,
    /// Whether the name's address is taken somewhere in the module.
    addr_taken: bool,
}

/// The signature of a defined or extern function.
#[derive(Debug, Clone, Copy)]
pub struct FunSig {
    /// The run of the state's parameter-type array holding this
    /// signature's parameter value types ([`State::params`]), shared
    /// across all call sites — the analysis is context-insensitive, like
    /// the paper's.
    params: (u32, u32),
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
    /// What the walk learned about each expression, indexed by
    /// [`ExprId::index`].
    pub exprs: Vec<ExprInfo>,
    /// All variable bindings.
    pub vars: Vec<VarInfo>,
    /// Field-based field locations: `(struct name, field name) → loc`.
    pub fields: FxMap<(Symbol, Symbol), Loc>,
    /// What the walk knows about each name, indexed by [`Symbol::index`]:
    /// the module scope's bindings, function signatures and parameter
    /// runs, and address-taken names.
    names: Vec<NameInfo>,
    /// Every signature's parameter value types, one run per [`FunSig`]
    /// in declaration order (implicit externs last, as calls meet them).
    param_tys: Vec<Ty>,
    /// Type mismatches found (standard typing errors; the analyses treat
    /// the involved locations as tainted rather than aborting).
    pub mismatches: Vec<TypeMismatch>,
    /// The bindings of the open local scopes, innermost last: a lookup
    /// scans back from the end, so a later binding hides an earlier one.
    locals: Vec<(Symbol, VarId)>,
    /// Where each open scope starts in `locals`; the first is the
    /// module scope, whose bindings go to `names`.
    scopes: Vec<usize>,
    /// Current function name during body walks.
    current_fun: Option<Symbol>,
    /// The module's name table, to print mismatched struct types.
    module_names: Arc<Names>,
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
            exprs: vec![ExprInfo::default(); m.expr_count()],
            vars: Vec::with_capacity(n / 16),
            fields: FxMap::default(),
            names: vec![NameInfo::default(); m.names().len()],
            param_tys: Vec::new(),
            mismatches: Vec::new(),
            locals: Vec::new(),
            scopes: Vec::new(),
            current_fun: None,
            module_names: Arc::clone(m.names()),
        }
    }

    /// Lowers a syntactic type of `m` to an analysis type, creating fresh
    /// locations for pointer/array structure.
    fn lower(&mut self, m: &Module, ty: TypeExpr) -> Ty {
        match m.ty(ty) {
            TypeKind::Int => Ty::Int,
            TypeKind::Lock => Ty::Lock,
            TypeKind::Void => Ty::Void,
            TypeKind::Struct(s) => Ty::Struct(s),
            TypeKind::Ptr(inner) => {
                let content = self.lower(m, inner);
                Ty::Ref(self.locs.fresh(content))
            }
            TypeKind::Array(elem, _) => {
                // Arrays collapse: the declared object's value is a
                // pointer to the single element location, which stands for
                // many concrete objects.
                let content = self.lower(m, elem);
                Ty::Ref(
                    self.locs
                        .fresh_with(content, crate::loc::Multiplicity::Many),
                )
            }
        }
    }

    /// The field location for `(struct_name, field)`, creating it (with
    /// content lowered from `ty` of `m`) on first use.
    fn field_loc(
        &mut self,
        m: &Module,
        struct_name: Symbol,
        field: Symbol,
        ty: Option<TypeExpr>,
    ) -> Loc {
        let key = (struct_name, field);
        if let Some(&l) = self.fields.get(&key) {
            return l;
        }
        let content = match ty {
            Some(t) => self.lower(m, t),
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
    }

    fn bind(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        match self.scopes.len() {
            0 => panic!("bind outside any scope"),
            1 => self.names[info.name.index()].global = Some(id),
            _ => self.locals.push((info.name, id)),
        }
        self.vars.push(info);
        id
    }

    fn lookup(&self, name: Symbol) -> Option<VarId> {
        match self.locals.iter().rev().find(|&&(n, _)| n == name) {
            Some(&(_, id)) => Some(id),
            None => self.names[name.index()].global,
        }
    }

    /// The signature of function `name`, defined, extern or met as an
    /// implicit extern at a call.
    pub fn sig(&self, name: Symbol) -> Option<&FunSig> {
        self.names[name.index()].sig.as_ref()
    }

    /// Every signature, in name order.
    pub(crate) fn sigs(&self) -> impl Iterator<Item = &FunSig> {
        self.names.iter().filter_map(|n| n.sig.as_ref())
    }

    /// `sig`'s parameter value types, in declaration order.
    pub fn params(&self, sig: &FunSig) -> &[Ty] {
        &self.param_tys[sig.params.0 as usize..sig.params.1 as usize]
    }

    /// The parameter variables of defined function `fun`, in declaration
    /// order. Their types are the *bound* parameter value types — the
    /// types after any binding hooks ran (a restrict parameter's pointee
    /// is its fresh ρ′, not the signature's ρ).
    pub fn param_vars(&self, fun: Symbol) -> Option<&[VarInfo]> {
        let (start, end) = self.names[fun.index()].params?;
        Some(&self.vars[start as usize..end as usize])
    }

    /// Records and returns the value type of expression `e`.
    fn set_ty(&mut self, e: ExprId, ty: Ty) -> Ty {
        self.exprs[e.index()].ty = Some(ty);
        ty
    }

    /// Unifies, collecting mismatches into the state.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Ty {
        let (names, mismatches) = (&self.module_names, &mut self.mismatches);
        unify(&mut self.locs, a, b, &mut |x, y| {
            mismatches.push(TypeMismatch::between(names, x, y))
        })
    }

    /// Records a mismatch of `found` against what the walk `expected`.
    fn mismatch(&mut self, found: &Ty, expected: &str) {
        self.mismatches.push(TypeMismatch {
            left: found.show(&self.module_names).to_string(),
            right: expected.to_string(),
        });
    }

    /// The function whose body is currently being walked (available to
    /// hooks).
    pub fn current_fun(&self) -> Option<Symbol> {
        self.current_fun
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
    fn on_call(&mut self, st: &mut State, callee: Symbol, at: NodeId) {}
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
    fn on_confine_expr(&mut self, st: &mut State, expr: ExprId, body: BlockId, at: NodeId) {}
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
    pub fn may_alias(&mut self, a: ExprId, b: ExprId) -> bool {
        match (
            self.state.exprs[a.index()].lval,
            self.state.exprs[b.index()].lval,
        ) {
            (Some(la), Some(lb)) => self.state.locs.same(la, lb),
            _ => false,
        }
    }

    /// The abstract location an lvalue expression denotes, if any.
    pub fn lval_loc(&mut self, e: ExprId) -> Option<Loc> {
        self.state.exprs[e.index()]
            .lval
            .map(|l| self.state.locs.find(l))
    }

    /// The pointee location of a pointer-valued expression, if any.
    pub fn pointee(&mut self, e: ExprId) -> Option<Loc> {
        match self.state.exprs[e.index()].ty {
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
        m,
        st: State::new(m),
        hooks,
        args: Vec::new(),
    };
    w.module();
    (w.st, w.hooks)
}

struct Walker<'m, H: Hooks> {
    m: &'m Module,
    st: State,
    hooks: H,
    /// The argument types of the calls being walked, innermost last;
    /// each call reads its own run and truncates it.
    args: Vec<Ty>,
}

impl<H: Hooks> Walker<'_, H> {
    fn module(&mut self) {
        let m = self.m;
        // Pass 0: which names have their address taken anywhere?
        self.collect_addr_taken();

        // Pass 1: struct field locations (so field types exist even if a
        // field is used before its struct's textual definition).
        for s in m.structs() {
            for &(fname, fty) in &s.fields {
                self.st.field_loc(m, s.name.name, fname.name, Some(fty));
            }
        }

        // Pass 2: globals.
        self.st.push_scope();
        for item in &m.items {
            if let ItemKind::Global(g) = &item.kind {
                let ty = self.st.lower(m, g.ty);
                // Globals always have addressable storage (one object).
                let l = self.st.locs.fresh_with(ty, crate::loc::Multiplicity::One);
                let var = self.st.bind(VarInfo {
                    name: g.name.name,
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
        let params = m.items.iter().map(|item| match &item.kind {
            ItemKind::Fun(f) => f.params.len(),
            ItemKind::Extern(e) => e.params.len(),
            _ => 0,
        });
        self.st.param_tys.reserve(params.sum());
        for item in &m.items {
            match &item.kind {
                ItemKind::Fun(f) => self.declare_fun(f.name.name, f.params, f.ret, false),
                ItemKind::Extern(e) => self.declare_fun(e.name.name, e.params, e.ret, true),
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

    fn collect_addr_taken(&mut self) {
        struct Collect<'a>(&'a mut [NameInfo]);
        impl localias_ast::visit::Visitor for Collect<'_> {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if let ExprKind::Unary(UnOp::AddrOf, inner) = e.kind {
                    if let ExprKind::Var(x) = m.expr(inner).kind {
                        self.0[x.name.index()].addr_taken = true;
                    }
                }
                localias_ast::visit::walk_expr(self, m, e);
            }
        }
        let mut c = Collect(&mut self.st.names);
        localias_ast::visit::walk_module(&mut c, self.m);
    }

    fn declare_fun(&mut self, name: Symbol, params: ParamList, ret: TypeExpr, is_extern: bool) {
        let m = self.m;
        if self.st.names[name.index()].sig.is_some() {
            return;
        }
        let first = self.st.param_tys.len() as u32;
        for p in m.params(params) {
            let ty = self.st.lower(m, p.ty);
            self.st.param_tys.push(ty);
        }
        let params = (first, self.st.param_tys.len() as u32);
        let ret = self.st.lower(m, ret);
        self.st.names[name.index()].sig = Some(FunSig {
            params,
            ret,
            is_extern,
        });
    }

    fn fun(&mut self, f: &FunDef) {
        let name = f.name.name;
        self.st.current_fun = Some(name);
        self.hooks.enter_scope(&mut self.st, ScopeKind::Fun(f.id));
        self.st.push_scope();

        // Parameters bind to consecutive variables (hooks cannot bind).
        let first = self.st.vars.len() as u32;
        let (sig_first, sig_end) = self.st.sig(name).expect("declared in pass 3").params;
        let bound = ((sig_end - sig_first) as usize).min(f.params.len());
        for (i, p) in self.m.params(f.params)[..bound].iter().enumerate() {
            let site = BindSite::Param {
                restrict: p.restrict,
            };
            let sig_ty = self.st.param_tys[sig_first as usize + i];
            let value_ty = self.hooks.bind_ty(&mut self.st, site, sig_ty, f.id);
            let var = self.bind_var(p.name.name, value_ty);
            self.hooks.on_bind(&mut self.st, var, site, f.id);
        }
        let run = (first, self.st.vars.len() as u32);
        self.st.names[name.index()].params.get_or_insert(run);

        self.block_inner(f.body);

        self.st.pop_scope();
        self.hooks.exit_scope(&mut self.st, ScopeKind::Fun(f.id));
        self.st.current_fun = None;
    }

    /// Binds a local or parameter of the current function in the
    /// innermost scope. Address-taken variables get a fresh location
    /// whose content is the value type; the rest are registers.
    fn bind_var(&mut self, name: Symbol, ty: Ty) -> VarId {
        let kind = if self.st.names[name.index()].addr_taken {
            let l = self.st.locs.fresh_with(ty, crate::loc::Multiplicity::One);
            VarKind::Addressed(l)
        } else {
            VarKind::Register
        };
        let fun = self.st.current_fun;
        self.st.bind(VarInfo {
            name,
            kind,
            ty,
            fun,
        })
    }

    /// Walks a plain block (a branch, a loop body or `{ ... }`) in a
    /// scope of its own.
    fn plain_block(&mut self, b: BlockId) {
        let kind = ScopeKind::Block(self.m.block(b).id);
        self.scoped_block(b, kind);
    }

    fn scoped_block(&mut self, b: BlockId, kind: ScopeKind) {
        self.hooks.enter_scope(&mut self.st, kind);
        self.st.push_scope();
        self.block_inner(b);
        self.st.pop_scope();
        self.hooks.exit_scope(&mut self.st, kind);
    }

    fn block_inner(&mut self, b: BlockId) {
        let m = self.m;
        let (id, stmts) = (m.block(b).id, m.stmts(b));
        let total = stmts.len();
        for (i, s) in stmts.enumerate() {
            self.hooks.on_stmt_index(&mut self.st, id, i, total);
            self.stmt(s);
        }
        self.hooks.on_stmt_index(&mut self.st, id, total, total);
    }

    fn stmt(&mut self, s: &Stmt) {
        match s.kind {
            StmtKind::Expr(e) => {
                self.rval(e);
            }
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => {
                let declared = self.st.lower(self.m, ty);
                let init_ty = match init {
                    Some(e) => {
                        let t = self.rval(e);
                        self.st.unify(&declared, &t)
                    }
                    None => declared,
                };
                let site = BindSite::Decl {
                    binding,
                    has_init: init.is_some(),
                };
                let value_ty = self.hooks.bind_ty(&mut self.st, site, init_ty, s.id);
                let var = self.bind_var(name.name, value_ty);
                self.hooks.on_bind(&mut self.st, var, site, s.id);
            }
            StmtKind::Restrict { name, init, body } => {
                let init_ty = self.rval(init);
                let site = BindSite::RestrictStmt;
                let value_ty = self.hooks.bind_ty(&mut self.st, site, init_ty, s.id);
                self.hooks
                    .enter_scope(&mut self.st, ScopeKind::RestrictBody(s.id));
                self.st.push_scope();
                let var = self.bind_var(name.name, value_ty);
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
                self.plain_block(then_blk);
                if let Some(e) = else_blk {
                    self.plain_block(e);
                }
            }
            StmtKind::While { cond, body, step } => {
                let t = self.rval(cond);
                self.expect_scalar(&t);
                self.plain_block(body);
                if let Some(step) = step {
                    self.rval(step);
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let t = self.rval(e);
                    if let Some(sig) = self.st.current_fun.and_then(|f| self.st.sig(f)) {
                        let ret = sig.ret;
                        self.st.unify(&ret, &t);
                    }
                }
            }
            // Control transfers have no typing or effect content.
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.plain_block(b),
        }
    }

    /// Conditions may be ints or pointers (null tests); anything else is a
    /// mismatch.
    fn expect_scalar(&mut self, t: &Ty) {
        match t {
            Ty::Int | Ty::Ref(_) | Ty::Unknown => {}
            other => self.st.mismatch(other, "scalar"),
        }
    }

    /// Computes the lvalue location of expression `id`, or `None` if it
    /// does not denote storage (e.g. a register variable or a literal).
    fn lval(&mut self, id: ExprId) -> Option<Loc> {
        let m = self.m;
        let e = m.expr(id);
        let loc = match e.kind {
            ExprKind::Var(x) => {
                let var = self.resolve(x, id)?;
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
            self.st.exprs[id.index()].lval = Some(l);
        }
        loc
    }

    /// Type of the struct a field access goes through. `through_ptr` for
    /// `e->f`.
    fn base_struct_ty(&mut self, base: ExprId, through_ptr: bool) -> Option<Symbol> {
        let t = if through_ptr {
            let pt = self.rval(base);
            match self.deref_loc(&pt) {
                Some(l) => {
                    // Reading through the pointer to reach the struct.
                    self.hooks.on_read(&mut self.st, l, self.m.expr(base).id);
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
                self.st.mismatch(&t, "a struct");
                None
            }
        }
    }

    fn struct_field(&mut self, struct_name: Option<Symbol>, fname: Ident) -> Option<Loc> {
        let s = struct_name?;
        Some(self.st.field_loc(self.m, s, fname.name, None))
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
                self.st.mismatch(other, "a pointer");
                None
            }
        }
    }

    fn resolve(&mut self, x: Ident, at: ExprId) -> Option<VarId> {
        match self.st.lookup(x.name) {
            Some(v) => {
                self.st.exprs[at.index()].var = Some(v);
                Some(v)
            }
            None => {
                self.st.mismatches.push(TypeMismatch {
                    left: format!("unbound variable `{}`", self.m.name(x.name)),
                    right: "a binding".to_string(),
                });
                None
            }
        }
    }

    /// Evaluates expression `id` for its value, recording its type and
    /// emitting read/write/alloc hook events.
    fn rval(&mut self, id: ExprId) -> Ty {
        let m = self.m;
        let e = m.expr(id);
        if let Some(ty) = self.hooks.intercept_expr(&mut self.st, e) {
            return self.st.set_ty(id, ty);
        }
        let ty = match e.kind {
            ExprKind::Int(_) => Ty::Int,
            ExprKind::Var(x) => match self.resolve(x, id) {
                Some(v) => match self.st.vars[v.index()].kind {
                    VarKind::Register => self.st.vars[v.index()].ty,
                    VarKind::Addressed(l) => {
                        self.st.exprs[id.index()].lval = Some(l);
                        self.hooks.on_read(&mut self.st, l, e.id);
                        self.st.locs.content(l)
                    }
                },
                None => Ty::Unknown,
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                let t = self.rval(inner);
                match self.deref_loc(&t) {
                    Some(l) => {
                        self.st.exprs[id.index()].lval = Some(l);
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
                match m.expr(lhs).kind {
                    // Assignment to a register variable updates its value
                    // type but is not a location effect.
                    ExprKind::Var(x) => match self.resolve(x, lhs) {
                        Some(v) => match self.st.vars[v.index()].kind {
                            VarKind::Register => {
                                let var_ty = self.st.vars[v.index()].ty;
                                let merged = self.st.unify(&var_ty, &rt);
                                self.st.vars[v.index()].ty = merged;
                                merged
                            }
                            VarKind::Addressed(l) => {
                                self.st.exprs[lhs.index()].lval = Some(l);
                                let content = self.st.locs.content(l);
                                let merged = self.st.unify(&content, &rt);
                                self.st.locs.set_content(l, merged);
                                self.hooks.on_write(&mut self.st, l, e.id);
                                merged
                            }
                        },
                        None => Ty::Unknown,
                    },
                    _ => match self.lval(lhs) {
                        Some(l) => {
                            let content = self.st.locs.content(l);
                            let merged = self.st.unify(&content, &rt);
                            self.st.locs.set_content(l, merged);
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
                        self.st.exprs[id.index()].lval = Some(l);
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
                        self.st.exprs[id.index()].lval = Some(l);
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
                        self.st.exprs[id.index()].lval = Some(l);
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
                let dst = self.st.lower(m, ty);
                // Compatible casts unify cleanly; incompatible ones record
                // a mismatch and taint — losing the ability to restrict or
                // confine anything laundered through the cast.
                self.st.unify(&src, &dst)
            }
        };
        let ty = self.hooks.after_expr(&mut self.st, e, ty);
        self.st.set_ty(id, ty)
    }

    fn call(&mut self, f: Ident, args: ExprList, at: NodeId) -> Ty {
        let base = self.args.len();
        for &a in self.m.arg_ids(args) {
            let t = self.rval(a);
            self.args.push(t);
        }
        let ret = self.call_with(f, base, at);
        self.args.truncate(base);
        ret
    }

    /// Types a call to `f` whose argument types are `self.args[base..]`.
    fn call_with(&mut self, f: Ident, base: usize, at: NodeId) -> Ty {
        let arg_tys = &self.args[base..];
        if f.name.is_change_type() {
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
                    self.st.mismatch(t, "lock*");
                }
            }
            return Ty::Void;
        }
        let st = &mut self.st;
        let sig = match st.names[f.name.index()].sig {
            Some(sig) => sig,
            None => {
                // Implicit extern: parameters adopt the argument types;
                // the return type is unknown.
                let first = st.param_tys.len() as u32;
                st.param_tys.extend_from_slice(arg_tys);
                let sig = FunSig {
                    params: (first, st.param_tys.len() as u32),
                    ret: Ty::Unknown,
                    is_extern: true,
                };
                st.names[f.name.index()].sig = Some(sig);
                sig
            }
        };
        let (first, end) = sig.params;
        if (end - first) as usize != arg_tys.len() {
            st.mismatches.push(TypeMismatch {
                left: format!("{} arguments to `{}`", arg_tys.len(), self.m.name(f.name)),
                right: format!("{}", end - first),
            });
        }
        for i in 0..arg_tys.len().min((end - first) as usize) {
            let (a, p) = (self.args[base + i], self.st.param_tys[first as usize + i]);
            self.st.unify(&a, &p);
        }
        if !sig.is_extern {
            self.hooks.on_call(&mut self.st, f.name, at);
        }
        sig.ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;
    use localias_ast::visit::{walk_module, Visitor};

    /// Finds the first expression satisfying `pred` in source order.
    fn find_expr(m: &Module, pred: impl Fn(&Module, &Expr) -> bool) -> ExprId {
        struct Find<F> {
            pred: F,
            found: Option<ExprId>,
        }
        impl<F: Fn(&Module, &Expr) -> bool> Visitor for Find<F> {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if self.found.is_none() && (self.pred)(m, e) {
                    self.found = Some(m.expr_id(e));
                }
                localias_ast::visit::walk_expr(self, m, e);
            }
        }
        let mut f = Find { pred, found: None };
        walk_module(&mut f, m);
        f.found.expect("expression not found")
    }

    fn deref_of(m: &Module, name: &str) -> ExprId {
        find_expr(m, |m, e| match e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => {
                matches!(m.expr(inner).kind, ExprKind::Var(x) if m.name(x.name) == name)
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
        struct Idx(Vec<ExprId>);
        impl Visitor for Idx {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if matches!(e.kind, ExprKind::Index(_, _)) {
                    self.0.push(m.expr_id(e));
                }
                localias_ast::visit::walk_expr(self, m, e);
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
        struct Fields(Vec<(String, ExprId)>);
        impl Visitor for Fields {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if let ExprKind::Field(_, f) = e.kind {
                    self.0.push((m.name(f.name).to_string(), m.expr_id(e)));
                }
                localias_ast::visit::walk_expr(self, m, e);
            }
        }
        let mut v = Fields(Vec::new());
        walk_module(&mut v, &m);
        let ns: Vec<ExprId> =
            v.0.iter()
                .filter(|(n, _)| n == "n")
                .map(|&(_, id)| id)
                .collect();
        let mu: Vec<ExprId> =
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
        let lhs = find_expr(
            &m,
            |m, e| matches!(e.kind, ExprKind::Var(v) if m.name(v.name) == "x"),
        );
        assert_eq!(a.lval_loc(lhs), None);
    }

    #[test]
    fn address_taken_locals_get_storage() {
        let m = parse_module("m", "void f() { int x = 0; int *p = &x; *p = 1; x = 2; }").unwrap();
        let mut a = analyze(&m);
        let dp = deref_of(&m, "p");
        // *p and x share storage.
        let lx = a
            .state
            .vars
            .iter()
            .position(|v| m.name(v.name) == "x")
            .unwrap();
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
        let dl = find_expr(
            &m,
            |m, e| matches!(e.kind, ExprKind::Var(v) if m.name(v.name) == "l"),
        );
        if let Some(Ty::Ref(loc)) = a.state.exprs[dl.index()].ty {
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
        struct Mu(Vec<ExprId>);
        impl Visitor for Mu {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if matches!(e.kind, ExprKind::Arrow(_, f) if m.name(f.name) == "mu") {
                    self.0.push(m.expr_id(e));
                }
                localias_ast::visit::walk_expr(self, m, e);
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
            let v = a
                .state
                .vars
                .iter()
                .position(|v| m.name(v.name) == "g")
                .unwrap();
            match a.state.vars[v].kind {
                VarKind::Addressed(l) => a.state.locs.find(l),
                _ => panic!("global must be addressed"),
            }
        };
        assert_eq!(a.lval_loc(dp), Some(g_loc));
    }
}
