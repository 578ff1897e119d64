//! An Andersen-style (inclusion-based) points-to analysis.
//!
//! The paper builds on a unification-based may-alias analysis and notes
//! (§3, §8) that "restrict checking can also be combined with more
//! precise alias analyses. We have not yet explored this possibility."
//! This module explores the first half of that possibility: a classic
//! subset-based analysis over the same Mini-C AST, useful for measuring
//! how much precision the unification analysis gives up (and therefore
//! how many restrict/confine demotions are artifacts of unification).
//!
//! ## Model
//!
//! Memory is abstracted into [`Cell`]s: one per variable, one per
//! (collapsed) array, one per `(struct, field)` pair, one per `new` site.
//! Constraints are the four Andersen forms, generated syntactically:
//!
//! | Statement | Constraint |
//! |---|---|
//! | `p = &x`  | `{x} ⊆ pts(p)` |
//! | `p = q`   | `pts(q) ⊆ pts(p)` |
//! | `p = *q`  | `∀o ∈ pts(q). pts(o) ⊆ pts(p)` |
//! | `*p = q`  | `∀o ∈ pts(p). pts(q) ⊆ pts(o)` |
//!
//! Calls copy arguments into parameters and returns back to call sites
//! (context-insensitively). The solver is a straightforward worklist with
//! complex-constraint re-evaluation — `O(n³)` worst case, fine at Mini-C
//! module sizes.
//!
//! The crucial difference from [`crate::steensgaard`]: assignment is
//! *directional*. `p = q` gives `p` all of `q`'s targets without giving
//! `q` any of `p`'s, so unrelated pointees stay distinct where
//! unification would conflate them.

use localias_ast::visit::Visitor;
use localias_ast::{
    BlockId, Expr, ExprId, ExprKind, ExprList, Ident, ItemKind, Module, NodeId, Stmt, StmtKind,
    TypeExpr, UnOp,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An abstract memory cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// A named variable (globals are `(None, name)`, locals/params are
    /// `(Some(function), name)`).
    Var(Option<String>, String),
    /// The collapsed elements of the array stored in a variable.
    ArrayElems(Option<String>, String),
    /// A struct field class, field-based: `(struct name, field)`.
    Field(String, String),
    /// A heap allocation site.
    Heap(NodeId),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Var(None, n) => write!(f, "{n}"),
            Cell::Var(Some(fun), n) => write!(f, "{fun}::{n}"),
            Cell::ArrayElems(None, n) => write!(f, "{n}[]"),
            Cell::ArrayElems(Some(fun), n) => write!(f, "{fun}::{n}[]"),
            Cell::Field(s, fld) => write!(f, "{s}.{fld}"),
            Cell::Heap(id) => write!(f, "new{id}"),
        }
    }
}

/// A set-variable index: `pts(i)` is the points-to set of node `i`.
pub type Ix = usize;

/// Constraint forms awaiting complex resolution.
#[derive(Debug, Clone, Copy)]
enum Complex {
    /// `p = *q`: for every `o` in `pts(q)`, `pts(o) ⊆ pts(p)`.
    LoadInto { q: Ix, p: Ix },
    /// `*p = q`: for every `o` in `pts(p)`, `pts(q) ⊆ pts(o)`.
    StoreFrom { p: Ix, q: Ix },
}

/// The result of the analysis: points-to sets over [`Cell`]s.
#[derive(Debug)]
pub struct PointsTo {
    cells: Vec<Cell>,
    ix: HashMap<Cell, Ix>,
    sets: Vec<BTreeSet<Ix>>,
    /// The set-variable holding each evaluated expression's value,
    /// recorded during constraint generation (keyed by `NodeId`).
    expr_value: HashMap<NodeId, Ix>,
}

impl PointsTo {
    /// The points-to set of a cell, as cells.
    pub fn points_to(&self, cell: &Cell) -> Vec<Cell> {
        match self.ix.get(cell) {
            Some(&i) => self.sets[i]
                .iter()
                .map(|&j| self.cells[j].clone())
                .collect(),
            None => Vec::new(),
        }
    }

    /// The points-to set of variable `name` in `fun` (or a global when no
    /// local binding exists).
    pub fn var_points_to(&self, fun: &str, name: &str) -> Vec<Cell> {
        let local = Cell::Var(Some(fun.to_string()), name.to_string());
        if self.ix.contains_key(&local) {
            return self.points_to(&local);
        }
        self.points_to(&Cell::Var(None, name.to_string()))
    }

    /// May `a` and `b` point to a common cell?
    pub fn may_point_same(&self, a: &Cell, b: &Cell) -> bool {
        let (Some(&ia), Some(&ib)) = (self.ix.get(a), self.ix.get(b)) else {
            return false;
        };
        self.sets[ia].intersection(&self.sets[ib]).next().is_some()
    }

    /// Number of cells in the model.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total size of all points-to sets (a precision metric: smaller is
    /// more precise, for the same program).
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(BTreeSet::len).sum()
    }

    /// The points-to set of the *value* of expression `id`, as cells —
    /// `None` if the expression was never evaluated during generation.
    /// This is the query alias backends use to refine a unification
    /// class: which objects may this pointer expression actually target?
    pub fn expr_points_to(&self, id: NodeId) -> Option<impl Iterator<Item = &Cell>> {
        let &v = self.expr_value.get(&id)?;
        Some(self.sets[v].iter().map(move |&j| &self.cells[j]))
    }
}

/// Analysis driver.
struct Gen<'m> {
    m: &'m Module,
    cells: Vec<Cell>,
    ix: HashMap<Cell, Ix>,
    /// Base facts `{target} ⊆ pts(node)`.
    bases: Vec<(Ix, Ix)>,
    /// Copy edges `pts(from) ⊆ pts(to)`.
    copies: Vec<(Ix, Ix)>,
    complexes: Vec<Complex>,
    current_fun: Option<String>,
    /// Declared array-ness / struct-ness of variables, to model decay and
    /// field bases.
    var_types: HashMap<Cell, TypeExpr>,
    struct_fields: HashMap<String, Vec<(String, TypeExpr)>>,
    /// Return-value set variable per function.
    returns: HashMap<String, Ix>,
    /// Parameter cells per function (for call wiring).
    params: HashMap<String, Vec<Cell>>,
    /// Value set-variable of every evaluated expression (see
    /// [`PointsTo::expr_points_to`]).
    expr_value: HashMap<NodeId, Ix>,
}

impl Gen<'_> {
    fn cell(&mut self, c: Cell) -> Ix {
        if let Some(&i) = self.ix.get(&c) {
            return i;
        }
        let i = self.cells.len();
        self.cells.push(c.clone());
        self.ix.insert(c, i);
        i
    }

    fn var_cell(&mut self, name: &str) -> Cell {
        if let Some(fun) = &self.current_fun {
            let local = Cell::Var(Some(fun.clone()), name.to_string());
            if self.ix.contains_key(&local) {
                return local;
            }
        }
        let global = Cell::Var(None, name.to_string());
        if self.ix.contains_key(&global) {
            return global;
        }
        // Unseen name: treat as function-local.
        Cell::Var(self.current_fun.clone(), name.to_string())
    }

    /// The set-variable holding the *value* of expression `e`, emitting
    /// constraints for its evaluation. Non-pointer expressions return a
    /// fresh empty node. Every evaluated expression's value node is
    /// recorded in `expr_value`.
    fn value_of(&mut self, e: &Expr) -> Ix {
        let ix = self.value_of_inner(e);
        self.expr_value.insert(e.id, ix);
        ix
    }

    /// [`Gen::value_of`] the module's expression `e`.
    fn value_at(&mut self, e: ExprId) -> Ix {
        let m = self.m;
        self.value_of(m.expr(e))
    }

    fn value_of_inner(&mut self, e: &Expr) -> Ix {
        let m = self.m;
        match &e.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(&x.name);
                // Array decay: the value of an array variable is a
                // pointer to its element cell.
                if let Some(TypeExpr::Array(_, _)) = self.var_types.get(&c) {
                    let fresh = self.fresh(e.id);
                    let (fun, name) = match &c {
                        Cell::Var(f, n) => (f.clone(), n.clone()),
                        _ => unreachable!(),
                    };
                    let elems = self.cell(Cell::ArrayElems(fun, name));
                    self.bases.push((fresh, elems));
                    return fresh;
                }
                self.cell(c)
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                let fresh = self.fresh(e.id);
                if let Some(target) = self.place_of(m.expr(*inner)) {
                    self.bases.push((fresh, target));
                }
                fresh
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let q = self.value_at(*inner);
                let fresh = self.fresh(e.id);
                self.complexes.push(Complex::LoadInto { q, p: fresh });
                fresh
            }
            ExprKind::Index(arr, idx) => {
                let _ = self.value_at(*idx);
                let q = self.value_at(*arr);
                let fresh = self.fresh(e.id);
                self.complexes.push(Complex::LoadInto { q, p: fresh });
                fresh
            }
            ExprKind::Field(base, fld) | ExprKind::Arrow(base, fld) => {
                let _ = self.value_at(*base);
                match self.field_cell_of(m.expr(*base), fld) {
                    Some(c) => {
                        let i = self.cell(c);
                        // Reading the field: its contents.
                        let fresh = self.fresh(e.id);
                        self.copies.push((i, fresh));
                        fresh
                    }
                    None => self.fresh(e.id),
                }
            }
            ExprKind::Assign(lhs, rhs) => {
                let rv = self.value_at(*rhs);
                self.assign_into(m.expr(*lhs), rv);
                rv
            }
            ExprKind::Call(f, args) => self.call(f, *args, e.id),
            ExprKind::New(init) => {
                let iv = self.value_at(*init);
                let heap = self.cell(Cell::Heap(e.id));
                // The heap cell's contents receive the initializer.
                self.copies.push((iv, heap));
                let fresh = self.fresh(e.id);
                self.bases.push((fresh, heap));
                fresh
            }
            ExprKind::Cast(_, inner) => self.value_at(*inner),
            ExprKind::Unary(_, inner) => {
                let _ = self.value_at(*inner);
                self.fresh(e.id)
            }
            ExprKind::Binary(_, a, b) => {
                let _ = self.value_at(*a);
                let _ = self.value_at(*b);
                self.fresh(e.id)
            }
            ExprKind::Int(_) => self.fresh(e.id),
        }
    }

    /// The cell an lvalue denotes, when statically nameable (variables,
    /// fields, array elements).
    fn place_of(&mut self, e: &Expr) -> Option<Ix> {
        let m = self.m;
        match &e.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(&x.name);
                Some(self.cell(c))
            }
            ExprKind::Index(arr, _) => {
                // &a[i]: the element cell when `a` is a direct array
                // variable; otherwise fall back to the pointer's targets
                // (handled by the caller through value_of + Load/Store).
                if let ExprKind::Var(x) = &m.expr(*arr).kind {
                    let c = self.var_cell(&x.name);
                    if let Some(TypeExpr::Array(_, _)) = self.var_types.get(&c) {
                        let (fun, name) = match &c {
                            Cell::Var(f, n) => (f.clone(), n.clone()),
                            _ => unreachable!(),
                        };
                        let elems = Cell::ArrayElems(fun, name);
                        return Some(self.cell(elems));
                    }
                }
                None
            }
            ExprKind::Field(base, fld) | ExprKind::Arrow(base, fld) => {
                let c = self.field_cell_of(m.expr(*base), fld)?;
                Some(self.cell(c))
            }
            _ => None,
        }
    }

    /// Resolves a field access to its field-based cell using declared
    /// types (a lightweight, syntactic struct-type inference).
    fn field_cell_of(&mut self, base: &Expr, fld: &Ident) -> Option<Cell> {
        let sname = self.struct_of(base)?;
        Some(Cell::Field(sname, fld.name.to_string()))
    }

    /// Best-effort struct-name inference for a base expression.
    fn struct_of(&mut self, base: &Expr) -> Option<String> {
        let m = self.m;
        match &base.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(&x.name);
                match self.var_types.get(&c)? {
                    TypeExpr::Struct(s) => Some(s.to_string()),
                    TypeExpr::Ptr(inner) | TypeExpr::Array(inner, _) => match &**inner {
                        TypeExpr::Struct(s) => Some(s.to_string()),
                        _ => None,
                    },
                    _ => None,
                }
            }
            ExprKind::Index(arr, _) | ExprKind::Unary(UnOp::Deref, arr) => {
                self.struct_of(m.expr(*arr))
            }
            ExprKind::Field(b, f) | ExprKind::Arrow(b, f) => {
                let s = self.struct_of(m.expr(*b))?;
                let fields = self.struct_fields.get(&s)?;
                let (_, fty) = fields.iter().find(|(n, _)| *n == f.name)?;
                match fty {
                    TypeExpr::Struct(s2) => Some(s2.to_string()),
                    TypeExpr::Ptr(inner) => match &**inner {
                        TypeExpr::Struct(s2) => Some(s2.to_string()),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Assigns the set-variable `rv` into the lvalue `lhs`.
    fn assign_into(&mut self, lhs: &Expr, rv: Ix) {
        if let Some(place) = self.place_of(lhs) {
            self.copies.push((rv, place));
            return;
        }
        match &lhs.kind {
            ExprKind::Unary(UnOp::Deref, inner) => {
                let p = self.value_at(*inner);
                self.complexes.push(Complex::StoreFrom { p, q: rv });
            }
            ExprKind::Index(arr, _) => {
                let p = self.value_at(*arr);
                self.complexes.push(Complex::StoreFrom { p, q: rv });
            }
            _ => {}
        }
    }

    fn fresh(&mut self, id: NodeId) -> Ix {
        // One anonymous node per (expression, occurrence); NodeIds are
        // unique so this is stable.
        self.cell(Cell::Heap(NodeId(u32::MAX - id.0)))
    }

    fn call(&mut self, f: &Ident, args: ExprList, at: NodeId) -> Ix {
        let m = self.m;
        let arg_vals: Vec<Ix> = m.args(args).map(|a| self.value_of(a)).collect();
        if let Some(params) = self.params.get(f.name.as_str()).cloned() {
            for (p, v) in params.iter().zip(arg_vals) {
                let pi = self.cell(p.clone());
                self.copies.push((v, pi));
            }
            if let Some(&r) = self.returns.get(f.name.as_str()) {
                let fresh = self.fresh(at);
                self.copies.push((r, fresh));
                return fresh;
            }
        }
        self.fresh(at)
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                let _ = self.value_at(*e);
            }
            StmtKind::Decl { ty, name, init, .. } => {
                let fun = self.current_fun.clone();
                let c = Cell::Var(fun, name.name.to_string());
                self.cell(c.clone());
                self.var_types.insert(c.clone(), ty.clone());
                if let Some(e) = init {
                    let rv = self.value_at(*e);
                    let i = self.cell(c);
                    self.copies.push((rv, i));
                }
            }
            StmtKind::Restrict { name, init, body } => {
                // As an alias analysis, restrict is just a binding.
                let rv = self.value_at(*init);
                let fun = self.current_fun.clone();
                let c = Cell::Var(fun, name.name.to_string());
                let i = self.cell(c.clone());
                self.var_types.insert(c, TypeExpr::ptr(TypeExpr::Int));
                self.copies.push((rv, i));
                self.block(*body);
            }
            StmtKind::Confine { expr, body } => {
                let _ = self.value_at(*expr);
                self.block(*body);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let _ = self.value_at(*cond);
                self.block(*then_blk);
                if let Some(e) = else_blk {
                    self.block(*e);
                }
            }
            StmtKind::While { cond, body, step } => {
                let _ = self.value_at(*cond);
                self.block(*body);
                if let Some(step) = step {
                    let _ = self.value_at(*step);
                }
            }
            StmtKind::Return(Some(e)) => {
                let rv = self.value_at(*e);
                if let Some(fun) = self.current_fun.clone() {
                    if let Some(&r) = self.returns.get(&fun) {
                        self.copies.push((rv, r));
                    }
                }
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(*b),
        }
    }

    fn block(&mut self, b: BlockId) {
        let m = self.m;
        for s in m.stmts(b) {
            self.stmt(s);
        }
    }
}

/// Runs the inclusion-based analysis over a module.
///
/// # Example
///
/// ```
/// use localias_ast::parse_module;
/// use localias_alias::andersen::{analyze, Cell};
///
/// // Directional assignment: q gains nothing from p.
/// let m = parse_module(
///     "m",
///     "int a; int b; void f() { int *p = &a; int *q = &b; p = q; }",
/// )?;
/// let pts = analyze(&m);
/// let p = pts.var_points_to("f", "p");
/// let q = pts.var_points_to("f", "q");
/// assert_eq!(p.len(), 2, "{p:?}");
/// assert_eq!(q.len(), 1, "{q:?}");
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub fn analyze(m: &Module) -> PointsTo {
    let mut gen = Gen {
        m,
        cells: Vec::new(),
        ix: HashMap::new(),
        bases: Vec::new(),
        copies: Vec::new(),
        complexes: Vec::new(),
        current_fun: None,
        var_types: HashMap::new(),
        struct_fields: HashMap::new(),
        returns: HashMap::new(),
        params: HashMap::new(),
        expr_value: HashMap::new(),
    };

    for s in m.structs() {
        gen.struct_fields.insert(
            s.name.name.to_string(),
            s.fields
                .iter()
                .map(|(n, t)| (n.name.to_string(), t.clone()))
                .collect(),
        );
        for (fname, fty) in &s.fields {
            let c = Cell::Field(s.name.name.to_string(), fname.name.to_string());
            gen.cell(c.clone());
            gen.var_types.insert(c, fty.clone());
        }
    }
    for g in m.globals() {
        let c = Cell::Var(None, g.name.name.to_string());
        gen.cell(c.clone());
        gen.var_types.insert(c, g.ty.clone());
        if let TypeExpr::Array(_, _) = g.ty {
            gen.cell(Cell::ArrayElems(None, g.name.name.to_string()));
        }
    }
    for f in m.functions() {
        let mut ps = Vec::new();
        for p in m.params(f.params) {
            let c = Cell::Var(Some(f.name.name.to_string()), p.name.name.to_string());
            gen.cell(c.clone());
            gen.var_types.insert(c.clone(), p.ty.clone());
            ps.push(c);
        }
        gen.params.insert(f.name.name.to_string(), ps);
        let r = gen.cell(Cell::Var(
            Some(f.name.name.to_string()),
            "<return>".to_string(),
        ));
        gen.returns.insert(f.name.name.to_string(), r);
    }
    for item in &m.items {
        if let ItemKind::Fun(f) = &item.kind {
            gen.current_fun = Some(f.name.name.to_string());
            gen.block(f.body);
            gen.current_fun = None;
        }
    }

    // Solve: initialize bases, then iterate copies and complex
    // constraints to fixpoint.
    let n = gen.cells.len();
    let mut sets: Vec<BTreeSet<Ix>> = vec![BTreeSet::new(); n];
    for &(node, target) in &gen.bases {
        sets[node].insert(target);
    }
    loop {
        let mut changed = false;
        for &(from, to) in &gen.copies {
            if from != to {
                let add: Vec<Ix> = sets[from].difference(&sets[to]).copied().collect();
                if !add.is_empty() {
                    sets[to].extend(add);
                    changed = true;
                }
            }
        }
        for &cx in &gen.complexes {
            match cx {
                Complex::LoadInto { q, p } => {
                    let targets: Vec<Ix> = sets[q].iter().copied().collect();
                    for o in targets {
                        if o != p {
                            let add: Vec<Ix> = sets[o].difference(&sets[p]).copied().collect();
                            if !add.is_empty() {
                                sets[p].extend(add);
                                changed = true;
                            }
                        }
                    }
                }
                Complex::StoreFrom { p, q } => {
                    let targets: Vec<Ix> = sets[p].iter().copied().collect();
                    for o in targets {
                        if o != q {
                            let add: Vec<Ix> = sets[q].difference(&sets[o]).copied().collect();
                            if !add.is_empty() {
                                sets[o].extend(add);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Drop the anonymous expression nodes from reported sets? They are
    // never pointed *to* by named cells except via our synthetic scheme,
    // and keeping them is harmless for queries by name.
    PointsTo {
        cells: gen.cells,
        ix: gen.ix,
        sets,
        expr_value: gen.expr_value,
    }
}

/// Walks a module and reports, for every function, the named local
/// pointer variables and their points-to sets — a convenience for
/// comparisons and debugging.
pub fn summarize(m: &Module) -> Vec<(String, String, Vec<String>)> {
    let pts = analyze(m);
    let mut out = Vec::new();
    struct Decls(Vec<(String, String)>, Option<String>);
    impl Visitor for Decls {
        fn visit_stmt(&mut self, m: &Module, s: &Stmt) {
            if let StmtKind::Decl { name, ty, .. } = &s.kind {
                if ty.is_ptr() {
                    if let Some(f) = &self.1 {
                        self.0.push((f.clone(), name.name.to_string()));
                    }
                }
            }
            localias_ast::visit::walk_stmt(self, m, s);
        }
    }
    for f in m.functions() {
        let mut d = Decls(Vec::new(), Some(f.name.name.to_string()));
        localias_ast::visit::walk_fun(&mut d, m, f);
        for (fun, var) in d.0 {
            let set: Vec<String> = pts
                .var_points_to(&fun, &var)
                .into_iter()
                .filter(|c| !matches!(c, Cell::Heap(id) if id.0 > u32::MAX / 2))
                .map(|c| c.to_string())
                .collect();
            out.push((fun, var, set));
        }
    }
    out
}
