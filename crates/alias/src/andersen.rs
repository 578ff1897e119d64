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
    BlockId, Expr, ExprId, ExprKind, ExprList, Ident, ItemKind, Module, Stmt, StmtKind, TypeExpr,
    TypeKind, UnOp,
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
    /// A heap allocation site: the `new` expression.
    Heap(ExprId),
    /// The anonymous set variable holding an expression's value. No
    /// constraint takes its address, so it is never a target.
    Value(ExprId),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Var(None, n) => write!(f, "{n}"),
            Cell::Var(Some(fun), n) => write!(f, "{fun}::{n}"),
            Cell::ArrayElems(None, n) => write!(f, "{n}[]"),
            Cell::ArrayElems(Some(fun), n) => write!(f, "{fun}::{n}[]"),
            Cell::Field(s, fld) => write!(f, "{s}.{fld}"),
            Cell::Heap(id) => write!(f, "new#{}", id.index()),
            Cell::Value(id) => write!(f, "val#{}", id.index()),
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
    /// recorded during constraint generation.
    expr_value: HashMap<ExprId, Ix>,
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
    pub fn expr_points_to(&self, id: ExprId) -> Option<impl Iterator<Item = &Cell>> {
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
    var_types: HashMap<Cell, TypeKind>,
    struct_fields: HashMap<String, Vec<(String, TypeExpr)>>,
    /// Return-value set variable per function.
    returns: HashMap<String, Ix>,
    /// Parameter cells per function (for call wiring).
    params: HashMap<String, Vec<Cell>>,
    /// Value set-variable of every evaluated expression (see
    /// [`PointsTo::expr_points_to`]).
    expr_value: HashMap<ExprId, Ix>,
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

    /// The variable cell `x` names in the current function.
    fn var_cell(&mut self, x: Ident) -> Cell {
        let m = self.m;
        let name = m.name(x.name);
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

    /// The set-variable holding the *value* of expression `id`, emitting
    /// constraints for its evaluation. Non-pointer expressions return a
    /// fresh empty node. Every evaluated expression's value node is
    /// recorded in `expr_value`.
    fn value_at(&mut self, id: ExprId) -> Ix {
        let ix = self.value_of(id);
        self.expr_value.insert(id, ix);
        ix
    }

    fn value_of(&mut self, id: ExprId) -> Ix {
        let m = self.m;
        let e = m.expr(id);
        match &e.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(*x);
                // Array decay: the value of an array variable is a
                // pointer to its element cell.
                if let Some(TypeKind::Array(_, _)) = self.var_types.get(&c) {
                    let fresh = self.fresh(id);
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
                let fresh = self.fresh(id);
                if let Some(target) = self.place_of(m.expr(*inner)) {
                    self.bases.push((fresh, target));
                }
                fresh
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let q = self.value_at(*inner);
                let fresh = self.fresh(id);
                self.complexes.push(Complex::LoadInto { q, p: fresh });
                fresh
            }
            ExprKind::Index(arr, idx) => {
                let _ = self.value_at(*idx);
                let q = self.value_at(*arr);
                let fresh = self.fresh(id);
                self.complexes.push(Complex::LoadInto { q, p: fresh });
                fresh
            }
            ExprKind::Field(base, fld) | ExprKind::Arrow(base, fld) => {
                let _ = self.value_at(*base);
                match self.field_cell_of(m.expr(*base), *fld) {
                    Some(c) => {
                        let i = self.cell(c);
                        // Reading the field: its contents.
                        let fresh = self.fresh(id);
                        self.copies.push((i, fresh));
                        fresh
                    }
                    None => self.fresh(id),
                }
            }
            ExprKind::Assign(lhs, rhs) => {
                let rv = self.value_at(*rhs);
                self.assign_into(m.expr(*lhs), rv);
                rv
            }
            ExprKind::Call(f, args) => self.call(*f, *args, id),
            ExprKind::New(init) => {
                let iv = self.value_at(*init);
                let heap = self.cell(Cell::Heap(id));
                // The heap cell's contents receive the initializer.
                self.copies.push((iv, heap));
                let fresh = self.fresh(id);
                self.bases.push((fresh, heap));
                fresh
            }
            ExprKind::Cast(_, inner) => self.value_at(*inner),
            ExprKind::Unary(_, inner) => {
                let _ = self.value_at(*inner);
                self.fresh(id)
            }
            ExprKind::Binary(_, a, b) => {
                let _ = self.value_at(*a);
                let _ = self.value_at(*b);
                self.fresh(id)
            }
            ExprKind::Int(_) => self.fresh(id),
        }
    }

    /// The cell an lvalue denotes, when statically nameable (variables,
    /// fields, array elements).
    fn place_of(&mut self, e: &Expr) -> Option<Ix> {
        let m = self.m;
        match &e.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(*x);
                Some(self.cell(c))
            }
            ExprKind::Index(arr, _) => {
                // &a[i]: the element cell when `a` is a direct array
                // variable; otherwise fall back to the pointer's targets
                // (handled by the caller through value_of + Load/Store).
                if let ExprKind::Var(x) = m.expr(*arr).kind {
                    let c = self.var_cell(x);
                    if let Some(TypeKind::Array(_, _)) = self.var_types.get(&c) {
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
                let c = self.field_cell_of(m.expr(*base), *fld)?;
                Some(self.cell(c))
            }
            _ => None,
        }
    }

    /// Resolves a field access to its field-based cell using declared
    /// types (a lightweight, syntactic struct-type inference).
    fn field_cell_of(&mut self, base: &Expr, fld: Ident) -> Option<Cell> {
        let sname = self.struct_of(base)?;
        Some(Cell::Field(sname, self.m.name(fld.name).to_string()))
    }

    /// The struct a value of type `t` is or points to.
    fn struct_in(&self, t: TypeKind, through_array: bool) -> Option<String> {
        let m = self.m;
        let s = match t {
            TypeKind::Struct(s) => s,
            TypeKind::Ptr(inner) => match m.ty(inner) {
                TypeKind::Struct(s) => s,
                _ => return None,
            },
            TypeKind::Array(inner, _) if through_array => match m.ty(inner) {
                TypeKind::Struct(s) => s,
                _ => return None,
            },
            _ => return None,
        };
        Some(m.name(s).to_string())
    }

    /// Best-effort struct-name inference for a base expression.
    fn struct_of(&mut self, base: &Expr) -> Option<String> {
        let m = self.m;
        match base.kind {
            ExprKind::Var(x) => {
                let c = self.var_cell(x);
                let t = *self.var_types.get(&c)?;
                self.struct_in(t, true)
            }
            ExprKind::Index(arr, _) | ExprKind::Unary(UnOp::Deref, arr) => {
                self.struct_of(m.expr(arr))
            }
            ExprKind::Field(b, f) | ExprKind::Arrow(b, f) => {
                let s = self.struct_of(m.expr(b))?;
                let fields = self.struct_fields.get(&s)?;
                let &(_, fty) = fields.iter().find(|(n, _)| n == m.name(f.name))?;
                self.struct_in(m.ty(fty), false)
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

    /// The anonymous node of expression `id`'s value.
    fn fresh(&mut self, id: ExprId) -> Ix {
        self.cell(Cell::Value(id))
    }

    fn call(&mut self, f: Ident, args: ExprList, at: ExprId) -> Ix {
        let m = self.m;
        let arg_vals: Vec<Ix> = m.arg_ids(args).iter().map(|&a| self.value_at(a)).collect();
        if let Some(params) = self.params.get(m.name(f.name)).cloned() {
            for (p, v) in params.iter().zip(arg_vals) {
                let pi = self.cell(p.clone());
                self.copies.push((v, pi));
            }
            if let Some(&r) = self.returns.get(m.name(f.name)) {
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
                let c = Cell::Var(fun, self.m.name(name.name).to_string());
                self.cell(c.clone());
                self.var_types.insert(c.clone(), self.m.ty(*ty));
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
                let c = Cell::Var(fun, self.m.name(name.name).to_string());
                let i = self.cell(c.clone());
                self.var_types.insert(c, TypeKind::Ptr(TypeExpr::INT));
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

    let name = |x: Ident| m.name(x.name).to_string();
    for s in m.structs() {
        gen.struct_fields.insert(
            name(s.name),
            s.fields.iter().map(|&(n, t)| (name(n), t)).collect(),
        );
        for &(fname, fty) in &s.fields {
            let c = Cell::Field(name(s.name), name(fname));
            gen.cell(c.clone());
            gen.var_types.insert(c, m.ty(fty));
        }
    }
    for g in m.globals() {
        let c = Cell::Var(None, name(g.name));
        gen.cell(c.clone());
        gen.var_types.insert(c, m.ty(g.ty));
        if let TypeKind::Array(_, _) = m.ty(g.ty) {
            gen.cell(Cell::ArrayElems(None, name(g.name)));
        }
    }
    for f in m.functions() {
        let mut ps = Vec::new();
        for p in m.params(f.params) {
            let c = Cell::Var(Some(name(f.name)), name(p.name));
            gen.cell(c.clone());
            gen.var_types.insert(c.clone(), m.ty(p.ty));
            ps.push(c);
        }
        gen.params.insert(name(f.name), ps);
        let r = gen.cell(Cell::Var(Some(name(f.name)), "<return>".to_string()));
        gen.returns.insert(name(f.name), r);
    }
    for item in &m.items {
        if let ItemKind::Fun(f) = &item.kind {
            gen.current_fun = Some(name(f.name));
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
            if let StmtKind::Decl { name, ty, .. } = s.kind {
                if let TypeKind::Ptr(_) = m.ty(ty) {
                    if let Some(f) = &self.1 {
                        self.0.push((f.clone(), m.name(name.name).to_string()));
                    }
                }
            }
            localias_ast::visit::walk_stmt(self, m, s);
        }
    }
    for f in m.functions() {
        let mut d = Decls(Vec::new(), Some(m.name(f.name.name).to_string()));
        localias_ast::visit::walk_fun(&mut d, m, f);
        for (fun, var) in d.0 {
            let set: Vec<String> = pts
                .var_points_to(&fun, &var)
                .into_iter()
                .map(|c| c.to_string())
                .collect();
            out.push((fun, var, set));
        }
    }
    out
}
