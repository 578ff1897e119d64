//! The big-step evaluator, implementing the paper's §3.2 semantics.
//!
//! The rule for `restrict x = e1 in e2` is implemented literally:
//!
//! ```text
//! S ⊢ e1 ⇓ l       l' fresh
//! S[l ↦ err, l' ↦ S(l)] ⊢ e2[x ↦ l'] ⇓ v, S'
//! ───────────────────────────────────────────────
//! S ⊢ restrict x = e1 in e2 ⇓ v, S'[l ↦ S'(l'), l' ↦ err]
//! ```
//!
//! `err` is a poisoned cell; reading or writing one raises
//! [`RuntimeError::RestrictViolation`]. `confine e1 in e2` follows its
//! definitional translation: the scope's occurrences of `e1` are resolved
//! to the fresh copy by a syntactic substitution (no AST rewriting).
//!
//! The paper's soundness theorem — a program that type checks never
//! evaluates to `err` — is tested empirically against this interpreter in
//! `tests/soundness.rs`.

use crate::memory::{default_value, Addr, Memory, Value};
use localias_ast::{
    pretty, BinOp, BindingKind, BlockId, Expr, ExprId, ExprKind, ExprList, FunDef, Module, Name,
    Stmt, StmtKind, Symbol, TypeExpr, TypeKind, UnOp,
};
use std::error::Error;
use std::fmt;

/// An execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A poisoned (`err`) cell was read or written: some `restrict`/
    /// `confine` was violated at run time. The paper's Theorem 1 says a
    /// program that passes checking never raises this.
    RestrictViolation {
        /// What was attempted.
        detail: String,
    },
    /// Null dereference or out-of-bounds index.
    MemoryFault {
        /// What was attempted.
        detail: String,
    },
    /// A dynamically ill-typed operation (cast abuse etc.).
    TypeFault {
        /// What was attempted.
        detail: String,
    },
    /// Execution exceeded its fuel budget (likely an unbounded loop).
    OutOfFuel,
    /// An unbound name (would be a parse/type error in checked programs).
    Unbound(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RestrictViolation { detail } => {
                write!(f, "restrict violation: {detail}")
            }
            RuntimeError::MemoryFault { detail } => write!(f, "memory fault: {detail}"),
            RuntimeError::TypeFault { detail } => write!(f, "type fault: {detail}"),
            RuntimeError::OutOfFuel => write!(f, "out of fuel"),
            RuntimeError::Unbound(n) => write!(f, "unbound name `{n}`"),
        }
    }
}

impl Error for RuntimeError {}

/// A dynamically detected locking mistake (not an execution error — the
/// run continues, like a kernel lockdep splat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFault {
    /// The enclosing function, sharing its module's name table.
    pub fun: Name,
    /// Description (double acquire / double release).
    pub detail: String,
}

/// Where control is going after a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A variable binding: the address of its one-object storage plus its
/// declared type.
#[derive(Debug, Clone, Copy)]
struct Binding {
    addr: Addr,
    ty: TypeExpr,
}

/// A restore action for an active `restrict`/`confine` scope.
struct Restore {
    orig: Addr,
    copy: Addr,
}

/// What a fault on a cell names: a variable or operation, or the
/// expression that read or wrote the cell, printed only when a fault is
/// raised.
#[derive(Clone, Copy)]
enum Label<'a> {
    Name(&'a str),
    Expr(&'a Expr),
}

/// The interpreter for one module.
pub struct Interp<'m> {
    module: &'m Module,
    mem: Memory,
    /// The globals' bindings, indexed by name.
    globals: Vec<Option<Binding>>,
    /// The bindings of the running function's open scopes, innermost
    /// last; a lookup scans back to `frame`, so a later binding hides an
    /// earlier one and a callee never sees its caller's locals.
    locals: Vec<(Symbol, Binding)>,
    /// Where each open scope starts in `locals`.
    scopes: Vec<usize>,
    /// Where the running function's bindings start in `locals`.
    frame: usize,
    /// Active confine substitutions: printed key → replacement value and
    /// its pointer type.
    substs: Vec<(String, Value, TypeExpr)>,
    /// Remaining execution fuel (statements + expressions).
    fuel: u64,
    /// Dynamically detected lock faults.
    pub lock_faults: Vec<LockFault>,
    /// The running function.
    current_fun: Option<Symbol>,
    depth: usize,
}

impl<'m> Interp<'m> {
    /// Creates an interpreter with globals allocated and zeroed.
    pub fn new(module: &'m Module, fuel: u64) -> Self {
        let mut mem = Memory::new(module);
        let mut globals = vec![None; module.names().len()];
        for g in module.globals() {
            let addr = mem.alloc(g.ty);
            globals[g.name.name.index()] = Some(Binding { addr, ty: g.ty });
        }
        Interp {
            module,
            mem,
            globals,
            locals: Vec::new(),
            scopes: Vec::new(),
            frame: 0,
            substs: Vec::new(),
            fuel,
            lock_faults: Vec::new(),
            current_fun: None,
            depth: 0,
        }
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn lookup(&self, name: Symbol) -> Result<Binding, RuntimeError> {
        let local = self.locals[self.frame..].iter().rev().find(|b| b.0 == name);
        local
            .map(|b| b.1)
            .or(self.globals[name.index()])
            .ok_or_else(|| RuntimeError::Unbound(self.module.name(name).to_string()))
    }

    /// Binds `name` in the innermost open scope.
    fn bind(&mut self, name: Symbol, b: Binding) {
        self.locals.push((name, b));
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scopes.pop().expect("a scope is open");
        self.locals.truncate(start);
    }

    /// `t`'s pointee, or a fault naming the operation `what`.
    fn pointee(&self, t: TypeExpr, what: &str) -> Result<TypeExpr, RuntimeError> {
        match self.mem.ty(t) {
            TypeKind::Ptr(inner) => Ok(inner),
            _ => Err(RuntimeError::TypeFault {
                detail: format!("{what} {}", self.show(t)),
            }),
        }
    }

    /// `t` printed as source.
    fn show(&self, t: TypeExpr) -> impl std::fmt::Display + '_ {
        self.mem.types().show(self.module.names(), t)
    }

    /// The text a fault on a cell names.
    fn label(&self, what: Label<'_>) -> String {
        match what {
            Label::Name(name) => name.to_string(),
            Label::Expr(e) => pretty::print_expr(self.module, e),
        }
    }

    fn read_cell(&self, a: Addr, what: Label<'_>) -> Result<Value, RuntimeError> {
        if !self.mem.in_bounds(a) {
            return Err(RuntimeError::MemoryFault {
                detail: format!("read of {a} ({}) out of bounds", self.label(what)),
            });
        }
        let cell = self.mem.cell(a);
        if cell.poisoned {
            return Err(RuntimeError::RestrictViolation {
                detail: format!("read of restricted cell {a} ({})", self.label(what)),
            });
        }
        Ok(cell.value)
    }

    fn write_cell(&mut self, a: Addr, v: Value, what: Label<'_>) -> Result<(), RuntimeError> {
        if !self.mem.in_bounds(a) {
            return Err(RuntimeError::MemoryFault {
                detail: format!("write to {a} ({}) out of bounds", self.label(what)),
            });
        }
        let cell = self.mem.cell_mut(a);
        if !cell.poisoned {
            cell.value = v;
            return Ok(());
        }
        Err(RuntimeError::RestrictViolation {
            detail: format!("write to restricted cell {a} ({})", self.label(what)),
        })
    }

    // ---- Places and values -------------------------------------------------

    /// [`Interp::lval`] of the module's expression `e`.
    fn lval_at(&mut self, e: ExprId) -> Result<(Addr, TypeExpr), RuntimeError> {
        self.lval(self.module.expr(e))
    }

    /// [`Interp::rval`] of the module's expression `e`.
    fn rval_at(&mut self, e: ExprId) -> Result<(Value, TypeExpr), RuntimeError> {
        self.rval(self.module.expr(e))
    }

    /// Evaluates `e` as a place (an addressable cell plus its type).
    fn lval(&mut self, e: &Expr) -> Result<(Addr, TypeExpr), RuntimeError> {
        self.tick()?;
        match e.kind {
            ExprKind::Var(x) => {
                let b = self.lookup(x.name)?;
                Ok((b.addr, b.ty))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let (v, t) = self.rval_at(inner)?;
                let elem = self.pointee(t, "deref of non-pointer")?;
                match v {
                    Value::Addr(a) => Ok((a, elem)),
                    _ => Err(RuntimeError::MemoryFault {
                        detail: format!("deref of non-address {v}"),
                    }),
                }
            }
            ExprKind::Index(arr, idx) => {
                let (av, at) = self.rval_at(arr)?;
                let (iv, _) = self.rval_at(idx)?;
                let elem = self.pointee(at, "index of non-array")?;
                let i = match iv {
                    Value::Int(n) if n >= 0 => n as usize,
                    other => {
                        return Err(RuntimeError::MemoryFault {
                            detail: format!("bad index {other}"),
                        })
                    }
                };
                match av {
                    Value::Addr(base) => {
                        let stride = self.mem.size_of(elem);
                        Ok((
                            Addr {
                                obj: base.obj,
                                off: base.off + i * stride,
                            },
                            elem,
                        ))
                    }
                    other => Err(RuntimeError::MemoryFault {
                        detail: format!("index of non-address {other}"),
                    }),
                }
            }
            ExprKind::Field(base, fname) => {
                let (addr, ty) = self.lval_at(base)?;
                self.field_place(addr, ty, fname.name)
            }
            ExprKind::Arrow(base, fname) => {
                let (v, t) = self.rval_at(base)?;
                let inner = self.pointee(t, "-> on non-pointer")?;
                match v {
                    Value::Addr(a) => self.field_place(a, inner, fname.name),
                    other => Err(RuntimeError::MemoryFault {
                        detail: format!("-> on non-address {other}"),
                    }),
                }
            }
            _ => Err(RuntimeError::TypeFault {
                detail: format!("not an lvalue: {:?}", self.module.kind_tree(e)),
            }),
        }
    }

    fn field_place(
        &self,
        base: Addr,
        ty: TypeExpr,
        field: Symbol,
    ) -> Result<(Addr, TypeExpr), RuntimeError> {
        let TypeKind::Struct(sname) = self.mem.ty(ty) else {
            return Err(RuntimeError::TypeFault {
                detail: format!("field access on non-struct {}", self.show(ty)),
            });
        };
        let name = |s: Symbol| self.module.name(s);
        let layout = self
            .mem
            .layout(sname)
            .ok_or_else(|| RuntimeError::TypeFault {
                detail: format!("unknown struct {}", name(sname)),
            })?;
        let (off, fty) = layout.field(field).ok_or_else(|| RuntimeError::TypeFault {
            detail: format!("no field {} on struct {}", name(field), name(sname)),
        })?;
        Ok((
            Addr {
                obj: base.obj,
                off: base.off + off,
            },
            fty,
        ))
    }

    /// Evaluates `e` for its value (with array-to-pointer decay).
    fn rval(&mut self, e: &Expr) -> Result<(Value, TypeExpr), RuntimeError> {
        self.tick()?;
        // Active confine substitution: occurrences of the confined
        // expression denote the fresh copy.
        if !self.substs.is_empty() && is_substitutable(e) {
            let key = pretty::print_expr(self.module, e);
            for (k, v, t) in self.substs.iter().rev() {
                if *k == key {
                    return Ok((*v, *t));
                }
            }
        }
        match e.kind {
            ExprKind::Int(n) => Ok((Value::Int(n), TypeExpr::INT)),
            ExprKind::Var(_)
            | ExprKind::Unary(UnOp::Deref, _)
            | ExprKind::Index(_, _)
            | ExprKind::Field(_, _)
            | ExprKind::Arrow(_, _) => {
                let (addr, ty) = self.lval(e)?;
                match self.mem.ty(ty) {
                    // Array decay: the value of an array place is the
                    // address of its first element.
                    TypeKind::Array(elem, _) => Ok((Value::Addr(addr), self.mem.ptr(elem))),
                    // Struct places have no scalar value; they only make
                    // sense under & or field selection.
                    TypeKind::Struct(_) => Ok((Value::Addr(addr), self.mem.ptr(ty))),
                    _ => {
                        let v = self.read_cell(addr, Label::Expr(e))?;
                        Ok((v, ty))
                    }
                }
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                let (addr, ty) = self.lval_at(inner)?;
                // &array decays like the array itself.
                match self.mem.ty(ty) {
                    TypeKind::Array(elem, _) => Ok((Value::Addr(addr), self.mem.ptr(elem))),
                    _ => Ok((Value::Addr(addr), self.mem.ptr(ty))),
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let (v, _) = self.rval_at(inner)?;
                Ok((Value::Int(-as_int(v)?), TypeExpr::INT))
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let (v, _) = self.rval_at(inner)?;
                Ok((Value::Int((as_int(v)? == 0) as i64), TypeExpr::INT))
            }
            ExprKind::Binary(op, a, b) => {
                let (va, _) = self.rval_at(a)?;
                let (vb, _) = self.rval_at(b)?;
                let n = match op {
                    BinOp::Eq => (values_equal(va, vb)) as i64,
                    BinOp::Ne => (!values_equal(va, vb)) as i64,
                    BinOp::Add => as_int(va)?.wrapping_add(as_int(vb)?),
                    BinOp::Sub => as_int(va)?.wrapping_sub(as_int(vb)?),
                    BinOp::Mul => as_int(va)?.wrapping_mul(as_int(vb)?),
                    BinOp::Div => {
                        let d = as_int(vb)?;
                        if d == 0 {
                            return Err(RuntimeError::MemoryFault {
                                detail: "division by zero".to_string(),
                            });
                        }
                        as_int(va)?.wrapping_div(d)
                    }
                    BinOp::Rem => {
                        let d = as_int(vb)?;
                        if d == 0 {
                            return Err(RuntimeError::MemoryFault {
                                detail: "remainder by zero".to_string(),
                            });
                        }
                        as_int(va)?.wrapping_rem(d)
                    }
                    BinOp::Lt => (as_int(va)? < as_int(vb)?) as i64,
                    BinOp::Le => (as_int(va)? <= as_int(vb)?) as i64,
                    BinOp::Gt => (as_int(va)? > as_int(vb)?) as i64,
                    BinOp::Ge => (as_int(va)? >= as_int(vb)?) as i64,
                    BinOp::And => ((as_int(va)? != 0) && (as_int(vb)? != 0)) as i64,
                    BinOp::Or => ((as_int(va)? != 0) || (as_int(vb)? != 0)) as i64,
                };
                Ok((Value::Int(n), TypeExpr::INT))
            }
            ExprKind::Assign(lhs, rhs) => {
                let (v, vt) = self.rval_at(rhs)?;
                let lhs = self.module.expr(lhs);
                let (addr, _) = self.lval(lhs)?;
                self.write_cell(addr, v, Label::Expr(lhs))?;
                Ok((v, vt))
            }
            ExprKind::Call(f, args) => self.call(f.name, args),
            ExprKind::New(init) => {
                let (v, t) = self.rval_at(init)?;
                let addr = self.mem.alloc_cell(v);
                Ok((Value::Addr(addr), self.mem.ptr(t)))
            }
            ExprKind::Cast(ty, inner) => {
                let (v, _) = self.rval_at(inner)?;
                // Dynamically a no-op reinterpretation; abuse surfaces as
                // a later TypeFault/MemoryFault.
                let v = match (self.mem.ty(ty), v) {
                    (TypeKind::Int, Value::Addr(a)) => {
                        // Pointer-to-int laundering: expose a number.
                        Value::Int((a.obj as i64) << 16 | a.off as i64)
                    }
                    _ => v,
                };
                Ok((v, ty))
            }
        }
    }

    // ---- Statements ----------------------------------------------------------

    fn block(&mut self, b: BlockId) -> Result<Flow, RuntimeError> {
        self.push_scope();
        let mut restores: Vec<Restore> = Vec::new();
        let mut flow = Flow::Normal;
        for s in self.module.stmts(b) {
            match self.stmt(s, &mut restores)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        // Restrict-declaration scopes end with the block, innermost last
        // bound first restored last? The paper restores at scope exit;
        // reverse order unwinds nesting correctly.
        for r in restores.into_iter().rev() {
            self.restore(r);
        }
        self.pop_scope();
        Ok(flow)
    }

    /// Applies the §3.2 scope-exit store transformation
    /// `S'[l ↦ S'(l'), l' ↦ err]`.
    fn restore(&mut self, r: Restore) {
        let copy_cell = *self.mem.cell(r.copy);
        let orig = self.mem.cell_mut(r.orig);
        *orig = copy_cell;
        self.mem.cell_mut(r.copy).poisoned = true;
    }

    /// Enters a restrict of the location `l`: fresh copy, original
    /// poisoned. Returns the copy's address.
    fn enter_restrict(&mut self, l: Addr) -> Result<Addr, RuntimeError> {
        if !self.mem.in_bounds(l) {
            return Err(RuntimeError::MemoryFault {
                detail: format!("restrict of out-of-bounds {l}"),
            });
        }
        let cell = *self.mem.cell(l);
        let copy = self.mem.alloc_cell(cell.value);
        // The copy inherits poison: restricting an already-restricted
        // location binds err to the new name (the paper's semantics);
        // the violation fires on use, not on binding.
        self.mem.cell_mut(copy).poisoned = cell.poisoned;
        self.mem.cell_mut(l).poisoned = true;
        Ok(copy)
    }

    fn stmt(&mut self, s: &Stmt, restores: &mut Vec<Restore>) -> Result<Flow, RuntimeError> {
        self.tick()?;
        match s.kind {
            StmtKind::Expr(e) => {
                self.rval_at(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => {
                let addr = self.mem.alloc(ty);
                if let Some(e) = init {
                    let (v, _) = self.rval_at(e)?;
                    let what = Label::Name(self.module.name(name.name));
                    match binding {
                        BindingKind::Let => {
                            self.write_cell(addr, v, what)?;
                        }
                        BindingKind::Restrict => {
                            // restrict T *x = e; — scope is the rest of
                            // the block.
                            let l = match v {
                                Value::Addr(a) => a,
                                other => {
                                    return Err(RuntimeError::TypeFault {
                                        detail: format!("restrict of non-pointer {other}"),
                                    })
                                }
                            };
                            let copy = self.enter_restrict(l)?;
                            self.write_cell(addr, Value::Addr(copy), what)?;
                            restores.push(Restore { orig: l, copy });
                        }
                    }
                }
                self.bind(name.name, Binding { addr, ty });
                Ok(Flow::Normal)
            }
            StmtKind::Restrict { name, init, body } => {
                let (v, t) = self.rval_at(init)?;
                let l = match v {
                    Value::Addr(a) => a,
                    other => {
                        return Err(RuntimeError::TypeFault {
                            detail: format!("restrict of non-pointer {other}"),
                        })
                    }
                };
                let copy = self.enter_restrict(l)?;
                // Bind x as a fresh variable holding the copy's address.
                let xaddr = self.mem.alloc_cell(Value::Addr(copy));
                self.push_scope();
                self.bind(name.name, Binding { addr: xaddr, ty: t });
                let flow = self.block(body)?;
                self.pop_scope();
                self.restore(Restore { orig: l, copy });
                Ok(flow)
            }
            StmtKind::Confine { expr, body } => {
                let expr = self.module.expr(expr);
                let (v, vt) = self.rval(expr)?;
                let l = match v {
                    Value::Addr(a) => a,
                    other => {
                        return Err(RuntimeError::TypeFault {
                            detail: format!("confine of non-pointer {other}"),
                        })
                    }
                };
                let copy = self.enter_restrict(l)?;
                let key = pretty::print_expr(self.module, expr);
                self.substs.push((key, Value::Addr(copy), vt));
                let flow = self.block(body)?;
                self.substs.pop();
                self.restore(Restore { orig: l, copy });
                Ok(flow)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (v, _) = self.rval_at(cond)?;
                if truthy(v) {
                    self.block(then_blk)
                } else if let Some(e) = else_blk {
                    self.block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body, step } => {
                loop {
                    let (v, _) = self.rval_at(cond)?;
                    if !truthy(v) {
                        return Ok(Flow::Normal);
                    }
                    match self.block(body)? {
                        // C `for` semantics: the step runs after the body
                        // and on `continue`.
                        Flow::Normal | Flow::Continue => {
                            if let Some(step) = step {
                                self.rval_at(step)?;
                            }
                        }
                        Flow::Break => return Ok(Flow::Normal),
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.rval_at(e)?.0,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.block(b),
        }
    }

    // ---- Calls -----------------------------------------------------------------

    fn call(&mut self, name: Symbol, args: ExprList) -> Result<(Value, TypeExpr), RuntimeError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in self.module.args(args) {
            vals.push(self.rval(a)?.0);
        }
        if name.is_change_type() {
            for v in &vals {
                self.lock_op(name, *v)?;
            }
            return Ok((Value::Void, TypeExpr::VOID));
        }
        let module = self.module;
        let Some(f) = module.functions().find(|f| f.name.name == name) else {
            // Extern: no effect; produce a default of the return type.
            let ret = module
                .externs()
                .find(|e| e.name.name == name)
                .map_or(TypeExpr::VOID, |e| e.ret);
            return Ok((default_value(self.mem.ty(ret)), ret));
        };
        if self.depth >= 64 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.call_def(f, &vals)
    }

    fn call_def(&mut self, f: &FunDef, args: &[Value]) -> Result<(Value, TypeExpr), RuntimeError> {
        let (saved_frame, saved_scopes) = (self.frame, self.scopes.len());
        self.frame = self.locals.len();
        let saved_fun = self.current_fun.replace(f.name.name);
        self.depth += 1;
        self.push_scope();

        let mut restores = Vec::new();
        for (p, v) in self.module.params(f.params).iter().zip(args) {
            let addr = self.mem.alloc(p.ty);
            let bound = if p.restrict {
                // A restrict parameter enters a restrict scope for the
                // whole call.
                match v {
                    Value::Addr(l) => {
                        let copy = self.enter_restrict(*l)?;
                        restores.push(Restore { orig: *l, copy });
                        Value::Addr(copy)
                    }
                    other => *other,
                }
            } else {
                *v
            };
            self.write_cell(addr, bound, Label::Name(self.module.name(p.name.name)))?;
            self.bind(p.name.name, Binding { addr, ty: p.ty });
        }

        let result = self.block(f.body);

        for r in restores.into_iter().rev() {
            self.restore(r);
        }
        self.depth -= 1;
        self.current_fun = saved_fun;
        // An error unwinds past scopes it left open.
        self.scopes.truncate(saved_scopes);
        self.locals.truncate(self.frame);
        self.frame = saved_frame;

        match result? {
            Flow::Return(v) => Ok((v, f.ret)),
            _ => Ok((default_value(self.mem.ty(f.ret)), f.ret)),
        }
    }

    /// A lock fault in the running function.
    fn lock_fault(&mut self, detail: String) {
        let fun = self.current_fun.expect("lock operations run in a function");
        self.lock_faults.push(LockFault {
            fun: Name::new(self.module.names(), fun),
            detail,
        });
    }

    fn lock_op(&mut self, name: Symbol, v: Value) -> Result<(), RuntimeError> {
        let op = self.module.name(name);
        let Value::Addr(a) = v else {
            return Err(RuntimeError::TypeFault {
                detail: format!("{op} of non-pointer {v}"),
            });
        };
        let what = Label::Name(op);
        let held = match self.read_cell(a, what)? {
            Value::Lock(h) => h,
            other => {
                return Err(RuntimeError::TypeFault {
                    detail: format!("{op} of non-lock {other}"),
                })
            }
        };
        match name {
            Symbol::SPIN_LOCK => {
                if held {
                    self.lock_fault(format!("double acquire at {a}"));
                }
                self.write_cell(a, Value::Lock(true), what)?;
            }
            Symbol::SPIN_UNLOCK => {
                if !held {
                    self.lock_fault(format!("release of unheld lock at {a}"));
                }
                self.write_cell(a, Value::Lock(false), what)?;
            }
            _ => {
                // Generic change_type: flip arbitrarily.
                self.write_cell(a, Value::Lock(!held), what)?;
            }
        }
        Ok(())
    }

    /// Calls a named function with synthesized arguments: `n` for every
    /// integer parameter, a fresh zeroed object for every pointer
    /// parameter, and the type's default for everything else (a free
    /// lock for by-value lock parameters — passing `n` would make the
    /// very first `spin_lock` a [`RuntimeError::TypeFault`] and hide
    /// the lock behaviour the caller wants to observe).
    pub fn call_with_default_args(&mut self, name: &str, n: i64) -> Result<Value, RuntimeError> {
        let Some(f) = self.module.function(name) else {
            return Err(RuntimeError::Unbound(name.to_string()));
        };
        let mut args = Vec::new();
        for p in self.module.params(f.params) {
            let v = match self.mem.ty(p.ty) {
                TypeKind::Ptr(inner) => Value::Addr(self.mem.alloc(inner)),
                TypeKind::Int => Value::Int(n),
                other => default_value(other),
            };
            args.push(v);
        }
        self.call_def(f, &args).map(|(v, _)| v)
    }

    /// Calls a named function with explicit argument values — the
    /// differential fuzz oracle's entry point, which synthesizes its own
    /// argument tuples (distinct and colliding indices, fresh objects)
    /// instead of the one-size default above. Missing trailing arguments
    /// are padded with the parameter type's default value.
    pub fn call_entry(&mut self, name: &str, args: &[Value]) -> Result<Value, RuntimeError> {
        let Some(f) = self.module.function(name) else {
            return Err(RuntimeError::Unbound(name.to_string()));
        };
        let mut vals = args.to_vec();
        for p in self.module.params(f.params).iter().skip(vals.len()) {
            vals.push(match self.mem.ty(p.ty) {
                TypeKind::Ptr(inner) => Value::Addr(self.mem.alloc(inner)),
                other => default_value(other),
            });
        }
        self.call_def(f, &vals).map(|(v, _)| v)
    }

    /// Allocates a fresh zeroed object of type `ty` and returns its
    /// address — how the fuzz oracle materializes pointer arguments.
    pub fn fresh_object(&mut self, ty: TypeExpr) -> Value {
        Value::Addr(self.mem.alloc(ty))
    }

    /// Number of lock cells currently held (see
    /// [`Memory::held_lock_count`]).
    pub fn held_locks(&self) -> usize {
        self.mem.held_lock_count()
    }

    /// Runs every function in the module once with synthesized arguments
    /// (argument integer `n`), stopping at the first runtime error.
    pub fn run_all(&mut self, n: i64) -> Result<(), RuntimeError> {
        let module = self.module;
        for f in module.functions() {
            self.call_with_default_args(module.name(f.name.name), n)?;
        }
        Ok(())
    }
}

fn as_int(v: Value) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(n) => Ok(n),
        other => Err(RuntimeError::TypeFault {
            detail: format!("expected an integer, got {other}"),
        }),
    }
}

fn truthy(v: Value) -> bool {
    match v {
        Value::Int(n) => n != 0,
        Value::Addr(_) => true,
        Value::Lock(_) | Value::Void => false,
    }
}

fn values_equal(a: Value, b: Value) -> bool {
    a == b
}

/// Shapes a confine substitution can match (mirrors
/// [`Expr::is_confinable_shape`] roots).
fn is_substitutable(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Var(_)
            | ExprKind::Unary(UnOp::AddrOf | UnOp::Deref, _)
            | ExprKind::Field(_, _)
            | ExprKind::Arrow(_, _)
            | ExprKind::Index(_, _)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;

    fn eval_main(src: &str) -> Result<Value, RuntimeError> {
        let m = parse_module("t", src).unwrap();
        let mut i = Interp::new(&m, 50_000);
        i.call_with_default_args("main", 0)
    }

    #[test]
    fn values_display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Void.to_string(), "()");
        assert_eq!(Value::Lock(true).to_string(), "lock(held)");
        assert_eq!(Value::Addr(Addr { obj: 1, off: 2 }).to_string(), "@1+2");
    }

    #[test]
    fn division_by_zero_faults() {
        let err = eval_main("int main() { return 1 / 0; }").unwrap_err();
        assert!(matches!(err, RuntimeError::MemoryFault { .. }));
        let err = eval_main("int main() { return 1 % 0; }").unwrap_err();
        assert!(matches!(err, RuntimeError::MemoryFault { .. }));
    }

    #[test]
    fn short_circuit_free_logic() {
        let v = eval_main("int main() { return (1 && 0) + (0 || 1) * 10; }").unwrap();
        assert_eq!(v, Value::Int(10));
    }

    #[test]
    fn pointer_equality() {
        let v = eval_main(
            r#"
            int main() {
                int *p = new (0);
                int *q = p;
                int *r = new (0);
                return (p == q) * 10 + (p == r);
            }
            "#,
        )
        .unwrap();
        assert_eq!(v, Value::Int(10));
    }

    #[test]
    fn deep_recursion_is_bounded() {
        let err = eval_main("int rec(int n) { return rec(n + 1); } int main() { return rec(0); }")
            .unwrap_err();
        assert_eq!(err, RuntimeError::OutOfFuel);
    }

    #[test]
    fn unbound_function_errors() {
        let m = parse_module("t", "void f() { }").unwrap();
        let mut i = Interp::new(&m, 1_000);
        let err = i.call_with_default_args("nope", 0).unwrap_err();
        assert!(matches!(err, RuntimeError::Unbound(_)));
    }

    #[test]
    fn cast_launders_pointer_to_int_and_faults_on_use() {
        let err = eval_main(
            r#"
            int main() {
                int *p = new (1);
                int cookie = (int) p;
                int *q = (int*) cookie;
                return *q;
            }
            "#,
        )
        .unwrap_err();
        // The laundered value is no longer an address.
        assert!(matches!(err, RuntimeError::MemoryFault { .. }), "{err}");
    }

    #[test]
    fn errors_display() {
        for e in [
            RuntimeError::RestrictViolation { detail: "x".into() },
            RuntimeError::MemoryFault { detail: "y".into() },
            RuntimeError::TypeFault { detail: "z".into() },
            RuntimeError::OutOfFuel,
            RuntimeError::Unbound("f".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
