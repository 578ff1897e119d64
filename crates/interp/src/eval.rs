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

use crate::memory::{default_value, size_of, Addr, Memory, Value};
use localias_ast::{
    intrinsics, pretty, BinOp, BindingKind, BlockId, Expr, ExprId, ExprKind, ExprList, FunDef,
    Module, Stmt, StmtKind, TypeExpr, UnOp,
};
use std::collections::HashMap;
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
    /// The enclosing function.
    pub fun: String,
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
#[derive(Debug, Clone)]
struct Binding {
    addr: Addr,
    ty: TypeExpr,
}

/// A restore action for an active `restrict`/`confine` scope.
struct Restore {
    orig: Addr,
    copy: Addr,
}

/// The interpreter for one module.
pub struct Interp<'m> {
    module: &'m Module,
    mem: Memory,
    globals: HashMap<String, Binding>,
    scopes: Vec<HashMap<String, Binding>>,
    /// Active confine substitutions: printed key → replacement value and
    /// its pointer type.
    substs: Vec<(String, Value, TypeExpr)>,
    /// Remaining execution fuel (statements + expressions).
    fuel: u64,
    /// Dynamically detected lock faults.
    pub lock_faults: Vec<LockFault>,
    current_fun: String,
    depth: usize,
}

impl<'m> Interp<'m> {
    /// Creates an interpreter with globals allocated and zeroed.
    pub fn new(module: &'m Module, fuel: u64) -> Self {
        let mut mem = Memory::new(module);
        let mut globals = HashMap::new();
        for g in module.globals() {
            let addr = mem.alloc(&g.ty);
            globals.insert(
                g.name.name.to_string(),
                Binding {
                    addr,
                    ty: g.ty.clone(),
                },
            );
        }
        Interp {
            module,
            mem,
            globals,
            scopes: Vec::new(),
            substs: Vec::new(),
            fuel,
            lock_faults: Vec::new(),
            current_fun: String::new(),
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

    fn lookup(&self, name: &str) -> Result<Binding, RuntimeError> {
        for frame in self.scopes.iter().rev() {
            if let Some(b) = frame.get(name) {
                return Ok(b.clone());
            }
        }
        self.globals
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    fn read_cell(&self, a: Addr, what: &str) -> Result<Value, RuntimeError> {
        if !self.mem.in_bounds(a) {
            return Err(RuntimeError::MemoryFault {
                detail: format!("read of {a} ({what}) out of bounds"),
            });
        }
        let cell = self.mem.cell(a);
        if cell.poisoned {
            return Err(RuntimeError::RestrictViolation {
                detail: format!("read of restricted cell {a} ({what})"),
            });
        }
        Ok(cell.value)
    }

    fn write_cell(&mut self, a: Addr, v: Value, what: &str) -> Result<(), RuntimeError> {
        if !self.mem.in_bounds(a) {
            return Err(RuntimeError::MemoryFault {
                detail: format!("write to {a} ({what}) out of bounds"),
            });
        }
        let cell = self.mem.cell_mut(a);
        if cell.poisoned {
            return Err(RuntimeError::RestrictViolation {
                detail: format!("write to restricted cell {a} ({what})"),
            });
        }
        cell.value = v;
        Ok(())
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
        match &e.kind {
            ExprKind::Var(x) => {
                let b = self.lookup(&x.name)?;
                Ok((b.addr, b.ty))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let (v, t) = self.rval_at(*inner)?;
                let elem = match t {
                    TypeExpr::Ptr(inner) => *inner,
                    other => {
                        return Err(RuntimeError::TypeFault {
                            detail: format!("deref of non-pointer {other}"),
                        })
                    }
                };
                match v {
                    Value::Addr(a) => Ok((a, elem)),
                    _ => Err(RuntimeError::MemoryFault {
                        detail: format!("deref of non-address {v}"),
                    }),
                }
            }
            ExprKind::Index(arr, idx) => {
                let (av, at) = self.rval_at(*arr)?;
                let (iv, _) = self.rval_at(*idx)?;
                let elem = match at {
                    TypeExpr::Ptr(inner) => *inner,
                    other => {
                        return Err(RuntimeError::TypeFault {
                            detail: format!("index of non-array {other}"),
                        })
                    }
                };
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
                        let stride = size_of(&elem, self.mem.layouts());
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
                let (addr, ty) = self.lval_at(*base)?;
                self.field_place(addr, &ty, &fname.name)
            }
            ExprKind::Arrow(base, fname) => {
                let (v, t) = self.rval_at(*base)?;
                let inner = match t {
                    TypeExpr::Ptr(inner) => *inner,
                    other => {
                        return Err(RuntimeError::TypeFault {
                            detail: format!("-> on non-pointer {other}"),
                        })
                    }
                };
                match v {
                    Value::Addr(a) => self.field_place(a, &inner, &fname.name),
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
        ty: &TypeExpr,
        field: &str,
    ) -> Result<(Addr, TypeExpr), RuntimeError> {
        let TypeExpr::Struct(sname) = ty else {
            return Err(RuntimeError::TypeFault {
                detail: format!("field access on non-struct {ty}"),
            });
        };
        let layout =
            self.mem
                .layouts()
                .get(sname.as_str())
                .ok_or_else(|| RuntimeError::TypeFault {
                    detail: format!("unknown struct {sname}"),
                })?;
        let (off, fty) =
            layout
                .fields
                .get(field)
                .cloned()
                .ok_or_else(|| RuntimeError::TypeFault {
                    detail: format!("no field {field} on struct {sname}"),
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
    pub fn rval(&mut self, e: &Expr) -> Result<(Value, TypeExpr), RuntimeError> {
        self.tick()?;
        // Active confine substitution: occurrences of the confined
        // expression denote the fresh copy.
        if !self.substs.is_empty() && is_substitutable(e) {
            let key = pretty::print_expr(self.module, e);
            for (k, v, t) in self.substs.iter().rev() {
                if *k == key {
                    return Ok((*v, t.clone()));
                }
            }
        }
        match &e.kind {
            ExprKind::Int(n) => Ok((Value::Int(*n), TypeExpr::Int)),
            ExprKind::Var(_)
            | ExprKind::Unary(UnOp::Deref, _)
            | ExprKind::Index(_, _)
            | ExprKind::Field(_, _)
            | ExprKind::Arrow(_, _) => {
                let (addr, ty) = self.lval(e)?;
                match ty {
                    // Array decay: the value of an array place is the
                    // address of its first element.
                    TypeExpr::Array(elem, _) => Ok((Value::Addr(addr), TypeExpr::Ptr(elem))),
                    // Struct places have no scalar value; they only make
                    // sense under & or field selection.
                    TypeExpr::Struct(_) => Ok((Value::Addr(addr), TypeExpr::ptr(ty))),
                    scalar => {
                        let v = self.read_cell(addr, &pretty::print_expr(self.module, e))?;
                        Ok((v, scalar))
                    }
                }
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                let (addr, ty) = self.lval_at(*inner)?;
                // &array decays like the array itself.
                match ty {
                    TypeExpr::Array(elem, _) => Ok((Value::Addr(addr), TypeExpr::Ptr(elem))),
                    other => Ok((Value::Addr(addr), TypeExpr::ptr(other))),
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let (v, _) = self.rval_at(*inner)?;
                Ok((Value::Int(-as_int(v)?), TypeExpr::Int))
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let (v, _) = self.rval_at(*inner)?;
                Ok((Value::Int((as_int(v)? == 0) as i64), TypeExpr::Int))
            }
            ExprKind::Binary(op, a, b) => {
                let (va, _) = self.rval_at(*a)?;
                let (vb, _) = self.rval_at(*b)?;
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
                Ok((Value::Int(n), TypeExpr::Int))
            }
            ExprKind::Assign(lhs, rhs) => {
                let (v, vt) = self.rval_at(*rhs)?;
                let lhs = self.module.expr(*lhs);
                let (addr, _) = self.lval(lhs)?;
                self.write_cell(addr, v, &pretty::print_expr(self.module, lhs))?;
                Ok((v, vt))
            }
            ExprKind::Call(f, args) => self.call(&f.name, *args),
            ExprKind::New(init) => {
                let (v, t) = self.rval_at(*init)?;
                let addr = self.mem.alloc_cell(v);
                Ok((Value::Addr(addr), TypeExpr::ptr(t)))
            }
            ExprKind::Cast(ty, inner) => {
                let (v, _) = self.rval_at(*inner)?;
                // Dynamically a no-op reinterpretation; abuse surfaces as
                // a later TypeFault/MemoryFault.
                let v = match (ty, v) {
                    (TypeExpr::Int, Value::Addr(a)) => {
                        // Pointer-to-int laundering: expose a number.
                        Value::Int((a.obj as i64) << 16 | a.off as i64)
                    }
                    _ => v,
                };
                Ok((v, ty.clone()))
            }
        }
    }

    // ---- Statements ----------------------------------------------------------

    fn block(&mut self, b: BlockId) -> Result<Flow, RuntimeError> {
        self.scopes.push(HashMap::new());
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
        self.scopes.pop();
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
        match &s.kind {
            StmtKind::Expr(e) => {
                self.rval_at(*e)?;
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
                    let (v, _) = self.rval_at(*e)?;
                    match binding {
                        BindingKind::Let => {
                            self.write_cell(addr, v, &name.name)?;
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
                            self.write_cell(addr, Value::Addr(copy), &name.name)?;
                            restores.push(Restore { orig: l, copy });
                        }
                    }
                }
                self.scopes.last_mut().expect("in a scope").insert(
                    name.name.to_string(),
                    Binding {
                        addr,
                        ty: ty.clone(),
                    },
                );
                Ok(Flow::Normal)
            }
            StmtKind::Restrict { name, init, body } => {
                let (v, t) = self.rval_at(*init)?;
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
                self.scopes.push(HashMap::new());
                self.scopes.last_mut().expect("scope").insert(
                    name.name.to_string(),
                    Binding {
                        addr: xaddr,
                        ty: t.clone(),
                    },
                );
                let flow = self.block(*body)?;
                self.scopes.pop();
                self.restore(Restore { orig: l, copy });
                Ok(flow)
            }
            StmtKind::Confine { expr, body } => {
                let expr = self.module.expr(*expr);
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
                let flow = self.block(*body)?;
                self.substs.pop();
                self.restore(Restore { orig: l, copy });
                Ok(flow)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (v, _) = self.rval_at(*cond)?;
                if truthy(v) {
                    self.block(*then_blk)
                } else if let Some(e) = else_blk {
                    self.block(*e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body, step } => {
                loop {
                    let (v, _) = self.rval_at(*cond)?;
                    if !truthy(v) {
                        return Ok(Flow::Normal);
                    }
                    match self.block(*body)? {
                        // C `for` semantics: the step runs after the body
                        // and on `continue`.
                        Flow::Normal | Flow::Continue => {
                            if let Some(step) = step {
                                self.rval_at(*step)?;
                            }
                        }
                        Flow::Break => return Ok(Flow::Normal),
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.rval_at(*e)?.0,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.block(*b),
        }
    }

    // ---- Calls -----------------------------------------------------------------

    fn call(&mut self, name: &str, args: ExprList) -> Result<(Value, TypeExpr), RuntimeError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in self.module.args(args) {
            vals.push(self.rval(a)?.0);
        }
        if intrinsics::is_change_type(name) {
            for v in &vals {
                self.lock_op(name, *v)?;
            }
            return Ok((Value::Void, TypeExpr::Void));
        }
        let Some(f) = self.module.function(name) else {
            // Extern: no effect; produce a default of the return type.
            let ret = self
                .module
                .externs()
                .find(|e| e.name.name == name)
                .map(|e| e.ret.clone())
                .unwrap_or(TypeExpr::Void);
            return Ok((default_value(&ret), ret));
        };
        if self.depth >= 64 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.call_def(f, &vals)
    }

    fn call_def(&mut self, f: &FunDef, args: &[Value]) -> Result<(Value, TypeExpr), RuntimeError> {
        let saved_scopes = std::mem::take(&mut self.scopes);
        let saved_fun = std::mem::replace(&mut self.current_fun, f.name.name.to_string());
        self.depth += 1;
        self.scopes.push(HashMap::new());

        let mut restores = Vec::new();
        for (p, v) in self.module.params(f.params).iter().zip(args) {
            let addr = self.mem.alloc(&p.ty);
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
            self.write_cell(addr, bound, &p.name.name)?;
            self.scopes.last_mut().expect("scope").insert(
                p.name.name.to_string(),
                Binding {
                    addr,
                    ty: p.ty.clone(),
                },
            );
        }

        let result = self.block(f.body);

        for r in restores.into_iter().rev() {
            self.restore(r);
        }
        self.depth -= 1;
        self.current_fun = saved_fun;
        self.scopes = saved_scopes;

        match result? {
            Flow::Return(v) => Ok((v, f.ret.clone())),
            _ => Ok((default_value(&f.ret), f.ret.clone())),
        }
    }

    fn lock_op(&mut self, op: &str, v: Value) -> Result<(), RuntimeError> {
        let Value::Addr(a) = v else {
            return Err(RuntimeError::TypeFault {
                detail: format!("{op} of non-pointer {v}"),
            });
        };
        let held = match self.read_cell(a, op)? {
            Value::Lock(h) => h,
            other => {
                return Err(RuntimeError::TypeFault {
                    detail: format!("{op} of non-lock {other}"),
                })
            }
        };
        match op {
            intrinsics::SPIN_LOCK => {
                if held {
                    self.lock_faults.push(LockFault {
                        fun: self.current_fun.clone(),
                        detail: format!("double acquire at {a}"),
                    });
                }
                self.write_cell(a, Value::Lock(true), op)?;
            }
            intrinsics::SPIN_UNLOCK => {
                if !held {
                    self.lock_faults.push(LockFault {
                        fun: self.current_fun.clone(),
                        detail: format!("release of unheld lock at {a}"),
                    });
                }
                self.write_cell(a, Value::Lock(false), op)?;
            }
            _ => {
                // Generic change_type: flip arbitrarily.
                self.write_cell(a, Value::Lock(!held), op)?;
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
            let v = match &p.ty {
                TypeExpr::Ptr(inner) => Value::Addr(self.mem.alloc(inner)),
                TypeExpr::Int => Value::Int(n),
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
            vals.push(match &p.ty {
                TypeExpr::Ptr(inner) => Value::Addr(self.mem.alloc(inner)),
                other => default_value(other),
            });
        }
        self.call_def(f, &vals).map(|(v, _)| v)
    }

    /// Allocates a fresh zeroed object of type `ty` and returns its
    /// address — how the fuzz oracle materializes pointer arguments.
    pub fn fresh_object(&mut self, ty: &TypeExpr) -> Value {
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
        let names: Vec<String> = self
            .module
            .functions()
            .map(|f| f.name.name.to_string())
            .collect();
        for name in names {
            self.call_with_default_args(&name, n)?;
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
