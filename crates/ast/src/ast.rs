//! The Mini-C abstract syntax tree.
//!
//! Every expression, statement and block carries a stable [`NodeId`];
//! downstream analyses (aliasing, effects, restrict/confine inference, the
//! flow-sensitive lock checker) key their facts on these ids, so a single
//! parse can feed every analysis without re-walking source text.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;

/// A dense, per-module identifier for an AST node.
///
/// Ids are allocated contiguously from 0 by the parser;
/// [`Module::node_count`] bounds them, so
/// analyses can use plain vectors as side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// A placeholder id used transiently during construction.
    pub const DUMMY: NodeId = NodeId(u32::MAX);

    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An identifier occurrence with its source span.
///
/// The name is an interned [`Symbol`]: every occurrence of one name in a
/// module shares a single allocation (see [`crate::intern`]), which is
/// most of the AST memory diet — identifier text used to be duplicated
/// per occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    /// The name.
    pub name: Symbol,
    /// Where it occurred.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesized nodes).
    pub fn synthetic(name: impl Into<Symbol>) -> Self {
        Ident {
            name: name.into(),
            span: Span::DUMMY,
        }
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Syntactic types.
///
/// These are the *declared* types of Mini-C; the analyses map them onto the
/// paper's `τ ::= int | ref ρ(τ)` analysis types (locks and struct fields
/// become locations; arrays collapse to a single element location, exactly
/// the imprecision the paper's Figure 1 example relies on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `lock` — the Linux `spinlock_t` analogue tracked by the experiment.
    Lock,
    /// `void` — only valid as a function return type.
    Void,
    /// `T*`
    Ptr(Box<TypeExpr>),
    /// `T[n]`
    Array(Box<TypeExpr>, usize),
    /// `struct S`
    Struct(Symbol),
}

impl TypeExpr {
    /// Convenience constructor for `T*`.
    pub fn ptr(inner: TypeExpr) -> TypeExpr {
        TypeExpr::Ptr(Box::new(inner))
    }

    /// Convenience constructor for `T[n]`.
    pub fn array(elem: TypeExpr, n: usize) -> TypeExpr {
        TypeExpr::Array(Box::new(elem), n)
    }

    /// Returns `true` if this is a pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, TypeExpr::Ptr(_))
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Int => write!(f, "int"),
            TypeExpr::Lock => write!(f, "lock"),
            TypeExpr::Void => write!(f, "void"),
            TypeExpr::Ptr(t) => write!(f, "{t}*"),
            TypeExpr::Array(t, n) => write!(f, "{t}[{n}]"),
            TypeExpr::Struct(s) => write!(f, "struct {s}"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `*e` — pointer dereference.
    Deref,
    /// `&e` — address-of.
    AddrOf,
    /// `-e`
    Neg,
    /// `!e`
    Not,
}

impl UnOp {
    /// The operator's spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
            UnOp::Neg => "-",
            UnOp::Not => "!",
        }
    }
}

/// Binary operators (all non-assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The operator's spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Stable node id.
    pub id: NodeId,
    /// The expression's form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// The forms of Mini-C expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal `n`.
    Int(i64),
    /// Variable reference `x`.
    Var(Ident),
    /// Unary operation; [`UnOp::Deref`] and [`UnOp::AddrOf`] are the
    /// pointer-relevant cases.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment `e1 = e2` (the paper's `e1 := e2`).
    Assign(Box<Expr>, Box<Expr>),
    /// Direct call `f(args)`. Mini-C has no function pointers.
    Call(Ident, Vec<Expr>),
    /// Array index `e1[e2]`.
    Index(Box<Expr>, Box<Expr>),
    /// Field access `e.f`.
    Field(Box<Expr>, Ident),
    /// Pointer field access `e->f` (kept distinct from `(*e).f` for
    /// faithful pretty-printing; the analyses treat them identically).
    Arrow(Box<Expr>, Ident),
    /// Heap allocation `new e`, initialized to the value of `e`
    /// (the core calculus's `new e`).
    New(Box<Expr>),
    /// Type cast `(T) e`. Casts launder aliasing through an opaque
    /// conversion; the corpus uses them to model the "type cast" failures
    /// of the paper's Figure 7 discussion.
    Cast(TypeExpr, Box<Expr>),
}

impl Expr {
    /// Returns `true` if the expression is *syntactically pure enough to be
    /// confined*: composed only of identifiers, field accesses, pointer
    /// dereferences, array indexing with pure indices, and address-of.
    ///
    /// This is the §6.1 syntactic restriction ("we are interested only in
    /// `e1`s that are composed of identifiers, field accesses, and pointer
    /// dereferences"); full referential transparency is checked separately
    /// by the effect analysis.
    pub fn is_confinable_shape(&self) -> bool {
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Int(_) => true,
            ExprKind::Unary(UnOp::Deref | UnOp::AddrOf, e) => e.is_confinable_shape(),
            ExprKind::Field(e, _) | ExprKind::Arrow(e, _) => e.is_confinable_shape(),
            ExprKind::Index(e, i) => e.is_confinable_shape() && i.is_confinable_shape(),
            _ => false,
        }
    }

    /// Structural equality *ignoring node ids and spans* — the "syntactic
    /// match" that makes an expression an occurrence of a confined one in
    /// `localias-core`'s constraint generator.
    pub fn syntactically_equal(&self, other: &Expr) -> bool {
        match (&self.kind, &other.kind) {
            (ExprKind::Int(a), ExprKind::Int(b)) => a == b,
            (ExprKind::Var(a), ExprKind::Var(b)) => a.name == b.name,
            (ExprKind::Unary(op1, a), ExprKind::Unary(op2, b)) => {
                op1 == op2 && a.syntactically_equal(b)
            }
            (ExprKind::Binary(op1, a1, a2), ExprKind::Binary(op2, b1, b2)) => {
                op1 == op2 && a1.syntactically_equal(b1) && a2.syntactically_equal(b2)
            }
            (ExprKind::Assign(a1, a2), ExprKind::Assign(b1, b2)) => {
                a1.syntactically_equal(b1) && a2.syntactically_equal(b2)
            }
            (ExprKind::Call(f, xs), ExprKind::Call(g, ys)) => {
                f.name == g.name
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| x.syntactically_equal(y))
            }
            (ExprKind::Index(a1, a2), ExprKind::Index(b1, b2)) => {
                a1.syntactically_equal(b1) && a2.syntactically_equal(b2)
            }
            (ExprKind::Field(a, f), ExprKind::Field(b, g))
            | (ExprKind::Arrow(a, f), ExprKind::Arrow(b, g)) => {
                f.name == g.name && a.syntactically_equal(b)
            }
            (ExprKind::New(a), ExprKind::New(b)) => a.syntactically_equal(b),
            (ExprKind::Cast(t, a), ExprKind::Cast(u, b)) => t == u && a.syntactically_equal(b),
            _ => false,
        }
    }
}

/// How a local pointer binding was introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingKind {
    /// An ordinary `let` — a plain C declaration.
    Let,
    /// A `restrict`-qualified declaration: the new name is the sole access
    /// path to its referent for the remainder of the enclosing block.
    Restrict,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Stable node id.
    pub id: NodeId,
    /// The statement's form.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// The forms of Mini-C statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// An expression statement `e;`.
    Expr(Expr),
    /// A local declaration `T x = e;` (or `restrict T x = e;`).
    ///
    /// Its scope is the remainder of the enclosing block — the `let x = e1
    /// in e2` of the core calculus with `e2` left implicit. These are the
    /// candidates that §5 restrict inference may promote to `Restrict`.
    Decl {
        /// Binding discipline (plain `let` or `restrict`).
        binding: BindingKind,
        /// Declared type.
        ty: TypeExpr,
        /// The bound name.
        name: Ident,
        /// Initializer, if any.
        init: Option<Expr>,
    },
    /// The paper's scoped form `restrict x = e { ... }`: `x` is bound to
    /// `e` and restricted exactly within the body block.
    Restrict {
        /// The restricted name.
        name: Ident,
        /// The initializer whose referent is restricted.
        init: Expr,
        /// The scope of the restriction.
        body: Block,
    },
    /// The §6 construct `confine (e) { ... }`: aliases of the location `e`
    /// refers to are restricted within the body, with `e` itself serving as
    /// the name.
    Confine {
        /// The confined expression.
        expr: Expr,
        /// The scope of the confinement.
        body: Block,
    },
    /// `if (cond) { ... } else { ... }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
    },
    /// `while (cond) { ... }` — or a desugared `for` loop, in which case
    /// `step` runs after the body *and on `continue`* (C semantics).
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// The `for` loop's step expression, if any.
        step: Option<Expr>,
    },
    /// `return;` or `return e;`.
    Return(Option<Expr>),
    /// `break;` — exits the innermost loop.
    Break,
    /// `continue;` — jumps to the innermost loop's next iteration.
    Continue,
    /// A nested block `{ ... }`.
    Block(Block),
}

/// A brace-delimited sequence of statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Stable node id.
    pub id: NodeId,
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Ident,
    /// Declared type.
    pub ty: TypeExpr,
    /// `true` for `T *restrict p` — the C99-style parameter annotation the
    /// paper's `do_with_lock` example uses.
    pub restrict: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDef {
    /// Stable node id.
    pub id: NodeId,
    /// Function name.
    pub name: Ident,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: TypeExpr,
    /// Body.
    pub body: Block,
    /// Source location of the whole definition.
    pub span: Span,
}

/// An `extern` function declaration (body unknown to the analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternDef {
    /// Stable node id.
    pub id: NodeId,
    /// Function name.
    pub name: Ident,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: TypeExpr,
    /// Source location.
    pub span: Span,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Stable node id.
    pub id: NodeId,
    /// Struct name.
    pub name: Ident,
    /// Fields in declaration order.
    pub fields: Vec<(Ident, TypeExpr)>,
    /// Source location.
    pub span: Span,
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Stable node id.
    pub id: NodeId,
    /// Variable name.
    pub name: Ident,
    /// Declared type.
    pub ty: TypeExpr,
    /// Source location.
    pub span: Span,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The item's form.
    pub kind: ItemKind,
}

/// The forms of top-level items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A struct definition.
    Struct(StructDef),
    /// A global variable.
    Global(Global),
    /// A function definition.
    Fun(FunDef),
    /// An extern function declaration.
    Extern(ExternDef),
}

/// A parsed translation unit (one "driver module" in experiment terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name (e.g. the synthetic driver's name).
    pub name: String,
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// One past the largest allocated [`NodeId`]; side tables can be sized
    /// with this.
    pub node_count: u32,
    /// Span of each node, indexed by [`NodeId`] (empty for synthesized
    /// modules). The parser records each span as it assigns the id.
    pub spans: Vec<Span>,
}

impl Module {
    /// The source span of `id`, or [`Span::DUMMY`] when unknown.
    pub fn span_of(&self, id: NodeId) -> Span {
        self.spans.get(id.index()).copied().unwrap_or(Span::DUMMY)
    }

    /// Iterates over the function definitions in the module.
    pub fn functions(&self) -> impl Iterator<Item = &FunDef> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Fun(f) => Some(f),
            _ => None,
        })
    }

    /// Looks up a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FunDef> {
        self.functions().find(|f| f.name.name == name)
    }

    /// Iterates over the global variables in the module.
    pub fn globals(&self) -> impl Iterator<Item = &Global> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Global(g) => Some(g),
            _ => None,
        })
    }

    /// Iterates over the struct definitions in the module.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Struct(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates over extern declarations in the module.
    pub fn externs(&self) -> impl Iterator<Item = &ExternDef> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Extern(e) => Some(e),
            _ => None,
        })
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs().find(|s| s.name.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr {
            id: NodeId(0),
            kind: ExprKind::Var(Ident::synthetic(name)),
            span: Span::DUMMY,
        }
    }

    #[test]
    fn confinable_shapes() {
        let x = var("x");
        assert!(x.is_confinable_shape());

        let deref = Expr {
            id: NodeId(1),
            kind: ExprKind::Unary(UnOp::Deref, Box::new(var("p"))),
            span: Span::DUMMY,
        };
        assert!(deref.is_confinable_shape());

        let idx = Expr {
            id: NodeId(2),
            kind: ExprKind::Index(Box::new(var("locks")), Box::new(var("i"))),
            span: Span::DUMMY,
        };
        let addr = Expr {
            id: NodeId(3),
            kind: ExprKind::Unary(UnOp::AddrOf, Box::new(idx)),
            span: Span::DUMMY,
        };
        assert!(addr.is_confinable_shape(), "&locks[i] must be confinable");

        let call = Expr {
            id: NodeId(4),
            kind: ExprKind::Call(Ident::synthetic("f"), vec![]),
            span: Span::DUMMY,
        };
        assert!(!call.is_confinable_shape(), "calls may not terminate");

        let assign = Expr {
            id: NodeId(5),
            kind: ExprKind::Assign(Box::new(var("a")), Box::new(var("b"))),
            span: Span::DUMMY,
        };
        assert!(!assign.is_confinable_shape());
    }

    #[test]
    fn syntactic_equality_ignores_ids() {
        let a = Expr {
            id: NodeId(1),
            kind: ExprKind::Index(Box::new(var("locks")), Box::new(var("i"))),
            span: Span::new(0, 5),
        };
        let b = Expr {
            id: NodeId(99),
            kind: ExprKind::Index(Box::new(var("locks")), Box::new(var("i"))),
            span: Span::new(40, 45),
        };
        assert!(a.syntactically_equal(&b));

        let c = Expr {
            id: NodeId(7),
            kind: ExprKind::Index(Box::new(var("locks")), Box::new(var("j"))),
            span: Span::DUMMY,
        };
        assert!(!a.syntactically_equal(&c));
    }

    #[test]
    fn type_display() {
        assert_eq!(TypeExpr::ptr(TypeExpr::Lock).to_string(), "lock*");
        assert_eq!(TypeExpr::array(TypeExpr::Lock, 8).to_string(), "lock[8]");
        assert_eq!(TypeExpr::Struct("dev".into()).to_string(), "struct dev");
    }
}
