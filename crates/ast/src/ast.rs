//! The Mini-C abstract syntax tree.
//!
//! Every expression, statement and block carries a stable [`NodeId`];
//! downstream analyses (aliasing, effects, restrict/confine inference, the
//! flow-sensitive lock checker) key their facts on these ids, so a single
//! parse can feed every analysis without re-walking source text.
//!
//! The nodes live in flat arrays that their [`Module`] owns, one per
//! node kind; a node names its children by array index ([`ExprId`],
//! [`StmtId`], [`BlockId`]) or by a [`Run`] of indices, and its names and
//! types by id into the module's name and type tables.

use crate::fx::FxMap;
use crate::intern::{Names, Symbol};
use crate::span::Span;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

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
/// The name is an interned [`Symbol`], an id into the module's name
/// table (see [`crate::intern`]); [`Module::name`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ident {
    /// The name.
    pub name: Symbol,
    /// Where it occurred.
    pub span: Span,
}

/// A syntactic type: an id into its module's type table ([`Types`]),
/// where each distinct type is interned once, so two types of one module
/// are equal exactly when their ids are. [`Module::ty`] gives its form.
///
/// These are the *declared* types of Mini-C; the analyses map them onto the
/// paper's `τ ::= int | ref ρ(τ)` analysis types (locks and struct fields
/// become locations; arrays collapse to a single element location, exactly
/// the imprecision the paper's Figure 1 example relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeExpr(u32);

impl TypeExpr {
    /// `int`, interned first in every table.
    pub const INT: TypeExpr = TypeExpr(0);
    /// `lock`.
    pub const LOCK: TypeExpr = TypeExpr(1);
    /// `void`.
    pub const VOID: TypeExpr = TypeExpr(2);
}

/// The forms of syntactic types. Component types are ids into the same
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `int`
    Int,
    /// `lock` — the Linux `spinlock_t` analogue tracked by the experiment.
    Lock,
    /// `void` — only valid as a function return type.
    Void,
    /// `T*`
    Ptr(TypeExpr),
    /// `T[n]`
    Array(TypeExpr, usize),
    /// `struct S`
    Struct(Symbol),
}

/// A module's type table: every distinct [`TypeKind`] once, `int`, `lock`
/// and `void` first. A module declares a handful of distinct types (at
/// most 10 in the corpus and the fuzz stream), so interning scans the
/// table and allocates no index; past 16 kinds it keeps one, so a module
/// declaring many distinct types (one array length per global, say)
/// still parses in linear time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Types {
    kinds: Vec<TypeKind>,
    /// Each kind's id, once the table holds more than `SCAN` kinds.
    index: FxMap<TypeKind, u32>,
}

impl Types {
    /// The most kinds interning finds by scanning the table. A scan
    /// lookup overtakes an index lookup at about 8 kinds and costs twice
    /// one at 16 (EXPERIMENTS, "Per-module name and type tables").
    const SCAN: usize = 16;

    /// A table holding `int`, `lock` and `void`.
    pub fn new() -> Types {
        let mut kinds = Vec::with_capacity(16);
        kinds.extend([TypeKind::Int, TypeKind::Lock, TypeKind::Void]);
        Types {
            kinds,
            index: FxMap::default(),
        }
    }

    /// The id of `kind`, interning it on first sight.
    pub fn intern(&mut self, kind: TypeKind) -> TypeExpr {
        let found = if self.index.is_empty() {
            self.kinds.iter().position(|&k| k == kind)
        } else {
            self.index.get(&kind).map(|&i| i as usize)
        };
        if let Some(i) = found {
            return TypeExpr(i as u32);
        }
        let id = self.kinds.len() as u32;
        self.kinds.push(kind);
        if !self.index.is_empty() {
            self.index.insert(kind, id);
        } else if self.kinds.len() > Types::SCAN {
            self.index = self.kinds.iter().zip(0..).map(|(&k, i)| (k, i)).collect();
        }
        TypeExpr(id)
    }

    /// The form of `t`.
    pub fn kind(&self, t: TypeExpr) -> TypeKind {
        self.kinds[t.0 as usize]
    }

    /// `T*`.
    pub fn ptr(&mut self, t: TypeExpr) -> TypeExpr {
        self.intern(TypeKind::Ptr(t))
    }

    /// `t` printed as source (`lock*`, `struct dev`, `int[8]`), with
    /// struct names from `names`.
    pub fn show<'a>(&'a self, names: &'a Names, t: TypeExpr) -> impl fmt::Display + 'a {
        ShowType(self, names, t)
    }
}

/// A type of table `.0` in source form, struct names from `.1`.
struct ShowType<'a>(&'a Types, &'a Names, TypeExpr);

impl fmt::Display for ShowType<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (types, names) = (self.0, self.1);
        match types.kind(self.2) {
            TypeKind::Int => write!(f, "int"),
            TypeKind::Lock => write!(f, "lock"),
            TypeKind::Void => write!(f, "void"),
            TypeKind::Ptr(t) => write!(f, "{}*", types.show(names, t)),
            TypeKind::Array(t, n) => write!(f, "{}[{n}]", types.show(names, t)),
            TypeKind::Struct(s) => write!(f, "struct {}", names.get(s)),
        }
    }
}

impl Default for Types {
    fn default() -> Types {
        Types::new()
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

/// The index of an expression in its [`Module`]'s expression array
/// ([`Module::expr`]). Not a [`NodeId`]: ids number every node kind in
/// one sequence, array indices each kind in its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The id as a `usize` index, for side tables sized by
    /// [`Module::expr_count`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The index of a statement in its [`Module`]'s statement array
/// ([`Module::stmt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(u32);

/// The index of a block in its [`Module`]'s block array
/// ([`Module::block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

/// A run of consecutive entries in one of a [`Module`]'s list arrays: a
/// call's arguments ([`Module::args`]), a block's statements
/// ([`Module::stmts`]) or a function's parameters ([`Module::params`]).
pub struct Run<T> {
    start: u32,
    len: u32,
    of: PhantomData<T>,
}

impl<T> Run<T> {
    fn new(start: usize, end: usize) -> Run<T> {
        Run {
            start: start as u32,
            len: (end - start) as u32,
            of: PhantomData,
        }
    }

    /// Entries in the run.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for an empty run.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl<T> Clone for Run<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Run<T> {}

impl<T> PartialEq for Run<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> Eq for Run<T> {}

impl<T> fmt::Debug for Run<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run({:?})", self.range())
    }
}

/// A call's arguments.
pub type ExprList = Run<ExprId>;

/// A function's or extern's parameters.
pub type ParamList = Run<Param>;

/// An expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expr {
    /// Stable node id.
    pub id: NodeId,
    /// The expression's form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// The forms of Mini-C expressions. Subexpressions are ids into the
/// module's expression array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal `n`.
    Int(i64),
    /// Variable reference `x`.
    Var(Ident),
    /// Unary operation; [`UnOp::Deref`] and [`UnOp::AddrOf`] are the
    /// pointer-relevant cases.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// Assignment `e1 = e2` (the paper's `e1 := e2`).
    Assign(ExprId, ExprId),
    /// Direct call `f(args)`. Mini-C has no function pointers.
    Call(Ident, ExprList),
    /// Array index `e1[e2]`.
    Index(ExprId, ExprId),
    /// Field access `e.f`.
    Field(ExprId, Ident),
    /// Pointer field access `e->f` (kept distinct from `(*e).f` for
    /// faithful pretty-printing; the analyses treat them identically).
    Arrow(ExprId, Ident),
    /// Heap allocation `new e`, initialized to the value of `e`
    /// (the core calculus's `new e`).
    New(ExprId),
    /// Type cast `(T) e`. Casts launder aliasing through an opaque
    /// conversion; the corpus uses them to model the "type cast" failures
    /// of the paper's Figure 7 discussion.
    Cast(TypeExpr, ExprId),
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
    pub fn is_confinable_shape(&self, m: &Module) -> bool {
        match self.kind {
            ExprKind::Var(_) | ExprKind::Int(_) => true,
            ExprKind::Unary(UnOp::Deref | UnOp::AddrOf, e)
            | ExprKind::Field(e, _)
            | ExprKind::Arrow(e, _) => m.expr(e).is_confinable_shape(m),
            ExprKind::Index(e, i) => {
                m.expr(e).is_confinable_shape(m) && m.expr(i).is_confinable_shape(m)
            }
            _ => false,
        }
    }

    /// Structural equality *ignoring node ids and spans* — the "syntactic
    /// match" that makes an expression an occurrence of a confined one in
    /// `localias-core`'s constraint generator. Both expressions belong to
    /// `m`.
    pub fn syntactically_equal(&self, m: &Module, other: &Expr) -> bool {
        let eq = |a: ExprId, b: ExprId| m.expr(a).syntactically_equal(m, m.expr(b));
        match (&self.kind, &other.kind) {
            (ExprKind::Int(a), ExprKind::Int(b)) => a == b,
            (ExprKind::Var(a), ExprKind::Var(b)) => a.name == b.name,
            (ExprKind::Unary(op1, a), ExprKind::Unary(op2, b)) => op1 == op2 && eq(*a, *b),
            (ExprKind::Binary(op1, a1, a2), ExprKind::Binary(op2, b1, b2)) => {
                op1 == op2 && eq(*a1, *b1) && eq(*a2, *b2)
            }
            (ExprKind::Assign(a1, a2), ExprKind::Assign(b1, b2))
            | (ExprKind::Index(a1, a2), ExprKind::Index(b1, b2)) => eq(*a1, *b1) && eq(*a2, *b2),
            (ExprKind::Call(f, xs), ExprKind::Call(g, ys)) => {
                f.name == g.name
                    && xs.len() == ys.len()
                    && m.args(*xs)
                        .zip(m.args(*ys))
                        .all(|(x, y)| x.syntactically_equal(m, y))
            }
            (ExprKind::Field(a, f), ExprKind::Field(b, g))
            | (ExprKind::Arrow(a, f), ExprKind::Arrow(b, g)) => f.name == g.name && eq(*a, *b),
            (ExprKind::New(a), ExprKind::New(b)) => eq(*a, *b),
            (ExprKind::Cast(t, a), ExprKind::Cast(u, b)) => t == u && eq(*a, *b),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// Stable node id.
    pub id: NodeId,
    /// The statement's form.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// The forms of Mini-C statements. Expressions and blocks are ids into
/// the module's arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// An expression statement `e;`.
    Expr(ExprId),
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
        init: Option<ExprId>,
    },
    /// The paper's scoped form `restrict x = e { ... }`: `x` is bound to
    /// `e` and restricted exactly within the body block.
    Restrict {
        /// The restricted name.
        name: Ident,
        /// The initializer whose referent is restricted.
        init: ExprId,
        /// The scope of the restriction.
        body: BlockId,
    },
    /// The §6 construct `confine (e) { ... }`: aliases of the location `e`
    /// refers to are restricted within the body, with `e` itself serving as
    /// the name.
    Confine {
        /// The confined expression.
        expr: ExprId,
        /// The scope of the confinement.
        body: BlockId,
    },
    /// `if (cond) { ... } else { ... }`.
    If {
        /// Branch condition.
        cond: ExprId,
        /// Then branch.
        then_blk: BlockId,
        /// Optional else branch.
        else_blk: Option<BlockId>,
    },
    /// `while (cond) { ... }` — or a desugared `for` loop, in which case
    /// `step` runs after the body *and on `continue`* (C semantics).
    While {
        /// Loop condition.
        cond: ExprId,
        /// Loop body.
        body: BlockId,
        /// The `for` loop's step expression, if any.
        step: Option<ExprId>,
    },
    /// `return;` or `return e;`.
    Return(Option<ExprId>),
    /// `break;` — exits the innermost loop.
    Break,
    /// `continue;` — jumps to the innermost loop's next iteration.
    Continue,
    /// A nested block `{ ... }`.
    Block(BlockId),
}

impl StmtKind {
    /// The blocks nested directly in this statement, in source order
    /// (then before else).
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            StmtKind::Block(b)
            | StmtKind::While { body: b, .. }
            | StmtKind::Restrict { body: b, .. }
            | StmtKind::Confine { body: b, .. } => (Some(b), None),
            StmtKind::If {
                then_blk, else_blk, ..
            } => (Some(then_blk), else_blk),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// A brace-delimited sequence of statements; [`Module::stmts`] lists
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Stable node id.
    pub id: NodeId,
    /// The statements, in order.
    stmts: Run<StmtId>,
    /// Source location.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Parameters, in order ([`Module::params`]).
    pub params: ParamList,
    /// Return type.
    pub ret: TypeExpr,
    /// Body.
    pub body: BlockId,
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
    /// Parameters, in order ([`Module::params`]).
    pub params: ParamList,
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
///
/// The module owns its nodes: every expression, statement and block
/// lives in one array per kind, and a node names its children by id
/// ([`ExprId`], [`BlockId`]) or by a [`Run`] of ids (a call's
/// arguments, a block's statements). Parsing fills a few arrays sized
/// from the source length, and dropping the module frees them, instead
/// of one allocation per node. [`Module::expr`], [`Module::stmts`] and
/// the other accessors resolve ids; [`crate::visit`] walks the tree.
///
/// Names and types are ids too: every identifier is a [`Symbol`] into the
/// module's name table ([`Module::name`] resolves it) and every declared
/// type a [`TypeExpr`] into its type table ([`Module::ty`]). The name
/// table sits behind an `Arc`, so reports that print names after the
/// nodes are gone share it ([`crate::Name`]).
///
/// `{:?}` renders the tree, as a derived `Debug` of boxed nodes would:
/// name, items with every node nested in its parent, node count and
/// spans, each name and type printed as its text and form.
#[derive(Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name (e.g. the synthetic driver's name).
    pub name: String,
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// One past the largest allocated [`NodeId`]; side tables can be sized
    /// with this.
    pub node_count: u32,
    /// Span of each node, indexed by [`NodeId`]. The parser records each
    /// span as it assigns the id.
    pub spans: Vec<Span>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    blocks: Vec<Block>,
    params: Vec<Param>,
    /// Every call's argument run.
    args: Vec<ExprId>,
    /// Every block's statement run.
    stmt_runs: Vec<StmtId>,
    /// The name table.
    names: Arc<Names>,
    /// The type table.
    types: Types,
}

impl Module {
    /// An empty module with room for the nodes of `src_len` bytes of
    /// source. The ratios hold for the paper corpus, the mega modules
    /// and the fuzz stream (the densest: up to one expression per 8
    /// bytes), so a parse rarely grows an array.
    pub(crate) fn with_capacity(name: &str, src_len: usize) -> Module {
        Module {
            name: name.to_string(),
            items: Vec::with_capacity(src_len / 48 + 4),
            node_count: 0,
            spans: Vec::with_capacity(src_len / 5 + 8),
            exprs: Vec::with_capacity(src_len / 8 + 8),
            stmts: Vec::with_capacity(src_len / 24 + 4),
            blocks: Vec::with_capacity(src_len / 48 + 2),
            params: Vec::with_capacity(src_len / 80 + 2),
            args: Vec::with_capacity(src_len / 40 + 2),
            stmt_runs: Vec::with_capacity(src_len / 24 + 4),
            // The parser fills a table of its own and moves it in here
            // when it finishes (`set_names`).
            names: Arc::new(Names::unfilled()),
            types: Types::new(),
        }
    }

    /// The text of name `sym`.
    pub fn name(&self, sym: Symbol) -> &str {
        self.names.get(sym)
    }

    /// The module's name table, shared with the reports that print its
    /// names.
    pub fn names(&self) -> &Arc<Names> {
        &self.names
    }

    /// The symbol of `name`, if the module mentions it.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.names.lookup(name)
    }

    /// Moves the parser's filled name table into the module, reusing the
    /// handle [`Module::with_capacity`] allocated.
    pub(crate) fn set_names(&mut self, names: Names) {
        *Arc::get_mut(&mut self.names).expect("no report shares a module under parse") = names;
    }

    /// The form of type `t`.
    pub fn ty(&self, t: TypeExpr) -> TypeKind {
        self.types.kind(t)
    }

    /// The module's type table.
    pub fn types(&self) -> &Types {
        &self.types
    }

    /// Interns type `kind` into the module's type table.
    pub(crate) fn intern_type(&mut self, kind: TypeKind) -> TypeExpr {
        self.types.intern(kind)
    }

    /// `t` printed as source: `lock*`, `struct dev`, `int[8]`.
    pub fn show_type(&self, t: TypeExpr) -> impl fmt::Display + '_ {
        self.types.show(&self.names, t)
    }

    /// Allocates the next node id, for a node spanning `span`.
    pub(crate) fn node(&mut self, span: Span) -> NodeId {
        let id = NodeId(self.spans.len() as u32);
        self.spans.push(span);
        id
    }

    pub(crate) fn push_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = self.node(span);
        self.exprs.push(Expr { id, kind, span });
        ExprId(self.exprs.len() as u32 - 1)
    }

    pub(crate) fn push_stmt(&mut self, kind: StmtKind, span: Span) -> StmtId {
        let id = self.node(span);
        self.stmts.push(Stmt { id, kind, span });
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// A block of the statements `stmts`.
    pub(crate) fn push_block(&mut self, stmts: &[StmtId], span: Span) -> BlockId {
        let start = self.stmt_runs.len();
        self.stmt_runs.extend_from_slice(stmts);
        let stmts = Run::new(start, self.stmt_runs.len());
        let id = self.node(span);
        self.blocks.push(Block { id, stmts, span });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// The run of argument ids `args`.
    pub(crate) fn push_args(&mut self, args: &[ExprId]) -> ExprList {
        let start = self.args.len();
        self.args.extend_from_slice(args);
        Run::new(start, self.args.len())
    }

    pub(crate) fn push_param(&mut self, p: Param) {
        self.params.push(p);
    }

    /// The parameters pushed since the array held `start` of them.
    pub(crate) fn params_since(&self, start: usize) -> ParamList {
        Run::new(start, self.params.len())
    }

    /// The parameter array's length, where the next run starts.
    pub(crate) fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Expression `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// Whether `e` lies in this module's expression array. A copy of
    /// one of its expressions, or another module's, does not: its child
    /// ids would index the wrong array.
    pub fn owns_expr(&self, e: &Expr) -> bool {
        self.exprs.as_ptr_range().contains(&(e as *const Expr))
    }

    /// The id of `e`, an expression of this module's array (as
    /// [`Module::expr`], [`Module::args`] and the visitor hand them
    /// out), read from its place in the array.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not in the array ([`Module::owns_expr`]).
    pub fn expr_id(&self, e: &Expr) -> ExprId {
        assert!(
            self.owns_expr(e),
            "expression is not in module {}",
            self.name
        );
        let offset = e as *const Expr as usize - self.exprs.as_ptr() as usize;
        ExprId((offset / std::mem::size_of::<Expr>()) as u32)
    }

    /// The number of expressions, which bounds every [`ExprId`].
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Statement `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// Statement `id`, to edit in place.
    pub fn stmt_mut(&mut self, id: StmtId) -> &mut Stmt {
        &mut self.stmts[id.0 as usize]
    }

    /// Block `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// The statements of block `b`, in order.
    pub fn stmts(
        &self,
        b: BlockId,
    ) -> impl ExactSizeIterator<Item = &Stmt> + DoubleEndedIterator + Clone {
        self.stmt_ids(b).iter().map(|&s| self.stmt(s))
    }

    /// The ids of block `b`'s statements, in order.
    pub fn stmt_ids(&self, b: BlockId) -> &[StmtId] {
        &self.stmt_runs[self.block(b).stmts.range()]
    }

    /// Makes `stmts` the statements of block `b`. The new run goes at
    /// the end of the statement-run array; the old one stays unused.
    pub fn set_stmts(&mut self, b: BlockId, stmts: &[StmtId]) {
        let start = self.stmt_runs.len();
        self.stmt_runs.extend_from_slice(stmts);
        self.blocks[b.0 as usize].stmts = Run::new(start, self.stmt_runs.len());
    }

    /// The ids of a call's arguments, in order.
    pub fn arg_ids(&self, args: ExprList) -> &[ExprId] {
        &self.args[args.range()]
    }

    /// A call's arguments, in order.
    pub fn args(
        &self,
        args: ExprList,
    ) -> impl ExactSizeIterator<Item = &Expr> + DoubleEndedIterator + Clone {
        self.args[args.range()].iter().map(|&e| self.expr(e))
    }

    /// A function's or extern's parameters, in order.
    pub fn params(&self, params: ParamList) -> &[Param] {
        &self.params[params.range()]
    }

    /// `e`'s form for `{:?}`, with its subexpressions nested in place
    /// of their ids (a diagnostic's rendering of a bad expression).
    pub fn kind_tree<'a>(&'a self, e: &'a Expr) -> impl fmt::Debug + 'a {
        Tree(self, &e.kind)
    }

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
        let sym = self.symbol(name)?;
        self.functions().find(|f| f.name.name == sym)
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
        let sym = self.symbol(name)?;
        self.structs().find(|s| s.name.name == sym)
    }
}

/// A node of module `.0`, rendered as the derived `Debug` of a tree of
/// boxed nodes renders it: each child nested in place of its id.
struct Tree<'m, T>(&'m Module, T);

/// A sequence rendered as a `Debug` list.
struct List<I>(I);

impl<I: Iterator<Item = T> + Clone, T: fmt::Debug> fmt::Debug for List<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.clone()).finish()
    }
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("items", &List(self.items.iter().map(|i| Tree(self, i))))
            .field("node_count", &self.node_count)
            .field("spans", &self.spans)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &Item> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Item")
            .field("kind", &Tree(self.0, &self.1.kind))
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &ItemKind> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        match self.1 {
            ItemKind::Struct(s) => f.debug_tuple("Struct").field(&Tree(m, s)).finish(),
            ItemKind::Global(g) => f.debug_tuple("Global").field(&Tree(m, g)).finish(),
            ItemKind::Fun(fun) => f.debug_tuple("Fun").field(&Tree(m, fun)).finish(),
            ItemKind::Extern(x) => f.debug_tuple("Extern").field(&Tree(m, x)).finish(),
        }
    }
}

impl fmt::Debug for Tree<'_, Symbol> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.name(self.1), f)
    }
}

impl fmt::Debug for Tree<'_, Ident> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ident")
            .field("name", &Tree(self.0, self.1.name))
            .field("span", &self.1.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, TypeExpr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        match m.ty(self.1) {
            TypeKind::Int => f.write_str("Int"),
            TypeKind::Lock => f.write_str("Lock"),
            TypeKind::Void => f.write_str("Void"),
            TypeKind::Ptr(t) => f.debug_tuple("Ptr").field(&Tree(m, t)).finish(),
            TypeKind::Array(t, n) => f.debug_tuple("Array").field(&Tree(m, t)).field(&n).finish(),
            TypeKind::Struct(s) => f.debug_tuple("Struct").field(&Tree(m, s)).finish(),
        }
    }
}

impl fmt::Debug for Tree<'_, &StructDef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, s) = (self.0, self.1);
        let fields = s.fields.iter().map(|&(x, t)| (Tree(m, x), Tree(m, t)));
        f.debug_struct("StructDef")
            .field("id", &s.id)
            .field("name", &Tree(m, s.name))
            .field("fields", &List(fields))
            .field("span", &s.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &Global> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, g) = (self.0, self.1);
        f.debug_struct("Global")
            .field("id", &g.id)
            .field("name", &Tree(m, g.name))
            .field("ty", &Tree(m, g.ty))
            .field("span", &g.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &Param> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, p) = (self.0, self.1);
        f.debug_struct("Param")
            .field("name", &Tree(m, p.name))
            .field("ty", &Tree(m, p.ty))
            .field("restrict", &p.restrict)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, ParamList> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        List(m.params(self.1).iter().map(|p| Tree(m, p))).fmt(f)
    }
}

impl fmt::Debug for Tree<'_, &FunDef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, fun) = (self.0, self.1);
        f.debug_struct("FunDef")
            .field("id", &fun.id)
            .field("name", &Tree(m, fun.name))
            .field("params", &Tree(m, fun.params))
            .field("ret", &Tree(m, fun.ret))
            .field("body", &Tree(m, fun.body))
            .field("span", &fun.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &ExternDef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, x) = (self.0, self.1);
        f.debug_struct("ExternDef")
            .field("id", &x.id)
            .field("name", &Tree(m, x.name))
            .field("params", &Tree(m, x.params))
            .field("ret", &Tree(m, x.ret))
            .field("span", &x.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, BlockId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, b) = (self.0, self.1);
        f.debug_struct("Block")
            .field("id", &m.block(b).id)
            .field("stmts", &List(m.stmts(b).map(|s| Tree(m, s))))
            .field("span", &m.block(b).span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &Stmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stmt")
            .field("id", &self.1.id)
            .field("kind", &Tree(self.0, &self.1.kind))
            .field("span", &self.1.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &StmtKind> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        let e = |id: ExprId| Tree(m, m.expr(id));
        let b = |id: BlockId| Tree(m, id);
        match *self.1 {
            StmtKind::Expr(x) => f.debug_tuple("Expr").field(&e(x)).finish(),
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => f
                .debug_struct("Decl")
                .field("binding", &binding)
                .field("ty", &Tree(m, ty))
                .field("name", &Tree(m, name))
                .field("init", &init.map(e))
                .finish(),
            StmtKind::Restrict { name, init, body } => f
                .debug_struct("Restrict")
                .field("name", &Tree(m, name))
                .field("init", &e(init))
                .field("body", &b(body))
                .finish(),
            StmtKind::Confine { expr, body } => f
                .debug_struct("Confine")
                .field("expr", &e(expr))
                .field("body", &b(body))
                .finish(),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => f
                .debug_struct("If")
                .field("cond", &e(cond))
                .field("then_blk", &b(then_blk))
                .field("else_blk", &else_blk.map(b))
                .finish(),
            StmtKind::While { cond, body, step } => f
                .debug_struct("While")
                .field("cond", &e(cond))
                .field("body", &b(body))
                .field("step", &step.map(e))
                .finish(),
            StmtKind::Return(x) => f.debug_tuple("Return").field(&x.map(e)).finish(),
            StmtKind::Break => f.write_str("Break"),
            StmtKind::Continue => f.write_str("Continue"),
            StmtKind::Block(x) => f.debug_tuple("Block").field(&b(x)).finish(),
        }
    }
}

impl fmt::Debug for Tree<'_, &Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Expr")
            .field("id", &self.1.id)
            .field("kind", &Tree(self.0, &self.1.kind))
            .field("span", &self.1.span)
            .finish()
    }
}

impl fmt::Debug for Tree<'_, &ExprKind> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        let e = |id: ExprId| Tree(m, m.expr(id));
        match *self.1 {
            ExprKind::Int(n) => f.debug_tuple("Int").field(&n).finish(),
            ExprKind::Var(x) => f.debug_tuple("Var").field(&Tree(m, x)).finish(),
            ExprKind::Unary(op, a) => f.debug_tuple("Unary").field(&op).field(&e(a)).finish(),
            ExprKind::Binary(op, a, c) => f
                .debug_tuple("Binary")
                .field(&op)
                .field(&e(a))
                .field(&e(c))
                .finish(),
            ExprKind::Assign(a, c) => f.debug_tuple("Assign").field(&e(a)).field(&e(c)).finish(),
            ExprKind::Call(g, args) => f
                .debug_tuple("Call")
                .field(&Tree(m, g))
                .field(&List(m.args(args).map(|a| Tree(m, a))))
                .finish(),
            ExprKind::Index(a, c) => f.debug_tuple("Index").field(&e(a)).field(&e(c)).finish(),
            ExprKind::Field(a, g) => f
                .debug_tuple("Field")
                .field(&e(a))
                .field(&Tree(m, g))
                .finish(),
            ExprKind::Arrow(a, g) => f
                .debug_tuple("Arrow")
                .field(&e(a))
                .field(&Tree(m, g))
                .finish(),
            ExprKind::New(a) => f.debug_tuple("New").field(&e(a)).finish(),
            ExprKind::Cast(ty, a) => f
                .debug_tuple("Cast")
                .field(&Tree(m, ty))
                .field(&e(a))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_module};

    fn confinable(src: &str) -> bool {
        let (m, e) = parse_expr(src).unwrap();
        m.expr(e).is_confinable_shape(&m)
    }

    #[test]
    fn confinable_shapes() {
        assert!(confinable("x"));
        assert!(confinable("*p"));
        assert!(confinable("&locks[i]"), "&locks[i] must be confinable");
        assert!(!confinable("f()"), "calls may not terminate");
        assert!(!confinable("a = b"));
    }

    #[test]
    fn syntactic_equality_ignores_ids() {
        let m = parse_module("m", "void f() { locks[i]; locks [ i ]; locks[j]; }").unwrap();
        let body = m.function("f").unwrap().body;
        let e: Vec<&Expr> = m
            .stmts(body)
            .map(|s| match s.kind {
                StmtKind::Expr(e) => m.expr(e),
                _ => unreachable!("expression statements"),
            })
            .collect();
        assert_ne!((e[0].id, e[0].span), (e[1].id, e[1].span));
        assert!(e[0].syntactically_equal(&m, e[1]));
        assert!(!e[0].syntactically_equal(&m, e[2]));
    }

    #[test]
    fn types_past_the_scan_are_interned_once() {
        let mut t = Types::new();
        let arrays = |t: &mut Types| -> Vec<TypeExpr> {
            (0..100)
                .map(|n| t.intern(TypeKind::Array(TypeExpr::INT, n)))
                .collect()
        };
        let first = arrays(&mut t);
        assert_eq!(arrays(&mut t), first, "the index finds every kind again");
        assert_eq!(t.intern(TypeKind::Int), TypeExpr::INT);
        assert_eq!(t.kind(first[99]), TypeKind::Array(TypeExpr::INT, 99));
    }

    #[test]
    fn types_are_interned_once_and_print_as_source() {
        let mut m = parse_module("m", "lock *a; lock *b; lock c[8]; struct dev d;").unwrap();
        let tys: Vec<TypeExpr> = m.globals().map(|g| g.ty).collect();
        assert_eq!(tys[0], tys[1], "one id per distinct type");
        assert_eq!(m.ty(tys[0]), TypeKind::Ptr(TypeExpr::LOCK));
        let shown: Vec<String> = tys.iter().map(|&t| m.show_type(t).to_string()).collect();
        assert_eq!(shown, ["lock*", "lock*", "lock[8]", "struct dev"]);
        let lock_ptr = m.intern_type(TypeKind::Ptr(TypeExpr::LOCK));
        assert_eq!(lock_ptr, tys[0]);
    }
}
