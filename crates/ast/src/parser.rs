//! A recursive-descent parser for Mini-C.
//!
//! The grammar is a small, unambiguous subset of C extended with the
//! paper's constructs:
//!
//! ```text
//! module   := item*
//! item     := struct ";"-def | extern | global | function
//! stmt     := decl | "restrict" x "=" expr block | "confine" "(" expr ")" block
//!           | "if" | "while" | "for" | "return" | block | expr ";"
//! ```
//!
//! `for` loops are desugared to `while` during parsing. Casts are
//! unambiguous because Mini-C type expressions always begin with a type
//! keyword (`int`, `lock`, `void`, `struct`).
//!
//! The whole source is lexed before parsing starts, so a lexical error
//! anywhere is reported ahead of any syntax error. Identifiers are
//! interned as they are consumed, and each node's span is recorded as
//! its id is assigned, which fills [`Module::spans`] without a second
//! walk.

use crate::ast::*;
use crate::intern::Interner;
use crate::lexer::{LexError, Lexer};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::error::Error;
use std::fmt;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// Location of the offending token.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.msg)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            span: e.span,
        }
    }
}

/// Parses a complete module from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
///
/// # Example
///
/// ```
/// let m = localias_ast::parse_module("m", "int g; void f() { g = 1; }")?;
/// assert!(m.function("f").is_some());
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub fn parse_module(name: &str, src: &str) -> Result<Module, ParseError> {
    Parser::new(src)?.module(name)
}

/// Parses a single expression (useful in tests and the REPL-ish CLI).
///
/// # Errors
///
/// Returns a [`ParseError`] if `src` is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(TokenKind::Eof)?;
    Ok(e)
}

/// The maximum nesting depth (blocks + expressions) the parser accepts.
/// Deeper inputs get a parse error instead of a stack overflow — the
/// bound is conservative because every expression level costs a full
/// precedence-chain of stack frames.
pub const MAX_NESTING: usize = 64;

/// The parser state: the source and its token buffer, a node-id
/// allocator with the span of each allocated id, and the identifier
/// interner.
#[derive(Debug)]
pub struct Parser<'src> {
    src: &'src str,
    toks: Vec<Token>,
    pos: usize,
    depth: usize,
    /// Span of each allocated [`NodeId`], indexed by id.
    spans: Vec<Span>,
    /// Per-parse symbol arena: every occurrence of one identifier in the
    /// module shares a single allocation (see [`crate::intern`]).
    interner: Interner,
}

/// The binary operator a token spells, with its precedence: `||`
/// binds loosest, `*`, `/` and `%` tightest.
fn binop(tok: TokenKind) -> Option<(BinOp, u8)> {
    Some(match tok {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, 2),
        TokenKind::NotEq => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

impl<'src> Parser<'src> {
    /// Lexes `src` and readies a parser over it.
    ///
    /// # Errors
    ///
    /// Propagates lexing failures.
    pub fn new(src: &'src str) -> Result<Self, ParseError> {
        let toks = Lexer::new(src).tokenize()?;
        // A module has fewer nodes than tokens.
        let spans = Vec::with_capacity(toks.len());
        Ok(Parser {
            src,
            toks,
            pos: 0,
            depth: 0,
            spans,
            interner: Interner::new(),
        })
    }

    /// Allocates the next node id for a node spanning `span`.
    fn node(&mut self, span: Span) -> NodeId {
        let id = NodeId(self.spans.len() as u32);
        self.spans.push(span);
        id
    }

    fn peek(&self) -> TokenKind {
        self.peek_nth(0)
    }

    fn peek2(&self) -> TokenKind {
        self.peek_nth(1)
    }

    /// The kind of the token `n` places ahead (the final `Eof` repeats).
    fn peek_nth(&self, n: usize) -> TokenKind {
        self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    /// The current token, described for an error message.
    fn found(&self) -> String {
        self.toks[self.pos].describe(self.src)
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {}, found {}", kind, self.found())))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError {
            msg,
            span: self.span(),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn ident(&mut self) -> Result<Ident, ParseError> {
        if self.peek() != TokenKind::Ident {
            return Err(self.err(format!("expected identifier, found {}", self.found())));
        }
        let span = self.bump().span;
        let name = self.interner.intern(span.snippet(self.src));
        Ok(Ident { name, span })
    }

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt | TokenKind::KwLock | TokenKind::KwVoid | TokenKind::KwStruct
        )
    }

    /// Parses a base type plus pointer stars: `int**`, `struct dev*`, ...
    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let mut ty = match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                TypeExpr::Int
            }
            TokenKind::KwLock => {
                self.bump();
                TypeExpr::Lock
            }
            TokenKind::KwVoid => {
                self.bump();
                TypeExpr::Void
            }
            TokenKind::KwStruct => {
                self.bump();
                let name = self.ident()?;
                TypeExpr::Struct(name.name)
            }
            _ => return Err(self.err(format!("expected a type, found {}", self.found()))),
        };
        while self.eat(TokenKind::Star) {
            ty = TypeExpr::ptr(ty);
        }
        Ok(ty)
    }

    /// Parses a whole module.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error.
    pub fn module(&mut self, name: &str) -> Result<Module, ParseError> {
        let mut items = Vec::new();
        while self.peek() != TokenKind::Eof {
            items.push(self.item()?);
        }
        let spans = std::mem::take(&mut self.spans);
        Ok(Module {
            name: name.to_string(),
            items,
            node_count: spans.len() as u32,
            spans,
        })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        // `struct S {` opens a struct definition; `struct S g;` and
        // `struct S *f() { ... }` declare a global or function of struct
        // type.
        if self.peek() == TokenKind::KwStruct
            && self.peek2() == TokenKind::Ident
            && self.peek_nth(2) == TokenKind::LBrace
        {
            return Ok(Item {
                kind: ItemKind::Struct(self.struct_def()?),
            });
        }
        if self.peek() == TokenKind::KwExtern {
            return Ok(Item {
                kind: ItemKind::Extern(self.extern_def()?),
            });
        }
        // Global or function: type declarator then `(` or `;`/`[`.
        let lo = self.span();
        let ty = self.type_expr()?;
        let name = self.ident()?;
        if self.peek() == TokenKind::LParen {
            let fun = self.fun_rest(lo, ty, name)?;
            Ok(Item {
                kind: ItemKind::Fun(fun),
            })
        } else {
            let ty = self.array_suffix(ty)?;
            self.expect(TokenKind::Semi)?;
            let span = lo.to(self.prev_span());
            Ok(Item {
                kind: ItemKind::Global(Global {
                    id: self.node(span),
                    name,
                    ty,
                    span,
                }),
            })
        }
    }

    fn array_suffix(&mut self, ty: TypeExpr) -> Result<TypeExpr, ParseError> {
        if self.eat(TokenKind::LBracket) {
            let n = match self.peek() {
                TokenKind::Int(n) if n >= 0 => {
                    self.bump();
                    n as usize
                }
                _ => return Err(self.err(format!("expected array length, found {}", self.found()))),
            };
            self.expect(TokenKind::RBracket)?;
            Ok(TypeExpr::array(ty, n))
        } else {
            Ok(ty)
        }
    }

    fn struct_def(&mut self) -> Result<StructDef, ParseError> {
        let lo = self.span();
        self.expect(TokenKind::KwStruct)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != TokenKind::RBrace {
            let ty = self.type_expr()?;
            let fname = self.ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect(TokenKind::Semi)?;
            fields.push((fname, ty));
        }
        self.expect(TokenKind::RBrace)?;
        self.expect(TokenKind::Semi)?;
        let span = lo.to(self.prev_span());
        Ok(StructDef {
            id: self.node(span),
            name,
            fields,
            span,
        })
    }

    fn extern_def(&mut self) -> Result<ExternDef, ParseError> {
        let lo = self.span();
        self.expect(TokenKind::KwExtern)?;
        let ret = self.type_expr()?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let params = self.params()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        let span = lo.to(self.prev_span());
        Ok(ExternDef {
            id: self.node(span),
            name,
            params,
            ret,
            span,
        })
    }

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.peek() == TokenKind::RParen {
            return Ok(params);
        }
        if self.peek() == TokenKind::KwVoid && self.peek2() == TokenKind::RParen {
            self.bump(); // C-style `f(void)`
            return Ok(params);
        }
        loop {
            // `restrict` may appear after the pointer stars, C99-style:
            // `lock *restrict l`. `type_expr` consumes the stars.
            let ty = self.type_expr()?;
            let restrict = self.eat(TokenKind::KwRestrict);
            let name = self.ident()?;
            params.push(Param { name, ty, restrict });
            if !self.eat(TokenKind::Comma) {
                return Ok(params);
            }
        }
    }

    fn fun_rest(&mut self, lo: Span, ret: TypeExpr, name: Ident) -> Result<FunDef, ParseError> {
        self.expect(TokenKind::LParen)?;
        let params = self.params()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = lo.to(self.prev_span());
        Ok(FunDef {
            id: self.node(span),
            name,
            params,
            ret,
            body,
            span,
        })
    }

    /// Parses a brace-delimited block.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error.
    pub fn block(&mut self) -> Result<Block, ParseError> {
        self.enter()?;
        let lo = self.span();
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != TokenKind::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        self.leave();
        let span = lo.to(self.prev_span());
        Ok(Block {
            id: self.node(span),
            stmts,
            span,
        })
    }

    /// A statement of kind `kind` starting at `lo` and ending with the
    /// token just consumed.
    fn stmt_from(&mut self, lo: Span, kind: StmtKind) -> Stmt {
        let span = lo.to(self.prev_span());
        Stmt {
            id: self.node(span),
            kind,
            span,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span();
        match self.peek() {
            TokenKind::KwRestrict => {
                self.bump();
                if self.at_type_start() {
                    // `restrict T x = e;` — a restrict-qualified declaration.
                    self.decl_rest(lo, BindingKind::Restrict)
                } else {
                    // `restrict x = e { ... }` — the paper's scoped form.
                    let name = self.ident()?;
                    self.expect(TokenKind::Eq)?;
                    let init = self.expr()?;
                    let body = self.block()?;
                    Ok(self.stmt_from(lo, StmtKind::Restrict { name, init, body }))
                }
            }
            TokenKind::KwConfine => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let expr = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(self.stmt_from(lo, StmtKind::Confine { expr, body }))
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                let kind = StmtKind::While {
                    cond,
                    body,
                    step: None,
                };
                Ok(self.stmt_from(lo, kind))
            }
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let e = if self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt_from(lo, StmtKind::Return(e)))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt_from(lo, StmtKind::Break))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt_from(lo, StmtKind::Continue))
            }
            TokenKind::LBrace => {
                let b = self.block()?;
                Ok(self.stmt_from(lo, StmtKind::Block(b)))
            }
            TokenKind::KwLet => Err(self.err(
                "`let` is reserved; write a typed declaration such as `int *x = e;`".to_string(),
            )),
            _ if self.at_type_start() => self.decl_rest(lo, BindingKind::Let),
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt_from(lo, StmtKind::Expr(e)))
            }
        }
    }

    fn decl_rest(&mut self, lo: Span, binding: BindingKind) -> Result<Stmt, ParseError> {
        let ty = self.type_expr()?;
        let name = self.ident()?;
        let ty = self.array_suffix(ty)?;
        let init = if self.eat(TokenKind::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        let kind = StmtKind::Decl {
            binding,
            ty,
            name,
            init,
        };
        Ok(self.stmt_from(lo, kind))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span();
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat(TokenKind::KwElse) {
            if self.peek() == TokenKind::KwIf {
                // `else if` — wrap the nested if in a synthetic block.
                let nested = self.if_stmt()?;
                let span = nested.span;
                Some(Block {
                    id: self.node(span),
                    stmts: vec![nested],
                    span,
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        let kind = StmtKind::If {
            cond,
            then_blk,
            else_blk,
        };
        Ok(self.stmt_from(lo, kind))
    }

    /// Desugars `for (init; cond; step) body` into
    /// `{ init; while (cond) { body...; step; } }`.
    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.span();
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init: Option<Stmt> = if self.peek() == TokenKind::Semi {
            self.bump();
            None
        } else if self.at_type_start() {
            let dlo = self.span();
            Some(self.decl_rest(dlo, BindingKind::Let)?)
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            let span = e.span;
            Some(Stmt {
                id: self.node(span),
                kind: StmtKind::Expr(e),
                span,
            })
        };
        let cond = if self.peek() == TokenKind::Semi {
            let span = self.span();
            Expr {
                id: self.node(span),
                kind: ExprKind::Int(1),
                span,
            }
        } else {
            self.expr()?
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek() == TokenKind::RParen {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = lo.to(self.prev_span());
        let while_stmt = Stmt {
            id: self.node(span),
            kind: StmtKind::While { cond, body, step },
            span,
        };
        // The block wrapper exists only to scope the init declaration; an
        // init-less `for` must stay a bare loop so the pretty printer's
        // `for (; cond; step)` rendering re-parses to the same tree
        // (the canonical-form fixpoint the analysis cache keys on).
        let Some(init) = init else {
            return Ok(while_stmt);
        };
        let blk = Block {
            id: self.node(span),
            stmts: vec![init, while_stmt],
            span,
        };
        Ok(Stmt {
            id: self.node(span),
            kind: StmtKind::Block(blk),
            span,
        })
    }

    /// Parses an expression (lowest precedence: assignment).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error.
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assign()
    }

    fn assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        if self.eat(TokenKind::Eq) {
            let rhs = self.assign()?; // right-associative
            let span = lhs.span.to(rhs.span);
            Ok(self.expr_at(span, ExprKind::Assign(Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    /// An expression of kind `kind` spanning `span`.
    fn expr_at(&mut self, span: Span, kind: ExprKind) -> Expr {
        Expr {
            id: self.node(span),
            kind,
            span,
        }
    }

    /// A chain of left-associative binary operators binding at least as
    /// tightly as `min_prec`, by precedence climbing. Operands finish
    /// before the node joining them, so node ids come out in post-order.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binop(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.expr_at(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.unary_inner();
        self.leave();
        result
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        let lo = self.span();
        let op = match self.peek() {
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::AddrOf),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::KwNew => {
                self.bump();
                let e = self.unary()?;
                let span = lo.to(e.span);
                return Ok(self.expr_at(span, ExprKind::New(Box::new(e))));
            }
            TokenKind::LParen
                if matches!(
                    self.peek2(),
                    TokenKind::KwInt | TokenKind::KwLock | TokenKind::KwVoid | TokenKind::KwStruct
                ) =>
            {
                // Cast: `( type ) unary`.
                self.bump();
                let ty = self.type_expr()?;
                self.expect(TokenKind::RParen)?;
                let e = self.unary()?;
                let span = lo.to(e.span);
                return Ok(self.expr_at(span, ExprKind::Cast(ty, Box::new(e))));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            let span = lo.to(e.span);
            Ok(self.expr_at(span, ExprKind::Unary(op, Box::new(e))))
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    e = self.expr_at(span, ExprKind::Index(Box::new(e), Box::new(idx)));
                }
                TokenKind::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    let span = e.span.to(f.span);
                    e = self.expr_at(span, ExprKind::Field(Box::new(e), f));
                }
                TokenKind::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    let span = e.span.to(f.span);
                    e = self.expr_at(span, ExprKind::Arrow(Box::new(e), f));
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let lo = self.span();
        match self.peek() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(self.expr_at(lo, ExprKind::Int(n)))
            }
            TokenKind::Ident => {
                let name = self.ident()?;
                if self.peek() == TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    let span = lo.to(self.prev_span());
                    Ok(self.expr_at(span, ExprKind::Call(name, args)))
                } else {
                    let span = name.span;
                    Ok(self.expr_at(span, ExprKind::Var(name)))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            _ => Err(self.err(format!("expected an expression, found {}", self.found()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_program_parses() {
        let src = r#"
            lock locks[8];
            extern void work();
            void do_with_lock(lock *restrict l) {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
            void foo(int i) {
                do_with_lock(&locks[i]);
            }
        "#;
        let m = parse_module("fig1", src).unwrap();
        assert_eq!(m.items.len(), 4);
        let f = m.function("do_with_lock").unwrap();
        assert!(f.params[0].restrict, "parameter must be restrict-qualified");
        assert_eq!(f.params[0].ty, TypeExpr::ptr(TypeExpr::Lock));
        assert_eq!(f.body.stmts.len(), 3);
        let g = m.globals().next().unwrap();
        assert_eq!(g.ty, TypeExpr::array(TypeExpr::Lock, 8));
    }

    #[test]
    fn restrict_scoped_statement() {
        let src = r#"
            void f(lock *q) {
                restrict p = q {
                    spin_lock(p);
                    spin_unlock(p);
                }
            }
        "#;
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::Restrict { name, body, .. } => {
                assert_eq!(name.name, "p");
                assert_eq!(body.stmts.len(), 2);
            }
            other => panic!("expected restrict stmt, got {other:?}"),
        }
    }

    #[test]
    fn restrict_declaration() {
        let src = "void f(int *q) { restrict int *p = q; *p = 3; }";
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::Decl { binding, name, .. } => {
                assert_eq!(*binding, BindingKind::Restrict);
                assert_eq!(name.name, "p");
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn confine_statement() {
        let src = r#"
            lock locks[4];
            extern void work();
            void f(int i) {
                confine (&locks[i]) {
                    spin_lock(&locks[i]);
                    work();
                    spin_unlock(&locks[i]);
                }
            }
        "#;
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::Confine { expr, body } => {
                assert!(expr.is_confinable_shape());
                assert_eq!(body.stmts.len(), 3);
            }
            other => panic!("expected confine stmt, got {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let e = parse_expr("a = b == c + d * 2").unwrap();
        // a = (b == (c + (d * 2)))
        match e.kind {
            ExprKind::Assign(_, rhs) => match rhs.kind {
                ExprKind::Binary(BinOp::Eq, _, inner) => match inner.kind {
                    ExprKind::Binary(BinOp::Add, _, mul) => {
                        assert!(matches!(mul.kind, ExprKind::Binary(BinOp::Mul, _, _)))
                    }
                    other => panic!("expected add, got {other:?}"),
                },
                other => panic!("expected eq, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr("a = b = c").unwrap();
        match e.kind {
            ExprKind::Assign(lhs, rhs) => {
                assert!(matches!(lhs.kind, ExprKind::Var(_)));
                assert!(matches!(rhs.kind, ExprKind::Assign(_, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn casts_parse() {
        let e = parse_expr("(lock*) p").unwrap();
        match e.kind {
            ExprKind::Cast(ty, inner) => {
                assert_eq!(ty, TypeExpr::ptr(TypeExpr::Lock));
                assert!(matches!(inner.kind, ExprKind::Var(_)));
            }
            other => panic!("expected cast, got {other:?}"),
        }
        // A parenthesized expression is not a cast.
        let e = parse_expr("(p)").unwrap();
        assert!(matches!(e.kind, ExprKind::Var(_)));
    }

    #[test]
    fn new_expression() {
        let e = parse_expr("new 0").unwrap();
        assert!(matches!(e.kind, ExprKind::New(_)));
        let e = parse_expr("new new 1").unwrap();
        match e.kind {
            ExprKind::New(inner) => assert!(matches!(inner.kind, ExprKind::New(_))),
            other => panic!("expected nested new, got {other:?}"),
        }
    }

    #[test]
    fn for_desugars_to_while() {
        let src = "void f() { for (int i = 0; i < 10; i = i + 1) { g(i); } }";
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::Block(b) => {
                assert!(matches!(b.stmts[0].kind, StmtKind::Decl { .. }));
                match &b.stmts[1].kind {
                    StmtKind::While { body, step, .. } => {
                        // The step lives on the loop, not in the body,
                        // so `continue` still runs it (C semantics).
                        assert_eq!(body.stmts.len(), 1);
                        assert!(step.is_some());
                    }
                    other => panic!("expected while, got {other:?}"),
                }
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let src = "void f(int a) { if (a == 1) { g(); } else if (a == 2) { h(); } else { k(); } }";
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::If { else_blk, .. } => {
                let else_blk = else_blk.as_ref().unwrap();
                assert!(matches!(else_blk.stmts[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn structs_and_arrow() {
        let src = r#"
            struct dev { lock mu; int count; };
            void f(struct dev *d) {
                spin_lock(&d->mu);
                d->count = d->count + 1;
                spin_unlock(&d->mu);
            }
        "#;
        let m = parse_module("m", src).unwrap();
        let s = m.struct_def("dev").unwrap();
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].1, TypeExpr::Lock);
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        use crate::visit::{walk_module, Visitor};
        let src = "int g; void f(int x) { int *p = new x; *p = g; }";
        let m = parse_module("m", src).unwrap();
        struct Collect(Vec<u32>);
        impl Visitor for Collect {
            fn visit_expr(&mut self, e: &Expr) {
                self.0.push(e.id.0);
                crate::visit::walk_expr(self, e);
            }
            fn visit_stmt(&mut self, s: &Stmt) {
                self.0.push(s.id.0);
                crate::visit::walk_stmt(self, s);
            }
            fn visit_block(&mut self, b: &Block) {
                self.0.push(b.id.0);
                crate::visit::walk_block(self, b);
            }
        }
        let mut c = Collect(Vec::new());
        walk_module(&mut c, &m);
        let mut ids = c.0.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.0.len(), "node ids must be unique");
        assert!(ids.iter().all(|&i| i < m.node_count));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_module("m", "void f( {").is_err());
        assert!(parse_module("m", "int ;").is_err());
        assert!(parse_expr("a +").is_err());
        assert!(parse_expr("").is_err());
        let err = parse_module("m", "void f() { let x = 1; }").unwrap_err();
        assert!(err.msg.contains("reserved"));
    }

    #[test]
    fn break_and_continue() {
        let src = r#"
            void f(int n) {
                while (1) {
                    if (n == 0) { break; }
                    if (n == 7) { continue; }
                    n = n - 1;
                }
            }
        "#;
        let m = parse_module("m", src).unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::While { body, .. } => {
                let then_of = |i: usize| match &body.stmts[i].kind {
                    StmtKind::If { then_blk, .. } => &then_blk.stmts[0].kind,
                    other => panic!("expected if, got {other:?}"),
                };
                assert!(matches!(then_of(0), StmtKind::Break));
                assert!(matches!(then_of(1), StmtKind::Continue));
            }
            other => panic!("expected while, got {other:?}"),
        }
        // Outside a loop these still parse; the checker treats them as
        // terminating the path.
        assert!(parse_module("m", "void g() { break; }").is_ok());
    }

    #[test]
    fn extern_and_void_params() {
        let m = parse_module("m", "extern int get(void); void f(void) { get(); }").unwrap();
        assert_eq!(m.externs().count(), 1);
        assert_eq!(m.function("f").unwrap().params.len(), 0);
    }
}
