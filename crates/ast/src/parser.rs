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
//! The lexer hands the parser one token at a time, three tokens ahead of
//! what it has consumed; no token vector is built. A lexical error
//! anywhere still wins over any syntax error: the parser reads a lexical
//! error as the end of input, and when the parse fails first, the rest
//! of the source is lexed for a lexical error to report instead.
//! Identifiers and types are interned into the module's tables as they
//! are consumed, and each node goes into its module's arrays as its id
//! is assigned, children before parents, which numbers the ids in
//! post-order and fills [`Module::spans`] without a second walk.

use crate::ast::*;
use crate::intern::{self, Names};
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
/// Returns a [`ParseError`] describing the first lexical error, or the
/// first syntax error when the source lexes cleanly.
///
/// # Example
///
/// ```
/// let m = localias_ast::parse_module("m", "int g; void f() { g = 1; }")?;
/// assert!(m.function("f").is_some());
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub fn parse_module(name: &str, src: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(name, src);
    let parsed = p.module();
    p.finish(parsed).map(|(m, ())| m)
}

/// Parses a single expression (useful in tests): a module that holds
/// only the expression's nodes, and the expression's id in it.
///
/// # Errors
///
/// Returns a [`ParseError`] if `src` is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<(Module, ExprId), ParseError> {
    let mut p = Parser::new("expr", src);
    let parsed = p.expr().and_then(|e| {
        p.expect(TokenKind::Eof)?;
        Ok(e)
    });
    p.finish(parsed)
}

/// The maximum nesting depth (blocks + expressions) the parser accepts.
/// Deeper inputs get a parse error instead of a stack overflow — the
/// bound is conservative because every expression level costs a full
/// precedence-chain of stack frames.
pub const MAX_NESTING: usize = 64;

/// The parser state: the lexer and the tokens read ahead of it, the
/// module whose arrays and tables the parse fills, and the ids of the
/// statements and call arguments still being collected.
struct Parser<'src> {
    src: &'src str,
    lexer: Lexer<'src>,
    /// The current token and the two after it.
    ahead: [Token; 3],
    /// The span of the last token consumed.
    prev: Span,
    /// The first lexical error; the lexer reads as end of input after it.
    lex_error: Option<LexError>,
    depth: usize,
    /// The module under construction.
    m: Module,
    /// The module's name table; [`Parser::finish`] moves it into `m`.
    names: Names,
    /// The statements of every open block, innermost last.
    open_stmts: Vec<StmtId>,
    /// The arguments of every open call, innermost last.
    open_args: Vec<ExprId>,
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
    /// A parser over `src` that builds module `name`, with the first
    /// three tokens read.
    fn new(name: &str, src: &'src str) -> Self {
        let eof = Token::new(TokenKind::Eof, Span::DUMMY);
        // A corpus module names a distinct identifier about every 70
        // bytes, a mega module every 350; the floor covers the densest
        // fuzz modules, one every 25, and the cap keeps a large module's
        // index (zeroed up front) near what its names need. Corpus names
        // average 16 bytes and reach 27.
        let names = (src.len() / 64 + 16).min(1024);
        let mut p = Parser {
            src,
            lexer: Lexer::new(src),
            ahead: [eof; 3],
            prev: Span::DUMMY,
            lex_error: None,
            depth: 0,
            m: Module::with_capacity(name, src.len()),
            names: Names::with_capacity(names, 24 * names),
            open_stmts: Vec::with_capacity(64),
            open_args: Vec::with_capacity(16),
        };
        for i in 0..3 {
            p.ahead[i] = p.lex();
        }
        p
    }

    /// Ends the parse with `parsed`'s outcome, unless the source holds a
    /// lexical error: that wins over any syntax error, so a failed parse
    /// lexes the rest of the source for one.
    fn finish<T>(mut self, parsed: Result<T, ParseError>) -> Result<(Module, T), ParseError> {
        intern::record(&self.names);
        if parsed.is_err() {
            while self.lex_error.is_none() && self.lex().kind != TokenKind::Eof {}
        }
        if let Some(e) = self.lex_error {
            return Err(e.into());
        }
        let value = parsed?;
        self.m.node_count = self.m.spans.len() as u32;
        self.m.set_names(self.names);
        Ok((self.m, value))
    }

    /// The lexer's next token; after a lexical error, the end of input.
    fn lex(&mut self) -> Token {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(t) => return t,
                Err(e) => self.lex_error = Some(e),
            }
        }
        let end = self.src.len() as u32;
        Token::new(TokenKind::Eof, Span::new(end, end))
    }

    fn peek(&self) -> TokenKind {
        self.ahead[0].kind
    }

    fn peek2(&self) -> TokenKind {
        self.ahead[1].kind
    }

    fn peek3(&self) -> TokenKind {
        self.ahead[2].kind
    }

    /// The current token, described for an error message.
    fn found(&self) -> String {
        self.ahead[0].describe(self.src)
    }

    fn span(&self) -> Span {
        self.ahead[0].span
    }

    fn prev_span(&self) -> Span {
        self.prev
    }

    /// Consumes the current token; the end of input is never consumed.
    fn bump(&mut self) -> Token {
        let t = self.ahead[0];
        if t.kind != TokenKind::Eof {
            self.prev = t.span;
            let next = self.lex();
            self.ahead = [self.ahead[1], self.ahead[2], next];
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
        let name = self.names.intern(span.snippet(self.src));
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
                TypeExpr::INT
            }
            TokenKind::KwLock => {
                self.bump();
                TypeExpr::LOCK
            }
            TokenKind::KwVoid => {
                self.bump();
                TypeExpr::VOID
            }
            TokenKind::KwStruct => {
                self.bump();
                let name = self.ident()?;
                self.m.intern_type(TypeKind::Struct(name.name))
            }
            _ => return Err(self.err(format!("expected a type, found {}", self.found()))),
        };
        while self.eat(TokenKind::Star) {
            ty = self.m.intern_type(TypeKind::Ptr(ty));
        }
        Ok(ty)
    }

    /// Parses the items of a whole module into it.
    fn module(&mut self) -> Result<(), ParseError> {
        while self.peek() != TokenKind::Eof {
            let item = self.item()?;
            self.m.items.push(item);
        }
        Ok(())
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        // `struct S {` opens a struct definition; `struct S g;` and
        // `struct S *f() { ... }` declare a global or function of struct
        // type.
        if self.peek() == TokenKind::KwStruct
            && self.peek2() == TokenKind::Ident
            && self.peek3() == TokenKind::LBrace
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
                    id: self.m.node(span),
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
            Ok(self.m.intern_type(TypeKind::Array(ty, n)))
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
            id: self.m.node(span),
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
            id: self.m.node(span),
            name,
            params,
            ret,
            span,
        })
    }

    fn params(&mut self) -> Result<ParamList, ParseError> {
        let start = self.m.param_count();
        if self.peek() == TokenKind::KwVoid && self.peek2() == TokenKind::RParen {
            self.bump(); // C-style `f(void)`
        } else if self.peek() != TokenKind::RParen {
            loop {
                // `restrict` may appear after the pointer stars, C99-style:
                // `lock *restrict l`. `type_expr` consumes the stars.
                let ty = self.type_expr()?;
                let restrict = self.eat(TokenKind::KwRestrict);
                let name = self.ident()?;
                self.m.push_param(Param { name, ty, restrict });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(self.m.params_since(start))
    }

    fn fun_rest(&mut self, lo: Span, ret: TypeExpr, name: Ident) -> Result<FunDef, ParseError> {
        self.expect(TokenKind::LParen)?;
        let params = self.params()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = lo.to(self.prev_span());
        Ok(FunDef {
            id: self.m.node(span),
            name,
            params,
            ret,
            body,
            span,
        })
    }

    /// Parses a brace-delimited block.
    fn block(&mut self) -> Result<BlockId, ParseError> {
        self.enter()?;
        let lo = self.span();
        self.expect(TokenKind::LBrace)?;
        let base = self.open_stmts.len();
        while self.peek() != TokenKind::RBrace {
            let s = self.stmt()?;
            self.open_stmts.push(s);
        }
        self.expect(TokenKind::RBrace)?;
        self.leave();
        let span = lo.to(self.prev_span());
        let b = self.m.push_block(&self.open_stmts[base..], span);
        self.open_stmts.truncate(base);
        Ok(b)
    }

    /// A statement of kind `kind` starting at `lo` and ending with the
    /// token just consumed.
    fn stmt_from(&mut self, lo: Span, kind: StmtKind) -> StmtId {
        let span = lo.to(self.prev_span());
        self.m.push_stmt(kind, span)
    }

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
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

    fn decl_rest(&mut self, lo: Span, binding: BindingKind) -> Result<StmtId, ParseError> {
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

    fn if_stmt(&mut self) -> Result<StmtId, ParseError> {
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
                let span = self.m.stmt(nested).span;
                Some(self.m.push_block(&[nested], span))
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
    fn for_stmt(&mut self) -> Result<StmtId, ParseError> {
        let lo = self.span();
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let init = if self.peek() == TokenKind::Semi {
            self.bump();
            None
        } else if self.at_type_start() {
            let dlo = self.span();
            Some(self.decl_rest(dlo, BindingKind::Let)?)
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            let span = self.m.expr(e).span;
            Some(self.m.push_stmt(StmtKind::Expr(e), span))
        };
        let cond = if self.peek() == TokenKind::Semi {
            let span = self.span();
            self.m.push_expr(ExprKind::Int(1), span)
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
        let while_stmt = self.m.push_stmt(StmtKind::While { cond, body, step }, span);
        // The block wrapper exists only to scope the init declaration; an
        // init-less `for` must stay a bare loop so the pretty printer's
        // `for (; cond; step)` rendering re-parses to the same tree
        // (the canonical-form fixpoint the analysis cache keys on).
        let Some(init) = init else {
            return Ok(while_stmt);
        };
        let blk = self.m.push_block(&[init, while_stmt], span);
        Ok(self.m.push_stmt(StmtKind::Block(blk), span))
    }

    /// Parses an expression (lowest precedence: assignment).
    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.assign()
    }

    fn assign(&mut self) -> Result<ExprId, ParseError> {
        let lhs = self.binary(0)?;
        if self.eat(TokenKind::Eq) {
            let rhs = self.assign()?; // right-associative
            let span = self.espan(lhs).to(self.espan(rhs));
            Ok(self.m.push_expr(ExprKind::Assign(lhs, rhs), span))
        } else {
            Ok(lhs)
        }
    }

    /// The span of parsed expression `e`.
    fn espan(&self, e: ExprId) -> Span {
        self.m.expr(e).span
    }

    /// A chain of left-associative binary operators binding at least as
    /// tightly as `min_prec`, by precedence climbing. Operands finish
    /// before the node joining them, so node ids come out in post-order.
    fn binary(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binop(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = self.espan(lhs).to(self.espan(rhs));
            lhs = self.m.push_expr(ExprKind::Binary(op, lhs, rhs), span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        self.enter()?;
        let result = self.unary_inner();
        self.leave();
        result
    }

    fn unary_inner(&mut self) -> Result<ExprId, ParseError> {
        let lo = self.span();
        let op = match self.peek() {
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::AddrOf),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::KwNew => {
                self.bump();
                let e = self.unary()?;
                let span = lo.to(self.espan(e));
                return Ok(self.m.push_expr(ExprKind::New(e), span));
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
                let span = lo.to(self.espan(e));
                return Ok(self.m.push_expr(ExprKind::Cast(ty, e), span));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            let span = lo.to(self.espan(e));
            Ok(self.m.push_expr(ExprKind::Unary(op, e), span))
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = self.espan(e).to(self.prev_span());
                    e = self.m.push_expr(ExprKind::Index(e, idx), span);
                }
                TokenKind::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    let span = self.espan(e).to(f.span);
                    e = self.m.push_expr(ExprKind::Field(e, f), span);
                }
                TokenKind::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    let span = self.espan(e).to(f.span);
                    e = self.m.push_expr(ExprKind::Arrow(e, f), span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let lo = self.span();
        match self.peek() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(self.m.push_expr(ExprKind::Int(n), lo))
            }
            TokenKind::Ident => {
                let name = self.ident()?;
                if self.peek() == TokenKind::LParen {
                    self.bump();
                    let base = self.open_args.len();
                    if self.peek() != TokenKind::RParen {
                        loop {
                            let a = self.expr()?;
                            self.open_args.push(a);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    let args = self.m.push_args(&self.open_args[base..]);
                    self.open_args.truncate(base);
                    let span = lo.to(self.prev_span());
                    Ok(self.m.push_expr(ExprKind::Call(name, args), span))
                } else {
                    let span = name.span;
                    Ok(self.m.push_expr(ExprKind::Var(name), span))
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

    /// The statements of function `f`'s body.
    fn body<'m>(m: &'m Module, f: &str) -> Vec<&'m Stmt> {
        m.stmts(m.function(f).unwrap().body).collect()
    }

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
        let params = m.params(f.params);
        assert!(params[0].restrict, "parameter must be restrict-qualified");
        assert_eq!(m.ty(params[0].ty), TypeKind::Ptr(TypeExpr::LOCK));
        assert_eq!(m.stmts(f.body).len(), 3);
        let g = m.globals().next().unwrap();
        assert_eq!(m.ty(g.ty), TypeKind::Array(TypeExpr::LOCK, 8));
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
        match &body(&m, "f")[0].kind {
            StmtKind::Restrict { name, body, .. } => {
                assert_eq!(m.name(name.name), "p");
                assert_eq!(m.stmts(*body).len(), 2);
            }
            other => panic!("expected restrict stmt, got {other:?}"),
        }
    }

    #[test]
    fn restrict_declaration() {
        let src = "void f(int *q) { restrict int *p = q; *p = 3; }";
        let m = parse_module("m", src).unwrap();
        match &body(&m, "f")[0].kind {
            StmtKind::Decl { binding, name, .. } => {
                assert_eq!(*binding, BindingKind::Restrict);
                assert_eq!(m.name(name.name), "p");
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
        match &body(&m, "f")[0].kind {
            StmtKind::Confine { expr, body } => {
                assert!(m.expr(*expr).is_confinable_shape(&m));
                assert_eq!(m.stmts(*body).len(), 3);
            }
            other => panic!("expected confine stmt, got {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let (m, e) = parse_expr("a = b == c + d * 2").unwrap();
        let kind = |e: ExprId| &m.expr(e).kind;
        // a = (b == (c + (d * 2)))
        match kind(e) {
            ExprKind::Assign(_, rhs) => match kind(*rhs) {
                ExprKind::Binary(BinOp::Eq, _, inner) => match kind(*inner) {
                    ExprKind::Binary(BinOp::Add, _, mul) => {
                        assert!(matches!(kind(*mul), ExprKind::Binary(BinOp::Mul, _, _)))
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
        let (m, e) = parse_expr("a = b = c").unwrap();
        match m.expr(e).kind {
            ExprKind::Assign(lhs, rhs) => {
                assert!(matches!(m.expr(lhs).kind, ExprKind::Var(_)));
                assert!(matches!(m.expr(rhs).kind, ExprKind::Assign(_, _)));
            }
            ref other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn casts_parse() {
        let (m, e) = parse_expr("(lock*) p").unwrap();
        match &m.expr(e).kind {
            ExprKind::Cast(ty, inner) => {
                assert_eq!(m.ty(*ty), TypeKind::Ptr(TypeExpr::LOCK));
                assert!(matches!(m.expr(*inner).kind, ExprKind::Var(_)));
            }
            other => panic!("expected cast, got {other:?}"),
        }
        // A parenthesized expression is not a cast.
        let (m, e) = parse_expr("(p)").unwrap();
        assert!(matches!(m.expr(e).kind, ExprKind::Var(_)));
    }

    #[test]
    fn new_expression() {
        let (m, e) = parse_expr("new 0").unwrap();
        assert!(matches!(m.expr(e).kind, ExprKind::New(_)));
        let (m, e) = parse_expr("new new 1").unwrap();
        match m.expr(e).kind {
            ExprKind::New(inner) => assert!(matches!(m.expr(inner).kind, ExprKind::New(_))),
            ref other => panic!("expected nested new, got {other:?}"),
        }
    }

    #[test]
    fn for_desugars_to_while() {
        let src = "void f() { for (int i = 0; i < 10; i = i + 1) { g(i); } }";
        let m = parse_module("m", src).unwrap();
        match &body(&m, "f")[0].kind {
            StmtKind::Block(b) => {
                let stmts: Vec<&Stmt> = m.stmts(*b).collect();
                assert!(matches!(stmts[0].kind, StmtKind::Decl { .. }));
                match &stmts[1].kind {
                    StmtKind::While { body, step, .. } => {
                        // The step lives on the loop, not in the body,
                        // so `continue` still runs it (C semantics).
                        assert_eq!(m.stmts(*body).len(), 1);
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
        match &body(&m, "f")[0].kind {
            StmtKind::If { else_blk, .. } => {
                let first = m.stmts(else_blk.unwrap()).next().unwrap();
                assert!(matches!(first.kind, StmtKind::If { .. }));
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
        assert_eq!(s.fields[0].1, TypeExpr::LOCK);
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        use crate::visit::{walk_block, walk_expr, walk_module, walk_stmt, Visitor};
        let src = "int g; void f(int x) { int *p = new x; *p = g; }";
        let m = parse_module("m", src).unwrap();
        struct Collect(Vec<u32>);
        impl Visitor for Collect {
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                self.0.push(e.id.0);
                walk_expr(self, m, e);
            }
            fn visit_stmt(&mut self, m: &Module, s: &Stmt) {
                self.0.push(s.id.0);
                walk_stmt(self, m, s);
            }
            fn visit_block(&mut self, m: &Module, b: BlockId) {
                self.0.push(m.block(b).id.0);
                walk_block(self, m, b);
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
    fn a_lexical_error_after_the_parse_ends_is_still_reported() {
        // The module before `@` parses; the lexical error must not be
        // lost behind the end of input it reads as.
        let err = parse_module("m", "int g; @").unwrap_err();
        assert_eq!(err.span, Span::new(7, 8));
        let err = parse_expr("a + $").unwrap_err();
        assert!(err.msg.contains("unexpected character"));
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
        match &body(&m, "f")[0].kind {
            StmtKind::While { body, .. } => {
                let stmts: Vec<&Stmt> = m.stmts(*body).collect();
                let then_of = |i: usize| match &stmts[i].kind {
                    StmtKind::If { then_blk, .. } => &m.stmts(*then_blk).next().unwrap().kind,
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
