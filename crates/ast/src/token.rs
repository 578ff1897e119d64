//! Tokens produced by the Mini-C lexer.
//!
//! Tokens are `Copy`: an identifier token carries only its [`Span`], and
//! the parser reads the identifier's text from the source and interns it
//! once (see [`crate::intern`]). No token owns heap memory.

use crate::span::Span;
use std::fmt;

/// A lexical token: a [`TokenKind`] plus its source [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// Short human-readable description used in parse errors. `src` is
    /// the lexed source, which spells an identifier token.
    pub fn describe(&self, src: &str) -> String {
        match self.kind {
            TokenKind::Ident => format!("identifier `{}`", self.span.snippet(src)),
            kind => kind.describe(),
        }
    }
}

/// The kinds of Mini-C tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier such as `foo`; its text is the token's span.
    Ident,
    /// An integer literal such as `42`.
    Int(i64),

    // Keywords.
    /// `int`
    KwInt,
    /// `lock`
    KwLock,
    /// `void`
    KwVoid,
    /// `struct`
    KwStruct,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `for`
    KwFor,
    /// `return`
    KwReturn,
    /// `restrict`
    KwRestrict,
    /// `confine`
    KwConfine,
    /// `new`
    KwNew,
    /// `extern`
    KwExtern,
    /// `let` (explicit core-calculus binding; equivalent to a declaration)
    KwLet,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `*`
    Star,
    /// `&`
    Amp,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Not,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword token for `s`, if `s` is a keyword.
    pub fn keyword(s: &str) -> Option<TokenKind> {
        Some(match s {
            "int" => TokenKind::KwInt,
            "lock" => TokenKind::KwLock,
            "void" => TokenKind::KwVoid,
            "struct" => TokenKind::KwStruct,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            "restrict" => TokenKind::KwRestrict,
            "confine" => TokenKind::KwConfine,
            "new" => TokenKind::KwNew,
            "extern" => TokenKind::KwExtern,
            "let" => TokenKind::KwLet,
            "break" => TokenKind::KwBreak,
            "continue" => TokenKind::KwContinue,
            _ => return None,
        })
    }

    /// Short human-readable description used in parse errors (an
    /// identifier's spelling needs its token: see [`Token::describe`]).
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident => "identifier".to_string(),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.literal()),
        }
    }

    /// The literal spelling of punctuation/keyword tokens.
    fn literal(&self) -> &'static str {
        match self {
            TokenKind::KwInt => "int",
            TokenKind::KwLock => "lock",
            TokenKind::KwVoid => "void",
            TokenKind::KwStruct => "struct",
            TokenKind::KwIf => "if",
            TokenKind::KwElse => "else",
            TokenKind::KwWhile => "while",
            TokenKind::KwFor => "for",
            TokenKind::KwReturn => "return",
            TokenKind::KwRestrict => "restrict",
            TokenKind::KwConfine => "confine",
            TokenKind::KwNew => "new",
            TokenKind::KwExtern => "extern",
            TokenKind::KwLet => "let",
            TokenKind::KwBreak => "break",
            TokenKind::KwContinue => "continue",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Arrow => "->",
            TokenKind::Star => "*",
            TokenKind::Amp => "&",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Eq => "=",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Not => "!",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Ident | TokenKind::Int(_) | TokenKind::Eof => unreachable!(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("int"), Some(TokenKind::KwInt));
        assert_eq!(TokenKind::keyword("restrict"), Some(TokenKind::KwRestrict));
        assert_eq!(TokenKind::keyword("confine"), Some(TokenKind::KwConfine));
        assert_eq!(TokenKind::keyword("banana"), None);
    }

    #[test]
    fn describe_is_nonempty() {
        for k in [
            TokenKind::Ident,
            TokenKind::Int(3),
            TokenKind::Arrow,
            TokenKind::Eof,
            TokenKind::KwConfine,
        ] {
            assert!(!k.describe().is_empty());
        }
    }

    #[test]
    fn identifiers_are_described_by_their_spelling() {
        let tok = Token::new(TokenKind::Ident, Span::new(4, 7));
        assert_eq!(tok.describe("int foo;"), "identifier `foo`");
        let tok = Token::new(TokenKind::Int(3), Span::new(0, 1));
        assert_eq!(tok.describe("3"), "integer `3`");
    }
}
