//! A hand-written lexer for Mini-C.
//!
//! Supports `//` line comments and `/* ... */` block comments. Tokens are
//! `Copy` and allocate nothing: an identifier is its span, interned by
//! the parser. The parser pulls tokens one at a time with
//! [`Lexer::next_token`]; [`Lexer::tokenize`] collects them all.

use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::error::Error;
use std::fmt;

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub msg: String,
    /// Location of the offending input.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.msg)
    }
}

impl Error for LexError {}

/// A streaming lexer over a source string.
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Lexes the entire input, appending a final [`TokenKind::Eof`] token.
    ///
    /// # Errors
    ///
    /// Returns the first [`LexError`] encountered (unterminated comment,
    /// bad character, or out-of-range integer literal).
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        // Corpus modules average five source bytes per token.
        let mut out = Vec::with_capacity(self.bytes.len() / 4 + 1);
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(LexError {
                                    msg: "unterminated block comment".to_string(),
                                    span: Span::new(start, self.pos as u32),
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes a single token (skipping leading whitespace and comments).
    ///
    /// # Errors
    ///
    /// See [`Lexer::tokenize`].
    pub fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let lo = self.pos as u32;
        let Some(b) = self.bump() else {
            return Ok(Token::new(TokenKind::Eof, Span::new(lo, lo)));
        };
        let kind = match b {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'*' => TokenKind::Star,
            b'+' => TokenKind::Plus,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'-' => {
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    TokenKind::Arrow
                } else {
                    TokenKind::Minus
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    TokenKind::OrOr
                } else {
                    return Err(LexError {
                        msg: "expected `||`".to_string(),
                        span: Span::new(lo, self.pos as u32),
                    });
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::EqEq
                } else {
                    TokenKind::Eq
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::NotEq
                } else {
                    TokenKind::Not
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'0'..=b'9' => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = &self.src[lo as usize..self.pos];
                let n: i64 = text.parse().map_err(|_| LexError {
                    msg: format!("integer literal `{text}` out of range"),
                    span: Span::new(lo, self.pos as u32),
                })?;
                TokenKind::Int(n)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while matches!(
                    self.peek(),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    self.pos += 1;
                }
                TokenKind::keyword(&self.src[lo as usize..self.pos]).unwrap_or(TokenKind::Ident)
            }
            other => {
                return Err(LexError {
                    msg: format!("unexpected character `{}`", other as char),
                    span: Span::new(lo, self.pos as u32),
                })
            }
        };
        Ok(Token::new(kind, Span::new(lo, self.pos as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    /// The spelling of every identifier token of `src`, in order.
    fn idents(src: &str) -> Vec<&str> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.span.snippet(src))
            .collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            kinds("( ) { } [ ] ; , . -> * & + - / % = == != < <= > >= ! && ||"),
            vec![
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Semi,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Arrow,
                TokenKind::Star,
                TokenKind::Amp,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eq,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Not,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_and_identifiers() {
        let src = "int lockx lock restrict confine foo_1";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::KwInt,
                TokenKind::Ident,
                TokenKind::KwLock,
                TokenKind::KwRestrict,
                TokenKind::KwConfine,
                TokenKind::Ident,
                TokenKind::Eof,
            ]
        );
        assert_eq!(idents(src), ["lockx", "foo_1"]);
    }

    #[test]
    fn integers() {
        assert_eq!(
            kinds("0 42 123456"),
            vec![
                TokenKind::Int(0),
                TokenKind::Int(42),
                TokenKind::Int(123456),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "a // line\n b /* block\n over lines */ c";
        assert_eq!(
            kinds(src),
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Eof
            ]
        );
        assert_eq!(idents(src), ["a", "b", "c"]);
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = Lexer::new("/* oops").tokenize().unwrap_err();
        assert!(err.msg.contains("unterminated"));
    }

    #[test]
    fn bad_character_errors() {
        let err = Lexer::new("a @ b").tokenize().unwrap_err();
        assert!(err.msg.contains("unexpected character"));
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(idents("a->b a - >"), ["a", "b", "a"]);
        assert_eq!(
            kinds("a->b a - >"),
            vec![
                TokenKind::Ident,
                TokenKind::Arrow,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Minus,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_cover_source() {
        let toks = Lexer::new("foo  bar").tokenize().unwrap();
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(5, 8));
    }

    #[test]
    fn overflowing_integer_errors() {
        let err = Lexer::new("999999999999999999999999999")
            .tokenize()
            .unwrap_err();
        assert!(err.msg.contains("out of range"));
    }
}
