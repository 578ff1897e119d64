//! Pins the front end's exact output: every `parse_module` result (the
//! `{:?}` dump of the `Module`, spans and node ids included, or of the
//! `ParseError`) over the parser-totality generators, the paper corpus,
//! the watched mega module and the fuzz stream folds into one FNV-1a
//! digest. A lexer or parser change that moves any node, span, name or
//! error message moves the digest.

use localias::ast::fp::{fnv1a, FNV_OFFSET};
use localias::ast::{parse_module, Module, ParseError};
use localias::corpus::{fuzz_module, generate, mega_module};
use localias_prng::Rng64;
use std::fmt::Write as _;

/// A running FNV-1a state that `write!` can stream into, so a large
/// dump is hashed without being materialised.
struct Digest(u128);

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

impl Digest {
    /// Folds one parse result, then a separator byte that no `Debug`
    /// dump contains (0xFF is never valid UTF-8).
    fn fold(&mut self, r: &Result<Module, ParseError>) {
        match r {
            Ok(m) => write!(self, "{m:?}"),
            Err(e) => write!(self, "{e:?}"),
        }
        .expect("hashing never fails");
        self.0 = fnv1a(self.0, &[0xFF]);
    }

    fn parse(&mut self, name: &str, src: &str) {
        self.fold(&parse_module(name, src));
    }
}

/// The random printable text of `crates/ast/tests/parser_totality.rs`.
fn random_text(rng: &mut Rng64, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    let mut s = String::new();
    for _ in 0..len {
        let c = match rng.gen_range(0..10u32) {
            0..=6 => char::from(rng.gen_range(0x20..0x7Fu32) as u8),
            7 => '\n',
            8 => ['λ', 'π', '∈', '→', 'ß', '中'][rng.gen_range(0..6usize)],
            _ => char::from(rng.gen_range(0x09..0x0Eu32) as u8),
        };
        s.push(c);
    }
    s
}

/// The C-like token soup of `parser_totality.rs`.
fn soup(rng: &mut Rng64) -> String {
    const TOKENS: [&str; 34] = [
        "int", "lock", "void", "struct", "restrict", "confine", "if", "else", "while", "for",
        "return", "new", "break", "continue", "extern", "(", ")", "{", "}", "[", "]", ";", ",",
        "*", "&", "=", "==", "->", ".", "+", "x", "y", "f", "42",
    ];
    let n = rng.gen_range(0..64usize);
    let words: Vec<&str> = (0..n)
        .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
        .collect();
    words.join(" ")
}

/// The nesting builders of `parser_totality.rs`: `n` parentheses around
/// an initializer, or `n` nested blocks around a call.
fn nested(n: usize, parens: bool) -> String {
    let (open, inner, close) = if parens {
        ("void f() { int x = ", "(1", "); }")
    } else {
        ("void f() { ", "{g();", "} }")
    };
    let mut src = String::from(open);
    for _ in 1..n {
        src.push_str(&inner[..1]);
    }
    src.push_str(inner);
    for _ in 1..n {
        src.push_str(&close[..1]);
    }
    src.push_str(close);
    src
}

#[test]
fn front_end_output_is_pinned() {
    let mut d = Digest(FNV_OFFSET);
    for seed in [0x9a9u64, 0x5ba5] {
        let mut rng = Rng64::seed_from_u64(seed);
        for _ in 0..256 {
            d.parse("fuzz", &random_text(&mut rng, 300));
        }
    }
    let mut rng = Rng64::seed_from_u64(0x50f7);
    for _ in 0..256 {
        d.parse("soup", &soup(&mut rng));
    }
    for n in [1, 2, 3, 30, 60, 63, 64, 65, 66, 200] {
        d.parse("deep", &nested(n, true));
        d.parse("deep", &nested(n, false));
    }
    for m in generate(20030609) {
        d.parse(&m.name, &m.source);
    }
    let mega = mega_module(1, 300);
    d.parse(&mega.name, &mega.source);
    for i in 0..1000 {
        let f = fuzz_module(42, i);
        d.parse(&f.name, &f.source);
    }
    assert_eq!(
        d.0, 257053627609951869543628059505328460096,
        "front-end digest moved"
    );
}
