//! The workspace's one JSON module: a value type, a reader, and the two
//! renderings every artifact is written with.
//!
//! The workspace is dependency-free by design, so this is a small
//! recursive-descent parser (full JSON syntax, numbers kept as `f64`,
//! objects as association lists in document order) plus two writers:
//! [`Value::render`] (compact, one line) and
//! [`Value::pretty`] (indented `"key": value` layout for bench
//! artifacts). Every string escape and every non-finite-float guard in
//! the workspace lives here.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`; integers are exact below 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, Value)>),
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}

from_number!(f64, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Lines of [`Value::pretty`] output are kept to this many bytes where
/// a container can be laid out on one line.
const PRETTY_WIDTH: usize = 100;

/// The deepest `[`/`{` nesting [`parse`] accepts. The parser recurses
/// once per level, so input from outside the program must not choose
/// the recursion depth; every artifact this workspace writes nests
/// fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a path of object keys; `None` if any step is missing.
    pub fn at<S: AsRef<str>>(&self, path: &[S]) -> Option<&Value> {
        path.iter().try_fold(self, |v, key| v.get(key.as_ref()))
    }

    /// Writes `v` at a path of object keys, creating missing objects on
    /// the way and replacing a value already there. New keys go after the
    /// existing ones, so a document's key order is its write order.
    ///
    /// # Panics
    ///
    /// If a value already on the path is neither an object nor a `null`
    /// placeholder: writing under a number or string would discard it.
    pub fn insert(&mut self, path: &[&str], v: Value) {
        let mut cur = self;
        for key in path {
            if cur.is_null() {
                *cur = Value::Obj(Vec::new());
            }
            let Value::Obj(pairs) = cur else {
                panic!("json insert at {path:?}: {key:?} is under a non-object");
            };
            let i = match pairs.iter().position(|(k, _)| k == key) {
                Some(i) => i,
                None => {
                    pairs.push((key.to_string(), Value::Null));
                    pairs.len() - 1
                }
            };
            cur = &mut pairs[i].1;
        }
        *cur = v;
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Renders the value as compact JSON: no whitespace, one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_flat(&mut out, ",", ":");
        out
    }

    /// Renders the value as indented JSON with a trailing newline: one
    /// `"key": value` per line, two spaces per level, except that a
    /// container whose one-line form fits in [`PRETTY_WIDTH`] columns
    /// stays on one line (with `", "` and `": "` separators).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let (open, close, len) = match self {
            Value::Arr(items) if !items.is_empty() => ('[', ']', items.len()),
            Value::Obj(pairs) if !pairs.is_empty() => ('{', '}', pairs.len()),
            _ => return self.write_flat(out, ", ", ": "),
        };
        let mut line = String::new();
        self.write_flat(&mut line, ", ", ": ");
        let column = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
        if column + line.len() <= PRETTY_WIDTH {
            out.push_str(&line);
            return;
        }
        out.push(open);
        for i in 0..len {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
            let item = match self {
                Value::Arr(items) => &items[i],
                Value::Obj(pairs) => {
                    write_str(&pairs[i].0, out);
                    out.push_str(": ");
                    &pairs[i].1
                }
                _ => unreachable!("only containers break across lines"),
            };
            item.write_pretty(out, indent + 2);
            if i + 1 < len {
                out.push(',');
            }
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }

    fn write_flat(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; they render as 0.
            Value::Num(n) if !n.is_finite() => out.push('0'),
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    v.write_flat(out, comma, colon);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(k, out);
                    out.push_str(colon);
                    v.write_flat(out, comma, colon);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value plus trailing whitespace).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs never appear in our own
                            // artifacts; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Num(-250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_structures_and_lookup() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x\ny"}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[2].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\cA\n""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cA\n"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn renders_back_to_parseable_json() {
        let src = r#"{"a": [1, 2.5, {"b": null}], "c": "x\ny", "d": true}"#;
        let v = parse(src).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v, "{rendered}");
        assert_eq!(rendered, r#"{"a":[1,2.5,{"b":null}],"c":"x\ny","d":true}"#);
    }

    #[test]
    fn escapes_strings() {
        let s = Value::from("a\"b\\c\nd\u{1}");
        assert_eq!(s.render(), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(parse(&s.render()).unwrap(), s);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let doc = |depth: usize| open.repeat(depth) + "0" + &close.repeat(depth);
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{open} at the limit");
            let err = parse(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper"), "{err}");
            // Far past the limit fails at the same depth, unclosed or not.
            assert!(parse(&open.repeat(1_000_000)).is_err());
        }
    }

    #[test]
    fn non_finite_numbers_render_as_zero() {
        let v = Value::from(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            f64::NEG_INFINITY.into(),
        ]);
        assert_eq!(v.render(), "[0,0,0]");
        assert_eq!(v.pretty(), "[0, 0, 0]\n");
        assert_eq!(parse(&v.render()).unwrap(), parse("[0,0,0]").unwrap());
    }

    #[test]
    fn finite_numbers_render_shortest_round_trip() {
        for (x, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (589.0, "589"),
            (0.1, "0.1"),
            (1.0 / 3.0, "0.3333333333333333"),
            (1e-9, "0.000000001"),
            (-2.5, "-2.5"),
            (9e15, "9000000000000000"),
        ] {
            let rendered = Value::Num(x).render();
            assert_eq!(rendered, text);
            assert_eq!(rendered.parse::<f64>().unwrap(), x);
        }
        let big = Value::Num(f64::MAX).render();
        assert_eq!(big.parse::<f64>().unwrap(), f64::MAX);
    }

    #[test]
    fn path_insert_builds_nested_objects_in_write_order() {
        let mut v = Value::Obj(Vec::new());
        v.insert(&["b"], 1u64.into());
        v.insert(&["a", "x.y"], "s".into());
        v.insert(&["a", "z"], true.into());
        v.insert(&["b"], 2u64.into());
        assert_eq!(v.render(), r#"{"b":2,"a":{"x.y":"s","z":true}}"#);
        assert_eq!(v.at(&["a", "x.y"]).and_then(Value::as_str), Some("s"));
        assert_eq!(v.at(&["a", "missing"]), None);
    }

    #[test]
    #[should_panic(expected = "under a non-object")]
    fn path_insert_refuses_to_overwrite_a_scalar_on_the_way() {
        let mut v = Value::obj([("cache", 3u64.into())]);
        v.insert(&["cache", "hits"], 1u64.into());
    }

    #[test]
    fn pretty_breaks_only_containers_too_wide_for_a_line() {
        let rows: Vec<Value> = (0..30u64)
            .map(|i| vec![i.into(), (i * 2).into()].into())
            .collect();
        let v = Value::obj([
            ("host", Value::obj([("nproc", 2u64.into())])),
            ("empty", Value::obj([])),
            ("rows", rows.into()),
        ]);
        let text = v.pretty();
        assert!(
            text.starts_with("{\n  \"host\": {\"nproc\": 2},\n  \"empty\": {},\n"),
            "{text}"
        );
        assert!(
            text.contains("\n  \"rows\": [\n    [0, 0],\n    [1, 2],\n"),
            "{text}"
        );
        assert!(text.ends_with("    [29, 58]\n  ]\n}\n"), "{text}");
        assert!(text.lines().all(|l| l.len() <= PRETTY_WIDTH));
        assert_eq!(parse(&text).unwrap(), v);
    }
}
