//! Byte-offset source spans and line/column resolution.

use std::fmt;

/// A half-open byte range `[lo, hi)` into a source string.
///
/// Spans are attached to every token and AST node so diagnostics from the
/// analyses can point back at source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Span {
    /// Inclusive start byte offset.
    pub lo: u32,
    /// Exclusive end byte offset.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering bytes `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "span lo {lo} exceeds hi {hi}");
        Span { lo, hi }
    }

    /// A zero-width span used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Length of the span in bytes.
    pub fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Returns `true` if the span is zero-width.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }

    /// Extracts the spanned slice of `src`, or `""` when out of bounds.
    pub fn snippet(self, src: &str) -> &str {
        src.get(self.lo as usize..self.hi as usize).unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// Maps byte offsets to 1-based line/column pairs for one source file.
#[derive(Debug, Clone)]
pub struct LineMap {
    /// Byte offset of the start of each line.
    line_starts: Vec<u32>,
}

impl LineMap {
    /// Builds a line map for `src`.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineMap { line_starts }
    }

    /// Returns the 1-based `(line, column)` of byte offset `pos`.
    pub fn location(&self, pos: u32) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = pos - self.line_starts[line] + 1;
        (line as u32 + 1, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_to_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }

    #[test]
    fn span_snippet() {
        let src = "hello world";
        assert_eq!(Span::new(0, 5).snippet(src), "hello");
        assert_eq!(Span::new(6, 11).snippet(src), "world");
        assert_eq!(Span::new(6, 99).snippet(src), "");
    }

    #[test]
    #[should_panic(expected = "span lo")]
    fn span_rejects_inverted() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn linemap_locations() {
        let src = "ab\ncd\n\nxyz";
        let lm = LineMap::new(src);
        assert_eq!(lm.location(0), (1, 1));
        assert_eq!(lm.location(1), (1, 2));
        assert_eq!(lm.location(3), (2, 1));
        assert_eq!(lm.location(6), (3, 1));
        assert_eq!(lm.location(7), (4, 1));
        assert_eq!(lm.location(9), (4, 3));
    }

    #[test]
    fn dummy_is_empty() {
        assert!(Span::DUMMY.is_empty());
        assert_eq!(Span::DUMMY.len(), 0);
    }
}
