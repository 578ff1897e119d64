//! Identifier interning: after lexing, a name exists only as a [`Symbol`].
//!
//! A corpus module mentions the same handful of names — globals, locks,
//! helper functions, loop variables — hundreds of times. A [`Symbol`] is
//! a shared `Arc<str>` handle: the lexer leaves an identifier as a span,
//! and the parser interns that text once through a per-parse
//! [`Interner`], so all occurrences of one name in a module share a
//! single allocation and a clone is a reference-count bump. The analyses
//! key their variable, function, field and struct tables on the same
//! symbols, so no name is copied into a `String` between the lexer and
//! the lock checker. When the module's AST drops, its symbol arena drops
//! with it — nothing global grows with corpus size, which is what keeps
//! peak RSS flat across a 100× streamed sweep.
//!
//! The interner's set hashes with [`crate::fx::FxHasher`]; a symbol
//! hashes as its text, so symbol-keyed maps answer `&str` lookups.
//!
//! The interner tracks how many bytes its arena holds and how many a
//! dedup hit avoided; [`stats`] exposes the process-wide totals that the
//! bench harness surfaces as the `mem.arena_bytes` /
//! `mem.arena_saved_bytes` gauges.

use crate::fx::FxSet;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An interned identifier: a cheap-to-clone shared string handle.
///
/// Dereferences to `str` and compares against `str`/`String` directly,
/// so call sites read exactly like they did when this was a `String`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates an *uninterned* symbol (synthesized nodes, tests). Use an
    /// [`Interner`] when building many nodes from source text.
    pub fn new(s: impl AsRef<str>) -> Symbol {
        Symbol(Arc::from(s.as_ref()))
    }

    /// The symbol's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol(Arc::from(s))
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        s.clone()
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_string()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

/// Process-wide arena accounting, flushed when an [`Interner`] drops.
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);
static ARENA_SAVED_BYTES: AtomicU64 = AtomicU64::new(0);
static ARENA_SYMBOLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative interning totals since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Bytes of identifier text held in interner arenas (cumulative over
    /// every interner ever dropped — the allocation the diet still pays).
    pub arena_bytes: u64,
    /// Bytes a dedup hit avoided allocating (the diet's saving).
    pub saved_bytes: u64,
    /// Distinct symbols interned.
    pub symbols: u64,
}

/// Snapshot of the process-wide interning totals.
pub fn stats() -> InternStats {
    InternStats {
        arena_bytes: ARENA_BYTES.load(Ordering::Relaxed),
        saved_bytes: ARENA_SAVED_BYTES.load(Ordering::Relaxed),
        symbols: ARENA_SYMBOLS.load(Ordering::Relaxed),
    }
}

/// A per-parse symbol arena: deduplicates identifier text so every
/// occurrence of a name in one module shares a single allocation.
///
/// Deliberately *not* global: a process sweeping 100k modules must not
/// accumulate 100k modules' worth of distinct names. Each parse owns its
/// interner; its accounting is flushed to the process totals on drop.
#[derive(Debug, Default)]
pub struct Interner {
    set: FxSet<Arc<str>>,
    bytes: u64,
    saved: u64,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// An empty interner with room for `n` distinct names.
    pub fn with_capacity(n: usize) -> Interner {
        Interner {
            set: FxSet::with_capacity_and_hasher(n, Default::default()),
            ..Interner::default()
        }
    }

    /// Interns `s`: returns the shared handle, allocating only on first
    /// sight of the text.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(existing) = self.set.get(s) {
            self.saved += s.len() as u64;
            return Symbol(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        self.bytes += s.len() as u64;
        self.set.insert(arc.clone());
        Symbol(arc)
    }

    /// Distinct symbols held.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// This interner's own totals, added to the process totals on drop.
    fn totals(&self) -> InternStats {
        InternStats {
            arena_bytes: self.bytes,
            saved_bytes: self.saved,
            symbols: self.set.len() as u64,
        }
    }
}

impl Drop for Interner {
    fn drop(&mut self) {
        let t = self.totals();
        if t.arena_bytes > 0 || t.saved_bytes > 0 {
            ARENA_BYTES.fetch_add(t.arena_bytes, Ordering::Relaxed);
            ARENA_SAVED_BYTES.fetch_add(t.saved_bytes, Ordering::Relaxed);
            ARENA_SYMBOLS.fetch_add(t.symbols, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_allocation() {
        let mut i = Interner::new();
        let a = i.intern("spin_lock");
        let b = i.intern("spin_lock");
        assert!(Arc::ptr_eq(&a.0, &b.0), "occurrences share the arena");
        assert_eq!(i.len(), 1);
        let c = i.intern("spin_unlock");
        assert!(!Arc::ptr_eq(&a.0, &c.0));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn symbol_compares_like_a_string() {
        let s = Symbol::new("gmu");
        assert_eq!(s, "gmu");
        assert_eq!("gmu", s);
        assert_eq!(s, String::from("gmu"));
        assert_eq!(String::from("gmu"), s);
        assert_ne!(s, "gp");
        assert_eq!(s.to_string(), "gmu");
        assert_eq!(format!("{s:?}"), "\"gmu\"");
        assert_eq!(&s[1..], "mu");
    }

    #[test]
    fn drop_flushes_accounting() {
        let mut i = Interner::new();
        let _ = i.intern("abcd");
        let _ = i.intern("abcd");
        let _ = i.intern("xy");
        let own = InternStats {
            arena_bytes: 6, // 4 + 2 bytes
            saved_bytes: 4, // one dedup hit
            symbols: 2,
        };
        assert_eq!(i.totals(), own);
        let before = stats();
        drop(i);
        let after = stats();
        // Other tests drop interners concurrently, so the process totals
        // grow by at least this interner's share.
        assert!(after.arena_bytes - before.arena_bytes >= own.arena_bytes);
        assert!(after.saved_bytes - before.saved_bytes >= own.saved_bytes);
        assert!(after.symbols - before.symbols >= own.symbols);
    }

    #[test]
    fn symbol_is_two_words() {
        assert_eq!(
            std::mem::size_of::<Symbol>(),
            2 * std::mem::size_of::<usize>(),
            "a Symbol must stay a thin shared handle"
        );
    }
}
