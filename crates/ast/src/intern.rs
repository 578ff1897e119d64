//! Identifier interning: after lexing, a name exists only as a [`Symbol`].
//!
//! A corpus module mentions the same handful of names — globals, locks,
//! helper functions, loop variables — hundreds of times. The analyses only
//! ever compare names for equality, so a [`Symbol`] is a 4-byte `Copy` id
//! into its module's name table ([`Names`]): the parser interns each
//! identifier as it reads it, appending each distinct name's text once to
//! one buffer, and every occurrence of the name carries the id. The
//! analyses key their variable, function, field and struct tables on the
//! ids — dense vectors indexed by [`Symbol::index`] where a table covers
//! every name — and resolve an id to text only to print it. A table outlives its module only where a
//! report shares it ([`Name`]); nothing global grows with corpus size,
//! which is what keeps peak RSS flat across a 100× streamed sweep.
//!
//! Ids number one module's names; a symbol means nothing in another
//! module's table. The three locking intrinsics are interned first in
//! every table, so [`Symbol::SPIN_LOCK`], [`Symbol::SPIN_UNLOCK`] and
//! [`Symbol::CHANGE_TYPE`] are the same ids everywhere.
//!
//! A table counts the bytes of the lookups it answered from text it
//! already held. Each parse records its table's text (the intrinsics'
//! 31 bytes included) and that count; [`stats`] exposes the process-wide
//! totals that the bench harness surfaces as the `mem.arena_bytes` /
//! `mem.arena_saved_bytes` gauges. A module's first `spin_lock` thus
//! counts as saved, not as stored.

use crate::fx::FxHasher;
use crate::intrinsics;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An interned identifier: the index of a name in its module's [`Names`].
///
/// `Copy`, 4 bytes, compared and hashed as an integer. Resolve it through
/// the module (`m.name(sym)`) to print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// `spin_lock`, interned first in every table.
    pub const SPIN_LOCK: Symbol = Symbol(0);
    /// `spin_unlock`.
    pub const SPIN_UNLOCK: Symbol = Symbol(1);
    /// `change_type`.
    pub const CHANGE_TYPE: Symbol = Symbol(2);

    /// The id as a `usize` index, for tables indexed by name.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the state-changing intrinsics: the call sites
    /// the Section 7 experiment counts and whose arguments confine
    /// inference tries to confine.
    pub fn is_change_type(self) -> bool {
        self.0 <= Symbol::CHANGE_TYPE.0
    }
}

/// A module's name table: every distinct identifier's text, appended to
/// one buffer in first-occurrence order, with an open-addressed index
/// from text to [`Symbol`].
#[derive(Clone)]
pub struct Names {
    /// Every name's text, back to back.
    text: String,
    /// Where each name ends in `text`; name `i` starts where `i - 1` ends.
    ends: Vec<u32>,
    /// The index: each slot holds a symbol's id plus one, or 0 when
    /// empty. A power of two at least twice the name count.
    slots: Vec<u32>,
    /// Bytes of the [`Names::intern`] calls that found their name held.
    saved: u64,
}

impl Names {
    /// A table holding only the intrinsics, with room for `names` names
    /// of `bytes` bytes in all.
    pub fn with_capacity(names: usize, bytes: usize) -> Names {
        let mut t = Names {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: vec![0; (2 * names).next_power_of_two().max(8)],
            saved: 0,
        };
        for s in [
            intrinsics::SPIN_LOCK,
            intrinsics::SPIN_UNLOCK,
            intrinsics::CHANGE_TYPE,
        ] {
            t.intern(s);
        }
        t
    }

    /// A table without even the intrinsics, which allocates nothing: what
    /// a module holds until its parser moves the filled table in.
    pub(crate) fn unfilled() -> Names {
        Names {
            text: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            saved: 0,
        }
    }

    /// Interns `s`: returns its symbol, appending its text on first sight
    /// and counting its bytes as saved on every later one.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.slot(s);
        match self.slots[slot] {
            0 => {
                self.text.push_str(s);
                self.ends.push(self.text.len() as u32);
                let sym = Symbol(self.ends.len() as u32 - 1);
                self.slots[slot] = sym.0 + 1;
                sym
            }
            k => {
                self.saved += s.len() as u64;
                Symbol(k - 1)
            }
        }
    }

    /// The symbol of `s`, if the table holds it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        match self.slots[self.slot(s)] {
            0 => None,
            k => Some(Symbol(k - 1)),
        }
    }

    /// The text of `sym`.
    pub fn get(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// Distinct names held, the intrinsics included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the table holds no names (never: the intrinsics are
    /// always there).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of name text held.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Every symbol, in id order.
    pub fn symbols(&self) -> impl ExactSizeIterator<Item = Symbol> {
        (0..self.ends.len() as u32).map(Symbol)
    }

    /// The slot holding `s`, or the empty slot where it would go.
    fn slot(&self, s: &str) -> usize {
        let mut h = FxHasher::default();
        s.hash(&mut h);
        // The multiplicative hash mixes into its high bits; its low bits
        // repeat across names that share a prefix (`a0`, `a1`, ...).
        let mask = self.slots.len() - 1;
        let mut i = (h.finish() >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] {
                0 => return i,
                k if self.get(Symbol(k - 1)) == s => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        for sym in self.symbols() {
            let slot = self.slot(self.get(sym));
            self.slots[slot] = sym.0 + 1;
        }
    }
}

impl Default for Names {
    fn default() -> Names {
        Names::with_capacity(0, 0)
    }
}

/// Two tables are equal when they hold the same names under the same ids,
/// whatever room their index has and however often they were asked.
impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl Eq for Names {}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.symbols().map(|s| self.get(s)))
            .finish()
    }
}

/// A name resolved against a shared table: the form a name takes where
/// it outlives its module's nodes, in reports. Cloning it bumps the
/// table's reference count; no text is copied.
///
/// Dereferences to `str` and compares by text, so two parses of one
/// source give equal names.
#[derive(Clone)]
pub struct Name {
    names: Arc<Names>,
    sym: Symbol,
}

impl Name {
    /// `sym` of the table `names`.
    pub fn new(names: &Arc<Names>, sym: Symbol) -> Name {
        Name {
            names: Arc::clone(names),
            sym,
        }
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        self.names.get(self.sym)
    }

    /// The name's id in its table.
    pub fn symbol(&self) -> Symbol {
        self.sym
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Process-wide interning accounting, added to as each parse ends.
static ARENA_BYTES: AtomicU64 = AtomicU64::new(0);
static ARENA_SAVED_BYTES: AtomicU64 = AtomicU64::new(0);
static ARENA_SYMBOLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative interning totals since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Bytes of identifier text held in name tables (cumulative over
    /// every parse).
    pub arena_bytes: u64,
    /// Bytes a dedup hit avoided storing again.
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

/// Adds one parse's table to the process totals: the text it holds and
/// the bytes its dedup hits saved.
pub(crate) fn record(names: &Names) {
    ARENA_BYTES.fetch_add(names.text_len() as u64, Ordering::Relaxed);
    ARENA_SAVED_BYTES.fetch_add(names.saved, Ordering::Relaxed);
    ARENA_SYMBOLS.fetch_add(names.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_stores_each_name_once() {
        let mut names = Names::default();
        let a = names.intern("gmu");
        let b = names.intern("gmu");
        assert_eq!(a, b, "occurrences share one id");
        let c = names.intern("gp");
        assert_ne!(a, c);
        assert_eq!(names.len(), 5, "the three intrinsics, then gmu and gp");
        assert_eq!(names.get(a), "gmu");
        assert_eq!(names.get(c), "gp");
        assert_eq!(names.lookup("gp"), Some(c));
        assert_eq!(names.lookup("gx"), None);
    }

    #[test]
    fn intrinsics_have_fixed_ids() {
        let mut names = Names::default();
        assert_eq!(names.intern("spin_lock"), Symbol::SPIN_LOCK);
        assert_eq!(names.get(Symbol::SPIN_UNLOCK), "spin_unlock");
        assert_eq!(names.lookup("change_type"), Some(Symbol::CHANGE_TYPE));
        let work = names.intern("work");
        assert!(Symbol::CHANGE_TYPE.is_change_type());
        assert!(!work.is_change_type());
    }

    #[test]
    fn the_index_grows_past_its_capacity() {
        let mut names = Names::with_capacity(1, 1);
        let syms: Vec<Symbol> = (0..1000).map(|i| names.intern(&format!("v{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(names.get(s), format!("v{i}"));
            assert_eq!(names.lookup(&format!("v{i}")), Some(s));
        }
        assert_eq!(names.len(), 1003);
    }

    #[test]
    fn names_compare_by_content() {
        let mut a = Names::with_capacity(1, 1);
        let mut b = Names::with_capacity(64, 512);
        for n in ["x", "y", "x"] {
            a.intern(n);
            b.intern(n);
        }
        assert_eq!(a, b, "index room is not content");
        b.intern("z");
        assert_ne!(a, b);
        assert_eq!(
            format!("{a:?}"),
            r#"["spin_lock", "spin_unlock", "change_type", "x", "y"]"#
        );
    }

    #[test]
    fn a_name_resolves_and_compares_like_a_string() {
        let mut t = Names::default();
        let s = t.intern("gmu");
        let shared = Arc::new(t);
        let n = Name::new(&shared, s);
        assert_eq!(n, "gmu");
        assert_eq!(n.to_string(), "gmu");
        assert_eq!(format!("{n:?}"), "\"gmu\"");
        assert_eq!(&n[1..], "mu");
        let mut other = Names::default();
        other.intern("pad");
        let s2 = other.intern("gmu");
        assert_eq!(n, Name::new(&Arc::new(other), s2), "equal by text");
    }

    #[test]
    fn record_flushes_accounting() {
        let mut names = Names::default();
        let _ = names.intern("abcd");
        let _ = names.intern("abcd");
        let _ = names.intern("xy");
        let intrinsics = "spin_lockspin_unlockchange_type".len();
        assert_eq!(names.text_len(), intrinsics + 6, "4 + 2 bytes");
        assert_eq!(names.saved, 4, "one dedup hit");
        assert_eq!(names.len(), 5);
        let _ = names.intern("spin_lock");
        assert_eq!(names.saved, 4 + 9, "the intrinsics are held");
        let before = stats();
        record(&names);
        let after = stats();
        // Other tests parse concurrently, so the process totals grow by
        // at least this table's share.
        assert!(after.arena_bytes - before.arena_bytes >= (intrinsics + 6) as u64);
        assert!(after.saved_bytes - before.saved_bytes >= 4 + 9);
        assert!(after.symbols - before.symbols >= 5);
    }
}
