//! The abstract store: lock state per abstract location, with strong and
//! weak updates.

use crate::qual::LockState;
use localias_alias::loc::Multiplicity;
use localias_alias::{Loc, LocTable};

/// A map from canonical lock locations to their abstract state. Absent
/// locations are implicitly [`LockState::Unlocked`] — the paper's "assume
/// that all locks begin in the state unlocked" — unless the store has
/// been **havocked** (a call into a recursive cycle whose effects are
/// unknown), in which case absent locations are [`LockState::Top`]:
/// after an unanalyzed call *every* lock may be in either state, not
/// just the ones this function happened to mention earlier.
///
/// A store can also be **unreachable** (the state after `return`,
/// `break`, or `continue` on the current path): every lookup is
/// [`LockState::Bot`], updates are ignored, and it is the identity of
/// [`Store::join`].
///
/// Internally a sorted array: a module tracks only a handful of lock
/// locations, and the flow checker clones stores at every branch and
/// joins them at every merge. Up to [`INLINE`] entries live in the store
/// itself, so such a clone is a `memcpy` that allocates nothing; a larger
/// store moves them to the heap. Equality compares entries, never where
/// they live, so it stays canonical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Store {
    map: Entries,
    unreachable: bool,
    havocked: bool,
}

/// Entries a store holds in place before it moves them to the heap.
const INLINE: usize = 7;

type Entry = (Loc, LockState);

/// A store's sorted entries: in place while they fit, else on the heap.
#[derive(Clone)]
enum Entries {
    Inline { len: u8, items: [Entry; INLINE] },
    Heap(Vec<Entry>),
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Inline {
            len: 0,
            items: [(Loc(0), LockState::Bot); INLINE],
        }
    }
}

impl Entries {
    fn as_slice(&self) -> &[Entry] {
        match self {
            Entries::Inline { len, items } => &items[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            Entries::Inline { len, items } => &mut items[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    fn insert(&mut self, i: usize, e: Entry) {
        match self {
            Entries::Inline { len, items } if (*len as usize) < INLINE => {
                let n = *len as usize;
                items.copy_within(i..n, i + 1);
                items[i] = e;
                *len += 1;
            }
            Entries::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(&items[..i]);
                v.push(e);
                v.extend_from_slice(&items[i..]);
                *self = Entries::Heap(v);
            }
            Entries::Heap(v) => v.insert(i, e),
        }
    }

    fn clear(&mut self) {
        match self {
            Entries::Inline { len, .. } => *len = 0,
            Entries::Heap(v) => v.clear(),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        match self {
            Entries::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Entries::Heap(v) => v.retain(keep),
        }
    }
}

impl PartialEq for Entries {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Entries {}

impl std::fmt::Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Store {
    /// The empty (all-unlocked) store.
    pub fn new() -> Self {
        Store::default()
    }

    /// An unreachable store — the identity of [`Store::join`].
    pub fn bottom() -> Self {
        Store {
            map: Entries::default(),
            unreachable: true,
            havocked: false,
        }
    }

    /// The state of a location this store holds no entry for.
    #[inline]
    fn default_state(&self) -> LockState {
        if self.havocked {
            LockState::Top
        } else {
            LockState::Unlocked
        }
    }

    /// Index of `loc` in the sorted entry list, or where to insert it.
    #[inline]
    fn pos(&self, loc: Loc) -> Result<usize, usize> {
        self.map.as_slice().binary_search_by_key(&loc, |&(l, _)| l)
    }

    /// Marks this path dead (after `return`/`break`/`continue`).
    pub fn mark_unreachable(&mut self) {
        self.map.clear();
        self.unreachable = true;
        // ⊥ must be canonical (it is the join identity and compares by
        // `==` in fixpoints), so the havoc flag resets with the path.
        self.havocked = false;
    }

    /// Whether the current path is dead.
    pub fn is_unreachable(&self) -> bool {
        self.unreachable
    }

    /// Current state of `loc` (canonicalize first via `locs.find`).
    pub fn state(&self, loc: Loc) -> LockState {
        if self.unreachable {
            return LockState::Bot;
        }
        match self.pos(loc) {
            Ok(i) => self.map.as_slice()[i].1,
            Err(_) => self.default_state(),
        }
    }

    /// Sets `loc`'s state outright (used for scope copy-in).
    pub fn set(&mut self, loc: Loc, s: LockState) {
        if self.unreachable {
            return;
        }
        match self.pos(loc) {
            Ok(i) => self.map.as_mut_slice()[i].1 = s,
            Err(i) => self.map.insert(i, (loc, s)),
        }
    }

    /// Updates `loc` to `new`, strongly when allowed.
    ///
    /// A strong update overwrites; a weak update joins with the previous
    /// state, because the abstract location may stand for concrete locks
    /// other than the one that changed.
    pub fn update(&mut self, loc: Loc, new: LockState, strong: bool) {
        if self.unreachable {
            return;
        }
        match self.pos(loc) {
            Ok(i) => {
                let e = &mut self.map.as_mut_slice()[i];
                e.1 = if strong { new } else { e.1.weak_update(new) };
            }
            Err(i) => {
                let s = if strong {
                    new
                } else {
                    self.default_state().weak_update(new)
                };
                self.map.insert(i, (loc, s));
            }
        }
    }

    /// Joins another store pointwise (control-flow merge).
    pub fn join(&mut self, other: &Store) {
        if other.unreachable {
            return;
        }
        if self.unreachable {
            *self = other.clone();
            return;
        }
        for &(loc, s) in other.map.as_slice() {
            let mine = self.state(loc);
            self.set(loc, mine.join(s));
        }
        // Locations only in self keep their state: other's implicit
        // default (Unlocked, or Top when havocked) must still join in.
        for e in self.map.as_mut_slice() {
            if other.pos(e.0).is_err() {
                e.1 = e.1.join(other.default_state());
            }
        }
        self.havocked |= other.havocked;
        self.normalize();
    }

    /// Conservatively forgets everything (e.g. after a call into a
    /// recursive cycle). Marks the store havocked: from here on even
    /// never-mentioned locations read as [`LockState::Top`] — the
    /// unanalyzed callee may have acquired or released *any* lock, not
    /// only the ones this function touched before the call.
    pub fn havoc(&mut self) {
        if self.unreachable {
            return;
        }
        self.map.clear();
        self.havocked = true;
    }

    /// Whether an unanalyzed call has clobbered this path.
    pub fn is_havocked(&self) -> bool {
        self.havocked
    }

    /// Drops entries equal to the implicit default so equal abstract
    /// states share one representation (`==` drives fixpoints).
    fn normalize(&mut self) {
        if self.havocked {
            self.map.retain(|&(_, s)| s != LockState::Top);
        }
    }

    /// The touched locations and their states.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, LockState)> + '_ {
        self.map.as_slice().iter().copied()
    }

    /// Whether `loc` has ever been explicitly set/updated (used when
    /// building call summaries to record entry requirements). After a
    /// havoc everything counts as touched: a requirement first seen
    /// past an unanalyzed call is not an entry precondition.
    pub fn touched(&self, loc: Loc) -> bool {
        self.havocked || self.pos(loc).is_ok()
    }
}

/// Whether `loc` may be strongly updated: it must stand for at most one
/// concrete object and the alias analysis must not have lost track of it.
///
/// `restrict`/`confine` scopes introduce fresh locations of multiplicity
/// one — this predicate is exactly where their payoff lands.
pub fn strong_updatable(locs: &mut LocTable, loc: Loc) -> bool {
    locs.multiplicity(loc) <= Multiplicity::One && !locs.is_tainted(loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_alias::Ty;

    #[test]
    fn default_state_is_unlocked() {
        let s = Store::new();
        assert_eq!(s.state(Loc(3)), LockState::Unlocked);
    }

    #[test]
    fn strong_vs_weak() {
        let mut s = Store::new();
        s.update(Loc(0), LockState::Locked, true);
        assert_eq!(s.state(Loc(0)), LockState::Locked);
        s.update(Loc(0), LockState::Unlocked, true);
        assert_eq!(s.state(Loc(0)), LockState::Unlocked);

        let mut w = Store::new();
        w.update(Loc(1), LockState::Locked, false);
        assert_eq!(
            w.state(Loc(1)),
            LockState::Top,
            "weak acquire from unlocked leaves either-state"
        );
    }

    #[test]
    fn join_merges_pointwise() {
        let mut a = Store::new();
        a.update(Loc(0), LockState::Locked, true);
        let b = Store::new(); // implicit unlocked
        a.join(&b);
        assert_eq!(a.state(Loc(0)), LockState::Top);

        let mut c = Store::new();
        c.update(Loc(0), LockState::Locked, true);
        let mut d = Store::new();
        d.update(Loc(0), LockState::Locked, true);
        c.join(&d);
        assert_eq!(c.state(Loc(0)), LockState::Locked);
    }

    #[test]
    fn havoc_tops_everything_including_unmentioned() {
        let mut s = Store::new();
        s.update(Loc(0), LockState::Locked, true);
        s.havoc();
        assert_eq!(s.state(Loc(0)), LockState::Top);
        // A lock this function never mentioned may still have been
        // acquired by the unanalyzed callee: it must read Top, not the
        // initial implicit Unlocked (the fuzz oracle's recursion
        // counterexample — see crates/cqual/tests/fuzz_regressions.rs).
        assert_eq!(s.state(Loc(9)), LockState::Top);
        assert!(s.is_havocked());
        assert!(s.touched(Loc(9)), "post-havoc reqs are not preconditions");
    }

    #[test]
    fn join_spreads_havoc_pointwise() {
        // then-branch called into a cycle, else-branch stayed clean: at
        // the merge every lock is unknown on *some* path.
        let mut then_side = Store::new();
        then_side.havoc();
        let mut else_side = Store::new();
        else_side.update(Loc(2), LockState::Locked, true);
        else_side.join(&then_side);
        assert!(else_side.is_havocked());
        assert_eq!(else_side.state(Loc(2)), LockState::Top);
        assert_eq!(else_side.state(Loc(7)), LockState::Top);

        // Join is order-symmetric on the abstract state.
        let mut a = Store::new();
        a.havoc();
        let mut b = Store::new();
        b.update(Loc(2), LockState::Locked, true);
        a.join(&b);
        assert_eq!(a, else_side, "normalized representations agree");

        // Unreachable stays the identity and stays canonical ⊥.
        let mut dead = Store::new();
        dead.havoc();
        dead.mark_unreachable();
        assert_eq!(dead, Store::bottom());
    }

    #[test]
    fn bottom_is_join_identity_and_inert() {
        let mut b = Store::bottom();
        assert!(b.is_unreachable());
        assert_eq!(b.state(Loc(0)), LockState::Bot);
        b.update(Loc(0), LockState::Locked, true);
        assert_eq!(b.state(Loc(0)), LockState::Bot, "updates on ⊥ ignored");

        let mut s = Store::new();
        s.update(Loc(1), LockState::Locked, true);
        let snapshot = s.clone();
        s.join(&Store::bottom());
        assert_eq!(s, snapshot, "⊥ is the right identity");

        let mut b2 = Store::bottom();
        b2.join(&snapshot);
        assert_eq!(b2, snapshot, "⊥ is the left identity");
    }

    #[test]
    fn stores_past_the_inline_entries_behave_alike() {
        // Entries are inserted out of order, so the inline array shifts
        // and then spills to the heap mid-array.
        let locs = [9, 3, 7, 1, 5, 8, 2, 6, 4, 0].map(Loc);
        let mut big = Store::new();
        for (i, &l) in locs.iter().enumerate() {
            big.update(l, LockState::Locked, i % 2 == 0);
        }
        let mut expect: Vec<_> = locs
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let s = if i % 2 == 0 {
                    LockState::Locked
                } else {
                    LockState::Unlocked.weak_update(LockState::Locked)
                };
                (l, s)
            })
            .collect();
        expect.sort_by_key(|&(l, _)| l);
        assert_eq!(big.iter().collect::<Vec<_>>(), expect);

        // Equality compares entries, not where they live: a store that
        // spilled and was cut back equals one that never spilled.
        let mut small = Store::new();
        small.update(Loc(1), LockState::Locked, true);
        let mut cut = big.clone();
        cut.havoc();
        cut.set(Loc(1), LockState::Locked);
        let mut havocked_small = small.clone();
        havocked_small.havoc();
        havocked_small.set(Loc(1), LockState::Locked);
        assert_eq!(cut, havocked_small);

        // Joins normalize on either side of the boundary alike.
        let mut top = Store::new();
        top.havoc();
        let mut joined = big.clone();
        joined.join(&top);
        assert!(joined.iter().all(|(_, s)| s != LockState::Top));
        assert_eq!(joined.state(Loc(42)), LockState::Top);
    }

    #[test]
    fn strong_updatability() {
        let mut t = LocTable::new();
        let single = t.fresh_with(Ty::Lock, Multiplicity::One);
        let many = t.fresh_with(Ty::Lock, Multiplicity::Many);
        assert!(strong_updatable(&mut t, single));
        assert!(!strong_updatable(&mut t, many));
        let tainted = t.fresh_with(Ty::Lock, Multiplicity::One);
        t.taint(tainted);
        assert!(!strong_updatable(&mut t, tainted));
        // Merging a single with another single makes both Many.
        let s2 = t.fresh_with(Ty::Lock, Multiplicity::One);
        t.union_raw(single, s2);
        assert!(!strong_updatable(&mut t, single));
    }
}
