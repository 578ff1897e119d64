//! Read-only snapshots of a fully-resolved [`LocTable`].
//!
//! Every query on a live [`LocTable`] goes through union-find `find`,
//! which path-compresses — a mutation. That `&mut` requirement is what
//! historically forced the flow-sensitive lock checker to take the whole
//! analysis mutably and therefore to run strictly sequentially. Once
//! unification is over, though, the equivalence classes never change
//! again: [`LocTable::freeze`] performs one full path-compression pass
//! and snapshots the `Loc → representative` mapping (plus the
//! multiplicity and taint bits the checker consults) into a
//! [`FrozenLocs`], whose lookups need only `&self` and which is `Send +
//! Sync` — the substrate for checking independent functions in parallel.
//!
//! The invariant a freeze guarantees: for every key `l` allocated before
//! the freeze, `frozen.find(l) == table.find(l)`, `frozen.multiplicity(l)
//! == table.multiplicity(l)`, and `frozen.is_tainted(l) ==
//! table.is_tainted(l)` — forever, because nothing can mutate the
//! snapshot.

use crate::loc::{LocTable, Multiplicity};
use crate::Loc;
use localias_obs as obs;

/// An immutable resolution table over the abstract locations of one
/// analysis run. See the module docs for the freezing invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenLocs {
    /// Canonical representative of every key, fully compressed.
    rep: Vec<u32>,
    /// Per-key (post-resolution) multiplicity of the key's class.
    mult: Vec<Multiplicity>,
    /// Per-key taint flag of the key's class.
    tainted: Vec<bool>,
}

impl FrozenLocs {
    pub(crate) fn capture(table: &mut LocTable) -> FrozenLocs {
        let n = table.len();
        let mut rep = Vec::with_capacity(n);
        let mut mult = Vec::with_capacity(n);
        let mut tainted = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let l = Loc(i);
            rep.push(table.find(l).0);
            mult.push(table.multiplicity(l));
            tainted.push(table.is_tainted(l));
        }
        FrozenLocs { rep, mult, tainted }
    }

    /// Builds a snapshot directly from parallel per-key tables — the
    /// constructor of the Andersen refinement ([`crate::backend`]), which
    /// splits classes and so cannot be captured from any `LocTable`.
    ///
    /// `rep` must be idempotent (`rep[rep[l]] == rep[l]` for every key):
    /// the checker resolves through a single lookup, exactly like the
    /// capture of a path-compressed union-find.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ, or (debug builds) if `rep`
    /// is not idempotent or names an out-of-range key.
    pub fn from_parts(rep: Vec<u32>, mult: Vec<Multiplicity>, tainted: Vec<bool>) -> FrozenLocs {
        assert_eq!(rep.len(), mult.len());
        assert_eq!(rep.len(), tainted.len());
        debug_assert!(rep.iter().all(|&r| (r as usize) < rep.len()));
        debug_assert!(rep.iter().all(|&r| rep[r as usize] == r), "rep idempotent");
        FrozenLocs { rep, mult, tainted }
    }

    /// Number of location keys covered by the snapshot.
    pub fn len(&self) -> usize {
        self.rep.len()
    }

    /// Returns `true` if the snapshot covers no locations.
    pub fn is_empty(&self) -> bool {
        self.rep.is_empty()
    }

    /// Canonical representative of `l`'s class.
    ///
    /// # Panics
    ///
    /// Panics if `l` was allocated after the freeze.
    #[inline]
    pub fn find(&self, l: Loc) -> Loc {
        obs::count(obs::Counter::AliasFindOps, 1);
        Loc(self.rep[l.index()])
    }

    /// Returns `true` if `a` and `b` denote the same location class.
    #[inline]
    pub fn same(&self, a: Loc, b: Loc) -> bool {
        self.rep[a.index()] == self.rep[b.index()]
    }

    /// The multiplicity of `l`'s class.
    #[inline]
    pub fn multiplicity(&self, l: Loc) -> Multiplicity {
        self.mult[l.index()]
    }

    /// Returns `true` if `l`'s class was tainted by a type mismatch.
    #[inline]
    pub fn is_tainted(&self, l: Loc) -> bool {
        self.tainted[l.index()]
    }

    /// Whether `l` may be strongly updated: its class stands for at most
    /// one concrete object and the alias analysis never lost track of it
    /// (the immutable counterpart of `localias-cqual`'s
    /// `strong_updatable`).
    #[inline]
    pub fn strong_updatable(&self, l: Loc) -> bool {
        self.multiplicity(l) <= Multiplicity::One && !self.is_tainted(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ty;

    #[test]
    fn frozen_matches_live_table() {
        let mut t = LocTable::new();
        let locs: Vec<Loc> = (0..32)
            .map(|i| {
                let m = match i % 3 {
                    0 => Multiplicity::Zero,
                    1 => Multiplicity::One,
                    _ => Multiplicity::Many,
                };
                t.fresh_with(Ty::Int, m)
            })
            .collect();
        for w in locs.chunks(4) {
            t.union_raw(w[0], w[1]);
            t.union_raw(w[2], w[3]);
        }
        t.taint(locs[5]);

        let frozen = t.freeze();
        assert_eq!(frozen.len(), t.len());
        for &l in &locs {
            assert_eq!(frozen.find(l), t.find(l), "{l}");
            assert_eq!(frozen.multiplicity(l), t.multiplicity(l), "{l}");
            assert_eq!(frozen.is_tainted(l), t.is_tainted(l), "{l}");
        }
        for &a in &locs {
            for &b in &locs {
                assert_eq!(frozen.same(a, b), t.same(a, b));
            }
        }
    }

    #[test]
    fn frozen_is_immutable_under_later_unions() {
        let mut t = LocTable::new();
        let a = t.fresh(Ty::Int);
        let b = t.fresh(Ty::Int);
        let frozen = t.freeze();
        assert!(!frozen.same(a, b));
        // Later unification does not retroactively change the snapshot.
        t.union_raw(a, b);
        assert!(!frozen.same(a, b));
        assert!(t.same(a, b));
    }

    #[test]
    fn strong_updatable_matches_checker_rule() {
        let mut t = LocTable::new();
        let one = t.fresh_with(Ty::Lock, Multiplicity::One);
        let many = t.fresh_with(Ty::Lock, Multiplicity::Many);
        let tainted = t.fresh_with(Ty::Lock, Multiplicity::One);
        t.taint(tainted);
        let zero = t.fresh(Ty::Lock);
        let f = t.freeze();
        assert!(f.strong_updatable(one));
        assert!(f.strong_updatable(zero));
        assert!(!f.strong_updatable(many));
        assert!(!f.strong_updatable(tainted));
    }

    #[test]
    fn freeze_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<FrozenLocs>();
    }
}
