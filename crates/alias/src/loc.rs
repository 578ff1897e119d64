//! Abstract locations `ρ` and the location table.
//!
//! An abstract location stands for a set of concrete memory objects: a
//! variable, the (collapsed) elements of an array, a struct field class,
//! or a heap allocation site. Two program quantities that may alias are
//! mapped to the *same* abstract location — the defining property of the
//! paper's unification-based (Steensgaard-style) may-alias analysis.

use crate::ty::Ty;
use crate::union_find::UnionFind;
use localias_obs as obs;
use std::fmt;

/// An abstract location `ρ`.
///
/// Values are stable keys into a [`LocTable`]; always compare them through
/// [`LocTable::find`] (or after canonicalization), since unification can
/// merge two distinct keys into one equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u32);

impl Loc {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ{}", self.0)
    }
}

/// How many concrete objects an abstract location may stand for.
///
/// This drives the flow-sensitive checker's strong/weak update decision:
/// only a location known to stand for *at most one* concrete object may be
/// strongly updated. `restrict`/`confine` work precisely by introducing a
/// fresh location `ρ'` of multiplicity [`Multiplicity::One`] for a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Multiplicity {
    /// A placeholder that has not (yet) been matched with any object
    /// (e.g. the pointee structure invented when lowering a declared
    /// pointer type).
    Zero,
    /// Exactly one concrete object (a single variable, or the private
    /// copy a `restrict`/`confine` binds).
    One,
    /// Possibly many objects (array elements, field classes shared by all
    /// struct instances, heap allocation sites, or the union of several
    /// single objects).
    Many,
}

impl Multiplicity {
    /// Combines the multiplicities of two merged location classes.
    pub fn join(self, other: Multiplicity) -> Multiplicity {
        use Multiplicity::*;
        match (self, other) {
            (Zero, x) | (x, Zero) => x,
            (One, One) => Many,
            _ => Many,
        }
    }
}

/// Per-location metadata (kept on the canonical representative).
#[derive(Debug, Clone)]
struct LocInfo {
    /// The type of the value stored at this location.
    content: Ty,
    /// `true` if the location's identity was laundered through a type
    /// mismatch (e.g. an incompatible cast). Tainted locations can never
    /// be restricted or confined — the alias analysis cannot vouch for
    /// them. This models the paper's §7 observation that "our underlying
    /// may-alias analysis is unable to verify the addition of confine
    /// without programmer intervention (e.g., a type cast)".
    tainted: bool,
    /// How many concrete objects the class may stand for.
    mult: Multiplicity,
    /// The multiplicity this *key* was allocated with, before any
    /// unification joined it into a class. Never mutated; the Andersen
    /// refinement ([`crate::backend`]) recomputes class multiplicities
    /// from these when it splits a Steensgaard class into finer pieces.
    created: Multiplicity,
    /// `true` if [`LocTable::raise_multiplicity`] was applied to the
    /// class (a failed `restrict`/`confine` forcing `ρ'` to `Many`).
    /// Such classes carry checker-visible state beyond what the creation
    /// multiplicities encode, so the refinement must not re-derive their
    /// multiplicity.
    raised: bool,
}

/// The table of all abstract locations for one analysis run, with their
/// union-find structure, content types and taint flags.
#[derive(Debug, Clone, Default)]
pub struct LocTable {
    uf: UnionFind,
    info: Vec<LocInfo>,
    /// `(winner, loser)` pairs recorded by unifications since the last
    /// [`LocTable::take_merges`]; consumers maintaining per-location side
    /// tables (e.g. the effect solver's `ε_ρ` variables) replay these.
    merges: Vec<(Loc, Loc)>,
}

impl LocTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LocTable::default()
    }

    /// Creates an empty table with room for `locs` locations.
    pub fn with_capacity(locs: usize) -> Self {
        LocTable {
            uf: UnionFind::with_capacity(locs),
            info: Vec::with_capacity(locs),
            merges: Vec::new(),
        }
    }

    /// Allocates a fresh placeholder location ([`Multiplicity::Zero`])
    /// holding values of type `content`.
    pub fn fresh(&mut self, content: Ty) -> Loc {
        self.fresh_with(content, Multiplicity::Zero)
    }

    /// Allocates a fresh location with an explicit multiplicity.
    pub fn fresh_with(&mut self, content: Ty, mult: Multiplicity) -> Loc {
        obs::count(obs::Counter::AliasFreshLocs, 1);
        let key = self.uf.push();
        self.info.push(LocInfo {
            content,
            tainted: false,
            mult,
            created: mult,
            raised: false,
        });
        Loc(key)
    }

    /// The multiplicity of `l`'s class.
    pub fn multiplicity(&mut self, l: Loc) -> Multiplicity {
        let r = self.find(l);
        self.info[r.index()].mult
    }

    /// Raises the multiplicity of `l`'s class to at least `m` (this is a
    /// plain maximum, unlike the additive [`Multiplicity::join`] used when
    /// two classes merge).
    pub fn raise_multiplicity(&mut self, l: Loc, m: Multiplicity) {
        let r = self.find(l);
        let cur = self.info[r.index()].mult;
        self.info[r.index()].mult = cur.max(m);
        self.info[r.index()].raised = true;
    }

    /// The multiplicity key `l` was allocated with ([`LocTable::fresh`] /
    /// [`LocTable::fresh_with`]) — a per-*key* property that unification
    /// never changes, unlike [`LocTable::multiplicity`].
    pub fn created_multiplicity(&self, l: Loc) -> Multiplicity {
        self.info[l.index()].created
    }

    /// Returns `true` if [`LocTable::raise_multiplicity`] was ever
    /// applied to `l`'s class (directly or to a class later merged in).
    pub fn is_raised(&mut self, l: Loc) -> bool {
        let r = self.find(l);
        self.info[r.index()].raised
    }

    /// Number of allocated location keys (not equivalence classes).
    pub fn len(&self) -> usize {
        self.uf.len()
    }

    /// Returns `true` if no locations exist.
    pub fn is_empty(&self) -> bool {
        self.uf.is_empty()
    }

    /// Canonical representative of `l`.
    pub fn find(&mut self, l: Loc) -> Loc {
        obs::count(obs::Counter::AliasFindOps, 1);
        Loc(self.uf.find(l.0))
    }

    /// Canonical representative without path compression.
    pub fn find_const(&self, l: Loc) -> Loc {
        Loc(self.uf.find_const(l.0))
    }

    /// Returns `true` if `a` and `b` denote the same location class —
    /// i.e. the analysis considers them may-aliases.
    pub fn same(&mut self, a: Loc, b: Loc) -> bool {
        self.uf.same(a.0, b.0)
    }

    /// The content type stored at `l`'s class.
    pub fn content(&mut self, l: Loc) -> Ty {
        let r = self.find(l);
        self.info[r.index()].content.clone()
    }

    /// Overwrites the content type of `l`'s class.
    pub fn set_content(&mut self, l: Loc, ty: Ty) {
        let r = self.find(l);
        self.info[r.index()].content = ty;
    }

    /// Marks `l`'s class tainted (see [`LocTable::is_tainted`]).
    pub fn taint(&mut self, l: Loc) {
        let r = self.find(l);
        self.info[r.index()].tainted = true;
    }

    /// Returns `true` if `l`'s class has been tainted by a type mismatch.
    pub fn is_tainted(&mut self, l: Loc) -> bool {
        let r = self.find(l);
        self.info[r.index()].tainted
    }

    /// Unifies the classes of `a` and `b` *without* touching their content
    /// types; returns the `(winner, loser)` pair if a merge happened.
    ///
    /// This is the raw operation; almost all callers want
    /// [`crate::ty::unify`] instead, which also unifies contents.
    pub fn union_raw(&mut self, a: Loc, b: Loc) -> Option<(Loc, Loc)> {
        let merged = self.uf.union(a.0, b.0).map(|(w, l)| (Loc(w), Loc(l)));
        if let Some((winner, loser)) = merged {
            obs::count(obs::Counter::AliasUnifications, 1);
            let t = self.info[loser.index()].tainted;
            self.info[winner.index()].tainted |= t;
            let raised = self.info[loser.index()].raised;
            self.info[winner.index()].raised |= raised;
            let m = self.info[loser.index()].mult;
            let w = self.info[winner.index()].mult;
            self.info[winner.index()].mult = w.join(m);
            self.merges.push((winner, loser));
        }
        merged
    }

    /// Drains the `(winner, loser)` merge log.
    pub fn take_merges(&mut self) -> Vec<(Loc, Loc)> {
        std::mem::take(&mut self.merges)
    }

    /// Freezes the table's current equivalence classes into an immutable
    /// [`crate::frozen::FrozenLocs`] snapshot: one full path-compression
    /// pass, then a read-only `Loc → representative` table (plus the
    /// multiplicity/taint bits) whose lookups need only `&self`.
    ///
    /// The table itself stays usable (freezing only compresses paths);
    /// unifications performed *after* the freeze are not reflected in the
    /// snapshot.
    pub fn freeze(&mut self) -> crate::frozen::FrozenLocs {
        crate::frozen::FrozenLocs::capture(self)
    }

    /// All canonical representatives currently live.
    pub fn canonical_locs(&mut self) -> Vec<Loc> {
        let mut out = Vec::new();
        for i in 0..self.len() as u32 {
            if self.uf.find(i) == i {
                out.push(Loc(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_locations_are_distinct() {
        let mut t = LocTable::new();
        let a = t.fresh(Ty::Int);
        let b = t.fresh(Ty::Int);
        assert!(!t.same(a, b));
        assert_eq!(t.content(b), Ty::Int);
    }

    #[test]
    fn union_merges_taint_and_logs() {
        let mut t = LocTable::new();
        let a = t.fresh(Ty::Int);
        let b = t.fresh(Ty::Int);
        t.taint(b);
        assert!(!t.is_tainted(a));
        t.union_raw(a, b);
        assert!(t.is_tainted(a));
        assert!(t.same(a, b));
        let merges = t.take_merges();
        assert_eq!(merges.len(), 1);
        assert!(t.take_merges().is_empty(), "merge log drains");
    }

    #[test]
    fn created_multiplicity_survives_union_and_raise() {
        let mut t = LocTable::new();
        let a = t.fresh_with(Ty::Int, Multiplicity::One);
        let b = t.fresh_with(Ty::Int, Multiplicity::One);
        t.union_raw(a, b);
        assert_eq!(t.multiplicity(a), Multiplicity::Many, "class joins");
        assert_eq!(t.created_multiplicity(a), Multiplicity::One);
        assert_eq!(t.created_multiplicity(b), Multiplicity::One);
        assert!(!t.is_raised(a));
        t.raise_multiplicity(b, Multiplicity::Many);
        assert!(t.is_raised(a), "raised is a class property");
        assert_eq!(t.created_multiplicity(a), Multiplicity::One);
    }

    #[test]
    fn raised_propagates_through_union() {
        let mut t = LocTable::new();
        let a = t.fresh(Ty::Int);
        let b = t.fresh(Ty::Int);
        t.raise_multiplicity(b, Multiplicity::Many);
        assert!(!t.is_raised(a));
        t.union_raw(a, b);
        assert!(t.is_raised(a));
    }

    #[test]
    fn canonical_locs_shrink_under_union() {
        let mut t = LocTable::new();
        let locs: Vec<Loc> = (0..10).map(|_| t.fresh(Ty::Int)).collect();
        assert_eq!(t.canonical_locs().len(), 10);
        for w in locs.windows(2) {
            t.union_raw(w[0], w[1]);
        }
        assert_eq!(t.canonical_locs().len(), 1);
    }
}
