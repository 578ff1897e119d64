//! Effect atoms, kind masks, effect variables and effect terms.
//!
//! The paper uses two sorts of sets: plain *location* sets (written `S`,
//! used for `locs(τ)`/`locs(Γ)` and escape checks) and *effect* sets
//! (written `L`, whose elements are `read(ρ)`, `write(ρ)`, `alloc(ρ)` —
//! the refinement §6 introduces for `confine`). We represent both with one
//! atom type: an [`Atom`] is a location tagged with an [`EffectKind`],
//! where [`EffectKind::Mention`] plays the role of plain set membership.

use localias_alias::Loc;
use std::fmt;

/// The kind of an effect atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectKind {
    /// `read(ρ)` — the location is read.
    Read,
    /// `write(ρ)` — the location is written.
    Write,
    /// `alloc(ρ)` — the location is allocated.
    Alloc,
    /// `ρ` occurs in a type or environment (`locs(τ)` / `locs(Γ)`
    /// membership, not an access).
    Mention,
}

impl EffectKind {
    /// This kind as a one-bit [`KindMask`].
    pub fn mask(self) -> KindMask {
        match self {
            EffectKind::Read => KindMask::READ,
            EffectKind::Write => KindMask::WRITE,
            EffectKind::Alloc => KindMask::ALLOC,
            EffectKind::Mention => KindMask::MENTION,
        }
    }
}

impl fmt::Display for EffectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EffectKind::Read => write!(f, "read"),
            EffectKind::Write => write!(f, "write"),
            EffectKind::Alloc => write!(f, "alloc"),
            EffectKind::Mention => write!(f, "mention"),
        }
    }
}

/// A set of [`EffectKind`]s, packed into a byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KindMask(pub u8);

impl KindMask {
    /// The empty mask.
    pub const EMPTY: KindMask = KindMask(0);
    /// `read`.
    pub const READ: KindMask = KindMask(1);
    /// `write`.
    pub const WRITE: KindMask = KindMask(2);
    /// `alloc`.
    pub const ALLOC: KindMask = KindMask(4);
    /// Type/environment mention.
    pub const MENTION: KindMask = KindMask(8);
    /// Any access: read, write or alloc (the undifferentiated effects of
    /// the §3 system).
    pub const ACCESS: KindMask = KindMask(1 | 2 | 4);
    /// Writes or allocations (what referential transparency forbids).
    pub const WRITE_OR_ALLOC: KindMask = KindMask(2 | 4);
    /// Every kind.
    pub const ALL: KindMask = KindMask(15);

    /// Set union.
    pub fn union(self, other: KindMask) -> KindMask {
        KindMask(self.0 | other.0)
    }

    /// Set intersection.
    pub fn inter(self, other: KindMask) -> KindMask {
        KindMask(self.0 & other.0)
    }

    /// `true` if no kinds are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` if the masks share a kind.
    pub fn overlaps(self, other: KindMask) -> bool {
        !self.inter(other).is_empty()
    }

    /// `true` if `kind` is present.
    pub fn contains(self, kind: EffectKind) -> bool {
        self.overlaps(kind.mask())
    }
}

impl fmt::Display for KindMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, n) in [
            (KindMask::READ, "read"),
            (KindMask::WRITE, "write"),
            (KindMask::ALLOC, "alloc"),
            (KindMask::MENTION, "mention"),
        ] {
            if self.overlaps(k) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{n}")?;
                first = false;
            }
        }
        if first {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

/// An effect atom: a kind applied to a location, e.g. `write(ρ3)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The kind.
    pub kind: EffectKind,
    /// The location (compare via its canonical representative).
    pub loc: Loc,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.loc)
    }
}

/// An effect variable `ε` — an unknown set of atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EffVar(pub u32);

impl EffVar {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EffVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε{}", self.0)
    }
}

/// An effect term `L` (the left-hand side of an inclusion `L ⊆ ε`).
///
/// Grammar (paper §4): `L ::= ∅ | {K(ρ)} | ε | L ∪ L | L ∩ L`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// `∅`
    Empty,
    /// A single atom `{K(ρ)}`.
    Atom(Atom),
    /// An effect variable.
    Var(EffVar),
    /// Union `L1 ∪ L2`.
    Union(Box<Effect>, Box<Effect>),
    /// Filtered intersection `L1 ∩ L2`.
    ///
    /// The left operand supplies the atoms; the right operand *gates* by
    /// location: an atom `K(ρ)` from the left passes iff the right side
    /// contains `ρ` under **any** kind. This directional reading is what
    /// the paper's `(Down)` rule needs — `L ∩ (ε_Γ ∪ ε_τ)` keeps the
    /// kinded effects of `L` for locations mentioned by the environment or
    /// type — and every intersection the generation rules emit has this
    /// shape.
    Inter(Box<Effect>, Box<Effect>),
    /// `ε1 ∩ ε2`: [`Effect::Inter`] of two variables, held without
    /// boxes. [`Effect::inter`] builds it for two variables, which is the
    /// shape of the `(Down)` mask every function emits.
    InterVars(EffVar, EffVar),
}

impl Effect {
    /// A single-atom effect.
    pub fn atom(kind: EffectKind, loc: Loc) -> Effect {
        Effect::Atom(Atom { kind, loc })
    }

    /// A variable effect.
    pub fn var(v: EffVar) -> Effect {
        Effect::Var(v)
    }

    /// Union of two effects (flattening trivial cases).
    pub fn union(a: Effect, b: Effect) -> Effect {
        match (a, b) {
            (Effect::Empty, x) | (x, Effect::Empty) => x,
            (a, b) => Effect::Union(Box::new(a), Box::new(b)),
        }
    }

    /// Filtered intersection (see [`Effect::Inter`]); of two variables
    /// it is an [`Effect::InterVars`].
    pub fn inter(a: Effect, b: Effect) -> Effect {
        match (a, b) {
            (Effect::Empty, _) | (_, Effect::Empty) => Effect::Empty,
            (Effect::Var(a), Effect::Var(b)) => Effect::InterVars(a, b),
            (a, b) => Effect::Inter(Box::new(a), Box::new(b)),
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Empty => write!(f, "∅"),
            Effect::Atom(a) => write!(f, "{{{a}}}"),
            Effect::Var(v) => write!(f, "{v}"),
            Effect::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Effect::Inter(a, b) => write!(f, "({a} ∩ {b})"),
            Effect::InterVars(a, b) => write!(f, "({a} ∩ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_compose() {
        assert!(KindMask::ACCESS.contains(EffectKind::Read));
        assert!(KindMask::ACCESS.contains(EffectKind::Write));
        assert!(KindMask::ACCESS.contains(EffectKind::Alloc));
        assert!(!KindMask::ACCESS.contains(EffectKind::Mention));
        assert!(KindMask::WRITE_OR_ALLOC.overlaps(KindMask::WRITE));
        assert!(!KindMask::WRITE_OR_ALLOC.overlaps(KindMask::READ));
        assert_eq!(KindMask::READ.union(KindMask::WRITE), KindMask(3),);
        assert!(KindMask::EMPTY.is_empty());
    }

    #[test]
    fn effect_constructors_simplify() {
        let a = Effect::atom(EffectKind::Read, Loc(0));
        assert_eq!(Effect::union(Effect::Empty, a.clone()), a);
        assert_eq!(Effect::inter(Effect::Empty, a.clone()), Effect::Empty);
        assert_eq!(Effect::inter(a.clone(), Effect::Empty), Effect::Empty);
        let (v, w) = (EffVar(1), EffVar(2));
        let masked = Effect::inter(Effect::var(v), Effect::var(w));
        assert_eq!(masked, Effect::InterVars(v, w));
        assert_eq!(masked.to_string(), "(ε1 ∩ ε2)");
    }

    #[test]
    fn display_is_readable() {
        let e = Effect::union(
            Effect::atom(EffectKind::Write, Loc(1)),
            Effect::var(EffVar(2)),
        );
        assert_eq!(e.to_string(), "({write(ρ1)} ∪ ε2)");
        assert_eq!(KindMask::ACCESS.to_string(), "read|write|alloc");
        assert_eq!(KindMask::EMPTY.to_string(), "∅");
    }
}
