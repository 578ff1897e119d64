//! Diagnostics and per-annotation/per-candidate outcomes.

use localias_ast::{Name, NodeId, Span};
use std::fmt;

/// Why a `restrict`/`confine` was rejected (or an error reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reason {
    /// The restricted location is accessed through an alias other than
    /// the restricted name within the scope (`ρ ∈ L2`).
    AliasAccessed,
    /// The fresh location escapes the scope
    /// (`ρ' ∈ locs(Γ, τ1, τ2)`).
    Escapes,
    /// The confined expression has a write or allocation effect
    /// (violates referential transparency, §6.1).
    ConfinedExprHasSideEffect,
    /// A location the confined expression reads is written or allocated
    /// within the scope (violates referential transparency, §6.1).
    ScopeWritesConfinedInput,
    /// A register variable free in the confined expression is assigned
    /// within the scope (the syntactic complement of the effect-based
    /// referential-transparency check for effect-free locals).
    RegisterReassigned,
    /// The underlying may-alias analysis lost track of the location (a
    /// type mismatch or cast tainted it).
    Tainted,
    /// The annotated expression is not a pointer.
    NotAPointer,
    /// The confined expression's syntactic shape is not supported
    /// (contains a call, assignment, `new`, or arithmetic).
    NotConfinableShape,
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reason::AliasAccessed => "the location is accessed through an alias inside the scope",
            Reason::Escapes => "the restricted pointer escapes its scope",
            Reason::ConfinedExprHasSideEffect => {
                "the confined expression has a write or allocation effect"
            }
            Reason::ScopeWritesConfinedInput => {
                "the scope writes a location the confined expression reads"
            }
            Reason::RegisterReassigned => {
                "a variable the confined expression mentions is reassigned in the scope"
            }
            Reason::Tainted => "the alias analysis lost track of the location (cast?)",
            Reason::NotAPointer => "the expression is not a pointer",
            Reason::NotConfinableShape => {
                "the expression contains a call, assignment, or allocation"
            }
        };
        write!(f, "{s}")
    }
}

/// A diagnostic attached to a node.
#[derive(Debug, Clone)]
pub struct Diag {
    /// The node the diagnostic refers to.
    pub at: NodeId,
    /// Its span, when known.
    pub span: Span,
    /// The message.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.msg, self.span)
    }
}

/// Verdict on one *explicit* `restrict` annotation (parameter,
/// declaration, or scoped statement).
#[derive(Debug, Clone)]
pub struct RestrictOutcome {
    /// The annotation's statement/function node.
    pub at: NodeId,
    /// The restricted name.
    pub name: Name,
    /// Rejection reasons; empty means the annotation checks.
    pub reasons: Vec<Reason>,
    /// The original location `ρ` and the fresh scope-local `ρ'`
    /// (canonical at analysis end). Downstream flow-sensitive analyses
    /// use these to transfer state across the scope boundary.
    pub locs: Option<(localias_alias::Loc, localias_alias::Loc)>,
}

impl RestrictOutcome {
    /// Whether the annotation was verified.
    pub fn ok(&self) -> bool {
        self.reasons.is_empty()
    }
}

/// Verdict on one `let-or-restrict` inference candidate (§5).
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The declaration's statement node.
    pub at: NodeId,
    /// The declared name.
    pub name: Name,
    /// `true` if the binding can soundly be a `restrict`.
    pub restricted: bool,
    /// `(ρ, ρ')` for the candidate (after demotion the two are unified,
    /// so the pair is only distinct when `restricted`).
    pub locs: Option<(localias_alias::Loc, localias_alias::Loc)>,
}

/// Where a confine (candidate) lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfineSite {
    /// An explicit `confine (e) { ... }` statement.
    Stmt(NodeId),
    /// An inferred candidate covering statements `start..=end` of a block.
    Range {
        /// The block's node id.
        block: NodeId,
        /// First covered statement index.
        start: usize,
        /// Last covered statement index.
        end: usize,
    },
}

/// Verdict on one `confine` annotation or `confine?` candidate (§6).
#[derive(Debug, Clone)]
pub struct ConfineOutcome {
    /// Where the confine sits.
    pub site: ConfineSite,
    /// The confined expression, printed.
    pub expr: String,
    /// `true` for an explicit annotation (checked), `false` for an
    /// inference candidate.
    pub explicit: bool,
    /// Rejection reasons; empty means the confine holds (for candidates:
    /// inference succeeded).
    pub reasons: Vec<Reason>,
    /// `true` if the candidate never materialized (no occurrence of the
    /// expression was seen in its scope).
    pub unused: bool,
    /// The original location `ρ` and the fresh scope-local `ρ'` for
    /// materialized units.
    pub locs: Option<(localias_alias::Loc, localias_alias::Loc)>,
}

impl ConfineOutcome {
    /// Whether the confine was verified / successfully inferred.
    pub fn ok(&self) -> bool {
        self.reasons.is_empty() && !self.unused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_display() {
        for r in [
            Reason::AliasAccessed,
            Reason::Escapes,
            Reason::ConfinedExprHasSideEffect,
            Reason::ScopeWritesConfinedInput,
            Reason::RegisterReassigned,
            Reason::Tainted,
            Reason::NotAPointer,
            Reason::NotConfinableShape,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn outcome_ok() {
        let mut names = localias_ast::Names::default();
        let p = names.intern("p");
        let names = std::sync::Arc::new(names);
        let o = RestrictOutcome {
            at: NodeId(0),
            name: Name::new(&names, p),
            reasons: vec![],
            locs: None,
        };
        assert!(o.ok());
        let o = RestrictOutcome {
            at: NodeId(0),
            name: Name::new(&names, p),
            reasons: vec![Reason::Escapes],
            locs: None,
        };
        assert!(!o.ok());
    }
}
