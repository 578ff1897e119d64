//! Lock-checking error reports.

use crate::qual::LockState;
use localias_ast::{Name, NodeId};
use std::fmt;

/// Which operation failed to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockOp {
    /// `spin_lock(e)` — requires `unlocked`.
    Acquire,
    /// `spin_unlock(e)` — requires `locked`.
    Release,
    /// A call whose callee requires a lock state on entry.
    CallRequirement,
}

impl fmt::Display for LockOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockOp::Acquire => "spin_lock",
            LockOp::Release => "spin_unlock",
            LockOp::CallRequirement => "call",
        };
        write!(f, "{s}")
    }
}

/// One unverifiable lock site — the unit the paper's Section 7 counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockError {
    /// The offending call expression.
    pub site: NodeId,
    /// The operation.
    pub op: LockOp,
    /// The state the analysis had for the lock at that point.
    pub found: LockState,
    /// The enclosing function, sharing its module's name table.
    pub fun: Name,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: cannot verify {} (lock state is {})",
            self.fun, self.op, self.found
        )
    }
}

/// The result of checking one module's locking behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockReport {
    /// Unverifiable sites (the paper's "type errors").
    pub errors: Vec<LockError>,
    /// Total number of syntactic `spin_lock`/`spin_unlock` sites.
    pub sites: usize,
}

impl LockReport {
    /// Number of type errors (the paper's per-module metric).
    pub fn error_count(&self) -> usize {
        self.errors.len()
    }
}

impl fmt::Display for LockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} lock sites cannot be verified",
            self.errors.len(),
            self.sites
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let mut names = localias_ast::Names::default();
        let f = names.intern("f");
        let e = LockError {
            site: NodeId(3),
            op: LockOp::Release,
            found: LockState::Top,
            fun: Name::new(&std::sync::Arc::new(names), f),
        };
        assert_eq!(
            e.to_string(),
            "f: cannot verify spin_unlock (lock state is ⊤)"
        );
        let r = LockReport {
            errors: vec![e],
            sites: 4,
        };
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.to_string(), "1 of 4 lock sites cannot be verified");
    }
}
