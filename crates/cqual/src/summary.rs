//! Interprocedural summaries and their call-site retargeting.
//!
//! A [`Summary`] is the complete interprocedural artifact of checking one
//! function: the lock states it requires on entry (per location, first
//! use) and the states it leaves on exit. The checker walks the
//! [`crate::callgraph::CallGraph`] order bottom-up and stores each
//! function's summary in a slot indexed by its node id; a call applies
//! its callee's summary when that slot is already filled.
//!
//! A summary speaks in the *callee's* frame: a restrict parameter's
//! entries name the callee's fresh `ρ'`. [`retarget`] maps those entries
//! onto the caller's actual-argument pointees, which is how a caller
//! inside a `confine` gets strong updates through
//! `do_with_lock(&locks[i])`.

use crate::qual::LockState;
use crate::report::LockOp;
use localias_alias::fx::FxHashMap;
use localias_alias::{FrozenLocs, Loc};

/// Per-function interprocedural summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Lock state required on entry, per location (first use).
    pub first_req: Vec<(Loc, LockState, LockOp)>,
    /// Lock state on exit, per touched location.
    pub out: Vec<(Loc, LockState)>,
    /// Whether some path through the function reached an unanalyzed
    /// (cyclic) call: locations absent from `out` exit in an *unknown*
    /// state, not their entry state, so callers must havoc in turn.
    /// Without this bit a recursive clique's effects silently vanish at
    /// every call site outside the clique (found by `localias fuzz`).
    pub havocked: bool,
}

/// Parameter metadata for retargeting restrict-parameter summaries.
#[derive(Debug, Clone)]
pub(crate) struct ParamInfo {
    /// The fresh `ρ'` a restrict parameter binds (pointee of the
    /// parameter variable), if the parameter is a pointer.
    pub rho_p: Option<Loc>,
    pub restrict: bool,
}

/// Resolves one summary location through the call-site retarget map and
/// the frozen location table.
pub(crate) fn retarget(map: &FxHashMap<Loc, Loc>, frozen: &FrozenLocs, loc: Loc) -> Loc {
    let target = map.get(&loc).copied().unwrap_or(loc);
    frozen.find(target)
}
