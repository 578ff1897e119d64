//! Immutable interprocedural summaries and their call-site retargeting.
//!
//! A [`Summary`] is the complete interprocedural artifact of checking one
//! function: the lock states it requires on entry (per location, first
//! use) and the states it leaves on exit. Summaries are built bottom-up
//! over the [`crate::callgraph::CallGraph`] schedule and published behind
//! `Arc` — once published they are never mutated, so the incremental
//! checker shares cached ones across runs without copying them.
//!
//! A summary speaks in the *callee's* frame: a restrict parameter's
//! entries name the callee's fresh `ρ'`. [`retarget`] maps those entries
//! onto the caller's actual-argument pointees, which is how a caller
//! inside a `confine` gets strong updates through
//! `do_with_lock(&locks[i])`.

use crate::fx::FxHashMap;
use crate::qual::LockState;
use crate::report::LockOp;
use localias_alias::{FrozenLocs, Loc};
use std::sync::Arc;

/// Per-function interprocedural summary. Immutable once published; share
/// via [`Arc`].
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

/// The published summaries, keyed by function name. Between waves the
/// scheduler inserts the completed wave's summaries; during a wave the
/// map is only read.
pub(crate) type Summaries = FxHashMap<String, Arc<Summary>>;

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
