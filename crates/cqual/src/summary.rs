//! Interprocedural summaries and their call-site retargeting.
//!
//! A summary is the complete interprocedural artifact of checking one
//! function: the lock states it requires on entry (per location, first
//! use) and the states it leaves on exit. The checker walks the
//! [`crate::callgraph::CallGraph`] order bottom-up and stores each
//! function's summary in a slot indexed by its node id; a call applies
//! its callee's summary when that slot is already filled. The slots of
//! one walk keep their lists as runs in shared arrays ([`Summaries`]).
//!
//! A summary speaks in the *callee's* frame: a restrict parameter's
//! entries name the callee's fresh `ρ'`. [`retarget`] maps those entries
//! onto the caller's actual-argument pointees, which is how a caller
//! inside a `confine` gets strong updates through
//! `do_with_lock(&locks[i])`.

use crate::qual::LockState;
use crate::report::LockOp;
use localias_alias::{FrozenLocs, Loc};

/// One filled summary slot: runs in [`Summaries`]' arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Summary {
    /// Lock state required on entry, per location (first use): a run
    /// of [`Summaries::reqs`].
    pub first_req: (usize, usize),
    /// Lock state on exit, per touched location: a run of
    /// [`Summaries::outs`].
    pub out: (usize, usize),
    /// Whether some path through the function reached an unanalyzed
    /// (cyclic) call: locations absent from `out` exit in an *unknown*
    /// state, not their entry state, so callers must havoc in turn.
    /// Without this bit a recursive clique's effects silently vanish at
    /// every call site outside the clique (found by `localias fuzz`).
    pub havocked: bool,
}

/// The summary slots of one walk over a schedule, indexed by node id,
/// with every slot's lists back to back in two arrays. One value serves
/// every mode of a module in turn ([`Summaries::reset`]).
#[derive(Debug, Default)]
pub(crate) struct Summaries {
    pub slots: Vec<Option<Summary>>,
    pub reqs: Vec<(Loc, LockState, LockOp)>,
    pub outs: Vec<(Loc, LockState)>,
}

impl Summaries {
    /// Empties every slot of a walk over `nodes` functions.
    pub fn reset(&mut self, nodes: usize) {
        self.slots.clear();
        self.slots.resize(nodes, None);
        self.reqs.clear();
        self.outs.clear();
    }
}

/// Parameter metadata for retargeting restrict-parameter summaries.
#[derive(Debug, Clone)]
pub(crate) struct ParamInfo {
    /// The fresh `ρ'` a restrict parameter binds (pointee of the
    /// parameter variable), if the parameter is a pointer.
    pub rho_p: Option<Loc>,
    pub restrict: bool,
}

/// Resolves one summary location through a call site's retarget pairs
/// (restrict-parameter `ρ'` → actual pointee) and the frozen location
/// table.
pub(crate) fn retarget(map: &[(Loc, Loc)], frozen: &FrozenLocs, loc: Loc) -> Loc {
    let target = map
        .iter()
        .find(|&&(from, _)| from == loc)
        .map_or(loc, |&(_, to)| to);
    frozen.find(target)
}
