//! The intraprocedural checker: one function, checked against immutable
//! shared inputs.
//!
//! [`check_function`] reads the [`CheckContext`] (the frozen analysis
//! facts) and the summary slots of the functions [`crate::flow`] has
//! already checked, and returns a [`FunOutcome`]; the scheduler stores
//! its summary in the function's slot before the walk moves on.
//!
//! The abstract interpretation itself is unchanged from the historical
//! monolithic checker: straight-line composition for blocks, pointwise
//! join for `if`, fixpoint-then-reporting-pass for `while`, summaries
//! applied (after restrict-parameter retargeting) at call sites, and
//! havoc on calls into recursive cycles. Every location resolution that
//! used to path-compress through `&mut LocTable` now reads the
//! [`FrozenLocs`] snapshot.

use crate::callgraph::CallGraph;
use crate::qual::LockState;
use crate::report::{LockError, LockOp};
use crate::store::Store;
use crate::summary::{retarget, ParamInfo, Summary};
use localias_alias::fx::{FxHashMap, FxHashSet};
use localias_alias::{FrozenLocs, Loc, State, Ty};
use localias_ast::{
    intrinsics, Block, Expr, ExprKind, FunDef, Module, NodeId, Stmt, StmtKind, Symbol,
};
use localias_core::{Analysis, ConfineSite};
use localias_obs as obs;

use crate::flow::Mode;

/// A scope boundary requiring lock-state copy-in/copy-out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RangeScope {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) rho: Loc,
    pub(crate) rho_p: Loc,
}

/// Everything a function check reads and nothing it writes: the module,
/// the frozen analysis facts, the call graph, and per-function scope/
/// parameter metadata. Immutable after construction, so one context
/// serves every function check.
pub(crate) struct CheckContext<'a> {
    pub mode: Mode,
    /// The typing/aliasing state (read-only: expression types, variables).
    pub(crate) state: &'a State,
    /// The frozen location snapshot all resolution goes through.
    pub frozen: &'a FrozenLocs,
    /// The call graph and its schedule. The graph depends only on the
    /// module, so one build serves every mode's context.
    pub graph: &'a CallGraph,
    /// Range scopes by block id, from confine outcomes.
    pub(crate) range_scopes: FxHashMap<NodeId, Vec<RangeScope>>,
    /// `(ρ, ρ')` for explicit confine/restrict statements, by stmt id.
    pub(crate) stmt_scopes: FxHashMap<NodeId, (Loc, Loc)>,
    /// Per-function parameter metadata, indexed by call-graph node.
    pub(crate) params: Vec<Vec<ParamInfo>>,
}

impl<'a> CheckContext<'a> {
    /// Collects the scope and parameter metadata for checking `m` under
    /// `mode`, given its (frozen) analysis and its call graph.
    pub fn new(
        m: &'a Module,
        analysis: &'a Analysis,
        frozen: &'a FrozenLocs,
        mode: Mode,
        graph: &'a CallGraph,
    ) -> CheckContext<'a> {
        let _span = obs::span!("cqual.context");
        let mut range_scopes: FxHashMap<NodeId, Vec<RangeScope>> = FxHashMap::default();
        let mut stmt_scopes = FxHashMap::default();
        for c in &analysis.confines {
            let Some((rho, rho_p)) = c.locs else { continue };
            match c.site {
                ConfineSite::Range { block, start, end } => {
                    range_scopes.entry(block).or_default().push(RangeScope {
                        start,
                        end,
                        rho,
                        rho_p,
                    });
                }
                ConfineSite::Stmt(at) => {
                    stmt_scopes.insert(at, (rho, rho_p));
                }
            }
        }
        for r in &analysis.restricts {
            if let Some((rho, rho_p)) = r.locs {
                // Parameter restricts are keyed by the function node and
                // handled through summaries; statement/decl restricts are
                // keyed by their statement node. A function node is never
                // a statement node, so one map serves both without
                // ambiguity.
                stmt_scopes.insert(r.at, (rho, rho_p));
            }
        }
        // Copy-in/out ordering: at a shared start boundary the wider
        // (outer) scope must copy in first.
        for scopes in range_scopes.values_mut() {
            scopes.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        }

        // Parameter metadata. A parameter behaves as restrict if the
        // programmer wrote the qualifier *or* parameter-restrict
        // inference proved it (a successful candidate keyed by the
        // function node and parameter name).
        let inferred: FxHashSet<(NodeId, &str)> = analysis
            .candidates
            .iter()
            .filter(|c| c.restricted)
            .map(|c| (c.at, c.name.as_str()))
            .collect();
        // The alias analysis records each function's *bound* parameter
        // value types (post binding hooks, first definition wins), so
        // parameter metadata is a direct positional lookup — no pass
        // over the variable table. For duplicate definitions the later
        // one wins, matching the name-keyed function map.
        let mut params: Vec<Vec<ParamInfo>> = vec![Vec::new(); graph.len()];
        for f in m.functions() {
            let Some(v) = graph.node(&f.name.name) else {
                continue;
            };
            let tys = analysis.state.param_tys.get(f.name.name.as_str());
            let mut infos = Vec::with_capacity(f.params.len());
            for (i, p) in f.params.iter().enumerate() {
                let rho_p = tys.and_then(|t| t.get(i)).and_then(|ty| ty.pointee());
                let restrict = p.restrict || inferred.contains(&(f.id, p.name.name.as_str()));
                infos.push(ParamInfo { rho_p, restrict });
            }
            params[v] = infos;
        }

        CheckContext {
            mode,
            state: &analysis.state,
            frozen,
            graph,
            range_scopes,
            stmt_scopes,
            params,
        }
    }

    /// Re-tags the context with a different [`Mode`]. The mode only
    /// gates behaviour inside [`check_function`]; everything the
    /// context *holds* is mode-independent, so `NoConfine` and
    /// `AllStrong` (which consume the same base analysis) can share one
    /// construction.
    pub(crate) fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }
}

/// The result of checking one function: its errors (in site order), its
/// counted lock sites, and its summary.
pub(crate) struct FunOutcome {
    pub errors: Vec<LockError>,
    pub sites: usize,
    pub summary: Summary,
}

/// Checks one function against the context and the summary slots, by
/// node id, of the functions checked before it.
pub(crate) fn check_function(
    cx: &CheckContext<'_>,
    summaries: &[Option<Summary>],
    f: &FunDef,
) -> FunOutcome {
    let _span = obs::span!("cqual.function");
    let _hist = obs::hist_timer!(obs::Hist::CheckFunction);
    obs::count(obs::Counter::CqualFunctionsChecked, 1);
    let mut fc = FunctionChecker {
        cx,
        summaries,
        current_fun: f.name.name.clone(),
        errors: Vec::new(),
        sites: 0,
        recording: true,
        req_sink: Some(ReqSink::default()),
        loop_stack: Vec::new(),
        return_store: Store::bottom(),
    };
    let mut store = Store::new();
    fc.block(&f.body, &mut store);
    let sink = fc.req_sink.take().expect("sink");

    // The function's exit state is the join of its fall-through state
    // and every early return.
    store.join(&fc.return_store);
    let out = store.iter().collect();
    obs::count(obs::Counter::CqualLockSites, fc.sites as u64);
    obs::count(obs::Counter::CqualErrors, fc.errors.len() as u64);
    FunOutcome {
        errors: fc.errors,
        sites: fc.sites,
        summary: Summary {
            first_req: sink.reqs,
            out,
            havocked: store.is_havocked(),
        },
    }
}

/// Break/continue accumulators for one loop.
#[derive(Debug, Default)]
struct LoopExits {
    breaks: Store,
    continues: Store,
}

impl LoopExits {
    fn new() -> Self {
        LoopExits {
            breaks: Store::bottom(),
            continues: Store::bottom(),
        }
    }
}

/// The summary-requirement collector threaded through function analysis.
#[derive(Debug, Default)]
struct ReqSink {
    reqs: Vec<(Loc, LockState, LockOp)>,
    seen: FxHashSet<Loc>,
}

/// Walks one function body, tracking the abstract store. All shared
/// inputs are behind `&` — only the per-function bookkeeping is mutable.
struct FunctionChecker<'c, 'a> {
    cx: &'c CheckContext<'a>,
    /// Summary slots by node id; filled for the functions checked before
    /// this one.
    summaries: &'c [Option<Summary>],
    current_fun: Symbol,
    errors: Vec<LockError>,
    sites: usize,
    recording: bool,
    req_sink: Option<ReqSink>,
    /// Break/continue join points for each enclosing loop.
    loop_stack: Vec<LoopExits>,
    /// Join of the stores at every `return` in the current function.
    return_store: Store,
}

impl FunctionChecker<'_, '_> {
    fn copy_in(&mut self, store: &mut Store, rho: Loc, rho_p: Loc) {
        let rho = self.cx.frozen.find(rho);
        let rho_p = self.cx.frozen.find(rho_p);
        if rho == rho_p {
            return; // demoted candidate — nothing to transfer
        }
        store.set(rho_p, store.state(rho));
    }

    fn copy_out(&mut self, store: &mut Store, rho: Loc, rho_p: Loc) {
        let rho = self.cx.frozen.find(rho);
        let rho_p = self.cx.frozen.find(rho_p);
        if rho == rho_p {
            return;
        }
        let strong = self.strong(rho);
        store.update(rho, store.state(rho_p), strong);
    }

    fn strong(&self, loc: Loc) -> bool {
        match self.cx.mode {
            Mode::AllStrong => true,
            _ => self.cx.frozen.strong_updatable(loc),
        }
    }

    fn block(&mut self, b: &Block, store: &mut Store) {
        let scopes: Vec<RangeScope> = self.cx.range_scopes.get(&b.id).cloned().unwrap_or_default();
        let mut decl_scopes: Vec<(Loc, Loc)> = Vec::new();
        for (i, s) in b.stmts.iter().enumerate() {
            for sc in scopes.iter().filter(|sc| sc.start == i) {
                self.copy_in(store, sc.rho, sc.rho_p);
            }
            self.stmt(s, store, &mut decl_scopes);
            // Inner scopes (larger start) copy out first.
            let mut ending: Vec<&RangeScope> = scopes.iter().filter(|sc| sc.end == i).collect();
            ending.sort_by_key(|sc| std::cmp::Reverse(sc.start));
            for sc in ending {
                self.copy_out(store, sc.rho, sc.rho_p);
            }
        }
        // Declaration-restrict scopes end with the block, innermost first.
        for &(rho, rho_p) in decl_scopes.iter().rev() {
            self.copy_out(store, rho, rho_p);
        }
    }

    fn stmt(&mut self, s: &Stmt, store: &mut Store, decl_scopes: &mut Vec<(Loc, Loc)>) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e, store),
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    self.expr(e, store);
                }
                if let Some(&(rho, rho_p)) = self.cx.stmt_scopes.get(&s.id) {
                    self.copy_in(store, rho, rho_p);
                    decl_scopes.push((rho, rho_p));
                }
            }
            StmtKind::Restrict { init, body, .. } => {
                self.expr(init, store);
                let scope = self.cx.stmt_scopes.get(&s.id).copied();
                if let Some((rho, rho_p)) = scope {
                    self.copy_in(store, rho, rho_p);
                }
                self.block(body, store);
                if let Some((rho, rho_p)) = scope {
                    self.copy_out(store, rho, rho_p);
                }
            }
            StmtKind::Confine { expr, body } => {
                self.expr(expr, store);
                let scope = self.cx.stmt_scopes.get(&s.id).copied();
                if let Some((rho, rho_p)) = scope {
                    self.copy_in(store, rho, rho_p);
                }
                self.block(body, store);
                if let Some((rho, rho_p)) = scope {
                    self.copy_out(store, rho, rho_p);
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond, store);
                let mut then_store = store.clone();
                self.block(then_blk, &mut then_store);
                match else_blk {
                    Some(e) => {
                        let mut else_store = store.clone();
                        self.block(e, &mut else_store);
                        then_store.join(&else_store);
                    }
                    None => then_store.join(store),
                }
                *store = then_store;
            }
            StmtKind::While { cond, body, step } => {
                // Fixpoint without recording, then one recording pass
                // from the stabilized loop-head store. `continue` joins
                // back before the step (C `for` semantics); `break` joins
                // into the loop's exit.
                let was_recording = self.recording;
                self.recording = false;
                let mut head = store.clone();
                loop {
                    let mut iter_store = head.clone();
                    self.expr(cond, &mut iter_store);
                    self.loop_stack.push(LoopExits::new());
                    self.block(body, &mut iter_store);
                    let exits = self.loop_stack.pop().expect("loop exits");
                    // The step runs on both normal completion and
                    // continue.
                    iter_store.join(&exits.continues);
                    if let Some(step) = step {
                        self.expr(step, &mut iter_store);
                    }
                    let mut next = head.clone();
                    next.join(&iter_store);
                    if next == head {
                        break;
                    }
                    head = next;
                }
                self.recording = was_recording;
                let mut exit_store = head.clone();
                self.expr(cond, &mut exit_store);
                let mut body_store = exit_store.clone();
                self.loop_stack.push(LoopExits::new());
                self.block(body, &mut body_store);
                let exits = self.loop_stack.pop().expect("loop exits");
                body_store.join(&exits.continues);
                if let Some(step) = step {
                    self.expr(step, &mut body_store);
                }
                exit_store.join(&exits.breaks);
                *store = exit_store;
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e, store);
                }
                self.return_store.join(store);
                store.mark_unreachable();
            }
            StmtKind::Break => {
                match self.loop_stack.last_mut() {
                    Some(top) => top.breaks.join(store),
                    // break outside a loop: the path simply ends.
                    None => self.return_store.join(store),
                }
                store.mark_unreachable();
            }
            StmtKind::Continue => {
                match self.loop_stack.last_mut() {
                    Some(top) => top.continues.join(store),
                    None => self.return_store.join(store),
                }
                store.mark_unreachable();
            }
            StmtKind::Block(b) => self.block(b, store),
        }
    }

    fn expr(&mut self, e: &Expr, store: &mut Store) {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Var(_) => {}
            ExprKind::Unary(_, a) | ExprKind::New(a) | ExprKind::Cast(_, a) => self.expr(a, store),
            ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
                self.expr(a, store);
                self.expr(b, store);
            }
            ExprKind::Field(a, _) | ExprKind::Arrow(a, _) => self.expr(a, store),
            ExprKind::Call(f, args) => {
                for a in args {
                    self.expr(a, store);
                }
                self.call(e.id, &f.name, args, store);
            }
        }
    }

    fn require(&mut self, store: &Store, loc: Loc, required: LockState, op: LockOp, site: NodeId) {
        // Record a summary requirement on first touch.
        if let Some(sink) = &mut self.req_sink {
            if !store.touched(loc) && sink.seen.insert(loc) {
                sink.reqs.push((loc, required, op));
            }
        }
        if self.recording {
            let found = store.state(loc);
            if !found.verifies(required) {
                self.errors.push(LockError {
                    site,
                    op,
                    found,
                    fun: self.current_fun.to_string(),
                });
            }
        }
    }

    fn call(&mut self, site: NodeId, callee: &str, args: &[Expr], store: &mut Store) {
        if intrinsics::is_change_type(callee) {
            let (required, new, op) = match callee {
                intrinsics::SPIN_LOCK => (LockState::Unlocked, LockState::Locked, LockOp::Acquire),
                intrinsics::SPIN_UNLOCK => {
                    (LockState::Locked, LockState::Unlocked, LockOp::Release)
                }
                _ => {
                    // Generic change_type: no requirement, unknown result.
                    for a in args {
                        if let Some(loc) = self.arg_pointee(a) {
                            store.update(loc, LockState::Top, false);
                        }
                    }
                    return;
                }
            };
            if self.recording {
                self.sites += 1;
            }
            let Some(arg) = args.first() else { return };
            let Some(loc) = self.arg_pointee(arg) else {
                return;
            };
            self.require(store, loc, required, op, site);
            let strong = self.strong(loc);
            store.update(loc, new, strong);
            return;
        }

        // Defined function: apply its summary if its slot is filled, that
        // is, if the callee comes earlier in the schedule; otherwise havoc
        // if it is cyclic (a callee later in the schedule always is).
        let Some(c) = self.cx.graph.node(callee) else {
            return; // extern/undefined: no interprocedural effect
        };
        let Some(sum) = &self.summaries[c] else {
            if self.cx.graph.is_cyclic(c) {
                store.havoc();
            }
            return;
        };
        let map = self.retarget_map(c, args);
        for (loc, required, _op) in &sum.first_req {
            let target = retarget(&map, self.cx.frozen, *loc);
            self.require(store, target, *required, LockOp::CallRequirement, site);
        }
        // A havocked callee reached an unanalyzed cyclic call on some
        // path: its `out` covers only the locations it mentioned, so
        // everything else must drop to unknown here too — *before* the
        // explicit exit states are applied on top.
        if sum.havocked {
            store.havoc();
        }
        for (loc, out_state) in &sum.out {
            let target = retarget(&map, self.cx.frozen, *loc);
            let strong = self.strong(target);
            store.update(target, *out_state, strong);
        }
    }

    /// Maps a callee's restrict-parameter `ρ'` locations to the actual
    /// arguments' pointee locations at this call site.
    fn retarget_map(&self, callee: usize, args: &[Expr]) -> FxHashMap<Loc, Loc> {
        let mut map = FxHashMap::default();
        for (info, arg) in self.cx.params[callee].iter().zip(args) {
            if !info.restrict {
                continue;
            }
            let Some(rho_p) = info.rho_p else { continue };
            if let Some(target) = self.arg_pointee(arg) {
                map.insert(self.cx.frozen.find(rho_p), target);
            }
        }
        map
    }

    /// The canonical pointee location of a pointer-valued argument.
    fn arg_pointee(&self, arg: &Expr) -> Option<Loc> {
        match self.cx.state.expr_ty.get(arg.id.index())?.as_ref()? {
            Ty::Ref(l) => Some(self.cx.frozen.find(*l)),
            _ => None,
        }
    }
}
