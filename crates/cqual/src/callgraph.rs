//! The explicit call graph the interprocedural checker is scheduled
//! over.
//!
//! Nodes are the module's *defined* functions, identified by
//! alphabetically-sorted ids, so the graph — and everything derived from
//! it — is independent of both definition order and hash iteration
//! order. (The predecessor of this module, the ad-hoc `call_order` pass,
//! iterated `HashMap`/`HashSet` and was deterministic only by luck.)
//!
//! The one derived structure is the bottom-up schedule
//! ([`CallGraph::order`]) in which functions are checked and summarized.
//! It reproduces the legacy sequential schedule bit-for-bit — Kahn rounds
//! with alphabetical tie-breaks, self-recursive callees ignored for
//! readiness, and the undrainable remainder (functions on or downstream
//! of a mutual-recursion cycle) appended alphabetically and marked
//! [`CallGraph::is_cyclic`] — so reports are byte-identical to the
//! historical checker. A call consumes its callee's summary exactly when
//! the callee comes earlier in the order; a call into a cyclic function
//! that is not yet summarized conservatively havocs the store.
//!
//! The walk that finds the call sites also marks, bottom up, every
//! expression, statement and block of a function body that can change a
//! lock state (`CallGraph::marked`); the checker skips the rest
//! (DESIGN.md §5).

use localias_ast::{
    BindingKind, BlockId, ExprId, ExprKind, Module, NodeId, Stmt, StmtKind, Symbol,
};
use localias_obs as obs;

/// A call graph over a module's defined functions, with a deterministic
/// bottom-up schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function names; the node id *is* the index into this list, sorted
    /// by text.
    names: Vec<Symbol>,
    /// Each name's node id, indexed by name; [`NO_NODE`] for a name that
    /// is no defined function.
    node_of: Vec<u32>,
    /// The node of each function definition, in definition order.
    defs: Vec<usize>,
    /// Each node's mark, by node id: a call to a defined function holds
    /// its callee's node, every other marked node [`LIVE`], and every
    /// unmarked node [`NO_NODE`]. Every mode's check reads its calls and
    /// the nodes it walks from here.
    callee_of: Vec<u32>,
    /// Each node's sorted, deduplicated defined callees (excluding
    /// itself), as a run in `edges`.
    callees: Vec<(usize, usize)>,
    edges: Vec<usize>,
    /// Treated as recursive by the checker: direct self-recursion, or on/
    /// downstream of a mutual-recursion cycle (the legacy rule).
    cyclic: Vec<bool>,
    /// Node ids in schedule order (the legacy sequential order).
    order: Vec<usize>,
}

/// Marks an unmarked id of [`CallGraph::callee_of`], and a name of
/// [`CallGraph::node_of`] that names no defined function.
const NO_NODE: u32 = u32::MAX;

/// Marks an id of [`CallGraph::callee_of`] that can change a lock state
/// but is no call to a defined function.
const LIVE: u32 = u32::MAX - 1;

/// Walks one function body bottom up. Each call to a defined function
/// puts its callee's node in `callee_of`, and each defined callee other
/// than `caller` goes to `edges`; a call to `caller` itself sets
/// `self_rec`. Every other node that is or contains a `change_type`
/// call, a call to a defined function, a `return`, `break` or
/// `continue`, a `restrict` or `confine` statement or a `restrict`
/// declaration is marked [`LIVE`]. Only these can change a lock state,
/// touch a location, record a requirement, an error or a site, or end a
/// path. Each method returns whether its node is marked.
struct Marks<'g> {
    m: &'g Module,
    node_of: &'g [u32],
    caller: Symbol,
    callee_of: &'g mut Vec<u32>,
    edges: &'g mut Vec<usize>,
    self_rec: bool,
}

impl Marks<'_> {
    /// Sets `id`'s entry to `mark`; a `LIVE` mark never hides a call's
    /// callee.
    fn set(&mut self, id: NodeId, mark: u32) {
        let i = id.index();
        if i >= self.callee_of.len() {
            self.callee_of.resize(i + 1, NO_NODE);
        }
        if mark != LIVE || self.callee_of[i] == NO_NODE {
            self.callee_of[i] = mark;
        }
    }

    /// Marks `id` when `live` holds; returns `live`.
    fn mark(&mut self, id: NodeId, live: bool) -> bool {
        if live {
            self.set(id, LIVE);
        }
        live
    }

    fn block(&mut self, b: BlockId) -> bool {
        let m = self.m;
        let mut live = false;
        for s in m.stmts(b) {
            live |= self.stmt(s);
        }
        self.mark(m.block(b).id, live)
    }

    fn stmt(&mut self, s: &Stmt) -> bool {
        let live = match s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Decl { binding, init, .. } => {
                init.is_some_and(|e| self.expr(e)) | (binding == BindingKind::Restrict)
            }
            StmtKind::Restrict {
                init: e, body: b, ..
            }
            | StmtKind::Confine { expr: e, body: b } => {
                self.expr(e);
                self.block(b);
                true
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => self.expr(cond) | self.block(then_blk) | else_blk.is_some_and(|b| self.block(b)),
            StmtKind::While { cond, body, step } => {
                self.expr(cond) | self.block(body) | step.is_some_and(|e| self.expr(e))
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
                true
            }
            StmtKind::Break | StmtKind::Continue => true,
            StmtKind::Block(b) => self.block(b),
        };
        self.mark(s.id, live)
    }

    fn expr(&mut self, e: ExprId) -> bool {
        let m = self.m;
        let e = m.expr(e);
        let live = match e.kind {
            ExprKind::Int(_) | ExprKind::Var(_) => false,
            ExprKind::Unary(_, a)
            | ExprKind::New(a)
            | ExprKind::Cast(_, a)
            | ExprKind::Field(a, _)
            | ExprKind::Arrow(a, _) => self.expr(a),
            ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
                self.expr(a) | self.expr(b)
            }
            ExprKind::Call(name, args) => {
                let mut live = name.name.is_change_type();
                for &a in m.arg_ids(args) {
                    live |= self.expr(a);
                }
                let c = self.node_of[name.name.index()];
                if c != NO_NODE {
                    if name.name == self.caller {
                        self.self_rec = true;
                    } else {
                        self.edges.push(c as usize);
                    }
                    self.set(e.id, c);
                    return true;
                }
                live
            }
        };
        self.mark(e.id, live)
    }
}

impl CallGraph {
    /// Builds the graph and its schedule for `m`.
    pub fn build(m: &Module) -> CallGraph {
        let _span = obs::span!("cqual.graph");
        // Node ids: defined function names, sorted — so numeric order on
        // ids is alphabetical order on names, whatever the definition
        // order was.
        let mut names: Vec<Symbol> = m.functions().map(|f| f.name.name).collect();
        names.sort_unstable_by_key(|&s| m.name(s));
        names.dedup();
        let mut node_of = vec![NO_NODE; m.names().len()];
        for (i, n) in names.iter().enumerate() {
            node_of[n.index()] = i as u32;
        }
        let n = names.len();

        // Edges. With duplicate definitions the later definition's callee
        // set wins (mirroring the legacy last-wins function map), while
        // self-recursion accumulates across definitions.
        let mut defs = Vec::with_capacity(n);
        let mut callee_of = vec![NO_NODE; m.node_count as usize];
        let mut callees = vec![(0, 0); n];
        let mut edges = Vec::new();
        let mut self_rec = vec![false; n];
        for f in m.functions() {
            let v = node_of[f.name.name.index()] as usize;
            defs.push(v);
            let start = edges.len();
            let mut marks = Marks {
                m,
                node_of: &node_of,
                caller: f.name.name,
                callee_of: &mut callee_of,
                edges: &mut edges,
                self_rec: false,
            };
            marks.block(f.body);
            self_rec[v] |= marks.self_rec;
            edges[start..].sort_unstable();
            let mut end = start;
            for i in start..edges.len() {
                if i == start || edges[i] != edges[end - 1] {
                    edges[end] = edges[i];
                    end += 1;
                }
            }
            edges.truncate(end);
            callees[v] = (start, end);
        }

        let (order, cyclic) = schedule(&callees, &edges, &self_rec);
        CallGraph {
            names,
            node_of,
            defs,
            callee_of,
            callees,
            edges,
            cyclic,
            order,
        }
    }

    /// Number of defined functions (nodes).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the module defines no functions.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The function name of node `v`.
    pub fn name(&self, v: usize) -> Symbol {
        self.names[v]
    }

    /// The node id of a defined function, if any.
    pub fn node(&self, name: Symbol) -> Option<usize> {
        match self.node_of[name.index()] {
            NO_NODE => None,
            v => Some(v as usize),
        }
    }

    /// Sorted defined callees of `v` (excluding `v` itself).
    pub fn callees(&self, v: usize) -> &[usize] {
        let (start, end) = self.callees[v];
        &self.edges[start..end]
    }

    /// The node of each function definition of the module, in
    /// definition order.
    pub(crate) fn defs(&self) -> &[usize] {
        &self.defs
    }

    /// The node of the defined function the call expression `site`
    /// calls, if it calls one.
    pub(crate) fn call_target(&self, site: NodeId) -> Option<usize> {
        match self.callee_of.get(site.index()) {
            Some(&c) if c < LIVE => Some(c as usize),
            _ => None,
        }
    }

    /// Whether node `id` is or contains code that can change a lock
    /// state (see [`Marks`]). The checker skips every unmarked node: it
    /// would leave the store as it found it.
    pub(crate) fn marked(&self, id: NodeId) -> bool {
        self.callee_of
            .get(id.index())
            .is_some_and(|&c| c != NO_NODE)
    }

    /// Whether the checker treats `v` as recursive: a call to `v` havocs
    /// unless `v` comes earlier in [`CallGraph::order`] than the caller,
    /// and so is already summarized.
    pub fn is_cyclic(&self, v: usize) -> bool {
        self.cyclic[v]
    }

    /// Node ids in bottom-up schedule order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// The legacy-compatible bottom-up schedule: Kahn rounds with
/// alphabetical (= node-id) tie-breaks, where a self-recursive callee
/// never blocks readiness, followed by the undrainable remainder in
/// alphabetical order. Returns `(order, cyclic)` where `cyclic` marks
/// self-recursive functions and the whole remainder.
fn schedule(
    callees: &[(usize, usize)],
    edges: &[usize],
    self_rec: &[bool],
) -> (Vec<usize>, Vec<bool>) {
    let n = callees.len();
    let mut remaining = vec![true; n];
    let mut order = Vec::with_capacity(n);
    loop {
        // A round's ready nodes are appended to `order` and only then
        // leave `remaining`, so readiness reads the previous round.
        let round = order.len();
        order.extend((0..n).filter(|&v| {
            let (start, end) = callees[v];
            remaining[v]
                && edges[start..end]
                    .iter()
                    .all(|&c| !remaining[c] || self_rec[c])
        }));
        if order.len() == round {
            break;
        }
        for &v in &order[round..] {
            remaining[v] = false;
        }
    }
    let mut cyclic = self_rec.to_vec();
    for v in 0..n {
        if remaining[v] {
            cyclic[v] = true;
            order.push(v);
        }
    }
    (order, cyclic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;

    /// A module and its graph, with lookups by name.
    struct Graph(Module, CallGraph);

    impl std::ops::Deref for Graph {
        type Target = CallGraph;

        fn deref(&self) -> &CallGraph {
            &self.1
        }
    }

    impl Graph {
        fn node(&self, name: &str) -> Option<usize> {
            self.1.node(self.0.symbol(name)?)
        }

        fn name(&self, v: usize) -> &str {
            self.0.name(self.1.name(v))
        }
    }

    fn graph(src: &str) -> Graph {
        let m = parse_module("t", src).expect("parse");
        let g = CallGraph::build(&m);
        Graph(m, g)
    }

    fn names(g: &Graph) -> Vec<&str> {
        g.order().iter().map(|&v| g.name(v)).collect()
    }

    /// Schedule position of every node (`pos[order[i]] == i`).
    fn positions(g: &CallGraph) -> Vec<usize> {
        let mut pos = vec![0; g.len()];
        for (i, &v) in g.order().iter().enumerate() {
            pos[v] = i;
        }
        pos
    }

    #[test]
    fn linear_chain_schedules_callees_first() {
        let g = graph(
            r#"
            void c() {}
            void b() { c(); }
            void a() { b(); }
            "#,
        );
        assert_eq!(names(&g), ["c", "b", "a"]);
        assert!(!g.is_cyclic(g.node("a").unwrap()));
    }

    #[test]
    fn siblings_schedule_alphabetically() {
        let g = graph(
            r#"
            void z() {}
            void m() { z(); }
            void a() { z(); }
            void top() { a(); m(); }
            "#,
        );
        assert_eq!(names(&g), ["z", "a", "m", "top"]);
    }

    #[test]
    fn mutual_recursion_and_its_callers_are_cyclic() {
        let g = graph(
            r#"
            void even(int n) { odd(n); }
            void odd(int n) { even(n); }
            void user() { even(3); }
            "#,
        );
        let even = g.node("even").unwrap();
        let odd = g.node("odd").unwrap();
        let user = g.node("user").unwrap();
        assert!(g.is_cyclic(even) && g.is_cyclic(odd));
        // The legacy rule drags everything downstream of the cycle into
        // the cyclic remainder.
        assert!(g.is_cyclic(user));
        assert_eq!(names(&g), ["even", "odd", "user"]);
    }

    #[test]
    fn self_recursion_does_not_block_callers() {
        let g = graph(
            r#"
            void rec(int n) { rec(n); }
            void caller() { rec(1); }
            "#,
        );
        let rec = g.node("rec").unwrap();
        assert!(g.is_cyclic(rec));
        let caller = g.node("caller").unwrap();
        assert!(!g.is_cyclic(caller));
        // `caller` < `rec` alphabetically, and rec never blocks, so both
        // drain in the first round — caller first.
        assert_eq!(names(&g), ["caller", "rec"]);
        // With rec later in the order and cyclic, the call havocs instead
        // of using a summary.
        let pos = positions(&g);
        assert!(pos[rec] > pos[caller]);
    }

    #[test]
    fn callees_are_scheduled_before_callers() {
        let g = graph(
            r#"
            void leaf1() {}
            void leaf2() {}
            void mid1() { leaf1(); }
            void mid2() { leaf1(); leaf2(); }
            void top() { mid1(); mid2(); }
            "#,
        );
        let pos = positions(&g);
        for v in 0..g.len() {
            assert!(!g.is_cyclic(v), "{}", g.name(v));
            for &c in g.callees(v) {
                assert!(pos[c] < pos[v], "{} calls {}", g.name(v), g.name(c));
            }
        }
        // Every node appears in the order exactly once.
        let mut seen = g.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..g.len()).collect::<Vec<_>>());
    }

    #[test]
    fn graph_is_stable_under_definition_reordering() {
        let fwd = r#"
            void a() { b(); }
            void b() { c(); }
            void c() {}
            void d() { a(); c(); }
        "#;
        let rev = r#"
            void d() { a(); c(); }
            void c() {}
            void b() { c(); }
            void a() { b(); }
        "#;
        let g1 = graph(fwd);
        let g2 = graph(rev);
        assert_eq!(names(&g1), names(&g2));
        assert_eq!(g1.order(), g2.order());
        let cyclic = |g: &CallGraph| (0..g.len()).map(|v| g.is_cyclic(v)).collect::<Vec<_>>();
        assert_eq!(cyclic(&g1), cyclic(&g2));
    }
}
