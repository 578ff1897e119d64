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

use localias_alias::FxHashMap;
use localias_ast::visit::{walk_expr, Visitor};
use localias_ast::{Expr, ExprKind, Module, NodeId, Symbol};
use localias_obs as obs;

/// A call graph over a module's defined functions, with a deterministic
/// bottom-up schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function names; the node id *is* the index into this sorted list.
    names: Vec<Symbol>,
    /// Name → node id.
    index: FxHashMap<Symbol, usize>,
    /// The node of each function definition, in definition order.
    defs: Vec<usize>,
    /// Each call site's callee node, by the call expression's id;
    /// [`NO_NODE`] for every other id and for calls to undefined
    /// functions. Every mode's check reads its calls from here.
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

/// Marks an id of [`CallGraph::callee_of`] that is no call to a defined
/// function.
const NO_NODE: u32 = u32::MAX;

/// Resolves the call sites of one function body: each call's callee node
/// goes to `callee_of`, and each defined callee other than `caller` to
/// `edges`; a call to `caller` itself sets `self_rec`.
struct Calls<'g> {
    index: &'g FxHashMap<Symbol, usize>,
    caller: &'g Symbol,
    callee_of: &'g mut Vec<u32>,
    edges: &'g mut Vec<usize>,
    self_rec: bool,
}

impl Visitor for Calls<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Call(name, _) = &e.kind {
            if let Some(&c) = self.index.get(&name.name) {
                let site = e.id.index();
                if site >= self.callee_of.len() {
                    self.callee_of.resize(site + 1, NO_NODE);
                }
                self.callee_of[site] = c as u32;
                if name.name == *self.caller {
                    self.self_rec = true;
                } else {
                    self.edges.push(c);
                }
            }
        }
        walk_expr(self, e);
    }
}

impl CallGraph {
    /// Builds the graph and its schedule for `m`.
    pub fn build(m: &Module) -> CallGraph {
        let _span = obs::span!("cqual.graph");
        // Node ids: defined function names, sorted — so numeric order on
        // ids is alphabetical order on names, whatever the definition
        // order was.
        let mut names: Vec<Symbol> = m.functions().map(|f| f.name.name.clone()).collect();
        names.sort();
        names.dedup();
        let index: FxHashMap<Symbol, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
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
            let v = index[&f.name.name];
            defs.push(v);
            let start = edges.len();
            let mut calls = Calls {
                index: &index,
                caller: &f.name.name,
                callee_of: &mut callee_of,
                edges: &mut edges,
                self_rec: false,
            };
            calls.visit_block(&f.body);
            self_rec[v] |= calls.self_rec;
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
            index,
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
    pub fn name(&self, v: usize) -> &str {
        &self.names[v]
    }

    /// The node id of a defined function, if any.
    pub fn node(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
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
            Some(&c) if c != NO_NODE => Some(c as usize),
            _ => None,
        }
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

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&parse_module("t", src).expect("parse"))
    }

    fn names(g: &CallGraph) -> Vec<&str> {
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
