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
use localias_ast::{Expr, ExprKind, Module, Symbol};
use localias_obs as obs;

/// A call graph over a module's defined functions, with a deterministic
/// bottom-up schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function names; the node id *is* the index into this sorted list.
    names: Vec<Symbol>,
    /// Name → node id.
    index: FxHashMap<Symbol, usize>,
    /// Sorted, deduplicated defined callees per node, excluding self.
    callees: Vec<Vec<usize>>,
    /// Treated as recursive by the checker: direct self-recursion, or on/
    /// downstream of a mutual-recursion cycle (the legacy rule).
    cyclic: Vec<bool>,
    /// Node ids in schedule order (the legacy sequential order).
    order: Vec<usize>,
}

/// Collects the callee names of one function body.
struct Calls {
    out: Vec<Symbol>,
}

impl Visitor for Calls {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Call(name, _) = &e.kind {
            self.out.push(name.name.clone());
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
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut self_rec = vec![false; n];
        for f in m.functions() {
            let v = index[&f.name.name];
            let mut calls = Calls { out: Vec::new() };
            calls.visit_block(&f.body);
            let mut out = Vec::new();
            for callee in calls.out {
                if callee == f.name.name {
                    self_rec[v] = true;
                } else if let Some(&c) = index.get(&callee) {
                    out.push(c);
                }
            }
            out.sort_unstable();
            out.dedup();
            callees[v] = out;
        }

        let (order, cyclic) = schedule(&callees, &self_rec);
        CallGraph {
            names,
            index,
            callees,
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
        &self.callees[v]
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
fn schedule(callees: &[Vec<usize>], self_rec: &[bool]) -> (Vec<usize>, Vec<bool>) {
    let n = callees.len();
    let mut remaining = vec![true; n];
    let mut order = Vec::with_capacity(n);
    loop {
        let ready: Vec<usize> = (0..n)
            .filter(|&v| remaining[v] && callees[v].iter().all(|&c| !remaining[c] || self_rec[c]))
            .collect();
        if ready.is_empty() {
            break;
        }
        for &v in &ready {
            remaining[v] = false;
        }
        order.extend(ready);
    }
    let mut cyclic = self_rec.to_vec();
    let rest: Vec<usize> = (0..n).filter(|&v| remaining[v]).collect();
    for &v in &rest {
        cyclic[v] = true;
    }
    order.extend(rest);
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
