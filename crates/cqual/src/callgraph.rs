//! The explicit call graph the interprocedural checker is scheduled
//! over.
//!
//! Nodes are the module's *defined* functions, identified by
//! alphabetically-sorted ids, so the graph — and everything derived from
//! it — is independent of both definition order and hash iteration
//! order. (The predecessor of this module, the ad-hoc `call_order` pass,
//! iterated `HashMap`/`HashSet` and was deterministic only by luck.)
//!
//! Two layers of structure are computed once, up front:
//!
//! 1. **Schedule positions** ([`CallGraph::pos`], [`CallGraph::order`]):
//!    the bottom-up order functions are summarized in. This reproduces
//!    the legacy sequential schedule bit-for-bit — Kahn rounds with
//!    alphabetical tie-breaks, self-recursive callees ignored for
//!    readiness, and the undrainable remainder (functions on or
//!    downstream of a mutual-recursion cycle) appended alphabetically
//!    and marked [`CallGraph::is_cyclic`] — so reports are byte-identical
//!    to the historical checker. Calls into a cyclic function that is
//!    not yet summarized conservatively havoc the store.
//! 2. **Wave schedule** ([`CallGraph::waves`]): antichains of the
//!    summary-dependency DAG. Function `f` depends on callee `c` exactly
//!    when `pos(c) < pos(f)` (that is precisely when the sequential
//!    checker consumes `c`'s summary at `f`'s call sites); every such
//!    edge decreases `pos`, so the dependency relation is acyclic even
//!    across recursion groups. Wave `k` holds the functions whose longest
//!    dependency chain has length `k`; all functions in one wave are
//!    mutually independent.

use localias_ast::visit::{walk_expr, Visitor};
use localias_ast::{Expr, ExprKind, Module};
use localias_obs as obs;
use std::collections::HashMap;

/// A call graph over a module's defined functions, with a deterministic
/// bottom-up schedule and a wave partition. See the module docs for how
/// the pieces relate.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function names; the node id *is* the index into this sorted list.
    names: Vec<String>,
    /// Name → node id.
    index: HashMap<String, usize>,
    /// Sorted, deduplicated defined callees per node, excluding self.
    callees: Vec<Vec<usize>>,
    /// Treated as recursive by the checker: direct self-recursion, or on/
    /// downstream of a mutual-recursion cycle (the legacy rule).
    cyclic: Vec<bool>,
    /// Node ids in schedule order (the legacy sequential order).
    order: Vec<usize>,
    /// Schedule position per node (`pos[order[i]] == i`).
    pos: Vec<usize>,
    /// Summary dependencies per node: callees with a smaller position.
    deps: Vec<Vec<usize>>,
    /// Wave partition: `waves[k]` lists the nodes (by ascending position)
    /// whose longest dependency chain has length `k`.
    waves: Vec<Vec<usize>>,
}

/// Collects the callee names of one function body.
struct Calls {
    out: Vec<String>,
}

impl Visitor for Calls {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Call(name, _) = &e.kind {
            self.out.push(name.name.to_string());
        }
        walk_expr(self, e);
    }
}

impl CallGraph {
    /// Builds the graph, schedule, and waves for `m`.
    pub fn build(m: &Module) -> CallGraph {
        let _span = obs::span!("cqual.graph");
        // Node ids: defined function names, sorted — so numeric order on
        // ids is alphabetical order on names, whatever the definition
        // order was.
        let mut names: Vec<String> = m.functions().map(|f| f.name.name.to_string()).collect();
        names.sort();
        names.dedup();
        let index: HashMap<String, usize> = names
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
            let v = index[f.name.name.as_str()];
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
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }

        // Summary dependencies: exactly the call edges the sequential
        // checker resolves through a summary (callee summarized earlier).
        // Every edge decreases `pos`, so the relation is acyclic.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in 0..n {
            deps[v] = callees[v]
                .iter()
                .copied()
                .filter(|&c| pos[c] < pos[v])
                .collect();
        }

        // Longest-path levels over the dependency DAG. Processing in
        // schedule order guarantees dependencies are leveled first.
        let mut level = vec![0usize; n];
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for &v in &order {
            let lvl = deps[v].iter().map(|&c| level[c] + 1).max().unwrap_or(0);
            level[v] = lvl;
            if waves.len() <= lvl {
                waves.resize(lvl + 1, Vec::new());
            }
            waves[lvl].push(v);
        }

        CallGraph {
            names,
            index,
            callees,
            cyclic,
            order,
            pos,
            deps,
            waves,
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

    /// Whether the checker treats `v` as recursive: calls to `v` havoc
    /// unless `v`'s summary is already scheduled (see
    /// [`CallGraph::uses_summary`]).
    pub fn is_cyclic(&self, v: usize) -> bool {
        self.cyclic[v]
    }

    /// Node ids in bottom-up schedule order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The schedule position of `v`.
    pub fn pos(&self, v: usize) -> usize {
        self.pos[v]
    }

    /// The summary dependencies of `v`: callees checked before `v`.
    pub fn deps(&self, v: usize) -> &[usize] {
        &self.deps[v]
    }

    /// The wave partition: each wave lists mutually-independent nodes in
    /// ascending schedule position; a node's dependencies all live in
    /// strictly earlier waves.
    pub fn waves(&self) -> &[Vec<usize>] {
        &self.waves
    }

    /// Whether a call *from* `caller` *to* `callee` consumes `callee`'s
    /// summary — exactly when the sequential schedule has already
    /// summarized the callee. Otherwise the call havocs if the callee is
    /// cyclic, and is a no-op if it is merely later in the schedule
    /// (which only happens for cyclic callees) or undefined.
    pub fn uses_summary(&self, caller: usize, callee: usize) -> bool {
        self.pos[callee] < self.pos[caller]
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

    #[test]
    fn linear_chain_schedules_callees_first() {
        let g = graph(
            r#"
            void c() {}
            void b() { c(); }
            void a() { b(); }
            "#,
        );
        let order: Vec<&str> = g.order().iter().map(|&v| g.name(v)).collect();
        assert_eq!(order, ["c", "b", "a"]);
        assert_eq!(g.waves().len(), 3);
        assert!(!g.is_cyclic(g.node("a").unwrap()));
    }

    #[test]
    fn siblings_share_a_wave_alphabetically() {
        let g = graph(
            r#"
            void z() {}
            void m() { z(); }
            void a() { z(); }
            void top() { a(); m(); }
            "#,
        );
        let order: Vec<&str> = g.order().iter().map(|&v| g.name(v)).collect();
        assert_eq!(order, ["z", "a", "m", "top"]);
        let waves: Vec<Vec<&str>> = g
            .waves()
            .iter()
            .map(|w| w.iter().map(|&v| g.name(v)).collect())
            .collect();
        assert_eq!(waves, [vec!["z"], vec!["a", "m"], vec!["top"]]);
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
        let order: Vec<&str> = g.order().iter().map(|&v| g.name(v)).collect();
        assert_eq!(order, ["even", "odd", "user"]);
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
        let order: Vec<&str> = g.order().iter().map(|&v| g.name(v)).collect();
        assert_eq!(order, ["caller", "rec"]);
        // With pos(rec) > pos(caller), the call havocs instead of using a
        // summary.
        assert!(!g.uses_summary(caller, rec));
    }

    #[test]
    fn waves_respect_dependencies() {
        let g = graph(
            r#"
            void leaf1() {}
            void leaf2() {}
            void mid1() { leaf1(); }
            void mid2() { leaf1(); leaf2(); }
            void top() { mid1(); mid2(); }
            "#,
        );
        let mut wave_of = vec![0usize; g.len()];
        for (k, wave) in g.waves().iter().enumerate() {
            for &v in wave {
                wave_of[v] = k;
            }
        }
        for v in 0..g.len() {
            for &d in g.deps(v) {
                assert!(wave_of[d] < wave_of[v], "{} dep {}", g.name(v), g.name(d));
            }
        }
        // Every node appears in exactly one wave.
        let total: usize = g.waves().iter().map(|w| w.len()).sum();
        assert_eq!(total, g.len());
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
        let names = |g: &CallGraph| -> Vec<String> {
            g.order().iter().map(|&v| g.name(v).to_string()).collect()
        };
        assert_eq!(names(&g1), names(&g2));
        assert_eq!(g1.waves(), g2.waves());
    }
}
