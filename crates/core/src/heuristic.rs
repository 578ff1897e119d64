//! The §7 syntactic heuristic for placing `confine?` candidates.
//!
//! For each statement (including nested blocks) we track which
//! `change_type` argument expressions it contains. When two or more
//! statements of the same block contain `change_type` calls whose
//! arguments match syntactically, the smallest statement sub-range
//! covering them becomes a `confine?` candidate, and — per the paper —
//! the new sub-block no longer reports a `change_type` to its parent.
//! Adjacent candidates for the same expression are implicitly merged by
//! taking the min/max statement span. An argument seen in only one
//! statement of a block bubbles up to the enclosing block's statement.
//!
//! For §6.2 scope inference we additionally propose candidates at every
//! *enclosing* block (a one-statement range around the containing
//! statement), provided the expression's free variables are still in
//! scope there; after constraint solving the caller keeps the outermost
//! successful candidate ([`select_outermost`]).
//!
//! Candidates are pre-filtered syntactically: the expression must have a
//! confinable shape (§6.1's identifiers/fields/dereferences restriction)
//! and no variable free in the expression may be assigned anywhere in the
//! candidate range (the register-variable complement of the effect-based
//! referential-transparency check).

use crate::outcome::ConfineSite;
use localias_alias::{FxMap, FxSet};
use localias_ast::{intrinsics, pretty, Block, Expr, ExprKind, Module, NodeId, Stmt, StmtKind};

/// A proposed `confine?` site: confine `expr` around statements
/// `start..=end` of `block`.
#[derive(Debug, Clone)]
pub struct ConfineCandidate {
    /// The block whose statements are covered.
    pub block: NodeId,
    /// First covered statement index.
    pub start: usize,
    /// Last covered statement index (inclusive).
    pub end: usize,
    /// The confined expression (a clone of one syntactic occurrence).
    pub expr: Expr,
    /// The printed expression, used as the syntactic-match key.
    pub key: String,
}

impl ConfineCandidate {
    /// This candidate's site, for outcome reporting.
    pub fn site(&self) -> ConfineSite {
        ConfineSite::Range {
            block: self.block,
            start: self.start,
            end: self.end,
        }
    }
}

/// Calls `f` on `e` and on each of its subexpressions, parents first.
fn each_expr<'m>(e: &'m Expr, f: &mut impl FnMut(&'m Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Var(_) => {}
        ExprKind::Unary(_, a)
        | ExprKind::New(a)
        | ExprKind::Cast(_, a)
        | ExprKind::Field(a, _)
        | ExprKind::Arrow(a, _) => each_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
            each_expr(a, f);
            each_expr(b, f);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                each_expr(a, f);
            }
        }
    }
}

/// The expressions a statement evaluates itself, not those of its
/// nested blocks.
fn own_exprs(s: &Stmt) -> [Option<&Expr>; 2] {
    match &s.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => [Some(e), None],
        StmtKind::Decl { init, .. } => [init.as_ref(), None],
        StmtKind::If { cond, .. } => [Some(cond), None],
        StmtKind::While { cond, step, .. } => [Some(cond), step.as_ref()],
        StmtKind::Restrict { init, .. } => [Some(init), None],
        StmtKind::Confine { expr, .. } => [Some(expr), None],
        StmtKind::Return(None) | StmtKind::Block(_) | StmtKind::Break | StmtKind::Continue => {
            [None, None]
        }
    }
}

/// Free variable names of an expression.
fn free_vars(e: &Expr) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    each_expr(e, &mut |e| {
        if let ExprKind::Var(x) = &e.kind {
            if !out.contains(&x.name.as_str()) {
                out.push(&x.name);
            }
        }
    });
    out
}

/// Names assigned (as whole variables) anywhere within a statement.
fn assigned_vars<'m>(s: &'m Stmt, out: &mut FxSet<&'m str>) {
    for e in own_exprs(s).into_iter().flatten() {
        each_expr(e, &mut |e| {
            if let ExprKind::Assign(lhs, _) = &e.kind {
                if let ExprKind::Var(x) = &lhs.kind {
                    out.insert(&x.name);
                }
            }
        });
    }
    for b in child_blocks(s) {
        for s in &b.stmts {
            assigned_vars(s, out);
        }
    }
}

/// `change_type` argument expressions called *directly* in this
/// statement's own expressions, *not* descending into nested blocks
/// (those report through their own scan). An explicit confine already
/// handles its own expression.
fn direct_change_type_args(s: &Stmt) -> Vec<&Expr> {
    let mut out = Vec::new();
    if matches!(s.kind, StmtKind::Confine { .. }) {
        return out;
    }
    for e in own_exprs(s).into_iter().flatten() {
        each_expr(e, &mut |e| {
            if let ExprKind::Call(f, args) = &e.kind {
                if intrinsics::is_change_type(&f.name) {
                    out.extend(args);
                }
            }
        });
    }
    out
}

/// The nested blocks of a statement, in order.
fn child_blocks(s: &Stmt) -> impl Iterator<Item = &Block> {
    let (first, second) = match &s.kind {
        StmtKind::Block(b)
        | StmtKind::While { body: b, .. }
        | StmtKind::Restrict { body: b, .. }
        | StmtKind::Confine { body: b, .. } => (Some(b), None),
        StmtKind::If {
            then_blk, else_blk, ..
        } => (Some(then_blk), else_blk.as_ref()),
        _ => (None, None),
    };
    first.into_iter().chain(second)
}

/// Adds `e` to `keys` unless a syntactically equal expression is
/// already there; the first occurrence stays the group's example.
fn add_key<'m>(keys: &mut Vec<&'m Expr>, e: &'m Expr) {
    if !keys.iter().any(|k| k.syntactically_equal(e)) {
        keys.push(e);
    }
}

/// The scan's state. Names and example expressions are borrowed from
/// the module; only the key of a group that spans two or more
/// statements is printed.
struct Scan<'m> {
    /// Also propose per-occurrence singletons and disjoint adjacent pairs
    /// (the paper's *general* strategy, approximated with a bounded
    /// candidate set), not just the min–max heuristic range.
    general: bool,
    out: Vec<ConfineCandidate>,
    /// `(block id, stmt index)` for each enclosing block of the current
    /// position.
    ancestors: Vec<(NodeId, usize)>,
    /// Names assigned anywhere within each enclosing statement subtree —
    /// parallel to `ancestors`.
    ancestor_assigned: Vec<FxSet<&'m str>>,
    /// Scoped environment: name → stack of `(depth, stmt index)` binding
    /// sites. Depth 0 is globals/params. Avoids cloning visibility sets
    /// per statement (which made the heuristic cost more than the whole
    /// analysis on large modules).
    env: FxMap<&'m str, Vec<(usize, usize)>>,
    seen: FxSet<(NodeId, usize, usize, String)>,
}

impl<'m> Scan<'m> {
    fn push_candidate(&mut self, block: NodeId, start: usize, end: usize, key: &str, expr: &Expr) {
        if self.seen.insert((block, start, end, key.to_string())) {
            self.out.push(ConfineCandidate {
                block,
                start,
                end,
                expr: expr.clone(),
                key: key.to_string(),
            });
        }
    }

    fn bind(&mut self, name: &'m str, depth: usize, idx: usize, undo: &mut Vec<&'m str>) {
        self.env.entry(name).or_default().push((depth, idx));
        undo.push(name);
    }

    fn unbind_all(&mut self, undo: Vec<&'m str>) {
        for name in undo {
            if let Some(stack) = self.env.get_mut(name) {
                stack.pop();
                if stack.is_empty() {
                    self.env.remove(name);
                }
            }
        }
    }

    /// Is `name` visible just before statement `idx` at nesting `depth`
    /// (i.e. bound in a strictly enclosing scope, or earlier in the same
    /// block)?
    fn visible_before(&self, name: &str, depth: usize, idx: usize) -> bool {
        self.env.get(name).is_some_and(|stack| {
            stack
                .iter()
                .any(|&(d, i)| d < depth || (d == depth && i < idx))
        })
    }

    /// Scans a block at nesting `depth` (function body = 1). Returns the
    /// `change_type` arguments that remain *unconsumed* and bubble up,
    /// one example expression per syntactic match group.
    fn block(&mut self, b: &'m Block, depth: usize) -> Vec<&'m Expr> {
        // First pass: per-statement keys (direct + bubbled from nested
        // blocks) and assigned names; the scoped env evolves in place.
        let mut per_stmt_keys: Vec<Vec<&'m Expr>> = Vec::with_capacity(b.stmts.len());
        let mut per_stmt_assigned: Vec<FxSet<&'m str>> = Vec::with_capacity(b.stmts.len());
        let mut undo: Vec<&'m str> = Vec::new();
        for (i, s) in b.stmts.iter().enumerate() {
            let mut assigned = FxSet::default();
            assigned_vars(s, &mut assigned);

            let mut keys: Vec<&'m Expr> = Vec::new();
            for a in direct_change_type_args(s) {
                if a.is_confinable_shape() {
                    add_key(&mut keys, a);
                }
            }

            // Recurse into nested blocks with ancestry bookkeeping. A
            // scoped-restrict binder is visible inside its own body only.
            self.ancestors.push((b.id, i));
            self.ancestor_assigned.push(assigned);
            let mut inner_undo = Vec::new();
            if let StmtKind::Restrict { name, .. } = &s.kind {
                self.bind(&name.name, depth + 1, 0, &mut inner_undo);
            }
            for child in child_blocks(s) {
                for e in self.block(child, depth + 1) {
                    add_key(&mut keys, e);
                }
            }
            self.unbind_all(inner_undo);
            self.ancestors.pop();
            per_stmt_assigned.push(self.ancestor_assigned.pop().expect("pushed above"));

            if let StmtKind::Decl { name, .. } = &s.kind {
                self.bind(&name.name, depth, i, &mut undo);
            }
            per_stmt_keys.push(keys);
        }

        // Second pass: group this block's statements by syntactic match.
        // (All of this block's declarations are in the env with their
        // statement index, so visibility at a range start is a lookup.)
        let mut groups: Vec<(&'m Expr, Vec<usize>)> = Vec::new();
        for (i, keys) in per_stmt_keys.iter().enumerate() {
            for &k in keys {
                match groups.iter_mut().find(|(e, _)| e.syntactically_equal(k)) {
                    Some((_, stmts)) => stmts.push(i),
                    None => groups.push((k, vec![i])),
                }
            }
        }

        // A group held by one statement bubbles up. The others propose
        // ranges in the order of their printed keys, each printed once.
        let mut bubbled = Vec::new();
        let mut keyed = Vec::new();
        for (example, stmts) in groups {
            if stmts.len() < 2 {
                bubbled.push(example);
            } else {
                keyed.push((pretty::print_expr(example), example, stmts));
            }
        }
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (k, example, stmts) in &keyed {
            let start = *stmts.first().expect("nonempty");
            let end = *stmts.last().expect("nonempty");

            // Syntactic referential-transparency pre-filter: no free
            // variable of the expression may be assigned in the range.
            let fv = free_vars(example);
            let range_ok = |lo: usize, hi: usize| {
                !per_stmt_assigned[lo..=hi]
                    .iter()
                    .any(|assigned| fv.iter().any(|v| assigned.contains(v)))
            };
            if !range_ok(start, end) {
                // The general strategy may still find safe sub-ranges.
                if self.general {
                    for &si in stmts {
                        if range_ok(si, si) && fv.iter().all(|v| self.visible_before(v, depth, si))
                        {
                            self.push_candidate(b.id, si, si, k, example);
                        }
                    }
                }
                continue;
            }
            // Free variables must be visible at the range start.
            if !fv.iter().all(|v| self.visible_before(v, depth, start)) {
                continue;
            }

            self.push_candidate(b.id, start, end, k, example);

            if self.general {
                // Per-occurrence singletons and disjoint adjacent pairs —
                // if the full range fails to verify, a sub-region may
                // still succeed (the paper's greedy merge applied to a
                // bounded candidate ladder).
                for &si in stmts {
                    self.push_candidate(b.id, si, si, k, example);
                }
                let mut j = 0;
                while j + 1 < stmts.len() {
                    let (lo, hi) = (stmts[j], stmts[j + 1]);
                    if range_ok(lo, hi) {
                        self.push_candidate(b.id, lo, hi, k, example);
                    }
                    j += 2;
                }
            }

            // §6.2 scope inference: also propose at every enclosing
            // block, outermost kept if it succeeds. Ancestor depth in the
            // stack is its index + 1 (function body = 1).
            for depth_ix in (0..self.ancestors.len()).rev() {
                let (ab, ai) = self.ancestors[depth_ix];
                let a_depth = depth_ix + 1;
                if !fv.iter().all(|v| self.visible_before(v, a_depth, ai)) {
                    break; // further out, still fewer names visible
                }
                if fv
                    .iter()
                    .any(|v| self.ancestor_assigned[depth_ix].contains(v))
                {
                    break; // the enclosing statement assigns a free var
                }
                self.push_candidate(ab, ai, ai, k, example);
            }
        }
        self.unbind_all(undo);
        bubbled
    }
}

/// Proposes `confine?` candidates for every function in `m`.
///
/// # Example
///
/// ```
/// use localias_ast::parse_module;
/// use localias_core::heuristic::propose_confines;
///
/// let m = parse_module(
///     "m",
///     r#"
///     lock locks[4];
///     extern void work();
///     void f(int i) {
///         spin_lock(&locks[i]);
///         work();
///         spin_unlock(&locks[i]);
///     }
///     "#,
/// )?;
/// let cands = propose_confines(&m);
/// assert!(cands.iter().any(|c| c.key == "&(locks[i])" && c.start == 0 && c.end == 2));
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub fn propose_confines(m: &Module) -> Vec<ConfineCandidate> {
    propose_with(m, false)
}

/// Proposes candidates with the paper's *general* §7 strategy
/// (approximated): in addition to the heuristic's min–max ranges, every
/// statement containing an occurrence gets a singleton candidate and
/// consecutive occurrences get disjoint pair candidates. After solving,
/// greedily keeping the outermost/largest successes reconstructs the
/// merged sub-blocks ("adjacent confines of the same expression can be
/// combined").
pub fn propose_confines_general(m: &Module) -> Vec<ConfineCandidate> {
    propose_with(m, true)
}

fn propose_with(m: &Module, general: bool) -> Vec<ConfineCandidate> {
    let mut scan = Scan {
        general,
        out: Vec::new(),
        ancestors: Vec::new(),
        ancestor_assigned: Vec::new(),
        env: FxMap::default(),
        seen: FxSet::default(),
    };
    let mut global_undo = Vec::new();
    for g in m.globals() {
        scan.bind(&g.name.name, 0, 0, &mut global_undo);
    }
    for f in m.functions() {
        let mut param_undo = Vec::new();
        for p in &f.params {
            scan.bind(&p.name.name, 0, 0, &mut param_undo);
        }
        let _ = scan.block(&f.body, 1);
        scan.unbind_all(param_undo);
    }
    scan.out
}

/// Keeps, for each confined expression key, only the outermost successful
/// candidates (drop successes nested inside another success for the same
/// key).
///
/// `candidates` and `successes` are parallel: `successes[i]` says whether
/// candidate `i` was verified. Containment is judged structurally: a
/// candidate is dropped if another successful candidate with the same key
/// encloses it (same block and covering range, or an ancestor block —
/// approximated here by the ancestry recorded during proposal; candidates
/// produced by [`propose_confines`] for the same key are totally ordered
/// by scope).
pub fn select_outermost(
    candidates: &[ConfineCandidate],
    successes: &[bool],
    enclosing: &dyn Fn(&ConfineCandidate, &ConfineCandidate) -> bool,
) -> Vec<usize> {
    let mut keep = Vec::new();
    'outer: for i in 0..candidates.len() {
        if !successes[i] {
            continue;
        }
        for j in 0..candidates.len() {
            if i != j
                && successes[j]
                && candidates[j].key == candidates[i].key
                && enclosing(&candidates[j], &candidates[i])
            {
                continue 'outer;
            }
        }
        keep.push(i);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_ast::parse_module;

    #[test]
    fn pairs_in_one_block_form_a_range() {
        let m = parse_module(
            "m",
            r#"
            lock locks[4];
            extern void work();
            void f(int i) {
                work();
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
                work();
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        let c = cands
            .iter()
            .find(|c| c.key == "&(locks[i])")
            .expect("candidate for &locks[i]");
        assert_eq!((c.start, c.end), (1, 3));
    }

    #[test]
    fn single_site_bubbles_to_enclosing_block() {
        // lock in an if-branch, unlock at the outer level: the inner
        // block cannot pair them, the outer one can.
        let m = parse_module(
            "m",
            r#"
            lock mu;
            void f(int c) {
                if (c) {
                    spin_lock(&mu);
                }
                spin_unlock(&mu);
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        let f_body_cands: Vec<_> = cands.iter().filter(|c| c.key == "&(mu)").collect();
        assert!(
            f_body_cands.iter().any(|c| c.start == 0 && c.end == 1),
            "outer block pairs the bubbled keys: {f_body_cands:?}"
        );
    }

    #[test]
    fn assigned_index_blocks_candidate() {
        // `i` is reassigned between the lock and unlock: &locks[i] is not
        // referentially transparent, the heuristic must not propose it.
        let m = parse_module(
            "m",
            r#"
            lock locks[4];
            void f(int i) {
                spin_lock(&locks[i]);
                i = i + 1;
                spin_unlock(&locks[i]);
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        assert!(
            cands.iter().all(|c| c.key != "&(locks[i])"),
            "reassigned free variable must block the candidate: {cands:?}"
        );
    }

    #[test]
    fn non_confinable_shapes_are_skipped() {
        let m = parse_module(
            "m",
            r#"
            extern lock *get();
            void f() {
                spin_lock(get());
                spin_unlock(get());
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        assert!(cands.is_empty(), "calls are not confinable: {cands:?}");
    }

    #[test]
    fn different_arguments_do_not_pair() {
        let m = parse_module(
            "m",
            r#"
            lock a; lock b;
            void f() {
                spin_lock(&a);
                spin_unlock(&b);
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        assert!(cands.is_empty(), "&a and &b must not pair: {cands:?}");
    }

    #[test]
    fn enclosing_scopes_are_proposed() {
        let m = parse_module(
            "m",
            r#"
            lock mu;
            void f(int c) {
                if (c) {
                    spin_lock(&mu);
                    spin_unlock(&mu);
                }
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        // Minimal: inside the if-block; enclosing: the function body.
        assert!(cands.len() >= 2, "{cands:?}");
        assert!(cands.iter().any(|c| (c.start, c.end) == (0, 1)));
        assert!(cands.iter().any(|c| (c.start, c.end) == (0, 0)));
    }

    #[test]
    fn scoped_variables_do_not_escape_their_block() {
        // `d` is declared inside the inner block; an enclosing candidate
        // at function level would have `d` out of scope.
        let m = parse_module(
            "m",
            r#"
            struct dev { lock mu; };
            struct dev devs[4];
            void f(int i) {
                {
                    struct dev *d = &devs[i];
                    spin_lock(&d->mu);
                    spin_unlock(&d->mu);
                }
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        let inner: Vec<_> = cands.iter().filter(|c| c.key == "&(d->mu)").collect();
        assert!(!inner.is_empty());
        // All candidates for &d->mu must lie in the inner block (where d
        // is visible); the function body block must not host one.
        let f = m.function("f").unwrap();
        assert!(
            inner.iter().all(|c| c.block != f.body.id),
            "candidate must not float above d's scope: {inner:?}"
        );
    }

    #[test]
    fn select_outermost_prefers_enclosing_success() {
        let m = parse_module(
            "m",
            r#"
            lock mu;
            void f(int c) {
                if (c) {
                    spin_lock(&mu);
                    spin_unlock(&mu);
                }
            }
            "#,
        )
        .unwrap();
        let cands = propose_confines(&m);
        let successes = vec![true; cands.len()];
        let f = m.function("f").unwrap();
        let enclosing = |a: &ConfineCandidate, b: &ConfineCandidate| {
            // In this test the function body encloses the if-block.
            a.block == f.body.id && b.block != f.body.id
        };
        let kept = select_outermost(&cands, &successes, &enclosing);
        assert_eq!(kept.len(), 1);
        assert_eq!(cands[kept[0]].block, f.body.id);
    }
}
