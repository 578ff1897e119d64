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
//! scope there; after constraint solving,
//! [`crate::Analysis::outermost_confines`] picks the outermost successful
//! candidate.
//!
//! Candidates are pre-filtered syntactically: the expression must have a
//! confinable shape (§6.1's identifiers/fields/dereferences restriction)
//! and no variable free in the expression may be assigned anywhere in the
//! candidate range (the register-variable complement of the effect-based
//! referential-transparency check).

use crate::outcome::ConfineSite;
use localias_alias::FxMap;
use localias_ast::{
    pretty, BlockId, Expr, ExprId, ExprKind, Module, NodeId, Stmt, StmtKind, Symbol,
};

/// A proposed `confine?` site: confine `expr` around statements
/// `start..=end` of `block`.
#[derive(Debug, Clone)]
pub struct ConfineCandidate<'m> {
    /// The block whose statements are covered.
    pub block: NodeId,
    /// First covered statement index.
    pub start: usize,
    /// Last covered statement index (inclusive).
    pub end: usize,
    /// The confined expression: one syntactic occurrence in the module,
    /// borrowed from the analysed module itself (its children are ids
    /// into that module's arrays). The analysis panics on an
    /// expression the module does not own ([`Module::owns_expr`]).
    pub expr: &'m Expr,
    /// The printed expression, used as the syntactic-match key.
    pub key: String,
}

impl ConfineCandidate<'_> {
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
fn each_expr<'m>(m: &'m Module, e: &'m Expr, f: &mut impl FnMut(&'m Expr)) {
    f(e);
    match e.kind {
        ExprKind::Int(_) | ExprKind::Var(_) => {}
        ExprKind::Unary(_, a)
        | ExprKind::New(a)
        | ExprKind::Cast(_, a)
        | ExprKind::Field(a, _)
        | ExprKind::Arrow(a, _) => each_expr(m, m.expr(a), f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
            each_expr(m, m.expr(a), f);
            each_expr(m, m.expr(b), f);
        }
        ExprKind::Call(_, args) => {
            for a in m.args(args) {
                each_expr(m, a, f);
            }
        }
    }
}

/// The expressions a statement evaluates itself, not those of its
/// nested blocks.
fn own_exprs(s: &Stmt) -> [Option<ExprId>; 2] {
    match s.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => [Some(e), None],
        StmtKind::Decl { init, .. } => [init, None],
        StmtKind::If { cond, .. } => [Some(cond), None],
        StmtKind::While { cond, step, .. } => [Some(cond), step],
        StmtKind::Restrict { init, .. } => [Some(init), None],
        StmtKind::Confine { expr, .. } => [Some(expr), None],
        StmtKind::Return(None) | StmtKind::Block(_) | StmtKind::Break | StmtKind::Continue => {
            [None, None]
        }
    }
}

/// Pushes the free variable names of `e` onto `out`, each once.
fn free_vars(m: &Module, e: &Expr, out: &mut Vec<Symbol>) {
    each_expr(m, e, &mut |e| {
        if let ExprKind::Var(x) = e.kind {
            if !out.contains(&x.name) {
                out.push(x.name);
            }
        }
    });
}

/// Pushes the names assigned (as whole variables) anywhere within a
/// statement onto `out`, skipping names already in `out[run..]`.
fn assigned_vars(m: &Module, s: &Stmt, out: &mut Vec<Symbol>, run: usize) {
    for e in own_exprs(s).into_iter().flatten() {
        each_expr(m, m.expr(e), &mut |e| {
            if let ExprKind::Assign(lhs, _) = e.kind {
                if let ExprKind::Var(x) = m.expr(lhs).kind {
                    if !out[run..].contains(&x.name) {
                        out.push(x.name);
                    }
                }
            }
        });
    }
    for b in s.kind.blocks() {
        for s in m.stmts(b) {
            assigned_vars(m, s, out, run);
        }
    }
}

/// Adds the confinable-shaped `change_type` arguments called *directly*
/// in this statement's own expressions to `keys`, *not* descending into
/// nested blocks (those report through their own scan). An explicit
/// confine already handles its own expression.
fn direct_change_type_args<'m>(m: &'m Module, s: &'m Stmt, keys: &mut Vec<&'m Expr>, run: usize) {
    if matches!(s.kind, StmtKind::Confine { .. }) {
        return;
    }
    for e in own_exprs(s).into_iter().flatten() {
        each_expr(m, m.expr(e), &mut |e| {
            if let ExprKind::Call(f, args) = e.kind {
                if f.name.is_change_type() {
                    for a in m.args(args) {
                        if a.is_confinable_shape(m) {
                            add_key(m, keys, run, a);
                        }
                    }
                }
            }
        });
    }
}

/// Adds `e` to the run `keys[run..]` unless a syntactically equal
/// expression is already there; the first occurrence stays the group's
/// example.
fn add_key<'m>(m: &Module, keys: &mut Vec<&'m Expr>, run: usize, e: &'m Expr) {
    if !keys[run..].iter().any(|k| k.syntactically_equal(m, e)) {
        keys.push(e);
    }
}

/// Marks the end of a chain in [`Scan`]'s `bindings` and `next_at_site`.
const NONE: u32 = u32::MAX;

/// One name binding in scope.
struct Binding {
    name: Symbol,
    /// Nesting depth: 0 for globals and parameters, 1 for a function body.
    depth: usize,
    /// Index of the binding statement in its block.
    idx: usize,
    /// The binding of the same name this one hides, or [`NONE`].
    shadows: u32,
}

/// One statement of a block being scanned: where its runs end in
/// [`Scan`]'s `assigned` and `keys` stacks (each run starts where the
/// previous statement's ended).
#[derive(Clone, Copy)]
struct StmtRuns {
    assigned_end: usize,
    keys_end: usize,
}

/// A statement enclosing the current position.
#[derive(Clone, Copy)]
struct Ancestor {
    block: NodeId,
    idx: usize,
    /// The statement's run in [`Scan`]'s `assigned` stack.
    assigned: (usize, usize),
}

/// One syntactic match group of a block's `change_type` arguments.
#[derive(Clone, Copy)]
struct Group<'m> {
    example: &'m Expr,
    /// Statements holding the group (at most one key each).
    count: usize,
    first: usize,
    last: usize,
    /// Its printed key in [`Scan`]'s `texts`, once printed.
    text: (usize, usize),
}

/// The scan's state. Every block pushes its statements' data onto flat
/// stacks and truncates them when it is done, so the scan allocates only
/// while a stack grows past its deepest use so far. Names and example
/// expressions are borrowed from the module; a key is printed once per
/// group that spans two or more statements.
struct Scan<'m> {
    m: &'m Module,
    /// Also propose per-occurrence singletons and disjoint adjacent pairs
    /// (the paper's *general* strategy, approximated with a bounded
    /// candidate set), not just the min–max heuristic range.
    general: bool,
    out: Vec<ConfineCandidate<'m>>,
    /// The innermost binding in scope of each name, indexed by name, as
    /// an index into `bindings` ([`NONE`] for none).
    env: Vec<u32>,
    /// Every binding in scope, innermost last.
    bindings: Vec<Binding>,
    /// The statements enclosing the current position, outermost first.
    ancestors: Vec<Ancestor>,
    /// Names assigned anywhere within each statement of the blocks being
    /// scanned, one run per statement.
    assigned: Vec<Symbol>,
    /// The `change_type` arguments of each statement of the blocks being
    /// scanned (direct, then bubbled up from nested blocks), one run per
    /// statement, one example per syntactic match group.
    keys: Vec<&'m Expr>,
    /// The statements of the blocks being scanned.
    stmts: Vec<StmtRuns>,
    /// The arguments a finished block hands up to its statement.
    bubbled: Vec<&'m Expr>,
    /// The match groups of the block being grouped, and the printed keys
    /// of those spanning two or more statements. A block groups only
    /// after its nested blocks are done, so one buffer serves them all.
    groups: Vec<Group<'m>>,
    texts: String,
    /// The free variables of the group proposing candidates.
    fv: Vec<Symbol>,
    /// The latest candidate at each `(block, start, end)` site; earlier
    /// ones at the same site chain through `next_at_site`.
    seen: FxMap<(NodeId, usize, usize), u32>,
    next_at_site: Vec<u32>,
}

impl<'m> Scan<'m> {
    fn push_candidate(
        &mut self,
        block: NodeId,
        start: usize,
        end: usize,
        key: &str,
        expr: &'m Expr,
    ) {
        let site = (block, start, end);
        let latest = self.seen.get(&site).copied().unwrap_or(NONE);
        let mut at = latest;
        while at != NONE {
            if self.out[at as usize].key == key {
                return;
            }
            at = self.next_at_site[at as usize];
        }
        self.seen.insert(site, self.out.len() as u32);
        self.next_at_site.push(latest);
        self.out.push(ConfineCandidate {
            block,
            start,
            end,
            expr,
            key: key.to_string(),
        });
    }

    fn bind(&mut self, name: Symbol, depth: usize, idx: usize) {
        let ix = self.bindings.len() as u32;
        let shadows = std::mem::replace(&mut self.env[name.index()], ix);
        self.bindings.push(Binding {
            name,
            depth,
            idx,
            shadows,
        });
    }

    /// Drops every binding made since `bindings` had `mark` entries.
    fn unbind_to(&mut self, mark: usize) {
        while self.bindings.len() > mark {
            let b = self.bindings.pop().expect("above the mark");
            self.env[b.name.index()] = b.shadows;
        }
    }

    /// Is `name` visible just before statement `idx` at nesting `depth`
    /// (i.e. bound in a strictly enclosing scope, or earlier in the same
    /// block)?
    fn visible_before(&self, name: Symbol, depth: usize, idx: usize) -> bool {
        let mut at = self.env[name.index()];
        while at != NONE {
            let b = &self.bindings[at as usize];
            if b.depth < depth || (b.depth == depth && b.idx < idx) {
                return true;
            }
            at = b.shadows;
        }
        false
    }

    /// Scans a block at nesting `depth` (function body = 1), leaving the
    /// `change_type` arguments that remain *unconsumed* on `bubbled`, one
    /// example expression per syntactic match group.
    fn block(&mut self, b: BlockId, depth: usize) {
        let m = self.m;
        let (b, stmts) = (m.block(b), m.stmts(b));
        let mark = self.bindings.len();
        let (assigned_base, keys_base, stmts_base) =
            (self.assigned.len(), self.keys.len(), self.stmts.len());

        // First pass: per-statement keys (direct + bubbled from nested
        // blocks) and assigned names; the scoped env evolves in place.
        for (i, s) in stmts.clone().enumerate() {
            let assigned_start = self.assigned.len();
            assigned_vars(m, s, &mut self.assigned, assigned_start);
            let assigned_end = self.assigned.len();
            let keys_start = self.keys.len();
            direct_change_type_args(m, s, &mut self.keys, keys_start);

            // Recurse into nested blocks with ancestry bookkeeping. A
            // scoped-restrict binder is visible inside its own body only.
            self.ancestors.push(Ancestor {
                block: b.id,
                idx: i,
                assigned: (assigned_start, assigned_end),
            });
            let inner_mark = self.bindings.len();
            if let StmtKind::Restrict { name, .. } = s.kind {
                self.bind(name.name, depth + 1, 0);
            }
            for child in s.kind.blocks() {
                let from = self.bubbled.len();
                self.block(child, depth + 1);
                for j in from..self.bubbled.len() {
                    let e = self.bubbled[j];
                    add_key(m, &mut self.keys, keys_start, e);
                }
                self.bubbled.truncate(from);
            }
            self.unbind_to(inner_mark);
            self.ancestors.pop();

            if let StmtKind::Decl { name, .. } = s.kind {
                self.bind(name.name, depth, i);
            }
            self.stmts.push(StmtRuns {
                assigned_end,
                keys_end: self.keys.len(),
            });
        }

        // Second pass: group this block's statements by syntactic match.
        // (All of this block's declarations are in the env with their
        // statement index, so visibility at a range start is a lookup.)
        self.groups.clear();
        let mut from = keys_base;
        for i in 0..stmts.len() {
            let to = self.stmts[stmts_base + i].keys_end;
            for &k in &self.keys[from..to] {
                match self
                    .groups
                    .iter_mut()
                    .find(|g| g.example.syntactically_equal(m, k))
                {
                    Some(g) => {
                        g.count += 1;
                        g.last = i;
                    }
                    None => self.groups.push(Group {
                        example: k,
                        count: 1,
                        first: i,
                        last: i,
                        text: (0, 0),
                    }),
                }
            }
            from = to;
        }

        // A group held by one statement bubbles up. The others propose
        // ranges in the order of their printed keys, each printed once.
        let mut texts = std::mem::take(&mut self.texts);
        texts.clear();
        let mut keyed = 0;
        for gi in 0..self.groups.len() {
            let g = self.groups[gi];
            if g.count < 2 {
                self.bubbled.push(g.example);
            } else {
                let at = texts.len();
                pretty::write_expr(&mut texts, m, g.example);
                self.groups[keyed] = Group {
                    text: (at, texts.len()),
                    ..g
                };
                keyed += 1;
            }
        }
        self.groups.truncate(keyed);
        self.groups
            .sort_unstable_by(|a, b| texts[a.text.0..a.text.1].cmp(&texts[b.text.0..b.text.1]));
        let mut fv = std::mem::take(&mut self.fv);
        for gi in 0..self.groups.len() {
            let g = self.groups[gi];
            let k = &texts[g.text.0..g.text.1];
            let (start, end, example) = (g.first, g.last, g.example);

            // Syntactic referential-transparency pre-filter: no free
            // variable of the expression may be assigned in the range.
            fv.clear();
            free_vars(m, example, &mut fv);
            let range_ok = |this: &Self, lo: usize, hi: usize| {
                let from = match lo {
                    0 => assigned_base,
                    _ => this.stmts[stmts_base + lo - 1].assigned_end,
                };
                let to = this.stmts[stmts_base + hi].assigned_end;
                !this.assigned[from..to].iter().any(|v| fv.contains(v))
            };
            if !range_ok(self, start, end) {
                // The general strategy may still find safe sub-ranges.
                if self.general {
                    for si in self.group_stmts(keys_base, stmts_base, example) {
                        if range_ok(self, si, si)
                            && fv.iter().all(|&v| self.visible_before(v, depth, si))
                        {
                            self.push_candidate(b.id, si, si, k, example);
                        }
                    }
                }
                continue;
            }
            // Free variables must be visible at the range start.
            if !fv.iter().all(|&v| self.visible_before(v, depth, start)) {
                continue;
            }

            self.push_candidate(b.id, start, end, k, example);

            if self.general {
                // Per-occurrence singletons and disjoint adjacent pairs —
                // if the full range fails to verify, a sub-region may
                // still succeed (the paper's greedy merge applied to a
                // bounded candidate ladder).
                let stmts = self.group_stmts(keys_base, stmts_base, example);
                for &si in &stmts {
                    self.push_candidate(b.id, si, si, k, example);
                }
                for pair in stmts.chunks_exact(2) {
                    let (lo, hi) = (pair[0], pair[1]);
                    if range_ok(self, lo, hi) {
                        self.push_candidate(b.id, lo, hi, k, example);
                    }
                }
            }

            // §6.2 scope inference: also propose at every enclosing
            // block, outermost kept if it succeeds. Ancestor depth in the
            // stack is its index + 1 (function body = 1).
            for depth_ix in (0..self.ancestors.len()).rev() {
                let a = self.ancestors[depth_ix];
                if !fv
                    .iter()
                    .all(|&v| self.visible_before(v, depth_ix + 1, a.idx))
                {
                    break; // further out, still fewer names visible
                }
                let (from, to) = a.assigned;
                if self.assigned[from..to].iter().any(|v| fv.contains(v)) {
                    break; // the enclosing statement assigns a free var
                }
                self.push_candidate(a.block, a.idx, a.idx, k, example);
            }
        }
        self.fv = fv;
        self.texts = texts;
        self.unbind_to(mark);
        self.assigned.truncate(assigned_base);
        self.keys.truncate(keys_base);
        self.stmts.truncate(stmts_base);
    }

    /// The statements of the block being grouped (its runs start at
    /// `keys_base` and `stmts_base`) that hold `example`'s group, in order.
    fn group_stmts(&self, keys_base: usize, stmts_base: usize, example: &Expr) -> Vec<usize> {
        let mut from = keys_base;
        let mut out = Vec::new();
        for (i, s) in self.stmts[stmts_base..].iter().enumerate() {
            if self.keys[from..s.keys_end]
                .iter()
                .any(|k| k.syntactically_equal(self.m, example))
            {
                out.push(i);
            }
            from = s.keys_end;
        }
        out
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
pub fn propose_confines(m: &Module) -> Vec<ConfineCandidate<'_>> {
    propose_with(m, false)
}

/// Proposes candidates with the paper's *general* §7 strategy
/// (approximated): in addition to the heuristic's min–max ranges, every
/// statement containing an occurrence gets a singleton candidate and
/// consecutive occurrences get disjoint pair candidates. After solving,
/// greedily keeping the outermost/largest successes reconstructs the
/// merged sub-blocks ("adjacent confines of the same expression can be
/// combined").
pub fn propose_confines_general(m: &Module) -> Vec<ConfineCandidate<'_>> {
    propose_with(m, true)
}

fn propose_with(m: &Module, general: bool) -> Vec<ConfineCandidate<'_>> {
    let mut scan = Scan {
        m,
        general,
        out: Vec::new(),
        env: vec![NONE; m.names().len()],
        // Room for the globals and a function's parameters and locals.
        bindings: Vec::with_capacity(m.globals().count() + 32),
        ancestors: Vec::new(),
        assigned: Vec::new(),
        keys: Vec::new(),
        stmts: Vec::new(),
        bubbled: Vec::new(),
        groups: Vec::new(),
        texts: String::new(),
        fv: Vec::new(),
        seen: FxMap::default(),
        next_at_site: Vec::new(),
    };
    for g in m.globals() {
        scan.bind(g.name.name, 0, 0);
    }
    let globals = scan.bindings.len();
    for f in m.functions() {
        for p in m.params(f.params) {
            scan.bind(p.name.name, 0, 0);
        }
        scan.block(f.body, 1);
        scan.bubbled.clear();
        scan.unbind_to(globals);
    }
    scan.out
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
            inner.iter().all(|c| c.block != m.block(f.body).id),
            "candidate must not float above d's scope: {inner:?}"
        );
    }
}
