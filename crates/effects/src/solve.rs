//! Solving effect constraint systems: least solutions, the Figure 5
//! `CHECK-SAT` reachability query, conditional-constraint fixpoints, and
//! verification of checked disinclusions.
//!
//! ## Least solutions
//!
//! A solution maps every effect variable to a set of kinded atoms such
//! that all inclusions hold. Least solutions exist (the system is
//! monotone). A module has few abstract locations (about twenty; a few
//! hundred on the largest), so each node's set is held as one bitset over
//! location indices per effect kind, and propagating a whole set along an
//! edge is a few word ORs. The initial solution visits the constraint
//! graph's strongly connected components once, in topological order: a
//! node on no cycle forwards its finished set along each out-edge exactly
//! once, and a cycle iterates over its own nodes until it is stable.
//!
//! An intersection node passes an atom `K(ρ)` only once `ρ` has arrived
//! on *both* of its inputs — the role played by the arrival counter in
//! the paper's Figure 5. It keeps its left input per kind and its right
//! input as one location set; its own set is their word-wise AND.
//!
//! ## Conditional constraints (§5, §6)
//!
//! Inference introduces one-shot conditionals `guard ⇒ action` whose
//! actions may unify locations and add inclusions. [`solve`] iterates:
//! fire every newly-true guard in index order, propagating each fired
//! action to the new least solution before the next guard is evaluated,
//! and repeat. Each round fires at least one guard or terminates, and
//! guards never "unfire" (solutions only grow, locations only merge), so
//! the loop runs at most `#conditionals + 1` rounds — this is the
//! worklist the paper charges `O(n)` re-computation per fired constraint
//! to, giving the overall `O(n²)` inference bound.

use crate::constraint::{ConstraintSystem, Guard};
use crate::effect::{EffVar, Effect, EffectKind, KindMask};
use crate::graph::{build, Graph, NodeIx, NodeKind, Out, Port};
use localias_alias::{Loc, LocTable};
use localias_obs as obs;

pub use localias_alias::{FxHasher, FxMap};

/// Number of effect kinds; kind `k` is bit `1 << k` of a [`KindMask`].
const KINDS: usize = 4;

fn kind_index(kind: EffectKind) -> usize {
    kind.mask().0.trailing_zeros() as usize
}

/// Per-node atom sets: for every node, one bitset over location indices
/// per effect kind, `w` words each.
///
/// Node `n`'s kind-`k` set is `words[(n * KINDS + k) * w..][..w]`.
#[derive(Debug, Default)]
struct Sets {
    w: usize,
    words: Vec<u64>,
}

impl Sets {
    /// Word `i` of the union of `node`'s sets for the kinds in `kinds`.
    #[inline]
    fn word(&self, node: NodeIx, kinds: KindMask, i: usize) -> u64 {
        let base = node as usize * KINDS * self.w + i;
        (0..KINDS)
            .filter(|&k| kinds.0 & (1 << k) != 0)
            .fold(0, |acc, k| acc | self.words[base + k * self.w])
    }

    /// The kinds under which location index `loc` is in `node`'s set.
    #[inline]
    fn mask_at(&self, node: NodeIx, loc: usize) -> KindMask {
        let (i, bit) = (loc / 64, loc % 64);
        if i >= self.w {
            return KindMask::EMPTY;
        }
        let base = node as usize * KINDS * self.w + i;
        KindMask((0..KINDS).fold(0, |acc, k| {
            acc | ((((self.words[base + k * self.w] >> bit) & 1) as u8) << k)
        }))
    }

    /// `node`'s atoms in location-index order.
    fn iter(&self, node: NodeIx) -> impl Iterator<Item = (Loc, KindMask)> + '_ {
        (0..self.w).flat_map(move |i| {
            let mut rest = self.word(node, KindMask::ALL, i);
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let loc = i * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((Loc(loc as u32), self.mask_at(node, loc)))
            })
        })
    }
}

/// The propagation state: every node's [`Sets`] entry, plus the inputs of
/// intersection nodes.
#[derive(Debug)]
struct Store {
    sets: Sets,
    /// Offset in `gates` of each node's inputs, [`NO_GATE`] for plain
    /// nodes.
    gate_of: Vec<u32>,
    /// An intersection node's `KINDS` left-input bitsets, then its
    /// right-input bitset (any kind), `w` words each.
    gates: Vec<u64>,
}

const NO_GATE: u32 = u32::MAX;

impl Store {
    fn new(w: usize) -> Self {
        Store {
            sets: Sets {
                w,
                words: Vec::new(),
            },
            gate_of: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Extends the store with empty sets for nodes `graph` added since,
    /// growing each array once.
    fn grow(&mut self, graph: &Graph) {
        let w = self.sets.w;
        let mut gates = self.gates.len();
        self.gate_of
            .reserve(graph.node_count() - self.gate_of.len());
        for n in self.gate_of.len()..graph.node_count() {
            let gate = match graph.kinds[n] {
                NodeKind::Plain => NO_GATE,
                NodeKind::Inter => {
                    let at = u32::try_from(gates).expect("gate offsets fit in u32");
                    gates += (KINDS + 1) * w;
                    at
                }
            };
            self.gate_of.push(gate);
        }
        self.gates.resize(gates, 0);
        self.sets.words.resize(self.gate_of.len() * KINDS * w, 0);
    }

    /// Adds atom `kind(loc)` to `node`'s input on `port`; `true` if the
    /// node's own set grew.
    fn seed(&mut self, node: NodeIx, port: Port, loc: usize, kind: EffectKind) -> bool {
        let w = self.sets.w;
        let (i, bit) = (loc / 64, 1u64 << (loc % 64));
        let n = node as usize;
        let word = match port {
            Port::Normal => &mut self.sets.words[(n * KINDS + kind_index(kind)) * w + i],
            Port::Left => &mut self.gates[self.gate_of[n] as usize + kind_index(kind) * w + i],
            Port::Right => &mut self.gates[self.gate_of[n] as usize + KINDS * w + i],
        };
        let grew = *word & bit == 0;
        *word |= bit;
        match port {
            Port::Normal => grew,
            Port::Left | Port::Right => grew && self.regate(n),
        }
    }

    /// Unions `from`'s set into `to`'s input on `port` — one delivery —
    /// and returns `true` if `to`'s own set grew.
    #[inline]
    fn flow(&mut self, from: NodeIx, to: NodeIx, port: Port) -> bool {
        let w = self.sets.w;
        let span = KINDS * w;
        let (f, t) = (from as usize * span, to as usize * span);
        let words = &mut self.sets.words;
        let mut grew = 0;
        match port {
            Port::Normal => {
                for i in 0..span {
                    let new = words[f + i] & !words[t + i];
                    words[t + i] |= new;
                    grew |= new;
                }
                grew != 0
            }
            Port::Left => {
                let g = self.gate_of[to as usize] as usize;
                for i in 0..span {
                    let new = words[f + i] & !self.gates[g + i];
                    self.gates[g + i] |= new;
                    grew |= new;
                }
                grew != 0 && self.regate(to as usize)
            }
            Port::Right => {
                let r = self.gate_of[to as usize] as usize + span;
                for i in 0..w {
                    let any = (0..KINDS).fold(0, |acc, k| acc | words[f + k * w + i]);
                    let new = any & !self.gates[r + i];
                    self.gates[r + i] |= new;
                    grew |= new;
                }
                grew != 0 && self.regate(to as usize)
            }
        }
    }

    /// Re-applies intersection node `n`'s gate: each kind's set gains
    /// `left[k] & right`. Returns `true` if the node's set grew.
    fn regate(&mut self, n: usize) -> bool {
        let w = self.sets.w;
        let g = self.gate_of[n] as usize;
        let (t, r) = (n * KINDS * w, g + KINDS * w);
        let mut grew = 0;
        for i in 0..KINDS * w {
            let new = self.gates[g + i] & self.gates[r + i % w] & !self.sets.words[t + i];
            self.sets.words[t + i] |= new;
            grew |= new;
        }
        grew != 0
    }

    /// Re-keys every set after location `loser`'s class merged into
    /// `winner`'s, queueing each intersection node whose set the merge
    /// made grow.
    ///
    /// Moving a bit keeps every plain inclusion satisfied, so only gates
    /// need re-checking: the merge may newly align a left-side atom with
    /// a right-side presence.
    fn merge(&mut self, winner: usize, loser: usize, work: &mut Worklist) {
        let w = self.sets.w;
        let (wi, wbit) = (winner / 64, 1u64 << (winner % 64));
        let (li, lbit) = (loser / 64, 1u64 << (loser % 64));
        let rekey = |words: &mut [u64], base: usize| {
            if words[base + li] & lbit != 0 {
                words[base + li] &= !lbit;
                words[base + wi] |= wbit;
            }
        };
        for n in 0..self.gate_of.len() {
            for k in 0..KINDS {
                rekey(&mut self.sets.words, (n * KINDS + k) * w);
            }
            let g = self.gate_of[n];
            if g != NO_GATE {
                for k in 0..=KINDS {
                    rekey(&mut self.gates, g as usize + k * w);
                }
                if self.regate(n) {
                    work.push(n as NodeIx);
                }
            }
        }
    }

    /// Drains `work` to a fixpoint, returning the number of deliveries.
    fn drain(&mut self, graph: &Graph, work: &mut Worklist) -> u64 {
        let mut unions = 0;
        while let Some(n) = work.pop() {
            for (to, port) in graph.out(n) {
                unions += 1;
                if self.flow(n, to, port) {
                    work.push(to);
                }
            }
        }
        unions
    }

    /// Propagates the seeded atoms to the least solution, visiting
    /// `graph`'s strongly connected components once in topological order,
    /// and returns the number of deliveries. `work` must be empty.
    fn propagate(&mut self, graph: &Graph, work: &mut Worklist) -> u64 {
        let Sccs { order, comp } = Sccs::of(graph);
        let mut unions = 0;
        // `order` lists components sinks first, so walk it backwards.
        let mut end = order.len();
        while end > 0 {
            let c = comp[order[end - 1] as usize];
            let mut start = end - 1;
            while start > 0 && comp[order[start - 1] as usize] == c {
                start -= 1;
            }
            let members = &order[start..end];
            if let [n] = *members {
                // Every input of `n` is final. A singleton's only
                // possible cycle is a plain `ε ⊆ ε` self-edge (an
                // intersection node's inputs are created before it), and
                // that union adds nothing.
                for (to, port) in graph.out(n) {
                    unions += 1;
                    self.flow(n, to, port);
                }
            } else {
                for &n in members {
                    work.push(n);
                }
                while let Some(n) = work.pop() {
                    for (to, port) in graph.out(n) {
                        if comp[to as usize] == c {
                            unions += 1;
                            if self.flow(n, to, port) {
                                work.push(to);
                            }
                        }
                    }
                }
                for &n in members {
                    for (to, port) in graph.out(n) {
                        if comp[to as usize] != c {
                            unions += 1;
                            self.flow(n, to, port);
                        }
                    }
                }
            }
            end = start;
        }
        unions
    }

    /// Evaluates a conditional's guard against the current sets.
    fn holds(&self, guard: &Guard, locs: &mut LocTable, graph: &Graph) -> bool {
        let node = |v: EffVar| graph.var_node_readonly(v);
        let sets = &self.sets;
        match guard {
            Guard::LocIn { loc, kinds, var } => {
                let l = locs.find(*loc);
                node(*var).is_some_and(|n| sets.mask_at(n, l.index()).overlaps(*kinds))
            }
            Guard::AnyKind { var, kinds } => {
                node(*var).is_some_and(|n| (0..sets.w).any(|i| sets.word(n, *kinds, i) != 0))
            }
            Guard::Overlap {
                left,
                left_kinds,
                right,
                right_kinds,
            } => match (node(*left), node(*right)) {
                (Some(a), Some(b)) => (0..sets.w)
                    .any(|i| sets.word(a, *left_kinds, i) & sets.word(b, *right_kinds, i) != 0),
                _ => false,
            },
        }
    }
}

/// A LIFO node worklist with an in-queue flag per node.
#[derive(Debug, Default)]
struct Worklist {
    stack: Vec<NodeIx>,
    queued: Vec<bool>,
}

impl Worklist {
    fn grow(&mut self, nodes: usize) {
        if nodes > self.queued.len() {
            self.queued.resize(nodes, false);
        }
    }

    fn push(&mut self, n: NodeIx) {
        let queued = &mut self.queued[n as usize];
        if !*queued {
            *queued = true;
            self.stack.push(n);
        }
    }

    fn pop(&mut self) -> Option<NodeIx> {
        let n = self.stack.pop()?;
        self.queued[n as usize] = false;
        Some(n)
    }
}

/// A graph's strongly connected components, from an iterative Tarjan
/// search.
struct Sccs {
    /// Every node, grouped by component; components appear in reverse
    /// topological order (Tarjan closes a component only after every
    /// component it reaches).
    order: Vec<NodeIx>,
    /// Each node's component, numbered in `order`'s order.
    comp: Vec<u32>,
}

impl Sccs {
    fn of(graph: &Graph) -> Sccs {
        const UNSEEN: u32 = u32::MAX;
        let n = graph.node_count();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut comp = vec![UNSEEN; n];
        let mut order = Vec::with_capacity(n);
        // The Tarjan stack, and the DFS stack of (node, cursor over its
        // remaining out-edges); neither holds more than every node.
        let mut stack: Vec<NodeIx> = Vec::with_capacity(n);
        let mut calls: Vec<(NodeIx, Out)> = Vec::with_capacity(n);
        let (mut next, mut comps) = (0u32, 0u32);
        for root in 0..n as NodeIx {
            if index[root as usize] != UNSEEN {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v as usize] = next;
                    low[v as usize] = next;
                    next += 1;
                    stack.push(v);
                    calls.push((v, graph.out(v)));
                }
                let Some((v, edges)) = calls.last_mut() else {
                    break;
                };
                let v = *v as usize;
                if let Some((to, _)) = edges.next() {
                    if index[to as usize] == UNSEEN {
                        enter = Some(to);
                    } else if comp[to as usize] == UNSEEN {
                        low[v] = low[v].min(index[to as usize]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _)) = calls.last() {
                    low[parent as usize] = low[parent as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let x = stack.pop().expect("v is on the Tarjan stack");
                        comp[x as usize] = comps;
                        order.push(x);
                        if x as usize == v {
                            break;
                        }
                    }
                    comps += 1;
                }
            }
        }
        Sccs { order, comp }
    }
}

/// The result of [`solve`].
#[derive(Debug)]
pub struct Solution {
    /// Final per-node sets.
    sets: Sets,
    /// Node of each effect variable, indexed by variable.
    var_node: Vec<Option<NodeIx>>,
    /// Flag values set by fired conditionals.
    flags: Vec<bool>,
    /// Violated disinclusion checks.
    violations: Vec<Violation>,
    /// How many solver rounds ran.
    pub rounds: usize,
    /// How many conditional constraints fired.
    pub fired: usize,
}

/// A violated `ρ ∉ ε` check.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The caller's tag from [`ConstraintSystem::check_not_in`].
    pub tag: u32,
    /// The offending (canonical) location.
    pub loc: Loc,
    /// The kinds under which it was found.
    pub found: KindMask,
}

impl Solution {
    fn node(&self, var: EffVar) -> Option<NodeIx> {
        self.var_node.get(var.index()).copied().flatten()
    }

    /// Is `K(ρ)` (for any `K` in `kinds`) in `var`'s least solution?
    pub fn contains(&self, locs: &LocTable, var: EffVar, loc: Loc, kinds: KindMask) -> bool {
        self.node(var).is_some_and(|n| {
            self.sets
                .mask_at(n, locs.find_const(loc).index())
                .overlaps(kinds)
        })
    }

    /// The solved atom set of `var` as sorted `(location, kinds)` pairs.
    ///
    /// Allocates; callers that only need to scan the set should prefer
    /// [`Solution::set_iter`].
    pub fn set(&self, var: EffVar) -> Vec<(Loc, KindMask)> {
        self.set_iter(var).collect()
    }

    /// Iterates `var`'s solved atom set without allocating, in location
    /// index order.
    pub fn set_iter(&self, var: EffVar) -> impl Iterator<Item = (Loc, KindMask)> + '_ {
        self.node(var)
            .into_iter()
            .flat_map(move |n| self.sets.iter(n))
    }

    /// Whether `flag` was set by a fired conditional.
    pub fn flag(&self, flag: crate::constraint::FlagId) -> bool {
        self.flags.get(flag.0 as usize).copied().unwrap_or(false)
    }

    /// The violated checks, in generation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// The registry tying abstract locations to their memoized `ε_ρ`
/// variables (`locs(τ)` memoization, paper §4).
///
/// When solving unifies two locations (a §5/§6 demotion), the two
/// locations' `ε` variables must come to denote the same set; the solver
/// achieves this by adding mutual inclusion edges between them, which
/// preserves least solutions without disturbing the already-built graph.
#[derive(Debug, Default)]
pub struct LocVars {
    map: FxMap<Loc, EffVar>,
}

impl LocVars {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LocVars::default()
    }

    /// Makes room for `n` more locations' variables.
    pub fn reserve(&mut self, n: usize) {
        self.map.reserve(n);
    }

    /// The `ε_ρ` variable for `loc`'s class, creating one (named from the
    /// location) on first use. Pass the canonical representative.
    pub fn var_for(&mut self, cs: &mut ConstraintSystem, canonical: Loc) -> EffVar {
        match self.map.get(&canonical) {
            Some(&v) => v,
            None => {
                let v = cs.fresh_var();
                self.map.insert(canonical, v);
                v
            }
        }
    }

    /// The variable for `loc`'s class if one exists.
    pub fn get(&self, canonical: Loc) -> Option<EffVar> {
        self.map.get(&canonical).copied()
    }

    /// All `(location, variable)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, EffVar)> + '_ {
        self.map.iter().map(|(&l, &v)| (l, v))
    }

    /// Reconciles the registry after `loser`'s class merged into
    /// `winner`'s, returning inclusions the caller must add so both
    /// variables denote the same set.
    pub fn merge(&mut self, winner: Loc, loser: Loc) -> Vec<(Effect, EffVar)> {
        match (
            self.map.get(&winner).copied(),
            self.map.get(&loser).copied(),
        ) {
            (Some(a), Some(b)) if a != b => {
                vec![(Effect::var(a), b), (Effect::var(b), a)]
            }
            (Some(_), Some(_)) => Vec::new(),
            (Some(a), None) => {
                self.map.insert(loser, a);
                Vec::new()
            }
            (None, Some(b)) => {
                self.map.insert(winner, b);
                Vec::new()
            }
            (None, None) => Vec::new(),
        }
    }
}

/// [`solve_with`] without a location-variable registry.
pub fn solve(cs: &mut ConstraintSystem, locs: &mut LocTable) -> Solution {
    let mut loc_vars = LocVars::new();
    solve_with(cs, locs, &mut loc_vars)
}

/// Computes the least solution of `cs`'s constraints, fires conditional
/// constraints to fixpoint (mutating `locs` as demotions unify
/// locations), and verifies all checked disinclusions.
///
/// `loc_vars` keeps the memoized per-location `ε_ρ` variables coherent
/// across mid-solve location unifications.
pub fn solve_with(
    cs: &mut ConstraintSystem,
    locs: &mut LocTable,
    loc_vars: &mut LocVars,
) -> Solution {
    let mut graph = build(cs);
    let mut fired = vec![false; cs.conditionals.len()];
    let mut flags = vec![false; cs.flag_count() as usize];
    let mut rounds = 0;

    // Merges that happened before solving are the caller's to handle;
    // drop them so we only react to our own.
    let _ = locs.take_merges();

    // Actions unify existing locations but never allocate one, so the
    // bitset width is fixed for the whole solve.
    let loc_count = locs.len();
    let mut store = Store::new(loc_count.div_ceil(64));
    let mut work = Worklist::default();
    store.grow(&graph);
    work.grow(graph.node_count());
    for &(atom, node, port) in &graph.atoms {
        let l = locs.find(atom.loc);
        store.seed(node, port, l.index(), atom.kind);
    }
    let mut unions = store.propagate(&graph, &mut work);

    // Later rounds extend the same state *incrementally* — the paper's
    // O(n) work per fired conditional rather than a full re-propagation.
    loop {
        rounds += 1;

        let mut any = false;
        // Indexed loop: the body mutates `cs` (adding constraints), so an
        // iterator over `cs.conditionals` cannot be held across it.
        #[allow(clippy::needless_range_loop)]
        for i in 0..cs.conditionals.len() {
            if fired[i] || !store.holds(&cs.conditionals[i].guard, locs, &graph) {
                continue;
            }
            fired[i] = true;
            any = true;
            let mark = graph.mark();
            apply_action(i, cs, locs, &mut graph, &mut flags);
            assert_eq!(
                locs.len(),
                loc_count,
                "a conditional action allocated a location mid-solve"
            );
            for (winner, loser) in locs.take_merges() {
                for (l, v) in loc_vars.merge(winner, loser) {
                    graph.include(&l, v);
                    cs.includes.push((l, v));
                }
                store.merge(winner.index(), loser.index(), &mut work);
            }
            // Seed whatever the action added to the graph.
            store.grow(&graph);
            work.grow(graph.node_count());
            for &(atom, node, port) in graph.atoms_since(mark) {
                let l = locs.find(atom.loc);
                if store.seed(node, port, l.index(), atom.kind) {
                    work.push(node);
                }
            }
            for (from, to, port) in graph.edges_since(mark) {
                unions += 1;
                if store.flow(from, to, port) {
                    work.push(to);
                }
            }
            unions += store.drain(&graph, &mut work);
        }
        if !any {
            break;
        }
    }

    // Verify the checked disinclusions against the final least solution.
    let mut violations = Vec::new();
    for check in &cs.not_ins {
        if let Some(node) = graph.var_node_readonly(check.var) {
            let l = locs.find(check.loc);
            let found = store.sets.mask_at(node, l.index()).inter(check.kinds);
            if !found.is_empty() {
                violations.push(Violation {
                    tag: check.tag,
                    loc: l,
                    found,
                });
            }
        }
    }

    let fired = fired.iter().filter(|f| **f).count();
    obs::count(obs::Counter::DeliverOps, unions);
    obs::count(obs::Counter::SolveRounds, rounds as u64);
    obs::count(obs::Counter::ConditionalsFired, fired as u64);
    Solution {
        sets: store.sets,
        var_node: graph.into_var_nodes(),
        flags,
        violations,
        rounds,
        fired,
    }
}

/// Applies conditional `i`'s action in place: nothing of it is copied
/// but the inclusions it appends to `cs.includes`.
fn apply_action(
    i: usize,
    cs: &mut ConstraintSystem,
    locs: &mut LocTable,
    graph: &mut Graph,
    flags: &mut Vec<bool>,
) {
    for &(a, b) in cs.action_unify(i) {
        // Unify the classes and their contents; mismatches here mean the
        // program was already ill-typed and have been reported elsewhere.
        let mut mismatches = Vec::new();
        localias_alias::unify(
            locs,
            &localias_alias::Ty::Ref(a),
            &localias_alias::Ty::Ref(b),
            &mut mismatches,
        );
    }
    let (start, end) = cs.conditionals[i].include;
    for j in start as usize..end as usize {
        let (l, v) = &cs.action_include[j];
        graph.include(l, *v);
        cs.includes.push((l.clone(), *v));
    }
    for f in cs.action_flags(i) {
        if f.0 as usize >= flags.len() {
            flags.resize(f.0 as usize + 1, false);
        }
        flags[f.0 as usize] = true;
    }
}

/// The Figure 5 `CHECK-SAT` query: does `K(ρ)` (for any `K` in `kinds`)
/// reach `var` in the least solution?
///
/// This runs a *single-location* search — `O(n)` per query, so `k`
/// annotations cost `O(kn)` in total, the paper's §4 bound. Nothing in
/// `localias-core` calls it: `check` computes the full least solution.
/// It is the Figure 5 query the `solver` bench's ablation times and the
/// solver tests check against full propagation. It answers identically to
/// full propagation **when no intersection gate depends on other
/// locations' presence** — true by construction here, because gates test
/// presence of the *same* location on the right input.
pub fn reaches(graph: &Graph, locs: &mut LocTable, loc: Loc, kinds: KindMask, var: EffVar) -> bool {
    obs::count(obs::Counter::CheckSatQueries, 1);
    let Some(target) = graph.var_node_readonly(var) else {
        return false;
    };
    let l = locs.find(loc);

    // A one-word store in which bit 0 stands for `l`'s class: only that
    // class's atoms are seeded.
    let mut store = Store::new(1);
    let mut work = Worklist::default();
    store.grow(graph);
    work.grow(graph.node_count());
    for &(atom, node, port) in &graph.atoms {
        if locs.find(atom.loc) == l && store.seed(node, port, 0, atom.kind) {
            work.push(node);
        }
    }
    let hit = |store: &Store| store.sets.mask_at(target, 0).overlaps(kinds);

    // Node/edge work is tallied locally (plain integers on the hot path)
    // and flushed to the global counters once per query.
    let mut nodes_visited: u64 = 0;
    let mut edges_walked: u64 = 0;
    let found = 'search: {
        if hit(&store) {
            break 'search true;
        }
        while let Some(n) = work.pop() {
            nodes_visited += 1;
            for (to, port) in graph.out(n) {
                edges_walked += 1;
                if store.flow(n, to, port) {
                    if to == target && hit(&store) {
                        break 'search true;
                    }
                    work.push(to);
                }
            }
        }
        false
    };
    obs::count(obs::Counter::CheckSatNodes, nodes_visited);
    obs::count(obs::Counter::CheckSatEdges, edges_walked);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Action, FlagId};
    use crate::effect::{Effect, EffectKind};
    use localias_alias::Ty;

    fn setup() -> (ConstraintSystem, LocTable) {
        (ConstraintSystem::new(), LocTable::new())
    }

    #[test]
    fn atoms_flow_through_var_chains() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        let c = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, l), a);
        cs.include(Effect::var(a), b);
        cs.include(Effect::var(b), c);
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.contains(&locs, c, l, KindMask::READ));
        assert!(!sol.contains(&locs, c, l, KindMask::WRITE));
    }

    #[test]
    fn intersection_gates_by_location() {
        let (mut cs, mut locs) = setup();
        let l1 = locs.fresh(Ty::Int);
        let l2 = locs.fresh(Ty::Int);
        let eff = cs.fresh_var();
        let vis = cs.fresh_var();
        let out = cs.fresh_var();
        // eff = {read l1, write l2}; vis = {mention l1}; out ⊇ eff ∩ vis.
        cs.include(Effect::atom(EffectKind::Read, l1), eff);
        cs.include(Effect::atom(EffectKind::Write, l2), eff);
        cs.include(Effect::atom(EffectKind::Mention, l1), vis);
        cs.include(Effect::inter(Effect::var(eff), Effect::var(vis)), out);
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.contains(&locs, out, l1, KindMask::READ));
        assert!(
            !sol.contains(&locs, out, l2, KindMask::ALL),
            "l2 is not visible, so the Down-style mask drops it"
        );
        // Kinds pass from the left only.
        assert!(!sol.contains(&locs, out, l1, KindMask::MENTION));
    }

    #[test]
    fn cyclic_constraints_terminate() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        cs.include(Effect::var(a), b);
        cs.include(Effect::var(b), a);
        cs.include(Effect::atom(EffectKind::Write, l), a);
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.contains(&locs, a, l, KindMask::WRITE));
        assert!(sol.contains(&locs, b, l, KindMask::WRITE));
    }

    #[test]
    fn checked_disinclusion_violations() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let a = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, l), a);
        cs.check_not_in(l, KindMask::ACCESS, a, 7);
        cs.check_not_in(l, KindMask::MENTION, a, 8);
        let sol = solve(&mut cs, &mut locs);
        assert_eq!(sol.violations().len(), 1);
        assert_eq!(sol.violations()[0].tag, 7);
        assert_eq!(sol.violations()[0].found, KindMask::READ);
    }

    #[test]
    fn conditional_loc_in_fires_and_unifies() {
        let (mut cs, mut locs) = setup();
        let rho = locs.fresh(Ty::Int);
        let rho_p = locs.fresh(Ty::Int);
        let body = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, rho), body);
        let flag = cs.fresh_flag();
        cs.conditional(
            Guard::LocIn {
                loc: rho,
                kinds: KindMask::ACCESS,
                var: body,
            },
            Action {
                unify: vec![(rho, rho_p)],
                include: vec![],
                flags: vec![flag],
            },
        );
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.flag(flag), "guard must fire");
        assert!(locs.same(rho, rho_p), "demotion unifies ρ and ρ'");
        assert!(sol.rounds >= 2);
    }

    #[test]
    fn conditional_does_not_fire_when_guard_false() {
        let (mut cs, mut locs) = setup();
        let rho = locs.fresh(Ty::Int);
        let rho_p = locs.fresh(Ty::Int);
        let other = locs.fresh(Ty::Int);
        let body = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, other), body);
        let flag = cs.fresh_flag();
        cs.conditional(
            Guard::LocIn {
                loc: rho,
                kinds: KindMask::ACCESS,
                var: body,
            },
            Action {
                unify: vec![(rho, rho_p)],
                include: vec![],
                flags: vec![flag],
            },
        );
        let sol = solve(&mut cs, &mut locs);
        assert!(!sol.flag(flag));
        assert!(!locs.same(rho, rho_p));
    }

    #[test]
    fn cascading_conditionals() {
        // Firing one guard unifies locations, which makes a second guard
        // true on the next round.
        let (mut cs, mut locs) = setup();
        let a = locs.fresh(Ty::Int);
        let b = locs.fresh(Ty::Int);
        let c = locs.fresh(Ty::Int);
        let v = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Write, a), v);
        let f1 = cs.fresh_flag();
        let f2 = cs.fresh_flag();
        // write(a) ∈ v ⇒ b = a  (so write(b) ∈ v next round)
        cs.conditional(
            Guard::LocIn {
                loc: a,
                kinds: KindMask::WRITE,
                var: v,
            },
            Action {
                unify: vec![(a, b)],
                include: vec![],
                flags: vec![f1],
            },
        );
        // write(b) ∈ v ⇒ set f2 and unify c.
        cs.conditional(
            Guard::LocIn {
                loc: b,
                kinds: KindMask::WRITE,
                var: v,
            },
            Action {
                unify: vec![(b, c)],
                include: vec![],
                flags: vec![f2],
            },
        );
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.flag(f1) && sol.flag(f2));
        assert!(locs.same(a, c));
        assert_eq!(sol.fired, 2);
    }

    #[test]
    fn overlap_guard() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let m = locs.fresh(Ty::Int);
        let l1 = cs.fresh_var();
        let l2 = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, l), l1);
        cs.include(Effect::atom(EffectKind::Write, m), l2);
        let f = cs.fresh_flag();
        cs.conditional(
            Guard::Overlap {
                left: l1,
                left_kinds: KindMask::READ,
                right: l2,
                right_kinds: KindMask::WRITE_OR_ALLOC,
            },
            Action {
                unify: vec![],
                include: vec![],
                flags: vec![f],
            },
        );
        let sol = solve(&mut cs, &mut locs);
        assert!(!sol.flag(f), "no shared location yet");

        // Now make the locations alias and re-solve: the RT conflict
        // appears.
        let (mut cs2, mut locs2) = setup();
        let l = locs2.fresh(Ty::Int);
        let l12 = cs2.fresh_var();
        let l22 = cs2.fresh_var();
        cs2.include(Effect::atom(EffectKind::Read, l), l12);
        cs2.include(Effect::atom(EffectKind::Write, l), l22);
        let f2 = cs2.fresh_flag();
        cs2.conditional(
            Guard::Overlap {
                left: l12,
                left_kinds: KindMask::READ,
                right: l22,
                right_kinds: KindMask::WRITE_OR_ALLOC,
            },
            Action {
                unify: vec![],
                include: vec![],
                flags: vec![f2],
            },
        );
        let sol2 = solve(&mut cs2, &mut locs2);
        assert!(sol2.flag(f2));
    }

    #[test]
    fn any_kind_guard() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let v = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Alloc, l), v);
        let f = cs.fresh_flag();
        cs.conditional(
            Guard::AnyKind {
                var: v,
                kinds: KindMask::WRITE_OR_ALLOC,
            },
            Action {
                unify: vec![],
                include: vec![],
                flags: vec![f],
            },
        );
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.flag(f));
    }

    #[test]
    fn conditional_include_extends_solution() {
        let (mut cs, mut locs) = setup();
        let l = locs.fresh(Ty::Int);
        let trigger = cs.fresh_var();
        let sink = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, l), trigger);
        cs.conditional(
            Guard::LocIn {
                loc: l,
                kinds: KindMask::READ,
                var: trigger,
            },
            Action {
                unify: vec![],
                include: vec![(Effect::atom(EffectKind::Write, l), sink)],
                flags: vec![FlagId(0)],
            },
        );
        // Allocate the flag referenced above.
        let _ = cs.fresh_flag();
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.contains(&locs, sink, l, KindMask::WRITE));
    }

    #[test]
    fn reaches_matches_full_propagation() {
        let (mut cs, mut locs) = setup();
        let l1 = locs.fresh(Ty::Int);
        let l2 = locs.fresh(Ty::Int);
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        let vis = cs.fresh_var();
        let out = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, l1), a);
        cs.include(Effect::atom(EffectKind::Write, l2), a);
        cs.include(Effect::var(a), b);
        cs.include(Effect::atom(EffectKind::Mention, l1), vis);
        cs.include(Effect::inter(Effect::var(b), Effect::var(vis)), out);
        let graph = build(&cs);
        let sol = {
            let mut cs2 = ConstraintSystem::new();
            std::mem::swap(&mut cs2, &mut cs);
            let s = solve(&mut cs2, &mut locs);
            std::mem::swap(&mut cs2, &mut cs);
            s
        };
        for (loc, var) in [(l1, a), (l1, b), (l1, out), (l2, out), (l2, b)] {
            for kinds in [KindMask::READ, KindMask::WRITE, KindMask::ACCESS] {
                assert_eq!(
                    reaches(&graph, &mut locs, loc, kinds, var),
                    sol.contains(&locs, var, loc, kinds),
                    "reaches vs full propagation disagree for {loc} {kinds} {var}"
                );
            }
        }
    }

    #[test]
    fn unified_locations_share_atoms() {
        let (mut cs, mut locs) = setup();
        let a = locs.fresh(Ty::Int);
        let b = locs.fresh(Ty::Int);
        let v = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, a), v);
        locs.union_raw(a, b);
        let sol = solve(&mut cs, &mut locs);
        assert!(sol.contains(&locs, v, b, KindMask::READ));
    }
}
