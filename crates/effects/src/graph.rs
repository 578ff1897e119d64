//! The effect constraint graph and the Figure 4b normalization.
//!
//! Inclusions `L ⊆ ε` are lowered into a directed graph exactly as the
//! paper prescribes:
//!
//! | Constraint          | Edge(s)                                   |
//! |---------------------|-------------------------------------------|
//! | `{K(ρ)} ⊆ ε`        | atom source at `ε`'s node                 |
//! | `ε1 ⊆ ε2`           | `ε1 → ε2`                                 |
//! | `L1 ∪ L2 ⊆ ε`       | lower both into `ε`                       |
//! | `M1 ∩ M2 ⊆ ε`       | `M1 →ₗ I`, `M2 →ᵣ I`, `I → ε` (fresh `I`) |
//!
//! Nested unions/intersections get fresh auxiliary variables, which is the
//! left-to-right rewriting of Figure 4b; the rewriting preserves least
//! solutions (each auxiliary variable's least solution is exactly the set
//! denoted by the sub-term it names).
//!
//! Intersection (`I`) nodes are *directional* (see
//! [`crate::effect::Effect::Inter`]): the left input supplies kinded
//! atoms, the right input gates by location. An atom `K(ρ)` leaves `I`
//! iff it entered on the left and `ρ` (under any kind) entered on the
//! right — for the symmetric location-set intersections the paper writes,
//! this coincides with plain intersection.
//!
//! Edges live in one array in insertion order. Each node keeps links to
//! its first and last out-edge, and each edge links to its source's next
//! one, so adding an edge mid-solve is an append and no node owns a
//! vector of its own.

use crate::constraint::ConstraintSystem;
use crate::effect::{Atom, EffVar, Effect};

/// A node index in the constraint graph.
pub type NodeIx = u32;

/// Which input port of an intersection node an edge feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// An ordinary inclusion edge (into a plain node).
    Normal,
    /// The atom-supplying input of an `I` node.
    Left,
    /// The location-gating input of an `I` node.
    Right,
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An effect variable (or an auxiliary variable from normalization).
    Plain,
    /// An intersection node.
    Inter,
}

/// Marks the end of an edge chain: no edge has this index.
const NO_EDGE: u32 = u32::MAX;

/// One edge in [`Graph`]'s edge array.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: NodeIx,
    port: Port,
    /// The source node's next out-edge, or [`NO_EDGE`].
    next: u32,
}

/// The lowered constraint graph. Grows monotonically — conditional
/// constraint firing adds edges but never removes them.
#[derive(Debug, Default)]
pub struct Graph {
    /// Node kinds, indexed by [`NodeIx`].
    pub kinds: Vec<NodeKind>,
    /// Each node's first and last out-edge, [`NO_EDGE`] while it has none.
    ends: Vec<(u32, u32)>,
    /// Every edge, in insertion order.
    edges: Vec<Edge>,
    /// Atom sources: `(atom, node, port)`.
    pub atoms: Vec<(Atom, NodeIx, Port)>,
    /// Node of each *canonical* effect variable; lazily created.
    var_node: Vec<Option<NodeIx>>,
    /// Log of atoms/edges added since the last [`Graph::take_additions`]
    /// — the solver seeds these incrementally instead of re-propagating.
    added_atoms: Vec<(Atom, NodeIx, Port)>,
    added_edges: Vec<(NodeIx, NodeIx, Port)>,
}

/// The out-edges of one node, `(to, port)` in insertion order; see
/// [`Graph::out`].
#[derive(Debug, Clone)]
pub(crate) struct Out<'g> {
    edges: &'g [Edge],
    next: u32,
}

impl Iterator for Out<'_> {
    type Item = (NodeIx, Port);

    #[inline]
    fn next(&mut self) -> Option<(NodeIx, Port)> {
        let e = self.edges.get(self.next as usize)?;
        self.next = e.next;
        Some((e.to, e.port))
    }
}

impl Graph {
    /// Creates a graph sized for `cs`'s variables, with room for one edge
    /// per inclusion.
    pub fn new(cs: &ConstraintSystem) -> Self {
        Graph {
            kinds: Vec::with_capacity(cs.var_count()),
            ends: Vec::with_capacity(cs.var_count()),
            edges: Vec::with_capacity(cs.includes.len()),
            atoms: Vec::new(),
            var_node: vec![None; cs.var_count()],
            added_atoms: Vec::new(),
            added_edges: Vec::new(),
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeIx {
        let ix = self.kinds.len() as NodeIx;
        self.kinds.push(kind);
        self.ends.push((NO_EDGE, NO_EDGE));
        ix
    }

    /// The node representing effect variable `v` (resolved to its
    /// canonical representative first).
    pub fn var_node(&mut self, cs: &mut ConstraintSystem, v: EffVar) -> NodeIx {
        let r = cs.find(v);
        if r.index() >= self.var_node.len() {
            self.var_node.resize(r.index() + 1, None);
        }
        match self.var_node[r.index()] {
            Some(n) => n,
            None => {
                let n = self.push_node(NodeKind::Plain);
                self.var_node[r.index()] = Some(n);
                n
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The node of an already-canonical effect variable, without creating
    /// one. Pass the result of [`ConstraintSystem::find`]/`find_const`.
    pub fn var_node_readonly(&self, canonical: EffVar) -> Option<NodeIx> {
        self.var_node.get(canonical.index()).copied().flatten()
    }

    /// The out-edges of node `n`, in the order they were added.
    #[inline]
    pub(crate) fn out(&self, n: NodeIx) -> Out<'_> {
        Out {
            edges: &self.edges,
            next: self.ends[n as usize].0,
        }
    }

    fn edge(&mut self, from: NodeIx, to: NodeIx, port: Port) {
        assert!(
            self.edges.len() < NO_EDGE as usize,
            "edge indices fit below u32::MAX"
        );
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            to,
            port,
            next: NO_EDGE,
        });
        let (first, last) = &mut self.ends[from as usize];
        if *last == NO_EDGE {
            *first = e;
        } else {
            self.edges[*last as usize].next = e;
        }
        *last = e;
        self.added_edges.push((from, to, port));
    }

    /// Consumes the graph, returning the node of each canonical effect
    /// variable, indexed by variable.
    pub(crate) fn into_var_nodes(self) -> Vec<Option<NodeIx>> {
        self.var_node
    }

    /// Drains the additions (atoms, edges) logged since the last call.
    #[allow(clippy::type_complexity)]
    pub fn take_additions(&mut self) -> (Vec<(Atom, NodeIx, Port)>, Vec<(NodeIx, NodeIx, Port)>) {
        (
            std::mem::take(&mut self.added_atoms),
            std::mem::take(&mut self.added_edges),
        )
    }

    /// Lowers the inclusion `l ⊆ ε` into graph edges (Figure 4b).
    pub fn include(&mut self, cs: &mut ConstraintSystem, l: &Effect, var: EffVar) {
        let target = self.var_node(cs, var);
        self.lower(cs, l, target, Port::Normal);
    }

    fn lower(&mut self, cs: &mut ConstraintSystem, l: &Effect, target: NodeIx, port: Port) {
        match l {
            Effect::Empty => {}
            Effect::Atom(a) => {
                self.atoms.push((*a, target, port));
                self.added_atoms.push((*a, target, port));
            }
            Effect::Var(v) => {
                let n = self.var_node(cs, *v);
                self.edge(n, target, port);
            }
            Effect::Union(a, b) => {
                self.lower(cs, a, target, port);
                self.lower(cs, b, target, port);
            }
            Effect::Inter(a, b) => {
                let i = self.push_node(NodeKind::Inter);
                self.lower(cs, a, i, Port::Left);
                self.lower(cs, b, i, Port::Right);
                self.edge(i, target, port);
            }
        }
    }
}

/// Builds the graph for every unconditional inclusion in `cs`.
pub fn build(cs: &mut ConstraintSystem) -> Graph {
    let mut g = Graph::new(cs);
    // Lowering needs `cs` mutably, so move the inclusions out while it
    // runs instead of cloning them.
    let includes = std::mem::take(&mut cs.includes);
    for (l, v) in &includes {
        g.include(cs, l, *v);
    }
    cs.includes = includes;
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::EffectKind;
    use localias_alias::Loc;

    #[test]
    fn atoms_and_edges_lower() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        cs.include(Effect::atom(EffectKind::Read, Loc(0)), a);
        cs.include(Effect::var(a), b);
        let g = build(&mut cs);
        assert_eq!(g.atoms.len(), 1);
        // a's node has one edge to b's node.
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn out_edges_keep_insertion_order_per_node() {
        let mut cs = ConstraintSystem::new();
        let v: Vec<EffVar> = (0..4).map(|_| cs.fresh_var()).collect();
        // Interleave two sources so their edges alternate in the array.
        for (from, to) in [(0, 1), (2, 3), (0, 2), (2, 1), (0, 3)] {
            cs.include(Effect::var(v[from]), v[to]);
        }
        let mut g = build(&mut cs);
        let n: Vec<NodeIx> = v.iter().map(|&x| g.var_node(&mut cs, x)).collect();
        let targets = |from: usize| g.out(n[from]).map(|(to, _)| to).collect::<Vec<_>>();
        assert_eq!(targets(0), [n[1], n[2], n[3]]);
        assert_eq!(targets(2), [n[3], n[1]]);
        assert_eq!(targets(1), []);
        assert_eq!(g.edges.len(), 5);
    }

    #[test]
    fn unions_flatten_without_aux_nodes() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        let c = cs.fresh_var();
        cs.include(Effect::union(Effect::var(a), Effect::var(b)), c);
        let g = build(&mut cs);
        assert!(g.kinds.iter().all(|k| *k == NodeKind::Plain));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn intersections_create_inodes() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        let c = cs.fresh_var();
        cs.include(Effect::inter(Effect::var(a), Effect::var(b)), c);
        let g = build(&mut cs);
        assert_eq!(g.kinds.iter().filter(|k| **k == NodeKind::Inter).count(), 1);
        // The I node has exactly one Left and one Right incoming edge.
        let mut left = 0;
        let mut right = 0;
        for n in 0..g.node_count() as NodeIx {
            for (_, port) in g.out(n) {
                match port {
                    Port::Left => left += 1,
                    Port::Right => right += 1,
                    Port::Normal => {}
                }
            }
        }
        assert_eq!((left, right), (1, 1));
    }

    #[test]
    fn equated_vars_share_a_node() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        cs.equate(a, b);
        let mut g = Graph::new(&cs);
        let na = g.var_node(&mut cs, a);
        let nb = g.var_node(&mut cs, b);
        assert_eq!(na, nb);
    }
}
