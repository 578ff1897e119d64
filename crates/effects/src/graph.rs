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
//! vector of its own. Atoms and edges are only ever appended, so what
//! was added since a [`Graph::mark`] is the tail of each array.

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
    from: NodeIx,
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
    /// Node of each effect variable; lazily created.
    var_node: Vec<Option<NodeIx>>,
}

/// A point in a [`Graph`]'s growth: how many atoms and edges it had.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    atoms: usize,
    edges: usize,
}

/// What lowering an effect term adds to a graph.
#[derive(Debug, Default, Clone, Copy)]
struct Census {
    atoms: usize,
    edges: usize,
    inter_nodes: usize,
}

impl Census {
    fn add(&mut self, l: &Effect) {
        match l {
            Effect::Empty => {}
            Effect::Atom(_) => self.atoms += 1,
            Effect::Var(_) => self.edges += 1,
            Effect::Union(a, b) => {
                self.add(a);
                self.add(b);
            }
            Effect::Inter(a, b) => {
                self.inter_nodes += 1;
                self.edges += 1;
                self.add(a);
                self.add(b);
            }
            Effect::InterVars(..) => {
                self.inter_nodes += 1;
                self.edges += 3;
            }
        }
    }
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
    /// Creates a graph sized for `cs`: room for every node, edge and atom
    /// its unconditional inclusions lower to.
    pub fn new(cs: &ConstraintSystem) -> Self {
        let mut census = Census::default();
        for (l, _) in &cs.includes {
            census.add(l);
        }
        let nodes = cs.var_count() + census.inter_nodes;
        Graph {
            kinds: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(census.edges),
            atoms: Vec::with_capacity(census.atoms),
            var_node: vec![None; cs.var_count()],
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeIx {
        let ix = self.kinds.len() as NodeIx;
        self.kinds.push(kind);
        self.ends.push((NO_EDGE, NO_EDGE));
        ix
    }

    /// The node representing effect variable `v`.
    pub fn var_node(&mut self, v: EffVar) -> NodeIx {
        if v.index() >= self.var_node.len() {
            self.var_node.resize(v.index() + 1, None);
        }
        match self.var_node[v.index()] {
            Some(n) => n,
            None => {
                let n = self.push_node(NodeKind::Plain);
                self.var_node[v.index()] = Some(n);
                n
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The node of effect variable `v`, without creating one.
    pub fn var_node_readonly(&self, v: EffVar) -> Option<NodeIx> {
        self.var_node.get(v.index()).copied().flatten()
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
            from,
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
    }

    /// Consumes the graph, returning the node of each effect variable,
    /// indexed by variable.
    pub(crate) fn into_var_nodes(self) -> Vec<Option<NodeIx>> {
        self.var_node
    }

    /// The graph's growth so far; see [`Graph::atoms_since`] and
    /// [`Graph::edges_since`].
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            atoms: self.atoms.len(),
            edges: self.edges.len(),
        }
    }

    /// The atom sources added since `mark`, in order.
    pub(crate) fn atoms_since(&self, mark: Mark) -> &[(Atom, NodeIx, Port)] {
        &self.atoms[mark.atoms..]
    }

    /// The edges `(from, to, port)` added since `mark`, in order.
    pub(crate) fn edges_since(
        &self,
        mark: Mark,
    ) -> impl Iterator<Item = (NodeIx, NodeIx, Port)> + '_ {
        self.edges[mark.edges..]
            .iter()
            .map(|e| (e.from, e.to, e.port))
    }

    /// Lowers the inclusion `l ⊆ ε` into graph edges (Figure 4b).
    pub fn include(&mut self, l: &Effect, var: EffVar) {
        let target = self.var_node(var);
        self.lower(l, target, Port::Normal);
    }

    fn lower(&mut self, l: &Effect, target: NodeIx, port: Port) {
        match l {
            Effect::Empty => {}
            Effect::Atom(a) => self.atoms.push((*a, target, port)),
            Effect::Var(v) => {
                let n = self.var_node(*v);
                self.edge(n, target, port);
            }
            Effect::Union(a, b) => {
                self.lower(a, target, port);
                self.lower(b, target, port);
            }
            Effect::Inter(a, b) => {
                let i = self.push_node(NodeKind::Inter);
                self.lower(a, i, Port::Left);
                self.lower(b, i, Port::Right);
                self.edge(i, target, port);
            }
            Effect::InterVars(a, b) => {
                let i = self.push_node(NodeKind::Inter);
                let a = self.var_node(*a);
                self.edge(a, i, Port::Left);
                let b = self.var_node(*b);
                self.edge(b, i, Port::Right);
                self.edge(i, target, port);
            }
        }
    }
}

/// Builds the graph for every unconditional inclusion in `cs`.
pub fn build(cs: &ConstraintSystem) -> Graph {
    let mut g = Graph::new(cs);
    for (l, v) in &cs.includes {
        g.include(l, *v);
    }
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
        let g = build(&cs);
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
        let mut g = build(&cs);
        let n: Vec<NodeIx> = v.iter().map(|&x| g.var_node(x)).collect();
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
        let g = build(&cs);
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
        let g = build(&cs);
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
}
