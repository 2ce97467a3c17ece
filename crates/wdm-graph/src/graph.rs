//! Adjacency-list directed multigraph with typed payloads.

use crate::{EdgeId, NodeId};

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct EdgeRecord<E> {
    src: NodeId,
    dst: NodeId,
    data: E,
}

/// A directed multigraph with dense ids and per-node / per-edge payloads.
///
/// ```
/// use wdm_graph::{DiGraph, NodeId};
/// use wdm_graph::dijkstra::dijkstra;
///
/// // A weighted diamond; find the cheapest route across it.
/// let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)]);
/// let tree = dijkstra(&g, NodeId(0), |e| g.weight(e));
/// assert_eq!(tree.distance(NodeId(3)), Some(2.0));
/// let path = tree.path_to(&g, NodeId(3)).unwrap();
/// assert_eq!(path.nodes(&g), vec![NodeId(0), NodeId(1), NodeId(3)]);
/// ```
///
/// * Nodes and edges are identified by dense [`NodeId`] / [`EdgeId`] indices
///   in insertion order; neither can be removed (algorithms that need
///   subgraphs use edge filters).
/// * Parallel edges and self-loops are allowed — the WDM model needs parallel
///   fibres, and auxiliary-graph constructions never create self-loops but
///   the substrate does not forbid them.
/// * Both out- and in-adjacency are maintained, because the paper's
///   auxiliary-graph construction iterates `E_in(v) × E_out(v)` per node.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiGraph<N = (), E = ()> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord<E>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node carrying `data` and returns its id.
    pub fn add_node(&mut self, data: N) -> NodeId {
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(data);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Removes every edge while keeping the nodes and the allocated
    /// capacity of the edge list and per-node adjacency lists, so a scratch
    /// graph (e.g. a Suurballe residual graph) can be rebuilt without
    /// reallocating.
    pub fn clear_edges(&mut self) {
        self.edges.clear();
        for adj in &mut self.out_adj {
            adj.clear();
        }
        for adj in &mut self.in_adj {
            adj.clear();
        }
    }

    /// Adds a directed edge `src -> dst` carrying `data` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, data: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src {src:?} out of range");
        assert!(dst.index() < self.nodes.len(), "dst {dst:?} out of range");
        let id = EdgeId::from(self.edges.len());
        self.edges.push(EdgeRecord { src, dst, data });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Source node of `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination node of `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// `(src, dst)` of `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let r = &self.edges[e.index()];
        (r.src, r.dst)
    }

    /// Payload of node `v`.
    #[inline]
    pub fn node(&self, v: NodeId) -> &N {
        &self.nodes[v.index()]
    }

    /// Payload of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &E {
        &self.edges[e.index()].data
    }

    /// Ids of edges leaving `v` (`E_out(v)` in the paper's notation).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_adj[v.index()]
    }

    /// Ids of edges entering `v` (`E_in(v)` in the paper's notation).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_adj[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Maximum total degree (in + out) over all nodes — the `d` of the
    /// paper's Theorem 1 complexity bound.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.out_adj[i].len() + self.in_adj[i].len())
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.nodes.len()).map(NodeId::from)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone {
        (0..self.edges.len()).map(EdgeId::from)
    }

    /// Iterator over `(edge id, src, dst, &payload)` in id order.
    pub fn edges_iter(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, r)| (EdgeId::from(i), r.src, r.dst, &r.data))
    }

    /// First edge `src -> dst`, if any (parallel edges return the lowest id).
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&e| self.dst(e) == dst)
    }

    /// Total degree of `v` (in + out).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }
}

impl DiGraph<(), f64> {
    /// Convenience constructor for weighted test graphs:
    /// `weighted(n, &[(u, v, w), ...])`.
    pub fn weighted(n: usize, arcs: &[(u32, u32, f64)]) -> Self {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for &(u, v, w) in arcs {
            g.add_edge(NodeId(u), NodeId(v), w);
        }
        g
    }

    /// The weight of edge `e` (payload).
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        *self.edge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_adjacency_both_directions() {
        let mut g: DiGraph<&str, i32> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e0 = g.add_edge(a, b, 1);
        let e1 = g.add_edge(b, c, 2);
        let e2 = g.add_edge(a, c, 3);

        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(a), &[e0, e2]);
        assert_eq!(g.in_edges(c), &[e1, e2]);
        assert_eq!(g.endpoints(e1), (b, c));
        assert_eq!(*g.edge(e2), 3);
        assert_eq!(*g.node(b), "b");
        assert_eq!(g.max_degree(), 2); // every node touches exactly 2 edges
    }

    #[test]
    fn parallel_edges_have_distinct_ids() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e0 = g.add_edge(a, b, ());
        let e1 = g.add_edge(a, b, ());
        assert_ne!(e0, e1);
        assert_eq!(g.find_edge(a, b), Some(e0));
        assert_eq!(g.find_edge(b, a), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_bounds() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(9), ());
    }
}
