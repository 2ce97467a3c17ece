//! Dijkstra's single-source shortest paths, generic over the heap engine.
//!
//! The paper's Theorem 1 charges `O(m log n)` (binary/Fibonacci heap) for
//! each shortest-path pass over the auxiliary graph; these routines are that
//! pass. All variants reject negative arc weights with a debug assertion —
//! Suurballe's second pass feeds them non-negative *reduced* costs instead.

use crate::{DiGraph, EdgeId, NodeId, Path};
use wdm_heap::{DaryHeap, MinQueue};

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The source the tree is rooted at.
    pub source: NodeId,
    /// `dist[v]` = cost of the cheapest path `source -> v`, `f64::INFINITY`
    /// if unreachable.
    pub dist: Vec<f64>,
    /// `pred[v]` = last edge on a cheapest path to `v`, `None` for the
    /// source and unreachable nodes.
    pub pred: Vec<Option<EdgeId>>,
}

impl ShortestPathTree {
    /// Whether `v` is reachable from the source.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }

    /// The distance to `v`, if reachable.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<f64> {
        let d = self.dist[v.index()];
        d.is_finite().then_some(d)
    }

    /// Reconstructs a cheapest path `source -> t`, if `t` is reachable.
    pub fn path_to<N, E>(&self, g: &DiGraph<N, E>, t: NodeId) -> Option<Path> {
        if !self.reached(t) {
            return None;
        }
        let mut edges = Vec::new();
        let mut at = t;
        while at != self.source {
            let e = self.pred[at.index()].expect("reached non-source node must have a pred edge");
            edges.push(e);
            at = g.src(e);
        }
        edges.reverse();
        Some(Path {
            src: self.source,
            dst: t,
            edges,
        })
    }
}

/// Dijkstra with an arbitrary [`MinQueue`] engine, arbitrary cost function
/// and an edge filter. The most general entry point; the convenience
/// wrappers below all delegate here.
///
/// `target`: if `Some(t)`, the search stops as soon as `t` is settled
/// (distances of unsettled nodes are then upper bounds, `pred` for settled
/// nodes is exact).
pub fn dijkstra_generic<N, E, Q: MinQueue<f64>>(
    g: &DiGraph<N, E>,
    source: NodeId,
    target: Option<NodeId>,
    mut cost: impl FnMut(EdgeId) -> f64,
    mut filter: impl FnMut(EdgeId) -> bool,
) -> ShortestPathTree {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut queue = Q::with_capacity(n);
    dist[source.index()] = 0.0;
    queue.insert(source.index(), 0.0);

    while let Some((u_idx, du)) = queue.pop_min() {
        let u = NodeId::from(u_idx);
        if Some(u) == target {
            break;
        }
        for &e in g.out_edges(u) {
            if !filter(e) {
                continue;
            }
            let w = cost(e);
            debug_assert!(w >= 0.0, "negative arc weight {w} on {e:?}");
            let v = g.dst(e);
            let nd = du + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                pred[v.index()] = Some(e);
                queue.insert_or_decrease(v.index(), nd);
            }
        }
    }
    ShortestPathTree { source, dist, pred }
}

/// Dijkstra over all edges with the default 4-ary heap.
pub fn dijkstra<N, E>(
    g: &DiGraph<N, E>,
    source: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
) -> ShortestPathTree {
    dijkstra_generic::<N, E, DaryHeap<f64, 4>>(g, source, None, cost, |_| true)
}

/// Dijkstra restricted to edges accepted by `filter`.
pub fn dijkstra_filtered<N, E>(
    g: &DiGraph<N, E>,
    source: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
    filter: impl FnMut(EdgeId) -> bool,
) -> ShortestPathTree {
    dijkstra_generic::<N, E, DaryHeap<f64, 4>>(g, source, None, cost, filter)
}

/// Point-to-point Dijkstra with early termination at `target`.
pub fn dijkstra_to<N, E>(
    g: &DiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
) -> ShortestPathTree {
    dijkstra_generic::<N, E, DaryHeap<f64, 4>>(g, source, Some(target), cost, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example graph.
    fn sample() -> DiGraph<(), f64> {
        DiGraph::weighted(
            5,
            &[
                (0, 1, 10.0),
                (0, 3, 5.0),
                (1, 2, 1.0),
                (1, 3, 2.0),
                (2, 4, 4.0),
                (3, 1, 3.0),
                (3, 2, 9.0),
                (3, 4, 2.0),
                (4, 0, 7.0),
                (4, 2, 6.0),
            ],
        )
    }

    #[test]
    fn distances_match_known_values() {
        let g = sample();
        let t = dijkstra(&g, NodeId(0), |e| g.weight(e));
        assert_eq!(t.dist, vec![0.0, 8.0, 9.0, 5.0, 7.0]);
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let g = sample();
        let t = dijkstra(&g, NodeId(0), |e| g.weight(e));
        let p = t.path_to(&g, NodeId(2)).unwrap();
        assert!(p.is_valid_walk(&g));
        assert!(p.is_simple(&g));
        assert_eq!(p.cost(|e| g.weight(e)), 9.0);
        assert_eq!(
            p.nodes(&g),
            vec![NodeId(0), NodeId(3), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let g = DiGraph::weighted(3, &[(0, 1, 1.0)]);
        let t = dijkstra(&g, NodeId(0), |e| g.weight(e));
        assert!(!t.reached(NodeId(2)));
        assert_eq!(t.distance(NodeId(2)), None);
        assert!(t.path_to(&g, NodeId(2)).is_none());
        assert_eq!(t.path_to(&g, NodeId(0)).unwrap().len(), 0);
    }

    #[test]
    fn filter_excludes_edges() {
        let g = sample();
        // Ban the cheap 0->3 edge; the best route to 3 becomes 0->1->3.
        let t = dijkstra_filtered(&g, NodeId(0), |e| g.weight(e), |e| e != EdgeId(1));
        assert_eq!(t.dist[3], 12.0);
    }

    #[test]
    fn early_exit_settles_target() {
        let g = sample();
        let t = dijkstra_to(&g, NodeId(0), NodeId(3), |e| g.weight(e));
        assert_eq!(t.distance(NodeId(3)), Some(5.0));
        let p = t.path_to(&g, NodeId(3)).unwrap();
        assert_eq!(p.cost(|e| g.weight(e)), 5.0);
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let g = DiGraph::weighted(3, &[(0, 1, 0.0), (1, 2, 0.0)]);
        let t = dijkstra(&g, NodeId(0), |e| g.weight(e));
        assert_eq!(t.dist, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 5.0);
        let cheap = g.add_edge(a, b, 2.0);
        let t = dijkstra(&g, a, |e| g.weight(e));
        assert_eq!(t.dist[b.index()], 2.0);
        assert_eq!(t.pred[b.index()], Some(cheap));
    }
}
