//! Yen's algorithm for the k shortest loopless paths.
//!
//! Used by the `Ksp` baseline routing policy, a simple (pre-Suurballe) way
//! to obtain a disjoint pair: enumerate the k cheapest simple paths and
//! scan for an edge-disjoint combination. The evaluation compares this
//! against the paper's auxiliary-graph construction.

use crate::dijkstra::dijkstra_filtered;
use crate::{DiGraph, NodeId, Path};

/// The `k` cheapest simple `s -> t` paths in non-decreasing cost order
/// (fewer if the graph has fewer simple paths).
///
/// Classic Yen: for each prefix ("root") of the last accepted path, ban the
/// deviating edges and the root's interior nodes, and extend with a shortest
/// "spur" path. Costs must be non-negative.
pub fn yen_k_shortest<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    k: usize,
    mut cost: impl FnMut(crate::EdgeId) -> f64,
) -> Vec<Path> {
    let mut accepted: Vec<(f64, Path)> = Vec::new();
    let mut candidates: Vec<(f64, Path)> = Vec::new();

    let first = dijkstra_filtered(g, s, &mut cost, |_| true).path_to(g, t);
    let Some(first) = first else {
        return Vec::new();
    };
    let first_cost = first.cost(&mut cost);
    accepted.push((first_cost, first));

    while accepted.len() < k {
        let (_, last) = accepted.last().expect("at least the first path");
        let last = last.clone();
        let last_nodes = last.nodes(g);

        // One candidate per deviation point along the last accepted path.
        for i in 0..last.edges.len() {
            let spur_node = last_nodes[i];
            let root_edges = &last.edges[..i];
            let root_cost: f64 = root_edges.iter().map(|&e| cost(e)).sum();

            // Ban edges that would recreate any accepted path with this root,
            // and ban the root's interior nodes (loopless requirement).
            let mut banned_edges = vec![false; g.edge_count()];
            for (_, p) in &accepted {
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    banned_edges[p.edges[i].index()] = true;
                }
            }
            for (_, p) in &candidates {
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    banned_edges[p.edges[i].index()] = true;
                }
            }
            let mut banned_nodes = vec![false; g.node_count()];
            for &v in &last_nodes[..i] {
                banned_nodes[v.index()] = true;
            }

            let spur_tree = dijkstra_filtered(g, spur_node, &mut cost, |e| {
                !banned_edges[e.index()]
                    && !banned_nodes[g.src(e).index()]
                    && !banned_nodes[g.dst(e).index()]
            });
            if let Some(spur) = spur_tree.path_to(g, t) {
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let total = root_cost + spur.cost(&mut cost);
                let cand = Path {
                    src: s,
                    dst: t,
                    edges,
                };
                // Deduplicate identical candidates.
                if !candidates.iter().any(|(_, p)| p.edges == cand.edges)
                    && !accepted.iter().any(|(_, p)| p.edges == cand.edges)
                {
                    candidates.push((total, cand));
                }
            }
        }

        if candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate.
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("no NaN costs"))
            .map(|(i, _)| i)
            .expect("non-empty");
        accepted.push(candidates.swap_remove(best));
    }

    accepted.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    fn sample() -> DiGraph<(), f64> {
        // Wikipedia's Yen example (C..H relabelled 0..5).
        DiGraph::weighted(
            6,
            &[
                (0, 1, 3.0), // C-D
                (0, 2, 2.0), // C-E
                (1, 3, 4.0), // D-F
                (2, 1, 1.0), // E-D
                (2, 3, 2.0), // E-F
                (2, 4, 3.0), // E-G
                (3, 4, 2.0), // F-G
                (3, 5, 1.0), // F-H
                (4, 5, 2.0), // G-H
            ],
        )
    }

    #[test]
    fn yen_reproduces_textbook_answer() {
        let g = sample();
        let paths = yen_k_shortest(&g, NodeId(0), NodeId(5), 3, |e| g.weight(e));
        assert_eq!(paths.len(), 3);
        let costs: Vec<f64> = paths.iter().map(|p| p.cost(|e| g.weight(e))).collect();
        assert_eq!(costs, vec![5.0, 7.0, 8.0]);
        // k1: C-E-F-H.
        assert_eq!(
            paths[0].nodes(&g),
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(5)]
        );
        for p in &paths {
            assert!(p.is_simple(&g));
        }
    }

    #[test]
    fn costs_are_non_decreasing_and_paths_distinct() {
        let g = sample();
        let paths = yen_k_shortest(&g, NodeId(0), NodeId(5), 10, |e| g.weight(e));
        for w in paths.windows(2) {
            assert!(
                w[0].cost(|e| g.weight(e)) <= w[1].cost(|e| g.weight(e)),
                "non-monotone k-list"
            );
            assert_ne!(w[0].edges, w[1].edges);
        }
        // Every returned path is simple.
        assert!(paths.iter().all(|p| p.is_simple(&g)));
    }

    #[test]
    fn exhausts_simple_paths() {
        // Diamond has exactly 2 simple paths.
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)]);
        let paths = yen_k_shortest(&g, NodeId(0), NodeId(3), 10, |e| g.weight(e));
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn unreachable_target_gives_empty() {
        let g = DiGraph::weighted(3, &[(0, 1, 1.0)]);
        assert!(yen_k_shortest(&g, NodeId(0), NodeId(2), 3, |e| g.weight(e)).is_empty());
    }

    #[test]
    fn parallel_edge_multigraph() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e0 = g.add_edge(a, b, 1.0);
        let e1 = g.add_edge(a, b, 2.0);
        let paths = yen_k_shortest(&g, a, b, 5, |e| g.weight(e));
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].edges, vec![e0]);
        assert_eq!(paths[1].edges, vec![e1]);
        let _ = EdgeId(0);
    }
}
