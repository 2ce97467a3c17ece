//! Property-based cross-checks between the independent shortest-path and
//! disjoint-path implementations.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_graph::dijkstra::{dijkstra, dijkstra_to};
use wdm_graph::ksp::yen_k_shortest;
use wdm_graph::suurballe::edge_disjoint_pair;
use wdm_graph::traverse::edge_connectivity;
use wdm_graph::{DiGraph, NodeId};

fn random_graph(seed: u64, max_n: u32, p: f64) -> DiGraph<(), f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(3..max_n);
    let mut arcs = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                arcs.push((u, v, rng.gen_range(1..50) as f64));
            }
        }
    }
    DiGraph::weighted(n as usize, &arcs)
}

/// Bellman–Ford distances from `source`: an independent reference for
/// Dijkstra (no heap, no settled set). Costs here are non-negative, so
/// n − 1 rounds of relaxing every edge reach the fixpoint.
fn bellman_ford(g: &DiGraph<(), f64>, source: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.node_count()];
    dist[source.index()] = 0.0;
    for _ in 1..g.node_count() {
        let mut changed = false;
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let nd = dist[u.index()] + g.weight(e);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn dijkstra_agrees_with_bellman_ford(seed in 0u64..100_000) {
        let g = random_graph(seed, 15, 0.3);
        let d = dijkstra(&g, NodeId(0), |e| g.weight(e));
        let bf = bellman_ford(&g, NodeId(0));
        for (dv, bv) in d.dist.iter().zip(&bf) {
            prop_assert!((dv - bv).abs() < 1e-9 || (dv.is_infinite() && bv.is_infinite()));
        }
    }

    #[test]
    fn early_exit_dijkstra_matches_full(seed in 0u64..100_000) {
        let g = random_graph(seed, 15, 0.3);
        let t = NodeId((g.node_count() - 1) as u32);
        let full = dijkstra(&g, NodeId(0), |e| g.weight(e));
        let early = dijkstra_to(&g, NodeId(0), t, |e| g.weight(e));
        prop_assert_eq!(full.distance(t), early.distance(t));
    }

    #[test]
    fn yen_first_path_is_shortest_and_list_is_sorted(seed in 0u64..100_000) {
        let g = random_graph(seed, 10, 0.35);
        let t = NodeId((g.node_count() - 1) as u32);
        let paths = yen_k_shortest(&g, NodeId(0), t, 5, |e| g.weight(e));
        let d = dijkstra(&g, NodeId(0), |e| g.weight(e));
        match (paths.first(), d.distance(t)) {
            (Some(p), Some(dist)) => {
                prop_assert!((p.cost(|e| g.weight(e)) - dist).abs() < 1e-9);
            }
            (None, None) => {}
            other => return Err(TestCaseError::fail(format!("mismatch {other:?}"))),
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].cost(|e| g.weight(e)) <= w[1].cost(|e| g.weight(e)) + 1e-9);
            prop_assert!(w[0].is_simple(&g) && w[1].is_simple(&g));
        }
    }

    #[test]
    fn suurballe_feasibility_matches_edge_connectivity(seed in 0u64..100_000) {
        let g = random_graph(seed, 12, 0.25);
        let t = NodeId((g.node_count() - 1) as u32);
        let pair = edge_disjoint_pair(&g, NodeId(0), t, |e| g.weight(e));
        let k = edge_connectivity(&g, NodeId(0), t);
        prop_assert_eq!(pair.is_some(), k >= 2, "connectivity {} vs pair {:?}", k, pair.is_some());
    }

    #[test]
    fn suurballe_total_at_least_twice_shortest(seed in 0u64..100_000) {
        let g = random_graph(seed, 12, 0.3);
        let t = NodeId((g.node_count() - 1) as u32);
        if let Some(pair) = edge_disjoint_pair(&g, NodeId(0), t, |e| g.weight(e)) {
            let d = dijkstra(&g, NodeId(0), |e| g.weight(e))
                .distance(t)
                .expect("pair implies reachable");
            prop_assert!(pair.total_cost + 1e-9 >= 2.0 * d);
            // And each leg individually costs at least the shortest path.
            for p in &pair.paths {
                prop_assert!(p.cost(|e| g.weight(e)) + 1e-9 >= d);
            }
        }
    }
}
