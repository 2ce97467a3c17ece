//! Suurballe's algorithm: a minimum-total-cost pair of edge-disjoint
//! directed `s -> t` paths (Suurballe 1974, Suurballe–Tarjan 1984).
//!
//! This is the `Find_Two_Paths` subroutine of the paper (§3.3.2): the
//! approximation algorithms run it on the auxiliary graphs `G'`, `G_c` and
//! `G_rc`. The implementation uses the potential (reduced-cost)
//! formulation so both passes are plain Dijkstra runs on non-negative
//! weights, guided by a *sink bound* `h`: a consistent lower bound on each
//! node's remaining cost to `t` (`h(t) = 0`, `h(u) ≤ c(e) + h(v)` on every
//! edge, `∞` where `t` is unreachable). The auxiliary-graph searches pass
//! the physical distance to the sink; the generic entry points below pass
//! `h ≡ 0`, which makes every step the unguided one.
//!
//! 1. A* from `s` under `h`, stopped when `t` is popped, gives a shortest
//!    path `P1`. A settled node `v` keeps its exact distance `d(v)`, with
//!    `d(v) + h(v) ≤ d(t)`; every other node is at least `d(t) − h(v)`
//!    away. Nodes with `h = ∞` are never labelled.
//! 2. The potentials are `π(v) = min(d(v), d(t) − h(v))`. Every remaining
//!    edge `(u, v)` into a node with finite `h` gets reduced cost
//!    `c(e) + π(u) − π(v) ≥ 0` (consistency of `h` keeps the potentials
//!    feasible), including edges into nodes step 1 never settled; the
//!    edges of `P1` are removed and replaced by zero-cost reversals (`P1`'s
//!    nodes are all settled, so its edges are tight and their reversals
//!    cost exactly 0). Beyond the settled region the reduced costs are
//!    `c(e) − h(u) + h(v)`: pass 2 is guided by the same bound.
//! 3. A second Dijkstra, stopped at `t`, finds `P2'` in that residual
//!    graph. These are the successive-shortest-path conditions for a
//!    two-unit min-cost flow, so the pair has minimum total cost; only the
//!    choice among equal-cost pairs depends on `h` and on where step 1
//!    stopped.
//! 4. Interleaving removal: edges of `P1` whose reversals `P2'` used cancel
//!    (the `E_intersect` step of the paper's pseudocode); the surviving edge
//!    set decomposes into the two edge-disjoint paths, recovered by walking
//!    from `s` (every interior node has equal in/out degree).

use crate::arena::SearchArena;
use crate::{DiGraph, EdgeId, NodeId, Path};

/// A pair of edge-disjoint paths with their summed cost.
#[derive(Debug, Clone)]
pub struct DisjointPair {
    /// The two paths; `paths\[0\]` is the cheaper of the two.
    pub paths: [Path; 2],
    /// Total cost of both paths under the cost function used to find them.
    pub total_cost: f64,
}

impl DisjointPair {
    /// Verifies edge-disjointness (always true for algorithm output; public
    /// for tests and defensive callers).
    pub fn is_edge_disjoint(&self) -> bool {
        !self.paths[0].shares_edge_with(&self.paths[1])
    }
}

/// Minimum-cost pair of edge-disjoint `s -> t` paths over edges accepted by
/// `filter`, with per-edge costs from `cost` (must be non-negative).
///
/// Returns `None` when fewer than two edge-disjoint paths exist (including
/// `s == t`, for which the problem is degenerate).
///
/// ```
/// use wdm_graph::{DiGraph, NodeId};
/// use wdm_graph::suurballe::edge_disjoint_pair;
///
/// // The classic trap: the single shortest path blocks the naive
/// // two-step approach, but Suurballe re-routes around it.
/// let g = DiGraph::weighted(4, &[
///     (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), // cheap chain
///     (0, 2, 10.0), (1, 3, 10.0),            // expensive detours
/// ]);
/// let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
/// assert!(pair.is_edge_disjoint());
/// assert_eq!(pair.total_cost, 22.0); // {0-1-3, 0-2-3}
/// ```
pub fn edge_disjoint_pair_filtered<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
    filter: impl FnMut(EdgeId) -> bool,
) -> Option<DisjointPair> {
    // The algorithm lives in `SearchArena` so hot loops can reuse the
    // working buffers; a one-shot call just uses a throwaway arena. A
    // generic graph has no sink bound: h = 0 is plain Dijkstra.
    SearchArena::new().edge_disjoint_pair(g, s, t, cost, filter, |_| 0.0)
}

/// [`edge_disjoint_pair_filtered`] over all edges.
pub fn edge_disjoint_pair<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
) -> Option<DisjointPair> {
    edge_disjoint_pair_filtered(g, s, t, cost, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic Suurballe teaching example: the greedy shortest path goes
    /// through the middle and must be partially undone by the second pass.
    fn suurballe_classic() -> DiGraph<(), f64> {
        // Nodes: 0=A 1=B 2=C 3=D 4=E 5=F (Wikipedia's example).
        DiGraph::weighted(
            6,
            &[
                (0, 1, 1.0), // A-B
                (0, 2, 2.0), // A-C
                (1, 3, 1.0), // B-D
                (2, 3, 2.0), // C-D
                (1, 4, 2.0), // B-E
                (4, 5, 2.0), // E-F
                (3, 5, 1.0), // D-F
                (2, 4, 2.0), // C-E (extra, harmless)
            ],
        )
    }

    #[test]
    fn classic_example_total_cost() {
        let g = suurballe_classic();
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(5), |e| g.weight(e)).unwrap();
        // Optimal: A-B-D-F (3) + A-C-E... wait for this arc set the optimum
        // pair is {A-B-D-F = 3, A-C-D... not disjoint}; check invariants and
        // the known optimum 3 + 6? Verified by exhaustive enumeration below.
        assert!(pair.is_edge_disjoint());
        assert!(pair.paths[0].is_valid_walk(&g));
        assert!(pair.paths[1].is_valid_walk(&g));
        let brute = brute_force_best_pair(&g, NodeId(0), NodeId(5));
        assert_eq!(pair.total_cost, brute.unwrap());
    }

    /// Exhaustive enumeration of edge-disjoint path pairs (tiny graphs only).
    fn brute_force_best_pair(g: &DiGraph<(), f64>, s: NodeId, t: NodeId) -> Option<f64> {
        let mut paths: Vec<(Vec<EdgeId>, f64)> = Vec::new();
        // DFS over simple paths.
        fn dfs(
            g: &DiGraph<(), f64>,
            at: NodeId,
            t: NodeId,
            seen: &mut Vec<bool>,
            cur: &mut Vec<EdgeId>,
            cost: f64,
            out: &mut Vec<(Vec<EdgeId>, f64)>,
        ) {
            if at == t {
                out.push((cur.clone(), cost));
                return;
            }
            for &e in g.out_edges(at) {
                let v = g.dst(e);
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    cur.push(e);
                    dfs(g, v, t, seen, cur, cost + g.weight(e), out);
                    cur.pop();
                    seen[v.index()] = false;
                }
            }
        }
        let mut seen = vec![false; g.node_count()];
        seen[s.index()] = true;
        dfs(g, s, t, &mut seen, &mut Vec::new(), 0.0, &mut paths);
        let mut best: Option<f64> = None;
        for i in 0..paths.len() {
            for j in 0..paths.len() {
                if i == j {
                    continue;
                }
                let disjoint = paths[i].0.iter().all(|e| !paths[j].0.contains(e));
                if disjoint {
                    let tot = paths[i].1 + paths[j].1;
                    best = Some(best.map_or(tot, |b: f64| b.min(tot)));
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let n = rng.gen_range(4..8);
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.45) {
                        arcs.push((u, v, rng.gen_range(1..20) as f64));
                    }
                }
            }
            let g = DiGraph::weighted(n as usize, &arcs);
            let s = NodeId(0);
            let t = NodeId(n - 1);
            let ours = edge_disjoint_pair(&g, s, t, |e| g.weight(e));
            let brute = brute_force_best_pair(&g, s, t);
            match (ours, brute) {
                (None, None) => {}
                (Some(pair), Some(best)) => {
                    assert!(
                        (pair.total_cost - best).abs() < 1e-9,
                        "trial {trial}: suurballe {} vs brute {best}",
                        pair.total_cost
                    );
                    assert!(pair.is_edge_disjoint());
                }
                (ours, brute) => panic!("trial {trial}: existence mismatch {ours:?} vs {brute:?}"),
            }
        }
    }

    #[test]
    fn suurballe_solves_the_trap() {
        // Trap: the single shortest path 0-1-2-3 (3) uses both edges a
        // second path would need, so removing it leaves no path (the greedy
        // two-step baseline fails here), while a disjoint pair exists.
        let g = DiGraph::weighted(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 2, 10.0),
                (1, 3, 10.0),
            ],
        );
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert!(pair.is_edge_disjoint());
        // Pair must be {0-1-3, 0-2-3} with total 22.
        assert_eq!(pair.total_cost, 22.0);
    }

    #[test]
    fn no_pair_in_bridge_graph() {
        // All routes share the bridge 1 -> 2.
        let g = DiGraph::weighted(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 1, 2.0),
                (2, 3, 2.0),
            ],
        );
        assert!(edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).is_none());
    }

    #[test]
    fn parallel_edges_form_a_pair() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 3.0);
        let pair = edge_disjoint_pair(&g, a, b, |e| g.weight(e)).unwrap();
        assert_eq!(pair.total_cost, 4.0);
        assert!(pair.is_edge_disjoint());
        assert_eq!(pair.paths[0].cost(|e| g.weight(e)), 1.0);
    }

    #[test]
    fn source_equals_target_is_none() {
        let g = DiGraph::weighted(2, &[(0, 1, 1.0)]);
        assert!(edge_disjoint_pair(&g, NodeId(0), NodeId(0), |e| g.weight(e)).is_none());
    }

    #[test]
    fn cheaper_path_listed_first() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)]);
        let pair = edge_disjoint_pair(&g, NodeId(0), NodeId(3), |e| g.weight(e)).unwrap();
        assert!(pair.paths[0].cost(|e| g.weight(e)) <= pair.paths[1].cost(|e| g.weight(e)));
    }
}
