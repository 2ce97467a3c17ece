//! Graph traversal utilities: strongly connected components (Tarjan), and
//! local edge connectivity by BFS augmentation — the 2-edge-connectivity
//! probe that checks generated WAN topologies support robust routing
//! between all node pairs, and the two-path check that decides MinCog's
//! threshold rungs.

use crate::{DiGraph, EdgeId, NodeId};

/// Whether every node can reach every other node (strong connectivity).
pub fn is_strongly_connected<N, E>(g: &DiGraph<N, E>) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    strongly_connected_components(g).len() == 1
}

/// Tarjan's strongly connected components (iterative). Returns the list of
/// components, each a list of nodes; components appear in reverse
/// topological order of the condensation.
pub fn strongly_connected_components<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut components = Vec::new();

    // Explicit DFS stack: (node, out-edge cursor).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            let out = g.out_edges(NodeId(v));
            if *cursor < out.len() {
                let e = out[*cursor];
                *cursor += 1;
                let w = g.dst(e).0;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("root still on stack");
                        on_stack[w as usize] = false;
                        comp.push(NodeId(w));
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// Max number of edge-disjoint `s -> t` paths (local edge connectivity).
/// `robust routing between (s, t)` is feasible iff this is ≥ 2.
pub fn edge_connectivity<N, E>(g: &DiGraph<N, E>, s: NodeId, t: NodeId) -> usize {
    edge_connectivity_filtered(g, s, t, usize::MAX, |_| true)
}

/// Number of edge-disjoint `s -> t` paths over the edges `filter` accepts,
/// capped at `cap`: a unit-capacity max-flow by at most `cap` BFS
/// augmentations, each `O(n + m)`. Parallel edges count separately. An
/// edge carrying flow is crossed backwards regardless of `filter`, so
/// `filter` is asked only about unused edges, lazily as the searches reach
/// them (possibly more than once per edge, so it must be pure).
pub fn edge_connectivity_filtered<N, E>(
    g: &DiGraph<N, E>,
    s: NodeId,
    t: NodeId,
    cap: usize,
    mut filter: impl FnMut(EdgeId) -> bool,
) -> usize {
    const UNSEEN: u32 = u32::MAX;
    if s == t {
        return 0;
    }
    let mut used = vec![false; g.edge_count()];
    // Per node: the edge the current search reached it by.
    let mut via = vec![UNSEEN; g.node_count()];
    let mut queue: Vec<NodeId> = Vec::with_capacity(g.node_count());
    let mut flow = 0;
    while flow < cap {
        via.fill(UNSEEN);
        // `s` is marked seen with a value no edge id reaches as a sentinel.
        via[s.index()] = UNSEEN - 1;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        'bfs: while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &e in g.out_edges(u) {
                let v = g.dst(e);
                if via[v.index()] == UNSEEN && !used[e.index()] && filter(e) {
                    via[v.index()] = e.0;
                    if v == t {
                        break 'bfs;
                    }
                    queue.push(v);
                }
            }
            for &e in g.in_edges(u) {
                let v = g.src(e);
                if via[v.index()] == UNSEEN && used[e.index()] {
                    via[v.index()] = e.0;
                    queue.push(v);
                }
            }
        }
        if via[t.index()] == UNSEEN {
            break;
        }
        // Walk the augmenting path back from `t`: an unused edge was
        // crossed forwards and now carries flow; a used one was crossed
        // backwards and is freed.
        let mut v = t;
        while v != s {
            let e = EdgeId(via[v.index()]);
            used[e.index()] = !used[e.index()];
            v = if used[e.index()] { g.src(e) } else { g.dst(e) };
        }
        flow += 1;
    }
    flow
}

/// Whether every ordered pair of distinct nodes admits ≥ 2 edge-disjoint
/// paths (the precondition for robust routing to always be feasible).
/// O(n² · (n + m)); intended for topology validation, not hot paths.
pub fn is_two_edge_connected<N, E>(g: &DiGraph<N, E>) -> bool {
    let n = g.node_count();
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (NodeId::from(s), NodeId::from(t));
            if s != t && edge_connectivity_filtered(g, s, t, 2, |_| true) < 2 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincostflow::MinCostFlow;
    use crate::suurballe::edge_disjoint_pair_filtered;
    use crate::DiGraph;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn tarjan_finds_components() {
        // Two 2-cycles joined by a one-way bridge, plus an isolated node.
        let g = DiGraph::weighted(
            5,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        );
        let mut comps: Vec<Vec<u32>> = strongly_connected_components(&g)
            .into_iter()
            .map(|c| {
                let mut v: Vec<u32> = c.into_iter().map(|n| n.0).collect();
                v.sort();
                v
            })
            .collect();
        comps.sort();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn scc_on_strongly_connected_ring() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn edge_connectivity_counts_disjoint_paths() {
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)]);
        assert_eq!(edge_connectivity(&g, NodeId(0), NodeId(3)), 2);
        let chain = DiGraph::weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(edge_connectivity(&chain, NodeId(0), NodeId(2)), 1);
    }

    #[test]
    fn two_edge_connected_probe() {
        // Bidirected 4-ring: every pair has 2 edge-disjoint routes.
        let mut arcs = Vec::new();
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            arcs.push((i, j, 1.0));
            arcs.push((j, i, 1.0));
        }
        let ring = DiGraph::weighted(4, &arcs);
        assert!(is_two_edge_connected(&ring));
        let chain = DiGraph::weighted(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(!is_two_edge_connected(&chain));
    }

    /// The unit-capacity `MinCostFlow` value over the edges `keep` accepts:
    /// the independent oracle for the BFS augmentation.
    fn mcf_connectivity(g: &DiGraph<(), f64>, s: NodeId, t: NodeId, keep: &[bool]) -> usize {
        let mut mcf = MinCostFlow::new(g.node_count());
        for e in g.edge_ids().filter(|e| keep[e.index()]) {
            let (u, v) = g.endpoints(e);
            mcf.add_arc(u, v, 1, 0.0, Some(e));
        }
        mcf.solve(s, t, i64::MAX >> 1).flow as usize
    }

    /// Asserts both oracles agree with the capped BFS flow on `(g, keep)`.
    fn check_two_path_oracles(g: &DiGraph<(), f64>, s: NodeId, t: NodeId, keep: &[bool]) {
        let k = edge_connectivity_filtered(g, s, t, 2, |e| keep[e.index()]);
        assert!(k <= 2);
        assert_eq!(k, mcf_connectivity(g, s, t, keep).min(2), "MinCostFlow");
        let pair = edge_disjoint_pair_filtered(g, s, t, |e| g.weight(e), |e| keep[e.index()]);
        assert_eq!(k == 2, pair.is_some(), "Suurballe");
        let uncapped = edge_connectivity_filtered(g, s, t, usize::MAX, |e| keep[e.index()]);
        assert_eq!(uncapped, mcf_connectivity(g, s, t, keep), "uncapped");
    }

    #[test]
    fn two_path_check_handles_arcs_at_the_terminals() {
        // Walks may re-enter `s` (`1 -> 0`, `t -> s`) or leave `t`
        // (`3 -> 2`), and both terminals carry self-loops; none of that adds
        // a path: every route into `t` crosses the one `1 -> 3` arc.
        let arcs = [
            (0, 1, 1.0),
            (1, 3, 1.0),
            (3, 0, 1.0),
            (1, 0, 1.0),
            (3, 2, 1.0),
            (0, 0, 1.0),
            (3, 3, 1.0),
            (0, 2, 1.0),
            (2, 1, 1.0),
        ];
        let g = DiGraph::weighted(4, &arcs);
        let (s, t) = (NodeId(0), NodeId(3));
        assert_eq!(edge_connectivity_filtered(&g, s, t, 2, |_| true), 1);
        check_two_path_oracles(&g, s, t, &vec![true; g.edge_count()]);
        // A parallel `1 -> 3` arc makes the pair 0-1-3 / 0-2-1-3.
        let mut arcs2 = arcs.to_vec();
        arcs2.push((1, 3, 1.0));
        let g2 = DiGraph::weighted(4, &arcs2);
        assert_eq!(edge_connectivity_filtered(&g2, s, t, 2, |_| true), 2);
        check_two_path_oracles(&g2, s, t, &vec![true; g2.edge_count()]);
        // Filtering the parallel arc out drops it back to one path.
        let mut keep = vec![true; g2.edge_count()];
        keep[g2.edge_count() - 1] = false;
        assert_eq!(
            edge_connectivity_filtered(&g2, s, t, 2, |e| keep[e.index()]),
            1
        );
        check_two_path_oracles(&g2, s, t, &keep);
    }

    #[test]
    fn second_augmentation_cancels_flow_on_a_shared_edge() {
        // BFS's first path 0-1-2-3 uses the shortcut 1 -> 2, which both
        // disjoint routes 0-1-4-3 / 0-5-2-3 avoid: the second augmentation
        // must cross it backwards (0-5-2, back to 1, then 1-4-3).
        let g = DiGraph::weighted(
            6,
            &[
                (0, 1, 1.0),
                (0, 5, 1.0),
                (1, 2, 1.0),
                (1, 4, 1.0),
                (2, 3, 1.0),
                (4, 3, 1.0),
                (5, 2, 1.0),
            ],
        );
        let (s, t) = (NodeId(0), NodeId(3));
        let mut keep = vec![true; g.edge_count()];
        assert_eq!(edge_connectivity_filtered(&g, s, t, 1, |_| true), 1);
        assert_eq!(edge_connectivity_filtered(&g, s, t, 2, |_| true), 2);
        check_two_path_oracles(&g, s, t, &keep);
        keep[3] = false; // 1 -> 4
        assert_eq!(
            edge_connectivity_filtered(&g, s, t, 2, |e| keep[e.index()]),
            1
        );
        check_two_path_oracles(&g, s, t, &keep);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random multigraphs (parallel and antiparallel arcs, loops,
        /// arcs into `s` and out of `t`) under random link filters, the
        /// capped BFS flow equals the unit `MinCostFlow` value capped at 2
        /// and Suurballe's pair/no-pair verdict.
        #[test]
        fn capped_flow_matches_min_cost_flow_and_suurballe(seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..9u32);
            let mut arcs = Vec::new();
            for _ in 0..rng.gen_range(0..4 * n) {
                arcs.push((rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..9) as f64));
            }
            // Duplicate a few arcs so parallel edges are common.
            for i in 0..arcs.len().min(3) {
                if rng.gen_bool(0.5) {
                    arcs.push(arcs[i]);
                }
            }
            let g = DiGraph::weighted(n as usize, &arcs);
            let keep: Vec<bool> = (0..g.edge_count()).map(|_| rng.gen_bool(0.8)).collect();
            let s = NodeId(rng.gen_range(0..n));
            let t = NodeId(rng.gen_range(0..n));
            if s == t {
                prop_assert_eq!(edge_connectivity_filtered(&g, s, t, 2, |_| true), 0);
            } else {
                check_two_path_oracles(&g, s, t, &keep);
            }
        }
    }
}
