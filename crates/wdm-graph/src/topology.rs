//! Wide-area network topology generators.
//!
//! The paper targets WANs; its era's evaluation standard (and that of the
//! works it cites: Mohan–Somani, Mokhtar–Azizoglu, Kodialam–Lakshman) is the
//! 14-node NSFNET backbone, ARPANET-like meshes, and random Waxman /
//! Erdős–Rényi graphs. All generators return *directed* graphs where each
//! undirected fibre is a pair of anti-parallel arcs with the fibre length
//! (km) as payload — the WDM model layers wavelength data on top of these.

use crate::{DiGraph, NodeId};
use rand::Rng;

/// Builds a bidirected graph from an undirected link list
/// `(u, v, length)` — every link becomes two anti-parallel arcs.
pub fn bidirect(n: usize, links: &[(u32, u32, f64)]) -> DiGraph<(), f64> {
    let mut g = DiGraph::with_capacity(n, links.len() * 2);
    for _ in 0..n {
        g.add_node(());
    }
    for &(u, v, w) in links {
        g.add_edge(NodeId(u), NodeId(v), w);
        g.add_edge(NodeId(v), NodeId(u), w);
    }
    g
}

/// The classic 14-node, 21-link NSFNET T1 backbone with fibre lengths in km
/// (the standard WDM evaluation topology).
pub fn nsfnet() -> DiGraph<(), f64> {
    // Nodes: 0 WA, 1 CA-1, 2 CA-2, 3 UT, 4 CO, 5 TX, 6 NE, 7 IL, 8 PA,
    //        9 GA, 10 MI, 11 NY, 12 NJ, 13 DC (one common labelling).
    bidirect(
        14,
        &[
            (0, 1, 1100.0),
            (0, 2, 1600.0),
            (0, 7, 2800.0),
            (1, 2, 600.0),
            (1, 3, 1000.0),
            (2, 5, 2000.0),
            (3, 4, 600.0),
            (3, 10, 2400.0),
            (4, 5, 1100.0),
            (4, 6, 800.0),
            (5, 9, 1200.0),
            (5, 12, 2000.0),
            (6, 7, 700.0),
            (7, 8, 700.0),
            (8, 9, 900.0),
            (8, 11, 500.0),
            (8, 13, 500.0),
            (10, 11, 800.0),
            (10, 13, 800.0),
            (11, 12, 300.0),
            (12, 13, 300.0),
        ],
    )
}

/// A 20-node ARPANET-like continental mesh (average degree ≈ 3.1), used as
/// the second fixed WAN topology in the dynamic-traffic experiments.
pub fn arpanet_like() -> DiGraph<(), f64> {
    bidirect(
        20,
        &[
            (0, 1, 700.0),
            (0, 2, 1100.0),
            (1, 3, 800.0),
            (2, 3, 950.0),
            (2, 4, 1200.0),
            (3, 5, 1000.0),
            (4, 5, 850.0),
            (4, 6, 900.0),
            (5, 7, 1100.0),
            (6, 7, 700.0),
            (6, 8, 800.0),
            (7, 9, 950.0),
            (8, 9, 600.0),
            (8, 10, 900.0),
            (9, 11, 850.0),
            (10, 11, 700.0),
            (10, 12, 1000.0),
            (11, 13, 900.0),
            (12, 13, 650.0),
            (12, 14, 800.0),
            (13, 15, 750.0),
            (14, 15, 600.0),
            (14, 16, 900.0),
            (15, 17, 850.0),
            (16, 17, 700.0),
            (16, 18, 750.0),
            (17, 19, 800.0),
            (18, 19, 600.0),
            (1, 6, 1500.0),
            (5, 10, 1400.0),
            (9, 14, 1300.0),
            (13, 18, 1350.0),
        ],
    )
}

/// A bidirected ring of `n` nodes (unit lengths scaled by `length`).
/// Rings are the minimal 2-edge-connected topology: exactly one disjoint
/// pair exists per node pair, making them useful worst cases.
pub fn ring(n: usize, length: f64) -> DiGraph<(), f64> {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let links: Vec<(u32, u32, f64)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32, length))
        .collect();
    bidirect(n, &links)
}

/// A `w × h` bidirected grid; `wrap` makes it a torus. Unit edge lengths
/// scaled by `length`.
pub fn grid(w: usize, h: usize, wrap: bool, length: f64) -> DiGraph<(), f64> {
    assert!(w >= 2 && h >= 2, "grid needs at least 2x2");
    let id = |x: usize, y: usize| (y * w + x) as u32;
    let mut links = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                links.push((id(x, y), id(x + 1, y), length));
            } else if wrap && w > 2 {
                links.push((id(x, y), id(0, y), length));
            }
            if y + 1 < h {
                links.push((id(x, y), id(x, y + 1), length));
            } else if wrap && h > 2 {
                links.push((id(x, y), id(x, 0), length));
            }
        }
    }
    bidirect(w * h, &links)
}

/// Waxman random WAN: `n` nodes placed uniformly in a `extent × extent`
/// square; link `(u, v)` exists with probability
/// `alpha * exp(-dist(u, v) / (beta * L))` where `L` is the maximum possible
/// distance. Lengths are Euclidean distances. The classic WAN synthesiser
/// (Waxman 1988).
pub fn waxman(
    n: usize,
    alpha: f64,
    beta: f64,
    extent: f64,
    rng: &mut impl Rng,
) -> DiGraph<(), f64> {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
        .collect();
    let max_d = (2.0f64).sqrt() * extent;
    let mut links = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let d = ((pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2)).sqrt();
            if rng.gen_bool((alpha * (-d / (beta * max_d)).exp()).clamp(0.0, 1.0)) {
                links.push((u as u32, v as u32, d.max(1.0)));
            }
        }
    }
    bidirect(n, &links)
}

/// Random connected graph with `n` nodes and exactly `m ≥ n - 1` undirected
/// links: a random spanning tree plus random extra links. Guaranteed
/// connected, useful for scaling sweeps with a controlled edge budget.
pub fn random_connected(
    n: usize,
    m: usize,
    len_range: std::ops::Range<f64>,
    rng: &mut impl Rng,
) -> DiGraph<(), f64> {
    assert!(m + 1 >= n, "need at least n-1 links for connectivity");
    let mut links = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    // Random attachment tree over a shuffled order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for i in 1..n {
        let u = order[i];
        let v = order[rng.gen_range(0..i)];
        let key = (u.min(v), u.max(v));
        seen.insert(key);
        links.push((key.0, key.1, rng.gen_range(len_range.clone())));
    }
    let max_links = n * (n - 1) / 2;
    let m = m.min(max_links);
    while links.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            links.push((key.0, key.1, rng.gen_range(len_range.clone())));
        }
    }
    bidirect(n, &links)
}

/// A ladder of `k` rungs between `s = 0` and `t = 2k + 1`: every rung offers
/// two parallel corridors, so the number of `s → t` simple paths grows as
/// `2^k`. This is the exhaustive-search stress family for the Lemma 1
/// hardness experiment (exact solvers blow up, the approximation does not).
pub fn ladder(k: usize, length: f64) -> DiGraph<(), f64> {
    assert!(k >= 1);
    // Nodes: 0 = s, then pairs (2i+1, 2i+2) for rung i, then t = 2k+1.
    let n = 2 * k + 2;
    let t = (2 * k + 1) as u32;
    let mut links = Vec::new();
    let mut prev_a = 0u32; // start: both corridors leave s
    let mut prev_b = 0u32;
    for i in 0..k {
        let a = (2 * i + 1) as u32;
        let b = (2 * i + 2) as u32;
        links.push((prev_a, a, length));
        links.push((prev_b, b, length));
        // Cross links make the corridors interchangeable per rung.
        links.push((a, b, length));
        prev_a = a;
        prev_b = b;
    }
    links.push((prev_a, t, length));
    links.push((prev_b, t, length));
    bidirect(n, &links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::{edge_connectivity, is_strongly_connected, is_two_edge_connected};
    use rand::SeedableRng;

    #[test]
    fn nsfnet_shape() {
        let g = nsfnet();
        assert_eq!(g.node_count(), 14);
        assert_eq!(g.edge_count(), 42); // 21 fibres, bidirected
        assert!(is_strongly_connected(&g));
        assert!(
            is_two_edge_connected(&g),
            "NSFNET must support robust routing everywhere"
        );
    }

    #[test]
    fn arpanet_like_shape() {
        let g = arpanet_like();
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 64);
        assert!(is_strongly_connected(&g));
        assert!(is_two_edge_connected(&g));
    }

    #[test]
    fn ring_has_exactly_two_disjoint_routes() {
        let g = ring(6, 100.0);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(edge_connectivity(&g, NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(3, 3, false, 1.0);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 24); // 12 undirected grid links
        assert!(is_strongly_connected(&g));
        let t = grid(3, 3, true, 1.0);
        assert_eq!(t.edge_count(), 36); // 18 torus links
        assert!(is_two_edge_connected(&t));
    }

    #[test]
    fn waxman_is_plausible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = waxman(30, 0.9, 0.3, 1000.0, &mut rng);
        assert_eq!(g.node_count(), 30);
        // Edge count is random but should be clearly nonzero at these params.
        assert!(
            g.edge_count() > 30,
            "suspiciously sparse waxman: {}",
            g.edge_count()
        );
        // All weights positive.
        for e in g.edge_ids() {
            assert!(g.weight(e) > 0.0);
        }
    }

    #[test]
    fn random_connected_is_connected_with_exact_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for n in [5usize, 12, 30] {
            let m = n + n / 2;
            let g = random_connected(n, m, 1.0..10.0, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), 2 * m);
            assert!(is_strongly_connected(&g));
        }
    }

    #[test]
    fn ladder_path_count_grows() {
        // Count simple 0 -> t paths by DFS for small k; must be >= 2^k.
        fn count_paths(g: &DiGraph<(), f64>, at: NodeId, t: NodeId, seen: &mut Vec<bool>) -> u64 {
            if at == t {
                return 1;
            }
            let mut total = 0;
            for &e in g.out_edges(at) {
                let v = g.dst(e);
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    total += count_paths(g, v, t, seen);
                    seen[v.index()] = false;
                }
            }
            total
        }
        for k in 1..5usize {
            let g = ladder(k, 1.0);
            let t = NodeId((2 * k + 1) as u32);
            let mut seen = vec![false; g.node_count()];
            seen[0] = true;
            let paths = count_paths(&g, NodeId(0), t, &mut seen);
            assert!(
                paths >= 1 << k,
                "ladder k={k} has only {paths} simple paths"
            );
        }
    }

    #[test]
    fn bidirect_builds_antiparallel_pairs() {
        let g = bidirect(2, &[(0, 1, 7.0)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(g.find_edge(NodeId(1), NodeId(0)).is_some());
    }
}
