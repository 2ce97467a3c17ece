//! The networks the workloads run on.
//!
//! Random WANs come from `wdm_graph::topology::random_connected` (a random
//! spanning tree plus random extra links, lengths uniform in 1..10) with
//! full wavelength conversion at cost 0.5. A topology with a bridge would
//! block every pair across it for structural reasons alone, so the
//! generator walks the topology seed forward until it finds a bridgeless
//! one.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::conversion::ConversionTable;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::wavelength::Wavelength;
use wdm_graph::{DiGraph, EdgeId};

/// NSFNET (14 nodes, 21 fibres) with `w` wavelengths.
pub fn nsfnet(w: usize) -> WdmNetwork {
    NetworkBuilder::nsfnet(w).build()
}

/// A bridgeless random connected WAN with `n` nodes, average degree
/// `degree` and `w` wavelengths, drawn from `seed` (or the first seed after
/// it whose topology is bridgeless).
pub fn random_wan(n: usize, degree: usize, w: usize, seed: u64) -> WdmNetwork {
    let links = n * degree / 2;
    let topo = (seed..)
        .map(|s| {
            let mut rng = ChaCha8Rng::seed_from_u64(s);
            wdm_graph::topology::random_connected(n, links, 1.0..10.0, &mut rng)
        })
        .find(bridgeless)
        .expect("some seed yields a bridgeless topology");
    NetworkBuilder::from_topology(&topo, w, ConversionTable::Full { cost: 0.5 }, 1.0).build()
}

/// A state in which `busy` randomly chosen channels of every link are
/// occupied: long-lived background lightpaths of other services, which
/// the workload's own connections route around.
pub fn background(net: &WdmNetwork, busy: usize, seed: u64) -> ResidualState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut st = ResidualState::fresh(net);
    for e in 0..net.link_count() {
        let e = EdgeId(e as u32);
        let mut free: Vec<Wavelength> = net.lambda(e).iter().collect();
        for _ in 0..busy.min(free.len()) {
            let l = free.swap_remove(rng.gen_range(0..free.len()));
            st.occupy(net, e, l).expect("free channel");
        }
    }
    st
}

/// Whether the undirected topology under a bidirected graph stays
/// connected after removing any single fibre (both of its arcs).
fn bridgeless(g: &DiGraph<(), f64>) -> bool {
    let n = g.node_count();
    let mut fibres: Vec<(u32, u32)> = g
        .edge_ids()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (u.0.min(v.0), u.0.max(v.0))
        })
        .collect();
    fibres.sort_unstable();
    fibres.dedup();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in &fibres {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    fibres.iter().all(|&cut| {
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u as usize] {
                let edge = (u.min(v), u.max(v));
                if edge != cut && !seen[v as usize] {
                    seen[v as usize] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        reached == n
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bridgeless_and_a_path_is_not() {
        let ring = wdm_graph::topology::ring(5, 1.0);
        assert!(bridgeless(&ring));
        let path = wdm_graph::topology::bidirect(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(!bridgeless(&path));
    }

    #[test]
    fn background_occupies_the_asked_channels_on_every_link() {
        let net = nsfnet(16);
        let st = background(&net, 12, 3);
        for e in 0..net.link_count() {
            assert_eq!(st.used_count(EdgeId(e as u32)), 12);
        }
        assert!((st.network_load(&net) - 0.75).abs() < 1e-12);
        assert_eq!(st, background(&net, 12, 3));
        assert_ne!(st, background(&net, 12, 4));
    }

    #[test]
    fn random_wans_are_reproducible() {
        let a = random_wan(40, 4, 8, 11);
        let b = random_wan(40, 4, 8, 11);
        assert_eq!(a.node_count(), 40);
        assert_eq!(a.link_count(), 160, "80 fibres, two arcs each");
        assert_eq!(a.link_count(), b.link_count());
        for e in 0..a.link_count() {
            let e = wdm_graph::EdgeId(e as u32);
            assert_eq!(a.endpoints(e), b.endpoints(e));
        }
    }
}
