//! Baseline routing policies the evaluation compares the paper's algorithms
//! against.
//!
//! * [`two_step_pair`] — greedy: optimal semilightpath, delete its links,
//!   optimal semilightpath again. Fails on trap topologies and is
//!   suboptimal in general, but is what naive implementations do.
//! * [`suurballe_unrefined`] — the §3.3 pipeline *without* the Lemma 2
//!   refinement: auxiliary paths get a greedy first-fit wavelength
//!   assignment instead of the Liang–Shen optimum. Quantifies how much the
//!   refinement buys.
//! * [`ksp_pair`] — scan Yen's k cheapest physical paths (by minimum
//!   per-link wavelength cost) for the best edge-disjoint combination, then
//!   assign wavelengths per leg.
//! * [`primary_only`] — a single unprotected semilightpath (the *passive*
//!   recovery approach of the introduction: re-route only after a failure).

use crate::aux_graph::{AuxGraph, AuxSpec};
use crate::error::RoutingError;
use crate::network::{ResidualState, WdmNetwork};
use crate::optimal_slp::{
    assign_wavelengths_on_path, optimal_semilightpath, optimal_semilightpath_filtered,
};
use crate::semilightpath::{Hop, RobustRoute, Semilightpath};
use wdm_graph::{EdgeId, NodeId};

/// Greedy two-step baseline: best semilightpath, remove its physical links,
/// best semilightpath again.
pub fn two_step_pair(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
) -> Result<RobustRoute, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let first = optimal_semilightpath(net, state, s, t)
        .ok_or(RoutingError::Unreachable { src: s, dst: t })?;
    let mut banned = vec![false; net.link_count()];
    for e in first.edges() {
        banned[e.index()] = true;
    }
    let second = optimal_semilightpath_filtered(net, state, s, t, |e| !banned[e.index()])
        .ok_or(RoutingError::NoDisjointPair)?;
    Ok(RobustRoute::ordered(first, second))
}

/// §3.3 without refinement: Suurballe on `G'`, then greedy first-fit
/// wavelengths along each auxiliary path (minimising each hop's immediate
/// cost given the previous hop's wavelength).
pub fn suurballe_unrefined(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
) -> Result<RobustRoute, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let aux = AuxGraph::build(net, state, s, t, AuxSpec::g_prime());
    let pair = aux.disjoint_pair().ok_or(RoutingError::NoDisjointPair)?;
    let a = greedy_assign(net, state, s, &aux.physical_edges(&pair.paths[0]))?;
    let b = greedy_assign(net, state, s, &aux.physical_edges(&pair.paths[1]))?;
    Ok(RobustRoute::ordered(a, b))
}

/// Greedy per-hop wavelength choice: minimise `conversion + traversal` at
/// each hop given the previous wavelength (no lookahead).
fn greedy_assign(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    edges: &[EdgeId],
) -> Result<Semilightpath, RoutingError> {
    if edges.is_empty() {
        return Err(RoutingError::RefinementInfeasible);
    }
    let mut hops: Vec<Hop> = Vec::with_capacity(edges.len());
    let mut prev: Option<Hop> = None;
    for &e in edges {
        let (u, _) = net.endpoints(e);
        let avail = state.avail(net, e);
        let mut best: Option<(f64, Hop)> = None;
        for l in avail.iter() {
            let step = match prev {
                None => Some(net.link_cost(e, l)),
                Some(p) => net
                    .conversion_cost(u, p.wavelength, l)
                    .map(|cc| cc + net.link_cost(e, l)),
            };
            if let Some(c) = step {
                if best.is_none() || c < best.as_ref().expect("set").0 {
                    best = Some((
                        c,
                        Hop {
                            edge: e,
                            wavelength: l,
                        },
                    ));
                }
            }
        }
        let (_, hop) = best.ok_or(RoutingError::RefinementInfeasible)?;
        hops.push(hop);
        prev = Some(hop);
    }
    Semilightpath::new(net, s, hops).map_err(|_| RoutingError::RefinementInfeasible)
}

/// k-shortest-paths baseline: Yen over the physical graph weighted by each
/// link's *minimum available* wavelength cost, then the best edge-disjoint
/// pair among the k list with per-leg optimal wavelength assignment.
pub fn ksp_pair(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    k: usize,
) -> Result<RobustRoute, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let cost = |e: EdgeId| -> f64 {
        state
            .avail(net, e)
            .iter()
            .map(|l| net.link_cost(e, l))
            .fold(f64::INFINITY, f64::min)
    };
    // Drop unavailable links entirely by giving Yen a filtered view: since
    // yen lacks a filter parameter, embed the ban as infinite cost and prune
    // any path containing one.
    let paths = wdm_graph::ksp::yen_k_shortest(net.graph(), s, t, k, |e| {
        let c = cost(e);
        if c.is_finite() {
            c
        } else {
            1e18
        }
    });
    let mut best: Option<(f64, RobustRoute)> = None;
    for i in 0..paths.len() {
        for j in (i + 1)..paths.len() {
            if paths[i].shares_edge_with(&paths[j]) {
                continue;
            }
            let Some(a) = assign_wavelengths_on_path(net, state, s, &paths[i].edges) else {
                continue;
            };
            let Some(b) = assign_wavelengths_on_path(net, state, s, &paths[j].edges) else {
                continue;
            };
            let tot = a.cost + b.cost;
            if best.as_ref().is_none_or(|(bc, _)| tot < *bc) {
                best = Some((tot, RobustRoute::ordered(a, b)));
            }
        }
    }
    best.map(|(_, r)| r).ok_or(RoutingError::NoDisjointPair)
}

/// Unprotected single route (the passive approach's provisioning step).
pub fn primary_only(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
) -> Result<Semilightpath, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    optimal_semilightpath(net, state, s, t).ok_or(RoutingError::Unreachable { src: s, dst: t })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::disjoint::RobustRouteFinder;
    use crate::network::NetworkBuilder;
    use crate::wavelength::WavelengthSet;

    fn trap() -> WdmNetwork {
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[2], 1.0);
        b.add_link(n[2], n[3], 1.0);
        b.add_link(n[0], n[2], 10.0);
        b.add_link(n[1], n[3], 10.0);
        b.build()
    }

    #[test]
    fn two_step_fails_on_trap_but_paper_algorithm_succeeds() {
        let net = trap();
        let st = ResidualState::fresh(&net);
        assert_eq!(
            two_step_pair(&net, &st, NodeId(0), NodeId(3)).unwrap_err(),
            RoutingError::NoDisjointPair
        );
        assert!(RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(3))
            .is_ok());
    }

    #[test]
    fn two_step_succeeds_on_diamond() {
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[3], 1.0);
        b.add_link(n[0], n[2], 2.0);
        b.add_link(n[2], n[3], 2.0);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let r = two_step_pair(&net, &st, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.total_cost(), 6.0);
        assert!(r.is_edge_disjoint());
    }

    #[test]
    fn unrefined_never_beats_refined() {
        // Per-wavelength costs where greedy first-fit is led astray: hop 1
        // cheap on λ0, but hop 2 only reachable cheaply from λ1.
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..3)
            .map(|_| b.add_node(ConversionTable::Full { cost: 5.0 }))
            .collect();
        b.add_link_per_lambda(n[0], n[1], WavelengthSet::full(2), vec![1.0, 1.2]);
        b.add_link_per_lambda(n[1], n[2], WavelengthSet::full(2), vec![9.0, 1.2]);
        // Second corridor for disjointness.
        b.add_link(n[0], n[2], 30.0);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let refined = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(2))
            .unwrap();
        let unrefined = suurballe_unrefined(&net, &st, NodeId(0), NodeId(2)).unwrap();
        assert!(refined.total_cost() <= unrefined.total_cost() + 1e-9);
        // Greedy takes λ0 (1.0) then pays min(conv 5 + 1.2, stay 9) = 6.2;
        // the DP takes λ1 throughout: 1.2 + 1.2 = 2.4.
        assert!((unrefined.total_cost() - (1.0 + 6.2 + 30.0)).abs() < 1e-9);
        assert!((refined.total_cost() - (2.4 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn ksp_pair_finds_trap_solution_with_enough_k() {
        let net = trap();
        let st = ResidualState::fresh(&net);
        assert!(ksp_pair(&net, &st, NodeId(0), NodeId(3), 2).is_err());
        let r = ksp_pair(&net, &st, NodeId(0), NodeId(3), 6).unwrap();
        assert!(r.is_edge_disjoint());
        // Both legs are 2-hop (11 each), wavelength-continuous: total 22.
        assert!((r.total_cost() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn primary_only_routes_or_reports() {
        let net = trap();
        let st = ResidualState::fresh(&net);
        let p = primary_only(&net, &st, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.cost, 3.0);
        assert!(matches!(
            primary_only(&net, &st, NodeId(3), NodeId(0)),
            Err(RoutingError::Unreachable { .. })
        ));
    }
}
