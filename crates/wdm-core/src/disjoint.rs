//! The §3.3 approximation algorithm for the optimal edge-disjoint
//! semilightpath problem.
//!
//! Pipeline:
//! 1. build the auxiliary graph `G'` over the residual network;
//! 2. run Suurballe's algorithm (`Find_Two_Paths`) on `G'` from `s'` to
//!    `t''`, minimising the summed average-cost weights;
//! 3. map each auxiliary path `P_i` back to its induced physical subgraph
//!    `G_i` and run the Liang–Shen optimal-semilightpath algorithm inside it
//!    (the Lemma 2 refinement, which can only improve on the naive mapping
//!    and preserves edge-disjointness);
//! 4. the cheaper leg becomes the primary, the other the backup.
//!
//! Guarantees (under the paper's assumptions): Lemma 2 dominance over the
//! unrefined mapping, Theorem 1 running time, Theorem 2 cost within 2× of
//! the exact optimum when conversion at a node costs no more than any
//! incident link.

use crate::aux_engine::RouterCtx;
use crate::aux_graph::AuxSpec;
use crate::error::RoutingError;
use crate::network::{ResidualState, WdmNetwork};
use crate::optimal_slp::{assign_wavelengths_on_path, optimal_semilightpath_filtered};
use crate::semilightpath::{RobustRoute, Semilightpath};
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{Phase, Recorder, Tracer};

/// Diagnostics from one §3.3 run, used by the Lemma 2 / Theorem 2
/// experiments.
#[derive(Debug, Clone)]
pub struct DisjointDiagnostics {
    /// `ω(P_1) + ω(P_2)`: the Suurballe objective on `G'` — by Lemma 2 this
    /// equals the cost of the *unrefined* corresponding semilightpaths.
    pub aux_cost: f64,
    /// Cost after the Liang–Shen refinement (`C(P'_1) + C(P'_2)`).
    pub refined_cost: f64,
    /// Physical edges of the two auxiliary paths.
    pub aux_paths: [Vec<EdgeId>; 2],
}

/// The physical links a routing decision reserved channels on (sorted,
/// deduplicated) — what flight records report as a request's footprint.
#[derive(Debug, Clone, Default)]
pub struct RouteFootprint {
    /// Links the route traverses.
    pub links: Vec<EdgeId>,
}

impl RouteFootprint {
    /// Footprint of a §3.3 route pair: the links either leg traverses.
    pub fn of_route(route: &RobustRoute) -> Self {
        Self::of_links(route.primary.edges().chain(route.backup.edges()))
    }

    /// Footprint of an unprotected semilightpath.
    pub fn of_semilightpath(slp: &Semilightpath) -> Self {
        Self::of_links(slp.edges())
    }

    /// Footprint over an explicit link set.
    pub fn of_links(links: impl IntoIterator<Item = EdgeId>) -> Self {
        let mut links: Vec<EdgeId> = links.into_iter().collect();
        links.sort_unstable_by_key(|e| e.index());
        links.dedup();
        Self { links }
    }
}

/// The §3.3 route finder.
///
/// Internally it owns a [`RouterCtx`]: the network's auxiliary-graph
/// skeleton and the `G'` engine over it are built, and fully refreshed in
/// one pass, on the first [`RobustRouteFinder::find`]; subsequent requests
/// only refresh the links the residual state actually changed (and re-run
/// the searches in preallocated buffers), so a long-lived finder routes in
/// near-zero allocations per request. `find` therefore takes `&mut self`;
/// create one finder and reuse it.
///
/// ```
/// use wdm_core::prelude::*;
/// use wdm_graph::NodeId;
///
/// let net = NetworkBuilder::nsfnet(8).build();
/// let mut state = ResidualState::fresh(&net);
/// let route = RobustRouteFinder::new(&net)
///     .find(&state, NodeId(0), NodeId(13))
///     .expect("NSFNET is 2-edge-connected");
/// assert!(route.is_edge_disjoint());
/// route.occupy(&net, &mut state).unwrap();   // reserve the channels
/// assert!(state.network_load(&net) > 0.0);
/// route.release(&mut state);                 // tear down
/// assert_eq!(state.network_load(&net), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RobustRouteFinder<'a> {
    net: &'a WdmNetwork,
    ctx: RouterCtx,
}

impl<'a> RobustRouteFinder<'a> {
    /// Creates a finder over `net`.
    pub fn new(net: &'a WdmNetwork) -> Self {
        Self {
            net,
            ctx: RouterCtx::new(),
        }
    }

    /// Finds a primary + edge-disjoint backup semilightpath pair for the
    /// request `(s, t)` under the residual `state`.
    pub fn find(
        &mut self,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<RobustRoute, RoutingError> {
        self.find_with_diagnostics(state, s, t).map(|(r, _)| r)
    }

    /// [`RobustRouteFinder::find`] plus the Lemma 2 diagnostics.
    pub fn find_with_diagnostics(
        &mut self,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<(RobustRoute, DisjointDiagnostics), RoutingError> {
        robust_route_ctx(&mut self.ctx, self.net, state, s, t)
    }
}

/// The §3.3 pipeline over a caller-owned [`RouterCtx`] — the hot-path entry
/// point shared by [`RobustRouteFinder`], the simulator's cost-only policy
/// and the benchmarks.
pub fn robust_route_ctx<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
) -> Result<(RobustRoute, DisjointDiagnostics), RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let (pair, [phys_a, phys_b]) = ctx
        .disjoint_pair(net, state, s, t, AuxSpec::g_prime())
        .ok_or(RoutingError::NoDisjointPair)?;

    // The refine span covers the Lemma 2 refinement of both legs *and*
    // the route assembly below, so the serve-path trace tiles without a
    // gap between refinement and the commit handoff.
    let tracing = ctx.tracer().enabled();
    let refine_t0 = ctx.tracer().now_ns();
    let leg_a = refine_leg(net, state, s, t, &phys_a);
    let leg_b = refine_leg(net, state, s, t, &phys_b);
    let (leg_a, leg_b) = match (leg_a, leg_b) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            if tracing {
                ctx.tracer().record(Phase::Refine, refine_t0);
            }
            return Err(e);
        }
    };
    debug_assert!(
        !leg_a.shares_edge_with(&leg_b),
        "Lemma 2: refinement must preserve edge-disjointness"
    );
    let refined_cost = leg_a.cost + leg_b.cost;
    let route = RobustRoute::ordered(leg_a, leg_b);
    let result = (
        route,
        DisjointDiagnostics {
            aux_cost: pair.total_cost,
            refined_cost,
            aux_paths: [phys_a, phys_b],
        },
    );
    if tracing {
        ctx.tracer().record(Phase::Refine, refine_t0);
    }
    Ok(result)
}

/// Runs the Liang–Shen search restricted to the induced subgraph `G_i` of
/// one auxiliary path (its physical edge set).
pub(crate) fn refine_leg(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    phys_edges: &[EdgeId],
) -> Result<Semilightpath, RoutingError> {
    // The induced subgraph of an auxiliary s'-t'' path is a single physical
    // path, so the O(L·W²) DP suffices; fall back to the general filtered
    // search defensively (e.g. if the mapping ever produced a non-path set).
    if let Some(slp) = assign_wavelengths_on_path(net, state, s, phys_edges) {
        return Ok(slp);
    }
    let mut allowed = vec![false; net.link_count()];
    for &e in phys_edges {
        allowed[e.index()] = true;
    }
    optimal_semilightpath_filtered(net, state, s, t, |e| allowed[e.index()])
        .ok_or(RoutingError::RefinementInfeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::{Wavelength, WavelengthSet};

    /// Diamond with enough wavelengths for easy disjoint routing.
    fn diamond(w: usize, conv_cost: f64) -> WdmNetwork {
        let mut b = NetworkBuilder::new(w);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: conv_cost }))
            .collect();
        b.add_link(n[0], n[1], 1.0); // e0
        b.add_link(n[1], n[3], 1.0); // e1
        b.add_link(n[0], n[2], 2.0); // e2
        b.add_link(n[2], n[3], 2.0); // e3
        b.build()
    }

    #[test]
    fn finds_disjoint_pair_on_diamond() {
        let net = diamond(2, 0.5);
        let st = ResidualState::fresh(&net);
        let (route, diag) = RobustRouteFinder::new(&net)
            .find_with_diagnostics(&st, NodeId(0), NodeId(3))
            .unwrap();
        assert!(route.is_edge_disjoint());
        assert_eq!(route.primary.cost, 2.0);
        assert_eq!(route.backup.cost, 4.0);
        assert_eq!(route.total_cost(), 6.0);
        // G' charges each intermediate node the average conversion cost
        // (pairs (0,0)=0, (0,1)=.5, (1,0)=.5, (1,1)=0 -> 0.25), one per leg;
        // the refinement stays on one wavelength and drops both charges.
        assert!((diag.aux_cost - 6.5).abs() < 1e-9);
        assert!((diag.refined_cost - 6.0).abs() < 1e-9);
        assert!(diag.refined_cost <= diag.aux_cost, "Lemma 2");
        route.primary.validate(&net, &st).unwrap();
        route.backup.validate(&net, &st).unwrap();
    }

    #[test]
    fn rejects_degenerate_and_disconnected() {
        let net = diamond(2, 0.5);
        let st = ResidualState::fresh(&net);
        let mut f = RobustRouteFinder::new(&net);
        assert_eq!(
            f.find(&st, NodeId(0), NodeId(0)).unwrap_err(),
            RoutingError::DegenerateRequest
        );
        // Node 3 has no edges back to 0: no pair from 3 to 0.
        assert_eq!(
            f.find(&st, NodeId(3), NodeId(0)).unwrap_err(),
            RoutingError::NoDisjointPair
        );
    }

    #[test]
    fn trap_topology_resolved_through_aux_graph() {
        // Same trap as the plain-graph Suurballe test, now as a WDM net.
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[2], 1.0);
        b.add_link(n[2], n[3], 1.0);
        b.add_link(n[0], n[2], 10.0);
        b.add_link(n[1], n[3], 10.0);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let route = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(3))
            .unwrap();
        assert!(route.is_edge_disjoint());
        assert_eq!(route.total_cost(), 22.0);
    }

    #[test]
    fn refinement_beats_average_with_nonuniform_costs() {
        // Two parallel 1-hop corridors; each link has per-λ costs {1, 9}.
        // Average weight in G' is 5 per link, but refinement picks λ0 = 1.
        let mut b = NetworkBuilder::new(2);
        let n0 = b.add_node(ConversionTable::Full { cost: 0.0 });
        let n1 = b.add_node(ConversionTable::Full { cost: 0.0 });
        b.add_link_per_lambda(n0, n1, WavelengthSet::full(2), vec![1.0, 9.0]);
        b.add_link_per_lambda(n0, n1, WavelengthSet::full(2), vec![1.0, 9.0]);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let (route, diag) = RobustRouteFinder::new(&net)
            .find_with_diagnostics(&st, NodeId(0), NodeId(1))
            .unwrap();
        assert!((diag.aux_cost - 10.0).abs() < 1e-9);
        assert_eq!(diag.refined_cost, 2.0);
        assert!(diag.refined_cost <= diag.aux_cost, "Lemma 2");
        assert_eq!(route.total_cost(), 2.0);
        assert_eq!(route.primary.hops[0].wavelength, Wavelength(0));
    }

    #[test]
    fn wavelength_exhaustion_blocks_the_pair() {
        let net = diamond(1, 0.0); // single wavelength
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(1), Wavelength(0)).unwrap(); // kill top route
        let err = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(3))
            .unwrap_err();
        assert_eq!(err, RoutingError::NoDisjointPair);
    }

    #[test]
    fn respects_failed_links() {
        let net = diamond(2, 0.5);
        let mut st = ResidualState::fresh(&net);
        st.fail_link(EdgeId(0));
        let err = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(3))
            .unwrap_err();
        assert_eq!(err, RoutingError::NoDisjointPair);
        st.repair_link(EdgeId(0));
        assert!(RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(3))
            .is_ok());
    }

    #[test]
    fn parallel_fibres_form_a_pair() {
        let mut b = NetworkBuilder::new(2);
        let n0 = b.add_node(ConversionTable::Full { cost: 0.0 });
        let n1 = b.add_node(ConversionTable::Full { cost: 0.0 });
        b.add_link(n0, n1, 1.0);
        b.add_link(n0, n1, 4.0);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let route = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(1))
            .unwrap();
        assert!(route.is_edge_disjoint());
        assert_eq!(route.total_cost(), 5.0);
    }
}
