//! §4.2: optimising the network load *and* the routing cost together.
//!
//! Two phases:
//! 1. climb the threshold ladder of
//!    [`find_two_paths_mincog`](crate::mincog::find_two_paths_mincog) to
//!    the smallest feasible load threshold `ϑ`;
//! 2. rebuild the thresholded auxiliary graph as `G_rc(ϑ)` — same admitted
//!    links, but **cost** weights (average traversal over `|Λ_avail(e)|`,
//!    average conversion) — run Suurballe on it, and refine each path with
//!    the Liang–Shen algorithm.
//!
//! Phase 1 needs only the threshold, never MinCog's route. Its rungs are
//! decided by a two-path flow check on the admitted links (see
//! [`crate::mincog`]), so under full conversion it builds and searches no
//! `G_c` at all, and a request costs one Suurballe search, on `G_rc`. Under
//! restricted conversion each flow-feasible rung still searches `G_c` and
//! refines, because refinement can fail there.
//!
//! The result honours the load budget discovered in phase 1 while choosing
//! the cheapest pair among routes that fit it — the paper's headline
//! "network load and RWA considered simultaneously".

use crate::aux_engine::RouterCtx;
use crate::aux_graph::AuxSpec;
use crate::disjoint::refine_leg;
use crate::error::RoutingError;
use crate::mincog::{route_bottleneck_load, threshold_ladder};
use crate::network::{ResidualState, WdmNetwork};
use crate::semilightpath::RobustRoute;
use wdm_graph::NodeId;
use wdm_telemetry::{Recorder, Tracer};

/// Result of the §4.2 joint optimisation.
#[derive(Debug, Clone)]
pub struct JointOutcome {
    /// The load threshold accepted in phase 1.
    pub threshold: f64,
    /// The final (refined) route from phase 2.
    pub route: RobustRoute,
    /// Bottleneck prospective load over the final route's links.
    pub bottleneck_load: f64,
    /// Phase-1 threshold probes (ladder rungs decided).
    pub phase1_probes: usize,
}

/// Runs the two-phase §4.2 algorithm with exponential base `a` for phase 1.
pub fn find_two_paths_joint(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<JointOutcome, RoutingError> {
    find_two_paths_joint_with(&mut RouterCtx::new(), net, state, s, t, a, false)
}

/// [`find_two_paths_joint`] over a caller-owned [`RouterCtx`]: the cost
/// pass (and, under restricted conversion, the threshold search) runs on
/// incrementally maintained auxiliary-graph engines that persist across
/// requests, and the context carries MinCog's warm start.
pub fn find_two_paths_joint_ctx<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<JointOutcome, RoutingError> {
    find_two_paths_joint_with(ctx, net, state, s, t, a, false)
}

/// [`find_two_paths_joint`] with the §4.2 `G_rc` traversal weights exactly
/// as printed (`/N(e)` instead of `/|Λ_avail(e)|`). See
/// [`AuxSpec::g_rc_as_printed`]; used by the ablation experiment.
pub fn find_two_paths_joint_as_printed(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<JointOutcome, RoutingError> {
    find_two_paths_joint_with(&mut RouterCtx::new(), net, state, s, t, a, true)
}

/// [`find_two_paths_joint_as_printed`] over a caller-owned [`RouterCtx`].
pub fn find_two_paths_joint_as_printed_ctx<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<JointOutcome, RoutingError> {
    find_two_paths_joint_with(ctx, net, state, s, t, a, true)
}

fn find_two_paths_joint_with<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
    as_printed: bool,
) -> Result<JointOutcome, RoutingError> {
    // Phase 1: the minimal feasible threshold, from MinCog's ladder.
    let rung = threshold_ladder(ctx, net, state, s, t, a)?;
    let (threshold, phase1_probes) = (rung.threshold, rung.probes);

    // Phase 2: cheapest pair within the threshold (G_rc weights).
    let spec = if as_printed {
        AuxSpec::g_rc_as_printed(threshold)
    } else {
        AuxSpec::g_rc(threshold)
    };
    // G_rc admits exactly the links and conversion arcs G_c admitted at
    // this rung, which phase 1 proved carry a pair, so the pair search
    // cannot fail; the defensive fallback keeps the rung's G_c route.
    let route = match ctx.disjoint_pair(net, state, s, t, spec) {
        Some((_, [phys_a, phys_b])) => {
            let leg_a = refine_leg(net, state, s, t, &phys_a)?;
            let leg_b = refine_leg(net, state, s, t, &phys_b)?;
            RobustRoute::ordered(leg_a, leg_b)
        }
        None => {
            rung.into_pair(ctx, net, state, s, t, a)
                .ok_or(RoutingError::LoadSearchExhausted)?
                .0
        }
    };
    let bottleneck_load = route_bottleneck_load(net, state, &route);
    Ok(JointOutcome {
        threshold,
        route,
        bottleneck_load,
        phase1_probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::disjoint::RobustRouteFinder;
    use crate::network::NetworkBuilder;
    use crate::wavelength::Wavelength;
    use wdm_graph::EdgeId;

    /// Two cheap corridors plus one expensive corridor, W = 4.
    ///   0 -> 1 -> 4 (cost 1 + 1)
    ///   0 -> 2 -> 4 (cost 1.5 + 1.5)
    ///   0 -> 3 -> 4 (cost 10 + 10)
    fn corridors() -> WdmNetwork {
        let mut b = NetworkBuilder::new(4);
        let n: Vec<_> = (0..5)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0); // e0
        b.add_link(n[1], n[4], 1.0); // e1
        b.add_link(n[0], n[2], 1.5); // e2
        b.add_link(n[2], n[4], 1.5); // e3
        b.add_link(n[0], n[3], 10.0); // e4
        b.add_link(n[3], n[4], 10.0); // e5
        b.build()
    }

    #[test]
    fn picks_cheapest_within_load_budget() {
        let net = corridors();
        let st = ResidualState::fresh(&net);
        let out = find_two_paths_joint(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        // Fresh network: the two cheap corridors fit the minimal threshold.
        assert!(out.route.is_edge_disjoint());
        assert_eq!(out.route.total_cost(), 5.0);
        assert!((out.bottleneck_load - 0.25).abs() < 1e-9);
    }

    #[test]
    fn load_budget_overrides_cost_preference() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        // Load the cheapest corridor to 3/4: cost-only routing would still
        // take it, but the joint algorithm's phase 1 excludes it (a lighter
        // threshold admits corridors 2 and 3).
        for l in 0..3 {
            st.occupy(&net, EdgeId(0), Wavelength(l)).unwrap();
            st.occupy(&net, EdgeId(1), Wavelength(l)).unwrap();
        }
        let cost_only = RobustRouteFinder::new(&net)
            .find(&st, NodeId(0), NodeId(4))
            .unwrap();
        let joint = find_two_paths_joint(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        // Cost-only uses the loaded cheap corridor.
        assert!(cost_only
            .primary
            .edges()
            .chain(cost_only.backup.edges())
            .any(|e| e == EdgeId(0)));
        // Joint avoids it at the cost of a dearer route.
        let joint_edges: Vec<EdgeId> = joint
            .route
            .primary
            .edges()
            .chain(joint.route.backup.edges())
            .collect();
        assert!(!joint_edges.contains(&EdgeId(0)));
        assert!(joint.route.total_cost() > cost_only.total_cost());
        assert!(joint.bottleneck_load < 1.0);
    }

    #[test]
    fn phase2_prefers_cheap_among_equally_loaded() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        // Equal light load everywhere: phase 2 should pick the two cheapest
        // corridors, not the expensive one.
        for e in 0..6u32 {
            st.occupy(&net, EdgeId(e), Wavelength(0)).unwrap();
        }
        let out = find_two_paths_joint(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        let edges: Vec<EdgeId> = out
            .route
            .primary
            .edges()
            .chain(out.route.backup.edges())
            .collect();
        assert!(!edges.contains(&EdgeId(4)) && !edges.contains(&EdgeId(5)));
        assert_eq!(out.route.total_cost(), 5.0);
    }

    #[test]
    fn infeasible_requests_drop() {
        let net = corridors();
        let st = ResidualState::fresh(&net);
        // 4 -> 0 has no links at all.
        assert!(find_two_paths_joint(&net, &st, NodeId(4), NodeId(0), 2.0).is_err());
    }
}
