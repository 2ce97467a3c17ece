//! Routing policies the simulator can provision requests with.

use wdm_core::aux_engine::RouterCtx;
use wdm_core::baselines;
use wdm_core::disjoint::{robust_route_ctx, RouteFootprint};
use wdm_core::error::RoutingError;
use wdm_core::joint::{find_two_paths_joint_as_printed_ctx, find_two_paths_joint_ctx};
use wdm_core::mincog::find_two_paths_mincog_ctx;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_core::semilightpath::{Hop, RobustRoute, Semilightpath};
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{Counter, Hist, Phase, Recorder, Tracer};

/// A provisioned route: protected (primary + backup) or unprotected.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ProvisionedRoute {
    /// Primary + edge-disjoint backup (the paper's active protection).
    Protected(RobustRoute),
    /// Primary only (the passive approach).
    Unprotected(Semilightpath),
}

impl ProvisionedRoute {
    /// Total channel-cost of everything reserved.
    pub fn total_cost(&self) -> f64 {
        match self {
            ProvisionedRoute::Protected(r) => r.total_cost(),
            ProvisionedRoute::Unprotected(p) => p.cost,
        }
    }

    /// Occupies all reserved channels.
    pub fn occupy(
        &self,
        net: &WdmNetwork,
        state: &mut ResidualState,
    ) -> Result<(), wdm_core::network::StateError> {
        match self {
            ProvisionedRoute::Protected(r) => r.occupy(net, state),
            ProvisionedRoute::Unprotected(p) => p.occupy(net, state),
        }
    }

    /// Releases all reserved channels.
    pub fn release(&self, state: &mut ResidualState) {
        match self {
            ProvisionedRoute::Protected(r) => r.release(state),
            ProvisionedRoute::Unprotected(p) => p.release(state),
        }
    }

    /// Every reserved channel in occupation order (primary hops then
    /// backup hops) — the payload journal events carry, so replay occupies
    /// in exactly the live order.
    pub fn channels(&self) -> Vec<Hop> {
        match self {
            ProvisionedRoute::Protected(r) => r
                .primary
                .hops
                .iter()
                .chain(r.backup.hops.iter())
                .copied()
                .collect(),
            ProvisionedRoute::Unprotected(p) => p.hops.clone(),
        }
    }

    /// Whether the route holds a channel on `link`.
    pub(crate) fn crosses(&self, link: EdgeId) -> bool {
        match self {
            ProvisionedRoute::Protected(r) => {
                r.primary.edges().any(|e| e == link) || r.backup.edges().any(|e| e == link)
            }
            ProvisionedRoute::Unprotected(p) => p.edges().any(|e| e == link),
        }
    }

    /// The links this route reserves channels on.
    pub fn footprint(&self) -> RouteFootprint {
        match self {
            ProvisionedRoute::Protected(r) => RouteFootprint::of_route(r),
            ProvisionedRoute::Unprotected(p) => RouteFootprint::of_semilightpath(p),
        }
    }
}

/// Which algorithm provisions each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// §3.3: cost-minimising disjoint pair (`G'` + Suurballe + refinement).
    CostOnly,
    /// §4.1: load-minimising disjoint pair (`G_c`, threshold search).
    LoadOnly {
        /// Exponential congestion base `a > 1`.
        a: f64,
    },
    /// §4.2: joint load + cost (the paper's headline policy).
    Joint {
        /// Exponential congestion base `a > 1`.
        a: f64,
    },
    /// §4.2 with the `G_rc` weights exactly as printed in the paper
    /// (`/N(e)` normalisation) — the ablation variant.
    JointAsPrinted {
        /// Exponential congestion base `a > 1`.
        a: f64,
    },
    /// Greedy two-step baseline (shortest, remove, shortest).
    TwoStep,
    /// §3.3 without the Lemma 2 refinement (first-fit wavelengths).
    Unrefined,
    /// k-shortest-paths disjoint pair baseline.
    Ksp {
        /// Number of candidate paths to enumerate.
        k: usize,
    },
    /// Node-disjoint protection (extension): backup survives single node
    /// failures too.
    NodeDisjoint,
    /// Unprotected shortest semilightpath (passive recovery).
    PrimaryOnly,
}

impl Policy {
    /// Short display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::CostOnly => "cost-only(3.3)",
            Policy::LoadOnly { .. } => "load-only(4.1)",
            Policy::Joint { .. } => "joint(4.2)",
            Policy::JointAsPrinted { .. } => "joint(as-printed)",
            Policy::TwoStep => "two-step",
            Policy::Unrefined => "unrefined",
            Policy::Ksp { .. } => "ksp",
            Policy::NodeDisjoint => "node-disjoint",
            Policy::PrimaryOnly => "primary-only",
        }
    }

    /// Computes a route for `(s, t)` without mutating `state`.
    ///
    /// One-shot convenience over [`Policy::route_ctx`] — builds a throwaway
    /// [`RouterCtx`] per call. Loops (the simulator, batch provisioning)
    /// should hold a context and call [`Policy::route_ctx`] instead.
    pub fn route(
        &self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<ProvisionedRoute, RoutingError> {
        self.route_ctx(&mut RouterCtx::new(), net, state, s, t)
    }

    /// Computes a route for `(s, t)` without mutating `state`, reusing the
    /// auxiliary-graph engines and search buffers in `ctx`. The §3.3/§4
    /// policies route through the incremental [`RouterCtx`] hot path; the
    /// baseline policies don't use auxiliary graphs and ignore `ctx`.
    ///
    /// When `ctx` carries a live [`Recorder`], every call emits the request
    /// outcome (admission or blocking cause) and cost/hop histograms; with
    /// the default `NoopRecorder` all of that compiles away. When `ctx`
    /// carries a live [`Tracer`], every call opens a new span ordinal
    /// (`Tracer::begin_request`) and the pipeline records its phase spans
    /// into it; the *caller* owning the surrounding commit records the root
    /// `Phase::Request` span and the commit spans, since routing alone can't
    /// see the decision's fate.
    pub fn route_ctx<R: Recorder, T: Tracer>(
        &self,
        ctx: &mut RouterCtx<R, T>,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<ProvisionedRoute, RoutingError> {
        let t_pro0 = ctx.tracer().now_ns();
        ctx.tracer().begin_request();
        let start = ctx.recorder().enabled().then(std::time::Instant::now);
        // The tracer reset belongs to Telemetry, not to a gap
        // between the daemon's read-lock acquire and the first routing span.
        let t_pro1 = ctx.tracer().now_ns();
        ctx.tracer().record_span(Phase::Telemetry, t_pro0, t_pro1);
        let result = self.dispatch(ctx, net, state, s, t);
        if let Some(start) = start {
            // The recorder's own bookkeeping is serve-path wall time too;
            // self-measure it so trace attribution tiles the request.
            let t0 = ctx.tracer().now_ns();
            record_request(ctx.recorder(), &result, start);
            ctx.tracer().record(Phase::Telemetry, t0);
        }
        result
    }

    /// Routes `(s, t)` again inside the request the tracer already has
    /// open: [`Policy::route_ctx`] without opening a span ordinal and
    /// without the request-level bookkeeping. The daemon re-routes a
    /// refused commit with it on the context that routed the request, so
    /// the search spans land in that request and the request is counted
    /// once; the engines' own counters still count the search.
    pub fn reroute_ctx<R: Recorder, T: Tracer>(
        &self,
        ctx: &mut RouterCtx<R, T>,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<ProvisionedRoute, RoutingError> {
        self.dispatch(ctx, net, state, s, t)
    }

    fn dispatch<R: Recorder, T: Tracer>(
        &self,
        ctx: &mut RouterCtx<R, T>,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<ProvisionedRoute, RoutingError> {
        match *self {
            Policy::CostOnly => {
                robust_route_ctx(ctx, net, state, s, t).map(|(r, _)| ProvisionedRoute::Protected(r))
            }
            Policy::LoadOnly { a } => find_two_paths_mincog_ctx(ctx, net, state, s, t, a)
                .map(|o| ProvisionedRoute::Protected(o.route)),
            Policy::Joint { a } => find_two_paths_joint_ctx(ctx, net, state, s, t, a)
                .map(|o| ProvisionedRoute::Protected(o.route)),
            Policy::JointAsPrinted { a } => {
                find_two_paths_joint_as_printed_ctx(ctx, net, state, s, t, a)
                    .map(|o| ProvisionedRoute::Protected(o.route))
            }
            Policy::TwoStep => {
                baselines::two_step_pair(net, state, s, t).map(ProvisionedRoute::Protected)
            }
            Policy::Unrefined => {
                baselines::suurballe_unrefined(net, state, s, t).map(ProvisionedRoute::Protected)
            }
            Policy::Ksp { k } => {
                baselines::ksp_pair(net, state, s, t, k).map(ProvisionedRoute::Protected)
            }
            Policy::NodeDisjoint => wdm_core::node_disjoint::find_node_disjoint(net, state, s, t)
                .map(ProvisionedRoute::Protected),
            Policy::PrimaryOnly => {
                baselines::primary_only(net, state, s, t).map(ProvisionedRoute::Unprotected)
            }
        }
    }
}

/// Records the outcome of one routing request (admission counters, blocking
/// cause, cost/hop histograms). Only called when the recorder is enabled.
fn record_request<R: Recorder>(
    rec: &R,
    result: &Result<ProvisionedRoute, RoutingError>,
    start: std::time::Instant,
) {
    rec.observe(Hist::RequestNanos, start.elapsed().as_nanos() as u64);
    match result {
        Ok(route) => {
            rec.add(Counter::RequestsRouted, 1);
            rec.observe(
                Hist::RouteCostMilli,
                (route.total_cost() * 1000.0).round() as u64,
            );
            let (primary, backup) = match route {
                ProvisionedRoute::Protected(r) => (&r.primary, Some(&r.backup)),
                ProvisionedRoute::Unprotected(p) => (p, None),
            };
            rec.observe(Hist::PrimaryHops, primary.len() as u64);
            if let Some(b) = backup {
                rec.observe(Hist::BackupHops, b.len() as u64);
            }
        }
        Err(e) => {
            rec.add(Counter::RequestsBlocked, 1);
            let cause = match e {
                RoutingError::DegenerateRequest => Counter::BlockedDegenerate,
                RoutingError::NoDisjointPair => Counter::BlockedNoDisjointPair,
                RoutingError::RefinementInfeasible => Counter::BlockedRefinement,
                RoutingError::LoadSearchExhausted => Counter::BlockedLoadSearch,
                RoutingError::Unreachable { .. } => Counter::BlockedUnreachable,
            };
            rec.add(cause, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::conversion::ConversionTable;
    use wdm_core::network::NetworkBuilder;

    fn diamond() -> WdmNetwork {
        let mut b = NetworkBuilder::new(4);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[3], 1.0);
        b.add_link(n[0], n[2], 2.0);
        b.add_link(n[2], n[3], 2.0);
        b.build()
    }

    #[test]
    fn every_policy_routes_the_diamond() {
        let net = diamond();
        let st = ResidualState::fresh(&net);
        for p in [
            Policy::CostOnly,
            Policy::LoadOnly { a: 2.0 },
            Policy::Joint { a: 2.0 },
            Policy::TwoStep,
            Policy::Unrefined,
            Policy::Ksp { k: 8 },
            Policy::PrimaryOnly,
        ] {
            let r = p.route(&net, &st, NodeId(0), NodeId(3));
            assert!(r.is_ok(), "{} failed: {r:?}", p.name());
            let r = r.unwrap();
            match (&p, &r) {
                (Policy::PrimaryOnly, ProvisionedRoute::Unprotected(slp)) => {
                    assert_eq!(slp.cost, 2.0);
                }
                (Policy::PrimaryOnly, _) => panic!("primary-only must be unprotected"),
                (_, ProvisionedRoute::Protected(route)) => {
                    assert!(route.is_edge_disjoint());
                }
                (_, ProvisionedRoute::Unprotected(_)) => {
                    panic!("{} must be protected", p.name())
                }
            }
        }
    }

    #[test]
    fn occupy_release_roundtrip() {
        let net = diamond();
        let mut st = ResidualState::fresh(&net);
        let r = Policy::CostOnly
            .route(&net, &st, NodeId(0), NodeId(3))
            .unwrap();
        r.occupy(&net, &mut st).unwrap();
        assert!(st.network_load(&net) > 0.0);
        r.release(&mut st);
        assert_eq!(st.network_load(&net), 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Policy::Joint { a: 2.0 }.name(), "joint(4.2)");
        assert_eq!(Policy::PrimaryOnly.name(), "primary-only");
    }
}
