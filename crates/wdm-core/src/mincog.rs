//! §4.1: `Find_Two_Paths_MinCog` — minimising the network load.
//!
//! The simpler version of the joint problem: find two edge-disjoint
//! semilightpaths whose *load impact* is minimal. The algorithm searches a
//! load threshold `ϑ`: links with `ρ(e) ≥ ϑ` are excluded from the
//! thresholded auxiliary graph `G_c`, whose traversal weights are the
//! exponential congestion increments `a^((U+1)/N) − a^(U/N)`; Suurballe on
//! `G_c` then prefers lightly loaded links among those admitted.
//!
//! The paper's pseudocode performs a geometric escalation of `ϑ` from
//! `ϑ_min = min_e (U(e)+1)/N(e)` towards `ϑ_max = max_e (U(e)+1)/N(e)`
//! (steps `Δ/2^j` with `j` counting down from `j₀ = −⌈log₂ Δ⌉`), accepting
//! the first feasible threshold — that search is what Theorem 3's 3× bound
//! analyses.
//!
//! **Deviation (schedule repair).** The printed schedule's *first* step has
//! size `Δ/2^{j₀} ∈ (Δ²/2, Δ²]`, which can overshoot from `ϑ_min` straight
//! past the optimum (e.g. `ϑ_min = 0.2`, `Δ = 0.8`: probes 0.2 then 1.0,
//! while `ϑ* = 0.25` — ratio 4, breaching the theorem's own bound; the
//! proof's telescoping step divides by an empty partial sum there).
//! Theorem 3's argument needs consecutive probes that at most double, so
//! [`find_two_paths_mincog`] escalates by *doubling the threshold itself*:
//! `ϑ_i = min(2^i · ϑ_min, ϑ_max)`. Feasibility is monotone in `ϑ` and the
//! exact optimum satisfies `ϑ* ≥ ϑ_min`, so the first feasible probe obeys
//! `ϑ ≤ 2·ϑ*` — a *stronger* guarantee than the paper's 3×, with the same
//! `O(log 1/Δ)` probe count. [`exact_min_load_threshold`] additionally
//! provides the true optimum by binary search over the *discrete* candidate
//! set `{(U(e)+1)/N(e)}`, used by the T3 experiment as the baseline.
//!
//! **Rungs are decided by flow.** A rung is feasible when `G_c` has a pair
//! that refines. Whether it has a pair at all is a unit-capacity flow
//! question on the physical links the rung admits
//! ([`AuxSpec::admits_disjoint_pair`]): two `O(n + m)` augmentations
//! instead of two Suurballe passes over the `2 + 2m`-node `G_c`. Under full
//! conversion the flow check decides the rung exactly, so the ladder
//! searches nothing; MinCog then runs one `G_c` search at the accepted
//! rung, and the §4.2 joint policy none (its phase 2 searches `G_rc`).
//! Under restricted conversion a rung that passes the flow check still
//! needs the `G_c` search and both refinements.

use crate::aux_engine::RouterCtx;
use crate::aux_graph::AuxSpec;
use crate::disjoint::refine_leg;
use crate::error::RoutingError;
use crate::network::{ResidualState, WdmNetwork};
use crate::semilightpath::RobustRoute;
use wdm_graph::{EdgeId, NodeId};
use wdm_telemetry::{Counter, Hist, Phase, Recorder, Tracer};

/// Default exponential base `a` for the congestion weights. The paper only
/// requires `a > 1`; the experiments sweep `a ∈ {2, e, 10}`.
pub const DEFAULT_CONGESTION_BASE: f64 = std::f64::consts::E;

/// Result of a MinCog (load-minimising) run.
#[derive(Debug, Clone)]
pub struct MinCogOutcome {
    /// The accepted threshold `ϑ`.
    pub threshold: f64,
    /// Physical edges of the two accepted auxiliary paths.
    pub aux_paths: [Vec<EdgeId>; 2],
    /// The refined semilightpath pair.
    pub route: RobustRoute,
    /// Number of threshold probes (ladder rungs decided).
    pub probes: usize,
}

/// Tries one threshold spec end-to-end: Suurballe on the thresholded `G_c`
/// *plus* the Liang–Shen refinement. Under restricted conversion tables an
/// auxiliary pair may have no feasible wavelength assignment — such probes
/// count as infeasible so the search escalates instead of failing (with
/// full conversion, the paper's assumption (i), refinement never fails).
///
/// The ladder calls this only where the flow check cannot decide alone: at
/// each flow-feasible rung under restricted conversion, and once at the
/// accepted rung under full conversion. Calls reuse the context's `G_c`
/// engine, whose threshold changes cost an `O(m)` re-mask — no graph
/// construction, no `O(W²)` conversion sums.
pub(crate) fn probe_route<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    spec: AuxSpec,
) -> Option<(RobustRoute, [Vec<EdgeId>; 2])> {
    let (_, aux_paths) = ctx.disjoint_pair(net, state, s, t, spec)?;
    let leg_a = refine_leg(net, state, s, t, &aux_paths[0]).ok()?;
    let leg_b = refine_leg(net, state, s, t, &aux_paths[1]).ok()?;
    Some((RobustRoute::ordered(leg_a, leg_b), aux_paths))
}

/// The feasible-threshold bounds `(ϑ_min, ϑ_max)` from the paper:
/// `min / max` over links of `(U(e)+1)/N(e)`.
///
/// Only links with available capacity participate: a saturated or failed
/// link can never carry a new route, and including it would push
/// `ϑ_max = (N+1)/N` above 1 and break the geometric schedule's `Δ < 1`
/// assumption (the paper's loads always lie in `(0, 1]`).
pub fn threshold_bounds(net: &WdmNetwork, state: &ResidualState) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    for ei in 0..net.link_count() {
        let e = EdgeId::from(ei);
        if state.avail(net, e).is_empty() {
            continue;
        }
        let p = state.prospective_load(net, e);
        if p.is_finite() {
            lo = lo.min(p);
            hi = hi.max(p);
        }
    }
    if lo.is_infinite() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// §4.1 `Find_Two_Paths_MinCog` with the repaired geometric escalation
/// (see the module docs): probes `ϑ_min, 2ϑ_min, 4ϑ_min, …` capped at
/// `ϑ_max`, accepting the first feasible threshold. Guarantees
/// `ϑ ≤ 2·ϑ*` (stronger than Theorem 3's 3×) in `O(log(ϑ_max/ϑ_min))`
/// probes. `a` is the exponential congestion base of `G_c`.
///
/// A threshold `ϑ` admits links with `ρ(e) < ϑ`; because a routed pair
/// occupies one extra channel per chosen link, the *resulting* network load
/// contribution of the chosen links is at most `max_e (U(e)+1)/N(e)` over
/// them, which the experiments report.
pub fn find_two_paths_mincog(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<MinCogOutcome, RoutingError> {
    find_two_paths_mincog_ctx(&mut RouterCtx::new(), net, state, s, t, a)
}

/// The `i`-th rung of the doubling ladder `ϑ_i = min(2^i·ϑ_min, ϑ_max)`,
/// computed by the exact float sequence the escalation loop produces (so a
/// remembered rung reproduces its probe value bit-for-bit).
fn ladder_rung(theta_min: f64, theta_max: f64, i: u32) -> f64 {
    let mut theta = theta_min;
    for _ in 0..i {
        theta = (theta * 2.0).min(theta_max);
    }
    theta
}

/// [`find_two_paths_mincog`] over a caller-owned [`RouterCtx`]: the
/// threshold ladder decides its rungs by flow checks (see the module docs)
/// and, under full conversion, the `G_c` engine searches once, at the
/// accepted rung; a long-lived context amortises that engine across
/// requests.
///
/// **Warm start.** The context remembers the accepted ladder rung of the
/// previous search together with the residual-state change clock it was
/// accepted at. A later search in the *same* residual epoch sees the same
/// ladder (the bounds depend only on the state), so it starts probing at the
/// remembered rung — halving downward while feasible, escalating by doubling
/// as usual when infeasible. Under full conversion (assumption (i)) probe
/// feasibility is monotone in ϑ, so both directions stop at exactly the rung
/// the cold search would accept: the outcome is bit-identical and only the
/// `probes` count (and the `threshold_probes` telemetry) shrinks. The ≤2·ϑ*
/// guarantee is untouched — the rung below the accepted one is probed (or
/// known) infeasible, hence ϑ* > ϑ/2. Without full conversion, refinement
/// failures can make feasibility non-monotone and the warm start is
/// disabled.
pub fn find_two_paths_mincog_ctx<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<MinCogOutcome, RoutingError> {
    let rung = threshold_ladder(ctx, net, state, s, t, a)?;
    let (threshold, probes) = (rung.threshold, rung.probes);
    let (route, aux_paths) = rung
        .into_pair(ctx, net, state, s, t, a)
        .ok_or(RoutingError::LoadSearchExhausted)?;
    Ok(MinCogOutcome {
        threshold,
        aux_paths,
        route,
        probes,
    })
}

/// A refined `G_c` pair: the route and both legs' physical edges.
type Pair = (RobustRoute, [Vec<EdgeId>; 2]);

/// The accepted rung of the threshold ladder.
pub(crate) struct Rung {
    /// The rung's admission threshold (`ϑ` plus the hair).
    pub(crate) threshold: f64,
    /// Rungs decided, the accepted one included.
    pub(crate) probes: usize,
    /// The rung's `G_c` pair, if deciding the rung searched for it
    /// (restricted conversion only).
    pair: Option<Pair>,
}

impl Rung {
    /// The rung's `G_c` pair, searched for now if the flow check alone
    /// decided the rung. Under full conversion that search cannot fail:
    /// the rung's two disjoint admitted paths are a `G_c` pair, and every
    /// admitted link has a wavelength to refine onto.
    pub(crate) fn into_pair<R: Recorder, T: Tracer>(
        self,
        ctx: &mut RouterCtx<R, T>,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
        a: f64,
    ) -> Option<Pair> {
        let threshold = self.threshold;
        self.pair
            .or_else(|| probe_route(ctx, net, state, s, t, AuxSpec::g_c(a, threshold)))
    }
}

/// MinCog's threshold ladder, shared by §4.1 and §4.2: the smallest rung
/// of `ϑ_min, 2ϑ_min, 4ϑ_min, …` (capped at `ϑ_max`) that is feasible,
/// with the warm start described at [`find_two_paths_mincog_ctx`].
///
/// A rung is feasible when the links it admits carry two edge-disjoint
/// `s → t` paths ([`AuxSpec::admits_disjoint_pair`]) and, under restricted
/// conversion only, its `G_c` pair also refines ([`probe_route`]). The flow
/// check is exact either way: no physical pair means no auxiliary pair,
/// and refinement can fail only under restricted conversion. So under full
/// conversion the ladder runs no Suurballe search at all, and each rung
/// costs `O(n + m)` per augmentation instead of two Suurballe passes over
/// the `2 + 2m`-node `G_c` and two refinements.
pub(crate) fn threshold_ladder<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<Rung, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let (theta_min, theta_max) = threshold_bounds(net, state);
    if theta_max <= 0.0 {
        return Err(RoutingError::LoadSearchExhausted);
    }
    let full = net.full_conversion();
    let epoch = state.change_clock();
    let warm_rung = if full {
        ctx.mincog_warm
            .filter(|&(ep, _)| ep == epoch)
            .map(|(_, i)| i)
    } else {
        None
    };
    let mut probes = 0usize;

    // ϑ is an *exclusive* upper bound on current load; to admit links whose
    // prospective load equals the probe value we add a hair.
    let bump = 1e-9;
    // `Some(_)` when the rung is feasible, holding its `G_c` pair only if
    // deciding it needed the search (restricted conversion). The flow check
    // is timed as aux refresh: it walks the rung's admission mask.
    let mut probe = |probes: &mut usize, theta: f64| -> Option<Option<Pair>> {
        *probes += 1;
        let spec = AuxSpec::g_c(a, theta + bump);
        let t0 = ctx.tracer().now_ns();
        let carries = spec.admits_disjoint_pair(net, state, s, t);
        if ctx.tracer().enabled() {
            ctx.tracer().record(Phase::AuxRefresh, t0);
        }
        match (carries, full) {
            (false, _) => None,
            (true, true) => Some(None),
            (true, false) => probe_route(ctx, net, state, s, t, spec).map(Some),
        }
    };

    let accepted = if let Some(start) = warm_rung {
        let theta = ladder_rung(theta_min, theta_max, start);
        match probe(&mut probes, theta) {
            Some(hit) => {
                // Feasible at the remembered rung: halve downward to the
                // lowest feasible rung (monotone ⇒ the cold answer).
                let mut best = (start, theta, hit);
                while best.0 > 0 {
                    let below = ladder_rung(theta_min, theta_max, best.0 - 1);
                    match probe(&mut probes, below) {
                        Some(hit) => best = (best.0 - 1, below, hit),
                        None => break,
                    }
                }
                Some(best)
            }
            None => {
                // Infeasible: escalate by doubling, exactly as the cold
                // search would from this rung.
                let mut i = start;
                let mut theta = theta;
                loop {
                    if theta >= theta_max {
                        break None;
                    }
                    theta = (theta * 2.0).min(theta_max);
                    i += 1;
                    if let Some(hit) = probe(&mut probes, theta) {
                        break Some((i, theta, hit));
                    }
                }
            }
        }
    } else {
        // Cold search: ϑ_min, 2ϑ_min, 4ϑ_min, …, capped at ϑ_max.
        let mut i = 0u32;
        let mut theta = theta_min;
        loop {
            if let Some(hit) = probe(&mut probes, theta) {
                break Some((i, theta, hit));
            }
            if theta >= theta_max {
                break None;
            }
            theta = (theta * 2.0).min(theta_max);
            i += 1;
        }
    };
    record_probes(ctx, probes);
    match accepted {
        Some((rung, theta, pair)) => {
            if full {
                ctx.mincog_warm = Some((epoch, rung));
            }
            Ok(Rung {
                threshold: theta + bump,
                probes,
                pair,
            })
        }
        // ϑ exceeded the max bound without a pair: drop the request.
        None => Err(RoutingError::LoadSearchExhausted),
    }
}

/// Cold path: reports one threshold search's probe count.
fn record_probes<R: Recorder, T: Tracer>(ctx: &RouterCtx<R, T>, probes: usize) {
    if ctx.recorder().enabled() {
        ctx.recorder().add(Counter::ThresholdProbes, probes as u64);
        ctx.recorder().observe(Hist::ThresholdProbes, probes as u64);
    }
}

/// Exact minimum achievable **bottleneck load**: the smallest value `B*`
/// such that a disjoint pair exists using only links whose *prospective*
/// load `(U(e)+1)/N(e)` is at most `B*`. Found by binary search over the
/// discrete candidate set of prospective loads (feasibility is monotone).
///
/// `B*` is the §4.1 objective stated directly on what the paper actually
/// minimises — the network load the routed pair *creates* — rather than on
/// the admission threshold, which is only comparable up to a per-link
/// `1/N(e)` offset. The returned `threshold` field holds `B*` and the route
/// achieves it exactly. Used as the Theorem 3 baseline: the heuristic's
/// achieved bottleneck ([`route_bottleneck_load`]) divided by `B*` is the
/// measured ratio.
pub fn exact_min_load_threshold(
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<MinCogOutcome, RoutingError> {
    exact_min_load_threshold_ctx(&mut RouterCtx::new(), net, state, s, t, a)
}

/// [`exact_min_load_threshold`] over a caller-owned [`RouterCtx`] (see
/// [`find_two_paths_mincog_ctx`] for what sharing buys).
pub fn exact_min_load_threshold_ctx<R: Recorder, T: Tracer>(
    ctx: &mut RouterCtx<R, T>,
    net: &WdmNetwork,
    state: &ResidualState,
    s: NodeId,
    t: NodeId,
    a: f64,
) -> Result<MinCogOutcome, RoutingError> {
    if s == t {
        return Err(RoutingError::DegenerateRequest);
    }
    let mut candidates: Vec<f64> = (0..net.link_count())
        .map(EdgeId::from)
        .filter(|&e| !state.avail(net, e).is_empty())
        .map(|e| state.prospective_load(net, e))
        .filter(|p| p.is_finite())
        .collect();
    candidates.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    candidates.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    if candidates.is_empty() {
        return Err(RoutingError::LoadSearchExhausted);
    }
    // Binary search the smallest feasible candidate bottleneck.
    let mut lo = 0usize;
    let mut hi = candidates.len();
    let mut probes = 0usize;
    let mut best: Option<(f64, RobustRoute, [Vec<EdgeId>; 2])> = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let b = candidates[mid];
        probes += 1;
        match probe_route(ctx, net, state, s, t, AuxSpec::g_c_prospective(a, b)) {
            Some((route, paths)) => {
                best = Some((b, route, paths));
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    record_probes(ctx, probes);
    let (threshold, route, aux_paths) = best.ok_or(RoutingError::LoadSearchExhausted)?;
    Ok(MinCogOutcome {
        threshold,
        aux_paths,
        route,
        probes,
    })
}

/// The bottleneck prospective load over the links a route actually uses —
/// the quantity the §4.1 objective minimises (what the network load becomes
/// on those links once the route is provisioned).
pub fn route_bottleneck_load(net: &WdmNetwork, state: &ResidualState, route: &RobustRoute) -> f64 {
    route
        .primary
        .edges()
        .chain(route.backup.edges())
        .map(|e| state.prospective_load(net, e))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::Wavelength;

    /// Three parallel 2-hop corridors 0 -> {1,2,3} -> 4, W = 4.
    fn corridors() -> WdmNetwork {
        let mut b = NetworkBuilder::new(4);
        let n: Vec<_> = (0..5)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        for mid in 1..=3 {
            b.add_link(n[0], n[mid], 1.0); // e_{2(mid-1)}
            b.add_link(n[mid], n[4], 1.0); // e_{2(mid-1)+1}
        }
        b.build()
    }

    #[test]
    fn prefers_unloaded_corridors() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        // Load corridor 0 heavily (3 of 4 channels on both its links).
        for l in 0..3 {
            st.occupy(&net, EdgeId(0), Wavelength(l)).unwrap();
            st.occupy(&net, EdgeId(1), Wavelength(l)).unwrap();
        }
        let out = find_two_paths_mincog(&net, &st, NodeId(0), NodeId(4), DEFAULT_CONGESTION_BASE)
            .unwrap();
        let used: Vec<EdgeId> = out
            .route
            .primary
            .edges()
            .chain(out.route.backup.edges())
            .collect();
        assert!(
            !used.contains(&EdgeId(0)) && !used.contains(&EdgeId(1)),
            "loaded corridor must be avoided: {used:?}"
        );
        assert!(out.route.is_edge_disjoint());
        // Bottleneck of the chosen links: fresh links -> 1/4.
        assert!((route_bottleneck_load(&net, &st, &out.route) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn escalates_threshold_when_forced() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        // Load ALL corridors to 2/4 except corridor 2's second hop at 3/4.
        for (e, k) in [(0u32, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 3)] {
            for l in 0..k {
                st.occupy(&net, EdgeId(e), Wavelength(l)).unwrap();
            }
        }
        let out = find_two_paths_mincog(&net, &st, NodeId(0), NodeId(4), DEFAULT_CONGESTION_BASE)
            .unwrap();
        // ϑ must have escalated beyond the initial ϑ_min = 3/4.
        assert!(out.threshold >= 0.75);
        assert!(out.probes >= 1);
        assert!(out.route.is_edge_disjoint());
    }

    #[test]
    fn drops_request_when_no_pair_at_any_threshold() {
        // A single corridor cannot host two edge-disjoint paths.
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..3)
            .map(|_| b.add_node(ConversionTable::Full { cost: 0.1 }))
            .collect();
        b.add_link(n[0], n[1], 1.0);
        b.add_link(n[1], n[2], 1.0);
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let err = find_two_paths_mincog(&net, &st, NodeId(0), NodeId(2), 2.0).unwrap_err();
        assert_eq!(err, RoutingError::LoadSearchExhausted);
    }

    #[test]
    fn exact_matches_or_beats_heuristic_threshold() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        for l in 0..2 {
            st.occupy(&net, EdgeId(0), Wavelength(l)).unwrap();
        }
        st.occupy(&net, EdgeId(2), Wavelength(0)).unwrap();
        let heur = find_two_paths_mincog(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        let exact = exact_min_load_threshold(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        // Compare achieved bottleneck loads (uniform capacities here, so
        // Theorem 3's 3x applies; see the module docs).
        let b_heur = route_bottleneck_load(&net, &st, &heur.route);
        let b_exact = exact.threshold;
        assert!((route_bottleneck_load(&net, &st, &exact.route) - b_exact).abs() < 1e-9);
        assert!(b_exact <= b_heur + 1e-9);
        assert!(b_heur <= 3.0 * b_exact + 1e-9);
    }

    #[test]
    fn degenerate_request_rejected() {
        let net = corridors();
        let st = ResidualState::fresh(&net);
        assert_eq!(
            find_two_paths_mincog(&net, &st, NodeId(0), NodeId(0), 2.0).unwrap_err(),
            RoutingError::DegenerateRequest
        );
    }

    #[test]
    fn warm_start_same_epoch_is_bit_identical_with_fewer_probes() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        // Corridors 1 and 2 heavily loaded (3/4), corridor 0 empty: the
        // ladder 0.25 → 0.5 → 1.0 only becomes feasible at its last rung,
        // so the cold search spends 3 probes.
        for e in 2..6u32 {
            for l in 0..3 {
                st.occupy(&net, EdgeId(e), Wavelength(l)).unwrap();
            }
        }
        let mut ctx = RouterCtx::new();
        let cold =
            find_two_paths_mincog_ctx(&mut ctx, &net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        assert_eq!(cold.probes, 3);
        // Same residual epoch: the warm search probes the accepted rung
        // (feasible) and the rung below (infeasible) — 2 probes, same
        // result bit-for-bit.
        let warm =
            find_two_paths_mincog_ctx(&mut ctx, &net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        assert_eq!(warm.threshold, cold.threshold);
        assert_eq!(warm.route, cold.route);
        assert_eq!(warm.aux_paths, cold.aux_paths);
        assert!(
            warm.probes < cold.probes,
            "warm {} cold {}",
            warm.probes,
            cold.probes
        );
    }

    #[test]
    fn warm_start_does_not_leak_across_epochs() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        for e in 2..6u32 {
            for l in 0..3 {
                st.occupy(&net, EdgeId(e), Wavelength(l)).unwrap();
            }
        }
        let mut ctx = RouterCtx::new();
        let _ = find_two_paths_mincog_ctx(&mut ctx, &net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        // Mutate the state: a new epoch. The warm slot must be ignored and
        // the outcome must equal a fresh context's.
        st.occupy(&net, EdgeId(0), Wavelength(3)).unwrap();
        let stale_ctx =
            find_two_paths_mincog_ctx(&mut ctx, &net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        let fresh = find_two_paths_mincog(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        assert_eq!(stale_ctx.threshold, fresh.threshold);
        assert_eq!(stale_ctx.route, fresh.route);
        assert_eq!(stale_ctx.probes, fresh.probes);
    }

    #[test]
    fn bottleneck_load_is_max_over_route_links() {
        let net = corridors();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(2), Wavelength(0)).unwrap();
        let out = exact_min_load_threshold(&net, &st, NodeId(0), NodeId(4), 2.0).unwrap();
        let b = route_bottleneck_load(&net, &st, &out.route);
        assert!((0.25..=1.0).contains(&b));
    }
}
