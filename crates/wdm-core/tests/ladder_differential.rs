//! Differential test for MinCog's threshold ladder, which both §4 policies
//! share.
//!
//! The library decides each rung with a two-path flow check on the links the
//! rung admits ([`AuxSpec::admits_disjoint_pair`]) and searches `G_c` only
//! where it must: at every flow-feasible rung under restricted conversion,
//! and once at the accepted rung under full conversion (none at all for the
//! joint policy, whose phase 2 searches `G_rc`). The reference below is the
//! algorithm that predates the flow check, written out here: a scratch
//! `G_c` Suurballe plus both refinements at *every* rung, with the same
//! doubling ladder and the same warm start, then the `G_rc` pass for the
//! joint policies.
//!
//! Both sides are driven through seeded mutation histories; the library
//! side keeps one [`RouterCtx`] for the whole history, so its warm start
//! engages exactly when the reference's does. Every threshold bit, probe
//! count, auxiliary path, route, bottleneck bit and error kind must agree.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::aux_graph::{AuxGraph, AuxSpec};
use wdm_core::conversion::ConversionTable;
use wdm_core::error::RoutingError;
use wdm_core::joint::{find_two_paths_joint_as_printed_ctx, find_two_paths_joint_ctx};
use wdm_core::mincog::{find_two_paths_mincog_ctx, route_bottleneck_load, threshold_bounds};
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::optimal_slp::{assign_wavelengths_on_path, optimal_semilightpath_filtered};
use wdm_core::semilightpath::{RobustRoute, Semilightpath};
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::{EdgeId, NodeId};

/// Congestion base used throughout.
const A: f64 = 2.0;
/// The hair the ladder adds to each rung (see `mincog.rs`).
const BUMP: f64 = 1e-9;

/// A random network. `full` draws `Full` conversion at every node and up
/// to 16 wavelengths, so ladders from `ϑ_min = 1/W` climb up to five rungs;
/// otherwise each node draws `None`, `Full` or `Range` as in
/// `engine_differential.rs`, which almost never yields full conversion.
fn random_net(rng: &mut ChaCha8Rng, full: bool) -> WdmNetwork {
    let n = rng.gen_range(4..10usize);
    let w = if full {
        rng.gen_range(2..17usize)
    } else {
        rng.gen_range(2..6usize)
    };
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        let conv = match if full { 1 } else { rng.gen_range(0..3) } {
            0 => ConversionTable::None,
            1 => ConversionTable::Full {
                cost: rng.gen_range(0.0..2.0),
            },
            _ => ConversionTable::Range {
                range: rng.gen_range(1..3),
                cost: rng.gen_range(0.0..2.0),
            },
        };
        b.add_node(conv);
    }
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.45) {
                let mut set = WavelengthSet::empty();
                for l in 0..w {
                    if rng.gen_bool(0.7) {
                        set.insert(Wavelength(l as u8));
                    }
                }
                if set.is_empty() {
                    set.insert(Wavelength(0));
                }
                b.add_link_with(NodeId(u), NodeId(v), rng.gen_range(1.0..10.0), set);
            }
        }
    }
    b.build()
}

/// One random mutation. Releases of free channels are no-ops, so loads
/// still drift up and the ladders climb; failures make links with no free
/// wavelength (load 1) common.
fn random_op(rng: &mut ChaCha8Rng, net: &WdmNetwork, st: &mut ResidualState) {
    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
    let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
    match rng.gen_range(0..10) {
        0..=3 => {
            let _ = st.occupy(net, e, l);
        }
        4..=7 => {
            let _ = st.release(e, l);
        }
        8 => st.fail_link(e),
        _ => st.repair_link(e),
    }
}

/// The Liang–Shen refinement of one auxiliary leg, as the library does it.
fn refine(
    net: &WdmNetwork,
    st: &ResidualState,
    s: NodeId,
    t: NodeId,
    phys: &[EdgeId],
) -> Result<Semilightpath, RoutingError> {
    if let Some(slp) = assign_wavelengths_on_path(net, st, s, phys) {
        return Ok(slp);
    }
    optimal_semilightpath_filtered(net, st, s, t, |e| phys.contains(&e))
        .ok_or(RoutingError::RefinementInfeasible)
}

type Pair = (RobustRoute, [Vec<EdgeId>; 2]);

/// The oracle's Suurballe on a scratch auxiliary graph: both legs'
/// physical edges.
fn scratch_pair(
    net: &WdmNetwork,
    st: &ResidualState,
    s: NodeId,
    t: NodeId,
    spec: AuxSpec,
) -> Option<[Vec<EdgeId>; 2]> {
    let aux = AuxGraph::build(net, st, s, t, spec);
    let pair = aux.disjoint_pair()?;
    Some([
        aux.physical_edges(&pair.paths[0]),
        aux.physical_edges(&pair.paths[1]),
    ])
}

/// The reference side: its own warm-start memory (`(change clock, rung)`,
/// shared by all three policies as the library's context shares it) and a
/// tally of the joint fallback.
#[derive(Default)]
struct Reference {
    warm: Option<(u64, u32)>,
    warm_starts: usize,
    joint_fallbacks: usize,
}

/// The reference ladder's accepted rung: threshold, probes, `G_c` pair.
type RefRung = (f64, usize, Pair);

impl Reference {
    /// One rung the old way: scratch `G_c` Suurballe plus both
    /// refinements. Also checks the library's flow check against the same
    /// scratch graph: exact under full conversion, necessary otherwise.
    fn probe(
        &self,
        net: &WdmNetwork,
        st: &ResidualState,
        s: NodeId,
        t: NodeId,
        theta: f64,
    ) -> Option<Pair> {
        let spec = AuxSpec::g_c(A, theta + BUMP);
        let aux_paths = scratch_pair(net, st, s, t, spec);
        let flow = spec.admits_disjoint_pair(net, st, s, t);
        if net.full_conversion() {
            assert_eq!(flow, aux_paths.is_some(), "flow check at ϑ = {theta}");
        } else if aux_paths.is_some() {
            assert!(flow, "flow check rejected a G_c pair at ϑ = {theta}");
        }
        let [a, b] = aux_paths?;
        let leg_a = refine(net, st, s, t, &a).ok()?;
        let leg_b = refine(net, st, s, t, &b).ok()?;
        Some((RobustRoute::ordered(leg_a, leg_b), [a, b]))
    }

    /// The doubling ladder with the warm start, as the library ran it
    /// before rungs were decided by flow.
    fn ladder(
        &mut self,
        net: &WdmNetwork,
        st: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> Result<RefRung, RoutingError> {
        if s == t {
            return Err(RoutingError::DegenerateRequest);
        }
        let (theta_min, theta_max) = threshold_bounds(net, st);
        if theta_max <= 0.0 {
            return Err(RoutingError::LoadSearchExhausted);
        }
        let rung = |i: u32| {
            let mut theta = theta_min;
            for _ in 0..i {
                theta = (theta * 2.0).min(theta_max);
            }
            theta
        };
        let epoch = st.change_clock();
        let warm = if net.full_conversion() {
            self.warm.filter(|&(ep, _)| ep == epoch).map(|(_, i)| i)
        } else {
            None
        };
        self.warm_starts += warm.is_some() as usize;
        let mut probes = 0usize;
        let probe = |probes: &mut usize, theta: f64| {
            *probes += 1;
            self.probe(net, st, s, t, theta)
        };
        let accepted = match warm {
            Some(start) => {
                let theta = rung(start);
                match probe(&mut probes, theta) {
                    Some(hit) => {
                        let mut best = (start, theta, hit);
                        while best.0 > 0 {
                            let below = rung(best.0 - 1);
                            match probe(&mut probes, below) {
                                Some(hit) => best = (best.0 - 1, below, hit),
                                None => break,
                            }
                        }
                        Some(best)
                    }
                    None => {
                        let (mut i, mut theta) = (start, theta);
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
            }
            None => {
                let (mut i, mut theta) = (0u32, theta_min);
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
            }
        };
        let (i, theta, pair) = accepted.ok_or(RoutingError::LoadSearchExhausted)?;
        if net.full_conversion() {
            self.warm = Some((epoch, i));
        }
        Ok((theta + BUMP, probes, pair))
    }

    /// §4.2 the old way: the ladder's `G_c` route, then `G_rc` at its
    /// threshold, falling back to the `G_c` route if `G_rc` has no pair.
    fn joint(
        &mut self,
        net: &WdmNetwork,
        st: &ResidualState,
        s: NodeId,
        t: NodeId,
        as_printed: bool,
    ) -> Result<(f64, usize, RobustRoute), RoutingError> {
        let (threshold, probes, (phase1_route, _)) = self.ladder(net, st, s, t)?;
        let spec = if as_printed {
            AuxSpec::g_rc_as_printed(threshold)
        } else {
            AuxSpec::g_rc(threshold)
        };
        let route = match scratch_pair(net, st, s, t, spec) {
            Some([a, b]) => {
                RobustRoute::ordered(refine(net, st, s, t, &a)?, refine(net, st, s, t, &b)?)
            }
            None => {
                self.joint_fallbacks += 1;
                phase1_route
            }
        };
        Ok((threshold, probes, route))
    }
}

/// What a batch of histories exercised.
#[derive(Debug, Default)]
struct Tally {
    /// MinCog requests routed.
    routed: usize,
    /// MinCog requests whose ladder found no feasible rung.
    exhausted: usize,
    /// Ladders the reference warm-started.
    warm_starts: usize,
    /// The largest MinCog probe count.
    max_probes: usize,
    /// Reference joint requests whose `G_rc` pass found no pair.
    joint_fallbacks: usize,
}

/// Runs `seeds` mutation histories of `steps` requests each and compares
/// all three ladder policies, on one shared context, step by step.
fn run_histories(full: bool, seeds: u64, steps: usize) -> Tally {
    let mut tally = Tally::default();
    for seed in 0..seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1A_DDE4 ^ (seed << 1) ^ full as u64);
        let net = random_net(&mut rng, full);
        assert!(!full || net.full_conversion());
        let mut st = ResidualState::fresh(&net);
        let mut ctx = RouterCtx::new();
        let mut reference = Reference::default();
        for step in 0..steps {
            for _ in 0..rng.gen_range(0..4) {
                random_op(&mut rng, &net, &mut st);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let label = format!("full={full} seed {seed} step {step} ({s:?} -> {t:?})");

            match (
                find_two_paths_mincog_ctx(&mut ctx, &net, &st, s, t, A),
                reference.ladder(&net, &st, s, t),
            ) {
                (Ok(got), Ok((threshold, probes, (route, aux_paths)))) => {
                    assert_eq!(got.threshold.to_bits(), threshold.to_bits(), "{label}");
                    assert_eq!(got.probes, probes, "{label}: mincog probes");
                    assert_eq!(got.aux_paths, aux_paths, "{label}: aux paths");
                    assert_eq!(got.route, route, "{label}: mincog route");
                    tally.routed += 1;
                    tally.max_probes = tally.max_probes.max(probes);
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{label}: mincog error");
                    tally.exhausted += (got == RoutingError::LoadSearchExhausted) as usize;
                }
                (got, want) => panic!("{label}: mincog {got:?} vs reference {want:?}"),
            }

            for as_printed in [false, true] {
                let got = if as_printed {
                    find_two_paths_joint_as_printed_ctx(&mut ctx, &net, &st, s, t, A)
                } else {
                    find_two_paths_joint_ctx(&mut ctx, &net, &st, s, t, A)
                };
                match (got, reference.joint(&net, &st, s, t, as_printed)) {
                    (Ok(got), Ok((threshold, probes, route))) => {
                        assert_eq!(got.threshold.to_bits(), threshold.to_bits(), "{label}");
                        assert_eq!(got.phase1_probes, probes, "{label}: joint probes");
                        let bottleneck = route_bottleneck_load(&net, &st, &route);
                        assert_eq!(got.route, route, "{label}: joint route ({as_printed})");
                        assert_eq!(got.bottleneck_load.to_bits(), bottleneck.to_bits());
                    }
                    (Err(got), Err(want)) => assert_eq!(got, want, "{label}: joint error"),
                    (got, want) => panic!("{label}: joint {got:?} vs reference {want:?}"),
                }
            }
        }
        tally.warm_starts += reference.warm_starts;
        tally.joint_fallbacks += reference.joint_fallbacks;
    }
    tally
}

#[test]
fn flow_decided_ladder_matches_the_search_ladder_under_full_conversion() {
    let tally = run_histories(true, 16, 50);
    assert_eq!(tally.joint_fallbacks, 0, "joint fell back to its G_c route");
    // The histories must exercise what they claim to: routed and exhausted
    // requests, warm starts, and ladders that climb.
    assert!(tally.routed > 100 && tally.exhausted > 50, "{tally:?}");
    assert!(
        tally.warm_starts > 100 && tally.max_probes >= 4,
        "{tally:?}"
    );
}

#[test]
fn flow_filtered_ladder_matches_the_search_ladder_under_mixed_conversion() {
    let tally = run_histories(false, 16, 50);
    assert!(tally.routed > 50 && tally.exhausted > 50, "{tally:?}");
}

/// Two 2-hop corridors `0 -> {1, 2} -> 3`, W = 4, full conversion.
fn corridors() -> WdmNetwork {
    let mut b = NetworkBuilder::new(4);
    for _ in 0..4 {
        b.add_node(ConversionTable::Full { cost: 0.5 });
    }
    for mid in [1, 2] {
        b.add_link(NodeId(0), NodeId(mid), 1.0);
        b.add_link(NodeId(mid), NodeId(3), 1.0);
    }
    b.build()
}

#[test]
fn admission_excludes_a_load_on_the_bound_and_links_with_nothing_free() {
    let net = corridors();
    let (s, t) = (NodeId(0), NodeId(3));
    let mut st = ResidualState::fresh(&net);
    // Link 0 at load exactly 1/2.
    st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
    st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
    // A threshold whose bound `ϑ − 1e-12` is exactly 1/2: the rule is
    // strict, so link 0 stays out and the pair with it.
    let on_bound = 0.5 + 1e-12;
    assert_eq!(on_bound - 1e-12, 0.5);
    let spec = AuxSpec::g_c(A, on_bound);
    assert!(!spec.admits(&net, &st, EdgeId(0)));
    assert!(!spec.admits_disjoint_pair(&net, &st, s, t));
    assert_eq!(AuxGraph::build(&net, &st, s, t, spec).admitted_links(), 3);
    let above = AuxSpec::g_c(A, 0.5 + BUMP);
    assert!(above.admits(&net, &st, EdgeId(0)));
    assert!(above.admits_disjoint_pair(&net, &st, s, t));

    // A link with no free wavelength has load 1, below any threshold over
    // 1, yet is never admitted: saturated ...
    let top = AuxSpec::g_c(A, 1.0 + BUMP);
    assert!(top.admits_disjoint_pair(&net, &st, s, t));
    for l in 2..4 {
        st.occupy(&net, EdgeId(0), Wavelength(l)).unwrap();
    }
    assert!(!top.admits(&net, &st, EdgeId(0)));
    assert!(!top.admits_disjoint_pair(&net, &st, s, t));
    // ... or failed.
    for l in 0..4 {
        st.release(EdgeId(0), Wavelength(l)).unwrap();
    }
    st.fail_link(EdgeId(3));
    assert!(!top.admits(&net, &st, EdgeId(3)));
    assert!(!top.admits_disjoint_pair(&net, &st, s, t));
    assert!(!AuxSpec::g_prime().admits(&net, &st, EdgeId(3)));
}
