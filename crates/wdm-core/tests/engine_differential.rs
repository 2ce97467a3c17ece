//! Differential test: the incremental [`AuxEngine`] must be observationally
//! identical to the scratch [`AuxGraph::build`] oracle.
//!
//! A persistent engine per auxiliary-graph family (`G'`, `G_c`, `G_rc`) is
//! dragged through long random sequences of state mutations (occupy /
//! release / fail / repair), request retargets and threshold changes. After
//! every step, each engine's enabled subgraph must match a from-scratch
//! build **bit-for-bit**: same admitted links, same arcs in the same
//! relative order, identical `f64` weight bits, and the same sink bound on
//! every node. On top of that, the engine's guided CSR searches must agree
//! with each other (integer bucket path ≡ f64 path on arc ids and cost
//! bits), with the unguided search on total-cost bits, and with the
//! oracle's guided Suurballe over the scratch graph — same physical edges,
//! same total-cost bits — which pins route identity (refinement is a
//! deterministic function of the physical edge sets).
//!
//! Each family is checked three ways: an engine over its own skeleton, one
//! over a skeleton shared with the other families' engines, and one
//! invalidated before every sync, so that its every sync is the one-pass
//! full refresh rather than the dirty-link one.
//!
//! Finally the persistent-context public entry points
//! ([`find_two_paths_mincog_ctx`], [`find_two_paths_joint_ctx`]) are
//! compared against their one-shot counterparts across the same mutation
//! history.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::aux_engine::{AuxEngine, RouterCtx, Skeleton};
use wdm_core::aux_graph::{AuxArc, AuxGraph, AuxNode, AuxSpec};
use wdm_core::conversion::ConversionTable;
use wdm_core::joint::{find_two_paths_joint, find_two_paths_joint_ctx};
use wdm_core::mincog::{find_two_paths_mincog, find_two_paths_mincog_ctx};
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::wavelength::{Wavelength, WavelengthSet};
use wdm_graph::suurballe::DisjointPair;
use wdm_graph::{EdgeId, NodeId, SearchArena};

fn random_net(rng: &mut ChaCha8Rng) -> WdmNetwork {
    let n = rng.gen_range(4..10usize);
    let w = rng.gen_range(2..6usize);
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        let conv = match rng.gen_range(0..3) {
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

/// One random state mutation; occupy/release on illegal channels are no-ops
/// (`Err` ignored), which also exercises "nothing changed" syncs.
fn random_op(rng: &mut ChaCha8Rng, net: &WdmNetwork, st: &mut ResidualState) {
    let e = EdgeId::from(rng.gen_range(0..net.link_count()));
    match rng.gen_range(0..4) {
        0 => {
            let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
            let _ = st.occupy(net, e, l);
        }
        1 => {
            let l = Wavelength(rng.gen_range(0..net.num_wavelengths()) as u8);
            let _ = st.release(e, l);
        }
        2 => st.fail_link(e),
        _ => st.repair_link(e),
    }
}

/// Canonical form of an auxiliary arc: endpoint kinds + arc kind + weight
/// bits. Node/edge ids differ between the skeleton and a scratch build, but
/// the kinds (`OutNode(e)`, `InNode(e)`, `Source`, `Sink`, arc kinds)
/// identify arcs across both.
type Canon = Vec<(AuxNode, AuxNode, AuxArc, u64)>;

fn canon_engine(eng: &AuxEngine) -> Canon {
    eng.enabled_arcs()
        .map(|(s, t, kind, w)| (s, t, kind, w.to_bits()))
        .collect()
}

fn canon_scratch(aux: &AuxGraph) -> Canon {
    aux.graph
        .edge_ids()
        .map(|e| {
            let d = aux.graph.edge(e);
            let s = *aux.graph.node(aux.graph.src(e));
            let t = *aux.graph.node(aux.graph.dst(e));
            (s, t, d.kind, d.weight.to_bits())
        })
        .collect()
}

/// Two optional pairs over the same skeleton must agree bit-for-bit: same
/// feasibility, same total-cost bits, same arc-id sequences.
fn assert_pair_bits(a: &Option<DisjointPair>, b: &Option<DisjointPair>, label: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{label}: cost bits"
            );
            assert_eq!(a.paths[0].edges, b.paths[0].edges, "{label}: leg 0");
            assert_eq!(a.paths[1].edges, b.paths[1].edges, "{label}: leg 1");
        }
        _ => panic!("{label}: feasibility disagrees"),
    }
}

/// Engine-refreshed graph == scratch build, engine sink bound == scratch
/// bound, CSR integer search == CSR f64 search, guided == unguided on cost
/// bits, and CSR pair search == the oracle's pair search over the scratch
/// graph.
#[allow(clippy::too_many_arguments)]
fn check_family(
    net: &WdmNetwork,
    st: &ResidualState,
    eng: &mut AuxEngine,
    arena: &mut SearchArena,
    s: NodeId,
    t: NodeId,
    spec: AuxSpec,
    ctx_label: &str,
) {
    eng.set_threshold(spec.threshold);
    eng.sync(net, st, s, t);
    let scratch = AuxGraph::build(net, st, s, t, spec);
    assert_eq!(
        eng.admitted_links(),
        scratch.admitted_links(),
        "{ctx_label}: admitted-link count"
    );
    assert_eq!(
        canon_engine(eng),
        canon_scratch(&scratch),
        "{ctx_label}: enabled arcs / weight bits"
    );

    // The production search computes the engine's sink bound first.
    let guided = eng.disjoint_pair(arena, || {});

    // The bound is the scratch build's, bit for bit per node (matched by
    // kind), is 0 at the sink, and is consistent on every enabled arc under
    // the f64 expression the bound is built with (`w + h(v)`).
    for v in scratch.graph.node_ids() {
        let kind = *scratch.graph.node(v);
        assert_eq!(
            eng.bound_of(kind).to_bits(),
            scratch.bound(v).to_bits(),
            "{ctx_label}: sink bound of {kind:?}"
        );
    }
    assert_eq!(eng.bound_of(AuxNode::Sink), 0.0, "{ctx_label}: h(t'')");
    for (u, v, kind, w) in eng.enabled_arcs() {
        let (h_u, h_v) = (eng.bound_of(u), eng.bound_of(v));
        assert!(
            h_u <= w + h_v,
            "{ctx_label}: bound inconsistent on {kind:?} {u:?} -> {v:?}: {h_u} > {w} + {h_v}"
        );
    }

    // The CSR search under the bound on f64 keys and, whenever the dyadic
    // certificate holds, on the integer keys the engine then hands over
    // must be bit-identical to each other over the same skeleton (same arc
    // ids, same cost bits).
    let (aux_s, aux_t) = (eng.source(), eng.sink());
    let h = |v| eng.bound(v);
    let (view, int) = (eng.flat_view(), eng.int_weights());
    let flat_pair = arena.edge_disjoint_pair_flat(&view, None, aux_s, aux_t, h, || {});
    let int_pair = int
        .as_ref()
        .map(|iw| arena.edge_disjoint_pair_flat(&view, Some(iw), aux_s, aux_t, h, || {}));
    assert_pair_bits(
        &flat_pair,
        &guided,
        &format!("{ctx_label}: flat f64 vs engine"),
    );
    if let Some(ip) = &int_pair {
        assert_pair_bits(
            &flat_pair,
            ip,
            &format!("{ctx_label}: flat int vs flat f64"),
        );
    }

    // The bound changes which equal-cost pair wins, never the optimum: the
    // unguided search (h = 0) finds the same total-cost bits.
    let unguided = arena.edge_disjoint_pair_flat(&view, int.as_ref(), aux_s, aux_t, |_| 0.0, || {});
    match (&guided, &unguided) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            a.total_cost.to_bits(),
            b.total_cost.to_bits(),
            "{ctx_label}: guided vs unguided cost bits"
        ),
        _ => panic!("{ctx_label}: guided and unguided feasibility disagree"),
    }

    // And the CSR pair must be the scratch oracle's pair: same physical
    // edges per leg, same cost bits.
    let scratch_pair = scratch.disjoint_pair();
    match (flat_pair, scratch_pair) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{ctx_label}: pair cost bits"
            );
            for leg in 0..2 {
                assert_eq!(
                    eng.physical_edges(&a.paths[leg]),
                    scratch.physical_edges(&b.paths[leg]),
                    "{ctx_label}: physical edges of leg {leg}"
                );
            }
        }
        (a, b) => panic!(
            "{ctx_label}: feasibility mismatch (engine {:?}, scratch {:?})",
            a.is_some(),
            b.is_some()
        ),
    }
}

#[test]
fn engine_equals_scratch_under_random_mutation_sequences() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF ^ seed);
        let net = random_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        // Per family: an engine over its own skeleton, one over the
        // skeleton all three families share, and one invalidated before
        // every sync, so that every sync is a full refresh.
        let shared = Arc::new(Skeleton::new(&net));
        let spec_of = |family: usize, theta: f64| match family {
            0 => (AuxSpec::g_prime(), "G'"),
            1 => (AuxSpec::g_c(2.0, theta), "G_c"),
            _ => (AuxSpec::g_rc(theta), "G_rc"),
        };
        let mut engines: Vec<[AuxEngine; 3]> = (0..3)
            .map(|family| {
                let spec = spec_of(family, 0.5).0;
                [
                    AuxEngine::new(&net, spec),
                    AuxEngine::with_skeleton(Arc::clone(&shared), spec),
                    AuxEngine::new(&net, spec),
                ]
            })
            .collect();
        let mut theta = 0.5;
        for _step in 0..40 {
            for _ in 0..rng.gen_range(0..3) {
                random_op(&mut rng, &net, &mut st);
            }
            if rng.gen_bool(0.3) {
                theta = rng.gen_range(0.05..1.1);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            for (family, [own, over_shared, full]) in engines.iter_mut().enumerate() {
                let (spec, label) = spec_of(family, theta);
                full.invalidate();
                for (eng, how) in [
                    (own, ""),
                    (over_shared, " over a shared skeleton"),
                    (full, " fully refreshed"),
                ] {
                    let label = format!("{label}{how}");
                    check_family(&net, &st, eng, &mut arena, s, t, spec, &label);
                }
            }
        }
    }
}

/// Quarter-integer link costs and free conversions make every aux weight a
/// dyadic rational below the scale cap, so the engine's integer certificate
/// must hold and the scaled bucket search must engage — and stay
/// bit-identical to the f64 search and the scratch oracle.
///
/// (Conversion costs must be 0 here: a conversion arc averages over all
/// allowed pairs *including* free identity pairs, so `m·c / k` with `m < k`
/// is generally non-dyadic for `c ≠ 0`.)
fn dyadic_net(rng: &mut ChaCha8Rng) -> WdmNetwork {
    let n = rng.gen_range(4..10usize);
    let w = 4usize;
    let mut b = NetworkBuilder::new(w);
    for _ in 0..n {
        let conv = match rng.gen_range(0..3) {
            0 => ConversionTable::None,
            1 => ConversionTable::Full { cost: 0.0 },
            _ => ConversionTable::Range {
                range: rng.gen_range(1..3),
                cost: 0.0,
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
                let cost = rng.gen_range(4..40) as f64 / 4.0;
                b.add_link_with(NodeId(u), NodeId(v), cost, set);
            }
        }
    }
    b.build()
}

#[test]
fn dyadic_costs_engage_certified_integer_path() {
    for seed in 0..10u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DAD ^ seed);
        let net = dyadic_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        let mut eng_gp = AuxEngine::new(&net, AuxSpec::g_prime());
        let mut eng_grc = AuxEngine::new(&net, AuxSpec::g_rc(0.5));
        let mut theta = 0.5;
        for _step in 0..25 {
            for _ in 0..rng.gen_range(0..3) {
                random_op(&mut rng, &net, &mut st);
            }
            if rng.gen_bool(0.3) {
                theta = rng.gen_range(0.05..1.1);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            check_family(
                &net,
                &st,
                &mut eng_gp,
                &mut arena,
                s,
                t,
                AuxSpec::g_prime(),
                "dyadic G'",
            );
            assert!(eng_gp.int_certified(), "dyadic G' weights must certify");
            check_family(
                &net,
                &st,
                &mut eng_grc,
                &mut arena,
                s,
                t,
                AuxSpec::g_rc(theta),
                "dyadic G_rc",
            );
            assert!(eng_grc.int_certified(), "dyadic G_rc weights must certify");
        }
    }
}

/// Extreme cost ranges must *decertify* the integer path (scale overflow or
/// non-dyadic fractions) rather than route on clamped keys: the engine falls
/// back to the f64 flat search and still matches the scratch oracle
/// bit-for-bit. Regression for the weight-scaling overflow guard.
#[test]
fn extreme_cost_ranges_decertify_and_still_match() {
    // Case 1: huge dyadic costs — `cost << SCALE_SHIFT` exceeds the key cap.
    // Case 2: fine-grained non-dyadic costs (multiples of 0.1).
    for (case, cost_of) in [
        ("overflow", (|i: u32| 2048.0 + i as f64) as fn(u32) -> f64),
        (
            "non-dyadic",
            (|i: u32| 0.1 * (i + 1) as f64) as fn(u32) -> f64,
        ),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB16C057);
        let w = 4usize;
        let mut b = NetworkBuilder::new(w);
        for _ in 0..6 {
            b.add_node(ConversionTable::Full { cost: 0.0 });
        }
        let mut i = 0u32;
        for u in 0..6u32 {
            for v in 0..6u32 {
                if u != v && rng.gen_bool(0.6) {
                    b.add_link_with(NodeId(u), NodeId(v), cost_of(i), WavelengthSet::full(w));
                    i += 1;
                }
            }
        }
        let net = b.build();
        let mut st = ResidualState::fresh(&net);
        let mut arena = SearchArena::new();
        let mut eng = AuxEngine::new(&net, AuxSpec::g_prime());
        for step in 0..10 {
            random_op(&mut rng, &net, &mut st);
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            check_family(
                &net,
                &st,
                &mut eng,
                &mut arena,
                s,
                t,
                AuxSpec::g_prime(),
                &format!("{case} step {step}"),
            );
            assert!(
                !eng.int_certified(),
                "{case}: extreme costs must decertify the integer path"
            );
        }
    }
}

/// The persistent-context public entry points agree with their one-shot
/// counterparts at every step of a mutation history (same thresholds,
/// probe counts and routes).
#[test]
fn persistent_ctx_entry_points_match_one_shot() {
    for seed in 0..15u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC7 ^ seed);
        let net = random_net(&mut rng);
        let mut st = ResidualState::fresh(&net);
        let mut ctx = RouterCtx::new();
        for _step in 0..25 {
            for _ in 0..rng.gen_range(0..4) {
                random_op(&mut rng, &net, &mut st);
            }
            let s = NodeId(rng.gen_range(0..net.node_count()) as u32);
            let t = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if s == t {
                continue;
            }
            match (
                find_two_paths_mincog_ctx(&mut ctx, &net, &st, s, t, 2.0),
                find_two_paths_mincog(&net, &st, s, t, 2.0),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.probes, b.probes);
                    assert_eq!(a.aux_paths, b.aux_paths);
                    assert_eq!(a.route, b.route);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("mincog ctx/one-shot mismatch: {a:?} vs {b:?}"),
            }
            match (
                find_two_paths_joint_ctx(&mut ctx, &net, &st, s, t, 2.0),
                find_two_paths_joint(&net, &st, s, t, 2.0),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(a.route, b.route);
                    assert_eq!(a.bottleneck_load.to_bits(), b.bottleneck_load.to_bits());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("joint ctx/one-shot mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
