//! Property test: batch provisioning on one warm router context is
//! bit-identical to the cold serial fold — routing each demand with a
//! throwaway context ([`Policy::route`]) and occupying it before the next.
//! The oracle below is written out here, independent of the library's
//! loop, and the two must agree on the routes, the rejection set, the total
//! cost in the same floating-point accumulation order, the load snapshot
//! and the residual state, for every policy and processing order. The
//! journal the warm run writes must replay to the same final state.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::conversion::ConversionTable;
use wdm_core::load::load_snapshot;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_core::optimal_slp::optimal_semilightpath;
use wdm_sim::batch::BatchOutcome;
use wdm_sim::prelude::*;

/// A random connected network whose directed links carry pairwise-distinct
/// uniform costs (cost rank `k` lands in `(k, k + 1)`). Conversion is a
/// 50/50 mix of none at all and full conversion at cost 0.3.
fn random_distinct_net(rng: &mut ChaCha8Rng, w: usize) -> WdmNetwork {
    let n = rng.gen_range(5..12usize);
    let conv = if rng.gen_bool(0.5) {
        ConversionTable::Full { cost: 0.3 }
    } else {
        ConversionTable::None
    };
    let mut b = NetworkBuilder::new(w);
    let nodes: Vec<_> = (0..n).map(|_| b.add_node(conv.clone())).collect();
    let mut k = 0.0f64;
    let mut cost = |rng: &mut ChaCha8Rng| {
        let c = k + rng.gen_range(0.05..0.95);
        k += 1.0;
        c
    };
    // A bidirected ring keeps the graph connected…
    for i in 0..n {
        let j = (i + 1) % n;
        let c = cost(rng);
        b.add_link(nodes[i], nodes[j], c);
        let c = cost(rng);
        b.add_link(nodes[j], nodes[i], c);
    }
    // …plus random chords for route diversity.
    for _ in 0..rng.gen_range(n..3 * n) {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            let c = cost(rng);
            b.add_link(nodes[i], nodes[j], c);
        }
    }
    b.build()
}

/// The shape of every real topology this system builds: each fibre is a
/// pair of directed links sharing one cost, and conversion is priced. Costs
/// are drawn from a few quarter-integer values, so equal-cost paths tie.
fn random_bidirected_net(rng: &mut ChaCha8Rng, w: usize) -> WdmNetwork {
    let n = rng.gen_range(5..12usize);
    let conv = ConversionTable::Full {
        cost: [0.25, 0.5, 1.0][rng.gen_range(0..3)],
    };
    let mut b = NetworkBuilder::new(w);
    let nodes: Vec<_> = (0..n).map(|_| b.add_node(conv.clone())).collect();
    let fibre = |b: &mut NetworkBuilder, rng: &mut ChaCha8Rng, i: usize, j: usize| {
        let c = f64::from(rng.gen_range(4..12u8)) / 4.0;
        b.add_link(nodes[i], nodes[j], c);
        b.add_link(nodes[j], nodes[i], c);
    };
    for i in 0..n {
        fibre(&mut b, rng, i, (i + 1) % n);
    }
    for _ in 0..rng.gen_range(1..n) {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            fibre(&mut b, rng, i, j);
        }
    }
    b.build()
}

/// Random demands over `n` nodes, occasionally degenerate (`s == t`).
fn random_demands(rng: &mut ChaCha8Rng, n: usize) -> Vec<Demand> {
    let count = rng.gen_range(10..60usize);
    (0..count)
        .map(|_| {
            let s = rng.gen_range(0..n as u32);
            let t = if rng.gen_bool(0.05) {
                s
            } else {
                rng.gen_range(0..n as u32)
            };
            Demand::new(s, t)
        })
        .collect()
}

const POLICIES: [Policy; 9] = [
    Policy::CostOnly,
    Policy::LoadOnly { a: 2.0 },
    Policy::Joint { a: 2.0 },
    Policy::JointAsPrinted { a: 2.0 },
    Policy::TwoStep,
    Policy::Unrefined,
    Policy::Ksp { k: 3 },
    Policy::NodeDisjoint,
    Policy::PrimaryOnly,
];

const ORDERS: [BatchOrder; 3] = [
    BatchOrder::AsGiven,
    BatchOrder::ShortestFirst,
    BatchOrder::LongestFirst,
];

/// The oracle: sort by the unprotected optimum on the initial state, then
/// route every demand cold and occupy it before the next.
fn cold_fold(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
) -> BatchOutcome {
    let mut idx: Vec<usize> = (0..demands.len()).collect();
    if order != BatchOrder::AsGiven {
        let key = |i: usize| {
            optimal_semilightpath(net, state, demands[i].src, demands[i].dst)
                .map_or(f64::INFINITY, |p| p.cost)
        };
        idx.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("costs are not NaN"));
        if order == BatchOrder::LongestFirst {
            idx.reverse();
        }
    }
    let mut st = state.clone();
    let (mut provisioned, mut rejected, mut total_cost) = (Vec::new(), Vec::new(), 0.0);
    for i in idx {
        match policy.route(net, &st, demands[i].src, demands[i].dst) {
            Ok(route) => {
                route
                    .occupy(net, &mut st)
                    .expect("route fits its own state");
                total_cost += route.total_cost();
                provisioned.push((i, route));
            }
            Err(_) => rejected.push(i),
        }
    }
    BatchOutcome {
        provisioned,
        rejected,
        total_cost,
        final_load: load_snapshot(net, &st),
        state: st,
    }
}

fn check_all(net: &WdmNetwork, demands: &[Demand]) -> Result<(), TestCaseError> {
    let st = ResidualState::fresh(net);
    for policy in POLICIES {
        for order in ORDERS {
            let cold = cold_fold(net, &st, demands, policy, order);
            let sink = TelemetrySink::new();
            let mut journal = StateJournal::new(st.clone());
            let cfg = BatchConfig { policy, order };
            let (warm, ()) = run_batch_journaled(net, &st, demands, cfg, &sink, &mut journal);
            let what = format!("{} {order:?}", policy.name());
            prop_assert_eq!(&warm.provisioned, &cold.provisioned, "{}", what);
            prop_assert_eq!(&warm.rejected, &cold.rejected, "{}", what);
            prop_assert_eq!(
                warm.total_cost.to_bits(),
                cold.total_cost.to_bits(),
                "{}",
                what
            );
            prop_assert_eq!(&warm.final_load, &cold.final_load, "{}", what);
            prop_assert_eq!(&warm.state, &cold.state, "{}", what);

            let replayed = journal.replay(net).expect("journal replays");
            prop_assert_eq!(
                replayed.semantic_hash(),
                warm.state.semantic_hash(),
                "{}",
                what
            );

            // The recorder rides on the batch's one context: every demand
            // is recorded once, and the context builds at most one
            // auxiliary-graph skeleton, which all its engines share.
            let snap = sink.snapshot();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            prop_assert_eq!(counter("requests_routed"), warm.provisioned.len() as u64);
            prop_assert_eq!(counter("requests_blocked"), warm.rejected.len() as u64);
            prop_assert!(counter("engine_skeleton_builds") <= 1, "{}", what);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Random distinct-cost topologies.
    #[test]
    fn warm_batch_matches_cold_fold_on_distinct_costs(
        seed in 0u64..1_000_000,
        w_idx in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = random_distinct_net(&mut rng, [2, 4, 8][w_idx]);
        let demands = random_demands(&mut rng, net.node_count());
        check_all(&net, &demands)?;
    }

    /// Bidirected equal-cost fibres with priced conversion.
    #[test]
    fn warm_batch_matches_cold_fold_on_bidirected_nets(
        seed in 0u64..1_000_000,
        w_idx in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = random_bidirected_net(&mut rng, [2, 4, 8][w_idx]);
        let demands = random_demands(&mut rng, net.node_count());
        check_all(&net, &demands)?;
    }

    /// NSFNET at a capacity where the batch blocks.
    #[test]
    fn warm_batch_matches_cold_fold_on_nsfnet(seed in 0u64..1_000_000) {
        let net = NetworkBuilder::nsfnet(4).build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let demands = random_demands(&mut rng, net.node_count());
        check_all(&net, &demands)?;
    }
}
