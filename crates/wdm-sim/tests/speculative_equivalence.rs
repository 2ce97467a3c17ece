//! Property test: the speculative batch engine is *serial-equivalent* —
//! for every window size `K`, [`wdm_sim::sim::run_batch`] returns a
//! [`BatchOutcome`] bit-identical to the serial run's (routes, rejection
//! set, total cost in the same floating-point accumulation order, load
//! snapshot, residual state), across random topologies, wavelength
//! counts, demand sequences, processing orders and policies — including
//! load-sensitive policies, where only commit rule 1 applies, and
//! uniform-cost networks, where rule 2's guard is off. The same standard
//! as `telemetry_parallel.rs`: equality, not approximation.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::conversion::ConversionTable;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_sim::batch::BatchOutcome;
use wdm_sim::prelude::*;

/// A random connected network whose directed links carry pairwise-distinct
/// uniform costs (cost rank `k` lands in `(k, k + 1)`). Conversion is a
/// 50/50 mix of free (`None` — rule 2's full guard holds) and costed
/// (`Full { cost: 0.3 }` — the guard correctly turns rule 2 off, since
/// the G′ conversion-arc averages move with occupancy), so the suite
/// pins serial equivalence on both sides of the soundness boundary.
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

fn assert_bit_identical(a: &BatchOutcome, b: &BatchOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.provisioned, &b.provisioned);
    prop_assert_eq!(&a.rejected, &b.rejected);
    prop_assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
    prop_assert_eq!(&a.final_load, &b.final_load);
    prop_assert_eq!(&a.state, &b.state);
    Ok(())
}

const POLICIES: [Policy; 8] = [
    Policy::CostOnly,
    Policy::TwoStep,
    Policy::Unrefined,
    Policy::Ksp { k: 3 },
    Policy::LoadOnly { a: 2.0 },
    Policy::Joint { a: 2.0 },
    Policy::NodeDisjoint,
    Policy::PrimaryOnly,
];

const ORDERS: [BatchOrder; 3] = [
    BatchOrder::AsGiven,
    BatchOrder::ShortestFirst,
    BatchOrder::LongestFirst,
];

const SCHEDULES: [ScheduleMode; 2] = [
    ScheduleMode::ConflictGroups,
    ScheduleMode::Sharded { shards: 3 },
];

fn check_all_windows(
    net: &WdmNetwork,
    demands: &[Demand],
    policy: Policy,
    order: BatchOrder,
) -> Result<(), TestCaseError> {
    let st = ResidualState::fresh(net);
    let serial = provision_batch(net, &st, demands, policy, order);
    for schedule in SCHEDULES {
        for window in [1usize, 2, 8, 64] {
            let cfg = BatchConfig {
                policy,
                order,
                parallel_window: window,
                schedule,
                // A fixed worker count keeps the parallel fan-out path
                // exercised deterministically regardless of the host.
                threads: 2,
            };
            let sink = TelemetrySink::new();
            let (out, stats) = run_batch_recorded(net, &st, demands, cfg, &sink);
            assert_bit_identical(&serial, &out)?;
            let snap = sink.snapshot();
            if window <= 1 {
                prop_assert_eq!(stats, SpeculationStats::default());
                prop_assert_eq!(snap.counters["speculative_commits"], 0);
            } else {
                // Every abort is retried, and every demand commits exactly
                // once — retries and skips commit inline, so the three
                // paths partition the demand set.
                prop_assert_eq!(stats.aborts, stats.retries);
                prop_assert_eq!(
                    stats.commits + stats.retries + stats.inline_routes,
                    demands.len() as u64
                );
                if let ScheduleMode::Sharded { .. } = schedule {
                    // Cross-shard demands are a subset of the inline path,
                    // and the counter mirrors the stat.
                    prop_assert!(stats.cut_demands <= stats.inline_routes);
                    prop_assert_eq!(snap.counters["sharded_cut_demands"], stats.cut_demands);
                }
                prop_assert_eq!(snap.counters["speculative_commits"], stats.commits);
                prop_assert_eq!(snap.counters["speculative_aborts"], stats.aborts);
                prop_assert_eq!(snap.counters["speculative_retries"], stats.retries);
                prop_assert_eq!(
                    snap.counters["speculative_inline_routes"],
                    stats.inline_routes
                );
                prop_assert_eq!(snap.histograms["window_occupancy"].count, stats.rounds);
                if schedule == ScheduleMode::ConflictGroups {
                    let grp = &snap.histograms["conflict_group_size"];
                    prop_assert_eq!(grp.count, stats.rounds);
                    prop_assert!(grp.max <= window as u64);
                }
                // The speculated routing calls themselves are unrecorded.
                prop_assert_eq!(snap.counters["suurballe_searches"], 0);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Random distinct-cost topologies: rule 2 commits across the window
    /// for link-local policies (`CostOnly`, `Unrefined`, `NodeDisjoint`);
    /// everything else — load-sensitive policies, but also `TwoStep` /
    /// `Ksp` / `PrimaryOnly`, whose wavelength ties are broken by global
    /// exploration order — falls back to rule 1. Both must reproduce the
    /// serial outcome exactly.
    #[test]
    fn speculative_batch_is_bit_identical_to_serial(
        seed in 0u64..1_000_000,
        w_idx in 0usize..3,
        policy_idx in 0usize..POLICIES.len(),
        order_idx in 0usize..ORDERS.len(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = random_distinct_net(&mut rng, [2, 4, 8][w_idx]);
        let demands = random_demands(&mut rng, net.node_count());
        check_all_windows(&net, &demands, POLICIES[policy_idx], ORDERS[order_idx])?;
    }

    /// NSFNET's twin directed links share costs, so the rule 2 guard is
    /// off and every non-leading commit must wait for its own round.
    #[test]
    fn speculative_batch_matches_serial_on_uniform_cost_nsfnet(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..POLICIES.len(),
        order_idx in 0usize..ORDERS.len(),
    ) {
        let net = NetworkBuilder::nsfnet(4).build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let demands = random_demands(&mut rng, net.node_count());
        check_all_windows(&net, &demands, POLICIES[policy_idx], ORDERS[order_idx])?;
    }
}
