//! End-to-end journal equivalence: a journaled simulation (arrivals,
//! departures, fibre cuts, repairs, reconfiguration sweeps) must replay to
//! the exact final state, and journaling must not perturb the run itself.

use wdm_core::journal::StateJournal;
use wdm_core::network::{NetworkBuilder, ResidualState};
use wdm_graph::EdgeId;
use wdm_sim::policy::Policy;
use wdm_sim::sim::{run_sim, run_sim_journaled, SimConfig};
use wdm_sim::traffic::TrafficModel;

fn cfg(policy: Policy, seed: u64) -> SimConfig {
    SimConfig {
        policy,
        traffic: TrafficModel::new(5.0, 10.0),
        duration: 150.0,
        failure_rate: 0.02,
        mean_repair: 15.0,
        reconfig_threshold: Some(0.7),
        seed,
        switchover_time: 0.001,
        setup_time_per_hop: 0.05,
    }
}

/// For every (seed, policy) pair: replaying the recorded journal over its
/// checkpoint reconstructs the live run's final state bit-identically —
/// payload, failure flags, global clock, and every per-link clock.
#[test]
fn journaled_simulation_replays_bit_identically() {
    let net = NetworkBuilder::nsfnet(8).build();
    let a = std::f64::consts::E;
    // Primary-only connections are unprotected, so every cut re-routes or
    // drops them (a `Reconfigure` with nothing occupied).
    for policy in [Policy::CostOnly, Policy::Joint { a }, Policy::PrimaryOnly] {
        for seed in [1u64, 17, 20260805] {
            let mut journal = StateJournal::new(ResidualState::fresh(&net));
            let (metrics, final_state) = run_sim_journaled(&net, cfg(policy, seed), &mut journal);
            assert!(
                metrics.offered > 0 && !journal.is_empty(),
                "the run must exercise the journal (seed {seed})"
            );

            let replayed = journal
                .replay(&net)
                .unwrap_or_else(|e| panic!("seed {seed}: replay diverged: {e}"));
            assert_eq!(replayed, final_state, "payload diverged (seed {seed})");
            assert_eq!(
                replayed.change_clock(),
                final_state.change_clock(),
                "global clock diverged (seed {seed})"
            );
            for ei in 0..net.link_count() {
                let e = EdgeId::from(ei);
                assert_eq!(
                    replayed.link_change_clock(e),
                    final_state.link_change_clock(e),
                    "link clock diverged on {e:?} (seed {seed})"
                );
            }
            assert_eq!(replayed.semantic_hash(), final_state.semantic_hash());
        }
    }
}

/// Journaling is observation, not interference: the journaled run's metrics
/// equal the plain run's for the same configuration.
#[test]
fn journaling_does_not_perturb_the_run() {
    let net = NetworkBuilder::nsfnet(8).build();
    for seed in [1u64, 17] {
        let c = cfg(Policy::CostOnly, seed);
        let plain = run_sim(&net, c);
        let mut journal = StateJournal::new(ResidualState::fresh(&net));
        let (journaled, _) = run_sim_journaled(&net, c, &mut journal);
        assert_eq!(plain, journaled, "seed {seed}");
    }
}
