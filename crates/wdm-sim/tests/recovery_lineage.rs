//! Random provision / teardown / fail-and-recover / repair / reconfigure
//! sequences through one journaled `NetProvisioner`. After every step the
//! channels the state holds are exactly the live connections' routes and
//! no live route crosses a failed link; at the end the journal replays to
//! the live state, change clocks included.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::journal::StateJournal;
use wdm_core::network::{NetworkBuilder, ResidualState, WdmNetwork};
use wdm_graph::{EdgeId, NodeId};
use wdm_sim::policy::Policy;
use wdm_sim::provisioner::{NetProvisioner, Provisioner, Recovery};
use wdm_telemetry::NoopRecorder;

const SEEDS: u64 = 12;
const STEPS: usize = 120;

type Prov<'a, 'j> = NetProvisioner<'a, NoopRecorder, &'j mut StateJournal>;

/// How often each recovery outcome was seen, so the test can show that
/// its random sequences reach every branch.
#[derive(Default)]
struct Reached {
    switched: u64,
    backup_lost: u64,
    rerouted: u64,
    dropped: u64,
    moved: u64,
}

/// The state holds exactly the channels of the live connections, each
/// once, and none of them sits on a failed link.
fn check(p: &Prov<'_, '_>, net: &WdmNetwork, live: &BTreeSet<u64>, what: &str) {
    assert_eq!(p.active_connections(), live.len(), "{what}: table size");
    let mut held = BTreeSet::new();
    for &id in live {
        let c = p
            .connection(id)
            .unwrap_or_else(|| panic!("{what}: {id} gone"));
        for h in c.route.channels() {
            assert!(
                !p.state().is_failed(h.edge),
                "{what}: connection {id} crosses failed {:?}",
                h.edge
            );
            assert!(
                held.insert((h.edge, h.wavelength)),
                "{what}: channel {h:?} held twice"
            );
        }
    }
    let used: BTreeSet<_> = (0..net.link_count())
        .map(EdgeId::from)
        .flat_map(|e| p.state().used(e).iter().map(move |l| (e, l)))
        .collect();
    assert_eq!(used, held, "{what}: state and connection table disagree");
}

fn run(net: &WdmNetwork, policy: Policy, seed: u64, reached: &mut Reached) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut journal = StateJournal::new(ResidualState::fresh(net));
    let (seq, live_state) = {
        let mut p = NetProvisioner::with_parts(
            net,
            policy,
            ResidualState::fresh(net),
            RouterCtx::new(),
            &mut journal,
        );
        let mut live = BTreeSet::new();
        for step in 0..STEPS {
            let what = format!("{} seed {seed} step {step}", policy.name());
            let link = EdgeId::from(rng.gen_range(0..net.link_count()));
            match rng.gen_range(0..100u32) {
                0..=44 => {
                    let s = rng.gen_range(0..net.node_count());
                    let t = (s + rng.gen_range(1..net.node_count())) % net.node_count();
                    if let Ok(id) = p.provision(NodeId::from(s), NodeId::from(t)) {
                        live.insert(id);
                    }
                }
                45..=64 if !live.is_empty() => {
                    let id = *live.iter().nth(rng.gen_range(0..live.len())).unwrap();
                    assert!(p.teardown(id).is_some(), "{what}: teardown {id}");
                    live.remove(&id);
                }
                65..=79 => {
                    let was_failed = p.state().is_failed(link);
                    let Some(outcomes) = p.fail_and_recover(link) else {
                        assert!(was_failed, "{what}: a live link refused to fail");
                        continue;
                    };
                    let ids: Vec<u64> = outcomes.iter().map(|&(id, _)| id).collect();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: oldest first");
                    for (id, outcome) in outcomes {
                        assert!(live.contains(&id), "{what}: recovered unknown {id}");
                        match outcome {
                            Recovery::Switched { .. } => reached.switched += 1,
                            Recovery::BackupLost { .. } => reached.backup_lost += 1,
                            Recovery::Rerouted { .. } => reached.rerouted += 1,
                            Recovery::Dropped => {
                                reached.dropped += 1;
                                live.remove(&id);
                            }
                        }
                    }
                }
                80..=89 => {
                    p.repair_link(link);
                }
                _ => {
                    let threshold = rng.gen_range(0.25..1.0);
                    let moved = p.reconfigure(threshold).expect("probe occupies");
                    reached.moved += moved.unwrap_or(0) as u64;
                }
            }
            check(&p, net, &live, &what);
        }
        (p.journal_seq(), p.into_state())
    };

    assert_eq!(seq, journal.len() as u64);
    let replayed = journal.replay(net).expect("journal replays");
    assert_eq!(replayed, live_state, "{} seed {seed}", policy.name());
    assert_eq!(replayed.change_clock(), live_state.change_clock());
    for e in (0..net.link_count()).map(EdgeId::from) {
        assert_eq!(
            replayed.link_change_clock(e),
            live_state.link_change_clock(e),
            "{} seed {seed}: clock of {e:?}",
            policy.name()
        );
    }
}

#[test]
fn random_lifecycles_keep_state_table_and_journal_in_step() {
    // W = 4 so provisions block and re-routes fail often enough to reach
    // every recovery branch.
    let net = NetworkBuilder::nsfnet(4).build();
    let a = std::f64::consts::E;
    let mut reached = Reached::default();
    for policy in [Policy::CostOnly, Policy::Joint { a }, Policy::PrimaryOnly] {
        for seed in 0..SEEDS {
            run(&net, policy, seed, &mut reached);
        }
    }
    assert!(reached.switched > 0, "no switchover");
    assert!(reached.backup_lost > 0, "no lost backup");
    assert!(reached.rerouted > 0, "no passive re-route");
    assert!(reached.dropped > 0, "no dropped connection");
    assert!(reached.moved > 0, "no reconfiguration move");
}
