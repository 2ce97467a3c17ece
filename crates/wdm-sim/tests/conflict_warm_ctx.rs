//! Warm router contexts across refused commits.
//!
//! The daemon routes on several worker contexts against one shared state
//! and commits later through [`NetProvisioner::try_commit`]; a route that
//! another worker's commit, a teardown, a fibre cut or a repair made stale
//! is refused and re-routed in place on the worker's own context. This
//! test drives that interleaving serially from a seed. A refused commit
//! changes nothing, so every re-route and, after every operation, each
//! warm context — both workers' and the provisioner's own, which failure
//! recovery routes on — routes exactly as a fresh one does (same channels,
//! same cost bits), and the journal replays to the live state, change
//! clocks included.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::error::RoutingError;
use wdm_core::journal::StateJournal;
use wdm_core::network::{NetworkBuilder, ResidualState, StateError, WdmNetwork};
use wdm_core::semilightpath::Hop;
use wdm_graph::{EdgeId, NodeId};
use wdm_sim::policy::{Policy, ProvisionedRoute};
use wdm_sim::provisioner::{NetProvisioner, Provisioner};

const STEPS: usize = 200;

/// What "routes the same" means: the channels in order and the cost bits.
type Routed = Result<(Vec<Hop>, u64), String>;

fn key(r: Result<ProvisionedRoute, RoutingError>) -> Routed {
    r.map(|r| (r.channels(), r.total_cost().to_bits()))
        .map_err(|e| e.to_string())
}

fn demand(rng: &mut ChaCha8Rng, n: usize) -> (NodeId, NodeId) {
    let s = rng.gen_range(0..n);
    let t = (s + rng.gen_range(1..n)) % n;
    (NodeId(s as u32), NodeId(t as u32))
}

/// A daemon worker: its warm context and the route it computed but has
/// not committed yet.
#[derive(Default)]
struct Worker {
    ctx: RouterCtx,
    pending: Option<(NodeId, NodeId, ProvisionedRoute)>,
}

fn assert_replays_live(journal: &StateJournal, live: &ResidualState, net: &WdmNetwork, at: &str) {
    let replayed = journal.replay(net).expect("replay");
    assert_eq!(&replayed, live, "payload diverged {at}");
    assert_eq!(
        replayed.change_clock(),
        live.change_clock(),
        "clock diverged {at}"
    );
    for e in (0..net.link_count()).map(EdgeId::from) {
        assert_eq!(
            replayed.link_change_clock(e),
            live.link_change_clock(e),
            "clock of {e:?} diverged {at}"
        );
    }
}

/// Runs one seeded interleaving; returns the refused commits as
/// `[taken channel, failed link]`.
fn run(net: &WdmNetwork, policy: Policy, seed: u64) -> [usize; 2] {
    let n = net.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut journal = StateJournal::new(ResidualState::fresh(net));
    let mut p = NetProvisioner::with_parts(
        net,
        policy,
        ResidualState::fresh(net),
        RouterCtx::new(),
        &mut journal,
    );
    let mut workers = [Worker::default(), Worker::default()];
    let mut live: Vec<u64> = Vec::new();
    let mut failed: Vec<EdgeId> = Vec::new();
    let mut conflicts = [0usize; 2];
    for step in 0..STEPS {
        let at = format!("at step {step} ({policy:?}, seed {seed})");
        let w = rng.gen_range(0..2);
        match rng.gen_range(0..10) {
            // A worker routes under the "read lock" if it holds nothing,
            // half the time on the other worker's pending demand so the
            // two stale routes race for the same channels...
            0..=5 if workers[w].pending.is_none() => {
                let (s, t) = match &workers[1 - w].pending {
                    Some((s, t, _)) if rng.gen_bool(0.5) => (*s, *t),
                    _ => demand(&mut rng, n),
                };
                let routed = policy.route_ctx(&mut workers[w].ctx, net, p.state(), s, t);
                let cold = policy.route(net, p.state(), s, t);
                assert_eq!(key(routed.clone()), key(cold), "worker {w} routed {at}");
                workers[w].pending = routed.ok().map(|r| (s, t, r));
            }
            // ...and otherwise commits under the "write lock", re-routing
            // in place on its own context when the route went stale, as
            // the daemon does.
            0..=5 => {
                let (s, t, route) = workers[w].pending.take().expect("guarded above");
                match p.try_commit(s, t, route) {
                    Ok(id) => live.push(id),
                    Err(err) => {
                        match err {
                            StateError::AlreadyUsed => conflicts[0] += 1,
                            StateError::LinkFailed => conflicts[1] += 1,
                            other => panic!("unexpected conflict {other:?} {at}"),
                        }
                        let rerouted =
                            policy.reroute_ctx(&mut workers[w].ctx, net, p.state(), s, t);
                        let cold = policy.route(net, p.state(), s, t);
                        assert_eq!(
                            key(rerouted.clone()),
                            key(cold),
                            "worker {w} re-routed {at}"
                        );
                        if let Ok(route) = rerouted {
                            live.push(p.commit(s, t, route));
                        }
                    }
                }
            }
            6 | 7 => {
                if !live.is_empty() {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(p.teardown(id).is_some(), "teardown {at}");
                }
            }
            // Cut a fibre, most often one a pending route crosses.
            8 => {
                let pending: Vec<EdgeId> = workers
                    .iter()
                    .filter_map(|wk| wk.pending.as_ref())
                    .flat_map(|(_, _, r)| r.channels())
                    .map(|h| h.edge)
                    .collect();
                let link = if !pending.is_empty() && rng.gen_bool(0.7) {
                    pending[rng.gen_range(0..pending.len())]
                } else {
                    EdgeId::from(rng.gen_range(0..net.link_count()))
                };
                if p.fail_link(link) {
                    failed.push(link);
                }
            }
            // Repair a cut fibre (or, with none cut, a healthy one: a
            // journaled no-op that still ticks the clock).
            _ => {
                let link = if failed.is_empty() {
                    EdgeId::from(rng.gen_range(0..net.link_count()))
                } else {
                    failed.swap_remove(rng.gen_range(0..failed.len()))
                };
                p.repair_link(link);
            }
        }

        let (s, t) = demand(&mut rng, n);
        let cold = key(policy.route(net, p.state(), s, t));
        for (i, wk) in workers.iter_mut().enumerate() {
            let warm = key(policy.route_ctx(&mut wk.ctx, net, p.state(), s, t));
            assert_eq!(warm, cold, "worker {i} diverged from a cold route {at}");
        }
        assert_eq!(key(p.route(s, t)), cold, "provisioner diverged {at}");
        let state = p.state().clone();
        assert_replays_live(p.journal_mut(), &state, net, &at);
    }
    conflicts
}

#[test]
fn warm_contexts_route_as_cold_ones_across_refused_commits() {
    let net = NetworkBuilder::nsfnet(4).build();
    let a = std::f64::consts::E;
    for policy in [Policy::CostOnly, Policy::Joint { a }] {
        let mut conflicts = [0usize; 2];
        for seed in [1u64, 7, 20261017] {
            let [taken, cut] = run(&net, policy, seed);
            conflicts[0] += taken;
            conflicts[1] += cut;
        }
        assert!(
            conflicts.iter().all(|&c| c > 0),
            "{policy:?} must refuse commits on taken channels and on cut \
             links, refused {conflicts:?}"
        );
    }
}
