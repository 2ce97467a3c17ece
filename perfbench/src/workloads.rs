//! The workloads and their end-to-end runs.
//!
//! * `serve-nsfnet` — the daemon (2 workers, `cost-only`) on NSFNET with
//!   W=8, driven by scripts of provisions, teardowns, link failures and
//!   repairs, and state samples. Routing is cheap here; the front end,
//!   the commit and the WAL dominate.
//! * `serve-wan` — the same daemon and script shape on a 200-node random
//!   WAN (average degree 8, W=16, full conversion at cost 0.5) under the
//!   §4.2 `joint` policy, where routing dominates and concurrent routes
//!   contend.
//! * `batch-mesh` — offline planning of the full mesh (k=1) of a 40-node
//!   random WAN (average degree 4, W=64) through `wdm_sim::sim::run_batch`
//!   with `BatchConfig::serial(Policy::CostOnly)`, the `wdm batch`
//!   defaults.
//!
//! The random topologies come from fixed seeds, so runs with different
//! `--seed` measure the same network. `--seed` drives the serve request
//! scripts; the batch input is the whole mesh in its fixed order, so it
//! does not depend on the seed.

use std::path::Path;
use std::time::Instant;

use wdm_core::journal::StateJournal;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_sim::batch::{full_mesh_demands, Demand};
use wdm_sim::policy::{Policy, ProvisionedRoute};
use wdm_sim::sim::{run_batch_journaled, BatchConfig};
use wdm_telemetry::NoopRecorder;

use crate::script::{self, Op, Shape};
use crate::serve::{self, Drive, Extras};
use crate::stats::{mean, median};
use crate::{nets, peak_rss_mb, Metric, Outcome};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["serve-nsfnet", "serve-wan", "batch-mesh"];

/// Topology seed of the 200-node WAN.
const WAN_TOPOLOGY_SEED: u64 = 2001;
/// Channels of every 200-node WAN link held by background lightpaths, so
/// that a script of manageable length sees a few percent blocking.
const WAN_BACKGROUND: usize = 14;
/// Topology seed of the 40-node batch WAN.
const MESH_TOPOLOGY_SEED: u64 = 40;
/// Set-ups timed per run (`setup_s` is their median).
const SETUPS: usize = 9;
/// Set-ups timed per batch run (each takes about a millisecond).
const BATCH_SETUPS: usize = 21;
/// Timed teardowns of the batch plan per round (`mutate_*` on
/// `batch-mesh`).
const TEARDOWNS: usize = 1000;
/// Journal replays timed per batch plan (`recovery_s` on `batch-mesh`).
const REPLAYS: usize = 200;
/// A `/state` (or ρ) sample after every this many operations.
pub const STATE_EVERY: usize = 25;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The daemon on NSFNET, `cost-only`.
    ServeNsfnet,
    /// The daemon on a 200-node WAN, `joint`.
    ServeWan,
    /// Full-mesh batch planning on a 40-node WAN.
    BatchMesh,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-nsfnet" => Some(Self::ServeNsfnet),
            "serve-wan" => Some(Self::ServeWan),
            "batch-mesh" => Some(Self::BatchMesh),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeNsfnet => NAMES[0],
            Self::ServeWan => NAMES[1],
            Self::BatchMesh => NAMES[2],
        }
    }
}

/// A serve workload's inputs, minus the per-round script seed.
pub struct ServeSpec {
    /// The served network.
    pub net: WdmNetwork,
    /// The state every daemon starts from.
    pub initial: ResidualState,
    /// The daemon's policy.
    pub policy: Policy,
    /// Script shape; holds are tuned for a few percent blocking.
    pub shape: Shape,
}

/// The inputs of a serve workload (`None` for `batch-mesh`).
pub fn serve_spec(w: Workload) -> Option<ServeSpec> {
    match w {
        Workload::ServeNsfnet => {
            let net = nets::nsfnet(8);
            Some(ServeSpec {
                initial: ResidualState::fresh(&net),
                net,
                policy: Policy::CostOnly,
                shape: Shape {
                    arrivals: 1500,
                    mean_hold: 25.0,
                    fail_fraction: 0.02,
                    mean_repair: 20.0,
                    state_every: STATE_EVERY,
                },
            })
        }
        Workload::ServeWan => {
            let net = nets::random_wan(200, 8, 16, WAN_TOPOLOGY_SEED);
            Some(ServeSpec {
                initial: nets::background(&net, WAN_BACKGROUND, WAN_TOPOLOGY_SEED),
                net,
                policy: Policy::Joint {
                    a: std::f64::consts::E,
                },
                shape: Shape {
                    arrivals: 1100,
                    mean_hold: 240.0,
                    fail_fraction: 0.02,
                    mean_repair: 20.0,
                    state_every: STATE_EVERY,
                },
            })
        }
        Workload::BatchMesh => None,
    }
}

/// The batch workload's network.
pub fn mesh_net() -> WdmNetwork {
    nets::random_wan(40, 4, 64, MESH_TOPOLOGY_SEED)
}

/// The full mesh (k=1) of `net`, in the order `wdm batch --mesh 1`
/// plans it.
pub fn mesh_demands(net: &WdmNetwork) -> Vec<Demand> {
    full_mesh_demands(net.node_count(), 1)
}

/// Seed of round `k`'s script within a run seeded `seed`.
pub fn round_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

/// The script of round `k` of a serve workload.
pub fn serve_script(spec: &ServeSpec, seed: u64, k: usize) -> Vec<Op> {
    script::generate(
        round_seed(seed, k),
        &spec.shape,
        spec.net.node_count() as u32,
        spec.net.link_count() as u32,
    )
}

/// Runs `w`'s end-to-end measurement for about `seconds` seconds.
pub fn run(w: Workload, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    match serve_spec(w) {
        Some(spec) => run_serve(w, &spec, seed, seconds, out),
        None => run_batch_mesh(seconds),
    }
}

/// Median over rounds of each round's median latency, in ms: a slow
/// stretch of machine time moves one round's value, not the run's.
fn median_of_rounds_ms<'a>(
    name: &'static str,
    rounds: impl Iterator<Item = &'a Vec<f64>>,
) -> Metric {
    let (mut per_round, mut samples) = (Vec::new(), 0);
    for ns in rounds {
        per_round.push(median(ns) / 1e6);
        samples += ns.len();
    }
    Metric::new(name, median(&per_round), "ms", samples)
}

fn run_serve(
    w: Workload,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Outcome, String> {
    let wal = out.join(format!("{}-{seed}.wal.jsonl", w.name()));
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let ops = serve_script(spec, seed, rounds.len());
        rounds.push(serve::round(
            &spec.net,
            &spec.initial,
            spec.policy,
            &ops,
            &wal,
            &Extras::default(),
        )?);
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let mut checks: Vec<String> = Vec::new();
    while setups.len() < SETUPS {
        let r = serve::round(
            &spec.net,
            &spec.initial,
            spec.policy,
            &[],
            &wal,
            &Extras::default(),
        )?;
        setups.push(r.setup_s);
        checks.extend(r.check_failures);
    }

    let throughputs: Vec<f64> = rounds.iter().map(|r| r.drive.throughput()).collect();
    let plan_rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.drive.provisions as f64 / r.drive.elapsed_s.max(1e-9))
        .collect();
    let recoveries: Vec<f64> = rounds.iter().map(|r| r.recovery_s).collect();
    let provision_p50 = median_of_rounds_ms(
        "provision_p50_ms",
        rounds.iter().map(|r| &r.drive.provision_ns),
    );
    let mutate_p50 =
        median_of_rounds_ms("mutate_p50_ms", rounds.iter().map(|r| &r.drive.mutate_ns));
    let n = rounds.len();
    let last_wal_events = rounds.last().map_or(0, |r| r.wal_events);
    let mut all = Drive::default();
    for r in rounds {
        checks.extend(r.check_failures);
        all.absorb(r.drive);
    }
    let admitted = all.provisions - all.blocked;
    let metrics = vec![
        Metric::new("throughput_rps", median(&throughputs), "1/s", n),
        provision_p50,
        mutate_p50,
        Metric::new(
            "blocking_ratio",
            all.blocked as f64 / all.provisions.max(1) as f64,
            "ratio",
            all.provisions as usize,
        ),
        Metric::new(
            "mean_route_cost",
            all.cost_sum / admitted.max(1) as f64,
            "cost",
            admitted as usize,
        ),
        Metric::new("mean_load_rho", mean(&all.rho), "ratio", all.rho.len()),
        Metric::new("recovery_s", median(&recoveries), "s", n),
        Metric::new("plan_demands_per_s", median(&plan_rates), "1/s", n),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    eprintln!(
        "  {n} round(s), {} WAL events in the last, {} connects for {} requests",
        last_wal_events, all.connects, all.attempted
    );
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        check_failures: checks,
    })
}

fn run_batch_mesh(seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..BATCH_SETUPS {
        let t0 = Instant::now();
        let net = mesh_net();
        let demands = mesh_demands(&net);
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some((net, demands));
    }
    let (net, demands) = inputs.expect("at least one set-up");
    let fresh = ResidualState::fresh(&net);
    let policy = Policy::CostOnly;
    let cfg = BatchConfig::serial(policy);
    let mut checks = Vec::new();
    let mut attempted = 0u64;

    let start = Instant::now();
    let mut plan_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut blocking = Vec::new();
    let mut cost = Vec::new();
    let mut provision_ns: Vec<Vec<f64>> = Vec::new();
    let mut mutate_ns: Vec<Vec<f64>> = Vec::new();
    let mut rho = Vec::new();
    let mut admitted = 0;
    while plan_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // The entry point itself, checked: every demand accounted for, and
        // the journal replays to the plan's final state.
        let mut journal = StateJournal::new(fresh.clone());
        let t0 = Instant::now();
        let (outcome, _) =
            run_batch_journaled(&net, &fresh, &demands, cfg, NoopRecorder, &mut journal);
        plan_s.push(t0.elapsed().as_secs_f64());
        attempted += demands.len() as u64;
        let accepted = outcome.provisioned.len();
        if accepted + outcome.rejected.len() != demands.len() {
            checks.push(format!(
                "{accepted} accepted + {} rejected != {} demands",
                outcome.rejected.len(),
                demands.len()
            ));
        }
        for _ in 0..REPLAYS {
            let t1 = Instant::now();
            let replayed = journal
                .replay(&net)
                .map_err(|e| format!("journal replay failed: {e:?}"))?;
            recovery_s.push(t1.elapsed().as_secs_f64());
            if replayed.semantic_hash() != outcome.state.semantic_hash() {
                checks.push("journal replay differs from the plan's final state".into());
            }
        }
        blocking.push(outcome.rejected.len() as f64 / demands.len() as f64);
        cost.push(outcome.total_cost / accepted.max(1) as f64);
        admitted = accepted;

        // The default path's per-demand layer calls, one demand at a time:
        // route on the current state, occupy, and a ρ sample every
        // STATE_EVERY demands. They must plan exactly what run_batch did.
        let mut st = fresh.clone();
        let mut routes: Vec<ProvisionedRoute> = Vec::with_capacity(accepted);
        let mut round_ns = Vec::with_capacity(demands.len());
        for (i, d) in demands.iter().enumerate() {
            let t0 = Instant::now();
            if let Ok(r) = policy.route(&net, &st, d.src, d.dst) {
                r.occupy(&net, &mut st)
                    .map_err(|e| format!("route no longer fits: {e:?}"))?;
                routes.push(r);
            }
            round_ns.push(t0.elapsed().as_nanos() as f64);
            if (i + 1) % STATE_EVERY == 0 {
                rho.push(st.network_load(&net));
            }
        }
        provision_ns.push(round_ns);
        attempted += demands.len() as u64;
        let direct_cost: f64 = routes.iter().map(ProvisionedRoute::total_cost).sum();
        if st.semantic_hash() != outcome.state.semantic_hash()
            || routes.len() != accepted
            || (outcome.total_cost - direct_cost).abs() > 1e-9 * direct_cost.max(1.0)
        {
            checks.push("run_batch and the per-demand layer calls planned differently".into());
        }

        // Tear the plan down and rebuild it, many times: a release takes
        // well under a microsecond, so a sample is one whole teardown's
        // mean per route, each on a fresh copy of the routes so that no
        // single heap layout decides the result.
        let mut round_ns = Vec::with_capacity(TEARDOWNS);
        for pass in 0..TEARDOWNS {
            let copy = routes.clone();
            if pass > 0 {
                for r in &copy {
                    r.occupy(&net, &mut st)
                        .map_err(|e| format!("re-occupying the plan: {e:?}"))?;
                }
            }
            let t0 = Instant::now();
            for r in &copy {
                r.release(&mut st);
            }
            round_ns.push(t0.elapsed().as_nanos() as f64 / copy.len().max(1) as f64);
        }
        mutate_ns.push(round_ns);
        if st.semantic_hash() != fresh.semantic_hash() {
            checks.push("releasing every planned route did not restore the fresh state".into());
        }
    }
    let rate: Vec<f64> = plan_s.iter().map(|s| demands.len() as f64 / s).collect();
    let n = plan_s.len();
    let metrics = vec![
        Metric::new("throughput_rps", median(&rate), "1/s", n),
        median_of_rounds_ms("provision_p50_ms", provision_ns.iter()),
        median_of_rounds_ms("mutate_p50_ms", mutate_ns.iter()),
        Metric::new("blocking_ratio", median(&blocking), "ratio", demands.len()),
        Metric::new("mean_route_cost", median(&cost), "cost", admitted),
        Metric::new("mean_load_rho", mean(&rho), "ratio", rho.len()),
        Metric::new("recovery_s", median(&recovery_s), "s", recovery_s.len()),
        Metric::new("plan_demands_per_s", median(&rate), "1/s", n),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics,
        check_failures: checks,
    })
}
