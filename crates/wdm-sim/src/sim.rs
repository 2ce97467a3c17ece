//! The discrete-event simulator: dynamic requests, link failures and
//! repairs, and threshold-triggered network reconfiguration on a simulated
//! clock.
//!
//! The simulator owns the clock, the random draws and the metric
//! accounting. Every change to the network — provisioning, teardown,
//! failure recovery, repair and the reconfiguration sweep — goes through
//! its [`NetProvisioner`], the service `wdm serve` runs live.

use crate::batch::{processing_order, BatchOrder, BatchOutcome, Demand};
use crate::events::{Event, EventQueue};
use crate::metrics::Metrics;
use crate::policy::{Policy, ProvisionedRoute};
use crate::provisioner::{NetProvisioner, Provisioner, Recovery};
use crate::traffic::{sample_exp, TrafficModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wdm_core::aux_engine::RouterCtx;
use wdm_core::journal::{EventSink, NetEvent, NoopSink};
use wdm_core::load::load_snapshot;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_graph::EdgeId;
use wdm_telemetry::{
    FlightRecord, FlightRecorder, NoopRecorder, NoopTracer, Phase, Recorder, Tracer,
};

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// Provisioning policy.
    pub policy: Policy,
    /// Arrival/holding process.
    pub traffic: TrafficModel,
    /// Simulated time horizon.
    pub duration: f64,
    /// Global link-failure rate (Poisson; 0 disables failures).
    pub failure_rate: f64,
    /// Mean link repair time (exponential).
    pub mean_repair: f64,
    /// Trigger a reconfiguration when the sampled network load reaches this
    /// value (`None` disables reconfiguration).
    pub reconfig_threshold: Option<f64>,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Service-interruption time of an *active* protection switchover
    /// (optical protection switching is ~tens of milliseconds; default
    /// 0.001 time units).
    pub switchover_time: f64,
    /// Per-hop signalling/setup time charged when a route must be
    /// (re-)established at failure time — the passive approach's
    /// "time-consuming connection re-establishment process" (§1);
    /// default 0.05 time units per hop.
    pub setup_time_per_hop: f64,
}

impl SimConfig {
    /// A reasonable default: cost-only policy, 10 Erlang, no failures.
    pub fn default_with(policy: Policy, seed: u64) -> Self {
        Self {
            policy,
            traffic: TrafficModel::new(1.0, 10.0),
            duration: 1000.0,
            failure_rate: 0.0,
            mean_repair: 10.0,
            reconfig_threshold: None,
            seed,
            switchover_time: 0.001,
            setup_time_per_hop: 0.05,
        }
    }
}

/// The simulator. Owns the mutable residual state (through its
/// [`NetProvisioner`]); borrows the immutable network (many simulators can
/// share one network across threads).
///
/// Generic over the telemetry [`Recorder`]: the default [`NoopRecorder`]
/// compiles all instrumentation away; [`Simulator::with_recorder`] threads a
/// live recorder (e.g. `&TelemetrySink`) through every routing call.
///
/// Also generic over the lifecycle [`EventSink`]: with the default
/// [`NoopSink`] no events (or their channel-list payloads) are ever built;
/// [`Simulator::with_recorder_and_journal`] records every state mutation —
/// provision, teardown, failure, repair, recovery and reconfiguration
/// moves — so the run can be replayed bit-identically from its journal.
///
/// And generic over the span [`Tracer`]: with the default [`NoopTracer`]
/// phase timing compiles away; [`Simulator::with_observability`] attaches a
/// live span buffer (per-request phase spans) and, optionally, a
/// [`FlightRecorder`] whose per-request records carry the journal sequence
/// number current when each request was decided — the correlation `wdm
/// replay` needs to reconstruct the exact state a pathological request saw.
pub struct Simulator<
    'a,
    R: Recorder = NoopRecorder,
    J: EventSink = NoopSink,
    T: Tracer = NoopTracer,
> {
    net: &'a WdmNetwork,
    cfg: SimConfig,
    /// The provisioning service: residual state, warm router contexts,
    /// journal and connection table — the single mutation lineage every
    /// event handler drives (the same service `wdm serve` runs live).
    prov: NetProvisioner<'a, R, J, T>,
    flight: Option<&'a FlightRecorder>,
    queue: EventQueue,
    rng: ChaCha8Rng,
    metrics: Metrics,
    now: f64,
    last_reconfig: f64,
    /// Time of the last load-integral update.
    last_integral_at: f64,
    /// External interrupt (e.g. a SIGINT handler): when set, the event loop
    /// stops cleanly at the next event boundary so journals stay replayable.
    stop: Option<Arc<AtomicBool>>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a fresh residual state (no telemetry).
    pub fn new(net: &'a WdmNetwork, cfg: SimConfig) -> Self {
        Self::with_recorder(net, cfg, NoopRecorder)
    }
}

impl<'a, R: Recorder> Simulator<'a, R> {
    /// As [`Simulator::new`], recording telemetry through `recorder`.
    pub fn with_recorder(net: &'a WdmNetwork, cfg: SimConfig, recorder: R) -> Self {
        Self::with_recorder_and_journal(net, cfg, recorder, NoopSink)
    }
}

impl<'a, R: Recorder, J: EventSink> Simulator<'a, R, J> {
    /// As [`Simulator::with_recorder`], additionally appending every state
    /// mutation to `journal` (typically `&mut StateJournal`). Replaying the
    /// journal over the fresh initial state reconstructs the final state
    /// bit-identically, change clocks included.
    pub fn with_recorder_and_journal(
        net: &'a WdmNetwork,
        cfg: SimConfig,
        recorder: R,
        journal: J,
    ) -> Self {
        Self::with_observability(net, cfg, recorder, journal, NoopTracer, None)
    }
}

impl<'a, R: Recorder, J: EventSink, T: Tracer> Simulator<'a, R, J, T> {
    /// The fully instrumented constructor: telemetry `recorder`, lifecycle
    /// `journal`, span `tracer` (e.g. `&SpanBuffer`) and an optional flight
    /// recorder collecting one record per arrival.
    pub fn with_observability(
        net: &'a WdmNetwork,
        cfg: SimConfig,
        recorder: R,
        journal: J,
        tracer: T,
        flight: Option<&'a FlightRecorder>,
    ) -> Self {
        Self {
            net,
            cfg,
            prov: NetProvisioner::with_parts(
                net,
                cfg.policy,
                ResidualState::fresh(net),
                RouterCtx::with_recorder_and_tracer(recorder, tracer),
                journal,
            ),
            flight,
            queue: EventQueue::new(),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            metrics: Metrics::default(),
            now: 0.0,
            last_reconfig: f64::NEG_INFINITY,
            last_integral_at: 0.0,
            stop: None,
        }
    }

    /// Installs an interrupt flag: when it turns true, [`Self::run_into`]
    /// stops at the next event boundary (never mid-mutation), closes the
    /// load integral at the interruption time, and returns normally — so a
    /// journal written up to that point still replays and verifies.
    pub fn set_stop_flag(&mut self, stop: Arc<AtomicBool>) {
        self.stop = Some(stop);
    }

    /// Accumulates the time-weighted network-load integral up to `self.now`
    /// (call *before* any state change at the current event).
    fn accrue_load_integral(&mut self) {
        let dt = self.now - self.last_integral_at;
        if dt > 0.0 {
            self.metrics.load_time_integral += dt * self.prov.state().network_load(self.net);
            self.last_integral_at = self.now;
        }
    }

    /// Runs to the configured horizon and returns the metrics.
    pub fn run(self) -> Metrics {
        self.run_into().0
    }

    /// As [`run`](Self::run), additionally returning the final residual
    /// state — the ground truth a journal replay (and its hash) is checked
    /// against.
    pub fn run_into(mut self) -> (Metrics, ResidualState) {
        let first = self.cfg.traffic.next_interarrival(&mut self.rng);
        self.queue.schedule(first, Event::Arrival);
        if self.cfg.failure_rate > 0.0 {
            let f = sample_exp(&mut self.rng, self.cfg.failure_rate);
            let link = self.pick_link();
            self.queue.schedule(f, Event::LinkFailure { link });
        }
        let mut interrupted = false;
        while let Some((time, event)) = self.queue.next() {
            if time > self.cfg.duration {
                break;
            }
            if self
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                interrupted = true;
                break;
            }
            self.now = time;
            self.accrue_load_integral();
            match event {
                Event::Arrival => self.on_arrival(),
                Event::Departure { conn } => self.on_departure(conn),
                Event::LinkFailure { link } => self.on_failure(link),
                Event::LinkRepair { link } => self.on_repair(link),
            }
        }
        // Close the load integral at the horizon — or, when interrupted, at
        // the last event actually processed, so the metrics stay internally
        // consistent with the shortened run.
        if !interrupted {
            self.now = self.cfg.duration;
        }
        self.accrue_load_integral();
        self.metrics.sim_time = self.now;
        self.metrics.final_snapshot = Some(load_snapshot(self.net, self.prov.state()));
        (self.metrics, self.prov.into_state())
    }

    fn pick_link(&mut self) -> EdgeId {
        EdgeId::from(self.rng.gen_range(0..self.net.link_count()))
    }

    fn on_arrival(&mut self) {
        // Schedule the next arrival first (keeps the process independent of
        // admission outcomes).
        let gap = self.cfg.traffic.next_interarrival(&mut self.rng);
        self.queue.schedule(self.now + gap, Event::Arrival);

        let (s, t) = self
            .cfg
            .traffic
            .draw_pair(self.net.node_count(), &mut self.rng);
        self.metrics.offered += 1;
        let tracing = self.prov.ctx().tracer().enabled();
        let req_t0 = self.prov.ctx().tracer().now_ns();
        let seq_before = self.prov.journal_seq();
        let mut footprint_links = 0u32;
        let routed = match self.prov.route(s, t) {
            Ok(route) => {
                let commit_t0 = self.prov.ctx().tracer().now_ns();
                self.metrics.admitted += 1;
                self.metrics.total_route_cost += route.total_cost();
                self.metrics.total_conversions += match &route {
                    ProvisionedRoute::Protected(r) => {
                        (r.primary.conversion_count() + r.backup.conversion_count()) as u64
                    }
                    ProvisionedRoute::Unprotected(p) => p.conversion_count() as u64,
                };
                if self.flight.is_some() {
                    footprint_links = route.footprint().links.len() as u32;
                }
                let id = self.prov.commit(s, t, route);
                let hold = self.cfg.traffic.holding(&mut self.rng);
                self.queue
                    .schedule(self.now + hold, Event::Departure { conn: id });
                if tracing {
                    self.prov.ctx().tracer().record(Phase::Commit, commit_t0);
                }
                true
            }
            Err(_) => {
                self.metrics.blocked += 1;
                false
            }
        };
        if tracing {
            self.prov.ctx().tracer().record(Phase::Request, req_t0);
        }
        if let Some(fr) = self.flight {
            let phase_ns = self.prov.ctx().tracer().last_request_phases();
            fr.push(FlightRecord {
                request: fr.total_requests(),
                src: s.0,
                dst: t.0,
                policy: self.cfg.policy.name().to_string(),
                outcome: if routed { "routed" } else { "blocked" }.to_string(),
                journal_seq: seq_before,
                footprint_links,
                phase_ns: phase_ns.to_vec(),
                total_ns: phase_ns[Phase::Request as usize],
            });
        }
        // Load sample + optional reconfiguration.
        let rho = self.prov.state().network_load(self.net);
        self.metrics.load_samples += 1;
        self.metrics.load_sum += rho;
        self.metrics.peak_network_load = self.metrics.peak_network_load.max(rho);
        if let Some(th) = self.cfg.reconfig_threshold {
            // Reconfiguration freezes the network (§1: it does not respond
            // to requests while re-routing), so operators rate-limit it; one
            // event per time unit is the floor here. This also keeps the
            // simulation cost bounded under saturation, where the threshold
            // would otherwise fire on every arrival.
            if rho >= th && self.now - self.last_reconfig >= 1.0 {
                self.last_reconfig = self.now;
                // An Err (defensive) cut the sweep short and is not
                // counted; the next threshold crossing retries.
                if let Ok(Some(moved)) = self.prov.reconfigure(th) {
                    self.metrics.reconfig_events += 1;
                    self.metrics.reconfig_moved += moved as u64;
                }
            }
        }
    }

    fn on_departure(&mut self, conn: u64) {
        // The connection may already have been dropped by a failed recovery
        // (teardown of an unknown id is a no-op).
        self.prov.teardown(conn);
    }

    fn on_repair(&mut self, link: EdgeId) {
        self.prov.repair_link(link);
    }

    fn on_failure(&mut self, link: EdgeId) {
        // Schedule the next failure of the global process.
        let gap = sample_exp(&mut self.rng, self.cfg.failure_rate);
        let next_link = self.pick_link();
        self.queue
            .schedule(self.now + gap, Event::LinkFailure { link: next_link });

        let Some(recovered) = self.prov.fail_and_recover(link) else {
            return; // already down
        };
        self.metrics.failures_injected += 1;
        self.queue.schedule(
            self.now + sample_exp(&mut self.rng, 1.0 / self.cfg.mean_repair),
            Event::LinkRepair { link },
        );
        // Charged in processing order, so the recovery-time sum adds up
        // in a fixed order.
        let m = &mut self.metrics;
        for (_, outcome) in recovered {
            match outcome {
                Recovery::Switched { reprotected } => {
                    m.fast_switchovers += 1;
                    m.recovery_time_sum += self.cfg.switchover_time;
                    m.recovery_events += 1;
                    m.backups_reprovisioned += u64::from(reprotected);
                }
                Recovery::BackupLost { reprotected } => {
                    m.backups_reprovisioned += u64::from(reprotected);
                }
                Recovery::Rerouted { hops } => {
                    m.passive_recoveries += 1;
                    m.recovery_time_sum += self.cfg.setup_time_per_hop * hops as f64;
                    m.recovery_events += 1;
                }
                Recovery::Dropped => m.recovery_failures += 1,
            }
        }
    }
}

/// Configuration of one batch-provisioning run: the policy/order knobs of
/// [`run_batch`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchConfig {
    /// Provisioning policy.
    pub policy: Policy,
    /// Demand processing order.
    pub order: BatchOrder,
}

impl BatchConfig {
    /// Serial provisioning under `policy`, demands as given.
    pub fn serial(policy: Policy) -> Self {
        Self {
            policy,
            order: BatchOrder::AsGiven,
        }
    }
}

/// Provisions `demands` on a fresh copy of `state` under `cfg.policy`,
/// processing them in `cfg.order`. Routes are reserved as they are found,
/// so later demands see earlier reservations (sequential heuristic — the
/// standard approach; the global ILP over all demands at once is
/// exponential and out of scope even for the paper).
pub fn run_batch(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    cfg: BatchConfig,
) -> BatchOutcome {
    run_batch_journaled(net, state, demands, cfg, NoopRecorder, NoopSink).0
}

/// As [`run_batch`], recording every routing call through `recorder` and
/// appending one [`NetEvent::Provision`] per provisioned route to
/// `journal` (`id` = the demand's index in `demands`), in processing order
/// — replaying them over `state` reproduces the outcome's final state. The
/// outcome comes first in a pair; the second element carries nothing.
///
/// This is the one batch path. Routes go through [`Policy::route_ctx`] on
/// one warm [`RouterCtx`] (carrying `recorder`), and the outcome is
/// bit-identical to routing each demand with a cold [`Policy::route`].
pub fn run_batch_journaled<R: Recorder, J: EventSink>(
    net: &WdmNetwork,
    state: &ResidualState,
    demands: &[Demand],
    cfg: BatchConfig,
    recorder: R,
    mut journal: J,
) -> (BatchOutcome, ()) {
    let mut st = state.clone();
    let idx = processing_order(net, &st, demands, cfg.order);
    let mut ctx = RouterCtx::with_recorder(recorder);

    let mut provisioned = Vec::new();
    let mut rejected = Vec::new();
    let mut total_cost = 0.0;
    for i in idx {
        let d = demands[i];
        match cfg.policy.route_ctx(&mut ctx, net, &st, d.src, d.dst) {
            Ok(route) => {
                route
                    .occupy(net, &mut st)
                    .expect("route computed against current state");
                if journal.enabled() {
                    journal.record(NetEvent::Provision {
                        id: i as u64,
                        channels: route.channels(),
                    });
                }
                total_cost += route.total_cost();
                provisioned.push((i, route));
            }
            Err(_) => rejected.push(i),
        }
    }
    let final_load = load_snapshot(net, &st);
    let out = BatchOutcome {
        provisioned,
        rejected,
        total_cost,
        final_load,
        state: st,
    };
    (out, ())
}

/// Convenience: run one configuration to completion.
///
/// ```
/// use wdm_core::network::NetworkBuilder;
/// use wdm_sim::prelude::*;
///
/// let net = NetworkBuilder::nsfnet(8).build();
/// let cfg = SimConfig {
///     traffic: TrafficModel::new(1.0, 5.0),
///     duration: 100.0,
///     ..SimConfig::default_with(Policy::CostOnly, 42)
/// };
/// let m = run_sim(&net, cfg);
/// assert_eq!(m.offered, m.admitted + m.blocked);
/// assert!(m.peak_network_load <= 1.0);
/// ```
pub fn run_sim(net: &WdmNetwork, cfg: SimConfig) -> Metrics {
    Simulator::new(net, cfg).run()
}

/// As [`run_sim`], recording telemetry through `recorder` (typically a
/// `&TelemetrySink`; [`Metrics`] itself stays recorder-independent so runs
/// with and without telemetry compare equal).
pub fn run_sim_recorded<R: Recorder>(net: &WdmNetwork, cfg: SimConfig, recorder: R) -> Metrics {
    Simulator::with_recorder(net, cfg, recorder).run()
}

/// As [`run_sim`], recording every state mutation into `journal`
/// (typically `&mut StateJournal` over the fresh initial state) and
/// returning the final residual state alongside the metrics. The journal's
/// replay over that checkpoint equals the returned state bit-identically —
/// the contract `wdm replay --verify` checks.
pub fn run_sim_journaled<J: EventSink>(
    net: &WdmNetwork,
    cfg: SimConfig,
    journal: J,
) -> (Metrics, ResidualState) {
    Simulator::with_recorder_and_journal(net, cfg, NoopRecorder, journal).run_into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::network::NetworkBuilder;

    fn nsfnet() -> WdmNetwork {
        NetworkBuilder::nsfnet(8).build()
    }

    fn base_cfg(policy: Policy, seed: u64) -> SimConfig {
        SimConfig {
            policy,
            traffic: TrafficModel::new(2.0, 5.0),
            duration: 200.0,
            failure_rate: 0.0,
            mean_repair: 10.0,
            reconfig_threshold: None,
            seed,
            switchover_time: 0.001,
            setup_time_per_hop: 0.05,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = nsfnet();
        let a = run_sim(&net, base_cfg(Policy::CostOnly, 42));
        let b = run_sim(&net, base_cfg(Policy::CostOnly, 42));
        assert_eq!(a, b);
        let c = run_sim(&net, base_cfg(Policy::CostOnly, 43));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn conservation_all_released_after_departures() {
        let net = nsfnet();
        // Short holding: most connections depart within the horizon.
        let cfg = SimConfig {
            traffic: TrafficModel::new(1.0, 1.0),
            duration: 300.0,
            ..base_cfg(Policy::CostOnly, 7)
        };
        let m = run_sim(&net, cfg);
        assert!(m.offered > 200);
        assert!(m.admitted > 0);
        // Low load: nothing should be blocked on NSFNET with W = 8.
        assert_eq!(m.blocked, 0);
        let snap = m.final_snapshot.unwrap();
        // Only connections still holding at the horizon remain.
        assert!(snap.channels_in_use < 100);
    }

    #[test]
    fn blocking_grows_with_load() {
        let net = nsfnet();
        let light = run_sim(
            &net,
            SimConfig {
                traffic: TrafficModel::new(0.5, 5.0),
                ..base_cfg(Policy::CostOnly, 11)
            },
        );
        let heavy = run_sim(
            &net,
            SimConfig {
                traffic: TrafficModel::new(20.0, 5.0),
                ..base_cfg(Policy::CostOnly, 11)
            },
        );
        assert!(heavy.blocking_probability() > light.blocking_probability());
        assert!(heavy.peak_network_load >= light.peak_network_load);
    }

    #[test]
    fn failures_trigger_switchovers_for_protected_policy() {
        let net = nsfnet();
        let cfg = SimConfig {
            failure_rate: 0.5,
            mean_repair: 5.0,
            traffic: TrafficModel::new(2.0, 20.0),
            duration: 400.0,
            ..base_cfg(Policy::CostOnly, 3)
        };
        let m = run_sim(&net, cfg);
        assert!(m.failures_injected > 0);
        assert!(
            m.fast_switchovers > 0,
            "protected connections must use their backups: {m:?}"
        );
    }

    #[test]
    fn primary_only_never_switches_fast() {
        let net = nsfnet();
        let cfg = SimConfig {
            failure_rate: 0.5,
            mean_repair: 5.0,
            traffic: TrafficModel::new(2.0, 20.0),
            duration: 400.0,
            ..base_cfg(Policy::PrimaryOnly, 3)
        };
        let m = run_sim(&net, cfg);
        assert!(m.failures_injected > 0);
        assert_eq!(m.fast_switchovers, 0);
        assert!(m.passive_recoveries + m.recovery_failures > 0);
    }

    #[test]
    fn reconfiguration_fires_under_pressure() {
        let net = nsfnet();
        let cfg = SimConfig {
            traffic: TrafficModel::new(12.0, 8.0),
            duration: 300.0,
            reconfig_threshold: Some(0.6),
            ..base_cfg(Policy::CostOnly, 5)
        };
        let m = run_sim(&net, cfg);
        assert!(m.reconfig_events > 0, "expected reconfigurations: {m:?}");
    }

    #[test]
    fn recovery_time_active_is_much_smaller_than_passive() {
        let net = nsfnet();
        let mk = |policy| SimConfig {
            failure_rate: 0.5,
            mean_repair: 5.0,
            traffic: TrafficModel::new(2.0, 20.0),
            duration: 400.0,
            ..base_cfg(policy, 3)
        };
        let active = run_sim(&net, mk(Policy::CostOnly));
        let passive = run_sim(&net, mk(Policy::PrimaryOnly));
        assert!(active.recovery_events > 0);
        assert!(passive.recovery_events > 0);
        // Active recoveries are dominated by 0.001 switchovers; passive ones
        // pay >= 0.05 per hop (at least one hop).
        assert!(
            active.mean_recovery_time() < passive.mean_recovery_time() / 2.0,
            "active {} vs passive {}",
            active.mean_recovery_time(),
            passive.mean_recovery_time()
        );
        assert!(passive.mean_recovery_time() >= 0.05);
    }

    #[test]
    fn time_weighted_load_is_consistent() {
        let net = nsfnet();
        let m = run_sim(
            &net,
            SimConfig {
                traffic: TrafficModel::new(4.0, 10.0),
                duration: 300.0,
                ..base_cfg(Policy::CostOnly, 21)
            },
        );
        let tavg = m.time_avg_network_load();
        assert!(tavg > 0.0 && tavg <= 1.0 + 1e-9, "time-avg {tavg}");
        assert!(tavg <= m.peak_network_load + 1e-9);
        // Arrival-sampled and time-weighted means agree loosely under
        // Poisson sampling (PASTA); allow generous slack.
        assert!(
            (tavg - m.mean_network_load()).abs() < 0.15,
            "time-avg {tavg} vs sampled {}",
            m.mean_network_load()
        );
    }

    #[test]
    fn joint_policy_runs_end_to_end() {
        let net = nsfnet();
        let m = run_sim(&net, base_cfg(Policy::Joint { a: 2.0 }, 9));
        assert!(m.admitted > 0);
        assert!(m.mean_route_cost() > 0.0);
    }

    #[test]
    fn spans_and_flight_records_cover_every_request() {
        use wdm_core::journal::NoopSink;
        use wdm_telemetry::SpanBuffer;

        let net = nsfnet();
        let tracer = SpanBuffer::new();
        let flight = FlightRecorder::new();
        let sim = Simulator::with_observability(
            &net,
            base_cfg(Policy::CostOnly, 17),
            NoopRecorder,
            NoopSink,
            &tracer,
            Some(&flight),
        );
        let m = sim.run();
        assert!(m.offered > 0);

        // Every arrival opens exactly one root span.
        assert_eq!(tracer.requests_begun(), m.offered);
        let records = tracer.records();
        let roots = records.iter().filter(|r| r.phase == Phase::Request).count() as u64;
        assert_eq!(roots, m.offered);

        // One flight record per arrival, and sub-phase time never exceeds
        // the root span it was measured inside.
        assert_eq!(flight.total_requests(), m.offered);
        let dump = flight.dump();
        let mut routed = 0u64;
        for rec in &dump.records {
            let sub_sum: u64 = rec.named_phases().iter().map(|&(_, ns)| ns).sum();
            assert!(sub_sum <= rec.total_ns, "sub-phases exceed root: {rec:?}");
            match rec.outcome.as_str() {
                "routed" => {
                    routed += 1;
                    assert!(rec.footprint_links > 0);
                }
                "blocked" => assert_eq!(rec.footprint_links, 0),
                other => panic!("unexpected outcome {other}"),
            }
        }
        // The ring holds the most recent records only; counts within it
        // must be consistent with its own contents.
        assert!(routed <= m.admitted);
        // Un-journaled run: correlation sequence stays 0 for every record.
        assert!(dump.records.iter().all(|r| r.journal_seq == 0));
    }
}
