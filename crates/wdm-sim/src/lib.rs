//! Discrete-event simulator for dynamic traffic in wide-area WDM networks.
//!
//! The paper's setting — "user connection requests arrive to and depart from
//! the network in a random manner" (§1) with single-link failures and
//! load-triggered reconfigurations — made measurable:
//!
//! * [`traffic`] — Poisson arrivals, exponential holding times, uniform
//!   random node pairs (the standard model of the paper's citations);
//! * [`policy`] — provisioning policies: the paper's §3.3 / §4.1 / §4.2
//!   algorithms plus the baseline strategies;
//! * [`provisioner`] — the provisioning service: live state + warm router
//!   context + journal + connection table behind the
//!   [`provisioner::Provisioner`] trait, and every change to them:
//!   provision, teardown, link failure with *active* (instant backup
//!   switchover) vs *passive* (recompute on demand) recovery, repair, and
//!   the load-driven reconfiguration sweep. It is the mutation lineage
//!   both the simulator and the `wdm serve` daemon drive;
//! * [`sim`] — the event loop: arrivals and departures, link-failure
//!   injection and repair, the reconfiguration trigger, and the accounting
//!   of blocking, recovery outcomes and reconfiguration moves;
//! * [`metrics`] — blocking probability, route costs, recovery outcomes,
//!   reconfiguration counts, load distributions;
//! * [`parallel`] — rayon-powered replication sweeps (one immutable network
//!   shared across threads, one residual state per replication);
//! * [`batch`] — static provisioning of a whole demand set: a serial fold
//!   on one warm router context.
//!
//! Determinism: every run is a pure function of its [`sim::SimConfig`]
//! (including the seed); the parallel driver returns results in seed order.

pub mod batch;
pub mod events;
pub mod metrics;
pub mod parallel;
pub mod policy;
pub mod provisioner;
pub mod shared;
pub mod sim;
pub mod traffic;

/// One-stop imports.
pub mod prelude {
    pub use crate::batch::{full_mesh_demands, BatchOrder, BatchOutcome, Demand};
    pub use crate::metrics::{mean_std, Metrics, PolicyTelemetry};
    pub use crate::parallel::{
        replication_seeds, run_replications, run_replications_streaming, run_replications_telemetry,
    };
    pub use crate::policy::{Policy, ProvisionedRoute};
    pub use crate::provisioner::{Connection, NetProvisioner, Provisioner};
    pub use crate::shared::{SharedBackupPool, SharedConnection, SharedProvisioner};
    pub use crate::sim::{
        run_batch, run_batch_journaled, run_sim, run_sim_journaled, run_sim_recorded, BatchConfig,
        SimConfig, Simulator,
    };
    pub use crate::traffic::{HoldingDist, PairSelection, TrafficModel};
    pub use wdm_core::journal::{EventSink, NetEvent, NoopSink, ReplayError, StateJournal};
    pub use wdm_telemetry::{
        FlightAnomaly, FlightDump, FlightRecord, FlightRecorder, ManualClock, MonotonicClock,
        NoopRecorder, NoopTracer, Phase, Recorder, SpanBuffer, SpanRecord, TelemetrySink,
        TelemetrySnapshot, Tracer,
    };
}
