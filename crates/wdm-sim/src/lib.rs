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
//!   context + journal behind the [`provisioner::Provisioner`] trait, the
//!   mutation lineage both the simulator and the `wdm serve` daemon drive;
//! * [`sim`] — the event loop: admission/blocking, wavelength occupancy,
//!   link-failure injection with *active* (instant backup switchover) vs
//!   *passive* (recompute on demand) recovery, and threshold-triggered
//!   reconfiguration with move accounting;
//! * [`metrics`] — blocking probability, route costs, recovery outcomes,
//!   reconfiguration counts, load distributions;
//! * [`parallel`] — rayon-powered replication sweeps (one immutable network
//!   shared across threads, one residual state per replication);
//! * [`speculative`] — optimistic parallel batch provisioning: windows of
//!   demands routed concurrently against a frozen snapshot, committed in
//!   demand order with conflict detection, bit-identical to the serial run;
//! * [`sharded`] — shard-parallel batch provisioning: a static topology
//!   partition gives each shard a worker with a long-lived state mirror;
//!   intra-shard demands route concurrently with no inter-shard
//!   synchronisation, cross-shard demands inline at their serial slot.
//!
//! Determinism: every run is a pure function of its [`sim::SimConfig`]
//! (including the seed); the parallel driver returns results in seed order.

pub mod batch;
pub mod events;
pub mod metrics;
pub mod parallel;
pub mod policy;
pub mod provisioner;
pub mod schedule;
pub mod sharded;
pub mod shared;
pub mod sim;
pub mod speculative;
pub mod traffic;

/// One-stop imports.
pub mod prelude {
    pub use crate::batch::{
        full_mesh_demands, provision_batch, provision_batch_journaled, BatchOrder, BatchOutcome,
        Demand,
    };
    pub use crate::metrics::{mean_std, Metrics, PolicyTelemetry};
    pub use crate::parallel::{
        replication_seeds, run_replications, run_replications_streaming, run_replications_telemetry,
    };
    pub use crate::policy::{Policy, ProvisionedRoute};
    pub use crate::provisioner::{Connection, NetProvisioner, Provisioner};
    pub use crate::schedule::{ConflictPartitioner, GroupPlan, ScheduleMode, DEFAULT_SHARDS};
    pub use crate::sharded::provision_batch_sharded;
    pub use crate::shared::{SharedBackupPool, SharedConnection, SharedProvisioner};
    pub use crate::sim::{
        run_batch, run_batch_journaled, run_batch_recorded, run_sim, run_sim_journaled,
        run_sim_recorded, BatchConfig, SimConfig, Simulator,
    };
    pub use crate::speculative::{
        distinct_static_costs, link_local_revalidation_sound,
        provision_batch_speculative_scheduled, provision_batch_speculative_with_oracle,
        zero_conversion_costs, SpeculationStats,
    };
    pub use crate::traffic::{HoldingDist, PairSelection, TrafficModel};
    pub use wdm_core::journal::{EventSink, NetEvent, NoopSink, ReplayError, StateJournal, Txn};
    pub use wdm_core::predict::{
        AllConflictOracle, FootprintOracle, LocalityPredictor, NoConflictOracle,
    };
    pub use wdm_telemetry::{
        FlightAnnotation, FlightAnomaly, FlightDump, FlightRecord, FlightRecorder, ManualClock,
        MonotonicClock, NoopRecorder, NoopTracer, Phase, Recorder, SpanBuffer, SpanRecord,
        TelemetrySink, TelemetrySnapshot, Tracer,
    };
}
