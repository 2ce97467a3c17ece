//! Telemetry substrate for the routing/simulation stack.
//!
//! Everything the paper's evaluation wants to see — per-request semilightpath
//! cost (Eq. 1), blocking causes, how often the incremental [`AuxEngine`]
//! fast path actually fires — flows through one narrow interface: the
//! [`Recorder`] trait. Instrumented code is generic over `R: Recorder` and
//! the default [`NoopRecorder`] monomorphises every call to nothing, so the
//! uninstrumented hot path keeps its numbers (verified by an A/B criterion
//! run in `wdm-bench`).
//!
//! The live implementation, [`TelemetrySink`], is lock-free on the hot path:
//! plain atomic counters and atomic log-scaled histograms
//! (HdrHistogram-style fixed buckets, ≤ 12.5 % relative error, no deps).
//! A sink drains into a [`TelemetrySnapshot`] — a serde-friendly,
//! order-insensitive value that merges commutatively across parallel shards.
//!
//! [`AuxEngine`]: ../wdm_core/aux_engine/index.html

mod chrome;
mod flight;
mod hist;
mod sink;
mod snapshot;
mod span;

pub use chrome::chrome_trace_json;
pub use flight::{
    FlightAnomaly, FlightDump, FlightRecord, FlightRecorder, TraceFile, DEFAULT_ANOMALY_THRESHOLD,
    DEFAULT_ANOMALY_WINDOW, DEFAULT_FLIGHT_CAPACITY,
};
pub use hist::{bucket_bounds, bucket_index, AtomicHistogram, NUM_BUCKETS};
pub use sink::TelemetrySink;
pub use snapshot::{BucketSnapshot, HistogramSnapshot, TelemetrySnapshot};
pub use span::{
    Clock, ManualClock, MonotonicClock, NoopTracer, Phase, SpanBuffer, SpanRecord, Tracer,
};

/// Monotonic event counters, one slot per variant in a fixed array.
///
/// The discriminant is the array index; [`Counter::ALL`] and
/// [`Counter::name`] keep the numeric layout and the snapshot key space in
/// one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Requests for which a route was found.
    RequestsRouted = 0,
    /// Requests refused for any reason (sum of the `Blocked*` causes).
    RequestsBlocked = 1,
    /// Blocked: degenerate request (s == t).
    BlockedDegenerate = 2,
    /// Blocked: no edge-disjoint pair exists in the auxiliary graph.
    BlockedNoDisjointPair = 3,
    /// Blocked: Lemma 2 refinement found no feasible wavelength assignment.
    BlockedRefinement = 4,
    /// Blocked: the §4.1 threshold search exhausted its budget.
    BlockedLoadSearch = 5,
    /// Blocked: destination unreachable even ignoring disjointness.
    BlockedUnreachable = 6,
    /// Auxiliary-graph skeletons built: one per routing context, or one
    /// per `wdm serve` daemon, which shares it among its workers. An
    /// engine created over an existing skeleton is not a build.
    EngineSkeletonBuilds = 7,
    /// Engine syncs that re-weighted every link (threshold change etc.).
    EngineFullRefreshes = 8,
    /// Engine syncs that re-weighted only dirty links.
    EngineDirtyRefreshes = 9,
    /// Total links re-weighted across all dirty refreshes.
    EngineDirtyLinksRefreshed = 10,
    /// Engine syncs that found nothing to do (pure skeleton reuse).
    EngineFastSyncs = 11,
    /// Suurballe disjoint-pair searches executed.
    SuurballeSearches = 12,
    /// G_c feasibility probes issued by the §4.1 threshold search.
    ThresholdProbes = 13,
    /// Search-arena buffer growth events (allocations on the hot path).
    ArenaAllocEvents = 14,
    /// Daemon: provision requests that were accepted and committed.
    ServeProvisionOk = 15,
    /// Daemon: provision requests refused by the routing policy.
    ServeProvisionBlocked = 16,
    /// Daemon: teardown requests that released a live connection.
    ServeTeardownOk = 17,
    /// Daemon: teardown requests naming an unknown connection id.
    ServeTeardownMiss = 18,
    /// Daemon: fail-link requests applied.
    ServeFailLink = 19,
    /// Daemon: repair-link requests applied.
    ServeRepairLink = 20,
    /// Daemon: state-query requests served.
    ServeQuery = 21,
    /// Daemon: requests shed by admission control (bounded queue full,
    /// answered 503 + Retry-After).
    ServeShed = 22,
    /// Daemon: requests dropped because their deadline expired while
    /// queued (answered 503).
    ServeDeadlineDrop = 23,
    /// Daemon: malformed HTTP requests rejected by the listener.
    ServeBadRequest = 24,
    /// Daemon: optimistic commits that conflicted with a concurrent
    /// mutation and re-routed under the write lock.
    ServeConflictRetries = 25,
    /// Nodes settled by Suurballe's pass 1 (the sink counts when popped).
    SuurballeSettledP1 = 26,
    /// Nodes settled by Suurballe's pass 2.
    SuurballeSettledP2 = 27,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 28;

    /// Every variant, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::RequestsRouted,
        Counter::RequestsBlocked,
        Counter::BlockedDegenerate,
        Counter::BlockedNoDisjointPair,
        Counter::BlockedRefinement,
        Counter::BlockedLoadSearch,
        Counter::BlockedUnreachable,
        Counter::EngineSkeletonBuilds,
        Counter::EngineFullRefreshes,
        Counter::EngineDirtyRefreshes,
        Counter::EngineDirtyLinksRefreshed,
        Counter::EngineFastSyncs,
        Counter::SuurballeSearches,
        Counter::ThresholdProbes,
        Counter::ArenaAllocEvents,
        Counter::ServeProvisionOk,
        Counter::ServeProvisionBlocked,
        Counter::ServeTeardownOk,
        Counter::ServeTeardownMiss,
        Counter::ServeFailLink,
        Counter::ServeRepairLink,
        Counter::ServeQuery,
        Counter::ServeShed,
        Counter::ServeDeadlineDrop,
        Counter::ServeBadRequest,
        Counter::ServeConflictRetries,
        Counter::SuurballeSettledP1,
        Counter::SuurballeSettledP2,
    ];

    /// Stable snake_case key used in snapshots and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RequestsRouted => "requests_routed",
            Counter::RequestsBlocked => "requests_blocked",
            Counter::BlockedDegenerate => "blocked_degenerate",
            Counter::BlockedNoDisjointPair => "blocked_no_disjoint_pair",
            Counter::BlockedRefinement => "blocked_refinement",
            Counter::BlockedLoadSearch => "blocked_load_search",
            Counter::BlockedUnreachable => "blocked_unreachable",
            Counter::EngineSkeletonBuilds => "engine_skeleton_builds",
            Counter::EngineFullRefreshes => "engine_full_refreshes",
            Counter::EngineDirtyRefreshes => "engine_dirty_refreshes",
            Counter::EngineDirtyLinksRefreshed => "engine_dirty_links_refreshed",
            Counter::EngineFastSyncs => "engine_fast_syncs",
            Counter::SuurballeSearches => "suurballe_searches",
            Counter::ThresholdProbes => "threshold_probes",
            Counter::ArenaAllocEvents => "arena_alloc_events",
            Counter::ServeProvisionOk => "serve_provision_ok",
            Counter::ServeProvisionBlocked => "serve_provision_blocked",
            Counter::ServeTeardownOk => "serve_teardown_ok",
            Counter::ServeTeardownMiss => "serve_teardown_miss",
            Counter::ServeFailLink => "serve_fail_link",
            Counter::ServeRepairLink => "serve_repair_link",
            Counter::ServeQuery => "serve_query",
            Counter::ServeShed => "serve_shed",
            Counter::ServeDeadlineDrop => "serve_deadline_drop",
            Counter::ServeBadRequest => "serve_bad_request",
            Counter::ServeConflictRetries => "serve_conflict_retries",
            Counter::SuurballeSettledP1 => "suurballe_settled_p1",
            Counter::SuurballeSettledP2 => "suurballe_settled_p2",
        }
    }

    /// One-line description used for Prometheus `# HELP` metadata.
    pub fn help(self) -> &'static str {
        match self {
            Counter::RequestsRouted => "Requests for which a route was found",
            Counter::RequestsBlocked => "Requests refused for any reason",
            Counter::BlockedDegenerate => "Blocked: degenerate request (src == dst)",
            Counter::BlockedNoDisjointPair => "Blocked: no edge-disjoint pair exists",
            Counter::BlockedRefinement => "Blocked: no feasible wavelength assignment",
            Counter::BlockedLoadSearch => "Blocked: threshold search exhausted its budget",
            Counter::BlockedUnreachable => "Blocked: destination unreachable",
            Counter::EngineSkeletonBuilds => "Auxiliary-graph skeletons built from scratch",
            Counter::EngineFullRefreshes => "Engine syncs that re-weighted every link",
            Counter::EngineDirtyRefreshes => "Engine syncs that re-weighted only dirty links",
            Counter::EngineDirtyLinksRefreshed => "Links re-weighted across dirty refreshes",
            Counter::EngineFastSyncs => "Engine syncs that found nothing to do",
            Counter::SuurballeSearches => "Suurballe disjoint-pair searches executed",
            Counter::ThresholdProbes => "Feasibility probes issued by the threshold search",
            Counter::ArenaAllocEvents => "Search-arena buffer growth events",
            Counter::ServeProvisionOk => "Daemon provision requests accepted and committed",
            Counter::ServeProvisionBlocked => "Daemon provision requests refused by routing",
            Counter::ServeTeardownOk => "Daemon teardowns that released a connection",
            Counter::ServeTeardownMiss => "Daemon teardowns naming an unknown connection",
            Counter::ServeFailLink => "Daemon fail-link requests applied",
            Counter::ServeRepairLink => "Daemon repair-link requests applied",
            Counter::ServeQuery => "Daemon state and diagnostics queries served",
            Counter::ServeShed => "Daemon requests shed by admission control",
            Counter::ServeDeadlineDrop => "Daemon requests dropped on an expired deadline",
            Counter::ServeBadRequest => "Daemon malformed requests rejected",
            Counter::ServeConflictRetries => "Daemon commits re-routed after a conflict",
            Counter::SuurballeSettledP1 => "Nodes settled by Suurballe pass 1",
            Counter::SuurballeSettledP2 => "Nodes settled by Suurballe pass 2",
        }
    }
}

/// Value distributions, one log-scaled histogram per variant.
///
/// Names ending in `_ns` record wall-clock durations and are inherently
/// nondeterministic run-to-run; everything else is a pure function of the
/// request stream and reproduces bit-for-bit under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Disjoint-pair search duration, nanoseconds (nondeterministic).
    SearchNanos = 0,
    /// Whole-request routing duration, nanoseconds (nondeterministic).
    RequestNanos = 1,
    /// Total route cost (Eq. 1), millicost units (deterministic).
    RouteCostMilli = 2,
    /// §4.1 threshold-search probes per request (deterministic).
    ThresholdProbes = 3,
    /// Primary-path hop count (deterministic).
    PrimaryHops = 4,
    /// Backup-path hop count (deterministic).
    BackupHops = 5,
    /// Daemon: end-to-end request latency from accept to response write,
    /// nanoseconds (nondeterministic).
    ServeLatencyNanos = 6,
    /// Daemon: time a request spent in the admission queue before a
    /// worker picked it up, nanoseconds (nondeterministic).
    ServeQueueNanos = 7,
    /// Daemon: encoding one journal event's WAL line and handing it to the
    /// operating system in one `write` (no flush or sync), nanoseconds
    /// (nondeterministic). The name is part of the trace format.
    WalFsyncNanos = 8,
    /// Daemon: time waiting to acquire the shared provisioner lock per
    /// provision (read + write acquisition), nanoseconds
    /// (nondeterministic).
    ServeLockNanos = 9,
    /// Daemon: routing-search time under the read lock per provision,
    /// nanoseconds (nondeterministic).
    ServeRouteNanos = 10,
    /// Daemon: commit time under the write lock per provision, from the
    /// commit attempt to the closed commit span: the occupy, the WAL line
    /// write and, after a conflict, the re-route and second commit,
    /// nanoseconds (nondeterministic).
    ServeCommitNanos = 11,
}

impl Hist {
    /// Number of histogram slots.
    pub const COUNT: usize = 12;

    /// Every variant, in index order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::SearchNanos,
        Hist::RequestNanos,
        Hist::RouteCostMilli,
        Hist::ThresholdProbes,
        Hist::PrimaryHops,
        Hist::BackupHops,
        Hist::ServeLatencyNanos,
        Hist::ServeQueueNanos,
        Hist::WalFsyncNanos,
        Hist::ServeLockNanos,
        Hist::ServeRouteNanos,
        Hist::ServeCommitNanos,
    ];

    /// Stable snake_case key used in snapshots and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SearchNanos => "search_ns",
            Hist::RequestNanos => "request_ns",
            Hist::RouteCostMilli => "route_cost_milli",
            Hist::ThresholdProbes => "threshold_probes",
            Hist::PrimaryHops => "primary_hops",
            Hist::BackupHops => "backup_hops",
            Hist::ServeLatencyNanos => "serve_latency_ns",
            Hist::ServeQueueNanos => "serve_queue_ns",
            Hist::WalFsyncNanos => "wal_fsync_ns",
            Hist::ServeLockNanos => "serve_lock_ns",
            Hist::ServeRouteNanos => "serve_route_ns",
            Hist::ServeCommitNanos => "serve_commit_ns",
        }
    }

    /// One-line description used for Prometheus `# HELP` metadata.
    pub fn help(self) -> &'static str {
        match self {
            Hist::SearchNanos => "Disjoint-pair search duration in nanoseconds",
            Hist::RequestNanos => "Whole-request routing duration in nanoseconds",
            Hist::RouteCostMilli => "Total route cost (Eq. 1) in millicost units",
            Hist::ThresholdProbes => "Threshold-search probes per request",
            Hist::PrimaryHops => "Primary-path hop count",
            Hist::BackupHops => "Backup-path hop count",
            Hist::ServeLatencyNanos => {
                "Daemon request latency from accept to response in nanoseconds"
            }
            Hist::ServeQueueNanos => "Daemon admission-queue wait in nanoseconds",
            Hist::WalFsyncNanos => {
                "WAL line encode and write (no flush or sync) per journal event in nanoseconds"
            }
            Hist::ServeLockNanos => "Provisioner lock acquisition per provision in nanoseconds",
            Hist::ServeRouteNanos => "Routing search under the read lock in nanoseconds",
            Hist::ServeCommitNanos => {
                "Commit under the write lock with the WAL write and any re-route in nanoseconds"
            }
        }
    }

    /// Whether this histogram records wall-clock time (and therefore cannot
    /// be expected to reproduce bucket-for-bucket across runs).
    pub fn is_timing(self) -> bool {
        matches!(
            self,
            Hist::SearchNanos
                | Hist::RequestNanos
                | Hist::ServeLatencyNanos
                | Hist::ServeQueueNanos
                | Hist::WalFsyncNanos
                | Hist::ServeLockNanos
                | Hist::ServeRouteNanos
                | Hist::ServeCommitNanos
        )
    }
}

/// The instrumentation interface the routing stack is generic over.
///
/// Call sites gate any non-trivial argument computation on
/// [`Recorder::enabled`] so the [`NoopRecorder`] path compiles to nothing:
///
/// ```
/// # use wdm_telemetry::{Recorder, NoopRecorder, Hist};
/// # let recorder = NoopRecorder;
/// # let expensive_summary = || 42u64;
/// if recorder.enabled() {
///     recorder.observe(Hist::RouteCostMilli, expensive_summary());
/// }
/// ```
pub trait Recorder {
    /// Whether events are recorded at all. `false` lets callers skip
    /// computing event payloads entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Increments `counter` by `delta`.
    fn add(&self, counter: Counter, delta: u64);

    /// Records `value` into `hist`.
    fn observe(&self, hist: Hist, value: u64);
}

/// The zero-cost default: every method is an empty `#[inline(always)]`
/// body, so code generic over `R: Recorder` monomorphised with this type
/// carries no instrumentation at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn observe(&self, _hist: Hist, _value: u64) {}
}

/// Shared references record through the underlying recorder, so a single
/// [`TelemetrySink`] can serve many contexts (and many threads) at once.
impl<R: Recorder + ?Sized> Recorder for &R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        (**self).add(counter, delta);
    }

    #[inline]
    fn observe(&self, hist: Hist, value: u64) {
        (**self).observe(hist, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_match_layout() {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }

    #[test]
    fn hist_names_are_unique_and_match_layout() {
        let mut seen = std::collections::HashSet::new();
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
            assert!(seen.insert(h.name()), "duplicate name {}", h.name());
        }
        assert_eq!(Hist::ALL.len(), Hist::COUNT);
        assert!(Hist::SearchNanos.is_timing());
        assert!(!Hist::RouteCostMilli.is_timing());
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        // And through the blanket `&R` impl.
        let by_ref: &dyn Recorder = &&r;
        assert!(!by_ref.enabled());
    }
}
