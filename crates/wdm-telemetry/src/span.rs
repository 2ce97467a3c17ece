//! Hierarchical phase spans for the routing pipeline.
//!
//! A [`Tracer`] is the per-request timing sibling of [`Recorder`]: the
//! routing stack is generic over `T: Tracer`, the default [`NoopTracer`]
//! monomorphises every span site away (verified by the A/B criterion bench
//! next to `ctx_noop`/`ctx_telemetry`), and the live [`SpanBuffer`] records
//! closed spans into a lock-free single-owner buffer.
//!
//! The span model is deliberately flat: a *root* span per request
//! ([`Phase::Request`], recorded by the driving loop) plus non-overlapping
//! *sub-phase* spans recorded inside it by the pipeline (auxiliary-graph
//! refresh, the two Suurballe passes, physical map-back, Lemma 2
//! refinement, commit). Because sub-phases nest inside the root and
//! never overlap each other, their durations sum to at most the root's, and
//! the residual `root − Σ sub` is the pipeline's unattributed overhead —
//! `wdm trace analyze` reports exactly this decomposition.
//!
//! Timestamps come from an injectable monotonic [`Clock`]; production code
//! uses [`MonotonicClock`] (an `Instant` origin) while tests drive a
//! [`ManualClock`] so phase arithmetic is exact.
//!
//! Concurrency model: a `SpanBuffer` is owned by one worker (interior
//! `RefCell`, `Send` but not `Sync` — no atomics on the record path).
//! Workers that must share a time axis each build their own buffer on one
//! shared clock.
//!
//! [`Recorder`]: crate::Recorder

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The traced phases of one request, in pipeline order.
///
/// The discriminant is the array index (as for [`crate::Counter`]);
/// [`Phase::ALL`] and [`Phase::name`] keep layout and key space in one
/// place. [`Phase::Request`] is the root span; everything else is a
/// sub-phase recorded inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[repr(usize)]
pub enum Phase {
    /// Root span: the whole request, routing plus commit.
    Request,
    /// Auxiliary-graph engine sync: a cold engine slot's allocation (and
    /// the skeleton build, in a context that holds none), the full or
    /// dirty-link refresh; and the threshold ladder's per-rung flow checks
    /// over the admission rule.
    AuxRefresh,
    /// Suurballe pass 1: the sink bound (a reverse Dijkstra over the
    /// admitted physical links), then the bound-guided shortest path on the
    /// enabled skeleton.
    SuurballeP1,
    /// Suurballe pass 2: residual build + second path + decomposition.
    SuurballeP2,
    /// Mapping auxiliary paths back to physical edges.
    MapBack,
    /// Lemma 2 / Liang–Shen wavelength refinement of both legs.
    Refine,
    /// Committing the route (occupy + journal append).
    Commit,
    /// Daemon: reading and validating the request off the socket — the
    /// admission decision for this request's routing work.
    Admission,
    /// Daemon: time spent in the bounded admission queue before a worker
    /// picked the request up.
    QueueWait,
    /// Daemon: waiting to acquire the shared provisioner lock (read lock
    /// before routing plus write lock before commit).
    LockAcquire,
    /// Daemon: appending the journal event to the WAL and flushing it.
    WalFsync,
    /// Daemon: a commit refused because the route went stale. The re-route
    /// under the write lock that follows records its own routing phases
    /// into the same request, and the re-commit is [`Phase::Commit`].
    Reroute,
    /// Daemon: serialising the response and writing it to the socket.
    Respond,
    /// Recorder bookkeeping on the request's own thread: structured route
    /// trace assembly and histogram updates after the routing decision.
    Telemetry,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 14;

    /// Every variant, in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Request,
        Phase::AuxRefresh,
        Phase::SuurballeP1,
        Phase::SuurballeP2,
        Phase::MapBack,
        Phase::Refine,
        Phase::Commit,
        Phase::Admission,
        Phase::QueueWait,
        Phase::LockAcquire,
        Phase::WalFsync,
        Phase::Reroute,
        Phase::Respond,
        Phase::Telemetry,
    ];

    /// Stable snake_case key used in trace files and analysis output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::AuxRefresh => "aux_refresh",
            Phase::SuurballeP1 => "suurballe_p1",
            Phase::SuurballeP2 => "suurballe_p2",
            Phase::MapBack => "map_back",
            Phase::Refine => "refine",
            Phase::Commit => "commit",
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::LockAcquire => "lock_acquire",
            Phase::WalFsync => "wal_fsync",
            Phase::Reroute => "reroute",
            Phase::Respond => "respond",
            Phase::Telemetry => "telemetry",
        }
    }
}

/// A monotonic nanosecond time source. Injectable so span arithmetic is
/// testable with exact, hand-advanced timestamps.
pub trait Clock {
    /// Nanoseconds since this clock's origin (monotonic, never decreases).
    fn now_ns(&self) -> u64;
}

/// The production clock: nanoseconds since an `Instant` origin captured at
/// construction. `Copy`, so buffers built on copies share one time domain.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-driven test clock. Clones share the underlying cell, so a test
/// can advance time while one or more buffers read it.
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One closed span: a phase interval attributed to a request ordinal.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Request ordinal within the recording buffer (0-based, assigned by
    /// [`Tracer::begin_request`]).
    pub request: u64,
    /// The phase this span times.
    pub phase: Phase,
    /// Clock reading when the phase started.
    pub start_ns: u64,
    /// Clock reading when the phase ended (`>= start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span-recording interface the routing stack is generic over.
///
/// Call sites follow the [`Recorder`] discipline: gate span bookkeeping on
/// [`Tracer::enabled`], take a start stamp with [`Tracer::now_ns`] (0 when
/// disabled) and close the span with [`Tracer::record`], which stamps the
/// end internally. The [`NoopTracer`] default compiles all of it away.
///
/// [`Recorder`]: crate::Recorder
pub trait Tracer {
    /// Whether spans are recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Current clock reading (0 when disabled).
    fn now_ns(&self) -> u64;

    /// Opens the next request ordinal; subsequent spans attach to it.
    fn begin_request(&self);

    /// Closes a span for the current request: `phase` ran from `start_ns`
    /// until now.
    fn record(&self, phase: Phase, start_ns: u64);

    /// Closes a span for the current request with both endpoints supplied
    /// by the caller (clamped so `end_ns >= start_ns`). The daemon uses
    /// this to carve non-overlapping intervals out of one measured stretch
    /// — e.g. splitting a commit into its occupy part and the WAL write —
    /// and to backfill spans that ended before the request was begun
    /// (queue wait).
    fn record_span(&self, phase: Phase, start_ns: u64, end_ns: u64);

    /// Per-phase duration totals of the latest begun request, indexed by
    /// `Phase as usize` (all zeros when disabled). Only meaningful while
    /// the latest request's records are still the buffer tail (the serial
    /// simulator's case).
    fn last_request_phases(&self) -> [u64; Phase::COUNT];
}

/// The zero-cost default: every method is an empty `#[inline(always)]`
/// body, so code generic over `T: Tracer` monomorphised with this type
/// carries no span instrumentation at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn begin_request(&self) {}

    #[inline(always)]
    fn record(&self, _phase: Phase, _start_ns: u64) {}

    #[inline(always)]
    fn record_span(&self, _phase: Phase, _start_ns: u64, _end_ns: u64) {}

    #[inline(always)]
    fn last_request_phases(&self) -> [u64; Phase::COUNT] {
        [0; Phase::COUNT]
    }
}

/// Shared references trace through the underlying tracer, mirroring the
/// blanket `&R: Recorder` impl.
impl<T: Tracer + ?Sized> Tracer for &T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }

    #[inline]
    fn begin_request(&self) {
        (**self).begin_request();
    }

    #[inline]
    fn record(&self, phase: Phase, start_ns: u64) {
        (**self).record(phase, start_ns);
    }

    #[inline]
    fn record_span(&self, phase: Phase, start_ns: u64, end_ns: u64) {
        (**self).record_span(phase, start_ns, end_ns);
    }

    #[inline]
    fn last_request_phases(&self) -> [u64; Phase::COUNT] {
        (**self).last_request_phases()
    }
}

#[derive(Debug, Default)]
struct SpanInner {
    /// Number of `begin_request` calls; the current request is `begun - 1`.
    begun: u64,
    records: Vec<SpanRecord>,
}

/// The live [`Tracer`]: a single-owner span buffer.
///
/// Interior mutability is a `RefCell` — recording is a bounds check and a
/// `Vec` push, no atomics — so the buffer is `Send` (a worker can own it)
/// but not `Sync` (two threads cannot share one; give each worker its own
/// buffer on a shared clock).
#[derive(Debug)]
pub struct SpanBuffer<C: Clock = MonotonicClock> {
    clock: C,
    inner: RefCell<SpanInner>,
}

impl SpanBuffer<MonotonicClock> {
    /// An empty buffer on a fresh monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(MonotonicClock::default())
    }
}

impl Default for SpanBuffer<MonotonicClock> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Clock> SpanBuffer<C> {
    /// An empty buffer reading timestamps from `clock`.
    pub fn with_clock(clock: C) -> Self {
        SpanBuffer {
            clock,
            inner: RefCell::new(SpanInner::default()),
        }
    }

    /// The clock this buffer stamps spans with.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// Number of requests begun so far.
    pub fn requests_begun(&self) -> u64 {
        self.inner.borrow().begun
    }

    /// A copy of every recorded span, in recording order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.borrow().records.clone()
    }

    /// Drains the buffer, returning every recorded span and resetting the
    /// ordinal space.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        let mut b = self.inner.borrow_mut();
        b.begun = 0;
        std::mem::take(&mut b.records)
    }
}

impl<C: Clock + Clone> Tracer for SpanBuffer<C> {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn begin_request(&self) {
        self.inner.borrow_mut().begun += 1;
    }

    fn record(&self, phase: Phase, start_ns: u64) {
        let end_ns = self.clock.now_ns().max(start_ns);
        let mut b = self.inner.borrow_mut();
        let Some(request) = b.begun.checked_sub(1) else {
            return; // span outside any begun request: dropped
        };
        b.records.push(SpanRecord {
            request,
            phase,
            start_ns,
            end_ns,
        });
    }

    fn record_span(&self, phase: Phase, start_ns: u64, end_ns: u64) {
        let mut b = self.inner.borrow_mut();
        let Some(request) = b.begun.checked_sub(1) else {
            return; // span outside any begun request: dropped
        };
        b.records.push(SpanRecord {
            request,
            phase,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    fn last_request_phases(&self) -> [u64; Phase::COUNT] {
        let b = self.inner.borrow();
        let mut out = [0u64; Phase::COUNT];
        let Some(current) = b.begun.checked_sub(1) else {
            return out;
        };
        for r in b.records.iter().rev() {
            if r.request != current {
                break;
            }
            out[r.phase as usize] += r.duration_ns();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_match_layout() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
        }
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn noop_tracer_is_disabled() {
        let t = NoopTracer;
        assert!(!t.enabled());
        assert_eq!(t.now_ns(), 0);
        t.begin_request();
        t.record(Phase::Request, 0);
        assert_eq!(t.last_request_phases(), [0; Phase::COUNT]);
        // And through the blanket `&T` impl.
        let by_ref: &dyn Tracer = &&t;
        assert!(!by_ref.enabled());
    }

    #[test]
    fn spans_attach_to_the_current_request() {
        let clock = ManualClock::new();
        let buf = SpanBuffer::with_clock(clock.clone());
        assert!(buf.enabled());

        buf.begin_request();
        let t0 = buf.now_ns();
        clock.advance(10);
        buf.record(Phase::AuxRefresh, t0);

        buf.begin_request();
        let t1 = buf.now_ns();
        clock.advance(5);
        buf.record(Phase::Refine, t1);

        let recs = buf.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].request, 0);
        assert_eq!(recs[0].duration_ns(), 10);
        assert_eq!(recs[1].request, 1);
        assert_eq!(recs[1].phase, Phase::Refine);
        assert_eq!(buf.requests_begun(), 2);
    }

    #[test]
    fn record_span_takes_explicit_intervals() {
        let clock = ManualClock::new();
        let buf = SpanBuffer::with_clock(clock.clone());
        // Outside any request: dropped, like record.
        buf.record_span(Phase::QueueWait, 0, 10);
        assert!(buf.records().is_empty());

        buf.begin_request();
        clock.advance(100);
        // Backfilled span that ended before "now"; and a clamped one.
        buf.record_span(Phase::QueueWait, 10, 40);
        buf.record_span(Phase::WalFsync, 50, 30);
        let recs = buf.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].start_ns, recs[0].end_ns), (10, 40));
        assert_eq!(recs[0].duration_ns(), 30);
        assert_eq!((recs[1].start_ns, recs[1].end_ns), (50, 50), "clamped");
        let phases = buf.last_request_phases();
        assert_eq!(phases[Phase::QueueWait as usize], 30);
    }

    #[test]
    fn phase_durations_sum_exactly_to_the_root_span() {
        // The satellite contract: under the injectable clock, sub-phase
        // durations plus the unattributed residual equal the root exactly.
        let clock = ManualClock::new();
        let buf = SpanBuffer::with_clock(clock.clone());
        buf.begin_request();
        let root_start = buf.now_ns();

        let sub = [
            (Phase::AuxRefresh, 7u64),
            (Phase::SuurballeP1, 11),
            (Phase::SuurballeP2, 13),
            (Phase::MapBack, 3),
            (Phase::Refine, 17),
            (Phase::Commit, 2),
        ];
        for &(phase, ns) in &sub {
            let t = buf.now_ns();
            clock.advance(ns);
            buf.record(phase, t);
            clock.advance(1); // unattributed gap between phases
        }
        buf.record(Phase::Request, root_start);

        let phases = buf.last_request_phases();
        let total = phases[Phase::Request as usize];
        let sub_sum: u64 = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Request)
            .map(|&p| phases[p as usize])
            .sum();
        let expected_sub: u64 = sub.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sub_sum, expected_sub);
        assert_eq!(total, expected_sub + sub.len() as u64); // + the gaps
        assert_eq!(sub_sum + sub.len() as u64, total, "sub + residual = root");
    }

    #[test]
    fn span_record_round_trips_through_json() {
        let r = SpanRecord {
            request: 5,
            phase: Phase::SuurballeP2,
            start_ns: 100,
            end_ns: 250,
        };
        let text = serde_json::to_string(&r).unwrap();
        let back: SpanRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.duration_ns(), 150);
    }
}
