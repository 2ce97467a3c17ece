//! The `wdm serve` daemon: a thread-per-core provisioning service over one
//! live network state.
//!
//! # Architecture (DESIGN.md §5i)
//!
//! ```text
//!          bind ─► WAL header ─► Skeleton::new(net) ─► publish address
//!                                      │ one Arc, shared
//!                    accept loop (nonblocking)
//!                        │  admit / shed 503
//!                 [ bounded WorkQueue ]
//!                   │        │       │
//!                worker    worker  worker      each: warm RouterCtx over
//!                   │        │       │               the shared skeleton
//!         route under read lock (shared state)
//!                   │
//!         commit under write lock ──► WAL (one write per event, no fsync)
//! ```
//!
//! One [`NetProvisioner`] owns the mutation lineage — state, journal,
//! connection table — behind an `RwLock`. Before it serves, [`run`]
//! builds the network's auxiliary-graph [`Skeleton`] once and hands it to
//! every worker's [`RouterCtx`], so a worker's first route only allocates
//! and fills its own engines' weights. Workers keep their warm contexts
//! and compute routes under the **read** lock, so search
//! (the expensive part) runs concurrently; the **write** lock serializes
//! only the commit, which is O(route length). A commit can conflict with
//! a mutation that landed after the route was computed — then
//! [`NetProvisioner::try_commit`] refuses it before touching anything and
//! the worker re-routes *under the write lock*, where the state cannot
//! move, on its own context: that context routed the same request moments
//! ago, so its sync catches up only on the links the conflicting mutation
//! changed. The provisioner's own context is never used, so never built.
//!
//! Every mutation moves the state's change clocks forward and a refused
//! commit moves nothing, so each warm context catches up through the
//! ordinary dirty-link sync; no context is ever dropped.
//!
//! Durability: every journal event is written to the [`WalSink`] (one
//! `write` to the operating system) before the request is answered, so
//! an answered mutation survives the daemon being killed — a `kill -9`
//! costs at most the in-flight request. The WAL is not fsynced, so a
//! power loss or kernel crash can still lose acknowledged mutations the
//! page cache had not written back. Graceful shutdown (SIGTERM, or
//! [`Control::shutdown`]) drains the queue, writes a final checkpoint
//! anchor and the graceful-close line.
//!
//! # Observability (DESIGN.md §5j)
//!
//! The serve path is generic over the telemetry stack. Counters and
//! histograms always flow into the shared [`TelemetrySink`] (scraped via
//! `/metrics`, with per-phase latency histograms and queue/WAL gauges);
//! every provision lands a WAL-seq-correlated record in the [`Diag`]
//! flight ring (`/debug/flight`). With `--trace`, each worker additionally
//! owns a live [`SpanBuffer`] on a shared clock domain and times the full
//! request lifecycle — queue wait, admission, lock acquires, the route
//! phases (a re-route's too), commit, the WAL append (the `wal_fsync`
//! span), a commit refused by a conflict — draining closed spans into the
//! [`Diag`] span ring (`/debug/trace?n=K`, Chrome `trace_event` format)
//! after every request. At clean shutdown the flight dump is written as a
//! `wdm trace analyze`-compatible trace file.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use wdm_core::aux_engine::{RouterCtx, Skeleton};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_graph::{EdgeId, NodeId};
use wdm_sim::policy::{Policy, ProvisionedRoute};
use wdm_sim::provisioner::{NetProvisioner, Provisioner};
use wdm_telemetry::{
    Counter, FlightRecord, Hist, MonotonicClock, NoopRecorder, NoopTracer, Phase, Recorder,
    SpanBuffer, SpanRecord, TelemetrySink, TraceFile, Tracer, DEFAULT_FLIGHT_CAPACITY,
};

use crate::admission::{AdmitError, WorkQueue};
use crate::diag::Diag;
use crate::http::{self, Request};
use crate::signal;
use crate::wal::{WalError, WalSink};

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads (the accept loop is its own, cheap, loop).
    pub threads: usize,
    /// Provisioning policy.
    pub policy: Policy,
    /// Write-ahead log path.
    pub wal_path: PathBuf,
    /// Admission queue capacity; a full queue sheds with `503`.
    pub queue_capacity: usize,
    /// Per-request deadline measured from admission; expired requests are
    /// dropped before any routing work.
    pub deadline: Duration,
    /// Checkpoint anchor cadence in journal events (0 disables anchors).
    pub checkpoint_every: u64,
    /// Whether to install SIGINT/SIGTERM handlers and treat either as a
    /// graceful shutdown request (the CLI sets this; tests drive
    /// [`Control`] directly).
    pub handle_signals: bool,
    /// Resume state: replayed from a previous WAL instead of a fresh
    /// network (the new WAL's header checkpoint is this state).
    pub resume_state: Option<ResidualState>,
    /// When set, workers carry live span buffers and a `wdm trace
    /// analyze`-compatible trace file is written here at clean shutdown.
    pub trace_path: Option<PathBuf>,
    /// Flight-recorder ring capacity (per-request records behind
    /// `/debug/flight`).
    pub flight_capacity: usize,
}

impl ServeConfig {
    /// Defaults for `addr`/`wal_path`: loopback on an ephemeral port,
    /// four workers, a 256-deep queue, 2 s deadline, anchors every 256
    /// events, tracing off, the default flight ring.
    pub fn new(addr: impl Into<String>, wal_path: impl Into<PathBuf>) -> Self {
        Self {
            addr: addr.into(),
            threads: 4,
            policy: Policy::CostOnly,
            wal_path: wal_path.into(),
            queue_capacity: 256,
            deadline: Duration::from_secs(2),
            checkpoint_every: 256,
            handle_signals: false,
            resume_state: None,
            trace_path: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Shared control surface between the caller and a running [`run`].
///
/// [`run`] blocks until shutdown; callers hold a `&Control` on another
/// thread (tests use `std::thread::scope`) to learn the bound address and
/// request termination.
#[derive(Default)]
pub struct Control {
    shutdown: AtomicBool,
    crash: AtomicBool,
    listening: Mutex<Listening>,
    listening_changed: Condvar,
}

/// How far [`run`] has got, as [`Control::wait_addr`] sees it.
#[derive(Default)]
enum Listening {
    /// Not bound yet.
    #[default]
    Starting,
    /// Serving on this address.
    At(SocketAddr),
    /// [`run`] has returned, whether it served or failed first.
    Gone,
}

/// Marks the daemon gone when [`run`] returns, however it returns.
struct GoneOnDrop<'a>(&'a Control);

impl Drop for GoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.publish(Listening::Gone);
    }
}

impl Control {
    /// A fresh control block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful shutdown: drain the queue, final checkpoint,
    /// graceful-close line.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Simulates a kill: workers stop immediately, queued requests are
    /// abandoned, **no** final checkpoint or graceful-close line is
    /// written. The WAL is left exactly as a `kill -9` would leave it
    /// (crash-recovery tests drive this).
    pub fn crash(&self) {
        self.crash.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn crashed(&self) -> bool {
        self.crash.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon serves, returning the address it bound
    /// (resolves `:0`). `None` on timeout, and as soon as [`run`] has
    /// returned: a daemon that failed before it bound never serves.
    pub fn wait_addr(&self, timeout: Duration) -> Option<SocketAddr> {
        let deadline = Instant::now() + timeout;
        // Every update is one assignment, so a poisoned lock still holds a
        // valid value.
        let mut guard = self
            .listening
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            match *guard {
                Listening::At(addr) => return Some(addr),
                Listening::Gone => return None,
                Listening::Starting => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .listening_changed
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Never panics: [`GoneOnDrop`] calls it while `run` may be unwinding.
    fn publish(&self, listening: Listening) {
        *self
            .listening
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = listening;
        self.listening_changed.notify_all();
    }
}

/// What a completed [`run`] reports.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// Journal events written.
    pub journal_seq: u64,
    /// Live connections at shutdown.
    pub connections: usize,
    /// Final state hash.
    pub semantic_hash: u64,
    /// Whether the graceful-close line was written (false after
    /// [`Control::crash`]).
    pub clean_shutdown: bool,
    /// Counter snapshot (`serve_*` names from the telemetry registry).
    pub counters: std::collections::BTreeMap<String, u64>,
}

/// A worker-owned tracer the daemon can drain: spans close into the
/// worker's private buffer while a request is handled, then move to the
/// shared [`Diag`] span ring in one batch. [`NoopTracer`] drains nothing,
/// so the untraced daemon never touches the ring or its lock.
pub trait WorkerTracer: Tracer + Sized {
    /// Takes every span closed since the last drain.
    fn drain(&self) -> Vec<SpanRecord>;
}

impl WorkerTracer for NoopTracer {
    #[inline(always)]
    fn drain(&self) -> Vec<SpanRecord> {
        Vec::new()
    }
}

impl<C: wdm_telemetry::Clock + Clone> WorkerTracer for SpanBuffer<C> {
    fn drain(&self) -> Vec<SpanRecord> {
        self.take_records()
    }
}

/// Per-request timestamps captured in the worker loop, before dispatch.
///
/// The `u64` fields are tracer-clock readings (all zero when untraced)
/// used to back-fill the queue-wait and admission spans once `route_ctx`
/// has opened the request's span ordinal; `wall`/`queue_wait_ns` are real
/// wall measurements, so flight records carry a total even without
/// `--trace`.
struct ReqTiming {
    /// When the request entered the admission queue (tracer clock).
    queue_start: u64,
    /// When the worker picked it up and began reading the socket.
    read_start: u64,
    /// Wall-clock anchor at `read_start`.
    wall: Instant,
    /// Measured queue wait.
    queue_wait_ns: u64,
}

/// JSON request bodies.
#[derive(serde::Deserialize)]
struct ProvisionReq {
    src: u32,
    dst: u32,
}

#[derive(serde::Deserialize)]
struct TeardownReq {
    id: u64,
}

#[derive(serde::Deserialize)]
struct LinkReq {
    link: u32,
}

/// Why [`run`] failed.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not be set up on the configured address.
    Bind {
        /// The address asked for ([`ServeConfig::addr`]).
        addr: String,
        /// The socket error.
        source: std::io::Error,
    },
    /// The write-ahead log could not be created, written or closed.
    Wal(WalError),
    /// The shutdown trace file ([`ServeConfig::trace_path`]) could not be
    /// written.
    Trace {
        /// The trace file's path.
        path: PathBuf,
        /// The serialization or write error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Wal(e) => e.fmt(f),
            ServeError::Trace { path, source } => {
                write!(f, "cannot write trace file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// Runs the daemon until shutdown. Blocks; see [`Control`] for the
/// caller-side surface.
pub fn run(
    net: &WdmNetwork,
    cfg: &ServeConfig,
    control: &Control,
) -> Result<ServeReport, ServeError> {
    let _gone = GoneOnDrop(control);
    if cfg.handle_signals {
        signal::install(signal::SIGINT);
        signal::install(signal::SIGTERM);
    }

    // Bind before creating the WAL, which truncates its file: a daemon that
    // cannot bind (a second one on the same port and log) must not destroy
    // the log the first one is writing.
    let bind_error = |source| ServeError::Bind {
        addr: cfg.addr.clone(),
        source,
    };
    let listener = TcpListener::bind(&cfg.addr).map_err(bind_error)?;
    listener.set_nonblocking(true).map_err(bind_error)?;
    let addr = listener.local_addr().map_err(bind_error)?;

    let initial = cfg
        .resume_state
        .clone()
        .unwrap_or_else(|| ResidualState::fresh(net));
    let wal = WalSink::create(&cfg.wal_path, net, cfg.policy, &initial)?;
    let prov = RwLock::new(NetProvisioner::with_parts(
        net,
        cfg.policy,
        initial,
        RouterCtx::new(),
        wal,
    ));
    let sink = TelemetrySink::new();
    let queue: WorkQueue<TcpStream> = WorkQueue::new(cfg.queue_capacity);
    let tracing = cfg.trace_path.is_some();
    let diag = Diag::new(cfg.flight_capacity.max(1), tracing);
    // One clock domain for every worker's span buffer, so interleaved
    // requests line up on a common timeline in `/debug/trace`.
    let clock = MonotonicClock::default();
    // The one skeleton every worker's context builds its engines over.
    let skeleton = Arc::new(Skeleton::new(net));
    sink.add(Counter::EngineSkeletonBuilds, 1);
    control.publish(Listening::At(addr));

    std::thread::scope(|s| {
        let (prov, sink, queue, diag, skeleton) = (&prov, &sink, &queue, &diag, &skeleton);
        for _ in 0..cfg.threads.max(1) {
            // Monomorphise the worker per mode: the untraced daemon runs
            // the NoopTracer instantiation, where every span call is an
            // empty inlined body.
            if tracing {
                let tracer = SpanBuffer::with_clock(clock);
                s.spawn(move || {
                    worker_loop(net, cfg, control, prov, sink, queue, diag, skeleton, tracer)
                });
            } else {
                s.spawn(move || {
                    worker_loop(
                        net, cfg, control, prov, sink, queue, diag, skeleton, NoopTracer,
                    )
                });
            }
        }

        // Accept loop: admit or shed; never blocks on a worker.
        loop {
            let signalled = cfg.handle_signals && signal::shutdown_requested();
            if control.stopping() || signalled {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => match queue.admit(stream) {
                    Ok(()) => {}
                    Err((mut stream, AdmitError::Full)) => {
                        sink.add(Counter::ServeShed, 1);
                        let _ = http::write_response(
                            &mut stream,
                            "503 Service Unavailable",
                            "application/json",
                            &[("Retry-After", "1")],
                            b"{\"error\":\"overloaded\"}\n",
                        );
                    }
                    Err((_, AdmitError::Closed)) => break,
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        queue.close();
    });

    // Workers have drained (or abandoned, on crash) the queue.
    let mut prov = prov.into_inner().unwrap();
    let clean = !control.crashed();
    if clean {
        let snapshot = prov.state().clone();
        let wal = prov.journal_mut();
        wal.checkpoint(&snapshot);
        wal.finalize(&snapshot)?;
        if let Some(path) = &cfg.trace_path {
            let trace = TraceFile::new(
                cfg.policy.name(),
                0,
                diag.flight.total_requests(),
                diag.flight.dump(),
            );
            let trace_error = |source| ServeError::Trace {
                path: path.clone(),
                source,
            };
            let text = serde_json::to_string(&trace)
                .map_err(|e| trace_error(std::io::Error::other(e.to_string())))?;
            std::fs::write(path, text).map_err(trace_error)?;
        }
    }
    if let Some(e) = prov.journal_mut().take_error() {
        return Err(WalError::Io(e).into());
    }
    Ok(ServeReport {
        journal_seq: prov.journal_seq(),
        connections: prov.active_connections(),
        semantic_hash: prov.semantic_hash(),
        clean_shutdown: clean,
        counters: sink.snapshot().counters,
    })
}

/// The daemon's one provisioner. Workers route on their own instrumented
/// contexts, conflict re-routes included, so the provisioner's own context
/// is never routed on and records nothing. Every mutation goes to the WAL.
type Prov<'a> = NetProvisioner<'a, NoopRecorder, WalSink, NoopTracer>;

#[allow(clippy::too_many_arguments)]
fn worker_loop<WT: WorkerTracer>(
    net: &WdmNetwork,
    cfg: &ServeConfig,
    control: &Control,
    prov: &RwLock<Prov<'_>>,
    sink: &TelemetrySink,
    queue: &WorkQueue<TcpStream>,
    diag: &Diag,
    skeleton: &Arc<Skeleton>,
    tracer: WT,
) {
    let mut ctx =
        RouterCtx::with_recorder_and_tracer(sink, &tracer).with_skeleton(Arc::clone(skeleton));
    loop {
        if control.crashed() {
            return; // Abandon everything, like a kill would.
        }
        let Some(admitted) = queue.take(Duration::from_millis(50)) else {
            if queue.is_closed() {
                return;
            }
            continue;
        };
        let queue_wait = admitted.queue_wait();
        let expired = admitted.expired(cfg.deadline);
        let mut stream = admitted.item;
        sink.observe(Hist::ServeQueueNanos, queue_wait.as_nanos() as u64);
        if expired {
            sink.add(Counter::ServeDeadlineDrop, 1);
            let _ = http::write_response(
                &mut stream,
                "503 Service Unavailable",
                "application/json",
                &[("Retry-After", "1")],
                b"{\"error\":\"deadline exceeded\"}\n",
            );
            continue;
        }
        let started = Instant::now();
        let queue_wait_ns = queue_wait.as_nanos() as u64;
        let read_start = tracer.now_ns();
        match http::read_request(&mut stream) {
            Ok(req) => {
                let timing = ReqTiming {
                    queue_start: read_start.saturating_sub(queue_wait_ns),
                    read_start,
                    wall: started,
                    queue_wait_ns,
                };
                dispatch(
                    net,
                    cfg,
                    prov,
                    sink,
                    queue,
                    diag,
                    &req,
                    &mut stream,
                    &mut ctx,
                    &tracer,
                    &timing,
                );
            }
            Err(e) => {
                sink.add(Counter::ServeBadRequest, 1);
                http::answer_error(&mut stream, &e);
            }
        }
        sink.observe(Hist::ServeLatencyNanos, started.elapsed().as_nanos() as u64);
        let spans = tracer.drain();
        if !spans.is_empty() {
            diag.absorb_spans(spans);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch<WT: WorkerTracer>(
    net: &WdmNetwork,
    cfg: &ServeConfig,
    prov: &RwLock<Prov<'_>>,
    sink: &TelemetrySink,
    queue: &WorkQueue<TcpStream>,
    diag: &Diag,
    req: &Request,
    stream: &mut TcpStream,
    ctx: &mut RouterCtx<&TelemetrySink, &WT>,
    tracer: &WT,
    timing: &ReqTiming,
) {
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.target.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("POST", "/provision") => {
            let Some(body) = parse_body::<ProvisionReq>(sink, stream, &req.body) else {
                return;
            };
            let n = net.node_count() as u32;
            if body.src >= n || body.dst >= n || body.src == body.dst {
                sink.add(Counter::ServeBadRequest, 1);
                let _ = http::write_json(
                    stream,
                    "400 Bad Request",
                    "{\"error\":\"invalid endpoints\"}\n",
                );
                return;
            }
            let (s, t) = (NodeId(body.src), NodeId(body.dst));

            // Route under the read lock with this worker's warm context.
            let lock_wall = Instant::now();
            let t_rl0 = tracer.now_ns();
            let guard = prov.read().unwrap();
            let t_rl1 = tracer.now_ns();
            let read_lock_ns = lock_wall.elapsed().as_nanos() as u64;
            let route_wall = Instant::now();
            let routed = cfg.policy.route_ctx(ctx, net, guard.state(), s, t);
            sink.observe(
                Hist::ServeRouteNanos,
                route_wall.elapsed().as_nanos() as u64,
            );
            let t_route1 = tracer.now_ns();
            let seq_seen = guard.journal_seq();
            drop(guard);
            // `route_ctx` opened this request's span ordinal; back-fill
            // the intervals that elapsed before it. Admission runs until
            // the read-lock acquire begins: socket read, parse, validate.
            tracer.record_span(Phase::QueueWait, timing.queue_start, timing.read_start);
            tracer.record_span(Phase::Admission, timing.read_start, t_rl0);
            tracer.record_span(Phase::LockAcquire, t_rl0, t_rl1);

            let route = match routed {
                Ok(route) => route,
                Err(e) => {
                    sink.add(Counter::ServeProvisionBlocked, 1);
                    let _ = http::write_json(
                        stream,
                        "409 Conflict",
                        &format!(
                            "{{\"error\":\"no route\",\"detail\":{:?}}}\n",
                            e.to_string()
                        ),
                    );
                    // Respond opens at `t_route1`: the read-unlock and
                    // back-fill bookkeeping above tile into it.
                    finish_flight(
                        cfg, diag, tracer, timing, s, t, "blocked", seq_seen, 0, t_route1,
                    );
                    return;
                }
            };
            let footprint_links = route.footprint().links.len() as u32;

            // Commit under the write lock, re-routing on this worker's
            // context if the state moved since the route was computed.
            // The acquire span opens as soon as the route is in hand
            // (`t_route1`), so the read-unlock and footprint bookkeeping
            // above tile into it rather than into an attribution gap.
            let lock_wall = Instant::now();
            let mut guard = prov.write().unwrap();
            let t_wl1 = tracer.now_ns();
            sink.observe(
                Hist::ServeLockNanos,
                read_lock_ns + lock_wall.elapsed().as_nanos() as u64,
            );
            tracer.record_span(Phase::LockAcquire, t_route1, t_wl1);
            let seq_before = guard.journal_seq();
            let commit_wall = Instant::now();
            let outcome = commit_or_reroute(&mut guard, ctx, s, t, route);
            // Respond opens here: post-commit bookkeeping (cost lookup,
            // checkpoint cadence, lock release) tiles into the span that
            // ends when the response hits the socket.
            let t_resp0 = tracer.now_ns();
            sink.observe(
                Hist::ServeCommitNanos,
                commit_wall.elapsed().as_nanos() as u64,
            );
            match outcome {
                Some(id) => {
                    let cost = guard
                        .connection(id)
                        .map(|c| c.route.total_cost())
                        .unwrap_or(0.0);
                    maybe_checkpoint(&mut guard, cfg.checkpoint_every, diag);
                    drop(guard);
                    sink.add(Counter::ServeProvisionOk, 1);
                    let _ = http::write_json(
                        stream,
                        "200 OK",
                        &format!("{{\"id\":{id},\"cost\":{cost}}}\n"),
                    );
                    finish_flight(
                        cfg,
                        diag,
                        tracer,
                        timing,
                        s,
                        t,
                        "routed",
                        seq_before,
                        footprint_links,
                        t_resp0,
                    );
                }
                None => {
                    drop(guard);
                    sink.add(Counter::ServeProvisionBlocked, 1);
                    let _ = http::write_json(stream, "409 Conflict", "{\"error\":\"no route\"}\n");
                    finish_flight(
                        cfg, diag, tracer, timing, s, t, "blocked", seq_before, 0, t_resp0,
                    );
                }
            }
        }
        ("POST", "/teardown") => {
            let Some(body) = parse_body::<TeardownReq>(sink, stream, &req.body) else {
                return;
            };
            tracer.begin_request();
            tracer.record_span(Phase::QueueWait, timing.queue_start, timing.read_start);
            let lock_wall = Instant::now();
            let t_l0 = tracer.now_ns();
            tracer.record_span(Phase::Admission, timing.read_start, t_l0);
            let mut guard = prov.write().unwrap();
            sink.observe(Hist::ServeLockNanos, lock_wall.elapsed().as_nanos() as u64);
            tracer.record_span(Phase::LockAcquire, t_l0, tracer.now_ns());
            let t_c0 = tracer.now_ns();
            let released = guard.teardown(body.id).is_some();
            if released {
                close_commit_spans(sink, tracer, guard.journal_mut(), t_c0);
                maybe_checkpoint(&mut guard, cfg.checkpoint_every, diag);
            }
            drop(guard);
            let t_resp0 = tracer.now_ns();
            if released {
                sink.add(Counter::ServeTeardownOk, 1);
                let _ = http::write_json(stream, "200 OK", "{\"released\":true}\n");
            } else {
                sink.add(Counter::ServeTeardownMiss, 1);
                let _ = http::write_json(
                    stream,
                    "404 Not Found",
                    "{\"error\":\"unknown connection\"}\n",
                );
            }
            tracer.record_span(Phase::Respond, t_resp0, tracer.now_ns());
            tracer.record(Phase::Request, timing.queue_start);
        }
        ("POST", "/fail-link") | ("POST", "/repair-link") => {
            let Some(body) = parse_body::<LinkReq>(sink, stream, &req.body) else {
                return;
            };
            if body.link as usize >= net.link_count() {
                sink.add(Counter::ServeBadRequest, 1);
                let _ =
                    http::write_json(stream, "400 Bad Request", "{\"error\":\"unknown link\"}\n");
                return;
            }
            let link = EdgeId(body.link);
            let repair = path == "/repair-link";
            tracer.begin_request();
            tracer.record_span(Phase::QueueWait, timing.queue_start, timing.read_start);
            let lock_wall = Instant::now();
            let t_l0 = tracer.now_ns();
            tracer.record_span(Phase::Admission, timing.read_start, t_l0);
            let mut guard = prov.write().unwrap();
            sink.observe(Hist::ServeLockNanos, lock_wall.elapsed().as_nanos() as u64);
            tracer.record_span(Phase::LockAcquire, t_l0, tracer.now_ns());
            let t_c0 = tracer.now_ns();
            let changed = if repair {
                guard.repair_link(link)
            } else {
                guard.fail_link(link)
            };
            close_commit_spans(sink, tracer, guard.journal_mut(), t_c0);
            maybe_checkpoint(&mut guard, cfg.checkpoint_every, diag);
            drop(guard);
            sink.add(
                if repair {
                    Counter::ServeRepairLink
                } else {
                    Counter::ServeFailLink
                },
                1,
            );
            let t_resp0 = tracer.now_ns();
            let _ = http::write_json(stream, "200 OK", &format!("{{\"changed\":{changed}}}\n"));
            tracer.record_span(Phase::Respond, t_resp0, tracer.now_ns());
            tracer.record(Phase::Request, timing.queue_start);
        }
        ("GET", "/state") => {
            let guard = prov.read().unwrap();
            let body = format!(
                "{{\"connections\":{},\"journal_seq\":{},\"semantic_hash\":{},\"load\":{}}}\n",
                guard.active_connections(),
                guard.journal_seq(),
                guard.semantic_hash(),
                guard.state().network_load(net),
            );
            drop(guard);
            sink.add(Counter::ServeQuery, 1);
            let _ = http::write_json(stream, "200 OK", &body);
        }
        ("GET", "/status") => {
            let guard = prov.read().unwrap();
            let wal_seq = guard.journal_seq();
            let connections = guard.active_connections();
            drop(guard);
            sink.add(Counter::ServeQuery, 1);
            let body = format!(
                "{{\"uptime_secs\":{},\"tracing\":{},\"workers\":{},\"queue_depth\":{},\
                 \"queue_capacity\":{},\"connections\":{connections},\
                 \"wal_seq\":{wal_seq},\"wal_checkpoint_seq\":{},\"flight_requests\":{},\
                 \"flight_anomaly_fired\":{}}}\n",
                diag.uptime_secs(),
                diag.tracing(),
                cfg.threads.max(1),
                queue.depth(),
                queue.capacity(),
                diag.checkpoint_seq(),
                diag.flight.total_requests(),
                diag.flight.anomaly_fired(),
            );
            let _ = http::write_json(stream, "200 OK", &body);
        }
        ("GET", "/debug/flight") => {
            sink.add(Counter::ServeQuery, 1);
            match serde_json::to_string(&diag.flight.dump()) {
                Ok(mut body) => {
                    body.push('\n');
                    let _ = http::write_json(stream, "200 OK", &body);
                }
                Err(e) => {
                    let _ = http::write_json(
                        stream,
                        "500 Internal Server Error",
                        &format!("{{\"error\":{:?}}}\n", e.to_string()),
                    );
                }
            }
        }
        ("GET", "/debug/trace") => {
            sink.add(Counter::ServeQuery, 1);
            let n = query
                .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("n=")))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(64);
            let mut body = wdm_telemetry::chrome_trace_json(&diag.recent_spans(n));
            body.push('\n');
            let _ = http::write_json(stream, "200 OK", &body);
        }
        ("GET", "/metrics") => {
            let mut snap = sink.snapshot();
            snap.set_gauge("serve_queue_depth", queue.depth() as u64);
            snap.set_gauge("serve_queue_capacity", queue.capacity() as u64);
            snap.set_gauge("serve_workers", cfg.threads.max(1) as u64);
            {
                let guard = prov.read().unwrap();
                snap.set_gauge("wal_seq", guard.journal_seq());
            }
            snap.set_gauge("wal_checkpoint_seq", diag.checkpoint_seq());
            snap.set_gauge("flight_records", diag.flight.total_requests());
            snap.set_gauge("flight_anomaly_fired", diag.flight.anomaly_fired() as u64);
            let body = snap.prometheus("wdm");
            let _ = http::write_response(
                stream,
                "200 OK",
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => {
            let _ = http::write_response(stream, "200 OK", "text/plain", &[], b"ok\n");
        }
        _ => {
            let _ = http::write_json(
                stream,
                "404 Not Found",
                "{\"error\":\"no such endpoint\"}\n",
            );
        }
    }
}

/// Commits `route` for `(s, t)`, or re-routes and commits when a mutation
/// that landed since the route was computed makes `try_commit` refuse it.
/// The caller holds the write lock, so the state cannot move between the
/// re-route and its commit. The re-route runs on `ctx`, the worker's
/// context that routed this request moments ago, so its sync catches up
/// only on the links the conflicting mutation changed. Returns the
/// connection id, or `None` when the re-route finds no route.
///
/// Spans: the refused commit is `reroute`, the re-route's search records
/// its routing phases into the same request, and the commit that lands is
/// `commit` plus `wal_fsync`.
fn commit_or_reroute<T: Tracer>(
    prov: &mut Prov<'_>,
    ctx: &mut RouterCtx<&TelemetrySink, &T>,
    s: NodeId,
    t: NodeId,
    route: ProvisionedRoute,
) -> Option<u64> {
    let (sink, tracer) = (*ctx.recorder(), *ctx.tracer());
    let t_c0 = tracer.now_ns();
    if let Ok(id) = prov.try_commit(s, t, route) {
        close_commit_spans(sink, tracer, prov.journal_mut(), t_c0);
        return Some(id);
    }
    sink.add(Counter::ServeConflictRetries, 1);
    tracer.record_span(Phase::Reroute, t_c0, tracer.now_ns());
    let rerouted = prov
        .policy()
        .reroute_ctx(ctx, prov.net(), prov.state(), s, t);
    let t_rr1 = tracer.now_ns();
    let id = prov.commit(s, t, rerouted.ok()?);
    close_commit_spans(sink, tracer, prov.journal_mut(), t_rr1);
    Some(id)
}

/// Closes the commit/WAL span pair for a journalled mutation that
/// started (on the tracer clock) at `start_ns`: the WAL encode+write time
/// reported by the journal is carved off the tail of the measured stretch,
/// so the two spans tile it without overlap. Also feeds the always-on WAL
/// latency histogram. The span and histogram keep their `wal_fsync` names
/// (the trace format), though the append is a `write`, not an fsync.
fn close_commit_spans<T: Tracer>(
    sink: &TelemetrySink,
    tracer: &T,
    journal: &mut WalSink,
    start_ns: u64,
) {
    let end_ns = tracer.now_ns();
    let wal_ns = journal.take_last_write_ns();
    sink.observe(Hist::WalFsyncNanos, wal_ns);
    let split = end_ns.saturating_sub(wal_ns).max(start_ns);
    tracer.record_span(Phase::Commit, start_ns, split);
    tracer.record_span(Phase::WalFsync, split, end_ns);
}

/// Closes a provision's respond + root spans (the root covers queue wait
/// through the response write; `t_resp0` marks where response writing
/// began) and pushes its WAL-seq-correlated flight record. With a live
/// tracer the record carries the full per-phase breakdown; without one,
/// phase durations are zero and the total falls back to wall time.
#[allow(clippy::too_many_arguments)]
fn finish_flight<T: Tracer>(
    cfg: &ServeConfig,
    diag: &Diag,
    tracer: &T,
    timing: &ReqTiming,
    s: NodeId,
    t: NodeId,
    outcome: &str,
    journal_seq: u64,
    footprint_links: u32,
    t_resp0: u64,
) {
    // One clock read closes both spans so the root never outlives Respond.
    let t_end = tracer.now_ns();
    tracer.record_span(Phase::Respond, t_resp0, t_end);
    tracer.record_span(Phase::Request, timing.queue_start, t_end);
    let phases = tracer.last_request_phases();
    let traced_total = phases[Phase::Request as usize];
    let total_ns = if traced_total > 0 {
        traced_total
    } else {
        timing.queue_wait_ns + timing.wall.elapsed().as_nanos() as u64
    };
    diag.flight.push(FlightRecord {
        request: diag.flight.total_requests(),
        src: s.0,
        dst: t.0,
        policy: cfg.policy.name().to_string(),
        outcome: outcome.to_string(),
        journal_seq,
        footprint_links,
        phase_ns: phases.to_vec(),
        total_ns,
    });
}

fn parse_body<T: serde::Deserialize>(
    sink: &TelemetrySink,
    stream: &mut TcpStream,
    body: &[u8],
) -> Option<T> {
    match serde_json::from_slice::<T>(body) {
        Ok(v) => Some(v),
        Err(e) => {
            sink.add(Counter::ServeBadRequest, 1);
            let _ = http::write_json(
                stream,
                "400 Bad Request",
                &format!(
                    "{{\"error\":\"bad body\",\"detail\":{:?}}}\n",
                    e.to_string()
                ),
            );
            None
        }
    }
}

fn maybe_checkpoint(guard: &mut Prov<'_>, every: u64, diag: &Diag) {
    if every == 0 {
        return;
    }
    let seq = guard.journal_seq();
    // Not `is_multiple_of`: that needs Rust 1.87, above the 1.85 MSRV.
    #[allow(clippy::manual_is_multiple_of)]
    if seq > 0 && seq % every == 0 {
        let snapshot = guard.state().clone();
        guard.journal_mut().checkpoint(&snapshot);
        diag.note_checkpoint(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::network::NetworkBuilder;

    /// A commit made stale by a conflicting one re-routes on the worker's
    /// context: it commits the route the policy computes on the state the
    /// conflict left, the WAL replays to the live hash, the request is
    /// counted once while the re-route's search is counted, and the
    /// re-route's spans land in the same request without overlapping.
    #[test]
    fn a_refused_commit_reroutes_on_the_workers_context() {
        let net = NetworkBuilder::nsfnet(8).build();
        let policy = Policy::Joint {
            a: std::f64::consts::E,
        };
        let path = std::env::temp_dir().join(format!(
            "wdm-daemon-reroute-{}.wal.jsonl",
            std::process::id()
        ));
        let initial = ResidualState::fresh(&net);
        let wal = WalSink::create(&path, &net, policy, &initial).expect("create");
        let mut prov: Prov<'_> =
            NetProvisioner::with_parts(&net, policy, initial, RouterCtx::new(), wal);
        let sink = TelemetrySink::new();
        let spans = SpanBuffer::new();
        let mut ctx = RouterCtx::with_recorder_and_tracer(&sink, &spans);
        let (s, t) = (NodeId(0), NodeId(9));

        let route = policy
            .route_ctx(&mut ctx, &net, prov.state(), s, t)
            .expect("routable");
        // Another worker routed the same request on the same state and
        // committed first.
        prov.try_commit(s, t, route.clone()).expect("fits");
        let expected = policy.route(&net, prov.state(), s, t).expect("routable");
        let searches = sink.counter(Counter::SuurballeSearches);

        let id = commit_or_reroute(&mut prov, &mut ctx, s, t, route).expect("re-routed");
        assert_eq!(prov.connection(id).expect("committed").route, expected);

        let recovered = crate::wal::recover(&path).expect("recover");
        std::fs::remove_file(&path).ok();
        assert_eq!(recovered.seq, prov.journal_seq());
        assert_eq!(recovered.semantic_hash(), prov.semantic_hash());

        assert_eq!(sink.counter(Counter::ServeConflictRetries), 1);
        assert!(sink.counter(Counter::SuurballeSearches) > searches);
        let requests =
            sink.counter(Counter::RequestsRouted) + sink.counter(Counter::RequestsBlocked);
        assert_eq!(requests, 1, "the request is counted once");

        assert_eq!(spans.requests_begun(), 1);
        let mut records = spans.records();
        assert!(records.iter().all(|r| r.request == 0));
        let phases: Vec<Phase> = records.iter().map(|r| r.phase).collect();
        for phase in [Phase::Reroute, Phase::Commit, Phase::WalFsync] {
            assert_eq!(
                phases.iter().filter(|&&p| p == phase).count(),
                1,
                "{phase:?}"
            );
        }
        assert_eq!(
            phases.iter().filter(|&&p| p == Phase::SuurballeP1).count(),
            2,
            "the route and the re-route each search: {phases:?}"
        );
        records.sort_by_key(|r| (r.start_ns, r.end_ns));
        for pair in records.windows(2) {
            assert!(
                pair[0].end_ns <= pair[1].start_ns,
                "{:?} overlaps {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}
