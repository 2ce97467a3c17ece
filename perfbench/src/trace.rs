//! The traced run: per-layer numbers for one workload.
//!
//! The run takes the workload's first script (for `batch-mesh`, its demand
//! set provisioned in order and drained) and measures it layer by layer:
//!
//! 1. **Front end** — `GET /healthz` round trips on an idle daemon.
//! 2. **Daemon legs** — the script through the daemon twice with tracing
//!    off and twice with `ServeConfig::trace_path` set, alternating; the
//!    ratio of their throughputs is the tracing tax, and `/metrics` and
//!    `/status` scraped after an untraced leg give the handler, queue,
//!    lock and conflict numbers.
//! 3. **Direct drive** — the script through the public layer calls
//!    (`Provisioner::route`, `NetProvisioner::try_commit` and the
//!    mutations on a provisioner journaling into a `WalSink`, checkpoints
//!    at the daemon's cadence, `wal::recover`), with a span recorded in
//!    this file around every call. Every [`COLD_EVERY`]th route follows a
//!    `RouterCtx::invalidate`.
//! 4. **Recorded pass** — the same script on a provisioner whose context
//!    reports into a `TelemetrySink`: search, probe and refresh counts.
//! 5. **Batch pass** — each provision routed by `Policy::route` (a
//!    throwaway context, as the default batch path does) and by
//!    `Policy::route_ctx` on one held context against the same state,
//!    then occupied; the two routes must cost the same.
//!
//! Spans are written to `.perfbench_out/<workload>-<seed>.spans.jsonl`
//! and the per-layer table, with sample counts, to
//! `.perfbench_out/<workload>-<seed>.layers.json`.

use std::path::Path;
use std::time::Instant;

use wdm_core::aux_engine::RouterCtx;
use wdm_core::journal::NoopSink;
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_graph::{EdgeId, NodeId};
use wdm_serve::wal::WalSink;
use wdm_sim::policy::{Policy, ProvisionedRoute};
use wdm_sim::provisioner::{NetProvisioner, Provisioner};
use wdm_sim::sim::{run_batch, BatchConfig};
use wdm_telemetry::{NoopRecorder, NoopTracer, TelemetrySink};

use crate::client::json_number;
use crate::script::{self, Op};
use crate::serve::{self, prom_quantile, prom_value, Drive, Extras};
use crate::stats::{mean, median, quantile, samples_needed, self_times, Span, SpanLog};
use crate::workloads::{self, Workload, STATE_EVERY};
use crate::{Metric, Outcome};

/// Every this many provisions, the direct drive invalidates its context
/// first and records the route as `route_cold`.
const COLD_EVERY: usize = 25;
/// The daemon's default checkpoint cadence, in journal events.
const CHECKPOINT_EVERY: u64 = 256;
/// Idle `GET /healthz` round trips.
const NULL_RTTS: usize = 1000;
/// The batch pass stops after this many provisions (cold routes on the
/// 200-node WAN take milliseconds each).
const BATCH_PASS_LIMIT: usize = 400;
/// Batch passes (each alternating with a timed `run_batch`) on the batch
/// workload.
const BATCH_PASSES: usize = 3;

type WalProvisioner<'a> = NetProvisioner<'a, NoopRecorder, WalSink, NoopTracer>;

/// Runs the traced measurement of `w`.
pub fn run(w: Workload, seed: u64, out: &Path) -> Result<Outcome, String> {
    let (net, initial, policy, ops, mesh) = match workloads::serve_spec(w) {
        Some(spec) => {
            let ops = workloads::serve_script(&spec, seed, 0);
            (spec.net, spec.initial, spec.policy, ops, false)
        }
        None => {
            let net = workloads::mesh_net();
            let demands: Vec<(u32, u32)> = workloads::mesh_demands(&net)
                .iter()
                .map(|d| (d.src.0, d.dst.0))
                .collect();
            let ops = script::from_demands(&demands, STATE_EVERY);
            let initial = ResidualState::fresh(&net);
            (net, initial, Policy::CostOnly, ops, true)
        }
    };
    let tag = format!("{}-{seed}", w.name());
    let wal = out.join(format!("{tag}.wal.jsonl"));
    let mut checks = Vec::new();
    let mut m: Vec<Metric> = Vec::new();

    // 1. Front end on an idle daemon.
    let rtts = serve::null_rtts(&net, policy, &wal, NULL_RTTS)?;
    let null_p50 = median(&rtts) / 1e3;
    m.push(Metric::new(
        "http.null_rtt_p50_us",
        null_p50,
        "us",
        rtts.len(),
    ));
    m.push(q_us("http.null_rtt_p99_us", &rtts, 0.99));

    // 2. Daemon legs, untraced and traced alternately.
    let mut plain = Drive::default();
    let (mut plain_tput, mut traced_tput) = (Vec::new(), Vec::new());
    let mut scrape = None;
    for _ in 0..2 {
        let r = serve::round(
            &net,
            &initial,
            policy,
            &ops,
            &wal,
            &Extras {
                trace_path: None,
                scrape: true,
            },
        )?;
        checks.extend(r.check_failures);
        plain_tput.push(r.drive.throughput());
        plain.absorb(r.drive);
        scrape = r.scrape;
        let t = serve::round(
            &net,
            &initial,
            policy,
            &ops,
            &wal,
            &Extras {
                trace_path: Some(out.join(format!("{tag}.daemon-trace.json"))),
                scrape: false,
            },
        )?;
        checks.extend(t.check_failures);
        traced_tput.push(t.drive.throughput());
    }
    let (metrics_text, status) = scrape.ok_or("no /metrics scrape")?;
    let provision_p50_us = median(&plain.provision_ns) / 1e3;
    for (name, samples) in [
        ("serve.provision_p99_ms", &plain.provision_ns),
        ("serve.mutate_p99_ms", &plain.mutate_ns),
    ] {
        if samples.len() < samples_needed(0.99) {
            checks.push(format!(
                "{name}: {} samples leave fewer than ten beyond the p99",
                samples.len()
            ));
        }
        let p99 = quantile(samples, 0.99).unwrap_or(0.0) / 1e6;
        m.push(Metric::new(name, p99, "ms", samples.len()));
    }
    m.push(Metric::new(
        "http.connects_per_request",
        plain.connects as f64 / plain.attempted.max(1) as f64,
        "count/req",
        plain.attempted as usize,
    ));
    let hist_us = |family: &str, q: f64| {
        prom_quantile(&metrics_text, family, q).map_or((0.0, 0), |(v, n)| (v / 1e3, n as usize))
    };
    let (handler_p50, n_handler) = hist_us("wdm_serve_latency_ns", 0.5);
    let (handler_p99, _) = hist_us("wdm_serve_latency_ns", 0.99);
    let (queue_p50, n_queue) = hist_us("wdm_serve_queue_ns", 0.5);
    let (queue_p99, _) = hist_us("wdm_serve_queue_ns", 0.99);
    let (lock_p50, n_lock) = hist_us("wdm_serve_lock_ns", 0.5);
    let (lock_p99, _) = hist_us("wdm_serve_lock_ns", 0.99);
    let (daemon_route_p50, n_route) = hist_us("wdm_serve_route_ns", 0.5);
    let counter =
        |name: &str| prom_value(&metrics_text, &format!("wdm_{name}_total")).unwrap_or(0.0);
    let served = counter("serve_provision_ok") + counter("serve_provision_blocked");
    let retries = counter("serve_conflict_retries");
    m.push(Metric::new(
        "serve.handler_p50_us",
        handler_p50,
        "us",
        n_handler,
    ));
    m.push(Metric::new(
        "serve.handler_p99_us",
        handler_p99,
        "us",
        n_handler,
    ));
    m.push(Metric::new(
        "serve.queue_wait_p99_us",
        queue_p99,
        "us",
        n_queue,
    ));
    m.push(Metric::new("serve.shed", counter("serve_shed"), "count", 1));
    m.push(Metric::new(
        "serve.deadline_drops",
        counter("serve_deadline_drop"),
        "count",
        1,
    ));
    m.push(Metric::new(
        "serve.lock_wait_p99_us",
        lock_p99,
        "us",
        n_lock,
    ));
    m.push(Metric::new(
        "serve.route_p50_us",
        daemon_route_p50,
        "us",
        n_route,
    ));
    m.push(Metric::new("serve.conflict_retries", retries, "count", 1));
    m.push(Metric::new(
        "serve.conflict_ratio",
        retries / served.max(1.0),
        "ratio",
        served as usize,
    ));
    m.push(Metric::new(
        "serve.ctx_invalidations",
        json_number(&status, "epoch").unwrap_or(0.0),
        "count",
        1,
    ));

    // 3. Direct drive with spans.
    let mut log = SpanLog::new();
    let direct = direct_drive(&net, &initial, policy, &ops, &wal, &mut log, &mut checks)?;
    let selfs = self_times(log.spans());
    let self_of = |name: &str| selfs.get(name).cloned().unwrap_or_default();
    let route = self_of("route");
    let commit_self = self_of("commit");
    let commit = durations(log.spans(), "commit");
    let wal_self = self_of("wal");
    m.push(Metric::new(
        "route.p50_us",
        median(&route) / 1e3,
        "us",
        route.len(),
    ));
    m.push(q_us("route.p99_us", &route, 0.99));
    let blocked = self_of("route_blocked");
    m.push(Metric::new(
        "route.blocked_p50_us",
        median(&blocked) / 1e3,
        "us",
        blocked.len(),
    ));
    let cold = self_of("route_cold");
    m.push(Metric::new(
        "route.cold_us",
        median(&cold) / 1e3,
        "us",
        cold.len(),
    ));

    // 4. Recorded pass: counts.
    let counts = recorded_pass(&net, &initial, policy, &ops);
    if counts.admitted != direct.admitted {
        checks.push(format!(
            "recorded pass admitted {} routes, direct drive {}",
            counts.admitted, direct.admitted
        ));
    }
    let per_request = |name: &str| counts.total(name) / counts.requests.max(1) as f64;
    for (metric, counter) in [
        ("route.searches_per_request", "suurballe_searches"),
        ("route.threshold_probes_per_request", "threshold_probes"),
        (
            "route.dirty_links_per_request",
            "engine_dirty_links_refreshed",
        ),
    ] {
        m.push(Metric::new(
            metric,
            per_request(counter),
            "count/req",
            counts.requests,
        ));
    }
    m.push(Metric::new(
        "route.full_refreshes",
        counts.total("engine_full_refreshes"),
        "count",
        counts.requests,
    ));
    m.push(Metric::new(
        "route.arena_allocs",
        counts.total("arena_alloc_events"),
        "count",
        counts.requests,
    ));

    // Commit and durability, from the direct drive.
    m.push(Metric::new(
        "commit.p50_us",
        median(&commit) / 1e3,
        "us",
        commit.len(),
    ));
    m.push(q_us("commit.p99_us", &commit, 0.99));
    let mutate = durations(log.spans(), "mutate");
    m.push(Metric::new(
        "mutate.p50_us",
        median(&mutate) / 1e3,
        "us",
        mutate.len(),
    ));
    let wal_all = durations(log.spans(), "wal");
    m.push(Metric::new(
        "wal.write_p50_us",
        median(&wal_all) / 1e3,
        "us",
        wal_all.len(),
    ));
    m.push(q_us("wal.write_p99_us", &wal_all, 0.99));
    m.push(Metric::new(
        "wal.bytes_per_event",
        direct.event_bytes as f64 / direct.events.max(1) as f64,
        "B",
        direct.events as usize,
    ));
    let checkpoints = durations(log.spans(), "checkpoint");
    m.push(Metric::new(
        "wal.checkpoint_us",
        median(&checkpoints) / 1e3,
        "us",
        checkpoints.len(),
    ));
    m.push(Metric::new(
        "wal.recover_us_per_event",
        direct.recover_s * 1e6 / direct.events.max(1) as f64,
        "us",
        direct.events as usize,
    ));

    // 5. Batch pass. On the batch workload it alternates with timed
    // `run_batch` calls, so that both see the same stretch of machine
    // time; the breakdown below compares their means.
    let limit = if mesh { usize::MAX } else { BATCH_PASS_LIMIT };
    let mut plan_walls = Vec::new();
    let mut mismatches = 0;
    for _ in 0..if mesh { BATCH_PASSES } else { 1 } {
        if mesh {
            let demands = workloads::mesh_demands(&net);
            let t0 = Instant::now();
            let outcome = run_batch(&net, &initial, &demands, BatchConfig::serial(policy));
            plan_walls.push(t0.elapsed().as_secs_f64() / demands.len() as f64);
            if outcome.provisioned.len() + outcome.rejected.len() != demands.len() {
                checks.push("run_batch lost demands".into());
            }
        }
        mismatches += batch_pass(&net, &initial, policy, &ops, limit, &mut log)?;
    }
    if mismatches > 0 {
        checks.push(format!(
            "{mismatches} demand(s) routed differently by a cold and a warm context"
        ));
    }
    let selfs = self_times(log.spans());
    let self_of = |name: &str| selfs.get(name).cloned().unwrap_or_default();
    let cold_b = self_of("batch_route_cold");
    let warm_b = self_of("batch_route_warm");
    let occupy = self_of("batch_occupy");
    let plan = durations(log.spans(), "plan_demand");
    let (cold_p50, warm_p50) = (median(&cold_b) / 1e3, median(&warm_b) / 1e3);
    m.push(Metric::new(
        "batch.route_cold_p50_us",
        cold_p50,
        "us",
        cold_b.len(),
    ));
    m.push(Metric::new(
        "batch.route_warm_p50_us",
        warm_p50,
        "us",
        warm_b.len(),
    ));
    m.push(Metric::new(
        "batch.cold_warm_ratio",
        cold_p50 / warm_p50.max(1e-9),
        "ratio",
        cold_b.len(),
    ));
    m.push(Metric::new(
        "batch.occupy_p50_us",
        median(&occupy) / 1e3,
        "us",
        occupy.len(),
    ));
    let plan_sum: f64 = plan.iter().sum();
    m.push(Metric::new(
        "batch.route_share",
        cold_b.iter().sum::<f64>() / plan_sum.max(1.0),
        "ratio",
        plan.len(),
    ));

    // Observability tax at the closed loop's saturation.
    m.push(Metric::new(
        "telemetry.trace_tax",
        median(&plain_tput) / median(&traced_tput).max(1e-9),
        "ratio",
        plain_tput.len() + traced_tput.len(),
    ));

    // Breakdown of the headline: the served provision median, or for the
    // batch workload the plan's time per demand.
    let (route_p50, commit_self_p50, wal_p50) = (
        median(&route) / 1e3,
        median(&commit_self) / 1e3,
        median(&wal_self) / 1e3,
    );
    let (frontend_share, route_share, accounted) = if mesh {
        let per_demand_us = mean(&plan_walls) * 1e6;
        eprintln!(
            "  breakdown: {per_demand_us:.1} us per demand through run_batch; \
             cold route {:.1} + occupy {:.1} + rest {:.1} us (means)",
            mean(&cold_b) / 1e3,
            mean(&occupy) / 1e3,
            (mean(&plan) - mean(&cold_b) - mean(&occupy)) / 1e3
        );
        (
            null_p50 / provision_p50_us.max(1e-9),
            mean(&cold_b) / 1e3 / per_demand_us,
            mean(&plan) / 1e3 / per_demand_us,
        )
    } else {
        let parts = [
            ("front end (idle /healthz RTT)", null_p50),
            ("queue wait", queue_p50),
            ("lock wait", lock_p50),
            ("route", route_p50),
            // Concurrent requests share two cores: the daemon's own route
            // histogram shows how much longer a route takes there.
            ("route contention", (daemon_route_p50 - route_p50).max(0.0)),
            ("commit", commit_self_p50),
            ("wal", wal_p50),
        ];
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        eprintln!("  breakdown of provision p50 {provision_p50_us:.1} us (traced run):");
        for (name, us) in parts {
            eprintln!(
                "    {name:<32} {us:>10.1} us  {:>5.1}%",
                100.0 * us / provision_p50_us.max(1e-9)
            );
        }
        (
            null_p50 / provision_p50_us.max(1e-9),
            route_p50 / provision_p50_us.max(1e-9),
            sum / provision_p50_us.max(1e-9),
        )
    };
    m.push(Metric::new(
        "breakdown.frontend_share",
        frontend_share,
        "ratio",
        plain.provision_ns.len(),
    ));
    let parts = if mesh { plan.len() } else { route.len() };
    m.push(Metric::new(
        "breakdown.route_share",
        route_share,
        "ratio",
        parts,
    ));
    m.push(Metric::new(
        "breakdown.accounted_ratio",
        accounted,
        "ratio",
        parts,
    ));

    std::fs::write(out.join(format!("{tag}.spans.jsonl")), log.to_jsonl())
        .map_err(|e| format!("writing spans: {e}"))?;
    std::fs::write(out.join(format!("{tag}.layers.json")), layers_json(&m))
        .map_err(|e| format!("writing layers: {e}"))?;
    Ok(Outcome {
        attempted: plain.attempted + direct.ops,
        failed: plain.failed,
        metrics: m,
        check_failures: checks,
    })
}

fn q_us(name: &'static str, samples_ns: &[f64], q: f64) -> Metric {
    Metric::new(
        name,
        quantile(samples_ns, q).unwrap_or(0.0) / 1e3,
        "us",
        samples_ns.len(),
    )
}

/// Durations (ns) of every span called `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

fn layers_json(metrics: &[Metric]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    format!(
        "{{\n  \"host_cores\": {cores},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

/// What the direct drive measured besides its spans.
struct Direct {
    ops: u64,
    admitted: usize,
    events: u64,
    event_bytes: u64,
    recover_s: f64,
}

/// Runs `ops` through a provisioner journaling into a `WalSink` at `wal`,
/// recording a span around every layer call.
fn direct_drive(
    net: &WdmNetwork,
    initial: &ResidualState,
    policy: Policy,
    ops: &[Op],
    wal: &Path,
    log: &mut SpanLog,
    checks: &mut Vec<String>,
) -> Result<Direct, String> {
    let sink = WalSink::create(wal, net, policy, initial).map_err(|e| format!("WAL: {e}"))?;
    let mut prov: WalProvisioner =
        NetProvisioner::with_parts(net, policy, initial.clone(), RouterCtx::new(), sink);
    let file_len = || std::fs::metadata(wal).map_or(0, |m| m.len());
    let mut conn: Vec<Option<u64>> = vec![None; ops.len()];
    let (mut provisions, mut admitted, mut sent) = (0usize, 0usize, 0u64);
    let mut event_bytes = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        let req = i as u64;
        let (seq0, len0) = (prov.journal_seq(), file_len());
        match op {
            Op::Provision { src, dst } => {
                let (s, t) = (NodeId(src), NodeId(dst));
                provisions += 1;
                let cold = provisions % COLD_EVERY == 0;
                if cold {
                    prov.invalidate_ctx();
                }
                let t0 = log.now();
                let routed = prov.route(s, t);
                let t1 = log.now();
                match routed {
                    Ok(r) => {
                        let committed = prov.try_commit(s, t, r);
                        let t2 = log.now();
                        let wal_ns = prov.journal_mut().take_last_write_ns();
                        let root = log.push("provision", t0, t2, None, req);
                        log.push(
                            if cold { "route_cold" } else { "route" },
                            t0,
                            t1,
                            Some(root),
                            req,
                        );
                        let c = log.push("commit", t1, t2, Some(root), req);
                        log.push("wal", t2.saturating_sub(wal_ns).max(t1), t2, Some(c), req);
                        match committed {
                            Ok(id) => {
                                conn[i] = Some(id);
                                admitted += 1;
                            }
                            Err(e) => checks
                                .push(format!("op {i}: commit conflict {e:?} with no concurrency")),
                        }
                    }
                    Err(_) => {
                        let root = log.push("provision", t0, t1, None, req);
                        log.push(
                            if cold { "route_cold" } else { "route_blocked" },
                            t0,
                            t1,
                            Some(root),
                            req,
                        );
                    }
                }
            }
            Op::Teardown { provision } => {
                if let Some(id) = conn[provision] {
                    mutation(&mut prov, log, req, |p| p.teardown(id).is_some(), checks);
                } else {
                    continue;
                }
            }
            Op::FailLink { link, .. } => {
                mutation(&mut prov, log, req, |p| p.fail_link(EdgeId(link)), checks)
            }
            Op::RepairLink { link, .. } => {
                mutation(&mut prov, log, req, |p| p.repair_link(EdgeId(link)), checks)
            }
            Op::State => continue,
        }
        sent += 1;
        let seq = prov.journal_seq();
        if seq > seq0 {
            event_bytes += file_len().saturating_sub(len0);
            if seq.is_multiple_of(CHECKPOINT_EVERY) {
                let c0 = log.now();
                let snapshot = prov.state().clone();
                prov.journal_mut().checkpoint(&snapshot);
                log.push("checkpoint", c0, log.now(), None, req);
            }
        }
    }
    let snapshot = prov.state().clone();
    let live_hash = prov.semantic_hash();
    let events = prov.journal_seq();
    prov.journal_mut().checkpoint(&snapshot);
    prov.journal_mut()
        .finalize(&snapshot)
        .map_err(|e| format!("WAL finalize: {e}"))?;
    if let Some(e) = prov.journal_mut().take_error() {
        return Err(format!("WAL write: {e}"));
    }
    drop(prov);
    let t0 = Instant::now();
    let rec = wdm_serve::wal::recover(wal).map_err(|e| format!("WAL recovery: {e}"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(wal).ok();
    if rec.semantic_hash() != live_hash || rec.seq != events || !rec.clean_shutdown() {
        checks.push("direct-drive WAL does not recover to the live state".into());
    }
    if live_hash != initial.semantic_hash() {
        checks.push("direct drive did not drain to the initial state".into());
    }
    Ok(Direct {
        ops: sent,
        admitted,
        events,
        event_bytes,
        recover_s,
    })
}

/// A journaled mutation: a `mutate` span around the call with its WAL
/// append carved out as a `wal` child.
fn mutation(
    prov: &mut WalProvisioner,
    log: &mut SpanLog,
    req: u64,
    call: impl FnOnce(&mut WalProvisioner) -> bool,
    checks: &mut Vec<String>,
) {
    let t0 = log.now();
    let changed = call(prov);
    let t1 = log.now();
    let wal_ns = prov.journal_mut().take_last_write_ns();
    let root = log.push("mutate", t0, t1, None, req);
    log.push(
        "wal",
        t1.saturating_sub(wal_ns).max(t0),
        t1,
        Some(root),
        req,
    );
    if !changed {
        checks.push(format!("op {req}: mutation changed nothing"));
    }
}

/// Counts from a provisioner whose context reports into a sink.
struct Counts {
    sink: TelemetrySink,
    requests: usize,
    admitted: usize,
}

impl Counts {
    /// The sink's total for `counter`.
    fn total(&self, counter: &str) -> f64 {
        self.sink
            .snapshot()
            .counters
            .get(counter)
            .copied()
            .unwrap_or(0) as f64
    }
}

fn recorded_pass(net: &WdmNetwork, initial: &ResidualState, policy: Policy, ops: &[Op]) -> Counts {
    let sink = TelemetrySink::new();
    let (requests, admitted) = {
        let mut prov = NetProvisioner::with_parts(
            net,
            policy,
            initial.clone(),
            RouterCtx::with_recorder(&sink),
            NoopSink,
        );
        let mut conn: Vec<Option<u64>> = vec![None; ops.len()];
        let (mut requests, mut admitted) = (0, 0);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Provision { src, dst } => {
                    requests += 1;
                    if let Ok(id) = prov.provision(NodeId(src), NodeId(dst)) {
                        conn[i] = Some(id);
                        admitted += 1;
                    }
                }
                Op::Teardown { provision } => {
                    if let Some(id) = conn[provision] {
                        prov.teardown(id);
                    }
                }
                Op::FailLink { link, .. } => {
                    prov.fail_link(EdgeId(link));
                }
                Op::RepairLink { link, .. } => {
                    prov.repair_link(EdgeId(link));
                }
                Op::State => {}
            }
        }
        (requests, admitted)
    };
    Counts {
        sink,
        requests,
        admitted,
    }
}

/// Plans the first `limit` provisions of `ops` twice over the same
/// sequence of states. The first pass makes the default batch path's
/// calls: `Policy::route` (a throwaway context per demand), then occupy.
/// The second routes each demand with `Policy::route_ctx` on one held
/// context and then occupies the first pass's route, so both passes see
/// identical states. Returns how many demands the two routed differently.
fn batch_pass(
    net: &WdmNetwork,
    initial: &ResidualState,
    policy: Policy,
    ops: &[Op],
    limit: usize,
    log: &mut SpanLog,
) -> Result<usize, String> {
    let mut decided: Vec<Option<Result<ProvisionedRoute, ()>>> = vec![None; ops.len()];
    let mut st = initial.clone();
    let mut done = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        let req = i as u64;
        if let Op::Provision { src, dst } = op {
            if done == limit {
                break;
            }
            done += 1;
            let t0 = log.now();
            let cold = policy.route(net, &st, NodeId(src), NodeId(dst));
            let t1 = log.now();
            let fits = cold.as_ref().map(|r| r.occupy(net, &mut st).is_ok());
            let t2 = log.now();
            let root = log.push("plan_demand", t0, t2, None, req);
            log.push("batch_route_cold", t0, t1, Some(root), req);
            if let Ok(fits) = fits {
                log.push("batch_occupy", t1, t2, Some(root), req);
                if !fits {
                    return Err(format!("op {i}: a fresh route does not fit its state"));
                }
            }
            decided[i] = Some(cold.map_err(|_| ()));
        } else {
            apply(&mut st, op, &decided);
        }
    }

    let mut st = initial.clone();
    let mut ctx = RouterCtx::new();
    let mut mismatches = 0;
    for (i, &op) in ops.iter().enumerate() {
        if let Op::Provision { src, dst } = op {
            let Some(cold) = &decided[i] else { break };
            let w0 = log.now();
            let warm = policy.route_ctx(&mut ctx, net, &st, NodeId(src), NodeId(dst));
            log.push("batch_route_warm", w0, log.now(), None, i as u64);
            match (cold, &warm) {
                (Ok(c), Ok(w))
                    if (c.total_cost() - w.total_cost()).abs()
                        <= 1e-9 * c.total_cost().max(1.0) => {}
                (Err(()), Err(_)) => {}
                _ => mismatches += 1,
            }
            if let Ok(c) = cold {
                c.occupy(net, &mut st)
                    .map_err(|e| format!("op {i}: replaying the cold plan: {e:?}"))?;
            }
        } else {
            apply(&mut st, op, &decided);
        }
    }
    Ok(mismatches)
}

/// Applies a routing-free op of the batch pass to `st`.
fn apply(st: &mut ResidualState, op: Op, decided: &[Option<Result<ProvisionedRoute, ()>>]) {
    match op {
        Op::Teardown { provision } => {
            if let Some(Ok(r)) = &decided[provision] {
                r.release(st);
            }
        }
        Op::FailLink { link, .. } => st.fail_link(EdgeId(link)),
        Op::RepairLink { link, .. } => st.repair_link(EdgeId(link)),
        Op::Provision { .. } | Op::State => {}
    }
}
