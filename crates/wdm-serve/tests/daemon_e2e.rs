//! End-to-end daemon tests: real sockets, real worker pool, real WAL.
//!
//! Covers the PR's two acceptance properties:
//!
//! * **zero lost mutations** — a daemon under ≥1000 mixed requests
//!   (provision / teardown / fail / repair / query) shuts down gracefully
//!   and its WAL replays to exactly the live final `semantic_hash`;
//! * **crash recovery** — a daemon killed mid-load (no final checkpoint,
//!   no graceful-close line) recovers from the WAL to the same state an
//!   independent reference lineage reaches, and a restarted daemon
//!   resumes serving from that state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wdm_core::network::NetworkBuilder;
use wdm_core::network::WdmNetwork;
use wdm_graph::NodeId;
use wdm_serve::daemon::{run, Control, ServeConfig};
use wdm_serve::loadgen::{self, http_request, LoadgenConfig};
use wdm_serve::wal;
use wdm_sim::provisioner::{NetProvisioner, Provisioner};

fn nsfnet() -> WdmNetwork {
    NetworkBuilder::nsfnet(8).build()
}

fn temp_wal(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "wdm-e2e-{}-{}-{}.jsonl",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Unwind guard: a client-side assertion failure inside `thread::scope`
/// would otherwise deadlock — the scope joins a server that nobody asked
/// to stop. Dropped during unwind, this kills the daemon so the real
/// panic surfaces. (On the normal path the daemon has already exited and
/// the extra flag is a no-op.)
struct KillOnExit<'a>(&'a Control);

impl Drop for KillOnExit<'_> {
    fn drop(&mut self) {
        self.0.crash();
    }
}

#[derive(serde::Deserialize)]
struct StateResp {
    connections: u64,
    journal_seq: u64,
    semantic_hash: u64,
}

fn query_state(target: &str) -> StateResp {
    let (status, body) = http_request(target, "GET", "/state", "").expect("state query");
    assert_eq!(status, 200, "state endpoint answers: {body}");
    serde_json::from_str(&body).expect("state response parses")
}

#[test]
fn thousand_mixed_requests_with_zero_lost_mutations() {
    let net = nsfnet();
    let wal_path = temp_wal("mixed");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    cfg.threads = 4;
    cfg.checkpoint_every = 64;
    let control = Control::new();

    let report = std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();

        // Open-loop Poisson mix: provisions with exponential holds
        // (teardowns), plus fail/repair events. The sender is sequential,
        // so a loaded host can offer fewer than 1000 requests in one 2 s
        // run: repeat runs on fresh seeds (at most five) until the summed
        // offer clears 1000.
        let mut lg = LoadgenConfig::new(&target, net.node_count() as u32, net.link_count() as u32);
        lg.rate = 1500.0;
        lg.duration = 2.0;
        lg.mean_hold = 0.3;
        lg.fail_fraction = 0.02;
        let (mut offered, mut ok) = (0, 0);
        for seed in 7..12 {
            lg.seed = seed;
            let lr = loadgen::run(&lg);
            assert_eq!(lr.errors, 0, "no transport errors against a live daemon");
            offered += lr.offered;
            ok += lr.ok;
            if offered >= 1000 {
                break;
            }
        }

        // A few query requests round out the mix.
        for _ in 0..10 {
            query_state(&target);
        }
        let live = query_state(&target);
        let (status, _) = http_request(&target, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        let (status, metrics) = http_request(&target, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(
            metrics.contains("wdm_counter{name=\"serve_provision_ok\"}")
                || metrics.contains("serve_provision_ok"),
            "prometheus exposes the serve counters:\n{metrics}"
        );
        assert!(
            metrics.contains("_bucket{le="),
            "prometheus exposes cumulative histogram buckets:\n{metrics}"
        );

        control.shutdown();
        let report = server.join().unwrap().expect("clean run");

        assert!(
            offered >= 1000,
            "the acceptance run must offer >= 1000 requests, got {offered}"
        );
        assert!(ok > 0, "some requests succeed");
        // The last pre-shutdown query saw the same lineage the report
        // closed with (only the drain-phase teardowns come between; both
        // hashes come from the same journal).
        assert_eq!(live.journal_seq, report.journal_seq);
        assert_eq!(live.semantic_hash, report.semantic_hash);
        report
    });

    assert!(report.clean_shutdown);
    // The daemon built one auxiliary-graph skeleton before serving, and
    // none of its four workers built another.
    assert_eq!(report.counters.get("engine_skeleton_builds"), Some(&1));
    // Zero lost mutations: the WAL replays to exactly the live hash.
    let rec = wal::recover(&wal_path).expect("recover");
    assert_eq!(
        rec.seq, report.journal_seq,
        "every journaled event is on disk"
    );
    assert_eq!(rec.semantic_hash(), report.semantic_hash);
    assert_eq!(rec.final_hash, Some(report.semantic_hash));
    assert!(rec.clean_shutdown());
    assert!(
        rec.anchors_verified >= 1,
        "periodic checkpoints were written and verified ({} events)",
        rec.seq
    );
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn crash_recovery_matches_reference_lineage_and_resumes() {
    let net = nsfnet();
    let wal_path = temp_wal("crash");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    // One worker + a sequential client: the daemon's routing decisions are
    // deterministic, so an independent local provisioner fed the same
    // request sequence is a bit-exact reference lineage.
    cfg.threads = 1;
    cfg.checkpoint_every = 16;
    let control = Control::new();

    // The reference: same net, same policy, same request order.
    let mut reference = NetProvisioner::new(&net, cfg.policy);

    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();

        let n = net.node_count() as u32;
        let mut acked = 0u64;
        for i in 0..120u32 {
            let (s_node, t_node) = ((i % n), ((i * 7 + 3) % n));
            if s_node == t_node {
                continue;
            }
            let body = format!("{{\"src\":{s_node},\"dst\":{t_node}}}");
            let (status, _) = http_request(&target, "POST", "/provision", &body).unwrap();
            let reference_outcome = reference.provision(NodeId(s_node), NodeId(t_node));
            match status {
                200 => {
                    assert!(reference_outcome.is_ok(), "daemon and reference agree");
                    acked += 1;
                }
                409 => assert!(reference_outcome.is_err(), "daemon and reference agree"),
                other => panic!("unexpected status {other}"),
            }
        }
        // Saturation is expected (nothing tears down, and every request
        // needs an edge-disjoint pair): the tail of the 120 requests
        // exercises the agreed-409 path. What matters here is that enough
        // events landed to cross the checkpoint cadence.
        assert!(
            acked > cfg.checkpoint_every,
            "the run must outlast one checkpoint window, got {acked}"
        );

        // Kill mid-load: no drain, no final checkpoint, no close line.
        control.crash();
        let report = server.join().unwrap().expect("crash exit is still orderly");
        assert!(!report.clean_shutdown);
        assert_eq!(report.journal_seq, acked, "one event per acked provision");
    });

    // Recovery reconstructs the state from events alone…
    let rec = wal::recover(&wal_path).expect("recover after crash");
    assert_eq!(rec.final_hash, None, "no graceful-close line after a kill");
    assert!(!rec.clean_shutdown());
    // …and matches the independent reference lineage bit-for-bit.
    assert_eq!(
        rec.semantic_hash(),
        reference.semantic_hash(),
        "zero acked mutations lost in the crash"
    );

    // A restarted daemon resumes from the recovered state.
    let wal_path2 = temp_wal("resume");
    let mut cfg2 = ServeConfig::new("127.0.0.1:0", &wal_path2);
    cfg2.threads = 2;
    cfg2.resume_state = Some(rec.state.clone());
    let control2 = Control::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg2, &control2));
        let _guard = KillOnExit(&control2);
        let addr = control2
            .wait_addr(Duration::from_secs(10))
            .expect("resumed daemon binds");
        let target = addr.to_string();
        let live = query_state(&target);
        assert_eq!(live.semantic_hash, rec.semantic_hash(), "resumed lineage");
        assert_eq!(live.journal_seq, 0, "the resumed WAL starts fresh");
        assert_eq!(live.connections, 0, "pre-crash connections are unmanaged");
        // The resumed daemon keeps serving.
        let (status, body) =
            http_request(&target, "POST", "/provision", "{\"src\":0,\"dst\":9}").unwrap();
        assert_eq!(status, 200, "resumed daemon provisions: {body}");
        control2.shutdown();
        server.join().unwrap().expect("clean resumed run");
    });

    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&wal_path2).ok();
}

#[test]
fn malformed_requests_never_wedge_the_daemon() {
    let net = nsfnet();
    let wal_path = temp_wal("malformed");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    cfg.threads = 2;
    let control = Control::new();

    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();

        // Garbage bodies, bad endpoints, unknown routes, early hangups.
        let (status, _) = http_request(&target, "POST", "/provision", "not json").unwrap();
        assert_eq!(status, 400);
        let (status, _) =
            http_request(&target, "POST", "/provision", "{\"src\":0,\"dst\":0}").unwrap();
        assert_eq!(status, 400, "degenerate endpoints rejected");
        let (status, _) =
            http_request(&target, "POST", "/provision", "{\"src\":9999,\"dst\":1}").unwrap();
        assert_eq!(status, 400, "out-of-range node rejected");
        let (status, _) = http_request(&target, "POST", "/fail-link", "{\"link\":123456}").unwrap();
        assert_eq!(status, 400, "out-of-range link rejected");
        let (status, _) = http_request(&target, "POST", "/nonsense", "{}").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_request(&target, "POST", "/teardown", "{\"id\":424242}").unwrap();
        assert_eq!(status, 404, "unknown connection is a miss, not an error");

        // An early disconnect mid-request must not take a worker down.
        {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(&target).unwrap();
            raw.write_all(b"POST /provision HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"sr")
                .unwrap();
            drop(raw);
        }

        // The daemon still serves real traffic afterwards.
        let (status, _) =
            http_request(&target, "POST", "/provision", "{\"src\":0,\"dst\":9}").unwrap();
        assert_eq!(status, 200);
        let live = query_state(&target);
        assert_eq!(live.connections, 1);

        control.shutdown();
        let report = server.join().unwrap().expect("clean run");
        assert!(report.clean_shutdown);
        let bad = report
            .counters
            .get("serve_bad_request")
            .copied()
            .unwrap_or(0);
        assert!(bad >= 4, "bad requests were counted, got {bad}");
    });
    std::fs::remove_file(&wal_path).ok();
}

/// JSON helpers for Value-based parsing (the vendored serde `Value` has no
/// typed numeric accessors on itself).
fn num(v: &serde_json::Value) -> u64 {
    match v {
        serde_json::Value::Number(n) => n.as_f64() as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn boolean(v: &serde_json::Value) -> bool {
    match v {
        serde_json::Value::Bool(b) => *b,
        other => panic!("expected bool, got {other:?}"),
    }
}

#[test]
fn resumed_daemon_serves_wal_correlated_flight_records() {
    let net = nsfnet();
    let wal_path = temp_wal("flight-crash");

    // First life: a few provisions, then a kill (no close line, no drain).
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    cfg.threads = 1;
    let control = Control::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();
        for i in 0..6u32 {
            let body = format!("{{\"src\":{},\"dst\":{}}}", i, (i + 7) % 14);
            http_request(&target, "POST", "/provision", &body).unwrap();
        }
        control.crash();
        server.join().unwrap().expect("crash exit is still orderly");
    });

    // Recover the torn WAL and resume a second daemon from that state.
    let rec = wal::recover(&wal_path).expect("recover after crash");
    assert!(!rec.clean_shutdown());
    let wal_path2 = temp_wal("flight-resume");
    let mut cfg2 = ServeConfig::new("127.0.0.1:0", &wal_path2);
    cfg2.threads = 1;
    cfg2.resume_state = Some(rec.state.clone());
    let control2 = Control::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg2, &control2));
        let _guard = KillOnExit(&control2);
        let addr = control2
            .wait_addr(Duration::from_secs(10))
            .expect("resumed daemon binds");
        let target = addr.to_string();

        let mut routed = 0u64;
        for i in 0..10u32 {
            let body = format!("{{\"src\":{},\"dst\":{}}}", i, (i + 5) % 14);
            let (status, _) = http_request(&target, "POST", "/provision", &body).unwrap();
            if status == 200 {
                routed += 1;
            }
        }
        assert!(routed > 0, "the resumed daemon routes something");
        let live = query_state(&target);
        assert_eq!(live.journal_seq, routed, "one event per routed provision");

        // The flight ring is this life's own: every record correlates with
        // the resumed WAL's sequence numbers.
        let (status, body) = http_request(&target, "GET", "/debug/flight", "").unwrap();
        assert_eq!(status, 200, "flight dump answers: {body}");
        let dump: wdm_telemetry::FlightDump =
            serde_json::from_str(&body).expect("flight dump parses");
        assert_eq!(dump.total_requests, 10, "one record per provision attempt");
        let routed_seqs: Vec<u64> = dump
            .records
            .iter()
            .filter(|r| r.outcome == "routed")
            .map(|r| r.journal_seq)
            .collect();
        // Single worker, sequential client: routed record k committed as
        // journal event k+1, so it carries pre-commit seq k.
        let expect: Vec<u64> = (0..routed).collect();
        assert_eq!(routed_seqs, expect, "flight records tile the WAL sequence");
        for r in &dump.records {
            assert!(
                r.journal_seq <= live.journal_seq,
                "no record claims a seq the WAL has not reached"
            );
        }

        control2.shutdown();
        server.join().unwrap().expect("clean resumed run");
    });
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&wal_path2).ok();
}

#[test]
fn failure_storm_trips_the_anomaly_trigger_and_freezes_the_ring() {
    let net = nsfnet();
    let wal_path = temp_wal("storm");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    cfg.threads = 2;
    let control = Control::new();

    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();

        // Storm: take down every link, then offer provisions that can only
        // block. The anomaly window (64 requests, threshold 32 negatives)
        // must trip and freeze a snapshot of the ring.
        for l in 0..net.link_count() as u32 {
            let (status, _) =
                http_request(&target, "POST", "/fail-link", &format!("{{\"link\":{l}}}")).unwrap();
            assert_eq!(status, 200);
        }
        for i in 0..80u32 {
            let body = format!("{{\"src\":{},\"dst\":{}}}", i % 14, (i + 3) % 14);
            let (status, _) = http_request(&target, "POST", "/provision", &body).unwrap();
            assert_eq!(status, 409, "a dead network blocks everything");
        }

        let (status, body) = http_request(&target, "GET", "/status", "").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).expect("status parses");
        assert!(
            boolean(v.get("flight_anomaly_fired").expect("gauge present")),
            "the storm must trip the anomaly trigger: {body}"
        );
        assert_eq!(num(v.get("flight_requests").unwrap()), 80);

        let (status, body) = http_request(&target, "GET", "/debug/flight", "").unwrap();
        assert_eq!(status, 200);
        let dump: wdm_telemetry::FlightDump =
            serde_json::from_str(&body).expect("flight dump parses");
        let anomaly = dump.anomaly.expect("frozen snapshot present");
        assert!(
            anomaly.negative >= 32,
            "the trigger fired with a storm-sized negative count, got {}",
            anomaly.negative
        );
        assert!(!anomaly.records.is_empty(), "snapshot froze the ring");
        // The trigger is one-shot: later requests keep appending to the
        // live ring but the snapshot stays frozen.
        assert!(dump.records.iter().all(|r| r.outcome == "blocked"));

        control.shutdown();
        server.join().unwrap().expect("clean run");
    });
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn traced_daemon_attributes_wall_time_and_serves_debug_trace() {
    let net = nsfnet();
    let wal_path = temp_wal("traced");
    let trace_path = temp_wal("traced-out");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &wal_path);
    cfg.threads = 2;
    cfg.trace_path = Some(trace_path.clone());
    let control = Control::new();

    std::thread::scope(|s| {
        let server = s.spawn(|| run(&net, &cfg, &control));
        let _guard = KillOnExit(&control);
        let addr = control
            .wait_addr(Duration::from_secs(10))
            .expect("daemon binds");
        let target = addr.to_string();

        let mut ids = Vec::new();
        for i in 0..24u32 {
            let body = format!("{{\"src\":{},\"dst\":{}}}", i % 14, (i * 5 + 2) % 14);
            let (status, body) = http_request(&target, "POST", "/provision", &body).unwrap();
            if status == 200 {
                let v: serde_json::Value = serde_json::from_str(&body).unwrap();
                ids.push(num(v.get("id").unwrap()));
            }
        }
        assert!(!ids.is_empty());
        for id in ids.iter().take(4) {
            http_request(&target, "POST", "/teardown", &format!("{{\"id\":{id}}}")).unwrap();
        }

        let (status, body) = http_request(&target, "GET", "/status", "").unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(boolean(v.get("tracing").unwrap()), "status reports tracing");
        assert_eq!(num(v.get("workers").unwrap()), 2);
        assert!(num(v.get("wal_seq").unwrap()) > 0);

        // The live span ring renders as Chrome trace_event JSON.
        let (status, body) = http_request(&target, "GET", "/debug/trace?n=8", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"traceEvents\""), "chrome envelope: {body}");
        assert!(body.contains("\"queue_wait\""), "pre-route spans present");
        assert!(body.contains("\"commit\""), "commit spans present");

        control.shutdown();
        server.join().unwrap().expect("clean run");
    });

    // The shutdown trace file is the one `wdm trace analyze` reads, under
    // this build's phase layout, and it attributes >= 95% of per-request
    // wall time to named phases — the same math the analysis runs.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let trace: wdm_telemetry::TraceFile = serde_json::from_str(&text).expect("trace parses");
    let layout: Vec<&str> = wdm_telemetry::Phase::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(trace.phases, layout);
    let mut attributed = 0u64;
    let mut total = 0u64;
    for r in &trace.flight.records {
        let named: u64 = r.named_phases().iter().map(|&(_, ns)| ns).sum();
        assert!(
            named <= r.total_ns,
            "phases never exceed the request span ({named} > {})",
            r.total_ns
        );
        attributed += named;
        total += r.total_ns;
    }
    assert!(total > 0, "traced records carry wall time");
    let fraction = attributed as f64 / total as f64;
    assert!(
        fraction >= 0.95,
        "span taxonomy must attribute >= 95% of serve wall time, got {:.3}",
        fraction
    );
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&trace_path).ok();
}
