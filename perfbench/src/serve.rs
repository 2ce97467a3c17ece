//! Driving `wdm_serve::daemon::run` in-process with a closed loop.
//!
//! One *round* starts a fresh daemon on a loopback port with a fresh WAL,
//! warms it up (one provision per worker), replays a script over
//! [`CONNECTIONS`] client connections, checks the drained end state,
//! shuts the daemon down gracefully and times `wal::recover` on the WAL it
//! wrote. Each client sends its next request only when its previous one
//! has been answered.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_serve::daemon::{run, Control, ServeConfig};
use wdm_sim::policy::Policy;

use crate::client::{json_number, Client};
use crate::script::Op;

/// Concurrent client connections (the closed loop's width).
pub const CONNECTIONS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// `wal::recover` runs per round; the round reports their median.
const RECOVERIES: usize = 3;

/// What the clients saw while replaying one script.
#[derive(Debug, Default, Clone)]
pub struct Drive {
    /// Send → last response byte of every answered provision (200 or 409).
    pub provision_ns: Vec<f64>,
    /// Send → last response byte of every teardown, fail-link and
    /// repair-link.
    pub mutate_ns: Vec<f64>,
    /// Answered requests of any kind.
    pub responses: u64,
    /// Answered provisions.
    pub provisions: u64,
    /// Provisions answered 409 (blocked by routing).
    pub blocked: u64,
    /// Sum of the Eq. 1 cost of every admitted route.
    pub cost_sum: f64,
    /// Network load ρ of every `GET /state` sample.
    pub rho: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests without an expected answer: transport errors, 5xx, shed
    /// and any unexpected status.
    pub failed: u64,
    /// TCP connects the clients made.
    pub connects: u64,
    /// Wall time of the replay.
    pub elapsed_s: f64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Drive {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Folds `other` (another connection or round) into `self`; elapsed
    /// time is the caller's to set.
    pub fn absorb(&mut self, other: Drive) {
        self.provision_ns.extend(other.provision_ns);
        self.mutate_ns.extend(other.mutate_ns);
        self.responses += other.responses;
        self.provisions += other.provisions;
        self.blocked += other.blocked;
        self.cost_sum += other.cost_sum;
        self.rho.extend(other.rho);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.connects += other.connects;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Answered requests per second of replay.
    pub fn throughput(&self) -> f64 {
        self.responses as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Script-op outcome slots shared by the client threads: `PENDING` until
/// the op is answered, then `NO_CONNECTION` or the connection id + 2.
const PENDING: u64 = 0;
const NO_CONNECTION: u64 = 1;

/// Waits until op `dep` has an outcome. A dependency is always an earlier
/// op, already taken by a connection, so the wait ends unless that
/// connection is stuck — which the timeout turns into a failure.
fn wait_for(slot: &AtomicU64) -> Option<u64> {
    let start = Instant::now();
    loop {
        let v = slot.load(Ordering::Acquire);
        if v != PENDING {
            return Some(v);
        }
        if start.elapsed() > Duration::from_secs(30) {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Replays `ops` over [`CONNECTIONS`] closed-loop connections.
pub fn drive(addr: std::net::SocketAddr, ops: &[Op]) -> Drive {
    let outcome: Vec<AtomicU64> = ops.iter().map(|_| AtomicU64::new(PENDING)).collect();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Drive> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| drive_connection(addr, ops, &cursor, &outcome)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Drive {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Drive::default()
    };
    for p in parts {
        total.absorb(p);
    }
    total
}

fn drive_connection(
    addr: std::net::SocketAddr,
    ops: &[Op],
    cursor: &AtomicUsize,
    outcome: &[AtomicU64],
) -> Drive {
    let mut client = Client::new(addr);
    let mut d = Drive::default();
    loop {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        let Some(&op) = ops.get(i) else { break };
        let dep = match op.dependency() {
            Some(j) => match wait_for(&outcome[j]) {
                Some(v) => Some(v),
                None => {
                    d.fail(format!("op {i}: dependency {j} never completed"));
                    outcome[i].store(NO_CONNECTION, Ordering::Release);
                    continue;
                }
            },
            None => None,
        };
        let mut result = NO_CONNECTION;
        let (method, path, body) = match op {
            Op::Provision { src, dst } => (
                "POST",
                "/provision",
                format!("{{\"src\":{src},\"dst\":{dst}}}"),
            ),
            Op::Teardown { .. } => match dep {
                Some(v) if v >= 2 => ("POST", "/teardown", format!("{{\"id\":{}}}", v - 2)),
                // The provision was blocked: nothing to tear down.
                _ => {
                    outcome[i].store(NO_CONNECTION, Ordering::Release);
                    continue;
                }
            },
            Op::FailLink { link, .. } => ("POST", "/fail-link", format!("{{\"link\":{link}}}")),
            Op::RepairLink { link, .. } => ("POST", "/repair-link", format!("{{\"link\":{link}}}")),
            Op::State => ("GET", "/state", String::new()),
        };
        d.attempted += 1;
        let t0 = Instant::now();
        let sent = client.send(method, path, &body);
        let ns = t0.elapsed().as_nanos() as f64;
        match (op, sent) {
            (_, Err(e)) => d.fail(format!("op {i} {path}: {e}")),
            (Op::Provision { .. }, Ok(r)) if r.status == 200 => {
                match (json_number(&r.body, "id"), json_number(&r.body, "cost")) {
                    (Some(id), Some(cost)) => {
                        result = id as u64 + 2;
                        d.cost_sum += cost;
                        d.provisions += 1;
                        d.responses += 1;
                        d.provision_ns.push(ns);
                    }
                    _ => d.fail(format!("op {i}: provision answer {:?}", r.body)),
                }
            }
            (Op::Provision { .. }, Ok(r)) if r.status == 409 => {
                d.blocked += 1;
                d.provisions += 1;
                d.responses += 1;
                d.provision_ns.push(ns);
            }
            (Op::Teardown { .. }, Ok(r)) if r.status == 200 => {
                d.responses += 1;
                d.mutate_ns.push(ns);
            }
            (Op::FailLink { .. } | Op::RepairLink { .. }, Ok(r))
                if r.status == 200 && r.body.contains("\"changed\":true") =>
            {
                d.responses += 1;
                d.mutate_ns.push(ns);
            }
            (Op::State, Ok(r)) if r.status == 200 => match json_number(&r.body, "load") {
                Some(rho) => {
                    d.responses += 1;
                    d.rho.push(rho);
                }
                None => d.fail(format!("op {i}: state answer {:?}", r.body)),
            },
            (_, Ok(r)) => d.fail(format!("op {i} {path}: {} {:?}", r.status, r.body.trim())),
        }
        outcome[i].store(result, Ordering::Release);
    }
    d.connects = client.connects;
    d
}

/// Shuts the daemon down when dropped, so no early return or panic can
/// leave the server thread (and the scope joining it) running forever.
struct StopOnDrop<'a>(&'a Control);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Optional extras of a round.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Write the daemon's span trace here (tracing on).
    pub trace_path: Option<PathBuf>,
    /// Scrape `/metrics` and `/status` after the replay.
    pub scrape: bool,
}

/// One daemon lifecycle.
#[derive(Debug, Clone)]
pub struct Round {
    /// Launch → daemon bound and one provision answered per worker.
    pub setup_s: f64,
    /// What the clients saw.
    pub drive: Drive,
    /// `wal::recover` on the round's WAL.
    pub recovery_s: f64,
    /// Journal events the WAL holds.
    pub wal_events: u64,
    /// `/metrics` text and `/status` body, when scraped.
    pub scrape: Option<(String, String)>,
    /// Failed correctness checks (empty when the round is correct).
    pub check_failures: Vec<String>,
}

/// Runs one round of `ops` against a fresh daemon that starts from
/// `initial` and writes its WAL to `wal`.
pub fn round(
    net: &WdmNetwork,
    initial: &ResidualState,
    policy: Policy,
    ops: &[Op],
    wal: &Path,
    extras: &Extras,
) -> Result<Round, String> {
    let started = Instant::now();
    let mut cfg = ServeConfig::new("127.0.0.1:0", wal);
    cfg.threads = WORKERS;
    cfg.policy = policy;
    cfg.resume_state = Some(initial.clone());
    cfg.trace_path = extras.trace_path.clone();
    let control = Control::new();
    let mut checks = Vec::new();

    let (live, report) = std::thread::scope(|s| {
        let server = s.spawn(|| run(net, &cfg, &control));
        let live = {
            let _stop = StopOnDrop(&control);
            live_phase(net, initial, ops, &control, started, extras, &mut checks)
        };
        let report = server.join().expect("daemon thread panicked");
        (live, report)
    });
    let (setup_s, drive, scrape) = live?;
    let report = report.map_err(|e| format!("daemon failed: {e}"))?;

    let mut recoveries = Vec::with_capacity(RECOVERIES);
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        let t0 = Instant::now();
        let rec = wdm_serve::wal::recover(wal).map_err(|e| format!("WAL recovery failed: {e}"))?;
        recoveries.push(t0.elapsed().as_secs_f64());
        recovered = Some(rec);
    }
    let rec = recovered.expect("at least one recovery");
    let recovery_s = crate::stats::median(&recoveries);
    if let Some(path) = &extras.trace_path {
        if !path.exists() {
            checks.push("traced daemon wrote no trace file".into());
        }
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(wal).ok();

    if drive.failed > 0 {
        checks.push(format!(
            "{} request(s) failed, first: {:?}",
            drive.failed, drive.errors
        ));
    }
    if rec.semantic_hash() != report.semantic_hash || rec.seq != report.journal_seq {
        checks.push(format!(
            "WAL replay ({:#x} at seq {}) differs from the live state ({:#x} at seq {})",
            rec.semantic_hash(),
            rec.seq,
            report.semantic_hash,
            report.journal_seq
        ));
    }
    if !rec.clean_shutdown() || !report.clean_shutdown {
        checks.push("WAL has no matching graceful-close line".into());
    }
    if report.connections != 0 {
        checks.push(format!(
            "{} connection(s) left after the drain",
            report.connections
        ));
    }
    if report.semantic_hash != initial.semantic_hash() {
        checks.push("drained state differs from the initial state".into());
    }
    Ok(Round {
        setup_s,
        drive,
        recovery_s,
        wal_events: rec.seq,
        scrape,
        check_failures: checks,
    })
}

type Live = (f64, Drive, Option<(String, String)>);

fn live_phase(
    net: &WdmNetwork,
    initial: &ResidualState,
    ops: &[Op],
    control: &Control,
    started: Instant,
    extras: &Extras,
    checks: &mut Vec<String>,
) -> Result<Live, String> {
    let addr = control
        .wait_addr(Duration::from_secs(10))
        .ok_or("daemon did not bind")?;
    warm_up(addr, net)?;
    let setup_s = started.elapsed().as_secs_f64();
    let drive = drive(addr, ops);
    let mut probe = Client::new(addr);
    let state = probe
        .send("GET", "/state", "")
        .map_err(|e| format!("final /state: {e}"))?;
    let connections = json_number(&state.body, "connections");
    let load = json_number(&state.body, "load");
    if connections != Some(0.0) || load != Some(initial.network_load(net)) {
        checks.push(format!("state after the drain: {}", state.body.trim()));
    }
    let scrape = if extras.scrape {
        let metrics = probe
            .send("GET", "/metrics", "")
            .map_err(|e| format!("/metrics: {e}"))?;
        let status = probe
            .send("GET", "/status", "")
            .map_err(|e| format!("/status: {e}"))?;
        Some((metrics.body, status.body))
    } else {
        None
    };
    Ok((setup_s, drive, scrape))
}

/// One provision per worker, sent concurrently, then torn down again (a
/// blocked warm-up provision has done its routing all the same).
fn warm_up(addr: std::net::SocketAddr, net: &WdmNetwork) -> Result<(), String> {
    let n = net.node_count() as u32;
    let ids: Vec<Result<Option<u64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS as u32)
            .map(|w| {
                s.spawn(move || {
                    let body = format!("{{\"src\":{},\"dst\":{}}}", w % n, (w + n / 2) % n);
                    let r = Client::new(addr)
                        .send("POST", "/provision", &body)
                        .map_err(|e| format!("warm-up provision: {e}"))?;
                    match (r.status, json_number(&r.body, "id")) {
                        (200, Some(id)) => Ok(Some(id as u64)),
                        (409, _) => Ok(None),
                        _ => Err(format!(
                            "warm-up provision answered {} {}",
                            r.status, r.body
                        )),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut client = Client::new(addr);
    for id in ids {
        let Some(id) = id? else { continue };
        let r = client
            .send("POST", "/teardown", &format!("{{\"id\":{id}}}"))
            .map_err(|e| format!("warm-up teardown: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up teardown answered {}", r.status));
        }
    }
    Ok(())
}

/// `GET /healthz` round trips on an otherwise idle daemon, one connection
/// at a time. Returns the latencies (ns).
pub fn null_rtts(
    net: &WdmNetwork,
    policy: Policy,
    wal: &Path,
    n: usize,
) -> Result<Vec<f64>, String> {
    let mut cfg = ServeConfig::new("127.0.0.1:0", wal);
    cfg.threads = WORKERS;
    cfg.policy = policy;
    let control = Control::new();
    let (rtts, report) = std::thread::scope(|s| {
        let server = s.spawn(|| run(net, &cfg, &control));
        let rtts = {
            let _stop = StopOnDrop(&control);
            (|| -> Result<Vec<f64>, String> {
                let addr = control
                    .wait_addr(Duration::from_secs(10))
                    .ok_or("daemon did not bind")?;
                let mut client = Client::new(addr);
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    let t0 = Instant::now();
                    let r = client
                        .send("GET", "/healthz", "")
                        .map_err(|e| format!("/healthz: {e}"))?;
                    out.push(t0.elapsed().as_nanos() as f64);
                    if r.status != 200 {
                        return Err(format!("/healthz answered {}", r.status));
                    }
                }
                Ok(out)
            })()
        };
        (rtts, server.join().expect("daemon thread panicked"))
    });
    report.map_err(|e| format!("idle daemon failed: {e}"))?;
    std::fs::remove_file(wal).ok();
    rtts
}

/// Value of an unlabelled Prometheus sample line `name value`.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// Quantile `q` of a Prometheus histogram family (upper bound of the
/// bucket holding the nearest-rank sample) and its sample count.
pub fn prom_quantile(text: &str, family: &str, q: f64) -> Option<(f64, u64)> {
    let count = prom_value(text, &format!("{family}_count"))? as u64;
    if count == 0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(&prefix)?;
        let (le, cumulative) = rest.split_once("\"} ")?;
        let cumulative: u64 = cumulative.trim().parse().ok()?;
        if cumulative < rank {
            return None;
        }
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        Some((bound, count))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# TYPE wdm_serve_shed_total counter\n\
wdm_serve_shed_total 3\n\
wdm_serve_queue_ns_bucket{le=\"100\"} 5\n\
wdm_serve_queue_ns_bucket{le=\"200\"} 9\n\
wdm_serve_queue_ns_bucket{le=\"400\"} 10\n\
wdm_serve_queue_ns_bucket{le=\"+Inf\"} 10\n\
wdm_serve_queue_ns_sum 1500\n\
wdm_serve_queue_ns_count 10\n";

    #[test]
    fn prometheus_values_and_bucket_quantiles() {
        assert_eq!(prom_value(TEXT, "wdm_serve_shed_total"), Some(3.0));
        assert_eq!(prom_value(TEXT, "wdm_missing_total"), None);
        // Rank 5 of 10 sits in the first bucket, rank 9 in the second,
        // rank 10 in the third.
        assert_eq!(
            prom_quantile(TEXT, "wdm_serve_queue_ns", 0.5),
            Some((100.0, 10))
        );
        assert_eq!(
            prom_quantile(TEXT, "wdm_serve_queue_ns", 0.9),
            Some((200.0, 10))
        );
        assert_eq!(
            prom_quantile(TEXT, "wdm_serve_queue_ns", 0.99),
            Some((400.0, 10))
        );
        assert_eq!(prom_quantile(TEXT, "wdm_serve_lock_ns", 0.5), None);
    }
}
