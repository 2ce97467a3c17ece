//! Flight recorder: a bounded ring of per-request records.
//!
//! Aggregate counters say *how often* requests block; the flight recorder
//! says *which* request, *what it asked for*, *where the time went*
//! (per-[`Phase`] breakdown from the span layer), and — crucially — the
//! **journal sequence number** current when the request was decided, so
//! `wdm replay` can reconstruct the exact working state the request saw.
//!
//! The ring keeps the last `capacity` requests (oldest dropped first). On
//! top of it sits a one-shot **anomaly trigger**: a sliding window over the
//! most recent requests' blocked flags; when the count in the window
//! crosses the threshold, the recorder clones the ring *at that moment*
//! into [`FlightAnomaly`], so the pathological neighbourhood survives even
//! if the simulation runs on and the ring wraps past it.
//!
//! Unlike [`SpanBuffer`] (single-owner, `RefCell`), the recorder is a
//! shared sink (`Mutex`, `Send + Sync`): one instance can receive records
//! from the serial simulator and the daemon's worker threads. Pushes are
//! rare (one per request) so the uncontended lock is noise.
//!
//! [`Phase`]: crate::Phase
//! [`SpanBuffer`]: crate::SpanBuffer

use crate::span::Phase;
use std::collections::VecDeque;

/// One request's flight record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlightRecord {
    /// Request ordinal (the recorder's own running count).
    pub request: u64,
    /// Demand endpoints.
    pub src: u32,
    /// Demand endpoints.
    pub dst: u32,
    /// Policy name in force for this request.
    pub policy: String,
    /// Outcome: `"routed"` or `"blocked"`.
    pub outcome: String,
    /// Journal sequence number current when the request was decided: the
    /// number of events appended *before* this request's own. Replaying
    /// the journal's first `journal_seq` events reconstructs the exact
    /// working state the request saw.
    pub journal_seq: u64,
    /// Physical links touched by the provisioned route (0 when blocked).
    pub footprint_links: u32,
    /// Per-phase durations, indexed by `Phase as usize`.
    pub phase_ns: Vec<u64>,
    /// Total request latency (the root span).
    pub total_ns: u64,
}

impl FlightRecord {
    /// Whether this request failed to provision.
    pub fn is_negative(&self) -> bool {
        self.outcome != "routed"
    }

    /// Named per-phase durations (skipping zero entries and the root).
    pub fn named_phases(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Request)
            .filter_map(|&p| {
                let ns = *self.phase_ns.get(p as usize)?;
                (ns > 0).then_some((p.name(), ns))
            })
            .collect()
    }
}

/// The ring's contents captured at the moment the anomaly trigger fired.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlightAnomaly {
    /// Request ordinal that tripped the trigger.
    pub at_request: u64,
    /// Sliding-window size in force.
    pub window: usize,
    /// Negative outcomes inside the window when it fired.
    pub negative: usize,
    /// Ring contents (oldest first) at trigger time.
    pub records: Vec<FlightRecord>,
}

/// Everything the recorder knows, serialisable into a trace file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlightDump {
    /// Ring contents, oldest first.
    pub records: Vec<FlightRecord>,
    /// The anomaly snapshot, if the trigger fired.
    pub anomaly: Option<FlightAnomaly>,
    /// Total requests pushed over the recorder's lifetime.
    pub total_requests: u64,
    /// Requests dropped off the ring's tail.
    pub dropped: u64,
}

/// The `--trace` file: a flight-recorder dump plus enough provenance to
/// label its analysis. `wdm simulate --trace` and `wdm serve --trace`
/// write it; `wdm trace analyze` reads it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceFile {
    /// The provisioning policy's name.
    pub policy: String,
    /// The base seed of the run (zero for a daemon, which has none).
    pub seed: u64,
    /// Phase names in `Phase as usize` index order (the key for every
    /// record's `phase_ns` vector).
    pub phases: Vec<String>,
    /// Requests offered over the whole run (the ring may hold fewer).
    pub offered: u64,
    /// The flight-recorder dump.
    pub flight: FlightDump,
}

impl TraceFile {
    /// A trace of `flight`, keyed by this build's [`Phase`] layout.
    pub fn new(policy: &str, seed: u64, offered: u64, flight: FlightDump) -> Self {
        Self {
            policy: policy.to_string(),
            seed,
            phases: Phase::ALL.iter().map(|p| p.name().to_string()).collect(),
            offered,
            flight,
        }
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    head: usize,
    records: Vec<FlightRecord>,
    window: VecDeque<bool>,
    window_size: usize,
    threshold: usize,
    anomaly: Option<FlightAnomaly>,
    total_pushed: u64,
}

impl FlightInner {
    /// Ring contents, oldest first.
    fn unrolled(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        out
    }
}

/// Bounded per-request flight recorder with a one-shot anomaly trigger.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: std::sync::Mutex<FlightInner>,
}

/// Default ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;
/// Default anomaly sliding-window size.
pub const DEFAULT_ANOMALY_WINDOW: usize = 64;
/// Default negative-outcome threshold within the window.
pub const DEFAULT_ANOMALY_THRESHOLD: usize = 32;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default capacity and anomaly tuning.
    pub fn new() -> Self {
        Self::with_config(
            DEFAULT_FLIGHT_CAPACITY,
            DEFAULT_ANOMALY_WINDOW,
            DEFAULT_ANOMALY_THRESHOLD,
        )
    }

    /// A recorder keeping the last `capacity` requests, firing the anomaly
    /// trigger when `threshold` of the last `window_size` requests were
    /// negative. `capacity` and `window_size` are clamped to at least 1.
    pub fn with_config(capacity: usize, window_size: usize, threshold: usize) -> Self {
        FlightRecorder {
            inner: std::sync::Mutex::new(FlightInner {
                capacity: capacity.max(1),
                head: 0,
                records: Vec::new(),
                window: VecDeque::new(),
                window_size: window_size.max(1),
                threshold: threshold.max(1),
                anomaly: None,
                total_pushed: 0,
            }),
        }
    }

    /// Appends a record, evicting the oldest when full, and runs the
    /// anomaly trigger.
    pub fn push(&self, record: FlightRecord) {
        let mut b = self.inner.lock().unwrap();
        let negative = record.is_negative();

        if b.records.len() < b.capacity {
            b.records.push(record);
        } else {
            let head = b.head;
            b.records[head] = record;
            b.head = (head + 1) % b.capacity;
        }
        b.total_pushed += 1;

        b.window.push_back(negative);
        if b.window.len() > b.window_size {
            b.window.pop_front();
        }
        if b.anomaly.is_none() && b.window.len() == b.window_size {
            let count = b.window.iter().filter(|&&n| n).count();
            if count >= b.threshold {
                b.anomaly = Some(FlightAnomaly {
                    at_request: b.total_pushed - 1,
                    window: b.window_size,
                    negative: count,
                    records: b.unrolled(),
                });
            }
        }
    }

    /// Total requests pushed over the recorder's lifetime.
    pub fn total_requests(&self) -> u64 {
        self.inner.lock().unwrap().total_pushed
    }

    /// Whether the anomaly trigger has fired.
    pub fn anomaly_fired(&self) -> bool {
        self.inner.lock().unwrap().anomaly.is_some()
    }

    /// Snapshots everything into a serialisable dump.
    pub fn dump(&self) -> FlightDump {
        let b = self.inner.lock().unwrap();
        FlightDump {
            records: b.unrolled(),
            anomaly: b.anomaly.clone(),
            total_requests: b.total_pushed,
            dropped: b.total_pushed - b.records.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(request: u64, outcome: &str) -> FlightRecord {
        FlightRecord {
            request,
            src: 0,
            dst: 1,
            policy: "joint".into(),
            outcome: outcome.into(),
            journal_seq: request * 2,
            footprint_links: if outcome == "routed" { 4 } else { 0 },
            phase_ns: vec![100, 10, 20, 30, 5, 15, 5, 0],
            total_ns: 100,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_records_oldest_first() {
        let fr = FlightRecorder::with_config(3, 8, 8);
        for i in 0..5 {
            fr.push(record(i, "routed"));
        }
        let dump = fr.dump();
        let ids: Vec<u64> = dump.records.iter().map(|r| r.request).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(dump.total_requests, 5);
        assert_eq!(dump.dropped, 2);
        assert!(dump.anomaly.is_none());
    }

    #[test]
    fn anomaly_trigger_fires_once_and_snapshots_the_ring() {
        let fr = FlightRecorder::with_config(4, 4, 2);
        fr.push(record(0, "routed"));
        fr.push(record(1, "blocked"));
        fr.push(record(2, "routed"));
        assert!(!fr.anomaly_fired()); // window not yet full
        fr.push(record(3, "blocked"));
        assert!(fr.anomaly_fired());
        let snap = fr.dump().anomaly.unwrap();
        assert_eq!(snap.at_request, 3);
        assert_eq!(snap.negative, 2);
        assert_eq!(snap.records.len(), 4);

        // One-shot: a later, worse window doesn't replace the snapshot.
        for i in 4..10 {
            fr.push(record(i, "blocked"));
        }
        assert_eq!(fr.dump().anomaly.unwrap().at_request, 3);
    }

    #[test]
    fn dump_round_trips_through_json() {
        let fr = FlightRecorder::with_config(2, 2, 1);
        fr.push(record(0, "routed"));
        fr.push(record(1, "blocked"));
        let dump = fr.dump();
        let text = serde_json::to_string(&dump).unwrap();
        let back: FlightDump = serde_json::from_str(&text).unwrap();
        assert_eq!(back, dump);
        assert!(back.anomaly.is_some());
    }

    #[test]
    fn named_phases_skip_root_and_zeros() {
        let r = record(0, "routed");
        let named = r.named_phases();
        assert!(named.iter().all(|&(n, _)| n != "request"));
        assert!(named.iter().all(|&(_, ns)| ns > 0));
        assert_eq!(named.len(), 6);
    }
}
