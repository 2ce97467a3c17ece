//! Immutable, serde-friendly snapshots of a [`TelemetrySink`].

use std::collections::BTreeMap;

use crate::hist::{bucket_bounds, AtomicHistogram, NUM_BUCKETS};
use crate::sink::TelemetrySink;
use crate::{Counter, Hist};

/// One non-empty histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BucketSnapshot {
    /// Smallest value the bucket covers (inclusive).
    pub lo: u64,
    /// Largest value the bucket covers (inclusive).
    pub hi: u64,
    /// Recorded values in `[lo, hi]`.
    pub count: u64,
}

/// Frozen histogram totals; only occupied buckets are materialised.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Occupied buckets, ascending by `lo`.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    fn from_atomic(h: &AtomicHistogram) -> Self {
        let mut buckets = Vec::new();
        for i in 0..NUM_BUCKETS {
            let count = h.bucket(i);
            if count > 0 {
                let (lo, hi) = bucket_bounds(i);
                buckets.push(BucketSnapshot { lo, hi, count });
            }
        }
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets,
        }
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`;
    /// `None` when empty. Error is bounded by the bucket width (≤ 12.5 %).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Adds `other`'s population into `self` (bucket-wise; commutative and
    /// associative, so shard merge order does not matter).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u64, BucketSnapshot> =
            self.buckets.iter().map(|b| (b.lo, *b)).collect();
        for b in &other.buckets {
            merged
                .entry(b.lo)
                .and_modify(|slot| slot.count += b.count)
                .or_insert(*b);
        }
        self.buckets = merged.into_values().collect();
    }
}

/// Frozen totals for a whole sink, keyed by the stable event names.
///
/// The map form (rather than fixed arrays) keeps snapshots forward- and
/// backward-compatible across taxonomy changes: old JSON files load fine
/// when counters are added later, and diff tooling works on any pair.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter totals by [`Counter::name`]; zero counters are included so a
    /// snapshot always shows the full taxonomy.
    pub counters: BTreeMap<String, u64>,
    /// Histogram totals by [`Hist::name`]; empty histograms are skipped.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Point-in-time gauges (queue depth, WAL sequence, …) set by
    /// the embedding process via [`TelemetrySnapshot::set_gauge`]. Unlike
    /// counters these are instantaneous readings, not monotonic totals.
    pub gauges: BTreeMap<String, u64>,
}

impl TelemetrySnapshot {
    pub(crate) fn from_sink(sink: &TelemetrySink) -> Self {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), sink.counter(c)))
            .collect();
        let histograms = Hist::ALL
            .iter()
            .filter_map(|&h| {
                let snap = HistogramSnapshot::from_atomic(sink.histogram(h));
                (snap.count > 0).then(|| (h.name().to_string(), snap))
            })
            .collect();
        TelemetrySnapshot {
            counters,
            histograms,
            gauges: BTreeMap::new(),
        }
    }

    /// Records an instantaneous gauge reading under `name`. The last write
    /// for a name wins; merging snapshots keeps the larger reading.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Adds `other`'s totals into `self`. Counter-wise sums and bucket-wise
    /// histogram merges — commutative, so parallel shards can be folded in
    /// any order and still equal the serial run.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
    }

    /// Sum of the two request-outcome counters (routed + blocked).
    pub fn total_requests(&self) -> u64 {
        self.counters.get("requests_routed").copied().unwrap_or(0)
            + self.counters.get("requests_blocked").copied().unwrap_or(0)
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4). Counters become `<prefix>_<name>_total`;
    /// histograms become the standard cumulative `_bucket{le="…"}` /
    /// `_sum` / `_count` triple with a closing `le="+Inf"` bucket; gauges
    /// are emitted bare. Every family carries `# HELP` / `# TYPE`
    /// metadata (help text from [`Counter::help`] / [`Hist::help`] when
    /// the name is part of the built-in taxonomy).
    pub fn prometheus(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let counter_help: BTreeMap<&str, &str> =
            Counter::ALL.iter().map(|&c| (c.name(), c.help())).collect();
        let hist_help: BTreeMap<&str, &str> =
            Hist::ALL.iter().map(|&h| (h.name(), h.help())).collect();
        let mut out = String::new();
        for (name, value) in &self.counters {
            let help = counter_help
                .get(name.as_str())
                .copied()
                .unwrap_or("Event counter");
            let _ = writeln!(out, "# HELP {prefix}_{name}_total {help}");
            let _ = writeln!(out, "# TYPE {prefix}_{name}_total counter");
            let _ = writeln!(out, "{prefix}_{name}_total {value}");
        }
        for (name, value) in &self.gauges {
            let help = gauge_help(name);
            let _ = writeln!(out, "# HELP {prefix}_{name} {help}");
            let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
            let _ = writeln!(out, "{prefix}_{name} {value}");
        }
        for (name, h) in &self.histograms {
            let help = hist_help
                .get(name.as_str())
                .copied()
                .unwrap_or("Value distribution");
            let _ = writeln!(out, "# HELP {prefix}_{name} {help}");
            let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                let _ = writeln!(
                    out,
                    "{prefix}_{name}_bucket{{le=\"{}\"}} {cumulative}",
                    b.hi
                );
            }
            let _ = writeln!(out, "{prefix}_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{prefix}_{name}_sum {}", h.sum);
            let _ = writeln!(out, "{prefix}_{name}_count {}", h.count);
        }
        out
    }

    /// Short human-readable table of every non-zero metric.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<32} {:>14}", "counter", "total");
        for (name, value) in &self.counters {
            if *value > 0 {
                let _ = writeln!(out, "{name:<32} {value:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<20} {:>10} {:>12.1} {:>12} {:>12} {:>12}",
                    name,
                    h.count,
                    h.mean(),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max
                );
            }
        }
        out
    }
}

/// Help text for the gauge names the daemon publishes. Gauges are set by
/// the embedding process (not drawn from an enum taxonomy), so unknown
/// names fall back to a generic line rather than failing the exposition.
fn gauge_help(name: &str) -> &'static str {
    match name {
        "serve_queue_depth" => "Requests waiting in the daemon admission queue",
        "serve_queue_capacity" => "Bounded capacity of the daemon admission queue",
        "serve_workers" => "Worker threads in the daemon routing pool",
        "wal_seq" => "Highest journal sequence number appended to the WAL",
        "wal_checkpoint_seq" => "Journal sequence of the last durable checkpoint",
        "flight_records" => "Flight-recorder ring occupancy",
        "flight_anomaly_fired" => "1 once the flight anomaly trigger froze the ring",
        _ => "Instantaneous gauge reading",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_sink(values: &[u64]) -> TelemetrySink {
        let sink = TelemetrySink::new();
        for &v in values {
            sink.add(Counter::RequestsRouted, 1);
            sink.observe(Hist::RouteCostMilli, v);
        }
        sink
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_sink(&[1, 5, 900, 17, 17]).snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counters["requests_routed"], 5);
        assert_eq!(back.total_requests(), 5);
    }

    #[test]
    fn sharded_merge_equals_single_sink() {
        let all = [3u64, 9, 27, 81, 243, 729, 2187, 6561];
        let serial = sample_sink(&all).snapshot();
        let mut merged = TelemetrySnapshot::default();
        // Merge shards in a scrambled order: result must still match.
        for chunk in [&all[4..], &all[..2], &all[2..4]] {
            merged.merge(&sample_sink(chunk).snapshot());
        }
        assert_eq!(merged, serial);
    }

    #[test]
    fn quantiles_track_the_population() {
        let snap = sample_sink(&[1, 2, 3, 4, 1000]).snapshot();
        let h = &snap.histograms["route_cost_milli"];
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(1000));
        assert!((h.mean() - 202.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut snap = sample_sink(&[1, 5, 900]).snapshot();
        snap.set_gauge("serve_queue_depth", 7);
        let text = snap.prometheus("wdm");
        assert!(text.contains("# HELP wdm_requests_routed_total "));
        assert!(text.contains("# TYPE wdm_requests_routed_total counter"));
        assert!(text.contains("# HELP wdm_route_cost_milli "));
        assert!(text.contains("# HELP wdm_serve_queue_depth "));
        assert!(text.contains("# TYPE wdm_serve_queue_depth gauge"));
        assert!(text.contains("wdm_serve_queue_depth 7"));
        // Every sample line is preceded by metadata for its family.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert!(text.contains("wdm_requests_routed_total 3"));
        assert!(text.contains("# TYPE wdm_route_cost_milli histogram"));
        assert!(text.contains("wdm_route_cost_milli_count 3"));
        assert!(text.contains("wdm_route_cost_milli_sum 906"));
        assert!(text.contains("wdm_route_cost_milli_bucket{le=\"+Inf\"} 3"));
        // Cumulative bucket counts are non-decreasing and end at count.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("wdm_route_cost_milli_bucket") {
                let v: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last);
                last = v;
            }
        }
        assert_eq!(last, 3);
    }

    #[test]
    fn gauges_round_trip_and_merge_keeps_the_larger_reading() {
        let mut a = sample_sink(&[4]).snapshot();
        a.set_gauge("wal_seq", 10);
        a.set_gauge("serve_queue_depth", 2);
        let text = serde_json::to_string(&a).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, a);

        let mut b = TelemetrySnapshot::default();
        b.set_gauge("wal_seq", 25);
        a.merge(&b);
        assert_eq!(a.gauges["wal_seq"], 25);
        assert_eq!(a.gauges["serve_queue_depth"], 2);
    }

    #[test]
    fn summary_lists_nonzero_metrics() {
        let snap = sample_sink(&[10]).snapshot();
        let text = snap.summary();
        assert!(text.contains("requests_routed"));
        assert!(text.contains("route_cost_milli"));
        assert!(!text.contains("requests_blocked"));
    }
}
