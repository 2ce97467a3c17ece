//! The live [`Recorder`]: lock-free counters + histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::AtomicHistogram;
use crate::snapshot::TelemetrySnapshot;
use crate::{Counter, Hist, Recorder};

/// A concurrent telemetry accumulator.
///
/// Counters and histograms are plain atomics — safe to share across
/// threads by reference (`&TelemetrySink` implements [`Recorder`]).
#[derive(Debug)]
pub struct TelemetrySink {
    counters: [AtomicU64; Counter::COUNT],
    hists: [AtomicHistogram; Hist::COUNT],
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        TelemetrySink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::default()),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Read access to one histogram.
    pub fn histogram(&self, hist: Hist) -> &AtomicHistogram {
        &self.hists[hist as usize]
    }

    /// Drains the current totals into an immutable, mergeable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_sink(self)
    }
}

impl Recorder for TelemetrySink {
    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    fn observe(&self, hist: Hist, value: u64) {
        self.hists[hist as usize].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let sink = TelemetrySink::new();
        sink.add(Counter::RequestsRouted, 2);
        sink.add(Counter::RequestsRouted, 3);
        sink.observe(Hist::PrimaryHops, 4);
        assert_eq!(sink.counter(Counter::RequestsRouted), 5);
        assert_eq!(sink.histogram(Hist::PrimaryHops).count(), 1);
        assert!(sink.enabled());
    }

    #[test]
    fn shared_references_record_into_one_sink() {
        let sink = TelemetrySink::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = &sink;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.add(Counter::ThresholdProbes, 1);
                        r.observe(Hist::ThresholdProbes, 3);
                    }
                });
            }
        });
        assert_eq!(sink.counter(Counter::ThresholdProbes), 4000);
        assert_eq!(sink.histogram(Hist::ThresholdProbes).count(), 4000);
    }
}
