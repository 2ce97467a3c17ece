//! Sample arithmetic and the in-memory span log.
//!
//! Quantiles are nearest-rank over the raw samples (no histogram buckets),
//! so a reported p99 is a value that was actually measured. Spans are the
//! benchmark's own: one per call into a layer, kept in memory, written out
//! once at the end, and reduced to per-layer *self* time (a span's duration
//! minus the part of it its children cover).

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank quantile: the smallest sample with at least `q·n` samples
/// at or below it. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median (nearest-rank p50); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples a quantile needs so that at least ten lie beyond it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// One recorded span: a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `route`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start: u64,
    /// End, nanoseconds since the log's origin.
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (script operation) the span belongs to.
    pub request: u64,
}

/// Spans kept in memory, in the order they were opened.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a closed span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start, s.end, s.request
            ));
        }
        out
    }
}

/// Self time of every span, grouped by layer name (nanoseconds). A span's
/// self time is its duration minus the union of its direct children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let mut child_ns = 0u64;
        let mut reach = s.start;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                child_ns += b - a;
                reach = b;
            }
        }
        out.entry(s.name)
            .or_default()
            .push((s.end - s.start - child_ns) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_match_hand_computed_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&xs, 0.99), Some(10.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter.
        let shuffled = [7.0, 3.0, 10.0, 1.0, 5.0];
        assert_eq!(quantile(&shuffled, 0.5), Some(5.0));
        assert_eq!(quantile(&shuffled, 0.8), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&xs, 0.99).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        // provision [0, 100): route [10, 40), commit [40, 90) with wal [70, 90).
        let root = log.push("provision", 0, 100, None, 7);
        log.push("route", 10, 40, Some(root), 7);
        let commit = log.push("commit", 40, 90, Some(root), 7);
        log.push("wal", 70, 90, Some(commit), 7);
        let t = self_times(log.spans());
        assert_eq!(t["provision"], vec![20.0]);
        assert_eq!(t["route"], vec![30.0]);
        assert_eq!(t["commit"], vec![30.0]);
        assert_eq!(t["wal"], vec![20.0]);
        // Self times tile the root exactly.
        let total: f64 = t.values().flatten().sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut log = SpanLog::new();
        let root = log.push("request", 100, 200, None, 1);
        log.push("a", 110, 150, Some(root), 1);
        log.push("b", 140, 160, Some(root), 1); // overlaps a by 10
        log.push("c", 190, 260, Some(root), 1); // overhangs the parent by 60
        let t = self_times(log.spans());
        // Covered: [110, 160) + [190, 200) = 60 of 100.
        assert_eq!(t["request"], vec![40.0]);
        assert_eq!(t["c"], vec![70.0]);
    }

    #[test]
    fn span_log_writes_one_line_per_span() {
        let mut log = SpanLog::new();
        let root = log.push("provision", 5, 9, None, 3);
        log.push("route", 6, 8, Some(root), 3);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"route\",\"start_ns\":6,\"end_ns\":8,\"parent\":0,\"request\":3}"
        );
    }
}
