//! Discrete-event queue.
//!
//! A binary heap of `(time, seq, event)` entries; `seq` breaks time ties in
//! insertion order, which makes runs fully deterministic for a fixed seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wdm_graph::EdgeId;

/// Events the simulator processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new connection request arrives.
    Arrival,
    /// Connection `conn` terminates and releases its channels.
    Departure {
        /// Connection id.
        conn: u64,
    },
    /// Physical link failure (fibre cut).
    LinkFailure {
        /// The failed link.
        link: EdgeId,
    },
    /// The failed link is repaired.
    LinkRepair {
        /// The repaired link.
        link: EdgeId,
    },
}

#[derive(Debug, Clone)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute `time`.
    pub fn schedule(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "non-finite event time");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event.
    #[allow(clippy::should_implement_trait)] // queue pop, not an Iterator
    pub fn next(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::Arrival);
        q.schedule(1.0, Event::Departure { conn: 7 });
        q.schedule(3.0, Event::Arrival);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next(), Some((1.0, Event::Departure { conn: 7 })));
        assert_eq!(q.next(), Some((3.0, Event::Arrival)));
        assert_eq!(q.next(), Some((5.0, Event::Arrival)));
        assert_eq!(q.next(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, Event::Departure { conn: 1 });
        q.schedule(2.0, Event::Departure { conn: 2 });
        q.schedule(2.0, Event::Departure { conn: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.next())
            .map(|(_, e)| match e {
                Event::Departure { conn } => conn,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, Event::Arrival);
    }
}
