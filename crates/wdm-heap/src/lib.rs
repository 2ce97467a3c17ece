//! Priority-queue substrate for the WDM routing workspace.
//!
//! Shortest-path computations dominate the running time of every algorithm in
//! the paper (auxiliary-graph Suurballe passes, Liang–Shen semilightpath
//! search), and all of them are Dijkstra-shaped: they need a min-queue with an
//! efficient *decrease-key* addressed by a dense integer id.
//!
//! The paper's Theorem 1 cites Fredman–Tarjan Fibonacci heaps for the
//! `O(m + n log n)` bound. Fibonacci heaps are practically dominated by
//! simpler structures, so this crate provides the two engines the routing
//! kernel runs on, behind the [`MinQueue`] trait:
//!
//! * [`DaryHeap`] — an indexed d-ary heap (default `D = 4`), the practical
//!   workhorse: `O(log n)` everything, excellent constants and locality.
//! * [`BucketQueue`] — a monotone integer bucket queue, `O(1)` per operation
//!   for bounded integer keys (the kernel's path when costs certify as
//!   fixed-point).
//!
//! Both pop ties by smallest id, so a search pops the same sequence on
//! either (`tests/heap_equivalence.rs`).
//!
//! Both engines address elements by a dense `usize` id in `0..capacity`, which
//! matches the node/state indexing used by the graph crates and avoids any
//! hashing on the hot path (a Rust-perf-book idiom).
//!
//! The `heaps` Criterion bench in `wdm-bench` compares d-ary heap arities
//! on Dijkstra workloads.

mod bucket;
mod dary;

pub use bucket::BucketQueue;
pub use dary::DaryHeap;

/// An addressable min-priority queue over dense integer ids.
///
/// Elements are identified by `usize` ids in `0..capacity`. At most one entry
/// per id may be present at a time. Keys only need a partial order; entries
/// with incomparable keys (NaN) must not be inserted — implementations may
/// panic or misbehave on NaN keys (debug builds assert against them where
/// cheap).
///
/// ```
/// use wdm_heap::{DaryHeap, MinQueue};
///
/// let mut q: DaryHeap<f64, 4> = DaryHeap::with_capacity(8);
/// q.insert(3, 5.0);
/// q.insert(1, 2.0);
/// q.decrease_key(3, 1.0);
/// assert_eq!(q.pop_min(), Some((3, 1.0)));
/// assert_eq!(q.pop_min(), Some((1, 2.0)));
/// assert!(q.is_empty());
/// ```
pub trait MinQueue<K: PartialOrd + Copy> {
    /// Creates an empty queue able to hold ids in `0..capacity`.
    fn with_capacity(capacity: usize) -> Self;

    /// Number of ids the queue can address.
    fn capacity(&self) -> usize;

    /// Inserts `id` with `key`.
    ///
    /// # Panics
    /// Panics if `id >= capacity` or `id` is already present.
    fn insert(&mut self, id: usize, key: K);

    /// Removes and returns the entry with the minimum key.
    fn pop_min(&mut self) -> Option<(usize, K)>;

    /// Returns the minimum entry without removing it.
    fn peek_min(&self) -> Option<(usize, K)>;

    /// Lowers the key of `id` to `key`.
    ///
    /// Returns `true` if the key was strictly decreased, `false` if the
    /// stored key was already `<= key` (the stored key is left unchanged).
    ///
    /// # Panics
    /// Panics if `id` is not present.
    fn decrease_key(&mut self, id: usize, key: K) -> bool;

    /// Whether `id` is currently present.
    fn contains(&self, id: usize) -> bool;

    /// The current key of `id`, if present.
    fn key(&self, id: usize) -> Option<K>;

    /// Number of entries currently in the queue.
    fn len(&self) -> usize;

    /// Whether the queue holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries, keeping the capacity.
    fn clear(&mut self);

    /// Inserts `id` if absent, otherwise attempts to decrease its key.
    ///
    /// Returns `true` if the queue changed (fresh insert or strict decrease).
    /// This is the single call sites in Dijkstra-style relaxations need.
    fn insert_or_decrease(&mut self, id: usize, key: K) -> bool {
        if self.contains(id) {
            self.decrease_key(id, key)
        } else {
            self.insert(id, key);
            true
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: MinQueue<f64>>() {
        let mut q = Q::with_capacity(8);
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
        q.insert(3, 5.0);
        q.insert(1, 2.0);
        assert_eq!(q.len(), 2);
        assert!(q.contains(1));
        assert!(!q.contains(0));
        assert_eq!(q.key(3), Some(5.0));
        assert_eq!(q.peek_min(), Some((1, 2.0)));
        assert!(q.insert_or_decrease(3, 1.0));
        assert!(!q.insert_or_decrease(3, 4.0));
        assert_eq!(q.pop_min(), Some((3, 1.0)));
        assert_eq!(q.pop_min(), Some((1, 2.0)));
        assert_eq!(q.pop_min(), None);
        q.insert(0, 9.0);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(0));
    }

    #[test]
    fn dary_implements_trait_contract() {
        exercise::<DaryHeap<f64, 4>>();
    }
}
