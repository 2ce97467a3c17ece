//! Monotone bucket queue for bounded integer keys.
//!
//! When edge costs are small integers (hop counts, quantised link weights),
//! Dijkstra's extracted keys form a monotone non-decreasing sequence bounded
//! by `max_key`. A circular array of buckets then gives O(1) insert,
//! decrease-key, and amortised O(1 + C/n) pop — the classic Dial's algorithm
//! queue. It is the fast path of the CSR auxiliary-graph search when a
//! network's costs certify as exact dyadic rationals.
//!
//! Two hardening properties matter for that fast path:
//!
//! * **Deterministic ties.** [`MinQueue::pop_min`] returns the *smallest id*
//!   among the minimum-key entries — the same `(key, id)` order as
//!   [`DaryHeap`](crate::DaryHeap), so a Dijkstra run produces an identical
//!   settle sequence (and therefore identical predecessor trees) under
//!   either engine (`tests/heap_equivalence.rs`).
//! * **O(1) reset.** Presence and bucket heads are generation-stamped, so
//!   [`MinQueue::clear`] is a counter bump, not an `O(capacity + span)`
//!   fill — one queue serves an unbounded stream of searches, like the
//!   generation-stamped tree banks in `wdm-graph`'s `SearchArena`.

use crate::MinQueue;

const ABSENT: u32 = u32::MAX;

/// Dial's bucket queue over dense `usize` ids with `u64` keys.
///
/// The queue is *monotone*: keys passed to [`MinQueue::insert`] and
/// [`MinQueue::decrease_key`] must be ≥ the key of the most recent
/// [`MinQueue::pop_min`] (debug-asserted). The maximum key span that can be
/// in flight at once is the `span` given at construction (for Dijkstra:
/// the maximum edge cost + 1).
#[derive(Debug, Clone)]
pub struct BucketQueue {
    /// `buckets[k % span]` = intrusive doubly-linked list head (id), valid
    /// only while `bucket_gen` matches the current generation.
    buckets: Vec<u32>,
    bucket_gen: Vec<u64>,
    /// Per-id linked-list pointers and keys.
    next: Vec<u32>,
    prev: Vec<u32>,
    keys: Vec<u64>,
    /// `stamp[id] == gen` ⇔ the id is present.
    stamp: Vec<u64>,
    gen: u64,
    /// Cursor: all live keys are in `[floor, floor + span)`.
    floor: u64,
    span: u64,
    len: usize,
    /// Binary min-heap over ids holding the bucket currently being drained
    /// (every entry has key == `drain_key`). Dijkstra workloads with large
    /// tie classes (e.g. zero-reduced-cost plateaus) put thousands of ids in
    /// one bucket; scanning the chain for the smallest id on every pop is
    /// quadratic in the class size, while draining through this heap keeps
    /// the identical smallest-id-first order at O(log k) per operation.
    drain: Vec<u32>,
    /// Key of the drain heap's entries; `u64::MAX` while inactive.
    drain_key: u64,
}

impl BucketQueue {
    /// Creates a queue for ids `0..capacity` whose in-flight keys never span
    /// more than `span` (e.g. `max_edge_cost + 1` for Dijkstra).
    pub fn new(capacity: usize, span: u64) -> Self {
        assert!(span >= 1, "span must be at least 1");
        assert!(capacity < ABSENT as usize);
        Self {
            buckets: vec![ABSENT; span as usize],
            bucket_gen: vec![0; span as usize],
            next: vec![ABSENT; capacity],
            prev: vec![ABSENT; capacity],
            keys: vec![0; capacity],
            stamp: vec![0; capacity],
            gen: 1,
            floor: 0,
            span,
            len: 0,
            drain: Vec::new(),
            drain_key: u64::MAX,
        }
    }

    /// Grows the id capacity and/or the key span in place, keeping the
    /// allocation. Must be called on an empty queue (the bucket array cannot
    /// be re-hashed under live entries); the queue is reset as by
    /// [`MinQueue::clear`]. Returns whether any buffer grew (an allocation
    /// event, for arena telemetry).
    ///
    /// # Panics
    /// Panics if the queue is non-empty.
    pub fn ensure(&mut self, capacity: usize, span: u64) -> bool {
        assert!(self.len == 0, "ensure on a non-empty bucket queue");
        assert!(span >= 1, "span must be at least 1");
        assert!(capacity < ABSENT as usize);
        let mut grew = false;
        if self.stamp.len() < capacity {
            self.next.resize(capacity, ABSENT);
            self.prev.resize(capacity, ABSENT);
            self.keys.resize(capacity, 0);
            self.stamp.resize(capacity, 0);
            grew = true;
        }
        if self.span < span {
            self.buckets.resize(span as usize, ABSENT);
            self.bucket_gen.resize(span as usize, 0);
            self.span = span;
            grew = true;
        }
        self.clear();
        grew
    }

    /// The key span the queue was sized for.
    pub fn span(&self) -> u64 {
        self.span
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (key % self.span) as usize
    }

    /// Bucket head, or `ABSENT` if the slot is stale (previous generation).
    #[inline]
    fn head(&self, b: usize) -> u32 {
        if self.bucket_gen[b] == self.gen {
            self.buckets[b]
        } else {
            ABSENT
        }
    }

    fn unlink(&mut self, id: usize) {
        let b = self.bucket_of(self.keys[id]);
        let (p, n) = (self.prev[id], self.next[id]);
        if p == ABSENT {
            self.buckets[b] = n;
            self.bucket_gen[b] = self.gen;
        } else {
            self.next[p as usize] = n;
        }
        if n != ABSENT {
            self.prev[n as usize] = p;
        }
        self.next[id] = ABSENT;
        self.prev[id] = ABSENT;
    }

    fn link(&mut self, id: usize, key: u64) {
        debug_assert!(
            key >= self.floor && key < self.floor + self.span,
            "key {key} outside monotone window [{}, {})",
            self.floor,
            self.floor + self.span
        );
        self.keys[id] = key;
        let b = self.bucket_of(key);
        let head = self.head(b);
        self.next[id] = head;
        self.prev[id] = ABSENT;
        if head != ABSENT {
            self.prev[head as usize] = id as u32;
        }
        self.buckets[b] = id as u32;
        self.bucket_gen[b] = self.gen;
    }

    /// Smallest id in bucket `b` (the deterministic tie winner), or
    /// `ABSENT` for an empty bucket. O(bucket length).
    #[inline]
    fn min_id_in(&self, b: usize) -> u32 {
        let mut best = self.head(b);
        if best != ABSENT {
            let mut cur = self.next[best as usize];
            while cur != ABSENT {
                if cur < best {
                    best = cur;
                }
                cur = self.next[cur as usize];
            }
        }
        best
    }

    fn drain_push(&mut self, id: u32) {
        self.drain.push(id);
        let mut i = self.drain.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.drain[p] <= self.drain[i] {
                break;
            }
            self.drain.swap(p, i);
            i = p;
        }
    }

    fn drain_pop(&mut self) -> Option<u32> {
        let last = self.drain.len().checked_sub(1)?;
        self.drain.swap(0, last);
        let out = self.drain.pop().expect("non-empty");
        let n = self.drain.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            let mut s = i;
            if l < n && self.drain[l] < self.drain[s] {
                s = l;
            }
            if l + 1 < n && self.drain[l + 1] < self.drain[s] {
                s = l + 1;
            }
            if s == i {
                break;
            }
            self.drain.swap(i, s);
            i = s;
        }
        Some(out)
    }
}

impl MinQueue<u64> for BucketQueue {
    /// Default construction assumes a key span of 1024; prefer
    /// [`BucketQueue::new`] with the real cost bound.
    fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity, 1024)
    }

    fn capacity(&self) -> usize {
        self.stamp.len()
    }

    fn insert(&mut self, id: usize, key: u64) {
        assert!(id < self.stamp.len(), "id {id} out of capacity");
        assert!(self.stamp[id] != self.gen, "id {id} already present");
        if self.len == 0 && (key < self.floor || key >= self.floor + self.span) {
            // Empty queue and the key falls outside the current window: the
            // monotone sequence is restarting, so the window may move.
            // (Keys *inside* the window keep the floor where it is — a
            // Dijkstra relaxation after the queue drains may push several
            // keys, and only the smallest of them would be a valid new
            // floor, which we cannot know yet.)
            self.floor = key;
        }
        self.stamp[id] = self.gen;
        if key == self.drain_key {
            // The bucket for this key has already been moved into the drain
            // heap; joining the chain instead would be skipped by the pop
            // cursor.
            self.keys[id] = key;
            self.drain_push(id as u32);
        } else {
            self.link(id, key);
        }
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Drain the current tie class in ascending id order — the same
            // (key, id) rule as the d-ary heap.
            if self.drain_key == self.floor {
                if let Some(best) = self.drain_pop() {
                    let id = best as usize;
                    debug_assert_eq!(self.keys[id], self.floor);
                    self.stamp[id] = 0;
                    self.len -= 1;
                    return Some((id, self.floor));
                }
                self.drain_key = u64::MAX;
                self.floor += 1;
            }
            // Scan forward from the floor cursor to the first non-empty
            // bucket; with keys confined to [floor, floor + span), every
            // entry there has key == floor. Move its whole chain into the
            // drain heap and pop from that.
            let b = self.bucket_of(self.floor);
            let mut cur = self.head(b);
            if cur != ABSENT {
                self.buckets[b] = ABSENT;
                self.bucket_gen[b] = self.gen;
                while cur != ABSENT {
                    self.drain_push(cur);
                    cur = self.next[cur as usize];
                }
                self.drain_key = self.floor;
                continue;
            }
            self.floor += 1;
        }
    }

    fn peek_min(&self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.drain_key == self.floor {
            if let Some(&best) = self.drain.first() {
                return Some((best as usize, self.floor));
            }
        }
        let mut f = self.floor;
        loop {
            let best = self.min_id_in((f % self.span) as usize);
            if best != ABSENT {
                return Some((best as usize, f));
            }
            f += 1;
        }
    }

    fn decrease_key(&mut self, id: usize, key: u64) -> bool {
        assert!(
            id < self.stamp.len() && self.stamp[id] == self.gen,
            "decrease_key on absent id {id}"
        );
        if key >= self.keys[id] {
            return false;
        }
        // An entry already in the drain heap has key == drain_key == floor,
        // the monotone minimum — it can never be decreased, so `id` is
        // always chain-linked here and unlinking is safe.
        self.unlink(id);
        if key == self.drain_key {
            self.keys[id] = key;
            self.drain_push(id as u32);
        } else {
            self.link(id, key);
        }
        true
    }

    fn contains(&self, id: usize) -> bool {
        id < self.stamp.len() && self.stamp[id] == self.gen
    }

    fn key(&self, id: usize) -> Option<u64> {
        if self.contains(id) {
            Some(self.keys[id])
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        // Generation bump invalidates every bucket head and presence stamp
        // at once — O(1), so an arena can reset the queue per search.
        self.gen += 1;
        self.floor = 0;
        self.len = 0;
        self.drain.clear();
        self.drain_key = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_dijkstra_like_workload() {
        let mut q = BucketQueue::new(16, 8);
        q.insert(0, 0);
        let mut settled = Vec::new();
        let mut next_id = 1usize;
        while let Some((id, d)) = q.pop_min() {
            settled.push((id, d));
            // Relax: push up to two "neighbours" with key d + {1, 3}.
            for w in [1u64, 3] {
                if next_id < 16 {
                    q.insert(next_id, d + w);
                    next_id += 1;
                }
            }
        }
        // Keys must come out non-decreasing.
        for pair in settled.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(settled.len(), 16);
    }

    #[test]
    fn decrease_key_moves_bucket() {
        let mut q = BucketQueue::new(4, 10);
        q.insert(0, 5);
        q.insert(1, 7);
        assert!(q.decrease_key(1, 5));
        assert!(!q.decrease_key(1, 6));
        let a = q.pop_min().unwrap();
        let b = q.pop_min().unwrap();
        assert_eq!(a.1, 5);
        assert_eq!(b.1, 5);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn window_restarts_when_empty() {
        let mut q = BucketQueue::new(2, 4);
        q.insert(0, 2);
        assert_eq!(q.pop_min(), Some((0, 2)));
        // Queue is empty: a much larger key is fine.
        q.insert(1, 1000);
        assert_eq!(q.pop_min(), Some((1, 1000)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = BucketQueue::new(4, 16);
        q.insert(3, 4);
        q.insert(2, 9);
        assert_eq!(q.peek_min(), Some((3, 4)));
        assert_eq!(q.pop_min(), Some((3, 4)));
        assert_eq!(q.peek_min(), Some((2, 9)));
    }

    #[test]
    fn same_bucket_chain() {
        let mut q = BucketQueue::new(8, 4);
        for id in 0..8 {
            q.insert(id, 3);
        }
        let mut n = 0;
        while let Some((_, k)) = q.pop_min() {
            assert_eq!(k, 3);
            n += 1;
        }
        assert_eq!(n, 8);
    }

    /// Equal keys pop in ascending id order regardless of insertion order —
    /// the same tie rule as the hardened d-ary heap.
    #[test]
    fn ties_break_by_smallest_id() {
        for perm in [
            vec![3usize, 1, 4, 0, 2],
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
        ] {
            let mut q = BucketQueue::new(8, 4);
            for &id in &perm {
                q.insert(id, 2);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop_min().map(|(id, _)| id)).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "insertion order {perm:?}");
        }
    }

    /// clear() is a generation bump: stale bucket heads from the previous
    /// generation must not resurface, and the queue is immediately reusable.
    #[test]
    fn clear_is_generational() {
        let mut q = BucketQueue::new(8, 8);
        q.insert(1, 3);
        q.insert(2, 3);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(1));
        assert_eq!(q.pop_min(), None);
        // Same bucket slot as before the clear; the stale chain is invisible.
        q.insert(5, 3);
        assert_eq!(q.pop_min(), Some((5, 3)));
        assert_eq!(q.pop_min(), None);
    }

    /// A queue abandoned mid-drain (early-exit Dijkstra) resets in O(1) and
    /// serves the next search correctly.
    #[test]
    fn reuse_after_partial_drain() {
        let mut q = BucketQueue::new(16, 8);
        for id in 0..10 {
            q.insert(id, (id % 4) as u64);
        }
        let _ = q.pop_min();
        let _ = q.pop_min();
        q.clear();
        for id in 0..16 {
            q.insert(id, (16 - id) as u64 % 8);
        }
        let mut got = 0;
        let mut last = 0;
        while let Some((_, k)) = q.pop_min() {
            assert!(k >= last);
            last = k;
            got += 1;
        }
        assert_eq!(got, 16);
    }

    /// ensure() grows capacity and span in place.
    #[test]
    fn ensure_grows_capacity_and_span() {
        let mut q = BucketQueue::new(2, 2);
        q.insert(0, 1);
        assert_eq!(q.pop_min(), Some((0, 1)));
        q.ensure(32, 64);
        assert_eq!(q.capacity(), 32);
        assert_eq!(q.span(), 64);
        q.insert(31, 63);
        q.insert(30, 0);
        assert_eq!(q.pop_min(), Some((30, 0)));
        assert_eq!(q.pop_min(), Some((31, 63)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ensure_on_live_queue_panics() {
        let mut q = BucketQueue::new(4, 4);
        q.insert(0, 0);
        q.ensure(8, 8);
    }
}
