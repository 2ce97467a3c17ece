//! Reusable search buffers for the routing hot path.
//!
//! Every Dijkstra/Suurballe call in the baseline implementation allocates its
//! working state (`dist`/`pred` vectors, the heap, the Suurballe residual
//! graph and walk lists) from scratch. [`SearchArena`] owns all of that state
//! once and re-serves it across calls:
//!
//! * `dist`/`pred` are *generation-stamped*: a slot is valid only if its
//!   stamp equals the current generation, so "resetting" the arrays is a
//!   single counter increment instead of an `O(n)` fill;
//! * the d-ary heap is emptied with [`DaryHeap::clear`] (`O(len)` over the
//!   few leftover slots, not over capacity);
//! * the Suurballe residual graph keeps its node set and the capacity of its
//!   adjacency lists via [`DiGraph::clear_edges`];
//! * edge masks are generation-stamped like the distance arrays.
//!
//! The arena variants run the *same operation sequence* as their allocating
//! counterparts ([`dijkstra_generic`](crate::dijkstra::dijkstra_generic),
//! [`edge_disjoint_pair_filtered`](crate::suurballe::edge_disjoint_pair_filtered)):
//! identical relaxations in identical order with identical tie-breaking, so
//! results are bit-for-bit equal — the allocating functions now delegate
//! here with a fresh arena.
//!
//! Two Suurballe implementations live here. The pointer one,
//! [`SearchArena::edge_disjoint_pair`] over a [`DiGraph`], is the scratch
//! oracle's search. The flat kernel, [`SearchArena::edge_disjoint_pair_flat`]
//! over a [`FlatView`], is the router's: each of its passes is written once,
//! generic over its queue key, and runs either on `f64` cost keys and the
//! d-ary heap or, when an [`IntWeights`] certificate holds and the pass's
//! key window fits `BUCKET_SPAN_CAP`, on `u64` fixed-point keys and the
//! bucket queue. A queue-selection step picks one per pass; both return the
//! pointer search's pair bit for bit.

use crate::{DiGraph, EdgeId, NodeId, Path};
use wdm_heap::{BucketQueue, DaryHeap, MinQueue};

/// Largest bucket span the flat kernel will allocate (number of buckets the
/// monotone queue keeps live). A pass whose key window exceeds this runs on
/// the d-ary heap instead — results are identical either way, only the
/// queue engine changes.
const BUCKET_SPAN_CAP: u64 = 1 << 18;

/// A generation-stamped shortest-path tree buffer (`dist` + `pred`).
#[derive(Debug, Clone)]
struct TreeBank {
    dist: Vec<f64>,
    pred: Vec<Option<EdgeId>>,
    stamp: Vec<u64>,
    gen: u64,
    source: NodeId,
}

impl Default for TreeBank {
    fn default() -> Self {
        Self {
            dist: Vec::new(),
            pred: Vec::new(),
            stamp: Vec::new(),
            gen: 0,
            source: NodeId::from(0),
        }
    }
}

impl TreeBank {
    /// Starts a new search over `n` nodes: grows the buffers if needed and
    /// invalidates all previous entries by bumping the generation. Returns
    /// whether the buffers grew (an allocation event).
    fn begin(&mut self, n: usize, source: NodeId) -> bool {
        let grew = self.stamp.len() < n;
        if grew {
            self.dist.resize(n, f64::INFINITY);
            self.pred.resize(n, None);
            self.stamp.resize(n, 0);
        }
        self.gen += 1;
        self.source = source;
        grew
    }

    #[inline]
    fn dist(&self, v: usize) -> f64 {
        if self.stamp[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn pred(&self, v: usize) -> Option<EdgeId> {
        if self.stamp[v] == self.gen {
            self.pred[v]
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: f64, p: Option<EdgeId>) {
        self.dist[v] = d;
        self.pred[v] = p;
        self.stamp[v] = self.gen;
    }

    #[inline]
    fn reached(&self, v: NodeId) -> bool {
        self.dist(v.index()).is_finite()
    }

    /// Mirrors [`crate::dijkstra::ShortestPathTree::path_to`].
    fn path_to<N, E>(&self, g: &DiGraph<N, E>, t: NodeId) -> Option<Path> {
        if !self.reached(t) {
            return None;
        }
        let mut edges = Vec::new();
        let mut at = t;
        while at != self.source {
            let e = self
                .pred(at.index())
                .expect("reached non-source node must have a pred edge");
            edges.push(e);
            at = g.src(e);
        }
        edges.reverse();
        Some(Path {
            src: self.source,
            dst: t,
            edges,
        })
    }

    /// Flat-array variant of [`TreeBank::path_to`]: predecessor arcs are
    /// indices into a caller-provided per-arc tail array instead of a
    /// [`DiGraph`].
    fn path_to_flat(&self, tail_of: &[u32], t: NodeId) -> Option<Path> {
        if !self.reached(t) {
            return None;
        }
        let mut edges = Vec::new();
        let mut at = t;
        while at != self.source {
            let e = self
                .pred(at.index())
                .expect("reached non-source node must have a pred edge");
            edges.push(e);
            at = NodeId::from(tail_of[e.index()] as usize);
        }
        edges.reverse();
        Some(Path {
            src: self.source,
            dst: t,
            edges,
        })
    }
}

/// A borrowed CSR-flattened view of a search graph: contiguous offset/head
/// arrays for traversal plus parallel per-arc attribute arrays. This is the
/// layout the incremental auxiliary-graph engine maintains; the flat kernel
/// traverses it without touching a [`DiGraph`].
///
/// Layout contract (debug-asserted by the flat kernel):
/// * `offsets.len() == node_count + 1`; slot range of node `v` is
///   `offsets[v]..offsets[v + 1]`;
/// * `heads[slot]` is the destination node of the arc occupying `slot`, and
///   `slot_arc[slot]` its arc id;
/// * per-node slots appear in ascending arc-id order (the order
///   [`DiGraph::out_edges`] yields for a graph built by pushing arcs in id
///   order), so relaxation order — and therefore every tie — matches the
///   pointer-based search exactly;
/// * `src`/`dst`/`weight`/`enabled` are indexed by arc id.
#[derive(Debug, Clone, Copy)]
pub struct FlatView<'a> {
    /// CSR row offsets (`len == node_count + 1`).
    pub offsets: &'a [u32],
    /// Destination node per CSR slot.
    pub heads: &'a [u32],
    /// Arc id per CSR slot.
    pub slot_arc: &'a [u32],
    /// CSR slot per arc id (inverse of `slot_arc`).
    pub arc_slot: &'a [u32],
    /// Tail node per arc id.
    pub src: &'a [u32],
    /// Head node per arc id.
    pub dst: &'a [u32],
    /// Non-negative weight per arc id (cost units).
    pub weight: &'a [f64],
    /// Participation flag per arc id; disabled arcs are skipped everywhere.
    pub enabled: &'a [bool],
    /// Slot-ordered mirror of `weight`: the relaxation loops read weights
    /// sequentially in slot order instead of hopping through arc ids.
    pub slot_weight: &'a [f64],
    /// Slot-ordered mirror of `enabled`.
    pub slot_enabled: &'a [bool],
}

impl FlatView<'_> {
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn arc_count(&self) -> usize {
        self.weight.len()
    }

    #[inline]
    fn out_range(&self, v: usize) -> core::ops::Range<usize> {
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }
}

/// Integer certification of a [`FlatView`]'s weights and of the search's
/// sink bound: every arc weight is exactly `key[a] / 2^scale_shift` in f64,
/// and so is every finite bound value `h(v)`. Under this contract the flat
/// kernel's `u64` instantiation is *bit-identical* to its `f64` one: integer
/// key order is isomorphic to f64 distance order, partial sums stay below
/// 2^53 (guarded), and both queues break key ties by smallest node id.
#[derive(Debug, Clone, Copy)]
pub struct IntWeights<'a> {
    /// Integer keys, *slot-ordered* (parallel to [`FlatView::heads`]);
    /// `key[slot] as f64 / 2f64.powi(scale_shift)` must equal
    /// `slot_weight[slot]` bit-exactly for every *enabled* slot.
    pub key: &'a [u64],
    /// Fixed-point scale: weights are multiples of `2^-scale_shift`.
    pub scale_shift: u32,
    /// Upper bound on `key[a]` over all enabled arcs (need not be tight).
    pub max_key: u64,
    /// Upper bound on `h(v) · 2^scale_shift` over every node whose bound is
    /// finite (need not be tight). Sizes the bucket windows: an A* key rises
    /// by at most `w + h(v) − h(u)` per arc.
    pub max_bound_key: u64,
}

/// A generation-stamped boolean edge set.
#[derive(Debug, Clone, Default)]
struct EdgeMask {
    bit: Vec<bool>,
    stamp: Vec<u64>,
    gen: u64,
}

impl EdgeMask {
    /// Starts a new mask over `m` edges; returns whether the buffers grew.
    fn begin(&mut self, m: usize) -> bool {
        let grew = self.stamp.len() < m;
        if grew {
            self.bit.resize(m, false);
            self.stamp.resize(m, 0);
        }
        self.gen += 1;
        grew
    }

    #[inline]
    fn get(&self, e: usize) -> bool {
        self.stamp[e] == self.gen && self.bit[e]
    }

    #[inline]
    fn set(&mut self, e: usize, value: bool) {
        self.bit[e] = value;
        self.stamp[e] = self.gen;
    }
}

/// Arc of the Suurballe residual graph (see `suurballe.rs`); lives here so
/// the arena can own a reusable residual graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResidArc {
    /// Reduced (non-negative) cost.
    pub(crate) reduced: f64,
    /// Originating edge in the input graph.
    pub(crate) orig: EdgeId,
    /// Whether this arc traverses `orig` backwards (a P1 reversal).
    pub(crate) reversed: bool,
}

/// Owns every buffer a Dijkstra or Suurballe run needs, so steady-state
/// searches perform no heap allocation beyond their output paths.
///
/// One arena serves any number of sequential searches over graphs of any
/// (varying) size; buffers only grow. Results are identical to the
/// allocating entry points.
///
/// # The sink bound
///
/// Every Suurballe entry point takes a bound `h`, indexed by node: a lower
/// bound on the node's remaining cost to the sink `t`, with `h(t) = 0`,
/// `f64::INFINITY` on nodes that cannot reach `t`, and *consistent*:
/// `h(u) ≤ w + h(v)` on every arc `u → v` of weight `w`. Pass 1 is then an
/// A* search, and pass 2's potentials `min(d(v), d(t) − h(v))` keep it
/// guided (see `suurballe.rs`). The pair keeps minimum total cost under
/// any such bound; `|_| 0.0` is plain Dijkstra.
#[derive(Debug, Clone)]
pub struct SearchArena {
    /// Pass-1 tree (kept alive through pass 2, which reads its distances).
    t1: TreeBank,
    /// Pass-2 tree over the residual graph.
    t2: TreeBank,
    queues: Queues,
    mask: EdgeMask,
    /// Slot-indexed twin of `mask` for the flat pass-2 scan (sequential
    /// reads); holds the same P1 edges, addressed by CSR slot.
    mask_slot: EdgeMask,
    resid: DiGraph<(), ResidArc>,
    out_lists: Vec<Vec<EdgeId>>,
    /// The pair's surviving arcs: P1's uncancelled arcs plus pass 2's
    /// forward arcs, sorted by arc id before the decomposition walk.
    survivors: Vec<EdgeId>,
    /// Per-node reversed residual arc for the flat pass 2 (`u32::MAX` =
    /// none). P1 is a simple path, so a node has at most one masked
    /// in-arc — i.e. at most one reversed residual arc rooted at it.
    /// Filled from the P1 edges before pass 2 and cleared right after.
    rev_at: Vec<u32>,
    /// Buffer-growth events since construction (telemetry: a steady-state
    /// arena stops allocating, so this should plateau after warm-up).
    allocs: u64,
    /// Nodes settled (popped from the queue) by pass 1 and by pass 2,
    /// summed over every search since construction.
    settled: [u64; 2],
}

impl Default for SearchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchArena {
    pub fn new() -> Self {
        Self {
            t1: TreeBank::default(),
            t2: TreeBank::default(),
            queues: Queues {
                heap: DaryHeap::with_capacity(0),
                bucket: BucketQueue::new(0, 1),
            },
            mask: EdgeMask::default(),
            mask_slot: EdgeMask::default(),
            resid: DiGraph::new(),
            out_lists: Vec::new(),
            survivors: Vec::new(),
            rev_at: Vec::new(),
            allocs: 0,
            settled: [0; 2],
        }
    }

    /// Cumulative buffer-growth events (allocations) across all searches
    /// served by this arena.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Cumulative nodes settled by Suurballe's pass 1 and pass 2 across all
    /// searches served by this arena (the sink counts when it is popped).
    pub fn settled(&self) -> [u64; 2] {
        self.settled
    }

    /// Arena-backed [`crate::suurballe::edge_disjoint_pair_filtered`],
    /// guided by the sink bound `h` (see [`SearchArena`]): minimum-cost
    /// pair of edge-disjoint `s -> t` paths over edges accepted by
    /// `filter`. Under `h ≡ 0` this is the allocating function's exact
    /// operation sequence; only the working memory is reused.
    pub fn edge_disjoint_pair<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        t: NodeId,
        mut cost: impl FnMut(EdgeId) -> f64,
        mut filter: impl FnMut(EdgeId) -> bool,
        h: impl Fn(usize) -> f64,
    ) -> Option<crate::suurballe::DisjointPair> {
        if s == t {
            return None;
        }
        // Pass 1: A* from s under h, stopped when t is popped. Settled
        // nodes hold exact distances with d(v) + h(v) <= d(t); every other
        // node v is at least d(t) - h(v) away.
        let (grew, popped) = dijkstra_into(
            &mut self.t1,
            &mut self.queues.heap,
            g,
            s,
            t,
            &mut cost,
            &mut filter,
            &h,
        );
        self.allocs += grew as u64;
        self.settled[0] += popped;
        if !self.t1.reached(t) {
            return None;
        }
        let d_t = self.t1.dist(t.index());
        let p1 = self.t1.path_to(g, t).expect("t is reached");
        self.allocs += self.mask.begin(g.edge_count()) as u64;
        for &e in &p1.edges {
            self.mask.set(e.index(), true);
        }

        // Pass 2: residual graph with reduced costs under the potentials
        // pi(v) = min(d(v), d(t) - h(v)). A tentative node's label is at
        // least d(t) - h(v) (t was the queue minimum) and an unreached
        // node's is infinite, so both take d(t) - h(v), and arcs into them
        // stay in the residual: pass 2 may need nodes pass 1 never settled.
        // Arcs into nodes with h = inf are left out: those nodes cannot
        // reach t, not even through a reversed P1 arc.
        let n = g.node_count();
        self.resid.clear_edges();
        if self.resid.node_count() < n {
            self.allocs += 1;
            while self.resid.node_count() < n {
                self.resid.add_node(());
            }
        }
        for e in g.edge_ids() {
            if !filter(e) {
                continue;
            }
            let (u, v) = g.endpoints(e);
            if self.mask.get(e.index()) {
                // Tight tree edge: zero-cost reversal.
                self.resid.add_edge(
                    v,
                    u,
                    ResidArc {
                        reduced: 0.0,
                        orig: e,
                        reversed: true,
                    },
                );
            } else {
                let h_v = h(v.index());
                if h_v == f64::INFINITY {
                    continue;
                }
                let pi_u = self.t1.dist(u.index()).min(d_t - h(u.index()));
                let pi_v = self.t1.dist(v.index()).min(d_t - h_v);
                // Floating-point noise can push a tight edge to -epsilon.
                let red = (cost(e) + pi_u - pi_v).max(0.0);
                self.resid.add_edge(
                    u,
                    v,
                    ResidArc {
                        reduced: red,
                        orig: e,
                        reversed: false,
                    },
                );
            }
        }
        let (t2, resid) = (&mut self.t2, &self.resid);
        let (grew, popped) = dijkstra_into(
            t2,
            &mut self.queues.heap,
            resid,
            s,
            t,
            |e| resid.edge(e).reduced,
            |_| true,
            |_| 0.0,
        );
        self.allocs += grew as u64;
        self.settled[1] += popped;
        if !self.t2.reached(t) {
            return None;
        }
        let p2 = self.t2.path_to(&self.resid, t).expect("t is reached");

        // Interleaving removal: cancel (e, reverse(e)) pairs. The mask
        // holds P1's edges, and a cancelled one leaves it; the survivors are
        // pass 2's forward arcs plus P1's uncancelled ones.
        let cap = self.survivors.capacity();
        self.survivors.clear();
        for &re in &p2.edges {
            let arc = self.resid.edge(re);
            if arc.reversed {
                debug_assert!(self.mask.get(arc.orig.index()), "reversal of non-P1 edge");
                self.mask.set(arc.orig.index(), false);
            } else {
                debug_assert!(
                    !self.mask.get(arc.orig.index()),
                    "forward arc duplicates P1 edge"
                );
                self.survivors.push(arc.orig);
            }
        }
        for &e in &p1.edges {
            if self.mask.get(e.index()) {
                self.survivors.push(e);
            }
        }
        self.allocs += (self.survivors.capacity() != cap) as u64;
        Some(self.decompose(n, s, t, |e| g.src(e), |e| g.dst(e), cost))
    }

    /// Splits the surviving arcs into the two `s -> t` paths by walking
    /// from `s` (every interior node has equal in/out degree). The arcs are
    /// pushed onto their tails' out-lists in ascending arc id, the order a
    /// scan over every arc would push them in, which fixes both the walk's
    /// choice at each node and the summation order of the total; only the
    /// survivors' out-lists are touched.
    fn decompose(
        &mut self,
        n: usize,
        s: NodeId,
        t: NodeId,
        src: impl Fn(EdgeId) -> NodeId,
        dst: impl Fn(EdgeId) -> NodeId,
        mut cost: impl FnMut(EdgeId) -> f64,
    ) -> crate::suurballe::DisjointPair {
        if self.out_lists.len() < n {
            self.out_lists.resize_with(n, Vec::new);
            self.allocs += 1;
        }
        self.survivors.sort_unstable();
        let mut total = 0.0;
        for &e in &self.survivors {
            self.out_lists[src(e).index()].push(e);
            total += cost(e);
        }
        let out_lists = &mut self.out_lists;
        let mut walk = || -> Path {
            let mut edges = Vec::new();
            let mut at = s;
            while at != t {
                let e = out_lists[at.index()]
                    .pop()
                    .expect("balanced edge set cannot strand a walk before t");
                edges.push(e);
                at = dst(e);
            }
            Path {
                src: s,
                dst: t,
                edges,
            }
        };
        let a = walk();
        let b = walk();
        debug_assert!(
            self.survivors
                .iter()
                .all(|&e| self.out_lists[src(e).index()].is_empty()),
            "leftover edges after extracting two paths (zero-cost cycle?)"
        );
        // Defensive in release builds: a zero-cost cycle must not leak edges
        // into the next search served by this arena.
        for &e in &self.survivors {
            self.out_lists[src(e).index()].clear();
        }
        let (first, second) = if a.cost(&mut cost) <= b.cost(&mut cost) {
            (a, b)
        } else {
            (b, a)
        };
        debug_assert!(!first.shares_edge_with(&second));
        crate::suurballe::DisjointPair {
            paths: [first, second],
            total_cost: total,
        }
    }

    /// [`SearchArena::edge_disjoint_pair`] over a [`FlatView`]: identical
    /// algorithm, identical tie-breaking, bit-identical results under the
    /// same bound `h` — but every traversal runs over contiguous CSR arrays
    /// instead of pointer-chased adjacency lists, and the Suurballe residual
    /// graph is an overlay on the forward slots instead of a materialised
    /// graph. Each pass runs on the queue `Queues::select` picks: `u64` keys
    /// on the bucket queue when `int` certifies the weights and the pass's
    /// key window fits, `f64` keys on the d-ary heap otherwise; the pair is
    /// the same either way. `pass1_done` fires once after the pass-1 tree
    /// and P1 extraction, the observation point for per-pass timing.
    pub fn edge_disjoint_pair_flat(
        &mut self,
        g: &FlatView<'_>,
        int: Option<&IntWeights<'_>>,
        s: NodeId,
        t: NodeId,
        h: impl Fn(usize) -> f64,
        mut pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        let n = g.node_count();
        let m = g.arc_count();
        debug_assert_eq!(g.heads.len(), g.slot_arc.len());
        debug_assert!(g.src.len() == m && g.dst.len() == m && g.enabled.len() == m);
        debug_assert!(
            g.arc_slot.len() == m && g.slot_weight.len() == m && g.slot_enabled.len() == m
        );
        debug_assert!(s.index() < n && t.index() < n);
        if s == t {
            return None;
        }
        if let Some(iw) = int {
            debug_assert_eq!(iw.key.len(), m);
            // Exactness guard: every distance is a sum of < n keys, A* keys
            // and potentials add a bound, and residual reduced costs add two
            // potentials — all must stay exactly representable in f64.
            debug_assert!(
                (n as u64 + 2)
                    .saturating_mul(iw.max_key.max(1))
                    .saturating_add(iw.max_bound_key.saturating_mul(2))
                    < (1 << 52),
                "integer keys too large for exact f64 mirroring"
            );
        }
        // ---- Pass 1. An A* key rises by at most w + h(v) - h(u) <=
        // max_key + max_bound_key per arc, which bounds the live window.
        self.allocs += self.t1.begin(n, s) as u64;
        let span1 = |iw: &IntWeights<'_>| iw.max_key + iw.max_bound_key + 1;
        let queue = self.queues.select(n, g, int, span1, &mut self.allocs);
        let (d_t, popped) = match queue {
            Queue::Bucket(q, keys) => flat_pass1(&mut self.t1, q, keys, g, s, t, &h),
            Queue::Heap(q, keys) => flat_pass1(&mut self.t1, q, keys, g, s, t, &h),
        };
        self.settled[0] += popped;
        let d_t = d_t?;
        let p1 = self.t1.path_to_flat(g.src, t).expect("t is reached");
        self.allocs += self.mask.begin(m) as u64;
        self.allocs += self.mask_slot.begin(m) as u64;
        for &e in &p1.edges {
            self.mask.set(e.index(), true);
            self.mask_slot.set(g.arc_slot[e.index()] as usize, true);
        }
        pass1_done();

        // ---- Pass 2 over the residual overlay. P1 is a simple path, so a
        // node has at most one masked in-arc, i.e. at most one reversed
        // residual arc rooted at it.
        if self.rev_at.len() < n {
            self.rev_at.resize(n, u32::MAX);
            self.allocs += 1;
        }
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = e.index() as u32;
        }
        self.allocs += self.t2.begin(n, s) as u64;
        // Potentials lie in [min(0, d(t) - max h), d(t)], so reduced keys
        // never exceed max_key + max(d(t), max h) in key units.
        let span2 = |iw: &IntWeights<'_>| {
            let d_t_key = (d_t * (1u64 << iw.scale_shift) as f64) as u64;
            iw.max_key + d_t_key.max(iw.max_bound_key) + 1
        };
        let queue = self.queues.select(n, g, int, span2, &mut self.allocs);
        let (t1, masked, rev_at) = (&self.t1, &self.mask_slot, &self.rev_at[..]);
        let popped = match queue {
            Queue::Bucket(q, keys) => {
                flat_pass2(&mut self.t2, q, keys, g, t1, d_t, masked, rev_at, s, t, &h)
            }
            Queue::Heap(q, keys) => {
                flat_pass2(&mut self.t2, q, keys, g, t1, d_t, masked, rev_at, s, t, &h)
            }
        };
        self.settled[1] += popped;
        // The overlay is per-request state: clear it before any return.
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = u32::MAX;
        }
        if !self.t2.reached(t) {
            return None;
        }

        // Interleaving removal straight off the pass-2 predecessor codes:
        // cancel (e, reverse(e)) pairs, as the pointer path does.
        let cap = self.survivors.capacity();
        self.survivors.clear();
        let mut at = t.index();
        while at != s.index() {
            let code = self
                .t2
                .pred(at)
                .expect("reached non-source node must have a pred edge")
                .index();
            let (a, rev) = (code >> 1, code & 1 == 1);
            if rev {
                debug_assert!(self.mask.get(a), "reversal of non-P1 edge");
                self.mask.set(a, false);
                at = g.dst[a] as usize;
            } else {
                debug_assert!(!self.mask.get(a), "forward arc duplicates P1 edge");
                self.survivors.push(EdgeId::from(a));
                at = g.src[a] as usize;
            }
        }
        for &e in &p1.edges {
            if self.mask.get(e.index()) {
                self.survivors.push(e);
            }
        }
        self.allocs += (self.survivors.capacity() != cap) as u64;
        Some(self.decompose(
            n,
            s,
            t,
            |e| NodeId::from(g.src[e.index()] as usize),
            |e| NodeId::from(g.dst[e.index()] as usize),
            |e| g.weight[e.index()],
        ))
    }
}

/// A queue key of the flat kernel: `f64` cost, or `u64` fixed-point at
/// `2^-scale_shift` under an [`IntWeights`] certificate. Both keys order
/// the same, and the kernel's f64 arithmetic is the same under both, so the
/// two instantiations return the same pair bit for bit.
trait Key: Copy + PartialOrd + core::ops::Add<Output = Self> {
    /// The key of `cost` in units of `1 / scale`.
    fn from_cost(cost: f64, scale: f64) -> Self;
    /// The cost of this key, in units of `1 / inv_scale`.
    fn to_cost(self, inv_scale: f64) -> f64;
    /// This key as an f64 in key units: pass 2's labels, which only order
    /// its search.
    fn label(self) -> f64;
}

impl Key for f64 {
    #[inline]
    fn from_cost(cost: f64, _: f64) -> f64 {
        cost
    }

    #[inline]
    fn to_cost(self, _: f64) -> f64 {
        self
    }

    #[inline]
    fn label(self) -> f64 {
        self
    }
}

impl Key for u64 {
    /// Exact for every certified cost the kernel converts.
    #[inline]
    fn from_cost(cost: f64, scale: f64) -> u64 {
        (cost * scale) as u64
    }

    /// Exact below 2^53 (guarded), and scaling by a power of two keeps the
    /// order: the pass-1 tree holds the `f64` instantiation's distances.
    #[inline]
    fn to_cost(self, inv_scale: f64) -> f64 {
        self as f64 * inv_scale
    }

    /// Exact below 2^53 (guarded).
    #[inline]
    fn label(self) -> f64 {
        self as f64
    }
}

/// What one instantiation of the flat kernel keys its queue with: the arc
/// key per CSR slot and the scale of a key unit (1 for `f64` keys).
#[derive(Clone, Copy)]
struct Keys<'a, K> {
    arc: &'a [K],
    scale: f64,
    inv_scale: f64,
}

impl<K: Key> Keys<'_, K> {
    #[inline]
    fn of(&self, cost: f64) -> K {
        K::from_cost(cost, self.scale)
    }

    #[inline]
    fn cost(&self, key: K) -> f64 {
        key.to_cost(self.inv_scale)
    }
}

/// The arena's two queues: the d-ary heap, which the pointer search and
/// the flat kernel's `f64` instantiation run on, and the bucket queue of
/// its `u64` one.
#[derive(Debug, Clone)]
struct Queues {
    heap: DaryHeap<f64, 4>,
    bucket: BucketQueue,
}

/// The queue and keys one pass of the flat kernel runs on.
enum Queue<'a> {
    Bucket(&'a mut BucketQueue, Keys<'a, u64>),
    Heap(&'a mut DaryHeap<f64, 4>, Keys<'a, f64>),
}

impl Queues {
    /// Queue selection for one flat pass over `n` nodes: the `u64` keys of
    /// `int` on the bucket queue when they certify the weights and the
    /// pass's key window, `span(int)` buckets, fits [`BUCKET_SPAN_CAP`];
    /// otherwise the `f64` weights on the d-ary heap. Both queues pop in
    /// the same `(key, id)` order, so only speed depends on the choice. The
    /// chosen queue is emptied and sized; `allocs` counts a bucket growth.
    fn select<'a>(
        &'a mut self,
        n: usize,
        g: &FlatView<'a>,
        int: Option<&IntWeights<'a>>,
        span: impl FnOnce(&IntWeights<'a>) -> u64,
        allocs: &mut u64,
    ) -> Queue<'a> {
        if let Some(iw) = int {
            let span = span(iw);
            if span <= BUCKET_SPAN_CAP {
                self.bucket.clear();
                *allocs += self.bucket.ensure(n, span) as u64;
                let scale = (1u64 << iw.scale_shift) as f64;
                let keys = Keys {
                    arc: iw.key,
                    scale,
                    inv_scale: 1.0 / scale,
                };
                return Queue::Bucket(&mut self.bucket, keys);
            }
        }
        self.heap.ensure_capacity(n);
        self.heap.clear();
        let keys = Keys {
            arc: g.slot_weight,
            scale: 1.0,
            inv_scale: 1.0,
        };
        Queue::Heap(&mut self.heap, keys)
    }
}

/// Pass 1 of the flat kernel: A* from `s` over the enabled arcs under `h`,
/// stopped when `t` is popped (as the pointer path does). Queue keys are
/// `d(v) + h(v)` in key units; the tree holds `d(v)` in cost units. Nodes
/// with `h = inf` are never labelled. The source's key is 0, below every
/// later key. Returns `d(t)`, if `t` was reached, and the nodes popped.
fn flat_pass1<K: Key>(
    tree: &mut TreeBank,
    queue: &mut impl MinQueue<K>,
    keys: Keys<'_, K>,
    g: &FlatView<'_>,
    s: NodeId,
    t: NodeId,
    h: &impl Fn(usize) -> f64,
) -> (Option<f64>, u64) {
    let mut popped = 0u64;
    tree.set(s.index(), 0.0, None);
    queue.insert(s.index(), keys.of(0.0));
    while let Some((u, _)) = queue.pop_min() {
        popped += 1;
        if u == t.index() {
            return (Some(tree.dist(u)), popped);
        }
        let du = keys.of(tree.dist(u));
        for slot in g.out_range(u) {
            if !g.slot_enabled[slot] {
                continue;
            }
            debug_assert!(g.slot_weight[slot] >= 0.0, "negative weight in slot {slot}");
            let v = g.heads[slot] as usize;
            let nd = du + keys.arc[slot];
            let ndf = keys.cost(nd);
            if ndf < tree.dist(v) {
                let h_v = h(v);
                if h_v == f64::INFINITY {
                    continue;
                }
                tree.set(v, ndf, Some(EdgeId::from(g.slot_arc[slot] as usize)));
                queue.insert_or_decrease(v, nd + keys.of(h_v));
            }
        }
    }
    (None, popped)
}

/// Pass 2 of the flat kernel, straight over the CSR (no residual graph is
/// materialised). The residual is every enabled arc outside P1 (`masked`,
/// by slot) into a node with finite `h`, at reduced cost
/// `(w + pi(u) - pi(v)).max(0)` under `pi(v) = min(d(v), d(t) - h(v))`
/// (tentative and unreached nodes take `d(t) - h(v)`, exactly as in the
/// pointer path), plus each P1 arc reversed at reduced cost 0. Merging the
/// reversed arc at a node (`rev_at`) into the forward slot scan by
/// ascending arc id reproduces the pointer path's residual insertion order,
/// and therefore every relaxation tie. The tree's labels stay in key units
/// (only its reachability and predecessors are read), and its predecessor
/// arcs are encoded as `arc << 1 | reversed`. Returns the nodes popped.
#[allow(clippy::too_many_arguments)]
fn flat_pass2<K: Key>(
    tree: &mut TreeBank,
    queue: &mut impl MinQueue<K>,
    keys: Keys<'_, K>,
    g: &FlatView<'_>,
    t1: &TreeBank,
    d_t: f64,
    masked: &EdgeMask,
    rev_at: &[u32],
    s: NodeId,
    t: NodeId,
    h: &impl Fn(usize) -> f64,
) -> u64 {
    let mut popped = 0u64;
    tree.set(s.index(), 0.0, None);
    queue.insert(s.index(), keys.of(0.0));
    while let Some((u, du)) = queue.pop_min() {
        popped += 1;
        if u == t.index() {
            break;
        }
        let pi_u = t1.dist(u).min(d_t - h(u));
        let mut pending_rev = rev_at[u];
        for slot in g.out_range(u) {
            if (pending_rev as usize) < g.slot_arc[slot] as usize {
                let ra = pending_rev as usize;
                pending_rev = u32::MAX;
                relax(tree, queue, g.src[ra] as usize, du, (ra << 1) | 1);
            }
            if !g.slot_enabled[slot] || masked.get(slot) {
                continue;
            }
            let v = g.heads[slot] as usize;
            let h_v = h(v);
            if h_v == f64::INFINITY {
                continue;
            }
            // Floating-point noise can push a tight edge to -epsilon; clamp
            // exactly as the pointer path does.
            let red = (g.slot_weight[slot] + pi_u - t1.dist(v).min(d_t - h_v)).max(0.0);
            let a = g.slot_arc[slot] as usize;
            relax(tree, queue, v, du + keys.of(red), a << 1);
        }
        if pending_rev != u32::MAX {
            let ra = pending_rev as usize;
            relax(tree, queue, g.src[ra] as usize, du, (ra << 1) | 1);
        }
    }
    popped
}

/// Relaxes `v` to key `nd` over the pass-2 arc coded `code`.
#[inline]
fn relax<K: Key>(tree: &mut TreeBank, queue: &mut impl MinQueue<K>, v: usize, nd: K, code: usize) {
    let ndf = nd.label();
    if ndf < tree.dist(v) {
        tree.set(v, ndf, Some(EdgeId::from(code)));
        queue.insert_or_decrease(v, nd);
    }
}

/// A* into a [`TreeBank`] under the sink bound `h`, stopped when `target`
/// is popped: the relaxation loop of
/// [`dijkstra_generic`](crate::dijkstra::dijkstra_generic) with the default
/// 4-ary heap keyed by `d(v) + h(v)`, writing into reused buffers. Nodes
/// with `h = inf` are never labelled, and the source's key is 0. Under
/// `h ≡ 0` this is Dijkstra's exact operation sequence. Returns whether the
/// tree bank had to grow (an allocation event) and how many nodes were
/// popped.
#[allow(clippy::too_many_arguments)]
fn dijkstra_into<N, E>(
    bank: &mut TreeBank,
    heap: &mut DaryHeap<f64, 4>,
    g: &DiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    mut filter: impl FnMut(EdgeId) -> bool,
    h: impl Fn(usize) -> f64,
) -> (bool, u64) {
    let n = g.node_count();
    let grew = bank.begin(n, source);
    heap.ensure_capacity(n);
    heap.clear();
    bank.set(source.index(), 0.0, None);
    heap.insert(source.index(), 0.0);
    let mut popped = 0u64;
    while let Some((u_idx, _)) = heap.pop_min() {
        popped += 1;
        let u = NodeId::from(u_idx);
        if u == target {
            break;
        }
        let du = bank.dist(u_idx);
        for &e in g.out_edges(u) {
            if !filter(e) {
                continue;
            }
            let w = cost(e);
            debug_assert!(w >= 0.0, "negative arc weight {w} on {e:?}");
            let v = g.dst(e);
            let nd = du + w;
            if nd < bank.dist(v.index()) {
                let h_v = h(v.index());
                if h_v == f64::INFINITY {
                    continue;
                }
                bank.set(v.index(), nd, Some(e));
                heap.insert_or_decrease(v.index(), nd + h_v);
            }
        }
    }
    (grew, popped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suurballe::edge_disjoint_pair_filtered;
    use crate::topology;
    use rand::{Rng, SeedableRng};

    fn random_graph(rng: &mut impl Rng, n: usize, p: f64) -> DiGraph<(), f64> {
        random_graph_halves(rng, n, p, 20)
    }

    /// Random digraph whose arc weights are `k / 2` for `k` in
    /// `1..=levels`: few levels make many equal-cost ties.
    fn random_graph_halves(rng: &mut impl Rng, n: usize, p: f64, levels: u32) -> DiGraph<(), f64> {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen_bool(p) {
                    g.add_edge(
                        NodeId::from(u),
                        NodeId::from(v),
                        (rng.gen_range(1..=levels) as f64) / 2.0,
                    );
                }
            }
        }
        g
    }

    /// The arena variant must be indistinguishable from the allocating one,
    /// including exact path choice among cost ties.
    #[test]
    fn arena_pair_matches_allocating_pair() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
        let mut arena = SearchArena::new();
        for trial in 0..200 {
            let n = rng.gen_range(2..14);
            let g = random_graph(&mut rng, n, 0.3);
            let s = NodeId::from(rng.gen_range(0..n));
            let t = NodeId::from(rng.gen_range(0..n));
            let banned = EdgeId::from(rng.gen_range(0..g.edge_count().max(1)));
            let filter = |e: EdgeId| e != banned;
            let base = edge_disjoint_pair_filtered(&g, s, t, |e| g.weight(e), filter);
            let fast = arena.edge_disjoint_pair(&g, s, t, |e| g.weight(e), filter, |_| 0.0);
            match (base, fast) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "t{trial}");
                    assert_eq!(a.paths[0].edges, b.paths[0].edges, "trial {trial}");
                    assert_eq!(a.paths[1].edges, b.paths[1].edges, "trial {trial}");
                }
                (a, b) => panic!("trial {trial}: feasibility disagrees ({a:?} vs {b:?})"),
            }
        }
    }

    /// A warmed-up arena serves same-size searches without allocating.
    #[test]
    fn alloc_events_plateau_after_warmup() {
        let mut arena = SearchArena::new();
        let g = topology::ring(24, 1.0);
        let unguided = |_| 0.0;
        arena
            .edge_disjoint_pair(
                &g,
                NodeId(0),
                NodeId(12),
                |e| g.weight(e),
                |_| true,
                unguided,
            )
            .unwrap();
        let after_warmup = arena.alloc_events();
        assert!(after_warmup > 0, "first search must grow the buffers");
        for _ in 0..10 {
            arena
                .edge_disjoint_pair(
                    &g,
                    NodeId(0),
                    NodeId(12),
                    |e| g.weight(e),
                    |_| true,
                    unguided,
                )
                .unwrap();
        }
        assert_eq!(arena.alloc_events(), after_warmup);
    }

    /// Owned flat arrays mirroring a `DiGraph<(), f64>` (test scaffolding for
    /// the `FlatView` paths; production views are built by the aux engine).
    struct FlatArrays {
        offsets: Vec<u32>,
        heads: Vec<u32>,
        slot_arc: Vec<u32>,
        arc_slot: Vec<u32>,
        src: Vec<u32>,
        dst: Vec<u32>,
        weight: Vec<f64>,
        enabled: Vec<bool>,
        slot_weight: Vec<f64>,
        slot_enabled: Vec<bool>,
        key: Vec<u64>,
        /// `key` at `2^-WIDE_SHIFT`.
        wide_key: Vec<u64>,
        max_key: u64,
    }

    const TEST_SHIFT: u32 = 6;
    /// A scale at which every test weight (at least ½) keys above
    /// `BUCKET_SPAN_CAP`.
    const WIDE_SHIFT: u32 = 20;

    impl FlatArrays {
        fn build(g: &DiGraph<(), f64>, mut filter: impl FnMut(EdgeId) -> bool) -> Self {
            let n = g.node_count();
            let m = g.edge_count();
            let scale = (1u64 << TEST_SHIFT) as f64;
            let mut f = Self {
                offsets: Vec::with_capacity(n + 1),
                heads: Vec::with_capacity(m),
                slot_arc: Vec::with_capacity(m),
                arc_slot: vec![0; m],
                src: vec![0; m],
                dst: vec![0; m],
                weight: vec![0.0; m],
                enabled: vec![false; m],
                slot_weight: vec![0.0; m],
                slot_enabled: vec![false; m],
                key: vec![0; m],
                wide_key: vec![0; m],
                max_key: 0,
            };
            for v in g.node_ids() {
                f.offsets.push(f.heads.len() as u32);
                for &e in g.out_edges(v) {
                    f.heads.push(g.dst(e).index() as u32);
                    f.slot_arc.push(e.index() as u32);
                }
            }
            f.offsets.push(f.heads.len() as u32);
            for (slot, &a) in f.slot_arc.iter().enumerate() {
                f.arc_slot[a as usize] = slot as u32;
            }
            for e in g.edge_ids() {
                let i = e.index();
                f.src[i] = g.src(e).index() as u32;
                f.dst[i] = g.dst(e).index() as u32;
                f.weight[i] = g.weight(e);
                f.enabled[i] = filter(e);
                let k = (g.weight(e) * scale) as u64;
                assert_eq!(k as f64 / scale, g.weight(e), "test weights must be dyadic");
                let slot = f.arc_slot[i] as usize;
                f.slot_weight[slot] = f.weight[i];
                f.slot_enabled[slot] = f.enabled[i];
                f.key[slot] = k;
                f.wide_key[slot] = k << (WIDE_SHIFT - TEST_SHIFT);
                if f.enabled[i] {
                    f.max_key = f.max_key.max(k);
                }
            }
            f
        }

        fn view(&self) -> FlatView<'_> {
            FlatView {
                offsets: &self.offsets,
                heads: &self.heads,
                slot_arc: &self.slot_arc,
                arc_slot: &self.arc_slot,
                src: &self.src,
                dst: &self.dst,
                weight: &self.weight,
                enabled: &self.enabled,
                slot_weight: &self.slot_weight,
                slot_enabled: &self.slot_enabled,
            }
        }

        /// The integer view for a search whose finite bound values are at
        /// most `max_bound` (in cost units).
        fn int(&self, max_bound: f64) -> IntWeights<'_> {
            self.int_at(&self.key, TEST_SHIFT, max_bound)
        }

        /// [`FlatArrays::int`] at `2^-WIDE_SHIFT`: both passes' key windows
        /// exceed `BUCKET_SPAN_CAP`, so both take the d-ary-heap fallback,
        /// and a bucket queue sized to the cap would see keys outside its
        /// window.
        fn wide(&self, max_bound: f64) -> IntWeights<'_> {
            self.int_at(&self.wide_key, WIDE_SHIFT, max_bound)
        }

        fn int_at<'a>(&self, key: &'a [u64], shift: u32, max_bound: f64) -> IntWeights<'a> {
            IntWeights {
                key,
                scale_shift: shift,
                max_key: self.max_key << (shift - TEST_SHIFT),
                max_bound_key: (max_bound * (1u64 << shift) as f64) as u64,
            }
        }
    }

    fn assert_same_pair(
        a: &Option<crate::suurballe::DisjointPair>,
        b: &Option<crate::suurballe::DisjointPair>,
        ctx: &str,
    ) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "{ctx}");
                assert_eq!(a.paths[0].edges, b.paths[0].edges, "{ctx}");
                assert_eq!(a.paths[1].edges, b.paths[1].edges, "{ctx}");
            }
            _ => panic!("{ctx}: feasibility disagrees"),
        }
    }

    /// The flat f64 path and the integer/bucket path must both be
    /// bit-identical to the pointer-based arena search.
    #[test]
    fn flat_paths_match_pointer_path() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1A7);
        let mut ptr_arena = SearchArena::new();
        let mut flat_arena = SearchArena::new();
        let mut int_arena = SearchArena::new();
        for trial in 0..200 {
            let n = rng.gen_range(2..14);
            let g = random_graph(&mut rng, n, 0.3);
            let s = NodeId::from(rng.gen_range(0..n));
            let t = NodeId::from(rng.gen_range(0..n));
            let banned = EdgeId::from(rng.gen_range(0..g.edge_count().max(1)));
            let flat = FlatArrays::build(&g, |e| e != banned);
            let base =
                ptr_arena.edge_disjoint_pair(&g, s, t, |e| g.weight(e), |e| e != banned, |_| 0.0);
            let f64_pair =
                flat_arena.edge_disjoint_pair_flat(&flat.view(), None, s, t, |_| 0.0, || {});
            let int_pair = int_arena.edge_disjoint_pair_flat(
                &flat.view(),
                Some(&flat.int(0.0)),
                s,
                t,
                |_| 0.0,
                || {},
            );
            assert_same_pair(&base, &f64_pair, &format!("flat f64, trial {trial}"));
            assert_same_pair(&base, &int_pair, &format!("flat int, trial {trial}"));
        }
    }

    /// Suurballe with an exhaustive pass 1 and uncapped potentials `d(v)`:
    /// the reference the early exit is checked against. Returns the pair
    /// and the full pass-1 distances.
    fn exhaustive_pair(
        g: &DiGraph<(), f64>,
        s: NodeId,
        t: NodeId,
    ) -> (Option<crate::suurballe::DisjointPair>, Vec<Option<f64>>) {
        let tree = crate::dijkstra::dijkstra(g, s, |e| g.weight(e));
        let d: Vec<Option<f64>> = g.node_ids().map(|v| tree.distance(v)).collect();
        if s == t {
            return (None, d);
        }
        let Some(p1) = tree.path_to(g, t) else {
            return (None, d);
        };
        let mut keep = vec![false; g.edge_count()];
        for &e in &p1.edges {
            keep[e.index()] = true;
        }
        // Residual arcs: (original edge, reversed, reduced cost).
        let mut resid: DiGraph<(), (EdgeId, bool, f64)> = DiGraph::new();
        for _ in g.node_ids() {
            resid.add_node(());
        }
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            if keep[e.index()] {
                resid.add_edge(v, u, (e, true, 0.0));
            } else if let (Some(du), Some(dv)) = (d[u.index()], d[v.index()]) {
                resid.add_edge(u, v, (e, false, (g.weight(e) + du - dv).max(0.0)));
            }
        }
        let tree2 = crate::dijkstra::dijkstra_to(&resid, s, t, |a| resid.edge(a).2);
        let Some(p2) = tree2.path_to(&resid, t) else {
            return (None, d);
        };
        for &a in &p2.edges {
            let (e, reversed, _) = *resid.edge(a);
            keep[e.index()] = !reversed;
        }
        let mut out: Vec<Vec<EdgeId>> = vec![Vec::new(); g.node_count()];
        let mut total = 0.0;
        for e in g.edge_ids() {
            if keep[e.index()] {
                out[g.src(e).index()].push(e);
                total += g.weight(e);
            }
        }
        let mut walk = || {
            let mut edges = Vec::new();
            let mut at = s;
            while at != t {
                let e = out[at.index()].pop().expect("balanced edge set");
                edges.push(e);
                at = g.dst(e);
            }
            Path {
                src: s,
                dst: t,
                edges,
            }
        };
        let (a, b) = (walk(), walk());
        let pair = crate::suurballe::DisjointPair {
            paths: [a, b],
            total_cost: total,
        };
        (Some(pair), d)
    }

    /// Distance from every node to `t` (reverse Dijkstra), `None` where `t`
    /// is unreachable: the exact sink bound the guided tests scale.
    fn distances_to(g: &DiGraph<(), f64>, t: NodeId) -> Vec<Option<f64>> {
        let mut rev: DiGraph<(), f64> = DiGraph::new();
        for _ in g.node_ids() {
            rev.add_node(());
        }
        for e in g.edge_ids() {
            rev.add_edge(g.dst(e), g.src(e), g.weight(e));
        }
        let tree = crate::dijkstra::dijkstra(&rev, t, |e| rev.weight(e));
        g.node_ids().map(|v| tree.distance(v)).collect()
    }

    /// Runs the pointer search and the CSR search on f64 keys, on integer
    /// keys, and on integer keys too wide for the bucket queue (the d-ary
    /// heap fallback) under one bound, and checks that they agree bit for
    /// bit; returns the pointer pair.
    fn four_way(
        arenas: &mut [SearchArena; 4],
        g: &DiGraph<(), f64>,
        flat: &FlatArrays,
        s: NodeId,
        t: NodeId,
        h: &[f64],
        ctx: &str,
    ) -> Option<crate::suurballe::DisjointPair> {
        let max_bound = h
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .fold(0.0, f64::max);
        let [ptr_arena, flat_arena, int_arena, wide_arena] = arenas;
        let ptr = ptr_arena.edge_disjoint_pair(g, s, t, |e| g.weight(e), |_| true, |v| h[v]);
        let view = flat.view();
        let f64_pair = flat_arena.edge_disjoint_pair_flat(&view, None, s, t, |v| h[v], || {});
        let int = flat.int(max_bound);
        let int_pair = int_arena.edge_disjoint_pair_flat(&view, Some(&int), s, t, |v| h[v], || {});
        let wide = flat.wide(max_bound);
        let wide_pair =
            wide_arena.edge_disjoint_pair_flat(&view, Some(&wide), s, t, |v| h[v], || {});
        assert_same_pair(&ptr, &f64_pair, &format!("flat f64, {ctx}"));
        assert_same_pair(&ptr, &int_pair, &format!("flat int, {ctx}"));
        assert_same_pair(&ptr, &wide_pair, &format!("flat int past the cap, {ctx}"));
        ptr
    }

    /// The sorted edge set of a pair (paths differ only among ties).
    fn edge_set(p: &crate::suurballe::DisjointPair) -> Vec<EdgeId> {
        let mut all: Vec<EdgeId> = p
            .paths
            .iter()
            .flat_map(|x| x.edges.iter().copied())
            .collect();
        all.sort();
        all
    }

    /// Stopping pass 1 at `t` finds a minimum-cost pair, unguided and under
    /// the consistent sink bounds `h = λ·dist(v → t)` for `λ ∈ {0, ½, 1}`
    /// (`h = ∞` where `t` is unreachable): the total-cost bits and the
    /// feasibility of all four searches of `four_way` match the exhaustive
    /// reference, and the four agree on edges under every bound, over
    /// repeated solves on one arena per search. The trials must
    /// include pairs that differ from the reference's and guided pairs that
    /// differ from the unguided one (cost ties), unguided second paths
    /// through nodes farther than `d(t)` and guided ones through nodes with
    /// `d(v) + h(v) > d(t)`, which pass 1 never settles, and nodes pruned
    /// by `h = ∞` that plain Dijkstra settles before `t`. The last 100
    /// trials are sparse, so some nodes cannot reach `t`.
    #[test]
    fn early_exit_matches_exhaustive_suurballe() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x3A3A);
        let mut arenas: [SearchArena; 4] = Default::default();
        let (mut routed, mut differ, mut beyond_cap) = (0, 0, 0);
        let (mut guided_differ, mut beyond_bound, mut pruned) = (0, 0, 0);
        for trial in 0..250 {
            let n = rng.gen_range(4..14);
            let levels = if trial % 2 == 0 { 20 } else { 3 };
            let p = if trial < 150 { 0.4 } else { 0.2 };
            let g = random_graph_halves(&mut rng, n, p, levels);
            let flat = FlatArrays::build(&g, |_| true);
            for solve in 0..12 {
                let ctx = format!("trial {trial} solve {solve}");
                let s = NodeId::from(rng.gen_range(0..n));
                let t = NodeId::from(rng.gen_range(0..n));
                let (reference, d) = exhaustive_pair(&g, s, t);
                let to_t = distances_to(&g, t);
                let unguided = vec![0.0; n];
                let mut bounds = vec![("unguided".to_string(), unguided)];
                for lambda in [0.0, 0.5, 1.0] {
                    let h = to_t
                        .iter()
                        .map(|x| x.map_or(f64::INFINITY, |x| lambda * x))
                        .collect();
                    bounds.push((format!("lambda {lambda}"), h));
                }
                let mut pairs = Vec::new();
                for (bound, h) in &bounds {
                    let ctx = format!("{bound}, {ctx}");
                    let got = four_way(&mut arenas, &g, &flat, s, t, h, &ctx);
                    match (&reference, &got) {
                        (None, None) => {}
                        (Some(r), Some(p)) => {
                            assert_eq!(r.total_cost.to_bits(), p.total_cost.to_bits(), "{ctx}");
                            assert!(p.is_edge_disjoint(), "{ctx}");
                            let mut sum = 0.0;
                            for path in &p.paths {
                                assert_eq!((path.src, path.dst), (s, t), "{ctx}");
                                assert_eq!(g.src(path.edges[0]), s, "{ctx}");
                                for w in path.edges.windows(2) {
                                    assert_eq!(g.dst(w[0]), g.src(w[1]), "{ctx}");
                                }
                                assert_eq!(g.dst(*path.edges.last().unwrap()), t, "{ctx}");
                                sum += path.cost(|e| g.weight(e));
                            }
                            assert_eq!(sum, p.total_cost, "{ctx}");
                        }
                        _ => panic!("{ctx}: feasibility disagrees"),
                    }
                    pairs.push(got);
                }
                let Some(r) = &reference else {
                    continue;
                };
                let d_t = d[t.index()].expect("t is reached");
                if g.node_ids()
                    .any(|v| to_t[v.index()].is_none() && d[v.index()].is_some_and(|dv| dv < d_t))
                {
                    pruned += 1;
                }
                let unguided = pairs[0].as_ref().expect("feasible");
                routed += 1;
                if edge_set(r) != edge_set(unguided) {
                    differ += 1;
                }
                let far = |e: &EdgeId| d[g.dst(*e).index()].is_some_and(|dv| dv > d_t);
                if unguided.paths.iter().any(|x| x.edges.iter().any(far)) {
                    beyond_cap += 1;
                }
                for ((_, h), pair) in bounds.iter().zip(&pairs).skip(1) {
                    let pair = pair.as_ref().expect("feasible");
                    if edge_set(pair) != edge_set(unguided) {
                        guided_differ += 1;
                    }
                    let unsettled = |e: &EdgeId| {
                        let v = g.dst(*e).index();
                        d[v].is_some_and(|dv| dv + h[v] > d_t)
                    };
                    if pair.paths.iter().any(|x| x.edges.iter().any(unsettled)) {
                        beyond_bound += 1;
                    }
                }
            }
        }
        assert!(routed >= 500, "only {routed} routed solves");
        assert!(differ > 0, "no solve picked a different equal-cost pair");
        assert!(beyond_cap > 0, "no pair crossed a node beyond d(t)");
        assert!(
            guided_differ > 0,
            "no guided pair differed from the unguided one"
        );
        assert!(
            beyond_bound > 0,
            "no guided pair crossed a node pass 1 left unsettled"
        );
        assert!(pruned > 0, "no solve pruned a node plain Dijkstra settles");
    }

    /// Pass 2 reaches nodes pass 1 never settled: `s -> t` costs 1, so
    /// pass 1 stops while `a` is tentative (at 5) and `b` unreached, yet
    /// the only second path is `s -> a -> b -> t`. Total 1 + 10 = 11.
    #[test]
    fn second_path_runs_through_nodes_pass_one_never_settled() {
        let (s, t) = (NodeId(0), NodeId(1));
        // s = 0, t = 1, a = 2, b = 3.
        let g = DiGraph::weighted(4, &[(0, 1, 1.0), (0, 2, 5.0), (2, 3, 2.0), (3, 1, 3.0)]);
        let flat = FlatArrays::build(&g, |_| true);
        let unguided = |_| 0.0;
        let pairs = [
            SearchArena::new().edge_disjoint_pair(&g, s, t, |e| g.weight(e), |_| true, unguided),
            SearchArena::new().edge_disjoint_pair_flat(&flat.view(), None, s, t, unguided, || {}),
            SearchArena::new().edge_disjoint_pair_flat(
                &flat.view(),
                Some(&flat.int(0.0)),
                s,
                t,
                unguided,
                || {},
            ),
        ];
        for pair in pairs {
            let pair = pair.expect("two edge-disjoint paths exist");
            assert_eq!(pair.total_cost, 11.0);
            assert_eq!(pair.paths[0].edges, vec![EdgeId(0)]);
            assert_eq!(pair.paths[1].edges, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
        }
    }

    /// The bound prunes what plain Dijkstra settles: `s -> x -> y` is a
    /// cheap dead end (`h = ∞` on `x` and `y`), so unguided pass 1 settles
    /// both before `t`, while the guided one pops only `s`, `a` and `t`
    /// (`b` ties with `t` at key 2 and loses on id). Every search of
    /// `four_way`, the heap fallback included, finds the same pair and
    /// pins the settled counts per pass: 6 + 3 unguided, 3 + 3 guided.
    #[test]
    fn bound_prunes_nodes_plain_dijkstra_settles() {
        let (s, t) = (NodeId(0), NodeId(1));
        // s = 0, t = 1, a = 2, b = 3, x = 4, y = 5.
        let g = DiGraph::weighted(
            6,
            &[
                (0, 2, 1.0),
                (2, 1, 1.0),
                (0, 3, 1.0),
                (3, 1, 1.0),
                (0, 4, 0.5),
                (4, 5, 0.5),
            ],
        );
        let flat = FlatArrays::build(&g, |_| true);
        let exact: Vec<f64> = distances_to(&g, t)
            .iter()
            .map(|x| x.unwrap_or(f64::INFINITY))
            .collect();
        assert_eq!(exact, [2.0, 0.0, 1.0, 1.0, f64::INFINITY, f64::INFINITY]);
        for (h, settled) in [(vec![0.0; 6], [6, 3]), (exact, [3, 3])] {
            let mut arenas: [SearchArena; 4] = Default::default();
            let pair = four_way(&mut arenas, &g, &flat, s, t, &h, "hand-built")
                .expect("two edge-disjoint paths exist");
            assert_eq!(pair.total_cost, 4.0);
            assert_eq!(pair.paths[0].edges, vec![EdgeId(2), EdgeId(3)]);
            assert_eq!(pair.paths[1].edges, vec![EdgeId(0), EdgeId(1)]);
            for arena in &arenas {
                assert_eq!(arena.settled(), settled, "bound {h:?}");
            }
        }
    }

    /// A warmed-up arena serves the flat integer searches without
    /// allocating: after one solve to the farthest sink, whose pass-2 key
    /// window is the widest, later searches fit every buffer.
    #[test]
    fn flat_searches_stop_allocating() {
        let g = topology::ring(24, 1.0);
        let flat = FlatArrays::build(&g, |_| true);
        let int = flat.int(0.0);
        let mut arena = SearchArena::new();
        arena
            .edge_disjoint_pair_flat(
                &flat.view(),
                Some(&int),
                NodeId(0),
                NodeId(12),
                |_| 0.0,
                || {},
            )
            .unwrap();
        let after_warmup = arena.alloc_events();
        for i in 0..10 {
            let t = NodeId::from(6 + i);
            arena
                .edge_disjoint_pair_flat(&flat.view(), Some(&int), NodeId(0), t, |_| 0.0, || {})
                .unwrap();
        }
        assert_eq!(arena.alloc_events(), after_warmup);
    }

    /// Reuse across differently-sized graphs must not leak state.
    #[test]
    fn arena_survives_shrinking_and_growing_graphs() {
        let mut arena = SearchArena::new();
        for &n in &[30usize, 4, 50, 3, 12] {
            let g = topology::ring(n, 1.0);
            let pair = arena
                .edge_disjoint_pair(
                    &g,
                    NodeId(0),
                    NodeId::from(n / 2),
                    |e| g.weight(e),
                    |_| true,
                    |_| 0.0,
                )
                .expect("ring always has two disjoint paths");
            assert!(pair.is_edge_disjoint());
            let base = edge_disjoint_pair_filtered(
                &g,
                NodeId(0),
                NodeId::from(n / 2),
                |e| g.weight(e),
                |_| true,
            )
            .unwrap();
            assert_eq!(pair.total_cost, base.total_cost);
        }
    }
}
