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

use crate::{DiGraph, EdgeId, NodeId, Path};
use wdm_heap::{BucketQueue, DaryHeap, MinQueue};

/// Largest bucket span the flat integer paths will allocate (number of
/// buckets the monotone queue keeps live). Searches whose key window exceeds
/// this fall back to the d-ary heap — results are identical either way, only
/// the queue engine changes.
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
/// layout the incremental auxiliary-graph engine maintains; the flat search
/// entry points traverse it without touching a [`DiGraph`].
///
/// Layout contract (debug-asserted by the search entry points):
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

/// Integer certification of a [`FlatView`]'s weights: every arc weight is
/// exactly `key[a] / 2^scale_shift` in f64. Under this contract the bucket
/// searches below are *bit-identical* to the f64 d-ary searches: integer key
/// order is isomorphic to f64 distance order, partial sums stay below 2^53
/// (guarded), and both heap engines break key ties by smallest node id.
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
#[derive(Debug, Clone)]
pub struct SearchArena {
    /// Pass-1 tree (kept alive through pass 2, which reads its distances).
    t1: TreeBank,
    /// Pass-2 tree over the residual graph.
    t2: TreeBank,
    heap: DaryHeap<f64, 4>,
    bucket: BucketQueue,
    mask: EdgeMask,
    /// Slot-indexed twin of `mask` for the flat pass-2 scan (sequential
    /// reads); holds the same P1 edges, addressed by CSR slot.
    mask_slot: EdgeMask,
    resid: DiGraph<(), ResidArc>,
    out_lists: Vec<Vec<EdgeId>>,
    /// Per-node reversed residual arc for the flat pass 2 (`u32::MAX` =
    /// none). P1 is a simple path, so a node has at most one masked
    /// in-arc — i.e. at most one reversed residual arc rooted at it.
    /// Filled from the P1 edges before pass 2 and cleared right after.
    rev_at: Vec<u32>,
    /// Buffer-growth events since construction (telemetry: a steady-state
    /// arena stops allocating, so this should plateau after warm-up).
    allocs: u64,
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
            heap: DaryHeap::with_capacity(0),
            bucket: BucketQueue::new(0, 1),
            mask: EdgeMask::default(),
            mask_slot: EdgeMask::default(),
            resid: DiGraph::new(),
            out_lists: Vec::new(),
            rev_at: Vec::new(),
            allocs: 0,
        }
    }

    /// Cumulative buffer-growth events (allocations) across all searches
    /// served by this arena.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Arena-backed [`crate::suurballe::edge_disjoint_pair_filtered`]:
    /// minimum-cost pair of
    /// edge-disjoint `s -> t` paths over edges accepted by `filter`. Same
    /// algorithm, same tie-breaking, same results; only the working memory
    /// is reused.
    pub fn edge_disjoint_pair<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        t: NodeId,
        mut cost: impl FnMut(EdgeId) -> f64,
        mut filter: impl FnMut(EdgeId) -> bool,
    ) -> Option<crate::suurballe::DisjointPair> {
        if s == t {
            return None;
        }
        // Pass 1: Dijkstra from s, stopped when t is popped. Settled nodes
        // hold exact distances d(v) <= d(t); every other node is at least
        // d(t) away.
        self.allocs += dijkstra_into(
            &mut self.t1,
            &mut self.heap,
            g,
            s,
            t,
            &mut cost,
            &mut filter,
        ) as u64;
        if !self.t1.reached(t) {
            return None;
        }
        let d_t = self.t1.dist(t.index());
        let p1 = self.t1.path_to(g, t).expect("t is reached");
        self.allocs += self.mask.begin(g.edge_count()) as u64;
        for &e in &p1.edges {
            self.mask.set(e.index(), true);
        }

        // Pass 2: residual graph with reduced costs under the capped
        // potentials pi(v) = min(d(v), d(t)). A tentative node's label is at
        // least d(t) (t was the heap minimum) and an unreached node's is
        // infinite, so both take d(t), and arcs into them stay in the
        // residual: pass 2 may need nodes pass 1 never settled.
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
                let pi_u = self.t1.dist(u.index()).min(d_t);
                let pi_v = self.t1.dist(v.index()).min(d_t);
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
        let grew = dijkstra_into(
            t2,
            &mut self.heap,
            resid,
            s,
            t,
            |e| resid.edge(e).reduced,
            |_| true,
        );
        self.allocs += grew as u64;
        if !self.t2.reached(t) {
            return None;
        }
        let p2 = self.t2.path_to(&self.resid, t).expect("t is reached");

        // Interleaving removal: cancel (e, reverse(e)) pairs. The mask
        // currently holds P1's edges and becomes the surviving set.
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
                self.mask.set(arc.orig.index(), true);
            }
        }

        // Decompose the surviving edge set into two s->t paths by walking.
        if self.out_lists.len() < n {
            self.out_lists.resize_with(n, Vec::new);
            self.allocs += 1;
        }
        let mut total = 0.0;
        for e in g.edge_ids() {
            if self.mask.get(e.index()) {
                self.out_lists[g.src(e).index()].push(e);
                total += cost(e);
            }
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
                at = g.dst(e);
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
            self.out_lists.iter().all(|l| l.is_empty()),
            "leftover edges after extracting two paths (zero-cost cycle?)"
        );
        // Defensive in release builds: a zero-cost cycle must not leak edges
        // into the next search served by this arena.
        for l in &mut self.out_lists {
            l.clear();
        }
        let (first, second) = if a.cost(&mut cost) <= b.cost(&mut cost) {
            (a, b)
        } else {
            (b, a)
        };
        debug_assert!(!first.shares_edge_with(&second));
        Some(crate::suurballe::DisjointPair {
            paths: [first, second],
            total_cost: total,
        })
    }

    /// [`SearchArena::edge_disjoint_pair`] over a [`FlatView`]: identical
    /// algorithm, identical tie-breaking, bit-identical results — but every
    /// traversal runs over contiguous CSR arrays instead of pointer-chased
    /// adjacency lists, and the Suurballe residual graph is an overlay on
    /// the forward slots instead of a materialised graph. `pass1_done`
    /// fires once after the pass-1 tree and P1 extraction, the observation
    /// point for per-pass timing.
    pub fn edge_disjoint_pair_flat(
        &mut self,
        g: &FlatView<'_>,
        s: NodeId,
        t: NodeId,
        pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        self.flat_pair_impl(g, None, s, t, pass1_done)
    }

    /// [`SearchArena::edge_disjoint_pair_flat`] under certified integer
    /// weights: both Dijkstra passes run on the monotone bucket queue with
    /// `u64` keys (falling back to the d-ary heap when a pass's key window
    /// exceeds `BUCKET_SPAN_CAP`). Results are bit-identical to the f64
    /// path.
    pub fn edge_disjoint_pair_flat_int(
        &mut self,
        g: &FlatView<'_>,
        int: &IntWeights<'_>,
        s: NodeId,
        t: NodeId,
        pass1_done: impl FnMut(),
    ) -> Option<crate::suurballe::DisjointPair> {
        self.flat_pair_impl(g, Some(int), s, t, pass1_done)
    }

    fn flat_pair_impl(
        &mut self,
        g: &FlatView<'_>,
        int: Option<&IntWeights<'_>>,
        s: NodeId,
        t: NodeId,
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

        // ---- Pass 1: Dijkstra from s over enabled arcs, stopped when t is
        // popped (as the pointer path does); `d_t` is d(t) in cost units.
        let mut d_t = None;
        self.allocs += self.t1.begin(n, s) as u64;
        self.t1.set(s.index(), 0.0, None);
        match int {
            None => {
                self.heap.ensure_capacity(n);
                self.heap.clear();
                self.heap.insert(s.index(), 0.0);
                while let Some((u, du)) = self.heap.pop_min() {
                    if u == t.index() {
                        d_t = Some(du);
                        break;
                    }
                    for slot in g.out_range(u) {
                        if !g.slot_enabled[slot] {
                            continue;
                        }
                        let w = g.slot_weight[slot];
                        debug_assert!(w >= 0.0, "negative arc weight {w} in slot {slot}");
                        let v = g.heads[slot] as usize;
                        let nd = du + w;
                        if nd < self.t1.dist(v) {
                            self.t1
                                .set(v, nd, Some(EdgeId::from(g.slot_arc[slot] as usize)));
                            self.heap.insert_or_decrease(v, nd);
                        }
                    }
                }
            }
            Some(iw) => {
                debug_assert_eq!(iw.key.len(), m);
                // Exactness guard: every distance is a sum of < n keys, and
                // residual reduced costs add two distances — all must stay
                // exactly representable in f64.
                debug_assert!(
                    (n as u64 + 2).saturating_mul(iw.max_key.max(1)) < (1 << 52),
                    "integer keys too large for exact f64 mirroring"
                );
                let inv_scale = 1.0 / (1u64 << iw.scale_shift) as f64;
                self.bucket.clear();
                self.allocs += self.bucket.ensure(n, iw.max_key + 1) as u64;
                self.bucket.insert(s.index(), 0);
                while let Some((u, du)) = self.bucket.pop_min() {
                    if u == t.index() {
                        d_t = Some(du as f64 * inv_scale);
                        break;
                    }
                    for slot in g.out_range(u) {
                        if !g.slot_enabled[slot] {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        let nd = du + iw.key[slot];
                        // Exact (nd < n * max_key < 2^53), and scaling by a
                        // power of two keeps the order: the tree holds the
                        // f64 path's distances in cost units.
                        let ndf = nd as f64 * inv_scale;
                        if ndf < self.t1.dist(v) {
                            self.t1
                                .set(v, ndf, Some(EdgeId::from(g.slot_arc[slot] as usize)));
                            self.bucket.insert_or_decrease(v, nd);
                        }
                    }
                }
            }
        }
        let d_t = d_t?;
        let p1 = self.t1.path_to_flat(g.src, t).expect("t is reached");
        self.allocs += self.mask.begin(m) as u64;
        self.allocs += self.mask_slot.begin(m) as u64;
        for &e in &p1.edges {
            self.mask.set(e.index(), true);
            self.mask_slot.set(g.arc_slot[e.index()] as usize, true);
        }
        pass1_done();

        // ---- Pass 2 runs directly over the CSR with a residual overlay ----
        // (no residual graph is materialised). The residual is: every
        // enabled unmasked forward arc at reduced cost
        // `(w + pi(u) - pi(v)).max(0)` under the capped potentials
        // `pi(v) = min(d(v), d(t))` (tentative and unreached nodes take
        // d(t), exactly as in the pointer path), plus each P1 arc reversed
        // at reduced cost 0. P1 is a simple path, so a
        // node has at most one masked in-arc — at most one reversed arc —
        // and merging it into the forward slot scan by ascending original
        // arc id reproduces the pointer path's residual insertion order,
        // and therefore every relaxation tie, exactly. Pass-2 predecessor
        // arcs are encoded as `orig_arc << 1 | reversed`.
        if self.rev_at.len() < n {
            self.rev_at.resize(n, u32::MAX);
            self.allocs += 1;
        }
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = e.index() as u32;
        }

        self.allocs += self.t2.begin(n, s) as u64;
        let bucket2 = int.and_then(|iw| {
            let scale = (1u64 << iw.scale_shift) as f64;
            // Potentials lie in [0, d(t)], so reduced keys never exceed
            // max_key + d(t) in key units.
            let span2 = iw.max_key + (d_t * scale) as u64 + 1;
            (span2 <= BUCKET_SPAN_CAP).then_some((scale, span2))
        });
        match bucket2 {
            Some((scale, span2)) => {
                self.bucket.clear();
                self.allocs += self.bucket.ensure(n, span2) as u64;
                // The pass-2 tree stays in key units: only its reachability
                // and predecessors are read.
                self.t2.set(s.index(), 0.0, None);
                self.bucket.insert(s.index(), 0);
                while let Some((u, du)) = self.bucket.pop_min() {
                    if u == t.index() {
                        break;
                    }
                    let pi_u = self.t1.dist(u).min(d_t);
                    let mut pending_rev = self.rev_at[u];
                    for slot in g.out_range(u) {
                        if (pending_rev as usize) < g.slot_arc[slot] as usize {
                            let ra = pending_rev as usize;
                            pending_rev = u32::MAX;
                            let v = g.src[ra] as usize;
                            let ndf = du as f64;
                            if ndf < self.t2.dist(v) {
                                self.t2.set(v, ndf, Some(EdgeId::from((ra << 1) | 1)));
                                self.bucket.insert_or_decrease(v, du);
                            }
                        }
                        if !g.slot_enabled[slot] || self.mask_slot.get(slot) {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        // Floating-point noise can push a tight edge to
                        // -epsilon; clamp exactly as the pointer path does.
                        let red = (g.slot_weight[slot] + pi_u - self.t1.dist(v).min(d_t)).max(0.0);
                        let rk = (red * scale) as u64;
                        let nd = du + rk;
                        let ndf = nd as f64;
                        if ndf < self.t2.dist(v) {
                            let a = g.slot_arc[slot] as usize;
                            self.t2.set(v, ndf, Some(EdgeId::from(a << 1)));
                            self.bucket.insert_or_decrease(v, nd);
                        }
                    }
                    if pending_rev != u32::MAX {
                        let ra = pending_rev as usize;
                        let v = g.src[ra] as usize;
                        let ndf = du as f64;
                        if ndf < self.t2.dist(v) {
                            self.t2.set(v, ndf, Some(EdgeId::from((ra << 1) | 1)));
                            self.bucket.insert_or_decrease(v, du);
                        }
                    }
                }
            }
            None => {
                self.heap.ensure_capacity(n);
                self.heap.clear();
                self.t2.set(s.index(), 0.0, None);
                self.heap.insert(s.index(), 0.0);
                while let Some((u, du)) = self.heap.pop_min() {
                    if u == t.index() {
                        break;
                    }
                    let pi_u = self.t1.dist(u).min(d_t);
                    let mut pending_rev = self.rev_at[u];
                    for slot in g.out_range(u) {
                        if (pending_rev as usize) < g.slot_arc[slot] as usize {
                            let ra = pending_rev as usize;
                            pending_rev = u32::MAX;
                            let v = g.src[ra] as usize;
                            if du < self.t2.dist(v) {
                                self.t2.set(v, du, Some(EdgeId::from((ra << 1) | 1)));
                                self.heap.insert_or_decrease(v, du);
                            }
                        }
                        if !g.slot_enabled[slot] || self.mask_slot.get(slot) {
                            continue;
                        }
                        let v = g.heads[slot] as usize;
                        let red = (g.slot_weight[slot] + pi_u - self.t1.dist(v).min(d_t)).max(0.0);
                        let nd = du + red;
                        if nd < self.t2.dist(v) {
                            let a = g.slot_arc[slot] as usize;
                            self.t2.set(v, nd, Some(EdgeId::from(a << 1)));
                            self.heap.insert_or_decrease(v, nd);
                        }
                    }
                    if pending_rev != u32::MAX {
                        let ra = pending_rev as usize;
                        let v = g.src[ra] as usize;
                        if du < self.t2.dist(v) {
                            self.t2.set(v, du, Some(EdgeId::from((ra << 1) | 1)));
                            self.heap.insert_or_decrease(v, du);
                        }
                    }
                }
            }
        }
        // The overlay is per-request state: clear it before any return.
        for &e in &p1.edges {
            self.rev_at[g.dst[e.index()] as usize] = u32::MAX;
        }
        if !self.t2.reached(t) {
            return None;
        }

        // Interleaving removal straight off the pass-2 predecessor codes:
        // cancel (e, reverse(e)) pairs. The mask currently holds P1's edges
        // and becomes the surviving set.
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
                self.mask.set(a, true);
                at = g.src[a] as usize;
            }
        }

        // Decompose the surviving edge set into two s->t paths by walking.
        if self.out_lists.len() < n {
            self.out_lists.resize_with(n, Vec::new);
            self.allocs += 1;
        }
        let mut total = 0.0;
        for a in 0..m {
            if self.mask.get(a) {
                self.out_lists[g.src[a] as usize].push(EdgeId::from(a));
                total += g.weight[a];
            }
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
                at = NodeId::from(g.dst[e.index()] as usize);
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
            self.out_lists.iter().all(|l| l.is_empty()),
            "leftover edges after extracting two paths (zero-cost cycle?)"
        );
        for l in &mut self.out_lists {
            l.clear();
        }
        let mut cost = |e: EdgeId| g.weight[e.index()];
        let (first, second) = if a.cost(&mut cost) <= b.cost(&mut cost) {
            (a, b)
        } else {
            (b, a)
        };
        debug_assert!(!first.shares_edge_with(&second));
        Some(crate::suurballe::DisjointPair {
            paths: [first, second],
            total_cost: total,
        })
    }
}

/// Dijkstra into a [`TreeBank`], stopped when `target` is popped: the exact
/// relaxation loop of [`dijkstra_generic`](crate::dijkstra::dijkstra_generic)
/// with the default 4-ary heap, writing into reused buffers. Returns
/// whether the tree bank had to grow (an allocation event).
fn dijkstra_into<N, E>(
    bank: &mut TreeBank,
    heap: &mut DaryHeap<f64, 4>,
    g: &DiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    mut filter: impl FnMut(EdgeId) -> bool,
) -> bool {
    let n = g.node_count();
    let grew = bank.begin(n, source);
    heap.ensure_capacity(n);
    heap.clear();
    bank.set(source.index(), 0.0, None);
    heap.insert(source.index(), 0.0);
    while let Some((u_idx, du)) = heap.pop_min() {
        let u = NodeId::from(u_idx);
        if u == target {
            break;
        }
        for &e in g.out_edges(u) {
            if !filter(e) {
                continue;
            }
            let w = cost(e);
            debug_assert!(w >= 0.0, "negative arc weight {w} on {e:?}");
            let v = g.dst(e);
            let nd = du + w;
            if nd < bank.dist(v.index()) {
                bank.set(v.index(), nd, Some(e));
                heap.insert_or_decrease(v.index(), nd);
            }
        }
    }
    grew
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
            let fast = arena.edge_disjoint_pair(&g, s, t, |e| g.weight(e), filter);
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
        arena
            .edge_disjoint_pair(&g, NodeId(0), NodeId(12), |e| g.weight(e), |_| true)
            .unwrap();
        let after_warmup = arena.alloc_events();
        assert!(after_warmup > 0, "first search must grow the buffers");
        for _ in 0..10 {
            arena
                .edge_disjoint_pair(&g, NodeId(0), NodeId(12), |e| g.weight(e), |_| true)
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
        max_key: u64,
    }

    const TEST_SHIFT: u32 = 6;

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

        fn int(&self) -> IntWeights<'_> {
            IntWeights {
                key: &self.key,
                scale_shift: TEST_SHIFT,
                max_key: self.max_key,
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
            let base = ptr_arena.edge_disjoint_pair(&g, s, t, |e| g.weight(e), |e| e != banned);
            let f64_pair = flat_arena.edge_disjoint_pair_flat(&flat.view(), s, t, || {});
            let int_pair =
                int_arena.edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), s, t, || {});
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

    /// Stopping pass 1 at `t` with potentials capped at `d(t)` finds a
    /// minimum-cost pair: the total-cost bits and the feasibility of all
    /// three entry points match the exhaustive reference, over repeated
    /// solves on one arena per entry point. The trials must include pairs
    /// that differ from the reference's (cost ties) and second paths
    /// through nodes farther than `d(t)`, which pass 1 never settles.
    #[test]
    fn early_exit_matches_exhaustive_suurballe() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x3A3A);
        let mut ptr_arena = SearchArena::new();
        let mut flat_arena = SearchArena::new();
        let mut int_arena = SearchArena::new();
        let (mut routed, mut differ, mut beyond_cap) = (0, 0, 0);
        for trial in 0..150 {
            let n = rng.gen_range(4..14);
            let levels = if trial % 2 == 0 { 20 } else { 3 };
            let g = random_graph_halves(&mut rng, n, 0.4, levels);
            let flat = FlatArrays::build(&g, |_| true);
            for solve in 0..12 {
                let ctx = format!("trial {trial} solve {solve}");
                let s = NodeId::from(rng.gen_range(0..n));
                let t = NodeId::from(rng.gen_range(0..n));
                let (reference, d) = exhaustive_pair(&g, s, t);
                let ptr = ptr_arena.edge_disjoint_pair(&g, s, t, |e| g.weight(e), |_| true);
                let f64_pair = flat_arena.edge_disjoint_pair_flat(&flat.view(), s, t, || {});
                let int_pair =
                    int_arena.edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), s, t, || {});
                for (label, got) in [
                    ("pointer", &ptr),
                    ("flat f64", &f64_pair),
                    ("flat int", &int_pair),
                ] {
                    match (&reference, got) {
                        (None, None) => {}
                        (Some(r), Some(p)) => {
                            assert_eq!(
                                r.total_cost.to_bits(),
                                p.total_cost.to_bits(),
                                "{label}, {ctx}"
                            );
                            assert!(p.is_edge_disjoint(), "{label}, {ctx}");
                            let mut sum = 0.0;
                            for path in &p.paths {
                                assert_eq!((path.src, path.dst), (s, t), "{label}, {ctx}");
                                assert_eq!(g.src(path.edges[0]), s, "{label}, {ctx}");
                                for w in path.edges.windows(2) {
                                    assert_eq!(g.dst(w[0]), g.src(w[1]), "{label}, {ctx}");
                                }
                                assert_eq!(g.dst(*path.edges.last().unwrap()), t, "{label}, {ctx}");
                                sum += path.cost(|e| g.weight(e));
                            }
                            assert_eq!(sum, p.total_cost, "{label}, {ctx}");
                        }
                        _ => panic!("{label}, {ctx}: feasibility disagrees"),
                    }
                }
                assert_same_pair(&ptr, &f64_pair, &ctx);
                assert_same_pair(&ptr, &int_pair, &ctx);
                let (Some(r), Some(p)) = (&reference, &ptr) else {
                    continue;
                };
                routed += 1;
                let edge_set = |p: &crate::suurballe::DisjointPair| {
                    let mut all: Vec<EdgeId> = p
                        .paths
                        .iter()
                        .flat_map(|x| x.edges.iter().copied())
                        .collect();
                    all.sort();
                    all
                };
                if edge_set(r) != edge_set(p) {
                    differ += 1;
                }
                let d_t = d[t.index()].expect("t is reached");
                let far = |e: &EdgeId| d[g.dst(*e).index()].is_some_and(|dv| dv > d_t);
                if p.paths.iter().any(|x| x.edges.iter().any(far)) {
                    beyond_cap += 1;
                }
            }
        }
        assert!(routed >= 500, "only {routed} routed solves");
        assert!(differ > 0, "no solve picked a different equal-cost pair");
        assert!(beyond_cap > 0, "no pair crossed a node beyond d(t)");
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
        let pairs = [
            SearchArena::new().edge_disjoint_pair(&g, s, t, |e| g.weight(e), |_| true),
            SearchArena::new().edge_disjoint_pair_flat(&flat.view(), s, t, || {}),
            SearchArena::new().edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), s, t, || {}),
        ];
        for pair in pairs {
            let pair = pair.expect("two edge-disjoint paths exist");
            assert_eq!(pair.total_cost, 11.0);
            assert_eq!(pair.paths[0].edges, vec![EdgeId(0)]);
            assert_eq!(pair.paths[1].edges, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
        }
    }

    /// A warmed-up arena serves the flat integer searches without
    /// allocating: after one solve to the farthest sink, whose pass-2 key
    /// window is the widest, later searches fit every buffer.
    #[test]
    fn flat_searches_stop_allocating() {
        let g = topology::ring(24, 1.0);
        let flat = FlatArrays::build(&g, |_| true);
        let mut arena = SearchArena::new();
        arena
            .edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), NodeId(0), NodeId(12), || {})
            .unwrap();
        let after_warmup = arena.alloc_events();
        for i in 0..10 {
            let t = NodeId::from(6 + i);
            arena
                .edge_disjoint_pair_flat_int(&flat.view(), &flat.int(), NodeId(0), t, || {})
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
