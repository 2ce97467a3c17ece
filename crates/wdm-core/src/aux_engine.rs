//! Incremental auxiliary-graph engine: the zero-allocation counterpart of
//! [`AuxGraph::build`](crate::aux_graph::AuxGraph::build).
//!
//! `AuxGraph::build` reconstructs the full auxiliary graph — nodes, arcs,
//! `O(W²)` conversion averages — for every request and every threshold
//! probe. The engine splits that work by change frequency:
//!
//! * **Skeleton (once per network).** A [`Skeleton`] holds edge-nodes for
//!   *all* physical links, their traversal arcs, every conversion arc that
//!   could ever exist (pairs `(e_in, e_out)` with at least one allowed
//!   conversion under the links' *full* wavelength sets — availability only
//!   shrinks those sets, so no other pair can ever appear), and both
//!   terminal tap slots per link. It depends on the network only, never on
//!   an [`AuxSpec`], so one `Arc<Skeleton>` serves every [`AuxEngine`] over
//!   the network: a [`RouterCtx`]'s five engine slots share one, and so do
//!   the `wdm serve` daemon's workers. Arcs are laid out in the same
//!   relative order as the scratch builder emits them, which makes the
//!   enabled subset a subsequence of the scratch graph's arc list.
//! * **Weight refresh (per dirty link).** [`ResidualState`] stamps every
//!   mutated link with its monotone change clock; [`AuxEngine::sync`]
//!   recomputes traversal weights, conversion averages and admission only
//!   for links stamped after the engine's last sync. The summation loops are
//!   verbatim copies of the scratch builder's, so refreshed weights are
//!   bit-identical to a from-scratch build.
//! * **Full refresh (first sync, [`AuxEngine::invalidate`], a state clock
//!   that went backwards).** One sequential pass: every link's availability
//!   once, then every link's traversal weight and admission, then every
//!   conversion arc once, in emission order. It calls the same per-arc
//!   helpers as the dirty refresh; the two differ only in visiting order.
//! * **Admission mask (per threshold change).** Thresholds affect only
//!   which links are admitted, never any weight, so
//!   [`AuxEngine::set_threshold`] flags the mask for an `O(m)` admission
//!   recompute without touching weights — the fast path for MinCog's
//!   geometric escalation and the exact binary search.
//! * **Tap retargeting (per request).** Changing `(s, t)` flips the enabled
//!   bits of the old and new terminals' tap arcs; nothing else moves.
//!
//! The skeleton exists only as flat CSR arrays: per-arc tail, head and
//! kind, per-node slot ranges, and a flat link → conversion-arc index. An
//! engine holds the rest: slot-ordered weight/enabled mirrors, admission,
//! the conversion counts `K_v` and the sink bound. Node ids follow a fixed
//! layout — `0` is `s'`, `1` is `t''`, and `2 + 2e` / `3 + 2e` are the
//! out/in edge-nodes of link `e`.
//!
//! Because disabled arcs are filtered (not removed), searches run over a
//! graph whose enabled arcs appear in the same relative order with the same
//! weights as the scratch graph's arcs, and Dijkstra/Suurballe tie-breaking
//! depends only on that order and the weights — routes are identical, not
//! merely equal-cost (`tests/engine_differential.rs` pins this).
//!
//! Each search is cold: [`AuxEngine::disjoint_pair`] first computes the
//! sink bound of the module docs of [`crate::aux_graph`], the physical
//! distance to `t` over the admitted links by a reverse Dijkstra over a
//! physical in-link adjacency built once with the skeleton. [`SearchArena`]'s
//! Suurballe then runs pass 1 as an A* under that bound, stops it at the
//! sink, and derives pass 2's potentials from that partial tree and the
//! bound, so no search state is carried from one request to the next. A
//! scratch build computes the same bound bit for bit, which keeps the two
//! tiers route-identical.
//!
//! ### Staleness contract
//!
//! The engine trusts the state's change clocks. Syncing one engine against
//! *independently mutated clones* of a state can alias clock values and
//! miss updates; call [`AuxEngine::invalidate`] (or use one engine per
//! state lineage) in that situation. Syncing against a state whose clock
//! went *backwards* (a fresh or deserialized state) is detected and handled
//! by a full refresh.

use std::ops::Range;
use std::sync::Arc;

use crate::aux_graph::{AuxArc, AuxNode, AuxSpec, AuxWeights, InLinks, ThresholdBasis};
use crate::network::{ResidualState, WdmNetwork};
use crate::wavelength::WavelengthSet;
use wdm_graph::suurballe::DisjointPair;
use wdm_graph::{EdgeId, FlatView, IntWeights, NodeId, Path, SearchArena};
use wdm_heap::{DaryHeap, MinQueue};

/// Fixed-point scale for integer weight certification: weights that are
/// exact multiples of `2^-SCALE_SHIFT` get a `u64` key `weight << SCALE_SHIFT`.
/// 1/64 covers every dyadic cost the scratch builder can produce from
/// dyadic link/conversion costs (uniform averages of dyadics with power-of-two
/// divisors stay dyadic); congestion-exponential weights never certify and
/// fall back to the f64 search path.
pub const SCALE_SHIFT: u32 = 6;

/// Upper bound on a certified per-arc key. Keys above this (weights ≥ 1024)
/// de-certify the arc: the bucket queue's span is
/// `max_key + max_bound_key + 1` in pass 1 and `max_key + max(d(t), max h) + 1`
/// in pass 2 (in key units), so unbounded keys would trade heap ops for
/// unbounded bucket scans — and the exactness argument needs headroom
/// below 2^53 for summed distances. A pass whose span still exceeds the
/// search's bucket cap runs on the d-ary heap instead (the arena's queue
/// selection).
const KEY_CAP: u64 = 1 << 16;
use wdm_telemetry::{Counter, Hist, NoopRecorder, NoopTracer, Phase, Recorder, Tracer};

/// What one [`AuxEngine::sync`] call actually recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Every link's weights were refreshed (first sync, invalidation, or a
    /// state-clock regression).
    pub full: bool,
    /// Number of links whose weights were recomputed this sync.
    pub links_refreshed: u32,
    /// The admission mask was recomputed for all links (threshold change).
    pub remasked: bool,
}

/// `s'` in the fixed node layout.
const SOURCE: u32 = 0;
/// `t''` in the fixed node layout.
const SINK: u32 = 1;

/// `u_out^e`: the tail-side edge-node of link `e`.
#[inline]
fn out_node(e: usize) -> u32 {
    2 + 2 * e as u32
}

/// `v_in^e`: the head-side edge-node of link `e`.
#[inline]
fn in_node(e: usize) -> u32 {
    3 + 2 * e as u32
}

/// What skeleton node `v` stands for (inverse of the fixed layout).
fn node_kind(v: u32) -> AuxNode {
    match v {
        SOURCE => AuxNode::Source,
        SINK => AuxNode::Sink,
        _ => {
            let e = EdgeId::from(((v - 2) / 2) as usize);
            match v % 2 {
                0 => AuxNode::OutNode(e),
                _ => AuxNode::InNode(e),
            }
        }
    }
}

/// Groups `items` (`(row, value)` pairs) by row, stably: row `r` holds
/// `values[off[r]..off[r + 1]]` in the order `items` yields them. `items`
/// is called twice, to count and then to place. Returns `(off, values)`.
fn group_rows<I: Iterator<Item = (usize, u32)>>(
    rows: usize,
    items: impl Fn() -> I,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; rows + 1];
    for (r, _) in items() {
        off[r + 1] += 1;
    }
    for r in 0..rows {
        off[r + 1] += off[r];
    }
    let mut next = off[..rows].to_vec();
    let mut values = vec![0u32; off[rows] as usize];
    for (r, v) in items() {
        values[next[r] as usize] = v;
        next[r] += 1;
    }
    (off, values)
}

/// One potential conversion arc `v_in^{e_in} → v_out^{e_out}` of the
/// skeleton.
#[derive(Debug, Clone, Copy)]
struct ConvSlot {
    /// The skeleton arc id.
    arc: u32,
    /// The physical node the conversion happens at.
    node: NodeId,
    /// Incoming physical link.
    ein: EdgeId,
    /// Outgoing physical link.
    eout: EdgeId,
}

/// The part of the auxiliary graph fixed by the network alone: every
/// edge-node, every traversal, conversion and tap arc that could ever be
/// enabled, as CSR arrays, plus the physical adjacency the sink bound
/// walks. Built once per network and shared, behind an [`Arc`], by every
/// [`AuxEngine`] over it, whatever its [`AuxSpec`]. See the module docs.
#[derive(Debug)]
pub struct Skeleton {
    /// `(node_count, link_count)` of the network the skeleton was built for.
    fingerprint: (usize, usize),
    /// Arc-id layout: the traversal arc of link `e` is `e`, the conversion
    /// arcs follow, then the source taps (`tap_base + e`) and the sink taps
    /// (`tap_base + m + e`).
    tap_base: usize,
    /// Semantic role per arc id (physical map-back reads the traversals).
    arc_kind: Vec<AuxArc>,
    /// Tail / head aux node per arc id.
    arc_src: Vec<u32>,
    arc_dst: Vec<u32>,
    /// All potential conversion arcs, in emission order.
    conv: Vec<ConvSlot>,
    /// Flat link → conversion index: the slots touching link `e` are
    /// `link_conv[link_conv_off[e]..link_conv_off[e + 1]]`, ascending.
    link_conv_off: Vec<u32>,
    link_conv: Vec<u32>,
    /// Row offsets per aux node (`len == node_count + 1`).
    csr_off: Vec<u32>,
    /// Destination aux node per CSR slot.
    csr_head: Vec<u32>,
    /// Skeleton arc id per CSR slot.
    csr_arc: Vec<u32>,
    /// CSR slot per arc id (inverse of `csr_arc`).
    arc_slot: Vec<u32>,
    /// The physical in-link adjacency the sink bound's Dijkstra walks.
    in_links: InLinks,
    /// Head node per physical link.
    link_head: Vec<u32>,
}

impl Skeleton {
    /// Builds the skeleton of `net`. No state or spec is consulted.
    pub fn new(net: &WdmNetwork) -> Self {
        let g = net.graph();
        let m = net.link_count();
        // Traversal arcs for every link come first, in link order —
        // matching the scratch builder's emission order over its admitted
        // subset.
        let mut arc_src: Vec<u32> = (0..m).map(out_node).collect();
        let mut arc_dst: Vec<u32> = (0..m).map(in_node).collect();
        let mut arc_kind: Vec<AuxArc> =
            (0..m).map(|e| AuxArc::Traversal(EdgeId::from(e))).collect();

        // Potential conversion arcs: same (node, e_in, e_out) loop order as
        // the scratch builder, existence decided on the links' full
        // wavelength sets. Availability is a subset of those sets and the
        // conversion table is static, so a pair with no allowed conversion
        // here can never gain one.
        let mut conv: Vec<ConvSlot> = Vec::new();
        for v in g.node_ids() {
            let table = net.conversion(v);
            for &ein in g.in_edges(v) {
                let lambda_in = net.lambda(ein);
                for &eout in g.out_edges(v) {
                    let lambda_out = net.lambda(eout);
                    let possible = lambda_in
                        .iter()
                        .any(|la| lambda_out.iter().any(|lb| table.allows(la, lb)));
                    if !possible {
                        continue;
                    }
                    conv.push(ConvSlot {
                        arc: arc_src.len() as u32,
                        node: v,
                        ein,
                        eout,
                    });
                    arc_src.push(in_node(ein.index()));
                    arc_dst.push(out_node(eout.index()));
                    arc_kind.push(AuxArc::Conversion(v));
                }
            }
        }

        // Tap slots for every link; the scratch builder emits source taps
        // (in link order) before sink taps, so both groups stay ordered.
        let tap_base = arc_src.len();
        arc_src.extend(std::iter::repeat_n(SOURCE, m));
        arc_dst.extend((0..m).map(out_node));
        arc_src.extend((0..m).map(in_node));
        arc_dst.extend(std::iter::repeat_n(SINK, m));
        arc_kind.extend(std::iter::repeat_n(AuxArc::Tap, 2 * m));

        // Each slot is listed under both of its links, in slot order.
        let (link_conv_off, link_conv) = group_rows(m, || {
            conv.iter().enumerate().flat_map(|(ci, c)| {
                let ci = ci as u32;
                std::iter::once((c.ein.index(), ci))
                    .chain((c.eout != c.ein).then_some((c.eout.index(), ci)))
            })
        });

        // CSR layout by a stable counting sort on the tail. Arcs are placed
        // in id order, so each node's slots hold its arcs in ascending id —
        // the order the scratch graph's adjacency lists yield them in,
        // which is what keeps relaxation order and every Dijkstra tie
        // identical to the scratch oracle.
        let (csr_off, csr_arc) = group_rows(2 + 2 * m, || {
            arc_src
                .iter()
                .enumerate()
                .map(|(a, &u)| (u as usize, a as u32))
        });
        let csr_head = csr_arc.iter().map(|&a| arc_dst[a as usize]).collect();
        let mut arc_slot = vec![0u32; csr_arc.len()];
        for (slot, &a) in csr_arc.iter().enumerate() {
            arc_slot[a as usize] = slot as u32;
        }

        Self {
            fingerprint: (g.node_count(), m),
            tap_base,
            arc_kind,
            arc_src,
            arc_dst,
            conv,
            link_conv_off,
            link_conv,
            csr_off,
            csr_head,
            csr_arc,
            arc_slot,
            in_links: InLinks::new(net),
            link_head: g.edge_ids().map(|e| g.dst(e).index() as u32).collect(),
        }
    }

    /// Whether this skeleton was built for (a network shaped like) `net`.
    /// A cheap guard, not a content hash: use one skeleton per network.
    pub(crate) fn matches(&self, net: &WdmNetwork) -> bool {
        self.fingerprint == (net.graph().node_count(), net.link_count())
    }

    /// Indices into `link_conv` of the conversion slots touching link `e`.
    #[inline]
    fn convs_of(&self, e: usize) -> Range<usize> {
        self.link_conv_off[e] as usize..self.link_conv_off[e + 1] as usize
    }
}

/// The traversal weight of link `e` with availability `avail` under
/// `weights`: the scratch builder's formula, summation loop for summation
/// loop.
fn traversal_weight(
    weights: AuxWeights,
    net: &WdmNetwork,
    state: &ResidualState,
    e: EdgeId,
    avail: WavelengthSet,
) -> f64 {
    if avail.is_empty() {
        // Never enabled (empty availability fails admission under every
        // threshold); avoid the 0/0 in the average formulas.
        return 0.0;
    }
    match weights {
        AuxWeights::AverageCost => {
            avail.iter().map(|l| net.link_cost(e, l)).sum::<f64>() / avail.count() as f64
        }
        AuxWeights::AverageCostOverN => {
            avail.iter().map(|l| net.link_cost(e, l)).sum::<f64>() / net.capacity(e) as f64
        }
        AuxWeights::CongestionExp { a } => {
            let n = net.capacity(e) as f64;
            let u = state.used_count(e) as f64;
            a.powf((u + 1.0) / n) - a.powf(u / n)
        }
    }
}

/// `K_v` of one conversion slot under the given availabilities, and its
/// arc weight under `weights` (meaningful only when `K_v > 0`): the scratch
/// builder's formula, summation loop for summation loop.
fn conversion_average(
    weights: AuxWeights,
    net: &WdmNetwork,
    slot: ConvSlot,
    avail_in: WavelengthSet,
    avail_out: WavelengthSet,
) -> (u32, f64) {
    let table = net.conversion(slot.node);
    let mut total = 0.0;
    let mut k = 0usize;
    for la in avail_in.iter() {
        for lb in avail_out.iter() {
            if let Some(c) = table.cost(la, lb) {
                total += c;
                k += 1;
            }
        }
    }
    let w = match weights {
        // No allowed pair: the arc stays disabled and its weight unread.
        _ if k == 0 => 0.0,
        AuxWeights::CongestionExp { .. } => 0.0,
        _ => total / k as f64,
    };
    (k as u32, w)
}

/// Incremental auxiliary-graph engine: the per-spec state over a shared
/// [`Skeleton`]. See the module docs.
#[derive(Debug, Clone)]
pub struct AuxEngine {
    skel: Arc<Skeleton>,
    spec: AuxSpec,
    /// Per skeleton arc: participates in the current auxiliary graph.
    enabled: Vec<bool>,
    /// Per physical link: admitted under the current state + threshold.
    admitted: Vec<bool>,
    /// Per conversion slot: `K_v`, the allowed conversion pairs under
    /// *current* availability (0 ⇒ the arc is disabled regardless of
    /// admission).
    conv_k: Vec<u32>,
    /// State change clock at the last sync.
    synced_clock: u64,
    ever_synced: bool,
    /// Set by [`AuxEngine::set_threshold`]: admission of *every* link must
    /// be recomputed on the next sync.
    mask_stale: bool,
    cur_s: Option<NodeId>,
    cur_t: Option<NodeId>,
    /// Dedupes conversion-weight refreshes when both endpoint links are
    /// dirty in the same sync pass.
    conv_stamp: Vec<u64>,
    pass: u64,

    // ---- Weights over the skeleton's CSR layout ----
    /// Weight per arc id (meaningful only while the arc is enabled).
    arc_weight: Vec<f64>,
    /// Whether the arc's weight is exactly its certified key over
    /// `2^SCALE_SHIFT`.
    arc_exact: Vec<bool>,
    /// Slot-ordered mirrors of `arc_weight` / `enabled`, and the certified
    /// integer key per slot (valid only while its arc is `arc_exact`): the
    /// relaxation loops walk slots sequentially, so keeping their operands
    /// slot-contiguous spares an indirection per scanned arc.
    slot_weight: Vec<f64>,
    slot_enabled: Vec<bool>,
    slot_key: Vec<u64>,
    /// Number of arcs whose weight failed certification; the integer search
    /// engages only at zero.
    inexact: u32,
    /// Monotone upper bound on certified keys ever written.
    max_key: u64,

    // ---- Sink bound (recomputed by every search) ----
    /// `D(v)`: distance from physical node `v` to the current sink over the
    /// admitted links, as of the last search.
    sink_dist: Vec<f64>,
    sink_heap: DaryHeap<f64, 4>,
    /// The largest finite `D(v)`.
    sink_dist_max: f64,
}

impl AuxEngine {
    /// Builds a skeleton for `net` and an engine over it under `spec`. No
    /// state is consulted; call [`AuxEngine::sync`] before searching.
    pub fn new(net: &WdmNetwork, spec: AuxSpec) -> Self {
        Self::with_skeleton(Arc::new(Skeleton::new(net)), spec)
    }

    /// An engine under `spec` over an existing skeleton: only the per-spec
    /// state is allocated. Call [`AuxEngine::sync`] before searching.
    pub fn with_skeleton(skeleton: Arc<Skeleton>, spec: AuxSpec) -> Self {
        let (arcs, links, convs) = (
            skeleton.arc_kind.len(),
            skeleton.link_head.len(),
            skeleton.conv.len(),
        );
        Self {
            skel: skeleton,
            spec,
            enabled: vec![false; arcs],
            admitted: vec![false; links],
            conv_k: vec![0; convs],
            synced_clock: 0,
            ever_synced: false,
            mask_stale: false,
            cur_s: None,
            cur_t: None,
            conv_stamp: vec![0; convs],
            pass: 0,
            // All weights start at 0.0 == key 0, which certifies.
            arc_weight: vec![0.0; arcs],
            arc_exact: vec![true; arcs],
            slot_weight: vec![0.0; arcs],
            slot_enabled: vec![false; arcs],
            slot_key: vec![0; arcs],
            inexact: 0,
            max_key: 0,
            sink_dist: Vec::new(),
            sink_heap: DaryHeap::with_capacity(0),
            sink_dist_max: 0.0,
        }
    }

    /// Arc id of link `e`'s source tap `s' → u_out^e`.
    #[inline]
    fn src_tap(&self, e: usize) -> usize {
        self.skel.tap_base + e
    }

    /// Arc id of link `e`'s sink tap `v_in^e → t''`.
    #[inline]
    fn dst_tap(&self, e: usize) -> usize {
        self.skel.tap_base + self.admitted.len() + e
    }

    /// Whether this engine's skeleton was built for (a network shaped like)
    /// `net`. A cheap guard, not a content hash: use one engine per network.
    pub fn matches(&self, net: &WdmNetwork) -> bool {
        self.skel.matches(net)
    }

    /// The active spec (threshold updates via [`AuxEngine::set_threshold`]
    /// are reflected here).
    pub fn spec(&self) -> AuxSpec {
        self.spec
    }

    /// Updates the admission threshold. Weights are unaffected by `ϑ`, so
    /// this only marks the admission mask stale; the next [`AuxEngine::sync`]
    /// recomputes admission for all links in `O(m)` without touching any
    /// `O(W²)` conversion sum.
    pub fn set_threshold(&mut self, threshold: Option<f64>) {
        if self.spec.threshold != threshold {
            self.spec.threshold = threshold;
            self.mask_stale = true;
        }
    }

    /// Forgets all synced state, forcing the next [`AuxEngine::sync`] to do
    /// a full refresh. Required when switching the engine to a different
    /// [`ResidualState`] *lineage* (e.g. an independently mutated clone)
    /// whose change clocks may alias the previous one's.
    pub fn invalidate(&mut self) {
        self.ever_synced = false;
    }

    /// Brings the engine in line with `state` and the request `(s, t)`:
    /// refreshes weights and admission of links mutated since the last
    /// sync (all links, in one pass, on first use, after
    /// [`AuxEngine::invalidate`], or when the state's clock moved
    /// backwards), reapplies the admission mask if the threshold changed,
    /// and retargets the terminal taps. Returns what was recomputed
    /// (telemetry's cache-outcome signal).
    pub fn sync(
        &mut self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> SyncStats {
        debug_assert!(self.matches(net), "engine used with a different network");
        let full = !self.ever_synced || state.change_clock() < self.synced_clock;
        let mut stats = SyncStats {
            full,
            links_refreshed: 0,
            remasked: self.mask_stale,
        };
        if full {
            self.refresh_all(net, state);
            stats.links_refreshed = net.link_count() as u32;
        } else if self.mask_stale || state.change_clock() != self.synced_clock {
            self.pass += 1;
            for ei in 0..net.link_count() {
                let e = EdgeId::from(ei);
                let dirty = state.link_change_clock(e) > self.synced_clock;
                if dirty {
                    self.refresh_weights(net, state, e);
                    stats.links_refreshed += 1;
                }
                if dirty || self.mask_stale {
                    self.refresh_admission(net, state, e);
                }
            }
        }
        self.mask_stale = false;
        self.synced_clock = state.change_clock();
        self.ever_synced = true;
        self.retarget(net, s, t);
        stats
    }

    /// The full refresh, in one pass: every link's availability, then every
    /// link's traversal weight and admission, then every conversion arc
    /// once, in emission order (both its links' admission is final by
    /// then).
    fn refresh_all(&mut self, net: &WdmNetwork, state: &ResidualState) {
        let avail: Vec<WavelengthSet> = net
            .graph()
            .edge_ids()
            .map(|e| state.avail(net, e))
            .collect();
        for (ei, &avail) in avail.iter().enumerate() {
            let e = EdgeId::from(ei);
            let w = traversal_weight(self.spec.weights, net, state, e, avail);
            self.set_arc_weight(ei, w);
            self.set_admission(net, state, e, avail);
        }
        for ci in 0..self.skel.conv.len() {
            let slot = self.skel.conv[ci];
            self.refresh_conv(net, ci, avail[slot.ein.index()], avail[slot.eout.index()]);
        }
    }

    /// Writes arc `i`'s weight and its slot mirror, maintaining the integer
    /// certification.
    fn set_arc_weight(&mut self, i: usize, w: f64) {
        self.arc_weight[i] = w;
        let slot = self.skel.arc_slot[i] as usize;
        self.slot_weight[slot] = w;
        let scaled = w * (1u64 << SCALE_SHIFT) as f64;
        // NaN/negative/huge all fail one of these (NaN.fract() is NaN).
        let exact = scaled >= 0.0 && scaled <= KEY_CAP as f64 && scaled.fract() == 0.0;
        if exact {
            let key = scaled as u64;
            self.slot_key[slot] = key;
            if key > self.max_key {
                self.max_key = key;
            }
        }
        if exact != self.arc_exact[i] {
            self.arc_exact[i] = exact;
            if exact {
                self.inexact -= 1;
            } else {
                self.inexact += 1;
            }
        }
    }

    /// Dirty refresh of link `e`'s weights: its traversal weight and the
    /// conversion weights of every arc touching it.
    fn refresh_weights(&mut self, net: &WdmNetwork, state: &ResidualState, e: EdgeId) {
        let ei = e.index();
        let w = traversal_weight(self.spec.weights, net, state, e, state.avail(net, e));
        // The traversal arc of link `e` is arc `e`.
        self.set_arc_weight(ei, w);
        for i in self.skel.convs_of(ei) {
            let ci = self.skel.link_conv[i] as usize;
            if self.conv_stamp[ci] != self.pass {
                self.conv_stamp[ci] = self.pass;
                let slot = self.skel.conv[ci];
                let (avail_in, avail_out) =
                    (state.avail(net, slot.ein), state.avail(net, slot.eout));
                self.refresh_conv(net, ci, avail_in, avail_out);
            }
        }
    }

    /// Recomputes one conversion arc's `K_v`, average cost and enabled bit.
    fn refresh_conv(
        &mut self,
        net: &WdmNetwork,
        ci: usize,
        avail_in: WavelengthSet,
        avail_out: WavelengthSet,
    ) {
        let slot = self.skel.conv[ci];
        let (k, w) = conversion_average(self.spec.weights, net, slot, avail_in, avail_out);
        self.conv_k[ci] = k;
        if k > 0 {
            self.set_arc_weight(slot.arc as usize, w);
        }
        self.update_conv_enabled(ci);
    }

    /// Writes an arc's enabled bit into both the arc-indexed array and its
    /// slot-ordered mirror.
    #[inline]
    fn set_enabled(&mut self, idx: usize, en: bool) {
        self.enabled[idx] = en;
        self.slot_enabled[self.skel.arc_slot[idx] as usize] = en;
    }

    /// Sets admission of `e`, whose availability is `avail`, and the
    /// enabled bits of its traversal arc and taps.
    fn set_admission(
        &mut self,
        net: &WdmNetwork,
        state: &ResidualState,
        e: EdgeId,
        avail: WavelengthSet,
    ) {
        let ei = e.index();
        let adm = self.spec.admits_avail(net, state, e, avail);
        self.admitted[ei] = adm;
        // The traversal arc of link `e` is arc `e`.
        self.set_enabled(ei, adm);
        let src_en = adm && self.cur_s == Some(net.graph().src(e));
        self.set_enabled(self.src_tap(ei), src_en);
        let dst_en = adm && self.cur_t == Some(net.graph().dst(e));
        self.set_enabled(self.dst_tap(ei), dst_en);
    }

    /// Dirty refresh of link `e`'s admission and the enabled bits of the
    /// arcs that depend on it.
    fn refresh_admission(&mut self, net: &WdmNetwork, state: &ResidualState, e: EdgeId) {
        self.set_admission(net, state, e, state.avail(net, e));
        for i in self.skel.convs_of(e.index()) {
            self.update_conv_enabled(self.skel.link_conv[i] as usize);
        }
    }

    /// A conversion arc participates iff both endpoint links are admitted
    /// and at least one conversion is allowed under current availability.
    fn update_conv_enabled(&mut self, ci: usize) {
        let slot = self.skel.conv[ci];
        let en = self.conv_k[ci] > 0
            && self.admitted[slot.ein.index()]
            && self.admitted[slot.eout.index()];
        self.set_enabled(slot.arc as usize, en);
    }

    /// Moves the terminal taps to `(s, t)`.
    fn retarget(&mut self, net: &WdmNetwork, s: NodeId, t: NodeId) {
        if self.cur_s != Some(s) {
            if let Some(old) = self.cur_s {
                for &e in net.graph().out_edges(old) {
                    self.set_enabled(self.src_tap(e.index()), false);
                }
            }
            for &e in net.graph().out_edges(s) {
                self.set_enabled(self.src_tap(e.index()), self.admitted[e.index()]);
            }
            self.cur_s = Some(s);
        }
        if self.cur_t != Some(t) {
            if let Some(old) = self.cur_t {
                for &e in net.graph().in_edges(old) {
                    self.set_enabled(self.dst_tap(e.index()), false);
                }
            }
            for &e in net.graph().in_edges(t) {
                self.set_enabled(self.dst_tap(e.index()), self.admitted[e.index()]);
            }
            self.cur_t = Some(t);
        }
    }

    /// Whether every arc weight currently certifies as an exact multiple of
    /// `2^-SCALE_SHIFT` within the key cap — the precondition for the
    /// integer/bucket search path.
    #[inline]
    pub fn int_certified(&self) -> bool {
        self.inexact == 0
    }

    /// The flat CSR view of the skeleton (weights and enabled bits reflect
    /// the last [`AuxEngine::sync`]).
    pub fn flat_view(&self) -> FlatView<'_> {
        let skel = &*self.skel;
        FlatView {
            offsets: &skel.csr_off,
            heads: &skel.csr_head,
            slot_arc: &skel.csr_arc,
            arc_slot: &skel.arc_slot,
            src: &skel.arc_src,
            dst: &skel.arc_dst,
            weight: &self.arc_weight,
            enabled: &self.enabled,
            slot_weight: &self.slot_weight,
            slot_enabled: &self.slot_enabled,
        }
    }

    /// The integer keys of the skeleton's weights, when every weight
    /// certifies ([`AuxEngine::int_certified`]), with the key bound of the
    /// sink bound last computed by [`AuxEngine::disjoint_pair`]. The bound
    /// is then a sum of certified traversal weights, so it certifies too.
    pub fn int_weights(&self) -> Option<IntWeights<'_>> {
        (self.inexact == 0).then(|| IntWeights {
            key: &self.slot_key,
            scale_shift: SCALE_SHIFT,
            max_key: self.max_key,
            // The largest bound is some `w(e) + D(head e)`.
            max_bound_key: (self.sink_dist_max * (1u64 << SCALE_SHIFT) as f64) as u64
                + self.max_key,
        })
    }

    /// Recomputes `D` for the current sink over the admitted links.
    fn update_bound(&mut self) {
        let t = self.cur_t.expect("sync before searching");
        let (admitted, weight) = (&self.admitted, &self.arc_weight);
        // The traversal arc of link `e` is arc `e`.
        self.sink_dist_max = self.skel.in_links.sink_distances(
            t,
            |e| admitted[e],
            |e| weight[e],
            &mut self.sink_dist,
            &mut self.sink_heap,
        );
    }

    /// The sink bound of skeleton node `v` of [`AuxEngine::flat_view`]
    /// (module docs of [`crate::aux_graph`]) as used by the last
    /// [`AuxEngine::disjoint_pair`], from the fixed node layout.
    #[inline]
    pub fn bound(&self, v: usize) -> f64 {
        match v as u32 {
            SOURCE => self.sink_dist[self.cur_s.expect("synced").index()],
            SINK => 0.0,
            _ => {
                let e = (v - 2) / 2;
                let d = self.sink_dist[self.skel.link_head[e] as usize];
                match v % 2 {
                    0 => self.arc_weight[e] + d,
                    _ => d,
                }
            }
        }
    }

    /// The sink bound of the skeleton node standing for `node`, as used by
    /// the last [`AuxEngine::disjoint_pair`]; equal, bit for bit, to
    /// [`AuxGraph::bound`](crate::aux_graph::AuxGraph::bound) of a scratch
    /// build of the same state and request.
    pub fn bound_of(&self, node: AuxNode) -> f64 {
        self.bound(match node {
            AuxNode::Source => SOURCE,
            AuxNode::Sink => SINK,
            AuxNode::OutNode(e) => out_node(e.index()),
            AuxNode::InNode(e) => in_node(e.index()),
        } as usize)
    }

    /// Suurballe over the enabled skeleton, synced for `(s, t)` by
    /// [`AuxEngine::sync`]: computes the sink bound, then searches the CSR
    /// arrays under it, handing over the integer keys when every weight
    /// certifies as dyadic ([`SearchArena::edge_disjoint_pair_flat`] picks
    /// each pass's queue). `pass1_done` fires between the two passes.
    pub fn disjoint_pair(
        &mut self,
        arena: &mut SearchArena,
        pass1_done: impl FnMut(),
    ) -> Option<DisjointPair> {
        self.update_bound();
        let eng: &Self = self;
        let (source, sink, view, int) =
            (eng.source(), eng.sink(), eng.flat_view(), eng.int_weights());
        let h = |v| eng.bound(v);
        arena.edge_disjoint_pair_flat(&view, int.as_ref(), source, sink, h, pass1_done)
    }

    /// `s'`.
    #[inline]
    pub fn source(&self) -> NodeId {
        NodeId(SOURCE)
    }

    /// `t''`.
    #[inline]
    pub fn sink(&self) -> NodeId {
        NodeId(SINK)
    }

    /// The current auxiliary graph: `(tail, head, kind, weight)` of every
    /// enabled arc, in arc-id order — the canonical form a scratch
    /// [`AuxGraph::build`](crate::aux_graph::AuxGraph::build) of the same
    /// state and request must reproduce arc for arc.
    pub fn enabled_arcs(&self) -> impl Iterator<Item = (AuxNode, AuxNode, AuxArc, f64)> + '_ {
        let skel = &*self.skel;
        (0..skel.arc_kind.len())
            .filter(|&a| self.enabled[a])
            .map(move |a| {
                (
                    node_kind(skel.arc_src[a]),
                    node_kind(skel.arc_dst[a]),
                    skel.arc_kind[a],
                    self.arc_weight[a],
                )
            })
    }

    /// Maps a path over the skeleton back to the physical links it
    /// traverses (in order).
    pub fn physical_edges(&self, path: &Path) -> Vec<EdgeId> {
        path.edges
            .iter()
            .filter_map(|&ae| match self.skel.arc_kind[ae.index()] {
                AuxArc::Traversal(pe) => Some(pe),
                _ => None,
            })
            .collect()
    }

    /// Number of links admitted at the last sync.
    pub fn admitted_links(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }
}

/// Number of [`RouterCtx`] engine slots: one per auxiliary-graph family.
const FAMILIES: usize = 5;

/// The [`RouterCtx`] engine slot of `spec`'s family: `G'`, `G_rc` (prose
/// and as printed), and `G_c` on current and on prospective load.
fn family(spec: AuxSpec) -> usize {
    match (spec.weights, spec.basis) {
        (AuxWeights::AverageCost, _) if spec.threshold.is_none() => 0,
        (AuxWeights::AverageCost, _) => 1,
        (AuxWeights::AverageCostOverN, _) => 2,
        (AuxWeights::CongestionExp { .. }, ThresholdBasis::CurrentLoad) => 3,
        (AuxWeights::CongestionExp { .. }, ThresholdBasis::ProspectiveLoad) => 4,
    }
}

/// Persistent routing context: one engine per auxiliary-graph family, all
/// over one shared [`Skeleton`], plus the shared [`SearchArena`]. Hold one
/// of these per network wherever requests are routed repeatedly (the
/// simulator owns one per run) and the skeleton/refresh machinery
/// amortises across every request; one-shot entry points create a
/// throwaway context internally. The context builds the skeleton on its
/// first search, unless [`RouterCtx::with_skeleton`] handed it one built
/// elsewhere (the `wdm serve` daemon builds one for all its workers), and
/// each engine slot then only allocates and fills its own weights. What
/// persists is the skeleton, the engines' weights and the arena's
/// buffers; every search itself starts cold, so a warm context routes
/// exactly as a fresh one would (`wdm-sim`'s `batch_equivalence.rs` and
/// `conflict_warm_ctx.rs` check this).
///
/// The context is generic over a [`Recorder`] and a [`Tracer`]. The
/// defaults [`NoopRecorder`] / [`NoopTracer`] monomorphise all
/// instrumentation away (every recording site is gated on an
/// `#[inline(always)] false` `enabled()`), so the uninstrumented hot path
/// is unchanged; [`RouterCtx::with_recorder`] swaps in a live recorder
/// such as `&wdm_telemetry::TelemetrySink`, and
/// [`RouterCtx::with_recorder_and_tracer`] additionally attaches a span
/// buffer that times the pipeline phases (aux refresh, the two Suurballe
/// passes, physical map-back, refinement) per request.
#[derive(Debug, Clone, Default)]
pub struct RouterCtx<R: Recorder = NoopRecorder, T: Tracer = NoopTracer> {
    /// Reusable Dijkstra/Suurballe buffers.
    pub arena: SearchArena,
    recorder: R,
    tracer: T,
    /// The skeleton new engine slots are built over.
    skeleton: Option<Arc<Skeleton>>,
    /// One engine per auxiliary-graph family, indexed by [`family`].
    engines: [Option<AuxEngine>; FAMILIES],
    /// MinCog warm-start memory: `(residual epoch, accepted ladder index)`
    /// of the last §4.1 threshold search (see `mincog::find_two_paths_mincog_ctx`).
    pub(crate) mincog_warm: Option<(u64, u32)>,
}

impl RouterCtx {
    /// An uninstrumented context (the [`NoopRecorder`] / [`NoopTracer`]
    /// defaults).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Recorder> RouterCtx<R, NoopTracer> {
    /// A context whose searches report into `recorder` (no span tracing).
    pub fn with_recorder(recorder: R) -> Self {
        Self::with_recorder_and_tracer(recorder, NoopTracer)
    }
}

impl<R: Recorder, T: Tracer> RouterCtx<R, T> {
    /// A context whose searches report into `recorder` and whose pipeline
    /// phases are timed into `tracer`.
    pub fn with_recorder_and_tracer(recorder: R, tracer: T) -> Self {
        Self {
            arena: SearchArena::new(),
            recorder,
            tracer,
            skeleton: None,
            engines: Default::default(),
            mincog_warm: None,
        }
    }

    /// The context with `skeleton`, built elsewhere, as the one its engine
    /// slots are built over, so it never builds its own for that network.
    pub fn with_skeleton(mut self, skeleton: Arc<Skeleton>) -> Self {
        self.skeleton = Some(skeleton);
        self
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Invalidates every held engine (see [`AuxEngine::invalidate`]). Call
    /// when reusing the context across independent [`ResidualState`]
    /// lineages.
    pub fn invalidate(&mut self) {
        for e in self.engines.iter_mut().flatten() {
            e.invalidate();
        }
        // Warm-start memory keys on a change clock that is only meaningful
        // within one lineage.
        self.mincog_warm = None;
    }

    /// The engine for `spec`'s family with its threshold set, created on
    /// first use or after a network change over the context's skeleton
    /// (built first if the context holds none for `net`). Returns whether
    /// a skeleton was built. Takes the skeleton and engine fields rather
    /// than `self` so callers can keep disjoint borrows of the context's
    /// other fields (arena, tracer) alive alongside the returned engine.
    fn engine_slot<'a>(
        skeleton: &mut Option<Arc<Skeleton>>,
        engines: &'a mut [Option<AuxEngine>; FAMILIES],
        net: &WdmNetwork,
        spec: AuxSpec,
    ) -> (&'a mut AuxEngine, bool) {
        let slot = &mut engines[family(spec)];
        let reuse = slot.as_ref().is_some_and(|eng| {
            eng.matches(net) && eng.spec().weights == spec.weights && eng.spec().basis == spec.basis
        });
        let mut built = false;
        if !reuse {
            let skel = match skeleton {
                Some(skel) if skel.matches(net) => skel,
                _ => {
                    built = true;
                    skeleton.insert(Arc::new(Skeleton::new(net)))
                }
            };
            *slot = Some(AuxEngine::with_skeleton(Arc::clone(skel), spec));
        }
        let eng = slot.as_mut().expect("just ensured");
        eng.set_threshold(spec.threshold);
        (eng, built)
    }

    /// Syncs the engine for `spec` and runs Suurballe over the enabled
    /// skeleton. Returns the auxiliary pair and both legs' physical edges.
    pub(crate) fn disjoint_pair(
        &mut self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
        spec: AuxSpec,
    ) -> Option<(DisjointPair, [Vec<EdgeId>; 2])> {
        let enabled = self.recorder.enabled();
        let start = enabled.then(std::time::Instant::now);
        let RouterCtx {
            arena,
            tracer,
            skeleton,
            engines,
            ..
        } = &mut *self;
        // The refresh span opens before engine selection: a cold slot
        // allocates its engine (and a cold context builds the skeleton)
        // here, and that cost belongs to `AuxRefresh`, not to an
        // attribution gap.
        let tracing = tracer.enabled();
        let sync_t0 = tracer.now_ns();
        let (eng, built) = Self::engine_slot(skeleton, engines, net, spec);
        let sync = eng.sync(net, state, s, t);
        if tracing {
            tracer.record(Phase::AuxRefresh, sync_t0);
        }
        // Pass 1's span includes the sink bound the search computes first.
        let p1_t0 = tracer.now_ns();
        // The staged callback fires between the two Suurballe passes; it
        // closes the pass-1 span and opens the pass-2 stamp. If pass 1
        // fails (t unreachable) it never fires and neither span records.
        let mut p2_t0 = None;
        let arena_before = enabled.then(|| (arena.settled(), arena.alloc_events()));
        let pair_opt = eng.disjoint_pair(arena, || {
            if tracing {
                tracer.record(Phase::SuurballeP1, p1_t0);
                p2_t0 = Some(tracer.now_ns());
            }
        });
        if tracing && p2_t0.is_none() {
            // The staged callback never fired: pass 1 ran to exhaustion
            // and found no path. The failed search is still pass-1 work.
            tracer.record(Phase::SuurballeP1, p1_t0);
        }
        let eng: &AuxEngine = eng;
        let result = pair_opt.map(|pair| {
            if let Some(t0) = p2_t0.take() {
                tracer.record(Phase::SuurballeP2, t0);
            }
            let mb_t0 = tracer.now_ns();
            let phys_a = eng.physical_edges(&pair.paths[0]);
            let phys_b = eng.physical_edges(&pair.paths[1]);
            if tracing {
                tracer.record(Phase::MapBack, mb_t0);
            }
            (pair, [phys_a, phys_b])
        });
        if let Some(t0) = p2_t0 {
            // Pass 2 ran but found no second path: still attribute it.
            tracer.record(Phase::SuurballeP2, t0);
        }
        if let Some(([p1, p2], allocs)) = arena_before {
            let [now1, now2] = self.arena.settled();
            let allocs = self.arena.alloc_events() - allocs;
            self.record_search(built, sync, start, [now1 - p1, now2 - p2], allocs);
        }
        result
    }

    /// Cold path: folds one search's engine and arena activity into the
    /// counters. Only called when the recorder is live.
    fn record_search(
        &self,
        built: bool,
        sync: SyncStats,
        start: Option<std::time::Instant>,
        settled: [u64; 2],
        arena_allocs: u64,
    ) {
        let r = &self.recorder;
        r.add(Counter::SuurballeSearches, 1);
        r.add(Counter::SuurballeSettledP1, settled[0]);
        r.add(Counter::SuurballeSettledP2, settled[1]);
        r.add(Counter::ArenaAllocEvents, arena_allocs);
        if built {
            r.add(Counter::EngineSkeletonBuilds, 1);
        }
        if sync.full {
            r.add(Counter::EngineFullRefreshes, 1);
        } else if sync.links_refreshed > 0 {
            r.add(Counter::EngineDirtyRefreshes, 1);
            r.add(
                Counter::EngineDirtyLinksRefreshed,
                sync.links_refreshed as u64,
            );
        } else {
            r.add(Counter::EngineFastSyncs, 1);
        }
        if let Some(t0) = start {
            r.observe(Hist::SearchNanos, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_graph::AuxGraph;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::{Wavelength, WavelengthSet};

    fn fig1_like() -> WdmNetwork {
        let mut b = NetworkBuilder::new(3);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 1.0 }))
            .collect();
        b.add_link_with(n[0], n[1], 2.0, WavelengthSet::from_indices(&[0, 1]));
        b.add_link_with(n[1], n[3], 2.0, WavelengthSet::from_indices(&[1, 2]));
        b.add_link_with(n[0], n[2], 3.0, WavelengthSet::from_indices(&[0]));
        b.add_link_with(n[2], n[3], 3.0, WavelengthSet::from_indices(&[2]));
        b.add_link_with(n[1], n[2], 1.0, WavelengthSet::from_indices(&[0, 1, 2]));
        b.build()
    }

    type Canon = Vec<(AuxNode, AuxNode, AuxArc, u64)>;

    /// (src-kind, dst-kind, kind, weight-bits) of every enabled / existing
    /// arc — the canonical form both constructions must agree on.
    fn canon_engine(eng: &AuxEngine) -> Canon {
        eng.enabled_arcs()
            .map(|(s, t, kind, w)| (s, t, kind, w.to_bits()))
            .collect()
    }

    fn canon_scratch(aux: &AuxGraph) -> Canon {
        aux.graph
            .edge_ids()
            .map(|e| {
                let d = aux.graph.edge(e);
                let s = *aux.graph.node(aux.graph.src(e));
                let t = *aux.graph.node(aux.graph.dst(e));
                (s, t, d.kind, d.weight.to_bits())
            })
            .collect()
    }

    fn assert_equiv(
        net: &WdmNetwork,
        state: &ResidualState,
        eng: &mut AuxEngine,
        s: NodeId,
        t: NodeId,
        spec: AuxSpec,
    ) {
        eng.sync(net, state, s, t);
        let scratch = AuxGraph::build(net, state, s, t, spec);
        assert_eq!(eng.admitted_links(), scratch.admitted_links());
        assert_eq!(canon_engine(eng), canon_scratch(&scratch));
    }

    #[test]
    fn engine_matches_scratch_across_mutations() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        let (s, t) = (NodeId(0), NodeId(3));
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.occupy(&net, EdgeId(2), Wavelength(0)).unwrap(); // drops e2
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.fail_link(EdgeId(4));
        assert_equiv(&net, &st, &mut eng, s, t, spec);

        st.repair_link(EdgeId(4));
        st.release(EdgeId(2), Wavelength(0)).unwrap();
        assert_equiv(&net, &st, &mut eng, s, t, spec);
    }

    #[test]
    fn retargeting_moves_taps() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
        assert_equiv(&net, &st, &mut eng, NodeId(1), NodeId(2), spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
    }

    #[test]
    fn threshold_updates_re_mask_without_weight_churn() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(4), Wavelength(0)).unwrap(); // load 1/3
        let mut eng = AuxEngine::new(&net, AuxSpec::g_c(2.0, 0.3));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.3),
        );
        eng.set_threshold(Some(0.5));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.5),
        );
        eng.set_threshold(Some(0.3));
        assert_equiv(
            &net,
            &st,
            &mut eng,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_c(2.0, 0.3),
        );
    }

    /// A live recorder gets each search's settled counts, as counters and
    /// in the request's stats; the no-op default records none.
    #[test]
    fn settled_counts_reach_a_live_recorder() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let (s, t, spec) = (NodeId(0), NodeId(3), AuxSpec::g_prime());
        let sink = wdm_telemetry::TelemetrySink::new();
        let mut ctx = RouterCtx::with_recorder(&sink);
        ctx.disjoint_pair(&net, &st, s, t, spec).expect("pair");
        let [p1, p2] = ctx.arena.settled();
        assert!(p1 > 0 && p2 > 0);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["suurballe_settled_p1"], p1);
        assert_eq!(snap.counters["suurballe_settled_p2"], p2);
        // A cold arena grows its buffers on the first search and the
        // counter sees every growth; a repeat search grows nothing.
        let allocs = ctx.arena.alloc_events();
        assert!(allocs > 0);
        assert_eq!(snap.counters["arena_alloc_events"], allocs);
        ctx.disjoint_pair(&net, &st, s, t, spec).expect("pair");
        assert_eq!(ctx.arena.alloc_events(), allocs);
        assert_eq!(sink.snapshot().counters["arena_alloc_events"], allocs);

        let mut quiet = RouterCtx::new();
        quiet.disjoint_pair(&net, &st, s, t, spec).expect("pair");
        assert_eq!(quiet.arena.settled(), [p1, p2]);
    }

    /// A context builds one skeleton for all its engine slots, and none at
    /// all over a skeleton handed to it; the skeleton can cross threads.
    #[test]
    fn one_skeleton_serves_every_engine_slot() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Skeleton>();

        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let (s, t) = (NodeId(0), NodeId(3));
        let specs = [
            AuxSpec::g_prime(),
            AuxSpec::g_c(2.0, 0.9),
            AuxSpec::g_rc(0.9),
            AuxSpec::g_rc_as_printed(0.9),
        ];
        let sink = wdm_telemetry::TelemetrySink::new();
        let mut ctx = RouterCtx::with_recorder(&sink);
        for spec in specs {
            ctx.disjoint_pair(&net, &st, s, t, spec).expect("pair");
        }
        assert_eq!(sink.counter(Counter::EngineSkeletonBuilds), 1);
        assert_eq!(sink.counter(Counter::EngineFullRefreshes), 4);

        let shared = wdm_telemetry::TelemetrySink::new();
        let skeleton = Arc::new(Skeleton::new(&net));
        let mut ctx = RouterCtx::with_recorder(&shared).with_skeleton(Arc::clone(&skeleton));
        for spec in specs {
            ctx.disjoint_pair(&net, &st, s, t, spec).expect("pair");
        }
        assert_eq!(shared.counter(Counter::EngineSkeletonBuilds), 0);
        // This handle, the context's and one per engine slot.
        assert_eq!(Arc::strong_count(&skeleton), 2 + specs.len());
    }

    #[test]
    fn clock_regression_triggers_full_refresh() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        let spec = AuxSpec::g_prime();
        let mut eng = AuxEngine::new(&net, spec);
        assert_equiv(&net, &st, &mut eng, NodeId(0), NodeId(3), spec);
        // A brand-new state has clock 0 < the engine's synced clock: the
        // engine must notice and fully refresh.
        let fresh = ResidualState::fresh(&net);
        assert_equiv(&net, &fresh, &mut eng, NodeId(0), NodeId(3), spec);
    }
}
