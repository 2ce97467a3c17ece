//! Auxiliary-graph constructions: `G'` (§3.3.1), `G_c` (§4.1) and `G_rc`
//! (§4.2).
//!
//! All three share one structure — only weights and a load threshold differ:
//!
//! * **nodes**: for each physical link `e = ⟨u, v⟩` with `Λ_avail(e) ≠ ∅`
//!   (and, for the thresholded graphs, `ρ(e) < ϑ`), two *edge-nodes*
//!   `u_out^e` and `v_in^e`, plus the terminals `s'` and `t''`;
//! * **traversal links** `u_out^e → v_in^e`, one per admitted physical link;
//! * **conversion links** `v_in^e → v_out^{e'}` for every admitted pair
//!   `e ∈ E_in(v)`, `e' ∈ E_out(v)` with at least one allowed conversion
//!   `λ_a ∈ Λ_avail(e) → λ_b ∈ Λ_avail(e')`;
//! * **taps** `s' → s_out^{e₁}` and `t_in^{e₂} → t''`, weight 0.
//!
//! Weight schemes ([`AuxWeights`]):
//!
//! * `AverageCost` (`G'`): traversal = `Σ_{λ∈avail} w(e,λ) / |Λ_avail(e)|`,
//!   conversion = `Σ allowed pairs c_v(λ_a, λ_b) / K_v` with `K_v` the number
//!   of allowed pairs for this `(e, e')` — the "average cost of all possible
//!   conversions" of §3.3.1.
//! * `CongestionExp { a }` (`G_c`): traversal =
//!   `a^((U(e)+1)/N(e)) − a^(U(e)/N(e))`, conversion = 0. The exponential
//!   increment steers Suurballe away from heavily loaded links.
//! * `AverageCostOverN` (`G_rc` *as printed*): traversal =
//!   `Σ_{λ∈avail} w(e,λ) / N(e)`. The paper's §4.2 formula normalises by the
//!   full capacity `N(e)`, which under uniform costs equals `w·(1 − ρ(e))`
//!   and *discounts loaded links* — contradicting both the section's goal
//!   and its own prose ("the average of all possible weights"). The default
//!   [`AuxSpec::g_rc`] therefore uses the `AverageCost` scheme (divide by
//!   `|Λ_avail(e)|`); the literal formula is kept as
//!   [`AuxSpec::g_rc_as_printed`] for the ablation experiment.
//!
//! Both tiers guide Suurballe with the same *sink bound* `h`, a lower
//! bound on every auxiliary node's remaining cost to `t''`: conversions
//! cost ≥ 0, so a path costs at least the traversal weights of the links
//! it crosses. With `D(v)` the distance from physical node `v` to `t` over
//! the admitted links, each weighted by its traversal arc
//! (`InLinks::sink_distances`), `h(s') = D(s)`, `h(t'') = 0`,
//! `h(v_in^e) = D(head e)` and `h(u_out^e) = w(e) + D(head e)`. It is
//! consistent: traversal arcs are tight, and conversion and tap arcs cost
//! ≥ 0 while `D` is a shortest-path distance.

use crate::network::{ResidualState, WdmNetwork};
use crate::wavelength::WavelengthSet;
use wdm_graph::suurballe::DisjointPair;
use wdm_graph::traverse::edge_connectivity_filtered;
use wdm_graph::{DiGraph, EdgeId, NodeId, SearchArena};
use wdm_heap::{DaryHeap, MinQueue};

/// What an auxiliary-graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxNode {
    /// `s'`.
    Source,
    /// `t''`.
    Sink,
    /// `u_out^e`: the tail-side edge-node of physical link `e`.
    OutNode(EdgeId),
    /// `v_in^e`: the head-side edge-node of physical link `e`.
    InNode(EdgeId),
}

/// What an auxiliary-graph link stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxArc {
    /// `u_out^e → v_in^e`: traversing physical link `e`.
    Traversal(EdgeId),
    /// `v_in^e → v_out^{e'}`: wavelength conversion at node `v`.
    Conversion(NodeId),
    /// `s' → s_out^{e}` or `t_in^{e} → t''`.
    Tap,
}

/// Weighted auxiliary-arc payload.
#[derive(Debug, Clone, Copy)]
pub struct AuxEdgeData {
    /// Semantic role.
    pub kind: AuxArc,
    /// Weight `ω` per the active scheme.
    pub weight: f64,
}

/// Weight scheme selector (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuxWeights {
    /// `G'`: average traversal + average conversion cost.
    AverageCost,
    /// `G_c`: exponential congestion increment with base `a`, conversions 0.
    CongestionExp {
        /// Base of the exponential (`a > 1`).
        a: f64,
    },
    /// `G_rc`: average traversal over `N(e)` + average conversion cost.
    AverageCostOverN,
}

/// What quantity the admission threshold is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdBasis {
    /// Admit links with *current* load `U(e)/N(e) < ϑ` — the paper's §4.1
    /// rule.
    #[default]
    CurrentLoad,
    /// Admit links whose *prospective* load `(U(e)+1)/N(e) ≤ ϑ` — i.e. the
    /// load the link would reach if the route used it. Used by the exact
    /// minimum-bottleneck search, whose objective is the achieved load.
    ProspectiveLoad,
}

/// Full specification of an auxiliary graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuxSpec {
    /// Weight scheme.
    pub weights: AuxWeights,
    /// Load threshold `ϑ`: links beyond it are dropped
    /// (`None` = no thresholding, i.e. `G'`).
    pub threshold: Option<f64>,
    /// Which load the threshold filters on.
    pub basis: ThresholdBasis,
}

impl AuxSpec {
    /// The `G'` spec (§3.3.1).
    pub fn g_prime() -> Self {
        Self {
            weights: AuxWeights::AverageCost,
            threshold: None,
            basis: ThresholdBasis::CurrentLoad,
        }
    }

    /// The `G_c` spec (§4.1).
    pub fn g_c(a: f64, threshold: f64) -> Self {
        assert!(a > 1.0, "exponential base must exceed 1");
        Self {
            weights: AuxWeights::CongestionExp { a },
            threshold: Some(threshold),
            basis: ThresholdBasis::CurrentLoad,
        }
    }

    /// A `G_c` variant admitting links by *prospective* load
    /// `(U(e)+1)/N(e) ≤ ϑ` — the admission family whose minimal feasible
    /// threshold equals the optimal achievable bottleneck load. Used by
    /// [`crate::mincog::exact_min_load_threshold`].
    pub fn g_c_prospective(a: f64, threshold: f64) -> Self {
        assert!(a > 1.0, "exponential base must exceed 1");
        Self {
            weights: AuxWeights::CongestionExp { a },
            threshold: Some(threshold),
            basis: ThresholdBasis::ProspectiveLoad,
        }
    }

    /// The `G_rc` spec (§4.2), with the traversal weight taken as the true
    /// average over *available* wavelengths (`/ |Λ_avail(e)|`, as in `G'`).
    ///
    /// The paper's formula divides by `N(e)` instead, but its own prose
    /// ("the average of all possible weights on link e using different
    /// wavelengths") describes the `|Λ_avail|` average; dividing by `N(e)`
    /// makes a loaded link's weight `w·(1 − ρ(e))`, i.e. *discounts* hot
    /// links and attracts routes to them — measurably worse in the dynamic
    /// experiments (see the `exp_grc_ablation` binary). We treat `/N(e)` as
    /// a typo; [`AuxSpec::g_rc_as_printed`] keeps the literal version.
    pub fn g_rc(threshold: f64) -> Self {
        Self {
            weights: AuxWeights::AverageCost,
            threshold: Some(threshold),
            basis: ThresholdBasis::CurrentLoad,
        }
    }

    /// The `G_rc` spec exactly as printed in §4.2 (traversal weight
    /// `Σ_{λ∈Λ_avail} w(e,λ) / N(e)`). See [`AuxSpec::g_rc`] for why this is
    /// believed to be a typo; kept for the ablation experiment.
    pub fn g_rc_as_printed(threshold: f64) -> Self {
        Self {
            weights: AuxWeights::AverageCostOverN,
            threshold: Some(threshold),
            basis: ThresholdBasis::CurrentLoad,
        }
    }

    /// Whether physical link `e` is admitted under `state`: it has an
    /// available wavelength and, if thresholded, passes the load threshold
    /// on this spec's basis. The one admission rule of every auxiliary
    /// graph, scratch or incremental, and of the threshold flow check.
    pub fn admits(&self, net: &WdmNetwork, state: &ResidualState, e: EdgeId) -> bool {
        self.admits_avail(net, state, e, state.avail(net, e))
    }

    /// [`AuxSpec::admits`] for a link whose availability `avail` the caller
    /// has already computed.
    pub(crate) fn admits_avail(
        &self,
        net: &WdmNetwork,
        state: &ResidualState,
        e: EdgeId,
        avail: WavelengthSet,
    ) -> bool {
        if avail.is_empty() {
            return false;
        }
        match (self.threshold, self.basis) {
            (None, _) => true,
            (Some(th), ThresholdBasis::CurrentLoad) => state.load(net, e) < th - 1e-12,
            (Some(th), ThresholdBasis::ProspectiveLoad) => {
                state.prospective_load(net, e) <= th + 1e-12
            }
        }
    }

    /// Whether the admitted links carry two edge-disjoint `s → t` paths: a
    /// unit-capacity flow capped at 2, `O(n + m)` per augmentation.
    ///
    /// Necessary for an auxiliary pair under any conversion tables: the
    /// two legs of a pair cross disjoint admitted links. Under full
    /// conversion it is also sufficient, because every admitted link has a
    /// free wavelength, so every consecutive pair of admitted links has a
    /// conversion arc and two disjoint physical paths map to two disjoint
    /// auxiliary ones.
    pub fn admits_disjoint_pair(
        &self,
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
    ) -> bool {
        edge_connectivity_filtered(net.graph(), s, t, 2, |e| self.admits(net, state, e)) == 2
    }
}

/// An auxiliary graph together with the mappings back to the physical
/// network.
#[derive(Debug, Clone)]
pub struct AuxGraph {
    /// The weighted directed graph.
    pub graph: DiGraph<AuxNode, AuxEdgeData>,
    /// `s'`.
    pub source: NodeId,
    /// `t''`.
    pub sink: NodeId,
    /// Per physical edge: its `u_out^e` node, if admitted.
    out_node: Vec<Option<NodeId>>,
    /// Per physical edge: its `v_in^e` node, if admitted.
    in_node: Vec<Option<NodeId>>,
    /// The sink bound per node (module docs).
    bound: Vec<f64>,
}

/// The links entering each physical node, flattened: the reverse
/// adjacency the sink bound's Dijkstra walks. The engine builds it once
/// with its skeleton and a scratch build builds it on the spot, from the
/// same `in_edges` order, so both tiers' bounds agree bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct InLinks {
    /// Row offsets per physical node (`len == node_count + 1`).
    off: Vec<u32>,
    /// `(link, tail)` per slot, each row in `in_edges` order.
    links: Vec<(u32, u32)>,
}

impl InLinks {
    pub(crate) fn new(net: &WdmNetwork) -> Self {
        let g = net.graph();
        let mut off = Vec::with_capacity(g.node_count() + 1);
        let mut links = Vec::with_capacity(g.edge_count());
        for v in g.node_ids() {
            off.push(links.len() as u32);
            for &e in g.in_edges(v) {
                links.push((e.index() as u32, g.src(e).index() as u32));
            }
        }
        off.push(links.len() as u32);
        Self { off, links }
    }

    /// `D(v)`, the distance from every physical node to `t` over the links
    /// `admitted` accepts, each weighted by `weight(e)` (its traversal
    /// arc's weight): a reverse Dijkstra into `dist`, infinite where `t`
    /// is unreachable. Returns the largest finite distance.
    pub(crate) fn sink_distances(
        &self,
        t: NodeId,
        admitted: impl Fn(usize) -> bool,
        weight: impl Fn(usize) -> f64,
        dist: &mut Vec<f64>,
        heap: &mut DaryHeap<f64, 4>,
    ) -> f64 {
        let n = self.off.len() - 1;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        heap.ensure_capacity(n);
        heap.clear();
        dist[t.index()] = 0.0;
        heap.insert(t.index(), 0.0);
        let mut farthest = 0.0;
        while let Some((v, dv)) = heap.pop_min() {
            farthest = dv;
            for &(e, u) in &self.links[self.off[v] as usize..self.off[v + 1] as usize] {
                if !admitted(e as usize) {
                    continue;
                }
                let nd = dv + weight(e as usize);
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.insert_or_decrease(u as usize, nd);
                }
            }
        }
        farthest
    }
}

impl AuxGraph {
    /// Builds the auxiliary graph for request `(s, t)` over the residual
    /// network defined by `state`, per `spec`.
    pub fn build(
        net: &WdmNetwork,
        state: &ResidualState,
        s: NodeId,
        t: NodeId,
        spec: AuxSpec,
    ) -> Self {
        let m = net.link_count();
        let mut graph: DiGraph<AuxNode, AuxEdgeData> = DiGraph::with_capacity(2 * m + 2, 3 * m);
        let source = graph.add_node(AuxNode::Source);
        let sink = graph.add_node(AuxNode::Sink);
        let mut out_node: Vec<Option<NodeId>> = vec![None; m];
        let mut in_node: Vec<Option<NodeId>> = vec![None; m];
        let mut traversal_weight = vec![0.0; m];

        // Edge-nodes and traversal links.
        for ei in 0..m {
            let e = EdgeId::from(ei);
            if !spec.admits(net, state, e) {
                continue;
            }
            let uo = graph.add_node(AuxNode::OutNode(e));
            let vi = graph.add_node(AuxNode::InNode(e));
            out_node[ei] = Some(uo);
            in_node[ei] = Some(vi);
            let avail = state.avail(net, e);
            let weight = match spec.weights {
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
            };
            traversal_weight[ei] = weight;
            graph.add_edge(
                uo,
                vi,
                AuxEdgeData {
                    kind: AuxArc::Traversal(e),
                    weight,
                },
            );
        }

        // Conversion links per physical node.
        for v in net.graph().node_ids() {
            let conv = net.conversion(v);
            for &ein in net.graph().in_edges(v) {
                let Some(vi) = in_node[ein.index()] else {
                    continue;
                };
                let avail_in = state.avail(net, ein);
                for &eout in net.graph().out_edges(v) {
                    let Some(vo) = out_node[eout.index()] else {
                        continue;
                    };
                    let avail_out = state.avail(net, eout);
                    // Sum allowed conversion costs and count them (K_v).
                    let mut total = 0.0;
                    let mut k = 0usize;
                    for la in avail_in.iter() {
                        for lb in avail_out.iter() {
                            if let Some(c) = conv.cost(la, lb) {
                                total += c;
                                k += 1;
                            }
                        }
                    }
                    if k > 0 {
                        let weight = match spec.weights {
                            AuxWeights::CongestionExp { .. } => 0.0,
                            _ => total / k as f64,
                        };
                        graph.add_edge(
                            vi,
                            vo,
                            AuxEdgeData {
                                kind: AuxArc::Conversion(v),
                                weight,
                            },
                        );
                    }
                }
            }
        }

        // Terminal taps.
        for &e in net.graph().out_edges(s) {
            if let Some(uo) = out_node[e.index()] {
                graph.add_edge(
                    source,
                    uo,
                    AuxEdgeData {
                        kind: AuxArc::Tap,
                        weight: 0.0,
                    },
                );
            }
        }
        for &e in net.graph().in_edges(t) {
            if let Some(vi) = in_node[e.index()] {
                graph.add_edge(
                    vi,
                    sink,
                    AuxEdgeData {
                        kind: AuxArc::Tap,
                        weight: 0.0,
                    },
                );
            }
        }

        let mut dist = Vec::new();
        InLinks::new(net).sink_distances(
            t,
            |e| out_node[e].is_some(),
            |e| traversal_weight[e],
            &mut dist,
            &mut DaryHeap::with_capacity(0),
        );
        let mut bound = vec![0.0; graph.node_count()];
        bound[source.index()] = dist[s.index()];
        for ei in 0..m {
            if let (Some(uo), Some(vi)) = (out_node[ei], in_node[ei]) {
                let d = dist[net.graph().dst(EdgeId::from(ei)).index()];
                bound[uo.index()] = traversal_weight[ei] + d;
                bound[vi.index()] = d;
            }
        }

        Self {
            graph,
            source,
            sink,
            out_node,
            in_node,
            bound,
        }
    }

    /// The sink bound `h(v)` (module docs): a consistent lower bound on
    /// `v`'s remaining cost to `t''`, infinite where `t''` is unreachable.
    pub fn bound(&self, v: NodeId) -> f64 {
        self.bound[v.index()]
    }

    /// The oracle's Suurballe: a minimum-cost pair of edge-disjoint
    /// `s' → t''` paths, guided by [`AuxGraph::bound`] exactly as the
    /// engine's search is, so both tiers return the same route.
    pub fn disjoint_pair(&self) -> Option<DisjointPair> {
        SearchArena::new().edge_disjoint_pair(
            &self.graph,
            self.source,
            self.sink,
            |e| self.weight(e),
            |_| true,
            |v| self.bound[v],
        )
    }

    /// Weight accessor for the shortest-path calls.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.graph.edge(e).weight
    }

    /// Maps a path in the auxiliary graph back to the physical links it
    /// traverses (in order).
    pub fn physical_edges(&self, path: &wdm_graph::Path) -> Vec<EdgeId> {
        path.edges
            .iter()
            .filter_map(|&ae| match self.graph.edge(ae).kind {
                AuxArc::Traversal(pe) => Some(pe),
                _ => None,
            })
            .collect()
    }

    /// The `u_out^e` node of physical edge `e`, if admitted.
    pub fn out_node_of(&self, e: EdgeId) -> Option<NodeId> {
        self.out_node[e.index()]
    }

    /// The `v_in^e` node of physical edge `e`, if admitted.
    pub fn in_node_of(&self, e: EdgeId) -> Option<NodeId> {
        self.in_node[e.index()]
    }

    /// Number of admitted physical links.
    pub fn admitted_links(&self) -> usize {
        self.out_node.iter().filter(|o| o.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::ConversionTable;
    use crate::network::NetworkBuilder;
    use crate::wavelength::{Wavelength, WavelengthSet};

    /// Small residual network in the spirit of the paper's Figure 1: four
    /// nodes, five links, three wavelengths with partial availability.
    fn fig1_like() -> WdmNetwork {
        let mut b = NetworkBuilder::new(3);
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node(ConversionTable::Full { cost: 1.0 }))
            .collect();
        b.add_link_with(n[0], n[1], 2.0, WavelengthSet::from_indices(&[0, 1])); // e0
        b.add_link_with(n[1], n[3], 2.0, WavelengthSet::from_indices(&[1, 2])); // e1
        b.add_link_with(n[0], n[2], 3.0, WavelengthSet::from_indices(&[0])); // e2
        b.add_link_with(n[2], n[3], 3.0, WavelengthSet::from_indices(&[2])); // e3
        b.add_link_with(n[1], n[2], 1.0, WavelengthSet::from_indices(&[0, 1, 2])); // e4
        b.build()
    }

    #[test]
    fn g_prime_structure() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_prime());
        // 2 terminals + 2 edge-nodes per admitted link (all 5 admitted).
        assert_eq!(aux.graph.node_count(), 2 + 2 * 5);
        assert_eq!(aux.admitted_links(), 5);
        // Traversal links: 5. Taps: out(s=0) = e0, e2 -> 2; in(t=3) = e1, e3 -> 2.
        let traversals = aux
            .graph
            .edge_ids()
            .filter(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Traversal(_)))
            .count();
        assert_eq!(traversals, 5);
        let taps = aux
            .graph
            .edge_ids()
            .filter(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Tap))
            .count();
        assert_eq!(taps, 4);
        // Conversion links: node 1 has in {e0}, out {e1, e4} -> 2;
        // node 2 has in {e2, e4}, out {e3} -> 2. Total 4.
        let conversions = aux
            .graph
            .edge_ids()
            .filter(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Conversion(_)))
            .count();
        assert_eq!(conversions, 4);
    }

    #[test]
    fn g_prime_weights_are_averages() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_prime());
        // Traversal weight of e0 (uniform cost 2.0, avail {λ0, λ1}) = 2.0.
        let e0_trav = aux
            .graph
            .edge_ids()
            .find(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Traversal(pe) if pe == EdgeId(0)))
            .unwrap();
        assert_eq!(aux.weight(e0_trav), 2.0);
        // Conversion at node 1 between e0 (avail {0,1}) and e1 (avail {1,2}):
        // pairs: (0,1)=1,(0,2)=1,(1,1)=0,(1,2)=1 -> avg = 3/4.
        let conv = aux
            .graph
            .edge_ids()
            .find(|&e| {
                matches!(aux.graph.edge(e).kind, AuxArc::Conversion(v) if v == NodeId(1))
                    && matches!(aux.graph.node(aux.graph.src(e)), AuxNode::InNode(pe) if *pe == EdgeId(0))
                    && matches!(aux.graph.node(aux.graph.dst(e)), AuxNode::OutNode(pe) if *pe == EdgeId(1))
            })
            .unwrap();
        assert!((aux.weight(conv) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn occupancy_shrinks_availability_averages() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        // Occupy λ1 on e0: avail {0}; per-λ cost uniform so traversal stays 2.
        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_prime());
        // Conversion at node 1 between e0 (avail {0}) and e1 (avail {1,2}):
        // pairs (0,1)=1,(0,2)=1 -> avg 1.0.
        let conv = aux
            .graph
            .edge_ids()
            .find(|&e| {
                matches!(aux.graph.edge(e).kind, AuxArc::Conversion(v) if v == NodeId(1))
                    && matches!(aux.graph.node(aux.graph.src(e)), AuxNode::InNode(pe) if *pe == EdgeId(0))
            })
            .unwrap();
        assert!((aux.weight(conv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_used_link_is_dropped() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(2), Wavelength(0)).unwrap(); // e2 has only λ0
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_prime());
        assert_eq!(aux.admitted_links(), 4);
        assert!(aux.out_node_of(EdgeId(2)).is_none());
    }

    #[test]
    fn threshold_drops_loaded_links() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        // e4 has 3 channels; occupy one -> load 1/3.
        st.occupy(&net, EdgeId(4), Wavelength(0)).unwrap();
        let spec = AuxSpec::g_c(2.0, 0.3); // ϑ = 0.3 < 1/3
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), spec);
        assert!(aux.out_node_of(EdgeId(4)).is_none());
        // With ϑ = 0.5 it is admitted again.
        let aux2 = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_c(2.0, 0.5));
        assert!(aux2.out_node_of(EdgeId(4)).is_some());
    }

    #[test]
    fn congestion_weights_grow_with_load() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        let w_of = |st: &ResidualState| {
            let aux = AuxGraph::build(&net, st, NodeId(0), NodeId(3), AuxSpec::g_c(8.0, 1.1));
            let t = aux
                .graph
                .edge_ids()
                .find(
                    |&e| matches!(aux.graph.edge(e).kind, AuxArc::Traversal(pe) if pe == EdgeId(4)),
                )
                .unwrap();
            aux.weight(t)
        };
        let w0 = w_of(&st);
        st.occupy(&net, EdgeId(4), Wavelength(0)).unwrap();
        let w1 = w_of(&st);
        st.occupy(&net, EdgeId(4), Wavelength(1)).unwrap();
        let w2 = w_of(&st);
        assert!(
            w0 < w1 && w1 < w2,
            "exponential increments must grow: {w0} {w1} {w2}"
        );
        // Conversion links are free in G_c.
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_c(8.0, 1.1));
        for e in aux.graph.edge_ids() {
            if matches!(aux.graph.edge(e).kind, AuxArc::Conversion(_)) {
                assert_eq!(aux.weight(e), 0.0);
            }
        }
    }

    #[test]
    fn g_rc_as_printed_normalises_by_capacity() {
        let net = fig1_like();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(4), Wavelength(0)).unwrap(); // e4: avail 2 of 3
        let aux = AuxGraph::build(
            &net,
            &st,
            NodeId(0),
            NodeId(3),
            AuxSpec::g_rc_as_printed(1.1),
        );
        let t = aux
            .graph
            .edge_ids()
            .find(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Traversal(pe) if pe == EdgeId(4)))
            .unwrap();
        // Σ_{λ∈avail} w / N = (1 + 1) / 3.
        assert!((aux.weight(t) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_conversion_nodes_limit_aux_connectivity() {
        let mut b = NetworkBuilder::new(2);
        let n: Vec<_> = (0..3).map(|_| b.add_node(ConversionTable::None)).collect();
        b.add_link_with(n[0], n[1], 1.0, WavelengthSet::from_indices(&[0]));
        b.add_link_with(n[1], n[2], 1.0, WavelengthSet::from_indices(&[1]));
        let net = b.build();
        let st = ResidualState::fresh(&net);
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(2), AuxSpec::g_prime());
        // No conversion link at node 1 (disjoint availability, no converter),
        // so s' cannot reach t''.
        let conversions = aux
            .graph
            .edge_ids()
            .filter(|&e| matches!(aux.graph.edge(e).kind, AuxArc::Conversion(_)))
            .count();
        assert_eq!(conversions, 0);
    }

    #[test]
    fn physical_edge_mapping_roundtrip() {
        let net = fig1_like();
        let st = ResidualState::fresh(&net);
        let aux = AuxGraph::build(&net, &st, NodeId(0), NodeId(3), AuxSpec::g_prime());
        let tree = wdm_graph::dijkstra::dijkstra(&aux.graph, aux.source, |e| aux.weight(e));
        let p = tree.path_to(&aux.graph, aux.sink).unwrap();
        let phys = aux.physical_edges(&p);
        // Shortest by average weights: e0 (2.0) then e1 (2.0) + conv 0.75 = 4.75
        // vs e2+e3 = 6 + conv 1.0; so top route.
        assert_eq!(phys, vec![EdgeId(0), EdgeId(1)]);
    }
}
