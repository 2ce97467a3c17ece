//! The WDM network model `G = (V, E, Λ)` (§2) and its mutable residual
//! state (which wavelengths are in use, which links have failed).

use crate::conversion::ConversionTable;
use crate::wavelength::{Wavelength, WavelengthSet, MAX_WAVELENGTHS};
use wdm_graph::{DiGraph, EdgeId, NodeId};

/// Per-node payload: the wavelength-conversion switch.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeData {
    /// Conversion capability/cost table `c_v(·,·)`.
    pub conversion: ConversionTable,
}

/// Per-link payload: the wavelength complement `Λ(e)` and traversal costs
/// `w(e, λ)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkData {
    /// Wavelengths installed on the fibre (`Λ(e)`).
    pub lambda: WavelengthSet,
    /// Uniform traversal cost (assumption (ii) of §3.3: `w(e, λ)` identical
    /// across `λ`). Always set; `per_lambda` overrides it where present.
    pub base_cost: f64,
    /// Optional per-wavelength cost override (length `W`, indexed by
    /// channel). Entries for channels outside `lambda` are ignored.
    pub per_lambda: Option<Vec<f64>>,
}

impl LinkData {
    /// The traversal cost `w(e, λ)`.
    #[inline]
    pub fn cost(&self, l: Wavelength) -> f64 {
        match &self.per_lambda {
            Some(v) => v[l.index()],
            None => self.base_cost,
        }
    }

    /// Whether the link declares a uniform per-wavelength cost.
    pub fn is_uniform_cost(&self) -> bool {
        match &self.per_lambda {
            None => true,
            Some(v) => {
                let mut it = self.lambda.iter().map(|l| v[l.index()]);
                match it.next() {
                    None => true,
                    Some(first) => it.all(|c| c == first),
                }
            }
        }
    }
}

/// An immutable wide-area WDM network: topology + wavelength complements +
/// traversal costs + conversion tables.
///
/// Mutable occupancy/failure state lives in [`ResidualState`], so many
/// concurrent simulations can share one network (the simulator's parallel
/// replications rely on this).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WdmNetwork {
    graph: DiGraph<NodeData, LinkData>,
    num_wavelengths: usize,
}

impl WdmNetwork {
    /// A network from its graph and `W`, checked against what every lookup
    /// indexes by: `W` within `1..=64`, each link's `Λ(e)` within the `W`
    /// channels and its per-wavelength costs, if any, one per channel, and
    /// each matrix conversion table `w × w` with `w ≥ W`. Costs are not
    /// checked. The fallible counterpart of [`NetworkBuilder`], whose
    /// methods assert instead, for decoders of untrusted input.
    pub fn from_parts(
        graph: DiGraph<NodeData, LinkData>,
        num_wavelengths: usize,
    ) -> Result<Self, String> {
        if !(1..=MAX_WAVELENGTHS).contains(&num_wavelengths) {
            return Err(format!(
                "{num_wavelengths} wavelengths, outside 1..={MAX_WAVELENGTHS}"
            ));
        }
        let channels = WavelengthSet::full(num_wavelengths);
        for (e, _, _, link) in graph.edges_iter() {
            if !link.lambda.is_subset_of(channels) {
                return Err(format!("link {e} installs a wavelength beyond W"));
            }
            if link
                .per_lambda
                .as_ref()
                .is_some_and(|costs| costs.len() != num_wavelengths)
            {
                return Err(format!("link {e} does not have one cost per channel"));
            }
        }
        for v in graph.node_ids() {
            if let ConversionTable::Matrix { w, costs } = &graph.node(v).conversion {
                let w = usize::from(*w);
                if w < num_wavelengths || costs.len() != w * w {
                    return Err(format!(
                        "node {v}'s conversion matrix does not cover the W channels"
                    ));
                }
            }
        }
        Ok(Self {
            graph,
            num_wavelengths,
        })
    }

    /// Number of wavelengths `W` in the system-wide set `Λ`.
    #[inline]
    pub fn num_wavelengths(&self) -> usize {
        self.num_wavelengths
    }

    /// The underlying directed multigraph.
    #[inline]
    pub fn graph(&self) -> &DiGraph<NodeData, LinkData> {
        &self.graph
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links `m`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Installed wavelengths `Λ(e)`.
    #[inline]
    pub fn lambda(&self, e: EdgeId) -> WavelengthSet {
        self.graph.edge(e).lambda
    }

    /// Capacity `N(e) = |Λ(e)|`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> usize {
        self.lambda(e).count()
    }

    /// Traversal cost `w(e, λ)`.
    #[inline]
    pub fn link_cost(&self, e: EdgeId, l: Wavelength) -> f64 {
        self.graph.edge(e).cost(l)
    }

    /// Minimum traversal cost over installed wavelengths of `e`.
    pub fn min_link_cost(&self, e: EdgeId) -> f64 {
        self.lambda(e)
            .iter()
            .map(|l| self.link_cost(e, l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Conversion cost `c_v(λ_p, λ_q)` (`None` = conversion not allowed).
    #[inline]
    pub fn conversion_cost(&self, v: NodeId, from: Wavelength, to: Wavelength) -> Option<f64> {
        self.graph.node(v).conversion.cost(from, to)
    }

    /// Conversion table of node `v`.
    #[inline]
    pub fn conversion(&self, v: NodeId) -> &ConversionTable {
        &self.graph.node(v).conversion
    }

    /// Endpoints of link `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.graph.endpoints(e)
    }

    /// Theorem 2's premise: at every node, the cost of any allowed
    /// wavelength conversion is no greater than the traversal cost of any
    /// incident link. The ratio experiments split their populations on this
    /// predicate.
    pub fn satisfies_ratio_premise(&self) -> bool {
        for v in self.graph.node_ids() {
            let conv_max = self.graph.node(v).conversion.max_cost(self.num_wavelengths);
            if conv_max == 0.0 {
                continue;
            }
            let incident_min = self
                .graph
                .out_edges(v)
                .iter()
                .chain(self.graph.in_edges(v))
                .map(|&e| {
                    self.lambda(e)
                        .iter()
                        .map(|l| self.link_cost(e, l))
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(f64::INFINITY, f64::min);
            if conv_max > incident_min {
                return false;
            }
        }
        true
    }

    /// Whether assumption (i)+(ii) of §3.3 hold exactly: full conversion at
    /// every node with node-identical cost, and uniform per-wavelength link
    /// costs.
    pub fn satisfies_approx_assumptions(&self) -> bool {
        self.full_conversion()
            && self
                .graph
                .edge_ids()
                .all(|e| self.graph.edge(e).is_uniform_cost())
    }

    /// Whether every node has a full conversion complement (assumption (i)
    /// alone). Under full conversion the Lemma 2 refinement never fails, so
    /// §4.1 threshold feasibility is monotone in ϑ — the property the
    /// warm-started MinCog search relies on.
    pub fn full_conversion(&self) -> bool {
        self.graph
            .node_ids()
            .all(|v| matches!(self.graph.node(v).conversion, ConversionTable::Full { .. }))
    }
}

/// Incremental builder for [`WdmNetwork`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    graph: DiGraph<NodeData, LinkData>,
    num_wavelengths: usize,
}

impl NetworkBuilder {
    /// Starts a network with `w` wavelengths per fibre at most.
    pub fn new(w: usize) -> Self {
        assert!((1..=MAX_WAVELENGTHS).contains(&w));
        Self {
            graph: DiGraph::new(),
            num_wavelengths: w,
        }
    }

    /// Adds a node with the given conversion table; returns its id.
    pub fn add_node(&mut self, conversion: ConversionTable) -> NodeId {
        self.graph.add_node(NodeData { conversion })
    }

    /// Adds a directed link with the full wavelength complement and uniform
    /// cost.
    pub fn add_link(&mut self, u: NodeId, v: NodeId, cost: f64) -> EdgeId {
        self.add_link_with(u, v, cost, WavelengthSet::full(self.num_wavelengths))
    }

    /// Adds a directed link with an explicit wavelength complement.
    pub fn add_link_with(
        &mut self,
        u: NodeId,
        v: NodeId,
        cost: f64,
        lambda: WavelengthSet,
    ) -> EdgeId {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "link costs must be finite and non-negative"
        );
        assert!(
            lambda.is_subset_of(WavelengthSet::full(self.num_wavelengths)),
            "wavelengths outside the system set"
        );
        self.graph.add_edge(
            u,
            v,
            LinkData {
                lambda,
                base_cost: cost,
                per_lambda: None,
            },
        )
    }

    /// Adds a directed link with per-wavelength costs (`costs.len() == W`).
    pub fn add_link_per_lambda(
        &mut self,
        u: NodeId,
        v: NodeId,
        lambda: WavelengthSet,
        costs: Vec<f64>,
    ) -> EdgeId {
        assert_eq!(costs.len(), self.num_wavelengths);
        assert!(costs.iter().all(|&c| c.is_finite() && c >= 0.0));
        let base = lambda
            .iter()
            .map(|l| costs[l.index()])
            .fold(f64::INFINITY, f64::min);
        self.graph.add_edge(
            u,
            v,
            LinkData {
                lambda,
                base_cost: if base.is_finite() { base } else { 0.0 },
                per_lambda: Some(costs),
            },
        )
    }

    /// Lifts a plain weighted topology (e.g. from `wdm_graph::topology`)
    /// into a WDM network: every node gets `conversion.clone()`, every arc
    /// the full wavelength complement with `cost_scale × length` as its
    /// uniform traversal cost.
    pub fn from_topology(
        topo: &DiGraph<(), f64>,
        w: usize,
        conversion: ConversionTable,
        cost_scale: f64,
    ) -> Self {
        let mut b = Self::new(w);
        for _ in topo.node_ids() {
            b.add_node(conversion.clone());
        }
        for e in topo.edge_ids() {
            let (u, v) = topo.endpoints(e);
            b.add_link(u, v, topo.weight(e) * cost_scale);
        }
        b
    }

    /// The standard 14-node NSFNET with `w` wavelengths, unit-per-100km
    /// costs and full conversion priced at the cheapest incident link
    /// (so Theorem 2's premise holds with equality at the tightest node).
    pub fn nsfnet(w: usize) -> Self {
        let topo = wdm_graph::topology::nsfnet();
        // Cheapest fibre is 300 km -> cost 3.0; conversion cost 3.0 keeps
        // the premise satisfied network-wide.
        let mut b = Self::from_topology(&topo, w, ConversionTable::Full { cost: 3.0 }, 0.01);
        b.num_wavelengths = w;
        b
    }

    /// Finalises the network.
    pub fn build(self) -> WdmNetwork {
        WdmNetwork {
            graph: self.graph,
            num_wavelengths: self.num_wavelengths,
        }
    }
}

/// Errors from residual-state mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The wavelength is not installed on the link.
    NotInstalled,
    /// The wavelength is already occupied on the link.
    AlreadyUsed,
    /// The wavelength was not occupied (release of a free channel).
    NotUsed,
    /// The link is failed.
    LinkFailed,
    /// The link is not one of the network's (or the state's).
    UnknownLink,
    /// The wavelength is outside the network's `W` channels.
    UnknownWavelength,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StateError::NotInstalled => "wavelength not installed on link",
            StateError::AlreadyUsed => "wavelength already in use on link",
            StateError::NotUsed => "wavelength not in use on link",
            StateError::LinkFailed => "link is failed",
            StateError::UnknownLink => "link outside the network",
            StateError::UnknownWavelength => "wavelength outside the network's W channels",
        };
        f.write_str(s)
    }
}

impl std::error::Error for StateError {}

/// Mutable occupancy and failure state layered over a [`WdmNetwork`]:
/// `U(e)` (wavelengths in use) per link and a failed-link mask. Defines the
/// residual network `G(V, E, Λ_avail)` of §3.3.1.
///
/// Every mutation also advances a monotone *change clock* and stamps the
/// touched link with it, so incremental consumers (the auxiliary-graph
/// engine) can refresh only the links that changed since their last sync.
/// The clocks are bookkeeping, not state: they are ignored by `PartialEq`
/// and excluded from the serialized form.
#[derive(Debug, Clone)]
pub struct ResidualState {
    used: Vec<WavelengthSet>,
    failed: Vec<bool>,
    /// Monotone counter, bumped once per mutation (including failed ones
    /// that still observed the state, see the mutators).
    clock: u64,
    /// Per-link value of `clock` at the link's most recent mutation.
    link_clock: Vec<u64>,
}

/// Equality is over the semantic payload (`used`, `failed`) only; two states
/// reached by different mutation histories compare equal.
impl PartialEq for ResidualState {
    fn eq(&self, other: &Self) -> bool {
        self.used == other.used && self.failed == other.failed
    }
}

/// Serializes exactly the pre-clock layout `{"used": [...], "failed": [...]}`
/// so on-disk `.wdm` snapshots are unaffected by the change tracking.
impl serde::Serialize for ResidualState {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("used"), serde::Serialize::to_value(&self.used)),
            (
                String::from("failed"),
                serde::Serialize::to_value(&self.failed),
            ),
        ])
    }
}

impl serde::Deserialize for ResidualState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::unexpected(v, "struct ResidualState"))?;
        let used: Vec<WavelengthSet> =
            serde::Deserialize::from_value(serde::field(fields, "used", "ResidualState")?)?;
        let failed: Vec<bool> =
            serde::Deserialize::from_value(serde::field(fields, "failed", "ResidualState")?)?;
        Ok(Self::from_parts(used, failed))
    }
}

impl ResidualState {
    /// A fresh state: nothing occupied, nothing failed.
    pub fn fresh(net: &WdmNetwork) -> Self {
        Self {
            used: vec![WavelengthSet::empty(); net.link_count()],
            failed: vec![false; net.link_count()],
            clock: 0,
            link_clock: vec![0; net.link_count()],
        }
    }

    /// A state with the given semantic payload, `U(e)` and the failed flag
    /// per link (the serialized form's `used` and `failed` lists).
    ///
    /// Clocks restart at 1 with every link stamped: a consumer that synced
    /// against a *different* lineage (clock `c`) sees either a clock
    /// regression (`1 < c`, full refresh) or every link dirty (`1 > 0`), so
    /// no warm engine can silently keep stale weights after a round trip
    /// through the serialized form.
    pub fn from_parts(used: Vec<WavelengthSet>, failed: Vec<bool>) -> Self {
        let links = used.len();
        Self {
            used,
            failed,
            clock: 1,
            link_clock: vec![1; links],
        }
    }

    /// Number of links the state covers.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.used.len()
    }

    /// Current value of the change clock. Starts at 0 and advances by one on
    /// every successful mutation.
    #[inline]
    pub fn change_clock(&self) -> u64 {
        self.clock
    }

    /// The change-clock value at link `e`'s most recent mutation (0 if the
    /// link was never mutated). A consumer that recorded the global clock
    /// `c` at its last sync is stale on exactly the links with
    /// `link_change_clock(e) > c`.
    #[inline]
    pub fn link_change_clock(&self, e: EdgeId) -> u64 {
        self.link_clock[e.index()]
    }

    #[inline]
    fn touch(&mut self, e: EdgeId) {
        self.clock += 1;
        self.link_clock[e.index()] = self.clock;
    }

    /// Wavelengths currently in use on `e` (`U(e)` as a set).
    #[inline]
    pub fn used(&self, e: EdgeId) -> WavelengthSet {
        self.used[e.index()]
    }

    /// `U(e)` as a count.
    #[inline]
    pub fn used_count(&self, e: EdgeId) -> usize {
        self.used[e.index()].count()
    }

    /// Available wavelengths `Λ_avail(e) = Λ(e) \ U(e)` (empty if failed).
    #[inline]
    pub fn avail(&self, net: &WdmNetwork, e: EdgeId) -> WavelengthSet {
        if self.failed[e.index()] {
            WavelengthSet::empty()
        } else {
            net.lambda(e).minus(self.used[e.index()])
        }
    }

    /// Whether `λ` is free on `e`.
    #[inline]
    pub fn is_avail(&self, net: &WdmNetwork, e: EdgeId, l: Wavelength) -> bool {
        self.avail(net, e).contains(l)
    }

    /// Why [`occupy`](Self::occupy) would refuse `λ` on `e`, without
    /// touching anything (clocks included).
    pub fn check_occupy(
        &self,
        net: &WdmNetwork,
        e: EdgeId,
        l: Wavelength,
    ) -> Result<(), StateError> {
        if self.failed[e.index()] {
            Err(StateError::LinkFailed)
        } else if !net.lambda(e).contains(l) {
            Err(StateError::NotInstalled)
        } else if self.used[e.index()].contains(l) {
            Err(StateError::AlreadyUsed)
        } else {
            Ok(())
        }
    }

    /// Marks `λ` as in use on `e`.
    pub fn occupy(&mut self, net: &WdmNetwork, e: EdgeId, l: Wavelength) -> Result<(), StateError> {
        self.check_occupy(net, e, l)?;
        self.used[e.index()].insert(l);
        self.touch(e);
        Ok(())
    }

    /// Releases `λ` on `e`.
    pub fn release(&mut self, e: EdgeId, l: Wavelength) -> Result<(), StateError> {
        if !self.used[e.index()].remove(l) {
            return Err(StateError::NotUsed);
        }
        self.touch(e);
        Ok(())
    }

    /// Marks link `e` failed (its channels become unavailable; occupied
    /// channels stay recorded so repair restores them).
    pub fn fail_link(&mut self, e: EdgeId) {
        self.failed[e.index()] = true;
        self.touch(e);
    }

    /// Repairs link `e`.
    pub fn repair_link(&mut self, e: EdgeId) {
        self.failed[e.index()] = false;
        self.touch(e);
    }

    /// Whether link `e` is failed.
    #[inline]
    pub fn is_failed(&self, e: EdgeId) -> bool {
        self.failed[e.index()]
    }

    /// Link load `ρ(e) = U(e) / N(e)` (Eq. 2). Failed links report load 1.
    pub fn load(&self, net: &WdmNetwork, e: EdgeId) -> f64 {
        let n = net.capacity(e);
        if n == 0 {
            return 1.0;
        }
        if self.failed[e.index()] {
            return 1.0;
        }
        self.used[e.index()].count() as f64 / n as f64
    }

    /// Network load `ρ = max_e ρ(e)` (§2).
    pub fn network_load(&self, net: &WdmNetwork) -> f64 {
        (0..net.link_count())
            .map(|i| self.load(net, EdgeId::from(i)))
            .fold(0.0, f64::max)
    }

    /// The load each link would report *after* occupying one more channel:
    /// `(U(e)+1)/N(e)`. Used by the MinCog threshold bounds.
    pub fn prospective_load(&self, net: &WdmNetwork, e: EdgeId) -> f64 {
        let n = net.capacity(e);
        if n == 0 {
            return f64::INFINITY;
        }
        (self.used[e.index()].count() + 1) as f64 / n as f64
    }

    /// FNV-1a hash of the semantic payload (`used`, `failed`), ignoring the
    /// change clocks — the same footprint [`PartialEq`] compares and the
    /// serializer emits. `wdm replay --verify` checks recorded runs against
    /// this, so it must stay stable across serde round trips.
    pub fn semantic_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for set in &self.used {
            for byte in set.bits().to_le_bytes() {
                eat(byte);
            }
        }
        for &failed in &self.failed {
            eat(u8::from(failed));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WdmNetwork {
        let mut b = NetworkBuilder::new(4);
        let a = b.add_node(ConversionTable::Full { cost: 1.0 });
        let c = b.add_node(ConversionTable::None);
        b.add_link(a, c, 10.0);
        b.add_link_with(c, a, 5.0, WavelengthSet::from_indices(&[0, 2]));
        b.build()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let net = tiny();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.link_count(), 2);
        assert_eq!(net.num_wavelengths(), 4);
        assert_eq!(net.capacity(EdgeId(0)), 4);
        assert_eq!(net.capacity(EdgeId(1)), 2);
        assert_eq!(net.link_cost(EdgeId(0), Wavelength(3)), 10.0);
        assert_eq!(
            net.conversion_cost(NodeId(0), Wavelength(0), Wavelength(3)),
            Some(1.0)
        );
        assert_eq!(
            net.conversion_cost(NodeId(1), Wavelength(0), Wavelength(3)),
            None
        );
    }

    #[test]
    fn from_parts_refuses_what_a_lookup_would_index_past() {
        let net = tiny();
        let rebuilt = |w: usize, edit: &dyn Fn(&mut DiGraph<NodeData, LinkData>)| {
            let mut g = net.graph().clone();
            edit(&mut g);
            WdmNetwork::from_parts(g, w)
        };
        assert_eq!(rebuilt(4, &|_| {}), Ok(net.clone()));
        // W out of range, or below a link's highest channel.
        assert!(rebuilt(0, &|_| {}).is_err());
        assert!(rebuilt(65, &|_| {}).is_err());
        assert!(rebuilt(3, &|_| {}).is_err());
        // Per-wavelength costs must cover W exactly; costs are unchecked.
        let per_lambda = |costs: Vec<f64>| {
            move |g: &mut DiGraph<NodeData, LinkData>| {
                let (a, c) = (NodeId(0), NodeId(1));
                g.add_edge(
                    a,
                    c,
                    LinkData {
                        lambda: WavelengthSet::full(4),
                        base_cost: f64::NAN,
                        per_lambda: Some(costs.clone()),
                    },
                );
            }
        };
        assert!(rebuilt(4, &per_lambda(vec![1.0; 4])).is_ok());
        assert!(rebuilt(4, &per_lambda(vec![1.0; 3])).is_err());
        // A matrix table must be square and span W.
        let matrix = |w: u8, len: usize| {
            move |g: &mut DiGraph<NodeData, LinkData>| {
                g.add_node(NodeData {
                    conversion: ConversionTable::Matrix {
                        w,
                        costs: vec![f64::INFINITY; len],
                    },
                });
            }
        };
        assert!(rebuilt(4, &matrix(4, 16)).is_ok());
        assert!(rebuilt(4, &matrix(5, 25)).is_ok());
        assert!(rebuilt(4, &matrix(3, 9)).is_err());
        assert!(rebuilt(4, &matrix(4, 15)).is_err());
    }

    #[test]
    fn per_lambda_costs() {
        let mut b = NetworkBuilder::new(2);
        let a = b.add_node(ConversionTable::None);
        let c = b.add_node(ConversionTable::None);
        b.add_link_per_lambda(a, c, WavelengthSet::full(2), vec![1.0, 9.0]);
        let net = b.build();
        assert_eq!(net.link_cost(EdgeId(0), Wavelength(0)), 1.0);
        assert_eq!(net.link_cost(EdgeId(0), Wavelength(1)), 9.0);
        assert_eq!(net.min_link_cost(EdgeId(0)), 1.0);
        assert!(!net.graph().edge(EdgeId(0)).is_uniform_cost());
    }

    #[test]
    fn residual_occupy_release_cycle() {
        let net = tiny();
        let mut st = ResidualState::fresh(&net);
        let e = EdgeId(0);
        assert_eq!(st.avail(&net, e).count(), 4);
        st.occupy(&net, e, Wavelength(1)).unwrap();
        assert_eq!(st.avail(&net, e).count(), 3);
        assert!(!st.is_avail(&net, e, Wavelength(1)));
        assert_eq!(
            st.occupy(&net, e, Wavelength(1)),
            Err(StateError::AlreadyUsed)
        );
        st.release(e, Wavelength(1)).unwrap();
        assert_eq!(st.release(e, Wavelength(1)), Err(StateError::NotUsed));
        // Occupying a non-installed channel fails.
        assert_eq!(
            st.occupy(&net, EdgeId(1), Wavelength(1)),
            Err(StateError::NotInstalled)
        );
    }

    #[test]
    fn loads_follow_eq_2() {
        let net = tiny();
        let mut st = ResidualState::fresh(&net);
        assert_eq!(st.load(&net, EdgeId(0)), 0.0);
        st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
        st.occupy(&net, EdgeId(0), Wavelength(1)).unwrap();
        assert_eq!(st.load(&net, EdgeId(0)), 0.5);
        assert_eq!(st.network_load(&net), 0.5);
        assert_eq!(st.prospective_load(&net, EdgeId(0)), 0.75);
        st.occupy(&net, EdgeId(1), Wavelength(0)).unwrap();
        assert_eq!(st.load(&net, EdgeId(1)), 0.5);
    }

    #[test]
    fn failure_blocks_and_repair_restores() {
        let net = tiny();
        let mut st = ResidualState::fresh(&net);
        st.occupy(&net, EdgeId(0), Wavelength(0)).unwrap();
        st.fail_link(EdgeId(0));
        assert!(st.is_failed(EdgeId(0)));
        assert!(st.avail(&net, EdgeId(0)).is_empty());
        assert_eq!(st.load(&net, EdgeId(0)), 1.0);
        assert_eq!(
            st.occupy(&net, EdgeId(0), Wavelength(2)),
            Err(StateError::LinkFailed)
        );
        st.repair_link(EdgeId(0));
        assert_eq!(
            st.avail(&net, EdgeId(0)).count(),
            3,
            "occupancy survives failure"
        );
    }

    #[test]
    fn premise_and_assumption_predicates() {
        let net = NetworkBuilder::nsfnet(8).build();
        assert!(net.satisfies_ratio_premise());
        assert!(net.satisfies_approx_assumptions());

        // Violate the premise: conversion dearer than the cheapest link.
        let mut b = NetworkBuilder::new(2);
        let a = b.add_node(ConversionTable::Full { cost: 100.0 });
        let c = b.add_node(ConversionTable::Full { cost: 100.0 });
        b.add_link(a, c, 1.0);
        let net2 = b.build();
        assert!(!net2.satisfies_ratio_premise());
        assert!(net2.satisfies_approx_assumptions());
    }

    #[test]
    fn nsfnet_preset() {
        let net = NetworkBuilder::nsfnet(16).build();
        assert_eq!(net.node_count(), 14);
        assert_eq!(net.link_count(), 42);
        assert_eq!(net.num_wavelengths(), 16);
        // Cheapest link cost is 3.0 (300 km at 0.01/km).
        let min = (0..42)
            .map(|i| net.min_link_cost(EdgeId::from(i)))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, 3.0);
    }
}
