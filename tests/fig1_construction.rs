//! Experiment F1: structural reproduction of the paper's Figure 1 — the
//! residual network → auxiliary graph construction of §3.3.1.
//!
//! The published bitmap is not machine-readable, so we assert every
//! *structural rule* of the construction on a residual network with the same
//! qualitative features (multi-wavelength links, partial availability,
//! wavelength conversion at interior nodes).

use wdm_robust_routing::core::aux_graph::{AuxArc, AuxGraph, AuxNode, AuxSpec};
use wdm_robust_routing::prelude::*;

fn fig1_net() -> (WdmNetwork, Vec<wdm_robust_routing::graph::EdgeId>) {
    let mut b = NetworkBuilder::new(3);
    let n: Vec<_> = (0..4)
        .map(|_| b.add_node(ConversionTable::Full { cost: 1.0 }))
        .collect();
    let e = vec![
        b.add_link_with(n[0], n[1], 2.0, WavelengthSet::from_indices(&[0, 1])),
        b.add_link_with(n[1], n[3], 2.0, WavelengthSet::from_indices(&[1, 2])),
        b.add_link_with(n[0], n[2], 3.0, WavelengthSet::from_indices(&[0])),
        b.add_link_with(n[2], n[3], 3.0, WavelengthSet::from_indices(&[2])),
        b.add_link_with(n[1], n[2], 1.0, WavelengthSet::from_indices(&[0, 1, 2])),
    ];
    (b.build(), e)
}

#[test]
fn edge_node_count_is_two_per_admitted_link_plus_terminals() {
    let (net, _) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    // §3.3.1: "G' contains 2m nodes" (+ s' and t'').
    assert_eq!(aux.graph.node_count(), 2 * net.link_count() + 2);
}

#[test]
fn every_admitted_link_has_exactly_one_traversal_arc_with_average_weight() {
    let (net, edges) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    for &pe in &edges {
        let traversals: Vec<_> = aux
            .graph
            .edge_ids()
            .filter(|&ae| matches!(aux.graph.edge(ae).kind, AuxArc::Traversal(x) if x == pe))
            .collect();
        assert_eq!(traversals.len(), 1, "one traversal arc per link");
        // ω(u_out^e -> v_in^e) = Σ_{λ∈avail} w(e,λ) / |Λ_avail(e)|; costs are
        // uniform here, so the average equals the base cost.
        let w = aux.graph.edge(traversals[0]).weight;
        assert!((w - net.min_link_cost(pe)).abs() < 1e-12);
        // Its endpoints are the link's own edge-nodes.
        let (u, v) = aux.graph.endpoints(traversals[0]);
        assert!(matches!(aux.graph.node(u), AuxNode::OutNode(x) if *x == pe));
        assert!(matches!(aux.graph.node(v), AuxNode::InNode(x) if *x == pe));
    }
}

#[test]
fn conversion_arcs_exist_iff_a_conversion_is_possible() {
    let (net, edges) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    // With full conversion, every (in-link, out-link) pair at an interior
    // node gets a conversion arc: node 1 has in {e0}, out {e1, e4};
    // node 2 has in {e2, e4}, out {e3}.
    let mut got: Vec<(usize, usize)> = aux
        .graph
        .edge_ids()
        .filter_map(|ae| match aux.graph.edge(ae).kind {
            AuxArc::Conversion(_) => {
                let (u, v) = aux.graph.endpoints(ae);
                let from = match aux.graph.node(u) {
                    AuxNode::InNode(x) => x.index(),
                    _ => panic!("conversion arc must start at an in-node"),
                };
                let to = match aux.graph.node(v) {
                    AuxNode::OutNode(x) => x.index(),
                    _ => panic!("conversion arc must end at an out-node"),
                };
                Some((from, to))
            }
            _ => None,
        })
        .collect();
    got.sort();
    let e = |i: usize| edges[i].index();
    let mut want = vec![(e(0), e(1)), (e(0), e(4)), (e(2), e(3)), (e(4), e(3))];
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn conversion_weight_is_average_over_allowed_pairs() {
    let (net, edges) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    // e0 (avail {0,1}) -> e1 (avail {1,2}) at node 1, full conversion cost 1:
    // pairs (0,1)=1, (0,2)=1, (1,1)=0, (1,2)=1 -> K_v = 4, avg = 3/4.
    let arc = aux
        .graph
        .edge_ids()
        .find(|&ae| {
            matches!(aux.graph.edge(ae).kind, AuxArc::Conversion(_))
                && matches!(aux.graph.node(aux.graph.src(ae)), AuxNode::InNode(x) if *x == edges[0])
                && matches!(aux.graph.node(aux.graph.dst(ae)), AuxNode::OutNode(x) if *x == edges[1])
        })
        .expect("conversion arc e0 -> e1");
    assert!((aux.graph.edge(arc).weight - 0.75).abs() < 1e-12);
}

#[test]
fn source_and_sink_taps_cover_exactly_the_terminal_links() {
    let (net, edges) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    let mut from_source = Vec::new();
    let mut to_sink = Vec::new();
    for ae in aux.graph.edge_ids() {
        if matches!(aux.graph.edge(ae).kind, AuxArc::Tap) {
            assert_eq!(aux.graph.edge(ae).weight, 0.0, "taps are free");
            let (u, v) = aux.graph.endpoints(ae);
            if u == aux.source {
                match aux.graph.node(v) {
                    AuxNode::OutNode(x) => from_source.push(*x),
                    other => panic!("source tap must reach an out-node, got {other:?}"),
                }
            } else {
                assert_eq!(v, aux.sink);
                match aux.graph.node(u) {
                    AuxNode::InNode(x) => to_sink.push(*x),
                    other => panic!("sink tap must leave an in-node, got {other:?}"),
                }
            }
        }
    }
    from_source.sort();
    to_sink.sort();
    assert_eq!(
        from_source,
        vec![edges[0], edges[2]],
        "E_out(s) = {{e0, e2}}"
    );
    assert_eq!(to_sink, vec![edges[1], edges[3]], "E_in(t) = {{e1, e3}}");
}

#[test]
fn semilightpath_in_g_has_corresponding_path_in_g_prime() {
    // §3.3.2: "for every semilightpath in G from s to t, there is a
    // corresponding path in G' from s' to t''". Verify via reachability.
    let (net, _) = fig1_net();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(3), AuxSpec::g_prime());
    let slp = wdm_robust_routing::core::optimal_slp::optimal_semilightpath(
        &net,
        &state,
        NodeId(0),
        NodeId(3),
    )
    .expect("reachable");
    // Walk the corresponding edge-nodes in G'.
    let mut at = aux.source;
    for hop in &slp.hops {
        let uo = aux.out_node_of(hop.edge).expect("admitted");
        let vi = aux.in_node_of(hop.edge).expect("admitted");
        // There must be an arc at -> uo (tap or conversion) and uo -> vi.
        assert!(
            aux.graph
                .out_edges(at)
                .iter()
                .any(|&e| aux.graph.dst(e) == uo),
            "no arc into out-node of {:?}",
            hop.edge
        );
        assert!(
            aux.graph
                .out_edges(uo)
                .iter()
                .any(|&e| aux.graph.dst(e) == vi),
            "missing traversal arc"
        );
        at = vi;
    }
    assert!(
        aux.graph
            .out_edges(at)
            .iter()
            .any(|&e| aux.graph.dst(e) == aux.sink),
        "final in-node must tap into t''"
    );
}

#[test]
fn no_disjoint_pair_in_g_prime_implies_none_in_g() {
    // §3.3.2's converse sanity: on a bridge network both checks agree.
    let mut b = NetworkBuilder::new(2);
    let n: Vec<_> = (0..3)
        .map(|_| b.add_node(ConversionTable::Full { cost: 0.5 }))
        .collect();
    b.add_link(n[0], n[1], 1.0);
    b.add_link(n[0], n[1], 1.0);
    b.add_link(n[1], n[2], 1.0); // bridge
    let net = b.build();
    let state = ResidualState::fresh(&net);
    let aux = AuxGraph::build(&net, &state, NodeId(0), NodeId(2), AuxSpec::g_prime());
    assert!(aux.disjoint_pair().is_none());
    let direct = RobustRouteFinder::new(&net).find(&state, NodeId(0), NodeId(2));
    assert!(direct.is_err());
}
