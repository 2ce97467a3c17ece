//! Graphviz (DOT) export, for documentation and debugging of the auxiliary
//! graph constructions.

use crate::DiGraph;
use std::fmt::Write;

/// Renders `g` as a DOT digraph. `node_label` and `edge_label` produce the
/// display strings (return an empty string for no label).
pub fn to_dot<N, E>(
    g: &DiGraph<N, E>,
    name: &str,
    mut node_label: impl FnMut(crate::NodeId, &N) -> String,
    mut edge_label: impl FnMut(crate::EdgeId, &E) -> String,
) -> String {
    let mut out = String::new();
    writeln!(out, "digraph {name} {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    for v in g.node_ids() {
        let label = node_label(v, g.node(v));
        if label.is_empty() {
            writeln!(out, "  n{};", v.0).unwrap();
        } else {
            writeln!(out, "  n{} [label=\"{}\"];", v.0, escape(&label)).unwrap();
        }
    }
    for (e, u, v, data) in g.edges_iter() {
        let label = edge_label(e, data);
        if label.is_empty() {
            writeln!(out, "  n{} -> n{};", u.0, v.0).unwrap();
        } else {
            writeln!(
                out,
                "  n{} -> n{} [label=\"{}\"];",
                u.0,
                v.0,
                escape(&label)
            )
            .unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nodes_and_edges() {
        let g = DiGraph::weighted(2, &[(0, 1, 2.5)]);
        let dot = to_dot(&g, "g", |v, _| format!("{}", v.0), |_, w| format!("{w:.1}"));
        assert!(dot.starts_with("digraph g {"));
        assert!(dot.contains("n0 [label=\"0\"];"));
        assert!(dot.contains("n0 -> n1 [label=\"2.5\"];"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn escapes_quotes() {
        let mut g: DiGraph<&str, ()> = DiGraph::new();
        g.add_node("say \"hi\"");
        let dot = to_dot(&g, "q", |_, n| n.to_string(), |_, _| String::new());
        assert!(dot.contains("say \\\"hi\\\""));
    }
}
