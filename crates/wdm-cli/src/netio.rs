//! Loading and saving networks in the `.wdm` text or JSON formats.

use wdm_core::io::{parse_network, write_network};
use wdm_core::network::WdmNetwork;
use wdm_graph::DiGraph;

/// Loads a network from a path; the format is chosen by extension
/// (`.json` = serde JSON, checked like a WAL header; anything else =
/// `.wdm` text).
pub fn load_network(path: &str) -> Result<WdmNetwork, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if path.ends_with(".json") {
        let raw = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        checked(raw).map_err(|e| format!("checking {path}: {e}"))
    } else {
        parse_network(&text).map_err(|e| format!("parsing {path}: {e}"))
    }
}

/// Checks a network serde built as the WAL header decoder checks its own:
/// every link joins two of its nodes, the adjacency lists are the ones its
/// links make, and [`WdmNetwork::from_parts`] accepts the graph and `W`.
/// Serde takes all of these as written, and routing indexes by them.
fn checked(raw: WdmNetwork) -> Result<WdmNetwork, String> {
    let g = raw.graph();
    let n = g.node_count();
    let mut rebuilt = DiGraph::with_capacity(n, g.edge_count());
    for v in g.node_ids() {
        rebuilt.add_node(g.node(v).clone());
    }
    for (e, src, dst, link) in g.edges_iter() {
        if src.index() >= n || dst.index() >= n {
            return Err(format!("link {e} joins a node outside the network"));
        }
        rebuilt.add_edge(src, dst, link.clone());
    }
    if rebuilt != *g {
        return Err("the adjacency lists disagree with the links".into());
    }
    WdmNetwork::from_parts(rebuilt, raw.num_wavelengths())
}

/// Renders a network in the requested format (`wdm`, `json` or `dot`).
pub fn render_network(net: &WdmNetwork, format: &str) -> Result<String, String> {
    match format {
        "wdm" => write_network(net).map_err(|e| e.to_string()),
        "json" => serde_json::to_string_pretty(net).map_err(|e| e.to_string()),
        "dot" => Ok(wdm_graph::dot::to_dot(
            net.graph(),
            "wdm",
            |v, _| format!("{}", v.0),
            |e, data| {
                let _ = e;
                format!("{:.1} ({}λ)", data.base_cost, data.lambda.count())
            },
        )),
        other => Err(format!("unknown format '{other}' (wdm | json | dot)")),
    }
}

/// Writes `content` to `--out FILE`, or stdout when absent.
pub fn emit(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::network::NetworkBuilder;

    #[test]
    fn round_trip_wdm_and_json_files() {
        let net = NetworkBuilder::nsfnet(8).build();
        let dir = std::env::temp_dir().join("wdm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();

        let wdm_path = dir.join("n.wdm");
        std::fs::write(&wdm_path, render_network(&net, "wdm").unwrap()).unwrap();
        let a = load_network(wdm_path.to_str().unwrap()).unwrap();
        assert_eq!(a.node_count(), 14);

        let json_path = dir.join("n.json");
        std::fs::write(&json_path, render_network(&net, "json").unwrap()).unwrap();
        let b = load_network(json_path.to_str().unwrap()).unwrap();
        assert_eq!(b.link_count(), 42);

        let dot = render_network(&net, "dot").unwrap();
        assert!(dot.starts_with("digraph"));

        assert!(render_network(&net, "csv").is_err());
    }
}
