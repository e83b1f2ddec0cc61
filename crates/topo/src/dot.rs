//! Graphviz export: topologies and distribution trees as `.dot` text.
//!
//! Useful for eyeballing a scenario (`dot -Tpng topo.dot`) and for
//! debugging tree construction — the experiment binaries don't depend on
//! it, but the examples do.

use crate::graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders the topology. Routers are boxes (unicast-only ones dashed),
/// hosts are ellipses; each undirected link is one edge labelled with its
/// two directed costs `a→b / b→a`.
pub fn topology(g: &Graph) -> String {
    let mut out = String::from("graph topo {\n  node [fontsize=10];\n");
    for n in g.nodes() {
        let name = node_name(g, n);
        if g.is_router(n) {
            let style = if g.is_mcast_capable(n) {
                "solid"
            } else {
                "dashed"
            };
            let _ = writeln!(out, "  \"{name}\" [shape=box style={style}];");
        } else {
            let _ = writeln!(out, "  \"{name}\" [shape=ellipse];");
        }
    }
    for (a, b, ab, ba) in g.undirected_links() {
        let _ = writeln!(
            out,
            "  \"{}\" -- \"{}\" [label=\"{}/{}\"];",
            node_name(g, a),
            node_name(g, b),
            ab,
            ba
        );
    }
    out.push_str("}\n");
    out
}

/// Renders a distribution overlay: the topology's nodes plus the given
/// directed tree links (e.g. the data-plane links a probe traversed),
/// highlighted, with per-link copy counts where > 1.
pub fn tree(g: &Graph, links: &[((NodeId, NodeId), u64)]) -> String {
    let mut out = String::from("digraph tree {\n  node [fontsize=10];\n");
    let used: BTreeSet<NodeId> = links.iter().flat_map(|&((a, b), _)| [a, b]).collect();
    for n in g.nodes() {
        let name = node_name(g, n);
        let shape = if g.is_router(n) { "box" } else { "ellipse" };
        let style = if used.contains(&n) { "bold" } else { "dotted" };
        let _ = writeln!(out, "  \"{name}\" [shape={shape} style={style}];");
    }
    for &((a, b), copies) in links {
        let label = if copies > 1 {
            format!(" [label=\"×{copies}\" color=red]")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\"{label};",
            node_name(g, a),
            node_name(g, b)
        );
    }
    out.push_str("}\n");
    out
}

fn node_name(g: &Graph, n: NodeId) -> String {
    g.label(n)
        .map(str::to_owned)
        .unwrap_or_else(|| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn topology_dot_contains_every_node_and_link() {
        let g = scenarios::fig2();
        let dot = topology(&g);
        assert!(dot.starts_with("graph topo {"));
        for l in ["S", "R1", "R4", "r1", "r2", "r3"] {
            assert!(dot.contains(&format!("\"{l}\"")), "missing {l}");
        }
        assert_eq!(dot.matches(" -- ").count(), g.link_count());
    }

    #[test]
    fn unicast_only_routers_render_dashed() {
        let mut g = scenarios::fig3();
        let r6 = g.node_by_label("R6").unwrap();
        g.set_mcast_capable(r6, false);
        let dot = topology(&g);
        assert!(dot.contains("\"R6\" [shape=box style=dashed]"));
    }

    #[test]
    fn tree_dot_highlights_duplicates() {
        let g = scenarios::fig3();
        let r1 = g.node_by_label("R1").unwrap();
        let r6 = g.node_by_label("R6").unwrap();
        let dot = tree(&g, &[((r1, r6), 2)]);
        assert!(dot.contains("×2"));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("\"R1\" -> \"R6\""));
    }

    #[test]
    fn tree_dot_marks_unused_nodes_dotted() {
        let g = scenarios::fig2();
        let s = g.node_by_label("S").unwrap();
        let r1 = g.node_by_label("R1").unwrap();
        let dot = tree(&g, &[((s, r1), 1)]);
        assert!(dot.contains("\"S\" [shape=box style=bold]"));
        assert!(dot.contains("\"R4\" [shape=box style=dotted]"));
    }
}
