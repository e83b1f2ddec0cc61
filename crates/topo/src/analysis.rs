//! Connectivity: the check the random generators redraw on until it
//! holds.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// True if every node can reach every other node (links are bidirectional,
/// so one BFS suffices).
pub fn is_connected(g: &Graph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    reachable_from(g, NodeId(0)) == n
}

/// Number of nodes reachable from `start` (including `start`).
fn reachable_from(g: &Graph, start: NodeId) -> usize {
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    let mut count = 0;
    while let Some(u) = queue.pop_front() {
        count += 1;
        for e in g.neighbors(u) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                queue.push_back(e.to);
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_router()).collect();
        for w in nodes.windows(2) {
            g.add_link(w[0], w[1], 1, 1);
        }
        g
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new()));
    }

    #[test]
    fn path_is_connected() {
        assert!(is_connected(&path_graph(5)));
    }

    #[test]
    fn disjoint_routers_are_disconnected() {
        let mut g = Graph::new();
        g.add_router();
        g.add_router();
        assert!(!is_connected(&g));
        assert_eq!(reachable_from(&g, NodeId(0)), 1);
    }
}
