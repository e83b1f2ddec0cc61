//! An independent reference the route stores are tested against (the
//! module is test-only).
//!
//! [`FullGraph`] answers every pair of the *whole* graph, stub hosts
//! included, and shares no code with the search the stores run:
//!
//! * distances come from Floyd–Warshall, dynamic programming over
//!   intermediate nodes rather than Dijkstra's greedy frontier;
//! * next hops come from those distances alone. `pred(v)` from root `a` is
//!   the smallest-id `u` that is `a` or a router, whose edge `u → v` is up,
//!   with `d(a, u) + c(u, v) = d(a, v)`; the step toward `t` is the node
//!   after `a` on the `pred` chain from `t`.
//!
//! That is the routing the stores promise — shortest paths, equal costs
//! broken to the smaller predecessor id — stated without a priority queue,
//! a contraction or a pair rule, so the proptests that hold both stores to
//! it on every pair witness all three, with and without failed elements.
//!
//! Host-transit exclusion matters here too: paths may start or end at a
//! host but never pass through one, so hosts are excluded from the set of
//! intermediate nodes and are never a predecessor, except as the root.

use hbh_topo::graph::{Graph, NodeId, PathCost};

const UNREACHABLE: PathCost = PathCost::MAX;

/// All-pairs distances and next hops of a graph.
pub struct FullGraph {
    n: usize,
    dist: Vec<PathCost>,
    next: Vec<Option<NodeId>>,
}

impl FullGraph {
    /// Routes over every node and edge of `g`.
    pub fn compute(g: &Graph) -> Self {
        let (n, m) = (g.node_count(), g.directed_edge_count());
        Self::avoiding(g, &vec![false; n], &vec![false; m])
    }

    /// Routes over the surviving topology: flagged nodes and directed
    /// edges are absent, and a failed node reaches nothing, itself
    /// included.
    pub fn avoiding(g: &Graph, node_down: &[bool], edge_down: &[bool]) -> Self {
        let n = g.node_count();
        let dist = floyd_warshall(g, node_down, edge_down);
        let d = |a: usize, b: NodeId| dist[a * n + b.index()];
        let mut next = vec![None; n * n];
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        for a in 0..n {
            pred.fill(None);
            // Ascending `u`, first match kept: the smallest-id predecessor.
            for u in g.nodes() {
                if (u.index() != a && !g.is_router(u)) || d(a, u) == UNREACHABLE {
                    continue;
                }
                for e in g.neighbors(u) {
                    let v = e.to;
                    if v.index() == a || edge_down[e.eid.index()] || pred[v.index()].is_some() {
                        continue;
                    }
                    if d(a, v) != UNREACHABLE
                        && d(a, u) + PathCost::from(g.edge_cost(e.eid)) == d(a, v)
                    {
                        pred[v.index()] = Some(u);
                    }
                }
            }
            // Costs are >= 1, so every chain strictly descends to `a`.
            for t in g.nodes() {
                let mut hop = t;
                while let Some(p) = pred[hop.index()] {
                    if p.index() == a {
                        next[a * n + t.index()] = Some(hop);
                        break;
                    }
                    hop = p;
                }
            }
        }
        FullGraph { n, dist, next }
    }

    /// Cost of the shortest `from → to` path, `None` if unreachable.
    pub fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        match self.dist[from.index() * self.n + to.index()] {
            UNREACHABLE => None,
            d => Some(d),
        }
    }

    /// The neighbor of `at` a packet for `dst` leaves through.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next[at.index() * self.n + dst.index()]
    }
}

/// All-pairs distances by Floyd–Warshall over the surviving topology,
/// row-major (`dist[u * n + v]`, [`UNREACHABLE`] when there is no path).
fn floyd_warshall(g: &Graph, node_down: &[bool], edge_down: &[bool]) -> Vec<PathCost> {
    let n = g.node_count();
    let up = |v: NodeId| !node_down[v.index()];
    let mut dist = vec![UNREACHABLE; n * n];
    for u in g.nodes().filter(|&u| up(u)) {
        dist[u.index() * n + u.index()] = 0;
        for e in g.neighbors(u) {
            // Out-edges of hosts are usable only as the *first* hop, which
            // this direct-edge initialization captures; hosts are excluded
            // from the intermediate set below.
            if up(e.to) && !edge_down[e.eid.index()] {
                let cell = &mut dist[u.index() * n + e.to.index()];
                *cell = (*cell).min(PathCost::from(g.edge_cost(e.eid)));
            }
        }
    }
    for k in g.nodes().filter(|&k| g.is_router(k)).map(NodeId::index) {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == UNREACHABLE {
                continue;
            }
            for j in 0..n {
                let dkj = dist[k * n + j];
                if dkj != UNREACHABLE && dik + dkj < dist[i * n + j] {
                    dist[i * n + j] = dik + dkj;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RouteProvider, RoutingTables};
    use hbh_topo::graph::Graph;
    use hbh_topo::{costs, isp, random, scenarios};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agree(g: &Graph) {
        let tables = RoutingTables::compute(g);
        let fw = FullGraph::compute(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    tables.dist(u, v),
                    fw.dist(u, v),
                    "distance {u}→{v} disagrees between Dijkstra and Floyd–Warshall"
                );
                assert_eq!(
                    RouteProvider::next_hop(&tables, u, v),
                    fw.next_hop(u, v),
                    "next hop {u}→{v} disagrees with the distance-derived one"
                );
            }
        }
    }

    #[test]
    fn agrees_on_isp_topology() {
        for seed in 0..5 {
            let mut g = isp::isp_topology();
            costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(seed));
            agree(&g);
        }
    }

    #[test]
    fn agrees_on_random_topologies() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = random::gnp_with_avg_degree(20, 4.0, &mut rng);
            costs::assign_paper_costs(&mut g, &mut rng);
            agree(&g);
        }
    }

    #[test]
    fn agrees_on_scenario_topologies() {
        for g in [scenarios::fig1(), scenarios::fig2(), scenarios::fig3()] {
            agree(&g);
        }
    }

    #[test]
    fn agrees_on_disconnected_graph() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_router(); // isolated
        g.add_link(a, b, 3, 4);
        agree(&g);
    }

    #[test]
    fn hosts_never_shortcut_in_reference_either() {
        // R3 and R2 both attach to fig2's dual-homed host r1; a path
        // R3→r1→R2 must not exist. The real route R3→R1→R2 is blocked
        // (R1→R2 = 10): d = 11.
        let g = scenarios::fig2();
        let fw = FullGraph::compute(&g);
        let r1 = g.node_by_label("R1").unwrap();
        let r2 = g.node_by_label("R2").unwrap();
        let r3 = g.node_by_label("R3").unwrap();
        assert_eq!(fw.dist(r3, r2), Some(11));
        assert_eq!(fw.next_hop(r3, r2), Some(r1));
    }

    #[test]
    fn equal_costs_step_through_the_smaller_predecessor() {
        // s—b—t and s—a—t, all cost 1, b added first: a's smaller id wins
        // however the links were inserted.
        let mut g = Graph::new();
        let s = g.add_router();
        let a = g.add_router();
        let b = g.add_router();
        let t = g.add_router();
        g.add_link(s, b, 1, 1);
        g.add_link(b, t, 1, 1);
        g.add_link(s, a, 1, 1);
        g.add_link(a, t, 1, 1);
        let fw = FullGraph::compute(&g);
        assert_eq!((fw.dist(s, t), fw.next_hop(s, t)), (Some(2), Some(a)));
        assert_eq!(fw.next_hop(t, s), Some(a));
    }

    #[test]
    fn a_failed_node_reaches_nothing_and_is_reached_by_nothing() {
        let g = scenarios::fig3();
        let mut node_down = vec![false; g.node_count()];
        let r1 = g.node_by_label("R1").unwrap();
        node_down[r1.index()] = true;
        let fw = FullGraph::avoiding(&g, &node_down, &vec![false; g.directed_edge_count()]);
        for v in g.nodes() {
            assert_eq!((fw.dist(r1, v), fw.next_hop(r1, v)), (None, None));
            assert_eq!(fw.dist(v, r1), None);
        }
    }
}
