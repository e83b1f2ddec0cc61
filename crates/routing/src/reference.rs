//! Independent references the route stores are tested against (the
//! module is test-only).
//!
//! * [`FullGraph`] — one Dijkstra per node over the *whole* graph, stub
//!   hosts included: how the eager tables were computed before both stores
//!   shared the contracted core and its pair rule (`pair.rs`). It never
//!   contracts, so it witnesses that rule instead of restating it; the
//!   proptests compare both stores to it on every pair, distances and
//!   next hops, with and without failed elements.
//! * [`floyd_warshall`] — a deliberately different algorithm (dynamic
//!   programming over intermediate nodes vs. Dijkstra's greedy frontier)
//!   computing the same distances: a routing bug would corrupt *every*
//!   experiment, so the distances get two independent witnesses.
//!
//! Host-transit exclusion matters here too: paths may start or end at a
//! host but never pass through one, so hosts are simply excluded from the
//! set of intermediate nodes.

use crate::dijkstra::{shortest_paths_avoiding_csr_into, shortest_paths_csr_into, DijkstraScratch};
use hbh_topo::csr::Csr;
use hbh_topo::graph::{Graph, NodeId, PathCost};

/// All-pairs distances and next hops, one full-graph search per node.
pub struct FullGraph {
    n: usize,
    dist: Vec<PathCost>,
    next: Vec<Option<NodeId>>,
}

impl FullGraph {
    /// Routes over every node and edge of `g`.
    pub fn compute(g: &Graph) -> Self {
        let csr = Csr::from_graph(g);
        Self::from_searches(g.node_count(), |u, s| shortest_paths_csr_into(&csr, u, s))
    }

    /// Routes over the surviving topology: flagged nodes and directed
    /// edges are absent.
    pub fn avoiding(g: &Graph, node_down: &[bool], edge_down: &[bool]) -> Self {
        let csr = Csr::from_graph(g);
        Self::from_searches(g.node_count(), |u, s| {
            shortest_paths_avoiding_csr_into(&csr, u, s, node_down, edge_down)
        })
    }

    /// One `search` per node of an `n`-node graph, each row copied out of
    /// the shared scratch.
    fn from_searches(n: usize, mut search: impl FnMut(NodeId, &mut DijkstraScratch)) -> Self {
        let mut dist = vec![PathCost::MAX; n * n];
        let mut next = vec![None; n * n];
        let mut scratch = DijkstraScratch::default();
        for u in 0..n {
            search(NodeId(u as u32), &mut scratch);
            dist[u * n..(u + 1) * n].copy_from_slice(&scratch.dist);
            next[u * n..(u + 1) * n].copy_from_slice(&scratch.first);
        }
        FullGraph { n, dist, next }
    }

    /// Cost of the shortest `from → to` path, `None` if unreachable.
    pub fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        match self.dist[from.index() * self.n + to.index()] {
            PathCost::MAX => None,
            d => Some(d),
        }
    }

    /// The neighbor of `at` a packet for `dst` leaves through.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next[at.index() * self.n + dst.index()]
    }
}

/// All-pairs distances by Floyd–Warshall. `dist[u][v] = None` when
/// unreachable.
pub fn floyd_warshall(g: &Graph) -> Vec<Vec<Option<PathCost>>> {
    let n = g.node_count();
    let mut dist: Vec<Vec<Option<PathCost>>> = vec![vec![None; n]; n];
    for u in g.nodes() {
        dist[u.index()][u.index()] = Some(0);
        for e in g.neighbors(u) {
            // Out-edges of hosts are usable only as the *first* hop, which
            // this direct-edge initialization captures; hosts are excluded
            // from the intermediate set below.
            let d = PathCost::from(e.cost);
            let cell = &mut dist[u.index()][e.to.index()];
            *cell = Some(cell.map_or(d, |old: PathCost| old.min(d)));
        }
    }
    for k in g.nodes().filter(|&k| g.is_router(k)) {
        for i in 0..n {
            let Some(dik) = dist[i][k.index()] else {
                continue;
            };
            // Indexes two rows of `dist` (row k read, row i written, possibly
            // the same row); an iterator form would fight the borrow checker
            // for no clarity gain in a reference implementation.
            #[allow(clippy::needless_range_loop)]
            for j in 0..n {
                let Some(dkj) = dist[k.index()][j] else {
                    continue;
                };
                let through = dik + dkj;
                let cell = &mut dist[i][j];
                if cell.map_or(true, |d| through < d) {
                    *cell = Some(through);
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
        let fw = floyd_warshall(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    tables.dist(u, v),
                    fw[u.index()][v.index()],
                    "distance {u}→{v} disagrees between Dijkstra and Floyd–Warshall"
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
        // a —1→ h —1→ ... no: hosts are single-homed; emulate the dual-homed
        // scenario receiver instead.
        let g = scenarios::fig2();
        let fw = floyd_warshall(&g);
        let r2 = g.node_by_label("R2").unwrap();
        let r3 = g.node_by_label("R3").unwrap();
        // R3 and R2 both attach to host r1; a path R3→r1→R2 must not exist.
        // The real route R3→R1→R2 is blocked (R1→R2 = 10): d = 11.
        assert_eq!(fw[r3.index()][r2.index()], Some(11));
    }
}
