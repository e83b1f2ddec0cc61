//! All-pairs forwarding tables.
//!
//! [`RoutingTables`] is the unicast forwarding state every simulated node
//! consults: `step(at, dst)` answers "which neighbor does a packet for
//! `dst` leave through, and over which edge?". It is computed once per
//! cost assignment, NS-2 static routing's counterpart: one
//! `dijkstra` search per *core* node of the stub-contracted
//! graph into a core × core table, then every `(from, to)` pair expanded
//! once, through the pair rule [`crate::OnDemandRoutes`] answers its
//! lookups with (see `pair.rs`), into one `n×n` array of forwarding steps
//! of 8 bytes each. That array is the per-packet hot path; distances,
//! which nothing hot reads, go through the pair rule over the core table
//! on every lookup. A fault event (this repository's extension; the
//! paper's routes never change) builds new tables over the surviving
//! topology with [`RoutingTables::compute_avoiding`], from scratch.

use crate::dijkstra::{shortest_paths_avoiding_csr_into, shortest_paths_csr_into, DijkstraScratch};
use crate::pair::{self, Leg, Masks, NONE};
use crate::provider::{RouteProvider, RouteStats};
use hbh_topo::contract::Contracted;
use hbh_topo::graph::{EdgeId, Graph, NodeId, PathCost};

/// A stored forwarding step: the next hop's node id and the id of the
/// directed edge it is reached over. A [`NONE`] hop is "no step".
type Step = (u32, u32);

/// The empty [`Step`].
const NO_STEP: Step = (NONE, NONE);

/// Precomputed all-pairs routing: a forwarding step per pair, distances
/// by the pair rule.
///
/// ```
/// use hbh_topo::graph::Graph;
/// use hbh_routing::{RouteProvider, RoutingTables};
///
/// let mut g = Graph::new();
/// let a = g.add_router();
/// let b = g.add_router();
/// let c = g.add_router();
/// g.add_link(a, b, 1, 9);
/// g.add_link(b, c, 1, 9);
/// g.add_link(a, c, 5, 5); // direct but pricier than a→b→c
///
/// let t = RoutingTables::compute(&g);
/// assert_eq!(t.dist(a, c), Some(2));
/// assert_eq!(t.path(a, c), Some(vec![a, b, c]));
/// // The reverse direction is asymmetric: the direct link wins.
/// assert_eq!(t.path(c, a), Some(vec![c, a]));
/// ```
#[derive(Clone, Debug)]
pub struct RoutingTables {
    view: Contracted,
    masks: Masks,
    /// `core[a * c + b]`: the core leg `a → b`.
    core: Vec<Leg>,
    /// `steps[u * n + v]`: the forwarding step at `u` toward `v`.
    steps: Vec<Step>,
}

impl RoutingTables {
    /// Builds the tables for the current costs of `g`.
    ///
    /// The graph is contracted once ([`Contracted::from_graph`]), then one
    /// Dijkstra run per core node fills a core × core table, all sharing
    /// one scratch buffer; stub hosts own no search and are expanded from
    /// their router's row.
    pub fn compute(g: &Graph) -> Self {
        let (n, m) = (g.node_count(), g.directed_edge_count());
        Self::expand(g, vec![false; n], vec![false; m], |view, _, src, s| {
            shortest_paths_csr_into(view.core(), src, s)
        })
    }

    /// [`RoutingTables::compute`] over the *surviving* topology: nodes
    /// flagged in `node_down` and directed edges flagged in `edge_down` are
    /// treated as absent. This models instantaneous unicast reconvergence
    /// after a failure — the substrate the multicast protocols repair on
    /// top of — and is how a fault rebuilds an eager network. Rows of down
    /// nodes are fully unreachable (a crashed router neither originates
    /// nor receives).
    ///
    /// With all-false masks the result is identical to
    /// [`RoutingTables::compute`] (same searches, same tie-breaks), which
    /// the fault-free equivalence tests pin.
    ///
    /// # Panics
    /// Panics if a mask length does not match the graph.
    pub fn compute_avoiding(g: &Graph, node_down: &[bool], edge_down: &[bool]) -> Self {
        Self::expand(
            g,
            node_down.to_vec(),
            edge_down.to_vec(),
            |view, masks, src, s| {
                shortest_paths_avoiding_csr_into(
                    view.core(),
                    src,
                    s,
                    &masks.core_down,
                    &masks.edge_down,
                )
            },
        )
    }

    /// One `search` per core node into the core × core table, then every
    /// pair of the full graph expanded from it into the step array.
    ///
    /// # Panics
    /// Panics if core nodes × the largest core link cost overflows a
    /// `u32` (see `pair.rs`).
    fn expand(
        g: &Graph,
        node_down: Vec<bool>,
        edge_down: Vec<bool>,
        search: impl Fn(&Contracted, &Masks, NodeId, &mut DijkstraScratch),
    ) -> Self {
        let view = Contracted::from_graph(g);
        pair::assert_legs_fit(&view);
        let masks = Masks::new(&view, node_down, edge_down);
        let c = view.core_nodes().len();
        let mut core = Vec::with_capacity(c * c);
        let mut scratch = DijkstraScratch::default();
        for a in 0..c {
            search(&view, &masks, NodeId(a as u32), &mut scratch);
            core.extend(pair::legs(&scratch));
        }
        let mut t = RoutingTables {
            view,
            masks,
            core,
            steps: Vec::new(),
        };
        let n = t.view.node_count();
        t.steps = (0..n)
            .flat_map(|u| (0..n).map(move |v| (NodeId(u as u32), NodeId(v as u32))))
            .map(|(u, v)| {
                let step = if u == v { None } else { t.resolve(u, v) };
                step.map_or(NO_STEP, |(_, hop, eid)| (hop.0, eid.0))
            })
            .collect();
        t
    }

    /// The pair rule over the core table: cost and step of `from → to`,
    /// `from != to`.
    fn resolve(&self, from: NodeId, to: NodeId) -> Option<(PathCost, NodeId, EdgeId)> {
        let c = self.masks.core_down.len();
        pair::resolve(&self.view, &self.masks, from, to, |a, b| {
            self.core[a as usize * c + b as usize]
        })
    }

    /// Directed half-links of the graph the tables were built for: every
    /// step's edge id indexes that graph's edges.
    pub fn directed_edge_count(&self) -> usize {
        self.view.directed_edge_count()
    }
}

impl RouteProvider for RoutingTables {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    #[inline]
    fn step(&self, at: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        let (hop, eid) = self.steps[at.index() * self.node_count() + dst.index()];
        (hop != NONE).then_some((NodeId(hop), EdgeId(eid)))
    }

    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        if from == to {
            return (!self.masks.node_down[from.index()]).then_some(0);
        }
        self.resolve(from, to).map(|(d, ..)| d)
    }

    fn route_stats(&self) -> RouteStats {
        RouteStats {
            computed: self.masks.core_down.len() as u64,
            cached_rows: self.node_count(),
            ..RouteStats::default()
        }
    }

    fn state_bytes(&self) -> usize {
        self.steps.len() * size_of::<Step>()
            + self.core.len() * size_of::<Leg>()
            + self.view.bytes()
            + self.masks.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::costs;
    use hbh_topo::graph::Graph;
    use hbh_topo::isp::isp_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..4).map(|_| g.add_router()).collect();
        g.add_link(nodes[0], nodes[1], 1, 2);
        g.add_link(nodes[1], nodes[2], 3, 4);
        g.add_link(nodes[2], nodes[3], 5, 6);
        (g, nodes)
    }

    #[test]
    fn next_hop_walks_the_line() {
        let (g, n) = line();
        let t = RoutingTables::compute(&g);
        assert_eq!(t.next_hop(n[0], n[3]), Some(n[1]));
        assert_eq!(t.next_hop(n[1], n[3]), Some(n[2]));
        assert_eq!(t.next_hop(n[2], n[3]), Some(n[3]));
        assert_eq!(t.next_hop(n[3], n[3]), None);
    }

    #[test]
    fn distances_are_directional() {
        let (g, n) = line();
        let t = RoutingTables::compute(&g);
        assert_eq!(t.dist(n[0], n[3]), Some(1 + 3 + 5));
        assert_eq!(t.dist(n[3], n[0]), Some(6 + 4 + 2));
    }

    #[test]
    fn path_reconstruction_matches_next_hops() {
        let (g, n) = line();
        let t = RoutingTables::compute(&g);
        assert_eq!(t.path(n[0], n[3]), Some(vec![n[0], n[1], n[2], n[3]]));
        assert_eq!(t.path(n[2], n[2]), Some(vec![n[2]]));
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let t = RoutingTables::compute(&g);
        assert_eq!(t.dist(a, b), None);
        assert_eq!(t.next_hop(a, b), None);
        assert_eq!(t.path(a, b), None);
    }

    #[test]
    fn path_costs_sum_to_table_distance() {
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(3));
        let t = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let path = t.path(u, v).expect("ISP topology is connected");
                let sum: PathCost = path
                    .windows(2)
                    .map(|w| PathCost::from(g.cost(w[0], w[1]).unwrap()))
                    .sum();
                assert_eq!(Some(sum), t.dist(u, v));
            }
        }
    }

    #[test]
    fn avoiding_nothing_equals_plain_compute() {
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(7));
        let plain = RoutingTables::compute(&g);
        let masked = RoutingTables::compute_avoiding(
            &g,
            &vec![false; g.node_count()][..],
            &vec![false; g.directed_edge_count()][..],
        );
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(plain.dist(u, v), masked.dist(u, v), "dist {u}->{v}");
                assert_eq!(plain.next_hop(u, v), masked.next_hop(u, v), "hop {u}->{v}");
            }
        }
    }

    #[test]
    fn avoiding_a_node_routes_around_it() {
        // 0 - 1 - 3 (cheap via 1) with a detour 0 - 2 - 3; fail node 1.
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        let d = g.add_router();
        g.add_link(a, b, 1, 1);
        g.add_link(b, d, 1, 1);
        g.add_link(a, c, 5, 5);
        g.add_link(c, d, 5, 5);
        let mut node_down = vec![false; g.node_count()];
        node_down[b.index()] = true;
        let t = RoutingTables::compute_avoiding(&g, &node_down, &[false; 8]);
        assert_eq!(t.path(a, d), Some(vec![a, c, d]));
        assert_eq!(t.dist(a, b), None, "down node is unreachable");
        assert_eq!(t.dist(b, d), None, "down node originates nothing");
    }

    #[test]
    fn avoiding_an_edge_is_directional_per_mask() {
        let (g, n) = line();
        // Fail both directions of the 0-1 link: 3 becomes unreachable
        // from 0 and vice versa.
        let mut edge_down = vec![false; g.directed_edge_count()];
        let (e01, _) = g.edge_entry(n[0], n[1]).unwrap();
        let (e10, _) = g.edge_entry(n[1], n[0]).unwrap();
        edge_down[e01.index()] = true;
        edge_down[e10.index()] = true;
        let t = RoutingTables::compute_avoiding(&g, &vec![false; g.node_count()][..], &edge_down);
        assert_eq!(t.dist(n[0], n[3]), None);
        assert_eq!(t.dist(n[3], n[0]), None);
        assert_eq!(t.dist(n[1], n[3]), Some(3 + 5), "rest of the line intact");
    }

    #[test]
    fn recompute_after_cost_change_shifts_routes() {
        let (mut g, n) = line();
        let before = RoutingTables::compute(&g);
        assert_eq!(before.dist(n[0], n[1]), Some(1));
        g.set_cost(g.edge_entry(n[0], n[1]).unwrap().0, 9);
        let after = RoutingTables::compute(&g);
        assert_eq!(after.dist(n[0], n[1]), Some(9));
    }

    #[test]
    fn paper_costs_make_most_routes_asymmetric() {
        // Paxson's statistic, which the paper cites in §2.3, over every
        // ordered pair of distinct routers: how often the path back is not
        // the path there reversed, and how often the distances differ.
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(2));
        let t = RoutingTables::compute(&g);
        let (mut pairs, mut paths, mut dists) = (0, 0, 0);
        for u in g.routers() {
            for v in g.routers().filter(|&v| v != u) {
                let mut back = t.path(v, u).unwrap();
                back.reverse();
                pairs += 1;
                paths += usize::from(t.path(u, v).unwrap() != back);
                dists += usize::from(t.dist(u, v) != t.dist(v, u));
            }
        }
        assert!(
            paths as f64 > 0.3 * pairs as f64,
            "expected heavy path asymmetry, got {paths} of {pairs}"
        );
        assert!(dists > 0);
    }
}
