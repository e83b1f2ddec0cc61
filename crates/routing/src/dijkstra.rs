//! Single-source shortest paths over directed link costs.
//!
//! Two details matter for protocol fidelity:
//!
//! * **Hosts never transit.** The paper's receivers are end hosts; a packet
//!   is never routed *through* one. The search therefore only relaxes
//!   out-edges of the root and of routers. (The Figure 2 scenario attaches
//!   a receiver to two routers, which would otherwise open a fake shortcut.)
//! * **Deterministic tie-breaking.** When two paths have equal cost the one
//!   whose predecessor has the smaller node id wins, so routing tables are
//!   a pure function of the topology — a property the regression tests and
//!   the paired-run experiment design both rely on.
//!
//! The search itself runs over a [`Csr`] packing of the graph: per-node
//! out-edges are contiguous `u32` slices instead of one heap allocation per
//! node, which is what makes all-pairs and on-demand sweeps viable at
//! thousands of routers. Both route stores search the stub-contracted
//! core ([`hbh_topo::contract`]).
//!
//! The frontier is a monotone radix heap (`radix.rs`): Dijkstra's keys
//! never fall below the last one popped, and they are integer path costs.
//! It pops equal distances in no particular order, and no route depends
//! on that order. Costs are ≥ 1, so every optimal predecessor of `v` has a
//! strictly smaller distance and is settled before `v` is, in any order
//! among equals; the tie-break then leaves `pred[v]` at the smallest-id
//! optimal predecessor, and `first` follows `pred`. So `dist`, `pred` and
//! `first` are functions of the graph alone, and the heap, like the
//! scratch it lives in, is reused from search to search without
//! allocating.
//!
//! The search records, per reached node, the root's out-edge the path
//! leaves on, as that edge's packed slot in the [`Csr`]: one `u32` that
//! names both the next hop and the directed edge id (`Csr::edge_at`), so
//! the simulator never scans an adjacency list to find the link a packet
//! goes out on.

use crate::pair::NONE;
use crate::radix::RadixHeap;
use hbh_topo::csr::Csr;
use hbh_topo::graph::{EdgeId, NodeId, PathCost};

const UNREACHABLE: PathCost = PathCost::MAX;

/// Reusable working storage for repeated Dijkstra runs.
///
/// All-pairs table construction ([`crate::RoutingTables::compute`] and
/// `compute_avoiding`) runs one search per core node; threading one
/// scratch through them replaces `4n` fresh allocations per search with
/// buffer resets. `OnDemandRoutes` keeps one for the rows it computes.
#[derive(Default)]
pub(crate) struct DijkstraScratch {
    pub(crate) dist: Vec<PathCost>,
    pub(crate) pred: Vec<Option<NodeId>>,
    /// `first[v]`: the packed slot of the root's out-edge the path to `v`
    /// leaves on ([`NONE`] for the root and for unreached nodes).
    pub(crate) first: Vec<u32>,
    done: Vec<bool>,
    heap: RadixHeap<NodeId>,
}

impl DijkstraScratch {
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, UNREACHABLE);
        self.pred.clear();
        self.pred.resize(n, None);
        self.first.clear();
        self.first.resize(n, NONE);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
    }
}

/// Runs Dijkstra from `root` over a pre-packed CSR view, into
/// caller-provided scratch storage. The results are left in `s.dist` /
/// `s.pred` / `s.first`.
///
/// First hops are resolved inline during relaxation: when `v` is improved
/// via `u`, `u` has already been finalized (its out-edges are only relaxed
/// after it is popped as settled), so `first[u]` is final and
/// `first[v] = first[u]` (or the slot of the edge `root → v` itself when
/// `u` is the root) holds for the eventual shortest path too.
pub(crate) fn shortest_paths_csr_into(csr: &Csr, root: NodeId, s: &mut DijkstraScratch) {
    shortest_paths_core(csr, root, s, |_| true, |_| true);
}

/// [`shortest_paths_csr_into`] over the *surviving* topology: nodes
/// flagged in `node_down` and directed edges flagged in `edge_down` are
/// excluded from the search (the failure-injection reroute path). Both
/// masks are indexed densely by `NodeId`/`EdgeId`; tie-breaking is
/// identical to the unfiltered search, so all-false masks reproduce it
/// exactly.
pub(crate) fn shortest_paths_avoiding_csr_into(
    csr: &Csr,
    root: NodeId,
    s: &mut DijkstraScratch,
    node_down: &[bool],
    edge_down: &[bool],
) {
    shortest_paths_core(
        csr,
        root,
        s,
        |n: NodeId| !node_down[n.index()],
        |e: EdgeId| !edge_down[e.index()],
    );
}

/// The search itself, generic over the availability filters so the
/// unfiltered hot path monomorphizes to the historical loop with no mask
/// reads. Edges are relaxed as a parallel-slice walk over the CSR arrays.
fn shortest_paths_core(
    csr: &Csr,
    root: NodeId,
    s: &mut DijkstraScratch,
    node_up: impl Fn(NodeId) -> bool,
    edge_up: impl Fn(EdgeId) -> bool,
) {
    s.reset(csr.node_count());
    if !node_up(root) {
        return; // a failed root reaches nothing (its own dist stays MAX)
    }

    s.dist[root.index()] = 0;
    s.heap.push(0, root);

    while let Some((d, u)) = s.heap.pop() {
        if s.done[u.index()] {
            continue;
        }
        s.done[u.index()] = true;
        // Hosts sink traffic; only the search root may emit from one.
        if u != root && csr.is_host(u) {
            continue;
        }
        let (to, cost, eid) = csr.out_slices(u);
        let base = csr.first_slot(u);
        for i in 0..to.len() {
            let v = NodeId(to[i]);
            if !edge_up(EdgeId(eid[i])) || !node_up(v) {
                continue;
            }
            let nd = d + PathCost::from(cost[i]);
            let better = nd < s.dist[v.index()]
                || (nd == s.dist[v.index()] && tie_break(s.pred[v.index()], u));
            if better && !s.done[v.index()] {
                s.dist[v.index()] = nd;
                s.pred[v.index()] = Some(u);
                s.first[v.index()] = if u == root {
                    base + i as u32
                } else {
                    s.first[u.index()]
                };
                s.heap.push(nd, v);
            }
        }
    }
}

/// On an equal-cost tie, adopt the new predecessor only if it has a
/// strictly smaller id than the incumbent.
fn tie_break(current: Option<NodeId>, candidate: NodeId) -> bool {
    match current {
        None => true,
        Some(c) => candidate < c,
    }
}

// The two fidelity details above and the paper's own routes, observed
// through the eager store that runs this search.
#[cfg(test)]
mod tests {
    use crate::{RouteProvider, RoutingTables};
    use hbh_topo::graph::Graph;
    use hbh_topo::scenarios;

    #[test]
    fn hosts_do_not_transit() {
        // A host hangs off a, and b is reached only over the router detour
        // a — c — b: the host is a destination, never a way through.
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        let h = g.add_host(a, 1, 1);
        g.add_link(a, c, 5, 5);
        g.add_link(c, b, 5, 5);
        let t = RoutingTables::compute(&g);
        assert_eq!(t.dist(a, b), Some(10));
        assert_eq!(t.path(a, b), Some(vec![a, c, b]));
        assert_eq!(t.dist(a, h), Some(1));
    }

    #[test]
    fn host_as_root_can_emit() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 3, 3);
        let h = g.add_host(a, 2, 4);
        let t = RoutingTables::compute(&g);
        assert_eq!(t.dist(h, b), Some(7)); // 4 (h→a) + 3 (a→b)
        assert_eq!(t.path(h, b), Some(vec![h, a, b]));
    }

    #[test]
    fn dual_homed_host_does_not_open_a_shortcut() {
        // In fig2, r1 attaches to both R2 and R3. A path S→R1→R3→r1→R2 must
        // not exist for routing purposes.
        let g = scenarios::fig2();
        let s = g.node_by_label("S").unwrap();
        let r2 = g.node_by_label("R2").unwrap();
        let path = RoutingTables::compute(&g).path(s, r2).unwrap();
        assert!(
            path.iter().all(|&n| !g.is_host(n) || n == s),
            "path to R2 crosses a host: {path:?}"
        );
    }

    #[test]
    fn equal_cost_tie_breaks_to_smaller_predecessor() {
        // s—a—t and s—b—t, all cost 1; a has the smaller id, so the path
        // via a must win deterministically.
        let mut g = Graph::new();
        let s = g.add_router();
        let a = g.add_router();
        let b = g.add_router();
        let t = g.add_router();
        g.add_link(s, a, 1, 1);
        g.add_link(s, b, 1, 1);
        g.add_link(a, t, 1, 1);
        g.add_link(b, t, 1, 1);
        assert_eq!(RoutingTables::compute(&g).path(s, t), Some(vec![s, a, t]));
    }

    #[test]
    fn inline_first_hops_match_reconstructed_paths() {
        // The first hop and its edge id are resolved inline during
        // relaxation; both must be the path's first link.
        for g in [scenarios::fig2(), scenarios::fig3()] {
            let t = RoutingTables::compute(&g);
            for u in g.nodes() {
                for v in g.nodes().filter(|&v| v != u) {
                    let path = t.path(u, v).expect("the scenarios are connected");
                    let eid = g.edge_entry(u, path[1]).unwrap().0;
                    assert_eq!(t.step(u, v), Some((path[1], eid)), "step {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn fig2_routes_match_paper() {
        let g = scenarios::fig2();
        let t = RoutingTables::compute(&g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        let (s, r1, r2, r3, r4) = (n("S"), n("R1"), n("R2"), n("R3"), n("R4"));
        let (rx1, rx2, rx3) = (n("r1"), n("r2"), n("r3"));

        // Downstream routes.
        assert_eq!(t.path(s, rx1), Some(vec![s, r1, r3, rx1]));
        assert_eq!(t.path(s, rx2), Some(vec![s, r4, rx2]));
        assert_eq!(t.path(s, rx3), Some(vec![s, r1, r3, rx3]));

        // Upstream routes.
        assert_eq!(t.path(rx1, s), Some(vec![rx1, r2, r1, s]));
        assert_eq!(t.path(rx2, s), Some(vec![rx2, r3, r1, s]));
        assert_eq!(t.path(rx3, s), Some(vec![rx3, r3, r1, s]));
    }

    #[test]
    fn fig3_routes_match_paper() {
        let g = scenarios::fig3();
        let t = RoutingTables::compute(&g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        let route = |ls: &[&str]| Some(ls.iter().map(|l| n(l)).collect::<Vec<_>>());
        assert_eq!(
            t.path(n("S"), n("r1")),
            route(&["S", "R1", "R6", "R4", "r1"])
        );
        assert_eq!(
            t.path(n("S"), n("r2")),
            route(&["S", "R1", "R6", "R5", "r2"])
        );
        assert_eq!(
            t.path(n("r1"), n("S")),
            route(&["r1", "R4", "R2", "R1", "S"])
        );
        assert_eq!(
            t.path(n("r2"), n("S")),
            route(&["r2", "R5", "R3", "R1", "S"])
        );
    }
}
