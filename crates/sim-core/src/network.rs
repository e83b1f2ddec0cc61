//! The static network a simulation runs over: topology + unicast routing.
//!
//! Mirrors the paper's setup: costs are drawn, NS computes static unicast
//! routes, and the multicast protocols then run on top of that fixed
//! unicast substrate. Route *dynamics* are this repository's extension,
//! and they have one rule: a fault event ([`crate::FaultEvent`]) swaps in
//! [`Network::rerouted`], which rebuilds the route store from the fault
//! masks alone, as if the surviving topology had been frozen from the
//! start.
//!
//! Routing is served through [`hbh_routing::RouteProvider`], in one of two
//! materializations chosen at construction:
//!
//! * [`Network::new`]/[`Network::with_tables`] — eager all-pairs
//!   [`RoutingTables`]: one `n×n` array of forwarding steps, expanded up
//!   front. The fastest per-packet path; memory is O(n²). The paper-scale
//!   default.
//! * [`Network::on_demand`] — lazy [`OnDemandRoutes`]: per-router SPF rows
//!   over the router core, materialized on first consultation and
//!   LRU-bounded. Memory scales with the routers actually forwarding,
//!   which is what makes 5k+ router topologies fit.
//!
//! Both stores search the same router core and resolve a single-homed
//! host through its router by the same pair rule; they differ only in
//! when the searches run and what stays resident. Either one answers a
//! forwarding step whole — next hop and out-edge id — so [`Network::hop`]
//! adds only the edge's delay, read from the real graph. Network keeps no
//! per-pair state of its own.

use hbh_routing::{OnDemandRoutes, RouteProvider, RoutingTables};
use hbh_topo::graph::{Cost, EdgeId, Graph, NodeId, PathCost};
use std::sync::Arc;

/// Immutable topology + routing bundle shared by a simulation run.
///
/// Internally reference-counted: [`Network::clone`] is an `Arc` bump, so
/// the paired-run experiment design — four protocol kernels over one
/// scenario draw — shares a single graph and a single routing service
/// (including the on-demand row cache, which stays warm across the paired
/// kernels) instead of recomputing per kernel.
#[derive(Clone, Debug)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

#[derive(Debug)]
struct NetworkInner {
    /// `Arc` so fault reroutes derive a post-failure [`Network`] without
    /// deep-copying the topology.
    graph: Arc<Graph>,
    routes: RouteStore,
}

/// How unicast routes are materialized (see module docs). Both arms are
/// boxed, so the allocation behind every `Network` has one small size
/// whichever store it holds (EXPERIMENTS.md "Performance" records how
/// that size alone moves peak RSS).
#[derive(Debug)]
enum RouteStore {
    Exact(Box<RoutingTables>),
    OnDemand(Box<OnDemandRoutes>),
}

impl Network {
    fn from_parts(graph: Arc<Graph>, routes: RouteStore) -> Self {
        Network {
            inner: Arc::new(NetworkInner { graph, routes }),
        }
    }

    /// Builds eager all-pairs routing tables for the graph's current costs
    /// and freezes both.
    pub fn new(graph: Graph) -> Self {
        let tables = RoutingTables::compute(&graph);
        Self::with_tables(graph, tables)
    }

    /// Freezes the graph with externally computed tables (e.g.
    /// bandwidth-constrained routing from `hbh-routing::qos`, computed over
    /// a re-costed clone of `graph`). The tables' steps name `graph`'s
    /// edges; link delays are always `graph`'s own costs.
    ///
    /// # Panics
    /// Panics if the tables were built for a graph of a different shape
    /// (node count or directed-edge count).
    pub fn with_tables(graph: Graph, tables: RoutingTables) -> Self {
        assert_eq!(
            graph.node_count(),
            tables.node_count(),
            "tables/graph nodes"
        );
        assert_eq!(
            graph.directed_edge_count(),
            tables.directed_edge_count(),
            "tables/graph edges"
        );
        Self::from_parts(Arc::new(graph), RouteStore::Exact(Box::new(tables)))
    }

    /// Freezes the graph with demand-driven routing: SPF rows computed on
    /// first consultation, at most `cache_rows` resident (see
    /// [`OnDemandRoutes`]). Routes answered are identical to
    /// [`Network::new`]; only materialization and per-lookup cost differ.
    /// The graph is packed once, into the provider's contracted view.
    pub fn on_demand(graph: Graph, cache_rows: usize) -> Self {
        let routes = RouteStore::OnDemand(Box::new(OnDemandRoutes::new(&graph, cache_rows)));
        Self::from_parts(Arc::new(graph), routes)
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The unicast routing service (either materialization).
    pub fn routes(&self) -> &dyn RouteProvider {
        match &self.inner.routes {
            RouteStore::Exact(t) => t.as_ref(),
            RouteStore::OnDemand(r) => r.as_ref(),
        }
    }

    /// Whether this network serves routes lazily (scale mode) rather than
    /// from eager all-pairs tables.
    pub fn is_on_demand(&self) -> bool {
        matches!(self.inner.routes, RouteStore::OnDemand(_))
    }

    /// Moves an on-demand store as `k` more repeats of its last `lookups`
    /// lookups would, given that they computed no row
    /// ([`OnDemandRoutes::repeat_lookups`]); eager tables count no lookup
    /// and have nothing to move.
    pub fn repeat_lookups(&self, lookups: u64, k: u64) {
        if let RouteStore::OnDemand(r) = &self.inner.routes {
            r.repeat_lookups(lookups, k);
        }
    }

    /// Sources with a resident on-demand row, ascending
    /// ([`OnDemandRoutes::cached_sources`]); empty with eager tables.
    pub fn cached_sources(&self) -> Vec<NodeId> {
        match &self.inner.routes {
            RouteStore::Exact(_) => Vec::new(),
            RouteStore::OnDemand(r) => r.cached_sources(),
        }
    }

    /// Heap bytes of the contracted topology view an on-demand network
    /// routes over; `None` with eager tables, whose
    /// [`RouteProvider::state_bytes`] counts their view as well.
    pub fn route_structure_bytes(&self) -> Option<usize> {
        match &self.inner.routes {
            RouteStore::Exact(_) => None,
            RouteStore::OnDemand(r) => Some(r.structure_bytes()),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.graph.node_count()
    }

    /// Resolved forwarding step at `at` toward `dst`: the next hop, the
    /// out-edge's id, and the edge's cost (its delay) in the real graph.
    #[inline]
    pub fn hop(&self, at: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId, Cost)> {
        let (next, eid) = match &self.inner.routes {
            RouteStore::Exact(t) => t.step(at, dst),
            RouteStore::OnDemand(r) => r.step(at, dst),
        }?;
        Some((next, eid, self.inner.graph.edge_cost(eid)))
    }

    /// Unicast distance (= minimal delay) `from → to`.
    pub fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        self.routes().dist(from, to)
    }

    /// Derives the post-failure network: same topology, routes answered
    /// over the surviving elements (nodes/edges flagged in the masks are
    /// absent). This models instantaneous unicast reconvergence after a
    /// failure — the substrate the multicast protocols repair on top of.
    ///
    /// The store is rebuilt from the masks and nothing else, in the kind
    /// this network already has: eager tables from
    /// [`RoutingTables::compute_avoiding`], or an empty [`OnDemandRoutes`]
    /// over the same contracted view.
    pub fn rerouted(&self, node_down: &[bool], edge_down: &[bool]) -> Network {
        let graph = &self.inner.graph;
        let routes = match &self.inner.routes {
            RouteStore::Exact(_) => RouteStore::Exact(Box::new(RoutingTables::compute_avoiding(
                graph, node_down, edge_down,
            ))),
            RouteStore::OnDemand(r) => {
                RouteStore::OnDemand(Box::new(r.rerouted(node_down.to_vec(), edge_down.to_vec())))
            }
        };
        Self::from_parts(Arc::clone(graph), routes)
    }

    /// Whether `n` participates in the multicast protocol (multicast-capable
    /// router, or any host — hosts run the source/receiver agents).
    pub fn runs_protocol(&self, n: NodeId) -> bool {
        self.inner.graph.is_host(n) || self.inner.graph.is_mcast_capable(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 2, 3);
        let h = g.add_host(a, 1, 1);
        (Network::new(g), a, b, h)
    }

    #[test]
    fn routing_is_frozen_at_construction() {
        let (net, a, b, _) = net();
        assert_eq!(net.dist(a, b), Some(2));
        assert_eq!(net.dist(b, a), Some(3));
        let (eid, cost) = net.graph().edge_entry(a, b).unwrap();
        assert_eq!(net.hop(a, b), Some((b, eid, cost)));
    }

    #[test]
    fn clone_shares_routing_state() {
        let (net, ..) = net();
        let cloned = net.clone();
        assert!(
            Arc::ptr_eq(&net.inner, &cloned.inner),
            "clone must not deep-copy"
        );
    }

    #[test]
    fn hosts_and_capable_routers_run_protocol() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 1, 1);
        g.set_mcast_capable(b, false);
        let h = g.add_host(a, 1, 1);
        let net = Network::new(g);
        assert!(net.runs_protocol(a));
        assert!(!net.runs_protocol(b), "unicast-only router");
        assert!(net.runs_protocol(h), "hosts run agents");
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        let s = g.add_router();
        let a = g.add_router();
        let b = g.add_router();
        let t = g.add_router();
        g.add_link(s, a, 1, 1);
        g.add_link(a, t, 1, 1);
        g.add_link(s, b, 2, 2);
        g.add_link(b, t, 2, 2);
        g
    }

    #[test]
    fn on_demand_network_answers_like_eager() {
        let g = diamond();
        let eager = Network::new(g.clone());
        let lazy = Network::on_demand(g.clone(), 8);
        assert!(lazy.is_on_demand() && !eager.is_on_demand());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {u}->{v}");
                assert_eq!(eager.hop(u, v), lazy.hop(u, v), "resolved hop {u}->{v}");
            }
        }
        assert!(lazy.routes().route_stats().computed > 0);
        // The O(n²) vs O(rows) separation only shows at scale; here just
        // check both report a live footprint.
        assert!(lazy.routes().state_bytes() > 0 && eager.routes().state_bytes() > 0);
    }

    #[test]
    fn rerouted_matches_fresh_masked_network_in_both_modes() {
        let g = diamond();
        let victim = NodeId(1); // the cheap transit router
        let mut node_down = vec![false; g.node_count()];
        node_down[victim.index()] = true;
        let edge_down = vec![false; g.directed_edge_count()];
        let fresh = Network::with_tables(
            g.clone(),
            RoutingTables::compute_avoiding(&g, &node_down, &edge_down),
        );
        for base in [Network::new(g.clone()), Network::on_demand(g.clone(), 8)] {
            let re = base.rerouted(&node_down, &edge_down);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(fresh.dist(u, v), re.dist(u, v), "dist {u}->{v}");
                    assert_eq!(fresh.hop(u, v), re.hop(u, v), "hop {u}->{v}");
                }
            }
            assert!(
                std::ptr::eq(base.graph(), re.graph()),
                "reroute must share the graph, not clone it"
            );
        }
    }
}
