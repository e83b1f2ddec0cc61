//! The core topology structure: nodes (routers and hosts) connected by
//! point-to-point links with independent costs in each direction.
//!
//! Links are stored as directed half-links; [`Graph::add_link`] always
//! inserts both directions so the physical topology stays bidirectional,
//! which is what the paper assumes (asymmetry lives in the *costs*, not in
//! connectivity).
//!
//! The structure — node kinds, the labels of the nodes that have one,
//! adjacency — is built once and shared by every clone; each [`Graph`]
//! owns only its attributes (per-edge cost, per-node multicast
//! capability). A per-run cost draw over a frozen topology, the paper's
//! §4.1 method, therefore copies costs, not the topology. Link capacities
//! for the QoS extension are not an attribute: the QoS study draws them
//! into a vector of its own, indexed by [`EdgeId`].
//!
//! Adjacency is flat, with no allocation per node: each node names its
//! first and last out-edge, each directed edge its head and the next
//! out-edge of its tail. A link is appended in O(1), and
//! [`Graph::neighbors`] walks a chain in insertion order.

use std::fmt;
use std::sync::Arc;

/// Identifier of a node (router or host). Dense, index-like.
///
/// Node ids index into internal vectors, so they are assigned contiguously
/// by [`Graph::add_router`] / [`Graph::add_host`] in insertion order. The
/// paper's figures use the same convention (ISP topology: routers `0..18`,
/// hosts `18..36`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in the graph's dense node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Cost of traversing a link in one direction.
///
/// The paper draws these uniformly from `[1, 10]` and uses them both as the
/// routing metric and as the link transit delay ("time units"), so a single
/// integer type serves both purposes. Accumulated path costs use
/// [`PathCost`] (`u64`) to rule out overflow on long paths.
pub type Cost = u32;

/// Accumulated cost/delay along a path.
pub type PathCost = u64;

/// Identifier of a *directed* half-link: `(from, to)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId {
    /// Transmitting end.
    pub from: NodeId,
    /// Receiving end.
    pub to: NodeId,
}

impl LinkId {
    /// The directed half-link `from → to`.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        LinkId { from, to }
    }

    /// The same physical link traversed in the opposite direction.
    pub fn reversed(self) -> Self {
        LinkId {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// What kind of device a node is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A router: forwards packets, may run a multicast routing protocol.
    Router,
    /// An end host: sources or sinks traffic, never transits packets.
    Host,
}

/// Bandwidth of a link direction (abstract units; `u32::MAX` = unlimited).
/// A graph stores none: the QoS extension draws them into a vector indexed
/// by [`EdgeId`] ([`crate::costs::assign_backbone_bandwidths`]).
pub type Bandwidth = u32;

/// Dense identifier of a *directed* half-link.
///
/// Edge ids are assigned contiguously in link-insertion order (each
/// [`Graph::add_link`] consumes two: `a→b` then `b→a`) and index directly
/// into per-edge arrays — the simulator's per-packet accounting keys its
/// counters by `EdgeId` so a packet hop is a single array increment instead
/// of an ordered-map insertion.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The index of this edge in the graph's dense edge storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed out-edge in the adjacency list. Its cost is a per-graph
/// attribute, read through [`Graph::edge_cost`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutEdge {
    /// The neighbor this edge leads to.
    pub to: NodeId,
    /// This edge's slot in the graph's dense edge index.
    pub eid: EdgeId,
}

/// The structure of a topology: what the nodes are and how they are
/// linked. Written only while the topology is built; every clone of a
/// [`Graph`] shares it.
#[derive(Clone, Debug, Default)]
struct Topology {
    kinds: Vec<NodeKind>,
    /// The human-readable labels of the nodes that have one, in id order,
    /// used by the scenario topologies (`"S"`, `"R3"`, `"r1"`, ...).
    labels: Vec<(NodeId, String)>,
    /// Each node's first and last out-edge id, [`END`] while it has none.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per directed edge, by id: the node it leads to, and the id of its
    /// tail's next out-edge ([`END`] after the last).
    edges: Vec<(NodeId, u32)>,
}

/// The end of an edge chain: no (further) out-edge.
const END: u32 = u32::MAX;

/// The network topology: a set of routers and hosts connected by
/// bidirectional links with per-direction costs.
///
/// ```
/// use hbh_topo::graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_router();
/// let b = g.add_router();
/// g.add_link(a, b, 3, 7); // cost a→b = 3, b→a = 7 (asymmetric)
/// let host = g.add_host(a, 1, 1);
///
/// assert_eq!(g.cost(a, b), Some(3));
/// assert_eq!(g.cost(b, a), Some(7));
/// assert_eq!(g.host_router(host), a);
/// ```
///
/// Cloning copies the attributes and shares the structure; adding a node
/// or a link to a clone first gives it a structure of its own.
///
/// Invariants maintained by the mutation API:
///
/// * every link is bidirectional (both half-links present);
/// * hosts are single-homed: exactly one link, to a router;
/// * no self-loops, no parallel links;
/// * all costs are ≥ 1 (a zero cost would make "delay" degenerate and can
///   produce zero-cost cycles in path enumeration).
#[derive(Clone, Debug, Default)]
pub struct Graph {
    topo: Arc<Topology>,
    costs: Vec<Cost>,
    /// Whether each node runs the multicast routing protocol under test.
    ///
    /// The paper's experiments set this `true` for every router ("all
    /// routers implement the multicast service in our experiments") but the
    /// protocols are explicitly designed to traverse `false` routers
    /// (unicast-only clouds); the `unicast_clouds` ablation exercises that.
    /// Hosts are never capable.
    mcast_capable: Vec<bool>,
}

impl Graph {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Graph::default()
    }

    fn add_node(&mut self, kind: NodeKind, label: Option<&str>) -> NodeId {
        let id = NodeId(self.node_count() as u32);
        let topo = Arc::make_mut(&mut self.topo);
        topo.kinds.push(kind);
        if let Some(label) = label {
            topo.labels.push((id, label.to_owned()));
        }
        topo.first.push(END);
        topo.last.push(END);
        self.mcast_capable.push(kind == NodeKind::Router);
        id
    }

    /// Adds a multicast-capable router.
    pub fn add_router(&mut self) -> NodeId {
        self.add_node(NodeKind::Router, None)
    }

    /// Adds a router with a human-readable label (used by the paper-figure
    /// scenario topologies).
    pub fn add_router_labeled(&mut self, label: &str) -> NodeId {
        self.add_node(NodeKind::Router, Some(label))
    }

    /// Adds a host and single-homes it to `router` with the given access
    /// costs (one per direction).
    ///
    /// # Panics
    /// Panics if `router` is not a router, or a cost is zero.
    pub fn add_host(&mut self, router: NodeId, cost_to_host: Cost, cost_to_router: Cost) -> NodeId {
        assert_eq!(
            self.kind(router),
            NodeKind::Router,
            "hosts attach to routers"
        );
        let host = self.add_node(NodeKind::Host, None);
        self.add_link(router, host, cost_to_host, cost_to_router);
        host
    }

    /// [`Graph::add_host`] with a label.
    pub fn add_host_labeled(
        &mut self,
        router: NodeId,
        cost_to_host: Cost,
        cost_to_router: Cost,
        label: &str,
    ) -> NodeId {
        let host = self.add_host(router, cost_to_host, cost_to_router);
        Arc::make_mut(&mut self.topo)
            .labels
            .push((host, label.to_owned()));
        host
    }

    /// Adds a bidirectional link `a — b` with directed costs
    /// `cost(a→b) = ab` and `cost(b→a) = ba`.
    ///
    /// # Panics
    /// Panics on self-loops, duplicate links, zero costs, or an attempt to
    /// multi-home a host.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, ab: Cost, ba: Cost) {
        for n in [a, b] {
            if self.is_host(n) {
                assert!(self.degree(n) == 0, "host {n} must be single-homed");
            }
        }
        self.push_raw_link(a, b, ab, ba);
    }

    /// Crate-internal escape hatch for scenario builders that need to attach
    /// a host to a *second* router (the paper's Figure 2 draws `r1`/`r2`
    /// with one upstream router per direction of their asymmetric routes).
    /// Bypasses the single-homing assertion but keeps every other invariant.
    /// Hosts still never transit traffic — routing enforces that separately.
    ///
    /// The duplicate check walks `b`'s chain: `add_host` and the
    /// hierarchy's tree links pass the node just added as `b`.
    pub(crate) fn push_raw_link(&mut self, a: NodeId, b: NodeId, ab: Cost, ba: Cost) {
        assert_ne!(a, b, "self-loop {a}");
        assert!(ab >= 1 && ba >= 1, "link costs must be >= 1");
        assert!(self.find_edge(b, a).is_none(), "duplicate link {a}-{b}");
        let topo = Arc::make_mut(&mut self.topo);
        for (from, to, cost) in [(a, b, ab), (b, a, ba)] {
            let eid = self.costs.len() as u32;
            topo.edges.push((to, END));
            match topo.last[from.index()] {
                END => topo.first[from.index()] = eid,
                tail => topo.edges[tail as usize].1 = eid,
            }
            topo.last[from.index()] = eid;
            self.costs.push(cost);
        }
    }

    /// The edge id of the directed half-link `from → to`, if it exists:
    /// the one chain walk every `(from, to)` read goes through.
    fn find_edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.neighbors(from).find(|e| e.to == to).map(|e| e.eid)
    }

    /// Overwrites the cost of the directed half-link `eid`.
    ///
    /// # Panics
    /// Panics if `eid` is not an edge of this graph or `cost` is zero.
    pub fn set_cost(&mut self, eid: EdgeId, cost: Cost) {
        assert!(cost >= 1, "link costs must be >= 1");
        self.costs[eid.index()] = cost;
    }

    /// Marks a router as unicast-only (it forwards data but cannot hold
    /// multicast protocol state, i.e. cannot be a branching node).
    pub fn set_mcast_capable(&mut self, n: NodeId, capable: bool) {
        assert_eq!(
            self.kind(n),
            NodeKind::Router,
            "capability applies to routers"
        );
        self.mcast_capable[n.index()] = capable;
    }

    // --- accessors ---------------------------------------------------------

    /// Number of nodes (routers + hosts).
    pub fn node_count(&self) -> usize {
        self.topo.kinds.len()
    }

    /// Number of *undirected* links.
    pub fn link_count(&self) -> usize {
        self.directed_edge_count() / 2
    }

    /// Router or host?
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.topo.kinds[n.index()]
    }

    /// True if `n` is a router.
    pub fn is_router(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Router
    }

    /// True if `n` is a host.
    pub fn is_host(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Host
    }

    /// True if `n` may hold multicast protocol state.
    pub fn is_mcast_capable(&self, n: NodeId) -> bool {
        self.mcast_capable[n.index()]
    }

    /// The scenario label of `n`, if any.
    pub fn label(&self, n: NodeId) -> Option<&str> {
        let (_, label) = self.topo.labels.iter().find(|(m, _)| *m == n)?;
        Some(label)
    }

    /// Resolves a scenario label back to its node.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let &(n, _) = self.topo.labels.iter().find(|(_, l)| l == label)?;
        Some(n)
    }

    /// All node ids, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All routers.
    pub fn routers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.is_router(n))
    }

    /// All hosts.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.is_host(n))
    }

    /// Out-edges of `n`, in the order their links were added.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = OutEdge> + '_ {
        let (edges, mut at) = (&self.topo.edges, self.topo.first[n.index()]);
        std::iter::from_fn(move || {
            let &(to, next) = edges.get(at as usize)?; // `END` is out of range.
            let eid = EdgeId(std::mem::replace(&mut at, next));
            Some(OutEdge { to, eid })
        })
    }

    /// Degree of `n` (number of attached links).
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).count()
    }

    /// Cost of the directed half-link `from → to`, if the link exists.
    pub fn cost(&self, from: NodeId, to: NodeId) -> Option<Cost> {
        self.find_edge(from, to).map(|e| self.edge_cost(e))
    }

    // --- dense edge index --------------------------------------------------

    /// Number of directed half-links (twice [`Graph::link_count`]).
    pub fn directed_edge_count(&self) -> usize {
        self.costs.len()
    }

    /// Cost of the directed half-link `eid`.
    pub fn edge_cost(&self, eid: EdgeId) -> Cost {
        self.costs[eid.index()]
    }

    /// The opposite direction of the same physical link. Both halves of a
    /// link are registered together (`a→b` even, `b→a` odd), so this is
    /// the sibling id.
    pub fn reverse_edge(&self, eid: EdgeId) -> EdgeId {
        EdgeId(eid.0 ^ 1)
    }

    /// Edge id and cost of the directed half-link `from → to`, if the link
    /// exists. One walk of `from`'s edge chain resolves both, which is
    /// what the simulator's link-local sends need.
    pub fn edge_entry(&self, from: NodeId, to: NodeId) -> Option<(EdgeId, Cost)> {
        self.find_edge(from, to).map(|e| (e, self.edge_cost(e)))
    }

    /// The largest per-direction link cost in the topology (0 for an empty
    /// graph). Used to derive convergence/probe horizons from the actual
    /// cost distribution instead of hard-coding the scenario generator's
    /// `[1, 10]` draw range.
    pub fn max_link_cost(&self) -> Cost {
        self.costs.iter().copied().max().unwrap_or(0)
    }

    /// The router a host is attached to.
    ///
    /// # Panics
    /// Panics if `host` is not a host.
    pub fn host_router(&self, host: NodeId) -> NodeId {
        assert_eq!(self.kind(host), NodeKind::Host, "{host} is not a host");
        self.topo.edges[self.topo.first[host.index()] as usize].0
    }

    /// All undirected links, each reported once with both directed costs
    /// `(a, b, cost(a→b), cost(b→a))`, with `a < b`.
    pub fn undirected_links(&self) -> Vec<(NodeId, NodeId, Cost, Cost)> {
        let mut out = Vec::with_capacity(self.link_count());
        for a in self.nodes() {
            for e in self.neighbors(a).filter(|e| a < e.to) {
                let back = self.edge_cost(self.reverse_edge(e.eid));
                out.push((a, e.to, self.edge_cost(e.eid), back));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_routers() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 3, 7);
        (g, a, b)
    }

    #[test]
    fn node_ids_are_dense_and_ordered() {
        let mut g = Graph::new();
        assert_eq!(g.add_router(), NodeId(0));
        assert_eq!(g.add_router(), NodeId(1));
        let h = g.add_host(NodeId(0), 1, 1);
        assert_eq!(h, NodeId(2));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn links_are_bidirectional_with_independent_costs() {
        let (g, a, b) = two_routers();
        assert_eq!(g.cost(a, b), Some(3));
        assert_eq!(g.cost(b, a), Some(7));
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn cost_of_missing_link_is_none() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        assert_eq!(g.cost(a, b), None);
    }

    #[test]
    fn set_cost_changes_one_direction_only() {
        let (mut g, a, b) = two_routers();
        g.set_cost(g.edge_entry(a, b).unwrap().0, 9);
        assert_eq!(g.cost(a, b), Some(9));
        assert_eq!(g.cost(b, a), Some(7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        let a = g.add_router();
        g.add_link(a, a, 1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        let (mut g, a, b) = two_routers();
        g.add_link(a, b, 1, 1);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_cost_rejected() {
        let (mut g, a, b) = two_routers();
        let _ = (a, b);
        let c = g.add_router();
        g.add_link(a, c, 0, 1);
    }

    #[test]
    #[should_panic(expected = "single-homed")]
    fn hosts_cannot_be_multihomed() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let h = g.add_host(a, 1, 1);
        g.add_link(h, b, 1, 1);
    }

    #[test]
    fn host_router_resolves_attachment() {
        let mut g = Graph::new();
        let a = g.add_router();
        let h = g.add_host(a, 2, 5);
        assert_eq!(g.host_router(h), a);
        assert_eq!(g.cost(a, h), Some(2));
        assert_eq!(g.cost(h, a), Some(5));
    }

    #[test]
    fn hosts_are_not_mcast_capable() {
        let mut g = Graph::new();
        let a = g.add_router();
        let h = g.add_host(a, 1, 1);
        assert!(g.is_mcast_capable(a));
        assert!(!g.is_mcast_capable(h));
    }

    #[test]
    fn router_can_be_made_unicast_only() {
        let mut g = Graph::new();
        let a = g.add_router();
        g.set_mcast_capable(a, false);
        assert!(!g.is_mcast_capable(a));
        assert!(g.is_router(a));
    }

    #[test]
    fn labels_resolve_back_to_nodes() {
        let mut g = Graph::new();
        let s = g.add_router_labeled("S");
        let r = g.add_host_labeled(s, 1, 1, "r1");
        let plain = g.add_router();
        assert_eq!(g.node_by_label("S"), Some(s));
        assert_eq!(g.node_by_label("r1"), Some(r));
        assert_eq!(g.node_by_label("nope"), None);
        assert_eq!(g.label(r), Some("r1"));
        assert_eq!(g.label(plain), None);
    }

    #[test]
    fn undirected_links_report_each_link_once() {
        let (g, a, b) = two_routers();
        assert_eq!(g.undirected_links(), vec![(a, b, 3, 7)]);
    }

    #[test]
    fn degree_counts_attached_links() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 1, 1);
        g.add_link(a, c, 1, 1);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(b), 1);
    }

    #[test]
    fn edge_index_tracks_insertion_order() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 3, 7);
        g.add_link(b, c, 2, 4);
        assert_eq!(g.directed_edge_count(), 4);
        assert_eq!(g.edge_entry(a, b), Some((EdgeId(0), 3)));
        assert_eq!(g.edge_entry(b, a), Some((EdgeId(1), 7)));
        assert_eq!(g.edge_entry(b, c), Some((EdgeId(2), 2)));
        assert_eq!(g.edge_entry(c, b), Some((EdgeId(3), 4)));
        assert_eq!(g.edge_cost(EdgeId(1)), 7);
        assert_eq!(g.edge_entry(a, c), None);
        assert_eq!(g.reverse_edge(EdgeId(2)), EdgeId(3));
        assert_eq!(g.reverse_edge(EdgeId(1)), EdgeId(0));
    }

    #[test]
    fn edge_index_agrees_with_adjacency() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 3, 7);
        g.add_host(a, 1, 2);
        for from in g.nodes() {
            for e in g.neighbors(from) {
                let (eid, cost) = g.edge_entry(from, e.to).expect("edge present");
                assert_eq!(eid, e.eid);
                assert_eq!(g.edge_cost(eid), cost);
                // `a→b` even, `b→a` odd: the sibling is the reverse half.
                assert_eq!(eid.0 % 2, u32::from(from > e.to));
                let back = g.edge_entry(e.to, from).expect("reverse present");
                assert_eq!(g.reverse_edge(eid), back.0);
            }
        }
        assert_eq!(g.directed_edge_count(), g.link_count() * 2);
    }

    #[test]
    fn set_cost_keeps_edge_index_in_sync() {
        let (mut g, a, b) = two_routers();
        let (eid, _) = g.edge_entry(a, b).unwrap();
        g.set_cost(eid, 9);
        assert_eq!(g.edge_cost(eid), 9);
        assert_eq!(g.max_link_cost(), 9);
    }

    #[test]
    fn clones_share_structure_but_not_attributes() {
        let (template, a, b) = two_routers();
        let mut copy = template.clone();
        copy.set_cost(EdgeId(0), 9);
        copy.set_mcast_capable(a, false);
        let c = copy.add_router();
        copy.add_link(b, c, 2, 2);

        assert_eq!(template.cost(a, b), Some(3));
        assert!(template.is_mcast_capable(a));
        assert_eq!(template.degree(b), 1);
        assert_eq!(template.directed_edge_count(), 2);

        assert_eq!(copy.cost(a, b), Some(9));
        assert!(!copy.is_mcast_capable(a));
        assert_eq!(copy.degree(b), 2);
        assert_eq!(copy.directed_edge_count(), 4);
    }

    #[test]
    fn max_link_cost_of_empty_graph_is_zero() {
        assert_eq!(Graph::new().max_link_cost(), 0);
    }

    #[test]
    fn link_id_reversal() {
        let l = LinkId::new(NodeId(1), NodeId(2));
        assert_eq!(l.reversed(), LinkId::new(NodeId(2), NodeId(1)));
        assert_eq!(l.reversed().reversed(), l);
    }
}
