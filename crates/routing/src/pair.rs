//! The one route computation both stores share: core searches over the
//! stub-contracted view of a graph, and the pair rule that expands them to
//! any `(from, to)` pair of the full graph.
//!
//! [`crate::RoutingTables`] runs one core search per core node up front and
//! expands every pair; [`crate::OnDemandRoutes`] runs a core search when a
//! lookup first needs one and expands the pair it was asked. Both call
//! [`resolve`], so the two stores differ only in where the core leg is read
//! from. What the rule answers is the whole forwarding step — the next hop
//! *and* the directed edge a packet leaves on — plus the path cost, so no
//! caller resolves an edge by scanning an adjacency list.
//!
//! # What a core row covers
//!
//! Leaves that never forward do not belong in the forwarding computation.
//! The stores route over the **core** of the topology — routers plus any
//! multi-homed host — packed by [`hbh_topo::contract`]; a core row is the
//! forward SPF tree of one *core* node over the core, and only a pair of
//! two different core nodes reads one. A **stub** (a host with exactly one
//! link, to a router) is resolved through its attachment router `r(h)` and
//! its two access half-links:
//!
//! * `step(h, ·) = (r(h), up edge)`; `step(x, h) = (h, down edge)` if
//!   `x == r(h)`, else `step(x, r(h))`, whose edge is the core row's
//!   first-hop edge;
//! * `dist(x, y) = up(x) + dist_core(r(x), r(y)) + down(y)`, a term being
//!   zero where the endpoint is itself in the core;
//! * when both ends resolve to the same router there is no core leg and
//!   no row is read at all;
//! * a down stub, or a down half-link it needs, answers `None`.
//!
//! This is exact, tie-breaks included. Costs are ≥ 1, so every optimal
//! predecessor of `v` is settled before `v`, whatever order the search
//! pops equal distances in, and "equal cost → smaller predecessor id"
//! makes `pred[v]` the minimum-id optimal predecessor — a function of the
//! distances alone. A stub is never anyone's predecessor (hosts sink
//! traffic; only a root emits), so dropping stubs changes no core node's
//! `dist`, `pred` or first hop, *provided* the core is renumbered in
//! ascending node-id order, which keeps the `candidate < incumbent`
//! comparison. The test-only full-graph reference (`reference.rs`),
//! which derives next hops from Floyd–Warshall distances by that same
//! minimum-id rule, is the independent witness the proptests hold both
//! stores to.

use crate::dijkstra::DijkstraScratch;
use hbh_topo::contract::{Contracted, Place};
use hbh_topo::graph::{EdgeId, NodeId, PathCost};

/// "No next hop": unreachable, or the lookup's own source.
pub(crate) const NONE: u32 = u32::MAX;

/// The surviving topology a store answers over: the fault masks, indexed
/// by the full graph's `NodeId` / `EdgeId`, plus the node mask restricted
/// to the core, by core index — the mask a core search reads.
#[derive(Clone, Debug)]
pub(crate) struct Masks {
    pub(crate) node_down: Vec<bool>,
    pub(crate) core_down: Vec<bool>,
    pub(crate) edge_down: Vec<bool>,
}

impl Masks {
    /// Checks the masks against `view` and derives the core node mask.
    ///
    /// # Panics
    /// Panics if a mask length does not match the graph.
    pub(crate) fn new(view: &Contracted, node_down: Vec<bool>, edge_down: Vec<bool>) -> Self {
        assert_eq!(node_down.len(), view.node_count(), "node mask length");
        assert_eq!(
            edge_down.len(),
            view.directed_edge_count(),
            "edge mask length"
        );
        let core_down = view
            .core_nodes()
            .iter()
            .map(|&v| node_down[v as usize])
            .collect();
        Masks {
            node_down,
            core_down,
            edge_down,
        }
    }

    /// Heap bytes of the three masks.
    pub(crate) fn bytes(&self) -> usize {
        self.node_down.len() + self.core_down.len() + self.edge_down.len()
    }
}

/// A stored forwarding step: the next hop's node id and the id of the
/// directed edge it is reached over. A [`NONE`] hop is "no step".
pub(crate) type Step = (u32, u32);

/// The empty [`Step`].
pub(crate) const NO_STEP: Step = (NONE, NONE);

/// The forwarding steps of the core search left in `s`, by core index,
/// with full-graph node ids ([`NO_STEP`] for none): a core row's steps.
pub(crate) fn steps<'a>(
    view: &'a Contracted,
    s: &'a DijkstraScratch,
) -> impl Iterator<Item = Step> + 'a {
    let nodes = view.core_nodes();
    s.first
        .iter()
        .zip(&s.first_eid)
        .map(|(first, &eid)| first.map_or(NO_STEP, |n| (nodes[n.index()], eid)))
}

/// The pair rule: cost and forwarding step of the shortest `from → to`
/// path, `from != to` — an access half-link up, a core leg, an access
/// half-link down, with whichever of the three the endpoints need.
///
/// `leg(a, b)` reads the core leg between two *different* core nodes from
/// wherever the store keeps its rows, as `(dist, step)` with
/// `PathCost::MAX` for unreachable. It is called at most once, and not at
/// all when a stub end is down or both ends sit on one core node.
#[inline]
pub(crate) fn resolve(
    view: &Contracted,
    masks: &Masks,
    from: NodeId,
    to: NodeId,
    leg: impl FnOnce(u32, u32) -> (PathCost, Step),
) -> Option<(PathCost, NodeId, EdgeId)> {
    let alive = |e: EdgeId| !masks.edge_down[e.index()];
    let (a, up) = match view.place(from) {
        Place::Core(a) => (a, None),
        Place::Stub(s) if !masks.node_down[from.index()] && alive(s.up_eid) => (s.router, Some(s)),
        Place::Stub(_) => return None,
    };
    let (b, down) = match view.place(to) {
        Place::Core(b) => (b, None),
        Place::Stub(s) if !masks.node_down[to.index()] && alive(s.down_eid) => (s.router, Some(s)),
        Place::Stub(_) => return None,
    };
    // The core leg: none when both ends hang off one core node.
    let (core, first) = if a == b {
        if masks.core_down[a as usize] {
            return None;
        }
        (0, NO_STEP)
    } else {
        match leg(a, b) {
            (PathCost::MAX, _) => return None,
            leg => leg,
        }
    };
    let (hop, eid) = match (up, down, first) {
        // A stub source leaves on its own access link, up.
        (Some(s), ..) => (view.core_nodes()[a as usize], s.up_eid.0),
        // A router hands over to its own stub on the access link down.
        (None, Some(s), (NONE, _)) => (to.0, s.down_eid.0),
        (None, _, step) => step,
    };
    let access = up.map_or(0, |s| PathCost::from(s.up_cost))
        + down.map_or(0, |s| PathCost::from(s.down_cost));
    Some((access + core, NodeId(hop), EdgeId(eid)))
}
