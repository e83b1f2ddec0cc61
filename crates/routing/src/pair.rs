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
//! # What a core leg holds
//!
//! Both stores keep a core leg as one 8-byte [`Leg`]: a `u32` cost and a
//! `u32` naming the first-hop edge by its slot in the core `Csr`, which
//! the search records as it relaxes the row source's out-edges. A store
//! refuses at construction a graph whose core nodes × largest link cost
//! does not fit in a `u32` ([`assert_legs_fit`]); every topology this
//! repository builds is orders of magnitude below that.
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

/// "None" in a `u32` field: no slot, no row, no next hop.
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

/// A core leg as both stores keep it, in 8 bytes: its cost and the
/// row source's out-edge it leaves on, as that edge's packed slot in the
/// core [`hbh_topo::csr::Csr`] — the hop is `core_nodes[to[slot]]` and
/// the edge id `eid[slot]` ([`hbh_topo::csr::Csr::edge_at`]), so no
/// per-edge table is built to decode it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Leg {
    /// Cost of the leg ([`UNREACHABLE`] for none). [`assert_legs_fit`]
    /// keeps every real cost below it.
    pub(crate) dist: u32,
    /// Core `Csr` slot of the first-hop edge ([`NONE`] for none).
    pub(crate) slot: u32,
}

/// The [`Leg::dist`] of an unreachable core node.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// Refuses a view whose core legs could overflow a [`Leg`]: a shortest
/// path crosses fewer links than there are core nodes, so core nodes ×
/// the largest core link cost bounds every leg.
///
/// # Panics
/// Panics if that product does not fit in a `u32`.
pub(crate) fn assert_legs_fit(view: &Contracted) {
    let (core, max) = (view.core_nodes().len(), view.core().max_cost());
    assert!(
        core as u64 * u64::from(max) <= u64::from(u32::MAX),
        "{core} core nodes × largest link cost {max} overflows a u32 core-leg distance"
    );
}

/// The legs of the core search left in `s`, by core index: a core row.
pub(crate) fn legs(s: &DijkstraScratch) -> impl Iterator<Item = Leg> + '_ {
    s.dist.iter().zip(&s.first).map(|(&d, &slot)| Leg {
        // `PathCost::MAX` (unreached) is the one value that does not fit.
        dist: u32::try_from(d).unwrap_or(UNREACHABLE),
        slot,
    })
}

/// The pair rule: cost and forwarding step of the shortest `from → to`
/// path, `from != to` — an access half-link up, a core leg, an access
/// half-link down, with whichever of the three the endpoints need.
///
/// `leg(a, b)` reads the core leg between two *different* core nodes from
/// wherever the store keeps its rows. It is called at most once, and not
/// at all when a stub end is down or both ends sit on one core node; the
/// leg's slot is decoded only when the step leaves on it.
#[inline]
pub(crate) fn resolve(
    view: &Contracted,
    masks: &Masks,
    from: NodeId,
    to: NodeId,
    leg: impl FnOnce(u32, u32) -> Leg,
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
        (0, NONE)
    } else {
        match leg(a, b) {
            Leg {
                dist: UNREACHABLE, ..
            } => return None,
            Leg { dist, slot } => (PathCost::from(dist), slot),
        }
    };
    let nodes = view.core_nodes();
    let (hop, eid) = match (up, down, first) {
        // A stub source leaves on its own access link, up.
        (Some(s), ..) => (NodeId(nodes[a as usize]), s.up_eid),
        // A router hands over to its own stub on the access link down.
        (None, Some(s), NONE) => (to, s.down_eid),
        (None, _, slot) => {
            let (hop, eid) = view.core().edge_at(slot);
            (NodeId(nodes[hop.index()]), eid)
        }
    };
    let access = up.map_or(0, |s| PathCost::from(s.up_cost))
        + down.map_or(0, |s| PathCost::from(s.down_cost));
    Some((access + core, hop, eid))
}
