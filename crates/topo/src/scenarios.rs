//! Hand-built topologies reproducing the paper's walk-through figures.
//!
//! Each builder returns a [`Graph`] whose nodes carry the labels used in the
//! paper ("S", "R1"/"H1", "r1", ...) and whose *directed* costs are chosen
//! so that the unicast shortest paths are exactly the routes the paper's
//! examples assume. `1` marks a direction on a wanted route, `10` (or `5`)
//! blocks an unwanted alternative; uniqueness of the resulting shortest
//! paths is asserted by the integration tests (they need Dijkstra, which
//! lives upstream in `hbh-routing`).

use crate::graph::Graph;

/// Cost used to block a direction that must not be on any shortest path.
const BLOCK: u32 = 10;

/// Figure 1: the 8-receiver example tree used to illustrate recursive
/// unicast distribution (and reused by Figure 4 for the member-departure
/// comparison).
///
/// Structure (symmetric unit costs; a tree, so all routes are forced):
///
/// ```text
///                S
///                |
///                H1
///               /  \
///             H2    H3
///             |      |
///             H4    H5
///            /  \  /  \
///          H6  r7 H7   r8
///         /|\     /|\
///       r1 r2 r3 r4 r5 r6
/// ```
///
/// `H1`, `H4`, `H5`, `H6`, `H7` are branching nodes; `H2`, `H3` are the
/// pass-through routers the paper points at ("H3 simply forwards the
/// packets in unicast"). The same graph serves the REUNITE side of the
/// figure (routers there are called `R1..R7`; labels here use `H`).
pub fn fig1() -> Graph {
    let mut g = Graph::new();
    let s = g.add_router_labeled("S");
    let h: Vec<_> = (1..=7)
        .map(|i| g.add_router_labeled(&format!("H{i}")))
        .collect();
    let link = |g: &mut Graph, a, b| g.add_link(a, b, 1, 1);
    link(&mut g, s, h[0]); // S  - H1
    link(&mut g, h[0], h[1]); // H1 - H2
    link(&mut g, h[0], h[2]); // H1 - H3
    link(&mut g, h[1], h[3]); // H2 - H4
    link(&mut g, h[2], h[4]); // H3 - H5
    link(&mut g, h[3], h[5]); // H4 - H6
    link(&mut g, h[4], h[6]); // H5 - H7
    for (i, attach) in [
        (1, h[5]),
        (2, h[5]),
        (3, h[5]),
        (4, h[6]),
        (5, h[6]),
        (6, h[6]),
    ] {
        g.add_host_labeled(attach, 1, 1, &format!("r{i}"));
    }
    g.add_host_labeled(h[3], 1, 1, "r7");
    g.add_host_labeled(h[4], 1, 1, "r8");
    g
}

/// Figures 2 and 5: the 4-router asymmetric scenario where REUNITE fails to
/// build a shortest-path tree and HBH succeeds.
///
/// Forced unicast routes (paper §2.3):
///
/// * `r1 → R2 → R1 → S`  and  `S → R1 → R3 → r1`  (asymmetric for r1);
/// * `r2 → R3 → R1 → S`  and  `S → R4 → r2`       (asymmetric for r2;
///   the REUNITE data branch `R3 → r2` costs 3, so the pinned path
///   `S → R1 → R3 → r2` has delay 5 against the shortest-path delay 2);
/// * `r3 → R3 → R1 → S`  and  `S → R1 → R3 → r3`  (symmetric; r3 is the
///   third receiver of the Figure 5 HBH walk-through).
///
/// The HBH walk-through names the routers `H1..H4`; this graph labels them
/// `R1..R4` and the scenario code maps the names.
pub fn fig2() -> Graph {
    let mut g = Graph::new();
    let s = g.add_router_labeled("S");
    let r1 = g.add_router_labeled("R1");
    let r2 = g.add_router_labeled("R2");
    let r3 = g.add_router_labeled("R3");
    let r4 = g.add_router_labeled("R4");
    // Backbone links, directed costs chosen per the route table above.
    g.add_link(s, r1, 1, 1); //   S→R1 = 1 (down), R1→S = 1 (up)
    g.add_link(s, r4, 1, BLOCK); // S→R4 = 1 (down to r2); R4→S blocked
    g.add_link(r1, r2, BLOCK, 1); // R1→R2 blocked; R2→R1 = 1 (r1's up path)
    g.add_link(r1, r3, 1, 1); //  R1→R3 = 1 (down); R3→R1 = 1 (r2/r3 up)
                              // Receivers.
    let rx1 = g.add_host_labeled(r2, BLOCK, 1, "r1"); // r1→R2 = 1; R2→r1 blocked
    g.add_link_host_side(rx1, r3, 1, BLOCK); // R3→r1 = 1 (down); r1→R3 blocked
    let _rx2 = {
        let rx2 = g.add_host_labeled(r3, 3, 1, "r2"); // R3→r2 = 3 (non-SPT data path, cheaper than detouring back through S); r2→R3 = 1
        g.add_link_host_side(rx2, r4, 1, BLOCK); // R4→r2 = 1 (down); r2→R4 blocked
        rx2
    };
    g.add_host_labeled(r3, 1, 1, "r3");
    g
}

/// Figure 3: the 6-router scenario where REUNITE duplicates packets on link
/// `R1→R6` because the joins of `r1` and `r2` bypass `R6`.
///
/// Forced routes:
///
/// * `r1 → R4 → R2 → R1 → S` (join) and `S → R1 → R6 → R4 → r1` (tree/data);
/// * `r2 → R5 → R3 → R1 → S` (join) and `S → R1 → R6 → R5 → r2` (tree/data).
///
/// Both downstream routes share `R1→R6`, but `R6` never sees a join, so
/// REUNITE cannot elect it as a branching node; HBH fixes it with a
/// `fusion` from `R6` (labelled `H6` in the paper's prose).
pub fn fig3() -> Graph {
    let mut g = Graph::new();
    let s = g.add_router_labeled("S");
    let r: Vec<_> = (1..=6)
        .map(|i| g.add_router_labeled(&format!("R{i}")))
        .collect();
    let (r1, r2, r3, r4, r5, r6) = (r[0], r[1], r[2], r[3], r[4], r[5]);
    g.add_link(s, r1, 1, 1);
    g.add_link(r1, r2, BLOCK, 1); // up leg of r1's join
    g.add_link(r1, r3, BLOCK, 1); // up leg of r2's join
    g.add_link(r1, r6, 1, BLOCK); // shared downstream link R1→R6
    g.add_link(r2, r4, BLOCK, 1);
    g.add_link(r3, r5, BLOCK, 1);
    g.add_link(r6, r4, 1, BLOCK);
    g.add_link(r6, r5, 1, BLOCK);
    let rx1 = g.add_host_labeled(r4, 1, 1, "r1");
    let rx2 = g.add_host_labeled(r5, 1, 1, "r2");
    let _ = (rx1, rx2);
    g
}

impl Graph {
    /// Adds a second link from an *already attached* host, used by [`fig2`]
    /// where the paper draws `r1` and `r2` with two upstream routers (one
    /// per direction of its asymmetric route), and by the routing
    /// proptests to put multi-homed hosts into random graphs.
    ///
    /// This deliberately bypasses the single-homing invariant — the paper's
    /// figures do attach these receivers to two routers. Routing still
    /// never transits such a host.
    pub fn add_link_host_side(
        &mut self,
        host: crate::graph::NodeId,
        router: crate::graph::NodeId,
        down: u32,
        up: u32,
    ) {
        // Host already has its first link; push the raw half-links directly.
        self.push_raw_link(router, host, down, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_structure() {
        let g = fig1();
        assert_eq!(g.routers().count(), 8); // S + H1..H7
        assert_eq!(g.hosts().count(), 8); // r1..r8
        for l in ["S", "H1", "H7", "r1", "r8"] {
            assert!(g.node_by_label(l).is_some(), "missing {l}");
        }
    }

    #[test]
    fn fig1_costs_are_symmetric_unit() {
        let g = fig1();
        for (_, _, ab, ba) in g.undirected_links() {
            assert_eq!((ab, ba), (1, 1));
        }
    }

    #[test]
    fn fig1_branching_router_degrees() {
        let g = fig1();
        let h1 = g.node_by_label("H1").unwrap();
        let h2 = g.node_by_label("H2").unwrap();
        assert_eq!(g.degree(h1), 3); // S, H2, H3
        assert_eq!(g.degree(h2), 2); // pass-through
    }

    #[test]
    fn fig2_structure() {
        let g = fig2();
        assert_eq!(g.routers().count(), 5);
        assert_eq!(g.hosts().count(), 3);
        // r1 and r2 are dual-attached per the paper's drawing.
        let r1 = g.node_by_label("r1").unwrap();
        let r2 = g.node_by_label("r2").unwrap();
        let r3 = g.node_by_label("r3").unwrap();
        assert_eq!(g.degree(r1), 2);
        assert_eq!(g.degree(r2), 2);
        assert_eq!(g.degree(r3), 1);
    }

    #[test]
    fn fig2_directed_costs_encode_asymmetry() {
        let g = fig2();
        let s = g.node_by_label("S").unwrap();
        let r4 = g.node_by_label("R4").unwrap();
        assert_eq!(g.cost(s, r4), Some(1)); // S→R4 on r2's SPT
        assert_eq!(g.cost(r4, s), Some(BLOCK)); // blocked reverse
    }

    #[test]
    fn fig3_structure() {
        let g = fig3();
        assert_eq!(g.routers().count(), 7);
        assert_eq!(g.hosts().count(), 2);
        let r1 = g.node_by_label("R1").unwrap();
        let r6 = g.node_by_label("R6").unwrap();
        assert_eq!(g.cost(r1, r6), Some(1));
        assert_eq!(g.cost(r6, r1), Some(BLOCK));
    }

    #[test]
    fn scenario_graphs_are_connected() {
        for g in [fig1(), fig2(), fig3()] {
            assert!(crate::analysis::is_connected(&g));
        }
    }
}
