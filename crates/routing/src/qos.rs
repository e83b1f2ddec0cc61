//! QoS-constrained unicast routing — the extension the paper names as
//! future work ("to study the possibility of including QoS parameters
//! inside HBH's tree construction", §5).
//!
//! The simplest deployable QoS model is bandwidth admission: a channel
//! that needs `min_bw` units routes over the sub-topology whose directed
//! links all offer at least that much. Because HBH forwards *every*
//! packet (control and data) by forward-direction unicast lookup, running
//! it over bandwidth-constrained tables makes the entire distribution
//! tree QoS-compliant by construction. RPF protocols cannot inherit this:
//! their joins can be constrained, but data then flows over the *reverse*
//! directions of those links, whose bandwidth was never checked — the
//! `qos` experiment measures exactly that gap.
//!
//! Capacities are not stored in the [`Graph`]: every function here takes
//! them as a slice indexed by [`EdgeId`](hbh_topo::graph::EdgeId), the
//! vector `hbh_topo::costs::assign_backbone_bandwidths` draws.

use crate::{RouteProvider, RoutingTables};
use hbh_topo::graph::{Bandwidth, Graph, NodeId, PathCost};

/// Computes routing tables over the sub-topology of directed links whose
/// `capacity` is at least `min_bw`. Reachability may shrink: pairs with no
/// compliant path report `None` distances, and the caller decides whether
/// that is admission failure or cause for re-dimensioning.
pub fn constrained_tables(g: &Graph, capacity: &[Bandwidth], min_bw: Bandwidth) -> RoutingTables {
    // Filter into a shadow graph with identical node numbering: links
    // below the floor are re-costed to effectively-infinite so they are
    // never chosen but the structure (and LinkId space) stays identical.
    // (A true removal would change nothing else: costs cap at 10 in every
    // experiment, so the sentinel can never be part of a chosen path
    // unless no compliant path exists at all.)
    let mut shadow = g.clone();
    for from in g.nodes() {
        for e in g.neighbors(from) {
            if capacity[e.eid.index()] < min_bw {
                shadow.set_cost(e.eid, BLOCKED_COST);
            }
        }
    }
    RoutingTables::compute(&shadow)
}

/// Cost sentinel marking non-compliant links in the shadow graph. Any
/// path using one is detectable by [`path_is_compliant`]'s capacity
/// check, and [`admitted`] treats distances ≥ this as unreachable.
pub const BLOCKED_COST: u32 = 1 << 20;

/// True if `dst` is reachable from `src` without any non-compliant link.
pub fn admitted(t: &RoutingTables, src: NodeId, dst: NodeId) -> bool {
    matches!(t.dist(src, dst), Some(d) if d < PathCost::from(BLOCKED_COST))
}

/// True if `path` has a link and every directed link of it offers at
/// least `min_bw` of `capacity` (its bottleneck does).
pub fn path_is_compliant(
    g: &Graph,
    capacity: &[Bandwidth],
    path: &[NodeId],
    min_bw: Bandwidth,
) -> bool {
    let link = |w: &[NodeId]| g.edge_entry(w[0], w[1]).expect("path follows real links");
    path.windows(2)
        .map(|w| capacity[link(w).0.index()])
        .min()
        .is_some_and(|b| b >= min_bw)
}

/// Admission check for a whole channel: every receiver reachable over
/// compliant links.
pub fn channel_admitted(t: &RoutingTables, source: NodeId, receivers: &[NodeId]) -> bool {
    receivers
        .iter()
        .all(|&r| admitted(t, source, r) && admitted(t, r, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::costs;
    use hbh_topo::graph::Graph;
    use hbh_topo::isp::isp_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Capacities with every link unlimited but the directed `thin` ones,
    /// which offer 1.
    fn capacities(g: &Graph, thin: &[(NodeId, NodeId)]) -> Vec<Bandwidth> {
        let mut capacity = vec![Bandwidth::MAX; g.directed_edge_count()];
        for &(from, to) in thin {
            capacity[g.edge_entry(from, to).unwrap().0.index()] = 1;
        }
        capacity
    }

    /// s — a — b with a thin a→b direction and a fat detour a — c — b.
    fn thin_link() -> (Graph, Vec<Bandwidth>, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 1, 1);
        g.add_link(a, c, 2, 2);
        g.add_link(c, b, 2, 2);
        g.add_host(a, 1, 1);
        let capacity = capacities(&g, &[(a, b)]); // thin forward direction only
        (g, capacity, [a, b, c])
    }

    #[test]
    fn constrained_routing_takes_the_fat_detour() {
        let (g, capacity, [a, b, c]) = thin_link();
        let unconstrained = RoutingTables::compute(&g);
        assert_eq!(unconstrained.path(a, b), Some(vec![a, b]));
        let t = constrained_tables(&g, &capacity, 5);
        assert_eq!(t.path(a, b), Some(vec![a, c, b]), "thin link avoided");
        assert!(admitted(&t, a, b));
        // The reverse direction b→a is fat: still direct.
        assert_eq!(t.path(b, a), Some(vec![b, a]));
    }

    #[test]
    fn unreachable_under_constraint_is_not_admitted() {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 1, 1);
        let t = constrained_tables(&g, &capacities(&g, &[(a, b), (b, a)]), 5);
        assert!(!admitted(&t, a, b));
        assert!(!channel_admitted(&t, a, &[b]));
    }

    #[test]
    fn bottleneck_and_compliance() {
        let (g, capacity, [a, b, c]) = thin_link();
        // The thin a→b link (capacity 1) is the direct path's bottleneck;
        // the detour's links and the reverse b→a are unconstrained.
        assert!(path_is_compliant(&g, &capacity, &[a, b], 1));
        assert!(!path_is_compliant(&g, &capacity, &[a, b], 5));
        assert!(path_is_compliant(&g, &capacity, &[b, a], 5));
        assert!(path_is_compliant(&g, &capacity, &[a, c, b], u32::MAX));
        let linkless = path_is_compliant(&g, &capacity, &[a], 0);
        assert!(!linkless, "a path without links");
    }

    #[test]
    fn compliant_paths_really_avoid_thin_links_on_isp() {
        let mut g = isp_topology();
        let mut rng = StdRng::seed_from_u64(4);
        costs::assign_paper_costs(&mut g, &mut rng);
        let capacity = costs::assign_backbone_bandwidths(&g, 1, 10, &mut rng);
        let min_bw = 4;
        let t = constrained_tables(&g, &capacity, min_bw);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v || !admitted(&t, u, v) {
                    continue;
                }
                let path = t.path(u, v).unwrap();
                assert!(
                    path_is_compliant(&g, &capacity, &path, min_bw),
                    "admitted path {u}→{v} crosses a thin link"
                );
            }
        }
    }

    #[test]
    fn constraint_never_shortens_distances() {
        let mut g = isp_topology();
        let mut rng = StdRng::seed_from_u64(5);
        costs::assign_paper_costs(&mut g, &mut rng);
        let capacity = costs::assign_backbone_bandwidths(&g, 1, 10, &mut rng);
        let free = RoutingTables::compute(&g);
        let t = constrained_tables(&g, &capacity, 5);
        for u in g.nodes() {
            for v in g.nodes() {
                if let (Some(a), Some(b)) = (free.dist(u, v), t.dist(u, v)) {
                    if b < PathCost::from(BLOCKED_COST) {
                        assert!(b >= a, "constraint shortened {u}→{v}");
                    }
                }
            }
        }
    }
}
