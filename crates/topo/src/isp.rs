//! The 18-router "large ISP" backbone of the paper's Figure 6.
//!
//! The paper takes this topology from Apostolopoulos et al. (SIGCOMM'98,
//! "Quality of service based routing: a performance perspective"), where it
//! is described as "typical of a large ISP's network": 18 backbone routers
//! with average connectivity ≈ 3.3, i.e. 30 bidirectional links. The
//! original adjacency is only published as a drawing, so this module
//! reconstructs an 18-router, 30-link backbone with the same node count,
//! the same average degree (3.33), degrees between 2 and 5, and the same
//! host layout: one potential receiver host per router, hosts numbered
//! `18..36` with host `18 + i` attached to router `i`. The paper fixes
//! **node 18** (the host on router 0) as the multicast source.
//!
//! This substitution is recorded in `DESIGN.md` §5; the evaluation results
//! depend on the degree/diameter statistics rather than the precise
//! adjacency, which is why the reconstruction pins those statistics.

use crate::graph::{Graph, NodeId};

/// Number of routers in the ISP backbone.
pub const ROUTERS: usize = 18;

/// Number of hosts (one per router).
pub const HOSTS: usize = 18;

/// The node id of the paper's fixed multicast source (host 18, on router 0).
pub const SOURCE_HOST: NodeId = NodeId(18);

/// The 30 undirected backbone links.
///
/// Degrees: min 2, max 5, average 30·2/18 = 3.33 — matching the "3.3
/// connectivity" quoted in §4.1 of the paper.
pub const BACKBONE_LINKS: [(u32, u32); 30] = [
    (0, 1),
    (0, 2),
    (0, 5),
    (1, 2),
    (1, 3),
    (2, 5),
    (2, 4),
    (3, 4),
    (3, 6),
    (4, 5),
    (4, 7),
    (4, 8),
    (5, 9),
    (6, 7),
    (6, 11),
    (7, 8),
    (7, 12),
    (8, 9),
    (8, 13),
    (9, 10),
    (10, 13),
    (10, 17),
    (11, 12),
    (11, 14),
    (12, 13),
    (12, 15),
    (13, 16),
    (14, 15),
    (15, 16),
    (16, 17),
];

/// Builds the ISP topology with *placeholder* unit costs on every link.
///
/// Experiments re-draw the directed costs per run with
/// [`crate::costs::assign_uniform`], reproducing the paper's "integer
/// randomly chosen in the interval `[1, 10]`" per direction.
pub fn isp_topology() -> Graph {
    let mut g = Graph::new();
    let routers: Vec<NodeId> = (0..ROUTERS).map(|_| g.add_router()).collect();
    for &(a, b) in &BACKBONE_LINKS {
        g.add_link(routers[a as usize], routers[b as usize], 1, 1);
    }
    // Hosts 18..36: host 18 + i attaches to router i.
    for &r in &routers {
        g.add_host(r, 1, 1);
    }
    g
}

/// All hosts that may join the channel (every host except the source).
pub fn receiver_pool(g: &Graph) -> Vec<NodeId> {
    g.hosts().filter(|&h| h != SOURCE_HOST).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn has_paper_node_layout() {
        let g = isp_topology();
        assert_eq!(g.node_count(), 36);
        assert_eq!(g.routers().count(), 18);
        assert_eq!(g.hosts().count(), 18);
        // Routers occupy ids 0..18, hosts 18..36 (paper's Figure 6 numbering).
        assert!(g.is_router(NodeId(0)) && g.is_router(NodeId(17)));
        assert!(g.is_host(NodeId(18)) && g.is_host(NodeId(35)));
    }

    #[test]
    fn source_host_is_node_18_on_router_0() {
        let g = isp_topology();
        assert!(g.is_host(SOURCE_HOST));
        assert_eq!(g.host_router(SOURCE_HOST), NodeId(0));
    }

    #[test]
    fn hosts_attach_in_order() {
        let g = isp_topology();
        for i in 0..18u32 {
            assert_eq!(g.host_router(NodeId(18 + i)), NodeId(i));
        }
    }

    #[test]
    fn backbone_has_30_links_and_avg_degree_3_33() {
        let g = isp_topology();
        // 30 backbone + 18 access links.
        assert_eq!(g.link_count(), 48);
        let backbone_degree_sum: usize = g
            .routers()
            .map(|r| g.neighbors(r).filter(|e| g.is_router(e.to)).count())
            .sum();
        assert_eq!(backbone_degree_sum, 60); // 2 × 30 links
        let avg = backbone_degree_sum as f64 / 18.0;
        assert!((avg - 3.33).abs() < 0.01, "avg backbone degree {avg}");
    }

    #[test]
    fn backbone_degrees_bounded() {
        let g = isp_topology();
        for r in g.routers() {
            let d = g.neighbors(r).filter(|e| g.is_router(e.to)).count();
            assert!((2..=5).contains(&d), "router {r} backbone degree {d}");
        }
    }

    #[test]
    fn is_connected() {
        let g = isp_topology();
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn link_table_has_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &BACKBONE_LINKS {
            assert!(a < b, "links listed with a < b");
            assert!(seen.insert((a, b)), "duplicate link ({a},{b})");
        }
    }

    #[test]
    fn receiver_pool_excludes_source() {
        let g = isp_topology();
        let pool = receiver_pool(&g);
        assert_eq!(pool.len(), 17);
        assert!(!pool.contains(&SOURCE_HOST));
    }
}
