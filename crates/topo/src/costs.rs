//! Link-cost assignment policies, and the link-capacity draw of the QoS
//! extension.
//!
//! The paper (§4.1): *"We associate two costs, c(n1, n2) and c(n2, n1), to
//! link n1-n2. Each cost is an integer randomly chosen in the interval
//! [1, 10]."* — i.e. the two directions of every link are drawn
//! independently, which makes unicast shortest paths asymmetric with high
//! probability. [`assign_uniform`] reproduces exactly that.
//!
//! [`assign_uniform_with_asymmetry`] adds the knob used by the asymmetry
//! ablation (`DESIGN.md` A1): each link is symmetric (`c(v,u) = c(u,v)`)
//! with probability `1 − a` and independently drawn with probability `a`,
//! so `a = 0` gives a fully symmetric network and `a = 1` the paper's
//! setting.
//!
//! [`assign_backbone_bandwidths`] draws per-direction capacities for the
//! QoS study. They are not a graph attribute: the draw returns them as a
//! vector indexed by [`EdgeId`](crate::graph::EdgeId), which only that
//! study reads.

use crate::graph::{Bandwidth, Cost, Graph};
use rand::rngs::StdRng;
use rand::RngExt;

/// The paper's cost interval `[1, 10]`.
pub const PAPER_COST_RANGE: (Cost, Cost) = (1, 10);

/// Draws every directed half-link cost independently and uniformly from
/// `[lo, hi]` (inclusive). This is the paper's assignment with
/// `(lo, hi) = (1, 10)`.
///
/// Host access links are included: the paper's figures draw receivers as
/// ordinary leaf nodes of the cost-annotated topology, and assigning them
/// the same way affects all protocols identically.
pub fn assign_uniform(g: &mut Graph, lo: Cost, hi: Cost, rng: &mut StdRng) {
    assign_uniform_with_asymmetry(g, lo, hi, 1.0, rng);
}

/// Paper defaults: independent per-direction costs in `[1, 10]`.
pub fn assign_paper_costs(g: &mut Graph, rng: &mut StdRng) {
    assign_uniform(g, PAPER_COST_RANGE.0, PAPER_COST_RANGE.1, rng);
}

/// Cost assignment with an asymmetry-probability knob.
///
/// For every undirected link, `c(a→b)` is drawn from `U[lo, hi]`; then with
/// probability `asymmetry` the reverse direction is drawn independently,
/// otherwise it is set equal to the forward cost.
///
/// # Panics
/// Panics unless `1 ≤ lo ≤ hi` and `0 ≤ asymmetry ≤ 1`.
pub fn assign_uniform_with_asymmetry(
    g: &mut Graph,
    lo: Cost,
    hi: Cost,
    asymmetry: f64,
    rng: &mut StdRng,
) {
    assert!(lo >= 1 && lo <= hi, "invalid cost range [{lo}, {hi}]");
    assert!(
        (0.0..=1.0).contains(&asymmetry),
        "asymmetry must be a probability"
    );
    // The forward halves, in `undirected_links` order.
    let mut forward_ids = Vec::with_capacity(g.link_count());
    for a in g.nodes() {
        forward_ids.extend(g.neighbors(a).filter(|e| a < e.to).map(|e| e.eid));
    }
    for eid in forward_ids {
        let forward = rng.random_range(lo..=hi);
        let backward = if rng.random::<f64>() < asymmetry {
            rng.random_range(lo..=hi)
        } else {
            forward
        };
        g.set_cost(eid, forward);
        g.set_cost(g.reverse_edge(eid), backward);
    }
}

/// Draws a capacity for both directions of every router–router link,
/// independently and uniformly from `[lo, hi]`, and returns all
/// capacities indexed by [`EdgeId`](crate::graph::EdgeId) (the QoS-routing
/// extension; the paper's own evaluation leaves bandwidths unconstrained).
/// Host access links keep unlimited capacity, `Bandwidth::MAX`: last-mile
/// capacity is a provisioning question, not a routing one — and
/// constraining it would make most channels inadmissible rather than
/// interestingly constrained. Links are drawn in
/// [`Graph::undirected_links`] order, forward direction first.
pub fn assign_backbone_bandwidths(
    g: &Graph,
    lo: Bandwidth,
    hi: Bandwidth,
    rng: &mut StdRng,
) -> Vec<Bandwidth> {
    assert!(lo >= 1 && lo <= hi, "invalid bandwidth range [{lo}, {hi}]");
    let mut capacity = vec![Bandwidth::MAX; g.directed_edge_count()];
    for a in g.routers() {
        for e in g.neighbors(a).filter(|e| a < e.to && g.is_router(e.to)) {
            capacity[e.eid.index()] = rng.random_range(lo..=hi);
            capacity[g.reverse_edge(e.eid).index()] = rng.random_range(lo..=hi);
        }
    }
    capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::isp_topology;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn costs_fall_in_range() {
        let mut g = isp_topology();
        assign_paper_costs(&mut g, &mut rng(1));
        for (_, _, ab, ba) in g.undirected_links() {
            for c in [ab, ba] {
                assert!((1..=10).contains(&c), "cost {c} out of [1,10]");
            }
        }
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let mut a = isp_topology();
        let mut b = isp_topology();
        assign_paper_costs(&mut a, &mut rng(5));
        assign_paper_costs(&mut b, &mut rng(5));
        assert_eq!(a.undirected_links(), b.undirected_links());
    }

    #[test]
    fn independent_directions_produce_asymmetric_links() {
        let mut g = isp_topology();
        assign_paper_costs(&mut g, &mut rng(2));
        let asym = g
            .undirected_links()
            .iter()
            .filter(|(_, _, ab, ba)| ab != ba)
            .count();
        // With independent U[1,10] draws, P[equal] = 1/10, so on 48 links we
        // expect ≈ 43 asymmetric ones; even a loose bound catches regressions.
        assert!(asym > 30, "only {asym} of 48 links asymmetric");
    }

    #[test]
    fn zero_asymmetry_gives_symmetric_costs() {
        let mut g = isp_topology();
        assign_uniform_with_asymmetry(&mut g, 1, 10, 0.0, &mut rng(3));
        for (_, _, ab, ba) in g.undirected_links() {
            assert_eq!(ab, ba);
        }
    }

    #[test]
    fn asymmetry_fraction_tracks_knob() {
        let mut g = isp_topology();
        assign_uniform_with_asymmetry(&mut g, 1, 10, 0.5, &mut rng(4));
        let links = g.undirected_links();
        let asym = links.iter().filter(|(_, _, ab, ba)| ab != ba).count();
        // Expected asymmetric fraction = 0.5 · 0.9 = 0.45 of 48 links ≈ 22.
        assert!((10..=35).contains(&asym), "{asym} asymmetric links");
    }

    #[test]
    fn degenerate_unit_range_is_allowed() {
        let mut g = isp_topology();
        assign_uniform(&mut g, 1, 1, &mut rng(6));
        for (_, _, ab, ba) in g.undirected_links() {
            assert_eq!((ab, ba), (1, 1));
        }
    }

    #[test]
    #[should_panic(expected = "invalid cost range")]
    fn inverted_range_rejected() {
        let mut g = isp_topology();
        assign_uniform(&mut g, 5, 2, &mut rng(0));
    }

    #[test]
    fn bandwidths_default_to_unlimited_and_assign_in_range() {
        let g = isp_topology();
        let capacity = assign_backbone_bandwidths(&g, 1, 10, &mut rng(8));
        assert_eq!(capacity.len(), g.directed_edge_count());
        for a in g.nodes() {
            for e in g.neighbors(a) {
                let bw = capacity[e.eid.index()];
                if g.is_router(a) && g.is_router(e.to) {
                    assert!((1..=10).contains(&bw), "{a}->{} reads {bw}", e.to);
                } else {
                    assert_eq!(bw, Bandwidth::MAX, "access link {a}->{}", e.to);
                }
            }
        }
        assert_eq!(capacity, assign_backbone_bandwidths(&g, 1, 10, &mut rng(8)));
    }
}
