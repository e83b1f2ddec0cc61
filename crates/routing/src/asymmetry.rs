//! Route-level asymmetry measurements.
//!
//! The paper motivates HBH with Paxson's measurement that ~50% of Internet
//! routes are asymmetric at city granularity (§2.3). These helpers compute
//! the analogous statistics on a simulated topology so experiments can
//! report *how* asymmetric a given cost assignment actually made the
//! routing, and the asymmetry ablation can verify its knob works.

use crate::{RouteProvider, RoutingTables};
use hbh_topo::graph::{Graph, NodeId};

/// Summary of routing asymmetry over all ordered router pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AsymmetryStats {
    /// Ordered pairs `(u, v)`, `u ≠ v`, both routers, `v` reachable.
    pub pairs: usize,
    /// Pairs whose forward and reverse paths traverse different node
    /// sequences (`path(u→v) ≠ reverse(path(v→u))`).
    pub asymmetric_paths: usize,
    /// Pairs whose forward and reverse distances differ.
    pub asymmetric_dists: usize,
}

impl AsymmetryStats {
    /// Fraction of pairs with path-level asymmetry.
    pub fn path_fraction(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.asymmetric_paths as f64 / self.pairs as f64
        }
    }

    /// Fraction of pairs with distance-level asymmetry.
    pub fn dist_fraction(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.asymmetric_dists as f64 / self.pairs as f64
        }
    }
}

/// Measures asymmetry over every ordered pair of distinct routers.
pub fn measure(g: &Graph, t: &RoutingTables) -> AsymmetryStats {
    let routers: Vec<NodeId> = g.routers().collect();
    let mut stats = AsymmetryStats::default();
    for &u in &routers {
        for &v in &routers {
            if u == v {
                continue;
            }
            let (Some(fwd), Some(bwd)) = (t.path(u, v), t.path(v, u)) else {
                continue;
            };
            stats.pairs += 1;
            let mut bwd_rev = bwd;
            bwd_rev.reverse();
            if fwd != bwd_rev {
                stats.asymmetric_paths += 1;
            }
            if t.dist(u, v) != t.dist(v, u) {
                stats.asymmetric_dists += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::costs;
    use hbh_topo::isp::isp_topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symmetric_costs_give_symmetric_distances() {
        let mut g = isp_topology();
        costs::assign_uniform_with_asymmetry(&mut g, 1, 10, 0.0, &mut StdRng::seed_from_u64(1));
        let t = RoutingTables::compute(&g);
        let stats = measure(&g, &t);
        assert_eq!(stats.asymmetric_dists, 0, "{stats:?}");
        // Equal-cost ties can still pick different node sequences per
        // direction, but distances must agree exactly.
        assert_eq!(stats.pairs, 18 * 17);
    }

    #[test]
    fn paper_costs_make_most_routes_asymmetric() {
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(2));
        let t = RoutingTables::compute(&g);
        let stats = measure(&g, &t);
        assert!(
            stats.path_fraction() > 0.3,
            "expected heavy path asymmetry, got {}",
            stats.path_fraction()
        );
        assert!(stats.asymmetric_dists > 0);
    }

    #[test]
    fn asymmetry_grows_with_the_knob() {
        let mut frac = Vec::new();
        for (i, a) in [0.0, 0.5, 1.0].into_iter().enumerate() {
            let mut total = 0.0;
            for seed in 0..5u64 {
                let mut g = isp_topology();
                costs::assign_uniform_with_asymmetry(
                    &mut g,
                    1,
                    10,
                    a,
                    &mut StdRng::seed_from_u64(100 * (i as u64 + 1) + seed),
                );
                let t = RoutingTables::compute(&g);
                total += measure(&g, &t).dist_fraction();
            }
            frac.push(total / 5.0);
        }
        assert!(frac[0] < frac[1] && frac[1] < frac[2], "{frac:?}");
    }

    #[test]
    fn fractions_of_empty_stats_are_zero() {
        let stats = AsymmetryStats::default();
        assert_eq!(stats.path_fraction(), 0.0);
        assert_eq!(stats.dist_fraction(), 0.0);
    }
}
