//! Seeded random-topology generators.
//!
//! The paper's second scenario is "a random-generated topology with 50 nodes
//! and higher connectivity (8.6 versus 3.3)". Only the node count and the
//! average degree are disclosed, so [`gnp_with_avg_degree`] generates an
//! Erdős–Rényi G(n, p) graph with `p = d̄ / (n − 1)`, rejection-sampled until
//! connected (and, like the paper, with one potential-receiver host per
//! router). A Waxman generator is provided for the topology-sensitivity
//! ablation.

use crate::analysis;
use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// How many rejection-sampling attempts to make before giving up.
///
/// For the parameters used in the paper's evaluation (n = 50, d̄ = 8.6)
/// disconnection is already rare; 1000 attempts gives failure probability
/// far below anything observable.
const MAX_ATTEMPTS: usize = 1000;

/// Generates a connected G(n, p) router backbone with expected average
/// degree `avg_degree`, plus one host per router.
///
/// Links get placeholder unit costs; draw real costs afterwards with
/// [`crate::costs::assign_uniform`].
///
/// # Panics
/// Panics if `n < 2`, if `avg_degree` is not achievable (`≤ 0` or
/// `> n − 1`), or if no connected sample is found in `MAX_ATTEMPTS`
/// (1000) attempts (practically impossible for sensible parameters: for the
/// paper's n = 50, d̄ = 8.6 a disconnected sample is already rare).
pub fn gnp_with_avg_degree(n: usize, avg_degree: f64, rng: &mut StdRng) -> Graph {
    assert!(n >= 2, "need at least two routers");
    assert!(
        avg_degree > 0.0 && avg_degree <= (n - 1) as f64,
        "average degree {avg_degree} not achievable with {n} nodes"
    );
    let p = avg_degree / (n - 1) as f64;
    for _ in 0..MAX_ATTEMPTS {
        let g = sample_gnp(n, p, rng);
        if analysis::is_connected(&g) {
            return with_hosts(g);
        }
    }
    panic!("no connected G({n}, {p}) sample in {MAX_ATTEMPTS} attempts");
}

/// The paper's 50-node random topology: G(50, p) with average degree 8.6.
pub fn rand50(rng: &mut StdRng) -> Graph {
    gnp_with_avg_degree(50, 8.6, rng)
}

fn sample_gnp(n: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new();
    let routers: Vec<NodeId> = (0..n).map(|_| g.add_router()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random::<f64>() < p {
                g.add_link(routers[i], routers[j], 1, 1);
            }
        }
    }
    g
}

/// Waxman random graph: routers are placed uniformly in the unit square and
/// each pair is linked with probability `alpha * exp(-dist / (beta * L))`
/// where `L = sqrt(2)` is the maximum distance. Used by the
/// topology-sensitivity ablation; rejection-sampled for connectivity like
/// [`gnp_with_avg_degree`].
pub fn waxman(n: usize, alpha: f64, beta: f64, rng: &mut StdRng) -> Graph {
    assert!(n >= 2);
    assert!(alpha > 0.0 && beta > 0.0);
    let l = std::f64::consts::SQRT_2;
    for _ in 0..MAX_ATTEMPTS {
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let mut g = Graph::new();
        let routers: Vec<NodeId> = (0..n).map(|_| g.add_router()).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let (xi, yi) = pos[i];
                let (xj, yj) = pos[j];
                let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                let p = alpha * (-dist / (beta * l)).exp();
                if rng.random::<f64>() < p {
                    g.add_link(routers[i], routers[j], 1, 1);
                }
            }
        }
        if analysis::is_connected(&g) {
            return with_hosts(g);
        }
    }
    panic!("no connected Waxman({n}, {alpha}, {beta}) sample in {MAX_ATTEMPTS} attempts");
}

/// Attaches one host to every router (the paper's "one receiver connected to
/// each node"), numbered after all routers, host `n + i` on router `i`.
fn with_hosts(mut g: Graph) -> Graph {
    let routers: Vec<NodeId> = g.routers().collect();
    for r in routers {
        g.add_host(r, 1, 1);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rand50_has_50_routers_and_50_hosts() {
        let g = rand50(&mut rng(1));
        assert_eq!(g.routers().count(), 50);
        assert_eq!(g.hosts().count(), 50);
        assert_eq!(g.node_count(), 100);
    }

    #[test]
    fn rand50_is_connected() {
        for seed in 0..5 {
            assert!(analysis::is_connected(&rand50(&mut rng(seed))));
        }
    }

    #[test]
    fn rand50_average_degree_near_8_6() {
        // Average over a few seeds: expected backbone degree is 8.6.
        let mut total = 0.0;
        let samples = 20;
        for seed in 0..samples {
            let g = rand50(&mut rng(seed));
            let deg_sum: usize = g
                .routers()
                .map(|r| g.neighbors(r).filter(|e| g.is_router(e.to)).count())
                .sum();
            total += deg_sum as f64 / 50.0;
        }
        let avg = total / samples as f64;
        assert!(
            (avg - 8.6).abs() < 0.6,
            "mean backbone degree {avg}, want ≈ 8.6"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = rand50(&mut rng(42));
        let b = rand50(&mut rng(42));
        assert_eq!(a.undirected_links(), b.undirected_links());
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = rand50(&mut rng(1));
        let b = rand50(&mut rng(2));
        assert_ne!(a.undirected_links(), b.undirected_links());
    }

    #[test]
    fn hosts_attach_in_order_after_routers() {
        let g = rand50(&mut rng(3));
        for i in 0..50u32 {
            assert_eq!(g.host_router(NodeId(50 + i)), NodeId(i));
        }
    }

    #[test]
    fn waxman_generates_connected_graph_with_hosts() {
        let g = waxman(30, 0.9, 0.3, &mut rng(7));
        assert!(analysis::is_connected(&g));
        assert_eq!(g.routers().count(), 30);
        assert_eq!(g.hosts().count(), 30);
    }

    #[test]
    fn small_gnp_works() {
        let g = gnp_with_avg_degree(2, 1.0, &mut rng(9));
        assert!(analysis::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "not achievable")]
    fn overdense_request_rejected() {
        gnp_with_avg_degree(5, 10.0, &mut rng(0));
    }
}
