//! Property-based tests for the routing substrate: metric laws that must
//! hold on arbitrary connected graphs with arbitrary directed costs.

use crate::provider::{OnDemandRoutes, RouteProvider};
use crate::reference::floyd_warshall;
use crate::tables::RoutingTables;
use hbh_topo::graph::{Graph, PathCost};
use hbh_topo::{costs, random};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph(seed: u64, n: usize, degree_scale: u8) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let degree = 2.0 + f64::from(degree_scale % 4);
    let mut g = random::gnp_with_avg_degree(n, degree.min((n - 1) as f64), &mut rng);
    costs::assign_paper_costs(&mut g, &mut rng);
    g
}

const ROUTER_DOWN: u8 = 0;

/// Fault masks for one failed element of `g`, picked by `seed`: a router
/// (`ROUTER_DOWN`), a host (1), one host's host→router half-link (2) or
/// its router→host half-link (3).
fn fault(g: &Graph, kind: u8, seed: u64) -> (Vec<bool>, Vec<bool>) {
    let mut node_down = vec![false; g.node_count()];
    let mut edge_down = vec![false; g.directed_edge_count()];
    let host = g.hosts().nth(seed as usize % g.hosts().count()).unwrap();
    let router = g.host_router(host);
    match kind {
        ROUTER_DOWN => node_down[g.routers().nth(seed as usize % 3).unwrap().index()] = true,
        1 => node_down[host.index()] = true,
        2 => edge_down[g.edge_entry(host, router).unwrap().0.index()] = true,
        _ => edge_down[g.edge_entry(router, host).unwrap().0.index()] = true,
    }
    (node_down, edge_down)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Dijkstra-based tables agree with the Floyd–Warshall reference on
    /// every pair.
    #[test]
    fn tables_match_reference(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        let fw = floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(t.dist(u, v), fw[u.index()][v.index()]);
            }
        }
    }

    /// Distances obey the (directed) triangle inequality.
    #[test]
    fn triangle_inequality(seed in 0u64..100_000, n in 4usize..14, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        let routers: Vec<_> = g.routers().collect();
        for &a in &routers {
            for &b in &routers {
                for &c in &routers {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (t.dist(a, b), t.dist(b, c), t.dist(a, c))
                    {
                        prop_assert!(ac <= ab + bc,
                            "d({a},{c}) = {ac} > {ab} + {bc} via {b}");
                    }
                }
            }
        }
    }

    /// Walking next-hops reproduces exactly the advertised distance, and
    /// every step makes strict progress (no loops).
    #[test]
    fn next_hops_realize_distances(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let Some(path) = t.path(u, v) else { continue };
                let total: PathCost = path
                    .windows(2)
                    .map(|w| PathCost::from(g.cost(w[0], w[1]).unwrap()))
                    .sum();
                prop_assert_eq!(Some(total), t.dist(u, v));
                // Strictly decreasing remaining distance at every hop.
                for w in path.windows(2) {
                    prop_assert!(t.dist(w[1], v) < t.dist(w[0], v) || w[1] == v);
                }
            }
        }
    }

    /// No shortest path transits a host.
    #[test]
    fn paths_never_transit_hosts(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let t = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if let Some(path) = t.path(u, v) {
                    if path.len() > 2 {
                        for &mid in &path[1..path.len() - 1] {
                            prop_assert!(g.is_router(mid), "host {mid} in transit {u}→{v}");
                        }
                    }
                }
            }
        }
    }

    /// The lazy provider answers exactly like the eager tables on every
    /// (src, dst) pair — identical distances AND identical next hops (the
    /// tie-breaks must survive the CSR/caching path), even with a cache
    /// small enough to force evictions mid-sweep.
    #[test]
    fn on_demand_equals_eager_tables(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let eager = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 3.max(n / 4));
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {}->{}", u, v);
                prop_assert_eq!(
                    eager.next_hop(u, v),
                    RouteProvider::next_hop(&lazy, u, v),
                    "hop {}->{}", u, v
                );
            }
        }
    }

    /// Same equivalence over the surviving topology under each kind of
    /// single fault: a router down (the masked SPF path of both
    /// providers), or — what the contracted path answers from its stub
    /// records alone — a host down, only its host→router half-link down,
    /// only its router→host half-link down.
    #[test]
    fn on_demand_equals_eager_under_a_fault(
        seed in 0u64..100_000, n in 5usize..16, d in 0u8..8, kind in 0u8..4,
    ) {
        let g = arb_graph(seed, n, d);
        let (node_down, edge_down) = fault(&g, kind, seed);
        let eager = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        let lazy = OnDemandRoutes::with_masks(&g, node_down, edge_down, 3.max(n / 4));
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(eager.dist(u, v), lazy.dist(u, v), "dist {}->{}", u, v);
                prop_assert_eq!(
                    eager.next_hop(u, v),
                    RouteProvider::next_hop(&lazy, u, v),
                    "hop {}->{}", u, v
                );
            }
        }
    }

    /// A warm provider taken through `rerouted` answers exactly like a
    /// fresh masked computation.
    #[test]
    fn rerouted_provider_stays_exact(
        seed in 0u64..100_000, n in 5usize..14, d in 0u8..8, kind in 0u8..4,
    ) {
        let g = arb_graph(seed, n, d);
        let lazy = OnDemandRoutes::new(&g, n);
        // Warm a few rows, then inject the fault and compare post-fault.
        for u in g.nodes().take(n / 2) {
            lazy.dist(u, g.nodes().last().unwrap());
        }
        let (node_down, edge_down) = fault(&g, kind, seed);
        let after = lazy.rerouted(node_down.clone(), edge_down.clone());
        let fresh = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(fresh.dist(u, v), after.dist(u, v), "dist {}->{}", u, v);
                prop_assert_eq!(
                    fresh.next_hop(u, v),
                    RouteProvider::next_hop(&after, u, v),
                    "hop {}->{}", u, v
                );
            }
        }
    }

    /// Distances are monotone under cost increase: raising one directed
    /// link's cost never shortens any distance.
    #[test]
    fn monotone_under_cost_increase(seed in 0u64..100_000, n in 4usize..12) {
        let mut g = arb_graph(seed, n, 1);
        let before = RoutingTables::compute(&g);
        let (a, b, ab, _) = g.undirected_links()[0];
        g.set_cost(a, b, ab + 5);
        let after = RoutingTables::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if let (Some(x), Some(y)) = (before.dist(u, v), after.dist(u, v)) {
                    prop_assert!(y >= x, "raising a cost shortened {u}→{v}: {x} → {y}");
                }
            }
        }
    }
}
