//! Property-based tests for the routing substrate: metric laws that must
//! hold on arbitrary connected graphs with arbitrary directed costs, and
//! both route stores held to the full-graph reference (`reference.rs`).

use crate::provider::{OnDemandRoutes, RouteProvider};
use crate::reference::FullGraph;
use crate::tables::RoutingTables;
use hbh_topo::graph::{Graph, NodeId, PathCost};
use hbh_topo::{costs, random};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A connected random graph, one host per router; on even seeds one host
/// is also linked to a second router, the way `scenarios::fig2` dual-homes
/// its receivers, so it stays in the routed core as a sink.
fn arb_graph(seed: u64, n: usize, degree_scale: u8) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let degree = 2.0 + f64::from(degree_scale % 4);
    let mut g = random::gnp_with_avg_degree(n, degree.min((n - 1) as f64), &mut rng);
    if seed % 2 == 0 {
        let hosts: Vec<NodeId> = g.hosts().collect();
        let host = hosts[rng.random_range(0..hosts.len())];
        let home = g.host_router(host);
        let others: Vec<NodeId> = g.routers().filter(|&r| r != home).collect();
        g.add_link_host_side(host, others[rng.random_range(0..others.len())], 1, 1);
    }
    costs::assign_paper_costs(&mut g, &mut rng);
    g
}

const ROUTER_DOWN: u8 = 0;
/// `kind` of [`masks`] that fails nothing.
const NO_FAULT: u8 = 4;

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
        NO_FAULT => {}
        _ => edge_down[g.edge_entry(router, host).unwrap().0.index()] = true,
    }
    (node_down, edge_down)
}

/// `store` answers every pair of `g` exactly like `reference`: distances,
/// next hops, and — resolved from `g`'s own adjacency, not by the pair
/// rule — the edge each step leaves on.
fn matches_reference(
    g: &Graph,
    reference: &FullGraph,
    store: &dyn RouteProvider,
) -> Result<(), TestCaseError> {
    for u in g.nodes() {
        for v in g.nodes() {
            prop_assert_eq!(reference.dist(u, v), store.dist(u, v), "dist {}->{}", u, v);
            let step = reference
                .next_hop(u, v)
                .map(|next| (next, g.edge_entry(u, next).unwrap().0));
            prop_assert_eq!(step, store.step(u, v), "step {}->{}", u, v);
        }
    }
    Ok(())
}

/// `g` built afresh, link by link with its current costs, in
/// [`arb_graph`]'s insertion order (router links, then each host's access
/// link, then any second host link), so every edge keeps its id.
fn rebuilt(g: &Graph) -> Graph {
    let mut fresh = Graph::new();
    for _ in g.routers() {
        fresh.add_router();
    }
    let links = g.undirected_links();
    for &(a, b, ab, ba) in links.iter().filter(|l| g.is_router(l.1)) {
        fresh.add_link(a, b, ab, ba);
    }
    for h in g.hosts() {
        let r = g.host_router(h);
        fresh.add_host(r, g.cost(r, h).unwrap(), g.cost(h, r).unwrap());
    }
    for &(r, h, down, up) in &links {
        if fresh.cost(r, h).is_none() {
            fresh.add_link_host_side(h, r, down, up);
        }
    }
    assert!(g.nodes().all(|u| fresh.neighbors(u).eq(g.neighbors(u))));
    fresh
}

/// The reference property: under fault `kind` (see [`fault`]; `NO_FAULT`
/// builds the unmasked stores), the eager tables and an on-demand provider
/// too small for every row both equal the full-graph reference on every
/// pair. With `redraw`, the stores route a clone of the random graph under
/// a fresh cost draw (what a scenario draw over a frozen template routes),
/// and the reference is computed over that graph rebuilt link by link.
fn stores_match_reference(
    seed: u64,
    n: usize,
    d: u8,
    kind: u8,
    redraw: bool,
) -> Result<(), TestCaseError> {
    let template = arb_graph(seed, n, d);
    let mut g = template.clone();
    if redraw {
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(!seed));
    }
    let fresh = rebuilt(&g);
    let capacity = 3.max(n / 4);
    let (node_down, edge_down) = fault(&g, kind, seed);
    let (reference, eager, lazy) = if kind == NO_FAULT {
        (
            FullGraph::compute(&fresh),
            RoutingTables::compute(&g),
            OnDemandRoutes::new(&g, capacity),
        )
    } else {
        (
            FullGraph::avoiding(&fresh, &node_down, &edge_down),
            RoutingTables::compute_avoiding(&g, &node_down, &edge_down),
            OnDemandRoutes::with_masks(&g, node_down, edge_down, capacity),
        )
    };
    matches_reference(&g, &reference, &eager)?;
    matches_reference(&g, &reference, &lazy)
}

/// The differential property of [`OnDemandRoutes::repeat_lookups`]: two
/// providers of `capacity` rows over a random graph take the same warm-up
/// lookups and then a window `W` of lookups that each read a resident row
/// or none. One provider replays `W` `1 + k` times; the other plays it
/// once and then repeats it `k` times: both then hold the same rows with
/// the same LRU stamps. An evicting tail of random lookups follows on
/// both. After every tail lookup the resident rows are the same (so every
/// eviction victim is), and at the end so are the stamps and the
/// `RouteStats`.
fn repeat_matches_replay(
    seed: u64,
    n: usize,
    d: u8,
    capacity: usize,
    k: u64,
) -> Result<(), TestCaseError> {
    let g = arb_graph(seed, n, d);
    let capacity = 1 + capacity % g.routers().count();
    let nodes: Vec<NodeId> = g.nodes().collect();
    // A stub host is routed through its router's row.
    let core = |x: NodeId| {
        if g.is_host(x) && g.neighbors(x).count() == 1 {
            g.host_router(x)
        } else {
            x
        }
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED0);
    let random_pair = |rng: &mut StdRng| {
        (
            nodes[rng.random_range(0..nodes.len())],
            nodes[rng.random_range(0..nodes.len())],
        )
    };
    // Two routers first, so that some row is resident.
    let routers: Vec<NodeId> = g.routers().collect();
    let warm_up: Vec<_> = std::iter::once((routers[0], routers[1]))
        .chain((0..rng.random_range(0..4 * n)).map(|_| random_pair(&mut rng)))
        .collect();
    let tail: Vec<_> = (0..4 * n).map(|_| random_pair(&mut rng)).collect();
    let look = |p: &OnDemandRoutes, &(u, v): &(NodeId, NodeId)| (p.dist(u, v), p.step(u, v));
    let (replayed, repeated) = (
        OnDemandRoutes::new(&g, capacity),
        OnDemandRoutes::new(&g, capacity),
    );
    for p in [&replayed, &repeated] {
        for pair in &warm_up {
            look(p, pair);
        }
    }
    // `W`: lookups from a node whose row is resident, or none at all.
    let resident = replayed.cached_sources();
    let from: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&u| resident.contains(&core(u)))
        .collect();
    let window: Vec<_> = (0..rng.random_range(1..3 * n))
        .map(|_| {
            let (_, v) = random_pair(&mut rng);
            (from[rng.random_range(0..from.len())], v)
        })
        .collect();
    for _ in 0..=k {
        for pair in &window {
            look(&replayed, pair);
        }
    }
    let before = repeated.route_stats();
    for pair in &window {
        look(&repeated, pair);
    }
    let after = repeated.route_stats();
    prop_assert_eq!(after.misses, before.misses, "the window computed a row");
    repeated.repeat_lookups(after.hits - before.hits, k);
    prop_assert_eq!(repeated.route_stats(), replayed.route_stats());
    prop_assert_eq!(repeated.stamps(), replayed.stamps());
    for (i, pair) in tail.iter().enumerate() {
        prop_assert_eq!(look(&repeated, pair), look(&replayed, pair));
        prop_assert_eq!(
            repeated.cached_sources(),
            replayed.cached_sources(),
            "resident rows after tail lookup {}",
            i
        );
    }
    prop_assert_eq!(repeated.stamps(), replayed.stamps());
    prop_assert_eq!(repeated.route_stats(), replayed.route_stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Both stores equal the full-graph reference on every pair, with or
    /// without a fault, on a random graph or a re-costed clone of one.
    #[test]
    fn tables_match_reference(
        seed in 0u64..100_000, n in 4usize..16, d in 0u8..8, kind in 0u8..5, redraw in any::<bool>(),
    ) {
        stores_match_reference(seed, n, d, kind, redraw)?;
    }

    /// Repeating a window of cache hits leaves the on-demand store where
    /// replaying it does, down to every later eviction victim.
    #[test]
    fn repeated_lookups_match_replay(
        seed in 0u64..100_000, n in 4usize..16, d in 0u8..8, capacity in 0usize..16, k in 1u64..6,
    ) {
        repeat_matches_replay(seed, n, d, capacity, k)?;
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

    /// The lazy provider answers exactly like the full-graph reference and
    /// the eager tables on every (src, dst) pair — identical distances AND
    /// identical next hops (the tie-breaks must survive the contraction
    /// and the caching path), even with a cache small enough to force
    /// evictions mid-sweep.
    #[test]
    fn on_demand_equals_eager_tables(seed in 0u64..100_000, n in 4usize..16, d in 0u8..8) {
        let g = arb_graph(seed, n, d);
        let reference = FullGraph::compute(&g);
        matches_reference(&g, &reference, &RoutingTables::compute(&g))?;
        matches_reference(&g, &reference, &OnDemandRoutes::new(&g, 3.max(n / 4)))?;
    }

    /// Same equivalence over the surviving topology under each kind of
    /// single fault: a router down (the masked core search of both
    /// stores), or — what the pair rule answers from its stub records
    /// alone — a host down, only its host→router half-link down, only its
    /// router→host half-link down.
    #[test]
    fn on_demand_equals_eager_under_a_fault(
        seed in 0u64..100_000, n in 5usize..16, d in 0u8..8, kind in 0u8..4,
    ) {
        stores_match_reference(seed, n, d, kind, false)?;
    }

    /// A warm provider taken through `rerouted` answers exactly like a
    /// fresh masked computation, eager or full-graph.
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
        let reference = FullGraph::avoiding(&g, &node_down, &edge_down);
        matches_reference(&g, &reference, &after)?;
        matches_reference(&g, &reference, &RoutingTables::compute_avoiding(&g, &node_down, &edge_down))?;
    }

    /// Distances are monotone under cost increase: raising one directed
    /// link's cost never shortens any distance.
    #[test]
    fn monotone_under_cost_increase(seed in 0u64..100_000, n in 4usize..12) {
        let mut g = arb_graph(seed, n, 1);
        let before = RoutingTables::compute(&g);
        let (a, b, ab, _) = g.undirected_links()[0];
        g.set_cost(g.edge_entry(a, b).unwrap().0, ab + 5);
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

// The reference property at 170× the cases and the repeat differential
// at as many: too slow for tier-1, run by CI with
// `cargo test --release -p hbh-routing -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn tables_match_reference_at_length(
        seed in 0u64..100_000, n in 5usize..16, d in 0u8..8, kind in 0u8..5, redraw in any::<bool>(),
    ) {
        stores_match_reference(seed, n, d, kind, redraw)?;
    }

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn repeated_lookups_match_replay_at_length(
        seed in 0u64..100_000, n in 4usize..16, d in 0u8..8, capacity in 0usize..16, k in 1u64..6,
    ) {
        repeat_matches_replay(seed, n, d, capacity, k)?;
    }
}
