//! Demand-driven routing: the [`RouteProvider`] abstraction and its lazy
//! [`OnDemandRoutes`] implementation.
//!
//! The paper's scaling argument is that HBH routers keep state only where
//! trees actually pass — but the harness historically froze **all-pairs**
//! Dijkstra into an `n×n` next-hop array per scenario draw, O(n²) memory
//! and precompute that caps experiments near 50 routers. The fix mirrors
//! the protocol's own philosophy: routes are a *service*, computed when
//! first consulted and memoized per source.
//!
//! [`RouteProvider`] is the consumer-facing trait: `step` (next hop and
//! out-edge, the forwarding decision), `dist`, and `next_hop` / `path`
//! derived from them. [`crate::RoutingTables`] implements it as the exact
//! eager store (every pair expanded up front, used for the paper's n≤100
//! figures), and [`OnDemandRoutes`] implements it lazily, in an LRU with
//! deterministic eviction, each row holding one 8-byte core leg per core
//! node: a `u32` cost and the first-hop edge as a slot of the core `Csr`
//! (`pair.rs`). Both run the same core search over the same stub-contracted view
//! and expand a pair through the same rule (`pair.rs` documents both), so
//! on any (at, dst) pair they agree exactly; property tests hold each of
//! them to an independent full-graph reference, and each step's edge to
//! the graph's own adjacency, with and without failed elements.
//!
//! # Faults
//!
//! On a fault event [`OnDemandRoutes::rerouted`] builds the post-failure
//! provider from the masks alone (indexed by the full graph's `NodeId` /
//! `EdgeId`): same contracted view, same capacity, no rows. Every row
//! after a fault is computed over the new masks, exactly as
//! [`crate::RoutingTables::compute_avoiding`] computes its core rows.

use crate::dijkstra::{shortest_paths_avoiding_csr_into, DijkstraScratch};
use crate::pair::{self, Leg, Masks};
use hbh_topo::contract::Contracted;
use hbh_topo::graph::{EdgeId, Graph, NodeId, PathCost};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Unicast route lookups, independent of how routes are materialized.
///
/// Implementations must agree on every pair with shortest paths over the
/// whole graph, equal costs broken to the smaller predecessor id (the
/// test-only full-graph reference); they differ only in *when* routes are
/// computed and how much memory they pin.
pub trait RouteProvider {
    /// Number of nodes routes are answered for.
    fn node_count(&self) -> usize;

    /// The forwarding step at `at` toward `dst`: the neighbor a packet
    /// leaves through and the directed edge it leaves on. `None` if
    /// `at == dst` or `dst` is unreachable.
    fn step(&self, at: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)>;

    /// The neighbor of `at` that a packet destined to `dst` leaves
    /// through: [`RouteProvider::step`] without the edge.
    fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.step(at, dst).map(|(hop, _)| hop)
    }

    /// Cost of the shortest `from → to` path, `None` if unreachable.
    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost>;

    /// The full unicast path `from → … → to` (inclusive), walked from the
    /// next hops exactly like a real packet would be forwarded.
    fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.dist(from, to)?;
        let n = self.node_count();
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = self.next_hop(cur, to)?;
            path.push(cur);
            assert!(path.len() <= n, "routing loop from {from} to {to}");
        }
        Some(path)
    }

    /// How the provider materialized its answers.
    fn route_stats(&self) -> RouteStats;

    /// Heap bytes currently pinned by materialized route state.
    fn state_bytes(&self) -> usize;
}

/// Counters describing how a provider materialized its answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// SPF rows computed (eager: one per core node, up front — stub
    /// hosts are expanded from their router's row).
    pub computed: u64,
    /// Lookups answered without computing a row: from a cached row, or
    /// (on-demand) from the contraction maps alone, with no row at all.
    pub hits: u64,
    /// Lookups that had to compute a row first.
    pub misses: u64,
    /// Rows dropped by LRU capacity pressure.
    pub evicted: u64,
    /// Rows resident right now (eager: the `n` rows of expanded steps).
    pub cached_rows: usize,
}

impl RouteStats {
    /// Fraction of lookups served without running an SPF.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memoized forward-SPF row over the core: everything core node `src`
/// needs to answer `step(src, *)` / `dist(src, *)`.
struct Row {
    /// `legs[v]`: the core leg from the row's source to core node `v`.
    legs: Box<[Leg]>,
    /// The lookup count (the LRU clock) at this row's last read.
    last_used: u64,
}

impl Row {
    fn bytes(core: usize) -> usize {
        core * size_of::<Leg>()
    }
}

/// Everything behind the lock: the rows, the scratch that computes them,
/// and the two counters only a row computation moves.
struct RowCache {
    /// `slot[src]`: where core node `src`'s row sits in `rows`
    /// ([`pair::NONE`] = not resident).
    slot: Vec<u32>,
    /// The resident rows with their sources' core indices, in no order.
    rows: Vec<(u32, Row)>,
    scratch: DijkstraScratch,
    /// Lookups that computed a row first.
    misses: u64,
    /// Rows dropped by LRU capacity pressure.
    evicted: u64,
}

/// Lazy per-source routing over the contracted view of a topology.
///
/// A lookup whose forwarding node and destination resolve to different
/// core nodes materializes the forward SPF row of the forwarding node's
/// core node on first consultation and memoizes it; subsequent lookups
/// through it are O(1) array reads. A stub host (see
/// [`hbh_topo::contract`]) never owns a row: it is answered through its
/// attachment router's row and its access-link costs, and needs no row at
/// all when both ends sit on the same router. Memory therefore scales
/// with the number of *routers actually consulted* times the number of
/// routers — not with hosts, and not with n².
///
/// * **Capacity / eviction** — at most `capacity` rows stay resident; the
///   victim is the row with the smallest `(last_used, source)` pair, so
///   eviction (and everything downstream of it) is deterministic for a
///   fixed lookup sequence. A resident row is found through a dense slot
///   per core node, not a hash.
/// * **Faults** — the provider answers over the surviving topology
///   described by its node/edge masks (indexed by the full graph's
///   `NodeId` / `EdgeId`); [`OnDemandRoutes::rerouted`] starts over from
///   new masks with an empty cache.
/// * **Sharing** — lookups take `&self` (interior mutability behind a
///   [`Mutex`]), so paired protocol runs sharing one network also share
///   one warm cache.
pub struct OnDemandRoutes {
    view: Arc<Contracted>,
    masks: Masks,
    capacity: usize,
    cache: Mutex<RowCache>,
    /// Every lookup so far, through a row or rowless; the LRU clock. Kept
    /// outside the lock, which a rowless lookup never takes.
    lookups: AtomicU64,
}

impl OnDemandRoutes {
    /// Lazy routes over the full (fault-free) topology of `g`.
    pub fn new(g: &Graph, capacity: usize) -> Self {
        let (n, m) = (g.node_count(), g.directed_edge_count());
        Self::with_masks(g, vec![false; n], vec![false; m], capacity)
    }

    /// Lazy routes over the surviving topology: nodes/edges flagged in the
    /// masks are treated as absent, exactly like
    /// [`crate::RoutingTables::compute_avoiding`].
    ///
    /// # Panics
    /// Panics if a mask length does not match `g`, `capacity` is 0, or
    /// core nodes × the largest core link cost overflows a `u32` (see
    /// `pair.rs`).
    pub fn with_masks(
        g: &Graph,
        node_down: Vec<bool>,
        edge_down: Vec<bool>,
        capacity: usize,
    ) -> Self {
        assert!(capacity > 0, "route cache needs room for at least one row");
        let view = Contracted::from_graph(g);
        pair::assert_legs_fit(&view);
        Self::over(Arc::new(view), node_down, edge_down, capacity)
    }

    /// An empty cache over `view` and the masks: checks the masks and
    /// derives the core node mask from them.
    fn over(
        view: Arc<Contracted>,
        node_down: Vec<bool>,
        edge_down: Vec<bool>,
        capacity: usize,
    ) -> Self {
        let masks = Masks::new(&view, node_down, edge_down);
        let core = masks.core_down.len();
        OnDemandRoutes {
            view,
            masks,
            capacity,
            cache: Mutex::new(RowCache {
                slot: vec![pair::NONE; core],
                rows: Vec::new(),
                scratch: DijkstraScratch::default(),
                misses: 0,
                evicted: 0,
            }),
            lookups: AtomicU64::new(0),
        }
    }

    /// The provider after a fault event: the same contracted view and
    /// capacity over the new masks, with no rows and zeroed counters.
    pub fn rerouted(&self, node_down: Vec<bool>, edge_down: Vec<bool>) -> Self {
        Self::over(Arc::clone(&self.view), node_down, edge_down, self.capacity)
    }

    /// Sources with a resident row, ascending (test introspection).
    pub fn cached_sources(&self) -> Vec<NodeId> {
        let c = self.cache.lock().unwrap();
        let mut v: Vec<u32> = c.rows.iter().map(|&(src, _)| src).collect();
        v.sort_unstable();
        let nodes = self.view.core_nodes();
        v.into_iter().map(|i| NodeId(nodes[i as usize])).collect()
    }

    /// Heap bytes of the immutable contracted view the rows are computed
    /// over (core adjacency and the stub maps that
    /// [`RouteProvider::state_bytes`] also counts).
    pub fn structure_bytes(&self) -> usize {
        self.view.bytes()
    }

    /// Leaves the cache as `k` more repeats of its last `lookups` lookups
    /// would, given that they computed no row (their window moved
    /// [`RouteStats::hits`] by `lookups` and `misses` not at all).
    ///
    /// Exact for a lookup sequence that repeats period for period: a
    /// window without a miss neither adds nor evicts a row, so each repeat
    /// reads the same resident rows in the same order, and a row's last
    /// read in the last repeat is its last read in the window plus `k`
    /// clock periods. The rows the window read are those stamped after
    /// the clock stood at its start; every other stamp, and so every later
    /// LRU victim, is what the repeats would leave. The hits follow from
    /// the clock.
    pub fn repeat_lookups(&self, lookups: u64, k: u64) {
        let c = &mut *self.cache.lock().unwrap();
        let start = self.lookups.load(Ordering::Relaxed) - lookups;
        let by = k * lookups;
        for (_, row) in &mut c.rows {
            if row.last_used > start {
                row.last_used += by;
            }
        }
        self.lookups.fetch_add(by, Ordering::Relaxed);
    }

    /// Every resident row's core source and LRU stamp, by source.
    #[cfg(test)]
    pub(crate) fn stamps(&self) -> Vec<(u32, u64)> {
        let c = self.cache.lock().unwrap();
        let mut v: Vec<_> = c
            .rows
            .iter()
            .map(|(src, row)| (*src, row.last_used))
            .collect();
        v.sort_unstable();
        v
    }

    /// Counts a lookup answered without consulting a row.
    fn rowless<T>(&self, answer: T) -> T {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        answer
    }

    /// Runs `f` over the (possibly just materialized) row of core node
    /// `src`.
    fn with_row<R>(&self, src: u32, f: impl FnOnce(&Row) -> R) -> R {
        let c = &mut *self.cache.lock().unwrap();
        let now = self.lookups.fetch_add(1, Ordering::Relaxed) + 1;
        // A `NONE` slot indexes past the end of `rows`.
        if let Some((_, row)) = c.rows.get_mut(c.slot[src as usize] as usize) {
            row.last_used = now;
            return f(row);
        }
        c.misses += 1;

        shortest_paths_avoiding_csr_into(
            self.view.core(),
            NodeId(src),
            &mut c.scratch,
            &self.masks.core_down,
            &self.masks.edge_down,
        );
        let row = Row {
            legs: pair::legs(&c.scratch).collect(),
            last_used: now,
        };

        if c.rows.len() >= self.capacity {
            // Deterministic LRU: oldest stamp, ties to the smallest source.
            let (_, victim) = c
                .rows
                .iter()
                .enumerate()
                .map(|(i, (src, row))| ((row.last_used, *src), i))
                .min()
                .expect("capacity > 0 and cache full");
            c.slot[c.rows[victim].0 as usize] = pair::NONE;
            c.rows.swap_remove(victim);
            if let Some(&(moved, _)) = c.rows.get(victim) {
                c.slot[moved as usize] = victim as u32;
            }
            c.evicted += 1;
        }
        c.slot[src as usize] = c.rows.len() as u32;
        c.rows.push((src, row));
        f(&c.rows.last().expect("just pushed").1)
    }

    /// Cost and step of the shortest `from → to` path, `from != to`, by
    /// the pair rule over this provider's rows. A lookup the rule answers
    /// without a core leg counts as a rowless hit.
    fn resolve(&self, from: NodeId, to: NodeId) -> Option<(PathCost, NodeId, EdgeId)> {
        let mut consulted = false;
        let answer = pair::resolve(&self.view, &self.masks, from, to, |a, b| {
            consulted = true;
            self.with_row(a, |row| row.legs[b as usize])
        });
        if consulted {
            answer
        } else {
            self.rowless(answer)
        }
    }
}

impl RouteProvider for OnDemandRoutes {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    fn step(&self, at: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        if at == dst {
            return self.rowless(None);
        }
        self.resolve(at, dst).map(|(_, hop, eid)| (hop, eid))
    }

    fn dist(&self, from: NodeId, to: NodeId) -> Option<PathCost> {
        if from == to {
            return self.rowless((!self.masks.node_down[from.index()]).then_some(0));
        }
        self.resolve(from, to).map(|(d, ..)| d)
    }

    /// Derived from the lookup count and the two locked counters: every
    /// miss computed one row, and every other lookup is a hit.
    fn route_stats(&self) -> RouteStats {
        let c = self.cache.lock().unwrap();
        RouteStats {
            computed: c.misses,
            hits: self.lookups.load(Ordering::Relaxed) - c.misses,
            misses: c.misses,
            evicted: c.evicted,
            cached_rows: c.rows.len(),
        }
    }

    fn state_bytes(&self) -> usize {
        let c = self.cache.lock().unwrap();
        c.rows.len() * Row::bytes(self.masks.core_down.len())
            + self.view.map_bytes()
            + self.masks.bytes()
    }
}

impl std::fmt::Debug for OnDemandRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.route_stats();
        f.debug_struct("OnDemandRoutes")
            .field("nodes", &self.view.node_count())
            .field("core", &self.masks.core_down.len())
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTables;
    use hbh_topo::hier::{attach_hosts, hierarchical, TierSpec};
    use hbh_topo::isp::isp_topology;
    use hbh_topo::{costs, scenarios};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn isp(seed: u64) -> Graph {
        let mut g = isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(seed));
        g
    }

    #[test]
    fn agrees_with_eager_tables_on_isp_and_the_paper_scenarios() {
        // fig2's dual-homed receivers stay in the core (and keep sinking
        // traffic); every other host here is a stub.
        for g in [isp(5), scenarios::fig2(), scenarios::fig3()] {
            let eager = RoutingTables::compute(&g);
            let lazy = OnDemandRoutes::new(&g, 64);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        RouteProvider::dist(&eager, u, v),
                        lazy.dist(u, v),
                        "dist {u}->{v}"
                    );
                    assert_eq!(
                        RouteProvider::next_hop(&eager, u, v),
                        lazy.next_hop(u, v),
                        "hop {u}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_materialize_lazily_and_hit_afterwards() {
        let g = isp(1);
        let lazy = OnDemandRoutes::new(&g, 64);
        let (a, b) = {
            let mut it = g.nodes();
            (it.next().unwrap(), it.nth(3).unwrap())
        };
        assert_eq!(lazy.route_stats().computed, 0);
        lazy.next_hop(a, b);
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.hits, s.cached_rows), (1, 1, 0, 1));
        lazy.dist(a, b);
        lazy.next_hop(a, g.nodes().nth(7).unwrap());
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.hits), (1, 1, 2));
        assert!(s.hit_rate() > 0.6);
    }

    #[test]
    fn capacity_evicts_deterministically() {
        let g = isp(2);
        let lazy = OnDemandRoutes::new(&g, 2);
        let nodes: Vec<NodeId> = g.nodes().collect();
        lazy.dist(nodes[0], nodes[5]); // lookup 1
        lazy.dist(nodes[1], nodes[5]); // lookup 2
        lazy.dist(nodes[0], nodes[6]); // lookup 3: refreshes row 0
        lazy.dist(nodes[2], nodes[5]); // lookup 4: must evict row 1 (oldest)
        assert_eq!(lazy.cached_sources(), vec![nodes[0], nodes[2]]);
        assert_eq!(lazy.route_stats().evicted, 1);
    }

    #[test]
    fn path_walks_next_hops() {
        let g = isp(3);
        let eager = RoutingTables::compute(&g);
        let lazy = OnDemandRoutes::new(&g, 64);
        for u in g.nodes().take(6) {
            for v in g.nodes().take(6) {
                assert_eq!(eager.path(u, v), RouteProvider::path(&lazy, u, v));
            }
        }
    }

    #[test]
    fn masked_provider_matches_compute_avoiding() {
        let g = isp(4);
        let victim = g.nodes().nth(2).unwrap();
        let mut node_down = vec![false; g.node_count()];
        node_down[victim.index()] = true;
        let edge_down = vec![false; g.directed_edge_count()];
        let eager = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        let lazy = OnDemandRoutes::with_masks(&g, node_down, edge_down, 64);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    RouteProvider::dist(&eager, u, v),
                    lazy.dist(u, v),
                    "dist {u}->{v}"
                );
                assert_eq!(
                    RouteProvider::next_hop(&eager, u, v),
                    lazy.next_hop(u, v),
                    "hop {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn rerouted_keeps_the_view_and_starts_empty() {
        let g = isp(6);
        let lazy = OnDemandRoutes::new(&g, 64);
        lazy.dist(g.nodes().next().unwrap(), g.nodes().nth(5).unwrap());
        let (n, m) = (g.node_count(), g.directed_edge_count());
        let next = lazy.rerouted(vec![false; n], vec![false; m]);
        assert!(Arc::ptr_eq(&lazy.view, &next.view));
        assert_eq!(next.route_stats(), RouteStats::default());
    }

    #[test]
    fn pinned_seed_eviction_and_recompute_is_deterministic() {
        use rand::RngExt;
        // Two independent providers fed the identical pseudorandom lookup
        // stream (pinned seed, capacity far below the working set) must
        // agree on every answer, every counter, and the resident set —
        // i.e. eviction + recompute is a pure function of the sequence.
        let g = isp(9);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let a = OnDemandRoutes::new(&g, 3);
        let b = OnDemandRoutes::new(&g, 3);
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for _ in 0..200 {
            let u = nodes[rng.random_range(0..nodes.len())];
            let v = nodes[rng.random_range(0..nodes.len())];
            assert_eq!(a.next_hop(u, v), b.next_hop(u, v), "hop {u}->{v}");
            assert_eq!(a.dist(u, v), b.dist(u, v), "dist {u}->{v}");
        }
        assert_eq!(a.route_stats(), b.route_stats());
        assert_eq!(a.cached_sources(), b.cached_sources());
        let s = a.route_stats();
        assert!(
            s.evicted > 0,
            "capacity 3 must have evicted under 200 lookups"
        );
        assert_eq!(s.cached_rows, 3);
    }

    #[test]
    fn resident_rows_follow_a_plain_lru_model() {
        use rand::RngExt;
        // The model: resident `(source, last_used)` pairs, a hit refreshes
        // one, a miss evicts min `(last_used, source)` when full. ISP hosts
        // are all stubs, so a lookup reads the row of its source's router,
        // and none when both ends share a router.
        for (capacity, seed) in (1..=4).flat_map(|c| (0..3).map(move |s| (c, s))) {
            let g = isp(20 + seed);
            let nodes: Vec<NodeId> = g.nodes().collect();
            let core = |x: NodeId| if g.is_host(x) { g.host_router(x) } else { x };
            let lazy = OnDemandRoutes::new(&g, capacity);
            let mut model: Vec<(NodeId, u64)> = Vec::new();
            let mut want = RouteStats::default();
            let mut rng = StdRng::seed_from_u64(seed * 31 + capacity as u64);
            for tick in 1..=400 {
                let u = nodes[rng.random_range(0..nodes.len())];
                let v = nodes[rng.random_range(0..nodes.len())];
                match tick % 3 {
                    0 => _ = lazy.step(u, v),
                    1 => _ = lazy.dist(u, v),
                    _ => _ = lazy.next_hop(u, v),
                }
                let src = core(u);
                if u == v || src == core(v) {
                    want.hits += 1;
                } else if let Some(entry) = model.iter_mut().find(|(s, _)| *s == src) {
                    entry.1 = tick;
                    want.hits += 1;
                } else {
                    want.misses += 1;
                    want.computed += 1;
                    if model.len() == capacity {
                        let victim = (0..model.len())
                            .min_by_key(|&i| (model[i].1, model[i].0))
                            .unwrap();
                        model.remove(victim);
                        want.evicted += 1;
                    }
                    model.push((src, tick));
                }
                want.cached_rows = model.len();
                let mut resident: Vec<NodeId> = model.iter().map(|&(s, _)| s).collect();
                resident.sort_unstable();
                let at = format!("capacity {capacity}, draw {seed}, lookup {tick}");
                assert_eq!(lazy.cached_sources(), resident, "{at}");
                assert_eq!(lazy.route_stats(), want, "{at}");
            }
            assert!(want.evicted > 0, "capacity {capacity} never evicted");
        }
    }

    /// The scale sweeps' smoke hierarchy: 20 routers (12 of them access),
    /// 120 stub hosts, paper costs.
    fn hier_smoke() -> (Graph, Vec<NodeId>) {
        let spec = TierSpec {
            ases: 2,
            pops_per_as: 3,
            access_per_pop: 2,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut topo = hierarchical(&spec, &mut rng);
        let hosts = attach_hosts(&mut topo, 120, &mut rng);
        costs::assign_paper_costs(&mut topo.graph, &mut rng);
        (topo.graph, hosts)
    }

    #[test]
    fn hosts_of_one_router_talk_without_any_row() {
        let (g, hosts) = hier_smoke();
        let lazy = OnDemandRoutes::new(&g, 64);
        let r = g.host_router(hosts[0]);
        let local: Vec<NodeId> = hosts
            .iter()
            .copied()
            .filter(|&h| g.host_router(h) == r)
            .collect();
        assert!(local.len() >= 10);
        for i in 0..500 {
            let (a, b) = (local[i % local.len()], local[(i + 1) % local.len()]);
            let cost = g.cost(a, r).unwrap() + g.cost(r, b).unwrap();
            assert_eq!(lazy.dist(a, b), Some(PathCost::from(cost)));
            assert_eq!(lazy.next_hop(a, b), Some(r));
        }
        assert_eq!(lazy.next_hop(r, local[0]), Some(local[0]));
        let s = lazy.route_stats();
        assert_eq!((s.computed, s.misses, s.cached_rows), (0, 0, 0));
        assert_eq!(s.hits, 1001, "a rowless answer counts as a hit");
    }

    #[test]
    fn rows_follow_routers_on_the_path_never_hosts() {
        // 119 hosts join toward one source host. Forwarding a join
        // consults the joiner's router and the routers after it; the last
        // one, the source's own router, hands over without a core leg. So
        // the rows are exactly the routers the joins cross — 12 access
        // routers and what lies between — however many hosts join.
        let (g, hosts) = hier_smoke();
        let lazy = OnDemandRoutes::new(&g, 64);
        let source = hosts[0];
        let mut crossed = std::collections::BTreeSet::new();
        for &h in &hosts[1..] {
            let path = RouteProvider::path(&lazy, h, source).expect("connected");
            assert_eq!(path[1], g.host_router(h));
            crossed.extend(&path[1..path.len() - 1]);
        }
        crossed.remove(&g.host_router(source));
        assert_eq!(lazy.cached_sources(), Vec::from_iter(crossed));
        let s = lazy.route_stats();
        assert_eq!(s.computed as usize, s.cached_rows);
        assert!(s.cached_rows < g.routers().count());
    }

    #[test]
    fn a_resident_row_is_core_wide() {
        let (g, hosts) = hier_smoke();
        let core = g.routers().count();
        let lazy = OnDemandRoutes::new(&g, 64);
        let empty = lazy.state_bytes();
        lazy.dist(hosts[0], hosts[1]);
        lazy.dist(hosts[1], hosts[0]);
        assert_eq!(lazy.route_stats().cached_rows, 2);
        assert_eq!(lazy.state_bytes() - empty, 2 * 8 * core);
        assert!(8 * core < 8 * g.node_count() / 5);
    }

    /// Two routers and a host, the routers' link priced so that 2 core
    /// nodes × its cost overflows a `u32` core leg by one.
    fn costlier_than_a_leg() -> Graph {
        let mut g = Graph::new();
        let (a, b) = (g.add_router(), g.add_router());
        g.add_link(a, b, 1, u32::MAX / 2 + 1);
        g.add_host(a, 1, 1);
        g
    }

    #[test]
    fn legs_fit_up_to_the_bound() {
        let mut g = costlier_than_a_leg();
        g.set_cost(EdgeId(1), u32::MAX / 2);
        let (a, b) = (NodeId(0), NodeId(1));
        let want = Some(PathCost::from(u32::MAX / 2));
        assert_eq!(OnDemandRoutes::new(&g, 1).dist(b, a), want);
        assert_eq!(RouteProvider::dist(&RoutingTables::compute(&g), b, a), want);
    }

    #[test]
    #[should_panic(expected = "overflows a u32 core-leg distance")]
    fn on_demand_refuses_costs_a_leg_cannot_hold() {
        OnDemandRoutes::new(&costlier_than_a_leg(), 1);
    }

    #[test]
    #[should_panic(expected = "overflows a u32 core-leg distance")]
    fn eager_refuses_costs_a_leg_cannot_hold() {
        RoutingTables::compute(&costlier_than_a_leg());
    }

    #[test]
    fn eager_stats_count_the_core_rows_searched() {
        // 18 routers searched; their 18 stub hosts are expanded from them.
        let g = isp(8);
        let s = RouteProvider::route_stats(&RoutingTables::compute(&g));
        assert_eq!(g.node_count(), 36);
        assert_eq!((s.computed, s.cached_rows), (18, 36));
    }

    #[test]
    fn eager_provider_reports_full_footprint() {
        let g = isp(8);
        let t = RoutingTables::compute(&g);
        let view = Contracted::from_graph(&g);
        let (n, c) = (g.node_count(), view.core_nodes().len());
        // An 8-byte step per pair, an 8-byte core leg per core pair, the
        // contracted view and the three masks.
        assert_eq!(
            RouteProvider::state_bytes(&t),
            n * n * 8 + c * c * 8 + view.bytes() + n + c + g.directed_edge_count()
        );
        let lazy = OnDemandRoutes::new(&g, 64);
        lazy.dist(g.nodes().next().unwrap(), g.nodes().nth(1).unwrap());
        assert!(lazy.state_bytes() < RouteProvider::state_bytes(&t));
    }
}
