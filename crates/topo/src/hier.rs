//! Hierarchical AS/POP/access topologies for internet-scale sweeps.
//!
//! The paper evaluates on an 18-router ISP map and a 50-node random
//! graph; the scale experiments need Rocketfuel-flavoured hierarchy:
//! a backbone of autonomous systems, points of presence inside each AS,
//! and access routers fanning out of each POP, with end hosts attached at
//! the access tier only. [`hierarchical`] builds such a topology
//! *connected by construction* — a deterministic spanning skeleton
//! (backbone ring, POP-to-core star, access-to-POP star) plus
//! Waxman-style random shortcuts at the backbone and POP tiers — so no
//! rejection sampling is needed at 5k+ routers, unlike
//! [`crate::random::gnp_with_avg_degree`].
//!
//! Node id layout (dense, deterministic): all routers first, AS by AS
//! (core, then its POPs, then each POP's access routers), then every host
//! appended by [`attach_hosts`]. Links carry placeholder unit costs; draw
//! real costs afterwards with [`crate::costs`].

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// Shape of a hierarchical topology: routers per tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierSpec {
    /// Autonomous systems (each contributes one backbone core router).
    pub ases: usize,
    /// POP routers per AS.
    pub pops_per_as: usize,
    /// Access routers per POP (hosts attach only here).
    pub access_per_pop: usize,
}

impl TierSpec {
    /// Total routers this spec produces.
    pub fn router_count(&self) -> usize {
        self.ases * (1 + self.pops_per_as * (1 + self.access_per_pop))
    }
}

/// A generated hierarchical topology with its tier membership.
#[derive(Clone, Debug)]
pub struct HierTopology {
    /// The graph (routers only until [`attach_hosts`] is called).
    pub graph: Graph,
    /// Backbone core routers, one per AS.
    pub cores: Vec<NodeId>,
    /// POP routers, grouped implicitly by AS in id order.
    pub pops: Vec<NodeId>,
    /// Access routers — the only valid host attachment points.
    pub access: Vec<NodeId>,
}

/// Waxman connection probability for two points in the unit square.
fn waxman_p(a: (f64, f64), b: (f64, f64), alpha: f64, beta: f64) -> f64 {
    let l = std::f64::consts::SQRT_2;
    let dist = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
    alpha * (-dist / (beta * l)).exp()
}

/// Builds a connected AS/POP/access hierarchy (see module docs).
///
/// Deterministic per `(spec, rng state)`. All links get unit costs.
///
/// # Panics
/// Panics if any tier count is zero.
pub fn hierarchical(spec: &TierSpec, rng: &mut StdRng) -> HierTopology {
    assert!(
        spec.ases >= 1 && spec.pops_per_as >= 1 && spec.access_per_pop >= 1,
        "every tier needs at least one router"
    );
    let mut g = Graph::new();
    let mut cores = Vec::with_capacity(spec.ases);
    let mut pops = Vec::with_capacity(spec.ases * spec.pops_per_as);
    let mut access = Vec::with_capacity(spec.ases * spec.pops_per_as * spec.access_per_pop);

    for _ in 0..spec.ases {
        let core = g.add_router();
        cores.push(core);
        let as_pop_base = pops.len();
        for _ in 0..spec.pops_per_as {
            let pop = g.add_router();
            pops.push(pop);
            // Spanning skeleton: every POP hangs off its AS core.
            g.add_link(core, pop, 1, 1);
            for _ in 0..spec.access_per_pop {
                let acc = g.add_router();
                access.push(acc);
                g.add_link(pop, acc, 1, 1);
            }
        }
        // Intra-AS POP shortcuts: Waxman over positions drawn per POP.
        let as_pops = &pops[as_pop_base..];
        let pos: Vec<(f64, f64)> = as_pops
            .iter()
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        for i in 0..as_pops.len() {
            for j in (i + 1)..as_pops.len() {
                if rng.random::<f64>() < waxman_p(pos[i], pos[j], 0.7, 0.35) {
                    g.add_link(as_pops[i], as_pops[j], 1, 1);
                }
            }
        }
    }

    // Backbone: ring skeleton (guarantees inter-AS connectivity) plus
    // Waxman shortcuts between cores.
    if spec.ases >= 2 {
        for i in 0..spec.ases {
            let j = (i + 1) % spec.ases;
            if i < j && g.cost(cores[i], cores[j]).is_none() {
                g.add_link(cores[i], cores[j], 1, 1);
            }
        }
        let pos: Vec<(f64, f64)> = cores
            .iter()
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        for i in 0..spec.ases {
            for j in (i + 1)..spec.ases {
                if g.cost(cores[i], cores[j]).is_none()
                    && rng.random::<f64>() < waxman_p(pos[i], pos[j], 0.5, 0.25)
                {
                    g.add_link(cores[i], cores[j], 1, 1);
                }
            }
        }
    }

    // Redundancy: a fraction of access routers get a second uplink to
    // another POP of the same AS, so single-POP failures are survivable
    // in churn studies at scale.
    if spec.pops_per_as >= 2 {
        let per_as = spec.pops_per_as * spec.access_per_pop;
        for (ai, chunk) in access.chunks(per_as).enumerate() {
            let as_pops = &pops[ai * spec.pops_per_as..(ai + 1) * spec.pops_per_as];
            for (k, &acc) in chunk.iter().enumerate() {
                if rng.random::<f64>() < 0.2 {
                    let home = as_pops[k / spec.access_per_pop];
                    let alt = as_pops[rng.random_range(0..as_pops.len())];
                    if alt != home && g.cost(acc, alt).is_none() {
                        g.add_link(acc, alt, 1, 1);
                    }
                }
            }
        }
    }

    HierTopology {
        graph: g,
        cores,
        pops,
        access,
    }
}

/// Attaches `hosts` end hosts to the access tier, round-robin over a
/// seeded random starting permutation — every access router gets
/// `hosts / access.len()` hosts ±1, but *which* routers carry the
/// remainder varies per seed. Host ids are dense after all routers, in
/// attachment order. Returns the attached hosts.
///
/// # Panics
/// Panics if the topology has no access routers.
pub fn attach_hosts(topo: &mut HierTopology, hosts: usize, rng: &mut StdRng) -> Vec<NodeId> {
    assert!(!topo.access.is_empty(), "no access tier to attach hosts to");
    let offset = rng.random_range(0..topo.access.len());
    let mut out = Vec::with_capacity(hosts);
    for i in 0..hosts {
        let r = topo.access[(offset + i) % topo.access.len()];
        out.push(topo.graph.add_host(r, 1, 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    const SMALL: TierSpec = TierSpec {
        ases: 4,
        pops_per_as: 3,
        access_per_pop: 2,
    };

    #[test]
    fn router_count_matches_spec() {
        let t = hierarchical(&SMALL, &mut rng(1));
        assert_eq!(SMALL.router_count(), 4 * (1 + 3 * (1 + 2)));
        assert_eq!(t.graph.node_count(), SMALL.router_count());
        assert_eq!(t.cores.len(), 4);
        assert_eq!(t.pops.len(), 12);
        assert_eq!(t.access.len(), 24);
    }

    #[test]
    fn connected_by_construction() {
        for seed in 0..8 {
            let t = hierarchical(&SMALL, &mut rng(seed));
            assert!(analysis::is_connected(&t.graph), "seed {seed} disconnected");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = hierarchical(&SMALL, &mut rng(42));
        let b = hierarchical(&SMALL, &mut rng(42));
        assert_eq!(a.graph.undirected_links(), b.graph.undirected_links());
        let c = hierarchical(&SMALL, &mut rng(43));
        assert_ne!(a.graph.undirected_links(), c.graph.undirected_links());
    }

    #[test]
    fn hosts_attach_only_to_access_routers() {
        let mut t = hierarchical(&SMALL, &mut rng(3));
        let hosts = attach_hosts(&mut t, 50, &mut rng(4));
        assert_eq!(hosts.len(), 50);
        assert_eq!(t.graph.hosts().count(), 50);
        for &h in &hosts {
            assert!(t.access.contains(&t.graph.host_router(h)));
        }
        // Round-robin: per-router load is balanced within 1.
        let loads: Vec<usize> = t
            .access
            .iter()
            .map(|&a| {
                t.graph
                    .neighbors(a)
                    .filter(|e| t.graph.is_host(e.to))
                    .count()
            })
            .collect();
        let (lo, hi) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(hi - lo <= 1, "unbalanced host attachment: {lo}..{hi}");
    }

    #[test]
    fn single_as_degenerates_to_pop_star() {
        let spec = TierSpec {
            ases: 1,
            pops_per_as: 2,
            access_per_pop: 2,
        };
        let t = hierarchical(&spec, &mut rng(5));
        assert!(analysis::is_connected(&t.graph));
        assert_eq!(t.graph.node_count(), 7);
    }

    #[test]
    fn scale_spec_builds_quickly_and_connected() {
        // A mid-size sanity point between the unit tests and the 5k-router
        // bench: ~500 routers.
        let spec = TierSpec {
            ases: 8,
            pops_per_as: 6,
            access_per_pop: 9,
        };
        let mut t = hierarchical(&spec, &mut rng(6));
        assert_eq!(t.graph.node_count(), spec.router_count());
        assert!(analysis::is_connected(&t.graph));
        let hosts = attach_hosts(&mut t, 1000, &mut rng(7));
        assert_eq!(hosts.len(), 1000);
        assert!(analysis::is_connected(&t.graph));
    }
}
