//! Internet-scale sweeps: hierarchical AS/POP/access topologies with
//! thousands of routers and ≥100k attached hosts, driven through the same
//! paired-run machinery as the paper figures.
//!
//! The paper argues HBH scales because routers keep state only where trees
//! pass; this module makes the *harness* honour the same principle. At 5k
//! routers an eager all-pairs table would pin `n² ≈ 26M` entries per draw
//! — hundreds of megabytes and minutes of Dijkstra before the first event
//! fires. Scale scenarios therefore always run on
//! [`Network::on_demand`]: SPF rows materialize only for the routers that
//! actually forward (tree nodes) and span only the router core — the 100k
//! single-homed hosts are resolved through their access router — the LRU
//! bounds residency, and the reported [`RouteStats`] make the
//! O(n²) → O(used) claim a number.
//!
//! The topology (and host attachment) is frozen per configuration; each
//! run redraws per-direction link costs from the paper's `U[1, 10]`, picks
//! a source host and samples the receiver group, exactly mirroring §4.1
//! methodology on the big graph. PIM-SM is not an arm here: its central-RP
//! placement scans routers × hosts, an all-pairs consumer by design (see
//! `protocols::pick_rp`).

use crate::protocols::{run_protocol, ProtocolKind};
use crate::scenario::Scenario;
use hbh_proto_base::workload::{join_schedule, sample_receivers};
use hbh_proto_base::Timing;
use hbh_routing::RouteStats;
use hbh_sim_core::{Network, Time};
use hbh_topo::costs;
use hbh_topo::graph::{Graph, NodeId, PathCost};
use hbh_topo::hier::{attach_hosts, hierarchical, TierSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// One scale sweep: topology shape, load, and run plan.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Routers per tier (see [`TierSpec`]).
    pub spec: TierSpec,
    /// End hosts attached round-robin to the access tier.
    pub hosts: usize,
    /// Receivers sampled per run.
    pub group_size: usize,
    /// Independent paired runs (cost draw + membership per run).
    pub runs: usize,
    pub base_seed: u64,
    /// LRU capacity of the on-demand route cache, in SPF rows.
    pub cache_rows: usize,
    pub timing: Timing,
    /// Protocol arms; all run on the same draw per run.
    pub protocols: Vec<ProtocolKind>,
}

/// The protocols that stay viable at scale (no all-pairs consumers).
pub const SCALE_ARMS: [ProtocolKind; 3] = [
    ProtocolKind::PimSs,
    ProtocolKind::Reunite,
    ProtocolKind::Hbh,
];

impl ScaleConfig {
    /// CI-sized configuration: ~38 routers, 120 hosts — the full code path
    /// (hierarchy, on-demand routing, cache accounting) in well under a
    /// second.
    pub fn smoke() -> Self {
        ScaleConfig {
            spec: TierSpec {
                ases: 2,
                pops_per_as: 3,
                access_per_pop: 2,
            },
            hosts: 120,
            group_size: 12,
            runs: 3,
            base_seed: 7,
            cache_rows: 256,
            timing: Timing::default(),
            protocols: SCALE_ARMS.to_vec(),
        }
    }

    /// The acceptance-scale configuration: 5,020 routers
    /// (20 AS × 10 POP × 24 access), 100k hosts.
    pub fn full() -> Self {
        ScaleConfig {
            spec: TierSpec {
                ases: 20,
                pops_per_as: 10,
                access_per_pop: 24,
            },
            hosts: 100_000,
            group_size: 256,
            runs: 3,
            base_seed: 7,
            cache_rows: 4096,
            timing: Timing::default(),
            protocols: SCALE_ARMS.to_vec(),
        }
    }

    /// Total routers this configuration builds.
    pub fn router_count(&self) -> usize {
        self.spec.router_count()
    }
}

/// Aggregates of one protocol arm over all runs.
#[derive(Clone, Debug)]
pub struct ScaleArm {
    pub kind: ProtocolKind,
    pub cost_mean: f64,
    pub delay_mean: f64,
    /// Runs where not every receiver was served (must stay 0).
    pub incomplete: u64,
    /// Runs that failed to quiesce before the probe (should stay 0).
    pub unconverged: u64,
    /// Kernel events dispatched, summed over runs.
    pub events: u64,
}

/// Result of a scale sweep, ready for JSON serialization.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    pub routers: usize,
    pub hosts: usize,
    /// Directed edges of the loaded graph (router mesh + host links).
    pub directed_edges: usize,
    pub runs: usize,
    pub group_size: usize,
    pub cache_rows: usize,
    pub per_protocol: Vec<ScaleArm>,
    pub wall_secs: f64,
    /// Events across all arms and runs.
    pub events: u64,
    pub events_per_sec: f64,
    /// Route-cache counters summed over the runs' networks.
    pub route_stats: RouteStats,
    /// Peak bytes pinned by cached SPF rows in any single run.
    pub route_bytes: usize,
    /// What eager all-pairs tables would pin for the same topology
    /// (`n² × (dist + next-hop entry)`).
    pub all_pairs_bytes: usize,
    /// The contracted topology view the provider routes over (core
    /// adjacency, edge index, and the stub maps `route_bytes` also
    /// counts); the same for every run.
    pub structure_bytes: usize,
}

impl ScaleReport {
    /// How many times smaller the route cache is than hypothetical eager
    /// tables — the O(n²) → O(used) headline number.
    pub fn memory_ratio(&self) -> f64 {
        self.all_pairs_bytes as f64 / self.route_bytes.max(1) as f64
    }

    /// Fraction of route lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        self.route_stats.hit_rate()
    }

    /// Total incomplete runs across arms.
    pub fn incomplete(&self) -> u64 {
        self.per_protocol.iter().map(|a| a.incomplete).sum()
    }

    /// Total runs that failed to quiesce before the probe, across arms.
    pub fn unconverged(&self) -> u64 {
        self.per_protocol.iter().map(|a| a.unconverged).sum()
    }

    /// One record of the `BENCH_scale.json` history: the sweep `cfg`
    /// described, what it measured, and the process's peak RSS.
    pub fn to_json(&self, cfg: &ScaleConfig, peak_rss_kb: u64) -> String {
        let arms: Vec<String> = self
            .per_protocol
            .iter()
            .map(|arm| {
                format!(
                    "    {{\"name\": \"{}\", \"cost_mean\": {:.3}, \"delay_mean\": {:.3}, \
                     \"incomplete\": {}, \"unconverged\": {}, \"events\": {}}}",
                    arm.kind.name(),
                    arm.cost_mean,
                    arm.delay_mean,
                    arm.incomplete,
                    arm.unconverged,
                    arm.events,
                )
            })
            .collect();
        let s = &self.route_stats;
        format!(
            "{{\n  \"topology\": {{\"ases\": {}, \"pops_per_as\": {}, \"access_per_pop\": {}, \
             \"routers\": {}, \"hosts\": {}, \"directed_edges\": {}}},\n  \
             \"sweep\": {{\"runs\": {}, \"group_size\": {}, \"base_seed\": {}}},\n  \
             \"protocols\": [\n{}\n  ],\n  \
             \"routes\": {{\"cache_rows\": {}, \"computed\": {}, \"hits\": {}, \"misses\": {}, \
             \"evicted\": {}, \"peak_cached_rows\": {}, \
             \"cache_hit_rate\": {:.4}}},\n  \
             \"memory\": {{\"route_bytes\": {}, \"bytes_per_router\": {:.1}, \
             \"all_pairs_bytes\": {}, \"memory_ratio\": {:.2}, \"structure_bytes\": {}, \
             \"peak_rss_kb\": {peak_rss_kb}}},\n  \
             \"throughput\": {{\"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.1}}}\n}}\n",
            cfg.spec.ases,
            cfg.spec.pops_per_as,
            cfg.spec.access_per_pop,
            self.routers,
            self.hosts,
            self.directed_edges,
            self.runs,
            self.group_size,
            cfg.base_seed,
            arms.join(",\n"),
            self.cache_rows,
            s.computed,
            s.hits,
            s.misses,
            s.evicted,
            s.cached_rows,
            self.hit_rate(),
            self.route_bytes,
            self.route_bytes as f64 / self.routers as f64,
            self.all_pairs_bytes,
            self.memory_ratio(),
            self.structure_bytes,
            self.wall_secs * 1e3,
            self.events,
            self.events_per_sec,
        )
    }
}

/// Builds the frozen topology of `cfg`: hierarchy + hosts, no costs yet.
/// Deterministic per configuration (the seed folds in the tier shape, so
/// differently shaped sweeps don't alias).
pub fn build_scale_graph(cfg: &ScaleConfig) -> Graph {
    let shape = (cfg.spec.ases as u64) << 32
        | (cfg.spec.pops_per_as as u64) << 16
        | cfg.spec.access_per_pop as u64;
    let mut rng = StdRng::seed_from_u64(cfg.base_seed ^ 0x5CA1E ^ shape);
    let mut topo = hierarchical(&cfg.spec, &mut rng);
    attach_hosts(&mut topo, cfg.hosts, &mut rng);
    topo.graph
}

/// Builds run `run` of the sweep over the shared frozen `template`:
/// per-run cost draw, source host, receiver sample, join schedule, and an
/// on-demand network sized by `cfg.cache_rows`.
pub fn build_scale_scenario(cfg: &ScaleConfig, template: &Graph, run: usize) -> Scenario {
    let run_seed = cfg.base_seed ^ ((run as u64) << 40) ^ 0x5EED_5CA1E;
    let mut rng = StdRng::seed_from_u64(run_seed);
    let mut graph = template.clone();
    costs::assign_paper_costs(&mut graph, &mut rng);

    let hosts: Vec<NodeId> = graph.hosts().collect();
    let source = hosts[rng.random_range(0..hosts.len())];
    let pool: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != source).collect();
    let receivers = sample_receivers(&pool, cfg.group_size, &mut rng);
    let join_window = 20 * cfg.timing.join_period;
    let join_times = join_schedule(&receivers, Time(0), join_window, &mut rng);

    let network = Network::on_demand(graph, cfg.cache_rows);
    Scenario::from_parts(
        network,
        source,
        receivers,
        join_times,
        join_window,
        run_seed,
    )
}

/// Runs the sweep: `cfg.runs` paired draws, every arm on each draw, route
/// cache shared across the arms of a draw (the paired kernels warm it for
/// each other). Runs execute sequentially — at 5k routers a single run's
/// working set is the right unit of memory residency.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let template = build_scale_graph(cfg);
    let start = Instant::now();

    let mut arms: Vec<ScaleArm> = cfg
        .protocols
        .iter()
        .map(|&kind| ScaleArm {
            kind,
            cost_mean: 0.0,
            delay_mean: 0.0,
            incomplete: 0,
            unconverged: 0,
            events: 0,
        })
        .collect();
    let mut route_stats = RouteStats::default();
    let mut route_bytes = 0usize;
    let mut structure_bytes = 0usize;

    for run in 0..cfg.runs {
        let sc = build_scale_scenario(cfg, &template, run);
        for (arm, &kind) in arms.iter_mut().zip(&cfg.protocols) {
            let o = run_protocol(kind, &sc, &cfg.timing);
            arm.cost_mean += o.cost as f64 / cfg.runs as f64;
            arm.delay_mean += o.avg_delay() / cfg.runs as f64;
            if !o.complete() {
                arm.incomplete += 1;
            }
            if !o.converged {
                arm.unconverged += 1;
            }
            arm.events += o.events;
        }
        let s = sc.network().routes().route_stats();
        route_stats.computed += s.computed;
        route_stats.hits += s.hits;
        route_stats.misses += s.misses;
        route_stats.evicted += s.evicted;
        route_stats.cached_rows = route_stats.cached_rows.max(s.cached_rows);
        route_bytes = route_bytes.max(sc.network().routes().state_bytes());
        structure_bytes = sc.network().route_structure_bytes().unwrap_or(0);
        eprintln!(
            "run {}/{}: {} rows cached, {} computed, hit rate {:.1}%",
            run + 1,
            cfg.runs,
            s.cached_rows,
            s.computed,
            s.hit_rate() * 100.0
        );
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let events: u64 = arms.iter().map(|a| a.events).sum();
    let n = template.node_count();
    ScaleReport {
        routers: cfg.router_count(),
        hosts: cfg.hosts,
        directed_edges: template.directed_edge_count(),
        runs: cfg.runs,
        group_size: cfg.group_size,
        cache_rows: cfg.cache_rows,
        per_protocol: arms,
        wall_secs,
        events,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        route_stats,
        route_bytes,
        all_pairs_bytes: n * n * (size_of::<PathCost>() + size_of::<Option<NodeId>>()),
        structure_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_completes_and_caches() {
        let cfg = ScaleConfig::smoke();
        let report = run_scale(&cfg);
        assert_eq!(report.routers, 2 * (1 + 3 * 3));
        assert_eq!(report.hosts, 120);
        assert_eq!(report.incomplete(), 0, "every receiver must be served");
        for arm in &report.per_protocol {
            assert_eq!(arm.unconverged, 0, "{} failed to converge", arm.kind.name());
            assert!(arm.cost_mean > 0.0);
        }
        assert!(report.route_stats.computed > 0);
        assert!(
            report.hit_rate() > 0.5,
            "paired arms must share warm rows (hit rate {:.2})",
            report.hit_rate()
        );
        assert!(report.route_bytes > 0);
        assert!(report.structure_bytes > 0);
        assert!(report.memory_ratio() > 1.0);
    }

    #[test]
    fn scale_scenarios_are_reproducible_and_paired() {
        let cfg = ScaleConfig::smoke();
        let template = build_scale_graph(&cfg);
        let a = build_scale_scenario(&cfg, &template, 0);
        let b = build_scale_scenario(&cfg, &template, 0);
        assert_eq!(a.source, b.source);
        assert_eq!(a.receivers, b.receivers);
        assert_eq!(a.join_times, b.join_times);
        let c = build_scale_scenario(&cfg, &template, 1);
        assert!(a.source != c.source || a.receivers != c.receivers);
    }

    #[test]
    fn scale_networks_are_on_demand() {
        let cfg = ScaleConfig::smoke();
        let template = build_scale_graph(&cfg);
        let sc = build_scale_scenario(&cfg, &template, 0);
        assert!(sc.network().is_on_demand());
    }
}
