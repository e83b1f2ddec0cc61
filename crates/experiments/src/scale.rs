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

use crate::figures::sweep::{point, Count, Point};
use crate::protocols::{ProtocolKind, Study};
use crate::runner::{run_probe, ProbeOutcome, RunConfig};
use crate::scenario::{hierarchy, hierarchy_draw, Scenario};
use hbh_proto_base::workload::WorkloadGen;
use hbh_proto_base::{Channel, Cmd, Timing, Workload};
use hbh_routing::RouteStats;
use hbh_sim_core::{Kernel, Network, Protocol};
use hbh_topo::graph::{Graph, NodeId, PathCost};
use hbh_topo::hier::TierSpec;
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

/// What one arm measured on one draw, and the draw's shared route cache as
/// that arm left it.
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    pub probe: ProbeOutcome,
    /// The cache's counters, cumulative over the draw's arms so far.
    pub routes: RouteStats,
    /// Bytes pinned by the cached SPF rows.
    pub route_bytes: usize,
    /// The contracted topology view the provider routes over.
    pub structure_bytes: usize,
}

/// The standard converge-then-probe run, plus a snapshot of the route
/// cache after it.
struct ScaleStudy;

impl Study for ScaleStudy {
    type Out = ScaleOutcome;

    fn run<P: Protocol<Command = Cmd>>(
        &self,
        k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> ScaleOutcome {
        let probe = run_probe(k, ch, scenario, timing);
        let net = scenario.network();
        ScaleOutcome {
            probe,
            routes: net.routes().route_stats(),
            route_bytes: net.routes().state_bytes(),
            structure_bytes: net.route_structure_bytes().unwrap_or(0),
        }
    }
}

/// Draws where not every receiver was served (must stay 0).
const INCOMPLETE: Count<ScaleOutcome> = ("incomplete", |o| !o.probe.complete());
/// Draws that failed to quiesce before the probe (should stay 0).
const UNCONVERGED: Count<ScaleOutcome> = ("unconverged", |o| !o.probe.converged);

/// Result of a scale sweep, ready for JSON serialization.
pub struct ScaleReport {
    /// Directed edges of the loaded graph (router mesh + host links).
    pub directed_edges: usize,
    /// Every arm's outcome on every draw.
    pub point: Point<ScaleOutcome>,
    pub wall_secs: f64,
    /// Route-cache counters summed over the runs' networks.
    pub route_stats: RouteStats,
    /// Peak bytes pinned by cached SPF rows in any single run.
    pub route_bytes: usize,
    /// What a hypothetical `n×n` table of `(dist, next hop)` would pin for
    /// the same topology (`n² × 16` bytes): the yardstick every record of
    /// `BENCH_scale.json` divides by.
    pub all_pairs_bytes: usize,
    /// The contracted topology view the provider routes over (core
    /// adjacency and the stub maps `route_bytes` also counts); the same
    /// for every run.
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
        self.point.total(INCOMPLETE)
    }

    /// Total runs that failed to quiesce before the probe, across arms.
    pub fn unconverged(&self) -> u64 {
        self.point.total(UNCONVERGED)
    }

    /// One record of the `BENCH_scale.json` history: the sweep `cfg`
    /// described, what it measured, and the process's peak RSS.
    pub fn to_json(&self, cfg: &ScaleConfig, peak_rss_kb: u64) -> String {
        let runs = cfg.runs as f64;
        let arms: Vec<String> = self
            .point
            .arms
            .iter()
            .map(|(kind, draws)| {
                // Σ (x / runs) in draw order, the fold every committed
                // record used: `Summary`'s mean can differ in the last ulp,
                // which a tie at the third decimal would print.
                let mean = |x: fn(&ProbeOutcome) -> f64| {
                    draws.iter().map(|o| x(&o.probe) / runs).sum::<f64>()
                };
                format!(
                    "    {{\"name\": \"{}\", \"cost_mean\": {:.3}, \"delay_mean\": {:.3}, \
                     \"incomplete\": {}, \"unconverged\": {}, \"events\": {}}}",
                    kind.name(),
                    mean(|o| o.cost as f64),
                    mean(ProbeOutcome::avg_delay),
                    self.point.count(*kind, INCOMPLETE),
                    self.point.count(*kind, UNCONVERGED),
                    draws.iter().map(|o| o.probe.events).sum::<u64>(),
                )
            })
            .collect();
        let s = &self.route_stats;
        let all = self.point.arms.iter().flat_map(|(_, draws)| draws);
        let events: u64 = all.map(|o| o.probe.events).sum();
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
            cfg.router_count(),
            cfg.hosts,
            self.directed_edges,
            cfg.runs,
            cfg.group_size,
            cfg.base_seed,
            arms.join(",\n"),
            cfg.cache_rows,
            s.computed,
            s.hits,
            s.misses,
            s.evicted,
            s.cached_rows,
            self.hit_rate(),
            self.route_bytes,
            self.route_bytes as f64 / cfg.router_count() as f64,
            self.all_pairs_bytes,
            self.memory_ratio(),
            self.structure_bytes,
            self.wall_secs * 1e3,
            events,
            events as f64 / self.wall_secs.max(1e-9),
        )
    }
}

/// Builds the frozen topology of `cfg`: hierarchy + hosts, no costs yet.
/// Deterministic per configuration.
pub fn build_scale_graph(cfg: &ScaleConfig) -> Graph {
    hierarchy(&cfg.spec, cfg.hosts, cfg.base_seed ^ 0x5CA1E)
}

/// Builds run `run` of the sweep over the shared frozen `template`:
/// per-run cost draw, source host, the paper's receiver sample and join
/// schedule, and an on-demand network sized by `cfg.cache_rows`.
pub fn build_scale_scenario(cfg: &ScaleConfig, template: &Graph, run: usize) -> Scenario {
    let run_seed = cfg.base_seed ^ ((run as u64) << 40) ^ 0x5EED_5CA1E;
    let (graph, source, mut rng) = hierarchy_draw(template, run_seed);
    let pool: Vec<NodeId> = graph.hosts().filter(|&h| h != source).collect();
    let plan = Workload::paper_figure(cfg.group_size, 20).plan(
        &pool,
        Channel::primary(source),
        &cfg.timing,
        &mut rng,
    );
    Scenario::from_parts(
        Network::on_demand(graph, cfg.cache_rows),
        source,
        plan.receivers,
        plan.join_times,
        plan.join_window,
        run_seed,
    )
}

/// Runs the sweep: `cfg.runs` paired draws, every arm on each draw, route
/// cache shared across the arms of a draw (the paired kernels warm it for
/// each other). Draws run on one worker — at 5k routers a single draw's
/// working set is the right unit of memory residency.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let template = build_scale_graph(cfg);
    let start = Instant::now();
    let run = RunConfig {
        runs: cfg.runs,
        timing: cfg.timing,
        protocols: cfg.protocols.clone(),
        workers: 1,
        ..RunConfig::default()
    };
    let point = point(&run, |i| {
        Some((build_scale_scenario(cfg, &template, i), ScaleStudy))
    });
    let wall_secs = start.elapsed().as_secs_f64();

    // The cache's counters run on across a draw's arms, so a draw's totals
    // are what its last arm saw.
    let draws = point.arms.last().map_or(&[][..], |(_, draws)| draws);
    let sum = |of: fn(&RouteStats) -> u64| draws.iter().map(|o| of(&o.routes)).sum();
    let route_stats = RouteStats {
        computed: sum(|s| s.computed),
        hits: sum(|s| s.hits),
        misses: sum(|s| s.misses),
        evicted: sum(|s| s.evicted),
        cached_rows: draws
            .iter()
            .map(|o| o.routes.cached_rows)
            .max()
            .unwrap_or(0),
    };
    let route_bytes = draws.iter().map(|o| o.route_bytes).max().unwrap_or(0);
    let structure_bytes = draws.last().map_or(0, |o| o.structure_bytes);
    let n = template.node_count();
    ScaleReport {
        directed_edges: template.directed_edge_count(),
        point,
        wall_secs,
        route_stats,
        route_bytes,
        all_pairs_bytes: n * n * (size_of::<PathCost>() + size_of::<Option<NodeId>>()),
        structure_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke record up to its wall-clock-bearing `throughput` object,
    /// at a peak RSS of 0: every number the sweep simulates or counts.
    const SMOKE_RECORD: &str = r#"{
  "topology": {"ases": 2, "pops_per_as": 3, "access_per_pop": 2, "routers": 20, "hosts": 120, "directed_edges": 286},
  "sweep": {"runs": 3, "group_size": 12, "base_seed": 7},
  "protocols": [
    {"name": "PIM-SS", "cost_mean": 27.333, "delay_mean": 28.944, "incomplete": 0, "unconverged": 0, "events": 9436},
    {"name": "REUNITE", "cost_mean": 31.333, "delay_mean": 27.667, "incomplete": 0, "unconverged": 0, "events": 14778},
    {"name": "HBH", "cost_mean": 27.333, "delay_mean": 27.611, "incomplete": 0, "unconverged": 0, "events": 31234}
  ],
  "routes": {"cache_rows": 256, "computed": 46, "hits": 41513, "misses": 46, "evicted": 0, "peak_cached_rows": 17, "cache_hit_rate": 0.9989},
  "memory": {"route_bytes": 6206, "bytes_per_router": 310.3, "all_pairs_bytes": 313600, "memory_ratio": 50.53, "structure_bytes": 3696, "peak_rss_kb": 0},
"#;

    #[test]
    fn smoke_sweep_completes_and_caches() {
        let cfg = ScaleConfig::smoke();
        let report = run_scale(&cfg);
        assert_eq!(cfg.router_count(), 2 * (1 + 3 * 3));
        assert_eq!(report.incomplete(), 0, "every receiver must be served");
        assert_eq!(report.unconverged(), 0, "an arm failed to converge");
        let costs = |(_, draws): &(_, Vec<ScaleOutcome>)| draws.iter().any(|o| o.probe.cost > 0);
        assert!(report.point.arms.iter().all(costs));
        assert!(report.route_stats.computed > 0);
        assert!(
            report.hit_rate() >= 0.95,
            "paired arms must share warm rows (hit rate {:.2})",
            report.hit_rate()
        );
        assert!(report.route_bytes > 0);
        assert!(report.structure_bytes > 0);
        // Rows are router-wide: a host-wide row would read ≈ 4.6 here.
        assert!(
            report.memory_ratio() >= 25.0,
            "route cache vs. all-pairs tables (memory ratio {:.2})",
            report.memory_ratio()
        );
        let record = report.to_json(&cfg, 0);
        let simulated = record.split("  \"throughput\"").next().unwrap();
        assert_eq!(simulated, SMOKE_RECORD);
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
