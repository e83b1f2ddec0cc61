//! Scenario construction: topology + per-run cost draw + receiver sample +
//! join schedule (§4.1 of the paper), and the hierarchy and cost draw the
//! two internet-scale sweeps share.

use hbh_proto_base::workload::WorkloadGen;
use hbh_proto_base::{Channel, Script, Timing, Workload};
use hbh_sim_core::{Network, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::hier::{attach_hosts, hierarchical, TierSpec};
use hbh_topo::{costs, isp, random};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

/// Seed that fixes the 50-node random topology across all runs (the paper
/// simulates *a* random topology, varying costs and receivers per run).
pub const RAND50_TOPO_SEED: u64 = 0xC0FFEE;

/// Seed fixing the Waxman topology (generalization check beyond the
/// paper's two topologies).
pub const WAXMAN_TOPO_SEED: u64 = 0xAC5;

/// Which evaluation topology to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// The 18-router ISP backbone of Figure 6 (source fixed at host 18).
    Isp,
    /// The 50-node random topology with average degree 8.6.
    Rand50,
    /// A 30-router Waxman graph (α = 0.9, β = 0.3): geometry-flavoured
    /// randomness the paper did not test, used as a generalization check.
    Waxman30,
}

impl TopologyKind {
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Isp => "isp",
            TopologyKind::Rand50 => "rand50",
            TopologyKind::Waxman30 => "waxman30",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "isp" => Some(TopologyKind::Isp),
            "rand50" => Some(TopologyKind::Rand50),
            "waxman30" => Some(TopologyKind::Waxman30),
            _ => None,
        }
    }

    /// The family's fixed topology, costs not yet drawn, and its source
    /// host (the paper simulates *a* topology per family, varying costs and
    /// receivers per run). Generated once per process; a draw clones it.
    fn template(self) -> &'static (Graph, NodeId) {
        static TEMPLATES: [OnceLock<(Graph, NodeId)>; 3] = [const { OnceLock::new() }; 3];
        TEMPLATES[self as usize].get_or_init(|| match self {
            TopologyKind::Isp => (isp::isp_topology(), isp::SOURCE_HOST),
            TopologyKind::Rand50 => {
                let mut topo_rng = StdRng::seed_from_u64(RAND50_TOPO_SEED);
                // Source fixed at the first router's host, mirroring the ISP
                // convention (host n on router 0 → NodeId(50)).
                (random::rand50(&mut topo_rng), NodeId(50))
            }
            TopologyKind::Waxman30 => {
                let mut topo_rng = StdRng::seed_from_u64(WAXMAN_TOPO_SEED);
                (random::waxman(30, 0.9, 0.3, &mut topo_rng), NodeId(30))
            }
        })
    }

    /// The largest group [`build`] can sample on this topology: every host
    /// but the source.
    pub fn receiver_pool(self) -> usize {
        self.template().0.hosts().count() - 1
    }

    /// The group sizes plotted in the paper for this topology (Waxman is
    /// ours; it gets a proportional sweep).
    pub fn paper_group_sizes(self) -> Vec<usize> {
        match self {
            TopologyKind::Isp => (2..=16).step_by(2).collect(),
            TopologyKind::Rand50 => (5..=45).step_by(5).collect(),
            TopologyKind::Waxman30 => (4..=28).step_by(4).collect(),
        }
    }
}

/// One fully specified experiment run: every protocol is evaluated on this
/// exact draw (paired comparison).
///
/// The topology and its all-pairs unicast routes live in one immutable
/// [`Network`] built when the scenario is drawn. Every kernel in the paired
/// comparison clones the `Network` (an `Arc` bump), so the all-pairs
/// Dijkstra runs once per draw, not once per protocol — the only sharing
/// §4.1 needs.
#[derive(Clone, Debug)]
pub struct Scenario {
    network: Network,
    /// The source host.
    pub source: NodeId,
    /// Receivers, in sampling order.
    pub receivers: Vec<NodeId>,
    /// Join times, staggered over `join_window`.
    pub join_times: Vec<(NodeId, Time)>,
    pub join_window: u64,
    /// Seed for protocol-internal randomness (e.g. PIM RP placement).
    pub seed: u64,
    /// Scripted actions beyond the primary-channel joins (extra channels,
    /// zap switches). Empty for the classic figure scenarios.
    pub script: Script,
}

impl Scenario {
    /// The topology this run draws over.
    pub fn graph(&self) -> &Graph {
        self.network.graph()
    }

    /// The shared topology + routing bundle (cloning is an `Arc` bump).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Assembles a scenario from an externally built network + membership
    /// draw. The figure sweeps go through [`build`]; custom drivers (the
    /// hierarchical scale sweeps, hand-built topologies in tests) use this
    /// to reuse the paired-run machinery on any [`Network`].
    pub fn from_parts(
        network: Network,
        source: NodeId,
        receivers: Vec<NodeId>,
        join_times: Vec<(NodeId, Time)>,
        join_window: u64,
        seed: u64,
    ) -> Self {
        Scenario {
            network,
            source,
            receivers,
            join_times,
            join_window,
            seed,
            script: Script::new(),
        }
    }

    /// Replaces this scenario's membership with a plan drawn from
    /// `workload` over the network's host pool (the source excluded). The
    /// draw is seeded from the scenario seed, so paired protocol runs on
    /// the same scenario see the identical plan.
    pub fn with_workload(mut self, workload: &Workload, timing: &Timing) -> Self {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x3057_10AD);
        let pool: Vec<NodeId> = {
            let source = self.source;
            self.graph().hosts().filter(|&h| h != source).collect()
        };
        let plan = workload.plan(&pool, Channel::primary(self.source), timing, &mut rng);
        self.receivers = plan.receivers;
        self.join_times = plan.join_times;
        self.join_window = plan.join_window;
        self.script = plan.script;
        self
    }
}

/// Options beyond the paper defaults, used by the ablations.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioOptions {
    /// Probability that a link's two directions are drawn independently
    /// (1.0 = the paper's fully independent draws).
    pub asymmetry: f64,
    /// Fraction of routers made unicast-only (0.0 in the paper).
    pub unicast_only_fraction: f64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            asymmetry: 1.0,
            unicast_only_fraction: 0.0,
        }
    }
}

/// Join window of the figure scenarios, in join periods. Short windows
/// mean most receivers join before any tree state exists (they join at the
/// source); long windows give the trees time to form between joins, so
/// later receivers attach at branching nodes — which is where REUNITE's
/// path pathologies live. The paper does not specify its join timing; 20
/// periods lets roughly the paper's dynamics emerge while keeping runs fast.
const JOIN_WINDOW_PERIODS: u64 = 20;

/// A draw of [`build`] before any route is computed: the graph with this
/// run's costs, and its membership plan. A study that routes differently
/// (the QoS extension's bandwidth-constrained tables) routes it itself
/// with [`Draw::routed`].
#[derive(Clone, Debug)]
pub struct Draw {
    /// The topology, costs drawn.
    pub graph: Graph,
    /// The source host.
    pub source: NodeId,
    /// Receivers, in sampling order.
    pub receivers: Vec<NodeId>,
    /// Join times, staggered over `join_window`.
    pub join_times: Vec<(NodeId, Time)>,
    pub join_window: u64,
    /// The run seed it was drawn from.
    pub seed: u64,
    /// Scripted actions beyond the primary-channel joins.
    pub script: Script,
}

impl Draw {
    /// The scenario over the network `route` freezes this draw's graph
    /// into.
    pub fn routed(self, route: impl FnOnce(Graph) -> Network) -> Scenario {
        Scenario {
            network: route(self.graph),
            source: self.source,
            receivers: self.receivers,
            join_times: self.join_times,
            join_window: self.join_window,
            seed: self.seed,
            script: self.script,
        }
    }
}

/// Builds run number `run_seed` of the experiment: the RNG stream is a
/// pure function of `(kind, run_seed)`, so runs are reproducible and
/// protocols see identical draws. The routes are eager all-pairs tables.
pub fn build(
    kind: TopologyKind,
    group_size: usize,
    run_seed: u64,
    timing: &Timing,
    opts: &ScenarioOptions,
) -> Scenario {
    draw(kind, group_size, run_seed, timing, opts).routed(Network::new)
}

/// [`build`]'s draw, unrouted: the same RNG stream, so routing it with
/// [`Network::new`] gives exactly [`build`]'s scenario.
pub fn draw(
    kind: TopologyKind,
    group_size: usize,
    run_seed: u64,
    timing: &Timing,
    opts: &ScenarioOptions,
) -> Draw {
    let mut rng = StdRng::seed_from_u64(run_seed ^ (0x5EED_0000 + kind as u64));
    let (template, source) = kind.template();
    let (mut graph, source) = (template.clone(), *source);
    costs::assign_uniform_with_asymmetry(&mut graph, 1, 10, opts.asymmetry, &mut rng);

    if opts.unicast_only_fraction > 0.0 {
        // The source's access router stays capable so the channel can form;
        // everything else may lose multicast capability.
        let source_router = graph.host_router(source);
        let routers: Vec<NodeId> = graph.routers().filter(|&r| r != source_router).collect();
        for r in routers {
            if rng.random::<f64>() < opts.unicast_only_fraction {
                graph.set_mcast_capable(r, false);
            }
        }
    }

    let pool: Vec<NodeId> = graph.hosts().filter(|&h| h != source).collect();
    assert!(
        group_size <= pool.len(),
        "group size {group_size} exceeds receiver pool {}",
        pool.len()
    );
    // The paper workload consumes the RNG in the historical order
    // (receiver sample, then join schedule), keeping every figure
    // byte-identical across the Workload migration.
    let plan = Workload::paper_figure(group_size, JOIN_WINDOW_PERIODS).plan(
        &pool,
        Channel::primary(source),
        timing,
        &mut rng,
    );
    Draw {
        graph,
        source,
        receivers: plan.receivers,
        join_times: plan.join_times,
        join_window: plan.join_window,
        seed: run_seed,
        script: plan.script,
    }
}

/// The frozen topology of a hierarchy sweep: `spec`'s tiers plus `hosts`
/// attached round-robin, no costs yet. The seed folds in the tier shape,
/// so differently shaped sweeps don't alias; `scale` and `membership`
/// each salt `seed` so theirs don't either.
pub(crate) fn hierarchy(spec: &TierSpec, hosts: usize, seed: u64) -> Graph {
    let shape =
        (spec.ases as u64) << 32 | (spec.pops_per_as as u64) << 16 | spec.access_per_pop as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ shape);
    let mut topo = hierarchical(spec, &mut rng);
    attach_hosts(&mut topo, hosts, &mut rng);
    topo.graph
}

/// One draw over a frozen hierarchy: `template` under the paper's cost
/// draw, a source host, and the RNG where those two draws left it.
pub(crate) fn hierarchy_draw(template: &Graph, run_seed: u64) -> (Graph, NodeId, StdRng) {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let mut graph = template.clone();
    costs::assign_paper_costs(&mut graph, &mut rng);
    let hosts: Vec<NodeId> = graph.hosts().collect();
    let source = hosts[rng.random_range(0..hosts.len())];
    (graph, source, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::default()
    }

    #[test]
    fn isp_scenario_shape() {
        let s = build(
            TopologyKind::Isp,
            8,
            1,
            &timing(),
            &ScenarioOptions::default(),
        );
        assert_eq!(s.source, NodeId(18));
        assert_eq!(s.receivers.len(), 8);
        assert!(!s.receivers.contains(&s.source));
        assert_eq!(s.join_times.len(), 8);
    }

    #[test]
    fn rand50_topology_is_fixed_across_runs() {
        let a = build(
            TopologyKind::Rand50,
            5,
            1,
            &timing(),
            &ScenarioOptions::default(),
        );
        let b = build(
            TopologyKind::Rand50,
            5,
            2,
            &timing(),
            &ScenarioOptions::default(),
        );
        // Same adjacency (ignore costs): compare link endpoints.
        let ends = |g: &Graph| {
            g.undirected_links()
                .iter()
                .map(|&(a, b, ..)| (a, b))
                .collect::<Vec<_>>()
        };
        assert_eq!(ends(a.graph()), ends(b.graph()));
    }

    #[test]
    fn different_run_seeds_change_costs_and_receivers() {
        let a = build(
            TopologyKind::Isp,
            8,
            1,
            &timing(),
            &ScenarioOptions::default(),
        );
        let b = build(
            TopologyKind::Isp,
            8,
            2,
            &timing(),
            &ScenarioOptions::default(),
        );
        assert!(
            a.receivers != b.receivers
                || a.graph().undirected_links() != b.graph().undirected_links()
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = build(
            TopologyKind::Isp,
            8,
            7,
            &timing(),
            &ScenarioOptions::default(),
        );
        let b = build(
            TopologyKind::Isp,
            8,
            7,
            &timing(),
            &ScenarioOptions::default(),
        );
        assert_eq!(a.receivers, b.receivers);
        assert_eq!(a.graph().undirected_links(), b.graph().undirected_links());
        assert_eq!(a.join_times, b.join_times);
    }

    #[test]
    fn unicast_fraction_disables_routers_but_not_source_router() {
        let opts = ScenarioOptions {
            unicast_only_fraction: 0.9,
            ..ScenarioOptions::default()
        };
        let s = build(TopologyKind::Isp, 4, 3, &timing(), &opts);
        let source_router = s.graph().host_router(s.source);
        assert!(s.graph().is_mcast_capable(source_router));
        let disabled = s
            .graph()
            .routers()
            .filter(|&r| !s.graph().is_mcast_capable(r))
            .count();
        assert!(disabled >= 10, "only {disabled} routers disabled at f=0.9");
    }

    #[test]
    fn paper_group_sizes_match_figures() {
        assert_eq!(
            TopologyKind::Isp.paper_group_sizes(),
            vec![2, 4, 6, 8, 10, 12, 14, 16]
        );
        assert_eq!(
            TopologyKind::Rand50.paper_group_sizes(),
            vec![5, 10, 15, 20, 25, 30, 35, 40, 45]
        );
    }

    #[test]
    fn waxman_scenario_builds_and_samples() {
        let s = build(
            TopologyKind::Waxman30,
            8,
            2,
            &timing(),
            &ScenarioOptions::default(),
        );
        assert_eq!(s.source, NodeId(30));
        assert_eq!(s.receivers.len(), 8);
        assert!(s.graph().routers().count() == 30 && s.graph().hosts().count() == 30);
    }

    #[test]
    fn parse_round_trips() {
        for k in [
            TopologyKind::Isp,
            TopologyKind::Rand50,
            TopologyKind::Waxman30,
        ] {
            assert_eq!(TopologyKind::parse(k.name()), Some(k));
        }
        assert_eq!(TopologyKind::parse("nope"), None);
    }
}
