//! Churn study: crash the busiest core router mid-session and measure how
//! each protocol's soft state repairs the tree.
//!
//! The paper's protocols keep no hard state: trees are rebuilt purely by
//! periodic join/tree refreshes, so a router crash should heal without any
//! explicit failure signalling — at the cost of a repair window during
//! which some receivers lose packets. This study quantifies that window
//! for the recursive-unicast pair (HBH vs REUNITE):
//!
//! * **repair latency** — time from the crash until a probe is again
//!   delivered to *every* receiver;
//! * **packets lost** — per-receiver probe misses accumulated while the
//!   tree is broken (probes fire once per tree period);
//! * **duplicates** — extra copies delivered mid-repair, when stale state
//!   and freshly built branches can forward concurrently;
//! * **perturbed innocents** — receivers whose pre-crash data path avoided
//!   the victim entirely but whose path changed anyway (the §3 stability
//!   argument, under failures instead of departures).
//!
//! The victim is chosen deterministically per scenario: the multicast-
//! capable router carrying the most source→receiver unicast paths,
//! excluding every access router so that no receiver is disconnected
//! outright. Runs whose surviving topology cannot reach all receivers are
//! skipped (and counted).

use crate::datapath::probe_transits;
use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::report::Table;
use crate::runner::{converge, probe_tolerant, probe_window, RunConfig};
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
use hbh_proto_base::{Channel, Cmd, Script, Timing};
use hbh_routing::{OnDemandRoutes, RouteProvider};
use hbh_sim_core::{Kernel, Protocol};
use hbh_topo::graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Picks the crash victim for a scenario, or `None` if no router can be
/// crashed without disconnecting a receiver.
///
/// Deterministic per scenario: the multicast-capable router on the most
/// source→receiver unicast paths (smallest id on ties), never an access
/// router of the source or any receiver, and only if every receiver stays
/// reachable on the surviving topology.
pub fn pick_victim(scenario: &Scenario) -> Option<NodeId> {
    let g = scenario.graph();
    let routes = scenario.network().routes();
    let mut excluded: BTreeSet<NodeId> = BTreeSet::new();
    excluded.insert(g.host_router(scenario.source));
    for &r in &scenario.receivers {
        excluded.insert(g.host_router(r));
    }
    let mut on_paths: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &r in &scenario.receivers {
        if let Some(path) = routes.path(scenario.source, r) {
            for &n in &path {
                if g.is_router(n) && g.is_mcast_capable(n) && !excluded.contains(&n) {
                    *on_paths.entry(n).or_insert(0) += 1;
                }
            }
        }
    }
    let mut victim = None;
    let mut best = 0usize;
    for (&n, &count) in &on_paths {
        if count > best {
            best = count;
            victim = Some(n);
        }
    }
    let victim = victim?;
    let mut node_down = vec![false; g.node_count()];
    node_down[victim.index()] = true;
    let edge_down = vec![false; g.directed_edge_count()];
    // Reachability needs only the source's SPF row over the surviving
    // topology — one lazy row instead of an all-pairs recompute.
    let avoiding = OnDemandRoutes::with_masks(g, node_down, edge_down, 2);
    scenario
        .receivers
        .iter()
        .all(|&r| avoiding.dist(scenario.source, r).is_some())
        .then_some(victim)
}

/// Outcome of one crash-and-recover experiment.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Time units from the crash until a probe again reached every
    /// receiver; `None` if the tree never fully re-formed in the budget.
    pub repair_latency: Option<u64>,
    /// Per-receiver probe misses accumulated while the tree was broken.
    pub lost: u64,
    /// Duplicate deliveries observed during the repair window.
    pub duplicates: u64,
    /// Receivers whose pre-crash data path avoided the victim.
    pub innocent: usize,
    /// Innocent receivers whose data path changed after repair anyway.
    pub perturbed: usize,
    /// All receivers served again after the victim restarted?
    pub recovered: bool,
    /// Control-message link copies spent between the crash and the end of
    /// the repair window (soft state pays periodic refreshes here; hard
    /// state pays probes, repair joins and retransmissions).
    pub control: u64,
    /// Reliable-layer retransmissions over the same window (zero by
    /// construction for engines without a reliable layer).
    pub retransmits: u64,
    /// Protocol state bytes per router on the repaired tree (victim still
    /// down) — the memory price of whatever repair strategy was used.
    pub state_bytes: f64,
}

struct ChurnStudy {
    victim: NodeId,
}

/// Total reliable-layer retransmissions across all nodes (zero for
/// engines without a reliable layer).
fn total_retransmits<P>(k: &Kernel<P>) -> u64
where
    P: Protocol<Command = Cmd>,
    P::NodeState: hbh_proto_base::StateInventory,
{
    use hbh_proto_base::StateInventory;
    k.network()
        .graph()
        .nodes()
        .filter_map(|n| k.state(n).reliable_stats())
        .map(|s| s.retransmits)
        .sum()
}

/// Mean protocol state bytes per router for `ch`.
fn state_bytes_per_router<P>(k: &Kernel<P>, ch: Channel) -> f64
where
    P: Protocol<Command = Cmd>,
    P::NodeState: hbh_proto_base::StateInventory,
{
    use hbh_proto_base::StateInventory;
    let routers: Vec<NodeId> = k.network().graph().routers().collect();
    let total: usize = routers.iter().map(|&r| k.state(r).state_bytes(ch)).sum();
    total as f64 / routers.len().max(1) as f64
}

impl Study for ChurnStudy {
    type Out = ChurnOutcome;

    fn run<P>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> ChurnOutcome
    where
        P: Protocol<Command = Cmd>,
        P::NodeState: hbh_proto_base::StateInventory,
    {
        converge(&mut k, timing, scenario.join_window);
        let before = probe_transits(&mut k, ch, 1);
        let innocent: Vec<NodeId> = scenario
            .receivers
            .iter()
            .copied()
            .filter(|&r| before.path_to(r).is_some_and(|p| !p.contains(&self.victim)))
            .collect();

        let t_fail = k.now() + 1;
        Script::new()
            .fail_node(t_fail, self.victim)
            .schedule(&mut k);
        k.run_until(t_fail);
        let control_before = k.stats().control_copies();
        let rtx_before = total_retransmits(&k);

        // Probe once per tree period until every receiver is served again.
        // Soft state can take a couple of destroy timeouts to flush stale
        // branches and re-grow, so budget a few t2 rounds.
        let expected = scenario.receivers.len();
        let window = probe_window(k.network());
        let deadline = t_fail + 8 * timing.t2 + 8 * timing.tree_period;
        let mut lost = 0u64;
        let mut duplicates = 0u64;
        let mut repair_latency = None;
        let mut tag = 100u64;
        while k.now() < deadline {
            let inject = k.now();
            let (delays, dups) = probe_tolerant(&mut k, ch, tag, window);
            duplicates += dups;
            let served = scenario
                .receivers
                .iter()
                .filter(|r| delays.contains_key(r))
                .count();
            if served == expected {
                repair_latency = Some(inject - t_fail);
                break;
            }
            lost += (expected - served) as u64;
            tag += 1;
            k.run_until(inject + timing.tree_period);
        }

        let control = k.stats().control_copies() - control_before;
        let retransmits = total_retransmits(&k) - rtx_before;
        let state_bytes = state_bytes_per_router(&k, ch);

        // Route perturbation of innocents, measured on the repaired tree
        // (victim still down): their unicast shortest paths are untouched
        // by the crash, so any change is protocol-induced.
        let mut perturbed = 0;
        if repair_latency.is_some() {
            let during = probe_transits(&mut k, ch, 2);
            perturbed = innocent
                .iter()
                .filter(|&&r| before.path_to(r) != during.path_to(r))
                .count();
        }

        let t_up = k.now() + 1;
        Script::new()
            .restore_node(t_up, self.victim)
            .schedule(&mut k);
        k.run_until(t_up);
        converge(&mut k, timing, 0);
        let (delays, _) = probe_tolerant(&mut k, ch, 3, window);
        let recovered = scenario.receivers.iter().all(|r| delays.contains_key(r));

        ChurnOutcome {
            repair_latency,
            lost,
            duplicates,
            innocent: innocent.len(),
            perturbed,
            recovered,
            control,
            retransmits,
            state_bytes,
        }
    }
}

/// Runs the churn study for one protocol on one scenario.
pub fn run_churn(
    kind: ProtocolKind,
    scenario: &Scenario,
    timing: &Timing,
    victim: NodeId,
) -> ChurnOutcome {
    dispatch(kind, scenario, timing, &ChurnStudy { victim })
}

/// Aggregates over runs, per protocol.
#[derive(Clone, Debug, Default)]
pub struct ChurnPoint {
    /// Repair latency over runs that repaired (time units).
    pub repair_latency: Summary,
    pub lost: Summary,
    pub duplicates: Summary,
    /// Perturbed innocent receivers per run.
    pub perturbed: Summary,
    /// Control-message link copies over the repair window.
    pub control: Summary,
    /// Reliable-layer retransmissions over the repair window.
    pub retransmits: Summary,
    /// State bytes per router on the repaired tree.
    pub state_bytes: Summary,
    /// Runs where the tree never fully re-formed within the budget.
    pub unrepaired: u64,
    /// Runs where service was not fully restored after the restart.
    pub unrecovered: u64,
}

/// The shared run knobs — `run.protocols` being the churn arms
/// ([`ProtocolKind::CHURN_ARMS`] for the published table) — plus the
/// group size.
pub struct ChurnConfig {
    pub run: RunConfig,
    pub group_size: usize,
}

/// Full study output: one point per protocol plus the skip count.
pub struct ChurnReport {
    pub points: Vec<ChurnPoint>,
    /// Runs with no crashable router (every candidate disconnects someone).
    pub skipped: u64,
}

pub fn evaluate(cfg: &ChurnConfig) -> ChurnReport {
    let ChurnConfig { run, group_size } = cfg;
    let per_run = crate::parallel::map_runs(run.runs, |i| {
        let sc = build(
            run.topo,
            *group_size,
            run.base_seed ^ ((i as u64) << 16),
            &run.timing,
            &ScenarioOptions::default(),
        );
        let victim = pick_victim(&sc)?;
        Some(
            run.protocols
                .iter()
                .map(|&kind| run_churn(kind, &sc, &run.timing, victim))
                .collect::<Vec<_>>(),
        )
    });
    let mut points = vec![ChurnPoint::default(); run.protocols.len()];
    let mut skipped = 0;
    for outcomes in per_run {
        let Some(outcomes) = outcomes else {
            skipped += 1;
            continue;
        };
        for (p, o) in points.iter_mut().zip(outcomes) {
            match o.repair_latency {
                Some(lat) => p.repair_latency.add(lat as f64),
                None => p.unrepaired += 1,
            }
            p.lost.add(o.lost as f64);
            p.duplicates.add(o.duplicates as f64);
            p.perturbed.add(o.perturbed as f64);
            p.control.add(o.control as f64);
            p.retransmits.add(o.retransmits as f64);
            p.state_bytes.add(o.state_bytes);
            if !o.recovered {
                p.unrecovered += 1;
            }
        }
    }
    ChurnReport { points, skipped }
}

pub fn render(cfg: &ChurnConfig, report: &ChurnReport) -> Table {
    let names: Vec<&str> = cfg.run.protocols.iter().map(|p| p.name()).collect();
    let mut t = Table::new(
        format!(
            "Tree repair after a core-router crash — {} topology, {} receivers, {} runs ({} skipped)",
            cfg.run.topo.name(),
            cfg.group_size,
            cfg.run.runs,
            report.skipped
        ),
        "metric",
        &names,
    );
    let points = &report.points;
    t.summary_row("repair latency", points, |p| &p.repair_latency);
    t.summary_row("probe misses", points, |p| &p.lost);
    t.summary_row("duplicates", points, |p| &p.duplicates);
    t.summary_row("perturbed innocents", points, |p| &p.perturbed);
    t.summary_row("control msgs (repair)", points, |p| &p.control);
    t.summary_row("retransmissions", points, |p| &p.retransmits);
    t.summary_row("state bytes/router", points, |p| &p.state_bytes);
    t.count_row("unrepaired runs", points, |p| p.unrepaired);
    t.count_row("unrecovered runs", points, |p| p.unrecovered);
    t
}

/// Machine-readable report: one JSON object per protocol arm, with the
/// run parameters alongside so a consumer can tell two sweeps apart.
/// Hand-rolled (the workspace deliberately carries no JSON dependency);
/// every value is a finite number or an integer, so no escaping issues
/// arise beyond the protocol names, which are static ASCII.
pub fn render_json(cfg: &ChurnConfig, report: &ChurnReport) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    };
    let arm = |(kind, p): (&ProtocolKind, &ChurnPoint)| {
        let fields = [
            ("protocol", format!("\"{}\"", kind.name())),
            ("repair_latency_mean", num(p.repair_latency.mean())),
            ("repair_latency_ci95", num(p.repair_latency.ci95())),
            ("probe_misses_mean", num(p.lost.mean())),
            ("duplicates_mean", num(p.duplicates.mean())),
            ("perturbed_innocents_mean", num(p.perturbed.mean())),
            ("control_msgs_mean", num(p.control.mean())),
            ("retransmissions_mean", num(p.retransmits.mean())),
            ("state_bytes_per_router_mean", num(p.state_bytes.mean())),
            ("unrepaired_runs", p.unrepaired.to_string()),
            ("unrecovered_runs", p.unrecovered.to_string()),
        ];
        let lines: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("      \"{key}\": {value}"))
            .collect();
        format!("    {{\n{}\n    }}", lines.join(",\n"))
    };
    let arms: Vec<String> = cfg
        .run
        .protocols
        .iter()
        .zip(&report.points)
        .map(arm)
        .collect();
    format!(
        "{{\n  \"experiment\": \"churn\",\n  \"topology\": \"{}\",\n  \"group_size\": {},\n  \
         \"runs\": {},\n  \"base_seed\": {},\n  \"skipped_runs\": {},\n  \
         \"arms\": [\n{}\n  ]\n}}\n",
        cfg.run.topo.name(),
        cfg.group_size,
        cfg.run.runs,
        cfg.run.base_seed,
        report.skipped,
        arms.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologyKind;

    fn small_cfg(runs: usize, protocols: Vec<ProtocolKind>) -> ChurnConfig {
        ChurnConfig {
            run: RunConfig::default().runs(runs).protocols(protocols),
            group_size: 8,
        }
    }

    #[test]
    fn victim_is_deterministic_and_never_an_access_router() {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            8,
            7,
            &timing,
            &ScenarioOptions::default(),
        );
        let v = pick_victim(&sc).expect("ISP always has a crashable core router");
        assert_eq!(Some(v), pick_victim(&sc));
        let g = sc.graph();
        assert!(g.is_router(v) && g.is_mcast_capable(v));
        assert_ne!(v, g.host_router(sc.source));
        for &r in &sc.receivers {
            assert_ne!(v, g.host_router(r), "victim is {r}'s access router");
        }
    }

    #[test]
    fn hbh_repairs_and_recovers_from_a_core_crash() {
        let cfg = small_cfg(3, vec![ProtocolKind::Hbh]);
        let report = evaluate(&cfg);
        let p = &report.points[0];
        assert_eq!(p.unrepaired, 0, "HBH tree failed to self-heal");
        assert_eq!(p.unrecovered, 0, "HBH lost receivers after restart");
    }

    #[test]
    fn reunite_recovers_from_a_core_crash() {
        let cfg = small_cfg(3, vec![ProtocolKind::Reunite]);
        let report = evaluate(&cfg);
        let p = &report.points[0];
        assert_eq!(p.unrepaired, 0, "REUNITE tree failed to self-heal");
        assert_eq!(p.unrecovered, 0, "REUNITE lost receivers after restart");
    }

    #[test]
    fn hbh_never_perturbs_innocent_receivers() {
        // The §3 stability argument under failures: a receiver whose path
        // avoided the crashed router keeps its exact route, because HBH
        // data paths are the unicast shortest paths and those are
        // untouched by removing a node they never used.
        let cfg = small_cfg(3, vec![ProtocolKind::Hbh]);
        let report = evaluate(&cfg);
        assert_eq!(
            report.points[0].perturbed.mean(),
            0.0,
            "HBH rerouted receivers unaffected by the crash"
        );
    }
}
