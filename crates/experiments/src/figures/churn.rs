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
use crate::figures::sweep::{point, table_by_metric, Column, Count, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{converge, probe_tolerant, probe_window, RunConfig};
use crate::scenario::Scenario;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_routing::{OnDemandRoutes, RouteProvider};
use hbh_sim_core::{FaultEvent, Kernel, Protocol};
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
    P::NodeState: StateInventory,
{
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
    P::NodeState: StateInventory,
{
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
        P::NodeState: StateInventory,
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
        k.schedule_fault(t_fail, FaultEvent::NodeDown(self.victim));
        k.run_until(t_fail);
        let control_before = k.stats().control_copies();
        let rtx_before = total_retransmits(&k);

        // Probe once per tree period until every receiver is served again.
        // Soft state can take a couple of destroy timeouts to flush stale
        // branches and re-grow, so budget a few t2 rounds.
        let expected = scenario.receivers.len();
        let window = probe_window(k.network());
        let deadline = t_fail + timing.repair_deadline();
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
        k.schedule_fault(t_up, FaultEvent::NodeUp(self.victim));
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

/// Repair latency over the draws that repaired (time units).
pub const REPAIR_LATENCY: Column<ChurnOutcome> =
    ("repair latency", |o| o.repair_latency.map(|t| t as f64));
pub const LOST: Column<ChurnOutcome> = ("probe misses", |o| Some(o.lost as f64));
pub const DUPLICATES: Column<ChurnOutcome> = ("duplicates", |o| Some(o.duplicates as f64));
pub const PERTURBED: Column<ChurnOutcome> = ("perturbed innocents", |o| Some(o.perturbed as f64));
pub const CONTROL: Column<ChurnOutcome> = ("control msgs (repair)", |o| Some(o.control as f64));
pub const RETRANSMITS: Column<ChurnOutcome> = ("retransmissions", |o| Some(o.retransmits as f64));
pub const STATE_BYTES: Column<ChurnOutcome> = ("state bytes/router", |o| Some(o.state_bytes));
/// Draws where the tree never fully re-formed within the budget.
pub const UNREPAIRED: Count<ChurnOutcome> = ("unrepaired runs", |o| o.repair_latency.is_none());
/// Draws where service was not fully restored after the restart.
pub const UNRECOVERED: Count<ChurnOutcome> = ("unrecovered runs", |o| !o.recovered);

/// One crash per draw at `group_size` receivers, on the arms of
/// `run.protocols` ([`ProtocolKind::CHURN_ARMS`](crate::ProtocolKind::CHURN_ARMS)
/// for the published table). Draws with no crashable router (every
/// candidate disconnects someone) are skipped.
pub fn evaluate(run: &RunConfig, group_size: usize) -> Point<ChurnOutcome> {
    point(run, |i| {
        let sc = run.draw(group_size, run.base_seed ^ ((i as u64) << 16));
        let victim = pick_victim(&sc)?;
        Some((sc, ChurnStudy { victim }))
    })
}

const COLUMNS: [Column<ChurnOutcome>; 7] = [
    REPAIR_LATENCY,
    LOST,
    DUPLICATES,
    PERTURBED,
    CONTROL,
    RETRANSMITS,
    STATE_BYTES,
];

pub fn render(run: &RunConfig, group_size: usize, point: &Point<ChurnOutcome>) -> Table {
    let what = run.title("Tree repair after a core-router crash", Some(group_size));
    let title = format!("{what} ({} skipped)", point.skipped);
    table_by_metric(title, point, &COLUMNS, &[UNREPAIRED, UNRECOVERED])
}

/// Machine-readable report: one JSON object per protocol arm, with the
/// run parameters alongside so a consumer can tell two sweeps apart.
/// Hand-rolled (the workspace deliberately carries no JSON dependency);
/// every value is a finite number or an integer, so no escaping issues
/// arise beyond the protocol names, which are static ASCII.
pub fn render_json(run: &RunConfig, group_size: usize, point: &Point<ChurnOutcome>) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    };
    let arm = |&(kind, _): &(_, Vec<ChurnOutcome>)| {
        let latency = point.summary(kind, REPAIR_LATENCY);
        let mut lines = vec![
            format!("\"protocol\": \"{}\"", kind.name()),
            format!("\"repair_latency_mean\": {}", num(latency.mean())),
            format!("\"repair_latency_ci95\": {}", num(latency.ci95())),
        ];
        for (key, column) in [
            ("probe_misses", LOST),
            ("duplicates", DUPLICATES),
            ("perturbed_innocents", PERTURBED),
            ("control_msgs", CONTROL),
            ("retransmissions", RETRANSMITS),
            ("state_bytes_per_router", STATE_BYTES),
        ] {
            let mean = num(point.summary(kind, column).mean());
            lines.push(format!("\"{key}_mean\": {mean}"));
        }
        for (key, count) in [("unrepaired", UNREPAIRED), ("unrecovered", UNRECOVERED)] {
            lines.push(format!("\"{key}_runs\": {}", point.count(kind, count)));
        }
        format!("    {{\n      {}\n    }}", lines.join(",\n      "))
    };
    let arms: Vec<String> = point.arms.iter().map(arm).collect();
    format!(
        "{{\n  \"experiment\": \"churn\",\n  \"topology\": \"{}\",\n  \"group_size\": {},\n  \
         \"runs\": {},\n  \"base_seed\": {},\n  \"skipped_runs\": {},\n  \
         \"arms\": [\n{}\n  ]\n}}\n",
        run.topo.name(),
        group_size,
        run.runs,
        run.base_seed,
        point.skipped,
        arms.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;

    fn crashes(runs: usize, kind: ProtocolKind) -> Point<ChurnOutcome> {
        evaluate(&RunConfig::default().runs(runs).protocols(vec![kind]), 8)
    }

    #[test]
    fn victim_is_deterministic_and_never_an_access_router() {
        let sc = RunConfig::default().draw(8, 7);
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
        let p = crashes(3, ProtocolKind::Hbh);
        let count = |what| p.count(ProtocolKind::Hbh, what);
        assert_eq!(count(UNREPAIRED), 0, "HBH tree failed to self-heal");
        assert_eq!(count(UNRECOVERED), 0, "HBH lost receivers after restart");
    }

    #[test]
    fn reunite_recovers_from_a_core_crash() {
        let p = crashes(3, ProtocolKind::Reunite);
        let count = |what| p.count(ProtocolKind::Reunite, what);
        assert_eq!(count(UNREPAIRED), 0, "REUNITE tree failed to self-heal");
        assert_eq!(
            count(UNRECOVERED),
            0,
            "REUNITE lost receivers after restart"
        );
    }

    #[test]
    fn hbh_never_perturbs_innocent_receivers() {
        // The §3 stability argument under failures: a receiver whose path
        // avoided the crashed router keeps its exact route, because HBH
        // data paths are the unicast shortest paths and those are
        // untouched by removing a node they never used.
        let p = crashes(3, ProtocolKind::Hbh);
        assert_eq!(
            p.summary(ProtocolKind::Hbh, PERTURBED).mean(),
            0.0,
            "HBH rerouted receivers unaffected by the crash"
        );
    }
}
