//! The four protocols under evaluation, behind one dispatch point.

use crate::runner::{run_probe, ProbeOutcome};
use crate::scenario::Scenario;
use hbh_pim::Pim;
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::Timing;
use hbh_reunite::Reunite;
use hbh_topo::graph::NodeId;

/// A protocol under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// PIM-SM: shared tree centred on a per-run random RP.
    PimSm,
    /// PIM-SS: source-specific reverse SPT.
    PimSs,
    /// REUNITE recursive unicast.
    Reunite,
    /// HBH (the paper's contribution).
    Hbh,
    /// Hard-state HBH: same trees, but state is kept until explicitly
    /// torn down and every control message rides the reliable layer. Not
    /// one of the paper's four — it exists for the robustness studies —
    /// so it is deliberately absent from [`ProtocolKind::ALL`].
    HbhHard,
    /// HBH with membership aggregation: access routers absorb their
    /// hosts' joins into a local member set and represent the whole pod
    /// upstream with one join per period, so per-channel control traffic
    /// and tree state scale with routers, not receivers. Also outside
    /// [`ProtocolKind::ALL`] — it exists for the membership-scale
    /// studies.
    HbhAgg,
}

impl ProtocolKind {
    /// The paper's four, in its legend order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::PimSm,
        ProtocolKind::PimSs,
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
    ];

    /// The recursive-unicast pair (protocols that tolerate unicast-only
    /// routers — the clouds ablation runs only these).
    pub const RECURSIVE_UNICAST: [ProtocolKind; 2] = [ProtocolKind::Reunite, ProtocolKind::Hbh];

    /// The source-specific three, HBH first: the arms of the QoS and the
    /// concurrent-groups tables.
    pub const SOURCE_SPECIFIC: [ProtocolKind; 3] = [
        ProtocolKind::Hbh,
        ProtocolKind::Reunite,
        ProtocolKind::PimSs,
    ];

    /// The churn-study arms: the paper's recursive-unicast pair plus the
    /// hard-state variant whose event-driven repair they are compared to.
    pub const CHURN_ARMS: [ProtocolKind; 3] = [
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
        ProtocolKind::HbhHard,
    ];

    /// The membership-scale bench arms: every protocol that survives
    /// internet-scale group sizes (PIM-SM's central-RP search does not),
    /// with the aggregated variant as the headline.
    pub const MEMBERSHIP_ARMS: [ProtocolKind; 5] = [
        ProtocolKind::PimSs,
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
        ProtocolKind::HbhHard,
        ProtocolKind::HbhAgg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::PimSm => "PIM-SM",
            ProtocolKind::PimSs => "PIM-SS",
            ProtocolKind::Reunite => "REUNITE",
            ProtocolKind::Hbh => "HBH",
            ProtocolKind::HbhHard => "HBH-HARD",
            ProtocolKind::HbhAgg => "HBH-AGG",
        }
    }
}

/// Picks the PIM-SM rendez-vous point for a scenario.
///
/// NS's centralized multicast uses an operator-configured RP; the paper
/// does not say which node it was. This models a competently administered
/// RP, which serves many groups and so sits at the network's cost-center:
/// the router minimizing the total distance to all hosts, recomputed per
/// cost draw. That reproduces the paper's Figure 8(a) observation that the
/// shared tree can *beat* the source reverse-SPT on delay: the
/// delay-optimal S→RP leg then covers most of every path. (A per-channel
/// delay-optimal search degenerates to the source's own access router,
/// making PIM-SM ≡ PIM-SS — provably, since every reverse path to a
/// single-homed source decomposes through that router.)
///
/// The scan is routers × hosts over the scenario's shared routes —
/// appropriate at paper scale; the scale sweeps run without PIM-SM for
/// this reason.
pub fn pick_rp(scenario: &Scenario) -> NodeId {
    let routes = scenario.network().routes();
    let hosts: Vec<NodeId> = scenario.graph().hosts().collect();
    scenario
        .graph()
        .routers()
        .filter(|&r| scenario.graph().is_mcast_capable(r))
        .min_by_key(|&r| {
            hosts
                .iter()
                .map(|&h| routes.dist(r, h).unwrap_or(u64::MAX / 1024))
                .sum::<u64>()
        })
        .expect("at least one capable router")
}

/// A scripted experiment generic over the protocol: implement `run` once,
/// then [`dispatch`] it to any [`ProtocolKind`]. (A trait rather than a
/// closure because the method is generic over the protocol type.)
pub trait Study {
    type Out;
    fn run<P>(
        &self,
        kernel: hbh_sim_core::Kernel<P>,
        ch: hbh_proto_base::Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> Self::Out
    where
        P: hbh_sim_core::Protocol<Command = hbh_proto_base::Cmd>,
        P::NodeState: hbh_proto_base::StateInventory;
}

/// Builds the kernel for `kind` on `scenario` and hands it to the study.
pub fn dispatch<S: Study>(
    kind: ProtocolKind,
    scenario: &Scenario,
    timing: &Timing,
    study: &S,
) -> S::Out {
    fn on<S: Study, P>(proto: P, scenario: &Scenario, timing: &Timing, study: &S) -> S::Out
    where
        P: hbh_sim_core::Protocol<Command = hbh_proto_base::Cmd>,
        P::NodeState: hbh_proto_base::StateInventory,
    {
        let (k, ch) = crate::runner::build_kernel(proto, scenario);
        study.run(k, ch, scenario, timing)
    }
    let t = *timing;
    match kind {
        ProtocolKind::Hbh => on(Hbh::new(t), scenario, timing, study),
        ProtocolKind::HbhAgg => on(Hbh::aggregated(t), scenario, timing, study),
        ProtocolKind::HbhHard => on(HbhHard::new(t), scenario, timing, study),
        ProtocolKind::Reunite => on(Reunite::new(t), scenario, timing, study),
        ProtocolKind::PimSs => on(Pim::source_specific(t), scenario, timing, study),
        ProtocolKind::PimSm => {
            let rp = pick_rp(scenario);
            on(Pim::sparse_shared(rp, t), scenario, timing, study)
        }
    }
}

/// The standard converge-then-probe experiment, as a [`Study`].
pub struct ProbeStudy;

impl Study for ProbeStudy {
    type Out = ProbeOutcome;

    fn run<P: hbh_sim_core::Protocol<Command = hbh_proto_base::Cmd>>(
        &self,
        kernel: hbh_sim_core::Kernel<P>,
        ch: hbh_proto_base::Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> ProbeOutcome {
        run_probe(kernel, ch, scenario, timing)
    }
}

/// Runs the standard converge-then-probe experiment for one protocol.
pub fn run_protocol(kind: ProtocolKind, scenario: &Scenario, timing: &Timing) -> ProbeOutcome {
    dispatch(kind, scenario, timing, &ProbeStudy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build, ScenarioOptions, TopologyKind};
    use hbh_routing::RouteProvider;

    fn scenario(seed: u64) -> (Scenario, Timing) {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            6,
            seed,
            &timing,
            &ScenarioOptions::default(),
        );
        (sc, timing)
    }

    #[test]
    fn all_protocols_serve_all_receivers_on_isp() {
        let (sc, timing) = scenario(11);
        for kind in ProtocolKind::ALL {
            let o = run_protocol(kind, &sc, &timing);
            assert!(o.converged, "{} failed to converge", kind.name());
            assert!(
                o.complete(),
                "{}: served {}/{}",
                kind.name(),
                o.delays.len(),
                o.expected
            );
        }
    }

    #[test]
    fn pim_ss_delay_is_reverse_path_distance() {
        // Cross-validation against the analytic reverse SPT.
        let (sc, timing) = scenario(12);
        let o = run_protocol(ProtocolKind::PimSs, &sc, &timing);
        let tables = hbh_routing::RoutingTables::compute(sc.graph());
        let tree = hbh_routing::paths::reverse_spt(&tables, sc.source, &sc.receivers);
        for (&r, &measured) in &o.delays {
            assert_eq!(
                Some(measured),
                tree.delay_to(sc.graph(), r),
                "receiver {r} delay mismatch vs analytic reverse SPT"
            );
        }
        assert_eq!(
            o.cost as usize,
            tree.cost(),
            "cost = links of the reverse SPT"
        );
    }

    #[test]
    fn hbh_delay_is_forward_shortest_path() {
        let (sc, timing) = scenario(13);
        let o = run_protocol(ProtocolKind::Hbh, &sc, &timing);
        let tables = hbh_routing::RoutingTables::compute(sc.graph());
        for (&r, &measured) in &o.delays {
            assert_eq!(
                Some(measured),
                tables.dist(sc.source, r),
                "receiver {r} not served on its shortest path"
            );
        }
    }

    #[test]
    fn rp_is_deterministic_per_scenario_and_capable() {
        let (sc, _) = scenario(14);
        let rp = pick_rp(&sc);
        assert_eq!(rp, pick_rp(&sc));
        assert!(sc.graph().is_router(rp) && sc.graph().is_mcast_capable(rp));
    }
}
