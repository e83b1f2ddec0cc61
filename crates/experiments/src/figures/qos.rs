//! QoS extension experiment (the paper's named future work, §5): run the
//! protocols over **bandwidth-constrained** unicast routing and measure
//! how much of the constraint each distribution tree actually honors.
//!
//! Setup: per-direction capacities of the router–router links drawn from
//! `U[1, 10]`, held by the study beside the draw's scenario; the channel
//! requires `min_bw`; unicast routing is recomputed over the compliant
//! sub-topology (`hbh-routing::qos`); runs where some receiver is not
//! admissible are skipped (counted).
//!
//! Expected result: the recursive-unicast protocols (HBH, REUNITE)
//! forward every packet by forward-direction unicast lookup, so their
//! delivery paths are compliant *by construction*. PIM-SS replicates data
//! interface-by-interface along the reverse of join paths — directions
//! whose bandwidth was never checked — so a fraction of its receivers end
//! up behind thin links. That asymmetric gap is precisely why the paper
//! calls SPT-based HBH "suitable for an eventual implementation of QoS
//! based routing".

use crate::datapath::probe_transits;
use crate::figures::sweep::{point, table_by_metric, Column, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::scenario::{Draw, Scenario};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_routing::qos;
use hbh_sim_core::{Kernel, Network, Protocol};
use hbh_topo::costs;
use hbh_topo::graph::Bandwidth;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-protocol outcome of one admitted run.
#[derive(Clone, Copy, Debug, Default)]
pub struct QosOutcome {
    /// The scenario's receivers.
    pub receivers: usize,
    /// Receivers served.
    pub served: usize,
    /// Served receivers whose delivery path honors the bandwidth floor.
    pub compliant: usize,
}

/// The interval every router–router link capacity is drawn from; a floor
/// outside it admits every draw or none.
pub const CAPACITY_RANGE: (Bandwidth, Bandwidth) = (1, 10);

/// The draw `d` over its bandwidth-constrained network, and the study
/// that checks delivery paths against the drawn capacities; `None` if the
/// channel is not admissible under the floor. Only the constrained tables
/// are computed: the draw's unconstrained ones would go unread.
fn admitted(d: Draw, min_bw: Bandwidth) -> Option<(Scenario, QosStudy)> {
    let mut rng = StdRng::seed_from_u64(d.seed ^ 0xB0);
    let (lo, hi) = CAPACITY_RANGE;
    let capacity = costs::assign_backbone_bandwidths(&d.graph, lo, hi, &mut rng);
    let tables = qos::constrained_tables(&d.graph, &capacity, min_bw);
    if !qos::channel_admitted(&tables, d.source, &d.receivers) {
        return None;
    }
    let scenario = d.routed(|g| Network::with_tables(g, tables));
    Some((scenario, QosStudy { min_bw, capacity }))
}

struct QosStudy {
    min_bw: Bandwidth,
    /// Per-direction link capacity, indexed by edge id.
    capacity: Vec<Bandwidth>,
}

impl Study for QosStudy {
    type Out = QosOutcome;

    fn run<P: Protocol<Command = Cmd>>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        sc: &Scenario,
        timing: &Timing,
    ) -> QosOutcome {
        converge(&mut k, timing, sc.join_window);
        let transits = probe_transits(&mut k, ch, 1);
        let mut out = QosOutcome {
            receivers: sc.receivers.len(),
            ..QosOutcome::default()
        };
        for &r in &sc.receivers {
            let Some(path) = transits.path_to(r) else {
                continue;
            };
            out.served += 1;
            if qos::path_is_compliant(sc.graph(), &self.capacity, &path, self.min_bw) {
                out.compliant += 1;
            }
        }
        out
    }
}

pub const SERVED: Column<QosOutcome> = ("served fraction", |o| {
    Some(o.served as f64 / o.receivers as f64)
});
/// Of the served receivers (0 when nobody was).
pub const COMPLIANT: Column<QosOutcome> = ("compliant-path fraction", |o| {
    Some(o.compliant as f64 / o.served.max(1) as f64)
});

/// One probe per draw at `group_size` receivers under the floor `min_bw`;
/// draws whose channel is not admissible under the floor are skipped.
pub fn evaluate(run: &RunConfig, group_size: usize, min_bw: Bandwidth) -> Point<QosOutcome> {
    point(run, |i| {
        let d = run.unrouted(group_size, run.base_seed ^ ((i as u64) << 18));
        admitted(d, min_bw)
    })
}

pub fn render(
    run: &RunConfig,
    group_size: usize,
    min_bw: Bandwidth,
    point: &Point<QosOutcome>,
) -> Table {
    let title = format!(
        "QoS compliance (bandwidth floor {min_bw}) — {} topology, {group_size} receivers, {} admitted / {} skipped runs",
        run.topo.name(),
        run.runs - point.skipped,
        point.skipped
    );
    table_by_metric(title, point, &[SERVED, COMPLIANT], &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;

    #[test]
    fn recursive_unicast_is_fully_compliant_pim_is_not() {
        let run = RunConfig::default()
            .runs(8)
            .protocols(ProtocolKind::SOURCE_SPECIFIC.to_vec());
        let p = evaluate(&run, 8, 4);
        assert!(
            run.runs - p.skipped >= 3,
            "too few admitted runs ({} skipped)",
            p.skipped
        );
        let mean = |kind, column| p.summary(kind, column).mean();
        assert_eq!(
            mean(ProtocolKind::Hbh, SERVED),
            1.0,
            "HBH must serve everyone"
        );
        assert_eq!(
            mean(ProtocolKind::Hbh, COMPLIANT),
            1.0,
            "HBH paths compliant by construction"
        );
        assert_eq!(
            mean(ProtocolKind::Reunite, COMPLIANT),
            1.0,
            "REUNITE data is routed unicast too"
        );
        let pim = mean(ProtocolKind::PimSs, COMPLIANT);
        assert!(
            pim < 1.0,
            "PIM's reverse-direction data should violate the floor sometimes ({pim})"
        );
    }
}
