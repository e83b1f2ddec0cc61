//! QoS extension experiment (the paper's named future work, §5): run the
//! protocols over **bandwidth-constrained** unicast routing and measure
//! how much of the constraint each distribution tree actually honors.
//!
//! Setup: per-direction bandwidths drawn from `U[1, 10]`; the channel
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
use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::report::Table;
use crate::runner::{converge, RunConfig};
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
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
    /// Receivers served.
    pub served: usize,
    /// Served receivers whose delivery path honors the bandwidth floor.
    pub compliant: usize,
}

/// The shared run knobs (the three arms are fixed: [`QOS_ARMS`]) plus the
/// group size and the bandwidth floor.
pub struct QosConfig {
    pub run: RunConfig,
    pub group_size: usize,
    pub min_bw: Bandwidth,
}

/// `sc` over its bandwidth-constrained network (same membership, same
/// seed); `None` if the channel is not admissible under the floor.
fn admitted(sc: Scenario, min_bw: Bandwidth) -> Option<Scenario> {
    let mut graph = sc.graph().clone();
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0xB0);
    costs::assign_backbone_bandwidths(&mut graph, 1, 10, &mut rng);
    let tables = qos::constrained_tables(&graph, min_bw);
    if !qos::channel_admitted(&tables, sc.source, &sc.receivers) {
        return None;
    }
    Some(Scenario::from_parts(
        Network::with_tables(graph, tables),
        sc.source,
        sc.receivers,
        sc.join_times,
        sc.join_window,
        sc.seed,
    ))
}

struct QosStudy {
    min_bw: Bandwidth,
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
        let mut out = QosOutcome::default();
        for &r in &sc.receivers {
            let Some(path) = transits.path_to(r) else {
                continue;
            };
            out.served += 1;
            if qos::path_is_compliant(sc.graph(), &path, self.min_bw) {
                out.compliant += 1;
            }
        }
        out
    }
}

/// One protocol row of the report.
#[derive(Clone, Debug, Default)]
pub struct QosPoint {
    pub served_frac: Summary,
    pub compliant_frac: Summary,
}

pub struct QosReport {
    /// One point per arm of [`QOS_ARMS`].
    pub points: Vec<QosPoint>,
    pub admitted_runs: usize,
    pub skipped_runs: usize,
}

pub const QOS_ARMS: [ProtocolKind; 3] = [
    ProtocolKind::Hbh,
    ProtocolKind::Reunite,
    ProtocolKind::PimSs,
];

pub fn evaluate(cfg: &QosConfig) -> QosReport {
    let (run, timing, min_bw) = (&cfg.run, &cfg.run.timing, cfg.min_bw);
    // `None` marks a run whose channel was not admissible under the floor.
    let per_run = crate::parallel::map_runs(run.runs, |i| {
        let seed = run.base_seed ^ ((i as u64) << 18);
        let sc = build(
            run.topo,
            cfg.group_size,
            seed,
            timing,
            &ScenarioOptions::default(),
        );
        let sc = admitted(sc, min_bw)?;
        let outcomes = QOS_ARMS.map(|kind| dispatch(kind, &sc, timing, &QosStudy { min_bw }));
        Some((sc.receivers.len(), outcomes))
    });
    let mut points = vec![QosPoint::default(); QOS_ARMS.len()];
    let mut admitted_runs = 0;
    let mut skipped = 0;
    for entry in per_run {
        let Some((receivers, outcomes)) = entry else {
            skipped += 1;
            continue;
        };
        admitted_runs += 1;
        for (p, o) in points.iter_mut().zip(outcomes) {
            let n = receivers as f64;
            p.served_frac.add(o.served as f64 / n);
            p.compliant_frac.add(if o.served == 0 {
                0.0
            } else {
                o.compliant as f64 / o.served as f64
            });
        }
    }
    QosReport {
        points,
        admitted_runs,
        skipped_runs: skipped,
    }
}

pub fn render(cfg: &QosConfig, report: &QosReport) -> Table {
    let mut t = Table::new(
        format!(
            "QoS compliance (bandwidth floor {}) — {} topology, {} receivers, {} admitted / {} skipped runs",
            cfg.min_bw,
            cfg.run.topo.name(),
            cfg.group_size,
            report.admitted_runs,
            report.skipped_runs
        ),
        "metric",
        &QOS_ARMS.map(ProtocolKind::name),
    );
    t.summary_row("served fraction", &report.points, |p| &p.served_frac);
    t.summary_row("compliant-path fraction", &report.points, |p| {
        &p.compliant_frac
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_unicast_is_fully_compliant_pim_is_not() {
        let cfg = QosConfig {
            run: RunConfig::default().runs(8),
            group_size: 8,
            min_bw: 4,
        };
        let r = evaluate(&cfg);
        assert!(
            r.admitted_runs >= 3,
            "too few admitted runs ({})",
            r.admitted_runs
        );
        let [hbh, reunite, pim] = [&r.points[0], &r.points[1], &r.points[2]];
        assert_eq!(hbh.served_frac.mean(), 1.0, "HBH must serve everyone");
        assert_eq!(
            hbh.compliant_frac.mean(),
            1.0,
            "HBH paths compliant by construction"
        );
        assert_eq!(
            reunite.compliant_frac.mean(),
            1.0,
            "REUNITE data is routed unicast too"
        );
        assert!(
            pim.compliant_frac.mean() < 1.0,
            "PIM's reverse-direction data should violate the floor sometimes ({})",
            pim.compliant_frac.mean()
        );
    }
}
