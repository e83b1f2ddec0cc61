//! Ablation A2 — unicast-only clouds.
//!
//! The protocols' raison d'être (§1): keep delivering when a fraction of
//! the routers cannot hold multicast state. Only the recursive-unicast
//! protocols can run here — PIM forwards data interface-by-interface and
//! has no way across a unicast-only router (which is the deployment
//! problem the paper starts from). We sweep the unicast-only fraction and
//! report delivery completeness, tree cost, and delay for HBH and
//! REUNITE; cost should rise as branching points get displaced, and
//! completeness must stay at 100%.

use crate::figures::eval::{evaluate_knob, metric_of, KnobPoint, KnobSweep, Metric};
use crate::protocols::ProtocolKind;
use crate::report::Table;

/// Sweeps `cfg.values` as the fraction of routers that are unicast-only.
pub fn evaluate_sweep(cfg: &KnobSweep) -> Vec<KnobPoint> {
    evaluate_knob(cfg, &ProtocolKind::RECURSIVE_UNICAST, |opts, f| {
        opts.unicast_only_fraction = f
    })
}

pub fn render(cfg: &KnobSweep, points: &[KnobPoint], metric: Metric) -> Table {
    let mut t = Table::new(
        format!(
            "{} vs unicast-only router fraction — {} topology, {} receivers, {} runs/point",
            metric.title(),
            cfg.run.topo.name(),
            cfg.group_size,
            cfg.run.runs
        ),
        "unicast-only",
        &["REUNITE", "HBH", "REUNITE incompl", "HBH incompl"],
    );
    for p in points {
        let s = |i: usize| metric_of(&p.point.per_protocol[i], metric);
        t.row(
            format!("{:.2}", p.value),
            vec![
                Table::cell(s(0).mean(), s(0).ci95()),
                Table::cell(s(1).mean(), s(1).ci95()),
                format!("{:>8}", p.point.per_protocol[0].incomplete),
                format!("{:>8}", p.point.per_protocol[1].incomplete),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    #[test]
    fn delivery_survives_heavy_unicast_clouds() {
        let cfg = KnobSweep {
            run: RunConfig::default().runs(4),
            group_size: 8,
            values: vec![0.6],
        };
        let pts = evaluate_sweep(&cfg);
        for (i, pp) in pts[0].point.per_protocol.iter().enumerate() {
            assert_eq!(
                pp.incomplete,
                0,
                "{} dropped receivers behind unicast clouds",
                pts[0].cfg.run.protocols[i].name()
            );
        }
    }

    #[test]
    fn cost_rises_as_branching_gets_displaced() {
        let cfg = KnobSweep {
            run: RunConfig::default().runs(6),
            group_size: 10,
            values: vec![0.0, 0.8],
        };
        let pts = evaluate_sweep(&cfg);
        let hbh_cost = |p: &KnobPoint| p.point.per_protocol[1].cost.mean();
        assert!(
            hbh_cost(&pts[1]) > hbh_cost(&pts[0]),
            "displaced branching should cost extra copies: {} vs {}",
            hbh_cost(&pts[1]),
            hbh_cost(&pts[0])
        );
    }
}
