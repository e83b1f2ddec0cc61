//! Ablation A1 — asymmetry sweep.
//!
//! The paper's causal story is that HBH's advantage over REUNITE *comes
//! from* unicast routing asymmetry (§2.3, §4.2). This ablation
//! interpolates the asymmetry probability from 0 (fully symmetric costs)
//! to 1 (the paper's independent per-direction draws) and reports the
//! cost/delay of the two recursive-unicast protocols plus the HBH
//! advantage at each step — the advantage should be ≈ 0 at `a = 0` and
//! grow with `a`.

use crate::figures::eval::{evaluate_knob, metric_of, KnobPoint, KnobSweep, Metric};
use crate::protocols::ProtocolKind;
use crate::report::Table;

/// Sweeps `cfg.values` as the probability that a link's two directions
/// get independent costs.
pub fn evaluate_sweep(cfg: &KnobSweep) -> Vec<KnobPoint> {
    let arms = [
        ProtocolKind::PimSs,
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
    ];
    evaluate_knob(cfg, &arms, |opts, a| opts.asymmetry = a)
}

pub fn render(cfg: &KnobSweep, points: &[KnobPoint], metric: Metric) -> Table {
    let mut t = Table::new(
        format!(
            "{} vs cost asymmetry — {} topology, {} receivers, {} runs/point",
            metric.title(),
            cfg.run.topo.name(),
            cfg.group_size,
            cfg.run.runs
        ),
        "asymmetry",
        &["PIM-SS", "REUNITE", "HBH", "HBH adv %"],
    );
    for p in points {
        let s = |i: usize| metric_of(&p.point.per_protocol[i], metric);
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &p.cfg,
            std::slice::from_ref(&p.point),
            metric,
        )
        .unwrap_or(0.0);
        t.row(
            format!("{:.2}", p.value),
            vec![
                Table::cell(s(0).mean(), s(0).ci95()),
                Table::cell(s(1).mean(), s(1).ci95()),
                Table::cell(s(2).mean(), s(2).ci95()),
                format!("{adv:8.2}"),
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
    fn symmetric_network_has_no_hbh_delay_advantage() {
        let cfg = KnobSweep {
            run: RunConfig::default().runs(5),
            group_size: 8,
            values: vec![0.0],
        };
        let pts = evaluate_sweep(&cfg);
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &pts[0].cfg,
            std::slice::from_ref(&pts[0].point),
            Metric::Delay,
        )
        .unwrap();
        // With symmetric costs, forward SPT = reverse SPT: both protocols
        // serve every receiver at the unicast distance.
        assert!(
            adv.abs() < 1.0,
            "unexpected advantage {adv}% on symmetric network"
        );
    }

    #[test]
    fn full_asymmetry_gives_hbh_an_edge() {
        let cfg = KnobSweep {
            run: RunConfig::default().runs(8),
            group_size: 10,
            values: vec![1.0],
        };
        let pts = evaluate_sweep(&cfg);
        let adv = crate::figures::eval::hbh_advantage_over_reunite(
            &pts[0].cfg,
            std::slice::from_ref(&pts[0].point),
            Metric::Delay,
        )
        .unwrap();
        assert!(
            adv > 0.0,
            "HBH should win on delay under asymmetry, got {adv}%"
        );
    }
}
