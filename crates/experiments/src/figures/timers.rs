//! Ablation A3 — soft-state timer sensitivity.
//!
//! The paper never publishes its t1/t2 constants; this ablation shows the
//! steady-state metrics are insensitive to them while convergence time
//! scales with t2 (which is why our defaults are safe — `DESIGN.md` A3).
//! We scale t2 (and so t1 = t2/2) by a factor (period fixed) and report
//! the time of the last structural change (convergence time) and the
//! probe metrics.

use crate::figures::sweep::{point, table_by_x, Column, Point};
use crate::protocols::ProbeStudy;
use crate::report::Table;
use crate::runner::{ProbeOutcome, RunConfig};
use hbh_proto_base::Timing;

/// Scales the lifetime `t2` (and with it t1 = t2/2) without touching the
/// period.
pub fn scaled_timing(scale: f64) -> Timing {
    let base = Timing::default();
    Timing {
        t2: ((base.t2 as f64) * scale).round() as u64,
        ..base
    }
}

const COLUMNS: [Column<ProbeOutcome>; 3] = [
    ("conv.time", |o| Some(o.converged_at as f64)),
    ("cost", |o| Some(o.cost as f64)),
    ("delay", |o| Some(o.avg_delay())),
];

/// Probes at every t2 scale factor of `scales` — each point runs under
/// its own [`scaled_timing`], on the same draws as every other.
pub fn evaluate(run: &RunConfig, group_size: usize, scales: &[f64]) -> Vec<Point<ProbeOutcome>> {
    let at = |&scale: &f64| {
        let run = RunConfig {
            timing: scaled_timing(scale),
            ..run.clone()
        };
        let draw = |i| run.draw(group_size, run.base_seed ^ ((i as u64) << 8));
        Point {
            x: format!("{scale:.1}"),
            ..point(&run, |i| Some((draw(i), ProbeStudy)))
        }
    };
    scales.iter().map(at).collect()
}

pub fn render(run: &RunConfig, group_size: usize, points: &[Point<ProbeOutcome>]) -> Table {
    let title = run.title("Timer-scale sensitivity", Some(group_size)) + "/point";
    table_by_x(title, "t-scale", &run.protocols, &COLUMNS, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::eval::INCOMPLETE;
    use crate::protocols::ProtocolKind;

    #[test]
    fn steady_state_metrics_insensitive_to_timer_scale() {
        let run = RunConfig::default()
            .runs(3)
            .protocols(vec![ProtocolKind::Hbh]);
        let points = evaluate(&run, 8, &[1.0, 4.0]);
        let (c1, c4) = (&points[0], &points[1]);
        let hbh = ProtocolKind::Hbh;
        assert_eq!(c1.count(hbh, INCOMPLETE) + c4.count(hbh, INCOMPLETE), 0);
        let [_, cost, delay] = COLUMNS;
        let (cost1, cost4) = (c1.summary(hbh, cost).mean(), c4.summary(hbh, cost).mean());
        assert!(
            (cost1 - cost4).abs() < 0.5,
            "cost moved with timer scale: {cost1} vs {cost4}"
        );
        assert!((c1.summary(hbh, delay).mean() - c4.summary(hbh, delay).mean()).abs() < 0.5);
    }

    #[test]
    fn scaled_timing_keeps_invariants() {
        for s in [0.5, 1.0, 3.0] {
            scaled_timing(s).validate();
        }
    }
}
