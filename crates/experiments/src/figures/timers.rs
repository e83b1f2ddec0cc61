//! Ablation A3 — soft-state timer sensitivity.
//!
//! The paper never publishes its t1/t2 constants; this ablation shows the
//! steady-state metrics are insensitive to them while convergence time
//! scales with t2 (which is why our defaults are safe — `DESIGN.md` A3).
//! We scale t1/t2 by a factor (periods fixed) and report the time of the
//! last structural change (convergence time) and the probe metrics.

use crate::figures::eval::KnobSweep;
use crate::protocols::{dispatch, Study};
use crate::report::Table;
use crate::runner::{converge, probe};
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Kernel, Protocol};

/// Outcome of one timer-scale run.
#[derive(Clone, Copy, Debug)]
pub struct TimerOutcome {
    /// Simulated time of the last structural change (convergence time).
    pub converged_at: u64,
    pub cost: u64,
    pub avg_delay: f64,
    pub complete: bool,
}

struct ConvergenceStudy;

impl Study for ConvergenceStudy {
    type Out = TimerOutcome;

    fn run<P: Protocol<Command = Cmd>>(
        &self,
        mut k: Kernel<P>,
        ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> TimerOutcome {
        converge(&mut k, timing, scenario.join_window);
        let converged_at = k.stats().last_structural_change.0;
        let expected = scenario.receivers.len();
        let (cost, delays) = probe(&mut k, ch, 1, expected);
        TimerOutcome {
            converged_at,
            cost,
            avg_delay: delays.values().sum::<u64>() as f64 / delays.len().max(1) as f64,
            complete: delays.len() == expected,
        }
    }
}

/// Scales t1/t2 (and t2 = 2·t1 stays preserved) without touching periods.
pub fn scaled_timing(scale: f64) -> Timing {
    let base = Timing::default();
    let t1 = ((base.t1 as f64) * scale).round() as u64;
    Timing {
        t1,
        t2: 2 * t1,
        ..base
    }
}

#[derive(Clone, Debug, Default)]
pub struct TimersPoint {
    pub converged_at: Summary,
    pub cost: Summary,
    pub delay: Summary,
    pub incomplete: u64,
}

/// Visits `cfg.values` as t1/t2 scale factors: `run.timing` is replaced
/// per step by [`scaled_timing`].
pub fn evaluate(cfg: &KnobSweep) -> Vec<(f64, Vec<TimersPoint>)> {
    let run = &cfg.run;
    cfg.values
        .iter()
        .map(|&scale| {
            let timing = scaled_timing(scale);
            let per_run = crate::parallel::map_runs(run.runs, |i| {
                let sc = build(
                    run.topo,
                    cfg.group_size,
                    run.base_seed ^ ((i as u64) << 8),
                    &timing,
                    &ScenarioOptions::default(),
                );
                run.protocols
                    .iter()
                    .map(|&kind| dispatch(kind, &sc, &timing, &ConvergenceStudy))
                    .collect::<Vec<_>>()
            });
            let mut acc = vec![TimersPoint::default(); run.protocols.len()];
            for outcomes in per_run {
                for (a, o) in acc.iter_mut().zip(outcomes) {
                    a.converged_at.add(o.converged_at as f64);
                    a.cost.add(o.cost as f64);
                    a.delay.add(o.avg_delay);
                    if !o.complete {
                        a.incomplete += 1;
                    }
                }
            }
            (scale, acc)
        })
        .collect()
}

pub fn render(cfg: &KnobSweep, rows: &[(f64, Vec<TimersPoint>)]) -> Table {
    let mut cols = Vec::new();
    for p in &cfg.run.protocols {
        cols.push(format!("{} conv.time", p.name()));
        cols.push(format!("{} cost", p.name()));
        cols.push(format!("{} delay", p.name()));
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Timer-scale sensitivity — {} topology, {} receivers, {} runs/point",
            cfg.run.topo.name(),
            cfg.group_size,
            cfg.run.runs
        ),
        "t-scale",
        &col_refs,
    );
    for (scale, points) in rows {
        let mut cells = Vec::new();
        for p in points {
            cells.push(Table::cell(p.converged_at.mean(), p.converged_at.ci95()));
            cells.push(Table::cell(p.cost.mean(), p.cost.ci95()));
            cells.push(Table::cell(p.delay.mean(), p.delay.ci95()));
        }
        t.row(format!("{scale:.1}"), cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;
    use crate::runner::RunConfig;

    #[test]
    fn steady_state_metrics_insensitive_to_timer_scale() {
        let cfg = KnobSweep {
            run: RunConfig::default()
                .runs(3)
                .protocols(vec![ProtocolKind::Hbh]),
            group_size: 8,
            values: vec![1.0, 4.0],
        };
        let rows = evaluate(&cfg);
        let (c1, c4) = (&rows[0].1[0], &rows[1].1[0]);
        assert_eq!(c1.incomplete + c4.incomplete, 0);
        assert!(
            (c1.cost.mean() - c4.cost.mean()).abs() < 0.5,
            "cost moved with timer scale: {} vs {}",
            c1.cost.mean(),
            c4.cost.mean()
        );
        assert!((c1.delay.mean() - c4.delay.mean()).abs() < 0.5);
    }

    #[test]
    fn scaled_timing_keeps_invariants() {
        for s in [0.5, 1.0, 3.0] {
            scaled_timing(s).validate();
        }
    }
}
