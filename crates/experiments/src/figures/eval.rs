//! The paper's headline evaluation (Figures 7 and 8): average tree cost
//! and average receiver delay vs. group size, four protocols, two
//! topologies, N independent paired runs per point — plus the same probe
//! swept over one scenario option (the asymmetry and unicast-cloud
//! ablations).

use crate::figures::sweep::{sweep, table_by_x, Column, Count, Point};
use crate::protocols::{ProbeStudy, ProtocolKind};
use crate::report::Table;
use crate::runner::{ProbeOutcome, RunConfig};
use crate::scenario::{build, ScenarioOptions};

/// One of the two paper metrics: its figure's title and what it reads off
/// one probe (unnamed: a figure plots one metric, so its columns are
/// headed by the arm alone).
#[derive(Clone, Copy)]
pub struct Metric {
    pub title: &'static str,
    pub column: Column<ProbeOutcome>,
}

/// Figure 7: packet copies per injected data packet.
pub const COST: Metric = Metric {
    title: "Tree cost (number of packet copies)",
    column: ("", |o| Some(o.cost as f64)),
};

/// Figure 8: mean receiver delay in time units.
pub const DELAY: Metric = Metric {
    title: "Receiver average delay (time units)",
    column: ("", |o| Some(o.avg_delay())),
};

/// Draws where not every receiver was served (must stay 0).
pub const INCOMPLETE: Count<ProbeOutcome> = ("incomplete", |o| !o.complete());
/// Draws that failed to quiesce before the probe (should stay 0).
pub const UNCONVERGED: Count<ProbeOutcome> = ("unconverged", |o| !o.converged);

/// Seed for run `run` at group size `group_size`: `base ^ (size << 32) ^
/// run`, giving disjoint seed spaces per (size, run) pair. The shift is
/// deliberately parenthesized — `<<` binds tighter than `^` in Rust, so
/// this grouping is exactly what the historical unparenthesized expression
/// evaluated to; a regression test pins the sequence.
pub fn run_seed(base_seed: u64, group_size: usize, run: usize) -> u64 {
    (base_seed ^ ((group_size as u64) << 32)) ^ run as u64
}

/// Probes every arm of `run` at every group size of `sizes` (the paper's
/// are `run.topo.paper_group_sizes()`); one point per size.
pub fn evaluate(run: &RunConfig, sizes: &[usize]) -> Vec<Point<ProbeOutcome>> {
    sweep(run, sizes, usize::to_string, |&m, i| {
        Some((run.draw(m, run_seed(run.base_seed, m, i)), ProbeStudy))
    })
}

/// The same probe at a fixed group size, swept over one scenario option:
/// `set` writes each of `values` into otherwise default options, and each
/// value draws from its own seed space. One point per value.
pub fn option_sweep(
    run: &RunConfig,
    group_size: usize,
    values: &[f64],
    set: fn(&mut ScenarioOptions, f64),
) -> Vec<Point<ProbeOutcome>> {
    sweep(
        run,
        values,
        |v| format!("{v:.2}"),
        |&value, i| {
            let mut opts = ScenarioOptions::default();
            set(&mut opts, value);
            let base = run.base_seed ^ ((value * 1000.0) as u64) << 20;
            let seed = run_seed(base, group_size, i);
            let sc = build(run.topo, group_size, seed, &run.timing, &opts);
            Some((sc, ProbeStudy))
        },
    )
}

/// Renders one figure's table.
pub fn render(run: &RunConfig, points: &[Point<ProbeOutcome>], metric: Metric) -> Table {
    let title = run.title(metric.title, None) + "/point";
    table_by_x(title, "receivers", &run.protocols, &[metric.column], points)
}

/// The paper's §4.2 headline comparison: HBH's average advantage over
/// REUNITE across all points, in percent (positive = HBH better, i.e.
/// smaller metric). Both must be arms of the run.
pub fn hbh_advantage_over_reunite(points: &[Point<ProbeOutcome>], metric: Metric) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0;
    for p in points {
        let h = p.summary(ProtocolKind::Hbh, metric.column).mean();
        let r = p.summary(ProtocolKind::Reunite, metric.column).mean();
        if r > 0.0 {
            total += (r - h) / r * 100.0;
            n += 1;
        }
    }
    (n > 0).then(|| total / n as f64)
}

/// Health check: no protocol may have dropped receivers or failed to
/// converge. Returns a description of the first violation.
pub fn health_violations(points: &[Point<ProbeOutcome>]) -> Option<String> {
    for p in points {
        for (kind, _) in &p.arms {
            for what in [INCOMPLETE, UNCONVERGED] {
                let runs = p.count(*kind, what);
                if runs > 0 {
                    let (name, m, what) = (kind.name(), &p.x, what.0);
                    return Some(format!("{name} at m={m}: {runs} {what} runs"));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: [usize; 2] = [4, 10];

    fn small_run() -> RunConfig {
        RunConfig::default().runs(6)
    }

    #[test]
    fn evaluation_is_healthy_and_ordered() {
        let run = small_run();
        let points = evaluate(&run, &SIZES);
        assert_eq!(points.len(), 2);
        assert_eq!(health_violations(&points), None);
        // Cost grows with group size for every protocol.
        let cost = |p: &Point<ProbeOutcome>, kind| p.summary(kind, COST.column).mean();
        for kind in run.protocols {
            assert!(
                cost(&points[1], kind) > cost(&points[0], kind),
                "{}: cost should grow with receivers",
                kind.name()
            );
        }
    }

    #[test]
    fn hbh_tracks_pim_ss_cost_and_beats_reunite_delay() {
        // The paper's qualitative ordering on the ISP topology, at a small
        // sample size: HBH ≈ PIM-SS on cost; HBH ≤ REUNITE on delay.
        let points = evaluate(&small_run().runs(10), &[10]);
        let cost = |k| points[0].summary(k, COST.column).mean();
        let delay = |k| points[0].summary(k, DELAY.column).mean();
        assert!(
            (cost(ProtocolKind::Hbh) - cost(ProtocolKind::PimSs)).abs()
                < 0.15 * cost(ProtocolKind::PimSs),
            "HBH cost {} far from PIM-SS {}",
            cost(ProtocolKind::Hbh),
            cost(ProtocolKind::PimSs)
        );
        assert!(
            delay(ProtocolKind::Hbh) <= delay(ProtocolKind::Reunite) * 1.02,
            "HBH delay {} worse than REUNITE {}",
            delay(ProtocolKind::Hbh),
            delay(ProtocolKind::Reunite)
        );
    }

    #[test]
    fn run_seed_sequence_is_pinned() {
        // The exact seed stream the published figures were generated with.
        // `<<` binds tighter than `^`, so the historical expression
        // `base ^ (m as u64) << 32 ^ run` always grouped like run_seed();
        // this test freezes that so a future refactor cannot silently
        // reshuffle every scenario draw.
        assert_eq!(run_seed(1, 6, 0), 0x6_0000_0001);
        assert_eq!(run_seed(1, 6, 3), 0x6_0000_0002);
        assert_eq!(run_seed(1, 16, 49), 0x10_0000_0030); // 1 ^ 49 = 48
        assert_eq!(run_seed(0xDEAD, 10, 7), (0xDEAD ^ (10u64 << 32)) ^ 7);
        #[allow(clippy::precedence)]
        fn historical(base: u64, m: usize, run: usize) -> u64 {
            base ^ (m as u64) << 32 ^ run as u64
        }
        for (base, m, run) in [(1u64, 2usize, 0usize), (1, 16, 499), (99, 45, 123)] {
            assert_eq!(run_seed(base, m, run), historical(base, m, run));
        }
    }

    #[test]
    fn advantage_metric_computes() {
        let points = evaluate(&small_run(), &SIZES);
        let adv = hbh_advantage_over_reunite(&points, DELAY).unwrap();
        assert!(adv > -50.0 && adv < 90.0, "implausible advantage {adv}");
    }

    #[test]
    fn render_has_row_per_size() {
        let run = small_run();
        let points = evaluate(&run, &SIZES);
        let table = render(&run, &points, COST).render();
        assert!(table.contains("PIM-SM") && table.contains("HBH"));
        assert_eq!(table.lines().count(), 2 + SIZES.len());
    }
}
