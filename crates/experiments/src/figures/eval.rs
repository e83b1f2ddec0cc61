//! The paper's headline evaluation (Figures 7 and 8): average tree cost
//! and average receiver delay vs. group size, four protocols, two
//! topologies, N independent paired runs per point.

use crate::protocols::{run_protocol, ProtocolKind};
use crate::report::Table;
use crate::runner::RunConfig;
use crate::scenario::{build, ScenarioOptions};
use crate::stats::Summary;

/// Which of the two paper metrics to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Figure 7: packet copies per injected data packet.
    Cost,
    /// Figure 8: mean receiver delay in time units.
    Delay,
}

impl Metric {
    pub fn title(self) -> &'static str {
        match self {
            Metric::Cost => "Tree cost (number of packet copies)",
            Metric::Delay => "Receiver average delay (time units)",
        }
    }
}

/// A group-size sweep — Figures 7 and 8, and the overhead and state-size
/// studies: the shared run knobs plus the group sizes to visit (the
/// paper's are `run.topo.paper_group_sizes()`).
#[derive(Clone, Debug)]
pub struct EvalConfig {
    pub run: RunConfig,
    pub sizes: Vec<usize>,
}

/// Per-protocol aggregates at one group size.
#[derive(Clone, Debug, Default)]
pub struct ProtocolPoint {
    pub cost: Summary,
    pub delay: Summary,
    /// Runs where not every receiver was served (must stay 0).
    pub incomplete: u64,
    /// Runs that failed to quiesce before the probe (should stay 0).
    pub unconverged: u64,
}

/// One group-size row of the figure.
#[derive(Clone, Debug)]
pub struct EvalPoint {
    pub group_size: usize,
    /// Indexed like `cfg.run.protocols`.
    pub per_protocol: Vec<ProtocolPoint>,
}

/// Seed for run `run` at group size `group_size`: `base ^ (size << 32) ^
/// run`, giving disjoint seed spaces per (size, run) pair. The shift is
/// deliberately parenthesized — `<<` binds tighter than `^` in Rust, so
/// this grouping is exactly what the historical unparenthesized expression
/// evaluated to; a regression test pins the sequence.
pub fn run_seed(base_seed: u64, group_size: usize, run: usize) -> u64 {
    (base_seed ^ ((group_size as u64) << 32)) ^ run as u64
}

/// Runs the full evaluation; paired design: all protocols see the same
/// scenario draw of each run. Runs are distributed over available cores.
pub fn evaluate(cfg: &EvalConfig) -> Vec<EvalPoint> {
    cfg.sizes
        .iter()
        .map(|&m| evaluate_point(&cfg.run, m))
        .collect()
}

fn evaluate_point(cfg: &RunConfig, group_size: usize) -> EvalPoint {
    // One row of per-protocol outcomes per run, back in run order, so the
    // Summary fold below is independent of worker scheduling.
    let per_run = crate::parallel::map_runs(cfg.runs, |run| {
        let seed = run_seed(cfg.base_seed, group_size, run);
        let sc = build(cfg.topo, group_size, seed, &cfg.timing, &cfg.opts);
        cfg.protocols
            .iter()
            .map(|&kind| run_protocol(kind, &sc, &cfg.timing))
            .collect::<Vec<_>>()
    });

    let mut merged = vec![ProtocolPoint::default(); cfg.protocols.len()];
    for outcomes in per_run {
        for (m, o) in merged.iter_mut().zip(outcomes) {
            m.cost.add(o.cost as f64);
            m.delay.add(o.avg_delay());
            if !o.complete() {
                m.incomplete += 1;
            }
            if !o.converged {
                m.unconverged += 1;
            }
        }
    }
    EvalPoint {
        group_size,
        per_protocol: merged,
    }
}

/// The aggregate of `p` that `metric` reports.
pub fn metric_of(p: &ProtocolPoint, metric: Metric) -> &Summary {
    match metric {
        Metric::Cost => &p.cost,
        Metric::Delay => &p.delay,
    }
}

/// Renders one figure's table.
pub fn render(cfg: &EvalConfig, points: &[EvalPoint], metric: Metric) -> Table {
    let names: Vec<&str> = cfg.run.protocols.iter().map(|p| p.name()).collect();
    let mut t = Table::new(
        format!(
            "{} — {} topology, {} runs/point",
            metric.title(),
            cfg.run.topo.name(),
            cfg.run.runs
        ),
        "receivers",
        &names,
    );
    for p in points {
        let cells = p
            .per_protocol
            .iter()
            .map(|pp| {
                let s = metric_of(pp, metric);
                Table::cell(s.mean(), s.ci95())
            })
            .collect();
        t.row(p.group_size.to_string(), cells);
    }
    t
}

/// The paper's §4.2 headline comparison: HBH's average advantage over
/// REUNITE across all group sizes, in percent (positive = HBH better,
/// i.e. smaller metric).
pub fn hbh_advantage_over_reunite(
    cfg: &EvalConfig,
    points: &[EvalPoint],
    metric: Metric,
) -> Option<f64> {
    let protocols = &cfg.run.protocols;
    let hbh = protocols.iter().position(|&p| p == ProtocolKind::Hbh)?;
    let reunite = protocols.iter().position(|&p| p == ProtocolKind::Reunite)?;
    let mut total = 0.0;
    let mut n = 0;
    for p in points {
        let h = metric_of(&p.per_protocol[hbh], metric).mean();
        let r = metric_of(&p.per_protocol[reunite], metric).mean();
        if r > 0.0 {
            total += (r - h) / r * 100.0;
            n += 1;
        }
    }
    (n > 0).then(|| total / n as f64)
}

/// One knob swept at a fixed group size: a scenario option (the
/// asymmetry and unicast-cloud ablations, via [`evaluate_knob`]) or the
/// timer scale (`figures::timers`).
pub struct KnobSweep {
    pub run: RunConfig,
    pub group_size: usize,
    /// The knob settings to visit.
    pub values: Vec<f64>,
}

/// One step of a [`KnobSweep`]: the value, what was measured there,
/// and the evaluation config that measured it.
pub struct KnobPoint {
    pub value: f64,
    pub point: EvalPoint,
    pub cfg: EvalConfig,
}

/// Evaluates `protocols` at every value of `sweep`, `set` writing the
/// value into otherwise default scenario options; each step draws from
/// its own seed space.
pub fn evaluate_knob(
    sweep: &KnobSweep,
    protocols: &[ProtocolKind],
    set: impl Fn(&mut ScenarioOptions, f64),
) -> Vec<KnobPoint> {
    let step = |&value: &f64| {
        let mut opts = ScenarioOptions::default();
        set(&mut opts, value);
        let cfg = EvalConfig {
            run: RunConfig {
                base_seed: sweep.run.base_seed ^ ((value * 1000.0) as u64) << 20,
                opts,
                protocols: protocols.to_vec(),
                ..sweep.run.clone()
            },
            sizes: vec![sweep.group_size],
        };
        let point = evaluate(&cfg).remove(0);
        KnobPoint { value, point, cfg }
    };
    sweep.values.iter().map(step).collect()
}

/// Health check: no protocol may have dropped receivers or failed to
/// converge. Returns a description of the first violation.
pub fn health_violations(cfg: &EvalConfig, points: &[EvalPoint]) -> Option<String> {
    for p in points {
        for (kind, pp) in cfg.run.protocols.iter().zip(&p.per_protocol) {
            for (runs, what) in [
                (pp.incomplete, "incomplete"),
                (pp.unconverged, "unconverged"),
            ] {
                if runs > 0 {
                    let (name, m) = (kind.name(), p.group_size);
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

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            run: RunConfig::default().runs(6),
            sizes: vec![4, 10],
        }
    }

    #[test]
    fn evaluation_is_healthy_and_ordered() {
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        assert_eq!(points.len(), 2);
        assert_eq!(health_violations(&cfg, &points), None);
        // Cost grows with group size for every protocol.
        for i in 0..cfg.run.protocols.len() {
            assert!(
                points[1].per_protocol[i].cost.mean() > points[0].per_protocol[i].cost.mean(),
                "{}: cost should grow with receivers",
                cfg.run.protocols[i].name()
            );
        }
    }

    #[test]
    fn hbh_tracks_pim_ss_cost_and_beats_reunite_delay() {
        // The paper's qualitative ordering on the ISP topology, at a small
        // sample size: HBH ≈ PIM-SS on cost; HBH ≤ REUNITE on delay.
        let mut cfg = small_cfg();
        cfg.sizes = vec![10];
        cfg.run.runs = 10;
        let points = evaluate(&cfg);
        let idx = |k: ProtocolKind| cfg.run.protocols.iter().position(|&p| p == k).unwrap();
        let p = &points[0].per_protocol;
        let cost = |k| p[idx(k)].cost.mean();
        let delay = |k| p[idx(k)].delay.mean();
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
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        let adv = hbh_advantage_over_reunite(&cfg, &points, Metric::Delay).unwrap();
        assert!(adv > -50.0 && adv < 90.0, "implausible advantage {adv}");
    }

    #[test]
    fn render_has_row_per_size() {
        let cfg = small_cfg();
        let points = evaluate(&cfg);
        let table = render(&cfg, &points, Metric::Cost).render();
        assert!(table.contains("PIM-SM") && table.contains("HBH"));
        assert_eq!(table.lines().count(), 2 + cfg.sizes.len());
    }
}
