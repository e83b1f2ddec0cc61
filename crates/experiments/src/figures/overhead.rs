//! Ablation A4/extension — control-plane overhead.
//!
//! The paper's metrics are data-plane only; a deployment also cares about
//! the refresh traffic each protocol sustains. This study measures
//! steady-state control transmissions per refresh period, per protocol,
//! as the group grows: joins (all), trees (recursive unicast), fusions
//! (HBH only). HBH is expected to pay more control than REUNITE (its
//! fusion machinery keeps running under asymmetry — §3.1), which frames
//! the paper's data-plane gains as a control-plane trade.

use crate::figures::eval::EvalConfig;
use crate::protocols::{dispatch, Study};
use crate::report::Table;
use crate::runner::converge;
use crate::scenario::{build, Scenario, ScenarioOptions};
use crate::stats::Summary;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Kernel, Protocol};

struct OverheadStudy;

impl Study for OverheadStudy {
    /// Control transmissions per tree period in steady state.
    type Out = f64;

    fn run<P: Protocol<Command = Cmd>>(
        &self,
        mut k: Kernel<P>,
        _ch: Channel,
        scenario: &Scenario,
        timing: &Timing,
    ) -> f64 {
        converge(&mut k, timing, scenario.join_window);
        let c0 = k.stats().control_copies();
        let t0 = k.now();
        let periods = 20;
        k.run_until(t0 + periods * timing.tree_period);
        (k.stats().control_copies() - c0) as f64 / periods as f64
    }
}

pub fn evaluate(cfg: &EvalConfig) -> Vec<(usize, Vec<Summary>)> {
    let run = &cfg.run;
    cfg.sizes
        .iter()
        .map(|&m| {
            let per_run = crate::parallel::map_runs(run.runs, |i| {
                let sc = build(
                    run.topo,
                    m,
                    (run.base_seed ^ ((m as u64) << 24)) ^ i as u64,
                    &run.timing,
                    &ScenarioOptions::default(),
                );
                run.protocols
                    .iter()
                    .map(|&kind| dispatch(kind, &sc, &run.timing, &OverheadStudy))
                    .collect::<Vec<_>>()
            });
            let mut acc = vec![Summary::default(); run.protocols.len()];
            for outcomes in per_run {
                for (a, o) in acc.iter_mut().zip(outcomes) {
                    a.add(o);
                }
            }
            (m, acc)
        })
        .collect()
}

pub fn render(cfg: &EvalConfig, rows: &[(usize, Vec<Summary>)]) -> Table {
    let names: Vec<&str> = cfg.run.protocols.iter().map(|p| p.name()).collect();
    let mut t = Table::new(
        format!(
            "Control transmissions per refresh period — {} topology, {} runs/point",
            cfg.run.topo.name(),
            cfg.run.runs
        ),
        "receivers",
        &names,
    );
    for (m, points) in rows {
        t.row(
            m.to_string(),
            points
                .iter()
                .map(|s| Table::cell(s.mean(), s.ci95()))
                .collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::eval::EvalConfig;
    use crate::protocols::ProtocolKind;
    use crate::runner::RunConfig;

    #[test]
    fn overhead_grows_with_group_size() {
        let cfg = EvalConfig {
            run: RunConfig::default()
                .runs(3)
                .protocols(vec![ProtocolKind::Hbh]),
            sizes: vec![2, 12],
        };
        let rows = evaluate(&cfg);
        assert!(
            rows[1].1[0].mean() > rows[0].1[0].mean(),
            "more receivers must mean more refresh traffic"
        );
    }

    #[test]
    fn every_protocol_has_nonzero_steady_state_overhead() {
        let cfg = EvalConfig {
            run: RunConfig::default().runs(2),
            sizes: vec![6],
        };
        let rows = evaluate(&cfg);
        for (i, s) in rows[0].1.iter().enumerate() {
            assert!(
                s.mean() > 0.0,
                "{} shows no refresh traffic",
                cfg.run.protocols[i].name()
            );
        }
    }
}
