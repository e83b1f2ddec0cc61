//! Ablation A4/extension — control-plane overhead.
//!
//! The paper's metrics are data-plane only; a deployment also cares about
//! the refresh traffic each protocol sustains. This study measures
//! steady-state control transmissions per refresh period, per protocol,
//! as the group grows: joins (all), trees (recursive unicast), fusions
//! (HBH only). HBH is expected to pay more control than REUNITE (its
//! fusion machinery keeps running under asymmetry — §3.1), which frames
//! the paper's data-plane gains as a control-plane trade.

use crate::figures::sweep::{sweep, table_by_x, Column, Point};
use crate::protocols::Study;
use crate::report::Table;
use crate::runner::{control_per_period, converge, RunConfig};
use crate::scenario::Scenario;
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
        control_per_period(&mut k, timing, 20)
    }
}

const PER_PERIOD: Column<f64> = ("", |&copies| Some(copies));

pub fn evaluate(run: &RunConfig, sizes: &[usize]) -> Vec<Point<f64>> {
    sweep(run, sizes, usize::to_string, |&m, i| {
        let seed = (run.base_seed ^ ((m as u64) << 24)) ^ i as u64;
        Some((run.draw(m, seed), OverheadStudy))
    })
}

pub fn render(run: &RunConfig, points: &[Point<f64>]) -> Table {
    let title = run.title("Control transmissions per refresh period", None) + "/point";
    table_by_x(title, "receivers", &run.protocols, &[PER_PERIOD], points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;

    #[test]
    fn overhead_grows_with_group_size() {
        let run = RunConfig::default()
            .runs(3)
            .protocols(vec![ProtocolKind::Hbh]);
        let points = evaluate(&run, &[2, 12]);
        let mean = |p: &Point<f64>| p.summary(ProtocolKind::Hbh, PER_PERIOD).mean();
        assert!(
            mean(&points[1]) > mean(&points[0]),
            "more receivers must mean more refresh traffic"
        );
    }

    #[test]
    fn every_protocol_has_nonzero_steady_state_overhead() {
        let run = RunConfig::default().runs(2);
        let points = evaluate(&run, &[6]);
        for kind in run.protocols {
            assert!(
                points[0].summary(kind, PER_PERIOD).mean() > 0.0,
                "{} shows no refresh traffic",
                kind.name()
            );
        }
    }
}
