//! Ablation A1 — asymmetry sweep.
//!
//! The paper's causal story is that HBH's advantage over REUNITE *comes
//! from* unicast routing asymmetry (§2.3, §4.2). This ablation
//! interpolates the asymmetry probability from 0 (fully symmetric costs)
//! to 1 (the paper's independent per-direction draws) and reports the
//! cost/delay of the two recursive-unicast protocols plus the HBH
//! advantage at each step — the advantage should be ≈ 0 at `a = 0` and
//! grow with `a`.

use crate::figures::eval::{hbh_advantage_over_reunite, option_sweep, COST, DELAY};
use crate::figures::sweep::Point;
use crate::protocols::ProtocolKind;
use crate::report::Table;
use crate::runner::{ProbeOutcome, RunConfig};

/// The arms of the published table: the recursive-unicast pair and the
/// reverse-SPT baseline.
pub const ASYMMETRY_ARMS: [ProtocolKind; 3] = [
    ProtocolKind::PimSs,
    ProtocolKind::Reunite,
    ProtocolKind::Hbh,
];

/// Sweeps `values` as the probability that a link's two directions get
/// independent costs.
pub fn evaluate(run: &RunConfig, group_size: usize, values: &[f64]) -> Vec<Point<ProbeOutcome>> {
    option_sweep(run, group_size, values, |opts, a| opts.asymmetry = a)
}

/// One sweep's two tables, cost then delay: each arm's metric and HBH's
/// advantage over REUNITE (both must be arms) at every step.
pub fn tables(run: &RunConfig, group_size: usize, values: &[f64]) -> [Table; 2] {
    let points = evaluate(run, group_size, values);
    let mut header: Vec<&str> = run.protocols.iter().map(|arm| arm.name()).collect();
    header.push("HBH adv %");
    [COST, DELAY].map(|metric| {
        let what = format!("{} vs cost asymmetry", metric.title);
        let title = run.title(&what, Some(group_size)) + "/point";
        let mut t = Table::new(title, "asymmetry", &header);
        for p in &points {
            let adv = hbh_advantage_over_reunite(std::slice::from_ref(p), metric).unwrap_or(0.0);
            let mut row = p.cells(metric.column);
            row.push(format!("{adv:8.2}"));
            t.row(&p.x, row);
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay_advantage(runs: usize, group_size: usize, asymmetry: f64) -> f64 {
        let run = RunConfig::default().runs(runs);
        let points = evaluate(&run, group_size, &[asymmetry]);
        hbh_advantage_over_reunite(&points, DELAY).unwrap()
    }
    #[test]
    fn symmetric_network_has_no_hbh_delay_advantage() {
        let adv = delay_advantage(5, 8, 0.0);
        // With symmetric costs, forward SPT = reverse SPT: both protocols
        // serve every receiver at the unicast distance.
        assert!(
            adv.abs() < 1.0,
            "unexpected advantage {adv}% on symmetric network"
        );
    }

    #[test]
    fn full_asymmetry_gives_hbh_an_edge() {
        let adv = delay_advantage(8, 10, 1.0);
        assert!(
            adv > 0.0,
            "HBH should win on delay under asymmetry, got {adv}%"
        );
    }
}
