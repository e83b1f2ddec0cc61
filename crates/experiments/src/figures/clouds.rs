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

use crate::figures::eval::{option_sweep, COST, DELAY, INCOMPLETE};
use crate::figures::sweep::Point;
use crate::report::Table;
use crate::runner::{ProbeOutcome, RunConfig};

/// Sweeps `values` as the fraction of routers that are unicast-only (the
/// published table runs `ProtocolKind::RECURSIVE_UNICAST`).
pub fn evaluate(run: &RunConfig, group_size: usize, values: &[f64]) -> Vec<Point<ProbeOutcome>> {
    option_sweep(run, group_size, values, |opts, f| {
        opts.unicast_only_fraction = f
    })
}

/// One sweep's two tables, cost then delay: each arm's metric, then each
/// arm's incomplete draws, at every step.
pub fn tables(run: &RunConfig, group_size: usize, values: &[f64]) -> [Table; 2] {
    let points = evaluate(run, group_size, values);
    let arms = run.protocols.iter().map(|arm| arm.name());
    let header: Vec<String> = arms
        .clone()
        .map(String::from)
        .chain(arms.map(|arm| format!("{arm} incompl")))
        .collect();
    [COST, DELAY].map(|metric| {
        let what = format!("{} vs unicast-only router fraction", metric.title);
        let title = run.title(&what, Some(group_size)) + "/point";
        let mut t = Table::new(title, "unicast-only", &header);
        for p in &points {
            let mut row = p.cells(metric.column);
            row.extend(p.counts(INCOMPLETE));
            t.row(&p.x, row);
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;

    fn run(runs: usize) -> RunConfig {
        let arms = ProtocolKind::RECURSIVE_UNICAST.to_vec();
        RunConfig::default().runs(runs).protocols(arms)
    }

    #[test]
    fn delivery_survives_heavy_unicast_clouds() {
        let points = evaluate(&run(4), 8, &[0.6]);
        for kind in ProtocolKind::RECURSIVE_UNICAST {
            assert_eq!(
                points[0].count(kind, INCOMPLETE),
                0,
                "{} dropped receivers behind unicast clouds",
                kind.name()
            );
        }
    }

    #[test]
    fn cost_rises_as_branching_gets_displaced() {
        let points = evaluate(&run(6), 10, &[0.0, 0.8]);
        let hbh_cost = |p: &Point<ProbeOutcome>| p.summary(ProtocolKind::Hbh, COST.column).mean();
        assert!(
            hbh_cost(&points[1]) > hbh_cost(&points[0]),
            "displaced branching should cost extra copies: {} vs {}",
            hbh_cost(&points[1]),
            hbh_cost(&points[0])
        );
    }
}
