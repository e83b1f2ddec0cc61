//! Generalization check: the paper's qualitative results must hold on a
//! topology family it never tested (Waxman geometric random graphs), not
//! just on the two topologies the evaluation was tuned on.

use hbh_experiments::figures::eval::{
    evaluate, hbh_advantage_over_reunite, health_violations, COST, DELAY,
};
use hbh_experiments::figures::sweep::Point;
use hbh_experiments::protocols::ProtocolKind;
use hbh_experiments::runner::{ProbeOutcome, RunConfig};
use hbh_experiments::scenario::TopologyKind;

fn points(runs: usize, sizes: &[usize]) -> Vec<Point<ProbeOutcome>> {
    let run = RunConfig {
        topo: TopologyKind::Waxman30,
        ..RunConfig::default().runs(runs)
    };
    evaluate(&run, sizes)
}

#[test]
fn waxman_everyone_served_and_converged() {
    assert_eq!(health_violations(&points(5, &[6, 18])), None);
}

#[test]
fn waxman_hbh_matches_pim_ss_cost_and_beats_reunite() {
    let points = points(8, &[12]);
    let cost = |k| points[0].summary(k, COST.column).mean();
    let hbh_cost = cost(ProtocolKind::Hbh);
    let ss_cost = cost(ProtocolKind::PimSs);
    let reunite_cost = cost(ProtocolKind::Reunite);
    assert!(
        (hbh_cost - ss_cost).abs() < 0.1 * ss_cost,
        "HBH {hbh_cost} should track PIM-SS {ss_cost} on Waxman too"
    );
    assert!(
        reunite_cost > hbh_cost,
        "REUNITE {reunite_cost} should exceed HBH {hbh_cost} on Waxman too"
    );
    let delay_adv = hbh_advantage_over_reunite(&points, DELAY).unwrap();
    assert!(
        delay_adv >= -1.0,
        "HBH must not lose on delay ({delay_adv}%)"
    );
}

#[test]
fn waxman_shared_tree_is_worst_on_delay() {
    // Waxman(30, 0.9, 0.3) is well-connected like rand50, so the paper's
    // rand50 expectation (detouring via the RP always hurts) should
    // transfer.
    let points = points(8, &[12]);
    let delay = |k| points[0].summary(k, DELAY.column).mean();
    let sm = delay(ProtocolKind::PimSm);
    for k in [
        ProtocolKind::PimSs,
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
    ] {
        assert!(
            sm >= delay(k),
            "PIM-SM ({sm}) should have the worst delay; {} is {}",
            k.name(),
            delay(k)
        );
    }
}
