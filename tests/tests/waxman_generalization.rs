//! Generalization check: the paper's qualitative results must hold on a
//! topology family it never tested (Waxman geometric random graphs), not
//! just on the two topologies the evaluation was tuned on.

use hbh_experiments::figures::eval::{
    evaluate, hbh_advantage_over_reunite, health_violations, EvalConfig, Metric,
};
use hbh_experiments::protocols::ProtocolKind;
use hbh_experiments::runner::RunConfig;
use hbh_experiments::scenario::TopologyKind;

fn cfg(runs: usize, sizes: Vec<usize>) -> EvalConfig {
    EvalConfig {
        run: RunConfig::default().topo(TopologyKind::Waxman30).runs(runs),
        sizes,
    }
}

#[test]
fn waxman_everyone_served_and_converged() {
    let c = cfg(5, vec![6, 18]);
    let points = evaluate(&c);
    assert_eq!(health_violations(&c, &points), None);
}

#[test]
fn waxman_hbh_matches_pim_ss_cost_and_beats_reunite() {
    let c = cfg(8, vec![12]);
    let points = evaluate(&c);
    let idx = |k: ProtocolKind| c.run.protocols.iter().position(|&p| p == k).unwrap();
    let p = &points[0].per_protocol;
    let hbh_cost = p[idx(ProtocolKind::Hbh)].cost.mean();
    let ss_cost = p[idx(ProtocolKind::PimSs)].cost.mean();
    let reunite_cost = p[idx(ProtocolKind::Reunite)].cost.mean();
    assert!(
        (hbh_cost - ss_cost).abs() < 0.1 * ss_cost,
        "HBH {hbh_cost} should track PIM-SS {ss_cost} on Waxman too"
    );
    assert!(
        reunite_cost > hbh_cost,
        "REUNITE {reunite_cost} should exceed HBH {hbh_cost} on Waxman too"
    );
    let delay_adv = hbh_advantage_over_reunite(&c, &points, Metric::Delay).unwrap();
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
    let c = cfg(8, vec![12]);
    let points = evaluate(&c);
    let idx = |k: ProtocolKind| c.run.protocols.iter().position(|&p| p == k).unwrap();
    let p = &points[0].per_protocol;
    let sm = p[idx(ProtocolKind::PimSm)].delay.mean();
    for k in [
        ProtocolKind::PimSs,
        ProtocolKind::Reunite,
        ProtocolKind::Hbh,
    ] {
        assert!(
            sm >= p[idx(k)].delay.mean(),
            "PIM-SM ({sm}) should have the worst delay; {} is {}",
            k.name(),
            p[idx(k)].delay.mean()
        );
    }
}
