//! The harness measures the program users run: its study gives what
//! `protocols::run_protocol` gives, and wrapping an engine in `Timed`
//! (with the `KernelOps` shim under it) changes nothing simulated.

use hbh_bench_harness::study::{run_arm, ArmOutcome, ArmRun};
use hbh_bench_harness::trace::Tracer;
use hbh_bench_harness::workloads::{Inputs, Spec};
use hbh_experiments::protocols::run_protocol;
use hbh_experiments::{ProtocolKind, Scenario};

fn arm(kind: ProtocolKind, sc: &Scenario, spec: &Spec, timed: bool) -> ArmOutcome {
    let run = ArmRun {
        scenario: sc,
        timing: &spec.timing,
        timed,
        tr: &mut Tracer::new(timed),
    };
    run_arm(kind, run)
}

#[test]
fn study_matches_run_protocol_on_paper_draws() {
    let spec = Spec::new("paper_figs", 1, false).expect("known workload");
    let Inputs::PaperFigs { points, .. } = &spec.inputs else {
        panic!("paper_figs draws paper scenarios");
    };
    // 16 draws spread over both topologies and every group size.
    let step = points.len() / 16;
    for draw in (0..16).map(|i| i * step) {
        let sc = spec.scenario(None, draw);
        for &kind in &spec.arms {
            let ours = arm(kind, &sc, &spec, false);
            let theirs = run_protocol(kind, &sc, &spec.timing);
            let what = format!("{} on draw {draw} {:?}", kind.name(), points[draw]);
            assert!(ours.converged && theirs.converged, "{what}");
            assert_eq!(ours.cost, theirs.cost, "{what}: tree cost");
            assert_eq!(ours.delays, theirs.delays, "{what}: receiver delays");
            assert_eq!(
                ours.control_at_probe, theirs.control_copies,
                "{what}: control copies"
            );
            assert_eq!(ours.events, theirs.events, "{what}: events");
            assert_eq!(ours.served_once, theirs.expected, "{what}: served");
        }
    }
}

#[test]
fn timed_wrapper_leaves_the_simulation_unchanged() {
    // Between them these three run all six engines, joins, leaves and
    // channel switches, and the aggregated arm's batch timers.
    let mut engines = std::collections::BTreeSet::new();
    for name in ["paper_figs", "zap_churn", "host_storm"] {
        let spec = Spec::new(name, 3, true).expect("known workload");
        let template = spec.template();
        let sc = spec.scenario(template.as_ref(), 0);
        for &kind in &spec.arms {
            let bare = arm(kind, &sc, &spec, false);
            let timed = arm(kind, &sc, &spec, true);
            let what = format!("{} on {name}", kind.name());
            assert_eq!(bare.events, timed.events, "{what}: events");
            assert_eq!(
                bare.control_copies, timed.control_copies,
                "{what}: control copies"
            );
            assert_eq!(bare.cost, timed.cost, "{what}: data copies");
            assert_eq!(bare.delays, timed.delays, "{what}: deliveries");
            assert_eq!(bare.served_once, timed.served_once, "{what}: served");
            assert_eq!(bare.settle, timed.settle, "{what}: settle time");
            assert_eq!(
                bare.pending_timers, timed.pending_timers,
                "{what}: live timers"
            );
            assert!(
                bare.handlers.is_none(),
                "{what}: the bare engine is not clocked"
            );
            let h = timed.handlers.expect("the wrapped engine is clocked");
            let calls = h.handlers().calls;
            assert!(
                calls > 0 && calls <= timed.events,
                "{what}: {calls} handler calls"
            );
            assert!(
                h.send.calls > 0 && h.timer.calls > 0,
                "{what}: ops went through the shim"
            );
            engines.insert(kind.name());
        }
    }
    assert_eq!(engines.len(), 6, "every engine was wrapped: {engines:?}");
}
