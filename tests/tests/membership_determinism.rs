//! Pinned-seed determinism of the membership flash-crowd study: the
//! outcome of every run must be bit-identical whether the sweep executes
//! sequentially or fans out across worker threads. This is the guarantee
//! that lets `membership` run on one worker, and a figure row take any
//! `--threads N`, without changing any reported number.

use hbh_experiments::membership::{
    build_membership_graph, build_membership_scenario, MembershipConfig, MembershipStudy,
};
use hbh_experiments::parallel::map_runs;
use hbh_experiments::protocols::{dispatch, ProtocolKind};
use hbh_proto_base::{Timing, Workload};
use hbh_sim_core::Time;

/// Every observable of one run the membership report would consume:
/// expected, served, converged, settle latency, control copies, events,
/// interior max state bytes, access max state bytes.
type Observables = (usize, usize, bool, Option<u64>, u64, u64, usize, usize);

/// Runs the smoke flash crowd for four independent seeds on `workers`
/// threads.
fn flash_outcomes(workers: usize) -> Vec<Observables> {
    let cfg = MembershipConfig::smoke();
    let template = build_membership_graph(&cfg);
    map_runs(workers, 4, |run| {
        let w = Workload::flash_crowd(cfg.group_size, Time(0));
        let sc = build_membership_scenario(&cfg, &template, &w, run);
        let o = dispatch(
            ProtocolKind::HbhAgg,
            &sc,
            &Timing::default(),
            &MembershipStudy,
        );
        (
            o.expected,
            o.served,
            o.converged,
            o.settle_latency,
            o.control_copies,
            o.events,
            o.interior_state_max,
            o.access_state_max,
        )
    })
}

#[test]
fn flash_crowd_outcomes_are_identical_across_thread_counts() {
    let sequential = flash_outcomes(1);
    let parallel = flash_outcomes(4);
    assert_eq!(
        sequential, parallel,
        "flash-crowd outcomes must not depend on the worker count"
    );
    // And the study itself must serve everyone on every draw.
    for (i, o) in sequential.iter().enumerate() {
        assert_eq!(o.0, o.1, "run {i}: served {}/{} receivers", o.1, o.0);
        assert!(o.2, "run {i} failed to converge");
    }
}
