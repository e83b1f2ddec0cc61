//! Fast-forward is exact. A paper draw converged through
//! `runner::converge`, which skips the windows a converged run repeats
//! (`Kernel::fast_forward`), leaves every arm's kernel exactly where
//! converging it with plain `run_until` leaves it: the same `Stats`, clock,
//! node states and live timers, and the same probe afterwards.

use hbh_experiments::figures::timers::scaled_timing;
use hbh_experiments::protocols::{pick_rp, ProtocolKind};
use hbh_experiments::runner::{build_kernel, converge, probe_tolerant, probe_window};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_pim::Pim;
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Protocol, SteadyState, Time};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// `runner::converge` as it reads without fast-forward.
fn converge_plain<P: Protocol>(k: &mut Kernel<P>, timing: &Timing, join_window: u64) -> bool {
    k.run_until(Time(timing.convergence_horizon(join_window)));
    for _ in 0..8 {
        let before = k.stats().structural_changes;
        let until = k.now() + 2 * timing.t2;
        k.run_until(until);
        if k.stats().structural_changes == before {
            return true;
        }
    }
    false
}

/// Everything a caller can read off the two kernels is equal. Node states
/// are compared with `==`, which leaves out only what they keep to answer
/// faster. A hard state never repeats: a hard kernel must have skipped
/// nothing, so it dispatched what the plain one did.
fn same<P: Protocol>(ff: &Kernel<P>, plain: &Kernel<P>, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(ff.now(), plain.now(), "{at}: clock");
    prop_assert!(ff.stats() == plain.stats(), "{at}: stats differ");
    prop_assert_eq!(
        ff.pending_timer_count(),
        plain.pending_timer_count(),
        "{at}: live timers"
    );
    if !P::NodeState::MAY_REPEAT {
        prop_assert_eq!(ff.skipped_windows(), 0, "{at}: a hard kernel skipped");
    }
    for n in plain.network().graph().nodes() {
        prop_assert!(
            ff.state(n) == plain.state(n),
            "{at}: node {n}'s state differs"
        );
    }
    Ok(())
}

/// Converges, probes and runs on two kernels of `proto` on `sc`, one with
/// fast-forward and one without, comparing them after each step.
fn check<P>(proto: P, sc: &Scenario, timing: &Timing) -> Result<(), TestCaseError>
where
    P: Protocol<Command = Cmd> + Clone,
{
    let (mut ff, ch) = build_kernel(proto.clone(), sc);
    let (mut plain, _) = build_kernel(proto, sc);
    let converged = converge(&mut ff, timing, sc.join_window);
    prop_assert_eq!(
        converged,
        converge_plain(&mut plain, timing, sc.join_window)
    );
    same(&ff, &plain, "converged")?;
    let window = probe_window(plain.network());
    let probe = probe_tolerant(&mut ff, ch, 1, window);
    prop_assert_eq!(probe, probe_tolerant(&mut plain, ch, 1, window));
    same(&ff, &plain, "probed")?;
    // The probe was an input from outside: the next stretch must find the
    // repeat again before it skips.
    let later = plain.now() + 20 * timing.tree_period;
    ff.fast_forward(later, 2 * timing.tree_period);
    plain.run_until(later);
    same(&ff, &plain, "after the probe")
}

/// Every arm, HBH-AGG and HBH-HARD included.
const ARMS: [ProtocolKind; 6] = [
    ProtocolKind::PimSm,
    ProtocolKind::PimSs,
    ProtocolKind::Reunite,
    ProtocolKind::Hbh,
    ProtocolKind::HbhAgg,
    ProtocolKind::HbhHard,
];

/// Arm `arm` on draw `seed` at `group` receivers (folded into the
/// topology's pool) of topology `topo` under timing `timing`: the default,
/// or A3's with `t2` doubled or quadrupled.
fn equivalent(
    (topo, group, seed, timing, arm): (usize, usize, u64, usize, usize),
) -> Result<(), TestCaseError> {
    let topo = [
        TopologyKind::Isp,
        TopologyKind::Rand50,
        TopologyKind::Waxman30,
    ][topo];
    let t = [Timing::default(), scaled_timing(2.0), scaled_timing(4.0)][timing];
    let group = 1 + group % topo.receiver_pool();
    let sc = build(topo, group, seed, &t, &ScenarioOptions::default());
    let kind = ARMS[arm];
    let checked = match kind {
        ProtocolKind::Hbh => check(Hbh::new(t), &sc, &t),
        ProtocolKind::HbhAgg => check(Hbh::aggregated(t), &sc, &t),
        ProtocolKind::HbhHard => check(HbhHard::new(t), &sc, &t),
        ProtocolKind::Reunite => check(Reunite::new(t), &sc, &t),
        ProtocolKind::PimSs => check(Pim::source_specific(t), &sc, &t),
        ProtocolKind::PimSm => check(Pim::sparse_shared(pick_rp(&sc), t), &sc, &t),
    };
    let what = format!(
        "{} on {} group {group} seed {seed}",
        kind.name(),
        topo.name()
    );
    checked.map_err(|e| TestCaseError(format!("{what}, t2 {}: {e}", t.t2)))
}

fn draws() -> impl Strategy<Value = (usize, usize, u64, usize, usize)> {
    (
        0usize..3,
        0usize..64,
        any::<u64>(),
        0usize..3,
        0usize..ARMS.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_forward_matches_plain_runs(draw in draws()) {
        equivalent(draw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn fast_forward_matches_plain_runs_at_length(draw in draws()) {
        equivalent(draw)?;
    }
}
