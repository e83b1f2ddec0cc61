//! ROADMAP item 1's loop detector as an oracle on fault-free runs: every
//! tree of the paper's figure draws, soft, aggregated (HBH-AGG) and hard,
//! keeps each MFT entry strictly farther from the source than the node
//! holding it once `converge` returns — which it does with `true` on every
//! kernel but three named HBH-HARD ones (ROADMAP item 2).
//! The restart reproducer in `churn_self_stabilization.rs` runs the same
//! check under a fault.

mod support;

use hbh_experiments::runner::{build_kernel, converge};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Cmd, Timing};
use hbh_sim_core::Protocol;
use support::{loop_violations, LiveMft};

/// The HBH-HARD kernels among these draws that never stop changing
/// (ROADMAP item 2). They keep the invariant all the same.
const HARD_UNCONVERGED: [&str; 3] = [
    "isp group 8 seed 8",
    "isp group 16 seed 0",
    "isp group 16 seed 8",
];

/// Converges `proto` on `sc`, asserts `converge`'s verdict is
/// `converges`, and asserts the invariant on the result.
fn assert_loop_free<P>(proto: P, sc: &Scenario, timing: &Timing, what: &str, converges: bool)
where
    P: Protocol<Command = Cmd>,
    P::NodeState: LiveMft,
{
    let (mut k, ch) = build_kernel(proto, sc);
    let converged = converge(&mut k, timing, sc.join_window);
    assert_eq!(converged, converges, "{what}: converged");
    let found = loop_violations(&k, ch);
    assert!(found.is_empty(), "{what}: {found:?}");
}

#[test]
fn converged_paper_draws_are_loop_free() {
    let timing = Timing::default();
    for topo in [TopologyKind::Isp, TopologyKind::Rand50] {
        for group in topo.paper_group_sizes() {
            for seed in 0..12 {
                let sc = build(topo, group, seed, &timing, &ScenarioOptions::default());
                let what = format!("{} group {group} seed {seed}", topo.name());
                let hard_converges = !HARD_UNCONVERGED.contains(&what.as_str());
                assert_loop_free(Hbh::new(timing), &sc, &timing, &format!("HBH {what}"), true);
                let agg = format!("HBH-AGG {what}");
                assert_loop_free(Hbh::aggregated(timing), &sc, &timing, &agg, true);
                assert_loop_free(
                    HbhHard::new(timing),
                    &sc,
                    &timing,
                    &format!("HBH-HARD {what}"),
                    hard_converges,
                );
            }
        }
    }
}
