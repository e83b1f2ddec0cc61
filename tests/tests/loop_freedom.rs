//! ROADMAP 1(i)'s loop detector as an oracle on fault-free runs: every
//! converged tree of the paper's figure draws, soft and hard, keeps each
//! MFT entry strictly farther from the source than the node holding it.
//! The restart reproducer in `churn_self_stabilization.rs` runs the same
//! check under a fault.

mod support;

use hbh_experiments::runner::{build_kernel, converge};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Cmd, Timing};
use hbh_sim_core::Protocol;
use support::{loop_violations, LiveMft};

/// Converges `proto` on `sc` and asserts the invariant on the result.
fn assert_loop_free<P>(proto: P, sc: &Scenario, timing: &Timing, what: &str)
where
    P: Protocol<Command = Cmd>,
    P::NodeState: LiveMft,
{
    let (mut k, ch) = build_kernel(proto, sc);
    converge(&mut k, timing, sc.join_window);
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
                assert_loop_free(Hbh::new(timing), &sc, &timing, &format!("HBH {what}"));
                assert_loop_free(
                    HbhHard::new(timing),
                    &sc,
                    &timing,
                    &format!("HBH-HARD {what}"),
                );
            }
        }
    }
}
