//! A converged tree delivers exactly one copy to every receiver at every
//! phase of its refresh cycle, not only at the instant `converge` returns.
//! Soft HBH and HBH-AGG, converged on a sample of the paper's ISP and
//! rand50 draws, are probed across two tree periods — the window a
//! converged run repeats (`runner::converge`) — in steps no longer than
//! the topology's largest link cost, so every instant between two
//! refreshes at which a tree, join or fusion message can land is probed.

use hbh_experiments::runner::{build_kernel, converge, probe_tolerant, probe_window};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto::Hbh;
use hbh_proto_base::{Cmd, Timing};
use hbh_sim_core::{Protocol, Time};

/// Converges `proto` on `sc`, then probes it once at every phase of two
/// tree periods, one largest link cost apart, and asserts that each probe
/// reaches every receiver exactly once and nobody else. A probe's wave
/// takes time, so a phase the clock has passed is probed whole two-period
/// laps later: the converged run repeats itself lap for lap, so that is
/// the same phase.
fn probe_every_phase<P>(proto: P, sc: &Scenario, timing: &Timing, what: &str)
where
    P: Protocol<Command = Cmd>,
{
    let (mut k, ch) = build_kernel(proto, sc);
    assert!(
        converge(&mut k, timing, sc.join_window),
        "{what}: converged"
    );
    let lap = 2 * timing.tree_period;
    let step = u64::from(k.network().graph().max_link_cost().max(1));
    let window = probe_window(k.network());
    let mut receivers = sc.receivers.clone();
    receivers.sort_unstable();
    let start = k.now().0;
    for (tag, phase) in (0..lap).step_by(step as usize).enumerate() {
        let laps = (k.now().0 - start).saturating_sub(phase).div_ceil(lap);
        k.run_until(Time(start + phase + laps * lap));
        let (delays, duplicates) = probe_tolerant(&mut k, ch, tag as u64 + 1, window);
        let served: Vec<_> = delays.into_keys().collect();
        assert_eq!(
            (&served, duplicates),
            (&receivers, 0),
            "{what}: probe at phase {phase}"
        );
    }
}

#[test]
fn converged_trees_deliver_exactly_once_at_every_phase() {
    let timing = Timing::default();
    for topo in [TopologyKind::Isp, TopologyKind::Rand50] {
        for group in topo.paper_group_sizes() {
            for seed in 0..4 {
                let sc = build(topo, group, seed, &timing, &ScenarioOptions::default());
                let what = format!("{} group {group} seed {seed}", topo.name());
                probe_every_phase(Hbh::new(timing), &sc, &timing, &format!("HBH {what}"));
                let agg = format!("HBH-AGG {what}");
                probe_every_phase(Hbh::aggregated(timing), &sc, &timing, &agg);
            }
        }
    }
}
