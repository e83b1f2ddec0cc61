//! Route-sharing equivalence: every protocol must produce bit-identical
//! probe outcomes whether its kernel runs over the scenario's shared
//! `Network` (one `Arc`'d routing computation reused by all four paired
//! kernels) or over a network rebuilt from scratch for that kernel alone.
//!
//! This is the safety net under the paired-run optimisation: routing
//! tables are pure functions of the cost draw, kernels never mutate them,
//! so sharing may not change a single delivery, delay, or counter.

use hbh_experiments::protocols::{run_protocol, ProtocolKind};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;
use hbh_sim_core::Network;

fn assert_shared_equals_isolated(topo: TopologyKind, group_size: usize, seed: u64) {
    let timing = Timing::default();
    let sc = build(topo, group_size, seed, &timing, &ScenarioOptions::default());
    for kind in ProtocolKind::ALL {
        let shared = run_protocol(kind, &sc, &timing);
        let alone = Scenario::from_parts(
            Network::new(sc.graph().clone()),
            sc.source,
            sc.receivers.clone(),
            sc.join_times.clone(),
            sc.join_window,
            sc.seed,
        );
        let isolated = run_protocol(kind, &alone, &timing);
        assert_eq!(
            shared,
            isolated,
            "{} diverged between shared and isolated networks ({} m={group_size} seed={seed})",
            kind.name(),
            topo.name(),
        );
        assert!(
            shared.complete(),
            "{} incomplete under sharing",
            kind.name()
        );
    }
}

#[test]
fn shared_network_outcomes_match_isolated_on_isp() {
    for seed in [1, 42, 0xC0FFEE] {
        assert_shared_equals_isolated(TopologyKind::Isp, 8, seed);
    }
}

#[test]
fn shared_network_outcomes_match_isolated_on_rand50() {
    // One seed: the 50-node topology is an order of magnitude slower in
    // debug builds, and the sharing machinery is topology-agnostic.
    assert_shared_equals_isolated(TopologyKind::Rand50, 10, 7);
}
