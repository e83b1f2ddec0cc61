//! On-demand routing equivalence at the experiment level: every protocol
//! must produce bit-identical probe outcomes whether the scenario's
//! `Network` materializes routes eagerly (all-pairs `RoutingTables`, the
//! paper figures' setting) or lazily (`OnDemandRoutes`, LRU-cached SPF
//! rows computed per forwarding node).
//!
//! The provider-level proptests already check `next_hop`/`dist` agree on
//! every pair; this is the end-to-end net: if the lazy provider diverged
//! anywhere a kernel actually looks — including eviction and refill mid
//! run — deliveries, delays, or event counts would differ.

use hbh_experiments::protocols::{run_protocol, ProtocolKind};
use hbh_experiments::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
use hbh_proto_base::Timing;
use hbh_sim_core::Network;

fn assert_eager_equals_on_demand(topo: TopologyKind, group_size: usize, seed: u64, cache: usize) {
    let timing = Timing::default();
    let eager_sc = build(topo, group_size, seed, &timing, &ScenarioOptions::default());
    let lazy_sc = Scenario::from_parts(
        Network::on_demand(eager_sc.graph().clone(), cache),
        eager_sc.source,
        eager_sc.receivers.clone(),
        eager_sc.join_times.clone(),
        eager_sc.join_window,
        eager_sc.seed,
    );
    assert!(!eager_sc.network().is_on_demand());
    assert!(lazy_sc.network().is_on_demand());
    for kind in ProtocolKind::ALL {
        let eager = run_protocol(kind, &eager_sc, &timing);
        let lazy = run_protocol(kind, &lazy_sc, &timing);
        assert_eq!(
            eager,
            lazy,
            "{} diverged between eager and on-demand routing \
             ({} m={group_size} seed={seed} cache={cache})",
            kind.name(),
            topo.name(),
        );
        assert!(eager.complete(), "{} incomplete", kind.name());
    }
}

#[test]
fn on_demand_outcomes_match_eager_on_isp() {
    for seed in [1, 42, 0xC0FFEE] {
        assert_eager_equals_on_demand(TopologyKind::Isp, 8, seed, 64);
    }
}

#[test]
fn on_demand_outcomes_match_eager_under_eviction_pressure() {
    // A 4-row LRU on the 36-node ISP graph forces constant eviction and
    // recomputation while the kernels run; answers must not change.
    assert_eager_equals_on_demand(TopologyKind::Isp, 8, 7, 4);
}

#[test]
fn on_demand_outcomes_match_eager_on_rand50() {
    // One seed: rand50 is an order of magnitude slower in debug builds,
    // and the provider machinery is topology-agnostic.
    assert_eager_equals_on_demand(TopologyKind::Rand50, 10, 7, 32);
}
