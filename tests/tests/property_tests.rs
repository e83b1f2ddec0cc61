//! Property-based tests: the protocol invariants must hold on *arbitrary*
//! connected topologies with arbitrary asymmetric costs and arbitrary
//! receiver sets — not just the paper's scenarios.
//!
//! Strategy: proptest supplies a seed + shape parameters; the topology is
//! generated deterministically from them (G(n, p) rejected for
//! connectivity), so every failure is replayable from the proptest seed.

use hbh_pim::Pim;
use hbh_proto::Hbh;
use hbh_proto_base::workload::sample_receivers;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_routing::{RouteProvider, RoutingTables};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::{costs, random};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random connected router backbone with hosts and asymmetric costs.
fn arb_network(seed: u64, routers: usize, avg_degree: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random::gnp_with_avg_degree(routers, avg_degree, &mut rng);
    costs::assign_paper_costs(&mut g, &mut rng);
    g
}

struct Run {
    source: NodeId,
    receivers: Vec<NodeId>,
    graph: Graph,
}

fn make_run(seed: u64, routers: usize, group: usize) -> Run {
    let graph = arb_network(seed, routers, 3.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    let hosts: Vec<NodeId> = graph.hosts().collect();
    let source = hosts[0];
    let pool: Vec<NodeId> = hosts[1..].to_vec();
    let group = group.min(pool.len());
    let receivers = sample_receivers(&pool, group, &mut rng);
    Run {
        source,
        receivers,
        graph,
    }
}

/// Converges the protocol with all receivers joined, probes once, and
/// returns (delays, cost, drops ...) plus the kernel for inspection.
fn converge_and_probe<P: Protocol<Command = Cmd>>(
    proto: P,
    run: &Run,
    seed: u64,
) -> (Kernel<P>, Vec<(NodeId, u64)>, u64) {
    let timing = Timing::default();
    let ch = Channel::primary(run.source);
    let mut k = Kernel::new(Network::new(run.graph.clone()), proto, seed);
    k.command_at(run.source, Cmd::StartSource(ch), Time::ZERO);
    for (i, &r) in run.receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 77));
    }
    k.run_until(Time(
        timing.convergence_horizon(run.receivers.len() as u64 * 77),
    ));
    // Quiesce.
    for _ in 0..8 {
        let before = k.stats().structural_changes;
        let until = k.now() + 2 * timing.t2;
        k.run_until(until);
        if k.stats().structural_changes == before {
            break;
        }
    }
    let t = k.now();
    k.command_at(run.source, Cmd::SendData { ch, tag: 9 }, t);
    k.run_until(t + 4000);
    let delays: Vec<(NodeId, u64)> = k
        .stats()
        .deliveries_tagged(9)
        .map(|d| (d.node, d.delay()))
        .collect();
    let cost = k.stats().data_copies_tagged(9);
    (k, delays, cost)
}

fn exactly_once(run: &Run, delays: &[(NodeId, u64)]) -> Result<(), TestCaseError> {
    let mut nodes: Vec<NodeId> = delays.iter().map(|(n, _)| *n).collect();
    nodes.sort();
    let mut expect = run.receivers.clone();
    expect.sort();
    prop_assert_eq!(nodes, expect, "every member exactly once");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// HBH delivers to every member exactly once, at exactly the unicast
    /// shortest-path delay, on arbitrary asymmetric topologies.
    #[test]
    fn hbh_exactly_once_on_shortest_paths(
        seed in 0u64..10_000,
        routers in 5usize..12,
        group in 1usize..6,
    ) {
        let run = make_run(seed, routers, group);
        let (_, delays, _) = converge_and_probe(Hbh::new(Timing::default()), &run, seed);
        exactly_once(&run, &delays)?;
        let tables = RoutingTables::compute(&run.graph);
        for (r, d) in &delays {
            prop_assert_eq!(Some(*d), tables.dist(run.source, *r),
                "receiver {} off its shortest path", r);
        }
    }

    /// REUNITE delivers exactly once (its paths may be longer, but never
    /// duplicated or lost).
    #[test]
    fn reunite_exactly_once(
        seed in 0u64..10_000,
        routers in 5usize..12,
        group in 1usize..6,
    ) {
        let run = make_run(seed, routers, group);
        let (k, delays, _) =
            converge_and_probe(Reunite::new(Timing::default()), &run, seed);
        exactly_once(&run, &delays)?;
        prop_assert_eq!(k.stats().drops, 0, "steady-state drops");
    }

    /// PIM-SS delivers exactly once with cost equal to the analytic
    /// reverse SPT's link count.
    #[test]
    fn pim_ss_exactly_once_at_reverse_spt_cost(
        seed in 0u64..10_000,
        routers in 5usize..12,
        group in 1usize..6,
    ) {
        let run = make_run(seed, routers, group);
        let (_, delays, cost) =
            converge_and_probe(Pim::source_specific(Timing::default()), &run, seed);
        exactly_once(&run, &delays)?;
        let tables = RoutingTables::compute(&run.graph);
        let tree = hbh_routing::paths::reverse_spt(&tables, run.source, &run.receivers);
        prop_assert_eq!(cost as usize, tree.cost());
    }

    /// HBH's average delay never exceeds REUNITE's on the same draw
    /// (HBH serves every receiver at the minimum possible delay).
    #[test]
    fn hbh_delay_dominates_reunite(
        seed in 0u64..10_000,
        routers in 6usize..12,
        group in 2usize..6,
    ) {
        let run = make_run(seed, routers, group);
        let (_, dh, _) = converge_and_probe(Hbh::new(Timing::default()), &run, seed);
        let (_, dr, _) = converge_and_probe(Reunite::new(Timing::default()), &run, seed);
        exactly_once(&run, &dh)?;
        exactly_once(&run, &dr)?;
        let sum = |d: &[(NodeId, u64)]| d.iter().map(|(_, x)| *x).sum::<u64>();
        prop_assert!(sum(&dh) <= sum(&dr),
            "HBH {:?} worse than REUNITE {:?}", dh, dr);
    }

    /// Full teardown: after every member leaves and soft state decays, no
    /// node retains any table, and a probe touches no link.
    #[test]
    fn hbh_teardown_leaves_no_state(
        seed in 0u64..10_000,
        routers in 5usize..10,
        group in 1usize..5,
    ) {
        let run = make_run(seed, routers, group);
        let timing = Timing::default();
        let ch = Channel::primary(run.source);
        let mut k =
            Kernel::new(Network::new(run.graph.clone()), Hbh::new(timing), seed);
        k.command_at(run.source, Cmd::StartSource(ch), Time::ZERO);
        for (i, &r) in run.receivers.iter().enumerate() {
            k.command_at(r, Cmd::Join(ch), Time(i as u64 * 50));
        }
        k.run_until(Time(timing.convergence_horizon(500)));
        let t = k.now();
        for &r in &run.receivers {
            k.command_at(r, Cmd::Leave(ch), t);
        }
        k.run_until(t + 6 * timing.t2 + 10 * timing.tree_period);
        for node in k.network().graph().nodes() {
            prop_assert!(k.state(node).mft(ch).is_none(), "MFT lingers at {}", node);
            prop_assert!(k.state(node).mct(ch).is_none(), "MCT lingers at {}", node);
        }
        let t = k.now();
        k.command_at(run.source, Cmd::SendData { ch, tag: 3 }, t);
        k.run_until(t + 1000);
        prop_assert_eq!(k.stats().data_copies_tagged(3), 0);
    }
}
