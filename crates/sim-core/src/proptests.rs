//! Property-based tests of the kernel's core guarantees: event ordering,
//! delay accounting, and determinism under arbitrary workloads, node state
//! made on first event — plus the one reroute rule of
//! [`Network::rerouted`] under fault sequences.

use crate::network::Network;
use crate::packet::Packet;
use crate::time::Time;
use crate::{Ctx, FaultEvent, Kernel, Protocol, SteadyState};
use hbh_routing::RoutingTables;
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::{costs, random};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A protocol that just bounces data to its destination and records
/// arrival order (used to observe kernel behaviour, not to route). A node
/// counts what it saw and its timer ticks, so its state shows which events
/// it handled.
struct Echo;

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct EchoState {
    seen: u32,
    ticks: u32,
}

/// Stores no times: `advance` has nothing to move, and `==` compares the
/// counts.
impl SteadyState for EchoState {
    fn advance(&mut self, _: u64) {}
}

#[derive(Clone, Debug)]
enum EchoCmd {
    Send {
        to: NodeId,
        tag: u64,
    },
    /// Arm a timer that sends a control packet to `to` on each of three
    /// ticks.
    Arm {
        to: NodeId,
    },
    /// Nothing at all.
    Touch,
}

impl Protocol for Echo {
    type Msg = ();
    type Timer = NodeId;
    type Command = EchoCmd;
    type NodeState = EchoState;

    fn on_packet(&self, s: &mut EchoState, pkt: Packet<()>, ctx: &mut Ctx<'_, (), NodeId>) {
        s.seen += 1;
        if pkt.dst == ctx.node {
            ctx.deliver(&pkt);
        } else {
            ctx.forward(pkt);
        }
    }

    fn on_timer(&self, s: &mut EchoState, to: NodeId, ctx: &mut Ctx<'_, (), NodeId>) {
        s.ticks += 1;
        ctx.structural_change();
        ctx.send(Packet::control(ctx.node, to, ()));
        if s.ticks < 3 {
            ctx.set_timer(to, 40);
        }
    }

    fn on_command(&self, _s: &mut EchoState, cmd: EchoCmd, ctx: &mut Ctx<'_, (), NodeId>) {
        match cmd {
            EchoCmd::Send { to, tag } => {
                let pkt = Packet::data(ctx.node, to, tag, ctx.now(), ());
                ctx.send(pkt);
            }
            EchoCmd::Arm { to } => ctx.set_timer(to, 40),
            EchoCmd::Touch => {}
        }
    }
}

fn graph(seed: u64, n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g: Graph = random::gnp_with_avg_degree(n, 3.0, &mut rng);
    costs::assign_paper_costs(&mut g, &mut rng);
    g
}

fn net(seed: u64, n: usize) -> Network {
    Network::new(graph(seed, n))
}

/// Flips one element of `g` in the fault masks, picked by `kind` and
/// `pick`: a router (0), a stub host (1), a host's host→router (2) or
/// router→host (3) half-link, or one direction of a core link (4). A
/// down element comes back, an up one goes down.
fn toggle(g: &Graph, kind: u8, pick: usize, node_down: &mut [bool], edge_down: &mut [bool]) {
    let nth = |v: Vec<NodeId>| v[pick % v.len()];
    let host = nth(g.hosts().collect());
    let router = g.host_router(host);
    let edge = |a, b| g.edge_entry(a, b).unwrap().0.index();
    let bit = match kind {
        0 => &mut node_down[nth(g.routers().collect()).index()],
        1 => &mut node_down[host.index()],
        2 => &mut edge_down[edge(host, router)],
        3 => &mut edge_down[edge(router, host)],
        _ => {
            let core: Vec<_> = g
                .undirected_links()
                .into_iter()
                .filter(|&(a, b, ..)| g.is_router(a) && g.is_router(b))
                .collect();
            let (a, b, ..) = core[pick % core.len()];
            let (a, b) = if pick % 2 == 0 { (a, b) } else { (b, a) };
            &mut edge_down[edge(a, b)]
        }
    };
    *bit = !*bit;
}

/// One to four fault or restore steps, each taken through
/// `Network::rerouted` from an eager and from an on-demand base (a cache of
/// 3 rows, so it also evicts): after every step both answer like a network
/// frozen fresh over the cumulative masks, and every forwarding step names
/// the edge and delay `g`'s own adjacency gives for its next hop.
fn rerouted_steps_hold(seed: u64, n: usize, steps: Vec<(u8, usize)>) -> Result<(), TestCaseError> {
    let g = graph(seed, n);
    let mut node_down = vec![false; g.node_count()];
    let mut edge_down = vec![false; g.directed_edge_count()];
    let mut nets = [Network::new(g.clone()), Network::on_demand(g.clone(), 3)];
    for (kind, pick) in steps {
        toggle(&g, kind, pick, &mut node_down, &mut edge_down);
        let tables = RoutingTables::compute_avoiding(&g, &node_down, &edge_down);
        let fresh = Network::with_tables(g.clone(), tables);
        for net in &mut nets {
            *net = net.rerouted(&node_down, &edge_down);
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(fresh.dist(u, v), net.dist(u, v), "dist {}->{}", u, v);
                    let hop = fresh.hop(u, v).map(|(h, ..)| {
                        let (eid, cost) = g.edge_entry(u, h).unwrap();
                        (h, eid, cost)
                    });
                    prop_assert_eq!(hop, net.hop(u, v), "hop {}->{}", u, v);
                }
            }
        }
    }
    Ok(())
}

/// What a run shows of itself, everything but its event count.
#[derive(Debug, PartialEq)]
struct Seen {
    deliveries: Vec<crate::Delivery>,
    per_link: Vec<std::collections::BTreeMap<(NodeId, NodeId), u64>>,
    control: u64,
    drops: u64,
    structural: (u64, Time),
    states: Vec<EchoState>,
    pending_timers: usize,
}

/// Sends, timer arms and crash/restart steps on a random graph with up to
/// 40 extra hosts, run as given and again with every node first touched
/// at t = 0 by a no-op command: the two runs are the same run, except for
/// the touches' own events. So making a node's state on its first event
/// instead of up front is invisible.
fn first_touch_is_invisible(
    seed: u64,
    n: usize,
    extra: Vec<usize>,
    work: Vec<(u8, usize, usize, u64)>,
) -> Result<(), TestCaseError> {
    let mut g = graph(seed, n);
    for r in &extra {
        let router = NodeId((r % n) as u32);
        g.add_host(router, 1 + (*r % 3) as u32, 1 + (*r % 5) as u32);
    }
    let nodes: Vec<NodeId> = g.nodes().collect();
    let hosts: Vec<NodeId> = g.hosts().collect();
    let run = |touch: bool| {
        let mut k = Kernel::new(Network::new(g.clone()), Echo, seed);
        if touch {
            for &v in &nodes {
                k.command_at(v, EchoCmd::Touch, Time::ZERO);
            }
        }
        for (i, &(kind, a, b, at)) in work.iter().enumerate() {
            let (at, node) = (Time(at), nodes[a % nodes.len()]);
            match kind {
                0 => {
                    let (from, to) = (hosts[a % hosts.len()], hosts[b % hosts.len()]);
                    k.command_at(from, EchoCmd::Send { to, tag: i as u64 }, at);
                }
                1 => k.command_at(
                    node,
                    EchoCmd::Arm {
                        to: nodes[b % nodes.len()],
                    },
                    at,
                ),
                2 => k.schedule_fault(at + 1, FaultEvent::NodeDown(node)),
                _ => k.schedule_fault(at + 1, FaultEvent::NodeUp(node)),
            }
        }
        k.run_until(Time(2_000));
        let stats = k.stats();
        let seen = Seen {
            deliveries: stats.deliveries.clone(),
            per_link: (0..work.len() as u64)
                .map(|tag| stats.data_copies_per_link(tag))
                .collect(),
            control: stats.control_copies(),
            drops: stats.drops,
            structural: (stats.structural_changes, stats.last_structural_change),
            states: nodes.iter().map(|&v| *k.state(v)).collect(),
            pending_timers: k.pending_timer_count(),
        };
        (seen, stats.events)
    };
    let (plain, events) = run(false);
    let (touched, touched_events) = run(true);
    prop_assert_eq!(plain, touched);
    prop_assert_eq!(events + nodes.len() as u64, touched_events);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// A node's state made on its first event reads like one made up
    /// front: see [`first_touch_is_invisible`].
    #[test]
    fn state_on_first_event_is_invisible(
        seed in 0u64..100_000,
        n in 4usize..10,
        extra in proptest::collection::vec(0usize..1_000, 0..40),
        work in proptest::collection::vec((0u8..4, 0usize..1_000, 0usize..1_000, 0u64..300), 1..24),
    ) {
        first_touch_is_invisible(seed, n, extra, work)?;
    }

    /// Every unicast send arrives exactly once, after exactly the unicast
    /// distance, regardless of how many are in flight.
    #[test]
    fn unicast_arrives_at_exact_distance(
        seed in 0u64..100_000,
        n in 4usize..12,
        sends in proptest::collection::vec((0usize..100, 0usize..100, 1u64..50), 1..20),
    ) {
        let network = net(seed, n);
        let count = network.node_count();
        let hosts: Vec<NodeId> = network.graph().hosts().collect();
        let mut k = Kernel::new(network, Echo, seed);
        let mut expected = Vec::new();
        for (i, (a, b, at)) in sends.into_iter().enumerate() {
            let from = hosts[a % hosts.len()];
            let to = hosts[b % hosts.len()];
            let tag = 1000 + i as u64;
            k.command_at(from, EchoCmd::Send { to, tag }, Time(at));
            expected.push((from, to, tag, at));
        }
        k.run_until(Time(100_000));
        let _ = count;
        for (from, to, tag, at) in expected {
            let arrivals: Vec<_> = k.stats().deliveries_tagged(tag).collect();
            prop_assert_eq!(arrivals.len(), 1, "tag {} arrived {} times", tag, arrivals.len());
            let d = arrivals[0];
            prop_assert_eq!(d.node, to);
            let dist = k.network().dist(from, to).unwrap();
            prop_assert_eq!(d.at, Time(at) + dist, "tag {}", tag);
        }
    }

    /// Identical (network, workload, seed) ⇒ identical execution, even
    /// with interleaved traffic.
    #[test]
    fn kernel_is_deterministic(
        seed in 0u64..100_000,
        n in 4usize..10,
        sends in proptest::collection::vec((0usize..100, 0usize..100, 1u64..40), 1..12),
    ) {
        let run = || {
            let network = net(seed, n);
            let hosts: Vec<NodeId> = network.graph().hosts().collect();
            let mut k = Kernel::new(network, Echo, seed);
            for (i, (a, b, at)) in sends.iter().enumerate() {
                k.command_at(
                    hosts[a % hosts.len()],
                    EchoCmd::Send { to: hosts[b % hosts.len()], tag: i as u64 },
                    Time(*at),
                );
            }
            k.run_until(Time(100_000));
            (k.stats().deliveries.clone(), k.stats().drops)
        };
        prop_assert_eq!(run(), run());
    }

    /// One to four fault or restore steps, taken through
    /// `Network::rerouted` from both stores: see [`rerouted_steps_hold`].
    #[test]
    fn rerouted_steps_match_a_fresh_masked_network(
        seed in 0u64..100_000,
        n in 5usize..12,
        steps in proptest::collection::vec((0u8..5, 0usize..6), 1..5),
    ) {
        rerouted_steps_hold(seed, n, steps)?;
    }

    /// The kernel clock never goes backwards and `run_until` lands exactly
    /// on the requested time.
    #[test]
    fn clock_is_monotonic(
        seed in 0u64..100_000,
        checkpoints in proptest::collection::vec(1u64..500, 1..8),
    ) {
        let network = net(seed, 5);
        let hosts: Vec<NodeId> = network.graph().hosts().collect();
        let mut k = Kernel::new(network, Echo, seed);
        k.command_at(hosts[0], EchoCmd::Send { to: hosts[1 % hosts.len()], tag: 1 }, Time(1));
        let mut sorted = checkpoints;
        sorted.sort();
        let mut prev = Time::ZERO;
        for c in sorted {
            k.run_until(Time(c));
            prop_assert_eq!(k.now(), Time(c));
            prop_assert!(k.now() >= prev);
            prev = k.now();
        }
    }
}

// The first-touch and reroute properties at 128× the cases: too slow for
// tier-1, run by CI with `cargo test --release -p hbh-sim-core -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn state_on_first_event_is_invisible_at_length(
        seed in 0u64..100_000,
        n in 4usize..10,
        extra in proptest::collection::vec(0usize..1_000, 0..40),
        work in proptest::collection::vec((0u8..4, 0usize..1_000, 0usize..1_000, 0u64..300), 1..24),
    ) {
        first_touch_is_invisible(seed, n, extra, work)?;
    }

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn rerouted_steps_match_a_fresh_masked_network_at_length(
        seed in 0u64..100_000,
        n in 5usize..12,
        steps in proptest::collection::vec((0u8..5, 0usize..6), 1..5),
    ) {
        rerouted_steps_hold(seed, n, steps)?;
    }
}
