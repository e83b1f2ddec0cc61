//! Failure injection: soft-state protocols must converge and deliver even
//! when a substantial fraction of *control* packets is lost — the next
//! refresh cycle repairs whatever a lost join/tree/fusion left behind.
//! (The paper takes this robustness as given; these tests earn it.)

use hbh_proto::Hbh;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_routing::{RouteProvider, RoutingTables};
use hbh_sim_core::{Kernel, LossModel, Network, Protocol, Time};
use hbh_topo::graph::NodeId;
use hbh_topo::{costs, isp};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Setup {
    net: Network,
    source: NodeId,
    receivers: Vec<NodeId>,
}

fn setup(seed: u64) -> Setup {
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(seed));
    Setup {
        net: Network::new(g),
        source: isp::SOURCE_HOST,
        receivers: vec![NodeId(21), NodeId(25), NodeId(29), NodeId(33)],
    }
}

/// Converge under loss, then probe over a *lossless* window (we are
/// testing control-plane robustness, not data loss — the probe itself
/// must not be eaten by the injector).
fn probe_under_control_loss<P: Protocol<Command = Cmd>>(
    proto: P,
    loss: f64,
    seed: u64,
) -> (usize, u64, usize) {
    let s = setup(seed);
    let timing = Timing::default();
    let ch = Channel::primary(s.source);
    let mut k = Kernel::new(s.net, proto, seed);
    k.set_loss(LossModel::control_only(loss));
    k.command_at(s.source, Cmd::StartSource(ch), Time::ZERO);
    for (i, &r) in s.receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 100));
    }
    // Loss slows convergence: give it several extra refresh generations.
    k.run_until(Time(3 * timing.convergence_horizon(400)));
    k.set_loss(LossModel::default());
    // Settle any repair still in flight, then probe.
    let settle = k.now() + 2 * timing.t2;
    k.run_until(settle);
    let t = k.now();
    k.command_at(s.source, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 2000);
    let served = k.stats().deliveries_tagged(1).count();
    let cost = k.stats().data_copies_tagged(1);
    (served, cost, s.receivers.len())
}

#[test]
fn hbh_survives_twenty_percent_control_loss() {
    for seed in [1, 2, 3] {
        let (served, _, expected) =
            probe_under_control_loss(Hbh::new(Timing::default()), 0.20, seed);
        assert_eq!(
            served, expected,
            "seed {seed}: receivers starved under loss"
        );
    }
}

#[test]
fn reunite_survives_twenty_percent_control_loss() {
    for seed in [1, 2, 3] {
        let (served, _, expected) =
            probe_under_control_loss(Reunite::new(Timing::default()), 0.20, seed);
        assert_eq!(
            served, expected,
            "seed {seed}: receivers starved under loss"
        );
    }
}

#[test]
fn pim_ss_survives_twenty_percent_control_loss() {
    for seed in [1, 2, 3] {
        let (served, _, expected) =
            probe_under_control_loss(hbh_pim::Pim::source_specific(Timing::default()), 0.20, seed);
        assert_eq!(
            served, expected,
            "seed {seed}: receivers starved under loss"
        );
    }
}

#[test]
fn hbh_paths_remain_shortest_after_lossy_convergence() {
    let s = setup(9);
    let timing = Timing::default();
    let ch = Channel::primary(s.source);
    let tables = RoutingTables::compute(&{
        let mut g = isp::isp_topology();
        costs::assign_paper_costs(&mut g, &mut StdRng::seed_from_u64(9));
        g
    });
    let mut k = Kernel::new(s.net, Hbh::new(timing), 9);
    k.set_loss(LossModel::control_only(0.15));
    k.command_at(s.source, Cmd::StartSource(ch), Time::ZERO);
    for (i, &r) in s.receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 100));
    }
    k.run_until(Time(3 * timing.convergence_horizon(400)));
    k.set_loss(LossModel::default());
    let settle = k.now() + 2 * timing.t2;
    k.run_until(settle);
    let t = k.now();
    k.command_at(s.source, Cmd::SendData { ch, tag: 2 }, t);
    k.run_until(t + 2000);
    for d in k.stats().deliveries_tagged(2) {
        assert_eq!(
            Some(d.delay()),
            tables.dist(s.source, d.node),
            "receiver {} ended off-SPT after lossy convergence",
            d.node
        );
    }
}

#[test]
fn data_loss_is_injected_and_counted() {
    // Sanity: with 100% data loss nothing is delivered but transmissions
    // are still accounted (the copy occupied the link before dying).
    let s = setup(4);
    let timing = Timing::default();
    let ch = Channel::primary(s.source);
    let mut k = Kernel::new(s.net, Hbh::new(timing), 4);
    k.command_at(s.source, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(s.receivers[0], Cmd::Join(ch), Time(0));
    k.run_until(Time(timing.convergence_horizon(100)));
    k.set_loss(LossModel {
        control: 0.0,
        data: 1.0,
    });
    let t = k.now();
    k.command_at(s.source, Cmd::SendData { ch, tag: 3 }, t);
    k.run_until(t + 1000);
    assert_eq!(k.stats().deliveries_tagged(3).count(), 0);
    assert!(
        k.stats().data_copies_tagged(3) > 0,
        "the first hop was transmitted"
    );
}
