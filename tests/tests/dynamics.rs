//! Group-dynamics tests (DESIGN.md A4): Poisson join/leave churn against
//! the recursive-unicast protocols. After the churn ends and soft state
//! settles, the tree must serve exactly the *current* members on correct
//! paths — no zombies from departed receivers, no lost members.

use hbh_proto::Hbh;
use hbh_proto_base::membership::churn_schedule;
use hbh_proto_base::{Channel, Cmd, Script, ScriptAction, Timing};
use hbh_reunite::Reunite;
use hbh_routing::{RouteProvider, RoutingTables};
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::NodeId;
use hbh_topo::{costs, isp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Who is a member once every entry of `script` has played out.
fn final_members(script: &Script) -> HashSet<NodeId> {
    let mut members = HashSet::new();
    for &(_, action) in script.entries() {
        match action {
            ScriptAction::Command(n, Cmd::Join(_)) => {
                members.insert(n);
            }
            ScriptAction::Command(n, Cmd::Leave(_)) => {
                members.remove(&n);
            }
            _ => {}
        }
    }
    members
}

/// Runs a churn trace against the protocol and probes after quiescence.
/// Returns (final members, served receivers, kernel drops).
fn churn_run<P: Protocol<Command = Cmd>>(
    proto: P,
    seed: u64,
) -> (HashSet<NodeId>, HashSet<NodeId>, u64) {
    let timing = Timing::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut rng);
    let source = isp::SOURCE_HOST;
    let pool = isp::receiver_pool(&g);
    let horizon = 4000;
    let ch = Channel::primary(source);
    let script = churn_schedule(&pool, ch, 120.0, Time(0), horizon, &mut rng);

    let mut k = Kernel::new(Network::new(g), proto, seed);
    k.command_at(source, Cmd::StartSource(ch), Time::ZERO);
    script.schedule(&mut k);
    // Let the churn play out and the soft state settle.
    k.run_until(Time(horizon + timing.convergence_horizon(0)));
    for _ in 0..8 {
        let before = k.stats().structural_changes;
        let until = k.now() + 2 * timing.t2;
        k.run_until(until);
        if k.stats().structural_changes == before {
            break;
        }
    }
    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 2000);
    let served: HashSet<NodeId> = k.stats().deliveries_tagged(1).map(|d| d.node).collect();
    let delivery_count = k.stats().deliveries_tagged(1).count();
    assert_eq!(
        delivery_count,
        served.len(),
        "duplicate delivery under churn"
    );
    (final_members(&script), served, k.stats().drops)
}

#[test]
fn hbh_serves_exactly_the_survivors_after_churn() {
    for seed in [1, 2, 3] {
        let (members, served, _) = churn_run(Hbh::new(Timing::default()), seed);
        assert_eq!(served, members, "seed {seed}");
    }
}

#[test]
fn reunite_serves_exactly_the_survivors_after_churn() {
    for seed in [1, 2, 3] {
        let (members, served, _) = churn_run(Reunite::new(Timing::default()), seed);
        assert_eq!(served, members, "seed {seed}");
    }
}

#[test]
fn hbh_post_churn_paths_are_still_shortest() {
    let timing = Timing::default();
    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = isp::isp_topology();
    costs::assign_paper_costs(&mut g, &mut rng);
    let tables = RoutingTables::compute(&g);
    let source = isp::SOURCE_HOST;
    let pool = isp::receiver_pool(&g);
    let ch = Channel::primary(source);
    let script = churn_schedule(&pool, ch, 150.0, Time(0), 3000, &mut rng);

    let mut k = Kernel::new(Network::new(g), Hbh::new(timing), seed);
    k.command_at(source, Cmd::StartSource(ch), Time::ZERO);
    script.schedule(&mut k);
    k.run_until(Time(3000 + timing.convergence_horizon(0) + 4 * timing.t2));
    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 2 }, t);
    k.run_until(t + 2000);
    for d in k.stats().deliveries_tagged(2) {
        assert_eq!(
            Some(d.delay()),
            tables.dist(source, d.node),
            "receiver {} off SPT after churn",
            d.node
        );
    }
}
