//! End-to-end over real loopback UDP: the unchanged HBH and REUNITE
//! engines build their trees and deliver data between actual sockets.

use hbh_live::{Cluster, LIVE_TIMING};
use hbh_proto::{Hbh, HbhHard, HbhMsg};
use hbh_proto_base::{Channel, Cmd, Script};
use hbh_reunite::Reunite;
use hbh_sim_core::{Packet, Time};
use hbh_topo::graph::NodeId;
use hbh_topo::scenarios;
use hbh_wire::encode_packet;
use std::collections::HashSet;
use std::net::{Ipv4Addr, UdpSocket};
use std::time::Duration;

fn converge_ms() -> u64 {
    LIVE_TIMING.convergence_horizon(200)
}

#[test]
fn hbh_over_udp_delivers_to_all_receivers() {
    let graph = scenarios::fig2();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, r1, r2, r3) = (n("S"), n("r1"), n("r2"), n("r3"));
    let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);
    cluster.command(s, Cmd::StartSource(ch));
    for (i, r) in [r1, r2, r3].into_iter().enumerate() {
        std::thread::sleep(Duration::from_millis(60 * i as u64));
        cluster.command(r, Cmd::Join(ch));
    }
    std::thread::sleep(Duration::from_millis(converge_ms()));

    cluster.command(s, Cmd::SendData { ch, tag: 7 });
    let got = cluster.wait_deliveries(3, Duration::from_secs(3));
    let nodes: HashSet<NodeId> = got.iter().map(|d| d.node).collect();
    assert_eq!(nodes, HashSet::from([r1, r2, r3]), "deliveries: {got:?}");
    assert!(got.iter().all(|d| d.tag == 7));
    cluster.shutdown();
}

#[test]
fn malformed_datagrams_leave_every_receiver_served() {
    // Once the tree has converged, R1 — the router between the source and
    // two of the three receivers — gets three datagrams no engine sends:
    // data for a node the graph does not have, a tree whose envelope is
    // not addressed to its target, and a join addressed to a router that
    // is not the channel's source. R1 must drop all three and keep
    // forwarding.
    let graph = scenarios::fig2();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, router, r1, r2, r3) = (n("S"), n("R1"), n("r1"), n("r2"), n("r3"));
    let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);
    cluster.command(s, Cmd::StartSource(ch));
    for r in [r1, r2, r3] {
        cluster.command(r, Cmd::Join(ch));
    }
    std::thread::sleep(Duration::from_millis(converge_ms()));

    let join = HbhMsg::Join {
        ch,
        who: r1,
        initial: false,
    };
    let datagrams = [
        Packet::data(s, NodeId(1_000_000), 1, Time(0), HbhMsg::Data { ch }),
        Packet::control(s, r1, HbhMsg::Tree { ch, target: r3 }),
        Packet::control(r1, router, join),
    ];
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    for pkt in &datagrams {
        socket
            .send_to(&encode_packet(pkt).unwrap(), cluster.addresses[&router])
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));

    cluster.command(s, Cmd::SendData { ch, tag: 11 });
    let got = cluster.wait_deliveries(3, Duration::from_secs(3));
    let nodes: HashSet<NodeId> = got.iter().map(|d| d.node).collect();
    assert_eq!(nodes, HashSet::from([r1, r2, r3]), "deliveries: {got:?}");
    cluster.shutdown();
}

#[test]
fn reunite_over_udp_delivers_to_all_receivers() {
    let graph = scenarios::fig3();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, r1, r2) = (n("S"), n("r1"), n("r2"));
    let cluster = Cluster::launch(graph, || Reunite::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);
    cluster.command(s, Cmd::StartSource(ch));
    cluster.command(r1, Cmd::Join(ch));
    std::thread::sleep(Duration::from_millis(120));
    cluster.command(r2, Cmd::Join(ch));
    std::thread::sleep(Duration::from_millis(converge_ms()));

    cluster.command(s, Cmd::SendData { ch, tag: 9 });
    let got = cluster.wait_deliveries(2, Duration::from_secs(3));
    let nodes: HashSet<NodeId> = got.iter().map(|d| d.node).collect();
    assert_eq!(nodes, HashSet::from([r1, r2]), "deliveries: {got:?}");
    cluster.shutdown();
}

#[test]
fn leave_stops_delivery_over_udp() {
    let graph = scenarios::fig2();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, r1, r3) = (n("S"), n("r1"), n("r3"));
    let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);
    cluster.command(s, Cmd::StartSource(ch));
    cluster.command(r1, Cmd::Join(ch));
    cluster.command(r3, Cmd::Join(ch));
    std::thread::sleep(Duration::from_millis(converge_ms()));
    cluster.command(r3, Cmd::Leave(ch));
    // Let r3's soft state decay fully.
    std::thread::sleep(Duration::from_millis(
        3 * LIVE_TIMING.t2 + 5 * LIVE_TIMING.tree_period,
    ));

    cluster.command(s, Cmd::SendData { ch, tag: 5 });
    let got = cluster.wait_deliveries(2, Duration::from_millis(800));
    let nodes: Vec<NodeId> = got.iter().map(|d| d.node).collect();
    assert_eq!(nodes, vec![r1], "only the remaining member: {got:?}");
    cluster.shutdown();
}

#[test]
fn scripted_router_crash_heals_over_udp() {
    // The fault-injection acceptance test on real sockets: one Script
    // (the same type the simulation kernel consumes) crashes a transit
    // router mid-session. While it is down, only the receiver routed
    // through it goes dark; after the restart, delivery resumes with no
    // explicit re-join — the periodic join/tree refreshes rebuild the
    // crashed router's blank forwarding state on their own.
    let graph = scenarios::fig1();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, h2, r1, r4) = (n("S"), n("H2"), n("r1"), n("r4"));
    let cluster = Cluster::launch(graph, || Hbh::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);

    // r1 sits behind H2 (S→H1→H2→H4→H6→r1); r4 is on the H3 branch and
    // never touches H2 — the innocent receiver.
    let c = converge_ms();
    let script = Script::new()
        .start_source(Time(0), ch)
        .join(Time(40), r1, ch)
        .join(Time(80), r4, ch)
        .send(Time(c), ch, 1)
        .fail_node(Time(c + 150), h2)
        .send(Time(c + 300), ch, 2)
        .restore_node(Time(c + 450), h2)
        .send(Time(2 * c + 450), ch, 3);
    cluster.run_script(&script);

    let got = cluster.wait_deliveries(5, Duration::from_secs(3));
    let nodes_for = |tag: u64| -> HashSet<NodeId> {
        got.iter()
            .filter(|d| d.tag == tag)
            .map(|d| d.node)
            .collect()
    };
    assert_eq!(nodes_for(1), HashSet::from([r1, r4]), "pre-crash: {got:?}");
    assert_eq!(
        nodes_for(2),
        HashSet::from([r4]),
        "crash must only unplug the receiver behind it: {got:?}"
    );
    assert_eq!(
        nodes_for(3),
        HashSet::from([r1, r4]),
        "post-repair: {got:?}"
    );
    cluster.shutdown();
}

#[test]
fn hard_engine_scripted_crash_heals_over_udp() {
    // The same scripted crash as above, run against the hard-state engine:
    // its repair is event-driven (probe give-up, not refresh decay), so
    // recovery after the restart comes from the rejoin retry ladder and
    // the reliable control plane, not from periodic tree refreshes.
    let graph = scenarios::fig1();
    let n = |l: &str| graph.node_by_label(l).unwrap();
    let (s, h2, r1, r4) = (n("S"), n("H2"), n("r1"), n("r4"));
    let cluster = Cluster::launch(graph, || HbhHard::new(LIVE_TIMING)).unwrap();
    let ch = Channel::primary(s);

    let c = converge_ms();
    let script = Script::new()
        .start_source(Time(0), ch)
        .join(Time(40), r1, ch)
        .join(Time(80), r4, ch)
        .send(Time(c), ch, 1)
        .fail_node(Time(c + 150), h2)
        .send(Time(c + 300), ch, 2)
        .restore_node(Time(c + 450), h2)
        .send(Time(2 * c + 450), ch, 3);
    cluster.run_script(&script);

    let got = cluster.wait_deliveries(5, Duration::from_secs(3));
    let nodes_for = |tag: u64| -> HashSet<NodeId> {
        got.iter()
            .filter(|d| d.tag == tag)
            .map(|d| d.node)
            .collect()
    };
    assert_eq!(nodes_for(1), HashSet::from([r1, r4]), "pre-crash: {got:?}");
    assert_eq!(
        nodes_for(2),
        HashSet::from([r4]),
        "fig1 is a tree, so r1 has no detour while H2 is down: {got:?}"
    );
    assert_eq!(
        nodes_for(3),
        HashSet::from([r1, r4]),
        "post-restart the rejoin ladder must rebuild H2's blank state: {got:?}"
    );
    cluster.shutdown();
}
