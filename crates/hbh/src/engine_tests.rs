//! Behavioural tests for the HBH engine, including the paper's Figure 5
//! (shortest-path tree under asymmetric routing) and Figure 3 (duplicate
//! suppression through fusion) scenarios on their exact topologies.

use crate::engine::Hbh;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_sim_core::{Kernel, Network, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::scenarios;

fn kernel_on(g: Graph) -> Kernel<Hbh> {
    Kernel::new(Network::new(g), Hbh::new(Timing::default()), 11)
}

fn n(k: &Kernel<Hbh>, label: &str) -> NodeId {
    k.network().graph().node_by_label(label).unwrap()
}

/// Settled horizon: join window + several t2 decays.
fn settle(k: &mut Kernel<Hbh>, until: u64) {
    k.run_until(Time(until));
}

/// Simple symmetric line: s(host) - a - b - c - h (all unit costs).
fn line() -> (Kernel<Hbh>, NodeId, Vec<NodeId>, NodeId) {
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    let c = g.add_router();
    g.add_link(a, b, 1, 1);
    g.add_link(b, c, 1, 1);
    let s = g.add_host(a, 1, 1);
    let h = g.add_host(c, 1, 1);
    (kernel_on(g), s, vec![a, b, c], h)
}

#[test]
fn single_receiver_joins_at_source() {
    let (mut k, s, routers, h) = line();
    let ch = Channel::primary(s);
    k.command_at(h, Cmd::Join(ch), Time(0));
    settle(&mut k, 600);
    let mft = k.state(s).mft(ch).expect("source MFT");
    assert!(mft.contains(h, k.now()));
    // Downstream routers hold MCT state for h.
    for &r in &routers {
        let st = k.state(r);
        assert!(
            st.mct(ch).is_some_and(|m| m.node() == h) || st.is_branching(ch),
            "router {r} has no tree state"
        );
    }
}

#[test]
fn single_receiver_gets_data_at_unicast_distance() {
    let (mut k, s, _, h) = line();
    let ch = Channel::primary(s);
    k.command_at(h, Cmd::Join(ch), Time(0));
    settle(&mut k, 600);
    k.command_at(s, Cmd::SendData { ch, tag: 1 }, Time(600));
    k.run_until(Time(700));
    let d: Vec<_> = k.stats().deliveries_tagged(1).collect();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].delay(), k.network().dist(s, h).unwrap());
}

#[test]
fn fig5_builds_shortest_path_tree_under_asymmetry() {
    // The central claim (§3.1, Figure 5): on the Figure-2 topology where
    // REUNITE pins r2 to a non-shortest path, HBH connects every receiver
    // through the true shortest path from S.
    let mut k = kernel_on(scenarios::fig2());
    let (s, r1, r2, r3) = (n(&k, "S"), n(&k, "r1"), n(&k, "r2"), n(&k, "r3"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    k.command_at(r3, Cmd::Join(ch), Time(600));
    settle(&mut k, 6000);
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 9 }, t);
    k.run_until(t + 100);
    let deliveries: Vec<_> = k.stats().deliveries_tagged(9).collect();
    assert_eq!(deliveries.len(), 3, "all three receivers served");
    for d in deliveries {
        let spt = k.network().dist(s, d.node).unwrap();
        assert_eq!(
            d.delay(),
            spt,
            "receiver {} not on its shortest path",
            d.node
        );
    }
}

#[test]
fn fig5_converged_structure_matches_walkthrough() {
    // Final structure of Figure 5(d): S forwards data to H1 (= R1), H1 to
    // H3 (= R3), H3 to r1 and r3; r2 is served directly via R4.
    let mut k = kernel_on(scenarios::fig2());
    let (s, h1, h3) = (n(&k, "S"), n(&k, "R1"), n(&k, "R3"));
    let (r1, r2, r3) = (n(&k, "r1"), n(&k, "r2"), n(&k, "r3"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    k.command_at(r3, Cmd::Join(ch), Time(600));
    settle(&mut k, 6000);
    let now = k.now();

    let s_mft = k.state(s).mft(ch).expect("source MFT");
    let s_data: Vec<NodeId> = s_mft.data_targets(now).collect();
    assert!(s_data.contains(&h1), "S forwards to H1: {s_data:?}");
    assert!(
        s_data.contains(&r2),
        "r2 stays joined at S (its SPT is disjoint)"
    );
    assert!(
        !s_data.contains(&r1) && !s_data.contains(&r3),
        "r1/r3 re-homed below"
    );

    let h1_mft = k.state(h1).mft(ch).expect("H1 branching");
    let h1_data: Vec<NodeId> = h1_mft.data_targets(now).collect();
    assert_eq!(h1_data, vec![h3], "H1 forwards only to H3");
    assert!(
        h1_mft.is_marked(r1, now),
        "r1 kept as a marked (tree-only) entry at H1"
    );

    let h3_mft = k.state(h3).mft(ch).expect("H3 branching");
    let mut h3_data: Vec<NodeId> = h3_mft.data_targets(now).collect();
    h3_data.sort();
    assert_eq!(h3_data, vec![r1, r3], "H3 duplicates to the receivers");
}

#[test]
fn fig3_fusion_suppresses_duplicate_copies() {
    // Figure 3: REUNITE puts two copies on R1→R6; HBH's fusion makes R6
    // the branching node and every link carries exactly one copy.
    let mut k = kernel_on(scenarios::fig3());
    let (s, r1n, r6) = (n(&k, "S"), n(&k, "R1"), n(&k, "R6"));
    let (r1, r2) = (n(&k, "r1"), n(&k, "r2"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    settle(&mut k, 6000);
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 3 }, t);
    k.run_until(t + 100);

    assert_eq!(k.stats().deliveries_tagged(3).count(), 2);
    let per_link = k.stats().data_copies_per_link(3);
    for (link, copies) in &per_link {
        assert_eq!(*copies, 1, "duplicate copy on {link:?}");
    }
    assert_eq!(
        per_link[&(r1n, r6)],
        1,
        "exactly one copy on the shared link"
    );
    // Structure: R6 is the branching node; R1 holds it as a stale
    // (data-only) entry and the receivers as marked (tree-only) entries.
    let now = k.now();
    let r6_mft = k.state(r6).mft(ch).expect("R6 branching");
    let mut targets: Vec<NodeId> = r6_mft.data_targets(now).collect();
    targets.sort();
    assert_eq!(targets, vec![r1, r2]);
    let r1_mft = k.state(r1n).mft(ch).expect("R1 has the splice entry");
    assert_eq!(r1_mft.data_targets(now).collect::<Vec<_>>(), vec![r6]);
    assert!(r1_mft.is_marked(r1, now) && r1_mft.is_marked(r2, now));
    assert!(
        r1_mft.is_stale(r6, now),
        "fusion sender held stale (data-only)"
    );
}

#[test]
fn fig3_delays_are_shortest_path() {
    let mut k = kernel_on(scenarios::fig3());
    let s = n(&k, "S");
    let (r1, r2) = (n(&k, "r1"), n(&k, "r2"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    settle(&mut k, 6000);
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 4 }, t);
    k.run_until(t + 100);
    for d in k.stats().deliveries_tagged(4) {
        assert_eq!(d.delay(), k.network().dist(s, d.node).unwrap());
    }
}

#[test]
fn departure_does_not_touch_other_receivers_route() {
    // §3's stability claim, on the Figure-2 topology: r3 leaving must not
    // change r1's delivery path (REUNITE's Figure-2 reconfiguration
    // changes r2's route when r1 leaves; integration tests cover that
    // side).
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let (r1, r3) = (n(&k, "r1"), n(&k, "r3"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r3, Cmd::Join(ch), Time(300));
    settle(&mut k, 5000);
    let t1 = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 10 }, t1);
    k.run_until(t1 + 100);
    let before = k
        .stats()
        .deliveries_tagged(10)
        .find(|d| d.node == r1)
        .unwrap()
        .delay();

    k.command_at(r3, Cmd::Leave(ch), k.now());
    let timing = Timing::default();
    let quiet = k.now() + 4 * timing.t2 + 10 * timing.tree_period;
    k.run_until(quiet);
    let t2 = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 11 }, t2);
    k.run_until(t2 + 100);
    let after: Vec<_> = k.stats().deliveries_tagged(11).collect();
    assert_eq!(after.len(), 1, "only r1 remains");
    assert_eq!(after[0].node, r1);
    assert_eq!(after[0].delay(), before, "survivor's route unchanged");
}

#[test]
fn full_departure_tears_down_all_state() {
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let receivers = [n(&k, "r1"), n(&k, "r2"), n(&k, "r3")];
    let ch = Channel::primary(s);
    for (i, &r) in receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 200));
    }
    settle(&mut k, 4000);
    for &r in &receivers {
        k.command_at(r, Cmd::Leave(ch), Time(4000));
    }
    let timing = Timing::default();
    settle(&mut k, 4000 + 5 * timing.t2 + 10 * timing.tree_period);
    for node in k.network().graph().nodes() {
        assert!(k.state(node).mft(ch).is_none(), "MFT lingers at {node}");
        assert!(k.state(node).mct(ch).is_none(), "MCT lingers at {node}");
    }
}

#[test]
fn rejoin_after_teardown_rebuilds_spt() {
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let r2 = n(&k, "r2");
    let ch = Channel::primary(s);
    k.command_at(r2, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Leave(ch), Time(500));
    let timing = Timing::default();
    let again = 500 + 5 * timing.t2;
    k.command_at(r2, Cmd::Join(ch), Time(again));
    settle(&mut k, again + 1500);
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 12 }, t);
    k.run_until(t + 100);
    let d: Vec<_> = k.stats().deliveries_tagged(12).collect();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].delay(), k.network().dist(s, r2).unwrap());
}

#[test]
fn unicast_only_router_is_crossed_transparently() {
    // Make the mid-line router unicast-only: it can no longer hold state,
    // but data still reaches the receiver as plain unicast (the protocol's
    // raison d'être).
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    let c = g.add_router();
    g.add_link(a, b, 1, 1);
    g.add_link(b, c, 1, 1);
    g.set_mcast_capable(b, false);
    let s = g.add_host(a, 1, 1);
    let h1 = g.add_host(c, 1, 1);
    let h2 = g.add_host(c, 1, 1);
    let mut k = kernel_on(g);
    let ch = Channel::primary(s);
    k.command_at(h1, Cmd::Join(ch), Time(0));
    k.command_at(h2, Cmd::Join(ch), Time(200));
    settle(&mut k, 4000);
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 13 }, t);
    k.run_until(t + 100);
    let mut nodes: Vec<NodeId> = k.stats().deliveries_tagged(13).map(|d| d.node).collect();
    nodes.sort();
    assert_eq!(nodes, vec![h1, h2]);
    // b held no protocol state.
    assert!(k.state(b).mct(ch).is_none() && k.state(b).mft(ch).is_none());
    // c branches for both receivers; the a→b→c legs carry one copy each.
    let per_link = k.stats().data_copies_per_link(13);
    assert_eq!(per_link[&(a, b)], 1);
    assert_eq!(per_link[&(b, c)], 1);
}

#[test]
fn no_drops_and_no_duplicate_deliveries_in_steady_state() {
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let receivers = [n(&k, "r1"), n(&k, "r2"), n(&k, "r3")];
    let ch = Channel::primary(s);
    for (i, &r) in receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 137));
    }
    settle(&mut k, 8000);
    assert_eq!(k.stats().drops, 0);
    for probe in 0..3u64 {
        let t = k.now();
        k.command_at(
            s,
            Cmd::SendData {
                ch,
                tag: 100 + probe,
            },
            t,
        );
        k.run_until(t + 120);
        assert_eq!(
            k.stats().deliveries_tagged(100 + probe).count(),
            3,
            "probe {probe}: every receiver exactly once"
        );
    }
}

#[test]
fn determinism_across_identical_runs() {
    let run = || {
        let mut k = kernel_on(scenarios::fig2());
        let s = n(&k, "S");
        let ch = Channel::primary(s);
        for (i, label) in ["r1", "r2", "r3"].iter().enumerate() {
            let r = n(&k, label);
            k.command_at(r, Cmd::Join(ch), Time(i as u64 * 250));
        }
        settle(&mut k, 5000);
        k.command_at(s, Cmd::SendData { ch, tag: 1 }, Time(5000));
        k.run_until(Time(5200));
        (
            k.stats().data_copies_tagged(1),
            k.stats().deliveries.clone(),
            k.stats().structural_changes,
        )
    };
    assert_eq!(run(), run());
}

/// Line s(host) - a - b - c with `hosts` receivers attached to c, running
/// the HBH-AGG variant.
fn agg_line(hosts: usize) -> (Kernel<Hbh>, NodeId, NodeId, Vec<NodeId>) {
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    let c = g.add_router();
    g.add_link(a, b, 1, 1);
    g.add_link(b, c, 1, 1);
    let s = g.add_host(a, 1, 1);
    let hs: Vec<NodeId> = (0..hosts).map(|_| g.add_host(c, 1, 1)).collect();
    let k = Kernel::new(Network::new(g), Hbh::aggregated(Timing::default()), 11);
    (k, s, c, hs)
}

#[test]
fn aggregation_absorbs_host_joins_at_access_router() {
    let (mut k, s, c, hs) = agg_line(5);
    let ch = Channel::primary(s);
    for (i, &h) in hs.iter().enumerate() {
        k.command_at(h, Cmd::Join(ch), Time(i as u64 * 30));
    }
    settle(&mut k, 2000);
    let now = k.now();
    // Upstream state is O(access routers): the source sees one receiver —
    // the access router — however many hosts sit behind it.
    let s_mft = k.state(s).mft(ch).expect("source MFT");
    assert!(s_mft.contains(c, now), "access router joined on behalf");
    for &h in &hs {
        assert!(!s_mft.contains(h, now), "host join leaked past access");
    }
    assert_eq!(s_mft.len(), 1);
    // The access router's only state is its five local members, 12 B each.
    assert_eq!(k.state(c).state_bytes(ch), 5 * 12);
    // Data reaches every host at its unicast shortest-path distance.
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 21 }, t);
    k.run_until(t + 100);
    let mut nodes: Vec<NodeId> = k.stats().deliveries_tagged(21).map(|d| d.node).collect();
    nodes.sort();
    let mut want = hs.clone();
    want.sort();
    assert_eq!(nodes, want);
    for d in k.stats().deliveries_tagged(21) {
        assert_eq!(d.delay(), k.network().dist(s, d.node).unwrap());
    }
}

#[test]
fn aggregated_leave_decays_locally_and_tears_down() {
    let (mut k, s, c, hs) = agg_line(3);
    let ch = Channel::primary(s);
    for &h in &hs {
        k.command_at(h, Cmd::Join(ch), Time(0));
    }
    settle(&mut k, 2000);
    let timing = Timing::default();
    // One host leaves: its local entry expires after t2, others unaffected.
    k.command_at(hs[0], Cmd::Leave(ch), Time(2000));
    settle(&mut k, 2000 + 3 * timing.t2);
    assert_eq!(k.state(c).state_bytes(ch), 2 * 12, "departed member reaped");
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 22 }, t);
    k.run_until(t + 100);
    let mut nodes: Vec<NodeId> = k.stats().deliveries_tagged(22).map(|d| d.node).collect();
    nodes.sort();
    let mut want = vec![hs[1], hs[2]];
    want.sort();
    assert_eq!(nodes, want);
    // Everyone leaves: local table dropped, upstream soft state decays.
    for &h in &hs[1..] {
        let t = k.now();
        k.command_at(h, Cmd::Leave(ch), t);
    }
    let quiet = k.now() + 5 * timing.t2 + 10 * timing.tree_period;
    k.run_until(quiet);
    assert_eq!(k.state(c).state_bytes(ch), 0, "local members linger");
    assert!(k.state(s).mft(ch).is_none(), "source MFT lingers");
}

#[test]
fn second_channel_from_same_source_is_independent() {
    let (mut k, s, _, h) = line();
    let ch1 = Channel::new(s, hbh_proto_base::GroupAddr(1));
    let ch2 = Channel::new(s, hbh_proto_base::GroupAddr(2));
    k.command_at(h, Cmd::Join(ch1), Time(0));
    settle(&mut k, 800);
    k.command_at(s, Cmd::SendData { ch: ch2, tag: 5 }, Time(800));
    k.run_until(Time(900));
    assert_eq!(
        k.stats().deliveries_tagged(5).count(),
        0,
        "no receivers on ch2"
    );
    k.command_at(s, Cmd::SendData { ch: ch1, tag: 6 }, Time(900));
    k.run_until(Time(1000));
    assert_eq!(k.stats().deliveries_tagged(6).count(), 1);
}
