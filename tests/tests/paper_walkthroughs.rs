//! End-to-end reproduction of the paper's mechanism figures, comparing
//! REUNITE and HBH on the exact scenario topologies (E5–E7 of DESIGN.md):
//!
//! * Figure 1  — recursive unicast distribution on the symmetric tree;
//! * Figure 2  — REUNITE pins r2 to a non-shortest path, and r1's
//!   departure *changes r2's route* (the instability HBH avoids);
//! * Figure 5  — HBH builds the shortest-path tree on the same topology;
//! * Figure 3  — REUNITE puts two copies of each packet on the shared
//!   link R1→R6, HBH suppresses the duplicate via fusion.

use hbh_proto::Hbh;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::{Kernel, Network, Protocol, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::scenarios;

fn n(g: &Graph, label: &str) -> NodeId {
    g.node_by_label(label).unwrap()
}

fn settle_time() -> u64 {
    let t = Timing::default();
    t.convergence_horizon(1000) + 4 * t.t2
}

/// Drives joins at the given (label, time) schedule, converges, probes,
/// and returns per-receiver delays plus per-link copy counts.
fn run<P>(proto: P, g: Graph, joins: &[(&str, u64)]) -> (Kernel<P>, Channel, Vec<(NodeId, u64)>)
where
    P: Protocol<Command = Cmd>,
{
    let source = n(&g, "S");
    let ch = Channel::primary(source);
    let mut k = Kernel::new(Network::new(g), proto, 5);
    k.command_at(source, Cmd::StartSource(ch), Time::ZERO);
    for &(label, t) in joins {
        let r = n(k.network().graph(), label);
        k.command_at(r, Cmd::Join(ch), Time(t));
    }
    k.run_until(Time(settle_time()));
    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 500);
    let mut delays: Vec<(NodeId, u64)> = k
        .stats()
        .deliveries_tagged(1)
        .map(|d| (d.node, d.delay()))
        .collect();
    delays.sort();
    (k, ch, delays)
}

// --- Figure 1 ----------------------------------------------------------

#[test]
fn fig1_reunite_delivers_to_all_eight_receivers_once() {
    let g = scenarios::fig1();
    let joins: Vec<(String, u64)> = (1..=8).map(|i| (format!("r{i}"), i as u64 * 150)).collect();
    let joins_ref: Vec<(&str, u64)> = joins.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    let (k, _, delays) = run(Reunite::new(Timing::default()), g, &joins_ref);
    assert_eq!(delays.len(), 8);
    assert_eq!(
        k.stats().data_copies_tagged(1),
        15,
        "one copy per tree link"
    );
}

#[test]
fn fig1_hbh_matches_reunite_on_symmetric_tree() {
    // On a tree topology with symmetric costs the two protocols must
    // produce identical cost and delays (there is only one possible tree).
    let joins: Vec<(String, u64)> = (1..=8).map(|i| (format!("r{i}"), i as u64 * 150)).collect();
    let joins_ref: Vec<(&str, u64)> = joins.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    let (kr, _, dr) = run(
        Reunite::new(Timing::default()),
        scenarios::fig1(),
        &joins_ref,
    );
    let (kh, _, dh) = run(Hbh::new(Timing::default()), scenarios::fig1(), &joins_ref);
    assert_eq!(dr, dh, "identical delays on the unique tree");
    assert_eq!(
        kr.stats().data_copies_tagged(1),
        kh.stats().data_copies_tagged(1),
        "identical cost on the unique tree"
    );
}

#[test]
fn fig1_branching_nodes_hold_forwarding_state_leaves_none() {
    let g = scenarios::fig1();
    let joins: Vec<(String, u64)> = (1..=8).map(|i| (format!("r{i}"), i as u64 * 150)).collect();
    let joins_ref: Vec<(&str, u64)> = joins.iter().map(|(s, t)| (s.as_str(), *t)).collect();
    let (k, ch, _) = run(Hbh::new(Timing::default()), g, &joins_ref);
    let g = k.network().graph();
    // H6 and H7 fan out to three receivers each: they must be branching.
    for label in ["H6", "H7"] {
        let node = n(g, label);
        assert!(
            k.state(node).is_branching(ch),
            "{label} should be branching"
        );
        assert_eq!(
            k.state(node).mft(ch).unwrap().data_targets(k.now()).count(),
            3,
            "{label} fans out to its three receivers"
        );
    }
}

// --- Figure 2 (REUNITE) -------------------------------------------------

#[test]
fn fig2_reunite_pins_r2_to_the_tree_message_path() {
    // r1 joins first (at S), r2's join is captured at R3 → data for r2
    // follows S→R1→R3→r2 (delay 1+1+3 = 5) instead of the shortest path
    // S→R4→r2 (delay 2).
    let (_, _, delays) = run(
        Reunite::new(Timing::default()),
        scenarios::fig2(),
        &[("r1", 0), ("r2", 400)],
    );
    let g = scenarios::fig2();
    let (r1, r2) = (n(&g, "r1"), n(&g, "r2"));
    let find = |x: NodeId, d: &[(NodeId, u64)]| d.iter().find(|(n, _)| *n == x).unwrap().1;
    assert_eq!(find(r1, &delays), 3, "r1 on its shortest path");
    assert_eq!(find(r2, &delays), 5, "r2 pinned to the non-shortest branch");
}

#[test]
fn fig2_reunite_departure_of_r1_changes_r2s_route() {
    // The paper's stability complaint: when r1 leaves, the marked-tree
    // reconfiguration makes r2 re-join at S and its route flips to the
    // shortest path — a route change caused by *another* receiver.
    let g = scenarios::fig2();
    let source = n(&g, "S");
    let (r1, r2) = (n(&g, "r1"), n(&g, "r2"));
    let ch = Channel::primary(source);
    let timing = Timing::default();
    let mut k = Kernel::new(Network::new(g), Reunite::new(timing), 5);
    k.command_at(source, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(400));
    k.run_until(Time(settle_time()));

    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 500);
    let before = k
        .stats()
        .deliveries_tagged(1)
        .find(|d| d.node == r2)
        .unwrap()
        .delay();
    assert_eq!(before, 5);

    k.command_at(r1, Cmd::Leave(ch), k.now());
    let quiet = k.now() + 6 * timing.t2 + 10 * timing.tree_period;
    k.run_until(quiet);
    let t = k.now();
    k.command_at(source, Cmd::SendData { ch, tag: 2 }, t);
    k.run_until(t + 500);
    let after: Vec<_> = k.stats().deliveries_tagged(2).collect();
    assert_eq!(after.len(), 1, "only r2 remains");
    assert_eq!(
        after[0].delay(),
        2,
        "r2 rerouted to the shortest path (Figure 2(d))"
    );
}

// --- Figure 5 (HBH on the same topology) ---------------------------------

#[test]
fn fig5_hbh_serves_everyone_on_shortest_paths_where_reunite_does_not() {
    let joins: [(&str, u64); 3] = [("r1", 0), ("r2", 400), ("r3", 800)];
    let (kh, _, dh) = run(Hbh::new(Timing::default()), scenarios::fig2(), &joins);
    let (_, _, dr) = run(Reunite::new(Timing::default()), scenarios::fig2(), &joins);
    let g = scenarios::fig2();
    let s = n(&g, "S");
    for (node, delay) in &dh {
        assert_eq!(
            Some(*delay),
            kh.network().dist(s, *node),
            "HBH receiver {node} off its shortest path"
        );
    }
    // REUNITE's average delay is strictly worse on this topology.
    let avg = |d: &[(NodeId, u64)]| d.iter().map(|(_, x)| x).sum::<u64>() as f64 / d.len() as f64;
    assert!(avg(&dr) > avg(&dh), "REUNITE {dr:?} vs HBH {dh:?}");
    let _ = kh;
}

// --- Figure 3 ------------------------------------------------------------

#[test]
fn fig3_reunite_duplicates_on_the_shared_link_hbh_does_not() {
    let joins: [(&str, u64); 2] = [("r1", 0), ("r2", 400)];
    let (kr, _, dr) = run(Reunite::new(Timing::default()), scenarios::fig3(), &joins);
    let (kh, _, dh) = run(Hbh::new(Timing::default()), scenarios::fig3(), &joins);
    assert_eq!(dr.len(), 2);
    assert_eq!(dh.len(), 2);

    let g = scenarios::fig3();
    let shared = (n(&g, "R1"), n(&g, "R6"));
    let reunite_copies = kr.stats().data_copies_per_link(1);
    let hbh_copies = kh.stats().data_copies_per_link(1);
    assert_eq!(
        reunite_copies[&shared], 2,
        "REUNITE: two copies of the same packet on R1→R6 (Figure 3)"
    );
    assert_eq!(
        hbh_copies[&shared], 1,
        "HBH: fusion suppresses the duplicate"
    );
    assert!(
        kh.stats().data_copies_tagged(1) < kr.stats().data_copies_tagged(1),
        "HBH tree strictly cheaper"
    );
}

#[test]
fn fig3_both_protocols_deliver_exactly_once_despite_duplication() {
    // REUNITE's duplicate copies burn bandwidth but must not double-deliver
    // (both copies are addressed to distinct receivers).
    let joins: [(&str, u64); 2] = [("r1", 0), ("r2", 400)];
    let (kr, _, dr) = run(Reunite::new(Timing::default()), scenarios::fig3(), &joins);
    assert_eq!(dr.len(), 2, "each receiver exactly once");
    assert_eq!(kr.stats().deliveries_tagged(1).count(), 2);
}
