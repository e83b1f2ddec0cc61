//! Behavioural tests for the hard-state HBH engine: same tree shapes as
//! the soft engine on the paper topologies, plus the hard-state-specific
//! properties — quiescence without refresh traffic, event-driven crash
//! repair, deadman child reaping, and the reliable layer's exactly-once
//! ledger under heavy Bernoulli loss.

use crate::hard::HbhHard;
use hbh_proto_base::reliable::ReliableConfig;
use hbh_proto_base::{Channel, Cmd, StateInventory, Timing};
use hbh_sim_core::{FaultEvent, Kernel, Network, Time};
use hbh_topo::graph::{Graph, NodeId};
use hbh_topo::scenarios;

fn kernel_on(g: Graph) -> Kernel<HbhHard> {
    Kernel::new(Network::new(g), HbhHard::new(Timing::default()), 11)
}

fn n(k: &Kernel<HbhHard>, label: &str) -> NodeId {
    k.network().graph().node_by_label(label).unwrap()
}

/// Simple symmetric line: s(host) - a - b - c - h (all unit costs).
fn line() -> (Kernel<HbhHard>, NodeId, Vec<NodeId>, NodeId) {
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

/// Redundant diamond with a third, independently homed receiver:
/// `s—a`, then a cheap path `a—b—{d,e}` and an expensive backup
/// `a—c—{d,e}`; receivers h1 on d, h2 on e (both initially served through
/// the branching router b) and the "innocent" h3 directly on a.
#[allow(clippy::type_complexity)]
fn diamond() -> (
    Kernel<HbhHard>,
    NodeId,                   // s
    (NodeId, NodeId, NodeId), // a, b, c
    (NodeId, NodeId, NodeId), // h1, h2, h3
) {
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    let c = g.add_router();
    let d = g.add_router();
    let e = g.add_router();
    g.add_link(a, b, 1, 1);
    g.add_link(b, d, 1, 1);
    g.add_link(b, e, 1, 1);
    g.add_link(a, c, 3, 3);
    g.add_link(c, d, 3, 3);
    g.add_link(c, e, 3, 3);
    let s = g.add_host(a, 1, 1);
    let h1 = g.add_host(d, 1, 1);
    let h2 = g.add_host(e, 1, 1);
    let h3 = g.add_host(a, 1, 1);
    (kernel_on(g), s, (a, b, c), (h1, h2, h3))
}

#[test]
fn single_receiver_joins_and_gets_data() {
    let (mut k, s, routers, h) = line();
    let ch = Channel::primary(s);
    k.command_at(h, Cmd::Join(ch), Time(0));
    k.run_until(Time(600));
    let mft = k.state(s).mft(ch).expect("source MFT");
    assert!(mft.contains(h));
    for &r in &routers {
        let st = k.state(r);
        assert!(
            st.mct(ch) == Some(h) || st.is_branching(ch),
            "router {r} has no tree state"
        );
    }
    assert_eq!(k.state(h).parent(ch), Some(s), "receiver homed at source");
    k.command_at(s, Cmd::SendData { ch, tag: 1 }, Time(600));
    k.run_until(Time(700));
    let d: Vec<_> = k.stats().deliveries_tagged(1).collect();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].delay(), k.network().dist(s, h).unwrap());
}

#[test]
fn fig5_builds_shortest_path_tree_under_asymmetry() {
    // The hard engine must build the same Figure-5 shortest-path tree as
    // the soft engine — the state model changes, the tree must not.
    let mut k = kernel_on(scenarios::fig2());
    let (s, r1, r2, r3) = (n(&k, "S"), n(&k, "r1"), n(&k, "r2"), n(&k, "r3"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    k.command_at(r3, Cmd::Join(ch), Time(600));
    k.run_until(Time(6000));
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
fn fig3_fusion_suppresses_duplicate_copies() {
    let mut k = kernel_on(scenarios::fig3());
    let (s, r1n, r6) = (n(&k, "S"), n(&k, "R1"), n(&k, "R6"));
    let (r1, r2) = (n(&k, "r1"), n(&k, "r2"));
    let ch = Channel::primary(s);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    k.run_until(Time(6000));
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
    // Structure: R6 branches to both receivers.
    let r6_mft = k.state(r6).mft(ch).expect("R6 branching");
    let mut targets: Vec<NodeId> = r6_mft.data_targets().collect();
    targets.sort();
    assert_eq!(targets, vec![r1, r2]);
}

#[test]
fn quiescent_tree_emits_no_tree_or_join_traffic() {
    // The hard-state claim: once converged, the only control traffic is
    // the probe/ACK heartbeat — no structural churn, no refresh storms.
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let ch = Channel::primary(s);
    for (i, label) in ["r1", "r2", "r3"].iter().enumerate() {
        let r = n(&k, label);
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 200));
    }
    k.run_until(Time(5000));
    let settled_changes = k.stats().structural_changes;
    let settled_control = k.stats().control_copies();
    k.run_until(Time(15000));
    assert_eq!(
        k.stats().structural_changes,
        settled_changes,
        "structure still churning after convergence"
    );
    // The heartbeat is bounded: per probe period each prober emits one
    // probe and receives one ACK, each crossing a handful of links.
    let window = 15000 - 5000;
    let periods = window / k.protocol().probe_period;
    let heartbeat = k.stats().control_copies() - settled_control;
    assert!(heartbeat > 0, "probing must be active");
    assert!(
        heartbeat <= periods * 64,
        "control traffic beyond a plausible heartbeat: {heartbeat}"
    );
    assert_eq!(k.stats().drops, 0);
}

#[test]
fn full_departure_tears_down_all_state_and_timers() {
    let mut k = kernel_on(scenarios::fig2());
    let s = n(&k, "S");
    let receivers = [n(&k, "r1"), n(&k, "r2"), n(&k, "r3")];
    let ch = Channel::primary(s);
    for (i, &r) in receivers.iter().enumerate() {
        k.command_at(r, Cmd::Join(ch), Time(i as u64 * 200));
    }
    k.run_until(Time(4000));
    for &r in &receivers {
        k.command_at(r, Cmd::Leave(ch), Time(4000));
    }
    k.run_until(Time(10000));
    for node in k.network().graph().nodes() {
        assert!(k.state(node).mft(ch).is_none(), "MFT lingers at {node}");
        assert!(k.state(node).mct(ch).is_none(), "MCT lingers at {node}");
    }
    assert_eq!(
        k.pending_timer_count(),
        0,
        "timers must drain with the state"
    );
    for node in k.network().graph().nodes() {
        let rel = k.state(node).reliable();
        assert_eq!(rel.outstanding(), 0, "unsettled message at {node}");
    }
}

#[test]
fn branching_crash_repairs_subtree_without_touching_innocents() {
    let (mut k, s, (a, b, _c), (h1, h2, h3)) = diamond();
    let ch = Channel::primary(s);
    k.command_at(h1, Cmd::Join(ch), Time(0));
    k.command_at(h2, Cmd::Join(ch), Time(100));
    k.command_at(h3, Cmd::Join(ch), Time(200));
    k.run_until(Time(2000));
    k.command_at(s, Cmd::SendData { ch, tag: 1 }, Time(2000));
    k.run_until(Time(2100));
    let before: Vec<_> = k.stats().deliveries_tagged(1).collect();
    assert_eq!(before.len(), 3, "all three served before the crash");
    let h3_delay = before.iter().find(|d| d.node == h3).unwrap().delay();

    k.schedule_fault(Time(2200), FaultEvent::NodeDown(b));
    k.run_until(Time(4000));

    // The subtree behind b re-homed through a (the interception point of
    // the repair joins); the innocent h3 was never perturbed.
    assert!(
        !k.state(a).mft(ch).expect("a branches").contains(b),
        "dead branching node must be purged at a"
    );
    k.command_at(s, Cmd::SendData { ch, tag: 2 }, Time(4000));
    k.run_until(Time(4200));
    let after: Vec<_> = k.stats().deliveries_tagged(2).collect();
    let mut nodes: Vec<NodeId> = after.iter().map(|d| d.node).collect();
    nodes.sort();
    let mut want = vec![h1, h2, h3];
    want.sort();
    assert_eq!(nodes, want, "every receiver exactly once after repair");
    assert_eq!(
        after.iter().find(|d| d.node == h3).unwrap().delay(),
        h3_delay,
        "innocent receiver's route changed"
    );
}

#[test]
fn blank_restarted_parent_is_detected_and_bypassed() {
    // b crashes and restarts blank before the probe ladder gives up: the
    // probers get `known = false` ACKs and re-home, and a's deadman reaps
    // the silent child — repair without any give-up.
    let (mut k, s, (a, b, _c), (h1, h2, _h3)) = diamond();
    let ch = Channel::primary(s);
    k.command_at(h1, Cmd::Join(ch), Time(0));
    k.command_at(h2, Cmd::Join(ch), Time(100));
    k.run_until(Time(2000));
    k.schedule_fault(Time(2200), FaultEvent::NodeDown(b));
    k.schedule_fault(Time(2220), FaultEvent::NodeUp(b));
    k.run_until(Time(4500));
    // b may legitimately be re-elected as the branching node once the
    // receivers re-home (their trees transit it again) — what matters is
    // that the blank incarnation was detected and the tree rebuilt around
    // live state: every receiver served, exactly once, with no lingering
    // retransmission ladders.
    assert!(k.state(a).mft(ch).is_some(), "a still branches for s");
    k.command_at(s, Cmd::SendData { ch, tag: 5 }, Time(4500));
    k.run_until(Time(4700));
    let mut nodes: Vec<NodeId> = k.stats().deliveries_tagged(5).map(|d| d.node).collect();
    nodes.sort();
    let mut want = vec![h1, h2];
    want.sort();
    assert_eq!(nodes, want, "both receivers exactly once after re-home");
}

#[test]
fn lossy_link_delivers_every_control_message_exactly_once() {
    // Acceptance scenario: ≥20% Bernoulli loss on the transit link, a
    // retransmission budget deep enough that nothing is abandoned, and
    // the ledger must balance — every sealed control message consumed
    // exactly once, duplicates suppressed, nothing outstanding.
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    g.add_link(a, b, 1, 1);
    let s = g.add_host(a, 1, 1);
    let h = g.add_host(b, 1, 1);
    let proto = HbhHard::with_reliable(
        Timing::default(),
        100,
        ReliableConfig {
            rto: 50,
            rto_cap: 100,
            max_attempts: 16,
        },
    );
    let mut k = Kernel::new(Network::new(g), proto, 11);
    k.set_link_loss(a, b, 0.25);
    let ch = Channel::primary(s);
    k.command_at(h, Cmd::Join(ch), Time(0));
    k.run_until(Time(3000));
    assert!(
        k.state(s).mft(ch).is_some_and(|m| m.contains(h)),
        "join must get through the lossy link"
    );
    k.command_at(h, Cmd::Leave(ch), Time(3000));
    k.run_until(Time(12000));

    let mut sealed = 0;
    let mut consumed = 0;
    let mut retransmits = 0;
    let mut give_ups = 0;
    let mut dups = 0;
    for node in k.network().graph().nodes() {
        let rel = k.state(node).reliable();
        assert_eq!(rel.outstanding(), 0, "message still unsettled at {node}");
        let st = rel.stats;
        sealed += st.sealed;
        consumed += st.consumed_fresh;
        retransmits += st.retransmits;
        give_ups += st.give_ups;
        dups += st.dup_suppressed;
    }
    assert_eq!(give_ups, 0, "budget must cover 25% loss");
    assert_eq!(
        consumed, sealed,
        "each control message consumed exactly once"
    );
    assert!(
        retransmits > 0,
        "loss must actually exercise retransmission"
    );
    assert!(dups >= 1, "a lost ACK must produce a suppressed duplicate");
    assert_eq!(k.pending_timer_count(), 0, "timers drained after teardown");
}

#[test]
fn state_inventory_reports_hard_entries_and_reliable_stats() {
    let (mut k, s, routers, h) = line();
    let ch = Channel::primary(s);
    k.command_at(h, Cmd::Join(ch), Time(0));
    k.run_until(Time(600));
    let src = k.state(s);
    assert_eq!(src.forwarding_entries(ch), 1);
    assert!(src.state_bytes(ch) > 0);
    let stats = src.reliable_stats().expect("hard engine reports stats");
    assert!(stats.sealed > 0, "source sealed at least one tree message");
    let mid = k.state(routers[1]);
    assert_eq!(mid.forwarding_entries(ch), 0);
    assert_eq!(mid.control_entries(ch), 1, "MCT only at transit routers");
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
        k.run_until(Time(5000));
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
