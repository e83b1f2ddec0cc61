//! Focused tests for individual processing rules that the larger scenarios
//! exercise only incidentally: HBH's stale-MCT replacement (rule 7) vs.
//! fresh-MCT promotion (rule 8), REUNITE's stale-flag recovery and fresh
//! flag, and PIM's upstream join suppression.

use hbh_experiments::figures::eval::run_seed;
use hbh_experiments::runner::{build_kernel, converge, probe_tolerant, probe_window};
use hbh_experiments::scenario::{build, ScenarioOptions, TopologyKind};
use hbh_pim::{Pim, PimMsg};
use hbh_proto::Hbh;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_reunite::Reunite;
use hbh_sim_core::trace::TraceKind;
use hbh_sim_core::{Kernel, Network, Time};
use hbh_topo::graph::{Graph, NodeId};

/// Line: s(host) — a — b — c, with two hosts r1, r2 on c.
fn line() -> (Network, NodeId, [NodeId; 3], [NodeId; 2]) {
    let mut g = Graph::new();
    let a = g.add_router();
    let b = g.add_router();
    let c = g.add_router();
    g.add_link(a, b, 1, 1);
    g.add_link(b, c, 1, 1);
    let s = g.add_host(a, 1, 1);
    let r1 = g.add_host(c, 1, 1);
    let r2 = g.add_host(c, 1, 1);
    (Network::new(g), s, [a, b, c], [r1, r2])
}

#[test]
fn hbh_rule7_stale_mct_is_replaced_without_promotion() {
    // r1 joins and leaves; while the path routers' MCTs are stale (t1 <
    // elapsed < t2), r2 joins. Rule 7: the stale MCT entry is replaced by
    // r2 — the router must NOT promote to a branching node.
    let (net, s, [a, b, _c], [r1, r2]) = line();
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(net, Hbh::new(timing), 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.run_until(Time(400));
    k.command_at(r1, Cmd::Leave(ch), Time(400));
    // Timeline: r1's last join refresh lands ≈ t=400; S's (unmarked) r1
    // entry keeps receiving tree emissions until it *dies* at ≈ 400+t2
    // (stale-unmarked entries stay tree-eligible — the fusion-chain
    // healing rule), so the path MCTs are refreshed until then and their
    // stale window is ≈ (400 + t2 + t1, 400 + 2·t2). Join r2 inside it.
    let join_at = 400 + timing.t2 + timing.t1() + 40;
    k.command_at(r2, Cmd::Join(ch), Time(join_at));
    k.run_until(Time(join_at + 3 * timing.tree_period));
    // Neither transit router became branching: the stale r1 MCT was
    // replaced by r2 (or had decayed), not promoted.
    for router in [a, b] {
        assert!(
            !k.state(router).is_branching(ch),
            "router {router} wrongly promoted from a stale MCT"
        );
        if let Some(mct) = k.state(router).mct(ch) {
            assert_eq!(mct.node(), r2, "MCT should now track r2");
        }
    }
}

#[test]
fn hbh_rule8_fresh_mct_promotes() {
    // Contrast case: r2 joins while r1 is still active — the transit
    // routers see two live targets and must promote (rule 8).
    let (net, s, [a, _b, _c], [r1, r2]) = line();
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(net, Hbh::new(timing), 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(300));
    k.run_until(Time(1500));
    assert!(
        k.state(a).is_branching(ch),
        "first router on the shared path should promote via rule 8"
    );
}

#[test]
fn reunite_recovers_from_stale_flag_on_rejoin() {
    // r1 (the dst) leaves long enough for marked trees to stale-flag the
    // downstream table, then rejoins before t2 kills its entries. The
    // refreshed dst entry makes S emit unmarked trees again, which must
    // clear the downstream stale flag and restore normal operation.
    let (net, s, [_a, _b, c], [r1, r2]) = line();
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(net, Reunite::new(timing), 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(200)); // promotes c (MCT{r1} + join r2)
    k.run_until(Time(1000));
    assert!(k.state(c).is_branching(ch), "c is the branching node");

    k.command_at(r1, Cmd::Leave(ch), Time(1000));
    // Past t1: S's dst entry is stale, marked trees flag c's table.
    let stale_window = 1000 + timing.t1() + timing.tree_period;
    k.run_until(Time(stale_window));
    if let Some(mft) = k.state(c).mft(ch) {
        assert!(
            mft.is_stale_flagged() || mft.dst_is_stale(k.now()),
            "departure should have staled the branching table"
        );
    }
    // Rejoin before t2 destroys the entries, then wait out the full
    // reconfiguration: r2 transiently re-registers at S while c's table is
    // flagged, and that parallel entry takes one t2 to decay (REUNITE's
    // documented transitional duplication).
    k.command_at(r1, Cmd::Join(ch), Time(stale_window + 10));
    k.run_until(Time(stale_window + 10 + timing.t2 + 6 * timing.tree_period));

    // Both receivers served again, exactly once.
    let t = k.now();
    k.command_at(s, Cmd::SendData { ch, tag: 1 }, t);
    k.run_until(t + 200);
    let mut nodes: Vec<NodeId> = k.stats().deliveries_tagged(1).map(|d| d.node).collect();
    nodes.sort();
    assert_eq!(nodes, vec![r1, r2], "recovery must restore both receivers");
}

/// REUNITE's fresh flag (`DESIGN.md` §5b.4) on the smallest paper draw
/// that needs it: the first draw of `hbh-exp fig7 --topo isp`, two
/// receivers. With every join treated as fresh, a refresh join can be
/// captured at a branching node away from the entry it refreshes: the
/// tables never stop changing, and a probe after the convergence horizon
/// reaches the receivers with two extra copies.
#[test]
fn reunite_refresh_joins_are_never_captured() {
    let timing = Timing::default();
    let seed = run_seed(1, 2, 0);
    let sc = build(
        TopologyKind::Isp,
        2,
        seed,
        &timing,
        &ScenarioOptions::default(),
    );
    let (mut k, ch) = build_kernel(Reunite::new(timing), &sc);
    assert!(converge(&mut k, &timing, sc.join_window), "converged");
    let window = probe_window(k.network());
    let (delays, duplicates) = probe_tolerant(&mut k, ch, 1, window);
    assert_eq!((delays.len(), duplicates), (2, 0), "each receiver once");
}

#[test]
fn pim_suppresses_upstream_join_amplification() {
    // Two receivers behind the same router refresh every period; the
    // router may forward at most ~2 joins per period upstream (one per
    // half-period), not one per received join.
    let (net, s, [_a, b, _c], [r1, r2]) = line();
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(net, Pim::source_specific(timing), 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(7));
    k.run_until(Time(1000));
    k.enable_trace();
    let window = 10 * timing.tree_period;
    let t = k.now();
    k.run_until(t + window);
    let upstream_joins = k
        .take_trace()
        .iter()
        .filter(|rec| {
            rec.node == b
                && matches!(
                    &rec.what,
                    TraceKind::Sent { pkt, .. }
                        if matches!(pkt.payload, PimMsg::Join { downstream, .. } if downstream == b)
                )
        })
        .count();
    let periods = (window / timing.tree_period) as usize;
    assert!(
        upstream_joins <= 2 * periods + 2,
        "router b forwarded {upstream_joins} joins in {periods} periods (amplification)"
    );
    assert!(
        upstream_joins >= periods - 2,
        "suppression must not starve upstream refresh"
    );
}

#[test]
fn hbh_first_join_reaches_source_even_through_branching_nodes() {
    // The "initial join is never intercepted" rule: a new receiver whose
    // path crosses an existing branching node must still register at S
    // (visible as an S MFT entry for it, at least transiently).
    let (net, s, [a, _b, _c], [r1, r2]) = line();
    let timing = Timing::default();
    let ch = Channel::primary(s);
    let mut k = Kernel::new(net, Hbh::new(timing), 1);
    k.command_at(s, Cmd::StartSource(ch), Time::ZERO);
    k.command_at(r1, Cmd::Join(ch), Time(0));
    k.command_at(r2, Cmd::Join(ch), Time(250));
    // Immediately after r2's initial join arrives (path length 4), S must
    // hold an entry for r2 itself — not an aggregate.
    k.run_until(Time(280));
    let mft = k.state(s).mft(ch).expect("source table");
    assert!(
        mft.contains(r2, k.now()),
        "initial join must reach the source"
    );
    let _ = a;
}
