//! Overlapping-fault convergence: fault sequences deliberately faster
//! than the repair machinery they disturb. The soft engine must converge
//! because refresh-and-decay is memoryless; the hard engine must converge
//! because every repair step is idempotent and re-triggerable — and
//! neither may leak timers while doing so.
//!
//! Two overlap shapes, each run against both HBH engines:
//!
//! * **re-crash mid-repair** — the victim router restarts and crashes
//!   again inside the previous repair window, so probes, give-ups and
//!   repair joins from round one are still in flight when round two
//!   starts;
//! * **fast link flap** — a tree link flaps with a period shorter than
//!   the tree (refresh) period, so no refresh round ever sees a stable
//!   topology until the flapping stops.
//!
//! The hard engine also fails to converge on a few fault-free paper draws
//! (ROADMAP item 2); the smallest is pinned here, ignored until it is fixed.

use hbh_experiments::runner::{build_kernel, converge};
use hbh_experiments::scenario::{build, ScenarioOptions, TopologyKind};
use hbh_proto::{Hbh, HbhHard};
use hbh_proto_base::{Channel, Cmd, Script, Timing};
use hbh_sim_core::{FaultEvent, Kernel, Network, Protocol, Time};
use hbh_topo::graph::{Graph, NodeId};

/// Redundant diamond: cheap path a—b—{d,e}, expensive backup a—c—{d,e};
/// receivers h1 on d, h2 on e, innocent h3 on a. Crashing or cutting the
/// b side always leaves the c side available.
#[allow(clippy::type_complexity)]
fn diamond() -> (
    Graph,
    (NodeId, NodeId, NodeId),
    NodeId,
    (NodeId, NodeId, NodeId),
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
    (g, (a, b, c), s, (h1, h2, h3))
}

/// Joins the three receivers, schedules `faults`, runs far past the fault
/// window, then asserts full exactly-once delivery and that the timer
/// population has returned to the engine's steady heartbeat.
fn converges_after<P: Protocol<Command = Cmd>>(proto: P, faults: &Script, quiet_timers: usize) {
    let (g, _, s, (h1, h2, h3)) = diamond();
    let mut k = Kernel::new(Network::new(g), proto, 11);
    let ch = Channel::primary(s);
    k.command_at(h1, Cmd::Join(ch), Time(0));
    k.command_at(h2, Cmd::Join(ch), Time(100));
    k.command_at(h3, Cmd::Join(ch), Time(200));
    faults.schedule(&mut k);
    k.run_until(Time(20_000));

    k.command_at(s, Cmd::SendData { ch, tag: 7 }, Time(20_000));
    k.run_until(Time(20_400));
    let mut served: Vec<NodeId> = k.stats().deliveries_tagged(7).map(|d| d.node).collect();
    served.sort();
    let mut want = vec![h1, h2, h3];
    want.sort();
    assert_eq!(served, want, "every receiver exactly once after the storm");

    // No timer leak: what remains is the engine's steady-state heartbeat
    // (probes, deadman sweeps), not abandoned retransmission ladders. The
    // bound is per-engine because the hard engine legitimately keeps a
    // few periodic timers alive forever.
    assert!(
        k.pending_timer_count() <= quiet_timers,
        "timer leak: {} live timers after quiescence (allowed {})",
        k.pending_timer_count(),
        quiet_timers
    );
}

/// Re-crash the branching router while the repair from its first crash is
/// still in flight, twice over, with the final restart staying up.
fn recrash_plan(b: NodeId) -> Script {
    Script::new()
        .fail_node(Time(3_000), b)
        .restore_node(Time(3_120), b) // restart blank mid-detection
        .fail_node(Time(3_200), b) // re-crash before anyone settles on it
        .restore_node(Time(3_450), b)
        .fail_node(Time(3_500), b) // once more, mid re-home
        .restore_node(Time(4_000), b)
}

/// Flap the a—b tree link with a 60-unit period — shorter than the
/// 100-unit tree period, so soft refreshes and hard probes both straddle
/// flaps — then leave it up.
fn flap_plan(a: NodeId, b: NodeId) -> Script {
    let mut plan = Script::new();
    for i in 0..10 {
        let t = 3_000 + i * 120;
        plan = plan
            .fail_link(Time(t), a, b)
            .fault(Time(t + 60), FaultEvent::LinkUp { a, b });
    }
    plan
}

#[test]
fn soft_engine_survives_recrash_mid_repair() {
    let (_, (_, b, _), _, _) = diamond();
    // Soft quiescence: every t1/t2 timer is refresh-driven; after the
    // storm the periodic refresh population is bounded by the node count
    // times the handful of timer classes the engine arms.
    converges_after(Hbh::new(Timing::default()), &recrash_plan(b), 64);
}

#[test]
fn hard_engine_survives_recrash_mid_repair() {
    let (_, (_, b, _), _, _) = diamond();
    // Hard steady state: one probe timer per probing node, one deadman
    // sweep per branching node, one in-flight retransmission timer per
    // outstanding probe — well under 32 on this topology.
    converges_after(HbhHard::new(Timing::default()), &recrash_plan(b), 32);
}

#[test]
fn soft_engine_survives_fast_link_flap() {
    let (_, (a, b, _), _, _) = diamond();
    converges_after(Hbh::new(Timing::default()), &flap_plan(a, b), 64);
}

#[test]
fn hard_engine_survives_fast_link_flap() {
    let (_, (a, b, _), _, _) = diamond();
    converges_after(HbhHard::new(Timing::default()), &flap_plan(a, b), 32);
}

/// ROADMAP item 2's non-convergence at its smallest known reproducer, ISP with 3 receivers at
/// seed 20: `n8` serves `n34`, but `n34`'s join takes an asymmetric
/// up-path and is consumed at `n0`, where `n34`'s entry is marked. The
/// tree then cycles every 4 tree periods, through 4 structural changes:
/// `n34` learns `n0` as its parent from the join's consumer; its probes
/// follow redirects `n0 → n1 → n3 → n6 → n7`, one hop per half period;
/// meanwhile `n8`, which hears no probe from it, reaps it by the deadman;
/// the last redirect, to `n8`, finds nobody, and `n34` re-joins.
#[test]
#[ignore = "ROADMAP item 2"]
fn hard_engine_converges_on_every_fault_free_draw() {
    let timing = Timing::default();
    let sc = build(
        TopologyKind::Isp,
        3,
        20,
        &timing,
        &ScenarioOptions::default(),
    );
    assert_eq!(sc.receivers, [NodeId(34), NodeId(24), NodeId(26)]);
    let (mut k, _) = build_kernel(HbhHard::new(timing), &sc);
    let converged = converge(&mut k, &timing, sc.join_window);
    let changes = k.stats().structural_changes;
    assert!(
        converged,
        "still changing at {}, {changes} structural changes",
        k.now()
    );
}
