//! The PIM protocol engine: join propagation, per-oif data replication,
//! and the two modes (shared tree / source tree).

use crate::messages::{PimMsg, PimTimer};
use crate::oif::OifTable;
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Ctx, Packet, Protocol, SteadyState};
use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;

/// Which tree PIM builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PimMode {
    /// PIM-SM as the paper simulates it: one shared tree rooted at the RP,
    /// source data unicast-encapsulated to the RP, no switchover.
    SparseShared {
        /// The rendez-vous point the shared tree is rooted at.
        rp: NodeId,
    },
    /// PIM-SS (the PIM-SSM tree shape): per-source reverse SPT.
    SourceSpecific,
}

/// The PIM protocol (configuration part; per-node state lives in
/// [`PimNodeState`]).
#[derive(Clone, Debug)]
pub struct Pim {
    /// Shared tree (with RP) or source-specific.
    pub mode: PimMode,
    /// Refresh periods and soft-state timers.
    pub timing: Timing,
}

impl Pim {
    /// PIM-SS: per-source reverse SPT.
    pub fn source_specific(timing: Timing) -> Self {
        timing.validate();
        Pim {
            mode: PimMode::SourceSpecific,
            timing,
        }
    }

    /// PIM-SM: one shared tree rooted at `rp`.
    pub fn sparse_shared(rp: NodeId, timing: Timing) -> Self {
        timing.validate();
        Pim {
            mode: PimMode::SparseShared { rp },
            timing,
        }
    }

    /// The node joins converge on: the source for SS, the RP for SM.
    pub fn root(&self, ch: Channel) -> NodeId {
        match self.mode {
            PimMode::SourceSpecific => ch.source,
            PimMode::SparseShared { rp } => rp,
        }
    }

    fn send_receiver_join(&self, ch: Channel, ctx: &mut Ctx<'_, PimMsg, PimTimer>) {
        let root = self.root(ch);
        if root == ctx.node {
            return; // degenerate: receiver co-located with the root
        }
        let pkt = Packet::control(
            ctx.node,
            root,
            PimMsg::Join {
                ch,
                downstream: ctx.node,
            },
        );
        ctx.send(pkt);
    }
}

/// Per-node PIM state: router oif tables plus host agent bookkeeping.
#[derive(Clone, Default, PartialEq)]
pub struct PimNodeState {
    /// `(root, G)` oif tables, keyed by channel.
    oifs: FastMap<Channel, OifTable>,
    /// Channels this node's receiver agent is subscribed to.
    member: FastSet<Channel>,
    /// Channels with an armed sweep timer (avoid duplicate arming).
    sweep_armed: FastSet<Channel>,
}

impl PimNodeState {
    /// Read access for tests/experiments: the oif table of `ch`.
    pub fn oif_table(&self, ch: Channel) -> Option<&OifTable> {
        self.oifs.get(&ch)
    }

    fn refresh_oif(
        &mut self,
        ch: Channel,
        downstream: NodeId,
        timing: &Timing,
        ctx: &mut Ctx<'_, PimMsg, PimTimer>,
    ) {
        let table = self.oifs.entry(ch).or_default();
        if table.refresh(downstream, ctx.now(), timing) {
            ctx.structural_change();
        }
        if self.sweep_armed.insert(ch) {
            ctx.set_timer(PimTimer::Sweep(ch), timing.tree_period);
        }
    }
}

impl SteadyState for PimNodeState {
    fn advance(&mut self, by: u64) {
        self.oifs.advance(by);
    }
}

impl hbh_proto_base::StateInventory for PimNodeState {
    fn forwarding_entries(&self, ch: Channel) -> usize {
        self.oifs.get(&ch).map_or(0, |t| t.len())
    }

    fn control_entries(&self, _ch: Channel) -> usize {
        0 // PIM's per-group state is all forwarding state
    }
}

impl Protocol for Pim {
    type Msg = PimMsg;
    type Timer = PimTimer;
    type Command = Cmd;
    type NodeState = PimNodeState;

    fn on_packet(
        &self,
        state: &mut PimNodeState,
        pkt: Packet<PimMsg>,
        ctx: &mut Ctx<'_, PimMsg, PimTimer>,
    ) {
        match pkt.payload {
            PimMsg::Join { ch, downstream } => {
                // Install/refresh the oif toward whoever forwarded the join.
                state.refresh_oif(ch, downstream, &self.timing, ctx);
                if pkt.dst == ctx.node {
                    return; // reached the root (source host or RP router)
                }
                // Re-originate upstream (suppressed to one per half-period).
                let due = state
                    .oifs
                    .get_mut(&ch)
                    .expect("just refreshed")
                    .upstream_due(ctx.now(), &self.timing);
                if due {
                    let next = Packet::control(
                        ctx.node,
                        pkt.dst,
                        PimMsg::Join {
                            ch,
                            downstream: ctx.node,
                        },
                    );
                    ctx.send(next);
                }
            }
            PimMsg::Data { ch } => {
                if pkt.dst != ctx.node {
                    // Register-path transit (SM's S→RP leg): plain unicast.
                    ctx.forward(pkt);
                    return;
                }
                if ctx.net().graph().is_host(ctx.node) {
                    if state.member.contains(&ch) {
                        ctx.deliver(&pkt);
                    }
                    return;
                }
                // Router on the tree (or the RP): replicate per live oif,
                // one copy per tree link — interface-directed, not routed.
                let now = ctx.now();
                if let Some(table) = state.oifs.get(&ch) {
                    for next in table.live(now) {
                        ctx.send_link(next, pkt.copy_to(next));
                    }
                }
            }
        }
    }

    fn on_timer(
        &self,
        state: &mut PimNodeState,
        timer: PimTimer,
        ctx: &mut Ctx<'_, PimMsg, PimTimer>,
    ) {
        match timer {
            PimTimer::JoinRefresh(ch) => {
                if state.member.contains(&ch) {
                    self.send_receiver_join(ch, ctx);
                    ctx.set_timer(PimTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            PimTimer::Sweep(ch) => {
                let mut empty = false;
                if let Some(table) = state.oifs.get_mut(&ch) {
                    if table.reap(ctx.now()) > 0 {
                        ctx.structural_change();
                    }
                    empty = table.is_empty();
                }
                if empty {
                    state.oifs.remove(&ch);
                    state.sweep_armed.remove(&ch);
                    ctx.structural_change();
                } else if state.oifs.contains_key(&ch) {
                    ctx.set_timer(PimTimer::Sweep(ch), self.timing.tree_period);
                } else {
                    state.sweep_armed.remove(&ch);
                }
            }
        }
    }

    fn on_command(&self, state: &mut PimNodeState, cmd: Cmd, ctx: &mut Ctx<'_, PimMsg, PimTimer>) {
        match cmd {
            Cmd::StartSource(_) => {
                // PIM sources are passive until data is injected: SS fan-out
                // state is built by incoming joins, SM registers on demand.
            }
            Cmd::Join(ch) => {
                if state.member.insert(ch) {
                    self.send_receiver_join(ch, ctx);
                    ctx.set_timer(PimTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            Cmd::Leave(ch) => {
                // The paper's leave semantics: stop refreshing, let soft
                // state decay (the simulated PIM has no prunes either).
                if state.member.remove(&ch) {
                    ctx.cancel_timer(&PimTimer::JoinRefresh(ch));
                }
            }
            Cmd::SendData { ch, tag } => {
                assert_eq!(ctx.node, ch.source, "SendData must run at the source");
                match self.mode {
                    PimMode::SourceSpecific => {
                        // Replicate per local oif (in practice: the access
                        // router, installed by the receivers' joins).
                        let now = ctx.now();
                        if let Some(table) = state.oifs.get(&ch) {
                            for next in table.live(now) {
                                let pkt =
                                    Packet::data(ctx.node, next, tag, now, PimMsg::Data { ch });
                                ctx.send_link(next, pkt);
                            }
                        }
                    }
                    PimMode::SparseShared { rp } => {
                        // Register path: unicast-encapsulated to the RP.
                        let pkt = Packet::data(ctx.node, rp, tag, ctx.now(), PimMsg::Data { ch });
                        ctx.send(pkt);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_sim_core::{Kernel, Network, Time};
    use hbh_topo::graph::Graph;
    use std::collections::HashSet;

    /// Builds a Y-shaped network:
    ///
    /// ```text
    ///   s(host) - r0 - r1 - r2 - h2
    ///                    \
    ///                     r3 - h3
    /// ```
    /// with asymmetric costs on the r1–r2 leg so reverse paths differ.
    struct Net {
        net: Network,
        s: NodeId,
        r: Vec<NodeId>,
        h2: NodeId,
        h3: NodeId,
    }

    fn build() -> Net {
        let mut g = Graph::new();
        let r: Vec<NodeId> = (0..4).map(|_| g.add_router()).collect();
        g.add_link(r[0], r[1], 2, 2);
        g.add_link(r[1], r[2], 3, 5); // asymmetric
        g.add_link(r[1], r[3], 1, 1);
        let s = g.add_host(r[0], 1, 1);
        let h2 = g.add_host(r[2], 1, 1);
        let h3 = g.add_host(r[3], 1, 1);
        Net {
            net: Network::new(g),
            s,
            r,
            h2,
            h3,
        }
    }

    fn converge(k: &mut Kernel<Pim>, t: u64) {
        k.run_until(Time(t));
    }

    #[test]
    fn ss_join_installs_oifs_along_reverse_path() {
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        converge(&mut k, 500);
        // Path h2→s: h2, r2, r1, r0, s. oifs: r2→h2, r1→r2, r0→r1, s→r0.
        assert!(k.state(n.r[2]).oif_table(ch).unwrap().contains(n.h2));
        assert!(k.state(n.r[1]).oif_table(ch).unwrap().contains(n.r[2]));
        assert!(k.state(n.r[0]).oif_table(ch).unwrap().contains(n.r[1]));
        assert!(k.state(n.s).oif_table(ch).unwrap().contains(n.r[0]));
    }

    #[test]
    fn ss_data_reaches_all_receivers_once() {
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.s, Cmd::StartSource(ch), Time(0));
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        k.command_at(n.h3, Cmd::Join(ch), Time(5));
        converge(&mut k, 1000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 42 }, Time(1000));
        k.run_until(Time(1200));
        let deliveries: Vec<_> = k.stats().deliveries_tagged(42).collect();
        assert_eq!(deliveries.len(), 2);
        let nodes: HashSet<NodeId> = deliveries.iter().map(|d| d.node).collect();
        assert_eq!(nodes, HashSet::from([n.h2, n.h3]));
    }

    #[test]
    fn ss_cost_is_one_copy_per_tree_link() {
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        k.command_at(n.h3, Cmd::Join(ch), Time(5));
        converge(&mut k, 1000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 1 }, Time(1000));
        k.run_until(Time(1200));
        // Tree links: s→r0, r0→r1, r1→r2, r2→h2, r1→r3, r3→h3 = 6.
        assert_eq!(k.stats().data_copies_tagged(1), 6);
        for (_, copies) in k.stats().data_copies_per_link(1) {
            assert_eq!(copies, 1, "RPF guarantees one copy per link");
        }
    }

    #[test]
    fn ss_delay_is_reverse_path_delay() {
        // Data to h2 flows on the *reverse* of h2's route to s. Here the
        // h2→s route is h2,r2,r1,r0,s, so data takes r1→r2 at cost 3 and
        // total delay 1 (s→r0) + 2 + 3 + 1 = 7, which equals the forward
        // SPT delay in this topology; the asymmetric figure-2 scenario is
        // exercised in the integration tests.
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        converge(&mut k, 1000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 2 }, Time(1000));
        k.run_until(Time(1200));
        let d: Vec<_> = k.stats().deliveries_tagged(2).collect();
        assert_eq!(d[0].delay(), 7);
    }

    #[test]
    fn sm_data_detours_via_rp() {
        let n = build();
        let ch = Channel::primary(n.s);
        let rp = n.r[3];
        let mut k = Kernel::new(n.net.clone(), Pim::sparse_shared(rp, Timing::default()), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        converge(&mut k, 1000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 3 }, Time(1000));
        k.run_until(Time(1300));
        let d: Vec<_> = k.stats().deliveries_tagged(3).collect();
        assert_eq!(d.len(), 1);
        // Register path s→r0→r1→r3 (1+2+1 = 4), then shared tree
        // r3→r1→r2→h2 (1+3+1 = 5): delay 9 > direct 7.
        assert_eq!(d[0].delay(), 9);
        // Cost: register 3 links + tree 3 links.
        assert_eq!(k.stats().data_copies_tagged(3), 6);
    }

    #[test]
    fn sm_register_leg_counts_copies_even_on_shared_links() {
        // h3 joins: shared tree is rp(r3)→h3. Register path s→r0→r1→r3.
        let n = build();
        let ch = Channel::primary(n.s);
        let rp = n.r[3];
        let mut k = Kernel::new(n.net.clone(), Pim::sparse_shared(rp, Timing::default()), 1);
        k.command_at(n.h3, Cmd::Join(ch), Time(0));
        converge(&mut k, 1000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 4 }, Time(1000));
        k.run_until(Time(1300));
        assert_eq!(k.stats().data_copies_tagged(4), 4); // 3 register + 1 tree
    }

    #[test]
    fn leave_decays_and_stops_delivery() {
        let n = build();
        let ch = Channel::primary(n.s);
        let timing = Timing::default();
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(timing), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        k.command_at(n.h3, Cmd::Join(ch), Time(0));
        converge(&mut k, 1000);
        k.command_at(n.h2, Cmd::Leave(ch), Time(1000));
        // Wait out t2 plus slack so the oif chain toward h2 is reaped.
        converge(&mut k, 1000 + timing.t2 + 3 * timing.tree_period);
        let probe_at = k.now();
        k.command_at(n.s, Cmd::SendData { ch, tag: 5 }, probe_at);
        k.run_until(probe_at + 200);
        let nodes: Vec<NodeId> = k.stats().deliveries_tagged(5).map(|d| d.node).collect();
        assert_eq!(nodes, vec![n.h3], "only the remaining member gets data");
        // h2's branch state is gone.
        assert!(!k
            .state(n.r[2])
            .oif_table(ch)
            .is_some_and(|t| t.contains(n.h2)));
    }

    #[test]
    fn leave_all_tears_down_everything() {
        let n = build();
        let ch = Channel::primary(n.s);
        let timing = Timing::default();
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(timing), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        converge(&mut k, 800);
        k.command_at(n.h2, Cmd::Leave(ch), Time(800));
        converge(&mut k, 800 + timing.t2 + 5 * timing.tree_period);
        for node in [n.s, n.r[0], n.r[1], n.r[2]] {
            assert!(
                k.state(node).oif_table(ch).is_none(),
                "stale state left at {node}"
            );
        }
    }

    #[test]
    fn rejoin_after_leave_works() {
        let n = build();
        let ch = Channel::primary(n.s);
        let timing = Timing::default();
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(timing), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        k.command_at(n.h2, Cmd::Leave(ch), Time(300));
        k.command_at(n.h2, Cmd::Join(ch), Time(2000));
        converge(&mut k, 3000);
        k.command_at(n.s, Cmd::SendData { ch, tag: 6 }, Time(3000));
        k.run_until(Time(3200));
        assert_eq!(k.stats().deliveries_tagged(6).count(), 1);
    }

    #[test]
    fn data_with_no_receivers_goes_nowhere() {
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.s, Cmd::SendData { ch, tag: 7 }, Time(0));
        k.run_until(Time(100));
        assert_eq!(k.stats().data_copies_tagged(7), 0);
        assert_eq!(k.stats().deliveries_tagged(7).count(), 0);
    }

    #[test]
    fn sm_data_with_no_receivers_dies_at_rp() {
        let n = build();
        let ch = Channel::primary(n.s);
        let rp = n.r[1];
        let mut k = Kernel::new(n.net.clone(), Pim::sparse_shared(rp, Timing::default()), 1);
        k.command_at(n.s, Cmd::SendData { ch, tag: 8 }, Time(0));
        k.run_until(Time(100));
        // Register path s→r0→r1 = 2 copies, then nothing.
        assert_eq!(k.stats().data_copies_tagged(8), 2);
        assert_eq!(k.stats().deliveries_tagged(8).count(), 0);
    }

    #[test]
    fn duplicate_join_command_is_idempotent() {
        let n = build();
        let ch = Channel::primary(n.s);
        let mut k = Kernel::new(n.net.clone(), Pim::source_specific(Timing::default()), 1);
        k.command_at(n.h2, Cmd::Join(ch), Time(0));
        k.command_at(n.h2, Cmd::Join(ch), Time(1));
        converge(&mut k, 600);
        k.command_at(n.s, Cmd::SendData { ch, tag: 9 }, Time(600));
        k.run_until(Time(800));
        assert_eq!(
            k.stats().deliveries_tagged(9).count(),
            1,
            "no duplicate delivery"
        );
    }
}
