//! The HBH protocol engine: the message-processing rules of Appendix A
//! (Figure 9), with rule numbers cited inline.

use crate::messages::{HbhMsg, HbhTimer};
use crate::tables::{HbhMct, HbhMft};
use hbh_proto_base::{Channel, Cmd, SoftSet, Timing};
use hbh_sim_core::{Ctx, Packet, Protocol, SteadyState};
use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;
use std::sync::Arc;

/// The HBH protocol (configuration; per-node state in [`HbhNodeState`]).
#[derive(Clone, Debug)]
pub struct Hbh {
    /// Refresh periods and soft-state timers.
    pub timing: Timing,
    /// Membership aggregation at access routers (the HBH-AGG variant):
    /// joins from directly attached hosts are absorbed into a per-channel
    /// [`SoftSet`] of local members and the access router joins the
    /// channel once on their behalf, so upstream per-channel state is
    /// O(access routers), not O(receivers). Off by default — `Hbh::new`
    /// behaves exactly as the paper's protocol.
    pub aggregate: bool,
}

impl Hbh {
    /// An HBH instance with the given (validated) timing.
    pub fn new(timing: Timing) -> Self {
        timing.validate();
        Hbh {
            timing,
            aggregate: false,
        }
    }

    /// An HBH instance with membership aggregation at access routers
    /// (HBH-AGG). Protocol rules are otherwise identical to [`Hbh::new`].
    pub fn aggregated(timing: Timing) -> Self {
        let mut hbh = Hbh::new(timing);
        hbh.aggregate = true;
        hbh
    }
}

/// Per-node HBH state.
#[derive(Clone, Default, PartialEq)]
pub struct HbhNodeState {
    mct: FastMap<Channel, HbhMct>,
    mft: FastMap<Channel, HbhMft>,
    /// Receiver-agent subscriptions.
    member: FastSet<Channel>,
    /// Channels whose source tree timer is armed (source node only).
    tree_armed: FastSet<Channel>,
    /// Channels with an armed router sweep.
    sweep_armed: FastSet<Channel>,
    /// Aggregated local receivers per channel (HBH-AGG access routers
    /// only; always empty when aggregation is off).
    local: FastMap<Channel, SoftSet>,
}

impl HbhNodeState {
    /// This node's MCT for `ch`, if any.
    pub fn mct(&self, ch: Channel) -> Option<&HbhMct> {
        self.mct.get(&ch)
    }

    /// This node's MFT for `ch`, if any.
    pub fn mft(&self, ch: Channel) -> Option<&HbhMft> {
        self.mft.get(&ch)
    }

    /// Is this node currently a branching node for `ch`?
    pub fn is_branching(&self, ch: Channel) -> bool {
        self.mft.contains_key(&ch)
    }
}

impl SteadyState for HbhNodeState {
    fn advance(&mut self, by: u64) {
        self.mct.advance(by);
        self.mft.advance(by);
        self.local.advance(by);
    }
}

impl hbh_proto_base::StateInventory for HbhNodeState {
    fn forwarding_entries(&self, ch: Channel) -> usize {
        self.mft.get(&ch).map_or(0, |m| m.len())
    }

    fn control_entries(&self, ch: Channel) -> usize {
        usize::from(self.mct.contains_key(&ch))
    }

    fn state_bytes(&self, ch: Channel) -> usize {
        // The default weights, plus the aggregated local members at a
        // control entry's 12 B each — HBH-AGG must not hide the state it
        // keeps at access routers.
        24 * self.forwarding_entries(ch)
            + 12 * self.control_entries(ch)
            + 12 * self.local.get(&ch).map_or(0, |l| l.len())
    }
}

type HCtx<'a> = Ctx<'a, HbhMsg, HbhTimer>;

impl Hbh {
    fn arm_sweep(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        if state.sweep_armed.insert(ch) {
            ctx.set_timer(HbhTimer::Sweep(ch), self.timing.tree_period);
        }
    }

    /// Emits `fusion(S, …)` upstream, listing every live MFT node ("the
    /// fusion messages produced by B contain all the nodes that B
    /// maintains in its MFT").
    ///
    /// The fusion is addressed to `to` — the node that *emitted* the
    /// transiting tree message that triggered it (`pkt.src`). That node is
    /// the one currently responsible for serving the listed targets and
    /// therefore the one whose MFT must mark them and adopt the sender;
    /// addressing the fusion by unicast toward `S` instead would let
    /// asymmetric reverse paths bypass it (Figure 9(b)'s "addressed to B"
    /// check implies the message has a specific upstream addressee).
    ///
    /// Every fusion sent while the table stays calm carries the same
    /// shared list ([`HbhMft::fusion_list`]), not a copy of it.
    fn send_fusion(&self, mft: &mut HbhMft, ch: Channel, to: NodeId, ctx: &mut HCtx<'_>) {
        if to == ctx.node {
            return; // the trigger was our own emission looping back
        }
        let nodes = mft.fusion_list(ctx.now());
        if nodes.is_empty() {
            return; // nothing to claim
        }
        let pkt = Packet::control(
            ctx.node,
            to,
            HbhMsg::Fusion {
                ch,
                from: ctx.node,
                nodes,
            },
        );
        ctx.send(pkt);
    }

    fn send_tree(&self, ch: Channel, target: NodeId, ctx: &mut HCtx<'_>) {
        let pkt = Packet::control(ctx.node, target, HbhMsg::Tree { ch, target });
        ctx.send(pkt);
    }

    fn send_join(&self, ch: Channel, who: NodeId, initial: bool, ctx: &mut HCtx<'_>) {
        if ch.source == ctx.node {
            return;
        }
        let pkt = Packet::control(ctx.node, ch.source, HbhMsg::Join { ch, who, initial });
        ctx.send(pkt);
    }

    // --- join (Figure 9(a)) --------------------------------------------

    /// Join-time mark repair (see [`HbhMft::repair_orphaned_mark`]).
    fn repair_orphaned_mark(&self, mft: &mut HbhMft, who: NodeId, ctx: &mut HCtx<'_>) {
        if mft.repair_orphaned_mark(who, ctx.now()) {
            ctx.structural_change();
        }
    }

    fn join_at_source(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        who: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let mft = state.mft.entry(ch).or_default();
        self.repair_orphaned_mark(mft, who, ctx);
        if mft.refresh_or_insert(who, now, &self.timing) {
            ctx.structural_change();
        }
        if state.tree_armed.insert(ch) {
            ctx.set_timer(HbhTimer::TreeRefresh(ch), self.timing.tree_period);
        }
    }

    fn join_at_router(
        &self,
        state: &mut HbhNodeState,
        pkt: Packet<HbhMsg>,
        ch: Channel,
        who: NodeId,
        initial: bool,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        // "The first join issued by a receiver is never intercepted."
        if initial {
            ctx.forward(pkt); // rules (1)/(2) collapse to forwarding
            return;
        }
        match state.mft.get_mut(&ch) {
            // Rule (3): R ∈ MFT ⇒ intercept, refresh, join upstream
            // ourselves ("a branching router joins the group itself at
            // the next upstream branching router").
            Some(mft) if mft.contains(who, now) => {
                self.repair_orphaned_mark(mft, who, ctx);
                mft.refresh_or_insert(who, now, &self.timing);
                self.send_join(ch, ctx.node, false, ctx);
            }
            // Rules (1)/(2): no MFT, or R not in it ⇒ forward unchanged.
            _ => ctx.forward(pkt),
        }
    }

    // --- membership aggregation (HBH-AGG) ------------------------------

    /// Absorbs a join from a directly attached host into the per-channel
    /// local-member set. The access router is the channel's receiver
    /// of record: the *first* local member triggers the router's own
    /// (never-intercepted) initial join, which builds the upstream tree
    /// once; every later local join — initial or refresh — only touches
    /// the set. Per-period refreshes upstream are coalesced into
    /// a single join by the [`HbhTimer::AggFlush`] tick.
    fn join_at_access(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        who: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let local = state.local.entry(ch).or_default();
        let first = local.is_empty();
        if local.refresh(who, now, &self.timing) {
            ctx.structural_change();
        }
        if first {
            self.send_join(ch, ctx.node, true, ctx);
            ctx.set_timer(HbhTimer::AggFlush(ch), self.timing.tree_period);
        }
    }

    /// Fans a data packet addressed to this access router out to every
    /// live aggregated local member (on top of the normal MFT fan-out).
    fn deliver_local(
        &self,
        state: &HbhNodeState,
        pkt: &Packet<HbhMsg>,
        ch: Channel,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let Some(local) = state.local.get(&ch) else {
            return;
        };
        for h in local.live(now) {
            ctx.send(pkt.copy_to(h));
        }
    }

    /// Periodic aggregation tick: decay the local member set, then refresh
    /// the upstream join on behalf of all surviving members with one
    /// message. When the last member has expired the channel's local
    /// state is dropped and the upstream entry decays on its own.
    fn agg_flush(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        let now = ctx.now();
        let Some(local) = state.local.get_mut(&ch) else {
            return;
        };
        if local.reap(now) > 0 {
            ctx.structural_change();
        }
        if local.is_empty() {
            state.local.remove(&ch);
        } else {
            self.send_join(ch, ctx.node, false, ctx);
            ctx.set_timer(HbhTimer::AggFlush(ch), self.timing.tree_period);
        }
    }

    // --- tree (Figure 9(c)) --------------------------------------------

    fn tree_self_addressed(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        // Rule (1): a branching node discards the tree message addressed
        // to itself and fans a tree message out to each (tree-eligible)
        // MFT node.
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // table decayed; nothing to refresh
        };
        for t in mft.tree_targets(now) {
            self.send_tree(ch, t, ctx);
        }
    }

    fn tree_in_transit(
        &self,
        state: &mut HbhNodeState,
        pkt: Packet<HbhMsg>,
        ch: Channel,
        target: NodeId,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let emitter = pkt.src;
        if let Some(mft) = state.mft.get_mut(&ch) {
            // Rules (2)/(3): a branching node seeing a transit tree for a
            // new/known target adopts/refreshes it and tells the tree's
            // emitter (via fusion) that it is the branching point for
            // these nodes.
            if mft.refresh_or_insert(target, now, &self.timing) {
                ctx.structural_change(); // rule (2): new node adopted
            }
            self.send_fusion(mft, ch, emitter, ctx);
            ctx.forward(pkt);
            return;
        }
        match state.mct.get_mut(&ch) {
            // Rule (4): first contact with this channel ⇒ create the MCT.
            None => {
                state.mct.insert(ch, HbhMct::new(target, now, &self.timing));
                ctx.structural_change();
                self.arm_sweep(state, ch, ctx);
            }
            Some(mct) => {
                if mct.is_dead(now) || mct.node() == target {
                    if mct.is_dead(now) {
                        // Equivalent of rule (7) once t2 ran out.
                        mct.replace(target, now, &self.timing);
                        ctx.structural_change();
                    } else {
                        // Rules (5)/(6): same node ⇒ plain refresh.
                        mct.refresh(now, &self.timing);
                    }
                } else if mct.is_stale(now) {
                    // Rule (7): a stale MCT is overwritten, not promoted.
                    mct.replace(target, now, &self.timing);
                    ctx.structural_change();
                } else {
                    // Rule (8): two live targets flow through this router ⇒
                    // become a branching node and announce it upstream.
                    let first = mct.node();
                    state.mct.remove(&ch);
                    let mut mft = HbhMft::default();
                    mft.refresh_or_insert(first, now, &self.timing);
                    mft.refresh_or_insert(target, now, &self.timing);
                    state.mft.insert(ch, mft);
                    ctx.structural_change();
                    self.arm_sweep(state, ch, ctx);
                    let mft = state.mft.get_mut(&ch).expect("just inserted");
                    self.send_fusion(mft, ch, emitter, ctx);
                }
            }
        }
        ctx.forward(pkt);
    }

    // --- fusion (Figure 9(b)) ------------------------------------------

    /// Handles a fusion addressed to this node (rule (1)'s transit
    /// forwarding happens in `on_packet`, which gets to move the packet
    /// on unchanged). `nodes` is the sender's shared list, which `bp`'s
    /// row keeps.
    fn fusion_at_node(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        bp: NodeId,
        nodes: Arc<[NodeId]>,
        ctx: &mut HCtx<'_>,
    ) {
        let Some(mft) = state.mft.get_mut(&ch) else {
            return; // table decayed while the fusion was in flight
        };
        // Rules (2)–(4) are all table work: see `HbhMft::fusion`.
        for _ in 0..mft.fusion(bp, nodes, ctx.now(), &self.timing) {
            ctx.structural_change();
        }
    }

    // --- data -----------------------------------------------------------

    fn data_self_addressed(
        &self,
        state: &mut HbhNodeState,
        pkt: &Packet<HbhMsg>,
        ch: Channel,
        ctx: &mut HCtx<'_>,
    ) {
        // A branching node receives data addressed to itself and produces
        // one modified copy per data-eligible MFT node (§3: "each data
        // packet received by a branching node produces n+1 modified packet
        // copies" — n downstream copies here, the +1 being the upstream
        // packet that was addressed to us).
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // decayed table: the upstream sender will soon notice
        };
        for t in mft.data_targets(now) {
            ctx.send(pkt.copy_to(t));
        }
    }

    // --- source ----------------------------------------------------------

    fn source_tree_tick(&self, state: &mut HbhNodeState, ch: Channel, ctx: &mut HCtx<'_>) {
        let now = ctx.now();
        let Some(mft) = state.mft.get_mut(&ch) else {
            state.tree_armed.remove(&ch);
            return;
        };
        if mft.reap(now) > 0 {
            ctx.structural_change();
        }
        if mft.is_empty() {
            state.mft.remove(&ch);
            state.tree_armed.remove(&ch);
            ctx.structural_change();
            return;
        }
        for t in mft.tree_targets(now) {
            self.send_tree(ch, t, ctx);
        }
        ctx.set_timer(HbhTimer::TreeRefresh(ch), self.timing.tree_period);
    }

    fn source_send_data(
        &self,
        state: &mut HbhNodeState,
        ch: Channel,
        tag: u64,
        ctx: &mut HCtx<'_>,
    ) {
        let now = ctx.now();
        let Some(mft) = state.mft.get(&ch) else {
            return; // no receivers
        };
        for t in mft.data_targets(now) {
            let pkt = Packet::data(ctx.node, t, tag, now, HbhMsg::Data { ch });
            ctx.send(pkt);
        }
    }
}

impl Protocol for Hbh {
    type Msg = HbhMsg;
    type Timer = HbhTimer;
    type Command = Cmd;
    type NodeState = HbhNodeState;

    fn on_packet(&self, state: &mut HbhNodeState, pkt: Packet<HbhMsg>, ctx: &mut HCtx<'_>) {
        let here = ctx.node;
        let is_host = ctx.net().graph().is_host(here);
        // Match by reference and copy out the small fields, so that a
        // transiting packet moves on as it came.
        match &pkt.payload {
            HbhMsg::Join { ch, who, initial } => {
                let (ch, who, initial) = (*ch, *who, *initial);
                if pkt.dst == here {
                    // Joins are addressed to the source; a join addressed
                    // to anyone else is malformed and dropped.
                    if here == ch.source {
                        self.join_at_source(state, ch, who, ctx);
                    }
                } else if self.aggregate
                    && !is_host
                    && who != ch.source
                    && ctx.net().graph().is_host(who)
                    && ctx.net().graph().host_router(who) == here
                {
                    // HBH-AGG: a join from one of our own hosts is
                    // absorbed here, at its first hop.
                    self.join_at_access(state, ch, who, ctx);
                } else {
                    self.join_at_router(state, pkt, ch, who, initial, ctx);
                }
            }
            HbhMsg::Tree { ch, target } => {
                let (ch, target) = (*ch, *target);
                if pkt.dst != target {
                    return; // trees are addressed to their target: malformed
                }
                if pkt.dst == here {
                    if is_host {
                        // Receiver end: consume (liveness indication only).
                    } else {
                        self.tree_self_addressed(state, ch, ctx);
                    }
                } else {
                    self.tree_in_transit(state, pkt, ch, target, ctx);
                }
            }
            HbhMsg::Fusion { .. } => {
                if pkt.dst != here {
                    // Rule (1): not addressed to us ⇒ forward upstream.
                    ctx.forward(pkt);
                } else {
                    let HbhMsg::Fusion { ch, from, nodes } = pkt.payload else {
                        unreachable!("arm matched above")
                    };
                    self.fusion_at_node(state, ch, from, nodes, ctx);
                }
            }
            HbhMsg::Data { ch } => {
                let ch = *ch;
                if pkt.dst == here {
                    if is_host {
                        if state.member.contains(&ch) {
                            ctx.deliver(&pkt);
                        }
                    } else {
                        self.data_self_addressed(state, &pkt, ch, ctx);
                        if self.aggregate {
                            self.deliver_local(state, &pkt, ch, ctx);
                        }
                    }
                } else {
                    ctx.forward(pkt);
                }
            }
        }
    }

    fn on_timer(&self, state: &mut HbhNodeState, timer: HbhTimer, ctx: &mut HCtx<'_>) {
        match timer {
            HbhTimer::JoinRefresh(ch) => {
                if state.member.contains(&ch) {
                    self.send_join(ch, ctx.node, false, ctx);
                    ctx.set_timer(HbhTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            HbhTimer::TreeRefresh(ch) => self.source_tree_tick(state, ch, ctx),
            HbhTimer::AggFlush(ch) => self.agg_flush(state, ch, ctx),
            HbhTimer::Sweep(ch) => {
                let now = ctx.now();
                let mut reaped = 0;
                let mut keep = false;
                if let Some(mct) = state.mct.get(&ch) {
                    if mct.is_dead(now) {
                        state.mct.remove(&ch);
                        reaped += 1;
                    } else {
                        keep = true;
                    }
                }
                if let Some(mft) = state.mft.get_mut(&ch) {
                    reaped += mft.reap(now);
                    if mft.is_empty() {
                        state.mft.remove(&ch);
                        reaped += 1;
                    } else {
                        keep = true;
                    }
                }
                if reaped > 0 {
                    ctx.structural_change();
                }
                if keep {
                    ctx.set_timer(HbhTimer::Sweep(ch), self.timing.tree_period);
                } else {
                    state.sweep_armed.remove(&ch);
                }
            }
        }
    }

    fn on_command(&self, state: &mut HbhNodeState, cmd: Cmd, ctx: &mut HCtx<'_>) {
        match cmd {
            Cmd::StartSource(_) => {
                // HBH sources are armed lazily by the first join.
            }
            Cmd::Join(ch) => {
                if state.member.insert(ch) {
                    // First join: flagged, never intercepted.
                    self.send_join(ch, ctx.node, true, ctx);
                    ctx.set_timer(HbhTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            Cmd::Leave(ch) => {
                if state.member.remove(&ch) {
                    ctx.cancel_timer(&HbhTimer::JoinRefresh(ch));
                }
            }
            Cmd::SendData { ch, tag } => {
                assert_eq!(ctx.node, ch.source, "SendData must run at the source");
                self.source_send_data(state, ch, tag, ctx);
            }
        }
    }
}
