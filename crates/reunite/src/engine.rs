//! The REUNITE protocol engine.
//!
//! ## Processing rules (per §2 of the HBH paper and \[21\])
//!
//! **join(S, r)** — travels unicast toward `S`:
//! * at the source: install `r` (first receiver becomes `MFT.dst`) or
//!   refresh it;
//! * at a branching router with a *fresh* table: if `r == dst`, refresh and
//!   **forward** (the dst receiver's joins maintain the entire upstream
//!   chain: `S`'s own dst entry is refreshed by them); if `r` is another
//!   member, refresh and discard; otherwise install `r` and discard;
//! * at a branching router with a *stale* table: forward untouched (this
//!   is what lets downstream receivers re-join upstream during
//!   reconfiguration — Figure 2(c));
//! * at a router with MCT state listing some other receiver: **promote**
//!   to branching (`dst` = oldest MCT receiver, add `r`, drop the MCT);
//! * otherwise forward untouched.
//!
//! **tree(S, r)** — travels unicast toward `r`:
//! * at a branching router whose `dst == r`: unmarked → refresh the dst
//!   entry, clear a stale flag (recovery), forward, and emit `tree(S, rᵢ)`
//!   for every other live member (marked iff that member's entry is
//!   stale); marked → set the stale flag and forward the marked tree;
//! * at a branching router with `dst ≠ r`: forward only (transit);
//! * at a non-branching router: unmarked → install/refresh `r` in the MCT;
//!   marked → delete `r`'s MCT entry; either way forward;
//! * at the receiver: consume.
//!
//! **data** — addressed to some branching node's `dst`:
//! * a branching router seeing data addressed to its own `dst` forwards
//!   the original and unicasts one modified copy per other live member
//!   (this is where REUNITE's `n` copies vs HBH's `n+1` trade-off lives);
//! * everyone else just forwards; the receiver delivers.
//!
//! The source's periodic tree timer doubles as its sweep: it reaps dead
//! entries, re-elects `dst` after the dst receiver departs (Figure 2(d)),
//! and emits one tree per live member.

use crate::messages::{ReuniteMsg, ReuniteTimer};
use crate::tables::{Mct, Mft};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Ctx, Packet, Protocol, SteadyState};
use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;

/// The REUNITE protocol (configuration; per-node state in
/// [`ReuniteNodeState`]).
#[derive(Clone, Debug)]
pub struct Reunite {
    /// Refresh periods and soft-state timers.
    pub timing: Timing,
}

impl Reunite {
    /// A REUNITE instance with the given (validated) timing.
    pub fn new(timing: Timing) -> Self {
        timing.validate();
        Reunite { timing }
    }
}

/// Per-node REUNITE state.
#[derive(Clone, Default, PartialEq)]
pub struct ReuniteNodeState {
    mct: FastMap<Channel, Mct>,
    mft: FastMap<Channel, Mft>,
    /// Receiver-agent subscriptions.
    member: FastSet<Channel>,
    /// Channels whose source tree timer is armed (source host only).
    tree_armed: FastSet<Channel>,
    /// Channels with an armed router sweep.
    sweep_armed: FastSet<Channel>,
}

impl ReuniteNodeState {
    /// This node's MCT for `ch`, if any.
    pub fn mct(&self, ch: Channel) -> Option<&Mct> {
        self.mct.get(&ch)
    }

    /// This node's MFT for `ch`, if any.
    pub fn mft(&self, ch: Channel) -> Option<&Mft> {
        self.mft.get(&ch)
    }

    /// True if this node is currently a branching node for `ch`.
    pub fn is_branching(&self, ch: Channel) -> bool {
        self.mft.contains_key(&ch)
    }
}

impl SteadyState for ReuniteNodeState {
    fn advance(&mut self, by: u64) {
        self.mct.advance(by);
        self.mft.advance(by);
    }
}

impl hbh_proto_base::StateInventory for ReuniteNodeState {
    fn forwarding_entries(&self, ch: Channel) -> usize {
        self.mft.get(&ch).map_or(0, |m| m.len())
    }

    fn control_entries(&self, ch: Channel) -> usize {
        self.mct.get(&ch).map_or(0, |m| m.len())
    }
}

type RCtx<'a> = Ctx<'a, ReuniteMsg, ReuniteTimer>;

impl Reunite {
    fn arm_sweep(&self, state: &mut ReuniteNodeState, ch: Channel, ctx: &mut RCtx<'_>) {
        if state.sweep_armed.insert(ch) {
            ctx.set_timer(ReuniteTimer::Sweep(ch), self.timing.tree_period);
        }
    }

    // --- join ---------------------------------------------------------

    fn join_at_source(
        &self,
        state: &mut ReuniteNodeState,
        ch: Channel,
        r: NodeId,
        ctx: &mut RCtx<'_>,
    ) {
        let now = ctx.now();
        match state.mft.get_mut(&ch) {
            Some(mft) => {
                if mft.refresh_or_insert(r, now, &self.timing) {
                    ctx.structural_change();
                }
            }
            None => {
                state.mft.insert(ch, Mft::new(r, now, &self.timing));
                ctx.structural_change();
                if state.tree_armed.insert(ch) {
                    ctx.set_timer(ReuniteTimer::TreeRefresh(ch), self.timing.tree_period);
                }
            }
        }
    }

    fn join_at_router(
        &self,
        state: &mut ReuniteNodeState,
        pkt: Packet<ReuniteMsg>,
        ch: Channel,
        r: NodeId,
        fresh: bool,
        ctx: &mut RCtx<'_>,
    ) {
        let now = ctx.now();
        if let Some(mft) = state.mft.get_mut(&ch) {
            if !mft.intercepts(now) {
                ctx.forward(pkt); // stale table: let joins escape upstream
                return;
            }
            if r == mft.dst() {
                // The dst receiver's join refreshes this hop and continues
                // upstream to keep the whole dst chain alive.
                mft.refresh_existing(r, now, &self.timing);
                ctx.forward(pkt);
            } else if mft.refresh_existing(r, now, &self.timing) {
                // Member joined here earlier: refresh, consume.
            } else if fresh {
                // A new receiver joins at the first branching node it
                // meets ("r6 joined at R7").
                mft.refresh_or_insert(r, now, &self.timing);
                ctx.structural_change();
            } else {
                // Refresh join for an entry that lives elsewhere (usually
                // at the source): pass through untouched — capturing it
                // would starve the upstream entry it refreshes.
                ctx.forward(pkt);
            }
            return;
        }
        // Promotion check (fresh joins only): MCT listing a *different*
        // receiver?
        let promoted = match (&state.mct.get(&ch), fresh) {
            (Some(mct), true) => mct.live(now).find(|&x| x != r),
            _ => None,
        };
        if let Some(dst) = promoted {
            state.mct.remove(&ch);
            let mut mft = Mft::new(dst, now, &self.timing);
            mft.refresh_or_insert(r, now, &self.timing);
            state.mft.insert(ch, mft);
            ctx.structural_change();
            self.arm_sweep(state, ch, ctx);
            return; // join consumed: r joined here
        }
        ctx.forward(pkt);
    }

    // --- tree ---------------------------------------------------------

    fn tree_at_router(
        &self,
        state: &mut ReuniteNodeState,
        pkt: Packet<ReuniteMsg>,
        ch: Channel,
        r: NodeId,
        marked: bool,
        ctx: &mut RCtx<'_>,
    ) {
        let now = ctx.now();
        if let Some(mft) = state.mft.get_mut(&ch) {
            if mft.dst() == r {
                if marked {
                    if mft.set_stale() {
                        ctx.structural_change();
                    }
                    ctx.forward(pkt);
                } else {
                    mft.refresh_existing(r, now, &self.timing);
                    if mft.clear_stale() {
                        // Upstream recovered: resume normal operation.
                        ctx.structural_change();
                    }
                    ctx.forward(pkt);
                    for target in mft.copy_targets(now) {
                        let entry_stale = mft.entry_is_stale(target, now);
                        let tree = Packet::control(
                            ctx.node,
                            target,
                            ReuniteMsg::Tree {
                                ch,
                                receiver: target,
                                marked: entry_stale,
                            },
                        );
                        ctx.send(tree);
                    }
                }
            } else {
                ctx.forward(pkt); // transit tree for someone else's branch
            }
            return;
        }
        // Non-branching router: maintain the MCT.
        let mct = state.mct.entry(ch).or_default();
        if marked {
            if mct.remove(r) {
                ctx.structural_change();
            }
            if mct.is_empty() {
                state.mct.remove(&ch);
            }
        } else {
            if mct.refresh_or_insert(r, now, &self.timing) {
                ctx.structural_change();
            }
            self.arm_sweep(state, ch, ctx);
        }
        ctx.forward(pkt);
    }

    // --- data ---------------------------------------------------------

    fn data_at_router(
        &self,
        state: &mut ReuniteNodeState,
        pkt: Packet<ReuniteMsg>,
        ch: Channel,
        ctx: &mut RCtx<'_>,
    ) {
        let now = ctx.now();
        if let Some(mft) = state.mft.get(&ch) {
            if mft.dst() == pkt.dst {
                for r in mft.copy_targets(now) {
                    ctx.send(pkt.copy_to(r));
                }
            }
        }
        ctx.forward(pkt);
    }

    // --- source -------------------------------------------------------

    fn source_tree_tick(&self, state: &mut ReuniteNodeState, ch: Channel, ctx: &mut RCtx<'_>) {
        let now = ctx.now();
        let Some(mft) = state.mft.get_mut(&ch) else {
            state.tree_armed.remove(&ch);
            return;
        };
        if mft.reap(now) > 0 {
            ctx.structural_change();
        }
        if mft.dst_gone() && mft.elect_new_dst(now).is_some() {
            ctx.structural_change();
        }
        if mft.is_empty() {
            state.mft.remove(&ch);
            state.tree_armed.remove(&ch);
            ctx.structural_change();
            return;
        }
        for target in mft.live(now) {
            let entry_stale = mft.entry_is_stale(target, now);
            let tree = Packet::control(
                ctx.node,
                target,
                ReuniteMsg::Tree {
                    ch,
                    receiver: target,
                    marked: entry_stale,
                },
            );
            ctx.send(tree);
        }
        ctx.set_timer(ReuniteTimer::TreeRefresh(ch), self.timing.tree_period);
    }

    fn source_send_data(
        &self,
        state: &mut ReuniteNodeState,
        ch: Channel,
        tag: u64,
        ctx: &mut RCtx<'_>,
    ) {
        let now = ctx.now();
        let Some(mft) = state.mft.get_mut(&ch) else {
            return; // no receivers
        };
        // Keep the table current so data is never addressed to a corpse.
        mft.reap(now);
        if mft.dst_gone() {
            mft.elect_new_dst(now);
        }
        if mft.is_empty() {
            state.mft.remove(&ch);
            return;
        }
        let dst = mft.dst();
        ctx.send(Packet::data(
            ctx.node,
            dst,
            tag,
            now,
            ReuniteMsg::Data { ch },
        ));
        for r in mft.copy_targets(now) {
            ctx.send(Packet::data(ctx.node, r, tag, now, ReuniteMsg::Data { ch }));
        }
    }

    fn send_receiver_join(&self, ch: Channel, fresh: bool, ctx: &mut RCtx<'_>) {
        if ch.source == ctx.node {
            return;
        }
        let pkt = Packet::control(
            ctx.node,
            ch.source,
            ReuniteMsg::Join {
                ch,
                receiver: ctx.node,
                fresh,
            },
        );
        ctx.send(pkt);
    }
}

impl Protocol for Reunite {
    type Msg = ReuniteMsg;
    type Timer = ReuniteTimer;
    type Command = Cmd;
    type NodeState = ReuniteNodeState;

    fn on_packet(&self, state: &mut ReuniteNodeState, pkt: Packet<ReuniteMsg>, ctx: &mut RCtx<'_>) {
        let here = ctx.node;
        let is_host = ctx.net().graph().is_host(here);
        match pkt.payload {
            ReuniteMsg::Join {
                ch,
                receiver,
                fresh,
            } => {
                if pkt.dst == here {
                    // Reached the source.
                    self.join_at_source(state, ch, receiver, ctx);
                } else if is_host {
                    // Kernel guards against this; keep the invariant loud.
                    unreachable!("transit join at host {here}");
                } else {
                    self.join_at_router(state, pkt, ch, receiver, fresh, ctx);
                }
            }
            ReuniteMsg::Tree {
                ch,
                receiver,
                marked,
            } => {
                if pkt.dst == here {
                    // Receiver end of a tree message: consume.
                    let _ = (ch, receiver, marked);
                } else {
                    self.tree_at_router(state, pkt, ch, receiver, marked, ctx);
                }
            }
            ReuniteMsg::Data { ch } => {
                if pkt.dst == here {
                    if state.member.contains(&ch) {
                        ctx.deliver(&pkt);
                    }
                } else {
                    self.data_at_router(state, pkt, ch, ctx);
                }
            }
        }
    }

    fn on_timer(&self, state: &mut ReuniteNodeState, timer: ReuniteTimer, ctx: &mut RCtx<'_>) {
        match timer {
            ReuniteTimer::JoinRefresh(ch) => {
                if state.member.contains(&ch) {
                    self.send_receiver_join(ch, false, ctx);
                    ctx.set_timer(ReuniteTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            ReuniteTimer::TreeRefresh(ch) => self.source_tree_tick(state, ch, ctx),
            ReuniteTimer::Sweep(ch) => {
                let now = ctx.now();
                let mut reaped = 0;
                let mut keep = false;
                if let Some(mct) = state.mct.get_mut(&ch) {
                    reaped += mct.reap(now);
                    if mct.is_empty() {
                        state.mct.remove(&ch);
                    } else {
                        keep = true;
                    }
                }
                if let Some(mft) = state.mft.get_mut(&ch) {
                    reaped += mft.reap(now);
                    if mft.is_empty() {
                        state.mft.remove(&ch);
                    } else {
                        keep = true;
                    }
                }
                if reaped > 0 {
                    ctx.structural_change();
                }
                if keep {
                    ctx.set_timer(ReuniteTimer::Sweep(ch), self.timing.tree_period);
                } else {
                    state.sweep_armed.remove(&ch);
                }
            }
        }
    }

    fn on_command(&self, state: &mut ReuniteNodeState, cmd: Cmd, ctx: &mut RCtx<'_>) {
        match cmd {
            Cmd::StartSource(_) => {
                // REUNITE sources are armed lazily by the first join.
            }
            Cmd::Join(ch) => {
                if state.member.insert(ch) {
                    self.send_receiver_join(ch, true, ctx);
                    ctx.set_timer(ReuniteTimer::JoinRefresh(ch), self.timing.tree_period);
                }
            }
            Cmd::Leave(ch) => {
                if state.member.remove(&ch) {
                    ctx.cancel_timer(&ReuniteTimer::JoinRefresh(ch));
                }
            }
            Cmd::SendData { ch, tag } => {
                assert_eq!(ctx.node, ch.source, "SendData must run at the source");
                self.source_send_data(state, ch, tag, ctx);
            }
        }
    }
}
