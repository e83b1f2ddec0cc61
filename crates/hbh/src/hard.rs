//! The hard-state HBH variant: the soft engine's tree-construction rules
//! (join interception, branching-point discovery, fusion) re-derived on
//! top of the reliable control layer of `hbh_proto_base::reliable`.
//!
//! Where the soft engine re-asserts everything every refresh period and
//! lets t1/t2 decay repair damage, this engine keeps **hard** MCT/MFT
//! state: every control message is sequenced, acknowledged and
//! retransmitted with capped exponential backoff, so a table entry exists
//! exactly until an explicit event removes it. Repairs are event-driven:
//!
//! * **Failure detection.** Every node probes its *parent* (the node that
//!   currently serves it data — learned from the self-addressed tree
//!   messages) every `probe_period`. A probe whose retransmission budget
//!   is exhausted declares the parent down; the prober purges it locally
//!   and immediately re-joins toward the source, carrying the failed node
//!   as a hint so every router on the join path (and the source) purges
//!   it too and un-marks any entries the dead node was covering.
//! * **Graceful degradation.** On a merely lossy link, duplicates are
//!   suppressed per `(origin, seq)` and retransmissions back off toward
//!   `rto_cap`; a spurious give-up only costs a re-join that converges
//!   back to the same tree — the cadence degrades to soft-state-style
//!   probing rather than oscillating.
//! * **Bidirectional liveness from one probe stream.** The same probes
//!   feed a *deadman* check on the serving side: a branching node expects
//!   each directly-served child to probe it, and a child silent for longer
//!   than the probe period plus the full retransmission ladder is removed
//!   (its covered entries are un-marked and re-served directly). Parent
//!   death is thus caught by the children's give-ups and child death by
//!   the parent's deadman — no extra message types.
//! * **No periodic refresh.** Tree messages are emitted only when a
//!   table changes (a new entry, an un-marked entry, a promoted branching
//!   node), so a quiescent tree exchanges only probes and ACKs.
//!
//! The per-message rules intentionally mirror the soft engine's Figure 9
//! structure — same interception rule, same rule-8 promotion, same fusion
//! rules (2)–(4) — so that differences measured by the churn experiment
//! are attributable to the state model, not to a different tree shape.
//! One completion is the hard table's alone: it ignores a fusion whose
//! claim a data-reachable sender already covers
//! ([`HardMft::covered_by_other`]).

use crate::claims::{ClaimTable, NEVER};
use hbh_proto_base::reliable::{ReliableConfig, ReliableState, RtxVerdict};
use hbh_proto_base::{Channel, Cmd, Timing};
use hbh_sim_core::{Ctx, Packet, Protocol, Time};
use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;

/// Reliable control payloads: the sequenced half of [`HardMsg`]. These are
/// what the reliable layer stores for retransmission, so they carry no
/// sequence numbers themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HardCtl {
    /// `join(S, R)` toward the source; intercepted like the soft join.
    /// `failed` carries a detected-dead node so every router on the join
    /// path purges it (the "re-join with a hint" repair).
    Join {
        /// The channel being joined.
        ch: Channel,
        /// The joining entity (receiver or branching router).
        who: NodeId,
        /// A neighbor `who` has declared down, if this is a repair join.
        failed: Option<NodeId>,
    },
    /// Explicit departure of `who` (hard state has no decay to rely on).
    /// Unlike joins, leaves are NOT intercepted: under asymmetric routing
    /// the up-path may miss the router actually serving `who`, and a
    /// swallowed leave would strand marked entries upstream. Every hop on
    /// the way removes its `who` state and forwards; the source consumes.
    Leave {
        /// The channel being left.
        ch: Channel,
        /// The departing entity.
        who: NodeId,
    },
    /// Downstream teardown, sent by the source toward a departed `who`
    /// along the *data* path: clears tree state (MCT entries, stale MFT
    /// rows) that the up-path leave could not reach when unicast routing
    /// is asymmetric. Consumed (and simply acknowledged) by `who`.
    Prune {
        /// The channel concerned.
        ch: Channel,
        /// The departed node whose tree state is being retired.
        who: NodeId,
    },
    /// `tree(S, R)` toward `target`, emitted only on table changes.
    Tree {
        /// The channel concerned.
        ch: Channel,
        /// The node this tree message is addressed to.
        target: NodeId,
    },
    /// `fusion(S, R₁…Rₙ)` from `from`, addressed to the emitter whose
    /// tree messages it answers.
    Fusion {
        /// The channel concerned.
        ch: Channel,
        /// The candidate branching node announcing itself.
        from: NodeId,
        /// Every node of the sender's MFT.
        nodes: Vec<NodeId>,
    },
    /// Parent-liveness probe from `who`; the consumer ACKs with `known`
    /// reporting whether it still serves `who` data.
    Probe {
        /// The channel concerned.
        ch: Channel,
        /// The probing child.
        who: NodeId,
    },
}

impl HardCtl {
    /// The channel this control message belongs to.
    pub fn channel(&self) -> Channel {
        match self {
            HardCtl::Join { ch, .. }
            | HardCtl::Leave { ch, .. }
            | HardCtl::Prune { ch, .. }
            | HardCtl::Tree { ch, .. }
            | HardCtl::Fusion { ch, .. }
            | HardCtl::Probe { ch, .. } => *ch,
        }
    }
}

/// Hard-HBH packet payloads: sequenced control, ACKs, and channel data
/// (data stays unreliable — the tree, not the transport, is what's hard).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HardMsg {
    /// A sequenced control message from `origin`.
    Ctl {
        /// The node that sealed this message (owns the sequence space).
        origin: NodeId,
        /// Sequence number within `origin`'s space.
        seq: u64,
        /// The control payload.
        ctl: HardCtl,
    },
    /// Acknowledgement for `(origin, seq)`, sent by the node that consumed
    /// the message (possibly an interceptor, not the addressee).
    Ack {
        /// The origin being acknowledged (the packet's destination).
        origin: NodeId,
        /// The sequence number being acknowledged.
        seq: u64,
        /// The node that consumed the message.
        by: NodeId,
        /// For probes: does the consumer still serve the prober data?
        /// `false` tells the prober its parent lost the serving state
        /// (e.g. rebooted blank) and it must re-join immediately.
        known: bool,
        /// For probes answered `known = false` because the prober's entry
        /// is *marked*: the covering node this consumer believes actually
        /// serves the prober. The prober re-homes there directly instead
        /// of rejoining — hard state has no decay, so the rejoin path
        /// (intercept → unmark → coverer re-marks by fusion) would
        /// oscillate forever.
        server: Option<NodeId>,
    },
    /// Channel data, addressed to the next branching node (or receiver).
    Data {
        /// The channel the payload belongs to.
        ch: Channel,
    },
}

/// Node-local timers of the hard engine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HardTimer {
    /// Retransmission check for one sealed sequence number.
    Rtx(u64),
    /// Periodic parent-liveness probe.
    Probe(Channel),
    /// Periodic deadman sweep over directly-served children (branching
    /// nodes and the source): a child whose probes stopped is declared
    /// dead and its covered entries are re-served.
    ChildCheck(Channel),
    /// Retry a given-up join after a cool-down (source unreachable).
    Rejoin(Channel),
}

/// Hard Multicast Forwarding Table: insertion-ordered entries that live
/// until explicitly removed — no timers, no phases, just the mark and the
/// fusion coverage claim (see the nested-fusion note in [`crate::tables`]).
/// Marked entries forward no data; they are served through a covering
/// branching node. The same `ClaimTable` as the soft MFT, with entries
/// that never expire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HardMft {
    core: ClaimTable,
}

/// The hard table has no clock: any instant will do.
const NOW: Time = Time::ZERO;

impl HardMft {
    /// Is `n` in the table?
    pub fn contains(&self, n: NodeId) -> bool {
        self.core.contains(n, NOW)
    }

    /// Is `n` present and marked (served through a coverer)?
    pub fn is_marked(&self, n: NodeId) -> bool {
        self.core.is_marked(n, NOW)
    }

    /// Inserts `n` unmarked; returns `true` if it was absent.
    pub fn insert(&mut self, n: NodeId) -> bool {
        if self.contains(n) {
            return false;
        }
        self.core.insert(n, NEVER, NEVER);
        true
    }

    /// Removes `n`; returns `true` if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        self.core.remove(n)
    }

    /// Marks `n`; returns `true` if newly marked.
    pub fn mark(&mut self, n: NodeId) -> bool {
        self.core.set_mark(n, true, NOW)
    }

    /// Clears `n`'s mark; returns `true` if it was marked.
    pub fn unmark(&mut self, n: NodeId) -> bool {
        self.core.set_mark(n, false, NOW)
    }

    /// Does a data-reachable entry other than `n` claim `n` in its
    /// coverage — i.e. is `n`'s mark still backed by a working server?
    pub fn served_by_other(&mut self, n: NodeId) -> bool {
        self.server_of(n).is_some()
    }

    /// The data-reachable entry (other than `n`) whose coverage claims
    /// `n`, if any — the node this table believes actually serves `n`.
    /// Probe redirects hand this to a prober whose entry is marked.
    pub fn server_of(&mut self, n: NodeId) -> Option<NodeId> {
        self.core.server_of(n, NOW)
    }

    /// Is `nodes` contained in the coverage of a data-reachable entry
    /// other than `sender`? [`Self::fusion`] then ignores the fusion: the
    /// hard table's nested-fusion veto, which the soft table does not
    /// have (see the nested-fusion note in [`crate::tables`]).
    pub fn covered_by_other(&mut self, nodes: &[NodeId], sender: NodeId) -> bool {
        self.core.covers(sender, nodes, NOW)
    }

    /// Installs/updates the fusion sender `bp` claiming `covers`. Returns
    /// `true` on any change. The claim is compared as a list, order and
    /// all: a re-ordered one counts as a change, exactly as it always has.
    pub fn install_fusion_sender(&mut self, bp: NodeId, covers: &[NodeId]) -> bool {
        let (fresh, reclaimed) = self.core.install(bp, covers, NOW, (NEVER, NEVER));
        fresh || reclaimed
    }

    /// Everything a fusion from `from` listing `nodes` does to the table
    /// it is addressed to: `(changed, serve_from)` — whether anything
    /// moved, and whether `from` is now newly served directly and needs a
    /// tree message.
    pub fn fusion(&mut self, from: NodeId, nodes: &[NodeId]) -> (bool, bool) {
        if self.covered_by_other(nodes, from) {
            return (false, false); // the nested-fusion veto: already served through a coverer
        }
        let Some(newly_marked) = self.core.mark_listed(nodes, Some(from), NOW) else {
            return (false, false); // stale fusion that outlived the entries it names
        };
        let had_from = self.contains(from);
        let was_marked = self.is_marked(from);
        let mut changed = newly_marked > 0;
        changed |= self.install_fusion_sender(from, nodes);
        // The accepted sender must itself be data-eligible, unless a
        // reachable chain already serves it (coverage nests).
        if self.is_marked(from) && !self.served_by_other(from) {
            self.unmark(from);
            changed = true;
        }
        (changed, !had_from || (was_marked && !self.is_marked(from)))
    }

    /// Un-marks every entry whose coverer chain no longer delivers data;
    /// returns the newly un-marked nodes (they need a tree message — they
    /// are served directly again). Earlier un-marks can restore a later
    /// entry's chain, so each entry is re-checked against the current
    /// table.
    pub fn unmark_orphans(&mut self) -> Vec<NodeId> {
        let marked: Vec<NodeId> = self
            .core
            .live(NOW)
            .filter(|e| e.marked)
            .map(|e| e.node)
            .collect();
        let mut orphans = Vec::new();
        for n in marked {
            if !self.served_by_other(n) {
                self.unmark(n);
                orphans.push(n);
            }
        }
        orphans
    }

    /// Data fan-out set: unmarked entries (also the tree fan-out set —
    /// hard trees mean "I serve you", so only direct children get them).
    pub fn data_targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core.live(NOW).filter(|e| !e.marked).map(|e| e.node)
    }

    /// All entries (fusion payloads).
    pub fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core.live(NOW).map(|e| e.node)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Approximate byte footprint: per entry a node id, the mark, and the
    /// coverage claim (as its sender listed it).
    pub fn approx_bytes(&self) -> usize {
        let entries = self.core.live(NOW);
        entries.map(|e| 5 + 4 * e.raw_claim().len()).sum()
    }
}

/// `nodes` (drawn from `mft`) as a list allocated once, at the table's
/// width: collecting a filtered iterator would grow it by doubling.
fn at_width(mft: &HardMft, nodes: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut list = Vec::with_capacity(mft.len());
    list.extend(nodes);
    list
}

/// The hard-state HBH protocol (configuration; per-node state in
/// [`HardNodeState`]).
#[derive(Clone, Debug)]
pub struct HbhHard {
    /// Shared timing base (kept so scenarios schedule both variants with
    /// the same constants; only `tree_period` is consulted, to derive the
    /// probe cadence).
    pub timing: Timing,
    /// Parent-liveness probe period.
    pub probe_period: u64,
    /// Retransmission policy for all sequenced control messages.
    pub reliable: ReliableConfig,
}

impl HbhHard {
    /// A hard-HBH instance derived from the soft variant's timing: probes
    /// run at half the tree period and the retransmission budget is sized
    /// so failure detection completes within three tree periods — well
    /// under the soft engine's t2 decay.
    pub fn new(timing: Timing) -> Self {
        timing.validate();
        let probe_period = (timing.tree_period / 2).max(1);
        // The RTO only needs to cover a probe's one-hop round trip (link
        // delays are single digits at the experiment scale), not the probe
        // cadence — a tight ladder is what buys sub-soft-state repair:
        // worst-case detection is one probe period for the next probe to
        // come due plus `detection_bound` (rto + capped backoff) for the
        // ladder to exhaust, comfortably inside soft state's t2 decay.
        let reliable = ReliableConfig {
            rto: (timing.tree_period / 4).max(1),
            rto_cap: (timing.tree_period / 2).max(1),
            max_attempts: 3,
        };
        HbhHard {
            timing,
            probe_period,
            reliable,
        }
    }

    /// Full control over the probe cadence and retransmission policy
    /// (lossy-link tests crank `max_attempts` up so every message survives
    /// heavy Bernoulli loss).
    pub fn with_reliable(timing: Timing, probe_period: u64, reliable: ReliableConfig) -> Self {
        timing.validate();
        assert!(probe_period > 0 && reliable.rto > 0 && reliable.max_attempts > 0);
        HbhHard {
            timing,
            probe_period,
            reliable,
        }
    }
}

/// Per-node hard-HBH state.
#[derive(Clone, Default, PartialEq)]
pub struct HardNodeState {
    /// Non-branching tree routers: the single node whose tree messages
    /// flow through here (no timers — replaced or removed by events).
    mct: FastMap<Channel, NodeId>,
    mft: FastMap<Channel, HardMft>,
    /// Receiver-agent subscriptions.
    member: FastSet<Channel>,
    /// The node currently serving us data (learned from self-addressed
    /// tree messages and join ACKs); the probe target.
    parent: FastMap<Channel, NodeId>,
    /// Channels with an armed probe timer.
    probe_armed: FastSet<Channel>,
    /// Channels with a probe currently awaiting its ACK (one in flight at
    /// a time keeps give-up semantics crisp).
    probe_inflight: FastSet<Channel>,
    /// Channels with a self-prune leave in flight (suppresses one leave
    /// per stray data packet).
    pruning: FastSet<Channel>,
    /// Per channel: the redirect targets followed since the last
    /// `known = true` confirmation. Coverage nests, so a probe redirect
    /// may legitimately chain several hops down to the true server; the
    /// trail detects a *repeated* target — mutually inconsistent claims
    /// chasing the node in circles — and drops to the join path instead.
    redirect_trail: FastMap<Channel, Vec<NodeId>>,
    /// Last probe heard from each directly-served child (deadman input).
    /// A missing key means "not yet expected" — the sweep stamps it with
    /// the current time on first sight, granting a full grace period.
    child_seen: FastMap<(Channel, NodeId), Time>,
    /// Channels with an armed child-check sweep.
    check_armed: FastSet<Channel>,
    /// The reliable-delivery state machine for [`HardCtl`] messages.
    rel: ReliableState<HardCtl>,
}

impl HardNodeState {
    /// This node's MCT entry for `ch`, if any.
    pub fn mct(&self, ch: Channel) -> Option<NodeId> {
        self.mct.get(&ch).copied()
    }

    /// This node's MFT for `ch`, if any.
    pub fn mft(&self, ch: Channel) -> Option<&HardMft> {
        self.mft.get(&ch)
    }

    /// Is this node currently a branching node for `ch`?
    pub fn is_branching(&self, ch: Channel) -> bool {
        self.mft.contains_key(&ch)
    }

    /// The node currently serving this one data for `ch`.
    pub fn parent(&self, ch: Channel) -> Option<NodeId> {
        self.parent.get(&ch).copied()
    }

    /// The reliable-layer state (tests inspect its ledger).
    pub fn reliable(&self) -> &ReliableState<HardCtl> {
        &self.rel
    }
}

/// Never repeats: the reliable layer stamps every control message with
/// the next number of a counter that only grows, and the messages carry
/// it, so no window's packets equal the last one's. Hard runs are
/// dispatched event by event.
impl hbh_sim_core::SteadyState for HardNodeState {
    const MAY_REPEAT: bool = false;

    fn advance(&mut self, _: u64) {
        unreachable!("a state that never repeats is never advanced")
    }
}

impl hbh_proto_base::StateInventory for HardNodeState {
    fn forwarding_entries(&self, ch: Channel) -> usize {
        self.mft.get(&ch).map_or(0, |m| m.len())
    }

    fn control_entries(&self, ch: Channel) -> usize {
        usize::from(self.mct.contains_key(&ch)) + usize::from(self.parent.contains_key(&ch))
    }

    fn state_bytes(&self, ch: Channel) -> usize {
        // Charge the real entry shapes plus the reliable layer's
        // bookkeeping (channel-agnostic, but the studies run one channel),
        // so the soft/hard footprint comparison is honest.
        let mft = self.mft.get(&ch).map_or(0, |m| m.approx_bytes());
        mft + 8 * self.control_entries(ch) + self.rel.state_bytes()
    }

    fn reliable_stats(&self) -> Option<hbh_proto_base::ReliableStats> {
        Some(self.rel.stats)
    }
}

type XCtx<'a> = Ctx<'a, HardMsg, HardTimer>;

impl HbhHard {
    /// Seals `ctl` for `dst`, sends it, and arms its retransmission timer.
    fn send_ctl(&self, st: &mut HardNodeState, dst: NodeId, ctl: HardCtl, ctx: &mut XCtx<'_>) {
        if dst == ctx.node {
            return;
        }
        let seq = st.rel.seal(dst, ctl.clone());
        let pkt = Packet::control(
            ctx.node,
            dst,
            HardMsg::Ctl {
                origin: ctx.node,
                seq,
                ctl,
            },
        );
        ctx.send(pkt);
        ctx.set_timer(HardTimer::Rtx(seq), self.reliable.rto);
    }

    fn send_ack(
        &self,
        origin: NodeId,
        seq: u64,
        known: bool,
        server: Option<NodeId>,
        ctx: &mut XCtx<'_>,
    ) {
        if origin == ctx.node {
            return;
        }
        let pkt = Packet::control(
            ctx.node,
            origin,
            HardMsg::Ack {
                origin,
                seq,
                by: ctx.node,
                known,
                server,
            },
        );
        ctx.send(pkt);
    }

    /// Emits a tree message to each listed node: "you are served by me".
    fn fan_trees(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        targets: &[NodeId],
        ctx: &mut XCtx<'_>,
    ) {
        for &t in targets {
            if t != ctx.node {
                self.send_ctl(st, t, HardCtl::Tree { ch, target: t }, ctx);
            }
        }
    }

    /// Silence horizon after which a directly-served child is declared
    /// dead: one probe period for the next probe to become due, the full
    /// retransmission ladder for it to get through, and one more period
    /// of slack so a merely lossy child is never reaped spuriously.
    fn deadman(&self) -> u64 {
        2 * self.probe_period + self.reliable.detection_bound()
    }

    /// Arms the periodic deadman sweep at a node that just became a
    /// branching node (or the source).
    fn arm_child_check(&self, st: &mut HardNodeState, ch: Channel, ctx: &mut XCtx<'_>) {
        if st.check_armed.insert(ch) {
            ctx.set_timer(HardTimer::ChildCheck(ch), self.probe_period);
        }
    }

    fn arm_probe(&self, st: &mut HardNodeState, ch: Channel, ctx: &mut XCtx<'_>) {
        if ch.source == ctx.node {
            return;
        }
        if st.probe_armed.insert(ch) {
            ctx.set_timer(HardTimer::Probe(ch), self.probe_period);
        }
    }

    fn disarm_probe(&self, st: &mut HardNodeState, ch: Channel, ctx: &mut XCtx<'_>) {
        st.probe_inflight.remove(&ch);
        st.redirect_trail.remove(&ch);
        if st.probe_armed.remove(&ch) {
            ctx.cancel_timer(&HardTimer::Probe(ch));
        }
    }

    /// Adopts `parent` as this node's data server and starts probing it.
    fn learn_parent(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        parent: NodeId,
        ctx: &mut XCtx<'_>,
    ) {
        if parent == ctx.node {
            return;
        }
        st.parent.insert(ch, parent);
        self.arm_probe(st, ch, ctx);
    }

    /// Announces to `to` that this node serves everything in its MFT.
    fn send_fusion(&self, st: &mut HardNodeState, ch: Channel, to: NodeId, ctx: &mut XCtx<'_>) {
        let nodes = st
            .mft
            .get(&ch)
            .map_or_else(Vec::new, |m| at_width(m, m.live()));
        let from = ctx.node;
        self.send_ctl(st, to, HardCtl::Fusion { ch, from, nodes }, ctx);
    }

    /// Asks the source to stop serving this node on `ch` — once; further
    /// calls do nothing until that leave is acknowledged or given up.
    fn self_prune(&self, st: &mut HardNodeState, ch: Channel, ctx: &mut XCtx<'_>) {
        if st.pruning.insert(ch) {
            self.send_ctl(st, ch.source, HardCtl::Leave { ch, who: ctx.node }, ctx);
        }
    }

    /// Removes `node` from the MFT, un-marks entries its coverage was
    /// keeping marked, fans trees to them, and — if the table empties —
    /// stops being a branching node (telling upstream so).
    ///
    /// `prune` sends a [`HardCtl::Prune`] toward the removed node so the
    /// routers on its *data* path retire their MCT/MFT state too: under
    /// asymmetric unicast routing the up-path leave never visits them.
    /// Pass `prune = false` for death-driven removals — a dead node is
    /// not worth messaging, and its data path is repaired by the repair
    /// joins of its survivors instead.
    fn remove_from_mft(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        node: NodeId,
        prune: bool,
        ctx: &mut XCtx<'_>,
    ) {
        let Some(mft) = st.mft.get_mut(&ch) else {
            return;
        };
        if !mft.remove(node) {
            return;
        }
        ctx.structural_change();
        if prune && node != ctx.node {
            self.send_ctl(st, node, HardCtl::Prune { ch, who: node }, ctx);
        }
        let mft = st.mft.get_mut(&ch).expect("entry still present");
        let orphans = mft.unmark_orphans();
        if mft.is_empty() {
            st.mft.remove(&ch);
            if !st.member.contains(&ch) {
                st.parent.remove(&ch);
                self.disarm_probe(st, ch, ctx);
                if ctx.node != ch.source {
                    self.send_ctl(st, ch.source, HardCtl::Leave { ch, who: ctx.node }, ctx);
                }
            }
        } else if !orphans.is_empty() {
            ctx.structural_change();
            self.fan_trees(st, ch, &orphans, ctx);
        }
    }

    /// Purges a detected-dead node from every local table.
    fn purge_node(&self, st: &mut HardNodeState, ch: Channel, dead: NodeId, ctx: &mut XCtx<'_>) {
        if st.mct.get(&ch) == Some(&dead) {
            st.mct.remove(&ch);
            ctx.structural_change();
        }
        self.remove_from_mft(st, ch, dead, false, ctx);
        if st.parent.get(&ch) == Some(&dead) {
            st.parent.remove(&ch);
        }
    }

    /// Sends a (repair) join toward the source if this node still wants
    /// data for `ch` — as a member, or on behalf of its MFT subtree.
    fn rejoin(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        failed: Option<NodeId>,
        ctx: &mut XCtx<'_>,
    ) {
        if ch.source == ctx.node {
            return;
        }
        if !(st.member.contains(&ch) || st.mft.contains_key(&ch)) {
            return;
        }
        self.send_ctl(
            st,
            ch.source,
            HardCtl::Join {
                ch,
                who: ctx.node,
                failed,
            },
            ctx,
        );
    }

    /// A probe's retransmission budget ran out: the parent is declared
    /// down, purged locally, and a repair join carries the hint upstream.
    fn parent_down(&self, st: &mut HardNodeState, ch: Channel, dead: NodeId, ctx: &mut XCtx<'_>) {
        self.purge_node(st, ch, dead, ctx);
        self.rejoin(st, ch, Some(dead), ctx);
    }

    // --- consumers -------------------------------------------------------

    fn join_at_source(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        who: NodeId,
        failed: Option<NodeId>,
        ctx: &mut XCtx<'_>,
    ) {
        if let Some(dead) = failed {
            if dead != who {
                self.purge_node(st, ch, dead, ctx);
            }
        }
        let mft = st.mft.entry(ch).or_default();
        let mut fan = Vec::new();
        if mft.insert(who) {
            ctx.structural_change();
            fan.push(who);
        } else if mft.unmark(who) {
            // Trust the joiner: a hard-state join is only ever sent by a
            // node whose service broke, and the coverage claim backing the
            // mark cannot be validated locally — serve directly and let a
            // live coverer re-assert itself by fusion.
            ctx.structural_change();
            fan.push(who);
        }
        self.fan_trees(st, ch, &fan, ctx);
        self.arm_child_check(st, ch, ctx);
    }

    /// Join interception (the soft rule 3): the first router whose MFT
    /// holds `who` consumes the join. Re-validates `who`'s mark like the
    /// soft engine's join-time repair; no upstream join is needed — this
    /// router's own parent probes cover the upstream liveness.
    fn join_intercepted(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        who: NodeId,
        failed: Option<NodeId>,
        ctx: &mut XCtx<'_>,
    ) {
        if let Some(dead) = failed {
            if dead != who {
                self.purge_node(st, ch, dead, ctx);
            }
        }
        let Some(mft) = st.mft.get_mut(&ch) else {
            return;
        };
        // Trust the joiner (see `join_at_source`): unmark unconditionally.
        if mft.unmark(who) {
            ctx.structural_change();
            self.fan_trees(st, ch, &[who], ctx);
        }
    }

    fn tree_at_target(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        emitter: NodeId,
        ctx: &mut XCtx<'_>,
    ) {
        let is_host = ctx.net().graph().is_host(ctx.node);
        if is_host && !st.member.contains(&ch) {
            // Stale server state points at a departed receiver: prune.
            self.self_prune(st, ch, ctx);
            return;
        }
        self.learn_parent(st, ch, emitter, ctx);
    }

    fn tree_in_transit(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        target: NodeId,
        emitter: NodeId,
        ctx: &mut XCtx<'_>,
    ) {
        if let Some(mft) = st.mft.get_mut(&ch) {
            // Rules (2)/(3): adopt a new target, and ALWAYS announce the
            // coverage upstream. The transit itself proves the emitter
            // believes it serves `target`, so even for a known target the
            // fusion must be re-sent — it is the only hard-state mechanism
            // that stops an upstream node from serving our subtree in
            // parallel (soft state gets this for free from periodic
            // refresh fusions).
            let fresh = mft.insert(target);
            if fresh {
                ctx.structural_change();
            }
            self.send_fusion(st, ch, emitter, ctx);
            if fresh {
                self.fan_trees(st, ch, &[target], ctx);
            }
            // A branching node without an upstream liveness contract is a
            // deadman casualty waiting to happen; the transit proves the
            // emitter serves us.
            if ctx.node != ch.source && !st.parent.contains_key(&ch) {
                self.learn_parent(st, ch, emitter, ctx);
            }
            return;
        }
        match st.mct.get(&ch).copied() {
            // Rule (4): first contact with this channel ⇒ create the MCT.
            None => {
                st.mct.insert(ch, target);
                ctx.structural_change();
            }
            // Rules (5)/(6): same node ⇒ nothing to refresh.
            Some(first) if first == target => {}
            // Rule (8): two targets flow through this router ⇒ become a
            // branching node and announce it upstream. (Rule (7)'s stale
            // overwrite has no hard-state analogue: an MCT entry is either
            // current or already purged.)
            Some(first) => {
                st.mct.remove(&ch);
                let mut mft = HardMft::default();
                mft.insert(first);
                mft.insert(target);
                st.mft.insert(ch, mft);
                ctx.structural_change();
                self.send_fusion(st, ch, emitter, ctx);
                self.fan_trees(st, ch, &[first, target], ctx);
                self.arm_child_check(st, ch, ctx);
                // A passively elected branching node must probe upstream
                // like any other child, or the emitter's deadman reaps it
                // and the branch oscillates (reap → re-fan → re-elect).
                if ctx.node != ch.source {
                    self.learn_parent(st, ch, emitter, ctx);
                }
            }
        }
    }

    fn fusion_at_node(
        &self,
        st: &mut HardNodeState,
        ch: Channel,
        from: NodeId,
        nodes: &[NodeId],
        ctx: &mut XCtx<'_>,
    ) {
        let Some(mft) = st.mft.get_mut(&ch) else {
            return; // not a branching node (state purged mid-flight)
        };
        let (changed, serve_from) = mft.fusion(from, nodes);
        if changed {
            ctx.structural_change();
        }
        if serve_from {
            self.fan_trees(st, ch, &[from], ctx);
        }
    }

    /// A leave reaching its final consumer — the source. Everything on
    /// the up-path already cleaned itself in transit; the source removes
    /// its own entry and prunes the departed node's *data* path, which
    /// the up-path may never have visited (asymmetric routing).
    fn leave_at_node(&self, st: &mut HardNodeState, ch: Channel, who: NodeId, ctx: &mut XCtx<'_>) {
        self.remove_from_mft(st, ch, who, true, ctx);
    }

    /// Consumes a sequenced control message addressed to (or intercepted
    /// at) this node: dedup, process on fresh, always ACK.
    fn consume_ctl(
        &self,
        st: &mut HardNodeState,
        origin: NodeId,
        seq: u64,
        ctl: HardCtl,
        ctx: &mut XCtx<'_>,
    ) {
        let fresh = st.rel.consume(origin, seq);
        let mut server = None;
        let known = match &ctl {
            // `known` reports "I serve you data": present and unmarked. A
            // marked entry honestly answers `false` — the mark means a
            // deeper coverer serves the prober, so a probe landing here
            // says the prober missed (or lost the race against stale
            // in-flight trees for) its handoff. The ACK names that
            // coverer so the prober re-homes there directly: sending it
            // back through the join path would *unmark* it here ("trust
            // the joiner") only for the coverer's next fusion to re-mark
            // it, and with no soft-state decay to break the tie the
            // probe/rejoin cycle would spin forever. Every probe, fresh
            // or retransmitted, feeds the deadman stamp.
            HardCtl::Probe { ch, who } => {
                let mft = st.mft.get_mut(ch);
                let serving = mft
                    .as_deref()
                    .is_some_and(|m| m.contains(*who) && !m.is_marked(*who));
                if serving {
                    st.child_seen.insert((*ch, *who), ctx.now());
                } else if let Some(m) = mft {
                    if m.is_marked(*who) {
                        server = m.server_of(*who);
                    }
                }
                serving
            }
            _ => true,
        };
        if fresh {
            match ctl {
                HardCtl::Join { ch, who, failed } => {
                    if ctx.node == ch.source {
                        self.join_at_source(st, ch, who, failed, ctx);
                    } else {
                        self.join_intercepted(st, ch, who, failed, ctx);
                    }
                }
                HardCtl::Leave { ch, who } => self.leave_at_node(st, ch, who, ctx),
                // A prune landing on its addressee is pure acknowledgement
                // territory — the work happened at the routers in transit.
                HardCtl::Prune { .. } => {}
                HardCtl::Tree { ch, .. } => self.tree_at_target(st, ch, origin, ctx),
                HardCtl::Fusion { ch, from, nodes } => {
                    self.fusion_at_node(st, ch, from, &nodes, ctx)
                }
                HardCtl::Probe { .. } => {}
            }
        }
        self.send_ack(origin, seq, known, server, ctx);
    }

    /// Handles a sequenced control message not addressed to this node:
    /// transit processing (tree rules, join purge hints), interception
    /// (joins/leaves for owned entries), else forward.
    fn transit_ctl(
        &self,
        st: &mut HardNodeState,
        pkt: Packet<HardMsg>,
        origin: NodeId,
        seq: u64,
        ctx: &mut XCtx<'_>,
    ) {
        let HardMsg::Ctl { ref ctl, .. } = pkt.payload else {
            unreachable!("caller matched Ctl");
        };
        match ctl {
            HardCtl::Join { ch, who, failed } => {
                let (ch, who, failed) = (*ch, *who, *failed);
                // Interception rule (3): the first router holding `who`
                // consumes the join (the kernel only hands routers
                // self-addressed or forwardable packets, so a host never
                // gets here).
                if st.mft.get(&ch).is_some_and(|m| m.contains(who)) {
                    self.consume_ctl(st, origin, seq, HardCtl::Join { ch, who, failed }, ctx);
                    return;
                }
                // Not ours: spread the purge hint while forwarding.
                if st.rel.observe(origin, seq) {
                    if let Some(dead) = failed {
                        self.purge_node(st, ch, dead, ctx);
                    }
                }
                ctx.forward(pkt);
            }
            HardCtl::Leave { ch, who } | HardCtl::Prune { ch, who } => {
                let (ch, who) = (*ch, *who);
                // Leaves are deliberately NOT intercepted. Hard state never
                // decays, so every router that ever recorded `who` — the
                // direct server, upstream nodes holding it *marked*, MCT
                // entries on the way — must hear the departure, or the
                // stale entry later resurrects the branch (an unmark
                // cascade fans trees to a ghost). Each hop on the up-path
                // cleans its own tables once and forwards; the source
                // consumes and handles the down-path with a prune, which
                // retires the same state along the departed node's data
                // path — the half of the route an asymmetric up-path leave
                // cannot reach.
                if st.rel.observe(origin, seq) {
                    if st.mct.get(&ch) == Some(&who) {
                        st.mct.remove(&ch);
                        ctx.structural_change();
                    }
                    self.remove_from_mft(st, ch, who, false, ctx);
                }
                ctx.forward(pkt);
            }
            HardCtl::Tree { ch, target } => {
                let (ch, target) = (*ch, *target);
                // Process the branching rules once per (origin, seq);
                // forward regardless (a retransmission must still reach
                // its target even though we already adopted it).
                if st.rel.observe(origin, seq) {
                    self.tree_in_transit(st, ch, target, origin, ctx);
                }
                ctx.forward(pkt);
            }
            // Fusions and probes are consumer-addressed point-to-point.
            HardCtl::Fusion { .. } | HardCtl::Probe { .. } => ctx.forward(pkt),
        }
    }

    /// An ACK settled one of our outstanding messages.
    fn ack_at_origin(
        &self,
        st: &mut HardNodeState,
        seq: u64,
        by: NodeId,
        known: bool,
        server: Option<NodeId>,
        ctx: &mut XCtx<'_>,
    ) {
        let Some(out) = st.rel.on_ack(seq) else {
            return; // duplicate or stray
        };
        ctx.cancel_timer(&HardTimer::Rtx(seq));
        match out.msg {
            HardCtl::Probe { ch, .. } => {
                st.probe_inflight.remove(&ch);
                if known {
                    st.redirect_trail.remove(&ch);
                } else {
                    // The parent answers but no longer serves us directly.
                    if st.parent.get(&ch) == Some(&out.dst) {
                        st.parent.remove(&ch);
                    }
                    // It may have named the coverer backing our mark:
                    // re-home there and probe it next period. Coverage
                    // nests, so the redirect can chain several hops down
                    // to the true server; a *repeated* target means
                    // inconsistent claims are chasing us in a circle, and
                    // no hint at all means the parent genuinely lost us
                    // (e.g. a restarted blank router) — both drop to the
                    // join path.
                    let follow = server.filter(|&srv| {
                        srv != ctx.node
                            && !st
                                .redirect_trail
                                .get(&ch)
                                .is_some_and(|trail| trail.contains(&srv))
                    });
                    match follow {
                        Some(srv) => {
                            st.redirect_trail.entry(ch).or_default().push(srv);
                            self.learn_parent(st, ch, srv, ctx);
                            // Walk the chain at round-trip speed: probe
                            // the new parent now rather than waiting out
                            // a probe period per hop, so a redirect onto
                            // a stale claim is detected (and repaired)
                            // almost as fast as a direct rejoin.
                            if st.probe_inflight.insert(ch) {
                                self.send_ctl(st, srv, HardCtl::Probe { ch, who: ctx.node }, ctx);
                            }
                        }
                        None => {
                            st.redirect_trail.remove(&ch);
                            self.rejoin(st, ch, None, ctx);
                        }
                    }
                }
            }
            HardCtl::Join { ch, .. } => {
                st.redirect_trail.remove(&ch);
                // Whoever consumed the join serves us until a tree message
                // says otherwise.
                self.learn_parent(st, ch, by, ctx);
                // A branching node re-homing after repair must re-assert
                // its coverage, or the new parent would serve its subtree
                // directly alongside it (duplicate copies).
                if st.mft.get(&ch).is_some_and(|mft| !mft.is_empty()) {
                    self.send_fusion(st, ch, by, ctx);
                }
            }
            HardCtl::Leave { ch, .. } => {
                st.pruning.remove(&ch);
            }
            HardCtl::Tree { .. } | HardCtl::Fusion { .. } | HardCtl::Prune { .. } => {}
        }
    }

    /// A sealed message ran out of retransmissions.
    fn give_up(&self, st: &mut HardNodeState, dst: NodeId, msg: HardCtl, ctx: &mut XCtx<'_>) {
        match msg {
            HardCtl::Probe { ch, .. } => {
                st.probe_inflight.remove(&ch);
                self.parent_down(st, ch, dst, ctx);
            }
            HardCtl::Join { ch, .. } => {
                // Source unreachable: degrade to periodic re-join attempts
                // at the probe cadence until the topology heals.
                ctx.set_timer(HardTimer::Rejoin(ch), self.probe_period);
            }
            HardCtl::Tree { ch, target } => {
                // A child that never ACKs across the whole backoff ladder
                // is gone; drop it so the table reflects reality.
                self.remove_from_mft(st, ch, target, false, ctx);
            }
            HardCtl::Leave { ch, .. } => {
                st.pruning.remove(&ch);
            }
            HardCtl::Fusion { .. } | HardCtl::Prune { .. } => {
                // The emitter / prune target vanished; its own children
                // will re-join and rebuild any coverage worth having.
            }
        }
    }

    fn data_at_router(
        &self,
        st: &mut HardNodeState,
        pkt: &Packet<HardMsg>,
        ch: Channel,
        ctx: &mut XCtx<'_>,
    ) {
        let Some(mft) = st.mft.get(&ch) else {
            // Data addressed to a router with no table: upstream state is
            // stale (e.g. we rebooted blank). Tell it to stop.
            if ctx.node != ch.source {
                self.self_prune(st, ch, ctx);
            }
            return;
        };
        let targets = at_width(mft, mft.data_targets());
        for t in targets {
            ctx.send(pkt.copy_to(t));
        }
    }
}

impl Protocol for HbhHard {
    type Msg = HardMsg;
    type Timer = HardTimer;
    type Command = Cmd;
    type NodeState = HardNodeState;

    fn on_packet(&self, state: &mut HardNodeState, pkt: Packet<HardMsg>, ctx: &mut XCtx<'_>) {
        let here = ctx.node;
        match &pkt.payload {
            HardMsg::Data { ch } => {
                let ch = *ch;
                if pkt.dst == here {
                    if ctx.net().graph().is_host(here) {
                        if state.member.contains(&ch) {
                            ctx.deliver(&pkt);
                        } else {
                            // Departed receiver still being served: prune.
                            self.self_prune(state, ch, ctx);
                        }
                    } else {
                        self.data_at_router(state, &pkt, ch, ctx);
                    }
                } else {
                    ctx.forward(pkt);
                }
            }
            HardMsg::Ack {
                seq,
                by,
                known,
                server,
                ..
            } => {
                if pkt.dst != here {
                    ctx.forward(pkt);
                    return;
                }
                let (seq, by, known, server) = (*seq, *by, *known, *server);
                self.ack_at_origin(state, seq, by, known, server, ctx);
            }
            HardMsg::Ctl { origin, seq, .. } => {
                let (origin, seq) = (*origin, *seq);
                if pkt.dst == here {
                    let HardMsg::Ctl { ctl, .. } = pkt.payload else {
                        unreachable!("arm matched above");
                    };
                    self.consume_ctl(state, origin, seq, ctl, ctx);
                } else {
                    self.transit_ctl(state, pkt, origin, seq, ctx);
                }
            }
        }
    }

    fn on_timer(&self, state: &mut HardNodeState, timer: HardTimer, ctx: &mut XCtx<'_>) {
        match timer {
            HardTimer::Rtx(seq) => match state.rel.on_rtx(seq, &self.reliable) {
                RtxVerdict::Resend { dst, msg, delay } => {
                    let pkt = Packet::control(
                        ctx.node,
                        dst,
                        HardMsg::Ctl {
                            origin: ctx.node,
                            seq,
                            ctl: msg,
                        },
                    );
                    ctx.send(pkt);
                    ctx.set_timer(HardTimer::Rtx(seq), delay);
                }
                RtxVerdict::GiveUp { dst, msg } => self.give_up(state, dst, msg, ctx),
                RtxVerdict::Stale => {}
            },
            HardTimer::Probe(ch) => {
                let wants = state.member.contains(&ch) || state.mft.contains_key(&ch);
                if !wants || ch.source == ctx.node {
                    state.probe_armed.remove(&ch);
                    state.probe_inflight.remove(&ch);
                    return;
                }
                if let Some(&parent) = state.parent.get(&ch) {
                    if state.probe_inflight.insert(ch) {
                        self.send_ctl(state, parent, HardCtl::Probe { ch, who: ctx.node }, ctx);
                    }
                }
                ctx.set_timer(HardTimer::Probe(ch), self.probe_period);
            }
            HardTimer::ChildCheck(ch) => {
                let Some(mft) = state.mft.get(&ch) else {
                    state.check_armed.remove(&ch);
                    state.child_seen.retain(|&(c, _), _| c != ch);
                    return;
                };
                let now = ctx.now();
                let horizon = self.deadman();
                let direct = at_width(mft, mft.data_targets());
                let mut dead = Vec::new();
                for child in &direct {
                    match state.child_seen.get(&(ch, *child)) {
                        Some(seen) if now.0.saturating_sub(seen.0) > horizon => {
                            dead.push(*child);
                        }
                        Some(_) => {}
                        // First sweep since this child became directly
                        // served: start its grace period now.
                        None => {
                            state.child_seen.insert((ch, *child), now);
                        }
                    }
                }
                for d in dead {
                    state.child_seen.remove(&(ch, d));
                    self.remove_from_mft(state, ch, d, false, ctx);
                }
                ctx.set_timer(HardTimer::ChildCheck(ch), self.probe_period);
            }
            HardTimer::Rejoin(ch) => {
                if state.parent.contains_key(&ch) {
                    return; // re-homed while the cool-down ran
                }
                self.rejoin(state, ch, None, ctx);
            }
        }
    }

    fn on_command(&self, state: &mut HardNodeState, cmd: Cmd, ctx: &mut XCtx<'_>) {
        match cmd {
            Cmd::StartSource(_) => {
                // Like the soft engine: sources are armed lazily by joins.
            }
            Cmd::Join(ch) => {
                if state.member.insert(ch) {
                    self.send_ctl(
                        state,
                        ch.source,
                        HardCtl::Join {
                            ch,
                            who: ctx.node,
                            failed: None,
                        },
                        ctx,
                    );
                    self.arm_probe(state, ch, ctx);
                }
            }
            Cmd::Leave(ch) => {
                if state.member.remove(&ch) {
                    state.parent.remove(&ch);
                    self.disarm_probe(state, ch, ctx);
                    self.send_ctl(state, ch.source, HardCtl::Leave { ch, who: ctx.node }, ctx);
                }
            }
            Cmd::SendData { ch, tag } => {
                assert_eq!(ctx.node, ch.source, "SendData must run at the source");
                let Some(mft) = state.mft.get(&ch) else {
                    return; // no receivers
                };
                let now = ctx.now();
                let targets = at_width(mft, mft.data_targets());
                for t in targets {
                    let pkt = Packet::data(ctx.node, t, tag, now, HardMsg::Data { ch });
                    ctx.send(pkt);
                }
            }
        }
    }
}
