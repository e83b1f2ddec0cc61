//! The event kernel: dispatches packet arrivals, timer expiries, and
//! experiment commands from the event queue (`queue.rs`) to a [`Protocol`]
//! implementation, and implements [`KernelOps`] for its handlers.
//!
//! ## Dispatch rules
//!
//! For a packet arriving at node `n` (the rule is [`arrival`], which
//! `hbh-live` nodes call too):
//!
//! * `n` runs the protocol (multicast-capable router, or any host): the
//!   protocol's [`Protocol::on_packet`] sees the packet — whether or not it
//!   is addressed to `n`. Observing transit packets is how join
//!   interception and data branching work in HBH/REUNITE. Exception: a
//!   *host* that is not the packet's destination never sees it (hosts do
//!   not transit; such an arrival is a misrouting and is counted as a
//!   drop).
//! * `n` is a unicast-only router: the kernel forwards the packet toward
//!   its destination itself — the transparent-unicast-cloud behaviour the
//!   protocols are designed around. A packet *addressed* to a unicast-only
//!   router is dropped (protocols must never do that; the drop counter
//!   makes such bugs visible).
//!
//! Timers are keyed per `(node, timer-value)`; re-arming replaces the
//! previous instance and cancellation is exact (ids are globally unique, so
//! a stale queue entry can never fire).
//!
//! ## Fast-forward
//!
//! [`Kernel::run_until`] dispatches every event. [`Kernel::fast_forward`]
//! ends in the same place but skips the windows a converged run repeats:
//! it copies the touched node states and the pending events at a window
//! boundary, runs one window, moves the copy one window later
//! ([`SteadyState::advance`]) and compares it with the kernel using `==`.
//! If the window was quiet and the two are equal, it moves the clock, the
//! pending events and every stored time by whole windows and adds their
//! counts to [`Stats`]. Inputs from outside the run (commands, faults,
//! loss, a trace) and on-demand route stores keep it from comparing at
//! all. `DESIGN.md` §6e has the conditions and the argument that the skip
//! is exact.

use crate::ctx::{Ctx, KernelOps};
use crate::fasthash::FastMap;
use crate::fault::FaultEvent;
use crate::network::Network;
use crate::packet::Packet;
use crate::queue::{EventKey, EventKind, EventQueue};
use crate::stats::{Delivery, Stats};
use crate::steady::SteadyState;
use crate::time::Time;
use crate::trace::{Trace, TraceKind};
use hbh_topo::graph::{LinkId, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::hash::Hash;

/// A multicast routing protocol (plus its host agents), as seen by the
/// kernel: per-node state and three event handlers.
///
/// Handlers receive `&self` (protocol-wide immutable configuration such as
/// refresh periods and timer durations), the node's own mutable state, and
/// a [`Ctx`] for actions. Keeping handlers free of access to *other*
/// nodes' state is what makes the simulation faithful: nodes can only
/// communicate through packets.
pub trait Protocol: Sized {
    /// Wire payload carried by packets. Equality lets a fast-forward
    /// compare the packets in flight at two window boundaries.
    type Msg: Clone + Debug + PartialEq;
    /// Timer identity at a node (e.g. "refresh join for channel c").
    type Timer: Clone + Eq + Hash + Debug;
    /// Experiment-injected command (join/leave/send-data).
    type Command: Clone + Debug;
    /// Per-node protocol state (router tables and/or host agent state),
    /// comparable across a window for [`Kernel::fast_forward`].
    type NodeState: Default + SteadyState;

    /// A packet arrived at `ctx.node`.
    fn on_packet(
        &self,
        state: &mut Self::NodeState,
        pkt: Packet<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );

    /// A previously armed timer fired at `ctx.node`.
    fn on_timer(
        &self,
        state: &mut Self::NodeState,
        timer: Self::Timer,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );

    /// An experiment command addressed to `ctx.node` (e.g. "join channel").
    fn on_command(
        &self,
        state: &mut Self::NodeState,
        cmd: Self::Command,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    );
}

/// Why the kernel dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // every variant is documented below or self-named
pub enum DropReason {
    /// TTL reached zero in transit (forwarding loop guard).
    TtlExpired,
    /// No unicast route to the destination.
    NoRoute,
    /// Arrived at a host that is not its destination.
    MisroutedToHost,
    /// Addressed to a unicast-only router.
    AddressedToUnicastRouter,
    /// Dropped by the configured loss model (failure injection).
    InjectedLoss,
    /// Transmitted onto a link that is currently down (fault injection).
    LinkDown,
    /// Arrived at a node that is currently crashed (fault injection).
    NodeDown,
}

/// What a node does with a packet that arrives at it: the module's
/// dispatch rules, as returned by [`arrival`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// The node runs the protocol: its engine sees the packet.
    Engine,
    /// A unicast-only router in transit: forward the packet one hop.
    Transit,
    /// Drop the packet.
    Drop(DropReason),
}

/// How `node` treats an arriving packet addressed to `dst` — the one
/// arrival rule of both runtimes: the kernel's dispatch and each
/// `hbh-live` node call it. A crashed node is the caller's to handle
/// first (the kernel drops with [`DropReason::NodeDown`]; a crashed live
/// node drains its socket).
#[inline]
pub fn arrival(net: &Network, node: NodeId, dst: NodeId) -> Arrival {
    if net.graph().is_host(node) && dst != node {
        Arrival::Drop(DropReason::MisroutedToHost)
    } else if net.runs_protocol(node) {
        Arrival::Engine
    } else if dst == node {
        Arrival::Drop(DropReason::AddressedToUnicastRouter)
    } else {
        Arrival::Transit
    }
}

/// Failure-injection model: every link transmission is independently
/// dropped with the per-class probability. Driven by the kernel's seeded
/// RNG, so lossy runs are exactly reproducible.
///
/// Soft-state protocols are designed to ride out control loss (the next
/// refresh repairs the state); the loss-injection tests verify that HBH,
/// REUNITE and PIM all converge and deliver under heavy control-plane
/// loss.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LossModel {
    /// Drop probability for control packets, in `[0, 1]`.
    pub control: f64,
    /// Drop probability for data packets, in `[0, 1]`.
    pub data: f64,
}

impl LossModel {
    /// Loss on control packets only (the soft-state robustness tests).
    pub fn control_only(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        LossModel {
            control: p,
            data: 0.0,
        }
    }

    fn prob_for(&self, class: crate::packet::PacketClass) -> f64 {
        match class {
            crate::packet::PacketClass::Control => self.control,
            crate::packet::PacketClass::Data => self.data,
        }
    }
}

/// Live fault-injection state, present only once a fault fires or a loss
/// is set. Keeping it behind an `Option<Box<_>>` means a fault-free,
/// loss-free kernel pays one pointer-null check on the transmit/arrival
/// paths and draws no extra randomness — such runs are bit-identical to
/// runs on a kernel that has never heard of faults.
struct FaultState {
    /// `node_down[n]`: node `n` is crashed.
    node_down: Vec<bool>,
    /// `edge_down[e]`: directed edge `e` is down (links fail both
    /// directions at once, so both directed twins are flagged together).
    edge_down: Vec<bool>,
    /// Class-wide Bernoulli loss ([`Kernel::set_loss`]).
    loss: LossModel,
    /// Dense per-directed-edge Bernoulli loss, if any link loss was
    /// configured. Layered on top of `loss`.
    edge_loss: Option<Vec<f64>>,
}

impl FaultState {
    /// Whether a transmission of class `class` over `eid` is lost: the
    /// class-wide draw first, then the link's. A zero probability draws
    /// nothing from `rng`, preserving the RNG stream of loss-free runs.
    fn lose(
        &self,
        class: crate::packet::PacketClass,
        eid: hbh_topo::graph::EdgeId,
        rng: &mut StdRng,
    ) -> bool {
        let link = self.edge_loss.as_ref().map_or(0.0, |l| l[eid.index()]);
        let mut draw = |p: f64| p > 0.0 && rand::RngExt::random::<f64>(&mut *rng) < p;
        draw(self.loss.prob_for(class)) || draw(link)
    }
}

/// Kernel internals shared with protocol handlers through [`Ctx`].
struct Core<M, T, C> {
    net: Network,
    queue: EventQueue<M, T, C>,
    now: Time,
    seq: u64,
    timer_ids: FastMap<(NodeId, T), u64>,
    stats: Stats,
    rng: StdRng,
    /// Times a handler asked for the RNG: a window that drew from it is
    /// never fast-forwarded past.
    rng_reads: u64,
    trace: Trace<M>,
    /// `None` until the first fault or loss — the zero-cost default.
    faults: Option<Box<FaultState>>,
}

impl<M: Clone + Debug, T: Clone + Eq + Hash + Debug, C: Clone + Debug> Core<M, T, C> {
    fn push(&mut self, at: Time, kind: EventKind<M, T, C>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(self.now, at, seq, kind);
    }

    fn drop_packet(&mut self, node: NodeId, pkt: &Packet<M>, reason: DropReason) {
        self.stats.drops += 1;
        if self.trace.active() {
            self.trace.record(
                self.now,
                node,
                TraceKind::Dropped {
                    pkt: pkt.clone(),
                    reason,
                },
            );
        }
    }

    /// Puts `pkt` on the wire at `from`, headed for `pkt.dst` via the
    /// unicast next hop. Counts the link transit and schedules the arrival.
    fn transmit(&mut self, from: NodeId, pkt: Packet<M>) {
        if pkt.dst == from {
            // Local loopback: deliver to self without touching a link.
            if self.trace.active() {
                self.trace
                    .record(self.now, from, TraceKind::Loopback { pkt: pkt.clone() });
            }
            self.push(self.now, EventKind::Arrive { node: from, pkt });
            return;
        }
        let Some((next, eid, cost)) = self.net.hop(from, pkt.dst) else {
            self.drop_packet(from, &pkt, DropReason::NoRoute);
            return;
        };
        self.put_on_edge(from, next, eid, cost, pkt);
    }

    /// Link-local entry point: resolves the edge by one adjacency scan
    /// (per-oif forwarding addresses neighbors directly, so there is no
    /// routing row to read the edge from). Panics if no such link exists —
    /// per-oif state always points at a direct neighbor, so a violation is
    /// a protocol bug.
    fn put_on_link(&mut self, from: NodeId, next: NodeId, pkt: Packet<M>) {
        let (eid, cost) = self
            .net
            .graph()
            .edge_entry(from, next)
            .unwrap_or_else(|| panic!("no link {from}->{next}"));
        self.put_on_edge(from, next, eid, cost, pkt);
    }

    /// Common tail of routed and link-local transmission: loss injection,
    /// accounting, arrival scheduling.
    fn put_on_edge(
        &mut self,
        from: NodeId,
        next: NodeId,
        eid: hbh_topo::graph::EdgeId,
        cost: hbh_topo::graph::Cost,
        pkt: Packet<M>,
    ) {
        let mut lost = false;
        if let Some(f) = &self.faults {
            if f.edge_down[eid.index()] {
                // A down link carries nothing: the copy never occupies it,
                // so no transit is counted.
                self.drop_packet(from, &pkt, DropReason::LinkDown);
                return;
            }
            lost = f.lose(pkt.class, eid, &mut self.rng);
        }
        self.stats
            .count_transit(LinkId::new(from, next), pkt.class, pkt.tag);
        if lost {
            // The copy is counted as transmitted (it did occupy the link)
            // and then lost.
            self.drop_packet(from, &pkt, DropReason::InjectedLoss);
            return;
        }
        if self.trace.active() {
            self.trace.record(
                self.now,
                from,
                TraceKind::Sent {
                    to: next,
                    pkt: pkt.clone(),
                },
            );
        }
        self.push(
            self.now + u64::from(cost),
            EventKind::Arrive { node: next, pkt },
        );
    }

    /// The fault state, allocated on first use (all-up, lossless).
    fn faults(&mut self) -> &mut FaultState {
        let (n, m) = (
            self.net.node_count(),
            self.net.graph().directed_edge_count(),
        );
        self.faults.get_or_insert_with(|| {
            Box::new(FaultState {
                node_down: vec![false; n],
                edge_down: vec![false; m],
                loss: LossModel::default(),
                edge_loss: None,
            })
        })
    }

    /// Both directed edges of the link `a — b`.
    fn link_edges(&self, a: NodeId, b: NodeId) -> [hbh_topo::graph::EdgeId; 2] {
        let g = self.net.graph();
        let (e_ab, _) = g
            .edge_entry(a, b)
            .unwrap_or_else(|| panic!("no link {a}-{b}"));
        let (e_ba, _) = g.edge_entry(b, a).expect("links are bidirectional");
        [e_ab, e_ba]
    }

    /// Marks both directions of the link `a — b` down or up.
    fn set_link(&mut self, a: NodeId, b: NodeId, down: bool) {
        for e in self.link_edges(a, b) {
            self.faults().edge_down[e.index()] = down;
        }
    }

    /// The pending event `key` names, as a window comparison sees it: its
    /// delay from the clock and what it will do.
    fn pending(&self, key: EventKey) -> (u64, Pending<M, T>) {
        let event = match self.queue.body(key) {
            EventKind::Arrive { node, pkt } => Pending::Arrive {
                node: *node,
                pkt: pkt.clone(),
            },
            EventKind::Timer { node, timer, id } => Pending::Timer {
                node: *node,
                timer: timer.clone(),
                live: self.timer_ids.get(&(*node, timer.clone())) == Some(id),
            },
            EventKind::Command { .. } | EventKind::Fault(_) => {
                unreachable!("no window is compared with an input pending")
            }
        };
        (key.0 - self.now, event)
    }

    fn forward(&mut self, at: NodeId, mut pkt: Packet<M>) {
        if !pkt.take_hop() {
            self.drop_packet(at, &pkt, DropReason::TtlExpired);
            return;
        }
        self.transmit(at, pkt);
    }
}

impl<M: Clone + Debug, T: Clone + Eq + Hash + Debug, C: Clone + Debug> KernelOps<M, T>
    for Core<M, T, C>
{
    fn now(&self) -> Time {
        self.now
    }
    fn net(&self) -> &Network {
        &self.net
    }
    fn rng(&mut self) -> &mut StdRng {
        self.rng_reads += 1;
        &mut self.rng
    }
    fn send(&mut self, from: NodeId, pkt: Packet<M>) {
        self.transmit(from, pkt);
    }
    fn send_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>) {
        self.put_on_link(from, via, pkt);
    }
    fn forward(&mut self, from: NodeId, pkt: Packet<M>) {
        Core::forward(self, from, pkt);
    }
    fn deliver(&mut self, node: NodeId, tag: u64, injected_at: Time) {
        self.trace
            .record(self.now, node, TraceKind::Delivered { tag });
        self.stats.deliveries.push(Delivery {
            node,
            at: self.now,
            tag,
            injected_at,
        });
    }
    fn set_timer(&mut self, node: NodeId, timer: T, delay: u64) {
        let id = self.seq; // globally unique, monotonic
        self.timer_ids.insert((node, timer.clone()), id);
        self.push(self.now + delay, EventKind::Timer { node, timer, id });
    }
    fn cancel_timer(&mut self, node: NodeId, timer: &T) {
        self.timer_ids.remove(&(node, timer.clone()));
    }
    fn structural_change(&mut self) {
        let now = self.now;
        self.stats.note_structural_change(now);
    }
    fn tracing(&self) -> bool {
        self.trace.active()
    }
    fn trace_note(&mut self, node: NodeId, note: String) {
        self.trace.record(self.now, node, TraceKind::Note(note));
    }
}

/// `NodeStates::slot` of a node that has not handled an event yet.
const NONE: u32 = u32::MAX;

/// Per-node protocol states, created when a node first handles an event.
///
/// A node that has never run a handler holds the default state, and no
/// handler can tell a default state it was just given from one that sat in
/// a table all run: so storing only the touched nodes is exact, and an
/// untouched node reads as the one shared `blank`.
struct NodeStates<S> {
    /// `slot[n]`: index of node `n`'s state in `packed`, or [`NONE`].
    slot: Vec<u32>,
    /// The states of the touched nodes, in first-touch order.
    packed: Vec<S>,
    /// What an untouched node reads as.
    blank: S,
}

impl<S: Default> NodeStates<S> {
    fn new(nodes: usize) -> Self {
        NodeStates {
            slot: vec![NONE; nodes],
            packed: Vec::new(),
            blank: S::default(),
        }
    }

    fn get(&self, n: NodeId) -> &S {
        match self.slot[n.index()] {
            NONE => &self.blank,
            i => &self.packed[i as usize],
        }
    }

    /// `n`'s state, created on this first touch if need be.
    fn touch(&mut self, n: NodeId) -> &mut S {
        let slot = &mut self.slot[n.index()];
        if *slot == NONE {
            *slot = self.packed.len() as u32;
            self.packed.push(S::default());
        }
        &mut self.packed[*slot as usize]
    }

    /// Resets `n` to the default state. An untouched node already is.
    fn reset(&mut self, n: NodeId) {
        let i = self.slot[n.index()];
        if i != NONE {
            self.packed[i as usize] = S::default();
        }
    }
}

/// One pending event as a window comparison sees it. Commands and faults
/// never appear: a window is only compared while none is pending.
#[derive(PartialEq)]
enum Pending<M, T> {
    Arrive {
        node: NodeId,
        pkt: Packet<M>,
    },
    /// `live`: the timer map still names this instance. A superseded or
    /// cancelled one still pops, as an event that does nothing.
    Timer {
        node: NodeId,
        timer: T,
        live: bool,
    },
}

/// A window the run was seen to repeat: its length, and the events and
/// control copies each repeat dispatches.
#[derive(Clone, Copy)]
struct Repeat {
    len: u64,
    events: u64,
    control: u64,
}

/// [`Kernel::fast_forward`]'s buffers, verdict and tallies.
struct FastForward<S, M, T> {
    /// Every touched node's state at the window's start, by slot (moved
    /// by the window as it is compared).
    states: Vec<S>,
    /// Every pending event at the window's start, as `(due − now, event)`
    /// in dispatch order.
    queue: Vec<(u64, Pending<M, T>)>,
    /// Scratch for the queue's keys.
    keys: Vec<EventKey>,
    /// Set once a window repeated; anything from outside the run (a
    /// command, a fault, a loss model, a trace) clears it.
    repeat: Option<Repeat>,
    skipped_windows: u64,
    skipped_events: u64,
}

/// The simulator: a [`Network`], one [`Protocol`], per-node states, and the
/// event queue.
pub struct Kernel<P: Protocol> {
    proto: P,
    states: NodeStates<P::NodeState>,
    core: Core<P::Msg, P::Timer, P::Command>,
    ff: FastForward<P::NodeState, P::Msg, P::Timer>,
}

impl<P: Protocol> Kernel<P> {
    /// Creates a kernel over `net` with every node's state defaulted and
    /// the RNG seeded from `seed`. Its memory grows with what the run
    /// touches: a node's state is made when it first handles an event, and
    /// the event slab and timer map start empty.
    pub fn new(net: Network, proto: P, seed: u64) -> Self {
        Kernel {
            proto,
            states: NodeStates::new(net.node_count()),
            core: Core {
                net,
                queue: EventQueue::new(),
                now: Time::ZERO,
                seq: 0,
                timer_ids: FastMap::default(),
                stats: Stats::default(),
                rng: StdRng::seed_from_u64(seed),
                rng_reads: 0,
                trace: Trace::disabled(),
                faults: None,
            },
            ff: FastForward {
                states: Vec::new(),
                queue: Vec::new(),
                keys: Vec::new(),
                repeat: None,
                skipped_windows: 0,
                skipped_events: 0,
            },
        }
    }

    /// Schedules a single fault event at absolute time `at`. Fault events
    /// share the `(time, sequence)` order of every other kernel event, so
    /// interleavings with commands and packets are deterministic.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_fault(&mut self, at: Time, ev: FaultEvent) {
        assert!(at >= self.core.now, "fault scheduled in the past");
        self.ff.repeat = None;
        self.core.push(at, EventKind::Fault(ev));
    }

    /// Whether `n` is currently crashed by fault injection.
    pub fn node_is_down(&self, n: NodeId) -> bool {
        self.core
            .faults
            .as_ref()
            .is_some_and(|f| f.node_down[n.index()])
    }

    /// Applies a topology fault *now*: flips availability masks, wipes a
    /// crashed node's protocol state and timers, and reconverges unicast
    /// routing on the surviving topology.
    fn apply_fault(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::LinkDown { a, b } => self.core.set_link(a, b, true),
            FaultEvent::LinkUp { a, b } => self.core.set_link(a, b, false),
            FaultEvent::NodeDown(n) => {
                self.core.faults().node_down[n.index()] = true;
                // A crash loses all soft state and cancels every pending
                // timer — recovery must come entirely from the neighbors'
                // refresh traffic, exactly like a real router reboot.
                self.states.reset(n);
                self.core.timer_ids.retain(|(node, _), _| *node != n);
            }
            FaultEvent::NodeUp(n) => self.core.faults().node_down[n.index()] = false,
        }
        let f = self.core.faults.as_ref().expect("set above");
        self.core.net = self.core.net.rerouted(&f.node_down, &f.edge_down);
        if self.core.trace.active() {
            let node = match ev {
                FaultEvent::LinkDown { a, .. } | FaultEvent::LinkUp { a, .. } => a,
                FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => n,
            };
            let now = self.core.now;
            self.core
                .trace
                .record(now, node, TraceKind::Note(format!("fault: {ev:?}")));
        }
    }

    /// Configures failure injection (default: lossless).
    pub fn set_loss(&mut self, loss: LossModel) {
        assert!((0.0..=1.0).contains(&loss.control) && (0.0..=1.0).contains(&loss.data));
        self.ff.repeat = None;
        self.core.faults().loss = loss;
    }

    /// Adds an independent Bernoulli loss of probability `p` to every
    /// transmission over either direction of the link `a — b`, on top of
    /// the class-wide [`Kernel::set_loss`] and under the same rule: an
    /// edge whose probability is zero draws nothing from the RNG.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or there is no link `a — b`.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        let edges = self.core.link_edges(a, b);
        self.ff.repeat = None;
        let f = self.core.faults();
        let loss = f
            .edge_loss
            .get_or_insert_with(|| vec![0.0; f.edge_down.len()]);
        for e in edges {
            loss[e.index()] = p;
        }
    }

    /// Turns on event tracing (drains via [`Kernel::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.ff.repeat = None;
        self.core.trace = Trace::enabled();
    }

    /// Drains collected trace records.
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceRecord<P::Msg>> {
        self.core.trace.take()
    }

    /// Schedules an experiment command at `node` for absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn command_at(&mut self, node: NodeId, cmd: P::Command, at: Time) {
        assert!(at >= self.core.now, "command scheduled in the past");
        self.ff.repeat = None;
        self.core.push(at, EventKind::Command { node, cmd });
    }

    /// Processes every event up to and including `until`, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: Time) {
        while let Some(at) = self.core.queue.peek_at(self.core.now) {
            if at > until {
                break;
            }
            self.step();
        }
        self.core.now = self.core.now.max(until);
    }

    /// Ends where [`Kernel::run_until`]`(until)` ends, in every respect a
    /// caller can observe, but skips whole `window`s once the run repeats
    /// itself (`DESIGN.md` §6e).
    ///
    /// It copies the kernel's state at a window boundary, runs the window,
    /// moves the copy `window` later and compares it with `==`: if the
    /// window was quiet and the two are equal, each later window repeats
    /// it exactly. The kernel then moves the clock, every pending event
    /// and every time a node state stores by `k · window` at once, adds
    /// `k` times the window's events and control copies to [`Stats`], and
    /// dispatches the rest of the way to `until` event by event. That
    /// verdict stands for later calls with the same `window` until
    /// something from outside the run arrives: a command, a fault, a loss
    /// model or a trace.
    ///
    /// A window is only compared when nothing outside the copy can make
    /// the next one differ: no command or fault pending, no data packet in
    /// flight, no loss model or fault state, no trace, and an eager route
    /// store (an on-demand store's cache moves with every lookup). A quiet
    /// window makes no structural change, carries or delivers no data,
    /// drops nothing and draws nothing from the RNG.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn fast_forward(&mut self, until: Time, window: u64) {
        assert!(window > 0, "a fast-forward window is positive");
        while !matches!(self.ff.repeat, Some(r) if r.len == window)
            && until.since(self.core.now) >= 2 * window
            && self.may_repeat()
        {
            let end = self.core.now + window;
            if self.core.queue.pending_inputs > 0 || self.core.queue.pending_data > 0 {
                self.run_until(end);
            } else {
                self.compare_window(end);
            }
        }
        if let Some(r) = self.ff.repeat.filter(|r| r.len == window) {
            self.skip(until.since(self.core.now) / window, r);
        }
        self.run_until(until);
    }

    /// Whether this kernel's runs can be fast-forwarded at all.
    fn may_repeat(&self) -> bool {
        P::NodeState::MAY_REPEAT
            && !self.core.trace.active()
            && self.core.faults.is_none()
            && !self.core.net.is_on_demand()
    }

    /// Runs the window that ends at `end` and records whether it repeats.
    fn compare_window(&mut self, end: Time) {
        let len = end - self.core.now;
        self.snapshot();
        let quiet = |k: &Self| (k.core.stats.quiet_mark(), k.core.rng_reads);
        let before = quiet(self);
        let (events, control) = (self.core.stats.events, self.core.stats.control_copies());
        self.run_until(end);
        if quiet(self) == before && self.equals_moved_snapshot(len) {
            self.ff.repeat = Some(Repeat {
                len,
                events: self.core.stats.events - events,
                control: self.core.stats.control_copies() - control,
            });
        }
    }

    /// Copies every touched state and pending event into the buffers.
    fn snapshot(&mut self) {
        let (ff, core) = (&mut self.ff, &self.core);
        ff.states.clone_from(&self.states.packed);
        core.queue.keys(&mut ff.keys);
        ff.queue.clear();
        ff.queue
            .extend(ff.keys.iter().map(|&key| core.pending(key)));
    }

    /// Whether the kernel is its snapshot with every time `by` later. Each
    /// copied state is moved by `by`, then compared with `==`.
    fn equals_moved_snapshot(&mut self, by: u64) -> bool {
        let (ff, core) = (&mut self.ff, &self.core);
        core.queue.keys(&mut ff.keys);
        let packed = &self.states.packed;
        ff.keys.len() == ff.queue.len()
            && ff
                .keys
                .iter()
                .zip(&ff.queue)
                .all(|(&key, was)| core.pending(key) == *was)
            && packed.len() == ff.states.len()
            && packed.iter().zip(&mut ff.states).all(|(s, was)| {
                was.advance(by);
                s == was
            })
    }

    /// Moves the kernel `windows` repeats of `r` ahead without dispatching
    /// them.
    fn skip(&mut self, windows: u64, r: Repeat) {
        if windows == 0 {
            return;
        }
        debug_assert_eq!(
            self.core.queue.pending_inputs, 0,
            "an input clears the verdict"
        );
        let by = windows * r.len;
        let now = self.core.now;
        self.core.queue.delay_all(now, by, &mut self.ff.keys);
        self.core.now += by;
        for s in &mut self.states.packed {
            s.advance(by);
        }
        self.core.stats.repeat(windows, r.events, r.control);
        self.ff.skipped_windows += windows;
        self.ff.skipped_events += windows * r.events;
    }

    /// Time of the next pending event, if any.
    pub fn peek_next(&self) -> Option<Time> {
        self.core.queue.peek_at(self.core.now)
    }

    /// Number of scheduled-but-undispatched data-class packet arrivals.
    ///
    /// Data forwarding is strictly arrival-driven — no protocol re-emits a
    /// data packet from a timer or command it hasn't already received — so
    /// once this returns zero *after* a data injection, every copy of that
    /// packet has fully propagated: no further transmissions, deliveries,
    /// or drops attributable to it can occur. Experiment runners use this
    /// to end probe windows as soon as the wave dies out instead of
    /// simulating the full worst-case horizon.
    pub fn pending_data_arrivals(&self) -> u64 {
        self.core.queue.pending_data
    }

    /// Pops and dispatches one event. Returns `false` if the queue was
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((at, kind)) = self.core.queue.pop(self.core.now) else {
            return false;
        };
        debug_assert!(at >= self.core.now, "event from the past");
        self.core.now = at;
        self.core.stats.events += 1;
        match kind {
            EventKind::Arrive { node, pkt } => self.dispatch_arrival(node, pkt),
            EventKind::Timer { node, timer, id } => {
                // Fire only the newest instance; stale heap entries are
                // ignored, cancelled ones find no map entry. Speculatively
                // remove (one hash lookup on the overwhelmingly common
                // current-instance path) and re-insert on a stale hit.
                match self.core.timer_ids.remove(&(node, timer.clone())) {
                    Some(stored) if stored == id => {
                        let mut ctx = Ctx::from_ops(node, &mut self.core);
                        self.proto
                            .on_timer(self.states.touch(node), timer, &mut ctx);
                    }
                    Some(newer) => {
                        // Stale instance popped before the re-armed one:
                        // put the live id back untouched.
                        self.core.timer_ids.insert((node, timer), newer);
                    }
                    None => {} // cancelled
                }
            }
            EventKind::Command { node, cmd } => {
                if self.node_is_down(node) {
                    // A crashed node can't take experiment commands; the
                    // schedule proceeds without it (matching a live
                    // cluster, where the process is simply gone).
                    if self.core.trace.active() {
                        let now = self.core.now;
                        self.core.trace.record(
                            now,
                            node,
                            TraceKind::Note(format!("cmd at down node: {cmd:?}")),
                        );
                    }
                } else {
                    let mut ctx = Ctx::from_ops(node, &mut self.core);
                    self.proto
                        .on_command(self.states.touch(node), cmd, &mut ctx);
                }
            }
            EventKind::Fault(ev) => self.apply_fault(ev),
        }
        true
    }

    fn dispatch_arrival(&mut self, node: NodeId, pkt: Packet<P::Msg>) {
        if self.node_is_down(node) {
            // The packet was already in flight when the node crashed (or
            // routing still pointed here): it lands on a dead interface.
            self.core.drop_packet(node, &pkt, DropReason::NodeDown);
            return;
        }
        match arrival(&self.core.net, node, pkt.dst) {
            Arrival::Engine => {
                let mut ctx = Ctx::from_ops(node, &mut self.core);
                self.proto.on_packet(self.states.touch(node), pkt, &mut ctx);
            }
            Arrival::Transit => self.core.forward(node, pkt),
            Arrival::Drop(reason) => self.core.drop_packet(node, &pkt, reason),
        }
    }

    // --- accessors ----------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// The network this kernel runs over.
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// Accounting: link copies, deliveries, drops, churn.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// A node's protocol state (read): the default state if the node has
    /// not handled an event since the run began.
    pub fn state(&self, node: NodeId) -> &P::NodeState {
        self.states.get(node)
    }

    /// The protocol configuration this kernel was built with.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Number of live (armed, not superseded, not cancelled) timers across
    /// all nodes. Robustness tests assert this returns to a small steady
    /// value after fault storms — a growing count is a timer leak.
    pub fn pending_timer_count(&self) -> usize {
        self.core.timer_ids.len()
    }

    /// Windows [`Kernel::fast_forward`] has skipped instead of dispatching.
    pub fn skipped_windows(&self) -> u64 {
        self.ff.skipped_windows
    }

    /// Events in the skipped windows. [`Stats::events`] counts them too,
    /// so `stats().events - skipped_events()` is what was dispatched.
    pub fn skipped_events(&self) -> u64 {
        self.ff.skipped_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::graph::Graph;

    /// States of the test protocols below: `advance` has nothing to move.
    /// A counting state repeats only when its counters are equal, and a
    /// log that grows with every event never does, so no skip reaches the
    /// times a log keeps.
    macro_rules! no_times_to_move {
        ($($state:ty),*) => {$(
            impl SteadyState for $state {
                fn advance(&mut self, _: u64) {}
            }
        )*};
    }
    no_times_to_move!(TestState);

    /// Minimal test protocol: hosts deliver data addressed to them; routers
    /// forward everything; a `Ping` command originates a data packet; a
    /// `Tick` timer re-arms itself once and counts via a state counter.
    struct TestProto;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct TestState {
        ticks: u32,
        seen: u32,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum TestTimer {
        Tick,
    }

    #[derive(Clone, Debug)]
    enum TestCmd {
        Ping { to: NodeId, tag: u64 },
        Arm,
    }

    impl Protocol for TestProto {
        type Msg = ();
        type Timer = TestTimer;
        type Command = TestCmd;
        type NodeState = TestState;

        fn on_packet(
            &self,
            state: &mut TestState,
            pkt: Packet<()>,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            state.seen += 1;
            if pkt.dst == ctx.node {
                ctx.deliver(&pkt);
            } else {
                ctx.forward(pkt);
            }
        }

        fn on_timer(
            &self,
            state: &mut TestState,
            _timer: TestTimer,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            state.ticks += 1;
            if state.ticks < 2 {
                ctx.set_timer(TestTimer::Tick, 10);
            }
        }

        fn on_command(
            &self,
            _state: &mut TestState,
            cmd: TestCmd,
            ctx: &mut Ctx<'_, (), TestTimer>,
        ) {
            match cmd {
                TestCmd::Ping { to, tag } => {
                    let pkt = Packet::data(ctx.node, to, tag, ctx.now(), ());
                    ctx.send(pkt);
                }
                TestCmd::Arm => ctx.set_timer(TestTimer::Tick, 10),
            }
        }
    }

    /// h1 — a(2/2) — b(3/3) — h2, with a unicast-only router b variant.
    fn line_net(b_capable: bool) -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 2, 2);
        if !b_capable {
            g.set_mcast_capable(b, false);
        }
        let h1 = g.add_host(a, 1, 1);
        let h2 = g.add_host(b, 3, 3);
        (Network::new(g), a, b, h1, h2)
    }

    fn kernel(b_capable: bool) -> (Kernel<TestProto>, NodeId, NodeId, NodeId, NodeId) {
        let (net, a, b, h1, h2) = line_net(b_capable);
        (Kernel::new(net, TestProto, 0), a, b, h1, h2)
    }

    #[test]
    fn arrival_rule_covers_every_kind_of_node() {
        let (net, a, b, h1, h2) = line_net(false);
        assert_eq!(arrival(&net, a, h2), Arrival::Engine);
        assert_eq!(arrival(&net, h2, h2), Arrival::Engine);
        assert_eq!(arrival(&net, b, h2), Arrival::Transit);
        let drop = |why| Arrival::Drop(why);
        assert_eq!(arrival(&net, h1, h2), drop(DropReason::MisroutedToHost));
        assert_eq!(
            arrival(&net, b, b),
            drop(DropReason::AddressedToUnicastRouter)
        );
    }

    #[test]
    fn packet_delay_is_sum_of_link_costs() {
        let (mut k, _, _, h1, h2) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time(5));
        k.run_until(Time(100));
        let d = &k.stats().deliveries;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, h2);
        // h1→a = 1, a→b = 2, b→h2 = 3, injected at t=5 ⇒ arrival t=11.
        assert_eq!(d[0].at, Time(11));
        assert_eq!(d[0].delay(), 6);
    }

    #[test]
    fn transit_counting_per_link() {
        let (mut k, a, b, h1, h2) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 9 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().data_copies_tagged(9), 3);
        let links = k.stats().data_copies_per_link(9);
        assert_eq!(links[&(h1, a)], 1);
        assert_eq!(links[&(a, b)], 1);
        assert_eq!(links[&(b, h2)], 1);
    }

    #[test]
    fn unicast_only_router_still_forwards() {
        let (mut k, _, _, h1, h2) = kernel(false);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 1);
        // The protocol never saw the packet at b.
        let (_, b) = (h1, NodeId(1));
        assert_eq!(k.state(b).seen, 0);
    }

    #[test]
    fn packet_addressed_to_unicast_only_router_is_dropped() {
        let (mut k, _, b, h1, _) = kernel(false);
        k.command_at(h1, TestCmd::Ping { to: b, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 0);
        assert_eq!(k.stats().drops, 1);
    }

    #[test]
    fn timer_rearm_and_counting() {
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.state(a).ticks, 2); // fired at 10 and 20, then stopped
        assert_eq!(k.now(), Time(100));
    }

    #[test]
    fn rearming_supersedes_previous_instance() {
        // Arm twice quickly: only the newest instance may fire.
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.command_at(a, TestCmd::Arm, Time(1));
        k.run_until(Time(15));
        // First instance (due t=10) is stale; second fires at t=11.
        assert_eq!(k.state(a).ticks, 1);
    }

    #[test]
    fn run_until_is_exact() {
        let (mut k, a, ..) = kernel(true);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(9));
        assert_eq!(k.state(a).ticks, 0);
        k.run_until(Time(10));
        assert_eq!(k.state(a).ticks, 1);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = || {
            let (mut k, a, _, h1, h2) = kernel(true);
            k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
            k.command_at(a, TestCmd::Arm, Time::ZERO);
            k.command_at(h2, TestCmd::Ping { to: h1, tag: 2 }, Time(3));
            k.run_until(Time(200));
            (
                k.stats().deliveries.clone(),
                k.stats().data_copies_tagged(1),
                k.stats().data_copies_tagged(2),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn misrouted_to_host_is_dropped() {
        // Craft a packet whose dst is unreachable-by-routing from the host:
        // send to a host that is not the dst by targeting a disconnected id.
        // Simpler: h1 pings h1's own router a — fine; instead check NoRoute
        // by pinging a node with no path: build a disconnected net.
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router(); // no link to a
        let h1 = g.add_host(a, 1, 1);
        let net = Network::new(g);
        let mut k: Kernel<TestProto> = Kernel::new(net, TestProto, 0);
        k.command_at(h1, TestCmd::Ping { to: b, tag: 1 }, Time::ZERO);
        k.run_until(Time(10));
        assert_eq!(k.stats().drops, 1);
    }

    #[test]
    fn loopback_send_to_self_arrives_locally() {
        let (mut k, _, _, h1, _) = kernel(true);
        k.command_at(h1, TestCmd::Ping { to: h1, tag: 4 }, Time::ZERO);
        k.run_until(Time(10));
        assert_eq!(k.stats().deliveries.len(), 1);
        assert_eq!(k.stats().deliveries[0].at, Time(0));
        assert_eq!(
            k.stats().data_copies_tagged(4),
            0,
            "loopback touches no link"
        );
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let (mut k, _, _, h1, h2) = kernel(true);
        k.enable_trace();
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        let trace = k.take_trace();
        assert!(trace
            .iter()
            .any(|r| matches!(r.what, TraceKind::Sent { .. })));
        assert!(trace
            .iter()
            .any(|r| matches!(r.what, TraceKind::Delivered { tag: 1 })));
    }

    /// One router with `hosts` hosts on it.
    fn star(hosts: usize) -> (Kernel<TestProto>, NodeId, Vec<NodeId>) {
        let mut g = Graph::new();
        let r = g.add_router();
        let hs = (0..hosts).map(|_| g.add_host(r, 1, 1)).collect();
        (Kernel::new(Network::new(g), TestProto, 0), r, hs)
    }

    #[test]
    fn only_nodes_that_handled_an_event_hold_state() {
        let (mut k, r, hs) = star(2_000);
        k.command_at(hs[0], TestCmd::Ping { to: hs[1], tag: 1 }, Time::ZERO);
        k.command_at(hs[2], TestCmd::Arm, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 1);
        assert_eq!(k.state(r).seen, 1);
        assert_eq!(k.state(hs[1]).seen, 1);
        assert_eq!(k.state(hs[2]).ticks, 2);
        // The pinger, the router, the receiver and the timer's owner.
        let handled = [hs[0], r, hs[1], hs[2]];
        assert_eq!(k.states.packed.len(), handled.len());
        for n in k.network().graph().nodes() {
            if !handled.contains(&n) {
                assert_eq!(*k.state(n), TestState::default(), "{n}");
            }
        }
    }

    #[test]
    fn restarting_an_untouched_node_leaves_it_uncreated() {
        let (mut k, _, hs) = star(2_000);
        let (touched, untouched) = (hs[0], hs[1]);
        k.command_at(touched, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(11));
        assert_eq!(k.state(touched).ticks, 1);
        for n in [touched, untouched] {
            k.schedule_fault(Time(12), FaultEvent::NodeDown(n));
            k.schedule_fault(Time(13), FaultEvent::NodeUp(n));
        }
        k.run_until(Time(50));
        assert_eq!(*k.state(touched), TestState::default(), "crash wiped state");
        assert_eq!(*k.state(untouched), TestState::default());
        assert_eq!(k.states.slot[untouched.index()], NONE);
        assert_eq!(k.states.packed.len(), 1, "only the armed host holds state");
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_commands_rejected() {
        let (mut k, a, ..) = kernel(true);
        k.run_until(Time(10));
        k.command_at(a, TestCmd::Arm, Time(5));
    }

    // --- fault injection ------------------------------------------------

    /// h1 — a — b — h2 plus a pricier detour a — c — b, so there is a
    /// path around both the a-b link and (for a↔b traffic) node c.
    fn diamond() -> (Kernel<TestProto>, [NodeId; 5]) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 2, 2);
        g.add_link(a, c, 5, 5);
        g.add_link(c, b, 5, 5);
        let h1 = g.add_host(a, 1, 1);
        let h2 = g.add_host(b, 1, 1);
        (
            Kernel::new(Network::new(g), TestProto, 0),
            [a, b, c, h1, h2],
        )
    }

    #[test]
    fn link_down_reroutes_and_link_up_restores() {
        let (mut k, [a, b, c, h1, h2]) = diamond();
        k.schedule_fault(Time(10), FaultEvent::LinkDown { a, b });
        k.schedule_fault(Time(100), FaultEvent::LinkUp { a, b });
        // Before the fault: direct path, delay 1 + 2 + 1 = 4.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        // During the outage: detour via c, delay 1 + 5 + 5 + 1 = 12.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 2 }, Time(20));
        // After restoration: direct again.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 3 }, Time(200));
        k.run_until(Time(300));
        let d = &k.stats().deliveries;
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].delay(), 4);
        assert_eq!(d[1].delay(), 12);
        assert_eq!(d[2].delay(), 4);
        let links = k.stats().data_copies_per_link(2);
        assert_eq!(links[&(a, c)], 1, "outage traffic detours through c");
        assert_eq!(links.get(&(a, b)), None);
    }

    #[test]
    fn packet_in_flight_on_cut_link_still_arrives() {
        // The cut happens while a packet is mid-link: it left before the
        // failure and is not retroactively destroyed.
        let (mut k, [a, b, _, h1, h2]) = diamond();
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        // h1→a arrives at t=1; a→b transmission departs at t=1, lands t=3.
        k.schedule_fault(Time(2), FaultEvent::LinkDown { a, b });
        k.run_until(Time(50));
        assert_eq!(k.stats().deliveries.len(), 1);
    }

    #[test]
    fn node_crash_wipes_state_and_drops_arrivals() {
        let (mut k, [a, _, _, h1, h2]) = diamond();
        // Seed some state and a pending self-rearming timer at a.
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.command_at(a, TestCmd::Arm, Time::ZERO);
        k.run_until(Time(11)); // first tick fired, second armed for t=20
        assert_eq!(k.state(a).ticks, 1);
        assert_eq!(k.state(a).seen, 1);
        k.schedule_fault(Time(12), FaultEvent::NodeDown(a));
        // A ping sent while a is down dies at a's dead interface (unicast
        // reroutes around a for transit, but h1 is homed on a).
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 2 }, Time(20));
        k.run_until(Time(50));
        assert!(k.node_is_down(a));
        assert_eq!(k.state(a).ticks, 0, "crash wiped state");
        assert_eq!(k.state(a).seen, 0);
        assert_eq!(
            k.stats().deliveries.len(),
            1,
            "tag 2 died at the crashed access router"
        );
        // Restart: the node is blank but alive again.
        k.schedule_fault(Time(60), FaultEvent::NodeUp(a));
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 3 }, Time(70));
        k.run_until(Time(200));
        assert!(!k.node_is_down(a));
        assert_eq!(k.state(a).ticks, 0, "timers stay cancelled after restart");
        assert_eq!(k.stats().deliveries.len(), 2, "tag 3 delivered");
    }

    #[test]
    fn commands_at_down_nodes_are_ignored() {
        let (mut k, [a, ..]) = diamond();
        k.schedule_fault(Time(5), FaultEvent::NodeDown(a));
        k.command_at(a, TestCmd::Arm, Time(10));
        k.run_until(Time(100));
        assert_eq!(k.state(a).ticks, 0);
    }

    #[test]
    fn per_link_loss_draws_only_on_lossy_edges() {
        // With p = 1.0 on a-b every direct transmission dies; unicast
        // routing is unaware (the link is up), so nothing detours.
        let (mut k, [a, b, _, h1, h2]) = diamond();
        k.set_link_loss(a, b, 1.0);
        k.command_at(h1, TestCmd::Ping { to: h2, tag: 1 }, Time::ZERO);
        k.run_until(Time(100));
        assert_eq!(k.stats().deliveries.len(), 0);
        assert_eq!(k.stats().drops, 1);
        assert_eq!(
            k.stats().data_copies_tagged(1),
            2,
            "h1→a and the lost a→b copy both occupied their links"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_loss_probability_validated() {
        let (mut k, [a, b, ..]) = diamond();
        k.set_link_loss(a, b, 1.5);
    }

    #[test]
    fn batch_set_timers_matches_per_entry_semantics() {
        // set_timers must behave exactly like N set_timer calls, including
        // the supersede rule when the same key appears twice.
        struct BatchProto;
        #[derive(Clone, Default, PartialEq)]
        struct BatchState {
            fired: Vec<(u64, u8)>,
        }
        no_times_to_move!(BatchState);
        impl Protocol for BatchProto {
            type Msg = ();
            type Timer = u8;
            type Command = bool; // true → batch API, false → singles
            type NodeState = BatchState;
            fn on_packet(&self, _: &mut BatchState, _: Packet<()>, _: &mut Ctx<'_, (), u8>) {}
            fn on_timer(&self, st: &mut BatchState, t: u8, ctx: &mut Ctx<'_, (), u8>) {
                st.fired.push((ctx.now().0, t));
            }
            fn on_command(&self, _: &mut BatchState, batch: bool, ctx: &mut Ctx<'_, (), u8>) {
                let timers = [(1u8, 100u64), (2, 70), (3, 250), (1, 90), (4, 70)];
                if batch {
                    ctx.set_timers(timers);
                    ctx.cancel_timers([3u8]);
                } else {
                    for (t, d) in timers {
                        ctx.set_timer(t, d);
                    }
                    ctx.cancel_timer(&3u8);
                }
            }
        }
        let run = |batch: bool| {
            let mut g = Graph::new();
            let a = g.add_router();
            let h = g.add_host(a, 1, 1);
            let mut k = Kernel::new(Network::new(g), BatchProto, 0);
            k.command_at(h, batch, Time::ZERO);
            k.run_until(Time(1_000));
            assert_eq!(k.pending_timer_count(), 0);
            k.state(h).fired.clone()
        };
        let batched = run(true);
        assert_eq!(batched, run(false));
        // Timer 1 superseded (fires once at its re-armed deadline), 3
        // cancelled, 2 and 4 share a deadline in arm order.
        assert_eq!(batched, vec![(70, 2), (70, 4), (90, 1)]);
    }

    #[test]
    fn timer_storm_fires_survivors_in_deadline_then_arm_order() {
        // One event arms 10^5 timers whose deadlines spread over five
        // decades (10 .. 10^6, so both queue bands and plenty of ties),
        // then cancels every second one; the survivors must fire in
        // (deadline, arm order) and leave nothing pending.
        const N: u32 = 100_000;
        fn delay(i: u32) -> u64 {
            let decade = 10u64.pow(1 + i % 5);
            decade + u64::from(i.wrapping_mul(2_654_435_761) >> 8) % (9 * decade)
        }
        struct StormProto;
        #[derive(Clone, Default, PartialEq)]
        struct StormState {
            fired: Vec<(u64, u32)>,
        }
        no_times_to_move!(StormState);
        impl Protocol for StormProto {
            type Msg = ();
            type Timer = u32;
            type Command = ();
            type NodeState = StormState;
            fn on_packet(&self, _: &mut StormState, _: Packet<()>, _: &mut Ctx<'_, (), u32>) {}
            fn on_timer(&self, st: &mut StormState, t: u32, ctx: &mut Ctx<'_, (), u32>) {
                st.fired.push((ctx.now().0, t));
            }
            fn on_command(&self, _: &mut StormState, (): (), ctx: &mut Ctx<'_, (), u32>) {
                ctx.set_timers((0..N).map(|i| (i, delay(i))));
                ctx.cancel_timers((0..N).step_by(2));
            }
        }
        let mut g = Graph::new();
        let a = g.add_router();
        let mut k = Kernel::new(Network::new(g), StormProto, 0);
        k.command_at(a, (), Time::ZERO);
        k.step();
        assert_eq!(k.pending_timer_count(), N as usize / 2);
        k.run_until(Time(10_000_000));
        let mut expect: Vec<(u64, u32)> = (1..N).step_by(2).map(|i| (delay(i), i)).collect();
        expect.sort_unstable();
        assert!(expect[0].0 < 64 && expect[expect.len() - 1].0 > 100_000);
        assert_eq!(k.state(a).fired, expect);
        assert_eq!(k.pending_timer_count(), 0);
    }

    #[test]
    fn notes_are_built_only_for_a_trace_sink() {
        struct NoteProto;
        impl Protocol for NoteProto {
            type Msg = ();
            type Timer = ();
            type Command = bool; // whether the kernel traces
            type NodeState = ();
            fn on_packet(&self, _: &mut (), _: Packet<()>, _: &mut Ctx<'_, (), ()>) {}
            fn on_timer(&self, _: &mut (), (): (), _: &mut Ctx<'_, (), ()>) {}
            fn on_command(&self, _: &mut (), traced: bool, ctx: &mut Ctx<'_, (), ()>) {
                ctx.trace(|| {
                    assert!(traced, "a note was built with no trace sink");
                    "built".to_owned()
                });
            }
        }
        for traced in [false, true] {
            let mut g = Graph::new();
            let a = g.add_router();
            let mut k = Kernel::new(Network::new(g), NoteProto, 0);
            if traced {
                k.enable_trace();
            }
            k.command_at(a, traced, Time::ZERO);
            k.run_until(Time(1));
            let notes = k
                .take_trace()
                .into_iter()
                .filter(|r| matches!(&r.what, TraceKind::Note(n) if n == "built"))
                .count();
            assert_eq!(notes, usize::from(traced));
        }
    }

    #[test]
    fn fault_trace_notes_are_recorded() {
        let (mut k, [a, b, ..]) = diamond();
        k.enable_trace();
        k.schedule_fault(Time(5), FaultEvent::LinkDown { a, b });
        k.run_until(Time(10));
        let trace = k.take_trace();
        assert!(trace
            .iter()
            .any(|r| matches!(&r.what, TraceKind::Note(n) if n.starts_with("fault:"))));
    }

    // --- fast-forward -----------------------------------------------------

    /// Two routers beaconing at each other every [`BEACON`] time units,
    /// alternating two payloads: the run repeats itself every two beacons,
    /// not every one. A node remembers when it last heard its peer.
    struct Beacon;

    const BEACON: u64 = 10;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct BeaconState {
        peer: Option<NodeId>,
        odd: bool,
        heard: Option<Time>,
    }

    impl SteadyState for BeaconState {
        fn advance(&mut self, by: u64) {
            self.heard.advance(by);
        }
    }

    #[derive(Clone, Debug)]
    enum BeaconCmd {
        Start(NodeId),
        /// A data packet to the peer, for the data-plane counters.
        Ping(u64),
    }

    impl Protocol for Beacon {
        type Msg = bool;
        type Timer = ();
        type Command = BeaconCmd;
        type NodeState = BeaconState;

        fn on_packet(&self, st: &mut BeaconState, pkt: Packet<bool>, ctx: &mut Ctx<'_, bool, ()>) {
            if pkt.dst != ctx.node {
                ctx.forward(pkt);
            } else if pkt.class == crate::packet::PacketClass::Data {
                ctx.deliver(&pkt);
            } else {
                st.heard = Some(ctx.now());
            }
        }

        fn on_timer(&self, st: &mut BeaconState, (): (), ctx: &mut Ctx<'_, bool, ()>) {
            let peer = st.peer.expect("armed by Start");
            ctx.send(Packet::control(ctx.node, peer, st.odd));
            st.odd = !st.odd;
            ctx.set_timer((), BEACON);
        }

        fn on_command(&self, st: &mut BeaconState, cmd: BeaconCmd, ctx: &mut Ctx<'_, bool, ()>) {
            match cmd {
                BeaconCmd::Start(peer) => {
                    st.peer = Some(peer);
                    ctx.structural_change();
                    ctx.set_timer((), BEACON);
                }
                BeaconCmd::Ping(tag) => {
                    let peer = st.peer.expect("started");
                    ctx.send(Packet::data(ctx.node, peer, tag, ctx.now(), false));
                }
            }
        }
    }

    /// a — b, started at t = 0, over eager routes or an on-demand store.
    fn beacons(on_demand: bool) -> (Kernel<Beacon>, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 3, 4);
        let net = if on_demand {
            Network::on_demand(g, 4)
        } else {
            Network::new(g)
        };
        let mut k = Kernel::new(net, Beacon, 7);
        k.command_at(a, BeaconCmd::Start(b), Time::ZERO);
        k.command_at(b, BeaconCmd::Start(a), Time(1));
        (k, a, b)
    }

    /// Everything a caller can read off two kernels is equal.
    fn assert_same(ff: &Kernel<Beacon>, plain: &Kernel<Beacon>) {
        assert_eq!(ff.now(), plain.now());
        assert_eq!(ff.stats(), plain.stats());
        assert_eq!(ff.pending_timer_count(), plain.pending_timer_count());
        for n in plain.network().graph().nodes() {
            assert_eq!(ff.state(n), plain.state(n), "{n}");
        }
    }

    #[test]
    fn a_run_that_repeats_every_two_beacons_is_skipped_exactly() {
        let (mut ff, a, _) = beacons(false);
        let (mut plain, ..) = beacons(false);
        // One beacon does not repeat the last one: nothing is skipped.
        ff.fast_forward(Time(1_000), BEACON);
        assert_eq!(ff.skipped_windows(), 0);
        ff.fast_forward(Time(10_005), 2 * BEACON);
        plain.run_until(Time(10_005));
        assert!(ff.skipped_windows() > 400, "{}", ff.skipped_windows());
        assert!(ff.skipped_events() > 0);
        assert_same(&ff, &plain);
        // What follows is the same too: a data packet, and more beacons.
        for k in [&mut ff, &mut plain] {
            k.command_at(a, BeaconCmd::Ping(9), Time(10_006));
            k.run_until(Time(10_100));
        }
        assert_eq!(ff.stats().deliveries.len(), 1);
        assert_same(&ff, &plain);
        ff.fast_forward(Time(20_000), 2 * BEACON);
        plain.run_until(Time(20_000));
        assert_same(&ff, &plain);
    }

    #[test]
    fn a_pending_command_stops_a_skip_before_it() {
        let (mut ff, a, _) = beacons(false);
        let (mut plain, ..) = beacons(false);
        for k in [&mut ff, &mut plain] {
            k.command_at(a, BeaconCmd::Ping(3), Time(5_000));
        }
        ff.fast_forward(Time(4_999), 2 * BEACON);
        assert_eq!(ff.skipped_windows(), 0, "the ping is pending");
        ff.fast_forward(Time(10_000), 2 * BEACON);
        plain.run_until(Time(10_000));
        assert!(ff.skipped_windows() > 0, "skips resume once it is sent");
        assert_same(&ff, &plain);
    }

    #[test]
    fn a_trace_a_loss_model_or_an_on_demand_store_turns_skipping_off() {
        type Setup = fn(&mut Kernel<Beacon>);
        let setups: [(bool, Setup); 3] = [
            (false, |k| k.enable_trace()),
            (false, |k| k.set_loss(LossModel::default())),
            (true, |_| {}),
        ];
        for (on_demand, setup) in setups {
            let (mut ff, ..) = beacons(on_demand);
            let (mut plain, ..) = beacons(on_demand);
            setup(&mut ff);
            setup(&mut plain);
            ff.fast_forward(Time(2_000), 2 * BEACON);
            plain.run_until(Time(2_000));
            assert_eq!(ff.skipped_windows(), 0);
            assert_same(&ff, &plain);
        }
        // The same kernel without any of them does skip.
        let (mut k, ..) = beacons(false);
        k.fast_forward(Time(2_000), 2 * BEACON);
        assert!(k.skipped_windows() > 0);
    }
}
