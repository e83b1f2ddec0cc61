//! Handler and kernel-op timing from outside the engines: [`Timed`]
//! wraps any [`Protocol`] and clocks its three handlers, classified by
//! the public message / timer variants; while a handler runs, its `Ctx`
//! is backed by [`OpsShim`], which clocks the kernel operations the
//! handler calls. Aggregated counts and nanoseconds per kind — never one
//! span per event.
//!
//! The wrapped engine sees the same clock, network, RNG stream and
//! operation order as the bare one, so `Stats` are unchanged (pinned by
//! `tests/equivalence.rs`); only host time differs, by two clock reads
//! per event plus two per operation.

use hbh_sim_core::{Ctx, KernelOps, Network, Packet, PacketClass, Protocol, Time};
use hbh_topo::graph::NodeId;
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::time::Instant;

/// What a handler invocation is booked under. The first eight are the
/// HBH message and timer variants (the other engines map theirs onto the
/// ones that fit); commands and everything without an HBH analogue are
/// `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Join,
    Tree,
    Fusion,
    Data,
    TJoin,
    TTree,
    TSweep,
    TFlush,
    Other,
}

/// Metric-name fragment of each [`Kind`], in declaration order.
pub const KINDS: [&str; 9] = [
    "join", "tree", "fusion", "data", "t_join", "t_tree", "t_sweep", "t_flush", "other",
];

/// Calls and host nanoseconds of one kind of work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count {
    pub calls: u64,
    pub ns: u64,
}

impl Count {
    fn add(&mut self, calls: u64, since: Instant) {
        self.calls += calls;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    pub fn merge(&mut self, other: Count) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// What one wrapped engine measured over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HandlerStats {
    /// Handler invocations by [`Kind`]; `ns` includes the ops the handler
    /// called.
    pub by_kind: [Count; KINDS.len()],
    /// `send` / `send_link` / `forward` calls made by handlers.
    pub send: Count,
    /// Timers armed or cancelled by handlers (batch entries counted
    /// individually).
    pub timer: Count,
}

impl HandlerStats {
    /// All handler invocations together.
    pub fn handlers(&self) -> Count {
        let mut all = Count::default();
        for c in self.by_kind {
            all.merge(c);
        }
        all
    }

    /// Handler seconds minus the kernel ops called from inside them.
    pub fn handler_self_secs(&self) -> f64 {
        (self.handlers().ns as f64 - self.send.ns as f64 - self.timer.ns as f64).max(0.0) / 1e9
    }

    pub fn merge(&mut self, other: &HandlerStats) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            a.merge(b);
        }
        self.send.merge(other.send);
        self.timer.merge(other.timer);
    }
}

/// A [`Protocol`] that behaves exactly like `P` and clocks it.
pub struct Timed<P: Protocol> {
    inner: P,
    msg_kind: fn(&P::Msg) -> Kind,
    timer_kind: fn(&P::Timer) -> Kind,
    stats: RefCell<HandlerStats>,
}

impl<P: Protocol> Timed<P> {
    /// Wraps `inner`; the two functions classify its message and timer
    /// variants.
    pub fn new(inner: P, msg_kind: fn(&P::Msg) -> Kind, timer_kind: fn(&P::Timer) -> Kind) -> Self {
        Timed {
            inner,
            msg_kind,
            timer_kind,
            stats: RefCell::default(),
        }
    }

    /// The measurements so far.
    pub fn stats(&self) -> HandlerStats {
        *self.stats.borrow()
    }

    /// Runs one handler of the inner engine against a shimmed `Ctx` and
    /// books its time under `kind`.
    fn clocked(
        &self,
        kind: Kind,
        data_payload: Option<P::Msg>,
        ctx: &mut Ctx<'_, P::Msg, P::Timer>,
        handler: impl FnOnce(&P, &mut Ctx<'_, P::Msg, P::Timer>),
    ) {
        let mut stats = self.stats.borrow_mut();
        let stats = &mut *stats;
        let node = ctx.node;
        let mut shim = OpsShim {
            ctx,
            send: &mut stats.send,
            timer: &mut stats.timer,
            data_payload,
        };
        let start = Instant::now();
        handler(&self.inner, &mut Ctx::from_ops(node, &mut shim));
        stats.by_kind[kind as usize].add(1, start);
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;
    type Command = P::Command;
    type NodeState = P::NodeState;

    fn on_packet(
        &self,
        state: &mut Self::NodeState,
        pkt: Packet<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        let kind = (self.msg_kind)(&pkt.payload);
        // Only data arrivals are ever delivered; the shim needs their
        // payload to rebuild the packet `Ctx::deliver` takes.
        let payload = (pkt.class == PacketClass::Data).then(|| pkt.payload.clone());
        self.clocked(kind, payload, ctx, |p, ctx| p.on_packet(state, pkt, ctx));
    }

    fn on_timer(
        &self,
        state: &mut Self::NodeState,
        timer: Self::Timer,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        let kind = (self.timer_kind)(&timer);
        self.clocked(kind, None, ctx, |p, ctx| p.on_timer(state, timer, ctx));
    }

    fn on_command(
        &self,
        state: &mut Self::NodeState,
        cmd: Self::Command,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
    ) {
        self.clocked(Kind::Other, None, ctx, |p, ctx| {
            p.on_command(state, cmd, ctx)
        });
    }
}

/// A [`KernelOps`] that forwards every operation to the real kernel's
/// `Ctx` and clocks the transmitting and timer operations.
struct OpsShim<'a, 'k, M, T> {
    ctx: &'a mut Ctx<'k, M, T>,
    send: &'a mut Count,
    timer: &'a mut Count,
    /// Payload of the data packet being handled, if any (see `deliver`).
    data_payload: Option<M>,
}

impl<M: Clone, T> KernelOps<M, T> for OpsShim<'_, '_, M, T> {
    fn now(&self) -> Time {
        self.ctx.now()
    }
    fn net(&self) -> &Network {
        self.ctx.net()
    }
    fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }
    fn send(&mut self, _from: NodeId, pkt: Packet<M>) {
        let start = Instant::now();
        self.ctx.send(pkt);
        self.send.add(1, start);
    }
    fn send_link(&mut self, _from: NodeId, via: NodeId, pkt: Packet<M>) {
        let start = Instant::now();
        self.ctx.send_link(via, pkt);
        self.send.add(1, start);
    }
    fn forward(&mut self, _from: NodeId, pkt: Packet<M>) {
        let start = Instant::now();
        self.ctx.forward(pkt);
        self.send.add(1, start);
    }
    fn deliver(&mut self, node: NodeId, pkt_tag: u64, injected_at: Time) {
        // `Ctx::deliver` reads only the tag and the injection time, but
        // takes a whole packet.
        let payload = self
            .data_payload
            .clone()
            .expect("engines deliver only while handling a data packet");
        self.ctx
            .deliver(&Packet::data(node, node, pkt_tag, injected_at, payload));
    }
    fn set_timer(&mut self, _node: NodeId, timer: T, delay: u64) {
        let start = Instant::now();
        self.ctx.set_timer(timer, delay);
        self.timer.add(1, start);
    }
    fn cancel_timer(&mut self, _node: NodeId, timer: &T) {
        let start = Instant::now();
        self.ctx.cancel_timer(timer);
        self.timer.add(1, start);
    }
    fn set_timers(&mut self, _node: NodeId, timers: &mut dyn Iterator<Item = (T, u64)>) {
        let start = Instant::now();
        let mut n = 0;
        self.ctx.set_timers(timers.inspect(|_| n += 1));
        self.timer.add(n, start);
    }
    fn cancel_timers(&mut self, _node: NodeId, timers: &mut dyn Iterator<Item = T>) {
        let start = Instant::now();
        let mut n = 0;
        self.ctx.cancel_timers(timers.inspect(|_| n += 1));
        self.timer.add(n, start);
    }
    fn structural_change(&mut self) {
        self.ctx.structural_change();
    }
    fn trace_note(&mut self, _node: NodeId, note: String) {
        self.ctx.trace(|| note);
    }
}
