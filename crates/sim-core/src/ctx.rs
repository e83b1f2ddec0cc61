//! What a protocol handler sees of the runtime it runs on: the object-safe
//! [`KernelOps`] capability trait and the per-event [`Ctx`] handle over it.

use crate::network::Network;
use crate::packet::Packet;
use crate::time::Time;
use hbh_topo::graph::NodeId;
use rand::rngs::StdRng;

/// Handler-side view of the kernel: the current node, the clock, the RNG,
/// routing lookups, and the action API (send / forward / deliver / timers).
pub struct Ctx<'a, M, T> {
    /// The node the current event fired at.
    pub node: NodeId,
    core: &'a mut dyn KernelOps<M, T>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Builds a handler context over any [`KernelOps`] backend. The
    /// simulation kernel uses this internally; alternative runtimes (e.g.
    /// the UDP-backed `hbh-live`) use it to drive the same protocol code.
    pub fn from_ops(node: NodeId, core: &'a mut dyn KernelOps<M, T>) -> Self {
        Ctx { node, core }
    }
}

/// The capability surface protocol handlers run against, object-safe.
///
/// The simulation [`crate::Kernel`] holds the canonical implementation, but
/// the trait is public so the *same protocol engines* can run over other
/// backends — `hbh-live` implements it with real UDP sockets and
/// wall-clock timers. Implementors provide: a clock, a routing view, an
/// RNG, transmission (routed, link-local, and transit forwarding),
/// application delivery, keyed timers, and bookkeeping hooks.
pub trait KernelOps<M, T> {
    /// Current time (simulated or wall-clock-derived).
    fn now(&self) -> Time;
    /// The frozen topology + unicast routing view.
    fn net(&self) -> &Network;
    /// Seeded RNG for protocol-side randomness.
    fn rng(&mut self) -> &mut StdRng;
    /// Originates `pkt` at `from`, routed toward `pkt.dst`.
    fn send(&mut self, from: NodeId, pkt: Packet<M>);
    /// Transmits directly on the link `from → via` (no routing).
    fn send_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>);
    /// Forwards a transit packet one hop (TTL-decrementing).
    fn forward(&mut self, from: NodeId, pkt: Packet<M>);
    /// Records an application-level delivery at `node`.
    fn deliver(&mut self, node: NodeId, pkt_tag: u64, injected_at: Time);
    /// Arms (or re-arms, superseding) a keyed timer at `node`.
    fn set_timer(&mut self, node: NodeId, timer: T, delay: u64);
    /// Cancels a pending timer (no-op if not armed).
    fn cancel_timer(&mut self, node: NodeId, timer: &T);
    /// Arms a batch of keyed timers at `node`: [`KernelOps::set_timer`]
    /// per entry, in iterator order, behind one virtual dispatch.
    fn set_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = (T, u64)>) {
        for (timer, delay) in timers {
            self.set_timer(node, timer, delay);
        }
    }
    /// Cancels a batch of pending timers (per-entry no-op if not armed),
    /// the batched counterpart of [`KernelOps::cancel_timer`].
    fn cancel_timers(&mut self, node: NodeId, timers: &mut dyn Iterator<Item = T>) {
        for timer in timers {
            self.cancel_timer(node, &timer);
        }
    }
    /// Notes a structural protocol-state change (churn accounting).
    fn structural_change(&mut self);
    /// Whether a trace sink is listening: [`Ctx::trace`] builds its note
    /// only when this is true. Defaults to `true`, so a backend that does
    /// not say still receives every note.
    fn tracing(&self) -> bool {
        true
    }
    /// Appends a free-form trace annotation.
    fn trace_note(&mut self, node: NodeId, note: String);
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// The frozen network (topology + unicast routing).
    pub fn net(&self) -> &Network {
        self.core.net()
    }

    /// The kernel's seeded RNG (e.g. for timer jitter).
    pub fn rng(&mut self) -> &mut StdRng {
        self.core.rng()
    }

    /// Originates `pkt` at this node (fresh TTL assumed already set).
    pub fn send(&mut self, pkt: Packet<M>) {
        self.core.send(self.node, pkt);
    }

    /// Transmits `pkt` directly on the link to the neighbor `via`,
    /// bypassing unicast routing (interface-directed forwarding, used by
    /// PIM's per-oif replication). Panics if `via` is not a neighbor.
    pub fn send_link(&mut self, via: NodeId, pkt: Packet<M>) {
        self.core.send_link(self.node, via, pkt);
    }

    /// Forwards a transit packet one hop toward its destination,
    /// decrementing the TTL.
    pub fn forward(&mut self, pkt: Packet<M>) {
        self.core.forward(self.node, pkt);
    }

    /// Records an application-level delivery of (a copy of) probe
    /// `pkt.tag` at this node.
    pub fn deliver(&mut self, pkt: &Packet<M>) {
        self.core.deliver(self.node, pkt.tag, pkt.injected_at);
    }

    /// Arms (or re-arms) a timer at this node. An earlier pending instance
    /// of the same timer is superseded.
    pub fn set_timer(&mut self, timer: T, delay: u64) {
        self.core.set_timer(self.node, timer, delay);
    }

    /// Cancels a pending timer (no-op if not armed).
    pub fn cancel_timer(&mut self, timer: &T) {
        self.core.cancel_timer(self.node, timer);
    }

    /// Arms a batch of timers at this node in one kernel call (iterator
    /// order; each entry supersedes an earlier pending instance of the
    /// same timer, exactly like [`Ctx::set_timer`]). Use this when one
    /// event arms many timers — e.g. a membership storm arming thousands
    /// of refresh timers — to pay one dispatch instead of N.
    pub fn set_timers<I>(&mut self, timers: I)
    where
        I: IntoIterator<Item = (T, u64)>,
    {
        let mut it = timers.into_iter();
        self.core.set_timers(self.node, &mut it);
    }

    /// Cancels a batch of pending timers at this node in one kernel call
    /// (per-entry no-op if not armed).
    pub fn cancel_timers<I>(&mut self, timers: I)
    where
        I: IntoIterator<Item = T>,
    {
        let mut it = timers.into_iter();
        self.core.cancel_timers(self.node, &mut it);
    }

    /// Notes a structural state change (table entry added/removed, flag
    /// flipped) for churn accounting and quiescence detection.
    pub fn structural_change(&mut self) {
        self.core.structural_change();
    }

    /// Appends a free-form note to the trace (no-op unless tracing is on).
    pub fn trace(&mut self, note: impl FnOnce() -> String) {
        // Building the string is the expensive part, so only do it when a
        // sink exists.
        if self.core.tracing() {
            self.core.trace_note(self.node, note());
        }
    }
}
