//! One live node: a UDP socket, the protocol state machine, and a
//! [`KernelOps`] implementation backed by wall-clock time.

use hbh_proto_base::{Cmd, Timing};
use hbh_sim_core::{arrival, Arrival, Ctx, Delivery, KernelOps, Network, Packet, Protocol, Time};
use hbh_topo::graph::NodeId;
use hbh_wire::{decode_packet, encode_packet, Codec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;
use std::hash::Hash;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Millisecond-scale timing for live runs (1 time unit = 1 ms, so the
/// simulator defaults of 100-unit periods would mean 100 ms refreshes —
/// fine, but tests prefer faster convergence): 40 ms periods and
/// t2 = 220 ms (t1 = 110 ms) — converges in roughly a second.
pub const LIVE_TIMING: Timing = Timing {
    tree_period: 40,
    t2: 220,
};

/// Control-plane commands into a node thread.
pub enum LiveCmd {
    /// A protocol command (join/leave/send) for this node.
    Proto(Cmd),
    /// Crash the node: wipe protocol state and timers, then ignore all
    /// traffic and protocol commands until [`LiveCmd::Restart`]. The
    /// thread and socket stay up so the port is preserved — peers keep a
    /// valid address and their datagrams vanish, exactly like a rebooting
    /// router.
    Crash,
    /// Restart a crashed node with factory-fresh state.
    Restart,
    /// Stop the node thread.
    Shutdown,
}

/// The [`KernelOps`] backend for one live node.
struct LiveOps<M, T> {
    node: NodeId,
    net: Network,
    addr_book: HashMap<NodeId, SocketAddr>,
    socket: UdpSocket,
    epoch: Instant,
    rng: StdRng,
    deliveries: Sender<Delivery>,
    // Keyed timers with the same supersede/cancel semantics as the kernel.
    timer_ids: HashMap<T, u64>,
    timer_heap: BinaryHeap<Reverse<(Time, u64)>>,
    timer_payloads: HashMap<u64, T>,
    next_id: u64,
    _msg: std::marker::PhantomData<M>,
}

impl<M: Codec + Clone + Debug, T: Clone + Eq + Hash + Debug> LiveOps<M, T> {
    fn wall_now(&self) -> Time {
        Time(self.epoch.elapsed().as_millis() as u64)
    }

    fn transmit(&mut self, next: NodeId, pkt: &Packet<M>) {
        // A message too large for one datagram is not sent at all.
        if let (Some(addr), Ok(bytes)) = (self.addr_book.get(&next), encode_packet(pkt)) {
            // UDP send errors on loopback are not actionable; soft-state
            // refresh covers occasional losses exactly like on a real net.
            let _ = self.socket.send_to(&bytes, addr);
        }
    }

    /// Pops every due timer (validated against the supersede map).
    fn due_timers(&mut self) -> Vec<T> {
        let now = self.wall_now();
        let mut due = Vec::new();
        while let Some(&Reverse((at, id))) = self.timer_heap.peek() {
            if at > now {
                break;
            }
            self.timer_heap.pop();
            let Some(t) = self.timer_payloads.remove(&id) else {
                continue;
            };
            if self.timer_ids.get(&t) == Some(&id) {
                self.timer_ids.remove(&t);
                due.push(t);
            }
        }
        due
    }

    fn next_deadline(&self) -> Option<Time> {
        self.timer_heap.peek().map(|&Reverse((at, _))| at)
    }
}

impl<M, T> KernelOps<M, T> for LiveOps<M, T>
where
    M: Codec + Clone + Debug,
    T: Clone + Eq + Hash + Debug,
{
    fn now(&self) -> Time {
        self.wall_now()
    }

    fn net(&self) -> &Network {
        &self.net
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn send(&mut self, from: NodeId, pkt: Packet<M>) {
        debug_assert_eq!(from, self.node);
        if pkt.dst == from {
            // Loopback: hand the datagram to our own socket.
            self.transmit(from, &pkt);
            return;
        }
        if let Some((next, ..)) = self.net.hop(from, pkt.dst) {
            self.transmit(next, &pkt);
        }
    }

    fn send_link(&mut self, from: NodeId, via: NodeId, pkt: Packet<M>) {
        debug_assert_eq!(from, self.node);
        self.transmit(via, &pkt);
    }

    fn forward(&mut self, from: NodeId, mut pkt: Packet<M>) {
        if pkt.take_hop() {
            self.send(from, pkt);
        }
    }

    fn deliver(&mut self, node: NodeId, tag: u64, injected_at: Time) {
        let _ = self.deliveries.send(Delivery {
            node,
            at: self.wall_now(),
            tag,
            injected_at,
        });
    }

    fn set_timer(&mut self, node: NodeId, timer: T, delay: u64) {
        debug_assert_eq!(node, self.node);
        let id = self.next_id;
        self.next_id += 1;
        let at = self.wall_now() + delay;
        self.timer_ids.insert(timer.clone(), id);
        self.timer_payloads.insert(id, timer);
        self.timer_heap.push(Reverse((at, id)));
    }

    fn cancel_timer(&mut self, node: NodeId, timer: &T) {
        debug_assert_eq!(node, self.node);
        self.timer_ids.remove(timer);
    }

    fn structural_change(&mut self) {}

    fn tracing(&self) -> bool {
        false
    }

    fn trace_note(&mut self, _node: NodeId, _note: String) {}
}

/// Configuration handed to a node thread by the cluster.
pub(crate) struct NodeSetup {
    pub node: NodeId,
    pub net: Network,
    pub addr_book: HashMap<NodeId, SocketAddr>,
    pub socket: UdpSocket,
    pub deliveries: Sender<Delivery>,
    pub commands: Receiver<LiveCmd>,
    pub seed: u64,
}

/// Runs one node until shutdown: receive datagrams, fire timers, apply
/// commands — dispatching into the *unchanged* protocol implementation.
pub(crate) fn run_node<P>(proto: P, setup: NodeSetup)
where
    P: Protocol<Command = Cmd>,
    P::Msg: Codec,
{
    let NodeSetup {
        node,
        net,
        addr_book,
        socket,
        deliveries,
        commands,
        seed,
    } = setup;
    let mut state = P::NodeState::default();
    let mut ops: LiveOps<P::Msg, P::Timer> = LiveOps {
        node,
        net,
        addr_book,
        socket,
        epoch: Instant::now(),
        rng: StdRng::seed_from_u64(seed),
        deliveries,
        timer_ids: HashMap::new(),
        timer_heap: BinaryHeap::new(),
        timer_payloads: HashMap::new(),
        next_id: 0,
        _msg: std::marker::PhantomData,
    };
    let mut buf = [0u8; 64 * 1024];
    let mut crashed = false;
    loop {
        // 1. Commands from the harness.
        loop {
            match commands.try_recv() {
                Ok(LiveCmd::Proto(cmd)) if !crashed => {
                    let mut ctx = Ctx::from_ops(node, &mut ops);
                    proto.on_command(&mut state, cmd, &mut ctx);
                }
                Ok(LiveCmd::Proto(_)) => {} // a dead node takes no commands
                Ok(LiveCmd::Crash) => {
                    // Mirror the simulator's NodeDown: protocol state and
                    // pending timers are volatile, so recovery must come
                    // entirely from the neighbours' soft-state refreshes.
                    state = P::NodeState::default();
                    ops.timer_ids.clear();
                    ops.timer_heap.clear();
                    ops.timer_payloads.clear();
                    crashed = true;
                }
                Ok(LiveCmd::Restart) => crashed = false,
                Ok(LiveCmd::Shutdown) => return,
                Err(_) => break,
            }
        }
        // 2. Fire due timers.
        for timer in ops.due_timers() {
            let mut ctx = Ctx::from_ops(node, &mut ops);
            proto.on_timer(&mut state, timer, &mut ctx);
        }
        // 3. Wait for the next datagram, bounded by the next deadline.
        let now = ops.wall_now();
        let until_deadline = ops
            .next_deadline()
            .map(|d| d.since(now))
            .unwrap_or(20)
            .clamp(1, 20);
        let _ = ops
            .socket
            .set_read_timeout(Some(Duration::from_millis(until_deadline)));
        match ops.socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if crashed {
                    continue; // drain and discard: a dead node hears nothing
                }
                // Garbage, and ids naming no node of the graph, are
                // dropped here: nothing below ever sees them.
                let Ok(pkt) = decode_packet::<P::Msg>(&buf[..n], ops.net.node_count()) else {
                    continue;
                };
                match arrival(&ops.net, node, pkt.dst) {
                    Arrival::Engine => {
                        let mut ctx = Ctx::from_ops(node, &mut ops);
                        proto.on_packet(&mut state, pkt, &mut ctx);
                    }
                    Arrival::Transit => ops.forward(node, pkt),
                    Arrival::Drop(_) => {}
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return, // socket died: stop the node
        }
    }
}
