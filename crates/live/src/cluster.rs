//! Cluster harness: binds one UDP socket per graph node, spawns one thread
//! per node running the protocol, and exposes command/delivery channels.

use crate::node::{run_node, LiveCmd, NodeSetup};
use hbh_proto_base::{Cmd, Script, ScriptAction};
use hbh_sim_core::{Delivery, FaultEvent, Network, Protocol};
use hbh_topo::graph::{Graph, NodeId};
use hbh_wire::Codec;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running cluster of live nodes over loopback UDP.
pub struct Cluster {
    commands: HashMap<NodeId, Sender<LiveCmd>>,
    deliveries: Receiver<Delivery>,
    handles: Vec<JoinHandle<()>>,
    /// Node → bound address, for inspection.
    pub addresses: HashMap<NodeId, SocketAddr>,
}

impl Cluster {
    /// Binds every node to an ephemeral loopback port and spawns its
    /// thread. `make_proto` is called once per node (protocols are cheap
    /// config structs).
    pub fn launch<P, F>(graph: Graph, make_proto: F) -> std::io::Result<Cluster>
    where
        P: Protocol<Command = Cmd> + Send + 'static,
        P::Msg: Codec,
        P::NodeState: Send,
        F: Fn() -> P,
    {
        let net = Network::new(graph);
        // Bind all sockets first so the full address book exists before
        // any node starts talking.
        let mut sockets = Vec::new();
        let mut addr_book = HashMap::new();
        for node in net.graph().nodes() {
            let socket = UdpSocket::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
            addr_book.insert(node, socket.local_addr()?);
            sockets.push((node, socket));
        }
        let (dl_tx, dl_rx) = channel();
        let mut commands = HashMap::new();
        let mut handles = Vec::new();
        for (node, socket) in sockets {
            let (cmd_tx, cmd_rx) = channel();
            commands.insert(node, cmd_tx);
            let setup = NodeSetup {
                node,
                net: net.clone(),
                addr_book: addr_book.clone(),
                socket,
                deliveries: dl_tx.clone(),
                commands: cmd_rx,
                seed: 0x11FE ^ u64::from(node.0),
            };
            let proto = make_proto();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hbh-live-{node}"))
                    .spawn(move || run_node(proto, setup))?,
            );
        }
        Ok(Cluster {
            commands,
            deliveries: dl_rx,
            handles,
            addresses: addr_book,
        })
    }

    /// Sends a protocol command to a node's thread.
    pub fn command(&self, node: NodeId, cmd: Cmd) {
        if let Some(tx) = self.commands.get(&node) {
            let _ = tx.send(LiveCmd::Proto(cmd));
        }
    }

    /// Crashes a node: its protocol state and timers are wiped and it
    /// ignores all traffic until [`Cluster::restart`]. The socket stays
    /// bound, so in-flight datagrams vanish like on a rebooting router.
    pub fn crash(&self, node: NodeId) {
        if let Some(tx) = self.commands.get(&node) {
            let _ = tx.send(LiveCmd::Crash);
        }
    }

    /// Restarts a crashed node with factory-fresh state.
    pub fn restart(&self, node: NodeId) {
        if let Some(tx) = self.commands.get(&node) {
            let _ = tx.send(LiveCmd::Restart);
        }
    }

    /// Replays a [`Script`] against the cluster in wall-clock time: one
    /// script time unit = one millisecond (matching [`crate::LIVE_TIMING`]).
    /// Entries are applied in time order; commands go to their node's
    /// thread, node faults become [`Cluster::crash`]/[`Cluster::restart`].
    /// Blocks until the last entry has been issued.
    ///
    /// The same `Script` drives [`hbh_sim_core::Kernel`] via
    /// [`Script::schedule`], which is exactly the point: one scenario
    /// description, two backends.
    ///
    /// # Panics
    ///
    /// On link faults — the live backend has no per-link switch (loopback
    /// UDP has no links to cut); crash the adjacent node instead.
    pub fn run_script(&self, script: &Script) {
        let start = Instant::now();
        for (at, action) in script.sorted_entries() {
            let due = start + Duration::from_millis(at.0);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            match action {
                ScriptAction::Command(node, cmd) => self.command(node, cmd),
                ScriptAction::Fault(FaultEvent::NodeDown(n)) => self.crash(n),
                ScriptAction::Fault(FaultEvent::NodeUp(n)) => self.restart(n),
                ScriptAction::Fault(ev) => {
                    panic!("live cluster cannot apply link fault {ev:?}")
                }
            }
        }
    }

    /// Blocks for the next application-level delivery.
    pub fn wait_delivery(&self, timeout: Duration) -> Option<Delivery> {
        self.deliveries.recv_timeout(timeout).ok()
    }

    /// Collects deliveries until `count` arrive or `timeout` elapses.
    pub fn wait_deliveries(&self, count: usize, timeout: Duration) -> Vec<Delivery> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while out.len() < count {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.deliveries.recv_timeout(left) {
                Ok(d) => out.push(d),
                Err(_) => break,
            }
        }
        out
    }

    /// Stops every node thread and joins them.
    pub fn shutdown(self) {
        for tx in self.commands.values() {
            let _ = tx.send(LiveCmd::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}
