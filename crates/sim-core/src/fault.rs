//! Scheduled fault injection: link outages and node crashes, replayed
//! deterministically.
//!
//! A [`FaultEvent`] says *what* fails; [`crate::Kernel::schedule_fault`]
//! (which `hbh_proto_base::Script` calls for its fault entries) says
//! *when*. The kernel keeps dense per-edge/per-node availability masks
//! consulted at the transmit and arrival points, next to the packet-loss
//! settings. Until a fault fires or a loss is set the kernel keeps its
//! historical behaviour bit-for-bit: no masks exist, no RNG draws happen,
//! and figure outputs stay byte-identical.
//!
//! Semantics (mirroring how real outages interact with the paper's model):
//!
//! * **Link down** removes *both* directions of a link: packets already
//!   committed to the link are unaffected (they left before the cut), new
//!   transmissions are dropped, and unicast routing instantly reconverges
//!   around the outage (the paper assumes a converged unicast substrate;
//!   we model its reconvergence as instantaneous, so every measured repair
//!   delay is attributable to the *multicast* protocol's soft state).
//! * **Node down** crashes a router or host: its protocol state and timers
//!   are wiped, arriving packets are dropped, and routing reconverges
//!   treating the node as absent. **Node up** restarts it with blank
//!   state — soft-state refreshes from the rest of the tree re-populate
//!   whatever role it still has.

use hbh_topo::graph::NodeId;

/// One scheduled topology fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Both directions of the link `a — b` go down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The link `a — b` is restored.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The node crashes: state wiped, timers cancelled, packets dropped.
    NodeDown(NodeId),
    /// The node restarts with blank protocol state.
    NodeUp(NodeId),
}
