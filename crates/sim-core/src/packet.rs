//! Packets: the unit of everything that crosses a link.
//!
//! Both the control plane (join / tree / fusion messages) and the data
//! plane are ordinary unicast packets — that is the whole premise of the
//! recursive-unicast approach. The kernel only looks at the destination,
//! the class (for accounting) and the TTL; the payload is opaque
//! protocol-defined data.

use crate::time::Time;
use hbh_topo::graph::NodeId;

/// Traffic class, used for per-link accounting.
///
/// The paper's tree-cost metric counts **data** copies only; control
/// traffic is accounted separately (and reported by the protocol-overhead
/// ablation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PacketClass {
    /// Protocol signalling (joins, trees, fusions).
    Control,
    /// Channel payload.
    Data,
}

/// Default TTL. Large enough for any path in the experiment topologies
/// (diameter ≤ 10 hops) while still catching forwarding loops quickly.
pub const DEFAULT_TTL: u8 = 64;

/// A unicast packet in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet<M> {
    /// The node that *originated* the packet (not the previous hop).
    pub src: NodeId,
    /// Unicast destination. Forwarding consults the routing tables for
    /// `next_hop(here, dst)` at every hop — unicast-only routers can do
    /// this, which is what lets the multicast tree cross them.
    pub dst: NodeId,
    /// Remaining hops before the kernel drops the packet.
    pub ttl: u8,
    /// Accounting class.
    pub class: PacketClass,
    /// Experiment tag: data probes carry an id so deliveries and link
    /// copies can be attributed to one injected packet. Protocol code must
    /// preserve the tag when it creates modified copies (use
    /// [`Packet::copy_to`]).
    pub tag: u64,
    /// When the original packet (tag lineage) was injected; preserved by
    /// [`Packet::copy_to`] so receiver delay = arrival − `injected_at`.
    pub injected_at: Time,
    /// Protocol payload.
    pub payload: M,
}

impl<M> Packet<M> {
    /// A fresh control packet from `src` to `dst`.
    pub fn control(src: NodeId, dst: NodeId, payload: M) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            class: PacketClass::Control,
            tag: 0,
            injected_at: Time::ZERO,
            payload,
        }
    }

    /// A fresh data packet from `src` to `dst`, tagged for accounting.
    pub fn data(src: NodeId, dst: NodeId, tag: u64, injected_at: Time, payload: M) -> Self {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            class: PacketClass::Data,
            tag,
            injected_at,
            payload,
        }
    }

    /// Spends one hop of the TTL: `false`, the packet unchanged, when
    /// none is left and the forwarder must drop it. The one TTL step of
    /// both runtimes' `KernelOps::forward`.
    #[inline]
    pub fn take_hop(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        true
    }

    /// The recursive-unicast "modified copy": same origin, class, tag and
    /// lineage timestamp, fresh TTL, new unicast destination. This is the
    /// operation a branching node performs for each forwarding-table entry.
    pub fn copy_to(&self, dst: NodeId) -> Self
    where
        M: Clone,
    {
        Packet {
            src: self.src,
            dst,
            ttl: DEFAULT_TTL,
            class: self.class,
            tag: self.tag,
            injected_at: self.injected_at,
            payload: self.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_packets_default_fields() {
        let p = Packet::control(NodeId(1), NodeId(2), "hello");
        assert_eq!(p.class, PacketClass::Control);
        assert_eq!(p.ttl, DEFAULT_TTL);
        assert_eq!(p.tag, 0);
    }

    #[test]
    fn data_packets_carry_tag_and_lineage() {
        let p = Packet::data(NodeId(1), NodeId(2), 7, Time(42), ());
        assert_eq!(p.class, PacketClass::Data);
        assert_eq!(p.tag, 7);
        assert_eq!(p.injected_at, Time(42));
    }

    #[test]
    fn take_hop_spends_the_ttl_down_to_zero() {
        let mut p = Packet::control(NodeId(1), NodeId(2), ());
        p.ttl = 1;
        assert!(p.take_hop());
        assert_eq!(p.ttl, 0);
        assert!(!p.take_hop());
        assert_eq!(p.ttl, 0);
    }

    #[test]
    fn copy_to_preserves_lineage_and_resets_ttl() {
        let mut p = Packet::data(NodeId(1), NodeId(2), 7, Time(42), "payload");
        p.ttl = 3;
        let c = p.copy_to(NodeId(9));
        assert_eq!(c.dst, NodeId(9));
        assert_eq!(c.src, NodeId(1));
        assert_eq!(c.tag, 7);
        assert_eq!(c.injected_at, Time(42));
        assert_eq!(c.ttl, DEFAULT_TTL);
        assert_eq!(c.payload, "payload");
    }
}
