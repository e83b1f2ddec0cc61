//! Datagram envelope: the kernel's [`Packet`] metadata followed by the
//! `hbh-wire` encoding of the protocol message.
//!
//! ```text
//! src u32 | dst u32 | ttl u8 | class u8 | tag u64 | injected_at u64 | wire msg …
//! ```

use hbh_sim_core::{Packet, PacketClass, Time};
use hbh_wire::format::Reader;
use hbh_wire::{decode as wire_decode, encode as wire_encode, WireMsg};

/// Envelope header length in bytes.
pub const ENVELOPE_LEN: usize = 4 + 4 + 1 + 1 + 8 + 8;

/// Protocol messages that have a wire form (HBH and REUNITE here; PIM's
/// data plane needs interface-directed forwarding that plain UDP unicast
/// between processes doesn't model, which is exactly the paper's point).
pub trait LiveMsg: Sized {
    /// This message in its wire representation.
    fn to_wire(&self) -> WireMsg;
    /// Parses back from the wire representation (None: wrong family).
    fn from_wire(w: WireMsg) -> Option<Self>;
}

impl LiveMsg for hbh_proto::HbhMsg {
    fn to_wire(&self) -> WireMsg {
        WireMsg::Hbh(self.clone())
    }
    fn from_wire(w: WireMsg) -> Option<Self> {
        match w {
            WireMsg::Hbh(m) => Some(m),
            _ => None,
        }
    }
}

impl LiveMsg for hbh_proto::HardMsg {
    fn to_wire(&self) -> WireMsg {
        WireMsg::HbhHard(self.clone())
    }
    fn from_wire(w: WireMsg) -> Option<Self> {
        match w {
            WireMsg::HbhHard(m) => Some(m),
            _ => None,
        }
    }
}

impl LiveMsg for hbh_reunite::ReuniteMsg {
    fn to_wire(&self) -> WireMsg {
        WireMsg::Reunite(*self)
    }
    fn from_wire(w: WireMsg) -> Option<Self> {
        match w {
            WireMsg::Reunite(m) => Some(m),
            _ => None,
        }
    }
}

/// Serializes a packet into one UDP datagram.
pub fn encode_packet<M: LiveMsg>(pkt: &Packet<M>) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + 32);
    out.extend_from_slice(&pkt.src.0.to_be_bytes());
    out.extend_from_slice(&pkt.dst.0.to_be_bytes());
    out.push(pkt.ttl);
    out.push(match pkt.class {
        PacketClass::Control => 0,
        PacketClass::Data => 1,
    });
    out.extend_from_slice(&pkt.tag.to_be_bytes());
    out.extend_from_slice(&pkt.injected_at.0.to_be_bytes());
    out.extend_from_slice(&wire_encode(&pkt.payload.to_wire()));
    out
}

/// Parses one UDP datagram back into a packet, in a network of `nodes`
/// nodes. `None` on any malformation, a node id at or above `nodes`
/// included (a live node drops garbage, it doesn't crash).
pub fn decode_packet<M: LiveMsg>(buf: &[u8], nodes: usize) -> Option<Packet<M>> {
    let (envelope, msg) = buf.split_at_checked(ENVELOPE_LEN)?;
    let mut r = Reader::new(envelope, nodes);
    let src = r.node().ok()?;
    let dst = r.node().ok()?;
    let ttl = r.u8().ok()?;
    let class = match r.u8().ok()? {
        0 => PacketClass::Control,
        1 => PacketClass::Data,
        _ => return None,
    };
    let tag = r.u64().ok()?;
    let injected_at = Time(r.u64().ok()?);
    let payload = M::from_wire(wire_decode(msg, nodes).ok()?)?;
    Some(Packet {
        src,
        dst,
        ttl,
        class,
        tag,
        injected_at,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_proto::HbhMsg;
    use hbh_proto_base::Channel;
    use hbh_topo::graph::NodeId;

    /// One more than the largest node id the sample names.
    const NODES: usize = 10;

    fn sample() -> Packet<HbhMsg> {
        let ch = Channel::primary(NodeId(3));
        let mut p = Packet::data(NodeId(3), NodeId(9), 42, Time(17), HbhMsg::Data { ch });
        p.ttl = 7;
        p
    }

    #[test]
    fn packet_roundtrip() {
        let p = sample();
        let q: Packet<HbhMsg> = decode_packet(&encode_packet(&p), NODES).unwrap();
        assert_eq!(
            (q.src, q.dst, q.ttl, q.class, q.tag, q.injected_at),
            (p.src, p.dst, p.ttl, p.class, p.tag, p.injected_at)
        );
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(decode_packet::<HbhMsg>(&[], NODES).is_none());
        assert!(decode_packet::<HbhMsg>(&[0u8; 10], NODES).is_none());
        let mut bytes = encode_packet(&sample());
        bytes[9] = 9; // bad class
        assert!(decode_packet::<HbhMsg>(&bytes, NODES).is_none());
        let mut bytes = encode_packet(&sample());
        bytes.truncate(ENVELOPE_LEN + 3);
        assert!(decode_packet::<HbhMsg>(&bytes, NODES).is_none());
    }

    #[test]
    fn unknown_envelope_nodes_are_rejected() {
        let bytes = encode_packet(&sample());
        assert!(decode_packet::<HbhMsg>(&bytes, NODES).is_some());
        // dst 9 is out of a 9-node network.
        assert!(decode_packet::<HbhMsg>(&bytes, 9).is_none());
    }

    #[test]
    fn wrong_protocol_family_is_rejected() {
        let p = sample();
        let bytes = encode_packet(&p);
        assert!(decode_packet::<hbh_reunite::ReuniteMsg>(&bytes, NODES).is_none());
    }
}
