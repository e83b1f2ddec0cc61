//! Datagram encode/decode over the formats of [`crate::format`]: the
//! envelope and header here, each protocol family's bodies in its
//! [`Codec`] impl. The decoders read fields inside struct literals, which
//! Rust evaluates in the order written: the order of the body.

use crate::format::{flags, MsgType, Reader, Writer, HEADER_LEN, MAGIC, MAX_BODY, VERSION};
use hbh_proto::{HardCtl, HardMsg, HbhMsg};
use hbh_reunite::ReuniteMsg;
use hbh_sim_core::{Packet, PacketClass, Time};

/// Decode failure. Decoding arbitrary bytes returns one of these — never
/// panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than an envelope and header or than the advertised
    /// body.
    Truncated,
    /// Envelope class byte is neither control (0) nor data (1).
    BadClass(u8),
    /// First header byte is not [`MAGIC`].
    BadMagic(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message type byte, or a type of another protocol family.
    BadType(u8),
    /// Flag bits outside [`flags::KNOWN`], or a flag on a message that
    /// cannot carry it.
    BadFlags(u8),
    /// Nonzero reserved field.
    BadReserved,
    /// Body length exceeds [`MAX_BODY`]: refused on encode, rejected on
    /// decode.
    OversizedBody(usize),
    /// Body bytes left over after the message was parsed.
    TrailingBytes(usize),
    /// A list length field is inconsistent with the body size.
    BadListLength,
    /// A node id at or above the network's node count.
    UnknownNode(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadClass(c) => write!(f, "unknown packet class {c}"),
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::BadFlags(x) => write!(f, "invalid flags {x:#010b}"),
            WireError::BadReserved => write!(f, "nonzero reserved field"),
            WireError::OversizedBody(n) => write!(f, "body of {n} bytes exceeds cap"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after body"),
            WireError::BadListLength => write!(f, "list length inconsistent with body"),
            WireError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A protocol family with a wire form: its messages' bodies, written and
/// read back. [`encode_packet`] and [`decode_packet`] frame them in the
/// envelope and header.
pub trait Codec: Sized {
    /// Writes this message's body to `w` and returns the header's type
    /// and flag bits.
    fn encode_body(&self, w: &mut Writer) -> (MsgType, u8);

    /// Reads the body of a message whose header names `ty` and
    /// `flag_bits`: a type of another family is [`WireError::BadType`],
    /// a flag the type cannot carry [`WireError::BadFlags`].
    fn decode_body(ty: MsgType, flag_bits: u8, r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// `flag_bits`, if it sets nothing outside `allowed`.
fn allow(flag_bits: u8, allowed: u8) -> Result<u8, WireError> {
    if flag_bits & !allowed != 0 {
        return Err(WireError::BadFlags(flag_bits));
    }
    Ok(flag_bits)
}

/// `flag` if `on`, else no bits.
fn bit(on: bool, flag: u8) -> u8 {
    if on {
        flag
    } else {
        0
    }
}

impl Codec for HbhMsg {
    fn encode_body(&self, w: &mut Writer) -> (MsgType, u8) {
        match self {
            HbhMsg::Join { ch, who, initial } => {
                w.channel(*ch);
                w.node(*who);
                (MsgType::HbhJoin, bit(*initial, flags::INITIAL))
            }
            HbhMsg::Tree { ch, target } => {
                w.channel(*ch);
                w.node(*target);
                (MsgType::HbhTree, 0)
            }
            HbhMsg::Fusion { ch, from, nodes } => {
                w.channel(*ch);
                w.node(*from);
                w.nodes(nodes);
                (MsgType::HbhFusion, 0)
            }
            HbhMsg::Data { ch } => {
                w.channel(*ch);
                (MsgType::HbhData, 0)
            }
        }
    }

    fn decode_body(ty: MsgType, flag_bits: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match ty {
            MsgType::HbhJoin => HbhMsg::Join {
                initial: allow(flag_bits, flags::INITIAL)? != 0,
                ch: r.channel()?,
                who: r.node()?,
            },
            MsgType::HbhTree => {
                allow(flag_bits, 0)?;
                HbhMsg::Tree {
                    ch: r.channel()?,
                    target: r.node()?,
                }
            }
            MsgType::HbhFusion => {
                allow(flag_bits, 0)?;
                HbhMsg::Fusion {
                    ch: r.channel()?,
                    from: r.node()?,
                    nodes: r.nodes()?,
                }
            }
            MsgType::HbhData => {
                allow(flag_bits, 0)?;
                HbhMsg::Data { ch: r.channel()? }
            }
            _ => return Err(WireError::BadType(ty as u8)),
        })
    }
}

impl Codec for HardMsg {
    fn encode_body(&self, w: &mut Writer) -> (MsgType, u8) {
        match self {
            HardMsg::Ctl { origin, seq, ctl } => {
                // Common reliability header, then the per-kind body.
                w.node(*origin);
                w.u64(*seq);
                w.channel(ctl.channel());
                match ctl {
                    HardCtl::Join { who, failed, .. } => {
                        w.node(*who);
                        if let Some(dead) = failed {
                            w.node(*dead);
                        }
                        (MsgType::HbhHardJoin, bit(failed.is_some(), flags::FAILED))
                    }
                    HardCtl::Leave { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardLeave, 0)
                    }
                    HardCtl::Prune { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardPrune, 0)
                    }
                    HardCtl::Tree { target, .. } => {
                        w.node(*target);
                        (MsgType::HbhHardTree, 0)
                    }
                    HardCtl::Fusion { from, nodes, .. } => {
                        w.node(*from);
                        w.nodes(nodes);
                        (MsgType::HbhHardFusion, 0)
                    }
                    HardCtl::Probe { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardProbe, 0)
                    }
                }
            }
            HardMsg::Ack {
                origin,
                seq,
                by,
                known,
                server,
            } => {
                w.node(*origin);
                w.u64(*seq);
                w.node(*by);
                if let Some(srv) = server {
                    w.node(*srv);
                }
                let bits = bit(*known, flags::SERVES) | bit(server.is_some(), flags::REDIRECT);
                (MsgType::HbhHardAck, bits)
            }
            HardMsg::Data { ch } => {
                w.channel(*ch);
                (MsgType::HbhHardData, 0)
            }
        }
    }

    fn decode_body(ty: MsgType, flag_bits: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match ty {
            MsgType::HbhHardJoin
            | MsgType::HbhHardLeave
            | MsgType::HbhHardPrune
            | MsgType::HbhHardTree
            | MsgType::HbhHardFusion
            | MsgType::HbhHardProbe => {
                let only_join = if ty == MsgType::HbhHardJoin {
                    flags::FAILED
                } else {
                    0
                };
                let failed = allow(flag_bits, only_join)? != 0;
                let origin = r.node()?;
                let seq = r.u64()?;
                let ch = r.channel()?;
                let ctl = match ty {
                    MsgType::HbhHardJoin => HardCtl::Join {
                        ch,
                        who: r.node()?,
                        failed: if failed { Some(r.node()?) } else { None },
                    },
                    MsgType::HbhHardLeave => HardCtl::Leave { ch, who: r.node()? },
                    MsgType::HbhHardPrune => HardCtl::Prune { ch, who: r.node()? },
                    MsgType::HbhHardTree => HardCtl::Tree {
                        ch,
                        target: r.node()?,
                    },
                    MsgType::HbhHardFusion => HardCtl::Fusion {
                        ch,
                        from: r.node()?,
                        nodes: r.nodes()?,
                    },
                    _ => HardCtl::Probe { ch, who: r.node()? },
                };
                HardMsg::Ctl { origin, seq, ctl }
            }
            MsgType::HbhHardAck => {
                let bits = allow(flag_bits, flags::SERVES | flags::REDIRECT)?;
                HardMsg::Ack {
                    origin: r.node()?,
                    seq: r.u64()?,
                    by: r.node()?,
                    known: bits & flags::SERVES != 0,
                    server: if bits & flags::REDIRECT != 0 {
                        Some(r.node()?)
                    } else {
                        None
                    },
                }
            }
            MsgType::HbhHardData => {
                allow(flag_bits, 0)?;
                HardMsg::Data { ch: r.channel()? }
            }
            _ => return Err(WireError::BadType(ty as u8)),
        })
    }
}

impl Codec for ReuniteMsg {
    fn encode_body(&self, w: &mut Writer) -> (MsgType, u8) {
        match *self {
            ReuniteMsg::Join {
                ch,
                receiver,
                fresh,
            } => {
                w.channel(ch);
                w.node(receiver);
                (MsgType::ReuniteJoin, bit(fresh, flags::INITIAL))
            }
            ReuniteMsg::Tree {
                ch,
                receiver,
                marked,
            } => {
                w.channel(ch);
                w.node(receiver);
                (MsgType::ReuniteTree, bit(marked, flags::MARKED))
            }
            ReuniteMsg::Data { ch } => {
                w.channel(ch);
                (MsgType::ReuniteData, 0)
            }
        }
    }

    fn decode_body(ty: MsgType, flag_bits: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match ty {
            MsgType::ReuniteJoin => ReuniteMsg::Join {
                fresh: allow(flag_bits, flags::INITIAL)? != 0,
                ch: r.channel()?,
                receiver: r.node()?,
            },
            MsgType::ReuniteTree => ReuniteMsg::Tree {
                marked: allow(flag_bits, flags::MARKED)? != 0,
                ch: r.channel()?,
                receiver: r.node()?,
            },
            MsgType::ReuniteData => {
                allow(flag_bits, 0)?;
                ReuniteMsg::Data { ch: r.channel()? }
            }
            _ => return Err(WireError::BadType(ty as u8)),
        })
    }
}

/// Serializes `pkt` into one UDP datagram: envelope, header, body. A body
/// over [`MAX_BODY`] does not fit one datagram and is
/// [`WireError::OversizedBody`].
///
/// ```
/// use hbh_proto::HbhMsg;
/// use hbh_proto_base::Channel;
/// use hbh_sim_core::Packet;
/// use hbh_topo::graph::NodeId;
/// use hbh_wire::{decode_packet, encode_packet};
///
/// let ch = Channel::primary(NodeId(18));
/// let tree = HbhMsg::Tree { ch, target: NodeId(3) };
/// let pkt = Packet::control(NodeId(18), NodeId(3), tree.clone());
/// let bytes = encode_packet(&pkt).unwrap();
/// let back = decode_packet::<HbhMsg>(&bytes, 19).unwrap();
/// assert_eq!((back.src, back.dst, back.payload), (pkt.src, pkt.dst, tree));
/// ```
pub fn encode_packet<M: Codec>(pkt: &Packet<M>) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.node(pkt.src);
    w.node(pkt.dst);
    w.u8(pkt.ttl);
    w.u8(match pkt.class {
        PacketClass::Control => 0,
        PacketClass::Data => 1,
    });
    w.u64(pkt.tag);
    w.u64(pkt.injected_at.0);
    let header = w.len();
    w.u8(MAGIC);
    w.u8(VERSION);
    w.u16(0); // type and flags, patched once the body is written
    w.u16(0); // body length, likewise
    w.u16(0); // reserved
    let (ty, flag_bits) = pkt.payload.encode_body(&mut w);
    let len = w.len() - header - HEADER_LEN;
    if len > MAX_BODY {
        return Err(WireError::OversizedBody(len));
    }
    w.patch(header + 2, &[ty as u8, flag_bits]);
    w.patch(header + 4, &(len as u16).to_be_bytes());
    Ok(w.into_bytes())
}

/// Parses one UDP datagram, which must hold exactly one packet of family
/// `M`, sent in a network of `nodes` nodes. The one decode entry: any
/// malformation is an error, never a panic — a node id at or above
/// `nodes` ([`WireError::UnknownNode`]), a message of another family, a
/// byte missing or left over.
pub fn decode_packet<M: Codec>(buf: &[u8], nodes: usize) -> Result<Packet<M>, WireError> {
    let mut r = Reader::new(buf, nodes);
    let src = r.node()?;
    let dst = r.node()?;
    let ttl = r.u8()?;
    let class = match r.u8()? {
        0 => PacketClass::Control,
        1 => PacketClass::Data,
        c => return Err(WireError::BadClass(c)),
    };
    let tag = r.u64()?;
    let injected_at = Time(r.u64()?);
    match r.u8()? {
        MAGIC => {}
        b => return Err(WireError::BadMagic(b)),
    }
    match r.u8()? {
        VERSION => {}
        v => return Err(WireError::BadVersion(v)),
    }
    let ty = r.u8()?;
    let ty = MsgType::from_byte(ty).ok_or(WireError::BadType(ty))?;
    let flag_bits = allow(r.u8()?, flags::KNOWN)?;
    let len = usize::from(r.u16()?);
    if len > MAX_BODY {
        return Err(WireError::OversizedBody(len));
    }
    if r.u16()? != 0 {
        return Err(WireError::BadReserved);
    }
    let mut body = r.body(len)?;
    let payload = M::decode_body(ty, flag_bits, &mut body)?;
    body.finish()?;
    r.finish()?;
    Ok(Packet {
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
    use crate::format::ENVELOPE_LEN;
    use hbh_proto_base::{Channel, GroupAddr};
    use hbh_topo::graph::NodeId;
    use std::fmt::Debug;

    /// One more than the largest node id the samples name.
    const NODES: usize = 19;

    /// Where a datagram's message header starts.
    const H: usize = ENVELOPE_LEN;

    fn ch() -> Channel {
        Channel::new(NodeId(18), GroupAddr(7))
    }

    /// `msg` in a control datagram from node 1 to node 2.
    fn datagram<M: Codec>(msg: M) -> Vec<u8> {
        encode_packet(&Packet::control(NodeId(1), NodeId(2), msg)).unwrap()
    }

    /// The message of a datagram decoded in a network of `nodes` nodes.
    fn decode<M: Codec>(bytes: &[u8], nodes: usize) -> Result<M, WireError> {
        decode_packet(bytes, nodes).map(|p| p.payload)
    }

    fn hbh_samples() -> Vec<HbhMsg> {
        vec![
            HbhMsg::Join {
                ch: ch(),
                who: NodeId(3),
                initial: true,
            },
            HbhMsg::Join {
                ch: ch(),
                who: NodeId(3),
                initial: false,
            },
            HbhMsg::Tree {
                ch: ch(),
                target: NodeId(9),
            },
            HbhMsg::Fusion {
                ch: ch(),
                from: NodeId(5),
                nodes: [NodeId(1), NodeId(2), NodeId(3)].into(),
            },
            HbhMsg::Fusion {
                ch: ch(),
                from: NodeId(5),
                nodes: [].into(),
            },
            HbhMsg::Data { ch: ch() },
        ]
    }

    fn hard_samples() -> Vec<HardMsg> {
        let ctl = |origin: u32, seq: u64, ctl: HardCtl| HardMsg::Ctl {
            origin: NodeId(origin),
            seq,
            ctl,
        };
        let ack = |seq: u64, known: bool, server: Option<NodeId>| HardMsg::Ack {
            origin: NodeId(9),
            seq,
            by: NodeId(5),
            known,
            server,
        };
        vec![
            ctl(
                3,
                0x0102_0304_0506_0708,
                HardCtl::Join {
                    ch: ch(),
                    who: NodeId(3),
                    failed: Some(NodeId(12)),
                },
            ),
            ctl(
                3,
                1,
                HardCtl::Join {
                    ch: ch(),
                    who: NodeId(3),
                    failed: None,
                },
            ),
            ctl(
                4,
                2,
                HardCtl::Leave {
                    ch: ch(),
                    who: NodeId(4),
                },
            ),
            ctl(
                18,
                3,
                HardCtl::Prune {
                    ch: ch(),
                    who: NodeId(9),
                },
            ),
            ctl(
                18,
                4,
                HardCtl::Tree {
                    ch: ch(),
                    target: NodeId(9),
                },
            ),
            ctl(
                5,
                5,
                HardCtl::Fusion {
                    ch: ch(),
                    from: NodeId(5),
                    nodes: vec![NodeId(1), NodeId(2)],
                },
            ),
            ctl(
                9,
                6,
                HardCtl::Probe {
                    ch: ch(),
                    who: NodeId(9),
                },
            ),
            ack(6, true, None),
            ack(7, false, None),
            ack(8, false, Some(NodeId(3))),
            HardMsg::Data { ch: ch() },
        ]
    }

    fn reunite_samples() -> Vec<ReuniteMsg> {
        vec![
            ReuniteMsg::Join {
                ch: ch(),
                receiver: NodeId(4),
                fresh: true,
            },
            ReuniteMsg::Tree {
                ch: ch(),
                receiver: NodeId(4),
                marked: true,
            },
            ReuniteMsg::Tree {
                ch: ch(),
                receiver: NodeId(4),
                marked: false,
            },
            ReuniteMsg::Data { ch: ch() },
        ]
    }

    fn roundtrips<M: Codec + Clone + PartialEq + Debug>(samples: Vec<M>) {
        for m in samples {
            let bytes = datagram(m.clone());
            assert_eq!(decode(&bytes, NODES), Ok(m));
        }
    }

    #[test]
    fn roundtrip_every_message_kind() {
        roundtrips(hbh_samples());
        roundtrips(hard_samples());
        roundtrips(reunite_samples());
    }

    #[test]
    fn header_fields_are_validated() {
        let good = datagram(hbh_samples().remove(0));
        let with = |at: usize, byte: u8| {
            let mut bad = good.clone();
            bad[at] = byte;
            decode::<HbhMsg>(&bad, NODES)
        };
        assert_eq!(with(H, 0x00), Err(WireError::BadMagic(0)));
        assert_eq!(with(H + 1, 9), Err(WireError::BadVersion(9)));
        assert_eq!(with(H + 2, 0x77), Err(WireError::BadType(0x77)));
        assert!(matches!(with(H + 3, 0xF0), Err(WireError::BadFlags(_))));
        assert_eq!(with(H + 6, 1), Err(WireError::BadReserved));
    }

    fn truncations_fail<M: Codec + Clone + Debug>(samples: Vec<M>) {
        for m in samples {
            let bytes = datagram(m.clone());
            for cut in 0..bytes.len() {
                let r = decode::<M>(&bytes[..cut], NODES);
                assert!(r.is_err(), "{m:?} decoded from a {cut}-byte prefix");
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        truncations_fail(hbh_samples());
        truncations_fail(hard_samples());
        truncations_fail(reunite_samples());
    }

    #[test]
    fn flag_on_wrong_message_rejected() {
        // A tree message with the INITIAL bit set is malformed.
        let mut bytes = datagram(HbhMsg::Tree {
            ch: ch(),
            target: NodeId(1),
        });
        bytes[H + 3] = flags::INITIAL;
        assert!(matches!(
            decode::<HbhMsg>(&bytes, NODES),
            Err(WireError::BadFlags(_))
        ));
    }

    #[test]
    fn fusion_list_length_is_validated() {
        let mut bytes = datagram(HbhMsg::Fusion {
            ch: ch(),
            from: NodeId(5),
            nodes: [NodeId(1)].into(),
        });
        // Claim two nodes but carry one (the count field sits after
        // ch+from = 12 body bytes).
        let off = H + HEADER_LEN + 12;
        bytes[off..off + 2].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(
            decode::<HbhMsg>(&bytes, NODES),
            Err(WireError::BadListLength)
        );
    }

    #[test]
    fn node_ids_are_bounded_by_the_node_count() {
        let tree = datagram(HbhMsg::Tree {
            ch: ch(),
            target: NodeId(9),
        });
        assert!(decode::<HbhMsg>(&tree, 19).is_ok());
        // Past the envelope's nodes 1 and 2, the channel source, 18, is
        // the first id read.
        assert_eq!(decode::<HbhMsg>(&tree, 18), Err(WireError::UnknownNode(18)));
        assert_eq!(decode::<HbhMsg>(&tree, 3), Err(WireError::UnknownNode(18)));
    }

    #[test]
    fn message_sizes_are_sane() {
        // join/tree: 8 header + 8 channel + 4 node = 20 bytes.
        let tree = HbhMsg::Tree {
            ch: ch(),
            target: NodeId(1),
        };
        assert_eq!(datagram(tree).len(), ENVELOPE_LEN + 20);
        // data: 8 + 8 = 16 bytes.
        assert_eq!(datagram(HbhMsg::Data { ch: ch() }).len(), ENVELOPE_LEN + 16);
    }

    /// A fusion from node 5 listing nodes `0..n`.
    fn fusion(n: u32) -> HbhMsg {
        HbhMsg::Fusion {
            ch: Channel::primary(NodeId(0)),
            from: NodeId(5),
            nodes: (0..n).map(NodeId).collect(),
        }
    }

    #[test]
    fn largest_fusion_fits_and_one_more_is_refused() {
        // Channel, sender and count take 14 body bytes; each node four.
        let most = ((MAX_BODY - 14) / 4) as u32;
        assert_eq!(most, 16_364);
        let bytes = datagram(fusion(most));
        assert!(bytes.len() <= 65_507, "{} bytes", bytes.len());
        assert_eq!(decode(&bytes, most as usize), Ok(fusion(most)));
        for n in [most + 1, 16_381, 16_400, 70_000] {
            let pkt = Packet::control(NodeId(1), NodeId(2), fusion(n));
            let body = 14 + 4 * n as usize;
            assert_eq!(encode_packet(&pkt), Err(WireError::OversizedBody(body)));
        }
        // The hard fusion's reliability header takes 12 more.
        let hard = |n: u32| HardMsg::Ctl {
            origin: NodeId(5),
            seq: 1,
            ctl: HardCtl::Fusion {
                ch: Channel::primary(NodeId(0)),
                from: NodeId(5),
                nodes: (0..n).map(NodeId).collect(),
            },
        };
        let most = ((MAX_BODY - 26) / 4) as u32;
        let bytes = datagram(hard(most));
        assert_eq!(decode(&bytes, most as usize), Ok(hard(most)));
        let pkt = Packet::control(NodeId(1), NodeId(2), hard(most + 1));
        assert!(matches!(
            encode_packet(&pkt),
            Err(WireError::OversizedBody(_))
        ));
        // A header that claims a longer body than MAX_BODY is refused
        // before any of it is read.
        let mut bytes = datagram(HbhMsg::Data { ch: ch() });
        let over = (MAX_BODY + 1) as u16;
        bytes[H + 4..H + 6].copy_from_slice(&over.to_be_bytes());
        assert_eq!(
            decode::<HbhMsg>(&bytes, NODES),
            Err(WireError::OversizedBody(MAX_BODY + 1))
        );
    }

    /// One more than the largest node id [`sample`] names.
    const PACKET_NODES: usize = 10;

    fn sample() -> Packet<HbhMsg> {
        let ch = Channel::primary(NodeId(3));
        let mut p = Packet::data(NodeId(3), NodeId(9), 42, Time(17), HbhMsg::Data { ch });
        p.ttl = 7;
        p
    }

    #[test]
    fn packet_roundtrip() {
        let p = sample();
        let q: Packet<HbhMsg> = decode_packet(&encode_packet(&p).unwrap(), PACKET_NODES).unwrap();
        assert_eq!(
            (q.src, q.dst, q.ttl, q.class, q.tag, q.injected_at),
            (p.src, p.dst, p.ttl, p.class, p.tag, p.injected_at)
        );
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(decode_packet::<HbhMsg>(&[], PACKET_NODES).is_err());
        assert!(decode_packet::<HbhMsg>(&[0u8; 10], PACKET_NODES).is_err());
        let mut bytes = encode_packet(&sample()).unwrap();
        bytes[9] = 9; // bad class
        assert_eq!(
            decode_packet::<HbhMsg>(&bytes, PACKET_NODES).map(|p| p.payload),
            Err(WireError::BadClass(9))
        );
        let mut bytes = encode_packet(&sample()).unwrap();
        bytes.truncate(ENVELOPE_LEN + 3);
        assert!(decode_packet::<HbhMsg>(&bytes, PACKET_NODES).is_err());
    }

    #[test]
    fn unknown_envelope_nodes_are_rejected() {
        let bytes = encode_packet(&sample()).unwrap();
        assert!(decode_packet::<HbhMsg>(&bytes, PACKET_NODES).is_ok());
        // dst 9 is out of a 9-node network.
        assert_eq!(
            decode_packet::<HbhMsg>(&bytes, 9).map(|p| p.payload),
            Err(WireError::UnknownNode(9))
        );
    }

    #[test]
    fn wrong_protocol_family_is_rejected() {
        let bytes = encode_packet(&sample()).unwrap();
        let data = MsgType::HbhData as u8;
        assert_eq!(
            decode_packet::<ReuniteMsg>(&bytes, PACKET_NODES).map(|p| p.payload),
            Err(WireError::BadType(data))
        );
        assert_eq!(
            decode_packet::<HardMsg>(&bytes, PACKET_NODES).map(|p| p.payload),
            Err(WireError::BadType(data))
        );
    }
}

#[cfg(test)]
mod golden {
    use super::Codec as Wire;
    use super::*;
    use hbh_proto_base::{Channel, GroupAddr};
    use hbh_topo::graph::NodeId;

    fn datagram<M: Wire>(pkt: &Packet<M>) -> Vec<u8> {
        encode_packet(pkt).unwrap()
    }

    /// A control packet `0x11 → 0x22`: the envelope reads TTL 64, class 0,
    /// tag and injection time zero.
    fn ctl<M>(msg: M) -> Packet<M> {
        Packet::control(NodeId(0x11), NodeId(0x22), msg)
    }

    /// A data packet `0x33 → 0x44`: class 1, every tag and time byte distinct.
    fn data<M>(msg: M) -> Packet<M> {
        let (tag, at) = (0x0102_0304_0506_0708, Time(0x1122_3344_5566_7788));
        Packet::data(NodeId(0x33), NodeId(0x44), tag, at, msg)
    }

    const CTL: &str = "00000011 00000022 40 00 0000000000000000 0000000000000000";
    const DATA: &str = "00000033 00000044 40 01 0102030405060708 1122334455667788";
    const CH: &str = "01020304 0a0b0c0d";

    /// Each packet encodes to exactly its pinned hex, written as
    /// `envelope | header | body` (spaces and bars are for the reader).
    fn pinned<M: Wire + std::fmt::Debug>(cases: Vec<(Packet<M>, String)>) {
        for (pkt, want) in cases {
            let want: String = want.chars().filter(char::is_ascii_hexdigit).collect();
            let got: String = datagram(&pkt).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{:?}", pkt.payload);
        }
    }

    /// The bytes on the wire: one datagram per message type (all fifteen),
    /// under both packet classes' envelopes. A change here breaks every
    /// deployed peer, so it must be deliberate.
    #[test]
    fn golden_datagrams_are_pinned() {
        let ch = Channel::new(NodeId(0x0102_0304), GroupAddr(0x0a0b_0c0d));
        let n = NodeId;
        pinned(vec![
            (
                ctl(HbhMsg::Join {
                    ch,
                    who: n(5),
                    initial: true,
                }),
                format!("{CTL} | b4 01 01 01 000c 0000 | {CH} 00000005"),
            ),
            (
                ctl(HbhMsg::Tree { ch, target: n(6) }),
                format!("{CTL} | b4 01 02 00 000c 0000 | {CH} 00000006"),
            ),
            (
                ctl(HbhMsg::Fusion {
                    ch,
                    from: n(7),
                    nodes: [n(8), n(9)].into(),
                }),
                format!("{CTL} | b4 01 03 00 0016 0000 | {CH} 00000007 0002 00000008 00000009"),
            ),
            (
                data(HbhMsg::Data { ch }),
                format!("{DATA} | b4 01 04 00 0008 0000 | {CH}"),
            ),
        ]);
        let hard = |seq: u64, ctl: HardCtl| HardMsg::Ctl {
            origin: n(1),
            seq,
            ctl,
        };
        pinned(vec![
            (
                ctl(hard(
                    0xa1a2_a3a4_a5a6_a7a8,
                    HardCtl::Join {
                        ch,
                        who: n(2),
                        failed: Some(n(3)),
                    },
                )),
                format!("{CTL} | b4 01 31 04 001c 0000 | 00000001 a1a2a3a4a5a6a7a8 {CH} 00000002 00000003"),
            ),
            (
                ctl(hard(2, HardCtl::Leave { ch, who: n(4) })),
                format!("{CTL} | b4 01 32 00 0018 0000 | 00000001 0000000000000002 {CH} 00000004"),
            ),
            (
                ctl(hard(3, HardCtl::Prune { ch, who: n(5) })),
                format!("{CTL} | b4 01 33 00 0018 0000 | 00000001 0000000000000003 {CH} 00000005"),
            ),
            (
                ctl(hard(4, HardCtl::Tree { ch, target: n(6) })),
                format!("{CTL} | b4 01 34 00 0018 0000 | 00000001 0000000000000004 {CH} 00000006"),
            ),
            (
                ctl(hard(
                    5,
                    HardCtl::Fusion {
                        ch,
                        from: n(7),
                        nodes: vec![n(8)],
                    },
                )),
                format!("{CTL} | b4 01 35 00 001e 0000 | 00000001 0000000000000005 {CH} 00000007 0001 00000008"),
            ),
            (
                ctl(hard(6, HardCtl::Probe { ch, who: n(9) })),
                format!("{CTL} | b4 01 36 00 0018 0000 | 00000001 0000000000000006 {CH} 00000009"),
            ),
            (
                ctl(HardMsg::Ack {
                    origin: n(1),
                    seq: 7,
                    by: n(10),
                    known: true,
                    server: Some(n(11)),
                }),
                format!("{CTL} | b4 01 37 18 0014 0000 | 00000001 0000000000000007 0000000a 0000000b"),
            ),
            (
                data(HardMsg::Data { ch }),
                format!("{DATA} | b4 01 38 00 0008 0000 | {CH}"),
            ),
        ]);
        pinned(vec![
            (
                ctl(ReuniteMsg::Join {
                    ch,
                    receiver: n(12),
                    fresh: true,
                }),
                format!("{CTL} | b4 01 11 01 000c 0000 | {CH} 0000000c"),
            ),
            (
                ctl(ReuniteMsg::Tree {
                    ch,
                    receiver: n(13),
                    marked: true,
                }),
                format!("{CTL} | b4 01 12 02 000c 0000 | {CH} 0000000d"),
            ),
            (
                data(ReuniteMsg::Data { ch }),
                format!("{DATA} | b4 01 14 00 0008 0000 | {CH}"),
            ),
        ]);
    }
}
