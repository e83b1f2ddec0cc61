//! Message-level encode/decode over the formats of [`crate::format`].

use crate::format::{flags, MsgType, Reader, Writer, HEADER_LEN, MAGIC, MAX_BODY, VERSION};
use hbh_proto::{HardCtl, HardMsg, HbhMsg};
use hbh_reunite::ReuniteMsg;

/// Any control/data message of the protocol families.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// An HBH control/data message.
    Hbh(HbhMsg),
    /// A hard-state HBH message (sequenced control, ACK or data).
    HbhHard(HardMsg),
    /// A REUNITE control/data message.
    Reunite(ReuniteMsg),
}

/// Decode failure. Decoding arbitrary bytes returns one of these — never
/// panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than a header or than the advertised body.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message type byte.
    BadType(u8),
    /// Flag bits outside [`flags::KNOWN`], or a flag on a message that
    /// cannot carry it.
    BadFlags(u8),
    /// Nonzero reserved field.
    BadReserved,
    /// Body length exceeds [`MAX_BODY`].
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

/// Encodes a message into a self-framed byte vector.
///
/// ```
/// use hbh_wire::{encode, decode, WireMsg};
/// use hbh_proto::HbhMsg;
/// use hbh_proto_base::Channel;
/// use hbh_topo::graph::NodeId;
///
/// let msg = WireMsg::Hbh(HbhMsg::Tree {
///     ch: Channel::primary(NodeId(18)),
///     target: NodeId(3),
/// });
/// let bytes = encode(&msg);
/// assert_eq!(decode(&bytes, 19).unwrap(), msg);
/// ```
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let (ty, flag_bits, body) = encode_body(msg);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(ty as u8);
    out.push(flag_bits);
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(&body);
    out
}

fn encode_body(msg: &WireMsg) -> (MsgType, u8, Vec<u8>) {
    let mut w = Writer::new();
    match msg {
        WireMsg::Hbh(m) => match m {
            HbhMsg::Join { ch, who, initial } => {
                w.channel(*ch);
                w.node(*who);
                (
                    MsgType::HbhJoin,
                    if *initial { flags::INITIAL } else { 0 },
                    w.into_bytes(),
                )
            }
            HbhMsg::Tree { ch, target } => {
                w.channel(*ch);
                w.node(*target);
                (MsgType::HbhTree, 0, w.into_bytes())
            }
            HbhMsg::Fusion { ch, from, nodes } => {
                w.channel(*ch);
                w.node(*from);
                w.u16(nodes.len() as u16);
                for n in nodes {
                    w.node(*n);
                }
                (MsgType::HbhFusion, 0, w.into_bytes())
            }
            HbhMsg::Data { ch } => {
                w.channel(*ch);
                (MsgType::HbhData, 0, w.into_bytes())
            }
        },
        WireMsg::HbhHard(m) => match m {
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
                        (
                            MsgType::HbhHardJoin,
                            if failed.is_some() { flags::FAILED } else { 0 },
                            w.into_bytes(),
                        )
                    }
                    HardCtl::Leave { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardLeave, 0, w.into_bytes())
                    }
                    HardCtl::Prune { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardPrune, 0, w.into_bytes())
                    }
                    HardCtl::Tree { target, .. } => {
                        w.node(*target);
                        (MsgType::HbhHardTree, 0, w.into_bytes())
                    }
                    HardCtl::Fusion { from, nodes, .. } => {
                        w.node(*from);
                        w.u16(nodes.len() as u16);
                        for n in nodes {
                            w.node(*n);
                        }
                        (MsgType::HbhHardFusion, 0, w.into_bytes())
                    }
                    HardCtl::Probe { who, .. } => {
                        w.node(*who);
                        (MsgType::HbhHardProbe, 0, w.into_bytes())
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
                let mut bits = if *known { flags::SERVES } else { 0 };
                if let Some(srv) = server {
                    w.node(*srv);
                    bits |= flags::REDIRECT;
                }
                (MsgType::HbhHardAck, bits, w.into_bytes())
            }
            HardMsg::Data { ch } => {
                w.channel(*ch);
                (MsgType::HbhHardData, 0, w.into_bytes())
            }
        },
        WireMsg::Reunite(m) => match m {
            ReuniteMsg::Join {
                ch,
                receiver,
                fresh,
            } => {
                w.channel(*ch);
                w.node(*receiver);
                (
                    MsgType::ReuniteJoin,
                    if *fresh { flags::INITIAL } else { 0 },
                    w.into_bytes(),
                )
            }
            ReuniteMsg::Tree {
                ch,
                receiver,
                marked,
            } => {
                w.channel(*ch);
                w.node(*receiver);
                (
                    MsgType::ReuniteTree,
                    if *marked { flags::MARKED } else { 0 },
                    w.into_bytes(),
                )
            }
            ReuniteMsg::Data { ch } => {
                w.channel(*ch);
                (MsgType::ReuniteData, 0, w.into_bytes())
            }
        },
    }
}

/// Decodes one message from `bytes` (which must contain exactly one) sent
/// in a network of `nodes` nodes: a node id at or above `nodes` is
/// [`WireError::UnknownNode`].
pub fn decode(bytes: &[u8], nodes: usize) -> Result<WireMsg, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[0] != MAGIC {
        return Err(WireError::BadMagic(bytes[0]));
    }
    if bytes[1] != VERSION {
        return Err(WireError::BadVersion(bytes[1]));
    }
    let ty = MsgType::from_byte(bytes[2]).ok_or(WireError::BadType(bytes[2]))?;
    let flag_bits = bytes[3];
    if flag_bits & !flags::KNOWN != 0 {
        return Err(WireError::BadFlags(flag_bits));
    }
    let body_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    if body_len > MAX_BODY {
        return Err(WireError::OversizedBody(body_len));
    }
    if bytes[6] != 0 || bytes[7] != 0 {
        return Err(WireError::BadReserved);
    }
    let total = HEADER_LEN + body_len;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let mut r = Reader::new(&bytes[HEADER_LEN..total], nodes);
    let msg = decode_typed(ty, flag_bits, &mut r)?;
    r.finish()?;
    if bytes.len() > total {
        return Err(WireError::TrailingBytes(bytes.len() - total));
    }
    Ok(msg)
}

fn decode_typed(ty: MsgType, flag_bits: u8, r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    let flag_ok = |allowed: u8| {
        if flag_bits & !allowed != 0 {
            Err(WireError::BadFlags(flag_bits))
        } else {
            Ok(())
        }
    };
    Ok(match ty {
        MsgType::HbhJoin => {
            flag_ok(flags::INITIAL)?;
            let ch = r.channel()?;
            let who = r.node()?;
            WireMsg::Hbh(HbhMsg::Join {
                ch,
                who,
                initial: flag_bits & flags::INITIAL != 0,
            })
        }
        MsgType::HbhTree => {
            flag_ok(0)?;
            let ch = r.channel()?;
            let target = r.node()?;
            WireMsg::Hbh(HbhMsg::Tree { ch, target })
        }
        MsgType::HbhFusion => {
            flag_ok(0)?;
            let ch = r.channel()?;
            let from = r.node()?;
            let count = r.u16()? as usize;
            // Each node is 4 bytes; validate before allocating.
            if r.remaining() != count * 4 {
                return Err(WireError::BadListLength);
            }
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                nodes.push(r.node()?);
            }
            WireMsg::Hbh(HbhMsg::Fusion { ch, from, nodes })
        }
        MsgType::HbhData => {
            flag_ok(0)?;
            WireMsg::Hbh(HbhMsg::Data { ch: r.channel()? })
        }
        MsgType::HbhHardJoin => {
            flag_ok(flags::FAILED)?;
            let origin = r.node()?;
            let seq = r.u64()?;
            let ch = r.channel()?;
            let who = r.node()?;
            let failed = if flag_bits & flags::FAILED != 0 {
                Some(r.node()?)
            } else {
                None
            };
            WireMsg::HbhHard(HardMsg::Ctl {
                origin,
                seq,
                ctl: HardCtl::Join { ch, who, failed },
            })
        }
        MsgType::HbhHardLeave | MsgType::HbhHardPrune | MsgType::HbhHardProbe => {
            flag_ok(0)?;
            let origin = r.node()?;
            let seq = r.u64()?;
            let ch = r.channel()?;
            let who = r.node()?;
            let ctl = match ty {
                MsgType::HbhHardLeave => HardCtl::Leave { ch, who },
                MsgType::HbhHardPrune => HardCtl::Prune { ch, who },
                _ => HardCtl::Probe { ch, who },
            };
            WireMsg::HbhHard(HardMsg::Ctl { origin, seq, ctl })
        }
        MsgType::HbhHardTree => {
            flag_ok(0)?;
            let origin = r.node()?;
            let seq = r.u64()?;
            let ch = r.channel()?;
            let target = r.node()?;
            WireMsg::HbhHard(HardMsg::Ctl {
                origin,
                seq,
                ctl: HardCtl::Tree { ch, target },
            })
        }
        MsgType::HbhHardFusion => {
            flag_ok(0)?;
            let origin = r.node()?;
            let seq = r.u64()?;
            let ch = r.channel()?;
            let from = r.node()?;
            let count = r.u16()? as usize;
            if r.remaining() != count * 4 {
                return Err(WireError::BadListLength);
            }
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                nodes.push(r.node()?);
            }
            WireMsg::HbhHard(HardMsg::Ctl {
                origin,
                seq,
                ctl: HardCtl::Fusion { ch, from, nodes },
            })
        }
        MsgType::HbhHardAck => {
            flag_ok(flags::SERVES | flags::REDIRECT)?;
            let origin = r.node()?;
            let seq = r.u64()?;
            let by = r.node()?;
            let server = if flag_bits & flags::REDIRECT != 0 {
                Some(r.node()?)
            } else {
                None
            };
            WireMsg::HbhHard(HardMsg::Ack {
                origin,
                seq,
                by,
                known: flag_bits & flags::SERVES != 0,
                server,
            })
        }
        MsgType::HbhHardData => {
            flag_ok(0)?;
            WireMsg::HbhHard(HardMsg::Data { ch: r.channel()? })
        }
        MsgType::ReuniteJoin => {
            flag_ok(flags::INITIAL)?;
            let ch = r.channel()?;
            let receiver = r.node()?;
            WireMsg::Reunite(ReuniteMsg::Join {
                ch,
                receiver,
                fresh: flag_bits & flags::INITIAL != 0,
            })
        }
        MsgType::ReuniteTree => {
            flag_ok(flags::MARKED)?;
            let ch = r.channel()?;
            let receiver = r.node()?;
            WireMsg::Reunite(ReuniteMsg::Tree {
                ch,
                receiver,
                marked: flag_bits & flags::MARKED != 0,
            })
        }
        MsgType::ReuniteData => {
            flag_ok(0)?;
            WireMsg::Reunite(ReuniteMsg::Data { ch: r.channel()? })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_proto_base::{Channel, GroupAddr};
    use hbh_topo::graph::NodeId;

    /// One more than the largest node id the samples name.
    const NODES: usize = 19;

    fn ch() -> Channel {
        Channel::new(NodeId(18), GroupAddr(7))
    }

    fn samples() -> Vec<WireMsg> {
        vec![
            WireMsg::Hbh(HbhMsg::Join {
                ch: ch(),
                who: NodeId(3),
                initial: true,
            }),
            WireMsg::Hbh(HbhMsg::Join {
                ch: ch(),
                who: NodeId(3),
                initial: false,
            }),
            WireMsg::Hbh(HbhMsg::Tree {
                ch: ch(),
                target: NodeId(9),
            }),
            WireMsg::Hbh(HbhMsg::Fusion {
                ch: ch(),
                from: NodeId(5),
                nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
            }),
            WireMsg::Hbh(HbhMsg::Fusion {
                ch: ch(),
                from: NodeId(5),
                nodes: vec![],
            }),
            WireMsg::Hbh(HbhMsg::Data { ch: ch() }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(3),
                seq: 0x0102_0304_0506_0708,
                ctl: HardCtl::Join {
                    ch: ch(),
                    who: NodeId(3),
                    failed: Some(NodeId(12)),
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(3),
                seq: 1,
                ctl: HardCtl::Join {
                    ch: ch(),
                    who: NodeId(3),
                    failed: None,
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(4),
                seq: 2,
                ctl: HardCtl::Leave {
                    ch: ch(),
                    who: NodeId(4),
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(18),
                seq: 3,
                ctl: HardCtl::Prune {
                    ch: ch(),
                    who: NodeId(9),
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(18),
                seq: 4,
                ctl: HardCtl::Tree {
                    ch: ch(),
                    target: NodeId(9),
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(5),
                seq: 5,
                ctl: HardCtl::Fusion {
                    ch: ch(),
                    from: NodeId(5),
                    nodes: vec![NodeId(1), NodeId(2)],
                },
            }),
            WireMsg::HbhHard(HardMsg::Ctl {
                origin: NodeId(9),
                seq: 6,
                ctl: HardCtl::Probe {
                    ch: ch(),
                    who: NodeId(9),
                },
            }),
            WireMsg::HbhHard(HardMsg::Ack {
                origin: NodeId(9),
                seq: 6,
                by: NodeId(5),
                known: true,
                server: None,
            }),
            WireMsg::HbhHard(HardMsg::Ack {
                origin: NodeId(9),
                seq: 7,
                by: NodeId(5),
                known: false,
                server: None,
            }),
            WireMsg::HbhHard(HardMsg::Ack {
                origin: NodeId(9),
                seq: 8,
                by: NodeId(5),
                known: false,
                server: Some(NodeId(3)),
            }),
            WireMsg::HbhHard(HardMsg::Data { ch: ch() }),
            WireMsg::Reunite(ReuniteMsg::Join {
                ch: ch(),
                receiver: NodeId(4),
                fresh: true,
            }),
            WireMsg::Reunite(ReuniteMsg::Tree {
                ch: ch(),
                receiver: NodeId(4),
                marked: true,
            }),
            WireMsg::Reunite(ReuniteMsg::Tree {
                ch: ch(),
                receiver: NodeId(4),
                marked: false,
            }),
            WireMsg::Reunite(ReuniteMsg::Data { ch: ch() }),
        ]
    }

    #[test]
    fn roundtrip_every_message_kind() {
        for m in samples() {
            let bytes = encode(&m);
            assert_eq!(
                decode(&bytes, NODES).unwrap(),
                m,
                "roundtrip failed for {m:?}"
            );
        }
    }

    #[test]
    fn header_fields_are_validated() {
        let good = encode(&samples()[0]);
        let mut bad = good.clone();
        bad[0] = 0x00;
        assert_eq!(decode(&bad, NODES), Err(WireError::BadMagic(0)));
        let mut bad = good.clone();
        bad[1] = 9;
        assert_eq!(decode(&bad, NODES), Err(WireError::BadVersion(9)));
        let mut bad = good.clone();
        bad[2] = 0x77;
        assert_eq!(decode(&bad, NODES), Err(WireError::BadType(0x77)));
        let mut bad = good.clone();
        bad[3] = 0xF0;
        assert!(matches!(decode(&bad, NODES), Err(WireError::BadFlags(_))));
        let mut bad = good.clone();
        bad[6] = 1;
        assert_eq!(decode(&bad, NODES), Err(WireError::BadReserved));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for m in samples() {
            let bytes = encode(&m);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut], NODES);
                assert!(r.is_err(), "{m:?} decoded from a {cut}-byte prefix");
            }
        }
    }

    #[test]
    fn flag_on_wrong_message_rejected() {
        // A tree message with the INITIAL bit set is malformed.
        let mut bytes = encode(&WireMsg::Hbh(HbhMsg::Tree {
            ch: ch(),
            target: NodeId(1),
        }));
        bytes[3] = flags::INITIAL;
        assert!(matches!(decode(&bytes, NODES), Err(WireError::BadFlags(_))));
    }

    #[test]
    fn fusion_list_length_is_validated() {
        let m = WireMsg::Hbh(HbhMsg::Fusion {
            ch: ch(),
            from: NodeId(5),
            nodes: vec![NodeId(1)],
        });
        let mut bytes = encode(&m);
        // Claim two nodes but carry one (count field sits after ch+from =
        // 12 body bytes, at offset HEADER_LEN + 12).
        let off = HEADER_LEN + 12;
        bytes[off..off + 2].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(decode(&bytes, NODES), Err(WireError::BadListLength));
    }

    #[test]
    fn node_ids_are_bounded_by_the_node_count() {
        let tree = encode(&WireMsg::Hbh(HbhMsg::Tree {
            ch: ch(),
            target: NodeId(9),
        }));
        assert!(decode(&tree, 19).is_ok());
        // The channel source, 18, is the first id read.
        assert_eq!(decode(&tree, 18), Err(WireError::UnknownNode(18)));
        assert_eq!(decode(&tree, 0), Err(WireError::UnknownNode(18)));
    }

    #[test]
    fn message_sizes_are_sane() {
        // join/tree/data: 8 header + 8 channel + 4 node (+0) = 20 bytes.
        let tree = WireMsg::Hbh(HbhMsg::Tree {
            ch: ch(),
            target: NodeId(1),
        });
        assert_eq!(encode(&tree).len(), 20);
        // data: 8 + 8 = 16 bytes.
        assert_eq!(encode(&WireMsg::Hbh(HbhMsg::Data { ch: ch() })).len(), 16);
    }
}
