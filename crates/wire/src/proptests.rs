//! Property tests over whole datagrams of every protocol family:
//! round-trip of arbitrary valid packets, zero-panic decoding of
//! arbitrary, truncated and bit-flipped bytes, and the node-count bound on
//! every id a decoded packet names.

use crate::codec::{decode_packet, encode_packet, Codec};
use hbh_proto::{HardCtl, HardMsg, HbhMsg};
use hbh_proto_base::{Channel, GroupAddr};
use hbh_reunite::ReuniteMsg;
use hbh_sim_core::{Packet, PacketClass, Time};
use hbh_topo::graph::NodeId;
use proptest::prelude::*;
use std::fmt::Debug;

/// A node count under which every `u32` names a node.
const EVERY_ID: usize = 1 << 32;

/// Node ids, half of them below 64 and half anywhere, so that under a node
/// count up to 64 both sides of the bound are common.
fn arb_node() -> impl Strategy<Value = NodeId> + Clone {
    prop_oneof![0u32..64, any::<u32>()].prop_map(NodeId)
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    (arb_node(), any::<u32>()).prop_map(|(s, g)| Channel::new(s, GroupAddr(g)))
}

fn arb_hard_ctl() -> impl Strategy<Value = HardCtl> {
    let node = arb_node();
    prop_oneof![
        (
            arb_channel(),
            node.clone(),
            proptest::option::of(node.clone())
        )
            .prop_map(|(ch, who, failed)| HardCtl::Join { ch, who, failed }),
        (arb_channel(), node.clone()).prop_map(|(ch, who)| HardCtl::Leave { ch, who }),
        (arb_channel(), node.clone()).prop_map(|(ch, who)| HardCtl::Prune { ch, who }),
        (arb_channel(), node.clone()).prop_map(|(ch, target)| HardCtl::Tree { ch, target }),
        (
            arb_channel(),
            node.clone(),
            proptest::collection::vec(arb_node(), 0..32)
        )
            .prop_map(|(ch, from, nodes)| HardCtl::Fusion { ch, from, nodes }),
        (arb_channel(), node).prop_map(|(ch, who)| HardCtl::Probe { ch, who }),
    ]
}

fn arb_hard_msg() -> impl Strategy<Value = HardMsg> {
    let node = arb_node();
    prop_oneof![
        (node.clone(), any::<u64>(), arb_hard_ctl()).prop_map(|(origin, seq, ctl)| HardMsg::Ctl {
            origin,
            seq,
            ctl
        }),
        (
            node.clone(),
            any::<u64>(),
            node,
            any::<bool>(),
            proptest::option::of(arb_node())
        )
            .prop_map(|(origin, seq, by, known, server)| HardMsg::Ack {
                origin,
                seq,
                by,
                known,
                server,
            }),
        arb_channel().prop_map(|ch| HardMsg::Data { ch }),
    ]
}

fn arb_hbh_msg() -> impl Strategy<Value = HbhMsg> {
    let node = arb_node();
    prop_oneof![
        (arb_channel(), node.clone(), any::<bool>()).prop_map(|(ch, who, initial)| HbhMsg::Join {
            ch,
            who,
            initial
        }),
        (arb_channel(), node.clone()).prop_map(|(ch, target)| HbhMsg::Tree { ch, target }),
        (
            arb_channel(),
            node,
            proptest::collection::vec(arb_node(), 0..32)
        )
            .prop_map(|(ch, from, nodes)| HbhMsg::Fusion {
                ch,
                from,
                nodes: nodes.into()
            }),
        arb_channel().prop_map(|ch| HbhMsg::Data { ch }),
    ]
}

fn arb_reunite_msg() -> impl Strategy<Value = ReuniteMsg> {
    let node = arb_node();
    prop_oneof![
        (arb_channel(), node.clone(), any::<bool>()).prop_map(|(ch, receiver, fresh)| {
            ReuniteMsg::Join {
                ch,
                receiver,
                fresh,
            }
        }),
        (arb_channel(), node, any::<bool>()).prop_map(|(ch, receiver, marked)| {
            ReuniteMsg::Tree {
                ch,
                receiver,
                marked,
            }
        }),
        arb_channel().prop_map(|ch| ReuniteMsg::Data { ch }),
    ]
}

/// `msg` in a packet whose every envelope field is arbitrary.
fn arb_packet<M>(msg: impl Strategy<Value = M>) -> impl Strategy<Value = Packet<M>> {
    let envelope = (arb_node(), arb_node(), any::<u8>(), any::<bool>());
    (envelope, any::<u64>(), any::<u64>(), msg).prop_map(
        |((src, dst, ttl, data), tag, at, payload)| Packet {
            src,
            dst,
            ttl,
            class: if data {
                PacketClass::Data
            } else {
                PacketClass::Control
            },
            tag,
            injected_at: Time(at),
            payload,
        },
    )
}

/// Every node id a message names.
trait Named {
    fn named(&self) -> Vec<NodeId>;
}

impl Named for HbhMsg {
    fn named(&self) -> Vec<NodeId> {
        match self {
            HbhMsg::Join { ch, who, .. } => vec![ch.source, *who],
            HbhMsg::Tree { ch, target } => vec![ch.source, *target],
            HbhMsg::Fusion { ch, from, nodes } => [&[ch.source, *from], &nodes[..]].concat(),
            HbhMsg::Data { ch } => vec![ch.source],
        }
    }
}

impl Named for HardMsg {
    fn named(&self) -> Vec<NodeId> {
        match self {
            HardMsg::Ctl { origin, ctl, .. } => {
                let mut ids = vec![*origin, ctl.channel().source];
                match ctl {
                    HardCtl::Join { who, failed, .. } => {
                        ids.extend(Some(*who).into_iter().chain(*failed))
                    }
                    HardCtl::Leave { who, .. }
                    | HardCtl::Prune { who, .. }
                    | HardCtl::Probe { who, .. } => ids.push(*who),
                    HardCtl::Tree { target, .. } => ids.push(*target),
                    HardCtl::Fusion { from, nodes, .. } => {
                        ids.extend(Some(*from).iter().chain(nodes))
                    }
                }
                ids
            }
            HardMsg::Ack {
                origin, by, server, ..
            } => [*origin, *by].into_iter().chain(*server).collect(),
            HardMsg::Data { ch } => vec![ch.source],
        }
    }
}

impl Named for ReuniteMsg {
    fn named(&self) -> Vec<NodeId> {
        match *self {
            ReuniteMsg::Join { ch, receiver, .. } | ReuniteMsg::Tree { ch, receiver, .. } => {
                vec![ch.source, receiver]
            }
            ReuniteMsg::Data { ch } => vec![ch.source],
        }
    }
}

/// The envelope fields of a packet, comparable.
fn envelope<M>(p: &Packet<M>) -> (NodeId, NodeId, u8, PacketClass, u64, Time) {
    (p.src, p.dst, p.ttl, p.class, p.tag, p.injected_at)
}

/// `pkt` comes back whole from its datagram.
fn roundtrips<M: Codec + PartialEq + Debug>(pkt: Packet<M>) -> Result<(), TestCaseError> {
    let bytes = encode_packet(&pkt).expect("small bodies fit");
    let back = decode_packet::<M>(&bytes, EVERY_ID);
    prop_assert!(back.is_ok(), "{:?} from {:?}", back.err(), pkt.payload);
    let back = back.expect("checked");
    prop_assert_eq!(envelope(&back), envelope(&pkt));
    prop_assert_eq!(back.payload, pkt.payload);
    Ok(())
}

/// Decodes `bytes` as a packet of family `M` — no panic whatever they
/// are — and, if that succeeds, checks that the packet names no node at
/// or above `nodes`, envelope included.
fn names_known_nodes<M: Codec + Named + Debug>(
    bytes: &[u8],
    nodes: usize,
) -> Result<(), TestCaseError> {
    if let Ok(pkt) = decode_packet::<M>(bytes, nodes) {
        let ids = [pkt.src, pkt.dst].into_iter().chain(pkt.payload.named());
        for n in ids {
            prop_assert!(n.index() < nodes, "{pkt:?} names {n} of {nodes} nodes");
        }
    }
    Ok(())
}

/// [`names_known_nodes`] for `bytes` read as each family in turn.
fn any_family_names_known_nodes(bytes: &[u8], nodes: usize) -> Result<(), TestCaseError> {
    names_known_nodes::<HbhMsg>(bytes, nodes)?;
    names_known_nodes::<HardMsg>(bytes, nodes)?;
    names_known_nodes::<ReuniteMsg>(bytes, nodes)
}

/// How a valid datagram is damaged before it is decoded.
#[derive(Clone, Copy, Debug)]
enum Damage {
    None,
    /// Cut to a strict prefix of the length this index picks.
    Cut(prop::sample::Index),
    /// One bit flipped: the byte this index picks, then the bit.
    Flip(prop::sample::Index, u8),
    /// The prefix up to the first index, then another family's datagram
    /// from the second index on.
    Splice(prop::sample::Index, prop::sample::Index),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        any::<prop::sample::Index>().prop_map(Damage::Cut),
        (any::<prop::sample::Index>(), 0u8..8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(at, from)| Damage::Splice(at, from)),
    ]
}

/// `pkt`'s datagram after `damage` (a splice takes its suffix from
/// `donor`, another family's datagram), decoded under `nodes` as every
/// family: never a panic, never a node at or above `nodes`, and a cut
/// datagram never decodes at all.
fn damaged_datagram_is_bounded<M: Codec + Named + Debug>(
    pkt: &Packet<M>,
    damage: Damage,
    donor: &[u8],
    nodes: usize,
) -> Result<(), TestCaseError> {
    let mut bytes = encode_packet(pkt).expect("small bodies fit");
    match damage {
        Damage::None => {}
        Damage::Cut(at) => {
            bytes.truncate(at.index(bytes.len()));
            let cut = decode_packet::<M>(&bytes, nodes);
            prop_assert!(cut.is_err(), "a {}-byte prefix decoded", bytes.len());
        }
        Damage::Flip(at, bit) => {
            let i = at.index(bytes.len());
            bytes[i] ^= 1 << bit;
        }
        Damage::Splice(at, from) => {
            bytes.truncate(at.index(bytes.len()));
            bytes.extend_from_slice(&donor[from.index(donor.len())..]);
        }
    }
    any_family_names_known_nodes(&bytes, nodes)
}

/// The datagram fuzz: `bytes` as they are, and each family's packet
/// whole or damaged (spliced onto the next family's datagram), decoded as
/// every family under `nodes`.
fn datagrams_are_bounded(
    bytes: &[u8],
    hbh: &Packet<HbhMsg>,
    hard: &Packet<HardMsg>,
    reunite: &Packet<ReuniteMsg>,
    damage: Damage,
    nodes: usize,
) -> Result<(), TestCaseError> {
    let hbh_bytes = encode_packet(hbh).expect("small bodies fit");
    let hard_bytes = encode_packet(hard).expect("small bodies fit");
    let reunite_bytes = encode_packet(reunite).expect("small bodies fit");
    any_family_names_known_nodes(bytes, nodes)?;
    damaged_datagram_is_bounded(hbh, damage, &hard_bytes, nodes)?;
    damaged_datagram_is_bounded(hard, damage, &reunite_bytes, nodes)?;
    damaged_datagram_is_bounded(reunite, damage, &hbh_bytes, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn roundtrip(
        hbh in arb_packet(arb_hbh_msg()),
        hard in arb_packet(arb_hard_msg()),
        reunite in arb_packet(arb_reunite_msg()),
    ) {
        roundtrips(hbh)?;
        roundtrips(hard)?;
        roundtrips(reunite)?;
    }

    /// Decoding arbitrary bytes never panics (it may succeed if the fuzz
    /// happens to be well-formed, which is fine).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_packet::<HbhMsg>(&bytes, EVERY_ID);
        let _ = decode_packet::<HardMsg>(&bytes, EVERY_ID);
        let _ = decode_packet::<ReuniteMsg>(&bytes, EVERY_ID);
    }

    /// Single-bit corruption of a valid datagram either still decodes (the
    /// flipped bit was payload) or fails cleanly — never panics, never
    /// reads out of bounds.
    #[test]
    fn mutation_is_handled(
        hbh in arb_packet(arb_hbh_msg()),
        hard in arb_packet(arb_hard_msg()),
        reunite in arb_packet(arb_reunite_msg()),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let flipped = |mut bytes: Vec<u8>| {
            let i = pos.index(bytes.len());
            bytes[i] ^= 1 << bit;
            bytes
        };
        let _ = decode_packet::<HbhMsg>(&flipped(encode_packet(&hbh).unwrap()), EVERY_ID);
        let _ = decode_packet::<HardMsg>(&flipped(encode_packet(&hard).unwrap()), EVERY_ID);
        let _ = decode_packet::<ReuniteMsg>(&flipped(encode_packet(&reunite).unwrap()), EVERY_ID);
    }

    /// The datagram fuzz: arbitrary bytes, and valid datagrams of each
    /// family whole, cut short, bit-flipped or spliced onto another
    /// family's, decoded as every family under a random node count: never
    /// a panic, never a packet naming a node at or above the count, never a
    /// cut datagram decoded.
    #[test]
    fn datagrams_name_only_known_nodes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        hbh in arb_packet(arb_hbh_msg()),
        hard in arb_packet(arb_hard_msg()),
        reunite in arb_packet(arb_reunite_msg()),
        damage in arb_damage(),
        nodes in 1usize..65,
    ) {
        datagrams_are_bounded(&bytes, &hbh, &hard, &reunite, damage, nodes)?;
    }
}

// The datagram fuzz at 16× the cases: run by CI with
// `cargo test --release -p hbh-wire -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn datagrams_name_only_known_nodes_at_length(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        hbh in arb_packet(arb_hbh_msg()),
        hard in arb_packet(arb_hard_msg()),
        reunite in arb_packet(arb_reunite_msg()),
        damage in arb_damage(),
        nodes in 1usize..65,
    ) {
        datagrams_are_bounded(&bytes, &hbh, &hard, &reunite, damage, nodes)?;
    }
}
