//! Property tests: round-trip for arbitrary valid messages, zero-panic
//! decoding of arbitrary and mutated byte soup, and the node-count bound
//! on every id a decoded message names.

use crate::codec::{decode, encode, WireMsg};
use hbh_proto::{HardCtl, HardMsg, HbhMsg};
use hbh_proto_base::{Channel, GroupAddr};
use hbh_reunite::ReuniteMsg;
use hbh_topo::graph::NodeId;
use proptest::prelude::*;

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

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    let node = arb_node();
    prop_oneof![
        (arb_channel(), node.clone(), any::<bool>())
            .prop_map(|(ch, who, initial)| WireMsg::Hbh(HbhMsg::Join { ch, who, initial })),
        (arb_channel(), node.clone())
            .prop_map(|(ch, target)| WireMsg::Hbh(HbhMsg::Tree { ch, target })),
        (
            arb_channel(),
            node.clone(),
            proptest::collection::vec(arb_node(), 0..32)
        )
            .prop_map(|(ch, from, nodes)| WireMsg::Hbh(HbhMsg::Fusion { ch, from, nodes })),
        arb_channel().prop_map(|ch| WireMsg::Hbh(HbhMsg::Data { ch })),
        arb_hard_msg().prop_map(WireMsg::HbhHard),
        (arb_channel(), node.clone(), any::<bool>()).prop_map(|(ch, receiver, fresh)| {
            WireMsg::Reunite(ReuniteMsg::Join {
                ch,
                receiver,
                fresh,
            })
        }),
        (arb_channel(), node.clone(), any::<bool>()).prop_map(|(ch, receiver, marked)| {
            WireMsg::Reunite(ReuniteMsg::Tree {
                ch,
                receiver,
                marked,
            })
        }),
        arb_channel().prop_map(|ch| WireMsg::Reunite(ReuniteMsg::Data { ch })),
    ]
}

/// Every node id `msg` names.
fn named_nodes(msg: &WireMsg) -> Vec<NodeId> {
    let (ch, ids): (Option<&Channel>, Vec<NodeId>) = match msg {
        WireMsg::Hbh(HbhMsg::Join { ch, who, .. }) => (Some(ch), vec![*who]),
        WireMsg::Hbh(HbhMsg::Tree { ch, target }) => (Some(ch), vec![*target]),
        WireMsg::Hbh(HbhMsg::Fusion { ch, from, nodes }) => {
            (Some(ch), [&[*from], &nodes[..]].concat())
        }
        WireMsg::Hbh(HbhMsg::Data { ch }) | WireMsg::HbhHard(HardMsg::Data { ch }) => {
            (Some(ch), vec![])
        }
        WireMsg::HbhHard(HardMsg::Ctl { origin, ctl, .. }) => {
            let mut ids = vec![*origin, ctl.channel().source];
            match ctl {
                HardCtl::Join { who, failed, .. } => {
                    ids.extend(Some(*who).into_iter().chain(*failed))
                }
                HardCtl::Leave { who, .. }
                | HardCtl::Prune { who, .. }
                | HardCtl::Probe { who, .. } => ids.push(*who),
                HardCtl::Tree { target, .. } => ids.push(*target),
                HardCtl::Fusion { from, nodes, .. } => ids.extend(Some(*from).iter().chain(nodes)),
            }
            (None, ids)
        }
        WireMsg::HbhHard(HardMsg::Ack {
            origin, by, server, ..
        }) => (None, [*origin, *by].into_iter().chain(*server).collect()),
        WireMsg::Reunite(
            ReuniteMsg::Join { ch, receiver, .. } | ReuniteMsg::Tree { ch, receiver, .. },
        ) => (Some(ch), vec![*receiver]),
        WireMsg::Reunite(ReuniteMsg::Data { ch }) => (Some(ch), vec![]),
    };
    ch.map(|ch| ch.source).into_iter().chain(ids).collect()
}

/// `bytes`, one bit flipped if `flip` says where, decode without panicking
/// in a network of `nodes` nodes, into nothing or into a message that
/// names only nodes below `nodes`.
fn decode_is_bounded(
    mut bytes: Vec<u8>,
    flip: Option<(prop::sample::Index, u8)>,
    nodes: usize,
) -> Result<(), TestCaseError> {
    if let (Some((pos, bit)), false) = (flip, bytes.is_empty()) {
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
    }
    if let Ok(msg) = decode(&bytes, nodes) {
        for n in named_nodes(&msg) {
            prop_assert!(n.index() < nodes, "{msg:?} names {n} of {nodes} nodes");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn roundtrip(msg in arb_msg()) {
        let bytes = encode(&msg);
        prop_assert_eq!(decode(&bytes, EVERY_ID), Ok(msg));
    }

    /// Decoding arbitrary bytes never panics (it may succeed if the fuzz
    /// happens to be well-formed, which is fine).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes, EVERY_ID);
    }

    /// Single-byte corruption of a valid message either still decodes (the
    /// flipped byte was payload) or fails cleanly — never panics, never
    /// reads out of bounds.
    #[test]
    fn mutation_is_handled(msg in arb_msg(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = encode(&msg);
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = decode(&bytes, EVERY_ID);
    }

    /// Arbitrary bytes, valid encodings and bit-flipped ones, decoded under
    /// a random node count: never a panic, never a message naming a node
    /// at or above the count.
    #[test]
    fn decoded_nodes_are_below_the_node_count(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        msg in arb_msg(),
        flip in proptest::option::of((any::<prop::sample::Index>(), 0u8..8)),
        nodes in 1usize..65,
    ) {
        decode_is_bounded(bytes, flip, nodes)?;
        decode_is_bounded(encode(&msg), flip, nodes)?;
    }
}

// The bound at 16× the cases: run by CI with
// `cargo test --release -p hbh-wire -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn decoded_nodes_are_below_the_node_count_at_length(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        msg in arb_msg(),
        flip in proptest::option::of((any::<prop::sample::Index>(), 0u8..8)),
        nodes in 1usize..65,
    ) {
        decode_is_bounded(bytes, flip, nodes)?;
        decode_is_bounded(encode(&msg), flip, nodes)?;
    }
}
