//! Property tests: round-trip for arbitrary valid messages, and zero-panic
//! decoding of arbitrary and mutated byte soup.

use crate::codec::{decode, encode, WireMsg};
use hbh_proto::{HardCtl, HardMsg, HbhMsg};
use hbh_proto_base::{Channel, GroupAddr};
use hbh_reunite::ReuniteMsg;
use hbh_topo::graph::NodeId;
use proptest::prelude::*;

fn arb_channel() -> impl Strategy<Value = Channel> {
    (any::<u32>(), any::<u32>()).prop_map(|(s, g)| Channel::new(NodeId(s), GroupAddr(g)))
}

fn arb_hard_ctl() -> impl Strategy<Value = HardCtl> {
    let node = any::<u32>().prop_map(NodeId);
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
            proptest::collection::vec(any::<u32>().prop_map(NodeId), 0..32)
        )
            .prop_map(|(ch, from, nodes)| HardCtl::Fusion { ch, from, nodes }),
        (arb_channel(), node).prop_map(|(ch, who)| HardCtl::Probe { ch, who }),
    ]
}

fn arb_hard_msg() -> impl Strategy<Value = HardMsg> {
    let node = any::<u32>().prop_map(NodeId);
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
            any::<bool>(),
            any::<u32>()
        )
            .prop_map(|(origin, seq, by, known, redirect, srv)| HardMsg::Ack {
                origin,
                seq,
                by,
                known,
                server: redirect.then_some(NodeId(srv)),
            }),
        arb_channel().prop_map(|ch| HardMsg::Data { ch }),
    ]
}

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    let node = any::<u32>().prop_map(NodeId);
    prop_oneof![
        (arb_channel(), node.clone(), any::<bool>())
            .prop_map(|(ch, who, initial)| WireMsg::Hbh(HbhMsg::Join { ch, who, initial })),
        (arb_channel(), node.clone())
            .prop_map(|(ch, target)| WireMsg::Hbh(HbhMsg::Tree { ch, target })),
        (
            arb_channel(),
            node.clone(),
            proptest::collection::vec(any::<u32>().prop_map(NodeId), 0..32)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn roundtrip(msg in arb_msg()) {
        let bytes = encode(&msg);
        prop_assert_eq!(decode(&bytes), Ok(msg));
    }

    /// Decoding arbitrary bytes never panics (it may succeed if the fuzz
    /// happens to be well-formed, which is fine).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Single-byte corruption of a valid message either still decodes (the
    /// flipped byte was payload) or fails cleanly — never panics, never
    /// reads out of bounds.
    #[test]
    fn mutation_is_handled(msg in arb_msg(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = encode(&msg);
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = decode(&bytes);
    }
}
