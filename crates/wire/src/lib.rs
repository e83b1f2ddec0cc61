#![warn(missing_docs)]

//! # hbh-wire — the live datagram
//!
//! The simulator exchanges typed Rust enums; a deployment exchanges bytes.
//! This crate owns the one datagram a live node sends: the packet's
//! envelope, then the message of one of the protocol families that run
//! over sockets (HBH, hard-state HBH, REUNITE), so the engines in this
//! workspace describe a protocol that could actually go on the wire. Each
//! family's message enum implements [`Codec`]; [`encode_packet`] and
//! [`decode_packet`] are the only way in and out. PIM has no wire form:
//! its per-interface data plane cannot run over `hbh-live`'s UDP unicast,
//! so nothing would send one.
//!
//! ## Format
//!
//! A datagram is a 26-byte envelope — the [`hbh_sim_core::Packet`]
//! fields around the message — then a fixed 8-byte header and a
//! message-specific body, all integers big-endian (network order):
//!
//! ```text
//!  offset  size  field
//!       0     4  src node                  ─┐
//!       4     4  dst node                   │
//!       8     1  ttl                        │ envelope
//!       9     1  class (0 control, 1 data)  │
//!      10     8  tag                        │
//!      18     8  injected_at               ─┘
//!      26     1  magic (0xB4)              ─┐
//!      27     1  version (1)                │
//!      28     1  msg type                   │ header
//!      29     1  flags                      │
//!      30     2  body length                │
//!      32     2  reserved (zero)           ─┘
//!      34     …  body
//! ```
//!
//! Node addresses travel as `u32` (the simulator's dense node ids stand in
//! for IPv4 unicast addresses 1:1); group addresses as `u32` in the SSM
//! `232/8` convention of `hbh-proto-base::channel`. A body is at most
//! [`format::MAX_BODY`] bytes, so that every datagram fits UDP's 65,507
//! bytes.
//!
//! ## Guarantees
//!
//! * **Round-trip:** `decode_packet(encode_packet(p)?, n) == p` for every
//!   packet whose node ids are below `n` (unit + property tests); the
//!   bytes of one datagram per message type are pinned.
//! * **Fits or refused:** [`encode_packet`] returns
//!   [`WireError::OversizedBody`] rather than a datagram UDP cannot carry
//!   or a length field that wrapped.
//! * **Zero panic:** [`decode_packet`] of *arbitrary* bytes never panics
//!   and never allocates unboundedly — it returns a typed [`WireError`]
//!   (property-tested against random, truncated and bit-flipped inputs).
//! * **Known nodes:** `decode_packet(bytes, n)` returns only packets whose
//!   every node id, envelope included, is below `n`, the receiving
//!   network's node count; any other id is [`WireError::UnknownNode`], so
//!   no table indexed by node id is ever read out of range.

pub mod codec;
pub mod format;

pub use codec::{decode_packet, encode_packet, Codec, WireError};

#[cfg(test)]
mod proptests;
