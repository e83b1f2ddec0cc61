#![warn(missing_docs)]

//! # hbh-wire — wire formats for the protocol messages
//!
//! The simulator exchanges typed Rust enums; a deployment exchanges bytes.
//! This crate defines a concrete wire encoding for every message of the
//! protocol families that run over sockets (HBH, hard-state HBH, REUNITE),
//! so the engines in this workspace describe a protocol that could actually
//! go on the wire. PIM has no wire form: its per-interface data plane
//! cannot run over `hbh-live`'s UDP unicast, so nothing would send one.
//!
//! ## Format
//!
//! Every message is a fixed 8-byte header followed by a message-specific
//! body, all integers big-endian (network order):
//!
//! ```text
//!  0               1               2               3
//!  +---------------+---------------+---------------+---------------+
//!  | magic (0xB4)  | version (1)   | msg type      | flags         |
//!  +---------------+---------------+---------------+---------------+
//!  | body length (u16)             | reserved (u16, zero)          |
//!  +---------------+---------------+---------------+---------------+
//!  | body ...                                                      |
//! ```
//!
//! Node addresses travel as `u32` (the simulator's dense node ids stand in
//! for IPv4 unicast addresses 1:1); group addresses as `u32` in the SSM
//! `232/8` convention of `hbh-proto-base::channel`.
//!
//! ## Guarantees
//!
//! * **Round-trip:** `decode(encode(m), n) == m` for every valid message
//!   whose node ids are below `n` (unit + property tests).
//! * **Zero panic:** `decode` of *arbitrary* bytes never panics and never
//!   allocates unboundedly — it returns a typed [`WireError`]
//!   (property-tested against random and truncated inputs).
//! * **Known nodes:** `decode(bytes, n)` returns only messages whose every
//!   node id is below `n`, the receiving network's node count; any other
//!   id is [`WireError::UnknownNode`], so no table indexed by node id is
//!   ever read out of range (property-tested against valid and bit-flipped
//!   encodings).

pub mod codec;
pub mod format;

pub use codec::{decode, encode, WireError, WireMsg};

#[cfg(test)]
mod proptests;
