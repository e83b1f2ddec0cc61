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
//! * **Round-trip:** `decode(encode(m)) == m` for every valid message
//!   (unit + property tests).
//! * **Zero panic:** `decode` of *arbitrary* bytes never panics and never
//!   allocates unboundedly — it returns a typed [`WireError`]
//!   (property-tested against random and truncated inputs).

pub mod codec;
pub mod format;

pub use codec::{decode, encode, WireError, WireMsg};

#[cfg(test)]
mod proptests;
