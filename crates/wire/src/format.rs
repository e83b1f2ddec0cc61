//! Low-level field encoding: the envelope and header sizes, the type and
//! flag codes, and primitive readers and writers with explicit bounds
//! checking (no slicing panics anywhere).

use crate::codec::WireError;
use hbh_proto_base::{Channel, GroupAddr};
use hbh_topo::graph::NodeId;

/// First header byte, chosen to be visibly not-ASCII in dumps.
pub const MAGIC: u8 = 0xB4;
/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Envelope length in bytes: source, destination, TTL, class, tag and
/// injection time of the packet the message rides in.
pub const ENVELOPE_LEN: usize = 4 + 4 + 1 + 1 + 8 + 8;
/// Header length in bytes.
pub const HEADER_LEN: usize = 8;
/// The largest body one datagram carries: UDP's 65,507-byte payload less
/// the envelope and the header. It also keeps every length and list count
/// inside its `u16` field. The largest real message is an HBH fusion
/// listing an MFT, here up to 16,364 nodes.
pub const MAX_BODY: usize = 65_507 - ENVELOPE_LEN - HEADER_LEN;

/// Message type codes (byte 2 of the header).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
#[allow(missing_docs)] // names mirror the message enums 1:1
pub enum MsgType {
    HbhJoin = 0x01,
    HbhTree = 0x02,
    HbhFusion = 0x03,
    HbhData = 0x04,
    ReuniteJoin = 0x11,
    ReuniteTree = 0x12,
    ReuniteData = 0x14,
    // 0x3x — hard-state HBH: sequenced control (each carrying the
    // origin's (node, seq) reliability header), the ACK, and plain data.
    HbhHardJoin = 0x31,
    HbhHardLeave = 0x32,
    HbhHardPrune = 0x33,
    HbhHardTree = 0x34,
    HbhHardFusion = 0x35,
    HbhHardProbe = 0x36,
    HbhHardAck = 0x37,
    HbhHardData = 0x38,
}

impl MsgType {
    /// Parses a header type byte.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        Some(match b {
            0x01 => MsgType::HbhJoin,
            0x02 => MsgType::HbhTree,
            0x03 => MsgType::HbhFusion,
            0x04 => MsgType::HbhData,
            0x11 => MsgType::ReuniteJoin,
            0x12 => MsgType::ReuniteTree,
            0x14 => MsgType::ReuniteData,
            0x31 => MsgType::HbhHardJoin,
            0x32 => MsgType::HbhHardLeave,
            0x33 => MsgType::HbhHardPrune,
            0x34 => MsgType::HbhHardTree,
            0x35 => MsgType::HbhHardFusion,
            0x36 => MsgType::HbhHardProbe,
            0x37 => MsgType::HbhHardAck,
            0x38 => MsgType::HbhHardData,
            _ => return None,
        })
    }
}

/// Flag bits (byte 3 of the header).
pub mod flags {
    /// HBH join: the receiver's first join (never intercepted);
    /// REUNITE join: fresh join (may be captured / promote).
    pub const INITIAL: u8 = 0b0000_0001;
    /// REUNITE tree: marked (stale-propagation).
    pub const MARKED: u8 = 0b0000_0010;
    /// Hard-HBH join: a failed-node hint rides in the body.
    pub const FAILED: u8 = 0b0000_0100;
    /// Hard-HBH ACK: the acker still serves the probing origin.
    pub const SERVES: u8 = 0b0000_1000;
    /// Hard-HBH ACK: a probe-redirect server node rides in the body.
    pub const REDIRECT: u8 = 0b0001_0000;
    /// All bits a valid encoder may set.
    pub const KNOWN: u8 = INITIAL | MARKED | FAILED | SERVES | REDIRECT;
}

/// Bounds-checked big-endian writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64` (reliable-layer sequence numbers).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a node address (`u32`).
    pub fn node(&mut self, n: NodeId) {
        self.u32(n.0);
    }

    /// Appends a channel: source address then group address.
    pub fn channel(&mut self, ch: Channel) {
        self.node(ch.source);
        self.u32(ch.group.0);
    }

    /// Appends a node list: its `u16` count, then the addresses. A list
    /// too long for the count cannot fit [`MAX_BODY`] either, so the
    /// encoder refuses its message before the truncated count is sent.
    pub fn nodes(&mut self, nodes: &[NodeId]) {
        self.u16(nodes.len() as u16);
        for &n in nodes {
            self.node(n);
        }
    }

    /// Overwrites bytes already written, starting at offset `at` (a
    /// header's type, flags and length once its body is written).
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Finishes writing and yields the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked big-endian reader over a datagram or a body slice, for
/// a network of known size: a node id names one of its nodes or is an
/// error.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Node count of the network: every node id read must be below it.
    node_count: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, a datagram or one message body, from a
    /// network of `nodes` nodes.
    pub fn new(buf: &'a [u8], nodes: usize) -> Self {
        Reader {
            buf,
            pos: 0,
            node_count: nodes,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64` (reliable-layer sequence numbers).
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a node address; one at or above the node count is
    /// [`WireError::UnknownNode`].
    pub fn node(&mut self) -> Result<NodeId, WireError> {
        let id = self.u32()?;
        if id as usize >= self.node_count {
            return Err(WireError::UnknownNode(id));
        }
        Ok(NodeId(id))
    }

    /// Reads a channel (source address then group address).
    pub fn channel(&mut self) -> Result<Channel, WireError> {
        let source = self.node()?;
        let group = GroupAddr(self.u32()?);
        Ok(Channel { source, group })
    }

    /// Reads a node list that runs to the end of the body: a `u16` count
    /// that must match the bytes left (checked before allocating), then
    /// the addresses, into whichever list the message keeps (a `Vec`, or
    /// the shared `Arc<[NodeId]>` of a soft fusion).
    pub fn nodes<L: FromIterator<NodeId>>(&mut self) -> Result<L, WireError> {
        let count = usize::from(self.u16()?);
        if self.remaining() != count * 4 {
            return Err(WireError::BadListLength);
        }
        (0..count).map(|_| self.node()).collect()
    }

    /// Takes the next `len` bytes as a reader of their own, for the same
    /// network: a message body read to its end.
    pub fn body(&mut self, len: usize) -> Result<Reader<'a>, WireError> {
        Ok(Reader::new(self.take(len)?, self.node_count))
    }

    /// All body bytes must be consumed; trailing garbage is an error (it
    /// would hide framing bugs).
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.pos))
        }
    }

    /// Unread bytes left in the body.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0xDEAD_BEEF);
        w.node(NodeId(42));
        w.channel(Channel::primary(NodeId(7)));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 43);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.node().unwrap(), NodeId(42));
        assert_eq!(r.channel().unwrap(), Channel::primary(NodeId(7)));
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_unknown_nodes() {
        let bytes = 42u32.to_be_bytes();
        assert_eq!(Reader::new(&bytes, 43).node(), Ok(NodeId(42)));
        assert_eq!(
            Reader::new(&bytes, 42).node(),
            Err(WireError::UnknownNode(42))
        );
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut r = Reader::new(&[1, 2, 3], 1);
        assert!(r.u32().is_err());
    }

    #[test]
    fn reader_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2], 1);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn msg_type_codes_roundtrip() {
        for t in [
            MsgType::HbhJoin,
            MsgType::HbhTree,
            MsgType::HbhFusion,
            MsgType::HbhData,
            MsgType::ReuniteJoin,
            MsgType::ReuniteTree,
            MsgType::ReuniteData,
            MsgType::HbhHardJoin,
            MsgType::HbhHardLeave,
            MsgType::HbhHardPrune,
            MsgType::HbhHardTree,
            MsgType::HbhHardFusion,
            MsgType::HbhHardProbe,
            MsgType::HbhHardAck,
            MsgType::HbhHardData,
        ] {
            assert_eq!(MsgType::from_byte(t as u8), Some(t));
        }
        assert_eq!(MsgType::from_byte(0xFF), None);
    }
}
