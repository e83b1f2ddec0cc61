//! A reusable reliable-control-message layer: per-origin sequence numbers,
//! ACK bookkeeping, retransmission with capped exponential backoff, and
//! duplicate/reorder suppression.
//!
//! The layer is deliberately *passive*: it owns no clock and sends no
//! packets. An engine drives it from its own handlers — [`seal`] when
//! originating a message, [`observe`]/[`consume`] on arrival, [`on_ack`]
//! when an acknowledgement returns, and [`on_rtx`] when a retransmission
//! timer fires. That keeps it generic over the message plumbing: the same
//! state machine runs unchanged under the simulation kernel and the live
//! UDP node loop, and REUNITE/PIM can wrap their own control messages in
//! it without touching the transport.
//!
//! [`seal`]: ReliableState::seal
//! [`observe`]: ReliableState::observe
//! [`consume`]: ReliableState::consume
//! [`on_ack`]: ReliableState::on_ack
//! [`on_rtx`]: ReliableState::on_rtx

use hbh_sim_core::{FastMap, FastSet};
use hbh_topo::graph::NodeId;

/// Retransmission policy: initial timeout, backoff cap, and the attempt
/// budget after which the layer reports a give-up (the engine decides what
/// a give-up *means* — typically "neighbor declared down").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Initial retransmission timeout (time units of the host backend).
    pub rto: u64,
    /// Upper bound on the backed-off timeout.
    pub rto_cap: u64,
    /// Total transmissions (first send + retransmissions) before giving up.
    pub max_attempts: u32,
}

impl ReliableConfig {
    /// The backed-off timeout for the next retransmission after `attempt`
    /// transmissions have already gone out: `min(rto << attempt, rto_cap)`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shifted = self.rto.checked_shl(attempt).unwrap_or(self.rto_cap);
        shifted.min(self.rto_cap).max(1)
    }

    /// Worst-case time from first send to give-up: the sum of every
    /// backed-off timeout. This bounds failure-detection latency.
    pub fn detection_bound(&self) -> u64 {
        (0..self.max_attempts).map(|a| self.backoff(a)).sum()
    }
}

/// Counters exposed for experiments: how hard the layer worked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Messages originated (sequence numbers handed out).
    pub sealed: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Messages abandoned after `max_attempts` transmissions.
    pub give_ups: u64,
    /// Sequenced messages consumed fresh (first delivery to the engine).
    pub consumed_fresh: u64,
    /// Duplicate arrivals suppressed (consumer re-ACKs, transit skips).
    pub dup_suppressed: u64,
    /// Acknowledgements accepted for an outstanding message.
    pub acked: u64,
}

/// An unacknowledged message: where it went, what it was, and how many
/// times it has been transmitted.
#[derive(Clone, Debug, PartialEq)]
pub struct Outstanding<M> {
    /// The consumer the message is addressed to.
    pub dst: NodeId,
    /// The engine-level payload, kept verbatim for retransmission.
    pub msg: M,
    /// Transmissions so far (1 right after [`ReliableState::seal`]).
    pub attempts: u32,
}

/// What the engine should do when a retransmission timer fires.
#[derive(Clone, Debug)]
pub enum RtxVerdict<M> {
    /// Send the payload again (same sequence number) and re-arm the timer
    /// after `delay`.
    Resend {
        /// Original destination.
        dst: NodeId,
        /// Payload to re-wrap and re-send.
        msg: M,
        /// Backed-off delay before the next retransmission check.
        delay: u64,
    },
    /// The attempt budget is exhausted; the message is abandoned and its
    /// destination should be treated as unresponsive.
    GiveUp {
        /// The destination that never acknowledged.
        dst: NodeId,
        /// The abandoned payload, for give-up-specific handling.
        msg: M,
    },
    /// The message was acknowledged (or wiped) before the timer fired.
    Stale,
}

/// Per-origin duplicate/reorder suppression window. Sequence numbers below
/// `floor` are summarily duplicates; the set holds everything seen at or
/// above it. The window is pruned so state stays bounded under arbitrarily
/// long sessions.
#[derive(Clone, Debug, Default, PartialEq)]
struct SeenWindow {
    seen: FastSet<u64>,
    floor: u64,
    max: u64,
}

/// Prune threshold for a [`SeenWindow`]: once the set holds this many
/// sequence numbers, everything more than `WINDOW_KEEP` behind the highest
/// seen is collapsed into the floor.
const WINDOW_PRUNE: usize = 4096;
const WINDOW_KEEP: u64 = 1024;

impl SeenWindow {
    /// Records `seq`; returns `true` if it was fresh.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.floor || !self.seen.insert(seq) {
            return false;
        }
        self.max = self.max.max(seq);
        if self.seen.len() >= WINDOW_PRUNE {
            let floor = self.max.saturating_sub(WINDOW_KEEP);
            self.seen.retain(|&s| s >= floor);
            self.floor = floor;
        }
        true
    }
}

/// The per-node reliable-delivery state machine, generic over the engine's
/// control payload `M`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliableState<M> {
    next_seq: u64,
    outstanding: FastMap<u64, Outstanding<M>>,
    seen: FastMap<NodeId, SeenWindow>,
    /// Work counters, for experiment metrics.
    pub stats: ReliableStats,
}

impl<M> Default for ReliableState<M> {
    fn default() -> Self {
        ReliableState {
            next_seq: 0,
            outstanding: FastMap::default(),
            seen: FastMap::default(),
            stats: ReliableStats::default(),
        }
    }
}

impl<M: Clone> ReliableState<M> {
    /// Registers a new outgoing message for `dst` and returns the sequence
    /// number to stamp on it. The caller sends the packet and arms a
    /// retransmission timer for [`ReliableConfig::rto`].
    pub fn seal(&mut self, dst: NodeId, msg: M) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.insert(
            seq,
            Outstanding {
                dst,
                msg,
                attempts: 1,
            },
        );
        self.stats.sealed += 1;
        seq
    }

    /// Accepts an acknowledgement: returns the settled message if `seq`
    /// was still outstanding (so the engine can cancel its timer and act
    /// on what was acknowledged), `None` for duplicate/stray ACKs.
    pub fn on_ack(&mut self, seq: u64) -> Option<Outstanding<M>> {
        let out = self.outstanding.remove(&seq);
        if out.is_some() {
            self.stats.acked += 1;
        }
        out
    }

    /// Records a sequenced message passing *through* this node. Returns
    /// `true` if it is fresh (first sighting from this origin), `false`
    /// for a duplicate — forward it either way, but only process the
    /// protocol rules on a fresh sighting.
    pub fn observe(&mut self, origin: NodeId, seq: u64) -> bool {
        let fresh = self.seen.entry(origin).or_default().insert(seq);
        if !fresh {
            self.stats.dup_suppressed += 1;
        }
        fresh
    }

    /// Records a sequenced message *consumed* at this node. Same dedup as
    /// [`observe`](Self::observe), but fresh deliveries are counted — the
    /// exactly-once ledger the lossy-link tests check. Always ACK, process
    /// only when this returns `true`.
    pub fn consume(&mut self, origin: NodeId, seq: u64) -> bool {
        let fresh = self.observe(origin, seq);
        if fresh {
            self.stats.consumed_fresh += 1;
        }
        fresh
    }

    /// Handles a retransmission-timer expiry for `seq`.
    pub fn on_rtx(&mut self, seq: u64, cfg: &ReliableConfig) -> RtxVerdict<M> {
        match self.outstanding.get_mut(&seq) {
            None => RtxVerdict::Stale,
            Some(out) if out.attempts >= cfg.max_attempts => {
                self.stats.give_ups += 1;
                let out = self.outstanding.remove(&seq).expect("checked above");
                RtxVerdict::GiveUp {
                    dst: out.dst,
                    msg: out.msg,
                }
            }
            Some(out) => {
                let delay = cfg.backoff(out.attempts);
                out.attempts += 1;
                self.stats.retransmits += 1;
                RtxVerdict::Resend {
                    dst: out.dst,
                    msg: out.msg.clone(),
                    delay,
                }
            }
        }
    }

    /// Unacknowledged messages currently awaiting an ACK or a verdict.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Approximate bytes of reliability bookkeeping this node carries:
    /// outstanding messages plus dedup windows. Counted into the hard
    /// engine's state-size metric so the soft/hard comparison charges the
    /// reliable layer honestly.
    pub fn state_bytes(&self) -> usize {
        let per_out = 8 + 4 + 4 + core::mem::size_of::<M>();
        let windows: usize = self.seen.values().map(|w| 16 + 8 * w.seen.len()).sum();
        self.outstanding.len() * per_out + windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn seal_ack_settles_exactly_once() {
        let mut r: ReliableState<&str> = ReliableState::default();
        let s0 = r.seal(n(2), "join");
        let s1 = r.seal(n(3), "tree");
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(r.outstanding(), 2);
        let settled = r.on_ack(s0).unwrap();
        assert_eq!((settled.dst, settled.msg), (n(2), "join"));
        assert!(r.on_ack(s0).is_none(), "duplicate ACK must be inert");
        assert_eq!(r.outstanding(), 1);
        assert_eq!(r.stats.acked, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ReliableConfig {
            rto: 50,
            rto_cap: 300,
            max_attempts: 6,
        };
        let delays: Vec<u64> = (0..6).map(|a| cfg.backoff(a)).collect();
        assert_eq!(delays, vec![50, 100, 200, 300, 300, 300]);
        assert_eq!(cfg.detection_bound(), 50 + 100 + 200 + 300 + 300 + 300);
        // Absurd attempt counts must not overflow the shift.
        assert_eq!(cfg.backoff(200), 300);
    }

    #[test]
    fn rtx_resends_with_backoff_then_gives_up() {
        let cfg = ReliableConfig {
            rto: 10,
            rto_cap: 40,
            max_attempts: 3,
        };
        let mut r: ReliableState<&str> = ReliableState::default();
        let seq = r.seal(n(9), "probe");
        let RtxVerdict::Resend { dst, delay, .. } = r.on_rtx(seq, &cfg) else {
            panic!("first expiry must resend");
        };
        assert_eq!((dst, delay), (n(9), 20));
        let RtxVerdict::Resend { delay, .. } = r.on_rtx(seq, &cfg) else {
            panic!("second expiry must resend");
        };
        assert_eq!(delay, 40);
        let RtxVerdict::GiveUp { dst, msg } = r.on_rtx(seq, &cfg) else {
            panic!("attempt budget exhausted: must give up");
        };
        assert_eq!((dst, msg), (n(9), "probe"));
        assert!(matches!(r.on_rtx(seq, &cfg), RtxVerdict::Stale));
        assert_eq!(r.stats.retransmits, 2);
        assert_eq!(r.stats.give_ups, 1);
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn ack_races_rtx_timer_to_stale() {
        let cfg = ReliableConfig {
            rto: 50,
            rto_cap: 200,
            max_attempts: 4,
        };
        let mut r: ReliableState<&str> = ReliableState::default();
        let seq = r.seal(n(4), "x");
        r.on_ack(seq).unwrap();
        assert!(matches!(r.on_rtx(seq, &cfg), RtxVerdict::Stale));
    }

    #[test]
    fn dedup_is_per_origin_and_counts() {
        let mut r: ReliableState<()> = ReliableState::default();
        assert!(r.consume(n(1), 0));
        assert!(!r.consume(n(1), 0), "same (origin, seq) is a duplicate");
        assert!(r.consume(n(2), 0), "seq spaces are per origin");
        assert!(r.observe(n(1), 5), "reordered-ahead seq is fresh");
        assert!(r.consume(n(1), 3), "reordered-behind seq is still fresh");
        assert_eq!(r.stats.consumed_fresh, 3);
        assert_eq!(r.stats.dup_suppressed, 1);
    }

    #[test]
    fn seen_window_prunes_but_stays_correct_near_the_top() {
        let mut r: ReliableState<()> = ReliableState::default();
        for seq in 0..(WINDOW_PRUNE as u64 + 10) {
            assert!(r.observe(n(1), seq));
        }
        // Recent history survives the prune...
        assert!(!r.observe(n(1), WINDOW_PRUNE as u64 + 9));
        assert!(!r.observe(n(1), WINDOW_PRUNE as u64 - WINDOW_KEEP / 2));
        // ...and anything below the floor is treated as a duplicate.
        assert!(!r.observe(n(1), 0));
        let bytes = r.state_bytes();
        assert!(bytes > 0 && bytes < 64 * 1024, "window must stay bounded");
    }
}
