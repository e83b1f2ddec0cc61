//! Soft-state entries with the paper's two-timer lifecycle.
//!
//! Both HBH and REUNITE attach two timers to every table entry (§3.1):
//!
//! * when `t1` ([`Timing::t1`], half of `t2`) expires the entry becomes
//!   **stale**;
//! * when `t2` expires the entry is **destroyed**.
//!
//! Entries are kept alive by periodic refresh messages (joins or trees).
//! Rather than arming two kernel timers per entry — thousands of timers on
//! a large group — entries store their expiry *timestamps* and are
//! evaluated lazily against the current time, with a periodic per-node
//! sweep reaping dead entries. This is the standard implementation of
//! soft state and is observationally identical to real timers.
//!
//! Two tables of such state serve the protocols:
//!
//! * [`SoftList`] — two-timer entries in insertion order: REUNITE's MCT
//!   and MFT both are one (its rules read "the first receiver that
//!   joined");
//! * [`SoftSet`] — one `t2` deadline per member, in node-id order: PIM's
//!   outgoing interfaces and HBH-AGG's local members, which need no stale
//!   phase and must enumerate in id order (insertion order would reorder
//!   their same-time sends).

use crate::timing::Timing;
use hbh_sim_core::{SteadyState, Time};
use hbh_topo::graph::NodeId;

/// Lifecycle phase of a soft-state entry at a given instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryPhase {
    /// Refreshed recently; fully active.
    Fresh,
    /// `t1` expired: still present but signalling imminent removal.
    Stale,
    /// `t2` expired: to be reaped by the next sweep.
    Dead,
}

/// One soft-state table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftEntry {
    expires_t1: Time,
    expires_t2: Time,
}

impl SoftEntry {
    /// A fresh entry created (or refreshed) at `now`.
    pub fn new(now: Time, timing: &Timing) -> Self {
        SoftEntry {
            expires_t1: now + timing.t1(),
            expires_t2: now + timing.t2,
        }
    }

    /// Full refresh: both timers restart, which clears staleness.
    pub fn refresh(&mut self, now: Time, timing: &Timing) {
        self.expires_t1 = now + timing.t1();
        self.expires_t2 = now + timing.t2;
    }

    /// Phase at `now`. Expiry is inclusive: an entry whose timer is exactly
    /// due counts as expired (timers fire *at* their deadline).
    pub fn phase(&self, now: Time) -> EntryPhase {
        if now >= self.expires_t2 {
            EntryPhase::Dead
        } else if now >= self.expires_t1 {
            EntryPhase::Stale
        } else {
            EntryPhase::Fresh
        }
    }

    /// True before t1 expires.
    pub fn is_fresh(&self, now: Time) -> bool {
        self.phase(now) == EntryPhase::Fresh
    }

    /// True between t1 and t2 expiry.
    pub fn is_stale(&self, now: Time) -> bool {
        self.phase(now) == EntryPhase::Stale
    }

    /// True once t2 expires.
    pub fn is_dead(&self, now: Time) -> bool {
        self.phase(now) == EntryPhase::Dead
    }
}

impl SteadyState for SoftEntry {
    fn advance(&mut self, by: u64) {
        self.expires_t1.advance(by);
        self.expires_t2.advance(by);
    }
}

/// One soft-state entry per node, oldest first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoftList {
    entries: Vec<(NodeId, SoftEntry)>,
}

impl SoftList {
    /// `r`'s entry, if it has one (liveness not checked).
    pub fn get(&self, r: NodeId) -> Option<&SoftEntry> {
        self.entries.iter().find(|(n, _)| *n == r).map(|(_, e)| e)
    }

    /// Refreshes (or appends) `r`. Returns `true` on append.
    pub fn refresh_or_insert(&mut self, r: NodeId, now: Time, timing: &Timing) -> bool {
        let fresh = !self.refresh_existing(r, now, timing);
        if fresh {
            self.entries.push((r, SoftEntry::new(now, timing)));
        }
        fresh
    }

    /// Refreshes `r` only if present. Returns `true` if it was.
    pub fn refresh_existing(&mut self, r: NodeId, now: Time, timing: &Timing) -> bool {
        let Some((_, e)) = self.entries.iter_mut().find(|(n, _)| *n == r) else {
            return false;
        };
        e.refresh(now, timing);
        true
    }

    /// Removes `r`. Returns `true` if present.
    pub fn remove(&mut self, r: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| *n != r);
        self.entries.len() != before
    }

    /// True if `r` has an entry (liveness not checked).
    pub fn contains(&self, r: NodeId) -> bool {
        self.get(r).is_some()
    }

    /// Live nodes, oldest first.
    pub fn live(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .filter(move |(_, e)| !e.is_dead(now))
            .map(|(n, _)| *n)
    }

    /// The oldest live node.
    pub fn first_live(&self, now: Time) -> Option<NodeId> {
        self.live(now).next()
    }

    /// Drops dead entries; returns how many.
    pub fn reap(&mut self, now: Time) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, e)| !e.is_dead(now));
        before - self.entries.len()
    }

    /// Raw entry count (dead-but-unreaped included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl SteadyState for SoftList {
    fn advance(&mut self, by: u64) {
        for (_, e) in &mut self.entries {
            e.advance(by);
        }
    }
}

/// One `t2` deadline per member, in node-id order.
///
/// A member is live while `now < last refresh + t2`; there is no stale
/// phase. Rows are `(node, deadline)` in a vector sorted by node id, so a
/// refresh or a lookup is one binary search, enumeration is in id order,
/// and [`SoftSet::reap`] is one `retain`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoftSet {
    rows: Vec<(NodeId, Time)>,
}

impl SoftSet {
    /// Refreshes (or inserts) `n` at `now`: it stays live until
    /// `now + timing.t2`. Returns `true` if `n` is a new member.
    pub fn refresh(&mut self, n: NodeId, now: Time, timing: &Timing) -> bool {
        let deadline = now + timing.t2;
        match self.rows.binary_search_by_key(&n, |&(m, _)| m) {
            Ok(i) => {
                self.rows[i].1 = deadline;
                false
            }
            Err(at) => {
                self.rows.insert(at, (n, deadline));
                true
            }
        }
    }

    /// True if `n` has a row (liveness not checked).
    pub fn contains(&self, n: NodeId) -> bool {
        self.rows.binary_search_by_key(&n, |&(m, _)| m).is_ok()
    }

    /// Live members at `now`, in id order.
    pub fn live(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        self.rows
            .iter()
            .filter(move |&&(_, deadline)| now < deadline)
            .map(|&(n, _)| n)
    }

    /// Drops the rows whose deadline has passed; returns how many.
    pub fn reap(&mut self, now: Time) -> usize {
        let before = self.rows.len();
        self.rows.retain(|&(_, deadline)| now < deadline);
        before - self.rows.len()
    }

    /// Raw row count (dead-but-unreaped included).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows remain.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl SteadyState for SoftSet {
    fn advance(&mut self, by: u64) {
        for (_, t) in &mut self.rows {
            t.advance(by);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing {
            t2: 200,
            ..Timing::default()
        }
    }

    #[test]
    fn fresh_then_stale_then_dead() {
        let e = SoftEntry::new(Time(0), &timing());
        assert_eq!(e.phase(Time(0)), EntryPhase::Fresh);
        assert_eq!(e.phase(Time(99)), EntryPhase::Fresh);
        assert_eq!(e.phase(Time(100)), EntryPhase::Stale);
        assert_eq!(e.phase(Time(199)), EntryPhase::Stale);
        assert_eq!(e.phase(Time(200)), EntryPhase::Dead);
        assert_eq!(e.phase(Time(10_000)), EntryPhase::Dead);
    }

    #[test]
    fn refresh_restarts_both_timers() {
        let mut e = SoftEntry::new(Time(0), &timing());
        e.refresh(Time(90), &timing());
        assert!(e.is_fresh(Time(189)));
        assert!(e.is_stale(Time(190)));
        assert!(e.is_dead(Time(290)));
    }

    #[test]
    fn refresh_unstales() {
        let mut e = SoftEntry::new(Time(0), &timing());
        assert!(e.is_stale(Time(120)));
        e.refresh(Time(120), &timing());
        assert!(e.is_fresh(Time(120)));
    }

    #[test]
    fn refresh_inserts_sorted_and_refreshes_in_place() {
        let mut s = SoftSet::default();
        assert!(s.refresh(NodeId(5), Time(0), &timing()));
        assert!(s.refresh(NodeId(2), Time(1), &timing()));
        assert!(s.refresh(NodeId(9), Time(2), &timing()));
        assert!(
            !s.refresh(NodeId(5), Time(3), &timing()),
            "existing member refreshed"
        );
        assert_eq!(
            s.live(Time(3)).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(5), NodeId(9)],
            "enumeration is id-sorted"
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_is_exact_at_any_size() {
        let mut s = SoftSet::default();
        for i in 0..300 {
            s.refresh(NodeId(i), Time(0), &timing());
        }
        assert!(!s.contains(NodeId(100_000)));
        assert!(s.contains(NodeId(150)));
    }

    #[test]
    fn reap_expires_at_t2() {
        let mut s = SoftSet::default();
        s.refresh(NodeId(1), Time(0), &timing());
        s.refresh(NodeId(2), Time(50), &timing());
        // Member 1 is due at exactly t2 = 200, member 2 at 250.
        assert_eq!(s.live(Time(199)).count(), 2);
        assert_eq!(s.live(Time(200)).collect::<Vec<_>>(), vec![NodeId(2)]);
        assert_eq!(s.reap(Time(200)), 1);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(NodeId(1)));
        assert!(s.contains(NodeId(2)));
    }
}
