//! Soft-state entries with the paper's two-timer lifecycle.
//!
//! Both HBH and REUNITE attach two timers to every table entry (§3.1):
//!
//! * when `t1` expires the entry becomes **stale**;
//! * when `t2` expires the entry is **destroyed**.
//!
//! Entries are kept alive by periodic refresh messages (joins or trees).
//! Rather than arming two kernel timers per entry — thousands of timers on
//! a large group — entries store their expiry *timestamps* and are
//! evaluated lazily against the current time, with a periodic per-node
//! sweep reaping dead entries. This is the standard implementation of
//! soft state and is observationally identical to real timers.
//!
//! HBH additionally **marks** entries (set by `fusion` processing): a
//! marked entry forwards `tree` messages but no data, whereas a *stale*
//! entry forwards data but no `tree` messages (Appendix A). The flag is
//! stored here; its interpretation stays in the protocol crates.
//!
//! [`SoftList`] is the insertion-ordered table of such entries that
//! REUNITE's MCT and MFT both are (its rules read "the first receiver that
//! joined"). PIM's `OifTable` is not one: it iterates in node-id order,
//! and insertion order would reorder its same-time sends.

use crate::timing::Timing;
use hbh_sim_core::Time;
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
    /// HBH mark (fusion rule 2): entry forwards tree messages, not data.
    pub marked: bool,
}

impl SoftEntry {
    /// A fresh entry created (or refreshed) at `now`.
    pub fn new(now: Time, timing: &Timing) -> Self {
        SoftEntry {
            expires_t1: now + timing.t1,
            expires_t2: now + timing.t2,
            marked: false,
        }
    }

    /// Full refresh: both timers restart. Clears staleness, keeps the mark
    /// (a marked entry refreshed by joins stays marked — Figure 5's `r1`
    /// entry at `H1`).
    pub fn refresh(&mut self, now: Time, timing: &Timing) {
        self.expires_t1 = now + timing.t1;
        self.expires_t2 = now + timing.t2;
    }

    /// Fusion rule (4): "Bp's t2 timer is refreshed …, but its t1 timer is
    /// kept expired". The entry stays alive and stale.
    pub fn refresh_t2_keep_stale(&mut self, now: Time, timing: &Timing) {
        self.expires_t1 = now;
        self.expires_t2 = now + timing.t2;
    }

    /// Fusion rule (3): "Bp's t1 timer is expired — Bp becomes stale".
    pub fn force_stale(&mut self, now: Time) {
        self.expires_t1 = now;
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

/// One soft-state entry per node, oldest first.
#[derive(Clone, Debug, Default)]
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

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing {
            t1: 100,
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
    fn force_stale_expires_t1_only() {
        let mut e = SoftEntry::new(Time(0), &timing());
        e.force_stale(Time(10));
        assert!(e.is_stale(Time(10)));
        assert!(e.is_stale(Time(150)));
        assert!(e.is_dead(Time(200)), "t2 untouched");
    }

    #[test]
    fn refresh_t2_keep_stale_extends_life_not_freshness() {
        let mut e = SoftEntry::new(Time(0), &timing());
        e.force_stale(Time(10));
        e.refresh_t2_keep_stale(Time(150), &timing());
        assert!(e.is_stale(Time(150)));
        assert!(e.is_stale(Time(349)));
        assert!(e.is_dead(Time(350)));
    }

    #[test]
    fn refresh_keeps_the_mark() {
        let mut e = SoftEntry::new(Time(0), &timing());
        e.marked = true;
        e.refresh(Time(50), &timing());
        assert!(e.marked);
        assert!(e.is_fresh(Time(60)));
    }

    #[test]
    fn refresh_unstales() {
        let mut e = SoftEntry::new(Time(0), &timing());
        e.force_stale(Time(10));
        assert!(e.is_stale(Time(20)));
        e.refresh(Time(20), &timing());
        assert!(e.is_fresh(Time(20)));
    }
}
