//! REUNITE's two tables: the control-plane MCT and the forwarding-plane
//! MFT.
//!
//! Both are insertion-ordered [`SoftList`]s: REUNITE semantics depend on
//! *who joined first* — the source's `dst` is the first receiver that
//! joined the group, and a promoted branching node takes the first MCT
//! receiver as its `dst`.

use hbh_proto_base::{SoftEntry, SoftList, Timing};
use hbh_sim_core::{SteadyState, Time};
use hbh_topo::graph::NodeId;
use std::ops::{Deref, DerefMut};

/// Multicast Control Table for one channel at a non-branching router: the
/// receivers whose `tree` messages flow through this node. Never used for
/// data forwarding.
pub type Mct = SoftList;

/// Multicast Forwarding Table for one channel at a branching router (or at
/// the source): the receivers that joined *here* (the [`SoftList`] it
/// derefs to), with the distinguished `dst` the incoming data is addressed
/// to.
#[derive(Clone, Debug, PartialEq)]
pub struct Mft {
    dst: NodeId,
    members: SoftList,
    /// Set when a marked `tree(S, dst)` arrives: the table stops
    /// intercepting joins (downstream receivers must re-join upstream) but
    /// keeps forwarding data until its entries decay.
    stale_flag: bool,
}

impl Deref for Mft {
    type Target = SoftList;
    fn deref(&self) -> &SoftList {
        &self.members
    }
}

impl DerefMut for Mft {
    fn deref_mut(&mut self) -> &mut SoftList {
        &mut self.members
    }
}

impl Mft {
    /// Creates the table with `dst` as first member.
    pub fn new(dst: NodeId, now: Time, timing: &Timing) -> Self {
        let mut members = SoftList::default();
        members.refresh_or_insert(dst, now, timing);
        Mft {
            dst,
            members,
            stale_flag: false,
        }
    }

    /// The receiver incoming data is addressed to.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Whether the table still intercepts joins: not flagged stale and its
    /// `dst` entry still fresh (a stale `dst` is the source-side trigger of
    /// the whole reconfiguration).
    pub fn intercepts(&self, now: Time) -> bool {
        !self.stale_flag && self.dst_entry().is_some_and(|e| e.is_fresh(now))
    }

    /// Marks the table stale (marked tree received for `dst`). Returns
    /// `true` if the flag was newly set.
    pub fn set_stale(&mut self) -> bool {
        !std::mem::replace(&mut self.stale_flag, true)
    }

    /// True if a marked tree flagged this table stale.
    pub fn is_stale_flagged(&self) -> bool {
        self.stale_flag
    }

    /// Clears the stale flag (upstream recovered and is sending unmarked
    /// trees again). Returns `true` if the flag had been set.
    pub fn clear_stale(&mut self) -> bool {
        std::mem::replace(&mut self.stale_flag, false)
    }

    fn dst_entry(&self) -> Option<&SoftEntry> {
        self.get(self.dst)
    }

    /// Whether the `dst` entry is stale (the source starts sending marked
    /// trees when this turns true).
    pub fn dst_is_stale(&self, now: Time) -> bool {
        self.dst_entry().map_or(true, |e| e.is_stale(now))
    }

    /// Staleness of an individual entry (drives per-branch marked trees).
    pub fn entry_is_stale(&self, r: NodeId, now: Time) -> bool {
        self.get(r).is_some_and(|e| e.is_stale(now))
    }

    /// Live receivers other than `dst` — the copy fan-out set.
    pub fn copy_targets(&self, now: Time) -> impl Iterator<Item = NodeId> + '_ {
        let dst = self.dst;
        self.live(now).filter(move |&n| n != dst)
    }

    /// True if `dst` is no longer in the table (died and was reaped).
    pub fn dst_gone(&self) -> bool {
        !self.contains(self.dst)
    }

    /// Source-side re-election after the `dst` receiver departed: the
    /// oldest remaining live entry becomes the new `dst` ("r2 now receives
    /// data through the shortest-path from S" — Figure 2(d)). Clears the
    /// stale flag. Returns the new dst if one exists.
    pub fn elect_new_dst(&mut self, now: Time) -> Option<NodeId> {
        debug_assert!(self.dst_gone());
        let new = self.first_live(now)?;
        self.dst = new;
        self.stale_flag = false;
        Some(new)
    }
}

impl SteadyState for Mft {
    fn advance(&mut self, by: u64) {
        self.members.advance(by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> Timing {
        Timing::default()
    }

    #[test]
    fn mct_insert_refresh_remove() {
        let mut m = Mct::default();
        assert!(m.refresh_or_insert(NodeId(1), Time(0), &tm()));
        assert!(!m.refresh_or_insert(NodeId(1), Time(10), &tm()));
        assert!(m.contains(NodeId(1)));
        assert!(m.remove(NodeId(1)));
        assert!(!m.remove(NodeId(1)));
        assert!(m.is_empty());
    }

    #[test]
    fn mct_first_live_is_insertion_ordered() {
        let mut m = Mct::default();
        m.refresh_or_insert(NodeId(5), Time(0), &tm());
        m.refresh_or_insert(NodeId(2), Time(1), &tm());
        assert_eq!(m.first_live(Time(10)), Some(NodeId(5)));
    }

    #[test]
    fn mct_first_live_skips_dead() {
        let mut m = Mct::default();
        let t = tm();
        m.refresh_or_insert(NodeId(5), Time(0), &t);
        m.refresh_or_insert(NodeId(2), Time(400), &t);
        assert_eq!(m.first_live(Time(t.t2)), Some(NodeId(2)));
    }

    #[test]
    fn mct_reap() {
        let mut m = Mct::default();
        let t = tm();
        m.refresh_or_insert(NodeId(1), Time(0), &t);
        m.refresh_or_insert(NodeId(2), Time(300), &t);
        assert_eq!(m.reap(Time(t.t2)), 1);
        assert!(m.contains(NodeId(2)));
    }

    #[test]
    fn mft_starts_with_dst_as_member() {
        let m = Mft::new(NodeId(7), Time(0), &tm());
        assert_eq!(m.dst(), NodeId(7));
        assert!(m.contains(NodeId(7)));
        assert!(m.intercepts(Time(0)));
        assert_eq!(m.copy_targets(Time(0)).count(), 0);
    }

    #[test]
    fn mft_copy_targets_exclude_dst() {
        let mut m = Mft::new(NodeId(7), Time(0), &tm());
        m.refresh_or_insert(NodeId(8), Time(0), &tm());
        m.refresh_or_insert(NodeId(9), Time(0), &tm());
        let targets: Vec<_> = m.copy_targets(Time(1)).collect();
        assert_eq!(targets, vec![NodeId(8), NodeId(9)]);
    }

    #[test]
    fn mft_stops_intercepting_when_flagged() {
        let mut m = Mft::new(NodeId(7), Time(0), &tm());
        assert!(m.intercepts(Time(1)));
        assert!(m.set_stale());
        assert!(!m.set_stale(), "second set reports no change");
        assert!(!m.intercepts(Time(1)));
    }

    #[test]
    fn mft_stops_intercepting_when_dst_goes_stale() {
        let t = tm();
        let m = Mft::new(NodeId(7), Time(0), &t);
        assert!(m.intercepts(Time(t.t1() - 1)));
        assert!(!m.intercepts(Time(t.t1())));
        assert!(m.dst_is_stale(Time(t.t1())));
        assert_eq!(
            m.live(Time(t.t1())).collect::<Vec<_>>(),
            vec![NodeId(7)],
            "stale but still forwarding data"
        );
    }

    #[test]
    fn mft_dst_reelection_after_departure() {
        let t = tm();
        let mut m = Mft::new(NodeId(7), Time(0), &t);
        m.refresh_or_insert(NodeId(8), Time(500), &t);
        // dst (7) dies at t2 = 520; 8 is alive.
        assert_eq!(m.reap(Time(520)), 1);
        assert!(m.dst_gone());
        assert_eq!(m.elect_new_dst(Time(520)), Some(NodeId(8)));
        assert_eq!(m.dst(), NodeId(8));
        assert!(!m.is_stale_flagged(), "re-election clears staleness");
    }

    #[test]
    fn mft_reelection_with_no_survivors() {
        let t = tm();
        let mut m = Mft::new(NodeId(7), Time(0), &t);
        m.reap(Time(t.t2));
        assert!(m.is_empty());
        assert_eq!(m.elect_new_dst(Time(t.t2)), None);
    }

    #[test]
    fn mft_entry_staleness_per_receiver() {
        let t = tm();
        let mut m = Mft::new(NodeId(7), Time(0), &t);
        m.refresh_or_insert(NodeId(8), Time(200), &t);
        assert!(m.entry_is_stale(NodeId(7), Time(t.t1())));
        assert!(!m.entry_is_stale(NodeId(8), Time(t.t1())));
    }

    #[test]
    fn mft_refresh_existing_only() {
        let mut m = Mft::new(NodeId(7), Time(0), &tm());
        assert!(m.refresh_existing(NodeId(7), Time(5), &tm()));
        assert!(!m.refresh_existing(NodeId(9), Time(5), &tm()));
        assert!(!m.contains(NodeId(9)));
    }
}
