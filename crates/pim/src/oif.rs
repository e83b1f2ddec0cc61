//! Per-channel outgoing-interface (oif) state: the `(root, G)` entry a PIM
//! router keeps, mapping downstream neighbors to soft-state deadlines.
//!
//! RPF loop-freedom note: an oif is always the neighbor a join arrived
//! from, and joins travel along unicast shortest paths toward the root, so
//! an oif can never coincide with the router's own upstream hop (that
//! would require a two-node routing loop, which shortest-path routing
//! cannot produce). Data forwarded per-oif therefore always makes
//! downstream progress.

use hbh_proto_base::{SoftSet, Timing};
use hbh_sim_core::{SteadyState, Time};
use std::ops::{Deref, DerefMut};

/// Outgoing-interface table for one channel at one router: the downstream
/// neighbors (the [`SoftSet`] it derefs to, each live `t2` after its last
/// join) plus the upstream join suppression.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OifTable {
    oifs: SoftSet,
    /// Last time a join was propagated upstream (refresh suppression: one
    /// upstream join per half-period, like real PIM's aggregation).
    last_upstream: Option<Time>,
}

impl Deref for OifTable {
    type Target = SoftSet;
    fn deref(&self) -> &SoftSet {
        &self.oifs
    }
}

impl DerefMut for OifTable {
    fn deref_mut(&mut self) -> &mut SoftSet {
        &mut self.oifs
    }
}

impl OifTable {
    /// Join-suppression: should a join be propagated upstream now?
    /// At most one per half join-period keeps refresh traffic linear in
    /// tree depth instead of receiver count (PIM's aggregation effect).
    pub fn upstream_due(&mut self, now: Time, timing: &Timing) -> bool {
        let due = match self.last_upstream {
            None => true,
            Some(t) => now.since(t) >= timing.tree_period / 2,
        };
        if due {
            self.last_upstream = Some(now);
        }
        due
    }
}

impl SteadyState for OifTable {
    fn advance(&mut self, by: u64) {
        self.oifs.advance(by);
        self.last_upstream.advance(by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::graph::NodeId;

    fn timing() -> Timing {
        Timing::default()
    }

    #[test]
    fn refresh_reports_structural_change_once() {
        let mut t = OifTable::default();
        assert!(t.refresh(NodeId(1), Time(0), &timing()));
        assert!(!t.refresh(NodeId(1), Time(10), &timing()));
        assert!(t.refresh(NodeId(2), Time(10), &timing()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn live_excludes_dead_entries() {
        let mut t = OifTable::default();
        let tm = timing();
        t.refresh(NodeId(1), Time(0), &tm);
        t.refresh(NodeId(2), Time(400), &tm);
        // At t=600, entry 1 (t2 = 520) is dead, entry 2 alive.
        let live: Vec<_> = t.live(Time(600)).collect();
        assert_eq!(live, vec![NodeId(2)]);
    }

    #[test]
    fn reap_removes_only_dead() {
        let mut t = OifTable::default();
        let tm = timing();
        t.refresh(NodeId(1), Time(0), &tm);
        t.refresh(NodeId(2), Time(400), &tm);
        assert_eq!(t.reap(Time(600)), 1);
        assert_eq!(t.len(), 1);
        assert!(t.contains(NodeId(2)));
    }

    #[test]
    fn stale_entries_still_forward_data() {
        // t1 < now < t2: the receiver has left but soft state has not
        // decayed — data keeps flowing, like real PIM without prunes.
        let mut t = OifTable::default();
        let tm = timing();
        t.refresh(NodeId(1), Time(0), &tm);
        let live: Vec<_> = t.live(Time(tm.t1() + 1)).collect();
        assert_eq!(live, vec![NodeId(1)]);
    }

    #[test]
    fn upstream_suppression_half_period() {
        let mut t = OifTable::default();
        let tm = timing();
        assert!(t.upstream_due(Time(0), &tm));
        assert!(
            !t.upstream_due(Time(10), &tm),
            "suppressed inside half-period"
        );
        assert!(t.upstream_due(Time(tm.tree_period / 2), &tm));
    }
}
