//! The aggregated local-member table of the HBH-AGG access router.
//!
//! [`CoverageSummary`] is the exact membership of one channel at one
//! access router: node ids with last-refresh stamps, kept sorted so that
//! enumeration is deterministic and a probe is one binary search.
//! `DESIGN.md` §6d has the measurement against a filter-fronted variant.

use hbh_sim_core::Time;
use hbh_topo::graph::NodeId;

/// The aggregated local-member table of an HBH-AGG access router: one
/// `(member, last refresh)` row per directly attached receiver, kept
/// sorted by node id for deterministic enumeration.
///
/// Soft-state semantics match the rest of HBH: a member is live until
/// `ttl` (the caller passes `Timing::t2`) elapses since its last
/// refresh, and [`CoverageSummary::reap`] drops expired rows.
#[derive(Clone, Debug, Default)]
pub struct CoverageSummary {
    /// Exact membership, sorted by node id.
    members: Vec<(NodeId, Time)>,
}

impl CoverageSummary {
    /// An empty summary.
    pub fn new() -> Self {
        CoverageSummary::default()
    }

    /// Records a join/refresh from `n` at `now`. Returns `true` if `n`
    /// is a new member.
    pub fn refresh(&mut self, n: NodeId, now: Time) -> bool {
        match self.members.binary_search_by_key(&n, |&(m, _)| m) {
            Ok(i) => {
                self.members[i].1 = now;
                false
            }
            Err(at) => {
                self.members.insert(at, (n, now));
                true
            }
        }
    }

    /// Is `n` currently a member (regardless of freshness)?
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.binary_search_by_key(&n, |&(m, _)| m).is_ok()
    }

    /// Drops members whose last refresh is `ttl` or more ago. Returns
    /// how many were dropped.
    pub fn reap(&mut self, now: Time, ttl: u64) -> usize {
        let before = self.members.len();
        self.members.retain(|&(_, at)| at.0 + ttl > now.0);
        before - self.members.len()
    }

    /// Members still within `ttl` of their last refresh, in id order.
    pub fn live(&self, now: Time, ttl: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .filter(move |&&(_, at)| at.0 + ttl > now.0)
            .map(|&(m, _)| m)
    }

    /// Member count (expired-but-unreaped included).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the summary holds no members at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Approximate state footprint: a node id plus timer per member
    /// (matching [`hbh_proto_base::StateInventory`]'s control-entry
    /// weight).
    pub fn state_bytes(&self) -> usize {
        12 * self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_inserts_sorted_and_refreshes_in_place() {
        let mut s = CoverageSummary::new();
        assert!(s.refresh(NodeId(5), Time(0)));
        assert!(s.refresh(NodeId(2), Time(1)));
        assert!(s.refresh(NodeId(9), Time(2)));
        assert!(!s.refresh(NodeId(5), Time(3)), "existing member refreshed");
        assert_eq!(
            s.live(Time(3), 100).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(5), NodeId(9)],
            "enumeration is id-sorted"
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_is_exact_at_any_size() {
        let mut s = CoverageSummary::new();
        for i in 0..300 {
            s.refresh(NodeId(i), Time(0));
        }
        assert!(!s.contains(NodeId(100_000)));
        assert!(s.contains(NodeId(150)));
    }

    #[test]
    fn reap_expires_by_ttl() {
        let mut s = CoverageSummary::new();
        s.refresh(NodeId(1), Time(0));
        s.refresh(NodeId(2), Time(50));
        assert_eq!(s.live(Time(100), 100).collect::<Vec<_>>(), vec![NodeId(2)]);
        assert_eq!(s.reap(Time(100), 100), 1);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(NodeId(1)));
        assert!(s.contains(NodeId(2)));
    }

    #[test]
    fn state_bytes_tracks_members() {
        let mut s = CoverageSummary::new();
        assert_eq!(s.state_bytes(), 0);
        s.refresh(NodeId(1), Time(0));
        s.refresh(NodeId(2), Time(0));
        assert_eq!(s.state_bytes(), 24);
    }
}
