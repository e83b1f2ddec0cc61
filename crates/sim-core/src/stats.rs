//! Simulation accounting: a log of data-copy link transits, application
//! deliveries, drops, and structural-change bookkeeping.
//!
//! The paper's two headline metrics map onto this directly:
//!
//! * **tree cost** = number of copies of one data packet transmitted across
//!   links ⇒ [`Stats::data_copies_tagged`] after injecting a tagged probe;
//! * **receiver delay** = probe arrival time at each receiver minus
//!   injection time ⇒ [`Delivery::delay`] of the recorded deliveries.

use crate::packet::PacketClass;
use crate::time::Time;
use hbh_topo::graph::{LinkId, NodeId};
use std::collections::BTreeMap;

/// One application-level delivery (a data packet consumed by a receiver
/// agent, or a control message consumed for protocol purposes is *not*
/// recorded — only what the protocol explicitly hands to the application).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Node the packet was delivered at.
    pub node: NodeId,
    /// Simulated arrival time.
    pub at: Time,
    /// Tag of the injected probe this delivery descends from.
    pub tag: u64,
    /// When the probe was injected.
    pub injected_at: Time,
}

impl Delivery {
    /// End-to-end delay in time units.
    pub fn delay(&self) -> u64 {
        self.at.since(self.injected_at)
    }
}

/// Counters for one simulation run.
///
/// Every data transit is one `(tag, link)` entry of a log; control
/// transits are one total. A run injects a handful of probes whose copies
/// span a tree, so the log grows with those trees, not with the graph's
/// edge count. The views the analysis code consumes
/// ([`Stats::data_copies_tagged`], [`Stats::data_copies_per_link`]) fold
/// it on demand; they are off the per-event hot path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Control transmissions on any edge: nothing reads them per edge.
    control: u64,
    /// Data transmissions as `(probe tag, link)`, in transmission order.
    data: Vec<(u64, LinkId)>,
    /// Application deliveries, in arrival order.
    pub deliveries: Vec<Delivery>,
    /// Events dispatched by the kernel (scheduler throughput metric).
    pub events: u64,
    /// Packets dropped (TTL exhausted, no route, or misdelivered to a
    /// non-addressee host). Nonzero values in converged scenarios indicate
    /// protocol bugs; transient-phase drops are legitimate.
    pub drops: u64,
    /// Count of structural protocol-state changes (table entry added or
    /// removed, flag flipped) — the Figure 4 churn metric.
    pub structural_changes: u64,
    /// Time of the most recent structural change, for quiescence detection.
    pub last_structural_change: Time,
}

impl Stats {
    /// Records one transit of `link`.
    pub(crate) fn count_transit(&mut self, link: LinkId, class: PacketClass, tag: u64) {
        match class {
            PacketClass::Data => self.data.push((tag, link)),
            PacketClass::Control => self.control += 1,
        }
    }

    /// The links probe `tag` transited, once per copy.
    fn data_links(&self, tag: u64) -> impl Iterator<Item = LinkId> + '_ {
        self.data
            .iter()
            .filter(move |&&(t, _)| t == tag)
            .map(|&(_, link)| link)
    }

    /// Total data copies transmitted for probe `tag` — the paper's tree
    /// cost for that probe.
    pub fn data_copies_tagged(&self, tag: u64) -> u64 {
        self.data_links(tag).count() as u64
    }

    /// Per-link data copies for probe `tag` (for duplicate-copy assertions:
    /// Figure 3 shows REUNITE putting 2 copies on `R1→R6`).
    pub fn data_copies_per_link(&self, tag: u64) -> BTreeMap<(NodeId, NodeId), u64> {
        let mut per_link = BTreeMap::new();
        for l in self.data_links(tag) {
            *per_link.entry((l.from, l.to)).or_insert(0) += 1;
        }
        per_link
    }

    /// Total control transmissions (protocol overhead ablation).
    pub fn control_copies(&self) -> u64 {
        self.control
    }

    /// Deliveries attributed to probe `tag`.
    pub fn deliveries_tagged(&self, tag: u64) -> impl Iterator<Item = &Delivery> {
        self.deliveries.iter().filter(move |d| d.tag == tag)
    }

    /// What a fast-forwarded window must leave as it found it: structural
    /// changes, data copies, deliveries and drops.
    pub(crate) fn quiet_mark(&self) -> [u64; 4] {
        [
            self.structural_changes,
            self.data.len() as u64,
            self.deliveries.len() as u64,
            self.drops,
        ]
    }

    /// Adds `windows` repeats of a quiet window that dispatched `events`
    /// events and sent `control` control copies.
    pub(crate) fn repeat(&mut self, windows: u64, events: u64, control: u64) {
        self.events += windows * events;
        self.control += windows * control;
    }

    /// Notes a structural protocol-state change at `now`.
    pub(crate) fn note_structural_change(&mut self, now: Time) {
        self.structural_changes += 1;
        self.last_structural_change = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The links of a 0 — 1 — 2 line of routers.
    fn links() -> (LinkId, LinkId, LinkId) {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        (LinkId::new(a, b), LinkId::new(b, a), LinkId::new(b, c))
    }

    #[test]
    fn data_copies_separate_by_tag() {
        let (ab, _, bc) = links();
        let mut s = Stats::default();
        s.count_transit(ab, PacketClass::Data, 1);
        s.count_transit(ab, PacketClass::Data, 1);
        s.count_transit(bc, PacketClass::Data, 2);
        assert_eq!(s.data_copies_tagged(1), 2);
        assert_eq!(s.data_copies_tagged(2), 1);
        assert_eq!(s.data_copies_tagged(3), 0);
    }

    #[test]
    fn per_link_counts_expose_duplicates() {
        let (ab, _, _) = links();
        let mut s = Stats::default();
        s.count_transit(ab, PacketClass::Data, 5);
        s.count_transit(ab, PacketClass::Data, 5);
        let per_link = s.data_copies_per_link(5);
        assert_eq!(per_link[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(per_link.len(), 1, "untouched edges are not reported");
    }

    #[test]
    fn per_link_counts_fold_one_tag_only() {
        let (ab, ba, bc) = links();
        let mut s = Stats::default();
        for (link, tag) in [(bc, 9), (ab, 8), (bc, 9), (ba, 7), (bc, 8)] {
            s.count_transit(link, PacketClass::Data, tag);
        }
        let per_link = s.data_copies_per_link(9);
        assert_eq!(per_link[&(NodeId(1), NodeId(2))], 2);
        assert_eq!(per_link.len(), 1, "tags 7 and 8 do not leak into 9");
        assert_eq!(s.data_copies_per_link(8).values().sum::<u64>(), 2);
        assert!(s.data_copies_per_link(6).is_empty());
    }

    #[test]
    fn control_counts_are_classless() {
        let (ab, ba, _) = links();
        let mut s = Stats::default();
        s.count_transit(ab, PacketClass::Control, 0);
        s.count_transit(ba, PacketClass::Control, 0);
        assert_eq!(s.control_copies(), 2);
        assert_eq!(s.data_copies_tagged(0), 0);
    }

    #[test]
    fn delivery_delay() {
        let d = Delivery {
            node: NodeId(3),
            at: Time(30),
            tag: 1,
            injected_at: Time(12),
        };
        assert_eq!(d.delay(), 18);
    }

    #[test]
    fn structural_changes_tracked() {
        let mut s = Stats::default();
        s.note_structural_change(Time(5));
        s.note_structural_change(Time(9));
        assert_eq!(s.structural_changes, 2);
        assert_eq!(s.last_structural_change, Time(9));
    }

    #[test]
    fn deliveries_filter_by_tag() {
        let mut s = Stats::default();
        s.deliveries.push(Delivery {
            node: NodeId(1),
            at: Time(1),
            tag: 1,
            injected_at: Time(0),
        });
        s.deliveries.push(Delivery {
            node: NodeId(2),
            at: Time(2),
            tag: 2,
            injected_at: Time(0),
        });
        assert_eq!(s.deliveries_tagged(1).count(), 1);
        assert_eq!(s.deliveries_tagged(2).next().unwrap().node, NodeId(2));
    }
}
