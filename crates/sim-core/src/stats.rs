//! Simulation accounting: per-link copy counters, application deliveries,
//! drops, and structural-change bookkeeping.
//!
//! The paper's two headline metrics map onto this directly:
//!
//! * **tree cost** = number of copies of one data packet transmitted across
//!   links ⇒ [`Stats::data_copies_tagged`] after injecting a tagged probe;
//! * **receiver delay** = probe arrival time at each receiver minus
//!   injection time ⇒ [`Delivery::delay`] of the recorded deliveries.

use crate::packet::PacketClass;
use crate::time::Time;
use hbh_topo::graph::{EdgeId, Graph, LinkId, NodeId};
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
/// Per-link data counters are flat arrays indexed by the graph's dense
/// [`EdgeId`] — a packet hop is one array increment; control transits
/// are one total. The ordered-map views
/// the analysis code consumes ([`Stats::data_copies_per_link`]) are
/// reconstructed on demand; they are off the per-event hot path.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Endpoints of each directed edge, copied from the graph at kernel
    /// construction so map views can be rebuilt without a graph reference.
    edge_ends: Vec<LinkId>,
    /// Control transmissions on any edge: nothing reads them per edge.
    control: u64,
    /// Probe tags seen so far, in first-transit order. Runs inject a
    /// handful of probes, so a linear scan beats any map.
    data_tags: Vec<u64>,
    /// `data_rows[i][e]` = copies of probe `data_tags[i]` on edge `e`.
    data_rows: Vec<Vec<u64>>,
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
    /// Counters sized for the edges of `g`. Kernels construct their stats
    /// through this so every per-edge array is pre-sized once.
    pub(crate) fn for_graph(g: &Graph) -> Self {
        Stats {
            edge_ends: g.edge_ends_all().to_vec(),
            ..Stats::default()
        }
    }

    /// Records one link transit.
    pub(crate) fn count_transit(&mut self, edge: EdgeId, class: PacketClass, tag: u64) {
        match class {
            PacketClass::Data => {
                let row = match self.data_tags.iter().position(|&t| t == tag) {
                    Some(i) => &mut self.data_rows[i],
                    None => {
                        self.data_tags.push(tag);
                        self.data_rows.push(vec![0; self.edge_ends.len()]);
                        self.data_rows.last_mut().expect("just pushed")
                    }
                };
                row[edge.index()] += 1;
            }
            PacketClass::Control => self.control += 1,
        }
    }

    /// Total data copies transmitted for probe `tag` — the paper's tree
    /// cost for that probe.
    pub fn data_copies_tagged(&self, tag: u64) -> u64 {
        self.data_copies_by_edge(tag)
            .map_or(0, |row| row.iter().sum())
    }

    /// Per-edge data copies for probe `tag`, indexed by [`EdgeId`], if the
    /// probe transited any link. The zero-allocation view behind
    /// [`Stats::data_copies_tagged`] and [`Stats::data_copies_per_link`].
    fn data_copies_by_edge(&self, tag: u64) -> Option<&[u64]> {
        let i = self.data_tags.iter().position(|&t| t == tag)?;
        Some(&self.data_rows[i])
    }

    /// Per-link data copies for probe `tag` (for duplicate-copy assertions:
    /// Figure 3 shows REUNITE putting 2 copies on `R1→R6`).
    pub fn data_copies_per_link(&self, tag: u64) -> BTreeMap<(NodeId, NodeId), u64> {
        self.data_copies_by_edge(tag)
            .into_iter()
            .flat_map(|row| {
                self.edge_ends
                    .iter()
                    .zip(row)
                    .filter(|(_, &c)| c > 0)
                    .map(|(l, &c)| ((l.from, l.to), c))
            })
            .collect()
    }

    /// Total control transmissions (protocol overhead ablation).
    pub fn control_copies(&self) -> u64 {
        self.control
    }

    /// Deliveries attributed to probe `tag`.
    pub fn deliveries_tagged(&self, tag: u64) -> impl Iterator<Item = &Delivery> {
        self.deliveries.iter().filter(move |d| d.tag == tag)
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

    /// 0 — 1 — 2 line of routers; stats sized for its four directed edges.
    fn stats_and_edges() -> (Stats, EdgeId, EdgeId, EdgeId) {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 1, 1);
        g.add_link(b, c, 1, 1);
        let ab = g.edge_entry(a, b).unwrap().0;
        let ba = g.edge_entry(b, a).unwrap().0;
        let bc = g.edge_entry(b, c).unwrap().0;
        (Stats::for_graph(&g), ab, ba, bc)
    }

    #[test]
    fn data_copies_separate_by_tag() {
        let (mut s, ab, _, bc) = stats_and_edges();
        s.count_transit(ab, PacketClass::Data, 1);
        s.count_transit(ab, PacketClass::Data, 1);
        s.count_transit(bc, PacketClass::Data, 2);
        assert_eq!(s.data_copies_tagged(1), 2);
        assert_eq!(s.data_copies_tagged(2), 1);
        assert_eq!(s.data_copies_tagged(3), 0);
    }

    #[test]
    fn per_link_counts_expose_duplicates() {
        let (mut s, ab, _, _) = stats_and_edges();
        s.count_transit(ab, PacketClass::Data, 5);
        s.count_transit(ab, PacketClass::Data, 5);
        let per_link = s.data_copies_per_link(5);
        assert_eq!(per_link[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(per_link.len(), 1, "untouched edges are not reported");
    }

    #[test]
    fn by_edge_view_matches_per_link_map() {
        let (mut s, ab, ba, bc) = stats_and_edges();
        for e in [ab, ba, bc, bc] {
            s.count_transit(e, PacketClass::Data, 9);
        }
        let row = s.data_copies_by_edge(9).unwrap();
        assert_eq!(row.iter().sum::<u64>(), 4);
        assert_eq!(row[bc.index()], 2);
        assert_eq!(s.data_copies_by_edge(8), None);
    }

    #[test]
    fn control_counts_are_classless() {
        let (mut s, ab, ba, _) = stats_and_edges();
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
