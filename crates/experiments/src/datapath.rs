//! Data-path reconstruction from the kernel's accounting.
//!
//! `Stats` counts every link transit of a tagged probe per edge; this
//! module rebuilds the exact node sequence each receiver's copy travelled.
//! That is a stronger instrument than comparing delays: two different
//! paths can coincidentally have equal cost, but the stability experiment's
//! "did anyone's *route* change?" question needs path identity.

use hbh_proto_base::Cmd;
use hbh_sim_core::{Kernel, Protocol, Time};
use hbh_topo::graph::NodeId;
use std::collections::BTreeMap;

/// The data-plane transits of one probe, as a link multiset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataTransits {
    /// `(from, to) → copies` for the probe.
    pub links: BTreeMap<(NodeId, NodeId), u64>,
    /// Delivery times per receiver (the last one, if a receiver got more
    /// than one copy).
    pub delivered: BTreeMap<NodeId, Time>,
}

impl DataTransits {
    /// Reconstructs the node path to `receiver` by walking the link
    /// multiset backward from the receiver (each node on a delivery path
    /// has exactly one incoming probe link in a duplicate-free tree;
    /// when duplicates exist the lexicographically smallest predecessor is
    /// taken, keeping the result deterministic).
    pub fn path_to(&self, receiver: NodeId) -> Option<Vec<NodeId>> {
        self.delivered.get(&receiver)?;
        let mut path = vec![receiver];
        let mut cur = receiver;
        loop {
            let mut preds = self
                .links
                .keys()
                .filter(|&&(_, to)| to == cur)
                .map(|&(from, _)| from);
            let Some(prev) = preds.next() else {
                break; // reached the source (no incoming probe link)
            };
            if path.contains(&prev) {
                break; // defensive: malformed multiset, avoid looping
            }
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        Some(path)
    }

    /// Total copies (= the tree-cost metric, cross-checkable against the
    /// kernel's own accounting).
    pub fn total_copies(&self) -> u64 {
        self.links.values().sum()
    }
}

/// Probes a converged kernel with a fresh `tag` and reads the probe's
/// link multiset and delivery times off the kernel's `Stats`.
///
/// Runs the whole [`probe_window`](crate::runner::probe_window) rather than
/// stopping when the data wave dies out: the studies built on this keep
/// simulating afterwards, and their later event times count from that
/// clock.
pub fn probe_transits<P: Protocol<Command = Cmd>>(
    k: &mut Kernel<P>,
    ch: hbh_proto_base::Channel,
    tag: u64,
) -> DataTransits {
    let t = k.now();
    k.command_at(ch.source, Cmd::SendData { ch, tag }, t);
    let window = crate::runner::probe_window(k.network());
    k.run_until(t + window);
    let stats = k.stats();
    DataTransits {
        links: stats.data_copies_per_link(tag),
        delivered: stats
            .deliveries_tagged(tag)
            .map(|d| (d.node, d.at))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build_kernel, converge};
    use crate::scenario::{build, Scenario, ScenarioOptions, TopologyKind};
    use hbh_proto::Hbh;
    use hbh_proto_base::Timing;
    use hbh_routing::{RouteProvider, RoutingTables};

    /// Converged soft HBH on an ISP draw, probed once with tag 1.
    fn probed(group: usize, seed: u64) -> (Kernel<Hbh>, DataTransits, Scenario) {
        let timing = Timing::default();
        let sc = build(
            TopologyKind::Isp,
            group,
            seed,
            &timing,
            &ScenarioOptions::default(),
        );
        let (mut k, ch) = build_kernel(Hbh::new(timing), &sc);
        converge(&mut k, &timing, sc.join_window);
        let tr = probe_transits(&mut k, ch, 1);
        (k, tr, sc)
    }

    #[test]
    fn reconstructed_paths_are_exactly_the_unicast_shortest_paths() {
        let (_, tr, sc) = probed(6, 3);
        let tables = RoutingTables::compute(sc.graph());
        for &r in &sc.receivers {
            let path = tr.path_to(r).expect("receiver served");
            assert_eq!(
                Some(path),
                tables.path(sc.source, r),
                "HBH data path to {r} differs from the unicast SPT path"
            );
        }
    }

    #[test]
    fn total_copies_matches_kernel_accounting() {
        let (k, tr, _) = probed(8, 5);
        assert_eq!(tr.total_copies(), k.stats().data_copies_tagged(1));
    }

    #[test]
    fn probing_leaves_the_trace_off() {
        // A probe must not leave the packet trace collecting: everything
        // simulated afterwards would be cloned into it (a long churn run
        // exhausted memory there first).
        let (mut k, ..) = probed(8, 5);
        let until = k.now() + 10 * Timing::default().tree_period;
        k.run_until(until);
        assert!(k.take_trace().is_empty());
    }

    #[test]
    fn unserved_receiver_has_no_path() {
        let (_, tr, _) = probed(6, 4);
        assert_eq!(
            tr.path_to(hbh_topo::graph::NodeId(0)),
            None,
            "router never delivers"
        );
    }
}
