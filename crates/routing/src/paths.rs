//! Analytic distribution-tree construction.
//!
//! These functions build the *idealized* tree shapes the paper reasons
//! about, directly from the routing tables:
//!
//! * [`forward_spt`] — union of the unicast paths `source → r`: the
//!   shortest-path tree HBH aims to realize;
//! * [`reverse_spt`] — union of the *reversed* unicast paths `r → source`:
//!   the RPF tree built by PIM-SS (and PIM-SM, rooted at the RP).
//!
//! The message-driven protocol engines are the ground truth for the
//! evaluation; these analytic trees exist to cross-validate them (the
//! integration tests assert, e.g., that the converged PIM-SS engine
//! produces exactly [`reverse_spt`]) and to compute reference metrics.

use crate::{RouteProvider, RoutingTables};
use hbh_topo::graph::{Graph, NodeId, PathCost};
use std::collections::{BTreeMap, BTreeSet};

/// An analytic distribution tree: a set of directed links plus the
/// root→receiver path through them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistTree {
    root: NodeId,
    /// Directed links `(from, to)` of the tree, each carrying exactly one
    /// copy of every data packet (the RPF guarantee).
    links: BTreeSet<(NodeId, NodeId)>,
    /// The downstream path `root → … → r` for every receiver.
    paths: BTreeMap<NodeId, Vec<NodeId>>,
}

impl DistTree {
    /// The tree's root (source or RP).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Directed links of the tree.
    pub fn links(&self) -> &BTreeSet<(NodeId, NodeId)> {
        &self.links
    }

    /// Tree cost under one-copy-per-link forwarding (the paper's metric for
    /// the RPF protocols): the number of directed links.
    pub fn cost(&self) -> usize {
        self.links.len()
    }

    /// Receivers this tree serves.
    pub fn receivers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.paths.keys().copied()
    }

    /// The downstream path to `r`, if `r` is a receiver of this tree.
    pub fn path_to(&self, r: NodeId) -> Option<&[NodeId]> {
        self.paths.get(&r).map(Vec::as_slice)
    }

    /// Delay from the root to `r`: the sum of the *downstream* directed link
    /// costs along `r`'s path. For a reverse SPT this is generally larger
    /// than the unicast distance — exactly the effect Figure 8 measures.
    pub fn delay_to(&self, g: &Graph, r: NodeId) -> Option<PathCost> {
        let path = self.paths.get(&r)?;
        Some(
            path.windows(2)
                .map(|w| PathCost::from(g.cost(w[0], w[1]).expect("tree links exist")))
                .sum(),
        )
    }

    /// Mean delay over all receivers (`None` if the tree has none).
    pub fn avg_delay(&self, g: &Graph) -> Option<f64> {
        if self.paths.is_empty() {
            return None;
        }
        let total: PathCost = self
            .paths
            .keys()
            .map(|&r| self.delay_to(g, r).unwrap())
            .sum();
        Some(total as f64 / self.paths.len() as f64)
    }

    fn from_paths(root: NodeId, paths: BTreeMap<NodeId, Vec<NodeId>>) -> Self {
        let mut links = BTreeSet::new();
        for p in paths.values() {
            for w in p.windows(2) {
                links.insert((w[0], w[1]));
            }
        }
        DistTree { root, links, paths }
    }
}

/// The forward shortest-path tree: union of the unicast paths `source → r`.
///
/// Receivers unreachable from `source` are silently skipped (cannot happen
/// on the connected experiment topologies; asserted by callers that care).
pub fn forward_spt(t: &RoutingTables, source: NodeId, receivers: &[NodeId]) -> DistTree {
    let mut paths = BTreeMap::new();
    for &r in receivers {
        if r == source {
            continue;
        }
        if let Some(p) = t.path(source, r) {
            paths.insert(r, p);
        }
    }
    DistTree::from_paths(source, paths)
}

/// The reverse shortest-path tree rooted at `root`: union of the *reversed*
/// unicast paths `r → root`. This is the tree RPF joins build: each
/// receiver's join walks its unicast route toward the root and data flows
/// back down the same links in the opposite direction.
pub fn reverse_spt(t: &RoutingTables, root: NodeId, receivers: &[NodeId]) -> DistTree {
    let mut paths = BTreeMap::new();
    for &r in receivers {
        if r == root {
            continue;
        }
        if let Some(mut p) = t.path(r, root) {
            p.reverse();
            paths.insert(r, p);
        }
    }
    DistTree::from_paths(root, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbh_topo::graph::Graph;
    use hbh_topo::scenarios;

    fn fig2() -> (Graph, RoutingTables) {
        let g = scenarios::fig2();
        let t = RoutingTables::compute(&g);
        (g, t)
    }

    fn n(g: &Graph, l: &str) -> NodeId {
        g.node_by_label(l).unwrap()
    }

    #[test]
    fn forward_spt_follows_downstream_routes() {
        let (g, t) = fig2();
        let tree = forward_spt(&t, n(&g, "S"), &[n(&g, "r1"), n(&g, "r2")]);
        assert_eq!(
            tree.path_to(n(&g, "r1")).unwrap(),
            &[n(&g, "S"), n(&g, "R1"), n(&g, "R3"), n(&g, "r1")]
        );
        assert_eq!(
            tree.path_to(n(&g, "r2")).unwrap(),
            &[n(&g, "S"), n(&g, "R4"), n(&g, "r2")]
        );
        // 3 + 2 downstream links, no sharing.
        assert_eq!(tree.cost(), 5);
    }

    #[test]
    fn reverse_spt_reverses_upstream_routes() {
        let (g, t) = fig2();
        let tree = reverse_spt(&t, n(&g, "S"), &[n(&g, "r2")]);
        // r2's route to S is r2→R3→R1→S, so data flows S→R1→R3→r2.
        assert_eq!(
            tree.path_to(n(&g, "r2")).unwrap(),
            &[n(&g, "S"), n(&g, "R1"), n(&g, "R3"), n(&g, "r2")]
        );
    }

    #[test]
    fn reverse_spt_delay_exceeds_forward_on_asymmetric_routes() {
        let (g, t) = fig2();
        let s = n(&g, "S");
        let r2 = n(&g, "r2");
        let fwd = forward_spt(&t, s, &[r2]);
        let rev = reverse_spt(&t, s, &[r2]);
        assert_eq!(fwd.delay_to(&g, r2), Some(2)); // S→R4→r2
        assert_eq!(rev.delay_to(&g, r2), Some(5)); // S→R1→R3→r2 with R3→r2 = 3
    }

    #[test]
    fn shared_links_are_counted_once() {
        let (g, t) = fig2();
        let s = n(&g, "S");
        // r1 and r3 share S→R1→R3.
        let tree = forward_spt(&t, s, &[n(&g, "r1"), n(&g, "r3")]);
        assert_eq!(tree.cost(), 4); // S→R1, R1→R3, R3→r1, R3→r3
    }

    #[test]
    fn forward_delay_equals_unicast_distance() {
        let (g, t) = fig2();
        let s = n(&g, "S");
        let receivers = [n(&g, "r1"), n(&g, "r2"), n(&g, "r3")];
        let tree = forward_spt(&t, s, &receivers);
        for &r in &receivers {
            assert_eq!(tree.delay_to(&g, r), t.dist(s, r), "receiver {r}");
        }
    }

    #[test]
    fn source_in_receiver_set_is_ignored() {
        let (g, t) = fig2();
        let s = n(&g, "S");
        let tree = forward_spt(&t, s, &[s, n(&g, "r1")]);
        assert_eq!(tree.receivers().count(), 1);
    }

    #[test]
    fn empty_receiver_set_gives_empty_tree() {
        let (g, t) = fig2();
        let tree = forward_spt(&t, n(&g, "S"), &[]);
        assert_eq!(tree.cost(), 0);
        assert_eq!(tree.avg_delay(&g), None);
    }

    #[test]
    fn avg_delay_averages_receivers() {
        let (g, t) = fig2();
        let s = n(&g, "S");
        let tree = forward_spt(&t, s, &[n(&g, "r1"), n(&g, "r2")]);
        // d(S,r1) = 3, d(S,r2) = 2.
        assert_eq!(tree.avg_delay(&g), Some(2.5));
    }
}
