//! Compressed-sparse-row (CSR) packing of a frozen [`Graph`].
//!
//! [`Graph`] stores adjacency as one chain per node through a shared edge
//! array — appendable while a topology is built, but a node's out-edges
//! lie scattered in it, and a cost is a second read, by edge id, into the
//! graph's per-edge attributes — so an all-pairs or per-source Dijkstra
//! sweep follows a link per edge and reads two arrays. [`Csr`] repacks
//! the same adjacency, costs included, into four contiguous arrays
//! indexed by one offset table: iteration over a node's out-edges is a
//! pure slice walk over `u32`s, and the whole structure is immutable —
//! the form the routing layer wants for 10k-router topologies.
//!
//! Edge *order is preserved exactly* (per-node insertion order, nodes in
//! id order), so a Dijkstra run over the CSR view relaxes edges in the
//! same sequence as one over the `Graph` adjacency and produces identical
//! routes and tie-breaks. The regression tests pin this.

use crate::graph::{Cost, EdgeId, Graph, NodeId};

/// An immutable CSR view of a [`Graph`]'s directed adjacency.
///
/// Built once per frozen topology ([`Csr::from_graph`]); all arrays use
/// dense `u32` indices. `offsets` has `n + 1` entries; the out-edges of
/// node `u` occupy slots `offsets[u] .. offsets[u + 1]` of the parallel
/// `to` / `cost` / `eid` arrays.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Slot range per node: `offsets[u]..offsets[u+1]`.
    offsets: Vec<u32>,
    /// Neighbor node id per slot.
    to: Vec<u32>,
    /// Directed link cost per slot.
    cost: Vec<Cost>,
    /// Dense edge id per slot (indexes fault masks and edge counters).
    eid: Vec<u32>,
    /// `host[n]`: node `n` is an end host (never transits traffic).
    host: Vec<bool>,
}

impl Csr {
    /// Packs the current adjacency of `g`. Edge order per node — and hence
    /// every Dijkstra tie-break downstream — is preserved.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let m = g.directed_edge_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut to = Vec::with_capacity(m);
        let mut cost = Vec::with_capacity(m);
        let mut eid = Vec::with_capacity(m);
        let mut host = Vec::with_capacity(n);
        offsets.push(0);
        for u in g.nodes() {
            for e in g.neighbors(u) {
                to.push(e.to.0);
                cost.push(g.edge_cost(e.eid));
                eid.push(e.eid.0);
            }
            offsets.push(to.len() as u32);
            host.push(g.is_host(u));
        }
        Csr {
            offsets,
            to,
            cost,
            eid,
            host,
        }
    }

    /// Wraps already packed arrays: the adjacency of a renumbered subgraph
    /// (see [`crate::contract`]), whose `eid`s still name the edges of the
    /// graph it was cut from.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        to: Vec<u32>,
        cost: Vec<Cost>,
        eid: Vec<u32>,
        host: Vec<bool>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), host.len() + 1);
        debug_assert!(to.len() == cost.len() && to.len() == eid.len());
        Csr {
            offsets,
            to,
            cost,
            eid,
            host,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed half-links.
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.to.len()
    }

    /// True if `n` is an end host.
    #[inline]
    pub fn is_host(&self, n: NodeId) -> bool {
        self.host[n.index()]
    }

    /// The slot range of `n`'s out-edges in the packed arrays.
    #[inline]
    fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize
    }

    /// Raw packed slices `(to, cost, eid)` of `n`'s out-edges, in the same
    /// order as [`Graph::neighbors`].
    #[inline]
    pub fn out_slices(&self, n: NodeId) -> (&[u32], &[Cost], &[u32]) {
        let r = self.range(n);
        (&self.to[r.clone()], &self.cost[r.clone()], &self.eid[r])
    }

    /// The packed slot of `n`'s first out-edge: out-edge `i` of
    /// [`Csr::out_slices`] sits at slot `first_slot(n) + i`.
    #[inline]
    pub fn first_slot(&self, n: NodeId) -> u32 {
        self.offsets[n.index()]
    }

    /// The out-edge at packed `slot`: its head node and its dense edge id.
    #[inline]
    pub fn edge_at(&self, slot: u32) -> (NodeId, EdgeId) {
        (
            NodeId(self.to[slot as usize]),
            EdgeId(self.eid[slot as usize]),
        )
    }

    /// The largest directed link cost (0 when there are no edges).
    pub fn max_cost(&self) -> Cost {
        self.cost.iter().copied().max().unwrap_or(0)
    }

    /// Heap bytes held by the packed arrays (the CSR memory footprint).
    pub fn bytes(&self) -> usize {
        self.offsets.len() * size_of::<u32>()
            + self.to.len() * size_of::<u32>()
            + self.cost.len() * size_of::<Cost>()
            + self.eid.len() * size_of::<u32>()
            + self.host.len() * size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.add_link(a, b, 3, 7);
        g.add_link(a, c, 2, 4);
        g.add_host(b, 1, 5);
        g
    }

    #[test]
    fn csr_mirrors_adjacency_exactly() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.directed_edge_count(), g.directed_edge_count());
        for u in g.nodes() {
            assert_eq!(csr.is_host(u), g.is_host(u));
            assert_eq!(csr.out_slices(u).0.len(), g.degree(u));
        }
    }

    #[test]
    fn out_slices_agree_with_iterator() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        for u in g.nodes() {
            let (to, cost, eid) = csr.out_slices(u);
            let packed: Vec<_> = (0..to.len()).map(|i| (to[i], cost[i], eid[i])).collect();
            let adj: Vec<_> = g
                .neighbors(u)
                .map(|e| (e.to.0, g.edge_cost(e.eid), e.eid.0))
                .collect();
            assert_eq!(packed, adj, "order must match adjacency");
        }
    }

    #[test]
    fn slots_name_the_out_edges_in_order() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        for u in g.nodes() {
            let base = csr.first_slot(u);
            for (i, e) in g.neighbors(u).enumerate() {
                assert_eq!(csr.edge_at(base + i as u32), (e.to, e.eid));
            }
        }
        assert_eq!(csr.max_cost(), 7);
        assert_eq!(Csr::from_graph(&Graph::new()).max_cost(), 0);
    }

    #[test]
    fn bytes_counts_packed_arrays() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        assert!(csr.bytes() > 0);
        // 4 nodes -> 5 offsets; 3 undirected links -> 6 slots.
        assert_eq!(csr.bytes(), 5 * 4 + 6 * 4 + 6 * 4 + 6 * 4 + 4);
    }

    #[test]
    fn empty_graph_packs() {
        let csr = Csr::from_graph(&Graph::new());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.directed_edge_count(), 0);
    }
}
