//! Stub-host contraction of a frozen [`Graph`]: the view the on-demand
//! routing service computes over.
//!
//! A **stub** is a host with exactly one link (to a router: a [`Graph`]
//! links hosts to nothing else). It never transits traffic and every path
//! from or to it crosses that one access link, so it contributes nothing
//! to anyone else's shortest-path tree: its routes are its router's routes
//! plus an access-link cost. At scale stubs are nearly all of the graph
//! (50,000 of 52,704 nodes on the benchmark's hierarchy), so the routed
//! graph shrinks to the **core** — routers plus any multi-homed host — and
//! a stub is answered from a five-word record instead of an SPF row.
//!
//! Core nodes are renumbered densely *in ascending node-id order* and keep
//! their out-edges in insertion order, so a Dijkstra run over
//! [`Contracted::core`] settles nodes, compares predecessors and breaks
//! ties exactly like one over the full graph. Edge ids are *not*
//! renumbered: fault masks stay indexed by the full graph's [`EdgeId`].

use crate::csr::Csr;
use crate::graph::{Cost, EdgeId, Graph, NodeId};

/// A stub host's attachment: its router (as a core index) and the two
/// directed halves of its access link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stub {
    /// Core index of the attachment router.
    pub router: u32,
    /// Cost of the host → router half-link.
    pub up_cost: Cost,
    /// Edge id of the host → router half-link.
    pub up_eid: EdgeId,
    /// Cost of the router → host half-link.
    pub down_cost: Cost,
    /// Edge id of the router → host half-link.
    pub down_eid: EdgeId,
}

/// Where a node of the full graph sits in the contracted view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place<'a> {
    /// A routed node, by its dense core index.
    Core(u32),
    /// A contracted stub host.
    Stub(&'a Stub),
}

/// `place` entries with this bit set index `stubs`, the rest are core
/// indices.
const STUB_BIT: u32 = 1 << 31;

/// The core adjacency of a graph plus the maps that resolve its stubs.
#[derive(Clone, Debug)]
pub struct Contracted {
    /// Adjacency among core nodes, over core indices; edge ids are the
    /// full graph's.
    core: Csr,
    /// Node id of each core index (ascending).
    node_of: Vec<u32>,
    /// Per node of the full graph: core index, or `STUB_BIT | stub index`.
    place: Vec<u32>,
    stubs: Vec<Stub>,
    /// Directed half-links of the full graph: the length of a fault mask.
    edge_count: usize,
}

impl Contracted {
    /// Contracts `g`: one sweep over the nodes to number the core, one over
    /// the core's edges to pack it and fill in the stubs.
    ///
    /// # Panics
    /// Panics if `g` has 2³¹ nodes or more.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        assert!(n < STUB_BIT as usize, "node ids must fit 31 bits");

        let mut place = Vec::with_capacity(n);
        let mut node_of = Vec::new();
        let mut stub_count = 0u32;
        for u in g.nodes() {
            // A host's links all lead to routers (`Graph` builds no other).
            if g.is_host(u) && g.degree(u) == 1 {
                place.push(STUB_BIT | stub_count);
                stub_count += 1;
            } else {
                place.push(node_of.len() as u32);
                node_of.push(u.0);
            }
        }

        // Stubs are filled from their router's side of the access link, so
        // the sweep reads no host's adjacency at all.
        let unset = Stub {
            router: 0,
            up_cost: 0,
            up_eid: EdgeId(0),
            down_cost: 0,
            down_eid: EdgeId(0),
        };
        let mut stubs = vec![unset; stub_count as usize];
        let mut offsets = Vec::with_capacity(node_of.len() + 1);
        let (mut to, mut cost, mut eid) = (Vec::new(), Vec::new(), Vec::new());
        let mut host = Vec::with_capacity(node_of.len());
        offsets.push(0);
        for (at, &u) in node_of.iter().enumerate() {
            let u = NodeId(u);
            for e in g.neighbors(u) {
                let p = place[e.to.index()];
                if p & STUB_BIT == 0 {
                    to.push(p);
                    cost.push(g.edge_cost(e.eid));
                    eid.push(e.eid.0);
                } else {
                    let up_eid = g.reverse_edge(e.eid);
                    stubs[(p & !STUB_BIT) as usize] = Stub {
                        router: at as u32,
                        up_cost: g.edge_cost(up_eid),
                        up_eid,
                        down_cost: g.edge_cost(e.eid),
                        down_eid: e.eid,
                    };
                }
            }
            offsets.push(to.len() as u32);
            host.push(g.is_host(u));
        }

        Contracted {
            core: Csr::from_parts(offsets, to, cost, eid, host),
            node_of,
            place,
            stubs,
            edge_count: g.directed_edge_count(),
        }
    }

    /// The packed adjacency among core nodes. Its node indices are core
    /// indices; its edge ids are the full graph's.
    #[inline]
    pub fn core(&self) -> &Csr {
        &self.core
    }

    /// Number of nodes in the full graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.place.len()
    }

    /// Number of directed half-links in the full graph.
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.edge_count
    }

    /// Where `n` sits: in the core, or contracted onto its router.
    #[inline]
    pub fn place(&self, n: NodeId) -> Place<'_> {
        let p = self.place[n.index()];
        if p & STUB_BIT != 0 {
            Place::Stub(&self.stubs[(p & !STUB_BIT) as usize])
        } else {
            Place::Core(p)
        }
    }

    /// Node ids of the core, by core index (ascending).
    #[inline]
    pub fn core_nodes(&self) -> &[u32] {
        &self.node_of
    }

    /// Heap bytes of the maps that resolve stubs (everything but the core
    /// adjacency).
    pub fn map_bytes(&self) -> usize {
        (self.node_of.len() + self.place.len()) * size_of::<u32>()
            + self.stubs.len() * size_of::<Stub>()
    }

    /// Heap bytes of the whole view.
    pub fn bytes(&self) -> usize {
        self.core.bytes() + self.map_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    /// a — b, two hosts on a, one on b; ids: a0 b1 h2 h3 h4.
    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_router();
        let b = g.add_router();
        g.add_link(a, b, 3, 7);
        g.add_host(a, 1, 5);
        g.add_host(a, 2, 6);
        g.add_host(b, 4, 8);
        g
    }

    #[test]
    fn stubs_leave_the_core_and_keep_their_access_link() {
        let g = sample();
        let c = Contracted::from_graph(&g);
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.directed_edge_count(), g.directed_edge_count());
        assert_eq!(c.core_nodes(), &[0, 1]);
        assert_eq!(c.core().node_count(), 2);
        // Only a→b and b→a are routed; the six access half-links are not.
        assert_eq!(c.core().directed_edge_count(), 2);
        for h in g.hosts() {
            let r = g.host_router(h);
            let Place::Stub(s) = c.place(h) else {
                panic!("{h} must be a stub")
            };
            assert_eq!(c.place(r), Place::Core(s.router));
            assert_eq!(g.edge_entry(h, r), Some((s.up_eid, s.up_cost)));
            assert_eq!(g.edge_entry(r, h), Some((s.down_eid, s.down_cost)));
        }
    }

    #[test]
    fn core_adjacency_keeps_order_costs_and_full_graph_edge_ids() {
        let g = scenarios::fig3();
        let c = Contracted::from_graph(&g);
        for (i, &u) in c.core_nodes().iter().enumerate() {
            let u = NodeId(u);
            let kept: Vec<_> = g
                .neighbors(u)
                .filter(|e| matches!(c.place(e.to), Place::Core(_)))
                .collect();
            let (to, cost, eid) = c.core().out_slices(NodeId(i as u32));
            assert_eq!(to.len(), kept.len());
            for (k, e) in kept.iter().enumerate() {
                assert_eq!(c.place(e.to), Place::Core(to[k]));
                assert_eq!((cost[k], eid[k]), (g.edge_cost(e.eid), e.eid.0));
            }
        }
    }

    #[test]
    fn multi_homed_hosts_stay_in_the_core_as_sinks() {
        // fig2's r1 and r2 attach to two routers each; r3 is a stub.
        let g = scenarios::fig2();
        let c = Contracted::from_graph(&g);
        for label in ["r1", "r2"] {
            let h = g.node_by_label(label).unwrap();
            let Place::Core(i) = c.place(h) else {
                panic!("{label} is dual-homed and must stay routed")
            };
            assert!(c.core().is_host(NodeId(i)));
        }
        let r3 = g.node_by_label("r3").unwrap();
        assert!(matches!(c.place(r3), Place::Stub(_)));
        assert!(c.core_nodes().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bytes_count_every_array() {
        let c = Contracted::from_graph(&sample());
        // 2 core + 5 place entries, 3 stubs of five words.
        assert_eq!(c.map_bytes(), (2 + 5) * 4 + 3 * 20);
        assert_eq!(c.bytes(), c.core().bytes() + c.map_bytes());
    }

    #[test]
    fn empty_graph_contracts() {
        let c = Contracted::from_graph(&Graph::new());
        assert_eq!((c.node_count(), c.core().node_count()), (0, 0));
    }
}
