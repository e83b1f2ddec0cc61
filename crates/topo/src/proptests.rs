//! The graph's chained adjacency held to a plain model: one
//! `Vec<(NodeId, EdgeId)>` per node, in insertion order, and one cost per
//! edge id. Random builds add routers, hosts, router links and second host
//! links, re-cost edges, and clone part-way; every graph built along the
//! way, each template included, must still read exactly as its model.

use crate::graph::{Cost, EdgeId, Graph, NodeId, NodeKind};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Router,
    /// A host on the router picked by the byte, with its two access costs.
    Host(u8, Cost, Cost),
    /// A link between the two routers picked, with its two costs.
    Link(u8, u8, Cost, Cost),
    /// A second link from the host picked to the router picked.
    Second(u8, u8, Cost, Cost),
    /// A new cost for the edge picked.
    SetCost(u16, Cost),
    /// Keep the graph so far as a template and go on building a clone.
    Clone,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Router),
        Just(Op::Router),
        (any::<u8>(), 1u32..10, 1u32..10).prop_map(|(r, d, u)| Op::Host(r, d, u)),
        (any::<u8>(), 1u32..10, 1u32..10).prop_map(|(r, d, u)| Op::Host(r, d, u)),
        (any::<u8>(), any::<u8>(), 1u32..10, 1u32..10)
            .prop_map(|(a, b, x, y)| Op::Link(a, b, x, y)),
        (any::<u8>(), any::<u8>(), 1u32..10, 1u32..10)
            .prop_map(|(a, b, x, y)| Op::Link(a, b, x, y)),
        (any::<u8>(), any::<u8>(), 1u32..10, 1u32..10)
            .prop_map(|(h, r, d, u)| Op::Second(h, r, d, u)),
        (any::<u16>(), 1u32..10).prop_map(|(e, c)| Op::SetCost(e, c)),
        Just(Op::Clone),
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..80)
}

#[derive(Clone, Debug, Default)]
struct Model {
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    costs: Vec<Cost>,
}

impl Model {
    fn add_node(&mut self, kind: NodeKind) {
        self.kinds.push(kind);
        self.adj.push(Vec::new());
    }

    fn add_link(&mut self, a: NodeId, b: NodeId, ab: Cost, ba: Cost) {
        for (from, to, cost) in [(a, b, ab), (b, a, ba)] {
            self.adj[from.index()].push((to, EdgeId(self.costs.len() as u32)));
            self.costs.push(cost);
        }
    }

    fn edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        let &(_, eid) = self.adj[from.index()].iter().find(|(n, _)| *n == to)?;
        Some(eid)
    }

    /// The node of `kind` that `pick` selects, if there is one.
    fn pick(&self, kind: NodeKind, pick: u8) -> Option<NodeId> {
        let of_kind: Vec<usize> = (0..self.kinds.len())
            .filter(|&n| self.kinds[n] == kind)
            .collect();
        let n = *of_kind.get(usize::from(pick) % of_kind.len().max(1))?;
        Some(NodeId(n as u32))
    }
}

/// Applies `op` to both the graph and the model; an op the graph would
/// reject (a duplicate link, no router to attach to) is skipped by both.
fn apply(g: &mut Graph, m: &mut Model, op: &Op) {
    match *op {
        Op::Router => {
            g.add_router();
            m.add_node(NodeKind::Router);
        }
        Op::Host(r, down, up) => {
            if let Some(r) = m.pick(NodeKind::Router, r) {
                let h = g.add_host(r, down, up);
                m.add_node(NodeKind::Host);
                m.add_link(r, h, down, up);
            }
        }
        Op::Link(a, b, ab, ba) => {
            let (Some(a), Some(b)) = (m.pick(NodeKind::Router, a), m.pick(NodeKind::Router, b))
            else {
                return;
            };
            if a != b && m.edge(a, b).is_none() {
                g.add_link(a, b, ab, ba);
                m.add_link(a, b, ab, ba);
            }
        }
        Op::Second(h, r, down, up) => {
            let (Some(h), Some(r)) = (m.pick(NodeKind::Host, h), m.pick(NodeKind::Router, r))
            else {
                return;
            };
            if m.edge(r, h).is_none() {
                g.add_link_host_side(h, r, down, up);
                m.add_link(r, h, down, up);
            }
        }
        Op::SetCost(e, cost) => {
            if !m.costs.is_empty() {
                let e = usize::from(e) % m.costs.len();
                g.set_cost(EdgeId(e as u32), cost);
                m.costs[e] = cost;
            }
        }
        Op::Clone => {}
    }
}

/// Every read of the adjacency agrees with the model.
fn agrees(g: &Graph, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), m.kinds.len());
    prop_assert_eq!(g.directed_edge_count(), m.costs.len());
    let mut links = Vec::new();
    for u in g.nodes() {
        prop_assert_eq!(g.kind(u), m.kinds[u.index()]);
        let out: Vec<(NodeId, EdgeId)> = g.neighbors(u).map(|e| (e.to, e.eid)).collect();
        prop_assert_eq!(&out, &m.adj[u.index()], "neighbors of {}", u);
        prop_assert_eq!(g.degree(u), out.len());
        if g.is_host(u) {
            prop_assert_eq!(g.host_router(u), out[0].0);
        }
        for v in g.nodes() {
            let entry = m.edge(u, v).map(|e| (e, m.costs[e.index()]));
            prop_assert_eq!(g.edge_entry(u, v), entry, "edge {}->{}", u, v);
            prop_assert_eq!(g.cost(u, v), entry.map(|(_, c)| c));
        }
        for &(v, e) in out.iter().filter(|(v, _)| u < *v) {
            links.push((u, v, m.costs[e.index()], m.costs[e.index() ^ 1]));
        }
    }
    prop_assert_eq!(g.undirected_links(), links);
    Ok(())
}

/// Builds along `ops`; at each [`Op::Clone`] the graph so far is kept as a
/// template and the build goes on in its clone. Then every template and
/// the final graph are checked against their models.
fn builds_match_the_model(ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut g, mut m) = (Graph::new(), Model::default());
    let mut templates = Vec::new();
    for op in ops {
        if let Op::Clone = op {
            let clone = g.clone();
            templates.push((std::mem::replace(&mut g, clone), m.clone()));
        }
        apply(&mut g, &mut m, op);
    }
    for (template, model) in &templates {
        agrees(template, model)?;
    }
    agrees(&g, &m)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn chained_adjacency_matches_a_vec_model(ops in ops()) {
        builds_match_the_model(&ops)?;
    }
}

// The same property at 16× the cases: run by CI with
// `cargo test --release -p hbh-topo -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "4,096 cases: CI runs it in release"]
    fn chained_adjacency_matches_a_vec_model_at_length(ops in ops()) {
        builds_match_the_model(&ops)?;
    }
}
