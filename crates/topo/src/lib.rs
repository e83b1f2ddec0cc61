#![warn(missing_docs)]

//! # hbh-topo — topology substrate for the HBH multicast simulator
//!
//! This crate models the physical network the multicast routing protocols run
//! over: routers, hosts, and point-to-point links with **per-direction**
//! integer costs. Per-direction costs are the root cause studied by the HBH
//! paper (Costa, Fdida, Duarte, SIGCOMM 2001): when `cost(u → v) ≠
//! cost(v → u)`, unicast shortest paths become asymmetric and reverse-path
//! multicast trees stop being shortest-path trees.
//!
//! The crate provides:
//!
//! * [`graph::Graph`] — the topology structure (routers, hosts, links),
//!   built once and shared by every clone, plus each graph's own directed
//!   link costs and multicast capability flags;
//! * [`isp`] — the 18-router "large ISP" backbone of the paper's Figure 6;
//! * [`random`] — seeded random-graph generators (G(n,p) with a target
//!   average degree, plus Waxman for extensions);
//! * [`hier`] — hierarchical AS/POP/access topologies for the scale sweeps
//!   (connected by construction, thousands of routers);
//! * [`csr`] — an immutable CSR packing of a frozen graph, the form the
//!   routing layer's SPF sweeps iterate over;
//! * [`contract`] — the same packing over the *core* only (routers plus
//!   multi-homed hosts), with every single-homed host folded onto its
//!   attachment router: what the on-demand routing service computes over;
//! * [`costs`] — cost assignment policies (the paper's per-direction
//!   `U[1,10]`, and an asymmetry-interpolation knob used by the ablations),
//!   and the QoS extension's link-capacity draw, returned by edge id;
//! * [`scenarios`] — the small hand-built topologies of the paper's
//!   Figures 1, 2/5 and 3, with directed costs chosen so the unicast routes
//!   match the routes the paper's walk-throughs assume;
//! * [`analysis`] — the connectivity check the random generators redraw
//!   on;
//! * [`dot`] — Graphviz export.
//!
//! Everything is deterministic given an explicit [`rand::rngs::StdRng`] seed;
//! no global RNG state is ever consulted.

pub mod analysis;
pub mod contract;
pub mod costs;
pub mod csr;
pub mod dot;
pub mod graph;
pub mod hier;
pub mod isp;
pub mod random;
pub mod scenarios;

pub use contract::Contracted;
pub use csr::Csr;
pub use graph::{Cost, EdgeId, Graph, LinkId, NodeId, NodeKind};

#[cfg(test)]
mod proptests;
