#![warn(missing_docs)]

//! # hbh-routing — the unicast routing substrate
//!
//! Every protocol in the HBH paper (HBH itself, REUNITE, PIM-SM, PIM-SS)
//! rides on top of ordinary unicast routing: control messages are unicast
//! hop-by-hop, and the recursive-unicast data plane forwards by unicast
//! destination address. This crate computes that unicast routing layer
//! ahead of time, exactly as NS-2's static routing does for the paper's
//! simulations:
//!
//! * `dijkstra` — single-source shortest paths over the *directed* link
//!   costs (hosts never transit), the core search both stores run;
//! * [`tables::RoutingTables`] — one forwarding step (next hop and
//!   out-edge) per pair, the eager forwarding state (exact, O(n²) — the
//!   paper-scale default);
//! * [`provider`] — the [`provider::RouteProvider`] trait plus
//!   [`provider::OnDemandRoutes`], lazy per-router SPF rows over the router
//!   core behind an LRU, for internet-scale topologies where n² tables no
//!   longer fit. Both stores search the same router core and resolve a
//!   single-homed host through its router by one shared pair rule;
//! * [`paths`] — path extraction and shortest-path-tree construction
//!   (forward SPT and reverse SPT — the two tree shapes whose difference
//!   under asymmetric costs is the whole point of the paper);
//! * [`qos`] — bandwidth-constrained tables and the admission checks over
//!   them.
//!
//! Ties between equal-cost paths are broken deterministically (smallest
//! node id wins), so a given topology + cost assignment always yields one
//! reproducible routing.

mod dijkstra;
mod pair;
pub mod paths;
pub mod provider;
pub mod qos;
mod radix;
pub mod tables;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

pub use provider::{OnDemandRoutes, RouteProvider, RouteStats};
pub use tables::RoutingTables;
