#![warn(missing_docs)]

//! # hbh-reunite — the REUNITE baseline
//!
//! REUNITE (REcursive UNIcast trEes; Stoica, Ng, Zhang — INFOCOM 2000) is
//! the protocol HBH descends from and is compared against. It implements
//! multicast distribution on plain unicast forwarding by splitting
//! multicast state into:
//!
//! * **MCT** (multicast control table) at *non-branching* routers — control
//!   plane only, never consulted for forwarding;
//! * **MFT** (multicast forwarding table) at *branching* routers — maps a
//!   channel to the set of receivers that joined at this node, plus a
//!   distinguished `dst`: incoming data is *addressed to* `MFT.dst`, and a
//!   branching node forwards the original toward `dst` while sending one
//!   modified copy to every other receiver in the table.
//!
//! Tree construction: `join(S, r)` messages travel from receivers toward
//! the source along unicast routes and are intercepted by the first
//! branching node whose MFT is fresh; `tree(S, r)` messages travel from
//! the source downstream, installing MCT state at the routers they
//! traverse. A router holding MCT state that sees a join for a *different*
//! receiver promotes itself to a branching node. Departures propagate with
//! **marked** tree messages that wipe downstream MCT state, forcing
//! downstream receivers to re-join upstream — the reconfiguration of the
//! paper's Figure 2, which can change the route of *other* receivers and
//! which HBH was designed to avoid.
//!
//! The implementation follows \[21\] as summarized in §2 of the HBH paper,
//! including the two pathologies the paper demonstrates under asymmetric
//! unicast routing (non-shortest-path branches, Figure 2; duplicate copies
//! on shared links, Figure 3). Branching-node migration for overloaded or
//! unicast-only routers (footnote 2 of the paper) is out of scope here, as
//! it is in the paper's own simulations.

pub mod engine;
pub mod messages;
pub mod tables;

pub use engine::{Reunite, ReuniteNodeState};
pub use messages::{ReuniteMsg, ReuniteTimer};
pub use tables::{Mct, Mft};

#[cfg(test)]
#[path = "engine_tests.rs"]
mod engine_tests;
