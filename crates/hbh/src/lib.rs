#![warn(missing_docs)]

//! # hbh-proto — the Hop-By-Hop multicast routing protocol
//!
//! The paper's primary contribution (Costa, Fdida, Duarte — SIGCOMM 2001).
//! HBH distributes multicast data over **recursive unicast trees** like
//! REUNITE, but redesigns the tree-construction machinery so that it
//!
//! * identifies channels by `<S, G>` (class-D compatible, see
//!   `hbh_proto_base::channel`),
//! * builds true **shortest-path trees** even when unicast routing is
//!   asymmetric (Figure 5 vs REUNITE's Figure 2),
//! * suppresses the duplicate packet copies REUNITE can place on shared
//!   links (Figure 3), and
//! * keeps member departures from perturbing other receivers' routes
//!   (Figure 4): forwarding entries live at the branching node *nearest
//!   the receiver*, and data at a branching node is addressed to the node
//!   itself, not to a receiver.
//!
//! ## State
//!
//! * `MCT<S>` at non-branching tree routers: a **single** soft entry
//!   recording the node whose `tree` messages flow through here.
//! * `MFT<S>` at branching routers (and the source): one soft entry per
//!   downstream node (receiver or next branching router). Entries can be
//!   **stale** (t1 expired: still forwards data, no longer emits `tree`
//!   messages) or **marked** (set by `fusion`: emits `tree` messages but
//!   forwards no data) — the two flags are how a newly discovered
//!   branching point is spliced into the data path without ever
//!   interrupting delivery.
//!
//! ## Messages
//!
//! * `join(S, R)` — receiver → source, periodic; intercepted by a
//!   branching node holding an `R` entry, which then joins upstream
//!   itself. A receiver's *first* join is never intercepted, so new
//!   receivers always join at the source first and are re-homed by the
//!   fusion mechanism afterwards.
//! * `tree(S, R)` — source → receivers, periodic; installs/refreshes MCT
//!   state and triggers branching-point discovery.
//! * `fusion(S, R₁…Rₙ)` — sent upstream by a router that sees tree
//!   messages for several targets flow through it: "I can be their
//!   branching node". The upstream MFT marks those entries (tree-only)
//!   and installs the fusion sender stale (data-only), which reroutes the
//!   data plane through the new branching node in one step.
//!
//! The full Appendix-A rule set is implemented in [`engine`] with the rule
//! numbers of the paper's Figure 9 cited inline. What a fusion does to the
//! table it is addressed to — rules (2)–(4) and, in the hard table, the
//! nested-fusion veto — is table work ([`HbhMft::fusion`], [`HardMft::fusion`]):
//! the soft and the hard MFT hold the same indexed coverage core
//! (`claims`), and `reference` keeps the scan-based tables it replaced as
//! the model the property tests compare it with.

pub(crate) mod bits;
pub(crate) mod claims;
pub mod engine;
pub mod hard;
pub mod messages;
pub mod tables;

pub use engine::{Hbh, HbhNodeState};
pub use hard::{HardCtl, HardMft, HardMsg, HardNodeState, HardTimer, HbhHard};
pub use messages::{HbhMsg, HbhTimer};
pub use tables::{HbhMct, HbhMft};

#[cfg(test)]
#[path = "engine_tests.rs"]
mod engine_tests;

#[cfg(test)]
#[path = "hard_tests.rs"]
mod hard_tests;

#[cfg(test)]
mod reference;

#[cfg(test)]
#[path = "table_proptests.rs"]
mod table_proptests;
