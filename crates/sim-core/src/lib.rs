#![warn(missing_docs)]

//! # hbh-sim-core — the discrete-event simulation kernel
//!
//! A deterministic, single-threaded, packet-level network simulator — the
//! role NS-2 plays in the paper's evaluation. The design follows the ethos
//! of the session's Rust networking guides (smoltcp in particular): an
//! event-driven core with no async runtime, no interior mutability, no
//! global state, and protocol logic kept *pure* so it can be unit-tested
//! without the event loop.
//!
//! ## Model
//!
//! * **Time** is an integer count of the paper's "time units"
//!   ([`time::Time`]). Traversing a directed link takes exactly its routing
//!   cost — the convention the paper's delay figures use.
//! * **Packets** ([`packet::Packet`]) carry a unicast destination and a
//!   protocol-defined payload. They move **hop by hop**: every
//!   protocol-capable router on the path gets to observe (and possibly
//!   intercept, duplicate, or rewrite) a packet, which is precisely the
//!   mechanism HBH and REUNITE are built on. Unicast-only routers and
//!   non-addressee hosts are forwarded/dropped by the kernel itself.
//! * **Protocols** implement the [`kernel::Protocol`] trait: a per-node
//!   state type plus handlers for packet arrival and timer expiry. Handlers
//!   receive a [`ctx::Ctx`] with the current time, a seeded RNG, routing
//!   lookups, and actions (send, forward, deliver, set/cancel timer).
//! * **Accounting** ([`stats::Stats`]) logs each data copy's link and
//!   probe tag, counts control copies, and records application-level
//!   deliveries — the raw material for the paper's tree-cost and delay
//!   metrics.
//!
//! ## Determinism
//!
//! Events are ordered by `(time, sequence-number)`; the sequence number is
//! assigned at scheduling time, so simultaneous events fire in scheduling
//! order and a given (topology, seed, scenario) triple always replays the
//! exact same execution. All randomness flows through one explicitly-seeded
//! `StdRng` owned by the kernel.

pub mod ctx;
pub mod fasthash;
pub mod fault;
pub mod kernel;
pub mod network;
pub mod packet;
mod queue;
pub mod stats;
pub mod steady;
pub mod time;
pub mod trace;

pub use ctx::{Ctx, KernelOps};
pub use fasthash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use fault::FaultEvent;
pub use kernel::{arrival, Arrival, DropReason, Kernel, LossModel, Protocol};
pub use network::Network;
pub use packet::{Packet, PacketClass};
pub use stats::{Delivery, Stats};
pub use steady::{LazyBox, SteadyState};
pub use time::Time;

#[cfg(test)]
mod proptests;
