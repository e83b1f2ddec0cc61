#![warn(missing_docs)]

//! # hbh-proto-base — building blocks shared by all four protocols
//!
//! HBH, REUNITE, PIM-SM and PIM-SS share a surprising amount of machinery:
//! the `<S, G>` channel abstraction, soft state with a stale timer `t1` and
//! a destruction timer `t2`, periodic refresh messages, and the same
//! experiment-side command vocabulary (start source / join / leave / send
//! data). This crate holds those pieces so each protocol crate contains
//! only what is genuinely protocol-specific: its message set and its
//! message-processing rules.
//!
//! * [`channel`] — `<S, G>` channel identifiers (EXPRESS-style: unicast
//!   source plus class-D group in the SSM `232/8` range);
//! * [`softstate`] — the t1/t2 soft-state entry lifecycle, timestamp-based
//!   (entries are refreshed by messages and reaped lazily, the standard
//!   soft-state implementation technique), and the two tables built on it:
//!   the insertion-ordered `SoftList` and the id-ordered `SoftSet`;
//! * [`command`] — the common experiment command set, the `Command` type of
//!   every protocol's kernel instantiation;
//! * [`timing`] — refresh periods and timer durations (the paper does not
//!   publish NS parameter values; the defaults here are derived from the
//!   topology scale and documented);
//! * [`membership`] — the Poisson join/leave churn process used by the
//!   group-dynamics ablation;
//! * [`script`] — the unified scenario schedule (commands + fault events
//!   at times) consumed by both the simulation kernel and the live UDP
//!   cluster, so one scenario definition drives every backend;
//! * [`workload`] — declarative membership workloads ([`Workload`]):
//!   the paper's §4.1 figure workload plus the flash-crowd, Zipf and
//!   IPTV-zapping patterns used by the membership-scale benchmarks, all
//!   realized as receiver sets, join schedules and [`Script`]s.

pub mod channel;
pub mod command;
pub mod inventory;
pub mod membership;
pub mod reliable;
pub mod script;
pub mod softstate;
pub mod timing;
pub mod workload;

pub use channel::{Channel, GroupAddr};
pub use command::Cmd;
pub use inventory::StateInventory;
pub use reliable::{Outstanding, ReliableConfig, ReliableState, ReliableStats, RtxVerdict};
pub use script::{Script, ScriptAction};
pub use softstate::{EntryPhase, SoftEntry, SoftList, SoftSet};
pub use timing::Timing;
pub use workload::{Workload, WorkloadGen, WorkloadPlan};
