//! # hbh-experiments — the paper's evaluation, regenerated
//!
//! This crate drives the four protocol engines through the scenarios of
//! §4 of the paper and prints the tables behind every figure, all from
//! one binary, `hbh-exp <experiment>`, over one table ([`registry`]):
//!
//! | artifact | module | `hbh-exp` row |
//! |----------|--------|---------------|
//! | Fig. 7(a)/(b) — tree cost vs. group size | [`figures::eval`] | `fig7` |
//! | Fig. 8(a)/(b) — receiver delay vs. group size | [`figures::eval`] | `fig8` |
//! | Fig. 4 — reconfiguration after departure | [`figures::stability`] | `stability` |
//! | A1 — asymmetry sweep | [`figures::asymmetry`] | `asymmetry` |
//! | A2 — unicast-only clouds | [`figures::clouds`] | `unicast_clouds` |
//! | A3 — timer sensitivity | [`figures::timers`] | `timers` |
//! | A4 — control overhead | [`figures::overhead`] | `overhead` |
//! | repair after a router crash | [`figures::churn`] | `churn` |
//! | state footprint, QoS routing, concurrent groups | [`figures::state_size`], [`figures::qos`], [`figures::groups`] | `state_size`, `qos`, `groups` |
//! | 5k-router and 10⁵-receiver sweeps | [`scale`], [`membership`] | `scale`, `membership` |
//! | diagnostic: one draw's HBH tables and probe trace | [`inspect`] | `inspect` |
//!
//! `hbh-exp all` regenerates `results/`; `hbh-exp all --check 1` is the CI
//! gate that keeps the committed files what the code prints.
//!
//! Methodology mirrors §4.1 and is written once, in [`figures::sweep`]:
//! per run, per-direction link costs are drawn from `U[1, 10]`, a group of
//! `m` receivers is sampled uniformly, every protocol arm runs **on the
//! same draw** (paired comparison) through the one [`protocols::dispatch`],
//! and each named column of the outcomes is averaged over `--runs`
//! independent draws (paper: 500). What a run *measures* is the figure's
//! own [`protocols::Study`]; the standard one converges the simulation
//! (verified by structural-change quiescence, not just a fixed horizon),
//! injects one tagged data packet and reads the paper's two metrics off
//! the kernel's accounting: the number of copies transmitted (tree cost)
//! and the mean receiver delay.
//!
//! Underneath: [`scenario`] (topology, cost draw, receiver sample),
//! [`runner`] (`RunConfig`, the one `build_kernel`, converge, probe),
//! [`parallel`] (threads under `sweep`), [`stats`], [`datapath`], [`report`].

pub mod datapath;
pub mod figures;
pub mod inspect;
pub mod membership;
pub mod parallel;
pub mod protocols;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod stats;

pub use protocols::ProtocolKind;
pub use runner::ProbeOutcome;
pub use scenario::{Scenario, TopologyKind};
