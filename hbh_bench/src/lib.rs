//! `hbh_bench` — the harness behind the repo's `BENCHMARK.json`: six
//! named workloads, the end-to-end metrics a user of the simulator sees,
//! and a separate traced run that splits the time across the crates.
//! See `README.md` beside this crate for the catalogue and the reasons.
//!
//! Everything here measures from outside: it calls only public functions
//! of the workspace crates and changes none of them.

pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod study;
pub mod timed;
pub mod trace;
pub mod workloads;
