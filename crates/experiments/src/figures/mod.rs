//! One module per paper artifact / ablation (see the crate docs for the
//! artifact ↔ module ↔ `hbh-exp` row map), all written on [`sweep`]: the
//! §4.1 method — draws, paired arms, fold, table — lives there once, and
//! each figure module keeps what is its own: a `Study`, a seed formula, a
//! column list and a title.

pub mod asymmetry;
pub mod churn;
pub mod clouds;
pub mod eval;
pub mod groups;
pub mod overhead;
pub mod qos;
pub mod stability;
pub mod state_size;
pub mod sweep;
pub mod timers;
