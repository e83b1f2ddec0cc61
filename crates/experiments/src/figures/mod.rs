//! One module per paper artifact / ablation. See the crate docs for the
//! artifact ↔ module ↔ `hbh-exp` row map.

pub mod asymmetry;
pub mod churn;
pub mod clouds;
pub mod eval;
pub mod groups;
pub mod overhead;
pub mod qos;
pub mod stability;
pub mod state_size;
pub mod timers;
