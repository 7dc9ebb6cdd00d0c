//! # scope-steer
//!
//! Facade crate re-exporting the whole stack of the SIGMOD 2021 paper
//! reproduction *"Steering Query Optimizers: A Practical Take on Big Data
//! Workloads"*:
//!
//! * [`ir`] — plan IR, jobs, the true/observable catalog split,
//! * [`optimizer`] — the Cascades-style optimizer with 256 steerable rules,
//! * [`exec`] — the distributed execution simulator and A/B harness,
//! * [`workload`] — production-shaped workload generators (A, B, C),
//! * [`steer`] — job spans, configuration search, the discovery pipeline,
//!   RuleDiff, rule-signature job groups and the hint lifecycle.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use scope_exec as exec;
pub use scope_ir as ir;
pub use scope_optimizer as optimizer;
pub use scope_workload as workload;
pub use steer_core as steer;
