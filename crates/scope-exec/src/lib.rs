//! # scope-exec
//!
//! The distributed execution simulator standing in for the paper's
//! production clusters, plus the A/B testing harness used for every
//! experiment.
//!
//! * [`truth`] — replays ground-truth cardinalities (correlated predicate
//!   selectivity, skewed join fanout, true UDO behaviour) and per-vertex
//!   data shares through a physical plan.
//! * [`work`] — the true per-operator work model (CPU / IO / network /
//!   busiest-vertex elapsed), including spill cliffs and per-vertex
//!   broadcast builds the optimizer's cost model never anticipates.
//! * [`simulate`] — stage cutting at exchanges, token-limited wave
//!   scheduling, critical-path makespan, and the paper's three metrics
//!   (runtime, CPU time, total IO time).
//! * [`abtest`] — §3.1.3's A/B infrastructure: re-execute any compiled plan
//!   under fixed resources (50 tokens) with seeded, reproducible noise,
//!   fault injection, and retry-with-backoff scheduling,
//! * [`faults`] — seeded, deterministic fault injection: transient vertex
//!   failures with bounded retries, stragglers with speculative
//!   re-execution, stage preemption, job timeouts, plan-targeted planted
//!   regressions, and a countdown crash fault for crash-safety tests,
//! * [`rollout`] — deterministic hash-split traffic assignment for staged
//!   canary rollouts (flighting),
//! * [`arrival`] — deterministic diurnal job-arrival streams (with burst
//!   overlays) for the online serving layer,
//! * [`mod@explain`] — `EXPLAIN ANALYZE`-style traces: per-operator estimated
//!   vs true cardinalities (q-errors), work breakdowns, stage assignment.

pub mod abtest;
pub mod arrival;
pub mod cluster;
pub mod explain;
pub mod faults;
pub mod rollout;
pub mod simulate;
pub mod truth;
pub mod work;

pub use abtest::{plan_fingerprint, ABTester, RetryPolicy};
pub use arrival::{ArrivalBurst, ArrivalCurve, DAY_US};
pub use cluster::ClusterConfig;
pub use explain::{explain, ExecutionTrace, NodeReport, StageReport};
pub use faults::{
    CrashPlan, CrashRoll, FaultProfile, FaultedRun, JobOutcome, ServeFaultProfile, TornSwap,
};
pub use rollout::in_rollout;
pub use simulate::{execute_deterministic, Metric, RunMetrics};
pub use truth::{replay, result_fingerprint, NodeTruth};
pub use work::NodeWork;
