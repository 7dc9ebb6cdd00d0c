//! # steer-core
//!
//! The paper's contribution, on top of the `scope-*` substrates:
//!
//! * [`span`] — job-span approximation (Algorithm 1): which non-required
//!   rules can affect a job's final plan,
//! * [`search`] — randomized candidate-configuration generation under the
//!   category-independence assumption (§5.2),
//! * [`pipeline`] — the offline discovery pipeline (§6.1): job selection,
//!   recompilation, cheap-plan / low-cost-high-runtime heuristics, and
//!   A/B execution of the ten cheapest alternatives,
//! * [`groups`] — rule-signature job groups (Definition 6.2) and
//!   extrapolation of winning configurations to unseen jobs (§6.4),
//! * [`report`] — Table 3-style summaries,
//! * [`deploy`] — §3.3 "plan hints" at rest: the per-group hint store and
//!   its plain-text hint-file format (storage only; the lifecycle is
//!   [`flight`]'s),
//! * [`feedback`] — runtime feedback into the cost model: per-template
//!   observed/estimated correction factors, banded and smoothed, promoted
//!   only at day boundaries behind a vetting gate,
//! * [`flight`] — the one hint lifecycle (§3.3 guardrail, §6.4
//!   re-validation, QO-Advisor's flighting): staged canary rollout over
//!   the hint store with deterministic traffic splits, N-strike/CUSUM
//!   rollback monitors, background revalidation with a probation path out
//!   of quarantine, and a checksummed journal + snapshot for crash
//!   recovery,
//! * [`serve`] — the failure-hardened online serving layer: a
//!   copy-on-write serving-table snapshot over the flight controller's state,
//!   fronted by per-request deadlines, a circuit breaker, admission
//!   control with load shedding, and a typed degraded-mode ladder —
//!   every failure path serves the default config, never an error,
//! * [`minimize`] — shrink winning configurations to the smallest
//!   plan-preserving delta before surfacing them as hints,
//! * [`par`] — the scoped-thread fan-out harness the pipeline parallelizes
//!   over (order-preserving, panic-isolated).
//!
//! `RuleDiff` (Definition 6.1) lives in `scope_optimizer::config` next to
//! the signature type it compares.

pub mod deploy;
pub mod feedback;
pub mod flight;
pub mod groups;
pub mod guard;
pub mod minimize;
pub mod par;
pub mod pipeline;
pub mod report;
pub mod search;
pub mod serve;
pub mod span;

#[cfg(test)]
pub(crate) mod testutil;

pub use deploy::{HintParseError, HintParseErrorKind, HintStatus, HintStore, StoredHint};
pub use feedback::{CorrectionBand, CorrectionStore};
pub use flight::{
    AdvanceReport, BackgroundReport, FlightConfig, FlightController, FlightDayReport, FlightStage,
    FlightState, GroupDayStats, RecoveryError, RecoveryReport,
};
pub use groups::{
    extrapolate, group_jobs, group_of, winning_configs, ExtrapolatedRun, GroupConfig,
};
pub use guard::{vet_candidate, CandidateFilterStats, CandidateRejection};
pub use minimize::{minimize_config, MinimizedConfig};
pub use par::run_chunked;
pub use pipeline::{
    CandidateOutcome, DiscoveryReport, JobOutcome, Pipeline, PipelineParams, SelectionReason,
};
pub use report::{best_known_summary, BestKnownSummary};
pub use search::{candidate_configs, candidate_configs_effective};
pub use serve::{
    build_entries, BreakerState, CircuitBreaker, DayServeReport, Decision, DecisionReason,
    DegradedMode, Lookup, ServeRequest, ServiceConfig, ServingEntry, ServingTable, SteeringService,
};
pub use span::{approximate_span, JobSpan};
