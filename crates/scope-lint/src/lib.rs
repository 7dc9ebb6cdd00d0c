//! # scope-lint
//!
//! Static analysis for the steering loop: answer, **before any compile**,
//! the two questions discovery and serving ask of a rule configuration.
//! The paper's production follow-up stresses that invalid flag
//! combinations must be rejected before they reach the optimizer; this
//! crate moves that rejection to zero-compile time.
//!
//! Two layers:
//!
//! 1. **Will it compile?** ([`analyze::JobLint`]) — classifies any
//!    `RuleConfig` against one job's plan as `Valid | Invalid`, from the
//!    implementation and escape edges of the rule graph
//!    ([`rulegraph::RuleGraph`], extracted from
//!    [`scope_optimizer::AnchorRewrite`] metadata). `Invalid` is *sound*: a
//!    rejected config can never compile, so the span, the discovery funnel
//!    and the flight guardrail skip it without changing any result.
//!    [`analyze::catalog_invalid`] is the plan-independent form that
//!    quarantines hints no job can compile. [`analyze::SignatureBound`]
//!    reads the same reachable kinds to bound which rule signatures a
//!    compile can have, so the flight layer compiles only the defaults
//!    that could key a stored hint.
//! 2. **What is the cheapest it can cost?** ([`bounds::PlanBounds`]) —
//!    sound per-node rows/bytes intervals derived from the catalog
//!    envelopes, and a whole-plan cost floor per enabled rule set. Powers
//!    the discovery bounds gate (retire candidates whose floor exceeds the
//!    execution threshold before any compile) and the estimator audit
//!    ([`bounds::audit_estimates`]).

pub mod analyze;
pub mod bounds;
pub mod rulegraph;
pub mod violation;

pub use analyze::{catalog_invalid, ConfigVerdict, JobLint, SignatureBound};
pub use bounds::{audit_estimates, PlanBounds};
pub use rulegraph::RuleGraph;
pub use violation::{BoundQuantity, LintViolation};
