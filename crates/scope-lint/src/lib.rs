//! # scope-lint
//!
//! Static analysis for the steering loop: vet rule catalogs, rule
//! configurations, and plan IR **before any compile**. The paper's
//! production follow-up stresses that invalid or internally-contradictory
//! flag combinations must be rejected before they reach the optimizer;
//! this crate moves that rejection to zero-compile time.
//!
//! Three layers:
//!
//! 1. **Rule graph** ([`rulegraph::RuleGraph`]) — the dependency/implication
//!    graph extracted from the 256-rule catalog: implementation coverage
//!    per operator kind, escape rewrites (via
//!    [`scope_optimizer::AnchorRewrite`] metadata), `Project` producers,
//!    swap-rule cycles, and required-canonicalizer coverage.
//! 2. **Config lattice checker** ([`analyze::JobLint`]) — classifies any
//!    `RuleConfig` against one job's plan as
//!    `Valid | Redundant | Dead | Invalid` with typed
//!    [`violation::LintViolation`] diagnostics. `Invalid` is *sound*: a
//!    rejected config can never compile, so the discovery pipeline skips
//!    it without changing any result. `Redundant` identifies configs that
//!    compile bit-identically to their canonical projection, so their
//!    compiles can be shared.
//! 3. **Plan-IR pass framework** ([`pass`]) — a `Pass` trait, registry,
//!    severity levels, and a machine-readable [`report::LintReport`]. The
//!    default passes are built from the same shared cores
//!    (`scope_ir::check_structure` / `check_provenance`) as
//!    `validate_logical`, subsuming its ad-hoc checks.
//! 4. **Abstract-interpretation bounds** ([`bounds::PlanBounds`]) — sound
//!    `[lo, hi]` intervals for rows, bytes, and whole-plan cost derived
//!    from the catalog envelopes. Powers the discovery bounds gate (retire
//!    candidates whose cost lower bound exceeds the threshold before any
//!    compile) and the estimator audit ([`bounds::audit_estimates`]).

pub mod analyze;
pub mod bounds;
pub mod pass;
pub mod report;
pub mod rulegraph;
pub mod violation;

pub use analyze::{catalog_invalid, ingest_bits, ConfigVerdict, JobLint};
pub use bounds::{audit_estimates, ComponentBounds, PlanBounds};
pub use pass::{lint_plan, Pass, PassContext, PassRegistry, ProvenancePass, StructurePass};
pub use report::{LintFinding, LintReport, Severity};
pub use rulegraph::RuleGraph;
pub use violation::{BoundQuantity, LintViolation};
