//! Typed diagnostics for configuration and estimator defects, mirroring the
//! plan-side [`scope_ir::validate::PlanViolation`] vocabulary: every finding
//! the analyzer can produce is an enum variant with the offending rules or
//! values attached, so callers can match on defect classes instead of
//! parsing strings.

use scope_ir::OpKind;
use scope_optimizer::RuleSet;

/// Which estimated quantity an [`LintViolation::EstimateOutOfBounds`]
/// finding is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundQuantity {
    /// Estimated output rows.
    Rows,
    /// Estimated output bytes (`rows × row_bytes`).
    Bytes,
}

/// One violated configuration or estimator invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum LintViolation {
    /// A kind present in the plan has no enabled implementation rule and no
    /// enabled rewrite that could route around it: every alternative the
    /// memo can ever hold for that group keeps the kind, so compilation is
    /// certain to fail with `CompileError::NoImplementation`.
    NoImplementation {
        kind: OpKind,
        /// The (all disabled) implementation rules for the kind.
        disabled_impls: RuleSet,
    },
    /// A point estimate escaped its abstract interval: the estimator
    /// derived a value the bounds analysis proved impossible under the
    /// catalog envelopes. Silent estimator drift, surfaced as a typed,
    /// testable defect.
    EstimateOutOfBounds {
        /// Plan node index (`NodeId` index into the audited `PlanGraph`).
        node: usize,
        kind: OpKind,
        quantity: BoundQuantity,
        point: f64,
        lo: f64,
        hi: f64,
    },
}
