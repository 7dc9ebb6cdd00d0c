//! # scope-optimizer
//!
//! A Cascades-style, rule-driven query optimizer with **256 steerable
//! rules** in the four categories of the paper's Table 2 (37 required, 46
//! off-by-default, 141 on-by-default, 32 implementation).
//!
//! Compilation pipeline ([`optimizer::compile`]):
//!
//! 1. **Normalize** ([`normalize`]) — required rules rewrite `Get`/`Select`
//!    into `RangeGet`/`Filter`.
//! 2. **Ingest** ([`memo`]) — the normalized DAG becomes hash-consed memo
//!    groups.
//! 3. **Explore** ([`search::explore`]) — enabled transformation rules
//!    ([`transform`]) add alternative expressions.
//! 4. **Implement** ([`search::implement`]) — enabled implementation rules
//!    produce physical candidates; the `EnforceExchange` enforcer inserts
//!    exchanges for unmet partitioning requirements; the cheapest candidate
//!    per group wins under the estimated cost model ([`cost`]).
//! 5. **Extract** — the winning [`physical::PhysPlan`] plus the job's
//!    [`config::RuleSignature`].
//!
//! Disabling rules steers this whole process, and disabling all
//! implementations of a needed operator produces a [`search::CompileError`]
//! — the paper's "not all configurations compile".

#[doc(hidden)]
pub mod classic;
pub mod config;
pub mod cost;
pub mod estimate;
pub mod memo;
pub mod normalize;
pub mod optimizer;
pub mod physical;
pub mod rules;
pub mod ruleset;
pub mod search;
pub mod transform;
pub mod validate;

pub use config::{RuleConfig, RuleDiff, RuleSignature};
pub use cost::{CostCorrections, CostEstimate, CostModel, CostWeights};
pub use optimizer::normalized_kind_counts;
pub use optimizer::{
    catch_compile_panics, compile, compile_candidates, compile_job, compile_job_guarded,
    compile_with_budget, compile_with_model, effective_config, CompileStats, CompiledPlan,
    RuleFootprint,
};
pub use physical::{Partitioning, PhysNode, PhysOp, PhysPlan};
pub use rules::{AnchorRewrite, PhysImpl, Rule, RuleAction, RuleCatalog, RuleCategory};
pub use ruleset::{RuleId, RuleSet, NUM_RULES};
pub use search::{CompileBudget, CompileError, CompilePhase};
pub use validate::validate_physical;
