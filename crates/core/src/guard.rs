//! The candidate vetting guardrail: before a steered plan may be executed
//! (during discovery) or recommended (during deployment), it must pass the
//! physical validator *and* the differential correctness check against the
//! default plan's semantic fingerprint. This is the trust boundary the
//! paper's flighting step implies: a rule configuration is evidence, not
//! authority, and a config whose plan is invalid or computes something else
//! is discarded/quarantined, with the job falling back to the default plan.

use std::fmt;

use scope_exec::truth::result_fingerprint;
use scope_ir::validate::PlanViolation;
use scope_ir::Job;
use scope_lint::{ConfigVerdict, JobLint};
use scope_optimizer::{
    compile_job_guarded, effective_config, validate_physical, CompileBudget, CompileError,
    CompiledPlan, RuleConfig,
};

/// Why a candidate plan was rejected by the guardrail.
#[derive(Clone, Debug, PartialEq)]
pub enum CandidateRejection {
    /// The steered plan violates physical invariants.
    Invalid(Vec<PlanViolation>),
    /// The steered plan's semantic fingerprint diverges from the default
    /// plan's — it computes a different result.
    Diverged { default_fp: u64, steered_fp: u64 },
}

impl fmt::Display for CandidateRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CandidateRejection::Invalid(violations) => {
                write!(f, "invalid plan ({} violations", violations.len())?;
                if let Some(first) = violations.first() {
                    write!(f, "; first: {first}")?;
                }
                write!(f, ")")
            }
            CandidateRejection::Diverged {
                default_fp,
                steered_fp,
            } => write!(
                f,
                "result fingerprint diverged (default {default_fp:016x}, steered {steered_fp:016x})"
            ),
        }
    }
}

/// Vet a candidate compiled plan against the default plan for the same job.
/// `Ok(())` means the candidate is structurally valid and semantically
/// equivalent to the default; any `Err` means the candidate must not run.
pub fn vet_candidate(
    default: &CompiledPlan,
    candidate: &CompiledPlan,
) -> Result<(), CandidateRejection> {
    vet_against(result_fingerprint(&default.plan), candidate)
}

/// [`vet_candidate`] for a caller that vets many candidates of one job:
/// `default_fp` is the default plan's [`result_fingerprint`], computed once.
pub(crate) fn vet_against(
    default_fp: u64,
    candidate: &CompiledPlan,
) -> Result<(), CandidateRejection> {
    let violations = validate_physical(&candidate.plan);
    if !violations.is_empty() {
        return Err(CandidateRejection::Invalid(violations));
    }
    let steered_fp = result_fingerprint(&candidate.plan);
    if default_fp != steered_fp {
        return Err(CandidateRejection::Diverged {
            default_fp,
            steered_fp,
        });
    }
    Ok(())
}

/// What the deployment guardrail decided for one (job, hint) pair.
#[derive(Debug)]
pub(crate) enum SteeredCompile {
    /// The hint compiled within budget into a plan that passed
    /// [`vet_candidate`]: the job may run it.
    Steered(CompiledPlan),
    /// `scope-lint` proved the hint (plus the job's own customer hints)
    /// cannot compile this job; no compile was spent. The job stays on its
    /// default plan and nothing is held against the hint.
    SkippedStatically,
    /// The compile failed the ordinary way ("not all configurations
    /// compile"). Same consequence as a static skip, one compile later.
    SkippedBenignly,
    /// The compile panicked or ran over budget, or the plan it produced is
    /// invalid or computes another result. The job stays on its default
    /// plan and the hint must be quarantined.
    Vetoed,
}

/// The steered-compile guardrail, the one way a deployed hint becomes a
/// plan: static lint verdict, then a guarded compile under `budget`, then
/// [`vet_candidate`] against the job's already-compiled `default`.
pub(crate) fn compile_steered(
    job: &Job,
    default: &CompiledPlan,
    hint: &RuleConfig,
    budget: &CompileBudget,
) -> SteeredCompile {
    let effective = effective_config(job, hint);
    if matches!(
        JobLint::new(&job.plan).classify(&effective),
        ConfigVerdict::Invalid { .. }
    ) {
        return SteeredCompile::SkippedStatically;
    }
    match compile_job_guarded(job, hint, budget) {
        Ok(steered) if vet_candidate(default, &steered).is_ok() => SteeredCompile::Steered(steered),
        Ok(_) => SteeredCompile::Vetoed,
        // A panic or budget blow-out is a guardrail trip, not a benign
        // "this config doesn't compile here".
        Err(e) if e.is_fatal() => SteeredCompile::Vetoed,
        Err(_) => SteeredCompile::SkippedBenignly,
    }
}

/// Per-job (and aggregated per-report) counts of candidates the guardrail
/// filtered out before execution, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateFilterStats {
    /// Compiles that panicked (isolated by `catch_compile_panics`).
    pub panicked: usize,
    /// Compiles that exhausted the task budget (or the memo's hard cap
    /// during ingest).
    pub over_budget: usize,
    /// Plans rejected by the physical validator.
    pub invalid: usize,
    /// Plans whose result fingerprint diverged from the default's.
    pub diverged: usize,
    /// Candidates the static analyzer (`scope-lint`) retired before any
    /// compile: certain to fail with `NoImplementation`. Pre-lint these
    /// compiled, failed with a non-fatal error, and were silently skipped,
    /// so retiring them statically changes no other counter.
    pub static_invalid: usize,
    /// Candidates the abstract-interpretation bounds gate retired before
    /// any compile: their whole-plan cost lower bound provably exceeded the
    /// job's execution threshold, so compiling them could not have changed
    /// any executed alternative.
    pub static_bounded: usize,
    /// Compiles that failed with [`CompileError::NoImplementation`] — the
    /// paper's "not all configurations compile", which the lint gate could
    /// not prove ahead of time. Expected and silent: a census of where
    /// post-lint compiles go, outside every total below.
    pub no_implementation: usize,
    /// Compiles that failed with
    /// [`CompileError::NoExchangeImplementation`]; a census like
    /// `no_implementation`, outside every total.
    pub no_exchange: usize,
}

impl CandidateFilterStats {
    /// Total candidates filtered before execution (dynamic guardrails plus
    /// statically-retired candidates).
    pub fn total(&self) -> usize {
        self.dynamic_total() + self.static_total()
    }

    /// Candidates the *dynamic* guardrails (compile + vet) filtered.
    pub fn dynamic_total(&self) -> usize {
        self.panicked + self.over_budget + self.invalid + self.diverged
    }

    /// Candidates retired statically, with zero compiles: certainly
    /// invalid, or provably too expensive (the cost-bounds gate).
    pub(crate) fn static_total(&self) -> usize {
        self.static_invalid + self.static_bounded
    }

    /// Fold another stats record into this one.
    pub(crate) fn merge(&mut self, other: &CandidateFilterStats) {
        self.panicked += other.panicked;
        self.over_budget += other.over_budget;
        self.invalid += other.invalid;
        self.diverged += other.diverged;
        self.static_invalid += other.static_invalid;
        self.static_bounded += other.static_bounded;
        self.no_implementation += other.no_implementation;
        self.no_exchange += other.no_exchange;
    }

    /// Count a guarded compile error. Ordinary configuration-infeasibility
    /// errors (the paper's "not all configurations compile") were always
    /// an expected, silent part of discovery: they are broken down by kind
    /// but stay out of the filter totals.
    pub(crate) fn note_compile_error(&mut self, err: &CompileError) {
        match err {
            CompileError::Panicked { .. } => self.panicked += 1,
            CompileError::BudgetExhausted { .. } | CompileError::MemoExhausted { .. } => {
                self.over_budget += 1;
            }
            CompileError::NoImplementation { .. } => self.no_implementation += 1,
            CompileError::NoExchangeImplementation => self.no_exchange += 1,
            CompileError::CyclicMemo => {}
        }
    }

    /// Count a vetting rejection.
    pub fn note_rejection(&mut self, rejection: &CandidateRejection) {
        match rejection {
            CandidateRejection::Invalid(_) => self.invalid += 1,
            CandidateRejection::Diverged { .. } => self.diverged += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::ids::NodeId;
    use scope_optimizer::{compile_job, PhysNode, PhysPlan, RuleConfig};
    use scope_workload::{Workload, WorkloadProfile};

    fn a_compiled_job() -> CompiledPlan {
        let w = Workload::generate(WorkloadProfile::workload_a(0.02));
        let job = &w.day(0)[0];
        compile_job(job, &RuleConfig::default_config()).expect("default compiles")
    }

    /// Rebuild a plan node-by-node through a mutator (PhysPlan has no
    /// in-place mutation — by design).
    fn rebuild(plan: &PhysPlan, mut mutate: impl FnMut(NodeId, PhysNode) -> PhysNode) -> PhysPlan {
        let mut out = PhysPlan::new();
        for (id, node) in plan.iter() {
            out.add(mutate(id, node.clone()));
        }
        if let Some(root) = plan.root() {
            out.set_root(root);
        }
        out
    }

    #[test]
    fn identical_plans_pass_vetting() {
        let c = a_compiled_job();
        let clone = CompiledPlan {
            plan: rebuild(&c.plan, |_, n| n),
            est_cost: c.est_cost,
            est_cost_vec: c.est_cost_vec,
            signature: c.signature,
            memo_groups: c.memo_groups,
            memo_exprs: c.memo_exprs,
            stats: c.stats,
            footprint: c.footprint,
        };
        assert_eq!(vet_candidate(&c, &clone), Ok(()));
    }

    #[test]
    fn corrupted_estimate_is_rejected_as_invalid() {
        let c = a_compiled_job();
        let mut first = true;
        let broken = rebuild(&c.plan, |_, mut n| {
            if first {
                n.est_rows = f64::NAN;
                first = false;
            }
            n
        });
        let candidate = CompiledPlan {
            plan: broken,
            est_cost: c.est_cost,
            est_cost_vec: c.est_cost_vec,
            signature: c.signature,
            memo_groups: c.memo_groups,
            memo_exprs: c.memo_exprs,
            stats: c.stats,
            footprint: c.footprint,
        };
        let err = vet_candidate(&c, &candidate).unwrap_err();
        assert!(matches!(err, CandidateRejection::Invalid(_)));
        assert!(format!("{err}").contains("invalid plan"));
    }

    #[test]
    fn mutated_predicate_literal_is_rejected_as_diverged() {
        use scope_ir::Literal;
        let c = a_compiled_job();
        // Patch the first filter/scan predicate literal we find: the plan
        // stays structurally valid but computes a different result.
        let mut patched = false;
        let broken = rebuild(&c.plan, |_, mut n| {
            if !patched {
                let pred = match &mut n.op {
                    scope_optimizer::PhysOp::Filter { predicate } => Some(predicate),
                    scope_optimizer::PhysOp::Scan { pushed, .. } if !pushed.is_true() => {
                        Some(pushed)
                    }
                    _ => None,
                };
                if let Some(p) = pred {
                    if let Some(atom) = p.atoms.first_mut() {
                        atom.literal = Literal::Int(i64::MAX);
                        patched = true;
                    }
                }
            }
            n
        });
        assert!(patched, "expected a predicate somewhere in the plan");
        let candidate = CompiledPlan {
            plan: broken,
            est_cost: c.est_cost,
            est_cost_vec: c.est_cost_vec,
            signature: c.signature,
            memo_groups: c.memo_groups,
            memo_exprs: c.memo_exprs,
            stats: c.stats,
            footprint: c.footprint,
        };
        let err = vet_candidate(&c, &candidate).unwrap_err();
        assert!(matches!(err, CandidateRejection::Diverged { .. }));
    }

    #[test]
    fn filter_stats_merge_and_total() {
        let mut a = CandidateFilterStats::default();
        a.note_compile_error(&CompileError::Panicked {
            message: "boom".into(),
        });
        a.note_compile_error(&CompileError::NoExchangeImplementation); // outside the totals
        let mut b = CandidateFilterStats {
            over_budget: 2,
            diverged: 1,
            ..CandidateFilterStats::default()
        };
        b.merge(&a);
        assert_eq!(b.panicked, 1);
        assert_eq!(b.over_budget, 2);
        assert_eq!(b.no_exchange, 1);
        assert_eq!(b.total(), 4);
    }
}
