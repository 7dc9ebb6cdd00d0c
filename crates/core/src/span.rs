//! Job span approximation — Algorithm 1 of the paper.
//!
//! The *span* of a job is the set of non-required rules that can affect its
//! final plan (Definition 5.1). Algorithm 1 approximates it by repeatedly
//! compiling the job, disabling every (non-required) rule that appeared in
//! the signature, and recompiling to surface the alternative rules the
//! optimizer falls back to — until no new rules appear or the job stops
//! compiling.
//!
//! Most of those recompiles fail (§4's implicit rule dependencies), and
//! the failing ones are near-full rule sets with the largest memos. A probe
//! `scope-lint` classifies `Invalid` is certain to fail with
//! `NoImplementation`, so it is answered "did not compile" without calling
//! the compile step; everything else is compiled.

use std::collections::HashMap;

use scope_ir::{ObservableCatalog, PlanGraph};
use scope_lint::{ConfigVerdict, JobLint};
use scope_optimizer::{
    catch_compile_panics, compile, RuleCatalog, RuleConfig, RuleSet, RuleSignature,
};

/// Result of the span approximation.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpan {
    /// Non-required rules observed to impact the final plan.
    pub rules: RuleSet,
    /// Configurations Algorithm 1 asked for, repeats included — an upper
    /// bound on the compiles performed.
    pub iterations: usize,
    /// Whether iteration stopped because compilation failed (implicit rule
    /// dependencies — §4 challenge (1)).
    pub hit_compile_failure: bool,
}

impl JobSpan {
    /// Span rules belonging to a given catalog category.
    pub fn in_category(&self, category: scope_optimizer::RuleCategory) -> RuleSet {
        let cat = RuleCatalog::global();
        self.rules
            .iter()
            .filter(|id| cat.rule(*id).category == category)
            .collect()
    }

    /// Number of rules in the span.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Maximum Algorithm-1 iterations (the loop converges much earlier in
/// practice; this is a safety bound).
pub(crate) const MAX_SPAN_ITERATIONS: usize = 64;

/// Approximate the span of a job (Algorithm 1).
///
/// Starts from the configuration enabling **all** non-required rules
/// (including off-by-default ones, per the algorithm's `config ←
/// {1..220}`), then iteratively disables every rule that contributed to
/// the plan.
/// One refinement over the paper's listing: when disabling the last batch
/// of on-rules makes the job stop compiling (e.g. every exchange
/// implementation is gone), that batch is re-enabled and *pinned* — kept
/// enabled but excluded from further disabling — and iteration continues.
/// Without this, Algorithm 1 terminates after two iterations on any
/// distributed job and misses all alternative implementations. The paper's
/// production system necessarily handles this implicitly.
pub fn approximate_span(plan: &PlanGraph, obs: &ObservableCatalog) -> JobSpan {
    let lint = JobLint::new(plan);
    approximate_span_with(&lint, |config| probe_signature(plan, obs, config))
}

/// The compile step Algorithm 1 probes with: the signature of `plan`
/// compiled under `config`, `None` when it does not compile or its compile
/// panics.
pub(crate) fn probe_signature(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
) -> Option<RuleSignature> {
    catch_compile_panics(|| compile(plan, obs, config))
        .ok()
        .map(|c| c.signature)
}

/// [`approximate_span`] over a caller-supplied compile step. The algorithm
/// needs only the signature of a successful compile (`None` = did not
/// compile, a panic included).
///
/// A configuration the job's `lint` classifies `Invalid` is answered
/// `None` without calling `try_compile`: its compile could only end in
/// `NoImplementation`, and every failure reads as `None`, so the
/// [`JobSpan`] is the one [`ungated_span`] returns.
pub(crate) fn approximate_span_with(
    lint: &JobLint,
    mut try_compile: impl FnMut(&RuleConfig) -> Option<RuleSignature>,
) -> JobSpan {
    ungated_span(|config| {
        if matches!(lint.classify(config), ConfigVerdict::Invalid { .. }) {
            None
        } else {
            try_compile(config)
        }
    })
}

/// Algorithm 1 with every probe handed to `try_compile`: the reference the
/// lint gate is held to, and the span the pipeline's ungated reference
/// derives.
///
/// Algorithm 1 asks for the same configuration more than once whenever the
/// pinning recovery fires: the recovery trial that compiles is the next
/// loop iteration's configuration verbatim, and phase 2's full re-enable is
/// the configuration of the iteration before the failure. One call probes
/// one plan under one model and budget, so a repeat is the same evaluation;
/// it is answered from the probes this call has already made (failures
/// included) and still counts as an iteration, so `try_compile` sees each
/// enabled set at most once and the [`JobSpan`] is what re-asking returns.
pub(crate) fn ungated_span(
    mut try_compile: impl FnMut(&RuleConfig) -> Option<RuleSignature>,
) -> JobSpan {
    let mut probed: HashMap<RuleSet, Option<RuleSignature>> = HashMap::new();
    let mut probe = |enabled: RuleSet| {
        *probed
            .entry(enabled)
            .or_insert_with(|| try_compile(&RuleConfig::from_enabled(enabled)))
    };
    let cat = RuleCatalog::global();
    let non_required = cat.non_required();
    let mut enabled = non_required;
    let mut pinned = RuleSet::EMPTY;
    let mut last_disabled = RuleSet::EMPTY;
    let mut span = RuleSet::EMPTY;
    let mut iterations = 0;
    let mut hit_compile_failure = false;

    while iterations < MAX_SPAN_ITERATIONS {
        iterations += 1;
        match probe(enabled) {
            Some(signature) => {
                // GET_ON_RULES: signature rules still disableable (required
                // rules keep firing forever; pinned rules proved
                // load-bearing).
                let on_rules = signature.0.intersection(&enabled).difference(&pinned);
                if on_rules.is_empty() {
                    break;
                }
                span = span.union(&on_rules);
                enabled = enabled.difference(&on_rules);
                last_disabled = on_rules;
            }
            None => {
                hit_compile_failure = true;
                if last_disabled.is_empty() {
                    break;
                }
                // Recovery, phase 1: test each rule of the batch alone —
                // if re-enabling a single rule fixes compilation, pin just
                // that rule and leave the rest disabled so their
                // alternatives keep surfacing.
                let mut recovered = false;
                for id in last_disabled.iter() {
                    iterations += 1;
                    let mut trial = enabled;
                    trial.insert(id);
                    if probe(trial).is_some() {
                        enabled.insert(id);
                        pinned.insert(id);
                        recovered = true;
                        break;
                    }
                    if iterations >= MAX_SPAN_ITERATIONS {
                        break;
                    }
                }
                // Phase 2 (several culprits): accumulate re-enables until
                // the job compiles again.
                if !recovered {
                    for id in last_disabled.iter() {
                        enabled.insert(id);
                        pinned.insert(id);
                        iterations += 1;
                        if probe(enabled).is_some() {
                            recovered = true;
                            break;
                        }
                        if iterations >= MAX_SPAN_ITERATIONS {
                            break;
                        }
                    }
                }
                last_disabled = RuleSet::EMPTY;
                if !recovered {
                    break;
                }
            }
        }
    }

    JobSpan {
        rules: span,
        iterations,
        hit_compile_failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
    use scope_ir::TrueCatalog;
    use scope_optimizer::RuleCategory;

    fn job() -> (PlanGraph, ObservableCatalog) {
        let mut cat = TrueCatalog::new();
        let k0 = cat.add_column(50_000, 0.0, DomainId(0));
        let a = cat.add_column(200, 0.0, DomainId(1));
        let k1 = cat.add_column(50_000, 0.0, DomainId(0));
        let b = cat.add_column(1_000, 0.0, DomainId(2));
        cat.add_table(2_000_000, 120, 11, vec![k0, a]);
        cat.add_table(800_000, 80, 22, vec![k1, b]);

        let mut g = PlanGraph::new();
        let s0 = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = g.add_unchecked(
            LogicalOp::Select {
                predicate: Predicate::atom(PredAtom::unknown(a, CmpOp::Eq, Literal::Int(7))),
            },
            vec![s0],
        );
        let s1 = g.add_unchecked(LogicalOp::Get { table: TableId(1) }, vec![]);
        let j = g.add_unchecked(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(k0, k1)],
            },
            vec![f, s1],
        );
        let agg = g.add_unchecked(
            LogicalOp::GroupBy {
                keys: vec![b],
                aggs: vec![AggFunc::Count],
                partial: false,
            },
            vec![j],
        );
        let o = g.add_unchecked(LogicalOp::Output { stream: 99 }, vec![agg]);
        g.set_root(o);
        (g, cat.observe())
    }

    #[test]
    fn span_contains_default_signature_configurables() {
        let (plan, obs) = job();
        let span = approximate_span(&plan, &obs);
        // Everything configurable in the *full-config* signature must be in
        // the span (first iteration adds exactly those).
        let full = RuleConfig::from_enabled(RuleCatalog::global().non_required());
        let compiled = compile(&plan, &obs, &full).unwrap();
        let configurable = compiled
            .signature
            .0
            .difference(RuleCatalog::global().required());
        assert!(configurable.difference(&span.rules).is_empty());
        assert!(span.len() >= configurable.len());
    }

    #[test]
    fn span_discovers_alternative_implementations() {
        let (plan, obs) = job();
        let span = approximate_span(&plan, &obs);
        let impls = span.in_category(RuleCategory::Implementation);
        // At least two join implementations must surface (the default one
        // plus fallbacks discovered by disabling it).
        let cat = RuleCatalog::global();
        let join_impls = impls
            .iter()
            .filter(|id| cat.rule(*id).name.contains("Join"))
            .count();
        assert!(join_impls >= 2, "found {join_impls} join impls in span");
    }

    #[test]
    fn span_excludes_required_rules() {
        let (plan, obs) = job();
        let span = approximate_span(&plan, &obs);
        assert!(span
            .rules
            .intersection(RuleCatalog::global().required())
            .is_empty());
    }

    #[test]
    fn span_iterates_until_exhaustion_or_failure() {
        let (plan, obs) = job();
        let span = approximate_span(&plan, &obs);
        assert!(span.iterations >= 2);
        assert!(span.iterations <= MAX_SPAN_ITERATIONS);
        // Disabling every impl eventually fails compilation, so spans of
        // real jobs typically end on a compile failure.
        assert!(span.hit_compile_failure || span.iterations < MAX_SPAN_ITERATIONS);
    }

    #[test]
    fn span_is_deterministic() {
        let (plan, obs) = job();
        assert_eq!(approximate_span(&plan, &obs), approximate_span(&plan, &obs));
    }

    /// The span over a compile step that refuses to be asked the same
    /// enabled set twice — and, given a `lint`, a set it classifies
    /// `Invalid` — with the number of sets it was asked.
    fn span_probing_each_set_once(
        plan: &PlanGraph,
        obs: &ObservableCatalog,
        lint: Option<&JobLint>,
    ) -> (JobSpan, usize) {
        let mut asked = std::collections::HashSet::new();
        let probe = |config: &RuleConfig| {
            assert!(
                asked.insert(*config.enabled()),
                "enabled set reached the compile step twice"
            );
            if let Some(lint) = lint {
                assert!(
                    !matches!(lint.classify(config), ConfigVerdict::Invalid { .. }),
                    "a statically invalid configuration reached the compile step"
                );
            }
            compile(plan, obs, config).ok().map(|c| c.signature)
        };
        let span = match lint {
            Some(lint) => approximate_span_with(lint, probe),
            None => ungated_span(probe),
        };
        (span, asked.len())
    }

    #[test]
    fn a_span_run_compiles_each_configuration_once() {
        use scope_workload::{Workload, WorkloadProfile};

        let (plan, obs) = job();
        let (span, _) = span_probing_each_set_once(&plan, &obs, None);
        assert_eq!(span, approximate_span(&plan, &obs));

        // A generated day, where the pinning recovery fires on most jobs:
        // every repeat it causes is an iteration without a compile.
        let (mut iterations, mut compiles) = (0, 0);
        for job in &Workload::generate(WorkloadProfile::workload_a(0.06)).day(0) {
            let obs = job.catalog.observe();
            let (span, asked) = span_probing_each_set_once(&job.plan, &obs, None);
            assert_eq!(span, approximate_span(&job.plan, &obs), "job {}", job.id.0);
            iterations += span.iterations;
            compiles += asked;
        }
        assert!(
            iterations > compiles,
            "no repeated probe in {iterations} iterations: the day does not exercise the probe map"
        );
    }

    #[test]
    fn a_linted_span_equals_the_unlinted_span_with_fewer_compiles() {
        use scope_workload::{Workload, WorkloadProfile, WorkloadTag};

        for (tag, scale) in [
            (WorkloadTag::A, 0.03),
            (WorkloadTag::B, 0.2),
            (WorkloadTag::C, 0.08),
        ] {
            let (mut linted_compiles, mut unlinted_compiles) = (0, 0);
            for job in &Workload::generate(WorkloadProfile::for_tag(tag, scale)).day(0) {
                let obs = job.catalog.observe();
                let lint = JobLint::new(&job.plan);
                let (linted, linted_asked) =
                    span_probing_each_set_once(&job.plan, &obs, Some(&lint));
                let (unlinted, unlinted_asked) = span_probing_each_set_once(&job.plan, &obs, None);
                assert_eq!(linted, unlinted, "{tag:?} job {}", job.id.0);
                linted_compiles += linted_asked;
                unlinted_compiles += unlinted_asked;
            }
            assert!(
                linted_compiles < unlinted_compiles,
                "{tag:?}: lint retired no span probe ({linted_compiles} compiles of {unlinted_compiles})"
            );
        }
    }

    /// The span answers an `Invalid` probe without compiling it, so the
    /// verdict must never cover a configuration that compiles. The route
    /// no generated day exercises: a kind with every implementation and
    /// `Becomes` escape disabled, whose operator a `Child` escape removes
    /// (a `TRUE` filter, an identity projection).
    #[test]
    fn a_child_escape_keeps_a_compiling_configuration_out_of_invalid() {
        use scope_ir::OpKind;
        use scope_lint::RuleGraph;

        let mut cat = TrueCatalog::new();
        let k = cat.add_column(50_000, 0.0, DomainId(0));
        let a = cat.add_column(200, 0.0, DomainId(1));
        cat.add_table(2_000_000, 120, 11, vec![k, a]);
        let obs = cat.observe();
        let graph = RuleGraph::global();
        for (op, kind) in [
            (
                LogicalOp::Select {
                    predicate: Predicate::true_pred(),
                },
                OpKind::Filter,
            ),
            (
                LogicalOp::Project {
                    cols: vec![k, a],
                    computed: 0,
                },
                OpKind::Project,
            ),
        ] {
            let mut plan = PlanGraph::new();
            let scan = plan.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
            let node = plan.add_unchecked(op, vec![scan]);
            let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![node]);
            plan.set_root(out);
            let mut disabled = *graph.impls(kind);
            for &(id, anchor, _) in graph.becomes_edges() {
                if anchor == kind {
                    disabled.insert(id);
                }
            }
            let config = RuleConfig::from_enabled(
                RuleCatalog::global().non_required().difference(&disabled),
            );
            assert!(
                compile(&plan, &obs, &config).is_ok(),
                "{kind:?}: the child escape no longer compiles the plan"
            );
            assert!(
                !matches!(
                    JobLint::new(&plan).classify(&config),
                    ConfigVerdict::Invalid { .. }
                ),
                "{kind:?}: the lint calls a compiling configuration Invalid"
            );
        }
    }

    #[test]
    fn span_is_small_relative_to_catalog() {
        let (plan, obs) = job();
        let span = approximate_span(&plan, &obs);
        // §5.2: "on average only up to 20 rules among the 219 non-required
        // rules"; a single join-agg job should stay well under 60.
        assert!(span.len() < 60, "span unexpectedly large: {}", span.len());
    }
}
