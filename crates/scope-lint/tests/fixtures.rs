//! Fixture tests: one per [`LintViolation`] variant, plus the dead-rule and
//! swap-cycle catalogs the issue calls for. Everything here runs against
//! the real 256-rule global catalog — no compiles anywhere.

use scope_ir::ids::TableId;
use scope_ir::{LogicalOp, OpKind, PlanGraph, Predicate, TrueCatalog};
use scope_lint::{catalog_invalid, ingest_bits, ConfigVerdict, JobLint, LintViolation, RuleGraph};
use scope_optimizer::{RuleCatalog, RuleConfig, RuleSet};
use scope_workload::{Workload, WorkloadProfile};

fn a_job_plan() -> PlanGraph {
    let w = Workload::generate(WorkloadProfile::workload_a(0.02));
    w.day(0)[0].plan.clone()
}

/// A minimal normalized-shape plan with no `Project` anywhere: scan → out.
fn project_free_plan() -> PlanGraph {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(100, 0.0, scope_ir::ids::DomainId(0));
    cat.add_table(10_000, 100, 1, vec![c]);
    let mut plan = PlanGraph::new();
    let scan = plan.add_unchecked(
        LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        },
        vec![],
    );
    let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![scan]);
    plan.set_root(out);
    plan
}

#[test]
fn no_implementation_fires_when_every_output_impl_is_disabled() {
    let mut config = RuleConfig::default_config();
    for id in RuleGraph::global().impls(OpKind::Output).iter() {
        config.disable(id);
    }
    let lint = JobLint::new(&a_job_plan());
    let ConfigVerdict::Invalid { violations } = lint.classify(&config) else {
        panic!("disabling every Output impl must be certainly invalid");
    };
    assert!(violations.iter().any(|v| matches!(
        v,
        LintViolation::NoImplementation {
            kind: OpKind::Output,
            ..
        }
    )));
    // Plan-independently broken too: no job anywhere can compile it.
    let catalog_level = catalog_invalid(&config);
    assert_eq!(catalog_level.len(), 1);
    assert_eq!(catalog_level[0].code(), "no-implementation");
}

#[test]
fn required_rule_cleared_fires_on_raw_bit_ingestion() {
    let cat = RuleCatalog::global();
    let (config, violation) = ingest_bits(RuleSet::EMPTY);
    let Some(LintViolation::RequiredRuleCleared { rules }) = violation else {
        panic!("clearing every bit must report the required correction");
    };
    assert_eq!(rules, *cat.required());
    assert_eq!(*config.enabled(), *cat.required());
    // Already-normalized bits ingest silently.
    let (_, violation) = ingest_bits(*RuleConfig::default_config().enabled());
    assert!(violation.is_none());
}

#[test]
fn all_exchange_impls_disabled_is_warned_not_fatal() {
    let graph = RuleGraph::global();
    let mut config = RuleConfig::default_config();
    for id in graph.exchange_impls().iter() {
        config.disable(id);
    }
    let lint = JobLint::new(&a_job_plan());
    let warnings = lint.warnings(&config);
    assert!(warnings
        .iter()
        .any(|v| matches!(v, LintViolation::AllExchangeImplsDisabled)));
    // Not a certain failure: single-machine plans never need an exchange.
    assert!(!lint
        .certain_failures(&config)
        .iter()
        .any(|v| matches!(v, LintViolation::AllExchangeImplsDisabled)));
}

#[test]
fn dead_rules_fire_on_a_project_free_plan_with_producers_disabled() {
    let cat = RuleCatalog::global();
    let graph = RuleGraph::global();
    let plan = project_free_plan();
    let lint = JobLint::new(&plan);
    assert_eq!(lint.kind_counts()[OpKind::Project as usize], 0);
    assert!(lint.is_reachable(OpKind::Project), "producers can add them");

    // Disable every Project producer (the PruneBelow family): now the
    // enabled Project impls/transforms can never fire on this plan.
    let mut config = RuleConfig::default_config();
    for id in graph.project_producers().iter() {
        config.disable(id);
    }
    // `Dead` ranks below `Redundant` in the lattice, so query the dead set
    // directly (this tiny plan makes most of the catalog non-live).
    let dead = lint.dead_rules(&config);
    assert!(!dead.is_empty(), "Project-anchored rules should be dead");
    for id in dead.iter() {
        assert!(!cat.required().contains(id));
        let anchored_on_project = graph.impls(OpKind::Project).contains(id)
            || graph.transforms(OpKind::Project).contains(id);
        assert!(anchored_on_project, "only Project rules can be dead here");
    }
    let violation = LintViolation::DeadRules { rules: dead };
    assert_eq!(violation.code(), "dead-rules");
    // Projected onto the live set the config is no longer `Redundant`, so
    // the `Dead` arm of the lattice is what `classify` returns.
    let canonical = RuleConfig::from_enabled(lint.canonical_bits(&config));
    assert_eq!(
        lint.classify(&canonical),
        ConfigVerdict::Dead { rules: dead }
    );

    // With producers enabled (default config) nothing is dead.
    assert!(lint.dead_rules(&RuleConfig::default_config()).is_empty());
}

#[test]
fn unreachable_impls_are_reported_per_absent_kind() {
    let cat = RuleCatalog::global();
    let graph = RuleGraph::global();
    let plan = project_free_plan();
    let lint = JobLint::new(&plan);
    let config = RuleConfig::default_config();
    let dead_impls = graph.statically_dead_impls(cat, &config, lint.kind_counts());
    // The plan is RangeGet → Output only: every enabled impl of the other
    // kinds (Join, Sort, GroupBy, ...) is unreachable.
    assert!(!dead_impls.is_empty());
    for v in &dead_impls {
        let LintViolation::UnreachableImpl { rule, kind } = v else {
            panic!("statically_dead_impls only emits UnreachableImpl");
        };
        assert_eq!(v.code(), "unreachable-impl");
        assert!(lint.kind_counts()[*kind as usize] == 0);
        assert!(graph.impls(*kind).contains(*rule));
        assert!(config.is_enabled(*rule));
    }
    // Never for kinds the plan contains.
    assert!(!dead_impls
        .iter()
        .any(|v| matches!(v, LintViolation::UnreachableImpl { kind, .. }
            if lint.kind_counts()[*kind as usize] > 0)));
}

#[test]
fn swap_cycle_without_normalizer_fires_when_collapses_are_disabled() {
    let cat = RuleCatalog::global();
    let graph = RuleGraph::global();
    // The default config terminates every swap cycle via a collapse rule.
    let default = RuleConfig::default_config();
    assert!(graph.swap_cycles(cat, &default).is_empty());

    // Disable every collapse/merge normalizer: the Sort↔Window (and
    // friends) commutation cycles now only terminate via memo dedup.
    let mut config = default.clone();
    for name in [
        "CollapseSelects",
        "MergeProjects",
        "CollapseSorts",
        "CollapseTops",
        "CollapseWindows",
    ] {
        config.disable(cat.find(name).expect("collapse rule exists"));
    }
    let cycles = graph.swap_cycles(cat, &config);
    assert!(!cycles.is_empty(), "expected an unterminated swap cycle");
    for v in &cycles {
        let LintViolation::SwapCycleWithoutNormalizer { kinds, rules } = v else {
            panic!("swap_cycles only emits SwapCycleWithoutNormalizer");
        };
        assert_eq!(v.code(), "swap-cycle-without-normalizer");
        assert!(!kinds.is_empty());
        assert!(!rules.is_empty());
        for rule in rules {
            assert!(config.is_enabled(*rule));
            assert!(matches!(
                cat.rule(*rule).action,
                scope_optimizer::RuleAction::SwapUnary { .. }
            ));
        }
    }
    // Re-enabling one in-cycle collapse rule dissolves that cycle's report.
    let mut softened = config.clone();
    softened.enable(cat.find("CollapseSorts").unwrap());
    assert!(graph.swap_cycles(cat, &softened).len() <= cycles.len());
}

#[test]
fn the_global_catalog_has_full_canonicalizer_coverage() {
    let cat = RuleCatalog::global();
    let graph = RuleGraph::global();
    assert!(graph.required_coverage(cat).is_empty());
    // The variant itself renders with a stable code (the catalog builder
    // is `pub(crate)`, so a doctored catalog cannot be built from here —
    // coverage of the emitting loop comes from the assertion above).
    let v = LintViolation::MissingCanonicalizer { kind: OpKind::Join };
    assert_eq!(v.code(), "missing-canonicalizer");
    assert!(format!("{v}").contains("Join"));
}

#[test]
fn verdict_precedence_is_invalid_over_redundant_over_dead() {
    let lint = JobLint::new(&a_job_plan());
    // Invalid beats Redundant: a config that is both non-canonical and
    // missing the Output impl classifies Invalid.
    let mut config = RuleConfig::default_config();
    for id in RuleGraph::global().impls(OpKind::Output).iter() {
        config.disable(id);
    }
    assert!(matches!(
        lint.classify(&config),
        ConfigVerdict::Invalid { .. }
    ));
    // The default config on a real job: canonical projection strips the
    // non-live rules, so it classifies Redundant (never Invalid).
    let verdict = lint.classify(&RuleConfig::default_config());
    assert!(matches!(
        verdict,
        ConfigVerdict::Redundant { .. } | ConfigVerdict::Valid
    ));
}

#[test]
fn canonical_config_classifies_valid_or_dead() {
    // Projecting any config onto the live set must be a fixpoint: the
    // canonical config itself is never Redundant again.
    let lint = JobLint::new(&a_job_plan());
    let canonical = lint.canonical_bits(&RuleConfig::default_config());
    let (config, _) = RuleConfig::normalized(canonical);
    match lint.classify(&config) {
        ConfigVerdict::Redundant { .. } => panic!("canonical must be a fixpoint"),
        ConfigVerdict::Invalid { violations } => {
            panic!("default projection cannot be invalid: {violations:?}")
        }
        ConfigVerdict::Valid | ConfigVerdict::Dead { .. } => {}
    }
}
