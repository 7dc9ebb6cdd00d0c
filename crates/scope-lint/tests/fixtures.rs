//! Fixture tests for the `NoImplementation` verdict against the real
//! 256-rule global catalog — no compiles anywhere.

use scope_ir::OpKind;
use scope_lint::{catalog_invalid, ConfigVerdict, JobLint, LintViolation, RuleGraph};
use scope_optimizer::RuleConfig;
use scope_workload::{Workload, WorkloadProfile};

fn a_job_lint() -> JobLint {
    let w = Workload::generate(WorkloadProfile::workload_a(0.02));
    JobLint::new(&w.day(0)[0].plan)
}

#[test]
fn no_implementation_fires_when_every_output_impl_is_disabled() {
    let mut config = RuleConfig::default_config();
    for id in RuleGraph::global().impls(OpKind::Output).iter() {
        config.disable(id);
    }
    let ConfigVerdict::Invalid { violations } = a_job_lint().classify(&config) else {
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
    assert!(matches!(
        catalog_invalid(&config)[..],
        [LintViolation::NoImplementation {
            kind: OpKind::Output,
            ..
        }]
    ));
}

#[test]
fn the_default_config_classifies_valid() {
    let config = RuleConfig::default_config();
    assert_eq!(a_job_lint().classify(&config), ConfigVerdict::Valid);
    assert!(catalog_invalid(&config).is_empty());
}

#[test]
fn all_exchange_impls_disabled_is_not_invalid() {
    // Exchange need is a cost-model outcome the analyzer does not predict
    // (single-machine plans never repartition), so it is never certain.
    let mut config = RuleConfig::default_config();
    for &id in scope_optimizer::RuleCatalog::global().exchange_impls() {
        config.disable(id);
    }
    assert_eq!(a_job_lint().classify(&config), ConfigVerdict::Valid);
}
