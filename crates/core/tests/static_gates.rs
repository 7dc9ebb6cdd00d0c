//! The two static gates against ground-truth compiles on a sampled day:
//! discovery retires a candidate unseen when `scope-lint` classifies it
//! `Invalid` or when its `cost_lo` floor rules it out, so both answers must
//! be sound for what the optimizer really does. On Workload A day 0, over
//! span-sampled candidates plus the default configuration of each sampled
//! job, every configuration is classified, bounded and compiled:
//!
//! 1. no `Invalid` verdict compiles;
//! 2. every compile costs at least `cost_lo` of its effective enabled set;
//! 3. the estimator's point estimates stay inside their intervals.
//!
//! Disabling every `OutputImpl` must be `Invalid` and fail to compile on
//! every sampled job: every legal plan has an `Output` root, and no rewrite
//! removes it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_ir::{Job, OpKind};
use scope_lint::{audit_estimates, catalog_invalid, ConfigVerdict, JobLint, PlanBounds, RuleGraph};
use scope_optimizer::{compile_job, effective_config, RuleConfig};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::{approximate_span, candidate_configs};

/// Jobs sampled from the day, and candidates drawn per job.
const JOBS: usize = 16;
const CANDIDATES: usize = 50;

fn sampled_jobs() -> Vec<Job> {
    let mut jobs = Workload::generate(WorkloadProfile::workload_a(0.06)).day(0);
    jobs.truncate(JOBS);
    jobs
}

#[test]
fn static_verdicts_and_cost_floors_hold_against_compiles() {
    let mut rng = StdRng::seed_from_u64(0x11f7);
    let (mut invalid, mut compiled) = (0, 0);
    for job in &sampled_jobs() {
        let obs = job.catalog.observe();
        assert_eq!(
            audit_estimates(&job.plan, &obs),
            Vec::new(),
            "job {}",
            job.id.0
        );
        let lint = JobLint::new(&job.plan);
        let bounds = PlanBounds::analyze(&job.plan, &obs);
        let mut configs =
            candidate_configs(&approximate_span(&job.plan, &obs), CANDIDATES, &mut rng);
        configs.push(RuleConfig::default_config());
        for config in &configs {
            let effective = effective_config(job, config);
            let verdict = lint.classify(&effective);
            let result = compile_job(job, config);
            if let ConfigVerdict::Invalid { violations } = &verdict {
                invalid += 1;
                assert!(
                    result.is_err(),
                    "job {}: a statically invalid configuration compiled: {violations:?}",
                    job.id.0
                );
            }
            let Ok(plan) = result else {
                continue;
            };
            compiled += 1;
            let lo = bounds.cost_lo(effective.enabled());
            assert!(
                lo <= plan.est_cost,
                "job {}: cost_lo {lo} exceeds the compiled cost {}",
                job.id.0,
                plan.est_cost
            );
        }
    }
    // Both branches were exercised, or the day proves nothing.
    assert!(invalid > 0, "no sampled candidate was statically invalid");
    assert!(compiled > 0, "no sampled candidate compiled");
}

#[test]
fn disabling_every_output_impl_is_invalid_and_never_compiles() {
    let mut probe = RuleConfig::default_config();
    for id in RuleGraph::global().impls(OpKind::Output).iter() {
        probe.disable(id);
    }
    assert!(!catalog_invalid(&probe).is_empty());
    for job in &sampled_jobs() {
        assert!(
            matches!(
                JobLint::new(&job.plan).classify(&effective_config(job, &probe)),
                ConfigVerdict::Invalid { .. }
            ),
            "job {}",
            job.id.0
        );
        assert!(compile_job(job, &probe).is_err(), "job {}", job.id.0);
    }
}
