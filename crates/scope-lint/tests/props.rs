//! Property tests over random rule configurations and real workload jobs:
//!
//! 1. **Soundness** — a statically-`Invalid` config never compiles.
//! 2. **No false alarms at runtime** — a config that compiles cleanly is
//!    never statically `Invalid`, and its plan passes the physical
//!    validator (no statically-vetted config trips a runtime
//!    `PlanViolation`).

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_ir::Job;
use scope_lint::{ConfigVerdict, JobLint};
use scope_optimizer::{compile_job, validate_physical, RuleConfig, RuleId, RuleSet, NUM_RULES};
use scope_workload::{Workload, WorkloadProfile};

fn jobs() -> &'static Vec<Job> {
    static JOBS: OnceLock<Vec<Job>> = OnceLock::new();
    JOBS.get_or_init(|| {
        let w = Workload::generate(WorkloadProfile::workload_a(0.02));
        w.day(0)
    })
}

/// A random config: every non-required rule kept with probability `keep`
/// (required rules are clamped by construction, mirroring the samplers).
fn random_config(seed: u64, keep: f64) -> RuleConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut enabled = RuleSet::EMPTY;
    for id in 0..NUM_RULES as u16 {
        if rng.gen_bool(keep) {
            enabled.insert(RuleId(id));
        }
    }
    RuleConfig::normalized(enabled).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invalid_verdicts_never_compile(seed in any::<u64>(), keep in 0.2f64..0.95, job_pick in any::<u64>()) {
        let jobs = jobs();
        let job = &jobs[job_pick as usize % jobs.len()];
        let config = random_config(seed, keep);
        let verdict = JobLint::new(&job.plan).classify(&config);
        let compiled = compile_job(job, &config);
        if let ConfigVerdict::Invalid { violations } = &verdict {
            prop_assert!(!violations.is_empty());
            prop_assert!(
                compiled.is_err(),
                "statically-Invalid config compiled: {violations:?}"
            );
        }
        // The dual: whatever compiles was not statically Invalid, and its
        // plan passes the full physical validator.
        if let Ok(c) = &compiled {
            prop_assert!(!matches!(verdict, ConfigVerdict::Invalid { .. }));
            prop_assert!(validate_physical(&c.plan).is_empty());
        }
    }
}
