//! Property tests for the guardrail stack: over generated workloads and
//! *random* rule configurations, a guarded compile must always end in a
//! valid plan or a typed `CompileError` — never a panic, never an invariant
//! violation, and never a plan that computes a different result than the
//! default plan for the same job.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_ir::validate_logical;
use scope_optimizer::{
    compile_job, compile_job_guarded, validate_physical, CompileBudget, CompileError, RuleCatalog,
    RuleConfig,
};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::guard::vet_candidate;

/// A uniformly random configuration: each non-required rule's state is
/// flipped with probability ~1/8. This roams far outside the span-guided
/// configurations the discovery pipeline would propose — exactly the kind
/// of input a buggy steering client could feed the compiler.
fn random_config(rng: &mut StdRng) -> RuleConfig {
    let mut config = RuleConfig::default_config();
    for id in RuleCatalog::global().non_required().iter() {
        if rng.gen_range(0u8..8) == 0 {
            if config.is_enabled(id) {
                config.disable(id);
            } else {
                config.enable(id);
            }
        }
    }
    config
}

fn small_workload() -> Workload {
    Workload::generate(WorkloadProfile::workload_a(0.02))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarded compilation of an arbitrary configuration either produces a
    /// plan that passes the physical validator *and* the differential
    /// fingerprint check, or a typed non-panic error.
    #[test]
    fn random_configs_never_panic_and_winners_pass_vetting(seed in any::<u64>()) {
        let w = small_workload();
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = w.day(0);
        let job = &jobs[rng.gen_range(0..jobs.len())];
        let default = compile_job(job, &RuleConfig::default_config()).unwrap();
        let config = random_config(&mut rng);
        match compile_job_guarded(job, &config, &CompileBudget::default()) {
            Ok(c) => {
                prop_assert!(validate_physical(&c.plan).is_empty(),
                    "steered plan violates physical invariants");
                prop_assert!(vet_candidate(&default, &c).is_ok(),
                    "steered plan failed vetting against the default");
            }
            Err(e) => {
                prop_assert!(!matches!(e, CompileError::Panicked { .. }),
                    "compile panicked: {e}");
            }
        }
    }

    /// The task budget is deterministic: recompiling with a budget equal to
    /// the observed task count succeeds with the identical plan, and any
    /// smaller budget fails with a typed `BudgetExhausted` — never a panic,
    /// never a truncated plan.
    #[test]
    fn task_budget_is_a_deterministic_cliff(seed in any::<u64>()) {
        let w = small_workload();
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = w.day(0);
        let job = &jobs[rng.gen_range(0..jobs.len())];
        let config = random_config(&mut rng);
        let Ok(full) = compile_job_guarded(job, &config, &CompileBudget::UNLIMITED) else {
            return Ok(()); // config legitimately infeasible for this job
        };
        let exact = CompileBudget::with_max_tasks(full.stats.tasks);
        let again = compile_job_guarded(job, &config, &exact).unwrap();
        prop_assert_eq!(again.est_cost, full.est_cost);
        prop_assert_eq!(again.stats.tasks, full.stats.tasks);
        if full.stats.tasks > 0 {
            let short = CompileBudget::with_max_tasks(full.stats.tasks - 1);
            match compile_job_guarded(job, &config, &short) {
                Err(CompileError::BudgetExhausted { .. }) => {}
                other => prop_assert!(false, "expected BudgetExhausted, got {:?}", other.map(|c| c.est_cost)),
            }
        }
    }

    /// Every plan the workload generator emits satisfies the logical
    /// invariants — the validator's baseline is clean, so anything it
    /// reports during steering is a real defect.
    #[test]
    fn generated_job_plans_are_logically_valid(seed in any::<u64>()) {
        let w = small_workload();
        let day = (seed % 3) as u32;
        for job in &w.day(day) {
            let obs = job.catalog.observe();
            let violations = validate_logical(&job.plan, &obs);
            prop_assert!(violations.is_empty(), "job {:?}: {:?}", job.id, violations);
        }
    }
}
