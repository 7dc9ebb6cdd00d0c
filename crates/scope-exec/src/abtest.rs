//! The A/B testing harness (§3.1.3): re-execute production plans in a
//! pre-production environment with a fixed resource allocation (50 tokens)
//! and outputs redirected — here, a deterministic simulator with seeded
//! noise.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::SeedableRng;

use scope_ir::{Job, TrueCatalog};
use scope_optimizer::{PhysOp, PhysPlan};

use crate::cluster::ClusterConfig;
use crate::faults::{FaultProfile, FaultedRun, JobOutcome};
use crate::simulate::{execute_deterministic, run, RunMetrics};

/// Stable fingerprint of a physical plan's structure (used to seed
/// per-plan noise so that re-running the same plan in the same trial is
/// reproducible).
pub fn plan_fingerprint(plan: &PhysPlan) -> u64 {
    let mut h = DefaultHasher::new();
    for id in plan.reachable() {
        let node = plan.node(id);
        node.op.name().hash(&mut h);
        node.dop.hash(&mut h);
        for c in &node.children {
            c.index().hash(&mut h);
        }
        if let PhysOp::Exchange { dop, .. } = &node.op {
            dop.hash(&mut h);
        }
    }
    h.finish()
}

/// How the A/B harness retries failed or timed-out trials.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Wait before the first re-attempt (seconds); doubles per attempt.
    /// The wait is billed to the reported wall-clock runtime. A per-attempt
    /// deadline is the fault profile's [`FaultProfile::timeout_s`].
    pub backoff_base_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 30.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one bare attempt).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_s: 0.0,
        }
    }
}

/// The pre-production A/B runner.
#[derive(Clone, Debug)]
pub struct ABTester {
    pub cluster: ClusterConfig,
    /// Base seed; combined with job, plan, and trial for noise.
    pub seed: u64,
    /// Faults injected into every run ([`FaultProfile::none`] injects
    /// none: runs carry only the cluster's noise).
    pub faults: FaultProfile,
}

impl ABTester {
    /// The paper's setup: 50 tokens for every job.
    pub fn new(seed: u64) -> ABTester {
        ABTester {
            cluster: ClusterConfig::ab_testing(),
            seed,
            faults: FaultProfile::none(),
        }
    }

    /// Noise-free runner for invariance tests.
    pub fn noiseless(seed: u64) -> ABTester {
        ABTester {
            cluster: ClusterConfig::noiseless(),
            seed,
            faults: FaultProfile::none(),
        }
    }

    /// Same harness with faults injected into every run.
    pub fn with_faults(mut self, faults: FaultProfile) -> ABTester {
        self.faults = faults;
        self
    }

    /// The per-run RNG: seeded from (base seed, job tag, plan fingerprint,
    /// trial). The attempt index participates only for re-attempts, so
    /// attempt 0 reproduces the historical single-attempt stream exactly.
    fn rng_for(&self, tag: u64, fingerprint: u64, trial: u32, attempt: u32) -> StdRng {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        tag.hash(&mut h);
        fingerprint.hash(&mut h);
        trial.hash(&mut h);
        if attempt > 0 {
            attempt.hash(&mut h);
        }
        StdRng::seed_from_u64(h.finish())
    }

    fn attempt(
        &self,
        tag: u64,
        cat: &TrueCatalog,
        plan: &PhysPlan,
        trial: u32,
        attempt: u32,
    ) -> FaultedRun {
        let fp = plan_fingerprint(plan);
        let mut rng = self.rng_for(tag, fp, trial, attempt);
        run(plan, cat, &self.cluster, &self.faults, fp, &mut rng)
    }

    /// Re-execute `plan` for `job` (trial index distinguishes repeated
    /// runs of the same plan).
    pub fn run(&self, job: &Job, plan: &PhysPlan, trial: u32) -> RunMetrics {
        self.run_outcome(job, plan, trial).metrics
    }

    /// Like [`Self::run`], but also reports how the run ended. Callers
    /// that rank configurations should discard non-successful runs.
    pub fn run_outcome(&self, job: &Job, plan: &PhysPlan, trial: u32) -> FaultedRun {
        self.attempt(job.id.0, &job.catalog, plan, trial, 0)
    }

    /// Re-execute with retry-with-backoff scheduling: failed or timed-out
    /// attempts are re-submitted (each with a fresh fault roll) up to the
    /// policy's budget, and backoff waits are billed to the reported
    /// runtime. Returns the first successful attempt, or the last failing
    /// one when the budget runs out.
    pub fn run_with_retry(
        &self,
        job: &Job,
        plan: &PhysPlan,
        trial: u32,
        policy: &RetryPolicy,
    ) -> FaultedRun {
        let attempts = policy.max_attempts.max(1);
        // Wall time already burnt by earlier failed attempts and backoffs.
        let mut elapsed_before = 0.0;
        let mut last = None;
        for attempt in 0..attempts {
            let mut run = self.attempt(job.id.0, &job.catalog, plan, trial, attempt);
            let attempt_runtime = run.metrics.runtime;
            run.metrics.runtime += elapsed_before;
            if run.outcome.is_success() {
                if attempt > 0 {
                    let retries = run.outcome.retries() + attempt;
                    run.outcome = JobOutcome::SuccessWithRetries { retries };
                    run.retries += attempt;
                }
                return run;
            }
            elapsed_before += attempt_runtime
                + policy.backoff_base_s.max(0.0) * f64::powi(2.0, attempt.min(6) as i32);
            last = Some(run);
        }
        last.expect("max_attempts >= 1 always produces a run")
    }

    /// The noise-free ground truth for a plan.
    pub fn run_true(&self, cat: &TrueCatalog, plan: &PhysPlan) -> RunMetrics {
        execute_deterministic(plan, cat, &self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::Predicate;
    use scope_ir::ids::{DomainId, JobId, TableId};
    use scope_optimizer::{Partitioning, PhysNode};

    /// A scan → output plan and the job (id 1) whose catalog it runs on.
    fn tiny_plan() -> (PhysPlan, Job) {
        let mut cat = TrueCatalog::new();
        let c = cat.add_column(100, 0.0, DomainId(0));
        cat.add_table(1_000_000, 100, 1, vec![c]);
        let mut p = PhysPlan::new();
        let scan = p.add(PhysNode {
            op: PhysOp::Scan {
                table: TableId(0),
                pushed: Predicate::true_pred(),
                parallel: true,
                indexed: false,
            },
            children: vec![],
            est_rows: 0.0,
            est_bytes: 0.0,
            est_cost: 0.0,
            est_cost_vec: Default::default(),
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        });
        let out = p.add(PhysNode {
            op: PhysOp::Output { stream: 0 },
            children: vec![scan],
            est_rows: 0.0,
            est_bytes: 0.0,
            est_cost: 0.0,
            est_cost_vec: Default::default(),
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        });
        p.set_root(out);
        let job = Job::new(JobId(1), scope_ir::PlanGraph::new(), cat, vec![], 0, 50);
        (p, job)
    }

    #[test]
    fn same_trial_same_metrics() {
        let (plan, job) = tiny_plan();
        let ab = ABTester::new(7);
        let a = ab.run(&job, &plan, 0);
        let b = ab.run(&job, &plan, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_trials_differ_under_noise() {
        let (plan, job) = tiny_plan();
        let ab = ABTester::new(7);
        let a = ab.run(&job, &plan, 0);
        let b = ab.run(&job, &plan, 1);
        assert_ne!(a.runtime, b.runtime);
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let (plan, _) = tiny_plan();
        let mut p2 = plan.clone();
        let extra = p2.add(PhysNode {
            op: PhysOp::Filter {
                predicate: Predicate::true_pred(),
            },
            children: vec![scope_ir::ids::NodeId(0)],
            est_rows: 0.0,
            est_bytes: 0.0,
            est_cost: 0.0,
            est_cost_vec: Default::default(),
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        });
        let _ = extra;
        let out2 = p2.add(PhysNode {
            op: PhysOp::Output { stream: 0 },
            children: vec![extra],
            est_rows: 0.0,
            est_bytes: 0.0,
            est_cost: 0.0,
            est_cost_vec: Default::default(),
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        });
        p2.set_root(out2);
        assert_ne!(plan_fingerprint(&plan), plan_fingerprint(&p2));
    }

    #[test]
    fn noiseless_runner_matches_ground_truth() {
        let (plan, job) = tiny_plan();
        let ab = ABTester::noiseless(7);
        let a = ab.run(&job, &plan, 0);
        let t = ab.run_true(&job.catalog, &plan);
        assert_eq!(a, t);
    }

    #[test]
    fn faultless_harness_is_bit_identical_to_noise_only() {
        let (plan, job) = tiny_plan();
        let plain = ABTester::new(7);
        let faulted = ABTester::new(7).with_faults(FaultProfile::none());
        for trial in 0..5 {
            assert_eq!(
                plain.run(&job, &plan, trial),
                faulted.run(&job, &plan, trial)
            );
        }
        let run = faulted.run_outcome(&job, &plan, 0);
        assert_eq!(run.outcome, JobOutcome::Success);
        assert_eq!(run.metrics, plain.run(&job, &plan, 0));
        assert_eq!(run.retries, 0);
    }

    #[test]
    fn faulted_outcomes_are_deterministic_per_seed() {
        let (plan, job) = tiny_plan();
        let ab = ABTester::new(7).with_faults(FaultProfile::heavy());
        for trial in 0..10 {
            let a = ab.run_outcome(&job, &plan, trial);
            let b = ab.run_outcome(&job, &plan, trial);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.retries, b.retries);
            assert!(a.metrics.is_valid());
        }
    }

    #[test]
    fn job_timeout_clamps_runtime_and_reports_timed_out() {
        let (plan, job) = tiny_plan();
        let base = ABTester::new(7).run(&job, &plan, 0);
        let cap = base.runtime / 2.0;
        let ab = ABTester::new(7).with_faults(FaultProfile::none().with_timeout(cap));
        let run = ab.run_outcome(&job, &plan, 0);
        assert_eq!(run.outcome, JobOutcome::TimedOut);
        assert!((run.metrics.runtime - cap).abs() < 1e-9);
        assert!(run.metrics.is_valid());
    }

    #[test]
    fn trial_timeout_in_policy_retries_then_gives_up() {
        let (plan, job) = tiny_plan();
        // Nothing finishes this fast.
        let ab = ABTester::new(7).with_faults(FaultProfile::none().with_timeout(1e-3));
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 10.0,
        };
        let run = ab.run_with_retry(&job, &plan, 0, &policy);
        assert_eq!(run.outcome, JobOutcome::TimedOut);
        // Two failed attempts (1e-3 each) plus their backoffs (10 + 20)
        // precede the final capped attempt.
        assert!((run.metrics.runtime - (30.0 + 3e-3)).abs() < 1e-6);
    }

    #[test]
    fn retries_rescue_flaky_runs() {
        let (plan, job) = tiny_plan();
        // A very flaky cluster with no in-run retry budget: individual
        // attempts often fail outright.
        let mut profile = FaultProfile::with_vertex_failures(0.5);
        profile.max_retries = 0;
        let ab = ABTester::new(7).with_faults(profile);
        let bare = RetryPolicy::no_retries();
        let patient = RetryPolicy {
            max_attempts: 5,
            backoff_base_s: 1.0,
        };
        let trials = 40;
        let bare_ok = (0..trials)
            .filter(|&t| {
                ab.run_with_retry(&job, &plan, t, &bare)
                    .outcome
                    .is_success()
            })
            .count();
        let patient_ok = (0..trials)
            .filter(|&t| {
                ab.run_with_retry(&job, &plan, t, &patient)
                    .outcome
                    .is_success()
            })
            .count();
        assert!(
            patient_ok > bare_ok,
            "retries must rescue some trials: {patient_ok} vs {bare_ok}"
        );
        // A rescued run reports the attempts it consumed.
        let rescued = (0..trials)
            .map(|t| ab.run_with_retry(&job, &plan, t, &patient))
            .find(|r| matches!(r.outcome, JobOutcome::SuccessWithRetries { .. }));
        if let Some(r) = rescued {
            assert!(r.outcome.retries() > 0);
        }
    }
}
