//! A bit-exact pin on the execution simulator. Every runtime the steering
//! loop acts on is a `RunMetrics` from `scope-exec`; this test folds the
//! metrics, outcome and retry counts of every A/B harness entry point —
//! noisy, noiseless, ground truth, heavy faults, timeouts, vertex failures
//! under retry-with-backoff, planted slowdowns — over a fixed sample of
//! compiled jobs into one FNV-1a digest. A change to the work model, the
//! scheduler, the noise or the fault rolls moves it.

use scope_exec::{
    plan_fingerprint, ABTester, FaultProfile, FaultedRun, JobOutcome, RetryPolicy, RunMetrics,
};
use scope_optimizer::{compile_job, RuleConfig};
use scope_workload::{Workload, WorkloadProfile};

const JOBS: usize = 16;
const TRIALS: u32 = 3;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn metrics(&mut self, m: &RunMetrics) {
        for v in [m.runtime, m.cpu_time, m.io_time, m.memory] {
            self.u64(v.to_bits());
        }
    }

    fn run(&mut self, r: &FaultedRun) {
        self.metrics(&r.metrics);
        match &r.outcome {
            JobOutcome::Success => self.u64(0),
            JobOutcome::SuccessWithRetries { retries } => {
                self.u64(1);
                self.u64(u64::from(*retries));
            }
            JobOutcome::Failed { reason } => {
                self.u64(2);
                reason.bytes().for_each(|b| self.u64(u64::from(b)));
            }
            JobOutcome::TimedOut => self.u64(3),
        }
        self.u64(u64::from(r.retries));
        self.u64(u64::from(r.speculative_copies));
    }
}

#[test]
fn simulator_runs_are_pinned_bit_for_bit() {
    let workload = Workload::generate(WorkloadProfile::workload_a(0.06));
    let default = RuleConfig::default_config();
    let sample: Vec<_> = workload
        .day(0)
        .into_iter()
        .filter_map(|job| compile_job(&job, &default).ok().map(|c| (job, c.plan)))
        .take(JOBS)
        .collect();
    assert_eq!(sample.len(), JOBS);

    // Every other plan carries a planted 1.3x regression.
    let planted: Vec<(u64, f64)> = sample
        .iter()
        .step_by(2)
        .map(|(_, plan)| (plan_fingerprint(plan), 1.3))
        .collect();
    let noisy = ABTester::new(7);
    let noiseless = ABTester::noiseless(7);
    let heavy = ABTester::new(7).with_faults(FaultProfile::heavy());
    let flaky = ABTester::new(7).with_faults(FaultProfile::with_vertex_failures(5e-3));
    let slowed = ABTester::new(7).with_faults(FaultProfile::with_slowdown_plans(planted));
    let retry = RetryPolicy::default();

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut outcomes = [0usize; 4];
    for (job, plan) in &sample {
        let truth = noiseless.run_true(&job.catalog, plan);
        h.metrics(&truth);
        // A deadline at the noise-free runtime: noise and faults push
        // roughly half the runs past it.
        let timed = ABTester::new(7).with_faults(FaultProfile::heavy().with_timeout(truth.runtime));
        for trial in 0..TRIALS {
            h.metrics(&noisy.run(job, plan, trial));
            h.metrics(&noiseless.run(job, plan, trial));
            for run in [
                heavy.run_outcome(job, plan, trial),
                timed.run_outcome(job, plan, trial),
                flaky.run_with_retry(job, plan, trial, &retry),
                slowed.run_outcome(job, plan, trial),
            ] {
                outcomes[match run.outcome {
                    JobOutcome::Success => 0,
                    JobOutcome::SuccessWithRetries { .. } => 1,
                    JobOutcome::Failed { .. } => 2,
                    JobOutcome::TimedOut => 3,
                }] += 1;
                h.run(&run);
            }
        }
    }
    // The sample reaches every outcome, so each path is under the pin.
    assert!(outcomes.iter().all(|&n| n > 0), "outcomes {outcomes:?}");
    assert_eq!(h.0, 0x56b4_2654_dec9_b183, "got {:#018x}", h.0);
}
