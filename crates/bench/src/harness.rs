//! Shared experiment plumbing: compiled-and-executed days and the default
//! experiment-scale pipeline parameters.

use scope_exec::{ABTester, RetryPolicy, RunMetrics};
use scope_ir::Job;
use scope_optimizer::{compile_job, CompileBudget, CompiledPlan, RuleConfig};
use scope_workload::{Workload, WorkloadProfile, WorkloadTag};
use steer_core::par::run_chunked;
use steer_core::{
    FlightConfig, FlightController, FlightDayReport, GroupConfig, Pipeline, PipelineParams,
};

/// A job together with its default compilation and A/B execution.
pub struct CompiledJob {
    pub job: Job,
    pub compiled: CompiledPlan,
    pub metrics: RunMetrics,
}

/// The seed used by every experiment's A/B harness.
pub const AB_SEED: u64 = 2021;

/// Generate a workload for a tag at the given scale.
pub fn workload(tag: WorkloadTag, scale: f64) -> Workload {
    Workload::generate(WorkloadProfile::for_tag(tag, scale))
}

/// Compile and execute one day under the default configuration, in
/// parallel across available cores. Jobs in a chunk whose worker panics
/// are logged and skipped rather than aborting the experiment.
pub fn compile_day(w: &Workload, day: u32, ab: &ABTester) -> Vec<CompiledJob> {
    let jobs = w.day(day);
    let default = RuleConfig::default_config();
    run_chunked(
        &jobs,
        |job| {
            let compiled = compile_job(job, &default).ok()?;
            let metrics = ab.run(job, &compiled.plan, 0);
            Some(CompiledJob {
                job: job.clone(),
                compiled,
                metrics,
            })
        },
        |job| format!("job {}", job.id.0),
    )
}

/// Pipeline parameters scaled for experiment runs: candidate counts shrink
/// with the workload scale so quick runs stay quick, while `--scale=1.0`
/// uses the paper's M = 1000.
pub fn pipeline_params(scale: f64) -> PipelineParams {
    let m = ((1000.0 * scale.max(0.05)).round() as usize).clamp(100, 1000);
    PipelineParams {
        m_candidates: m,
        execute_top_k: 10,
        sample_frac: 0.5,
        ..PipelineParams::default()
    }
}

/// The standard pipeline for experiments.
pub fn pipeline(scale: f64) -> Pipeline {
    Pipeline::new(ABTester::new(AB_SEED), pipeline_params(scale))
}

/// Run the full discovery pipeline (§5–§6) over day 0 of a workload.
/// Deterministic for a given (tag, scale).
pub fn run_discovery(tag: WorkloadTag, scale: f64) -> steer_core::DiscoveryReport {
    use rand::SeedableRng;
    let w = workload(tag, scale);
    let jobs = w.day(0);
    let p = pipeline(scale);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED ^ tag as u64);
    p.discover(&jobs, &mut rng)
}

/// Day 1 of a sweep: serve `jobs` with every hint canarying at 100 %
/// exposure, so each steered job is paired with a shadow baseline run on
/// its default plan (and each fallback with its re-run). Returns the day's
/// report and the mean runtime change over all those pairs — steered vs
/// default on the same cluster, wasted attempts billed.
pub fn serve_measured_day(
    hints: &[GroupConfig],
    compile_budget: CompileBudget,
    jobs: &[Job],
    ab: &ABTester,
    policy: &RetryPolicy,
) -> (FlightDayReport, f64) {
    let mut flights = FlightController::new(FlightConfig {
        canary_pct: 100,
        compile_budget,
        ..FlightConfig::default()
    });
    flights.ingest(hints, 0);
    flights.advance(0);
    let report = flights.serve_day(jobs, ab, policy, 1);
    let (pairs, weighted) = report.by_group.values().fold((0, 0.0), |(n, sum), g| {
        (n + g.observed, sum + g.mean_change_pct * g.observed as f64)
    });
    let delta_pct = if pairs > 0 {
        weighted / pairs as f64
    } else {
        0.0
    };
    (report, delta_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_day_is_deterministic_and_parallel_safe() {
        let w = workload(WorkloadTag::B, 0.2);
        let ab = ABTester::new(AB_SEED);
        let a = compile_day(&w, 0, &ab);
        let b = compile_day(&w, 0, &ab);
        assert_eq!(a.len(), b.len());
        let sum_a: f64 = a.iter().map(|c| c.metrics.runtime).sum();
        let sum_b: f64 = b.iter().map(|c| c.metrics.runtime).sum();
        assert!((sum_a - sum_b).abs() < 1e-9);
    }

    #[test]
    fn params_scale_with_workload_scale() {
        assert_eq!(pipeline_params(1.0).m_candidates, 1000);
        assert_eq!(pipeline_params(0.1).m_candidates, 100);
    }
}
