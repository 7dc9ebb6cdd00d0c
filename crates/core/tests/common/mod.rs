//! One small seeded discovery day and the bit-exact rendering of its
//! report, shared by the test files that compare runs for identity.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::ABTester;
use scope_workload::{Workload, WorkloadProfile};
use steer_core::{DiscoveryReport, Pipeline, PipelineParams};

pub fn params() -> PipelineParams {
    PipelineParams {
        m_candidates: 120,
        execute_top_k: 5,
        sample_frac: 1.0,
        ..PipelineParams::default()
    }
}

pub fn run(n_threads: usize, seed: u64) -> DiscoveryReport {
    let w = Workload::generate(WorkloadProfile::workload_a(0.06));
    let jobs = w.day(0);
    let p = Pipeline::new(
        ABTester::new(11),
        PipelineParams {
            n_threads,
            ..params()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    p.discover(&jobs, &mut rng)
}

/// Everything result-bearing in a report, rendered bit-exactly. The metrics
/// snapshot is deliberately excluded: it is the only field allowed to vary
/// across worker counts and tracer states.
pub fn result_fingerprint(r: &DiscoveryReport) -> String {
    format!(
        "{:?}|{}|{}|{}|{}|{}|{:?}",
        r.outcomes,
        r.not_selected,
        r.out_of_window,
        r.failed_defaults,
        r.failed_candidates,
        r.duplicate_plans,
        r.vetting,
    )
}
