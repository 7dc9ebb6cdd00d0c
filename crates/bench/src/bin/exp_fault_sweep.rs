//! **Fault sweep**: how steering quality degrades as the cluster gets
//! less reliable. For each vertex-failure rate we run the full lifecycle —
//! discovery under faults on day 0, hint minimization + ingestion, then a
//! day of production traffic through the flight controller's guardrail at
//! 100 % measured exposure — and compare each steered job's wall-clock
//! against a shadow baseline on the same faulty cluster. The guardrail's
//! fallback-to-default keeps a steered job from ever losing more than the
//! wasted attempt (§3.3's "safe to deploy" story, stress-tested); a job
//! whose fallback dies too is counted as lost.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_fault_sweep -- [--scale=0.3]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{ABTester, FaultProfile, RetryPolicy};
use scope_optimizer::CompileBudget;
use scope_steer_bench::harness::{
    minimize_winners, pipeline_params, serve_measured_day, workload, AB_SEED,
};
use scope_steer_bench::reporting::{banner, markdown_table, scale_arg, write_csv};
use scope_workload::WorkloadTag;
use steer_core::{winning_configs, Pipeline, PipelineParams};

/// Vertex-level transient failure probabilities to sweep. 0 is the
/// fault-free control; the top end is an unhealthy cluster where most
/// wide stages lose at least one vertex.
const RATES: [f64; 6] = [0.0, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2];

struct SweepRow {
    rate: f64,
    selected: usize,
    failed_defaults: usize,
    failed_candidates: usize,
    winners: usize,
    steered: usize,
    fallbacks: usize,
    lost: usize,
    delta_pct: f64,
}

fn main() {
    let scale = scale_arg();
    banner(
        "FaultSweep",
        "steering quality vs cluster fault rate (Workload A, guardrail deployment)",
    );
    let policy = RetryPolicy::default();
    let mut rows = Vec::new();

    for rate in RATES {
        let profile = FaultProfile::with_vertex_failures(rate);
        let ab = ABTester::new(AB_SEED).with_faults(profile);
        let p = Pipeline::new(
            ab.clone(),
            PipelineParams {
                retry: policy.clone(),
                ..pipeline_params(scale)
            },
        );
        let w = workload(WorkloadTag::A, scale);

        // Day 0: discovery on the faulty cluster. Failed trials are
        // discarded by the pipeline, never promoted to hints.
        let day0 = w.day(0);
        let mut rng = StdRng::seed_from_u64(0xFA017);
        let report = p.discover(&day0, &mut rng);
        let minimized = minimize_winners(&day0, &winning_configs(&report.outcomes, 10.0)).winners;
        // Day 1: production traffic through the flight controller's
        // guardrail, every steered job against a shadow baseline on the
        // same faulty cluster.
        let (day1, delta_pct) = serve_measured_day(
            &minimized,
            CompileBudget::default(),
            &w.day(1),
            &ab,
            &policy,
        );
        let (steered, fallbacks, lost) = (day1.steered, day1.fallbacks, day1.lost);
        println!(
            "rate {rate:.0e}: {} selected, {} winners, day-1 steered {} / fallback {} / lost {} (Δ {:+.1}%)",
            report.outcomes.len(),
            minimized.len(),
            steered,
            fallbacks,
            lost,
            delta_pct
        );
        rows.push(SweepRow {
            rate,
            selected: report.outcomes.len(),
            failed_defaults: report.failed_defaults,
            failed_candidates: report.failed_candidates,
            winners: minimized.len(),
            steered,
            fallbacks,
            lost,
            delta_pct,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0e}", r.rate),
                r.selected.to_string(),
                r.failed_defaults.to_string(),
                r.failed_candidates.to_string(),
                r.winners.to_string(),
                r.steered.to_string(),
                r.fallbacks.to_string(),
                r.lost.to_string(),
                format!("{:+.1}%", r.delta_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "vertex p_fail",
                "jobs selected",
                "failed defaults",
                "failed trials",
                "hints",
                "steered",
                "fallbacks",
                "lost jobs",
                "Δ steered vs default"
            ],
            &table
        )
    );
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{:.3}",
                r.rate,
                r.selected,
                r.failed_defaults,
                r.failed_candidates,
                r.winners,
                r.steered,
                r.fallbacks,
                r.lost,
                r.delta_pct
            )
        })
        .collect();
    let path = write_csv(
        "fault_sweep.csv",
        "vertex_failure_prob,jobs_selected,failed_defaults,failed_candidate_trials,hints,steered_jobs,fallback_jobs,lost_jobs,delta_steered_pct",
        &csv,
    );
    println!("wrote {}", path.display());
}
