//! **Deployment lifecycle** (§3.3 + §6.4): discover winning configurations
//! on day 0, minimize them into reviewable plan hints, hand them to the
//! flight controller, and track a week of serving plus re-validation —
//! including the paper's mitigation of drift ("re-running our pipeline
//! every week") by rolling back any hint whose group keeps regressing.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_deployment -- [--scale=0.3]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{ABTester, RetryPolicy};
use scope_steer_bench::harness::{minimize_winners, pipeline, workload, AB_SEED};
use scope_steer_bench::reporting::{banner, markdown_table, scale_arg, write_csv};
use scope_workload::WorkloadTag;
use steer_core::{winning_configs, FlightConfig, FlightController};

fn main() {
    let scale = scale_arg();
    banner(
        "Deployment",
        "plan-hint lifecycle: discover → minimize → flight → revalidate (Workload A)",
    );
    let w = workload(WorkloadTag::A, scale);
    let ab = ABTester::new(AB_SEED);
    let p = pipeline(scale);
    let mut rng = StdRng::seed_from_u64(0xDE9107);

    // Day 0: discovery.
    let day0 = w.day(0);
    let report = p.discover(&day0, &mut rng);
    let winners = winning_configs(&report.outcomes, 10.0);
    println!(
        "day 0: pipeline selected {} jobs, {} winning configurations (≥10% better)",
        report.outcomes.len(),
        winners.len()
    );

    // Minimize each winner into a reviewable hint.
    let min = minimize_winners(&day0, &winners);
    let (minimized, before, after) = (min.winners, min.deltas_before, min.deltas_after);
    println!(
        "minimization: {} hints, total deltas {} → {} rules ({}x smaller)",
        minimized.len(),
        before,
        after,
        if after > 0 { before / after.max(1) } else { 0 }
    );

    // Roll the hints out and run a week through the one lifecycle: each
    // day's traffic is served steered, a background sweep re-checks every
    // deployed hint against the default plan on a sample of its group's
    // jobs (§6.4's periodic re-validation: the budget covers the whole
    // fleet), and the N-strike / CUSUM monitors roll back regressors.
    let mut flights = FlightController::new(FlightConfig {
        revalidation_budget: minimized.len().max(1),
        ..FlightConfig::default()
    });
    flights.ingest_deployed(&minimized, 0);
    let policy = RetryPolicy::default();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for day in 1..7 {
        let jobs = w.day(day);
        let served = flights.serve_day(&jobs, &ab, &policy, day);
        let checked = flights.revalidate_background(&jobs, &ab, day);
        let rolled_back = flights.advance(day).rollbacks.len();
        rows.push(vec![
            day.to_string(),
            served.steered.to_string(),
            checked.observed.len().to_string(),
            checked.jobs_executed.to_string(),
            format!("{:+.1}%", checked.mean_change_pct),
            rolled_back.to_string(),
        ]);
        csv.push(format!(
            "{day},{},{},{},{:.2},{rolled_back}",
            served.steered,
            checked.observed.len(),
            checked.jobs_executed,
            checked.mean_change_pct
        ));
    }
    println!(
        "{}",
        markdown_table(
            &[
                "day",
                "jobs steered",
                "groups checked",
                "jobs executed",
                "mean change",
                "rolled back"
            ],
            &rows
        )
    );
    let store = &flights.store;
    let active = store
        .hints()
        .filter(|h| h.status == steer_core::HintStatus::Active)
        .count();
    println!(
        "after one week: {} of {} hints still active; hint file below",
        active,
        store.len()
    );
    println!("{}", store.to_hint_text());
    let path = write_csv(
        "deployment_week.csv",
        "day,steered_jobs,groups_checked,jobs_executed,mean_change_pct,rolled_back",
        &csv,
    );
    println!("wrote {}", path.display());
}
