//! **Compile-budget sweep**: steering quality vs the per-candidate compile
//! budget. For each task budget we run the full lifecycle — discovery with
//! guarded, budgeted candidate recompiles on day 0, hint minimization +
//! ingestion, then a day of production traffic through the flight
//! controller's guardrail at 100 % measured exposure (with the same budget
//! on its steered compiles) — and compare each steered job's wall-clock
//! against a shadow baseline on its default plan. Small budgets starve
//! the candidate search (everything is discarded as over-budget, nothing is
//! discovered); large ones recover the unlimited-budget steering wins while
//! still bounding the cost of any individual rogue compile.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_budget_sweep -- [--scale=0.3]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{ABTester, RetryPolicy};
use scope_optimizer::CompileBudget;
use scope_steer_bench::harness::{
    minimize_winners, pipeline_params, serve_measured_day, workload, AB_SEED,
};
use scope_steer_bench::reporting::{banner, markdown_table, scale_arg, write_csv};
use scope_workload::WorkloadTag;
use steer_core::{winning_configs, Pipeline, PipelineParams};

/// Per-candidate task budgets to sweep, `None` = unlimited control. The low
/// end rejects every recompile; the knee sits where typical explore +
/// implement task counts fit.
const BUDGETS: [Option<u64>; 6] = [
    Some(300),
    Some(1_000),
    Some(3_000),
    Some(10_000),
    Some(30_000),
    None,
];

struct SweepRow {
    budget: Option<u64>,
    selected: usize,
    over_budget: usize,
    filtered: usize,
    winners: usize,
    steered: usize,
    vetoed: usize,
    delta_pct: f64,
}

fn budget_label(b: Option<u64>) -> String {
    match b {
        Some(n) => n.to_string(),
        None => "unlimited".into(),
    }
}

fn main() {
    let scale = scale_arg();
    banner(
        "BudgetSweep",
        "steering quality vs per-candidate compile budget (Workload A, guardrail deployment)",
    );
    let policy = RetryPolicy::default();
    let ab = ABTester::new(AB_SEED);
    let w = workload(WorkloadTag::A, scale);
    let mut rows = Vec::new();

    for budget_tasks in BUDGETS {
        let budget = match budget_tasks {
            Some(n) => CompileBudget::with_max_tasks(n),
            None => CompileBudget::UNLIMITED,
        };
        let p = Pipeline::new(
            ab.clone(),
            PipelineParams {
                retry: policy.clone(),
                compile_budget: budget,
                ..pipeline_params(scale)
            },
        );

        // Day 0: discovery with budgeted, guarded candidate recompiles.
        // Over-budget candidates are discarded and counted, never executed.
        let day0 = w.day(0);
        let mut rng = StdRng::seed_from_u64(0xB0D6E7);
        let report = p.discover(&day0, &mut rng);
        let minimized = minimize_winners(&day0, &winning_configs(&report.outcomes, 10.0)).winners;
        // Day 1: production traffic through the flight controller's
        // guardrail (same budget on steered compiles), every steered job
        // against a shadow baseline.
        let (day1, delta_pct) = serve_measured_day(&minimized, budget, &w.day(1), &ab, &policy);
        let (steered, vetoed) = (day1.steered, day1.vetoes);
        println!(
            "budget {}: {} selected, {} over-budget / {} filtered trials, {} hints, day-1 steered {} / vetoed {} (Δ {:+.1}%)",
            budget_label(budget_tasks),
            report.outcomes.len(),
            report.vetting.over_budget,
            report.vetting.total(),
            minimized.len(),
            steered,
            vetoed,
            delta_pct
        );
        rows.push(SweepRow {
            budget: budget_tasks,
            selected: report.outcomes.len(),
            over_budget: report.vetting.over_budget,
            filtered: report.vetting.total(),
            winners: minimized.len(),
            steered,
            vetoed,
            delta_pct,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                budget_label(r.budget),
                r.selected.to_string(),
                r.over_budget.to_string(),
                r.filtered.to_string(),
                r.winners.to_string(),
                r.steered.to_string(),
                r.vetoed.to_string(),
                format!("{:+.1}%", r.delta_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "task budget",
                "jobs selected",
                "over-budget trials",
                "filtered trials",
                "hints",
                "steered",
                "vetoed",
                "Δ steered vs default"
            ],
            &table
        )
    );
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{},{},{},{:.3}",
                r.budget.map(|b| b as i64).unwrap_or(-1),
                r.selected,
                r.over_budget,
                r.filtered,
                r.winners,
                r.steered,
                r.vetoed,
                r.delta_pct
            )
        })
        .collect();
    let path = write_csv(
        "budget_sweep.csv",
        "task_budget,jobs_selected,over_budget_trials,filtered_trials,hints,steered_jobs,vetoed_hints,delta_steered_pct",
        &csv,
    );
    println!("wrote {}", path.display());
}
