//! Learned configuration choice (§7) end to end for one job group:
//! discover candidate configurations, execute them on every group job over
//! two weeks, train the per-group neural model, and evaluate it on the
//! held-out test split.
//!
//! Run: `cargo run --release --example learned_steering`

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_steer::exec::ABTester;
use scope_steer::ir::Job;
use scope_steer::steer::{group_of, Pipeline, PipelineParams};
use scope_steer::workload::{Workload, WorkloadProfile};
use steer_learn::{build_group_dataset, evaluate, train_group, TrainParams};

fn main() {
    let workload = Workload::generate(WorkloadProfile::workload_b(1.0));
    let ab = ABTester::new(2021);

    // Two weeks of jobs, grouped by default rule signature; keep the
    // largest group of non-trivial jobs.
    let days: Vec<Vec<Job>> = (0..14).map(|d| workload.day(d)).collect();
    let mut groups: HashMap<String, Vec<&Job>> = HashMap::new();
    for job in days.iter().flatten() {
        if let Some(g) = group_of(job) {
            if job.total_input_bytes() > 1_000_000_000 {
                groups.entry(g.to_bit_string()).or_default().push(job);
            }
        }
    }
    let mut ranked: Vec<(&String, &Vec<&Job>)> = groups.iter().collect();
    // Total order (size desc, then key) so HashMap iteration order does not
    // leak into the choice of group.
    ranked.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(b.0)));

    // Candidate configurations from one base job (three fastest of the ten
    // cheapest executed alternatives).
    let pipeline = Pipeline::new(
        ab.clone(),
        PipelineParams {
            m_candidates: 300,
            sample_frac: 1.0,
            min_runtime_s: 0.0,
            max_runtime_s: f64::INFINITY,
            ..PipelineParams::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(3);
    // Not every base job is selected by the §6.1 heuristics; walk the
    // groups from largest to smallest until one yields an outcome.
    let (jobs, outcome) = ranked
        .iter()
        .filter(|(_, v)| v.len() >= 25)
        .find_map(|(_, group_jobs)| {
            group_jobs.iter().take(6).find_map(|base| {
                let (compiled, metrics) = pipeline.default_run(base)?;
                pipeline
                    .analyze_job(base, &compiled, metrics, &mut rng)
                    .map(|o| (*group_jobs, o))
            })
        })
        .expect("a steerable job group exists");
    println!("job group: {} jobs over two weeks", jobs.len());
    let mut executed = outcome.executed;
    executed.sort_by(|a, b| a.metrics.runtime.partial_cmp(&b.metrics.runtime).unwrap());
    let alt_configs: Vec<_> = executed.into_iter().take(3).map(|c| c.config).collect();
    println!(
        "K = {} configurations (default + {})",
        alt_configs.len() + 1,
        alt_configs.len()
    );

    // Dataset: every configuration executed on every group job.
    let ds = build_group_dataset(jobs, &alt_configs, &ab);
    println!(
        "dataset: {} samples × {} features, {} runtime columns ({} jobs skipped on compile failures)",
        ds.len(),
        ds.feature_dim,
        ds.k(),
        ds.skipped
    );

    // Train the §7.3 model (small hidden layer keeps the example snappy).
    let params = TrainParams {
        hidden: 64,
        ..TrainParams::default()
    };
    let (chooser, split) = train_group(&ds, &params, &mut rng);
    println!(
        "trained: lr {}, validation BCE {:.4} ({} train / {} val / {} test samples)",
        chooser.lr,
        chooser.val_loss,
        split.train.len(),
        split.val.len(),
        split.test.len()
    );

    // Evaluate on the held-out test split (Table 5 statistics).
    let eval = evaluate(&ds, &chooser, &split);
    println!("\n              Best    Default  Learned");
    println!(
        "mean runtime  {:>7.0} {:>8.0} {:>8.0}",
        eval.best.mean, eval.default.mean, eval.learned.mean
    );
    println!(
        "90P runtime   {:>7.0} {:>8.0} {:>8.0}",
        eval.best.p90, eval.default.p90, eval.learned.p90
    );
    println!(
        "99P runtime   {:>7.0} {:>8.0} {:>8.0}",
        eval.best.p99, eval.default.p99, eval.learned.p99
    );
    let improved = eval
        .per_query
        .iter()
        .filter(|q| q.change_s() < -1.0)
        .count();
    let default_picked = eval.per_query.iter().filter(|q| q.chosen == 0).count();
    println!(
        "\nper-query: {improved} improved, {default_picked} kept the default, of {} test queries",
        eval.per_query.len()
    );
}
