//! **Abstract-interpretation bounds**: soundness and payoff of the
//! `scope-lint::bounds` interval analysis over the plan IR. Three hard
//! checks and one payoff measurement:
//!
//! 1. **Interval soundness** — for every sampled job and candidate config
//!    that compiles, the whole-plan cost interval must bracket the
//!    compiled winner's estimated cost: `cost_lo(enabled) ≤ est_cost`,
//!    and `est_cost ≤ cost_hi(enabled)` whenever the upper bound is
//!    claimed. A single escape fails the run (exit 1).
//! 2. **Estimator audit** — replaying `Estimator::derive` bottom-up over
//!    every sampled plan must produce zero `EstimateOutOfBounds`
//!    violations; the memo search and the `classic` oracle consume the
//!    same derivation, so this covers both.
//! 3. **Discovery identity** — a full discovery run with the bounds gate
//!    on must reproduce the gate-off run bit-for-bit (static counters and
//!    per-job candidate tallies aside) while retiring a measurable
//!    fraction of candidate compiles statically.
//!
//! Payoff: the statically-retired candidate fraction beyond the PR 4 lint
//! gate.
//!
//! Emits `results/BENCH_bounds.json`.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_bounds -- [--scale=1.0]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::ABTester;
use scope_lint::{audit_estimates, PlanBounds};
use scope_optimizer::{compile_job, effective_config, RuleConfig};
use scope_steer_bench::harness::{pipeline_params, workload, AB_SEED};
use scope_steer_bench::reporting::{banner, json_object, scale_arg, write_json};
use scope_workload::WorkloadTag;
use steer_core::{
    approximate_span, candidate_configs, DiscoveryReport, JobOutcome, Pipeline, PipelineParams,
};

/// Everything result-bearing in a report with the static-analyzer counters
/// and per-job candidate tallies zeroed, so gate-on and gate-off runs can
/// be compared bit-exactly. The bounds gate legitimately changes only how
/// many candidates were *counted* (pruned ones never reach the pool), not
/// anything that is executed, selected, or costed.
fn bounds_insensitive_fingerprint(r: &DiscoveryReport) -> String {
    let vetting = r.vetting.dynamic_only();
    let outcomes: Vec<JobOutcome> = r
        .outcomes
        .iter()
        .map(|o| {
            let mut o = o.clone();
            o.vetting = o.vetting.dynamic_only();
            o.n_candidates = 0;
            o.n_duplicate_plans = 0;
            o
        })
        .collect();
    format!(
        "{:?}|{}|{}|{}|{}|{:?}",
        outcomes, r.not_selected, r.out_of_window, r.failed_defaults, r.failed_candidates, vetting,
    )
}

fn main() {
    let scale = scale_arg();
    banner(
        "Bounds",
        "abstract-interpretation cost intervals: soundness sweep, bounds-gated discovery (Workload A, day 0)",
    );
    let w = workload(WorkloadTag::A, scale);
    let jobs = w.day(0);
    let sampled: Vec<_> = jobs.iter().take(40).collect();
    let m = pipeline_params(scale).m_candidates.min(200);
    println!(
        "{} jobs in the day; soundness-sweeping {} jobs x up to {} candidates",
        jobs.len(),
        sampled.len(),
        m
    );

    // ── 1+2: interval soundness and the estimator audit ─────────────────
    let mut rng = StdRng::seed_from_u64(0xb04d);
    let mut compiles_checked = 0usize;
    let mut lo_escapes = 0usize;
    let mut hi_checked = 0usize;
    let mut hi_escapes = 0usize;
    let mut audit_violations = 0usize;
    for job in &sampled {
        let obs = job.catalog.observe();
        audit_violations += audit_estimates(&job.plan, &obs).len();
        let bounds = PlanBounds::analyze(&job.plan, &obs);
        let span = approximate_span(&job.plan, &obs);
        let mut configs = candidate_configs(&span, m, &mut rng);
        configs.push(RuleConfig::default_config());
        for config in &configs {
            let Ok(c) = compile_job(job, config) else {
                continue;
            };
            compiles_checked += 1;
            let ec = effective_config(job, config);
            let lo = bounds.cost_lo(ec.enabled());
            if lo > c.est_cost {
                eprintln!(
                    "SOUNDNESS ESCAPE: cost_lo {lo} > compiled cost {} (job {})",
                    c.est_cost, job.id.0
                );
                lo_escapes += 1;
            }
            if let Some(hi) = bounds.cost_hi(ec.enabled()) {
                hi_checked += 1;
                if c.est_cost > hi {
                    eprintln!(
                        "SOUNDNESS ESCAPE: compiled cost {} > cost_hi {hi} (job {})",
                        c.est_cost, job.id.0
                    );
                    hi_escapes += 1;
                }
            }
        }
    }
    println!(
        "soundness: {compiles_checked} compiled costs inside their lower bound ({lo_escapes} escapes); \
         {hi_checked} upper bounds claimed ({hi_escapes} escapes); estimator audit: {audit_violations} violations"
    );

    // ── 3: bounds-gated discovery vs the ungated baseline ───────────────
    let run = |bounds_gate: bool| {
        let p = Pipeline::new(
            ABTester::new(AB_SEED),
            PipelineParams {
                bounds_gate,
                ..pipeline_params(scale)
            },
        );
        let mut rng = StdRng::seed_from_u64(0xb04d);
        p.discover(&jobs, &mut rng)
    };
    let gated = run(true);
    let ungated = run(false);
    let identical =
        bounds_insensitive_fingerprint(&gated) == bounds_insensitive_fingerprint(&ungated);
    // Fraction of the ungated candidate pool the gate retired statically.
    let pool: usize = ungated.outcomes.iter().map(|o| o.n_candidates).sum();
    let bounds_pruned = gated.vetting.static_bounded;
    let pruned_frac = bounds_pruned as f64 / pool.max(1) as f64;
    println!(
        "discovery: gate on (bounds_pruned {bounds_pruned}, lint static_invalid {}), \
         gate off ({pool} candidates); retired {:.1}% beyond the lint gate; identical results: {identical}",
        gated.vetting.static_invalid,
        100.0 * pruned_frac,
    );

    let body = json_object(&[
        ("experiment", "\"bounds\"".into()),
        ("scale", format!("{scale}")),
        ("jobs_sampled", sampled.len().to_string()),
        ("compiles_checked", compiles_checked.to_string()),
        ("cost_lo_escapes", lo_escapes.to_string()),
        ("cost_hi_claimed", hi_checked.to_string()),
        ("cost_hi_escapes", hi_escapes.to_string()),
        ("estimator_audit_violations", audit_violations.to_string()),
        ("identical_discovery_results", identical.to_string()),
        ("candidate_pool", pool.to_string()),
        ("bounds_pruned", bounds_pruned.to_string()),
        ("bounds_pruned_frac", format!("{pruned_frac:.4}")),
        (
            "lint_static_invalid",
            gated.vetting.static_invalid.to_string(),
        ),
    ]);
    let path = write_json("BENCH_bounds.json", &body);
    println!("wrote {}", path.display());

    let mut failed = false;
    if lo_escapes > 0 || hi_escapes > 0 {
        eprintln!(
            "FAIL: {} compiled costs escaped their interval (bounds unsound)",
            lo_escapes + hi_escapes
        );
        failed = true;
    }
    if audit_violations > 0 {
        eprintln!("FAIL: {audit_violations} point estimates escaped their intervals");
        failed = true;
    }
    if !identical {
        eprintln!("FAIL: the bounds gate changed discovery results");
        failed = true;
    }
    if bounds_pruned == 0 {
        eprintln!("FAIL: the bounds gate never retired a candidate");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
