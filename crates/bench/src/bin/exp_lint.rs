//! **Static lint vs dynamic retirement**: how much of the candidate
//! filtering that discovery does with compiles could `scope-lint` have done
//! with none. For every sampled job the harness classifies each candidate
//! configuration statically (`Valid | Redundant | Dead | Invalid`), then
//! compiles it anyway as ground truth, giving a verdict-vs-outcome
//! confusion matrix and three hard checks:
//!
//! 1. **Soundness** — a statically-`Invalid` config that compiles cleanly
//!    is a lint bug; the run fails (exit 1).
//! 2. **Canonical equivalence** — a `Redundant` config must compile to the
//!    same signature, cost, and task count as its canonical projection.
//! 3. **End-to-end determinism** — a full discovery run with the lint gate
//!    on must reproduce the gate-off run bit-for-bit (static counters
//!    aside), while retiring candidates before compile.
//!
//! The probe class: disabling `OutputImpl` (every plan has an `Output`
//! root, it has the only implementation, and no rewrite escapes the kind)
//! must always be statically retired — the "≥1 statically-retired
//! candidate class" of the experiment brief.
//!
//! Emits `results/BENCH_lint.json`.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_lint -- [--scale=1.0]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::ABTester;
use scope_ir::OpKind;
use scope_lint::{ConfigVerdict, JobLint, RuleGraph};
use scope_optimizer::{compile_job, RuleConfig};
use scope_steer_bench::harness::{pipeline_params, workload, AB_SEED};
use scope_steer_bench::reporting::{
    banner, json_array, json_object, markdown_table, scale_arg, write_json,
};
use scope_workload::WorkloadTag;
use steer_core::{approximate_span, candidate_configs, DiscoveryReport, Pipeline, PipelineParams};

/// Candidate-classification tallies, split by ground-truth compile outcome.
#[derive(Default)]
struct Confusion {
    valid_ok: usize,
    valid_err: usize,
    redundant_ok: usize,
    redundant_err: usize,
    dead_ok: usize,
    dead_err: usize,
    invalid_err: usize,
    /// Statically-Invalid configs that compiled cleanly — lint bugs.
    invalid_ok: usize,
}

impl Confusion {
    fn total(&self) -> usize {
        self.valid_ok
            + self.valid_err
            + self.redundant_ok
            + self.redundant_err
            + self.dead_ok
            + self.dead_err
            + self.invalid_err
            + self.invalid_ok
    }
}

/// Everything result-bearing in a report with the static-analyzer counters
/// zeroed, so gate-on and gate-off runs can be compared bit-exactly.
fn lint_insensitive_fingerprint(r: &DiscoveryReport) -> String {
    // `static_bounded` goes too: the bounds gate (on in both runs) also
    // bounds out some of the certainly-failing candidates ungated lint lets
    // by; the rest of them show up in the ungated failure census.
    let vetting = r.vetting.dynamic_only();
    let outcomes: Vec<_> = r
        .outcomes
        .iter()
        .map(|o| {
            let mut o = o.clone();
            o.vetting = o.vetting.dynamic_only();
            o
        })
        .collect();
    format!(
        "{:?}|{}|{}|{}|{}|{}|{:?}",
        outcomes,
        r.not_selected,
        r.out_of_window,
        r.failed_defaults,
        r.failed_candidates,
        r.duplicate_plans,
        vetting,
    )
}

fn main() {
    let scale = scale_arg();
    banner(
        "StaticLint",
        "scope-lint verdicts vs ground-truth compiles, plus gated vs ungated discovery (Workload A, day 0)",
    );
    let w = workload(WorkloadTag::A, scale);
    let jobs = w.day(0);
    // Ground-truthing compiles every candidate twice-over (once here, once
    // as the canonical projection for Redundant verdicts), so sample a
    // bounded slice of the day.
    let sampled: Vec<_> = jobs.iter().take(40).collect();
    let m = pipeline_params(scale).m_candidates.min(200);
    println!(
        "{} jobs in the day; ground-truthing {} jobs x up to {} candidates",
        jobs.len(),
        sampled.len(),
        m
    );

    let mut rng = StdRng::seed_from_u64(0x11f7);
    let mut confusion = Confusion::default();
    let mut equivalence_checked = 0usize;
    let mut equivalence_ok = 0usize;
    for job in &sampled {
        let obs = job.catalog.observe();
        let span = approximate_span(&job.plan, &obs);
        let configs = candidate_configs(&span, m, &mut rng);
        let lint = JobLint::new(&job.plan);
        for config in configs {
            let verdict = lint.classify(&config);
            let compiled = compile_job(job, &config);
            match (&verdict, &compiled) {
                (ConfigVerdict::Valid, Ok(_)) => confusion.valid_ok += 1,
                (ConfigVerdict::Valid, Err(_)) => confusion.valid_err += 1,
                (ConfigVerdict::Redundant { .. }, Ok(_)) => confusion.redundant_ok += 1,
                (ConfigVerdict::Redundant { .. }, Err(_)) => confusion.redundant_err += 1,
                (ConfigVerdict::Dead { .. }, Ok(_)) => confusion.dead_ok += 1,
                (ConfigVerdict::Dead { .. }, Err(_)) => confusion.dead_err += 1,
                (ConfigVerdict::Invalid { .. }, Err(_)) => confusion.invalid_err += 1,
                (ConfigVerdict::Invalid { .. }, Ok(_)) => confusion.invalid_ok += 1,
            }
            if let (ConfigVerdict::Redundant { canonical }, Ok(c)) = (&verdict, &compiled) {
                equivalence_checked += 1;
                let projected = RuleConfig::from_enabled(*canonical);
                if let Ok(p) = compile_job(job, &projected) {
                    if p.signature == c.signature
                        && p.est_cost == c.est_cost
                        && p.stats.tasks == c.stats.tasks
                    {
                        equivalence_ok += 1;
                    }
                }
            }
        }
    }
    let total = confusion.total();
    let static_retired = confusion.invalid_err + confusion.invalid_ok;
    let static_rate = static_retired as f64 / total.max(1) as f64;
    println!(
        "{}",
        markdown_table(
            &["verdict", "compile ok", "compile err"],
            &[
                vec![
                    "valid".into(),
                    confusion.valid_ok.to_string(),
                    confusion.valid_err.to_string()
                ],
                vec![
                    "redundant".into(),
                    confusion.redundant_ok.to_string(),
                    confusion.redundant_err.to_string()
                ],
                vec![
                    "dead".into(),
                    confusion.dead_ok.to_string(),
                    confusion.dead_err.to_string()
                ],
                vec![
                    "invalid".into(),
                    confusion.invalid_ok.to_string(),
                    confusion.invalid_err.to_string()
                ],
            ]
        )
    );
    println!(
        "statically retired {static_retired}/{total} candidates ({:.1}%); canonical equivalence {}/{}",
        100.0 * static_rate,
        equivalence_ok,
        equivalence_checked
    );

    // The guaranteed statically-retired class: OutputImpl disabled.
    let mut probe = RuleConfig::default_config();
    for id in RuleGraph::global().impls(OpKind::Output).iter() {
        probe.disable(id);
    }
    let probe_job = sampled.first().expect("day 0 is never empty");
    let probe_verdict = JobLint::new(&probe_job.plan).classify(&probe);
    let probe_static = matches!(probe_verdict, ConfigVerdict::Invalid { .. });
    let probe_dynamic = compile_job(probe_job, &probe).is_err();
    println!(
        "OutputImpl-disabled probe: statically invalid = {probe_static}, compile fails = {probe_dynamic}"
    );

    // End-to-end: gated vs ungated discovery over the full day.
    let run = |lint_gate: bool| {
        let p = Pipeline::new(
            ABTester::new(AB_SEED),
            PipelineParams {
                lint_gate,
                ..pipeline_params(scale)
            },
        );
        let mut rng = StdRng::seed_from_u64(0x11f7);
        p.discover(&jobs, &mut rng)
    };
    let gated = run(true);
    let ungated = run(false);
    let identical = lint_insensitive_fingerprint(&gated) == lint_insensitive_fingerprint(&ungated);
    println!(
        "discovery: gate on (static_invalid {}, dynamic {}), gate off (dynamic {}); identical results: {}",
        gated.vetting.static_invalid,
        gated.dynamic_rejections(),
        ungated.dynamic_rejections(),
        identical
    );

    let confusion_json = json_object(&[
        ("valid_ok", confusion.valid_ok.to_string()),
        ("valid_err", confusion.valid_err.to_string()),
        ("redundant_ok", confusion.redundant_ok.to_string()),
        ("redundant_err", confusion.redundant_err.to_string()),
        ("dead_ok", confusion.dead_ok.to_string()),
        ("dead_err", confusion.dead_err.to_string()),
        ("invalid_err", confusion.invalid_err.to_string()),
        ("invalid_ok", confusion.invalid_ok.to_string()),
    ]);
    let discovery_json = json_array(&[
        json_object(&[
            ("lint_gate", "true".into()),
            ("static_invalid", gated.vetting.static_invalid.to_string()),
            ("dynamic_rejections", gated.dynamic_rejections().to_string()),
        ]),
        json_object(&[
            ("lint_gate", "false".into()),
            (
                "dynamic_rejections",
                ungated.dynamic_rejections().to_string(),
            ),
        ]),
    ]);
    let body = json_object(&[
        ("experiment", "\"static_lint\"".into()),
        ("scale", format!("{scale}")),
        ("jobs_ground_truthed", sampled.len().to_string()),
        ("candidates_classified", total.to_string()),
        ("statically_retired", static_retired.to_string()),
        ("static_rejection_rate", format!("{static_rate:.4}")),
        (
            "unsound_invalid_compiled_ok",
            confusion.invalid_ok.to_string(),
        ),
        ("equivalence_checked", equivalence_checked.to_string()),
        ("equivalence_ok", equivalence_ok.to_string()),
        ("probe_output_impl_static", probe_static.to_string()),
        ("probe_output_impl_dynamic", probe_dynamic.to_string()),
        ("identical_discovery_results", identical.to_string()),
        ("confusion", confusion_json),
        ("discovery", discovery_json),
    ]);
    let path = write_json("BENCH_lint.json", &body);
    println!("wrote {}", path.display());

    let mut failed = false;
    if confusion.invalid_ok > 0 {
        eprintln!(
            "FAIL: {} statically-Invalid configs compiled cleanly (lint unsound)",
            confusion.invalid_ok
        );
        failed = true;
    }
    if equivalence_ok != equivalence_checked {
        eprintln!(
            "FAIL: {}/{} Redundant configs did not match their canonical projection",
            equivalence_checked - equivalence_ok,
            equivalence_checked
        );
        failed = true;
    }
    if !probe_static || !probe_dynamic {
        eprintln!("FAIL: OutputImpl-disabled probe was not retired as expected");
        failed = true;
    }
    if !identical {
        eprintln!("FAIL: the lint gate changed discovery results");
        failed = true;
    }
    if gated.vetting.static_invalid == 0 {
        eprintln!("FAIL: the lint gate never fired during discovery");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
