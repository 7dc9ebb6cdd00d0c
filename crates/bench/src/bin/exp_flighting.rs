//! **Flighting**: does staged rollout contain a planted regression, and
//! does the journal survive a crash? Four scenarios over Workload A:
//!
//! 1. *Steady state* — healthy winners flighted across five serving seeds;
//!    the monitors must never fire (no false rollbacks).
//! 2. *Canary regression* — the environment shifts under one hint's
//!    steered plans ([`SLOWDOWN`]×) from day 1, while the hint is still
//!    canarying. The monitors must roll it back having exposed well under
//!    10% of that hint's traffic to the regression.
//! 3. *Deployed regression* — the same shift hits a hint that is already
//!    Deployed (serving 100%, no shadow baselines). Background
//!    revalidation is its only monitoring and must still catch it.
//! 4. *Crash recovery* — a torn journal write mid-run; recovery must
//!    reconstruct bit-identical state from the durable prefix.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_flighting -- [--scale=1.0]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{plan_fingerprint, ABTester, CrashPlan, FaultProfile, RetryPolicy};
use scope_optimizer::{compile_job, compile_job_guarded, CompileBudget, RuleConfig};
use scope_steer_bench::harness::{minimize_winners, pipeline_params, workload, AB_SEED};
use scope_steer_bench::reporting::{banner, json_object, markdown_table, scale_arg, write_json};
use scope_workload::{Workload, WorkloadTag};
use steer_core::{
    winning_configs, FlightConfig, FlightController, GroupConfig, HintStatus, Pipeline,
};

/// Days of production traffic served through the flight layer.
const DAYS: u32 = 6;
/// Serving seeds for the steady-state false-rollback check.
const SERVING_SEEDS: [u64; 5] = [AB_SEED, 7, 23, 71, 113];
/// Planted slowdown on the victim's steered plans. The net day-mean the
/// monitor sees is diluted twice — by the hint's genuine improvement
/// (often −50% and more on the plans it actually changes) and by group
/// members whose steered plan equals the default (change ≈ 0) — so the
/// raw factor must be large for the *net* to read as a clear incident.
const SLOWDOWN: f64 = 5.0;

struct Discovered {
    workload: Workload,
    winners: Vec<GroupConfig>,
}

fn discover(scale: f64) -> Discovered {
    let ab = ABTester::new(AB_SEED);
    let p = Pipeline::new(ab, pipeline_params(scale));
    let w = workload(WorkloadTag::A, scale);
    let day0 = w.day(0);
    let mut rng = StdRng::seed_from_u64(0xF11617);
    let report = p.discover(&day0, &mut rng);
    let winners = minimize_winners(&day0, &winning_configs(&report.outcomes, 10.0)).winners;
    Discovered {
        workload: w,
        winners,
    }
}

/// The hints the controller will actually serve: `ingest` keeps only the
/// best winner per group, so targeting a raw winner's config could plant
/// the regression on plans the store never steers onto.
fn stored_hints(d: &Discovered) -> Vec<(String, RuleConfig)> {
    let mut reference = FlightController::new(FlightConfig::default());
    reference.ingest(&d.winners, 0);
    reference
        .store
        .hints()
        .filter(|h| h.status == HintStatus::Active)
        .map(|h| (h.group.clone(), h.config.clone()))
        .collect()
}

/// Matching jobs over the serving window whose steered plan actually
/// differs from the default. Only those can regress under a plan-targeted
/// shift — group members steered onto an identical plan observe ~0% change
/// and dilute the day mean the monitor sees.
fn distinct_plan_jobs(workload: &Workload, key: &str, config: &RuleConfig) -> usize {
    let mut distinct = 0usize;
    for day in 1..=DAYS {
        for job in &workload.day(day) {
            let Ok(default) = compile_job(job, &RuleConfig::default_config()) else {
                continue;
            };
            if default.signature.to_bit_string() != key {
                continue;
            }
            let Ok(steered) = compile_job_guarded(job, config, &CompileBudget::default()) else {
                continue;
            };
            if plan_fingerprint(&steered.plan) != plan_fingerprint(&default.plan) {
                distinct += 1;
            }
        }
    }
    distinct
}

/// The stored hint with the most traffic the planted regression can
/// actually touch: jobs steered onto a plan that differs from the default.
fn pick_victim(d: &Discovered) -> Option<(String, RuleConfig)> {
    stored_hints(d)
        .into_iter()
        .map(|(key, config)| {
            let distinct = distinct_plan_jobs(&d.workload, &key, &config);
            (key, config, distinct)
        })
        .filter(|(_, _, distinct)| *distinct > 0)
        .max_by_key(|(_, _, distinct)| *distinct)
        .map(|(key, config, _)| (key, config))
}

/// Fault profile slowing every plan the victim hint steers onto (and only
/// plans that differ from the default — identical plans slow both sides of
/// the comparison and cancel out).
fn planted_faults(workload: &Workload, key: &str, config: &RuleConfig) -> FaultProfile {
    let mut fps: Vec<(u64, f64)> = Vec::new();
    for day in 1..=DAYS {
        for job in &workload.day(day) {
            let Ok(default) = compile_job(job, &RuleConfig::default_config()) else {
                continue;
            };
            if default.signature.to_bit_string() != key {
                continue;
            }
            let Ok(steered) = compile_job_guarded(job, config, &CompileBudget::default()) else {
                continue;
            };
            let fp = plan_fingerprint(&steered.plan);
            if fp != plan_fingerprint(&default.plan) && !fps.iter().any(|&(f, _)| f == fp) {
                fps.push((fp, SLOWDOWN));
            }
        }
    }
    FaultProfile::with_slowdown_plans(fps)
}

struct FlightRun {
    rollback_day: Option<u32>,
    rollbacks: usize,
    victim_matching: usize,
    victim_steered: usize,
    snapshot: String,
    journal: String,
}

/// Drive the day-by-day pipeline: serve, background-revalidate, advance.
fn fly(
    d: &Discovered,
    ab: &ABTester,
    config: FlightConfig,
    deployed: bool,
    victim_key: Option<&str>,
    crash: Option<CrashPlan>,
) -> FlightRun {
    let mut c = FlightController::new(config);
    // Armed before ingest so the tear point counts from the first journal
    // write — install and stage events alone guarantee it fires.
    if let Some(plan) = crash {
        c.arm_crash(plan);
    }
    if deployed {
        c.ingest_deployed(&d.winners, 0);
    } else {
        c.ingest(&d.winners, 0);
    }
    c.advance(0);
    let policy = RetryPolicy::no_retries();
    let mut run = FlightRun {
        rollback_day: None,
        rollbacks: 0,
        victim_matching: 0,
        victim_steered: 0,
        snapshot: String::new(),
        journal: String::new(),
    };
    for day in 1..=DAYS {
        let jobs = d.workload.day(day);
        let report = c.serve_day(&jobs, ab, &policy, day);
        if let Some(stats) = victim_key.and_then(|k| report.by_group.get(k)) {
            run.victim_matching += stats.matching;
            run.victim_steered += stats.steered;
            println!(
                "  day {day}: victim matching {} steered {} observed {} mean {:+.1}%",
                stats.matching, stats.steered, stats.observed, stats.mean_change_pct
            );
        }
        c.revalidate_background(&jobs, ab, day);
        let advance = c.advance(day);
        if !advance.rollbacks.is_empty() {
            run.rollbacks += advance.rollbacks.len();
            if run.rollback_day.is_none()
                && victim_key.is_none_or(|k| advance.rollbacks.iter().any(|g| g == k))
            {
                run.rollback_day = Some(day);
            }
        }
    }
    run.snapshot = c.snapshot_text();
    run.journal = c.journal_text();
    run
}

fn main() {
    let scale = scale_arg();
    banner(
        "Flighting",
        "staged canary rollout: regression containment, auto-rollback, crash recovery",
    );
    let d = discover(scale);
    println!("discovered {} minimized winners", d.winners.len());
    let gate = scale >= 0.5;
    if d.winners.is_empty() {
        // Nothing to flight at this scale; leave a stub result so CI still
        // has an artifact to upload.
        assert!(!gate, "full-scale discovery must surface winners");
        let path = write_json(
            "BENCH_flighting.json",
            &json_object(&[
                ("scale", format!("{scale}")),
                ("winners", "0".to_string()),
                ("skipped", "true".to_string()),
            ]),
        );
        println!("no winners at this scale; wrote stub {}", path.display());
        return;
    }

    // ── Scenario 1: steady state, five serving seeds, no false rollbacks.
    let mut false_rollbacks = 0usize;
    for seed in SERVING_SEEDS {
        let ab = ABTester::new(seed);
        let run = fly(&d, &ab, FlightConfig::default(), false, None, None);
        false_rollbacks += run.rollbacks;
    }
    println!(
        "steady state: {} rollbacks across {} serving seeds",
        false_rollbacks,
        SERVING_SEEDS.len()
    );
    if gate {
        assert_eq!(
            false_rollbacks, 0,
            "steady-state serving must not roll back"
        );
    }

    // ── Scenario 2: regression planted while the victim is canarying.
    let victim = pick_victim(&d);
    let (canary_row, deployed_row) = if let Some((key, victim_config)) = victim {
        let faults = planted_faults(&d.workload, &key, &victim_config);
        let has_distinct_plans = !faults.slowdown_plans.is_empty();
        let ab = ABTester::new(AB_SEED).with_faults(faults);

        let canary = fly(&d, &ab, FlightConfig::default(), false, Some(&key), None);
        let containment = if canary.victim_matching > 0 {
            canary.victim_steered as f64 / canary.victim_matching as f64
        } else {
            0.0
        };
        println!(
            "canary regression: victim {} — rollback day {:?}, {} of {} jobs affected ({:.1}% of the hint's traffic)",
            &key[..12.min(key.len())],
            canary.rollback_day,
            canary.victim_steered,
            canary.victim_matching,
            containment * 100.0
        );
        if gate && has_distinct_plans {
            assert!(
                canary.rollback_day.is_some(),
                "planted canary regression must roll back"
            );
            assert!(
                containment < 0.10,
                "canary containment {containment:.3} must stay under 10%"
            );
        }

        // ── Scenario 3: the same shift against an already-Deployed hint,
        // with a revalidation budget that samples each flight at least
        // every other day.
        let config = FlightConfig {
            revalidation_budget: d.winners.len().div_ceil(2).max(2),
            ..FlightConfig::default()
        };
        let deployed = fly(&d, &ab, config, true, Some(&key), None);
        println!(
            "deployed regression: rollback day {:?} (background revalidation only)",
            deployed.rollback_day
        );
        if gate && has_distinct_plans {
            assert!(
                deployed.rollback_day.is_some(),
                "background revalidation must catch a deployed regression"
            );
        }
        (
            vec![
                "canary regression".to_string(),
                fmt_day(canary.rollback_day),
                format!("{:.1}%", containment * 100.0),
            ],
            vec![
                "deployed regression".to_string(),
                fmt_day(deployed.rollback_day),
                "100% until caught".to_string(),
            ],
        )
    } else {
        println!("no winner had recurring traffic at this scale; regression scenarios skipped");
        (
            vec!["canary regression".into(), "skipped".into(), "-".into()],
            vec!["deployed regression".into(), "skipped".into(), "-".into()],
        )
    };

    // ── Scenario 4: crash recovery (always asserted, any scale).
    let ab = ABTester::new(AB_SEED);
    let healthy = fly(&d, &ab, FlightConfig::default(), false, None, None);
    let (recovered, report) =
        FlightController::recover(None, &healthy.journal, FlightConfig::default())
            .expect("healthy journal must recover");
    assert_eq!(
        recovered.snapshot_text(),
        healthy.snapshot,
        "recovery must reconstruct bit-identical state"
    );
    // Every winner contributes one install (at ingest) and one stage event
    // (at the day-0 advance), so tearing the 2N-th write fires at any
    // scale that discovered at least one winner.
    let guaranteed = 2 * d.winners.len() as u64;
    let torn = fly(
        &d,
        &ab,
        FlightConfig::default(),
        false,
        None,
        Some(CrashPlan::after_ops(guaranteed.saturating_sub(1), 9)),
    );
    let (rec_torn, torn_report) =
        FlightController::recover(None, &torn.journal, FlightConfig::default())
            .expect("torn journal must recover");
    assert_eq!(
        torn_report.discarded_lines, 1,
        "exactly the torn line is lost"
    );
    let durable = torn.journal.lines().count() - 1;
    let prefix: String = healthy
        .journal
        .lines()
        .take(durable)
        .collect::<Vec<_>>()
        .join("\n");
    let (rec_prefix, _) = FlightController::recover(None, &prefix, FlightConfig::default())
        .expect("durable prefix must recover");
    assert_eq!(
        rec_torn.snapshot_text(),
        rec_prefix.snapshot_text(),
        "torn-tail recovery must equal the durable prefix"
    );
    println!(
        "crash recovery: {} events replayed bit-identically; torn write truncated cleanly",
        report.replayed_events
    );

    let rows = vec![
        vec![
            "steady state (5 seeds)".to_string(),
            if false_rollbacks == 0 {
                "none".into()
            } else {
                false_rollbacks.to_string()
            },
            "-".to_string(),
        ],
        canary_row.clone(),
        deployed_row.clone(),
        vec![
            "crash recovery".to_string(),
            "-".to_string(),
            format!("{} events replayed", report.replayed_events),
        ],
    ];
    println!(
        "{}",
        markdown_table(&["scenario", "rollback", "traffic affected / notes"], &rows)
    );

    let body = json_object(&[
        ("scale", format!("{scale}")),
        ("winners", d.winners.len().to_string()),
        ("serving_days", DAYS.to_string()),
        ("steady_state_seeds", SERVING_SEEDS.len().to_string()),
        ("steady_state_rollbacks", false_rollbacks.to_string()),
        ("canary_rollback_day", format!("\"{}\"", canary_row[1])),
        ("canary_traffic_affected", format!("\"{}\"", canary_row[2])),
        ("deployed_rollback_day", format!("\"{}\"", deployed_row[1])),
        ("recovered_events", report.replayed_events.to_string()),
        ("recovery_bit_identical", "true".to_string()),
    ]);
    let path = write_json("BENCH_flighting.json", &body);
    println!("wrote {}", path.display());
}

fn fmt_day(day: Option<u32>) -> String {
    day.map_or_else(|| "never".to_string(), |d| format!("day {d}"))
}
