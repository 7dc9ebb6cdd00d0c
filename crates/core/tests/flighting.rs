//! End-to-end acceptance tests for the flighting subsystem: rollback
//! determinism across worker counts, crash-safe recovery of real serving
//! history, the probation path out of quarantine, and the guardrail —
//! dying steered runs roll a hint back, a starved compile budget
//! quarantines it on every path.
//!
//! These tests drive the public API only. Discovery is replicated from the
//! in-crate test helper: whether a given RNG seed surfaces winners on the
//! tiny test workload is statistical, so we scan a few (A/B seed, search
//! seed) pairs and additionally require the winning group to recur on the
//! serving days the scenario needs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use scope_exec::{plan_fingerprint, ABTester, CrashPlan, FaultProfile, RetryPolicy};
use scope_ir::Job;
use scope_optimizer::{
    compile_job, compile_job_guarded, effective_config, CompileBudget, RuleConfig,
};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::flight::{N_STRIKES, PROBATION_CLEAN_REQUIRED};
use steer_core::{
    winning_configs, FlightConfig, FlightController, FlightStage, GroupConfig, HintStatus,
    Pipeline, PipelineParams,
};

const SERVE_DAYS: u32 = 6;

/// FNV-1a, so a pinned digest does not depend on the toolchain's
/// `Hasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Discovered {
    workload: Workload,
    ab_seed: u64,
    winners: Vec<GroupConfig>,
}

/// How many of `jobs` compile to `group` under the default configuration.
fn matching_jobs(workload: &Workload, day: u32, group: &str) -> usize {
    workload
        .day(day)
        .iter()
        .filter(|job| {
            compile_job(job, &RuleConfig::default_config())
                .is_ok_and(|c| c.signature.to_bit_string() == group)
        })
        .count()
}

/// Scan (A/B seed, search seed) pairs until discovery over day 0 of a small
/// Workload A yields a winner whose group also recurs on days 1 and 2 —
/// the flighting scenarios need traffic to canary against.
fn discover(n_threads: usize) -> Discovered {
    for ab_seed in [11u64, 5, 7, 13] {
        let ab = ABTester::new(ab_seed);
        let pipeline = Pipeline::new(
            ab.clone(),
            PipelineParams {
                m_candidates: 120,
                execute_top_k: 5,
                sample_frac: 1.0,
                n_threads,
                ..PipelineParams::default()
            },
        );
        for seed in 1..=6u64 {
            let workload = Workload::generate(WorkloadProfile::workload_a(0.08));
            let mut rng = StdRng::seed_from_u64(seed);
            let report = pipeline.discover(&workload.day(0), &mut rng);
            let winners = winning_configs(&report.outcomes, 5.0);
            let recurs = winners.iter().any(|w| {
                let key = w.group.to_bit_string();
                matching_jobs(&workload, 1, &key) >= 1 && matching_jobs(&workload, 2, &key) >= 1
            });
            if recurs {
                return Discovered {
                    workload,
                    ab_seed,
                    winners,
                };
            }
        }
    }
    panic!("no (ab, search) seed pair produced a recurring winner");
}

/// The winner whose group recurs on days 1 and 2 (guaranteed by
/// [`discover`]'s acceptance condition).
fn recurring_winner(d: &Discovered) -> GroupConfig {
    d.winners
        .iter()
        .find(|w| {
            let key = w.group.to_bit_string();
            matching_jobs(&d.workload, 1, &key) >= 1 && matching_jobs(&d.workload, 2, &key) >= 1
        })
        .expect("discover() guarantees a recurring winner")
        .clone()
}

/// Fingerprints of every plan the hint would steer the victim group's jobs
/// onto over the serving window — the targets for a planted regression.
fn steered_fingerprints(workload: &Workload, victim: &GroupConfig) -> Vec<(u64, f64)> {
    let key = victim.group.to_bit_string();
    let mut fps = Vec::new();
    for day in 1..=SERVE_DAYS {
        for job in &workload.day(day) {
            let Ok(default) = compile_job(job, &RuleConfig::default_config()) else {
                continue;
            };
            if default.signature.to_bit_string() != key {
                continue;
            }
            if let Ok(steered) = compile_job_guarded(job, &victim.config, &CompileBudget::default())
            {
                // Only plans that actually differ from the default regress:
                // if steered == default the shadow baseline is slowed too
                // and the comparison washes out.
                // 4× on the steered plan nets a regression past the CUSUM
                // threshold in one day, even after the hint's genuine
                // improvement and the unslowed jobs of the group are
                // averaged in.
                let fp = plan_fingerprint(&steered.plan);
                if fp != plan_fingerprint(&default.plan) && !fps.iter().any(|&(f, _)| f == fp) {
                    fps.push((fp, 4.0));
                }
            }
            // Keep the static-gate view consistent with serve_day.
            let _ = effective_config(job, &victim.config);
        }
    }
    fps
}

struct PipelineRun {
    rollback_day: Option<u32>,
    snapshot: String,
    journal: String,
}

/// Drive the day-by-day flighting pipeline: serve, background-revalidate,
/// advance. Returns the day the victim rolled back (if it did) plus the
/// final durable state.
fn run_pipeline(
    d: &Discovered,
    ab: &ABTester,
    config: FlightConfig,
    crash: Option<CrashPlan>,
) -> PipelineRun {
    let mut c = FlightController::new(config);
    c.ingest(&d.winners, 0);
    if let Some(plan) = crash {
        c.arm_crash(plan);
    }
    c.advance(0);
    let policy = RetryPolicy::no_retries();
    let mut rollback_day = None;
    for day in 1..=SERVE_DAYS {
        let jobs = d.workload.day(day);
        c.serve_day(&jobs, ab, &policy, day);
        c.revalidate_background(&jobs, ab, day);
        let report = c.advance(day);
        if rollback_day.is_none() && !report.rollbacks.is_empty() {
            rollback_day = Some(day);
        }
    }
    PipelineRun {
        rollback_day,
        snapshot: c.snapshot_text(),
        journal: c.journal_text(),
    }
}

#[test]
fn rollback_is_deterministic_across_worker_counts() {
    let serial = discover(1);
    let parallel = discover(4);
    // Parallel discovery is bit-identical to serial, so both runs flight
    // the same winners.
    assert_eq!(
        format!("{:?}", serial.winners),
        format!("{:?}", parallel.winners)
    );
    assert_eq!(serial.ab_seed, parallel.ab_seed);

    let victim = recurring_winner(&serial);
    let faults = FaultProfile::with_slowdown_plans(steered_fingerprints(&serial.workload, &victim));
    assert!(!faults.is_none(), "victim must have distinct steered plans");
    // Wide canary so the planted regression is observed and tripped well
    // inside the serving window.
    let config = FlightConfig {
        canary_pct: 80,
        ..FlightConfig::default()
    };

    let runs: Vec<PipelineRun> = [&serial, &parallel]
        .iter()
        .map(|d| {
            let ab = ABTester::new(d.ab_seed).with_faults(faults.clone());
            run_pipeline(d, &ab, config.clone(), None)
        })
        .collect();
    let day = runs[0].rollback_day.expect("planted regression rolls back");
    assert_eq!(runs[1].rollback_day, Some(day), "rollback day diverged");
    assert_eq!(
        runs[0].snapshot, runs[1].snapshot,
        "final durable state diverged across worker counts"
    );
    let key = victim.group.to_bit_string();
    assert!(
        runs[0].snapshot.contains(&format!("rolledback:{day}")),
        "victim {key} should be rolled back in the snapshot"
    );
}

#[test]
fn crash_recovery_reconstructs_serving_history_bit_identically() {
    let d = discover(1);
    let ab = ABTester::new(d.ab_seed);
    let healthy = run_pipeline(&d, &ab, FlightConfig::default(), None);

    // The healthy run's durable state is pinned on the controller whose
    // ramp, monitor and revalidation thresholds were all fields: making
    // them constants changed no journal line and no snapshot byte.
    let digest = fnv1a(&format!("{}\n{}", healthy.journal, healthy.snapshot));
    assert_eq!(digest, 0x3411_b015_2053_d751, "got {digest:#018x}");

    // Recovery from the full journal reproduces the live state exactly.
    let (rec, report) = FlightController::recover(None, &healthy.journal, FlightConfig::default())
        .expect("healthy journal recovers");
    assert_eq!(report.discarded_lines, 0);
    assert_eq!(rec.snapshot_text(), healthy.snapshot);

    // A snapshot plus the journal replays only the suffix, to the same
    // state: events below the snapshot's sequence watermark are skipped.
    let (from_snap, snap_report) = FlightController::recover(
        Some(&healthy.snapshot),
        &healthy.journal,
        FlightConfig::default(),
    )
    .expect("snapshot + journal recovers");
    assert_eq!(snap_report.replayed_events, 0);
    assert_eq!(from_snap.snapshot_text(), healthy.snapshot);

    // A crash mid-run tears one journal write; recovery truncates to the
    // durable prefix and equals a replay of that prefix of the healthy
    // journal — the torn write never happened, durably.
    let crashed = run_pipeline(
        &d,
        &ab,
        FlightConfig::default(),
        Some(CrashPlan::after_ops(5, 7)),
    );
    // Pre-crash installs (one per ingested winner) plus 5 durable writes
    // plus the single torn line.
    let surviving_lines = crashed.journal.lines().count();
    assert!(surviving_lines > 6);
    let durable = surviving_lines - 1;
    let (rec_crash, crash_report) =
        FlightController::recover(None, &crashed.journal, FlightConfig::default())
            .expect("torn journal recovers");
    assert_eq!(crash_report.discarded_lines, 1);
    assert_eq!(crash_report.replayed_events, durable);
    let prefix = healthy
        .journal
        .lines()
        .take(durable)
        .collect::<Vec<_>>()
        .join("\n");
    let (rec_prefix, _) =
        FlightController::recover(None, &prefix, FlightConfig::default()).expect("prefix recovers");
    assert_eq!(rec_crash.snapshot_text(), rec_prefix.snapshot_text());
    assert_eq!(rec_crash.store, rec_prefix.store);
}

#[test]
fn quarantined_hint_recovers_through_probation() {
    let d = discover(1);
    let victim = recurring_winner(&d);
    let key = victim.group.to_bit_string();
    let ab = ABTester::new(d.ab_seed);
    let policy = RetryPolicy::no_retries();

    let mut c = FlightController::new(FlightConfig::default());
    c.ingest_deployed(&[victim], 0);
    assert_eq!(c.flight(&key).unwrap().stage, FlightStage::Deployed);

    // A transient environment fault: the compile budget collapses, so the
    // first steered compile dies fatally and quarantines the hint.
    c.config.compile_budget = CompileBudget::with_max_tasks(1);
    c.serve_day(&d.workload.day(1), &ab, &policy, 1);
    assert_eq!(c.store.hint(&key).unwrap().status, HintStatus::Quarantined);

    // The fault clears. Background sweeps now probe the quarantined hint;
    // after `PROBATION_CLEAN_REQUIRED` consecutive clean probes it
    // re-enters the rollout at Canary rather than staying dead forever.
    c.config.compile_budget = CompileBudget::default();
    let required = PROBATION_CLEAN_REQUIRED;
    let mut restored_on = None;
    for day in 2..=(2 + 2 * required) {
        let report = c.revalidate_background(&d.workload.day(day), &ab, day);
        assert!(
            report.probed.contains(&key) || report.absent > 0,
            "day {day}: quarantined hint must be probed when its group recurs"
        );
        if report.restored.contains(&key) {
            restored_on = Some(day);
            break;
        }
    }
    let day = restored_on.expect("hint never released from probation");
    assert!(
        day >= 2 + required - 1,
        "released before {required} clean probes"
    );
    assert_eq!(c.store.hint(&key).unwrap().status, HintStatus::Active);
    assert_eq!(c.flight(&key).unwrap().stage, FlightStage::Canary);
}

#[test]
fn dying_steered_runs_are_observed_and_roll_the_hint_back() {
    let d = discover(1);
    let victim = recurring_winner(&d);
    let key = victim.group.to_bit_string();
    // A bad day on the cluster, plus a planted kill: every plan the hint
    // steers onto runs into a timeout no default plan comes near. (At this
    // scale `heavy()` alone kills nothing — its in-profile vertex retries
    // absorb every failure.)
    let clean = ABTester::new(d.ab_seed);
    let slowest_default = (1..=SERVE_DAYS)
        .flat_map(|day| d.workload.day(day))
        .filter_map(|job| {
            let default = compile_job(&job, &RuleConfig::default_config()).ok()?;
            (default.signature.to_bit_string() == key)
                .then(|| clean.run(&job, &default.plan, 0).runtime)
        })
        .fold(0.0, f64::max);
    let kill: Vec<(u64, f64)> = steered_fingerprints(&d.workload, &victim)
        .into_iter()
        .map(|(fp, _)| (fp, 1e6))
        .collect();
    assert!(!kill.is_empty(), "victim must have distinct steered plans");
    let faults = FaultProfile {
        slowdown_plans: kill,
        ..FaultProfile::heavy()
    }
    .with_timeout(20.0 * slowest_default);
    let ab = clean.with_faults(faults);
    let policy = RetryPolicy::no_retries();

    // Deployed: serving pays no shadow baselines, so the only observations
    // serve_day can emit are the fallbacks'.
    let mut c = FlightController::new(FlightConfig::default());
    c.ingest_deployed(&[victim], 0);
    let mut first_fallback = None;
    let mut rolled_back = None;
    for day in 1..=SERVE_DAYS {
        let report = c.serve_day(&d.workload.day(day), &ab, &policy, day);
        let stats = &report.by_group[&key];
        let journaled = c
            .journal_text()
            .lines()
            .any(|l| l.contains(&format!("\tobs\t{key}\t")) && l.contains(&format!("\t{day}\t#")));
        assert_eq!(
            journaled,
            stats.observed > 0,
            "day {day}: journal vs report"
        );
        if stats.fallbacks > 0 {
            first_fallback.get_or_insert(day);
            // Each fallback that finished is a pair — what the customer
            // paid against the re-run alone, always a loss.
            assert_eq!(stats.observed, stats.fallbacks - report.lost);
            assert!(stats.observed == 0 || stats.mean_change_pct > 0.0);
        }
        if c.advance(day).rollbacks.contains(&key) {
            rolled_back = Some(day);
            break;
        }
    }
    let first = first_fallback.expect("no steered run died");
    let day = rolled_back.expect("a hint whose steered runs die was never rolled back");
    assert!(day < first + N_STRIKES, "rolled back on day {day}");
    assert_eq!(c.store.hint(&key).unwrap().status, HintStatus::Suspended);
}

#[test]
fn starved_compile_budget_quarantines_on_every_path() {
    let d = discover(1);
    let victim = recurring_winner(&d);
    let key = victim.group.to_bit_string();
    let ab = ABTester::new(d.ab_seed);
    let day1 = d.workload.day(1);

    // Both paths reach the steered compile through the one guard function;
    // a one-task budget makes it blow up at once — a resource-guardrail
    // trip, not a performance regression.
    type Path = fn(&mut FlightController, &[Job], &ABTester) -> usize;
    let paths: [(&str, Path); 2] = [
        ("serve_day", |c, jobs, ab| {
            let report = c.serve_day(jobs, ab, &RetryPolicy::no_retries(), 1);
            // Vetoed before execution: the job stays on its default plan.
            assert_eq!((report.steered, report.fallbacks), (0, 0));
            report.vetoes
        }),
        ("revalidate_background", |c, jobs, ab| {
            c.revalidate_background(jobs, ab, 1).quarantined.len()
        }),
    ];
    let starved = FlightConfig {
        compile_budget: CompileBudget::with_max_tasks(1),
        ..FlightConfig::default()
    };
    for (name, path) in paths {
        // The budget is a setting, not state: a controller rebuilt from its
        // journal runs under the config `recover` is given, so it starves
        // exactly like the live one.
        for recovered in [false, true] {
            let mut c = FlightController::new(starved.clone());
            c.ingest_deployed(std::slice::from_ref(&victim), 0);
            if recovered {
                (c, _) = FlightController::recover(None, &c.journal_text(), starved.clone())
                    .expect("journal recovers");
            }
            let name = format!("{name} (recovered: {recovered})");
            assert_eq!(path(&mut c, &day1, &ab), 1, "{name}: one veto");
            assert_eq!(
                c.store.hint(&key).unwrap().status,
                HintStatus::Quarantined,
                "{name}"
            );
            assert!(
                c.journal_text()
                    .lines()
                    .last()
                    .unwrap()
                    .contains("quarantined"),
                "{name}: the quarantine is journaled"
            );
        }
    }
}
