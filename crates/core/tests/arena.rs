//! Bit-identity acceptance tests for the arena/interner compile path.
//!
//! `scope_optimizer::classic` is a byte-for-byte snapshot of the compile
//! path before the arena-memo rework. Every test here holds the live
//! (arena + interner + bitset-mask) path to that frozen oracle via
//! [`CompiledPlan::fingerprint`], which covers the rendered physical plan,
//! the estimated cost bits, the rule signature, memo shape, and task
//! counts — everything except wall-clock timing. Random jobs come from the
//! workload generator and random configurations from a seeded PRNG, so a
//! regression anywhere in the rework (dedup keys, rule iteration order,
//! winner selection, scratch reuse) shows up as a fingerprint mismatch
//! with a reproducible seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_ir::Job;
use scope_optimizer::classic::{compile_classic, compile_classic_with_budget};
use scope_optimizer::optimizer::{compile_with_scratch, CompileScratch};
use scope_optimizer::{
    compile, compile_with_budget, effective_config, CompileBudget, CostModel, RuleCatalog,
    RuleConfig, RuleId, NUM_RULES,
};
use scope_workload::{Workload, WorkloadProfile};

fn jobs() -> Vec<Job> {
    Workload::generate(WorkloadProfile::workload_a(0.08)).day(0)
}

/// A randomized configuration: start from the default and disable a random
/// subset of non-required rules. Required rules cannot be disabled, so the
/// result is always a *valid* configuration — some of them still fail to
/// compile specific jobs (that is the point of the paper), and the test
/// then asserts both paths fail identically.
fn random_config(seed: u64) -> RuleConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let required = RuleCatalog::global().required();
    let mut config = RuleConfig::default_config();
    let n_disables = rng.gen_range(0..48usize);
    for _ in 0..n_disables {
        let rid = RuleId(rng.gen_range(0..NUM_RULES as u16));
        if !required.contains(rid) {
            config.disable(rid);
        }
    }
    config
}

/// Fingerprint-or-error for one job under one config on the live path.
fn live(job: &Job, config: &RuleConfig) -> Result<u64, String> {
    let obs = job.catalog.observe();
    compile(&job.plan, &obs, &effective_config(job, config))
        .map(|p| p.fingerprint())
        .map_err(|e| e.to_string())
}

/// Fingerprint-or-error for one job under one config on the frozen oracle.
fn oracle(job: &Job, config: &RuleConfig) -> Result<u64, String> {
    let obs = job.catalog.observe();
    compile_classic(&job.plan, &obs, &effective_config(job, config))
        .map(|p| p.fingerprint())
        .map_err(|e| e.to_string())
}

#[test]
fn arena_path_matches_classic_on_a_full_workload_day() {
    let jobs = jobs();
    assert!(jobs.len() > 50, "workload day should be non-trivial");
    let config = RuleConfig::default_config();
    let mut compiled = 0usize;
    for job in &jobs {
        assert_eq!(
            live(job, &config),
            oracle(job, &config),
            "fingerprint diverged on job {}",
            job.id
        );
        if live(job, &config).is_ok() {
            compiled += 1;
        }
    }
    assert!(
        compiled > 0,
        "vacuous: no job compiled under the default config"
    );
}

#[test]
fn arena_path_matches_classic_under_randomized_configs() {
    let jobs = jobs();
    let mut failures_seen = 0usize;
    for seed in 0..24u64 {
        let config = random_config(seed);
        // Sample a deterministic slice of jobs per config to keep runtime sane.
        for job in jobs.iter().skip((seed as usize * 7) % 11).step_by(17) {
            let l = live(job, &config);
            let o = oracle(job, &config);
            assert_eq!(l, o, "diverged: seed {seed}, job {}", job.id);
            if l.is_err() {
                failures_seen += 1;
            }
        }
    }
    // The configs above disable up to 47 rules; some compiles must fail,
    // and those failures must have matched the oracle too.
    assert!(
        failures_seen > 0,
        "vacuous: no config ever failed a compile"
    );
}

#[test]
fn tight_budgets_fail_identically() {
    let jobs = jobs();
    let config = RuleConfig::default_config();
    let budget = CompileBudget::with_max_tasks(40);
    let mut budget_errors = 0usize;
    for job in jobs.iter().take(40) {
        let obs = job.catalog.observe();
        let cfg = effective_config(job, &config);
        let l = compile_with_budget(&job.plan, &obs, &cfg, &budget)
            .map(|p| p.fingerprint())
            .map_err(|e| e.to_string());
        let o = compile_classic_with_budget(&job.plan, &obs, &cfg, &budget)
            .map(|p| p.fingerprint())
            .map_err(|e| e.to_string());
        assert_eq!(l, o, "budget behaviour diverged on job {}", job.id);
        if l.is_err() {
            budget_errors += 1;
        }
    }
    assert!(budget_errors > 0, "vacuous: the tight budget never fired");
}

#[test]
fn scratch_reuse_is_invisible_in_results() {
    // The thread-local scratch is a cache of capacity, never of values: a
    // compile through dirty reused scratch must equal a compile through
    // fresh scratch, job after job, in both orders.
    let jobs = jobs();
    let config = RuleConfig::default_config();
    let mut reused = CompileScratch::new();
    for job in jobs.iter().take(60) {
        let obs = job.catalog.observe();
        let cfg = effective_config(job, &config);
        let budget = CompileBudget::default();
        let with_reuse = compile_with_scratch(
            &job.plan,
            &obs,
            &cfg,
            &budget,
            &CostModel::DEFAULT,
            &mut reused,
        )
        .map(|p| p.fingerprint())
        .map_err(|e| e.to_string());
        let fresh = compile_with_scratch(
            &job.plan,
            &obs,
            &cfg,
            &budget,
            &CostModel::DEFAULT,
            &mut CompileScratch::new(),
        )
        .map(|p| p.fingerprint())
        .map_err(|e| e.to_string());
        assert_eq!(
            with_reuse, fresh,
            "scratch reuse leaked into job {}",
            job.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (config seed, job index) pairs: the live path and the frozen
    /// oracle agree bit-exactly — same fingerprint on success, same error
    /// on failure.
    #[test]
    fn prop_arena_fingerprints_match_classic(seed in 0u64..10_000, pick in 0usize..10_000) {
        let jobs = jobs();
        let job = &jobs[pick % jobs.len()];
        let config = random_config(seed);
        prop_assert_eq!(live(job, &config), oracle(job, &config));
    }
}
