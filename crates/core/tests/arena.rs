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
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scope_ir::Job;
use scope_optimizer::classic::{compile_classic, compile_classic_with_budget};
use scope_optimizer::optimizer::{compile_with_scratch, CompileScratch};
use scope_optimizer::{
    compile, compile_candidates, compile_job, compile_job_guarded, compile_with_budget,
    effective_config, CompileBudget, CompileError, CompilePhase, CompiledPlan, CostCorrections,
    CostEstimate, CostModel, CostWeights, RuleAction, RuleCatalog, RuleConfig, RuleFootprint,
    RuleId, RuleSignature, NUM_RULES,
};
use scope_trace::{Counter, MetricsSnapshot};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::{approximate_span, candidate_configs};

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

/// One compile on caller-owned scratch, with the memo size it reached.
fn on_scratch(
    job: &Job,
    config: &RuleConfig,
    scratch: &mut CompileScratch,
) -> Result<(u64, usize), String> {
    compile_with_scratch(
        &job.plan,
        &job.catalog.observe(),
        config,
        &CompileBudget::default(),
        &CostModel::DEFAULT,
        scratch,
    )
    .map(|p| (p.fingerprint(), p.memo_exprs))
    .map_err(|e| e.to_string())
}

/// The default configuration without the transformation rules anchored on
/// `kinds` that can be turned off.
fn without_transforms_on(kinds: &[scope_ir::OpKind]) -> RuleConfig {
    let rules = RuleCatalog::global();
    let mut config = RuleConfig::default_config();
    for &kind in kinds {
        for &id in rules.transforms_for(kind) {
            if !rules.required().contains(id) {
                config.disable(id);
            }
        }
    }
    config
}

#[test]
fn scratch_reuse_is_invisible_in_results() {
    // The thread-local scratch is a cache of capacity, never of values: a
    // compile through dirty reused scratch must equal a compile through
    // fresh scratch, job after job, in both orders.
    let jobs = jobs();
    let config = RuleConfig::default_config();
    let mut reused = CompileScratch::new();
    let mut sizes = Vec::new();
    for job in jobs.iter().take(60) {
        let cfg = effective_config(job, &config);
        let with_reuse = on_scratch(job, &cfg, &mut reused);
        let fresh = on_scratch(job, &cfg, &mut CompileScratch::new());
        assert_eq!(
            with_reuse, fresh,
            "scratch reuse leaked into job {}",
            job.id
        );
        sizes.extend(fresh.map(|(_, exprs)| (exprs, job)));
    }

    // The scratch also carries the alternatives costed on the memo it
    // last implemented, keyed by expression index. The largest plan, then
    // the smallest on the same scratch: every index of the second memo has
    // a costed slot of the first behind it unless the table was forgotten.
    let &(large, big) = sizes.iter().max_by_key(|(exprs, _)| *exprs).expect("jobs");
    let &(small, little) = sizes.iter().min_by_key(|(exprs, _)| *exprs).expect("jobs");
    assert!(small < large, "vacuous: every memo has {large} expressions");
    let mut scratch = CompileScratch::new();
    for job in [big, little, big] {
        let cfg = effective_config(job, &config);
        assert_eq!(
            on_scratch(job, &cfg, &mut scratch),
            on_scratch(job, &cfg, &mut CompileScratch::new()),
            "a costed alternative outlived its memo, job {}",
            job.id
        );
    }

    // The same inside one batch: partitions whose memos shrink from one
    // to the next, two implementation passes over each. Without the
    // filter rewrites everything explored after them sits at a lower index
    // than it did in the first partition's memo.
    let rules = RuleCatalog::global();
    let mut shrank = 0usize;
    for job in jobs.iter().take(60) {
        let mut configs = Vec::new();
        for kinds in [&[][..], &[scope_ir::OpKind::Filter], &scope_ir::OpKind::ALL] {
            let config = effective_config(job, &without_transforms_on(kinds));
            let mut fewer_impls = config.clone();
            fewer_impls.disable(rules.impls_for(scope_ir::OpKind::Join)[0]);
            configs.extend([config, fewer_impls]);
        }
        let obs = job.catalog.observe();
        let budget = CompileBudget::default();
        let got = compile_candidates(&job.plan, &obs, &configs, &budget, &CostModel::DEFAULT);
        let exprs: Vec<Option<usize>> = got
            .iter()
            .map(|r| r.as_ref().ok().map(|p| p.memo_exprs))
            .collect();
        shrank += usize::from(exprs[4] < exprs[2] && exprs[2] < exprs[0] && exprs[4].is_some());
        for (config, got) in configs.iter().zip(got) {
            assert_eq!(
                got.map(|p| (p.fingerprint(), p.memo_exprs))
                    .map_err(|e| e.to_string()),
                on_scratch(job, config, &mut CompileScratch::new()),
                "batch partition read another's alternatives, job {}",
                job.id
            );
        }
    }
    assert!(shrank > 20, "vacuous: {shrank} batches of shrinking memos");
}

/// A cost vector's exact bits, field by field.
fn vec_bits(v: &CostEstimate) -> [u64; 6] {
    [v.rows, v.cpu, v.io, v.net, v.memory, v.vertices].map(f64::to_bits)
}

/// Fingerprint and cost vector, or typed error: the unit the batch tests
/// compare in. The fingerprint leaves the vector out, and a winner builds
/// it on a walk of its own, so it is compared beside it — `classic` adds
/// it up in the order the search always has.
type Outcome = Result<(u64, [u64; 6]), CompileError>;

fn outcome(result: Result<CompiledPlan, CompileError>) -> Outcome {
    result.map(|p| (p.fingerprint(), vec_bits(&p.est_cost_vec)))
}

/// `m` effective configurations for `job` drawn the way discovery draws
/// its candidates — every rule outside the job's span on, span rules off
/// per category — so many of them agree on every transformation rule and
/// really share an exploration, plus `strays` [`random_config`]s that
/// mostly do not.
fn candidate_like_configs(job: &Job, m: usize, strays: u64, seed: u64) -> Vec<RuleConfig> {
    let span = approximate_span(&job.plan, &job.catalog.observe());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut configs = candidate_configs(&span, m, &mut rng);
    configs.extend((0..strays).map(|i| random_config(seed.wrapping_mul(31) + i)));
    configs
        .iter()
        .map(|config| effective_config(job, config))
        .collect()
}

/// The batch entry point on already-effective configurations.
fn batch(job: &Job, configs: &[RuleConfig], budget: &CompileBudget) -> Vec<Outcome> {
    let obs = job.catalog.observe();
    compile_candidates(&job.plan, &obs, configs, budget, &CostModel::DEFAULT)
        .into_iter()
        .map(outcome)
        .collect()
}

/// The frozen oracle on one already-effective configuration.
fn classic(job: &Job, config: &RuleConfig, budget: &CompileBudget) -> Outcome {
    let obs = job.catalog.observe();
    outcome(compile_classic_with_budget(&job.plan, &obs, config, budget))
}

#[test]
fn batch_compile_matches_classic_one_by_one_on_a_full_workload_day() {
    let budget = CompileBudget::default();
    let (mut compared, mut failed, mut no_exchange) = (0usize, 0usize, 0usize);
    let mut mismatches = Vec::new();
    // Workload B: its exchange-heavy plans fail with both
    // `NoImplementation` and `NoExchangeImplementation`.
    let day = Workload::generate(WorkloadProfile::workload_b(0.12)).day(0);
    for job in &day {
        let configs = candidate_like_configs(job, 200, 8, job.id.0);
        let want: Vec<Outcome> = configs
            .iter()
            .map(|config| classic(job, config, &budget))
            .collect();
        compared += want.len();
        failed += want.iter().filter(|w| w.is_err()).count();
        no_exchange += want
            .iter()
            .filter(|w| **w == Err(CompileError::NoExchangeImplementation))
            .count();
        // A partition's passes share one table of costed alternatives,
        // each slot filled by whichever pass reaches it first: in input
        // order, reversed, and with the configurations that fail — whose
        // passes stop part-way — ahead of every one that compiles.
        let forward: Vec<usize> = (0..configs.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let mut failing_first = forward.clone();
        failing_first.sort_by_key(|&i| want[i].is_ok());
        for (fill, order) in [
            ("input", forward),
            ("reversed", reversed),
            ("failing first", failing_first),
        ] {
            let ordered: Vec<RuleConfig> = order.iter().map(|&i| configs[i].clone()).collect();
            let got = batch(job, &ordered, &budget);
            assert_eq!(got.len(), configs.len());
            for (&i, got) in order.iter().zip(got) {
                if got != want[i] {
                    let bits = configs[i].enabled().to_bit_string();
                    mismatches.push((job.id, fill, bits, got, want[i].clone()));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} batch results of {compared} configurations in three fill orders differ from the \
         oracle; first: {:?}",
        mismatches.len(),
        mismatches[0]
    );
    assert!(compared > 2_000, "vacuous: compared {compared}");
    assert!(
        no_exchange > 0 && failed > no_exchange && compared > failed,
        "vacuous: {compared} compared, {failed} failed, {no_exchange} for want of an exchange"
    );
}

#[test]
fn batch_compile_matches_single_compiles_under_a_non_default_model() {
    // `classic` predates cost models, so under weights that re-rank
    // alternatives and corrections that scale what a slot stores the
    // reference is a single compile on fresh scratch.
    let model = CostModel {
        weights: CostWeights {
            rows: 1e-9,
            cpu: 1.7,
            io: 0.6,
            net: 2.3,
            memory: 1e-12,
            vertices: 0.8,
        },
        corrections: CostCorrections {
            rows: 1.3,
            cpu: 0.7,
            io: 1.9,
        },
    };
    let budget = CompileBudget::default();
    let day = Workload::generate(WorkloadProfile::workload_b(0.12)).day(0);
    let mut compiled = 0usize;
    for job in &day {
        let obs = job.catalog.observe();
        let configs = candidate_like_configs(job, 60, 4, job.id.0);
        let got = compile_candidates(&job.plan, &obs, &configs, &budget, &model);
        for (config, got) in configs.iter().zip(got) {
            let mut fresh = CompileScratch::new();
            let want = outcome(compile_with_scratch(
                &job.plan, &obs, config, &budget, &model, &mut fresh,
            ));
            assert_eq!(outcome(got), want, "job {}", job.id);
            compiled += usize::from(want.is_ok());
        }
    }
    assert!(compiled > 300, "vacuous: {compiled} compiled");
}

#[test]
fn batch_compile_fails_identically_under_tight_budgets() {
    let jobs = jobs();
    let (mut in_explore, mut in_implement, mut fitted) = (0usize, 0usize, 0usize);
    for job in jobs.iter().take(30) {
        let configs = candidate_like_configs(job, 60, 4, job.id.0);
        let Ok(default) = compile(
            &job.plan,
            &job.catalog.observe(),
            &effective_config(job, &RuleConfig::default_config()),
        ) else {
            continue;
        };
        // 40 tasks run out while exploring; one short of the default's
        // total runs out in some candidate's implementation pass and lets
        // cheaper candidates through.
        for max_tasks in [40, default.stats.tasks - 1] {
            let budget = CompileBudget::with_max_tasks(max_tasks);
            let got = batch(job, &configs, &budget);
            for (config, got) in configs.iter().zip(got) {
                assert_eq!(
                    got,
                    classic(job, config, &budget),
                    "budget {max_tasks} diverged on job {}",
                    job.id
                );
                match got {
                    Err(CompileError::BudgetExhausted { phase, .. }) => match phase {
                        CompilePhase::Explore => in_explore += 1,
                        CompilePhase::Implement => in_implement += 1,
                    },
                    Ok(_) => fitted += 1,
                    Err(_) => {}
                }
            }
        }
    }
    assert!(in_explore > 0, "vacuous: no budget ran out while exploring");
    assert!(
        in_implement > 0,
        "vacuous: no budget ran out while implementing"
    );
    assert!(fitted > 0, "vacuous: no candidate fitted its budget");
}

#[test]
fn batch_shape_and_order_cannot_change_an_answer() {
    let budget = CompileBudget::default();
    let mut rng = StdRng::seed_from_u64(5);
    for job in jobs().iter().step_by(9) {
        let configs = candidate_like_configs(job, 40, 4, job.id.0);
        let base = batch(job, &configs, &budget);
        assert!(batch(job, &[], &budget).is_empty());
        for i in [0, configs.len() / 2, configs.len() - 1] {
            let alone = batch(job, &configs[i..=i], &budget);
            assert_eq!(alone, [base[i].clone()], "batch of one, job {}", job.id);
        }
        let doubled: Vec<RuleConfig> = configs.iter().chain(&configs).cloned().collect();
        let twice: Vec<Outcome> = base.iter().chain(&base).cloned().collect();
        assert_eq!(batch(job, &doubled, &budget), twice, "job {}", job.id);
        let mut order: Vec<usize> = (0..configs.len()).collect();
        order.shuffle(&mut rng);
        let permuted: Vec<RuleConfig> = order.iter().map(|&i| configs[i].clone()).collect();
        let expected: Vec<Outcome> = order.iter().map(|&i| base[i].clone()).collect();
        assert_eq!(batch(job, &permuted, &budget), expected, "job {}", job.id);
    }
}

#[test]
fn one_transformation_rule_apart_is_never_a_shared_exploration() {
    // The default configuration beside every configuration one
    // transformation rule away from it: each must get the exploration it
    // would run alone, whichever rule that is — candidate sampling only
    // ever separates the ≈20 transformation rules some span holds.
    let rules = RuleCatalog::global();
    let default = RuleConfig::default_config();
    let mut configs = vec![default.clone()];
    for kind in scope_ir::OpKind::ALL {
        for &id in rules.transforms_for(kind) {
            let mut config = default.clone();
            if default.is_enabled(id) {
                config.disable(id);
            } else {
                config.enable(id);
            }
            if config != default && !configs.contains(&config) {
                configs.push(config);
            }
        }
    }
    assert!(
        configs.len() > 100,
        "{} transformation rules",
        configs.len()
    );
    let budget = CompileBudget::default();
    for job in jobs().iter().step_by(7) {
        let configs: Vec<RuleConfig> = configs
            .iter()
            .map(|config| effective_config(job, config))
            .collect();
        let got = batch(job, &configs, &budget);
        let obs = job.catalog.observe();
        for (config, got) in configs.iter().zip(got) {
            let alone = outcome(compile_with_budget(&job.plan, &obs, config, &budget));
            assert_eq!(got, alone, "job {}", job.id);
        }
    }
}

/// Two plans the workload generator never draws: a global aggregate over
/// a large input, whose implementations gather it for an operator running
/// above one vertex, and a cross join, whose index join gathers its first
/// input and hands that requirement on as its own partitioning. Each is
/// compiled under the default configuration and, with and without serial
/// scans, under every configuration left with a single join
/// implementation — one by one and as one batch — against the oracle.
#[test]
fn gathers_under_parallel_operators_match_classic() {
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
    use scope_ir::{PlanGraph, TrueCatalog};

    let mut cat = TrueCatalog::new();
    let a = cat.add_column(5_000, 0.0, DomainId(0));
    let b = cat.add_column(50, 0.0, DomainId(1));
    cat.add_table(3_000_000, 100, 1, vec![a]);
    cat.add_table(400, 40, 2, vec![b]);
    let obs = cat.observe();
    let plan_over = |op: LogicalOp, tables: &[u32]| {
        let mut plan = PlanGraph::new();
        let scans = tables
            .iter()
            .map(|&t| plan.add_unchecked(LogicalOp::Get { table: TableId(t) }, vec![]))
            .collect();
        let top = plan.add_unchecked(op, scans);
        let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![top]);
        plan.set_root(out);
        plan
    };
    let global_agg = LogicalOp::GroupBy {
        keys: vec![],
        aggs: vec![AggFunc::Count],
        partial: false,
    };
    let cross = LogicalOp::Join {
        kind: JoinKind::Inner,
        keys: vec![],
    };

    let rules = RuleCatalog::global();
    let serial_scan = rules.find("SerialScanImpl").expect("catalog rule");
    let join_impls = rules.impls_for(scope_ir::OpKind::Join);
    let mut configs = vec![RuleConfig::default_config()];
    for scans in [None, Some(serial_scan)] {
        for &keep in join_impls {
            let mut config = RuleConfig::default_config();
            for &id in join_impls {
                config.disable(id);
            }
            config.enable(keep);
            if let Some(id) = scans {
                config.disable(id);
            }
            configs.push(config);
        }
    }
    let budget = CompileBudget::default();
    for plan in [plan_over(global_agg, &[0]), plan_over(cross, &[0, 1])] {
        let want: Vec<Outcome> = configs
            .iter()
            .map(|config| outcome(compile_classic_with_budget(&plan, &obs, config, &budget)))
            .collect();
        assert!(want.iter().any(Result::is_ok), "vacuous: nothing compiles");
        let got = compile_candidates(&plan, &obs, &configs, &budget, &CostModel::DEFAULT);
        for ((config, got), want) in configs.iter().zip(got).zip(&want) {
            assert_eq!(&outcome(got), want, "batch");
            let alone = compile_with_budget(&plan, &obs, config, &budget);
            assert_eq!(&outcome(alone), want, "alone");
        }
    }
}

/// Everything a compile decides that reused scratch could leak into: the
/// fingerprint (plan, cost bits, signature, memo shape, tasks), beside
/// the scalar cost's bits, the signature, the task count and the cost
/// vector spelled out.
type Decided = Result<(u64, u64, RuleSignature, u64, [u64; 6]), CompileError>;

fn decided(result: Result<CompiledPlan, CompileError>) -> Decided {
    result.map(|p| {
        (
            p.fingerprint(),
            p.est_cost.to_bits(),
            p.signature,
            p.stats.tasks,
            vec_bits(&p.est_cost_vec),
        )
    })
}

/// The thread's compile scratch keeps every memo estimate, interned
/// operator, staged rewrite output, selectivity and observed catalog of
/// the compiles before, and overwrites them: a compile through it, job
/// after job of three workloads in shuffled order, by `compile_job` and
/// in `compile_candidates` batches, decides exactly what a compile
/// through fresh scratch does. Fails when a reused estimate keeps its
/// old columns, or a staged or pooled operator its old predicate.
#[test]
fn a_dirty_scratch_changes_nothing() {
    let mut jobs: Vec<Job> = [
        WorkloadProfile::workload_a(0.1),
        WorkloadProfile::workload_b(0.1),
        WorkloadProfile::workload_c(0.1),
    ]
    .into_iter()
    .flat_map(|profile| Workload::generate(profile).day(1))
    .collect();
    jobs.shuffle(&mut StdRng::seed_from_u64(43));
    // Nine times the most any of these compiles takes (22 645 tasks): a
    // scratch that leaks into its compiles tends to grow predicates
    // without end, and the budget turns that into a failed compile
    // instead of a stall.
    let budget = CompileBudget::with_max_tasks(200_000);
    let fresh = |job: &Job, config: &RuleConfig| {
        decided(compile_with_scratch(
            &job.plan,
            &job.catalog.observe(),
            config,
            &budget,
            &CostModel::DEFAULT,
            &mut CompileScratch::new(),
        ))
    };
    let default = RuleConfig::default_config();
    let mut batches = 0usize;
    for (n, job) in jobs.iter().enumerate() {
        // `compile_job` under the budget: the flight layer's default
        // compile.
        let dirty = decided(compile_job_guarded(job, &default, &budget));
        assert!(dirty.is_ok(), "job {}'s default: {dirty:?}", job.id);
        assert_eq!(
            dirty,
            fresh(job, &effective_config(job, &default)),
            "compile_job on dirty scratch, job {}",
            job.id
        );
        assert_eq!(decided(compile_job(job, &default)), dirty);
        if n % 3 == 0 {
            let configs = candidate_like_configs(job, 8, 2, n as u64);
            let obs = job.catalog.observe();
            let got = compile_candidates(&job.plan, &obs, &configs, &budget, &CostModel::DEFAULT);
            for (config, got) in configs.iter().zip(got) {
                assert_eq!(
                    decided(got),
                    fresh(job, config),
                    "batch on dirty scratch, job {}",
                    job.id
                );
            }
            batches += 1;
        }
    }
    assert!(
        jobs.len() > 140 && batches > 45,
        "vacuous: {} jobs, {batches} batches",
        jobs.len()
    );
}

/// Everything a shared implementation pass hands on: the fingerprint
/// (plan, cost bits, signature, memo shape, tasks), the cost vector's bits
/// and the footprint — or the error.
type Passed = Result<(u64, [u64; 6], RuleFootprint), CompileError>;

fn passed(result: Result<CompiledPlan, CompileError>) -> Passed {
    result.map(|p| (p.fingerprint(), vec_bits(&p.est_cost_vec), p.footprint))
}

/// Configurations of one exploration that share implementation passes.
/// Per job, the default and the default without one implementation rule
/// of a kind its memo holds — two implementation keys — each also with
/// random flips of the rules that cannot change its plan and keep its
/// exploration: implementations of kinds the memo never holds, and
/// markers. Every configuration but the two keys' first copies a pass,
/// with its own markers fired; under a budget one task short of the
/// default's the default's key copies a `BudgetExhausted`. Each result
/// equals a fresh single compile's, and the copies are counted.
#[test]
fn configurations_with_equal_implementation_keys_share_a_pass() {
    let rules = RuleCatalog::global();
    let mut rng = StdRng::seed_from_u64(17);
    let (mut expected, mut other_markers, mut copied_exhaustion) = (0u64, 0usize, 0usize);
    scope_trace::set_enabled(true);
    let before = MetricsSnapshot::capture().counter(Counter::ImplementShared);
    for job in jobs().iter().step_by(3) {
        let obs = job.catalog.observe();
        let default = effective_config(job, &RuleConfig::default_config());
        let Ok(compiled) = compile(&job.plan, &obs, &default) else {
            continue;
        };
        let steerable = |id: RuleId| !rules.required().contains(id);
        let is_impl = |id: RuleId| matches!(rules.rule(id).action, RuleAction::Impl(_));
        let idle: Vec<RuleId> = (0..NUM_RULES as u16)
            .map(RuleId)
            .filter(|&id| steerable(id) && !rules.rule(id).action.is_transformation())
            .filter(|&id| {
                !compiled
                    .footprint
                    .may_change_plan(id, !default.is_enabled(id))
            })
            .collect();
        let Some(cut) = compiled
            .signature
            .0
            .iter()
            .find(|&id| steerable(id) && is_impl(id))
        else {
            continue;
        };
        let mut without = default.clone();
        without.disable(cut);
        let mut configs = vec![default.clone(), without.clone()];
        for k in 0..8 {
            let mut config = if k % 2 == 0 {
                default.clone()
            } else {
                without.clone()
            };
            for &id in &idle {
                if rng.gen_bool(0.5) {
                    if config.is_enabled(id) {
                        config.disable(id);
                    } else {
                        config.enable(id);
                    }
                }
            }
            configs.push(config);
        }
        for budget in [
            CompileBudget::default(),
            CompileBudget::with_max_tasks(compiled.stats.tasks - 1),
        ] {
            let got = compile_candidates(&job.plan, &obs, &configs, &budget, &CostModel::DEFAULT);
            expected += configs.len() as u64 - 2;
            let alone: Vec<_> = configs
                .iter()
                .map(|config| {
                    let mut fresh = CompileScratch::new();
                    compile_with_scratch(
                        &job.plan,
                        &obs,
                        config,
                        &budget,
                        &CostModel::DEFAULT,
                        &mut fresh,
                    )
                })
                .collect();
            let signatures: Vec<_> = alone
                .iter()
                .map(|r| r.as_ref().ok().map(|p| p.signature.0))
                .collect();
            let alone: Vec<Passed> = alone.into_iter().map(passed).collect();
            for (k, got) in got.into_iter().enumerate() {
                assert_eq!(passed(got), alone[k], "job {}, configuration {k}", job.id);
                if k < 2 {
                    continue;
                }
                // Configuration `k` copies the pass of configuration `k % 2`.
                other_markers += usize::from(signatures[k] != signatures[k % 2]);
                copied_exhaustion += usize::from(matches!(
                    alone[k],
                    Err(CompileError::BudgetExhausted {
                        phase: CompilePhase::Implement,
                        ..
                    })
                ));
            }
        }
    }
    let shared = MetricsSnapshot::capture().counter(Counter::ImplementShared) - before;
    scope_trace::set_enabled(false);
    drop(scope_trace::take_spans());
    // Other tests of this binary may share passes while this one counts.
    assert!(
        expected > 200 && shared >= expected,
        "{shared} configurations copied a pass, {expected} expected"
    );
    assert!(
        other_markers > 0 && copied_exhaustion > 0,
        "vacuous: {other_markers} copies fired other markers, {copied_exhaustion} copied a \
         budget failure"
    );
}

/// The bound drops an alternative once a partial sum reaches the group's
/// incumbent, which is exact only while no term is negative. Under a
/// negative weight it is off, under a zero weight it is on; a batch and
/// fresh single compiles agree under both. A weight of `-0.0` is negative
/// by its sign but gives the default's scalars bit for bit, so there the
/// frozen oracle holds the batch too.
#[test]
fn batches_equal_single_compiles_under_negative_and_zero_weights() {
    let model = |set: fn(&mut CostWeights)| {
        let mut model = CostModel::DEFAULT;
        set(&mut model.weights);
        model
    };
    let negative = model(|w| w.memory = -0.5);
    let zero = model(|w| w.cpu = 0.0);
    let signed_zero = model(|w| w.rows = -0.0);
    let budget = CompileBudget::default();
    let mut compiled = 0usize;
    for job in jobs().iter().step_by(4) {
        let obs = job.catalog.observe();
        let configs = candidate_like_configs(job, 24, 4, job.id.0);
        for model in [&negative, &zero, &signed_zero] {
            let got = compile_candidates(&job.plan, &obs, &configs, &budget, model);
            for (config, got) in configs.iter().zip(got) {
                let got = outcome(got);
                let alone = outcome(compile_with_scratch(
                    &job.plan,
                    &obs,
                    config,
                    &budget,
                    model,
                    &mut CompileScratch::new(),
                ));
                assert_eq!(got, alone, "job {}, {:?}", job.id, model.weights);
                if model == &signed_zero {
                    assert_eq!(got, classic(job, config, &budget), "job {}", job.id);
                }
                compiled += usize::from(got.is_ok());
            }
        }
    }
    assert!(compiled > 300, "vacuous: {compiled} compiled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random job's batch of candidate-like and stray configurations:
    /// every result equals the frozen oracle's for that configuration
    /// alone.
    #[test]
    fn prop_batch_results_match_classic(seed in 0u64..10_000, pick in 0usize..10_000) {
        let jobs = jobs();
        let job = &jobs[pick % jobs.len()];
        let configs = candidate_like_configs(job, 12, 4, seed);
        let budget = CompileBudget::default();
        let got = batch(job, &configs, &budget);
        for (config, got) in configs.iter().zip(got) {
            prop_assert_eq!(got, classic(job, config, &budget));
        }
    }

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
