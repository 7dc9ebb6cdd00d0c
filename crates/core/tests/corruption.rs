//! Acceptance tests for the guardrail stack against a *deliberately
//! corrupted optimizer*: a buggy transformation is emulated by injecting
//! bogus alternatives straight into the memo (exactly what a broken rewrite
//! rule would do), the corrupted search is driven through the real
//! `implement`/extract machinery, and the resulting plan must be caught by
//! the physical validator or the differential fingerprint check — never
//! silently executed.

use std::collections::BTreeSet;

use scope_ir::ops::LogicalOp;
use scope_optimizer::estimate::Estimator;
use scope_optimizer::memo::{GroupId, Memo};
use scope_optimizer::normalize::normalize;
use scope_optimizer::optimizer::effective_config;
use scope_optimizer::search::BudgetTracker;
use scope_optimizer::search::{explore, implement};
use scope_optimizer::transform::{referenced_cols, TransformCtx};
use scope_optimizer::{
    compile_job, validate_physical, CompileBudget, CompileStats, CompiledPlan, PhysPlan, RuleConfig,
};
use scope_workload::{Workload, WorkloadProfile};
use steer_core::guard::{vet_candidate, CandidateFilterStats, CandidateRejection};

/// Compile a job the way `compile` does, but hand the memo to `corrupt`
/// between exploration and implementation. Returns the (possibly corrupt)
/// winning plan as a `CompiledPlan` suitable for vetting.
fn compile_with_corruption(
    job: &scope_ir::Job,
    corrupt: impl FnOnce(&mut Memo, GroupId, &Estimator<'_>) -> bool,
) -> Option<CompiledPlan> {
    let config = effective_config(job, &RuleConfig::default_config());
    let obs = job.catalog.observe();
    let est = Estimator::new(&obs);
    let normalized = normalize(&job.plan);
    let mut referenced = BTreeSet::new();
    for (_, node) in normalized.plan.iter() {
        referenced_cols(&node.op, &mut referenced);
    }
    let ctx = TransformCtx {
        est: &est,
        referenced: &referenced,
    };
    let (mut memo, root) = Memo::from_plan(&normalized.plan, &est).unwrap();
    let mut tracker = BudgetTracker::new(&CompileBudget::UNLIMITED);
    explore(&mut memo, &config, &ctx, &mut tracker).unwrap();
    if !corrupt(&mut memo, root, &est) {
        return None; // nothing to corrupt in this job
    }
    let outcome = implement(&memo, root, &config, &obs, &mut tracker).ok()?;
    Some(CompiledPlan {
        est_cost: outcome.est_cost,
        est_cost_vec: outcome.est_cost_vec,
        plan: outcome.plan,
        signature: scope_optimizer::RuleSignature::default(),
        memo_groups: memo.num_groups(),
        memo_exprs: memo.num_exprs(),
        stats: CompileStats::default(),
        footprint: scope_optimizer::RuleFootprint::UNRECORDED,
    })
}

/// A broken rewrite that claims "the left input alone is equivalent to the
/// join": it copies the left child's canonical expression into the join's
/// group. The alternative is cheaper (it skips the join and the whole right
/// subtree), so the corrupted optimizer *prefers* it — and the extracted
/// plan silently computes the wrong result. The physical validator cannot
/// object (the plan is structurally fine); only the differential
/// fingerprint check can.
#[test]
fn join_bypass_corruption_is_caught_by_the_fingerprint_check() {
    let w = Workload::generate(WorkloadProfile::workload_a(0.08));
    let mut caught = 0usize;
    let mut stats = CandidateFilterStats::default();
    for job in &w.day(0) {
        let Ok(default) = compile_job(job, &RuleConfig::default_config()) else {
            continue;
        };
        let Some(corrupted) = compile_with_corruption(job, |memo, _root, est| {
            let join = (0..memo.num_exprs())
                .map(|i| scope_optimizer::memo::MExprId(i as u32))
                .find(|&id| matches!(memo.op(id), LogicalOp::Join { .. }));
            let Some(join_id) = join else {
                return false;
            };
            let join_group = memo.expr(join_id).group;
            let left = memo.children(join_id)[0];
            let bypass = memo.canonical(left);
            memo.insert_existing(bypass, Some(join_group), None, est);
            true
        }) else {
            continue;
        };
        // The corruption is structural sabotage of the *result*, not of the
        // plan shape: the validator must stay silent so that this test
        // proves the fingerprint check is the layer that catches it.
        assert!(validate_physical(&corrupted.plan).is_empty());
        match vet_candidate(&default, &corrupted) {
            Err(rejection @ CandidateRejection::Diverged { .. }) => {
                stats.note_rejection(&rejection);
                caught += 1;
            }
            Err(other) => panic!("expected Diverged, got {other}"),
            // A plan where the bypass lost the cost race is legitimately
            // identical to the default — not a guardrail failure.
            Ok(()) => {}
        }
    }
    assert!(caught > 0, "no join-bypass corruption was ever caught");
    assert_eq!(stats.diverged, caught);
    assert_eq!(stats.total(), caught);
}

/// A broken extraction that emits a join node with a dangling input (one
/// child edge lost). This corruption *is* structural, and the physical
/// validator must reject the plan before any fingerprint comparison runs.
#[test]
fn dropped_join_input_is_caught_by_the_validator() {
    let w = Workload::generate(WorkloadProfile::workload_a(0.08));
    let mut caught = 0usize;
    for job in &w.day(0) {
        let Ok(default) = compile_job(job, &RuleConfig::default_config()) else {
            continue;
        };
        // Rebuild the default plan, truncating the first join's children.
        let mut truncated = false;
        let mut plan = PhysPlan::new();
        for (_, node) in default.plan.iter() {
            let mut node = node.clone();
            if !truncated && node.children.len() == 2 {
                node.children.pop();
                truncated = true;
            }
            plan.add(node);
        }
        if !truncated {
            continue;
        }
        if let Some(root) = default.plan.root() {
            plan.set_root(root);
        }
        let corrupted = CompiledPlan {
            plan,
            est_cost: default.est_cost,
            est_cost_vec: default.est_cost_vec,
            signature: default.signature,
            memo_groups: default.memo_groups,
            memo_exprs: default.memo_exprs,
            stats: default.stats,
            footprint: default.footprint,
        };
        let err = vet_candidate(&default, &corrupted).unwrap_err();
        assert!(matches!(err, CandidateRejection::Invalid(_)));
        caught += 1;
    }
    assert!(caught > 0, "no two-input node found in any day-0 plan");
}

/// A malformed job — its scans overwritten with joins that have no inputs,
/// which normalization's arity check panics on — makes even the *default*
/// compile panic. Discovery must lose that one job, not the worker's whole
/// chunk of the day, and so account for the same jobs at any thread count.
/// The flight layer skips it: serving and revalidation report and journal
/// exactly what they do for the same day without it.
#[test]
fn panicking_default_compile_loses_one_job_not_its_chunk() {
    use rand::SeedableRng;
    use scope_exec::{ABTester, RetryPolicy};
    use scope_ir::ops::JoinKind;
    use steer_core::{
        FlightConfig, FlightController, FlightDayReport, GroupConfig, Pipeline, PipelineParams,
    };

    let w = Workload::generate(WorkloadProfile::workload_a(0.08));
    let mut jobs = w.day(0);
    jobs[0].plan.map_ops(|op| {
        if matches!(op, LogicalOp::Get { .. }) {
            *op = LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![],
            };
        }
    });
    assert!(scope_optimizer::compile_job_guarded(
        &jobs[0],
        &RuleConfig::default_config(),
        &CompileBudget::default()
    )
    .is_err_and(|e| matches!(e, scope_optimizer::CompileError::Panicked { .. })));

    // A batch over the malformed plan hands every configuration the panic
    // it would have hit alone, and leaves the thread's scratch usable.
    let configs = [
        RuleConfig::default_config(),
        RuleConfig::from_enabled(scope_optimizer::RuleSet::FULL),
    ];
    let batch = |job: &scope_ir::Job| {
        scope_optimizer::compile_candidates(
            &job.plan,
            &job.catalog.observe(),
            &configs,
            &CompileBudget::default(),
            &scope_optimizer::CostModel::DEFAULT,
        )
    };
    for (config, got) in configs.iter().zip(batch(&jobs[0])) {
        let alone =
            scope_optimizer::compile_job_guarded(&jobs[0], config, &CompileBudget::default());
        assert_eq!(got.err(), alone.err());
    }
    assert!(batch(&jobs[1]).iter().any(Result::is_ok));

    for n_threads in [1, 2] {
        let p = Pipeline::new(
            scope_exec::ABTester::new(11),
            PipelineParams {
                m_candidates: 20,
                sample_frac: 1.0,
                n_threads,
                ..PipelineParams::default()
            },
        );
        let report = p.discover(&jobs, &mut rand::rngs::StdRng::seed_from_u64(1));
        let accounted = report.out_of_window
            + report.failed_defaults
            + report.not_selected
            + report.outcomes.len();
        assert_eq!(accounted, jobs.len() - 1, "{n_threads} threads");
    }

    // A flight for every group of the healthy jobs, half deployed (which
    // revalidation samples) and half canarying (which serving measures).
    let winners: Vec<GroupConfig> = jobs[1..]
        .iter()
        .filter_map(|job| {
            let default = compile_job(job, &RuleConfig::default_config()).ok()?;
            Some(GroupConfig {
                group: default.signature,
                config: RuleConfig::default_config(),
                base_change_pct: -20.0,
                base_job: job.id,
            })
        })
        .collect();
    let (deployed, canaries) = winners.split_at(winners.len() / 2);
    let ab = ABTester::new(11);
    let fly = |jobs: &[scope_ir::Job]| {
        let mut c = FlightController::new(FlightConfig {
            canary_pct: 50,
            revalidation_budget: 64,
            ..FlightConfig::default()
        });
        c.ingest_deployed(deployed, 0);
        c.ingest(canaries, 0);
        c.advance(0);
        let served = c.serve_day(jobs, &ab, &RetryPolicy::no_retries(), 1);
        // The first sweep reads serve_day's sample; the second, for
        // another day, compiles the defaults again.
        let background = [
            c.revalidate_background(jobs, &ab, 1),
            c.revalidate_background(jobs, &ab, 2),
        ];
        (served, background, c.journal_text())
    };
    let (served, background, journal) = fly(&jobs);
    let (healthy, healthy_background, healthy_journal) = fly(&jobs[1..]);
    assert_eq!(served.skipped, 1);
    assert!(healthy.steered > 0 && !healthy_background[0].observed.is_empty());
    assert_eq!(
        FlightDayReport {
            jobs: served.jobs - 1,
            skipped: served.skipped - 1,
            ..served
        },
        healthy
    );
    assert_eq!(background, healthy_background);
    assert_eq!(journal, healthy_journal);
}
