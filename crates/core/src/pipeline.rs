//! The offline discovery pipeline (§4–§6): select jobs, generate candidate
//! configurations from the job span, recompile, choose plans worth
//! executing via the cost-model heuristics of §6.1, and A/B-execute the ten
//! cheapest alternatives.
//!
//! Discovery is compile-bound and embarrassingly parallel across jobs, so
//! [`Pipeline::discover`] fans both stages (default baselining and per-job
//! analysis) out over [`crate::par`]'s shared-index hand-out: per-job work
//! is uneven, so each worker claims the next unclaimed jobs. Default and
//! span-probe compiles are single guarded compiles; a job's candidates go
//! to the optimizer as a batch ([`compile_candidates`]) that explores once
//! per transformation subset. One [`JobLint`] per job gates both the span's
//! probes and the candidates: a configuration it proves cannot compile is
//! never handed to the optimizer. A [`Pipeline`] carries nothing from one
//! compile, job or [`Pipeline::discover`] call to the next.
//! Determinism is preserved by construction: each analyzed job gets its own
//! RNG derived from a splittable seed (`seed ⊕ job.id`), results are
//! collected in item order, and a batched compile is bit-identical to a
//! single one — so the same caller seed produces the same
//! [`DiscoveryReport`] at any thread count.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scope_exec::{result_fingerprint, ABTester, FaultedRun, Metric, RetryPolicy, RunMetrics};
use scope_ir::ids::{JobId, TemplateId};
use scope_ir::stats::pct_change;
use scope_ir::Job;
use scope_lint::{ConfigVerdict, JobLint, PlanBounds};
use scope_optimizer::{
    catch_compile_panics, compile_candidates, compile_with_model, effective_config, CompileBudget,
    CompileError, CompiledPlan, CostModel, RuleConfig, RuleId, RuleSet, RuleSignature, NUM_RULES,
};
use scope_trace::{Counter, Histogram, MetricsSnapshot};

use crate::guard::{vet_against, CandidateFilterStats, CandidateRejection};
use crate::par::{available_threads, run_chunked_on};
use crate::search::candidate_configs_effective;
use crate::span::{approximate_span_with, ungated_span};

/// "Clearly cheaper" margin (§6.1): a candidate whose estimated cost is
/// below `default_cost * (1 - CHEAPER_FRAC)` triggers execution.
pub(crate) const CHEAPER_FRAC: f64 = 0.05;
/// Low-cost/high-runtime outlier heuristic (§6.1): runtime must exceed
/// `OUTLIER_RATIO * default_estimated_cost` (the optimizer expected the
/// job to be several times faster than it was).
pub(crate) const OUTLIER_RATIO: f64 = 4.0;

/// Tunable pipeline parameters (defaults follow the paper).
#[derive(Clone, Debug)]
pub struct PipelineParams {
    /// Candidate configurations generated per job (§5.2; "up to 1000").
    pub m_candidates: usize,
    /// Alternatives executed per selected job (§6.1; "the 10 cheapest").
    pub execute_top_k: usize,
    /// Job selection window: ignore jobs faster than this (§5.3).
    pub min_runtime_s: f64,
    /// ... and slower than this.
    pub max_runtime_s: f64,
    /// Fraction of in-window jobs analyzed (§5.3: "10-20%").
    pub sample_frac: f64,
    /// Retry/timeout scheduling for every A/B trial the pipeline submits.
    /// With no faults injected the policy never engages, so the default
    /// keeps fault-free discovery bit-identical to the historical runs.
    pub retry: RetryPolicy,
    /// Per-candidate compile resource budget. Candidates that exhaust it
    /// are discarded (counted in the vetting stats); the generous default
    /// never fires on well-behaved compiles. A candidate is charged what it
    /// would cost compiled alone — the exploration it shares with its batch
    /// plus its own implementation pass — so sharing never changes which
    /// candidates fit.
    pub compile_budget: CompileBudget,
    /// Worker threads for the parallel discovery stages (`0` = one per
    /// available core). Results are identical at any thread count.
    pub n_threads: usize,
    /// The cost model every compile in this pipeline runs under: the
    /// scalarization weights plus any promoted per-template corrections.
    /// The default is [`CostModel::DEFAULT`], which is bit-identical to
    /// the historical scalar cost — discovery results only change when a
    /// non-default model is installed deliberately (weight sweeps, or a
    /// day boundary promoting corrections from a
    /// [`crate::feedback::CorrectionStore`]).
    pub cost_model: CostModel,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            m_candidates: 1000,
            execute_top_k: 10,
            min_runtime_s: 300.0,
            max_runtime_s: 3600.0,
            sample_frac: 0.5,
            retry: RetryPolicy::default(),
            compile_budget: CompileBudget::default(),
            n_threads: 0,
            cost_model: CostModel::DEFAULT,
        }
    }
}

/// Why a job was selected for execution (§6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionReason {
    /// Recompiled plans were clearly cheaper than the default plan.
    CheaperPlans,
    /// The default plan had a low estimated cost but a high runtime.
    LowCostHighRuntime,
}

/// One executed alternative configuration.
#[derive(Clone, Debug)]
pub struct CandidateOutcome {
    pub config: RuleConfig,
    pub est_cost: f64,
    pub signature: RuleSignature,
    pub metrics: RunMetrics,
}

/// Everything the pipeline learned about one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub job_id: JobId,
    pub template: TemplateId,
    pub day: u32,
    /// The job group key: the default rule signature (Definition 6.2).
    pub group: RuleSignature,
    pub default_cost: f64,
    pub default_metrics: RunMetrics,
    pub span_size: usize,
    pub n_candidates: usize,
    /// Candidates whose estimated cost undercut the default's (Figure 4).
    pub n_cheaper: usize,
    /// Vetted candidates whose signature equals the default plan's — they
    /// *are* the default plan, so they are counted here and excluded from
    /// the `execute_top_k` pool instead of wasting A/B trials.
    pub n_same_as_default: usize,
    /// Vetted candidates whose signature duplicates an earlier candidate's
    /// (same plan, different raw config bits) — counted, not re-executed.
    pub n_duplicate_plans: usize,
    pub reason: SelectionReason,
    /// Successfully executed alternatives. Candidates whose A/B trial
    /// failed or timed out are discarded and counted in `n_failed`.
    pub executed: Vec<CandidateOutcome>,
    /// Candidate trials that failed or timed out (after retries).
    pub n_failed: usize,
    /// Candidates the compile-time guardrail filtered out before execution
    /// (panicked / over-budget / invalid / diverging plans).
    pub vetting: CandidateFilterStats,
}

impl JobOutcome {
    /// The executed alternative best on `metric` (ignoring the default).
    pub fn best_by(&self, metric: Metric) -> Option<&CandidateOutcome> {
        self.executed
            .iter()
            .min_by(|a, b| a.metrics.get(metric).total_cmp(&b.metrics.get(metric)))
    }

    /// Percentage change of the best alternative's runtime vs the default
    /// (negative = improvement). Positive when every alternative regressed.
    pub fn best_runtime_change_pct(&self) -> f64 {
        match self.best_by(Metric::Runtime) {
            Some(best) => pct_change(self.default_metrics.runtime, best.metrics.runtime),
            None => 0.0,
        }
    }

    /// Change of the best alternative on a given metric, and the changes it
    /// causes on the other two (Figure 7's rows).
    pub fn change_when_optimizing(&self, metric: Metric) -> Option<[f64; 3]> {
        let best = self.best_by(metric)?;
        Some([
            pct_change(self.default_metrics.runtime, best.metrics.runtime),
            pct_change(self.default_metrics.cpu_time, best.metrics.cpu_time),
            pct_change(self.default_metrics.io_time, best.metrics.io_time),
        ])
    }

    /// Best-known runtime including the default (Table 3 / Table 5 use
    /// "best known", which can be the default itself).
    pub fn best_known_runtime(&self) -> f64 {
        self.executed
            .iter()
            .map(|c| c.metrics.runtime)
            .fold(self.default_metrics.runtime, f64::min)
    }
}

/// Fence shim, always zero: the benchmark harness reads these four fields
/// and only a `[benchmark]` PR may edit it. That PR deletes this struct,
/// [`DiscoveryReport::cache`] and the harness lines that read them.
#[derive(Debug, Default)]
pub struct CacheShim {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub contended: u64,
}

/// A pipeline report over many jobs.
#[derive(Debug, Default)]
pub struct DiscoveryReport {
    pub outcomes: Vec<JobOutcome>,
    /// Jobs recompiled but not selected by any §6.1 heuristic.
    pub not_selected: usize,
    /// Jobs outside the runtime window.
    pub out_of_window: usize,
    /// Jobs skipped because their *default* run failed or timed out: with
    /// no trustworthy baseline there is nothing to compare against.
    pub failed_defaults: usize,
    /// Candidate trials discarded across all jobs (failed or timed out).
    pub failed_candidates: usize,
    /// Candidates filtered by the compile-time guardrail across all jobs.
    pub vetting: CandidateFilterStats,
    /// Vetted candidates across all jobs whose plan duplicated the default
    /// or an earlier candidate (executions avoided by signature dedup).
    pub duplicate_plans: usize,
    /// Always zero; see [`CacheShim`].
    pub cache: CacheShim,
    /// Tracer metrics accumulated during this run (delta snapshot; see
    /// `scope-trace`). All-zero when tracing was disabled — the tracer is
    /// diagnostic only and never feeds back into discovery decisions.
    pub metrics: MetricsSnapshot,
}

impl DiscoveryReport {
    /// Jobs where some alternative beat the default runtime by more than
    /// `threshold_pct` percent.
    pub fn improved(&self, threshold_pct: f64) -> Vec<&JobOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.best_runtime_change_pct() < -threshold_pct)
            .collect()
    }
}

/// The static gates of [`Pipeline::analyze_job`]. Production always runs
/// both ([`Gates::ON`]); a gate turned off is the ungated reference that
/// this module's tests hold discovery to.
#[derive(Clone, Copy)]
struct Gates {
    /// `scope-lint` classifies every span probe and every candidate before
    /// it is compiled, and a config statically certain to fail
    /// (`ConfigVerdict::Invalid`) is not compiled: a span probe reads as
    /// "did not compile", a candidate is counted in
    /// `vetting.static_invalid`. Ungated, such a config compiled and failed
    /// with a non-fatal error, so skipping it sooner changes no other
    /// result — except that a candidate which would have *exhausted the
    /// compile budget* mid-search is no longer counted as `over_budget`.
    lint: bool,
    /// [`PlanBounds`] gives every candidate a *sound whole-plan cost lower
    /// bound* without compiling it, and a candidate whose bound already
    /// exceeds the job's execution threshold is retired unseen, counted in
    /// `vetting.static_bounded`. Every observable discovery result is
    /// bit-identical either way; only the candidate census over the retired
    /// tail (`n_candidates`, `n_duplicate_plans`) and the static funnel
    /// counters differ. Ungated, every lower bound is −∞.
    bounds: bool,
}

impl Gates {
    const ON: Gates = Gates {
        lint: true,
        bounds: true,
    };
}

/// The offline pipeline.
pub struct Pipeline {
    pub ab: ABTester,
    pub params: PipelineParams,
}

/// How a job's default baseline ended, for the parallel selection stage.
enum DefaultOutcome {
    /// The default configuration did not compile, or its compile panicked
    /// (rare, silently skipped — matching the historical serial behaviour).
    NoCompile,
    /// The baseline run failed or timed out: no trustworthy baseline.
    Failed,
    /// Baseline succeeded but sits outside the §5.3 runtime window.
    OutOfWindow,
    /// A usable baseline.
    InWindow(Arc<CompiledPlan>, RunMetrics),
}

/// Per-job candidate pool accounting: the per-candidate decision sequence
/// of [`Pipeline::analyze_job`], walked once as a scratch replay to find
/// the execution threshold and once for real.
#[derive(Default)]
struct PoolState {
    n_candidates: usize,
    n_cheaper: usize,
    n_same_as_default: usize,
    n_duplicate_plans: usize,
    clearly_cheaper: bool,
    seen_signatures: HashSet<RuleSignature>,
    recompiled: Vec<(RuleConfig, Arc<CompiledPlan>)>,
}

/// A candidate's compile as the funnel carries it: the plan with the
/// guardrail's verdict on it, or why it did not compile.
type Vetted = Result<(Arc<CompiledPlan>, Result<(), CandidateRejection>), CompileError>;

impl PoolState {
    /// Fold one candidate's vetted compile into the pool: count, dedup
    /// against the default and earlier survivors. `trace` gates the funnel
    /// counters so a scratch replay (threshold probing) stays invisible.
    fn absorb(
        &mut self,
        vetting: &mut CandidateFilterStats,
        config: &RuleConfig,
        result: &Vetted,
        default: &CompiledPlan,
        trace: bool,
    ) {
        match result {
            Ok((c, Ok(()))) => {
                self.n_candidates += 1;
                if c.est_cost < default.est_cost {
                    self.n_cheaper += 1;
                }
                if c.est_cost < default.est_cost * (1.0 - CHEAPER_FRAC) {
                    self.clearly_cheaper = true;
                }
                if c.signature == default.signature {
                    self.n_same_as_default += 1;
                    if trace {
                        scope_trace::count(Counter::FunnelDuplicate, 1);
                    }
                } else if !self.seen_signatures.insert(c.signature) {
                    self.n_duplicate_plans += 1;
                    if trace {
                        scope_trace::count(Counter::FunnelDuplicate, 1);
                    }
                } else {
                    self.recompiled.push((config.clone(), Arc::clone(c)));
                }
            }
            Ok((_, Err(rejection))) => {
                vetting.note_rejection(rejection);
                if trace {
                    scope_trace::count(Counter::FunnelVetoed, 1);
                }
            }
            Err(err) => {
                vetting.note_compile_error(err);
                if trace {
                    scope_trace::count(Counter::FunnelCompileFailed, 1);
                }
            }
        }
    }
}

/// How one statically-feasible candidate stands in the funnel.
enum Disposition {
    /// Compiled, and vetted against the default as the compile landed, so
    /// the threshold's scratch replay and the final replay read one verdict.
    Done(Vetted),
    /// Not compiled. Every candidate starts here and the eager ones leave
    /// with the first batch; one whose cost lower bound `lb` exceeds the
    /// default's cost stays, since it can only matter if the execution
    /// threshold ends up at or above `lb`.
    Deferred { lb: f64 },
}

impl Pipeline {
    pub fn new(ab: ABTester, params: PipelineParams) -> Pipeline {
        Pipeline { ab, params }
    }

    /// Worker count for the parallel stages.
    fn effective_threads(&self) -> usize {
        if self.params.n_threads == 0 {
            available_threads()
        } else {
            self.params.n_threads
        }
    }

    /// The job's customer hints as a rule set — the rules
    /// [`effective_config`] forces on regardless of candidate sampling.
    fn hint_set(job: &Job) -> RuleSet {
        let mut forced = RuleSet::EMPTY;
        for &raw in &job.hints {
            if (raw as usize) < NUM_RULES {
                forced.insert(RuleId(raw));
            }
        }
        forced
    }

    /// Compile one effective configuration (hints merged) of `job`,
    /// panic-isolated, under the pipeline's cost model and the default
    /// budget — the compile step defaults and span probes take.
    fn compile_guarded(
        &self,
        job: &Job,
        obs: &scope_ir::ObservableCatalog,
        config: &RuleConfig,
    ) -> Result<CompiledPlan, CompileError> {
        let model = &self.params.cost_model;
        let budget = CompileBudget::default();
        catch_compile_panics(|| compile_with_model(&job.plan, obs, config, &budget, model))
    }

    /// Compile and A/B-execute a job's default plan.
    pub fn default_run(&self, job: &Job) -> Option<(Arc<CompiledPlan>, RunMetrics)> {
        let (compiled, run) = self.default_run_outcome(job)?;
        Some((compiled, run.metrics))
    }

    /// Like [`Self::default_run`], but reports how the run ended so callers
    /// can skip jobs whose baseline is untrustworthy.
    pub(crate) fn default_run_outcome(&self, job: &Job) -> Option<(Arc<CompiledPlan>, FaultedRun)> {
        let obs = job.catalog.observe();
        let config = effective_config(job, &RuleConfig::default_config());
        // Defaults are the measurement baseline, not candidates, so they
        // are exempt from the per-candidate compile budget.
        let compiled = Arc::new(self.compile_guarded(job, &obs, &config).ok()?);
        let run = self
            .ab
            .run_with_retry(job, &compiled.plan, 0, &self.params.retry);
        Some((compiled, run))
    }

    /// Run the full discovery pipeline over one day's jobs, fanning both
    /// stages out over `params.n_threads` workers. Degrades gracefully
    /// under injected faults: jobs whose default run dies are skipped
    /// (counted in `failed_defaults`), failed candidate trials are
    /// discarded (counted in `failed_candidates`), and no failure ever
    /// panics the pipeline or leaks NaN into the rankings.
    ///
    /// Deterministic for a given caller RNG state: per-job RNGs are derived
    /// from a splittable seed (`seed ⊕ job.id`) drawn once from `rng`, so
    /// the report is identical at any worker count.
    pub fn discover<R: Rng + ?Sized>(&self, jobs: &[Job], rng: &mut R) -> DiscoveryReport {
        self.discover_gated(jobs, rng, Gates::ON)
    }

    fn discover_gated<R: Rng + ?Sized>(
        &self,
        jobs: &[Job],
        rng: &mut R,
        gates: Gates,
    ) -> DiscoveryReport {
        let n_threads = self.effective_threads();
        // Delta snapshot: the tracer registry is process-global, so report
        // only what this run adds. Captured lazily (behind the enabled
        // gate) to keep the disabled tracer free.
        let metrics_before = scope_trace::enabled().then(MetricsSnapshot::capture);
        let _discover_span = scope_trace::span("discover");
        let mut report = DiscoveryReport::default();

        // Stage 1 (parallel): default compile + baseline A/B run per job.
        // Indices (not zipped results) carry job identity so a dropped
        // panicked job cannot misalign jobs and outcomes. Compile scratch
        // (memo arena + implement vectors) is per worker thread: the
        // optimizer's thread-local scratch is born with the scoped worker
        // and reused across every job it takes.
        let indices: Vec<usize> = (0..jobs.len()).collect();
        let stage_span = scope_trace::span("discover.defaults");
        let defaults: Vec<(usize, DefaultOutcome)> = run_chunked_on(
            &indices,
            n_threads,
            |&i| {
                let job = &jobs[i];
                let _span = scope_trace::span_with("default_run", jobs[i].id.0);
                let outcome = match self.default_run_outcome(job) {
                    None => DefaultOutcome::NoCompile,
                    Some((compiled, run)) => {
                        if !run.outcome.is_success() {
                            DefaultOutcome::Failed
                        } else if run.metrics.runtime < self.params.min_runtime_s
                            || run.metrics.runtime > self.params.max_runtime_s
                        {
                            DefaultOutcome::OutOfWindow
                        } else {
                            DefaultOutcome::InWindow(compiled, run.metrics)
                        }
                    }
                };
                Some((i, outcome))
            },
            |&i| format!("job {}", jobs[i].id.0),
        );
        drop(stage_span);

        // Select jobs in the runtime window, then sample (serial: consumes
        // the caller RNG exactly as the historical serial pipeline did).
        let mut in_window: Vec<(&Job, Arc<CompiledPlan>, RunMetrics)> = Vec::new();
        for (i, outcome) in defaults {
            match outcome {
                DefaultOutcome::NoCompile => {}
                DefaultOutcome::Failed => report.failed_defaults += 1,
                DefaultOutcome::OutOfWindow => report.out_of_window += 1,
                DefaultOutcome::InWindow(compiled, metrics) => {
                    in_window.push((&jobs[i], compiled, metrics));
                }
            }
        }
        in_window.shuffle(rng);
        let keep = ((in_window.len() as f64) * self.params.sample_frac).ceil() as usize;
        in_window.truncate(keep);

        // Stage 2 (parallel): analyze each selected job with its own RNG,
        // split from one seed drawn off the caller RNG. Collection is in
        // item order, so the outcome order matches the serial pipeline's.
        let job_seed: u64 = rng.gen();
        let stage_span = scope_trace::span("discover.analyze");
        let analyzed: Vec<Option<JobOutcome>> = run_chunked_on(
            &in_window,
            n_threads,
            |(job, compiled, metrics)| {
                let _span = scope_trace::span_with("analyze_job", job.id.0);
                let mut job_rng = StdRng::seed_from_u64(job_seed ^ job.id.0);
                Some(self.analyze_gated(job, compiled, *metrics, &mut job_rng, gates))
            },
            |(job, _, _)| format!("job {}", job.id.0),
        );
        drop(stage_span);

        for outcome in analyzed {
            match outcome {
                Some(outcome) => {
                    report.failed_candidates += outcome.n_failed;
                    report.vetting.merge(&outcome.vetting);
                    report.duplicate_plans += outcome.n_same_as_default + outcome.n_duplicate_plans;
                    report.outcomes.push(outcome);
                }
                None => report.not_selected += 1,
            }
        }
        if let Some(before) = metrics_before {
            report.metrics = MetricsSnapshot::capture().since(&before);
        }
        report
    }

    /// §5–§6 for a single job whose default compilation is already known.
    /// Returns `None` when neither execution heuristic selects the job.
    pub fn analyze_job<R: Rng + ?Sized>(
        &self,
        job: &Job,
        default: &CompiledPlan,
        default_metrics: RunMetrics,
        rng: &mut R,
    ) -> Option<JobOutcome> {
        self.analyze_gated(job, default, default_metrics, rng, Gates::ON)
    }

    fn analyze_gated<R: Rng + ?Sized>(
        &self,
        job: &Job,
        default: &CompiledPlan,
        default_metrics: RunMetrics,
        rng: &mut R,
        gates: Gates,
    ) -> Option<JobOutcome> {
        // Per-job work hoisted out of the per-candidate loop: one catalog
        // observation, one lint, one span approximation.
        let obs = job.catalog.observe();
        let lint = gates.lint.then(|| JobLint::new(&job.plan));
        // The span is derived by the same compile step as everything else
        // here, so it is the span of the optimizer the candidates run on.
        // Its probes go through the lint gate like the candidates do.
        let probe = |config: &RuleConfig| {
            self.compile_guarded(job, &obs, config)
                .ok()
                .map(|c| c.signature)
        };
        let span = match &lint {
            Some(lint) => approximate_span_with(lint, probe),
            None => ungated_span(probe),
        };
        let configs =
            candidate_configs_effective(&span, &Self::hint_set(job), self.params.m_candidates, rng);

        // One funnel: classify → bound → compile eagerly or defer →
        // threshold → resolve → replay in candidate order. Both compile
        // steps are one batch call each: a job's candidates differ from one
        // another mostly in implementation rules, so a batch explores once
        // per transformation subset and every candidate's result is what a
        // single compile of it returns.
        //
        // Classify (`gates.lint`): a candidate `scope-lint` proves
        // certain to fail with `NoImplementation` is retired before any
        // compile. Ungated it compiled, failed with a non-fatal error and
        // was silently skipped, so retiring it sooner is invisible to every
        // other counter.
        //
        // Bound (`gates.bounds`; every bound is −∞ without it): the
        // abstract interpreter derives each candidate's *sound* whole-plan
        // cost lower bound from this job's plan and the enabled rule set —
        // no compile. A candidate whose bound exceeds the default's cost
        // can never be cheaper than, equal to, or trigger selection against
        // the default; it can only claim a late execution slot, so its
        // compile is deferred. After the eager compiles fix the execution
        // threshold (the k-th cheapest distinct alternative), deferred
        // candidates the threshold cannot rule out are resolved and the
        // rest are retired unseen.
        //
        // Replay: every compile was vetted against the default plan
        // (validator + differential fingerprint) as it landed; survivors
        // are counted and deduplicated by signature in original candidate
        // order, so dedup ownership, stable-sort tie
        // order and every dynamic counter match the ungated run exactly. A
        // candidate that panics, blows the budget, produces an invalid
        // plan, or computes a different result is discarded and counted —
        // never executed. A survivor whose signature equals the default's
        // *is* the default plan, and one that repeats an earlier survivor's
        // is the same plan under different raw bits: both stay in the
        // candidate statistics but out of the execution pool, so
        // `execute_top_k` slots only go to genuinely distinct plans.
        let bounds = gates.bounds.then(|| PlanBounds::analyze(&job.plan, &obs));
        let default_fp = result_fingerprint(&default.plan);
        let compile_slots = |slots: &mut [(RuleConfig, Disposition)], picked: &[usize]| {
            let configs: Vec<RuleConfig> = picked.iter().map(|&i| slots[i].0.clone()).collect();
            let results = compile_candidates(
                &job.plan,
                &obs,
                &configs,
                &self.params.compile_budget,
                &self.params.cost_model,
            );
            scope_trace::count(Counter::FunnelCompiled, picked.len() as u64);
            for (&i, result) in picked.iter().zip(results) {
                slots[i].1 = Disposition::Done(result.map(|c| {
                    let verdict = vet_against(default_fp, &c);
                    (Arc::new(c), verdict)
                }));
            }
        };
        let mut vetting = CandidateFilterStats::default();
        let mut slots: Vec<(RuleConfig, Disposition)> = Vec::with_capacity(configs.len());
        let mut eager: Vec<usize> = Vec::with_capacity(configs.len());
        for config in configs {
            scope_trace::count(Counter::FunnelGenerated, 1);
            let invalid = lint.as_ref().is_some_and(|lint| {
                matches!(lint.classify(&config), ConfigVerdict::Invalid { .. })
            });
            if invalid {
                vetting.static_invalid += 1;
                scope_trace::count(Counter::FunnelStaticRejected, 1);
                continue;
            }
            // Model-aware: under a corrected model the compiled costs
            // shrink or grow with the correction factors, so the pruning
            // floor is widened the same way (bit-identical to `cost_lo`
            // for the default model).
            let lb = bounds.as_ref().map_or(f64::NEG_INFINITY, |bounds| {
                bounds.cost_lo_model(config.enabled(), &self.params.cost_model)
            });
            // A bound above the default's cost stays deferred unless the
            // threshold below reaches it.
            let deferred = lb > default.est_cost;
            if !deferred {
                eager.push(slots.len());
            }
            slots.push((config, Disposition::Deferred { lb }));
        }
        compile_slots(&mut slots, &eager);
        if eager.len() < slots.len() {
            // The execution threshold — the k-th cheapest distinct vetted
            // alternative among the eager compiles (scratch replay;
            // counters untouched). Soundness: every deferred candidate's
            // compiled cost would be ≥ its lower bound, and a pool of ≥ k
            // alternatives at or below the threshold survives into the
            // final replay, so a pruned candidate (bound strictly above the
            // threshold) can never displace an executed one under the
            // strict-`<` stable sort — ungated it would compile, vet, and
            // then lose the same comparison.
            let top_k = self.params.execute_top_k;
            let threshold = if top_k == 0 {
                f64::NEG_INFINITY
            } else {
                let mut scratch = PoolState::default();
                let mut scratch_vetting = CandidateFilterStats::default();
                for (config, disp) in &slots {
                    if let Disposition::Done(result) = disp {
                        scratch.absorb(&mut scratch_vetting, config, result, default, false);
                    }
                }
                let mut ests: Vec<f64> =
                    scratch.recompiled.iter().map(|(_, c)| c.est_cost).collect();
                if ests.len() < top_k {
                    f64::INFINITY
                } else {
                    ests.sort_by(f64::total_cmp);
                    ests[top_k - 1]
                }
            };
            let reachable: Vec<usize> = (0..slots.len())
                .filter(|&i| matches!(slots[i].1, Disposition::Deferred { lb } if lb <= threshold))
                .collect();
            compile_slots(&mut slots, &reachable);
        }
        let mut state = PoolState::default();
        for (config, disp) in slots {
            match disp {
                Disposition::Deferred { .. } => {
                    vetting.static_bounded += 1;
                    scope_trace::count(Counter::FunnelBoundsPruned, 1);
                }
                Disposition::Done(result) => {
                    state.absorb(&mut vetting, &config, &result, default, true);
                }
            }
        }
        let PoolState {
            n_candidates,
            n_cheaper,
            n_same_as_default,
            n_duplicate_plans,
            clearly_cheaper,
            mut recompiled,
            ..
        } = state;

        // §6.1 selection heuristics.
        let outlier = default_metrics.runtime > default.est_cost * OUTLIER_RATIO;
        let reason = if clearly_cheaper {
            SelectionReason::CheaperPlans
        } else if outlier {
            SelectionReason::LowCostHighRuntime
        } else {
            return None;
        };

        // Execute the K cheapest distinct alternatives. Trials that fail or
        // time out (after the retry policy gives up) are evidence against
        // the candidate, not a reason to abort the job: discard and count.
        recompiled.sort_by(|a, b| a.1.est_cost.total_cmp(&b.1.est_cost));
        recompiled.truncate(self.params.execute_top_k);
        let mut executed = Vec::new();
        let mut n_failed = 0usize;
        for (config, c) in recompiled {
            scope_trace::count(Counter::FunnelExecuted, 1);
            let run = self.ab.run_with_retry(job, &c.plan, 0, &self.params.retry);
            if !run.outcome.is_success() || !run.metrics.is_valid() {
                n_failed += 1;
                continue;
            }
            executed.push(CandidateOutcome {
                config,
                est_cost: c.est_cost,
                signature: c.signature,
                metrics: run.metrics,
            });
        }
        scope_trace::record(Histogram::CandidatesExecutedPerJob, executed.len() as u64);

        Some(JobOutcome {
            job_id: job.id,
            template: job.template,
            day: job.day,
            group: default.signature,
            default_cost: default.est_cost,
            default_metrics,
            span_size: span.len(),
            n_candidates,
            n_cheaper,
            n_same_as_default,
            n_duplicate_plans,
            reason,
            executed,
            n_failed,
            vetting,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scope_workload::{Workload, WorkloadProfile};

    fn pipeline() -> Pipeline {
        Pipeline::new(
            ABTester::new(11),
            PipelineParams {
                m_candidates: 120,
                execute_top_k: 5,
                sample_frac: 1.0,
                ..PipelineParams::default()
            },
        )
    }

    #[test]
    fn discovery_finds_improvements_on_a_small_day() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let p = pipeline();
        let mut rng = StdRng::seed_from_u64(1);
        let report = p.discover(&jobs, &mut rng);
        assert!(!report.outcomes.is_empty(), "no jobs analyzed");
        for o in &report.outcomes {
            assert!(o.executed.len() <= 5);
            assert!(o.n_candidates > 0);
            assert!(o.span_size > 0);
        }
        // The planted divergences guarantee at least one improving job even
        // at this tiny scale.
        assert!(
            !report.improved(5.0).is_empty(),
            "expected at least one >5% improvement"
        );
    }

    #[test]
    fn outcome_metric_helpers_are_consistent() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let p = pipeline();
        let mut rng = StdRng::seed_from_u64(2);
        let report = p.discover(&jobs, &mut rng);
        let o = report.outcomes.first().expect("an outcome");
        let best = o.best_by(Metric::Runtime).expect("executed candidates");
        assert!(best.metrics.runtime <= o.executed[0].metrics.runtime);
        assert!(o.best_known_runtime() <= o.default_metrics.runtime);
        let changes = o.change_when_optimizing(Metric::CpuTime).unwrap();
        // Optimizing CPU: its own column must be the best achievable.
        let direct = o
            .executed
            .iter()
            .map(|c| pct_change(o.default_metrics.cpu_time, c.metrics.cpu_time))
            .fold(f64::INFINITY, f64::min);
        assert!((changes[1] - direct).abs() < 1e-9);
    }

    #[test]
    fn cheap_selection_reason_reported() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let p = pipeline();
        let mut rng = StdRng::seed_from_u64(3);
        let report = p.discover(&jobs, &mut rng);
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.reason == SelectionReason::CheaperPlans));
    }

    #[test]
    fn faultless_discovery_is_unchanged_by_the_fault_plumbing() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let p = pipeline();
        let mut rng = StdRng::seed_from_u64(1);
        let report = p.discover(&jobs, &mut rng);
        assert_eq!(report.failed_defaults, 0);
        assert_eq!(report.failed_candidates, 0);
        for o in &report.outcomes {
            assert_eq!(o.n_failed, 0);
        }
        // The *dynamic* guardrail must be invisible on healthy rules: no
        // legitimate configuration panics, blows the generous default
        // budget, emits an invalid plan, or changes the job's result
        // fingerprint. (The static gates may still retire certainly
        // infeasible or provably too expensive candidates before compile —
        // those are counted separately and change nothing observable.)
        assert_eq!(report.vetting.dynamic_total(), 0);
        assert_eq!(report.vetting.panicked, 0);
        assert_eq!(report.vetting.over_budget, 0);
        assert_eq!(report.vetting.invalid, 0);
        assert_eq!(report.vetting.diverged, 0);
    }

    /// Strip the counters the static gates legitimately change — the
    /// static funnel, the census of ordinary compile failures (a gate
    /// retires candidates that would have failed), and the candidate census
    /// over the tail the bounds gate retires — so gate-on and gate-off runs
    /// can be compared field-for-field on everything observable (executed
    /// configs/plans/costs/metrics, selection reasons, dedup against the
    /// default, dynamic guardrails).
    fn gate_insensitive_view(report: &DiscoveryReport) -> String {
        // Only the dynamic guardrail counters: a gate retires candidates
        // before they compile, so it legitimately changes its own counters
        // and the census of ordinary compile failures.
        let dynamic_only = |v: &CandidateFilterStats| CandidateFilterStats {
            panicked: v.panicked,
            over_budget: v.over_budget,
            invalid: v.invalid,
            diverged: v.diverged,
            ..CandidateFilterStats::default()
        };
        let vetting = dynamic_only(&report.vetting);
        let outcomes: Vec<JobOutcome> = report
            .outcomes
            .iter()
            .map(|o| {
                let mut o = o.clone();
                o.vetting = dynamic_only(&o.vetting);
                o.n_candidates = 0;
                o.n_duplicate_plans = 0;
                o
            })
            .collect();
        format!(
            "{:?}|{}|{}|{}|{}|{:?}",
            outcomes,
            report.not_selected,
            report.out_of_window,
            report.failed_defaults,
            report.failed_candidates,
            vetting,
        )
    }

    #[test]
    fn lint_gate_preserves_discovery_bit_for_bit() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let run = |lint: bool| {
            let mut rng = StdRng::seed_from_u64(1);
            pipeline().discover_gated(&jobs, &mut rng, Gates { lint, ..Gates::ON })
        };
        let with = run(true);
        let without = run(false);
        // The gate only skips certainly-failing compiles, so every other
        // field — outcomes (plans, costs, signatures, metrics), the
        // candidate census, dedup counts, dynamic guardrail counters — must
        // be bit-identical. (The bounds gate is on in both runs; ungated
        // lint only hands it more, certainly-failing, candidates to bound.)
        assert_eq!(
            gate_insensitive_view(&with),
            gate_insensitive_view(&without)
        );
        assert_eq!(with.duplicate_plans, without.duplicate_plans);
        for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
            assert_eq!(a.n_candidates, b.n_candidates);
            assert_eq!(a.n_duplicate_plans, b.n_duplicate_plans);
        }
        assert_eq!(without.vetting.static_invalid, 0, "gate off must not count");
        assert!(
            with.vetting.static_invalid > 0,
            "expected the analyzer to retire at least one candidate"
        );
        // What the gate retires would have failed with `NoImplementation`:
        // the failure census shows them ungated.
        assert!(without.vetting.no_implementation > with.vetting.no_implementation);
    }

    #[test]
    fn bounds_gate_preserves_discovery_bit_for_bit() {
        use scope_optimizer::{CostCorrections, CostWeights};

        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let run = |bounds: bool, cost_model: CostModel, seed: u64| {
            let mut p = pipeline();
            p.params.cost_model = cost_model;
            let mut rng = StdRng::seed_from_u64(seed);
            p.discover_gated(
                &jobs,
                &mut rng,
                Gates {
                    bounds,
                    ..Gates::ON
                },
            )
        };
        // Corrected: the bound goes through `cost_lo_model`'s widened
        // floor. Re-weighted: the bound degrades to 0.0, so nothing may be
        // pruned — and the results must still match.
        let corrected = CostModel {
            corrections: CostCorrections {
                rows: 1.7,
                cpu: 1.3,
                io: 0.8,
            },
            ..CostModel::DEFAULT
        };
        let reweighted = CostModel {
            weights: CostWeights {
                io: 4.0,
                net: 4.0,
                ..CostWeights::DEFAULT
            },
            ..CostModel::DEFAULT
        };
        for (name, model, prunes) in [
            ("default", CostModel::DEFAULT, true),
            ("corrected", corrected, true),
            ("re-weighted", reweighted, false),
        ] {
            let mut pruned = 0;
            for seed in [1, 2, 3] {
                let with = run(true, model, seed);
                let without = run(false, model, seed);
                assert_eq!(
                    gate_insensitive_view(&with),
                    gate_insensitive_view(&without),
                    "{name} model, seed {seed}: bounds gate changed an observable result"
                );
                // Every executed alternative — the hints discovery would
                // ship — must match bit for bit, config bits included.
                for (a, b) in with.outcomes.iter().zip(without.outcomes.iter()) {
                    assert_eq!(a.executed.len(), b.executed.len());
                    for (x, y) in a.executed.iter().zip(b.executed.iter()) {
                        assert_eq!(x.config.enabled(), y.config.enabled());
                        assert_eq!(x.signature, y.signature);
                        assert!((x.est_cost - y.est_cost).abs() == 0.0);
                    }
                }
                assert_eq!(without.vetting.static_bounded, 0, "gate off must not count");
                pruned += with.vetting.static_bounded;
            }
            // At least one seed must show the gate actually retiring
            // compiles, or the defer/resolve ladder is dead weight.
            assert_eq!(
                pruned > 0,
                prunes,
                "{name} model: bounds gate pruned {pruned} candidates"
            );
        }
    }

    /// Every result-bearing field of a report, rendered field by field (so
    /// a new census counter does not disturb it) and hashed with FNV-1a (so
    /// the constant below does not depend on the toolchain's `Hasher`).
    fn result_digest(report: &DiscoveryReport) -> u64 {
        use std::fmt::Write;
        let filtered = |v: &CandidateFilterStats| {
            format!(
                "{}/{}/{}/{}/{}/{}",
                v.panicked,
                v.over_budget,
                v.invalid,
                v.diverged,
                v.static_invalid,
                v.static_bounded
            )
        };
        let mut view = String::new();
        for o in &report.outcomes {
            write!(
                view,
                "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{};",
                o.job_id,
                o.template,
                o.day,
                o.group,
                o.default_cost,
                o.default_metrics,
                o.span_size,
                o.n_candidates,
                o.n_cheaper,
                o.n_same_as_default,
                o.n_duplicate_plans,
                o.reason,
                o.executed,
                o.n_failed,
                filtered(&o.vetting),
            )
            .unwrap();
        }
        write!(
            view,
            "{}|{}|{}|{}|{}|{}",
            report.not_selected,
            report.out_of_window,
            report.failed_defaults,
            report.failed_candidates,
            report.duplicate_plans,
            filtered(&report.vetting),
        )
        .unwrap();
        view.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Discovery results are pinned: the constant was computed on the
    /// commit before candidates were compiled in batches (one compile per
    /// candidate), so sharing explorations provably
    /// changed no outcome, count or executed alternative of this day.
    #[test]
    fn discovery_results_are_pinned_to_the_one_by_one_pipeline() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let mut rng = StdRng::seed_from_u64(1);
        let report = pipeline().discover(&jobs, &mut rng);
        assert!(!report.outcomes.is_empty());
        assert_eq!(
            result_digest(&report),
            0xa17b_5b86_b245_d9ff,
            "got {:#018x}",
            result_digest(&report)
        );
    }

    #[test]
    fn idle_feedback_store_preserves_discovery_bit_for_bit() {
        use crate::feedback::CorrectionStore;
        use scope_optimizer::CostWeights;

        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let run = |model: CostModel, seed: u64| {
            let p = Pipeline::new(
                ABTester::new(11),
                PipelineParams {
                    m_candidates: 120,
                    execute_top_k: 5,
                    sample_frac: 1.0,
                    cost_model: model,
                    ..PipelineParams::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(seed);
            p.discover(&jobs, &mut rng)
        };
        // A store that has *ingested* plenty of signal but never crossed a
        // day boundary hands out the identity model — pending corrections
        // must be invisible to discovery.
        let mut store = CorrectionStore::new();
        for token in 0..20u64 {
            store.ingest(
                42,
                token,
                &scope_optimizer::CostEstimate {
                    cpu: 1.0,
                    io: 1.0,
                    ..scope_optimizer::CostEstimate::ZERO
                },
                &RunMetrics {
                    runtime: 6.0,
                    cpu_time: 3.0,
                    io_time: 3.0,
                    memory: 0.0,
                },
                false,
            );
        }
        let idle = store.model_for(42, CostWeights::DEFAULT);
        assert_eq!(
            idle.fingerprint_bits(),
            CostModel::DEFAULT.fingerprint_bits()
        );
        for seed in [1, 2, 3] {
            let baseline = run(CostModel::DEFAULT, seed);
            let with_store = run(idle, seed);
            assert_eq!(
                gate_insensitive_view(&baseline),
                gate_insensitive_view(&with_store),
                "seed {seed}: an unpromoted feedback store changed discovery"
            );
            for (a, b) in baseline.outcomes.iter().zip(with_store.outcomes.iter()) {
                assert_eq!(a.executed.len(), b.executed.len());
                for (x, y) in a.executed.iter().zip(b.executed.iter()) {
                    assert_eq!(x.config.enabled(), y.config.enabled());
                    assert_eq!(x.signature, y.signature);
                    assert!((x.est_cost - y.est_cost).abs() == 0.0);
                }
            }
        }
    }

    #[test]
    fn tiny_compile_budget_discards_candidates_but_discovery_completes() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        let p = Pipeline::new(
            ABTester::new(11),
            PipelineParams {
                m_candidates: 120,
                execute_top_k: 5,
                sample_frac: 1.0,
                // Far below what any real compile needs: every candidate
                // recompile must be discarded as over-budget, while the
                // default compiles (not budget-limited here) still anchor
                // the day.
                compile_budget: CompileBudget::with_max_tasks(1),
                ..PipelineParams::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let report = p.discover(&jobs, &mut rng);
        assert!(report.vetting.over_budget > 0, "budget never fired");
        assert_eq!(report.vetting.panicked, 0);
        // With no surviving candidates no job is selected for execution,
        // but nothing panics and the day completes on default plans.
        assert!(report.outcomes.iter().all(|o| o.n_candidates == 0));
    }

    #[test]
    fn discovery_survives_injected_faults_and_discards_failures() {
        use scope_exec::FaultProfile;
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        // A cluster bad enough that many trials die even after retries.
        let mut profile = FaultProfile::with_vertex_failures(5e-3);
        profile.max_retries = 1;
        let ab = ABTester::new(11).with_faults(profile);
        let p = Pipeline::new(
            ab,
            PipelineParams {
                m_candidates: 120,
                execute_top_k: 5,
                sample_frac: 1.0,
                retry: scope_exec::RetryPolicy::no_retries(),
                ..PipelineParams::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        // The guarantee under test: no panic, no NaN, failures accounted.
        let report = p.discover(&jobs, &mut rng);
        let failed: usize = report.outcomes.iter().map(|o| o.n_failed).sum();
        assert_eq!(report.failed_candidates, failed);
        assert!(
            report.failed_defaults > 0 || failed > 0,
            "this fault rate should kill at least one trial"
        );
        for o in &report.outcomes {
            for c in &o.executed {
                assert!(c.metrics.is_valid());
            }
            // best_by must stay well-defined on whatever survived.
            if !o.executed.is_empty() {
                assert!(o.best_by(Metric::Runtime).is_some());
                assert!(o.best_runtime_change_pct().is_finite());
            }
        }
    }

    #[test]
    fn jobs_with_failing_defaults_are_skipped_not_analyzed() {
        use scope_exec::FaultProfile;
        let w = Workload::generate(WorkloadProfile::workload_a(0.06));
        let jobs = w.day(0);
        // Every attempt of every stage dies: no default baseline survives.
        let mut profile = FaultProfile::with_vertex_failures(1.0);
        profile.max_retries = 0;
        let ab = ABTester::new(11).with_faults(profile);
        let p = Pipeline::new(
            ab,
            PipelineParams {
                sample_frac: 1.0,
                retry: scope_exec::RetryPolicy::no_retries(),
                ..PipelineParams::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let report = p.discover(&jobs, &mut rng);
        assert!(report.failed_defaults > 0);
        assert!(
            report.outcomes.is_empty(),
            "no job should survive a 100% vertex failure rate"
        );
    }
}
