//! Top-level compilation: normalize → ingest → explore → implement →
//! extract, producing a physical plan, its estimated cost, and the job's
//! rule signature.

use std::collections::BTreeSet;

use scope_ir::ids::ColId;
use scope_ir::{Job, ObservableCatalog, OpKind, PlanGraph};

use crate::config::{RuleConfig, RuleSignature};
use crate::cost::{CostEstimate, CostModel};
use crate::estimate::Estimator;
use crate::memo::Memo;
use crate::normalize::normalize;
use crate::physical::PhysPlan;
use crate::rules::catalog::COMPLEX_KINDS;
use crate::rules::{RuleAction, RuleCatalog};
use crate::ruleset::RuleSet;
use crate::search::{
    explore, implement_with_model, BudgetTracker, CompileBudget, CompileError, ImplementScratch,
};
use crate::transform::{referenced_cols, TransformCtx};

/// Resource accounting for one compile, surfaced for observability even
/// when steering changes how much work the search does.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileStats {
    /// Optimizer tasks charged against the [`CompileBudget`].
    pub tasks: u64,
    /// Expressions added by exploration (rule outputs).
    pub explore_added: usize,
    /// Memo insertions rejected by the space budgets.
    pub memo_budget_rejections: usize,
    /// Wall-clock compile time in microseconds (diagnostic only — never
    /// feeds back into search decisions, which stay deterministic).
    pub compile_micros: u64,
}

/// A successfully compiled job.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The winning physical plan.
    pub plan: PhysPlan,
    /// The optimizer's total estimated cost for the plan.
    pub est_cost: f64,
    /// Component-wise total estimated cost (`est_cost` is its
    /// scalarization under the compile's cost weights). Deliberately
    /// excluded from [`CompiledPlan::fingerprint`]: the scalar's bits
    /// already pin the model-visible outcome, and the frozen `classic`
    /// oracle predates vectors.
    pub est_cost_vec: CostEstimate,
    /// Definition 3.2 — every rule that contributed to this plan.
    pub signature: RuleSignature,
    /// Diagnostics: memo size after exploration.
    pub memo_groups: usize,
    /// Diagnostics: number of memo expressions after exploration.
    pub memo_exprs: usize,
    /// Resource accounting for this compile.
    pub stats: CompileStats,
}

impl CompiledPlan {
    /// Order-sensitive digest of everything deterministic about this
    /// compile: the rendered plan, the estimated cost's exact bits, the
    /// rule signature, the memo shape, and the task accounting. Wall-clock
    /// time is deliberately excluded. Two compiles of the same job under
    /// the same configuration must produce equal fingerprints regardless
    /// of thread, scratch reuse, or interleaving — the bit-identity
    /// property the parallel-discovery and arena tests assert.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.plan.render().hash(&mut h);
        self.est_cost.to_bits().hash(&mut h);
        self.signature.0.hash(&mut h);
        self.memo_groups.hash(&mut h);
        self.memo_exprs.hash(&mut h);
        self.stats.tasks.hash(&mut h);
        self.stats.explore_added.hash(&mut h);
        self.stats.memo_budget_rejections.hash(&mut h);
        h.finish()
    }
}

/// Reusable per-thread compile state: the memo's arena slabs plus the
/// implementation-phase scratch. [`Memo::clear`] resets lengths without
/// freeing, so a warm thread compiles with no per-compile slab growth.
#[derive(Default)]
pub struct CompileScratch {
    memo: Memo,
    implement: ImplementScratch,
}

impl CompileScratch {
    pub fn new() -> CompileScratch {
        CompileScratch::default()
    }
}

thread_local! {
    /// Per-thread compile scratch reused by [`compile_with_budget`].
    static COMPILE_SCRATCH: std::cell::RefCell<CompileScratch> =
        std::cell::RefCell::new(CompileScratch::new());
}

/// Compile a logical plan under a rule configuration.
///
/// ```
/// use scope_ir::{LogicalOp, PlanGraph, TrueCatalog};
/// use scope_ir::ids::{DomainId, TableId};
/// use scope_optimizer::{compile, RuleConfig};
///
/// let mut cat = TrueCatalog::new();
/// let col = cat.add_column(100, 0.0, DomainId(0));
/// cat.add_table(1_000_000, 100, 7, vec![col]);
///
/// let mut plan = PlanGraph::new();
/// let scan = plan.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
/// let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![scan]);
/// plan.set_root(out);
///
/// let compiled = compile(&plan, &cat.observe(), &RuleConfig::default_config()).unwrap();
/// assert!(compiled.est_cost > 0.0);
/// assert!(compiled.signature.len() >= 2); // GetToRange, BuildOutput, ...
/// ```
pub fn compile(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
) -> Result<CompiledPlan, CompileError> {
    compile_with_budget(plan, obs, config, &CompileBudget::default())
}

/// [`compile`] with an explicit per-compile resource budget. Exceeding the
/// budget surfaces as [`CompileError::BudgetExhausted`].
pub fn compile_with_budget(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
) -> Result<CompiledPlan, CompileError> {
    compile_with_model(plan, obs, config, budget, &CostModel::DEFAULT)
}

/// [`compile_with_budget`] under an explicit cost model (scalarization
/// weights + feedback corrections). [`CostModel::DEFAULT`] reproduces the
/// classic scalar compile bit-for-bit; anything else re-ranks memo
/// alternatives, so callers caching compiles must key on
/// [`CostModel::fingerprint_bits`] as well.
pub fn compile_with_model(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
    model: &CostModel,
) -> Result<CompiledPlan, CompileError> {
    COMPILE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => compile_with_scratch(plan, obs, config, budget, model, &mut scratch),
        // Re-entrant compile on this thread (shouldn't happen, but a panic
        // unwound mid-borrow must not poison every later compile): fall
        // back to fresh one-shot state.
        Err(_) => {
            compile_with_scratch(plan, obs, config, budget, model, &mut CompileScratch::new())
        }
    })
}

/// [`compile_with_model`] against caller-owned scratch. The scratch is
/// cleared at the *start* of the compile (not the end), so a previous
/// panicked compile can never leak state into this one.
pub fn compile_with_scratch(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
    model: &CostModel,
    scratch: &mut CompileScratch,
) -> Result<CompiledPlan, CompileError> {
    let start = std::time::Instant::now();
    let _compile_span = scope_trace::span_timed("compile", scope_trace::Histogram::CompileMicros);
    let mut tracker = BudgetTracker::new(budget);
    let normalized = normalize(plan);
    let estimator = Estimator::with_rows_correction(obs, model.corrections.rows);

    // Columns referenced anywhere in the query: the safe retention set for
    // pruning rewrites.
    let mut referenced: BTreeSet<ColId> = BTreeSet::new();
    for (_, node) in normalized.plan.iter() {
        referenced_cols(&node.op, &mut referenced);
    }

    let ctx = TransformCtx {
        est: &estimator,
        referenced: &referenced,
    };

    let CompileScratch { memo, implement } = scratch;
    memo.clear();
    let root = memo.ingest(&normalized.plan, &estimator)?;
    let explore_added = {
        let _span =
            scope_trace::span_timed("compile.explore", scope_trace::Histogram::ExploreMicros);
        explore(memo, config, &ctx, &mut tracker)?
    };
    let outcome = {
        let _span =
            scope_trace::span_timed("compile.implement", scope_trace::Histogram::ImplementMicros);
        implement_with_model(memo, root, config, obs, &mut tracker, implement, model)?
    };
    if scope_trace::enabled() {
        scope_trace::record(scope_trace::Histogram::MemoGroups, memo.num_groups() as u64);
        scope_trace::record(scope_trace::Histogram::MemoExprs, memo.num_exprs() as u64);
        scope_trace::record(scope_trace::Histogram::CompileTasks, tracker.tasks());
    }

    // Marker rules fire on the normalized plan's operator-kind counts.
    let kind_counts = normalized.plan.op_counts();
    let mut fired = normalized.fired.union(&outcome.used_rules);
    fire_markers(config, &kind_counts, &mut fired);

    debug_assert!(
        fired
            .difference(&config.enabled().union(RuleCatalog::global().required()))
            .is_empty(),
        "signature must be a subset of enabled ∪ required"
    );

    // Every extracted plan must uphold the physical invariants; in debug
    // builds, all tests and experiments audit this for free.
    #[cfg(debug_assertions)]
    {
        let violations = crate::validate::validate_physical(&outcome.plan);
        debug_assert!(
            violations.is_empty(),
            "compiled plan violates invariants: {violations:?}\n{}",
            outcome.plan.render()
        );
    }

    Ok(CompiledPlan {
        est_cost: outcome.est_cost,
        est_cost_vec: outcome.est_cost_vec,
        plan: outcome.plan,
        signature: RuleSignature(fired),
        memo_groups: memo.num_groups(),
        memo_exprs: memo.num_exprs(),
        stats: CompileStats {
            tasks: tracker.tasks(),
            explore_added,
            memo_budget_rejections: memo.budget_rejections(),
            compile_micros: start.elapsed().as_micros() as u64,
        },
    })
}

/// Fire marker/guard/canonicalize rules against the normalized plan's
/// operator-kind counts, inserting them into `fired`. Shared by the live
/// compile path and the frozen [`crate::classic`] oracle so the signature
/// logic cannot drift between them.
pub(crate) fn fire_markers(
    config: &RuleConfig,
    kind_counts: &[u32; OpKind::COUNT],
    fired: &mut RuleSet,
) {
    let cat = RuleCatalog::global();
    for &marker_id in cat.markers() {
        let rule = cat.rule(marker_id);
        let required = cat.required().contains(marker_id);
        if !required && !config.is_enabled(marker_id) {
            continue;
        }
        let fires = match &rule.action {
            RuleAction::Canonicalize(kind) => {
                COMPLEX_KINDS.contains(kind) && kind_counts[*kind as usize] > 0
            }
            RuleAction::Guard { kind, min_count } | RuleAction::Marker { kind, min_count } => {
                kind_counts[*kind as usize] >= *min_count as u32
            }
            _ => false,
        };
        if fires {
            fired.insert(marker_id);
        }
    }
}

/// The effective configuration for a job: the base configuration plus the
/// customer's rule hints (§3.3 — hints are additive enables).
pub fn effective_config(job: &Job, base: &RuleConfig) -> RuleConfig {
    if job.hints.is_empty() {
        return base.clone();
    }
    let mut config = base.clone();
    for &raw in &job.hints {
        if (raw as usize) < crate::ruleset::NUM_RULES {
            config.enable(crate::ruleset::RuleId(raw));
        }
    }
    config
}

/// Compile a job (convenience wrapper deriving the observable catalog and
/// applying the job's customer hints on top of `config`).
pub fn compile_job(job: &Job, config: &RuleConfig) -> Result<CompiledPlan, CompileError> {
    let obs = job.catalog.observe();
    compile(&job.plan, &obs, &effective_config(job, config))
}

/// [`compile_job`] under an explicit budget, with panic isolation: a
/// compile that panics (e.g. a buggy rule interaction) is converted into a
/// typed [`CompileError::Panicked`] instead of unwinding into the caller —
/// one bad candidate configuration cannot kill a whole day's discovery
/// search.
pub fn compile_job_guarded(
    job: &Job,
    config: &RuleConfig,
    budget: &CompileBudget,
) -> Result<CompiledPlan, CompileError> {
    catch_compile_panics(|| {
        let obs = job.catalog.observe();
        compile_with_budget(&job.plan, &obs, &effective_config(job, config), budget)
    })
}

thread_local! {
    /// Depth of active [`catch_compile_panics`] scopes on this thread; the
    /// chained panic hook stays silent while it is non-zero.
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Installed once: chains to the previous panic hook except inside a
/// [`catch_compile_panics`] scope, where the caught panic is expected and
/// stderr noise would drown discovery-run output.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_OUTPUT.with(std::cell::Cell::get) == 0 {
                previous(info);
            }
        }));
    });
}

/// Run `f`, converting any panic into [`CompileError::Panicked`].
pub fn catch_compile_panics<T>(
    f: impl FnOnce() -> Result<T, CompileError>,
) -> Result<T, CompileError> {
    install_quiet_panic_hook();
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(c.get() + 1));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(c.get() - 1));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(CompileError::Panicked { message })
        }
    }
}

/// The set of operator kinds appearing in a compiled plan's *logical*
/// normalized form (diagnostic helper used by experiments).
pub fn normalized_kind_counts(plan: &PlanGraph) -> [u32; OpKind::COUNT] {
    normalize(plan).plan.op_counts()
}

/// Count, for a set of signatures, how many catalog rules never appear —
/// the "unused rules" statistic of Table 2.
pub fn unused_rules(signatures: &[RuleSignature]) -> RuleSet {
    let mut seen = RuleSet::EMPTY;
    for sig in signatures {
        seen = seen.union(&sig.0);
    }
    RuleSet::FULL.difference(&seen)
}
