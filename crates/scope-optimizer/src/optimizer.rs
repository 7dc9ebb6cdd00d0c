//! Top-level compilation: normalize → ingest → explore → implement →
//! extract, producing a physical plan, its estimated cost, and the job's
//! rule signature.

use std::collections::hash_map::Entry;
use std::time::Instant;

use scope_ir::hash::WordHashMap;
use scope_ir::{Job, ObservableCatalog, OpKind, PlanGraph};

use crate::config::{RuleConfig, RuleSignature};
use crate::cost::{CostEstimate, CostModel};
use crate::estimate::{Estimator, SelCache};
use crate::memo::{GroupId, Memo};
use crate::normalize::{normalization, Normalization};
use crate::physical::PhysPlan;
use crate::rules::catalog::COMPLEX_KINDS;
use crate::rules::{RuleAction, RuleCatalog};
use crate::ruleset::{RuleId, RuleSet};
use crate::search::{
    exploration_keys, explore, implement_pass, BudgetTracker, CompileBudget, CompileError,
    ImplementScratch,
};
use crate::transform::{referenced_cols, ColSet, Staging, TransformCtx};

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

/// The rules a compile's plan could have read, as the memo recorded them
/// while it was built: the operator kinds its expressions have and the
/// transformation rules that created at least one of them. `Copy` and
/// 24 bytes, so every compiled plan can carry one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleFootprint {
    /// One bit per [`RuleCatalog::transform_ordinal`].
    created: [u64; 2],
    /// One bit per [`OpKind`] discriminant.
    kinds: u16,
    /// `false` for a compile that recorded nothing: every rule may change
    /// its plan.
    recorded: bool,
}

const _: () = assert!(
    OpKind::COUNT <= 16
        && crate::rules::MAX_TRANSFORMS <= 128
        && std::mem::size_of::<RuleFootprint>() <= 24
);

impl RuleFootprint {
    /// The footprint of a compile that recorded none (the frozen
    /// [`crate::classic`] path).
    pub const UNRECORDED: RuleFootprint = RuleFootprint {
        created: [0; 2],
        kinds: 0,
        recorded: false,
    };

    fn of(memo: &Memo) -> RuleFootprint {
        let cat = RuleCatalog::global();
        let mut created = [0u64; 2];
        for rule in memo.created_by_rules().iter() {
            let k = cat
                .transform_ordinal(rule)
                .expect("only transformations create expressions");
            created[k / 64] |= 1 << (k % 64);
        }
        RuleFootprint {
            created,
            kinds: memo.kinds_present(),
            recorded: true,
        }
    }

    fn has(&self, kind: OpKind) -> bool {
        self.kinds & (1 << kind as u16) != 0
    }

    fn created(&self, rule: RuleId) -> bool {
        RuleCatalog::global()
            .transform_ordinal(rule)
            .is_some_and(|k| self.created[k / 64] & (1 << (k % 64)) != 0)
    }

    /// Whether enabling (`enable`) or disabling `rule` in this compile's
    /// configuration can change its plan. `false` is exact: the compile
    /// under the flipped configuration builds the same memo, the same plan
    /// and the same footprint, and only its task count and signature may
    /// differ. It answers `false` for
    ///
    /// * a transformation anchored on, or an implementation of, a kind no
    ///   expression has: exploration reads a transformation's bit only
    ///   through its anchor kind's mask, and `best` reads an
    ///   implementation's only for an expression of its kind;
    /// * a marker, guard or canonicalize rule: `fire_markers` writes
    ///   only the signature;
    /// * disabling a transformation that created no expression: every
    ///   application of it left the memo as it found it.
    ///
    /// Exchange implementations, normalizers and the enforcer answer
    /// `true`, as does every rule of an unrecorded footprint.
    pub fn may_change_plan(&self, rule: RuleId, enable: bool) -> bool {
        if !self.recorded {
            return true;
        }
        match &RuleCatalog::global().rule(rule).action {
            RuleAction::Canonicalize(_) | RuleAction::Guard { .. } | RuleAction::Marker { .. } => {
                false
            }
            RuleAction::Impl(phys) => phys.implements().is_none_or(|kind| self.has(kind)),
            action if action.is_transformation() => action
                .anchor()
                .is_none_or(|kind| self.has(kind) && (enable || self.created(rule))),
            _ => true,
        }
    }

    /// Every rule whose enabling [`RuleFootprint::may_change_plan`]. Two
    /// configurations that explore alike and agree on these rules build
    /// the same plan by the same implementation pass.
    fn plan_rules(&self) -> RuleSet {
        RuleSet::FULL
            .iter()
            .filter(|&rule| self.may_change_plan(rule, true))
            .collect()
    }
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
    /// Which rule flips can change this plan
    /// ([`RuleFootprint::may_change_plan`]).
    pub footprint: RuleFootprint,
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

/// Reusable per-thread compile state: the memo's arena slabs, estimates
/// and interned operators, the rewrites' staging, the referenced columns,
/// the estimator's selectivity cache, the observed catalog of
/// [`compile_job`], and the implementation-phase scratch. Every part is
/// overwritten or cleared before it is read and keeps its capacity, so a
/// warm thread's compile allocates only the plan it returns.
#[derive(Default)]
pub struct CompileScratch {
    memo: Memo,
    implement: ImplementScratch,
    staging: Staging,
    referenced: ColSet,
    selectivities: SelCache,
    observed: ObservableCatalog,
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

/// Run `f` on this thread's compile scratch.
fn with_thread_scratch<T>(f: impl FnOnce(&mut CompileScratch) -> T) -> T {
    COMPILE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant compile on this thread (shouldn't happen, but a panic
        // unwound mid-borrow must not poison every later compile): fall
        // back to fresh one-shot state.
        Err(_) => f(&mut CompileScratch::new()),
    })
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
/// alternatives.
pub fn compile_with_model(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
    model: &CostModel,
) -> Result<CompiledPlan, CompileError> {
    with_thread_scratch(|scratch| compile_with_scratch(plan, obs, config, budget, model, scratch))
}

/// [`compile_with_model`] against caller-owned scratch. The scratch is
/// cleared at the *start* of the compile (not the end), so a previous
/// panicked compile can never leak state into this one.
///
/// One configuration through the same three steps [`compile_candidates`]
/// runs for many: prepare → explore → finish.
pub fn compile_with_scratch(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
    model: &CostModel,
    scratch: &mut CompileScratch,
) -> Result<CompiledPlan, CompileError> {
    let start = Instant::now();
    let _compile_span = scope_trace::span_timed("compile", scope_trace::Histogram::CompileMicros);
    let prepared = Prepared::new(plan, obs, model, scratch);
    let compiled = prepared
        .explore(config, budget, scratch)
        .and_then(|explored| prepared.finish(&explored, config, scratch, start));
    prepared.retire(scratch);
    compiled
}

/// Compile one plan under many rule configurations, results in input
/// order, each equal to what [`compile_with_model`] under
/// [`catch_compile_panics`] returns for that configuration alone — same
/// [`CompiledPlan::fingerprint`], same [`CompileError`].
///
/// The plan is prepared once, and configurations that agree on every
/// transformation rule (`search::exploration_keys`) form a partition that
/// shares one exploration: the memo is cleared, ingested and explored for
/// the first of them, and each then pays only for its implementation pass
/// over that read-only memo, its task count resumed from where the
/// exploration left it. Within a partition a configuration's
/// implementation key is its enabled set restricted to the rules the
/// explored memo's [`RuleFootprint::may_change_plan`] says can change the
/// plan; a configuration whose key equals an earlier one's runs no pass
/// and gets a copy of that one's result (plan, costs, tasks, footprint or
/// error) with its own marker rules fired.
///
/// A panic while exploring (normalizing a malformed plan included) is one
/// every configuration it serves would have hit alone, so each of them
/// gets the [`CompileError::Panicked`]; a panic in one implementation pass
/// stays with that configuration and those that share its key.
pub fn compile_candidates(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    configs: &[RuleConfig],
    budget: &CompileBudget,
    model: &CostModel,
) -> Vec<Result<CompiledPlan, CompileError>> {
    with_thread_scratch(|scratch| {
        compile_candidates_with(plan, obs, configs, budget, model, scratch)
    })
}

fn compile_candidates_with(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    configs: &[RuleConfig],
    budget: &CompileBudget,
    model: &CostModel,
    scratch: &mut CompileScratch,
) -> Vec<Result<CompiledPlan, CompileError>> {
    let prepared = {
        let _span = scope_trace::span("compile.prepare");
        Prepared::new(plan, obs, model, scratch)
    };
    let keys = exploration_keys(configs);
    let mut results: Vec<Option<Result<CompiledPlan, CompileError>>> =
        configs.iter().map(|_| None).collect();
    // Per implementation key of the current partition, the configuration
    // whose pass it ran.
    let mut passes: WordHashMap<RuleSet, usize> = WordHashMap::default();
    for lead in 0..configs.len() {
        if results[lead].is_some() {
            continue;
        }
        passes.clear();
        // The exploration is timed inside the `compile` span of the
        // configuration that runs it.
        let mut explored = None;
        for i in (lead..configs.len()).filter(|&i| keys[i] == keys[lead]) {
            let start = Instant::now();
            let _compile_span =
                scope_trace::span_timed("compile", scope_trace::Histogram::CompileMicros);
            if explored.is_some() {
                scope_trace::count(scope_trace::Counter::ExploreShared, 1);
            }
            let explored = explored.get_or_insert_with(|| {
                catch_compile_panics(|| prepared.explore(&configs[i], budget, scratch)).map(
                    |explored| {
                        let plan_rules = explored.footprint.plan_rules();
                        (explored, plan_rules)
                    },
                )
            });
            results[i] = Some(match explored {
                Ok((explored, plan_rules)) => {
                    let key = configs[i].enabled().intersection(plan_rules);
                    match passes.entry(key) {
                        Entry::Occupied(pass) => {
                            scope_trace::count(scope_trace::Counter::ImplementShared, 1);
                            let pass = results[*pass.get()].as_ref().expect("an earlier pass");
                            prepared.share(explored, pass, &configs[i], start)
                        }
                        Entry::Vacant(pass) => {
                            pass.insert(i);
                            catch_compile_panics(|| {
                                prepared.finish(explored, &configs[i], scratch, start)
                            })
                        }
                    }
                }
                Err(e) => Err(e.clone()),
            });
        }
    }
    prepared.retire(scratch);
    results
        .into_iter()
        .map(|r| r.expect("every configuration belongs to one partition"))
        .collect()
}

/// What every compile of one plan under one cost model shares, whatever
/// the rule configuration.
struct Prepared<'a> {
    plan: &'a PlanGraph,
    obs: &'a ObservableCatalog,
    model: &'a CostModel,
    /// Memoizes into the scratch's selectivity cache until
    /// [`Prepared::retire`] hands it back.
    estimator: Estimator<'a>,
}

/// A memo explored under one exploration key, ready for any number of
/// implementation passes.
struct Explored {
    root: GroupId,
    explore_added: usize,
    /// Task accounting as exploration left it; every implementation pass
    /// over this memo resumes from a copy.
    tracker: BudgetTracker,
    /// What the ingest's normalization fired and counted: the marker
    /// rules fire on the counts.
    normal: Normalization,
    /// What the explored memo holds and its transformations created.
    footprint: RuleFootprint,
}

impl<'a> Prepared<'a> {
    fn new(
        plan: &'a PlanGraph,
        obs: &'a ObservableCatalog,
        model: &'a CostModel,
        scratch: &mut CompileScratch,
    ) -> Prepared<'a> {
        let cache = std::mem::take(&mut scratch.selectivities);
        Prepared {
            plan,
            obs,
            model,
            estimator: Estimator::with_cache(obs, model.corrections.rows, cache),
        }
    }

    /// Give the selectivity cache back to the scratch.
    fn retire(self, scratch: &mut CompileScratch) {
        scratch.selectivities = self.estimator.into_cache();
    }

    /// Clear the scratch's memo, ingest the plan and explore it under
    /// `config`'s transformation rules. The memo changes here and nowhere
    /// else, so this is where the alternatives costed on the previous one
    /// are forgotten. The ingest's one walk over the plan normalizes it
    /// and collects the columns it references anywhere, the safe
    /// retention set of the pruning rewrites.
    fn explore(
        &self,
        config: &RuleConfig,
        budget: &CompileBudget,
        scratch: &mut CompileScratch,
    ) -> Result<Explored, CompileError> {
        let CompileScratch {
            memo,
            implement,
            staging,
            referenced,
            ..
        } = scratch;
        implement.forget_costed();
        let mut tracker = BudgetTracker::new(budget);
        memo.clear();
        referenced.clear();
        let (root, normal) = memo.ingest_visiting(self.plan, &self.estimator, |op| {
            referenced_cols(op, referenced);
        })?;
        let ctx = TransformCtx {
            est: &self.estimator,
            referenced,
        };
        let _span =
            scope_trace::span_timed("compile.explore", scope_trace::Histogram::ExploreMicros);
        let explore_added = explore(memo, staging, config, &ctx, &mut tracker)?;
        Ok(Explored {
            root,
            explore_added,
            tracker,
            normal,
            footprint: RuleFootprint::of(memo),
        })
    }

    /// Implement the explored memo under `config`, fire its marker rules
    /// and package the plan. Reads the memo, writes only the
    /// implementation scratch — whose costed alternatives every `finish`
    /// over one `explored` shares.
    fn finish(
        &self,
        explored: &Explored,
        config: &RuleConfig,
        scratch: &mut CompileScratch,
        start: Instant,
    ) -> Result<CompiledPlan, CompileError> {
        let CompileScratch {
            memo, implement, ..
        } = scratch;
        let memo: &Memo = memo;
        let mut tracker = explored.tracker;
        let outcome = {
            let _span = scope_trace::span_timed(
                "compile.implement",
                scope_trace::Histogram::ImplementMicros,
            );
            implement_pass(
                memo,
                explored.root,
                config,
                self.obs,
                &mut tracker,
                implement,
                self.model,
            )?
        };
        if scope_trace::enabled() {
            scope_trace::record(scope_trace::Histogram::MemoGroups, memo.num_groups() as u64);
            scope_trace::record(scope_trace::Histogram::MemoExprs, memo.num_exprs() as u64);
            scope_trace::record(scope_trace::Histogram::CompileTasks, tracker.tasks());
        }

        let mut fired = explored.normal.fired.union(&outcome.used_rules);
        fire_markers(config, &explored.normal.kind_counts, &mut fired);

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
                explore_added: explored.explore_added,
                memo_budget_rejections: memo.budget_rejections(),
                compile_micros: start.elapsed().as_micros() as u64,
            },
            footprint: explored.footprint,
        })
    }

    /// The compile of `config` whose implementation key equals that of an
    /// earlier configuration of the partition, whose compile is `pass`:
    /// the same plan, costs, task count and footprint — or the same error
    /// — with `config`'s own markers fired on the signature. Its
    /// `compile.implement` span times the copy, and a traced run records
    /// the samples the pass recorded.
    fn share(
        &self,
        explored: &Explored,
        pass: &Result<CompiledPlan, CompileError>,
        config: &RuleConfig,
        start: Instant,
    ) -> Result<CompiledPlan, CompileError> {
        let _span =
            scope_trace::span_timed("compile.implement", scope_trace::Histogram::ImplementMicros);
        let pass = pass.as_ref().map_err(CompileError::clone)?;
        if scope_trace::enabled() {
            scope_trace::record(scope_trace::Histogram::MemoGroups, pass.memo_groups as u64);
            scope_trace::record(scope_trace::Histogram::MemoExprs, pass.memo_exprs as u64);
            scope_trace::record(scope_trace::Histogram::CompileTasks, pass.stats.tasks);
        }
        // Only `fire_markers` fires a marker rule: without them the
        // signature is what the normalization and the pass fired.
        let mut fired = pass.signature.0;
        for &marker in RuleCatalog::global().markers() {
            fired.remove(marker);
        }
        fire_markers(config, &explored.normal.kind_counts, &mut fired);
        Ok(CompiledPlan {
            plan: pass.plan.clone(),
            est_cost: pass.est_cost,
            est_cost_vec: pass.est_cost_vec,
            signature: RuleSignature(fired),
            memo_groups: pass.memo_groups,
            memo_exprs: pass.memo_exprs,
            stats: CompileStats {
                compile_micros: start.elapsed().as_micros() as u64,
                ..pass.stats
            },
            footprint: pass.footprint,
        })
    }
}

/// The part of the signature every successful compile of `plan` under
/// `config` contains, known before exploring: the normalizers that fire
/// and the markers that the compile's own marker pass (`fire_markers`)
/// fires on the normalized plan's operator kinds. Returned with those
/// kind counts. Panics where normalization does, on a malformed plan.
pub fn certain_signature(plan: &PlanGraph, config: &RuleConfig) -> (RuleSet, [u32; OpKind::COUNT]) {
    let normal = normalization(plan);
    let mut certain = normal.fired;
    fire_markers(config, &normal.kind_counts, &mut certain);
    (certain, normal.kind_counts)
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
    compile_observed(job, config, &CompileBudget::default())
}

/// Compile `job` under `config` plus its hints on this thread's compile
/// scratch, observing its catalog into the scratch's.
fn compile_observed(
    job: &Job,
    config: &RuleConfig,
    budget: &CompileBudget,
) -> Result<CompiledPlan, CompileError> {
    let config = effective_config(job, config);
    with_thread_scratch(|scratch| {
        let mut obs = std::mem::take(&mut scratch.observed);
        job.catalog.observe_into(&mut obs);
        let compiled = compile_with_scratch(
            &job.plan,
            &obs,
            &config,
            budget,
            &CostModel::DEFAULT,
            scratch,
        );
        scratch.observed = obs;
        compiled
    })
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
    catch_compile_panics(|| compile_observed(job, config, budget))
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
    normalization(plan).kind_counts
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

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::ops::JoinKind;
    use scope_ir::{LogicalOp, TrueCatalog};

    use crate::ruleset::RuleId;

    /// Small enough for Miri: the memo is read by several implementation
    /// passes between two `clear`s, one pass fails part-way, and the slots
    /// of costed alternatives are reused for a smaller memo after a `clear`.
    #[test]
    fn batch_shares_explorations_and_matches_single_compiles() {
        let mut cat = TrueCatalog::new();
        let k0 = cat.add_column(50_000, 0.0, DomainId(0));
        let a = cat.add_column(200, 0.0, DomainId(1));
        let k1 = cat.add_column(50_000, 0.0, DomainId(0));
        cat.add_table(2_000_000, 120, 11, vec![k0, a]);
        cat.add_table(800_000, 80, 22, vec![k1]);
        let mut plan = PlanGraph::new();
        let s0 = plan.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = plan.add_unchecked(
            LogicalOp::Select {
                predicate: Predicate::atom(PredAtom::unknown(a, CmpOp::Eq, Literal::Int(7))),
            },
            vec![s0],
        );
        let s1 = plan.add_unchecked(LogicalOp::Get { table: TableId(1) }, vec![]);
        let j = plan.add_unchecked(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(k0, k1)],
            },
            vec![f, s1],
        );
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![j]);
        plan.set_root(o);
        let obs = cat.observe();

        let rules = RuleCatalog::global();
        let default = RuleConfig::default_config();
        let join_impls = rules.impls_for(OpKind::Join);
        let transform = *rules
            .transforms_for(OpKind::Join)
            .iter()
            .find(|&&id| default.is_enabled(id) && !rules.required().contains(id))
            .expect("a steerable join transformation");
        let without = |base: &RuleConfig, off: &[RuleId]| {
            let mut config = base.clone();
            for &id in off {
                config.disable(id);
            }
            config
        };
        let other = without(&default, &[transform]);
        // Without it the filtered scan is never rewritten: a smaller memo.
        let shifted = without(
            &default,
            &[rules.find("SelectPartitions").expect("catalog rule")],
        );
        // Three explorations (every transformation, all but `transform`,
        // all but `SelectPartitions`), the first serving three
        // configurations, one of which cannot implement.
        let configs = [
            default.clone(),
            without(&other, &join_impls[..1]),
            without(&default, &join_impls[..1]),
            without(&default, join_impls),
            other,
            without(&shifted, &join_impls[..1]),
            shifted,
        ];

        let budget = CompileBudget::default();
        let batch = compile_candidates(&plan, &obs, &configs, &budget, &CostModel::DEFAULT);
        assert_eq!(batch.len(), configs.len());
        for (config, got) in configs.iter().zip(&batch) {
            let alone = compile_with_budget(&plan, &obs, config, &budget);
            let pinned = |p: &CompiledPlan| (p.fingerprint(), p.est_cost_vec);
            assert_eq!(got.as_ref().map(pinned), alone.as_ref().map(pinned));
        }
        assert_eq!(
            batch[3].as_ref().map(|_| ()),
            Err(&CompileError::NoImplementation { kind: OpKind::Join })
        );
        let exprs = |i: usize| batch[i].as_ref().expect("compiles").memo_exprs;
        assert!(exprs(6) < exprs(4) && exprs(5) == exprs(6));
    }
}
