//! Cost-based search: memo exploration with the enabled transformation
//! rules, implementation with the enabled implementation rules (inserting
//! enforcer exchanges where partitioning requirements are unmet), and
//! extraction of the winning physical plan.
//!
//! ## Hot-path shape
//!
//! Exploration fuses the catalog's per-kind transform masks with the
//! configuration's enabled set **once per compile** into a
//! `[RuleSet; OpKind::COUNT]` table; visiting an expression is then a
//! 4-word bitset walk instead of collecting a `Vec<RuleId>` per
//! expression. Implementation state (winners, failures, visit marks,
//! extraction cache) lives in a reusable [`ImplementScratch`] of flat
//! per-group vectors rather than per-compile `HashMap`s. Both changes
//! preserve rule order exactly: catalog rule lists are ascending by id and
//! [`RuleSet::iter`] yields ascending ids.
//!
//! The implementation passes that share an exploration — a batch's
//! configurations that agree on every transformation rule — also share one
//! **table of costed alternatives**, kept in the same scratch. An
//! alternative is a memo expression under one implementation rule; its slot
//! holds what no configuration can change: the physical operator, its
//! degree of parallelism, the operator's own cost as the model's scalar
//! and as the corrected vector, and the partitioning it requires of each
//! child. The first pass to charge an alternative fills its slot
//! (`impl_cost` + `required_child_parts`, once per memo instead of once
//! per configuration); every pass, that one included, then ranks the
//! alternative on a scalar it adds up from the slot, the children's
//! winners and the exchanges they need, in the order the search always
//! added them. A configuration enters only through `enabled`: which slots
//! it walks, which exchanges it may insert, what it is charged.
//! *Only winners allocate:* the exchange list, output partitioning and
//! cost vector are built on a second walk over the children, for an
//! alternative that has just passed the strict `<` — most are costed to
//! lose. The table is forgotten exactly when the memo changes
//! (`Prepared::explore` in `optimizer.rs`: once per partition of a batch,
//! once per single compile), and by the public [`implement`] /
//! [`implement_with_model`] on entry, which cannot know what their
//! caller's scratch last saw. A single compile is a batch of one: it
//! fills each slot it touches once, which is the costing it always did.

use scope_ir::ids::NodeId;
use scope_ir::{LogicalOp, OpKind};

use crate::config::RuleConfig;
use crate::cost::{
    exchange_cost, exchange_impl_for, impl_cost, output_part, required_child_parts, CostEstimate,
    CostModel,
};
use crate::memo::{EstId, GroupId, MExprId, Memo};
use crate::physical::{Partitioning, PhysNode, PhysOp, PhysPlan};
use crate::rules::{PhysImpl, RuleAction, RuleCatalog};
use crate::ruleset::{RuleId, RuleSet};
use crate::transform::{apply_rule, TransformCtx};

/// Compilation failures caused by rule configurations — the paper's
/// "many of these may not compile successfully due to implicit
/// dependencies" — plus the resource-budget and panic-isolation failures
/// introduced by the hardening layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Every implementation rule for this operator kind is disabled.
    NoImplementation { kind: OpKind },
    /// A required exchange's implementation rule is disabled.
    NoExchangeImplementation,
    /// Internal guard: the memo contained a cycle (should never happen).
    CyclicMemo,
    /// The memo's hard expression cap was hit while ingesting the original
    /// plan (the plan alone is bigger than the whole exploration budget).
    MemoExhausted { groups: usize, exprs: usize },
    /// The per-compile task budget was exhausted mid-search.
    BudgetExhausted { phase: CompilePhase, tasks: u64 },
    /// The compile panicked and was isolated by
    /// [`crate::optimizer::catch_compile_panics`].
    Panicked { message: String },
}

impl CompileError {
    /// Whether this error must abort the whole compile immediately rather
    /// than merely disqualify one memo alternative.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            CompileError::MemoExhausted { .. }
                | CompileError::BudgetExhausted { .. }
                | CompileError::Panicked { .. }
        )
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NoImplementation { kind } => {
                write!(f, "no enabled implementation rule for {}", kind.name())
            }
            CompileError::NoExchangeImplementation => {
                write!(
                    f,
                    "no enabled exchange implementation for a required repartitioning"
                )
            }
            CompileError::CyclicMemo => write!(f, "cyclic memo"),
            CompileError::MemoExhausted { groups, exprs } => {
                write!(
                    f,
                    "memo exhausted during ingest ({groups} groups, {exprs} exprs)"
                )
            }
            CompileError::BudgetExhausted { phase, tasks } => {
                write!(
                    f,
                    "compile task budget exhausted during {} after {tasks} tasks",
                    phase.name()
                )
            }
            CompileError::Panicked { message } => write!(f, "compile panicked: {message}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Which search phase a budget ran out in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompilePhase {
    /// Transformation-rule exploration of the memo.
    Explore,
    /// Implementation / enforcement / costing.
    Implement,
}

impl CompilePhase {
    pub fn name(self) -> &'static str {
        match self {
            CompilePhase::Explore => "exploration",
            CompilePhase::Implement => "implementation",
        }
    }
}

/// Per-compile resource budget. One *task* is one unit of optimizer work:
/// one transformation-rule application attempt during exploration, or one
/// implementation alternative costed during implementation. The memo's
/// group/expression caps bound *space*; this bounds *time*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompileBudget {
    /// Maximum optimizer tasks per compile. Task counts don't depend on
    /// machine speed, so a budgeted compile stays fully deterministic.
    pub max_tasks: u64,
}

impl CompileBudget {
    /// Effectively no budget (for tests and calibration runs).
    pub const UNLIMITED: CompileBudget = CompileBudget {
        max_tasks: u64::MAX,
    };

    /// A budget of `max_tasks` optimizer tasks.
    pub fn with_max_tasks(max_tasks: u64) -> CompileBudget {
        CompileBudget { max_tasks }
    }
}

impl Default for CompileBudget {
    /// Generous enough that every well-behaved compile fits (the largest
    /// generated jobs take a few hundred thousand tasks), small enough that
    /// a pathological rule interaction cannot stall a discovery run.
    fn default() -> CompileBudget {
        CompileBudget {
            max_tasks: 5_000_000,
        }
    }
}

/// Mutable task accounting for one compile, threaded through exploration
/// and implementation. `Copy`, so every configuration that shares one
/// exploration starts its implementation pass from the exploration's task
/// count.
#[derive(Clone, Copy, Debug)]
pub struct BudgetTracker {
    max_tasks: u64,
    tasks: u64,
}

impl BudgetTracker {
    pub fn new(budget: &CompileBudget) -> BudgetTracker {
        BudgetTracker {
            max_tasks: budget.max_tasks,
            tasks: 0,
        }
    }

    /// Tasks charged so far.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Charge one task; errors once the budget is exhausted.
    pub fn charge(&mut self, phase: CompilePhase) -> Result<(), CompileError> {
        self.tasks += 1;
        if self.tasks > self.max_tasks {
            return Err(CompileError::BudgetExhausted {
                phase,
                tasks: self.tasks,
            });
        }
        Ok(())
    }
}

/// Result of a successful search.
pub struct SearchOutcome {
    pub plan: PhysPlan,
    pub est_cost: f64,
    /// Component-wise estimated cost of the whole plan (sum of reachable
    /// per-operator vectors, corrections applied).
    pub est_cost_vec: CostEstimate,
    /// Rules that contributed to the winning plan (transformations,
    /// implementations, enforcer + exchange implementations).
    pub used_rules: RuleSet,
}

/// Explore the memo: run every enabled transformation rule over every
/// expression (including rule outputs) until the list is exhausted or
/// budgets bite. Returns the number of expressions added; errors when the
/// compile budget runs out mid-exploration.
pub fn explore(
    memo: &mut Memo,
    config: &RuleConfig,
    ctx: &TransformCtx<'_>,
    tracker: &mut BudgetTracker,
) -> Result<usize, CompileError> {
    let cat = RuleCatalog::global();
    let before = memo.num_exprs();
    // Fuse "applicable to this kind" with "enabled in this config" once
    // per compile; each expression visit is then a 4-word bitset walk in
    // the exact ascending-id order the old per-expression `Vec<RuleId>`
    // collection produced.
    let mut masks = [RuleSet::EMPTY; OpKind::COUNT];
    for kind in OpKind::ALL {
        masks[kind as usize] = cat.transform_mask(kind).intersection(config.enabled());
    }
    let mut idx = 0usize;
    while idx < memo.num_exprs() {
        let expr_id = MExprId(idx as u32);
        let mask = masks[memo.kind_of(expr_id) as usize];
        for rid in mask.iter() {
            tracker.charge(CompilePhase::Explore)?;
            let rule = cat.rule(rid);
            apply_rule(rule, expr_id, memo, ctx);
        }
        idx += 1;
    }
    Ok(memo.num_exprs() - before)
}

/// The part of each configuration [`explore`] can see: its enabled rules
/// restricted to the transformation rules of all operator kinds. `explore`
/// reads a configuration only through its per-kind masks and `apply_rule`
/// never sees it, so configurations with equal keys explore identically —
/// the same memo, expression for expression, and the same task count.
pub(crate) fn exploration_keys(configs: &[RuleConfig]) -> Vec<RuleSet> {
    let cat = RuleCatalog::global();
    let transforms = OpKind::ALL.iter().fold(RuleSet::EMPTY, |all, &kind| {
        all.union(&cat.transform_mask(kind))
    });
    configs
        .iter()
        .map(|config| config.enabled().intersection(&transforms))
        .collect()
}

/// Per-group winning implementation.
#[derive(Clone, Debug)]
struct Winner {
    /// Scalarized subtree cost — the *only* value alternatives are ranked
    /// by. Produced by [`CostModel::scalar`] at the costing sites; the f64
    /// accumulation below is textually the same as the pre-vector model's,
    /// so the default model is bit-identical to the classic scalar.
    cost: f64,
    /// Component-wise subtree cost (corrections applied), carried for plan
    /// annotation and feedback; never compared.
    cost_vec: CostEstimate,
    expr: MExprId,
    phys: PhysImpl,
    impl_rule: RuleId,
    out_part: Partitioning,
    dop: u32,
    /// Per child: exchange to insert (impl, rule id, scheme, dop), if any.
    exchanges: Vec<Option<(PhysImpl, RuleId, Partitioning, u32)>>,
    est: EstId,
}

/// One costed alternative — a memo expression under one implementation
/// rule — reduced to what no rule configuration can change.
struct CostedAlt {
    phys: PhysImpl,
    dop: u32,
    /// [`CostModel::scalar`] of the operator's own cost.
    scalar: f64,
    /// [`CostModel::corrected`] of the operator's own cost.
    vec: CostEstimate,
    /// Required partitioning per child ([`required_child_parts`]); empty
    /// when no child is constrained, which is most operators.
    reqs: Box<[Partitioning]>,
}

impl CostedAlt {
    fn cost(
        memo: &Memo,
        expr: MExprId,
        phys: PhysImpl,
        obs: &scope_ir::ObservableCatalog,
        model: &CostModel,
    ) -> CostedAlt {
        let op = memo.op(expr);
        let children = memo.children(expr);
        let child_ests = memo.group_ests(children);
        let oc = impl_cost(phys, op, memo.expr_est(expr), &child_ests, obs);
        let mut reqs = required_child_parts(phys, op, children.len());
        if reqs.iter().all(|req| matches!(req, Partitioning::Any)) {
            reqs = Vec::new();
        }
        // Scalarize at the costing site; the f64 accumulation in `best` is
        // textually the pre-vector model's, so default-model compiles stay
        // bit-identical to the classic scalar path.
        CostedAlt {
            phys,
            dop: oc.dop,
            scalar: model.scalar(&oc.cost),
            vec: model.corrected(&oc.cost),
            reqs: reqs.into_boxed_slice(),
        }
    }
}

/// Reusable implementation-phase state: flat per-group vectors replacing
/// the per-compile `HashMap`s, and the table of costed alternatives of the
/// memo being implemented. [`ImplementScratch::reset`] re-sizes without
/// freeing, so a thread-local compile scratch allocates nothing once warm.
#[derive(Default)]
pub struct ImplementScratch {
    winners: Vec<Option<Winner>>,
    failures: Vec<Option<CompileError>>,
    visiting: Vec<bool>,
    built: Vec<Option<NodeId>>,
    /// Per memo expression: its first slot in `alts`. Empty between
    /// [`ImplementScratch::forget_costed`] and the next pass, which lays
    /// the table out for the memo it is given.
    alt_base: Vec<u32>,
    /// One slot per (expression, applicable implementation rule), in
    /// `impls_for(kind)` order from the expression's base; filled by the
    /// first pass that charges the alternative, read by every later one.
    alts: Vec<Option<CostedAlt>>,
}

impl ImplementScratch {
    pub fn new() -> ImplementScratch {
        ImplementScratch::default()
    }

    /// Drop every costed alternative. Whoever changes the memo (or the
    /// cost model, or the catalog the costs were read from) calls this
    /// before the next pass: slots are keyed by expression index alone.
    pub(crate) fn forget_costed(&mut self) {
        self.alt_base.clear();
        self.alts.clear();
    }

    fn reset(&mut self, memo: &Memo) {
        let n_groups = memo.num_groups();
        self.winners.clear();
        self.winners.resize_with(n_groups, || None);
        self.failures.clear();
        self.failures.resize_with(n_groups, || None);
        self.visiting.clear();
        self.visiting.resize(n_groups, false);
        self.built.clear();
        self.built.resize(n_groups, None);
        if self.alt_base.is_empty() {
            // First pass since the table was forgotten: one empty slot per
            // alternative of `memo`, sized exactly — the table is as large
            // as the largest memo this scratch has seen, and no larger.
            let cat = RuleCatalog::global();
            let mut n_slots = 0u32;
            self.alt_base.extend(memo.expr_ids().map(|expr| {
                let base = n_slots;
                n_slots += cat.impls_for(memo.kind_of(expr)).len() as u32;
                base
            }));
            self.alts.reserve_exact(n_slots as usize);
            self.alts.resize_with(n_slots as usize, || None);
        }
        debug_assert_eq!(self.alt_base.len(), memo.num_exprs());
    }
}

/// Compute winners for all groups reachable from `root` and extract the
/// cheapest physical plan: the reference form (fresh scratch, default cost
/// model) the frozen `classic` oracle and the corruption tests drive.
pub fn implement(
    memo: &Memo,
    root: GroupId,
    config: &RuleConfig,
    obs: &scope_ir::ObservableCatalog,
    tracker: &mut BudgetTracker,
) -> Result<SearchOutcome, CompileError> {
    implement_with_model(
        memo,
        root,
        config,
        obs,
        tracker,
        &mut ImplementScratch::new(),
        &CostModel::DEFAULT,
    )
}

/// [`implement`] against caller-owned scratch (allocation reuse across
/// compiles) under an explicit cost model (scalarization weights +
/// feedback corrections). `CostModel::DEFAULT` is bit-identical to the
/// classic scalar path. Nothing says `scratch` last saw this memo, model
/// and catalog, so its costed alternatives are forgotten first.
#[allow(clippy::too_many_arguments)]
pub fn implement_with_model(
    memo: &Memo,
    root: GroupId,
    config: &RuleConfig,
    obs: &scope_ir::ObservableCatalog,
    tracker: &mut BudgetTracker,
    scratch: &mut ImplementScratch,
    model: &CostModel,
) -> Result<SearchOutcome, CompileError> {
    scratch.forget_costed();
    implement_pass(memo, root, config, obs, tracker, scratch, model)
}

/// One implementation pass that trusts `scratch`'s costed alternatives:
/// the caller guarantees every pass since the last
/// [`ImplementScratch::forget_costed`] read this same `memo` (unchanged),
/// `obs` and `model`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn implement_pass(
    memo: &Memo,
    root: GroupId,
    config: &RuleConfig,
    obs: &scope_ir::ObservableCatalog,
    tracker: &mut BudgetTracker,
    scratch: &mut ImplementScratch,
    model: &CostModel,
) -> Result<SearchOutcome, CompileError> {
    scratch.reset(memo);
    let cat = RuleCatalog::global();
    let mut pass = Pass {
        memo,
        config,
        obs,
        model,
        cat,
        winners: &mut scratch.winners,
        failures: &mut scratch.failures,
        visiting: &mut scratch.visiting,
        alt_base: &scratch.alt_base,
        alts: &mut scratch.alts,
        tracker,
    };
    pass.best(root)?;

    // Extraction.
    let mut plan = PhysPlan::new();
    let mut used = RuleSet::EMPTY;
    let root_node = extract(
        memo,
        root,
        &scratch.winners,
        &mut plan,
        &mut scratch.built,
        &mut used,
        cat.enforce_exchange(),
        model,
    );
    plan.set_root(root_node);
    let est_cost = plan.total_est_cost();
    let est_cost_vec = plan.total_est_cost_vec();
    Ok(SearchOutcome {
        plan,
        est_cost,
        est_cost_vec,
        used_rules: used,
    })
}

/// The exchange a child delivering `have` needs under requirement `req`.
#[inline]
fn enforcer_for(have: &Partitioning, req: &Partitioning) -> Option<PhysImpl> {
    if have.satisfies(req) {
        None
    } else {
        exchange_impl_for(req)
    }
}

/// The requirement on child `i`; implementations that list fewer
/// requirements than children leave the rest unconstrained.
#[inline]
fn req_of(reqs: &[Partitioning], i: usize) -> &Partitioning {
    static ANY: Partitioning = Partitioning::Any;
    reqs.get(i).unwrap_or(&ANY)
}

/// One configuration's walk over the memo. The configuration enters only
/// through `config.enabled()`; everything else an alternative costs is read
/// from (or filled into) the shared table.
struct Pass<'a> {
    memo: &'a Memo,
    config: &'a RuleConfig,
    obs: &'a scope_ir::ObservableCatalog,
    model: &'a CostModel,
    cat: &'static RuleCatalog,
    winners: &'a mut [Option<Winner>],
    failures: &'a mut [Option<CompileError>],
    visiting: &'a mut [bool],
    alt_base: &'a [u32],
    alts: &'a mut [Option<CostedAlt>],
    tracker: &'a mut BudgetTracker,
}

impl Pass<'_> {
    fn best(&mut self, group: GroupId) -> Result<f64, CompileError> {
        if let Some(w) = &self.winners[group.index()] {
            return Ok(w.cost);
        }
        if let Some(e) = &self.failures[group.index()] {
            return Err(e.clone());
        }
        if self.visiting[group.index()] {
            return Err(CompileError::CyclicMemo);
        }
        self.visiting[group.index()] = true;

        let memo = self.memo;
        let enabled = self.config.enabled();
        let mut best_winner: Option<Winner> = None;
        let mut kind_without_impl: Option<OpKind> = None;
        let mut exchange_blocked = false;
        let mut child_failure: Option<CompileError> = None;

        for expr_id in memo.group_exprs(group) {
            let kind = memo.kind_of(expr_id);
            let children = memo.children(expr_id);
            // Resolve children first. A child group with no feasible
            // implementation only disqualifies *this alternative* — other
            // expressions in the group may avoid that subtree entirely.
            // Compilation as a whole fails only when the root group ends up
            // with no feasible implementation.
            let mut ok = true;
            for &c in children {
                if self.winners[c.index()].is_some() {
                    continue;
                }
                match self.best(c) {
                    Ok(_) => {}
                    // Budget exhaustion (and friends) abort the whole compile —
                    // unlike per-alternative infeasibility, there is no point
                    // trying sibling alternatives with an empty budget.
                    Err(e) if e.is_fatal() => return Err(e),
                    Err(CompileError::NoExchangeImplementation) => {
                        exchange_blocked = true;
                        ok = false;
                        break;
                    }
                    Err(e) => {
                        if !matches!(e, CompileError::CyclicMemo) {
                            child_failure.get_or_insert(e);
                        }
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }

            // Applicable implementations ∩ enabled, ascending by rule id:
            // the catalog's per-kind list is the mask's iteration order, and
            // a rule's position in it is its slot.
            let impls = self.cat.impls_for(kind);
            let base = self.alt_base[expr_id.index()] as usize;
            let mut any_enabled = false;
            for (slot, &impl_rule) in impls.iter().enumerate() {
                if !enabled.contains(impl_rule) {
                    continue;
                }
                any_enabled = true;
                self.tracker.charge(CompilePhase::Implement)?;
                if self.alts[base + slot].is_none() {
                    let RuleAction::Impl(phys) = self.cat.rule(impl_rule).action else {
                        continue;
                    };
                    self.alts[base + slot] =
                        Some(CostedAlt::cost(memo, expr_id, phys, self.obs, self.model));
                }
                let alt = self.alts[base + slot].as_ref().expect("slot filled above");

                // Rank on the scalar alone: own cost, then per child its
                // subtree and the exchange it needs, in that order.
                let mut candidate_cost = alt.scalar;
                let mut feasible = true;
                for (i, &c) in children.iter().enumerate() {
                    let child_w = self.winners[c.index()]
                        .as_ref()
                        .expect("child winner resolved");
                    candidate_cost += child_w.cost;
                    let Some(ex_impl) = enforcer_for(&child_w.out_part, req_of(&alt.reqs, i))
                    else {
                        continue;
                    };
                    let ex_rule = self
                        .cat
                        .rule_for_impl(ex_impl)
                        .expect("exchange impl rule exists");
                    if !enabled.contains(ex_rule) {
                        exchange_blocked = true;
                        feasible = false;
                        break;
                    }
                    let ex_cost =
                        exchange_cost(ex_impl, memo.est(child_w.est).bytes(), alt.dop.max(1));
                    candidate_cost += self.model.scalar(&ex_cost.cost);
                }
                if !feasible {
                    continue;
                }
                if best_winner.as_ref().is_none_or(|w| candidate_cost < w.cost) {
                    best_winner = Some(self.winner(expr_id, impl_rule, alt, candidate_cost));
                }
            }
            if !any_enabled {
                kind_without_impl = Some(kind);
            }
        }

        self.visiting[group.index()] = false;
        match best_winner {
            Some(w) => {
                let cost = w.cost;
                self.winners[group.index()] = Some(w);
                Ok(cost)
            }
            None => {
                // Prefer the most specific cause: a kind with no enabled
                // implementation here, then a child subtree's cause, then the
                // exchange enforcer.
                let err = if let Some(kind) = kind_without_impl {
                    CompileError::NoImplementation { kind }
                } else if let Some(e) = child_failure {
                    e
                } else if exchange_blocked {
                    CompileError::NoExchangeImplementation
                } else {
                    CompileError::NoImplementation {
                        kind: memo.canonical_kind(group),
                    }
                };
                self.failures[group.index()] = Some(err.clone());
                Err(err)
            }
        }
    }

    /// Everything a winner carries beyond its rank: the second walk over
    /// the children of an alternative that passed the strict `<`, adding the
    /// cost vector in the order the scalar was added.
    fn winner(&self, expr: MExprId, impl_rule: RuleId, alt: &CostedAlt, cost: f64) -> Winner {
        let memo = self.memo;
        let children = memo.children(expr);
        let mut cost_vec = alt.vec;
        let mut exchanges = Vec::with_capacity(children.len());
        let mut child_parts = Vec::with_capacity(children.len());
        for (i, &c) in children.iter().enumerate() {
            let req = req_of(&alt.reqs, i);
            let child_w = self.winners[c.index()]
                .as_ref()
                .expect("child winner resolved");
            cost_vec = cost_vec.add(&child_w.cost_vec);
            let Some(ex_impl) = enforcer_for(&child_w.out_part, req) else {
                exchanges.push(None);
                child_parts.push(child_w.out_part.clone());
                continue;
            };
            let ex_rule = self
                .cat
                .rule_for_impl(ex_impl)
                .expect("exchange impl rule exists");
            let ex_dop = match req {
                Partitioning::Singleton => 1,
                _ => alt.dop,
            };
            let ex_cost = exchange_cost(ex_impl, memo.est(child_w.est).bytes(), alt.dop.max(1));
            cost_vec = cost_vec.add(&self.model.corrected(&ex_cost.cost));
            exchanges.push(Some((ex_impl, ex_rule, req.clone(), ex_dop)));
            child_parts.push(req.clone());
        }
        Winner {
            cost,
            cost_vec,
            expr,
            phys: alt.phys,
            impl_rule,
            out_part: output_part(alt.phys, memo.op(expr), &child_parts),
            dop: alt.dop,
            exchanges,
            est: memo.expr(expr).est,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn extract(
    memo: &Memo,
    group: GroupId,
    winners: &[Option<Winner>],
    plan: &mut PhysPlan,
    built: &mut [Option<NodeId>],
    used: &mut RuleSet,
    enforce_rule: RuleId,
    model: &CostModel,
) -> NodeId {
    if let Some(node) = built[group.index()] {
        return node;
    }
    let w = winners[group.index()]
        .as_ref()
        .expect("winner for reachable group");
    let children = memo.children(w.expr);
    let mut child_nodes = Vec::with_capacity(children.len());
    for (i, &c) in children.iter().enumerate() {
        let mut node = extract(memo, c, winners, plan, built, used, enforce_rule, model);
        if let Some((ex_impl, ex_rule, scheme, ex_dop)) = &w.exchanges[i] {
            let child_w = winners[c.index()].as_ref().expect("child winner");
            let child_est = memo.est(child_w.est);
            let ex_cost = exchange_cost(*ex_impl, child_est.bytes(), w.dop.max(1));
            node = plan.add(PhysNode {
                op: PhysOp::Exchange {
                    scheme: scheme.clone(),
                    dop: *ex_dop,
                },
                children: vec![node],
                est_rows: child_est.rows,
                est_bytes: child_est.bytes(),
                est_cost: model.scalar(&ex_cost.cost),
                est_cost_vec: model.corrected(&ex_cost.cost),
                partitioning: scheme.clone(),
                dop: *ex_dop,
                created_by: Some(*ex_rule),
                logical_rule: None,
            });
            used.insert(*ex_rule);
            used.insert(enforce_rule);
        }
        child_nodes.push(node);
    }
    let child_cost = |c: GroupId| winners[c.index()].as_ref().expect("child winner").cost;
    let own_cost = w.cost
        - children.iter().map(|&c| child_cost(c)).sum::<f64>()
        - w.exchanges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                e.as_ref().map(|(ex_impl, _, _, _)| {
                    let child_w = winners[children[i].index()].as_ref().expect("child winner");
                    let ex = exchange_cost(*ex_impl, memo.est(child_w.est).bytes(), w.dop.max(1));
                    model.scalar(&ex.cost)
                })
            })
            .sum::<f64>();
    // Component-wise own cost: the subtree vector minus resolved child and
    // exchange vectors, floored at zero like the scalar.
    let mut own_vec = w.cost_vec;
    for &c in children {
        own_vec =
            own_vec.saturating_sub(&winners[c.index()].as_ref().expect("child winner").cost_vec);
    }
    for (i, e) in w.exchanges.iter().enumerate() {
        if let Some((ex_impl, _, _, _)) = e {
            let child_w = winners[children[i].index()].as_ref().expect("child winner");
            let ex = exchange_cost(*ex_impl, memo.est(child_w.est).bytes(), w.dop.max(1));
            own_vec = own_vec.saturating_sub(&model.corrected(&ex.cost));
        }
    }
    let w_est = memo.est(w.est);
    let created_by_logical = memo.expr(w.expr).created_by;
    let node = plan.add(PhysNode {
        op: phys_op_for(w.phys, memo.op(w.expr)),
        children: child_nodes,
        est_rows: w_est.rows,
        est_bytes: w_est.bytes(),
        est_cost: own_cost.max(0.0),
        est_cost_vec: own_vec,
        partitioning: w.out_part.clone(),
        dop: w.dop,
        created_by: Some(w.impl_rule),
        logical_rule: created_by_logical,
    });
    used.insert(w.impl_rule);
    if let Some(t) = created_by_logical {
        used.insert(t);
    }
    built[group.index()] = Some(node);
    node
}

/// Map a logical operator plus chosen implementation to a physical operator.
pub(crate) fn phys_op_for(phys: PhysImpl, op: &LogicalOp) -> PhysOp {
    use PhysImpl::*;
    match (phys, op) {
        (ScanSerial, LogicalOp::RangeGet { table, pushed }) => PhysOp::Scan {
            table: *table,
            pushed: pushed.clone(),
            parallel: false,
            indexed: false,
        },
        (ScanParallel, LogicalOp::RangeGet { table, pushed }) => PhysOp::Scan {
            table: *table,
            pushed: pushed.clone(),
            parallel: true,
            indexed: false,
        },
        (ScanIndexed, LogicalOp::RangeGet { table, pushed }) => PhysOp::Scan {
            table: *table,
            pushed: pushed.clone(),
            parallel: true,
            indexed: true,
        },
        (FilterImpl, LogicalOp::Filter { predicate }) => PhysOp::Filter {
            predicate: predicate.clone(),
        },
        (ProjectImpl, LogicalOp::Project { cols, computed }) => PhysOp::Project {
            cols: cols.clone(),
            computed: *computed,
        },
        (HashJoin1, LogicalOp::Join { kind, keys }) => PhysOp::HashJoin {
            kind: *kind,
            keys: keys.clone(),
            variant: 1,
        },
        (HashJoin2, LogicalOp::Join { kind, keys }) => PhysOp::HashJoin {
            kind: *kind,
            keys: keys.clone(),
            variant: 2,
        },
        (HashJoin3, LogicalOp::Join { kind, keys }) => PhysOp::HashJoin {
            kind: *kind,
            keys: keys.clone(),
            variant: 3,
        },
        (MergeJoin, LogicalOp::Join { kind, keys }) => PhysOp::MergeJoin {
            kind: *kind,
            keys: keys.clone(),
        },
        (BroadcastJoin, LogicalOp::Join { kind, keys }) => PhysOp::BroadcastJoin {
            kind: *kind,
            keys: keys.clone(),
        },
        (LoopJoin, LogicalOp::Join { kind, keys }) => PhysOp::LoopJoin {
            kind: *kind,
            keys: keys.clone(),
        },
        (IndexJoin, LogicalOp::Join { kind, keys }) => PhysOp::IndexJoin {
            kind: *kind,
            keys: keys.clone(),
        },
        (
            HashAgg,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            },
        ) => PhysOp::HashAgg {
            keys: keys.clone(),
            aggs: aggs.clone(),
            partial: *partial,
        },
        (
            SortAgg,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            },
        ) => PhysOp::SortAgg {
            keys: keys.clone(),
            aggs: aggs.clone(),
            partial: *partial,
        },
        (
            StreamAgg,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            },
        ) => PhysOp::StreamAgg {
            keys: keys.clone(),
            aggs: aggs.clone(),
            partial: *partial,
        },
        (UnionConcat, LogicalOp::UnionAll) => PhysOp::UnionAll { serial: false },
        (UnionSerial, LogicalOp::UnionAll) => PhysOp::UnionAll { serial: true },
        (UnionVirtual, LogicalOp::UnionAll) => PhysOp::VirtualDataset,
        (VirtualDatasetImpl, LogicalOp::VirtualDataset) => PhysOp::VirtualDataset,
        (TopN, LogicalOp::Top { k }) => PhysOp::Top { k: *k, heap: true },
        (TopSort, LogicalOp::Top { k }) => PhysOp::Top { k: *k, heap: false },
        (SortParallel, LogicalOp::Sort { keys }) => PhysOp::Sort {
            keys: keys.clone(),
            parallel: true,
        },
        (SortSerial, LogicalOp::Sort { keys }) => PhysOp::Sort {
            keys: keys.clone(),
            parallel: false,
        },
        (WindowHash, LogicalOp::Window { keys }) => PhysOp::Window {
            keys: keys.clone(),
            hash_based: true,
        },
        (WindowSort, LogicalOp::Window { keys }) => PhysOp::Window {
            keys: keys.clone(),
            hash_based: false,
        },
        (ProcessParallel, LogicalOp::Process { udo }) => PhysOp::Process {
            udo: *udo,
            parallel: true,
        },
        (ProcessSerial, LogicalOp::Process { udo }) => PhysOp::Process {
            udo: *udo,
            parallel: false,
        },
        (OutputImpl, LogicalOp::Output { stream }) => PhysOp::Output { stream: *stream },
        (p, o) => unreachable!("implementation {p:?} cannot implement {:?}", o.kind()),
    }
}
