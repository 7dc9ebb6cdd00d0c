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
//! extraction cache) lives in a reusable `ImplementScratch` of flat
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
//! and as the corrected vector, the partitioning it requires of each
//! child, and the partitioning it delivers unless that is its first
//! child's. The first pass to charge an alternative fills its slot
//! (`impl_cost` + `required_child_parts` + `output_part`, once per memo
//! instead of once per configuration); every pass, that one included, then
//! ranks the alternative on a scalar it adds up from the slot, the
//! children's winners and the exchanges they need, in the order the search
//! always added them. A configuration enters only through `enabled`: which
//! slots it walks, which exchanges it may insert, what it is charged.
//! *What a pass keeps owns no heap memory:* a winner is a `Copy` record
//! whose partitioning is a handle into the table, and its cost vector is
//! added up on a second walk over the children for an alternative that has
//! just passed the strict `<`. Extraction rebuilds the exchanges the search
//! chose from the winning slot's requirements and the children's handles,
//! through the same `enforcer_for`. The table is forgotten exactly when
//! the memo changes (`Prepared::explore` in `optimizer.rs`: once per
//! partition of a batch, once per single compile), and by the public
//! [`implement`] / `implement_with_model` on entry, which cannot know
//! what their caller's scratch last saw. A single compile is a batch of
//! one: it fills each slot it touches once, which is the costing it always
//! did.

use scope_ir::ids::NodeId;
use scope_ir::{LogicalOp, OpKind};

use crate::config::RuleConfig;
use crate::cost::{
    exchange_cost, exchange_impl_for, impl_cost, output_part, required_child_parts, CostEstimate,
    CostModel, OpCost,
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
    pub(crate) fn charge(&mut self, phase: CompilePhase) -> Result<(), CompileError> {
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

/// Per-group winning implementation: a `Copy` record that owns no heap
/// memory. What it does not carry — operator, degree of parallelism,
/// requirements, exchanges — is read from its slot in the table.
#[derive(Clone, Copy, Debug)]
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
    impl_rule: RuleId,
    /// The winning alternative's slot in `ImplementScratch::alts`.
    slot: u32,
    /// The partitioning the subtree delivers.
    part: PartRef,
    est: EstId,
}

const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Winner>();
};

/// Where in the table of costed alternatives a winner's output
/// partitioning lives. Only an operator's first child's partitioning is
/// ever passed on ([`output_part`]), so a requirement is a handle only on
/// that child.
#[derive(Clone, Copy, Debug)]
enum PartRef {
    /// The `out` of slot `s`.
    Out(u32),
    /// The requirement on the first child of slot `s`, met by an exchange.
    FirstReq(u32),
}

/// The partitioning `r` names.
#[inline]
fn part_of(alts: &[Option<CostedAlt>], r: PartRef) -> &Partitioning {
    let filled = |s: u32| alts[s as usize].as_ref().expect("handle to a filled slot");
    match r {
        PartRef::Out(s) => filled(s).out.as_ref().expect("slot delivers its own"),
        PartRef::FirstReq(s) => req_of(&filled(s).reqs, 0),
    }
}

/// One costed alternative — a memo expression under one implementation
/// rule — reduced to what no rule configuration can change. Its heap
/// memory (requirement and output key lists) is allocated once per memo,
/// when the slot is filled.
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
    /// The partitioning the operator delivers ([`output_part`]); `None`
    /// when it passes on its first child's.
    out: Option<Partitioning>,
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
        let out =
            (children.is_empty() || !passes_through(phys, op)).then(|| output_part(phys, op, &[]));
        // `output_part` delivers `Broadcast` only by handing a child's on, so
        // a broadcast first child shows whether `passes_through` is right.
        debug_assert_eq!(
            out.is_none(),
            !children.is_empty()
                && output_part(phys, op, &[Partitioning::Broadcast]) == Partitioning::Broadcast,
            "{phys:?} and output_part disagree on passing a child's partitioning on"
        );
        // Scalarize at the costing site; the f64 accumulation in `best` is
        // textually the pre-vector model's, so default-model compiles stay
        // bit-identical to the classic scalar path.
        CostedAlt {
            phys,
            dop: oc.dop,
            scalar: model.scalar(&oc.cost),
            vec: model.corrected(&oc.cost),
            reqs: reqs.into_boxed_slice(),
            out,
        }
    }
}

/// Whether [`output_part`] hands on the first child's partitioning; for
/// every other implementation it decides without reading the children.
fn passes_through(phys: PhysImpl, op: &LogicalOp) -> bool {
    use PhysImpl::*;
    match phys {
        FilterImpl | ProjectImpl | ProcessParallel | TopN | BroadcastJoin | IndexJoin => true,
        HashAgg | SortAgg | StreamAgg => matches!(op, LogicalOp::GroupBy { partial: true, .. }),
        _ => false,
    }
}

/// Reusable implementation-phase state: flat per-group vectors replacing
/// the per-compile `HashMap`s, and the table of costed alternatives of the
/// memo being implemented. `ImplementScratch::reset` re-sizes without
/// freeing, and winners are `Copy` handles into the table, so a pass whose
/// slots are already filled allocates nothing before extraction.
#[derive(Default)]
pub(crate) struct ImplementScratch {
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
        self.winners.resize(n_groups, None);
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
pub(crate) fn implement_with_model(
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
        &scratch.alts,
        &mut plan,
        &mut scratch.built,
        &mut used,
        cat,
        model,
    );
    plan.set_root(root_node);
    // `extract` built every node from the root, so arena order is the
    // ascending order of `reachable()` and the sums are its walk's bits.
    let est_cost: f64 = plan.iter().map(|(_, node)| node.est_cost).sum();
    let est_cost_vec = plan.iter().fold(CostEstimate::ZERO, |acc, (_, node)| {
        acc.add(&node.est_cost_vec)
    });
    debug_assert_eq!(est_cost.to_bits(), plan.total_est_cost().to_bits());
    debug_assert_eq!(est_cost_vec, plan.total_est_cost_vec());
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
                    let have = part_of(self.alts, child_w.part);
                    let Some(ex_impl) = enforcer_for(have, req_of(&alt.reqs, i)) else {
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
                    best_winner =
                        Some(self.winner(expr_id, impl_rule, base + slot, candidate_cost));
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
    fn winner(&self, expr: MExprId, impl_rule: RuleId, slot: usize, cost: f64) -> Winner {
        let memo = self.memo;
        let alt = self.alts[slot].as_ref().expect("slot filled");
        let mut cost_vec = alt.vec;
        let mut part = PartRef::Out(slot as u32);
        for (i, &c) in memo.children(expr).iter().enumerate() {
            let child_w = self.winners[c.index()]
                .as_ref()
                .expect("child winner resolved");
            cost_vec = cost_vec.add(&child_w.cost_vec);
            let ex_impl = enforcer_for(part_of(self.alts, child_w.part), req_of(&alt.reqs, i));
            if i == 0 && alt.out.is_none() {
                part = match ex_impl {
                    Some(_) => PartRef::FirstReq(slot as u32),
                    None => child_w.part,
                };
            }
            let Some(ex_impl) = ex_impl else {
                continue;
            };
            let ex_cost = exchange_cost(ex_impl, memo.est(child_w.est).bytes(), alt.dop.max(1));
            cost_vec = cost_vec.add(&self.model.corrected(&ex_cost.cost));
        }
        Winner {
            cost,
            cost_vec,
            expr,
            impl_rule,
            slot: slot as u32,
            part,
            est: memo.expr(expr).est,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn extract(
    memo: &Memo,
    group: GroupId,
    winners: &[Option<Winner>],
    alts: &[Option<CostedAlt>],
    plan: &mut PhysPlan,
    built: &mut [Option<NodeId>],
    used: &mut RuleSet,
    cat: &RuleCatalog,
    model: &CostModel,
) -> NodeId {
    if let Some(node) = built[group.index()] {
        return node;
    }
    let child_winner = |c: GroupId| winners[c.index()].as_ref().expect("child winner");
    let w = winners[group.index()]
        .as_ref()
        .expect("winner for reachable group");
    let alt = alts[w.slot as usize]
        .as_ref()
        .expect("winner's slot filled");
    let children = memo.children(w.expr);
    // The exchange the search inserted above child `i`, rebuilt as it found
    // it: its implementation, its scheme and its cost.
    let exchange = |i: usize| -> Option<(PhysImpl, &Partitioning, OpCost)> {
        let child_w = child_winner(children[i]);
        let req = req_of(&alt.reqs, i);
        let ex_impl = enforcer_for(part_of(alts, child_w.part), req)?;
        let bytes = memo.est(child_w.est).bytes();
        Some((ex_impl, req, exchange_cost(ex_impl, bytes, alt.dop.max(1))))
    };
    let mut child_nodes = Vec::with_capacity(children.len());
    for (i, &c) in children.iter().enumerate() {
        let mut node = extract(memo, c, winners, alts, plan, built, used, cat, model);
        if let Some((ex_impl, scheme, ex_cost)) = exchange(i) {
            let ex_rule = cat
                .rule_for_impl(ex_impl)
                .expect("exchange impl rule exists");
            let ex_dop = match scheme {
                Partitioning::Singleton => 1,
                _ => alt.dop,
            };
            let child_est = memo.est(child_winner(c).est);
            node = plan.add(PhysNode {
                op: PhysOp::Exchange {
                    scheme: scheme.clone(),
                    dop: ex_dop,
                },
                children: vec![node],
                est_rows: child_est.rows,
                est_bytes: child_est.bytes(),
                est_cost: model.scalar(&ex_cost.cost),
                est_cost_vec: model.corrected(&ex_cost.cost),
                partitioning: scheme.clone(),
                dop: ex_dop,
                created_by: Some(ex_rule),
                logical_rule: None,
            });
            used.insert(ex_rule);
            used.insert(cat.enforce_exchange());
        }
        child_nodes.push(node);
    }
    let own_cost = w.cost
        - children.iter().map(|&c| child_winner(c).cost).sum::<f64>()
        - (0..children.len())
            .filter_map(exchange)
            .map(|(_, _, ex)| model.scalar(&ex.cost))
            .sum::<f64>();
    // Component-wise own cost: the subtree vector minus resolved child and
    // exchange vectors, floored at zero like the scalar.
    let mut own_vec = w.cost_vec;
    for &c in children {
        own_vec = own_vec.saturating_sub(&child_winner(c).cost_vec);
    }
    for (_, _, ex) in (0..children.len()).filter_map(exchange) {
        own_vec = own_vec.saturating_sub(&model.corrected(&ex.cost));
    }
    let w_est = memo.est(w.est);
    let created_by_logical = memo.expr(w.expr).created_by;
    let node = plan.add(PhysNode {
        op: phys_op_for(alt.phys, memo.op(w.expr)),
        children: child_nodes,
        est_rows: w_est.rows,
        est_bytes: w_est.bytes(),
        est_cost: own_cost.max(0.0),
        est_cost_vec: own_vec,
        partitioning: part_of(alts, w.part).clone(),
        dop: alt.dop,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Estimator;
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::ops::JoinKind;
    use scope_ir::{PlanGraph, Predicate, TrueCatalog};

    /// Small enough for Miri: winner handles index the table across `best`
    /// and `extract`, and the table outlives a pass. A cross join's index
    /// join gathers both inputs and passes its first requirement on as its
    /// own partitioning. The first pass fills every slot; the second, with
    /// the index join the only join left, takes that requirement handle
    /// from a slot the first pass filled, and its extraction rebuilds the
    /// gathers from it.
    #[test]
    fn a_winner_reads_a_requirement_handle_filled_by_an_earlier_pass() {
        let mut cat = TrueCatalog::new();
        let a = cat.add_column(1_000, 0.0, DomainId(0));
        let b = cat.add_column(1_000, 0.0, DomainId(1));
        cat.add_table(400_000, 60, 1, vec![a]);
        cat.add_table(300, 40, 2, vec![b]);
        let obs = cat.observe();
        let mut plan = PlanGraph::new();
        let range = |t| LogicalOp::RangeGet {
            table: TableId(t),
            pushed: Predicate::true_pred(),
        };
        let l = plan.add_unchecked(range(0), vec![]);
        let r = plan.add_unchecked(range(1), vec![]);
        let cross = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![],
        };
        let j = plan.add_unchecked(cross, vec![l, r]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![j]);
        plan.set_root(o);
        let (memo, root) = Memo::from_plan(&plan, &Estimator::new(&obs)).expect("ingests");

        let rules = RuleCatalog::global();
        let rule = |phys| rules.rule_for_impl(phys).expect("implementation rule");
        let mut all = RuleConfig::from_enabled(RuleSet::FULL);
        all.disable(rule(PhysImpl::ScanSerial));
        let mut index_only = all.clone();
        for &id in rules.impls_for(OpKind::Join) {
            if id != rule(PhysImpl::IndexJoin) {
                index_only.disable(id);
            }
        }
        let pass = |config: &RuleConfig, scratch: &mut ImplementScratch| {
            let mut tracker = BudgetTracker::new(&CompileBudget::UNLIMITED);
            let model = &CostModel::DEFAULT;
            implement_pass(&memo, root, config, &obs, &mut tracker, scratch, model)
                .expect("implements")
        };
        let filled = |scratch: &ImplementScratch| scratch.alts.iter().flatten().count();

        let mut scratch = ImplementScratch::new();
        pass(&all, &mut scratch);
        let after_first = filled(&scratch);
        let shared = pass(&index_only, &mut scratch);
        assert_eq!(
            filled(&scratch),
            after_first,
            "the second pass filled a slot"
        );
        assert!(scratch
            .winners
            .iter()
            .flatten()
            .any(|w| matches!(w.part, PartRef::FirstReq(_))));

        let alone = pass(&index_only, &mut ImplementScratch::new());
        assert_eq!(shared.plan.render(), alone.plan.render());
        assert_eq!(shared.est_cost.to_bits(), alone.est_cost.to_bits());
        assert_eq!(shared.est_cost_vec, alone.est_cost_vec);
        let (_, join) = shared
            .plan
            .iter()
            .find(|(_, n)| matches!(n.op, PhysOp::IndexJoin { .. }))
            .expect("the index join wins");
        assert_eq!(join.partitioning, Partitioning::Singleton);
        for &c in &join.children {
            let gather = PhysOp::Exchange {
                scheme: Partitioning::Singleton,
                dop: 1,
            };
            assert_eq!(shared.plan.node(c).op, gather);
        }
    }
}
