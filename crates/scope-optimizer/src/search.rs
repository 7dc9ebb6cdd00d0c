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

/// Reusable implementation-phase state: flat per-group vectors replacing
/// the per-compile `HashMap`s. [`ImplementScratch::reset`] re-sizes
/// without freeing, so a thread-local compile scratch allocates nothing
/// once warm.
#[derive(Default)]
pub struct ImplementScratch {
    winners: Vec<Option<Winner>>,
    failures: Vec<Option<CompileError>>,
    visiting: Vec<bool>,
    built: Vec<Option<NodeId>>,
}

impl ImplementScratch {
    pub fn new() -> ImplementScratch {
        ImplementScratch::default()
    }

    fn reset(&mut self, n_groups: usize) {
        self.winners.clear();
        self.winners.resize_with(n_groups, || None);
        self.failures.clear();
        self.failures.resize_with(n_groups, || None);
        self.visiting.clear();
        self.visiting.resize(n_groups, false);
        self.built.clear();
        self.built.resize(n_groups, None);
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
/// classic scalar path.
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
    scratch.reset(memo.num_groups());
    let ImplementScratch {
        winners,
        failures,
        visiting,
        built,
    } = scratch;
    best(
        memo, root, config, obs, winners, failures, visiting, tracker, model,
    )?;

    // Extraction.
    let mut plan = PhysPlan::new();
    let mut used = RuleSet::EMPTY;
    let cat = RuleCatalog::global();
    let enforce = cat.find("EnforceExchange").expect("catalog rule");
    let root_node = extract(
        memo, root, winners, &mut plan, built, &mut used, enforce, model,
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

#[allow(clippy::too_many_arguments)]
fn best(
    memo: &Memo,
    group: GroupId,
    config: &RuleConfig,
    obs: &scope_ir::ObservableCatalog,
    winners: &mut [Option<Winner>],
    failures: &mut [Option<CompileError>],
    visiting: &mut [bool],
    tracker: &mut BudgetTracker,
    model: &CostModel,
) -> Result<f64, CompileError> {
    if let Some(w) = &winners[group.index()] {
        return Ok(w.cost);
    }
    if let Some(e) = &failures[group.index()] {
        return Err(e.clone());
    }
    if visiting[group.index()] {
        return Err(CompileError::CyclicMemo);
    }
    visiting[group.index()] = true;

    let cat = RuleCatalog::global();
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
            match best(
                memo, c, config, obs, winners, failures, visiting, tracker, model,
            ) {
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

        // Applicable implementations ∩ enabled: one 4-word intersection
        // instead of a collected `Vec<RuleId>` per expression.
        let enabled_impls = cat.impl_mask(kind).intersection(config.enabled());
        if enabled_impls.is_empty() {
            kind_without_impl = Some(kind);
            continue;
        }

        let op = memo.op(expr_id);
        let own_est = memo.expr_est(expr_id);
        let child_ests = memo.group_ests(children);

        for impl_rule in enabled_impls.iter() {
            tracker.charge(CompilePhase::Implement)?;
            let RuleAction::Impl(phys) = &cat.rule(impl_rule).action else {
                continue;
            };
            let phys = *phys;
            let oc = impl_cost(phys, op, own_est, &child_ests, obs);
            let reqs = required_child_parts(phys, op, children.len());
            let mut exchanges = Vec::with_capacity(children.len());
            // Scalarize at the costing site; the f64 accumulation below is
            // textually the pre-vector model's, so default-model compiles
            // stay bit-identical to the classic scalar path.
            let mut candidate_cost = model.scalar(&oc.cost);
            let mut candidate_vec = model.corrected(&oc.cost);
            let mut child_parts = Vec::with_capacity(children.len());
            let mut feasible = true;
            for (i, &c) in children.iter().enumerate() {
                let req = reqs.get(i).cloned().unwrap_or(Partitioning::Any);
                let child_w = winners[c.index()].as_ref().expect("child winner resolved");
                candidate_cost += child_w.cost;
                candidate_vec = candidate_vec.add(&child_w.cost_vec);
                if child_w.out_part.satisfies(&req) {
                    exchanges.push(None);
                    child_parts.push(child_w.out_part.clone());
                } else {
                    let Some(ex_impl) = exchange_impl_for(&req) else {
                        exchanges.push(None);
                        child_parts.push(child_w.out_part.clone());
                        continue;
                    };
                    let ex_rule = cat
                        .rule_for_impl(ex_impl)
                        .expect("exchange impl rule exists");
                    if !config.is_enabled(ex_rule) {
                        exchange_blocked = true;
                        feasible = false;
                        break;
                    }
                    let ex_dop = match req {
                        Partitioning::Singleton => 1,
                        _ => oc.dop,
                    };
                    let ex_cost =
                        exchange_cost(ex_impl, memo.est(child_w.est).bytes(), oc.dop.max(1));
                    candidate_cost += model.scalar(&ex_cost.cost);
                    candidate_vec = candidate_vec.add(&model.corrected(&ex_cost.cost));
                    exchanges.push(Some((ex_impl, ex_rule, req.clone(), ex_dop)));
                    child_parts.push(req);
                }
            }
            if !feasible {
                continue;
            }
            let out_part = output_part(phys, op, &child_parts);
            let better = match &best_winner {
                None => true,
                Some(w) => candidate_cost < w.cost,
            };
            if better {
                best_winner = Some(Winner {
                    cost: candidate_cost,
                    cost_vec: candidate_vec,
                    expr: expr_id,
                    phys,
                    impl_rule,
                    out_part,
                    dop: oc.dop,
                    exchanges,
                    est: memo.expr(expr_id).est,
                });
            }
        }
    }

    visiting[group.index()] = false;
    match best_winner {
        Some(w) => {
            let cost = w.cost;
            winners[group.index()] = Some(w);
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
            failures[group.index()] = Some(err.clone());
            Err(err)
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
