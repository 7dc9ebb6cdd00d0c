//! The frozen pre-arena compile path, kept as a differential oracle.
//!
//! This module is a byte-for-byte snapshot of the memo / exploration /
//! implementation engine as it existed **before** the interned-IR +
//! arena-memo rework: `Memo::insert` clones `LogicalOp`s and `LogicalEst`s,
//! `explore` materializes `Vec<RuleId>` per expression, and `implement`
//! allocates fresh `HashMap`s per compile. [`compile_classic`] must produce
//! bit-identical [`CompiledPlan`]s (plan, cost, signature, task counts) to
//! [`crate::compile`] on every input; steer-core's `tests/arena.rs`
//! differential tests hold the new fast path to this reference.
//!
//! Do not "improve" this module — its entire value is that it never
//! changes. It shares only types whose semantics the rework left untouched
//! (`GroupId`, `MExprId`, `Inserted`, errors, budgets, the cost model, the
//! catalog); everything on the hot path is duplicated here on purpose.

use scope_ir::ids::ColId;
use scope_ir::{LogicalOp, ObservableCatalog, PlanGraph};

use crate::config::{RuleConfig, RuleSignature};
use crate::estimate::Estimator;
use crate::optimizer::{fire_markers, CompileStats, CompiledPlan, RuleFootprint};
use crate::physical::Partitioning;
use crate::rules::PhysImpl;
use crate::search::{BudgetTracker, CompileBudget, CompileError};
use crate::transform::{referenced_cols, ColSet, TransformCtx};

/// [`crate::compile`] as it behaved before the arena/interner rework.
pub fn compile_classic(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
) -> Result<CompiledPlan, CompileError> {
    compile_classic_with_budget(plan, obs, config, &CompileBudget::default())
}

/// [`crate::compile_with_budget`] as it behaved before the rework.
pub fn compile_classic_with_budget(
    plan: &PlanGraph,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    budget: &CompileBudget,
) -> Result<CompiledPlan, CompileError> {
    let start = std::time::Instant::now();
    let _compile_span = scope_trace::span_timed("compile", scope_trace::Histogram::CompileMicros);
    let mut tracker = BudgetTracker::new(budget);
    let normalized = crate::normalize::normalize(plan);
    let estimator = Estimator::new(obs);

    let mut referenced = ColSet::default();
    for (_, node) in normalized.plan.iter() {
        referenced_cols(&node.op, &mut referenced);
    }

    let ctx = TransformCtx {
        est: &estimator,
        referenced: &referenced,
    };

    let (mut memo, root) = cmemo::Memo::from_plan(&normalized.plan, &estimator)?;
    let explore_added = {
        let _span =
            scope_trace::span_timed("compile.explore", scope_trace::Histogram::ExploreMicros);
        csearch::explore(&mut memo, config, &ctx, &mut tracker)?
    };
    let outcome = {
        let _span =
            scope_trace::span_timed("compile.implement", scope_trace::Histogram::ImplementMicros);
        csearch::implement(&memo, root, config, obs, &mut tracker)?
    };
    if scope_trace::enabled() {
        scope_trace::record(scope_trace::Histogram::MemoGroups, memo.num_groups() as u64);
        scope_trace::record(scope_trace::Histogram::MemoExprs, memo.num_exprs() as u64);
        scope_trace::record(scope_trace::Histogram::CompileTasks, tracker.tasks());
    }

    let kind_counts = normalized.plan.op_counts();
    let mut fired = normalized.fired.union(&outcome.used_rules);
    fire_markers(config, &kind_counts, &mut fired);

    debug_assert!(
        fired
            .difference(
                &config
                    .enabled()
                    .union(crate::rules::RuleCatalog::global().required())
            )
            .is_empty(),
        "signature must be a subset of enabled ∪ required"
    );

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
        footprint: RuleFootprint::UNRECORDED,
    })
}

// The oracle's own definition of the partitioning table, as `Vec`s of
// owned partitionings. The live search's is the handle form
// (`crate::cost::{required_parts, delivered_part}`);
// `cost::tests::the_handle_form_materializes_to_the_vec_form` holds the
// two to each other.

/// Required input partitionings for `phys` implementing logical `op`.
/// One entry per child; `Any` means no exchange needed.
pub fn required_child_parts(phys: PhysImpl, op: &LogicalOp, arity: usize) -> Vec<Partitioning> {
    use PhysImpl::*;
    let join_keys = |op: &LogicalOp| -> (Vec<ColId>, Vec<ColId>) {
        match op {
            LogicalOp::Join { keys, .. } => (
                keys.iter().map(|&(l, _)| l).collect(),
                keys.iter().map(|&(_, r)| r).collect(),
            ),
            _ => (Vec::new(), Vec::new()),
        }
    };
    let gb_keys = |op: &LogicalOp| -> Vec<ColId> {
        match op {
            LogicalOp::GroupBy { keys, .. } => keys.clone(),
            _ => Vec::new(),
        }
    };
    let sort_keys = |op: &LogicalOp| -> Vec<ColId> {
        match op {
            LogicalOp::Sort { keys } | LogicalOp::Window { keys } => keys.clone(),
            _ => Vec::new(),
        }
    };
    match phys {
        ScanSerial | ScanParallel | ScanIndexed => Vec::new(),
        FilterImpl | ProjectImpl | OutputImpl => vec![Partitioning::Any; arity],
        HashJoin1 | HashJoin2 | HashJoin3 => {
            let (l, r) = join_keys(op);
            if l.is_empty() {
                // Cross joins degenerate to a gather.
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Hash(l), Partitioning::Hash(r)]
            }
        }
        MergeJoin => {
            let (l, r) = join_keys(op);
            if l.is_empty() {
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Range(l), Partitioning::Range(r)]
            }
        }
        BroadcastJoin => vec![Partitioning::Any, Partitioning::Broadcast],
        LoopJoin => vec![Partitioning::Singleton, Partitioning::Singleton],
        IndexJoin => {
            let (_, r) = join_keys(op);
            if r.is_empty() {
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Any, Partitioning::Hash(r)]
            }
        }
        HashAgg => {
            let partial = matches!(op, LogicalOp::GroupBy { partial: true, .. });
            if partial {
                vec![Partitioning::Any]
            } else {
                let keys = gb_keys(op);
                if keys.is_empty() {
                    vec![Partitioning::Singleton]
                } else {
                    vec![Partitioning::Hash(keys)]
                }
            }
        }
        SortAgg | StreamAgg => {
            let partial = matches!(op, LogicalOp::GroupBy { partial: true, .. });
            if partial {
                vec![Partitioning::Any]
            } else {
                let keys = gb_keys(op);
                if keys.is_empty() {
                    vec![Partitioning::Singleton]
                } else {
                    vec![Partitioning::Range(keys)]
                }
            }
        }
        UnionConcat | UnionVirtual | VirtualDatasetImpl => vec![Partitioning::Any; arity],
        UnionSerial => vec![Partitioning::Singleton; arity],
        TopN => vec![Partitioning::Any],
        TopSort => vec![Partitioning::Singleton],
        SortParallel => vec![Partitioning::Range(sort_keys(op))],
        SortSerial => vec![Partitioning::Singleton],
        WindowHash => vec![Partitioning::Hash(sort_keys(op))],
        WindowSort => vec![Partitioning::Range(sort_keys(op))],
        ProcessParallel => vec![Partitioning::Any],
        ProcessSerial => vec![Partitioning::Singleton],
        ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => {
            vec![Partitioning::Any]
        }
    }
}

/// Output partitioning of `phys` given its child output partitionings.
pub(crate) fn output_part(
    phys: PhysImpl,
    op: &LogicalOp,
    child_parts: &[Partitioning],
) -> Partitioning {
    use PhysImpl::*;
    match phys {
        ScanSerial => Partitioning::Singleton,
        ScanParallel | ScanIndexed => Partitioning::Any,
        FilterImpl | ProjectImpl | ProcessParallel | TopN => {
            child_parts.first().cloned().unwrap_or(Partitioning::Any)
        }
        HashJoin1 | HashJoin2 | HashJoin3 => match op {
            LogicalOp::Join { keys, .. } if !keys.is_empty() => {
                Partitioning::Hash(keys.iter().map(|&(l, _)| l).collect())
            }
            _ => Partitioning::Singleton,
        },
        MergeJoin => match op {
            LogicalOp::Join { keys, .. } if !keys.is_empty() => {
                Partitioning::Range(keys.iter().map(|&(l, _)| l).collect())
            }
            _ => Partitioning::Singleton,
        },
        BroadcastJoin | IndexJoin => child_parts.first().cloned().unwrap_or(Partitioning::Any),
        LoopJoin | TopSort | SortSerial | UnionSerial | ProcessSerial => Partitioning::Singleton,
        HashAgg => match op {
            LogicalOp::GroupBy {
                keys,
                partial: false,
                ..
            } if !keys.is_empty() => Partitioning::Hash(keys.clone()),
            LogicalOp::GroupBy { partial: true, .. } => {
                child_parts.first().cloned().unwrap_or(Partitioning::Any)
            }
            _ => Partitioning::Singleton,
        },
        SortAgg | StreamAgg => match op {
            LogicalOp::GroupBy {
                keys,
                partial: false,
                ..
            } if !keys.is_empty() => Partitioning::Range(keys.clone()),
            LogicalOp::GroupBy { partial: true, .. } => {
                child_parts.first().cloned().unwrap_or(Partitioning::Any)
            }
            _ => Partitioning::Singleton,
        },
        UnionConcat => Partitioning::Any,
        UnionVirtual | VirtualDatasetImpl => Partitioning::Any,
        SortParallel => match op {
            LogicalOp::Sort { keys } => Partitioning::Range(keys.clone()),
            _ => Partitioning::Any,
        },
        WindowHash => match op {
            LogicalOp::Window { keys } => Partitioning::Hash(keys.clone()),
            _ => Partitioning::Any,
        },
        WindowSort => match op {
            LogicalOp::Window { keys } => Partitioning::Range(keys.clone()),
            _ => Partitioning::Any,
        },
        OutputImpl => Partitioning::Any,
        ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => {
            unreachable!("exchange output partitioning is the enforcer's requirement")
        }
    }
}

/// Which exchange implementation realizes a required partitioning.
pub(crate) fn exchange_impl_for(required: &Partitioning) -> Option<PhysImpl> {
    match required {
        Partitioning::Hash(_) => Some(PhysImpl::ExchangeHash),
        Partitioning::Range(_) => Some(PhysImpl::ExchangeRange),
        Partitioning::Broadcast => Some(PhysImpl::ExchangeBroadcast),
        Partitioning::Singleton => Some(PhysImpl::ExchangeGather),
        Partitioning::Any => None,
    }
}

/// The pre-rework memo: owned `LogicalOp` + cloned estimates per entry.
mod cmemo {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    use scope_ir::ids::NodeId;
    use scope_ir::{LogicalOp, PlanGraph};

    use crate::estimate::{Estimator, LogicalEst};
    use crate::memo::{GroupId, Inserted, MExprId, MAX_EXPRS_PER_GROUP, MAX_TOTAL_EXPRS};
    use crate::ruleset::RuleId;
    use crate::search::CompileError;

    /// One expression: an operator over child *groups* (owned op + est).
    #[derive(Clone, Debug)]
    pub struct MExpr {
        pub op: LogicalOp,
        pub children: Vec<GroupId>,
        pub group: GroupId,
        pub created_by: Option<RuleId>,
        pub est: LogicalEst,
    }

    /// A set of logically-equivalent expressions.
    #[derive(Clone, Debug)]
    pub struct Group {
        pub exprs: Vec<MExprId>,
        pub est: LogicalEst,
    }

    /// The pre-rework memo.
    pub struct Memo {
        groups: Vec<Group>,
        exprs: Vec<MExpr>,
        any_group: HashMap<u64, MExprId>,
        by_group: HashMap<(u64, GroupId), MExprId>,
        budget_rejections: usize,
    }

    fn expr_key(op: &LogicalOp, children: &[GroupId]) -> u64 {
        let mut h = DefaultHasher::new();
        op.memo_hash(&mut h);
        children.hash(&mut h);
        h.finish()
    }

    impl Memo {
        pub fn from_plan(
            plan: &PlanGraph,
            est: &Estimator<'_>,
        ) -> Result<(Memo, GroupId), CompileError> {
            let mut memo = Memo::empty();
            let mut node_group: HashMap<NodeId, GroupId> = HashMap::new();
            let reachable = plan.reachable();
            for id in &reachable {
                let node = plan.node(*id);
                let children: Vec<GroupId> = node.children.iter().map(|c| node_group[c]).collect();
                let gid = match memo.insert(node.op.clone(), children, None, None, est) {
                    Inserted::New(e) | Inserted::Duplicate(e) => memo.exprs[e.index()].group,
                    Inserted::Budget => {
                        return Err(CompileError::MemoExhausted {
                            groups: memo.num_groups(),
                            exprs: memo.num_exprs(),
                        })
                    }
                };
                node_group.insert(*id, gid);
            }
            let root = node_group[&plan.root().expect("plan has root")];
            Ok((memo, root))
        }

        pub fn empty() -> Memo {
            Memo {
                groups: Vec::new(),
                exprs: Vec::new(),
                any_group: HashMap::new(),
                by_group: HashMap::new(),
                budget_rejections: 0,
            }
        }

        pub fn insert(
            &mut self,
            op: LogicalOp,
            children: Vec<GroupId>,
            target: Option<GroupId>,
            created_by: Option<RuleId>,
            est: &Estimator<'_>,
        ) -> Inserted {
            let key = expr_key(&op, &children);
            match target {
                None => {
                    if let Some(&existing) = self.any_group.get(&key) {
                        return Inserted::Duplicate(existing);
                    }
                }
                Some(g) => {
                    if let Some(&existing) = self.by_group.get(&(key, g)) {
                        return Inserted::Duplicate(existing);
                    }
                    if self.groups[g.index()].exprs.len() >= MAX_EXPRS_PER_GROUP {
                        self.budget_rejections += 1;
                        return Inserted::Budget;
                    }
                }
            }
            if self.exprs.len() >= MAX_TOTAL_EXPRS {
                self.budget_rejections += 1;
                return Inserted::Budget;
            }
            let child_ests: Vec<&LogicalEst> = children
                .iter()
                .map(|g| &self.groups[g.index()].est)
                .collect();
            let e = est.derive(&op, &child_ests);
            let group = match target {
                Some(g) => g,
                None => {
                    let g = GroupId(self.groups.len() as u32);
                    self.groups.push(Group {
                        exprs: Vec::new(),
                        est: e.clone(),
                    });
                    g
                }
            };
            let id = MExprId(self.exprs.len() as u32);
            self.exprs.push(MExpr {
                op,
                children,
                group,
                created_by,
                est: e,
            });
            self.groups[group.index()].exprs.push(id);
            self.any_group.entry(key).or_insert(id);
            self.by_group.insert((key, group), id);
            Inserted::New(id)
        }

        pub fn group(&self, id: GroupId) -> &Group {
            &self.groups[id.index()]
        }

        pub fn expr(&self, id: MExprId) -> &MExpr {
            &self.exprs[id.index()]
        }

        pub fn canonical(&self, id: GroupId) -> &MExpr {
            let e = self.groups[id.index()].exprs[0];
            &self.exprs[e.index()]
        }

        pub fn num_groups(&self) -> usize {
            self.groups.len()
        }

        pub fn num_exprs(&self) -> usize {
            self.exprs.len()
        }

        pub(crate) fn budget_rejections(&self) -> usize {
            self.budget_rejections
        }
    }
}

/// The pre-rework transformation interpreter: clones the matched `MExpr`
/// (op, children, estimate) on every single rule application.
mod ctransform {
    use std::collections::BTreeSet;

    use scope_ir::ids::ColId;
    use scope_ir::{JoinKind, LogicalOp, OpKind, PredAtom, Predicate};

    use super::cmemo::{MExpr as ExprView, Memo};
    use crate::memo::{GroupId, Inserted, MExprId, MAX_TOTAL_EXPRS};
    use crate::rules::{AtomOrder, Rule, RuleAction};
    use crate::ruleset::RuleId;
    use crate::transform::TransformCtx;

    const REWRITE_MARGIN: usize = 64;

    pub fn apply_rule(
        rule: &Rule,
        expr_id: MExprId,
        memo: &mut Memo,
        ctx: &TransformCtx<'_>,
    ) -> usize {
        if memo.num_exprs() + REWRITE_MARGIN >= MAX_TOTAL_EXPRS {
            return 0;
        }
        let rewriter = Rewriter {
            rule_id: rule.id,
            expr_id,
            ctx,
        };
        rewriter.dispatch(&rule.action, memo)
    }

    struct Rewriter<'a, 'b> {
        rule_id: RuleId,
        expr_id: MExprId,
        ctx: &'a TransformCtx<'b>,
    }

    impl Rewriter<'_, '_> {
        fn sub(&self, memo: &mut Memo, op: LogicalOp, children: Vec<GroupId>) -> GroupId {
            match memo.insert(op, children, None, Some(self.rule_id), self.ctx.est) {
                Inserted::New(e) | Inserted::Duplicate(e) => memo.expr(e).group,
                Inserted::Budget => unreachable!("apply_rule reserves budget margin"),
            }
        }

        fn alt(&self, memo: &mut Memo, op: LogicalOp, children: Vec<GroupId>) -> usize {
            let target = memo.expr(self.expr_id).group;
            match memo.insert(op, children, Some(target), Some(self.rule_id), self.ctx.est) {
                Inserted::New(_) => 1,
                _ => 0,
            }
        }

        fn dispatch(&self, action: &RuleAction, memo: &mut Memo) -> usize {
            use RuleAction::*;
            let expr = memo.expr(self.expr_id).clone();
            match action {
                CollapseFilters => self.collapse_filters(memo, &expr),
                DropTrueFilter => self.drop_true_filter(memo, &expr),
                FilterIntoScan => self.filter_into_scan(memo, &expr),
                FilterBelow { kind, eq_only } => self.filter_below(memo, &expr, *kind, *eq_only),
                ReorderAtoms(order) => self.reorder_atoms(memo, &expr, *order),
                MergeProjects => self.merge_projects(memo, &expr),
                ProjectBelow(kind) => self.project_below(memo, &expr, *kind),
                PruneBelow { kind, eager } => self.prune_below(memo, &expr, *kind, *eager),
                JoinCommute { guarded } => self.join_commute(memo, &expr, *guarded),
                JoinAssoc { right, guarded } => self.join_assoc(memo, &expr, *right, *guarded),
                JoinOnUnion { max_arity, left } => {
                    self.join_on_union(memo, &expr, *max_arity as usize, *left)
                }
                GroupByOnJoin { variant } => self.groupby_on_join(memo, &expr, *variant),
                GroupByBelowUnion { variant } => self.groupby_below_union(memo, &expr, *variant),
                SplitGroupBy { variant } => self.split_groupby(memo, &expr, *variant),
                UnionFlatten { deep } => self.union_flatten(memo, &expr, *deep),
                ProcessBelowUnion { .. } => self.process_below_union(memo, &expr),
                TopBelowUnion { .. } => self.top_below_union(memo, &expr),
                SwapUnary { parent, child, .. } => self.swap_unary(memo, &expr, *parent, *child),
                NormalizeReduce { variant } => self.normalize_reduce(memo, &expr, *variant),
                EliminateIdentity(kind) => self.eliminate_identity(memo, &expr, *kind),
                CollapseSame(kind) => self.collapse_same(memo, &expr, *kind),
                _ => 0,
            }
        }

        fn collapse_filters(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Filter { predicate: p_up } = &expr.op else {
                return 0;
            };
            let child = memo.canonical(expr.children[0]).clone();
            let LogicalOp::Filter { predicate: p_down } = &child.op else {
                return 0;
            };
            let merged = p_up.clone().and(p_down.clone());
            self.alt(
                memo,
                LogicalOp::Filter { predicate: merged },
                child.children.clone(),
            )
        }

        fn drop_true_filter(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Filter { predicate } = &expr.op else {
                return 0;
            };
            if !predicate.is_true() {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            self.alt(memo, child.op, child.children)
        }

        fn filter_into_scan(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Filter { predicate } = &expr.op else {
                return 0;
            };
            if predicate.is_true() {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            let LogicalOp::RangeGet { table, pushed } = &child.op else {
                return 0;
            };
            let merged = pushed.clone().and(predicate.clone());
            self.alt(
                memo,
                LogicalOp::RangeGet {
                    table: *table,
                    pushed: merged,
                },
                vec![],
            )
        }

        fn filter_below(
            &self,
            memo: &mut Memo,
            expr: &ExprView,
            kind: OpKind,
            eq_only: bool,
        ) -> usize {
            let LogicalOp::Filter { predicate } = &expr.op else {
                return 0;
            };
            if predicate.is_true() {
                return 0;
            }
            let child_group = expr.children[0];
            let child = memo.canonical(child_group).clone();
            if child.op.kind() != kind {
                return 0;
            }
            let (pushable, residual): (Vec<PredAtom>, Vec<PredAtom>) = predicate
                .atoms
                .iter()
                .cloned()
                .partition(|a| !eq_only || a.op == scope_ir::CmpOp::Eq);
            if pushable.is_empty() {
                return 0;
            }
            match &child.op {
                LogicalOp::Project { .. }
                | LogicalOp::Sort { .. }
                | LogicalOp::Window { .. }
                | LogicalOp::Top { .. }
                | LogicalOp::Process { .. } => {
                    let below = self.sub(
                        memo,
                        LogicalOp::Filter {
                            predicate: Predicate { atoms: pushable },
                        },
                        vec![child.children[0]],
                    );
                    let inner = self.sub(memo, child.op.clone(), vec![below]);
                    self.wrap_residual(memo, inner, residual)
                }
                LogicalOp::UnionAll | LogicalOp::VirtualDataset => {
                    let pred = Predicate { atoms: pushable };
                    let mut pushed_children = Vec::with_capacity(child.children.len());
                    for &g in &child.children {
                        pushed_children.push(self.sub(
                            memo,
                            LogicalOp::Filter {
                                predicate: pred.clone(),
                            },
                            vec![g],
                        ));
                    }
                    let inner = self.sub(memo, child.op.clone(), pushed_children);
                    self.wrap_residual(memo, inner, residual)
                }
                LogicalOp::Join { kind: jk, keys } => {
                    let l_cols: BTreeSet<ColId> = memo
                        .group(child.children[0])
                        .est
                        .cols
                        .iter()
                        .copied()
                        .collect();
                    let r_cols: BTreeSet<ColId> = memo
                        .group(child.children[1])
                        .est
                        .cols
                        .iter()
                        .copied()
                        .collect();
                    let mut l_atoms = Vec::new();
                    let mut r_atoms = Vec::new();
                    let mut rest = residual;
                    for atom in pushable {
                        if l_cols.contains(&atom.col) {
                            l_atoms.push(atom);
                        } else if r_cols.contains(&atom.col) {
                            r_atoms.push(atom);
                        } else {
                            rest.push(atom);
                        }
                    }
                    if l_atoms.is_empty() && r_atoms.is_empty() {
                        return 0;
                    }
                    let mut lg = child.children[0];
                    let mut rg = child.children[1];
                    if !l_atoms.is_empty() {
                        lg = self.sub(
                            memo,
                            LogicalOp::Filter {
                                predicate: Predicate { atoms: l_atoms },
                            },
                            vec![lg],
                        );
                    }
                    if !r_atoms.is_empty() {
                        rg = self.sub(
                            memo,
                            LogicalOp::Filter {
                                predicate: Predicate { atoms: r_atoms },
                            },
                            vec![rg],
                        );
                    }
                    let inner = self.sub(
                        memo,
                        LogicalOp::Join {
                            kind: *jk,
                            keys: keys.clone(),
                        },
                        vec![lg, rg],
                    );
                    self.wrap_residual(memo, inner, rest)
                }
                LogicalOp::GroupBy { keys, .. } => {
                    let key_set: BTreeSet<ColId> = keys.iter().copied().collect();
                    let (on_keys, rest): (Vec<PredAtom>, Vec<PredAtom>) =
                        pushable.into_iter().partition(|a| key_set.contains(&a.col));
                    if on_keys.is_empty() {
                        return 0;
                    }
                    let below = self.sub(
                        memo,
                        LogicalOp::Filter {
                            predicate: Predicate { atoms: on_keys },
                        },
                        vec![child.children[0]],
                    );
                    let inner = self.sub(memo, child.op.clone(), vec![below]);
                    let mut all_rest = residual;
                    all_rest.extend(rest);
                    self.wrap_residual(memo, inner, all_rest)
                }
                _ => 0,
            }
        }

        fn wrap_residual(&self, memo: &mut Memo, inner: GroupId, residual: Vec<PredAtom>) -> usize {
            if residual.is_empty() {
                let canon = memo.canonical(inner).clone();
                self.alt(memo, canon.op, canon.children)
            } else {
                self.alt(
                    memo,
                    LogicalOp::Filter {
                        predicate: Predicate { atoms: residual },
                    },
                    vec![inner],
                )
            }
        }

        fn reorder_atoms(&self, memo: &mut Memo, expr: &ExprView, order: AtomOrder) -> usize {
            let LogicalOp::Filter { predicate } = &expr.op else {
                return 0;
            };
            if predicate.len() < 2 {
                return 0;
            }
            let mut atoms = predicate.atoms.clone();
            match order {
                AtomOrder::SelAsc => atoms.sort_by(|a, b| {
                    self.ctx
                        .est
                        .atom_selectivity(a)
                        .total_cmp(&self.ctx.est.atom_selectivity(b))
                }),
                AtomOrder::SelDesc => atoms.sort_by(|a, b| {
                    self.ctx
                        .est
                        .atom_selectivity(b)
                        .total_cmp(&self.ctx.est.atom_selectivity(a))
                }),
                AtomOrder::EqFirst => atoms.sort_by_key(|a| match a.op {
                    scope_ir::CmpOp::Eq => 0u8,
                    scope_ir::CmpOp::Between | scope_ir::CmpOp::Range => 1,
                    _ => 2,
                }),
                AtomOrder::ByCol => atoms.sort_by_key(|a| a.col),
            }
            if atoms == predicate.atoms {
                return 0;
            }
            self.alt(
                memo,
                LogicalOp::Filter {
                    predicate: Predicate { atoms },
                },
                expr.children.clone(),
            )
        }

        fn merge_projects(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Project { cols, computed } = &expr.op else {
                return 0;
            };
            let child = memo.canonical(expr.children[0]).clone();
            let LogicalOp::Project { computed: c2, .. } = &child.op else {
                return 0;
            };
            self.alt(
                memo,
                LogicalOp::Project {
                    cols: cols.clone(),
                    computed: computed.saturating_add(*c2),
                },
                child.children.clone(),
            )
        }

        fn project_below(&self, memo: &mut Memo, expr: &ExprView, kind: OpKind) -> usize {
            let LogicalOp::Project { cols, computed } = &expr.op else {
                return 0;
            };
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != kind {
                return 0;
            }
            match &child.op {
                LogicalOp::UnionAll => {
                    let mut pushed = Vec::with_capacity(child.children.len());
                    for &g in &child.children {
                        pushed.push(self.sub(
                            memo,
                            LogicalOp::Project {
                                cols: cols.clone(),
                                computed: *computed,
                            },
                            vec![g],
                        ));
                    }
                    self.alt(memo, LogicalOp::UnionAll, pushed)
                }
                LogicalOp::Join { kind: jk, keys } => {
                    if *computed > 0 {
                        return 0;
                    }
                    let mut need: BTreeSet<ColId> = cols.iter().copied().collect();
                    for &(l, r) in keys {
                        need.insert(l);
                        need.insert(r);
                    }
                    let narrow = |memo: &mut Memo, g: GroupId, this: &Self| -> GroupId {
                        let avail: Vec<ColId> = memo.group(g).est.cols.clone();
                        let kept: Vec<ColId> =
                            avail.iter().copied().filter(|c| need.contains(c)).collect();
                        if kept.len() == avail.len() || kept.is_empty() {
                            g
                        } else {
                            this.sub(
                                memo,
                                LogicalOp::Project {
                                    cols: kept,
                                    computed: 0,
                                },
                                vec![g],
                            )
                        }
                    };
                    let lg = narrow(memo, child.children[0], self);
                    let rg = narrow(memo, child.children[1], self);
                    if lg == child.children[0] && rg == child.children[1] {
                        return 0;
                    }
                    let inner = self.sub(
                        memo,
                        LogicalOp::Join {
                            kind: *jk,
                            keys: keys.clone(),
                        },
                        vec![lg, rg],
                    );
                    self.alt(
                        memo,
                        LogicalOp::Project {
                            cols: cols.clone(),
                            computed: 0,
                        },
                        vec![inner],
                    )
                }
                LogicalOp::Sort { keys } | LogicalOp::Window { keys } => {
                    let mut kept: Vec<ColId> = cols.clone();
                    for &k in keys {
                        if !kept.contains(&k) {
                            kept.push(k);
                        }
                    }
                    let below = self.sub(
                        memo,
                        LogicalOp::Project {
                            cols: kept,
                            computed: *computed,
                        },
                        vec![child.children[0]],
                    );
                    self.alt(memo, child.op.clone(), vec![below])
                }
                LogicalOp::Filter { predicate } => {
                    let covered = predicate.atoms.iter().all(|a| cols.contains(&a.col));
                    if !covered {
                        return 0;
                    }
                    let below = self.sub(
                        memo,
                        LogicalOp::Project {
                            cols: cols.clone(),
                            computed: *computed,
                        },
                        vec![child.children[0]],
                    );
                    self.alt(
                        memo,
                        LogicalOp::Filter {
                            predicate: predicate.clone(),
                        },
                        vec![below],
                    )
                }
                LogicalOp::Top { k } => {
                    let below = self.sub(
                        memo,
                        LogicalOp::Project {
                            cols: cols.clone(),
                            computed: *computed,
                        },
                        vec![child.children[0]],
                    );
                    self.alt(memo, LogicalOp::Top { k: *k }, vec![below])
                }
                _ => 0,
            }
        }

        fn prune_below(
            &self,
            memo: &mut Memo,
            expr: &ExprView,
            kind: OpKind,
            eager: bool,
        ) -> usize {
            if expr.op.kind() != kind {
                return 0;
            }
            let min_drop = if eager { 1 } else { 4 };
            let mut changed = false;
            let mut new_children = expr.children.clone();
            for slot in &mut new_children {
                let g = *slot;
                let canon_kind = memo.canonical(g).op.kind();
                if canon_kind == OpKind::Project {
                    continue;
                }
                let avail: Vec<ColId> = memo.group(g).est.cols.clone();
                let kept: Vec<ColId> = avail
                    .iter()
                    .copied()
                    .filter(|c| self.ctx.referenced.contains(c))
                    .collect();
                if kept.is_empty() || avail.len() - kept.len() < min_drop {
                    continue;
                }
                *slot = self.sub(
                    memo,
                    LogicalOp::Project {
                        cols: kept,
                        computed: 0,
                    },
                    vec![g],
                );
                changed = true;
            }
            if !changed {
                return 0;
            }
            self.alt(memo, expr.op.clone(), new_children)
        }

        fn join_commute(&self, memo: &mut Memo, expr: &ExprView, guarded: bool) -> usize {
            let LogicalOp::Join { kind, keys } = &expr.op else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            if guarded {
                let l = memo.group(expr.children[0]).est.rows;
                let r = memo.group(expr.children[1]).est.rows;
                if r <= l {
                    return 0;
                }
            }
            let swapped: Vec<(ColId, ColId)> = keys.iter().map(|&(l, r)| (r, l)).collect();
            self.alt(
                memo,
                LogicalOp::Join {
                    kind: *kind,
                    keys: swapped,
                },
                vec![expr.children[1], expr.children[0]],
            )
        }

        fn join_assoc(
            &self,
            memo: &mut Memo,
            expr: &ExprView,
            right: bool,
            guarded: bool,
        ) -> usize {
            let LogicalOp::Join { kind, keys } = &expr.op else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            let (outer_idx, inner_idx) = if right { (1, 0) } else { (0, 1) };
            let nested = memo.canonical(expr.children[outer_idx]).clone();
            let LogicalOp::Join {
                kind: k2,
                keys: keys2,
            } = &nested.op
            else {
                return 0;
            };
            if *k2 != JoinKind::Inner {
                return 0;
            }
            let a = nested.children[0];
            let b = nested.children[1];
            let c = expr.children[inner_idx];
            let b_cols: BTreeSet<ColId> = memo.group(b).est.cols.iter().copied().collect();
            let outer_key_ok = keys.iter().all(|&(l, r)| {
                let outer_col = if right { r } else { l };
                b_cols.contains(&outer_col)
            });
            if !outer_key_ok {
                return 0;
            }
            let inner_keys: Vec<(ColId, ColId)> = if right {
                keys.iter().map(|&(l, r)| (r, l)).collect()
            } else {
                keys.clone()
            };
            let new_inner = self.sub(
                memo,
                LogicalOp::Join {
                    kind: JoinKind::Inner,
                    keys: inner_keys,
                },
                vec![b, c],
            );
            if guarded {
                let before = memo.group(expr.children[outer_idx]).est.rows;
                let after = memo.group(new_inner).est.rows;
                if after >= before {
                    return 0;
                }
            }
            self.alt(
                memo,
                LogicalOp::Join {
                    kind: JoinKind::Inner,
                    keys: keys2.clone(),
                },
                vec![a, new_inner],
            )
        }

        fn join_on_union(
            &self,
            memo: &mut Memo,
            expr: &ExprView,
            max_arity: usize,
            left: bool,
        ) -> usize {
            let LogicalOp::Join { kind, keys } = &expr.op else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            let (union_side, other_side) = if left {
                (expr.children[0], expr.children[1])
            } else {
                (expr.children[1], expr.children[0])
            };
            let union = memo.canonical(union_side).clone();
            if union.op.kind() != OpKind::UnionAll || union.children.len() > max_arity {
                return 0;
            }
            let mut joined = Vec::with_capacity(union.children.len());
            for &branch in &union.children {
                let (lg, rg) = if left {
                    (branch, other_side)
                } else {
                    (other_side, branch)
                };
                joined.push(self.sub(
                    memo,
                    LogicalOp::Join {
                        kind: JoinKind::Inner,
                        keys: keys.clone(),
                    },
                    vec![lg, rg],
                ));
            }
            self.alt(memo, LogicalOp::UnionAll, joined)
        }

        fn groupby_on_join(&self, memo: &mut Memo, expr: &ExprView, variant: u8) -> usize {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = &expr.op
            else {
                return 0;
            };
            if *partial {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            let LogicalOp::Join {
                kind: jk,
                keys: jkeys,
            } = &child.op
            else {
                return 0;
            };
            let side = (variant % 2) as usize;
            let side_group = child.children[side];
            let side_cols: BTreeSet<ColId> =
                memo.group(side_group).est.cols.iter().copied().collect();
            if !keys.iter().all(|k| side_cols.contains(k)) {
                return 0;
            }
            let mut pkeys = keys.clone();
            for &(l, r) in jkeys {
                let jc = if side == 0 { l } else { r };
                if side_cols.contains(&jc) && !pkeys.contains(&jc) {
                    pkeys.push(jc);
                }
            }
            if variant < 2 {
                let rows = memo.group(side_group).est.rows;
                if rows < 10_000.0 {
                    return 0;
                }
            }
            let partial_agg = self.sub(
                memo,
                LogicalOp::GroupBy {
                    keys: pkeys,
                    aggs: aggs.clone(),
                    partial: true,
                },
                vec![side_group],
            );
            let mut join_children = child.children.clone();
            join_children[side] = partial_agg;
            let new_join = self.sub(
                memo,
                LogicalOp::Join {
                    kind: *jk,
                    keys: jkeys.clone(),
                },
                vec![join_children[0], join_children[1]],
            );
            self.alt(
                memo,
                LogicalOp::GroupBy {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    partial: false,
                },
                vec![new_join],
            )
        }

        fn groupby_below_union(&self, memo: &mut Memo, expr: &ExprView, variant: u8) -> usize {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = &expr.op
            else {
                return 0;
            };
            if *partial {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != OpKind::UnionAll {
                return 0;
            }
            if variant == 0 && memo.group(expr.children[0]).est.rows < 10_000.0 {
                return 0;
            }
            let mut partials = Vec::with_capacity(child.children.len());
            for &branch in &child.children {
                partials.push(self.sub(
                    memo,
                    LogicalOp::GroupBy {
                        keys: keys.clone(),
                        aggs: aggs.clone(),
                        partial: true,
                    },
                    vec![branch],
                ));
            }
            let new_union = self.sub(memo, LogicalOp::UnionAll, partials);
            self.alt(
                memo,
                LogicalOp::GroupBy {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    partial: false,
                },
                vec![new_union],
            )
        }

        fn split_groupby(&self, memo: &mut Memo, expr: &ExprView, variant: u8) -> usize {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = &expr.op
            else {
                return 0;
            };
            if *partial || keys.is_empty() {
                return 0;
            }
            let child_rows = memo.group(expr.children[0]).est.rows;
            let threshold = match variant {
                0 => 100_000.0,
                1 => 10_000.0,
                _ => 0.0,
            };
            if child_rows < threshold {
                return 0;
            }
            if memo.canonical(expr.children[0]).op.kind() == OpKind::GroupBy {
                return 0;
            }
            let partial_agg = self.sub(
                memo,
                LogicalOp::GroupBy {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    partial: true,
                },
                vec![expr.children[0]],
            );
            self.alt(
                memo,
                LogicalOp::GroupBy {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    partial: false,
                },
                vec![partial_agg],
            )
        }

        fn normalize_reduce(&self, memo: &mut Memo, expr: &ExprView, variant: u8) -> usize {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = &expr.op
            else {
                return 0;
            };
            if keys.len() < 2 {
                return 0;
            }
            let mut sorted = keys.clone();
            match variant {
                0 => sorted.sort_unstable(),
                1 => sorted.sort_unstable_by(|a, b| b.cmp(a)),
                _ => sorted.sort_by_key(|c| self.ctx.est.observed().col_ndv(*c)),
            }
            if sorted == *keys {
                return 0;
            }
            self.alt(
                memo,
                LogicalOp::GroupBy {
                    keys: sorted,
                    aggs: aggs.clone(),
                    partial: *partial,
                },
                expr.children.clone(),
            )
        }

        fn union_flatten(&self, memo: &mut Memo, expr: &ExprView, deep: bool) -> usize {
            if expr.op.kind() != OpKind::UnionAll {
                return 0;
            }
            let mut flat: Vec<GroupId> = Vec::new();
            let mut changed = false;
            let mut stack: Vec<(GroupId, usize)> = expr.children.iter().map(|&g| (g, 0)).collect();
            stack.reverse();
            while let Some((g, depth)) = stack.pop() {
                let canon = memo.canonical(g);
                let is_union = canon.op.kind() == OpKind::UnionAll;
                let may_recurse = depth == 0 || deep;
                if is_union && may_recurse {
                    changed = true;
                    let children = canon.children.clone();
                    for &c in children.iter().rev() {
                        stack.push((c, depth + 1));
                    }
                } else {
                    flat.push(g);
                }
            }
            if !changed || flat.len() < 2 {
                return 0;
            }
            self.alt(memo, LogicalOp::UnionAll, flat)
        }

        fn process_below_union(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Process { udo } = &expr.op else {
                return 0;
            };
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != OpKind::UnionAll {
                return 0;
            }
            let mut pushed = Vec::with_capacity(child.children.len());
            for &branch in &child.children {
                pushed.push(self.sub(memo, LogicalOp::Process { udo: *udo }, vec![branch]));
            }
            self.alt(memo, LogicalOp::UnionAll, pushed)
        }

        fn top_below_union(&self, memo: &mut Memo, expr: &ExprView) -> usize {
            let LogicalOp::Top { k } = &expr.op else {
                return 0;
            };
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != OpKind::UnionAll {
                return 0;
            }
            let mut pushed = Vec::with_capacity(child.children.len());
            for &branch in &child.children {
                pushed.push(self.sub(memo, LogicalOp::Top { k: *k }, vec![branch]));
            }
            let new_union = self.sub(memo, LogicalOp::UnionAll, pushed);
            self.alt(memo, LogicalOp::Top { k: *k }, vec![new_union])
        }

        fn swap_unary(
            &self,
            memo: &mut Memo,
            expr: &ExprView,
            parent: OpKind,
            child_kind: OpKind,
        ) -> usize {
            if expr.op.kind() != parent || expr.children.len() != 1 {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != child_kind || child.children.len() != 1 {
                return 0;
            }
            let below = self.sub(memo, expr.op.clone(), vec![child.children[0]]);
            self.alt(memo, child.op.clone(), vec![below])
        }

        fn eliminate_identity(&self, memo: &mut Memo, expr: &ExprView, kind: OpKind) -> usize {
            if expr.op.kind() != kind {
                return 0;
            }
            let replace_with_child = match (&expr.op, kind) {
                (LogicalOp::Project { cols, computed }, OpKind::Project) => {
                    *computed == 0 && {
                        let avail = &memo.group(expr.children[0]).est.cols;
                        cols.len() == avail.len() && cols.iter().all(|c| avail.contains(c))
                    }
                }
                (LogicalOp::Top { k }, OpKind::Top) => {
                    (*k as f64) >= memo.group(expr.children[0]).est.rows
                }
                (LogicalOp::Sort { keys }, OpKind::Sort) => {
                    match &memo.canonical(expr.children[0]).op {
                        LogicalOp::Sort { keys: inner } => inner.starts_with(keys),
                        _ => false,
                    }
                }
                (LogicalOp::UnionAll, OpKind::UnionAll) => expr.children.len() == 1,
                _ => false,
            };
            if !replace_with_child {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            self.alt(memo, child.op, child.children)
        }

        fn collapse_same(&self, memo: &mut Memo, expr: &ExprView, kind: OpKind) -> usize {
            if expr.op.kind() != kind || expr.children.len() != 1 {
                return 0;
            }
            let child = memo.canonical(expr.children[0]).clone();
            if child.op.kind() != kind {
                return 0;
            }
            let merged = match (&expr.op, &child.op) {
                (LogicalOp::Sort { keys }, LogicalOp::Sort { .. }) => {
                    LogicalOp::Sort { keys: keys.clone() }
                }
                (LogicalOp::Top { k: k1 }, LogicalOp::Top { k: k2 }) => {
                    LogicalOp::Top { k: (*k1).min(*k2) }
                }
                (LogicalOp::Window { keys }, LogicalOp::Window { .. }) => {
                    LogicalOp::Window { keys: keys.clone() }
                }
                _ => return 0,
            };
            self.alt(memo, merged, child.children)
        }
    }
}

/// The pre-rework search: `Vec<RuleId>` collection per expression during
/// exploration, `HashMap`-keyed winners, linear catalog scans for exchange
/// rules.
mod csearch {
    use std::collections::HashMap;

    use scope_ir::ids::NodeId;
    use scope_ir::OpKind;

    use super::cmemo::Memo;
    use super::{exchange_impl_for, output_part, required_child_parts};
    use crate::config::RuleConfig;
    use crate::cost::{exchange_cost, impl_cost, CostEstimate, CostWeights};
    use crate::estimate::LogicalEst;
    use crate::memo::{GroupId, MExprId};
    use crate::physical::{Partitioning, PhysNode, PhysOp, PhysPlan};
    use crate::rules::{PhysImpl, RuleAction, RuleCatalog};
    use crate::ruleset::{RuleId, RuleSet};
    use crate::search::{BudgetTracker, CompileError, CompilePhase, SearchOutcome};
    use crate::transform::TransformCtx;

    pub fn explore(
        memo: &mut Memo,
        config: &RuleConfig,
        ctx: &TransformCtx<'_>,
        tracker: &mut BudgetTracker,
    ) -> Result<usize, CompileError> {
        let cat = RuleCatalog::global();
        let before = memo.num_exprs();
        let mut idx = 0usize;
        while idx < memo.num_exprs() {
            let expr_id = MExprId(idx as u32);
            let kind = memo.expr(expr_id).op.kind();
            let rule_ids: Vec<RuleId> = cat
                .transforms_for(kind)
                .iter()
                .copied()
                .filter(|id| config.is_enabled(*id))
                .collect();
            for rid in rule_ids {
                tracker.charge(CompilePhase::Explore)?;
                let rule = cat.rule(rid);
                super::ctransform::apply_rule(rule, expr_id, memo, ctx);
            }
            idx += 1;
        }
        Ok(memo.num_exprs() - before)
    }

    #[derive(Clone, Debug)]
    struct Winner {
        cost: f64,
        cost_vec: CostEstimate,
        expr: MExprId,
        phys: PhysImpl,
        impl_rule: RuleId,
        out_part: Partitioning,
        dop: u32,
        exchanges: Vec<Option<(PhysImpl, RuleId, Partitioning, u32)>>,
        est: LogicalEst,
    }

    pub fn implement(
        memo: &Memo,
        root: GroupId,
        config: &RuleConfig,
        obs: &scope_ir::ObservableCatalog,
        tracker: &mut BudgetTracker,
    ) -> Result<SearchOutcome, CompileError> {
        let mut winners: HashMap<GroupId, Winner> = HashMap::new();
        let mut failures: HashMap<GroupId, CompileError> = HashMap::new();
        let mut visiting: Vec<bool> = vec![false; memo.num_groups()];
        best(
            memo,
            root,
            config,
            obs,
            &mut winners,
            &mut failures,
            &mut visiting,
            tracker,
        )?;

        let mut plan = PhysPlan::new();
        let mut built: HashMap<GroupId, NodeId> = HashMap::new();
        let mut used = RuleSet::EMPTY;
        let cat = RuleCatalog::global();
        let enforce = cat.find("EnforceExchange").expect("catalog rule");
        let root_node = extract(
            memo, root, &winners, &mut plan, &mut built, &mut used, enforce,
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
        winners: &mut HashMap<GroupId, Winner>,
        failures: &mut HashMap<GroupId, CompileError>,
        visiting: &mut Vec<bool>,
        tracker: &mut BudgetTracker,
    ) -> Result<f64, CompileError> {
        if let Some(w) = winners.get(&group) {
            return Ok(w.cost);
        }
        if let Some(e) = failures.get(&group) {
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

        let expr_ids = memo.group(group).exprs.clone();
        for expr_id in expr_ids {
            let expr = memo.expr(expr_id);
            let kind = expr.op.kind();
            let children = expr.children.clone();
            let mut ok = true;
            for &c in &children {
                match best(memo, c, config, obs, winners, failures, visiting, tracker) {
                    Ok(_) => {}
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

            let enabled_impls: Vec<RuleId> = cat
                .impls_for(kind)
                .iter()
                .copied()
                .filter(|id| config.is_enabled(*id))
                .collect();
            if enabled_impls.is_empty() {
                kind_without_impl = Some(kind);
                continue;
            }

            let expr = memo.expr(expr_id);
            let child_ests: Vec<&LogicalEst> =
                children.iter().map(|g| &memo.group(*g).est).collect();

            for impl_rule in enabled_impls {
                tracker.charge(CompilePhase::Implement)?;
                let RuleAction::Impl(phys) = &cat.rule(impl_rule).action else {
                    continue;
                };
                let phys = *phys;
                let oc = impl_cost(phys, &expr.op, &expr.est, &child_ests, obs);
                let reqs = required_child_parts(phys, &expr.op, children.len());
                let mut exchanges = Vec::with_capacity(children.len());
                let mut candidate_cost = CostWeights::DEFAULT.scalarize(&oc.cost);
                let mut candidate_vec = oc.cost;
                let mut child_parts = Vec::with_capacity(children.len());
                let mut feasible = true;
                for (i, &c) in children.iter().enumerate() {
                    let req = reqs.get(i).cloned().unwrap_or(Partitioning::Any);
                    let child_w = &winners[&c];
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
                            .rules()
                            .iter()
                            .find(|r| r.action == RuleAction::Impl(ex_impl))
                            .map(|r| r.id)
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
                        let ex_cost = exchange_cost(ex_impl, child_w.est.bytes(), oc.dop.max(1));
                        candidate_cost += CostWeights::DEFAULT.scalarize(&ex_cost.cost);
                        candidate_vec = candidate_vec.add(&ex_cost.cost);
                        exchanges.push(Some((ex_impl, ex_rule, req.clone(), ex_dop)));
                        child_parts.push(req);
                    }
                }
                if !feasible {
                    continue;
                }
                let out_part = output_part(phys, &expr.op, &child_parts);
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
                        est: expr.est.clone(),
                    });
                }
            }
        }

        visiting[group.index()] = false;
        match best_winner {
            Some(w) => {
                let cost = w.cost;
                winners.insert(group, w);
                Ok(cost)
            }
            None => {
                let err = if let Some(kind) = kind_without_impl {
                    CompileError::NoImplementation { kind }
                } else if let Some(e) = child_failure {
                    e
                } else if exchange_blocked {
                    CompileError::NoExchangeImplementation
                } else {
                    CompileError::NoImplementation {
                        kind: memo.canonical(group).op.kind(),
                    }
                };
                failures.insert(group, err.clone());
                Err(err)
            }
        }
    }

    fn extract(
        memo: &Memo,
        group: GroupId,
        winners: &HashMap<GroupId, Winner>,
        plan: &mut PhysPlan,
        built: &mut HashMap<GroupId, NodeId>,
        used: &mut RuleSet,
        enforce_rule: RuleId,
    ) -> NodeId {
        if let Some(&node) = built.get(&group) {
            return node;
        }
        let w = winners.get(&group).expect("winner for reachable group");
        let expr = memo.expr(w.expr);
        let mut child_nodes = Vec::with_capacity(expr.children.len());
        for (i, &c) in expr.children.iter().enumerate() {
            let mut node = extract(memo, c, winners, plan, built, used, enforce_rule);
            if let Some((ex_impl, ex_rule, scheme, ex_dop)) = &w.exchanges[i] {
                let child_w = &winners[&c];
                let ex_cost = exchange_cost(*ex_impl, child_w.est.bytes(), w.dop.max(1));
                node = plan.add(PhysNode {
                    op: PhysOp::Exchange {
                        scheme: scheme.clone(),
                        dop: *ex_dop,
                    },
                    children: vec![node],
                    est_rows: child_w.est.rows,
                    est_bytes: child_w.est.bytes(),
                    est_cost: CostWeights::DEFAULT.scalarize(&ex_cost.cost),
                    est_cost_vec: ex_cost.cost,
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
        let own_cost = w.cost
            - expr.children.iter().map(|c| winners[c].cost).sum::<f64>()
            - w.exchanges
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    e.as_ref().map(|(ex_impl, _, _, _)| {
                        CostWeights::DEFAULT.scalarize(
                            &exchange_cost(
                                *ex_impl,
                                winners[&expr.children[i]].est.bytes(),
                                w.dop.max(1),
                            )
                            .cost,
                        )
                    })
                })
                .sum::<f64>();
        let mut own_vec = w.cost_vec;
        for c in &expr.children {
            own_vec = own_vec.saturating_sub(&winners[c].cost_vec);
        }
        for (i, e) in w.exchanges.iter().enumerate() {
            if let Some((ex_impl, _, _, _)) = e {
                let ex = exchange_cost(
                    *ex_impl,
                    winners[&expr.children[i]].est.bytes(),
                    w.dop.max(1),
                );
                own_vec = own_vec.saturating_sub(&ex.cost);
            }
        }
        let node = plan.add(PhysNode {
            op: crate::search::phys_op_for(w.phys, &expr.op),
            children: child_nodes,
            est_rows: w.est.rows,
            est_bytes: w.est.bytes(),
            est_cost: own_cost.max(0.0),
            est_cost_vec: own_vec,
            partitioning: w.out_part.clone(),
            dop: w.dop,
            created_by: Some(w.impl_rule),
            logical_rule: expr.created_by,
        });
        used.insert(w.impl_rule);
        if let Some(t) = expr.created_by {
            used.insert(t);
        }
        built.insert(group, node);
        node
    }
}
