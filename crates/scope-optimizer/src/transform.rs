//! Interpretation of transformation-rule families on the memo.
//!
//! [`apply_rule`] pattern-matches a rule against one memo expression (using
//! canonical child expressions, as classic Cascades implementations do for
//! cheap binding) and inserts the rewritten alternatives. Sub-expressions
//! created along the way get their own (new or deduplicated) groups; the
//! top-level result is inserted as an alternative of the matched
//! expression's group.
//!
//! ## Two-phase rewrites
//!
//! Every rewrite arm runs in two phases against the arena memo: a *read*
//! phase that pattern-matches borrowed operators and copies out the
//! (`Copy`) group ids and whatever owned fragments the rewrite will need,
//! followed by an *insert* phase once no memo borrows remain. The old
//! implementation instead cloned the full matched expression (operator,
//! predicate atoms, child vector) up front for **every** `(rule, expr)`
//! pair — including the overwhelmingly common case where the rule does not
//! match and the arm returns `0` after one kind check. Arms that re-insert
//! an existing operator now pass its interned handle
//! ([`Memo::insert_interned_children_of`] and friends) instead of cloning
//! it.
//!
//! ## Decide before allocating
//!
//! Most applications do not match, so in every arm each check that can
//! return `0` runs before the arm clones keys, aggregates, predicates or
//! child lists, and before it builds a `BTreeSet`: membership is tested
//! against a group's estimated `cols` in place, pruning counts the columns
//! it would keep before collecting them, and a reordering tests
//! `is_sorted_by` under its sort's comparator (a stable sort of a sorted
//! list is the identity, and of an unsorted one is not). A miss allocates
//! nothing, and every sub-insertion happens where it always did, so the
//! memo is the same expression for expression.

use std::collections::BTreeSet;

use scope_ir::ids::ColId;
use scope_ir::{JoinKind, LogicalOp, OpKind, PredAtom, Predicate};

use crate::estimate::Estimator;
use crate::memo::{GroupId, Inserted, MExprId, Memo};
use crate::rules::{AtomOrder, Rule, RuleAction};
use crate::ruleset::RuleId;

/// Shared context for transformations.
pub struct TransformCtx<'a> {
    pub est: &'a Estimator<'a>,
    /// Every column referenced anywhere in the original query — the safe
    /// retention set for pruning projections.
    pub referenced: &'a BTreeSet<ColId>,
}

/// Columns referenced by an operator (keys, predicate atoms, projections,
/// aggregate arguments).
pub fn referenced_cols(op: &LogicalOp, out: &mut BTreeSet<ColId>) {
    match op {
        LogicalOp::Get { .. }
        | LogicalOp::UnionAll
        | LogicalOp::VirtualDataset
        | LogicalOp::Output { .. }
        | LogicalOp::Process { .. }
        | LogicalOp::Top { .. } => {}
        LogicalOp::RangeGet { pushed, .. } => {
            out.extend(pushed.atoms.iter().map(|a| a.col));
        }
        LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
            out.extend(predicate.atoms.iter().map(|a| a.col));
        }
        LogicalOp::Project { cols, .. } => out.extend(cols.iter().copied()),
        LogicalOp::Join { keys, .. } => {
            for &(l, r) in keys {
                out.insert(l);
                out.insert(r);
            }
        }
        LogicalOp::GroupBy { keys, aggs, .. } => {
            out.extend(keys.iter().copied());
            for agg in aggs {
                match agg {
                    scope_ir::AggFunc::Count => {}
                    scope_ir::AggFunc::Sum(c)
                    | scope_ir::AggFunc::Min(c)
                    | scope_ir::AggFunc::Max(c)
                    | scope_ir::AggFunc::Avg(c) => {
                        out.insert(*c);
                    }
                }
            }
        }
        LogicalOp::Sort { keys } | LogicalOp::Window { keys } => out.extend(keys.iter().copied()),
    }
}

/// Budget headroom a single rewrite may consume (sub-expressions plus the
/// alternative itself; bounded by union arity which the workload caps).
const REWRITE_MARGIN: usize = 64;

/// Whether projecting `avail` onto the columns `need` keeps would drop
/// some of them but not all.
fn narrows(avail: &[ColId], need: impl Fn(ColId) -> bool) -> bool {
    let kept = avail.iter().filter(|&&c| need(c)).count();
    kept != 0 && kept != avail.len()
}

/// Apply `rule` to `expr_id`; returns how many new expressions were added.
pub fn apply_rule(rule: &Rule, expr_id: MExprId, memo: &mut Memo, ctx: &TransformCtx<'_>) -> usize {
    if memo.num_exprs() + REWRITE_MARGIN >= crate::memo::MAX_TOTAL_EXPRS {
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
    /// Insert a sub-expression (own group) created by this rule.
    /// `apply_rule` guarantees a budget margin, so this cannot fail.
    fn sub(&self, memo: &mut Memo, op: LogicalOp, children: &[GroupId]) -> GroupId {
        match memo.insert_owned(op, children, None, Some(self.rule_id), self.ctx.est) {
            Inserted::New(e) | Inserted::Duplicate(e) => memo.expr(e).group,
            Inserted::Budget => unreachable!("apply_rule reserves budget margin"),
        }
    }

    /// Like [`Rewriter::sub`] for an operator already interned in the memo.
    fn sub_interned(&self, memo: &mut Memo, op: scope_ir::ExprId, children: &[GroupId]) -> GroupId {
        match memo.insert_interned(op, children, None, Some(self.rule_id), self.ctx.est) {
            Inserted::New(e) | Inserted::Duplicate(e) => memo.expr(e).group,
            Inserted::Budget => unreachable!("apply_rule reserves budget margin"),
        }
    }

    /// Insert an alternative into the matched expression's group.
    fn alt(&self, memo: &mut Memo, op: LogicalOp, children: &[GroupId]) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted =
            memo.insert_owned(op, children, Some(target), Some(self.rule_id), self.ctx.est);
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    /// Insert an alternative whose children are an existing expression's.
    fn alt_children_of(&self, memo: &mut Memo, op: LogicalOp, src: MExprId) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted =
            memo.insert_owned_children_of(op, src, Some(target), Some(self.rule_id), self.ctx.est);
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    /// Insert an alternative reusing an interned operator over an existing
    /// expression's children (no clones at all).
    fn alt_interned_children_of(
        &self,
        memo: &mut Memo,
        op: scope_ir::ExprId,
        src: MExprId,
    ) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted = memo.insert_interned_children_of(
            op,
            src,
            Some(target),
            Some(self.rule_id),
            self.ctx.est,
        );
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    /// Re-insert an existing expression as an alternative of the matched
    /// group (identity eliminations; no clones at all).
    fn alt_existing(&self, memo: &mut Memo, src: MExprId) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted = memo.insert_existing(src, Some(target), Some(self.rule_id), self.ctx.est);
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    /// The matched expression's single-child group.
    #[inline]
    fn child0(&self, memo: &Memo) -> GroupId {
        memo.children(self.expr_id)[0]
    }

    fn dispatch(&self, action: &RuleAction, memo: &mut Memo) -> usize {
        use RuleAction::*;
        match action {
            CollapseFilters => self.collapse_filters(memo),
            DropTrueFilter => self.drop_true_filter(memo),
            FilterIntoScan => self.filter_into_scan(memo),
            FilterBelow { kind, eq_only } => self.filter_below(memo, *kind, *eq_only),
            ReorderAtoms(order) => self.reorder_atoms(memo, *order),
            MergeProjects => self.merge_projects(memo),
            ProjectBelow(kind) => self.project_below(memo, *kind),
            PruneBelow { kind, eager } => self.prune_below(memo, *kind, *eager),
            JoinCommute { guarded } => self.join_commute(memo, *guarded),
            JoinAssoc { right, guarded } => self.join_assoc(memo, *right, *guarded),
            JoinOnUnion { max_arity, left } => self.join_on_union(memo, *max_arity as usize, *left),
            GroupByOnJoin { variant } => self.groupby_on_join(memo, *variant),
            GroupByBelowUnion { variant } => self.groupby_below_union(memo, *variant),
            SplitGroupBy { variant } => self.split_groupby(memo, *variant),
            UnionFlatten { deep } => self.union_flatten(memo, *deep),
            ProcessBelowUnion { .. } => self.process_below_union(memo),
            TopBelowUnion { .. } => self.top_below_union(memo),
            SwapUnary { parent, child, .. } => self.swap_unary(memo, *parent, *child),
            NormalizeReduce { variant } => self.normalize_reduce(memo, *variant),
            EliminateIdentity(kind) => self.eliminate_identity(memo, *kind),
            CollapseSame(kind) => self.collapse_same(memo, *kind),
            // Normalizers, markers, and implementation rules are handled
            // elsewhere.
            _ => 0,
        }
    }

    // ---- Filter rewrites -------------------------------------------------

    fn collapse_filters(&self, memo: &mut Memo) -> usize {
        let (merged, child_e) = {
            let LogicalOp::Filter { predicate: p_up } = memo.op(self.expr_id) else {
                return 0;
            };
            let child_e = memo.canonical(self.child0(memo));
            let LogicalOp::Filter { predicate: p_down } = memo.op(child_e) else {
                return 0;
            };
            (p_up.clone().and(p_down.clone()), child_e)
        };
        self.alt_children_of(memo, LogicalOp::Filter { predicate: merged }, child_e)
    }

    fn drop_true_filter(&self, memo: &mut Memo) -> usize {
        let LogicalOp::Filter { predicate } = memo.op(self.expr_id) else {
            return 0;
        };
        if !predicate.is_true() {
            return 0;
        }
        let child_e = memo.canonical(self.child0(memo));
        self.alt_existing(memo, child_e)
    }

    fn filter_into_scan(&self, memo: &mut Memo) -> usize {
        let (table, merged) = {
            let LogicalOp::Filter { predicate } = memo.op(self.expr_id) else {
                return 0;
            };
            if predicate.is_true() {
                return 0;
            }
            let child_e = memo.canonical(self.child0(memo));
            let LogicalOp::RangeGet { table, pushed } = memo.op(child_e) else {
                return 0;
            };
            (*table, pushed.clone().and(predicate.clone()))
        };
        self.alt(
            memo,
            LogicalOp::RangeGet {
                table,
                pushed: merged,
            },
            &[],
        )
    }

    fn filter_below(&self, memo: &mut Memo, kind: OpKind, eq_only: bool) -> usize {
        let LogicalOp::Filter { predicate } = memo.op(self.expr_id) else {
            return 0;
        };
        if predicate.is_true() {
            return 0;
        }
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != kind {
            return 0;
        }
        let is_pushable = |a: &PredAtom| !eq_only || a.op == scope_ir::CmpOp::Eq;
        if !predicate.atoms.iter().any(is_pushable) {
            return 0;
        }
        // Partition atoms into pushable and residual.
        let (pushable, residual): (Vec<PredAtom>, Vec<PredAtom>) =
            predicate.atoms.iter().cloned().partition(is_pushable);
        let child_op = memo.expr(child_e).op;
        match memo.kind_of(child_e) {
            OpKind::Project | OpKind::Sort | OpKind::Window | OpKind::Top | OpKind::Process => {
                // Single push below a unary operator.
                let below_of = memo.children(child_e)[0];
                let below = self.sub(
                    memo,
                    LogicalOp::Filter {
                        predicate: Predicate { atoms: pushable },
                    },
                    &[below_of],
                );
                let inner = self.sub_interned(memo, child_op, &[below]);
                self.wrap_residual(memo, inner, residual)
            }
            OpKind::UnionAll | OpKind::VirtualDataset => {
                let pred = Predicate { atoms: pushable };
                let n = memo.children(child_e).len();
                let mut pushed_children = Vec::with_capacity(n);
                for i in 0..n {
                    let g = memo.children(child_e)[i];
                    pushed_children.push(self.sub(
                        memo,
                        LogicalOp::Filter {
                            predicate: pred.clone(),
                        },
                        &[g],
                    ));
                }
                let inner = self.sub_interned(memo, child_op, &pushed_children);
                self.wrap_residual(memo, inner, residual)
            }
            OpKind::Join => {
                let (lg0, rg0) = {
                    let ch = memo.children(child_e);
                    (ch[0], ch[1])
                };
                let l_cols: BTreeSet<ColId> = memo.group_est(lg0).cols.iter().copied().collect();
                let r_cols: BTreeSet<ColId> = memo.group_est(rg0).cols.iter().copied().collect();
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
                let mut lg = lg0;
                let mut rg = rg0;
                if !l_atoms.is_empty() {
                    lg = self.sub(
                        memo,
                        LogicalOp::Filter {
                            predicate: Predicate { atoms: l_atoms },
                        },
                        &[lg],
                    );
                }
                if !r_atoms.is_empty() {
                    rg = self.sub(
                        memo,
                        LogicalOp::Filter {
                            predicate: Predicate { atoms: r_atoms },
                        },
                        &[rg],
                    );
                }
                let inner = self.sub_interned(memo, child_op, &[lg, rg]);
                self.wrap_residual(memo, inner, rest)
            }
            OpKind::GroupBy => {
                let LogicalOp::GroupBy { keys, .. } = memo.op(child_e) else {
                    return 0;
                };
                let key_set: BTreeSet<ColId> = keys.iter().copied().collect();
                let (on_keys, rest): (Vec<PredAtom>, Vec<PredAtom>) =
                    pushable.into_iter().partition(|a| key_set.contains(&a.col));
                if on_keys.is_empty() {
                    return 0;
                }
                let below_of = memo.children(child_e)[0];
                let below = self.sub(
                    memo,
                    LogicalOp::Filter {
                        predicate: Predicate { atoms: on_keys },
                    },
                    &[below_of],
                );
                let inner = self.sub_interned(memo, child_op, &[below]);
                let mut all_rest = residual;
                all_rest.extend(rest);
                self.wrap_residual(memo, inner, all_rest)
            }
            _ => 0,
        }
    }

    /// Wrap residual atoms (if any) above `inner` and insert as an
    /// alternative of the matched group.
    fn wrap_residual(&self, memo: &mut Memo, inner: GroupId, residual: Vec<PredAtom>) -> usize {
        if residual.is_empty() {
            let canon = memo.canonical(inner);
            self.alt_existing(memo, canon)
        } else {
            self.alt(
                memo,
                LogicalOp::Filter {
                    predicate: Predicate { atoms: residual },
                },
                &[inner],
            )
        }
    }

    fn reorder_atoms(&self, memo: &mut Memo, order: AtomOrder) -> usize {
        let atoms = {
            let LogicalOp::Filter { predicate } = memo.op(self.expr_id) else {
                return 0;
            };
            if predicate.len() < 2 {
                return 0;
            }
            // total_cmp: selectivities are estimator outputs in [0, 1], but a
            // NaN estimate must reorder deterministically, never panic a rule.
            let sel = |a: &PredAtom| self.ctx.est.atom_selectivity(a);
            let rank = |a: &PredAtom| match a.op {
                scope_ir::CmpOp::Eq => 0u8,
                scope_ir::CmpOp::Between | scope_ir::CmpOp::Range => 1,
                _ => 2,
            };
            // A stable sort of a sorted list is the identity, and of any
            // other list something else: decide on the borrowed atoms.
            let atoms = &predicate.atoms;
            let sorted = match order {
                AtomOrder::SelAsc => atoms.is_sorted_by(|a, b| sel(a).total_cmp(&sel(b)).is_le()),
                AtomOrder::SelDesc => atoms.is_sorted_by(|a, b| sel(b).total_cmp(&sel(a)).is_le()),
                AtomOrder::EqFirst => atoms.is_sorted_by_key(rank),
                AtomOrder::ByCol => atoms.is_sorted_by_key(|a| a.col),
            };
            if sorted {
                return 0;
            }
            let mut atoms = atoms.clone();
            match order {
                AtomOrder::SelAsc => atoms.sort_by(|a, b| sel(a).total_cmp(&sel(b))),
                AtomOrder::SelDesc => atoms.sort_by(|a, b| sel(b).total_cmp(&sel(a))),
                AtomOrder::EqFirst => atoms.sort_by_key(rank),
                AtomOrder::ByCol => atoms.sort_by_key(|a| a.col),
            }
            atoms
        };
        self.alt_children_of(
            memo,
            LogicalOp::Filter {
                predicate: Predicate { atoms },
            },
            self.expr_id,
        )
    }

    // ---- Project rewrites ------------------------------------------------

    fn merge_projects(&self, memo: &mut Memo) -> usize {
        let (merged, child_e) = {
            let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                return 0;
            };
            let child_e = memo.canonical(self.child0(memo));
            let LogicalOp::Project { computed: c2, .. } = memo.op(child_e) else {
                return 0;
            };
            (
                LogicalOp::Project {
                    cols: cols.clone(),
                    computed: computed.saturating_add(*c2),
                },
                child_e,
            )
        };
        self.alt_children_of(memo, merged, child_e)
    }

    /// Narrow `g` to the columns `need` keeps via an inserted projection;
    /// returns `g` unchanged when nothing would be dropped (or everything
    /// would).
    fn narrow_to(&self, memo: &mut Memo, g: GroupId, need: impl Fn(ColId) -> bool) -> GroupId {
        if !narrows(&memo.group_est(g).cols, &need) {
            return g;
        }
        let kept: Vec<ColId> = memo
            .group_est(g)
            .cols
            .iter()
            .copied()
            .filter(|&c| need(c))
            .collect();
        self.sub(
            memo,
            LogicalOp::Project {
                cols: kept,
                computed: 0,
            },
            &[g],
        )
    }

    fn project_below(&self, memo: &mut Memo, kind: OpKind) -> usize {
        let LogicalOp::Project { .. } = memo.op(self.expr_id) else {
            return 0;
        };
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != kind {
            return 0;
        }
        let child_op = memo.expr(child_e).op;
        match memo.kind_of(child_e) {
            OpKind::UnionAll => {
                let (cols, computed) = {
                    let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                        return 0;
                    };
                    (cols.clone(), *computed)
                };
                let n = memo.children(child_e).len();
                let mut pushed = Vec::with_capacity(n);
                for i in 0..n {
                    let g = memo.children(child_e)[i];
                    pushed.push(self.sub(
                        memo,
                        LogicalOp::Project {
                            cols: cols.clone(),
                            computed,
                        },
                        &[g],
                    ));
                }
                self.alt(memo, LogicalOp::UnionAll, &pushed)
            }
            OpKind::Join => {
                let (cols, need, jk, jkeys, lg0, rg0) = {
                    let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                        return 0;
                    };
                    if *computed > 0 {
                        return 0;
                    }
                    let LogicalOp::Join { kind: jk, keys } = memo.op(child_e) else {
                        return 0;
                    };
                    let ch = memo.children(child_e);
                    let needed =
                        |c: ColId| cols.contains(&c) || keys.iter().any(|&(l, r)| l == c || r == c);
                    if !ch.iter().any(|&g| narrows(&memo.group_est(g).cols, needed)) {
                        return 0;
                    }
                    let mut need: BTreeSet<ColId> = cols.iter().copied().collect();
                    for &(l, r) in keys {
                        need.insert(l);
                        need.insert(r);
                    }
                    (cols.clone(), need, *jk, keys.clone(), ch[0], ch[1])
                };
                let need = |c: ColId| need.contains(&c);
                let lg = self.narrow_to(memo, lg0, need);
                let rg = self.narrow_to(memo, rg0, need);
                if lg == lg0 && rg == rg0 {
                    return 0;
                }
                let inner = self.sub(
                    memo,
                    LogicalOp::Join {
                        kind: jk,
                        keys: jkeys,
                    },
                    &[lg, rg],
                );
                self.alt(memo, LogicalOp::Project { cols, computed: 0 }, &[inner])
            }
            OpKind::Sort | OpKind::Window => {
                let (kept, computed, below_of) = {
                    let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                        return 0;
                    };
                    let (LogicalOp::Sort { keys } | LogicalOp::Window { keys }) = memo.op(child_e)
                    else {
                        return 0;
                    };
                    let mut kept: Vec<ColId> = cols.clone();
                    for &k in keys {
                        if !kept.contains(&k) {
                            kept.push(k);
                        }
                    }
                    (kept, *computed, memo.children(child_e)[0])
                };
                let below = self.sub(
                    memo,
                    LogicalOp::Project {
                        cols: kept,
                        computed,
                    },
                    &[below_of],
                );
                self.alt_interned(memo, child_op, &[below])
            }
            OpKind::Filter => {
                let (cols, computed, pred, below_of) = {
                    let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                        return 0;
                    };
                    let LogicalOp::Filter { predicate } = memo.op(child_e) else {
                        return 0;
                    };
                    let covered = predicate.atoms.iter().all(|a| cols.contains(&a.col));
                    if !covered {
                        return 0;
                    }
                    (
                        cols.clone(),
                        *computed,
                        predicate.clone(),
                        memo.children(child_e)[0],
                    )
                };
                let below = self.sub(memo, LogicalOp::Project { cols, computed }, &[below_of]);
                self.alt(memo, LogicalOp::Filter { predicate: pred }, &[below])
            }
            OpKind::Top => {
                let (cols, computed, k, below_of) = {
                    let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
                        return 0;
                    };
                    let LogicalOp::Top { k } = memo.op(child_e) else {
                        return 0;
                    };
                    (cols.clone(), *computed, *k, memo.children(child_e)[0])
                };
                let below = self.sub(memo, LogicalOp::Project { cols, computed }, &[below_of]);
                self.alt(memo, LogicalOp::Top { k }, &[below])
            }
            _ => 0,
        }
    }

    fn prune_below(&self, memo: &mut Memo, kind: OpKind, eager: bool) -> usize {
        if memo.kind_of(self.expr_id) != kind {
            return 0;
        }
        let min_drop = if eager { 1 } else { 4 };
        let referenced = |c: &ColId| self.ctx.referenced.contains(c);
        // A child is narrowed unless it already is, or pruning would keep
        // none of its columns or drop fewer than `min_drop`. Counting decides
        // that for every child before anything is allocated.
        let prunes = |memo: &Memo, g: GroupId| {
            if memo.canonical_kind(g) == OpKind::Project {
                return false;
            }
            let avail = &memo.group_est(g).cols;
            let kept = avail.iter().filter(|c| referenced(c)).count();
            kept != 0 && avail.len() - kept >= min_drop
        };
        if !memo.children(self.expr_id).iter().any(|&g| prunes(memo, g)) {
            return 0;
        }
        let own_op = memo.expr(self.expr_id).op;
        let mut new_children: Vec<GroupId> = memo.children(self.expr_id).to_vec();
        for slot in &mut new_children {
            let g = *slot;
            if !prunes(memo, g) {
                continue;
            }
            let kept: Vec<ColId> = memo
                .group_est(g)
                .cols
                .iter()
                .copied()
                .filter(referenced)
                .collect();
            *slot = self.sub(
                memo,
                LogicalOp::Project {
                    cols: kept,
                    computed: 0,
                },
                &[g],
            );
        }
        self.alt_interned(memo, own_op, &new_children)
    }

    /// Insert an alternative reusing an interned operator over an explicit
    /// child list.
    fn alt_interned(&self, memo: &mut Memo, op: scope_ir::ExprId, children: &[GroupId]) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted =
            memo.insert_interned(op, children, Some(target), Some(self.rule_id), self.ctx.est);
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    // ---- Join rewrites ---------------------------------------------------

    fn join_commute(&self, memo: &mut Memo, guarded: bool) -> usize {
        let (kind, swapped, c0, c1) = {
            let LogicalOp::Join { kind, keys } = memo.op(self.expr_id) else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            let ch = memo.children(self.expr_id);
            let (c0, c1) = (ch[0], ch[1]);
            if guarded {
                let l = memo.group_est(c0).rows;
                let r = memo.group_est(c1).rows;
                // Guarded commute only fires to move the smaller input right.
                if r <= l {
                    return 0;
                }
            }
            let swapped: Vec<(ColId, ColId)> = keys.iter().map(|&(l, r)| (r, l)).collect();
            (*kind, swapped, c0, c1)
        };
        self.alt(
            memo,
            LogicalOp::Join {
                kind,
                keys: swapped,
            },
            &[c1, c0],
        )
    }

    fn join_assoc(&self, memo: &mut Memo, right: bool, guarded: bool) -> usize {
        let (inner_keys, keys2, a, b, c, outer_g) = {
            let LogicalOp::Join { kind, keys } = memo.op(self.expr_id) else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            let ch = memo.children(self.expr_id);
            let (outer_idx, inner_idx) = if right { (1, 0) } else { (0, 1) };
            let (outer_g, c) = (ch[outer_idx], ch[inner_idx]);
            let nested_e = memo.canonical(outer_g);
            let LogicalOp::Join {
                kind: k2,
                keys: keys2,
            } = memo.op(nested_e)
            else {
                return 0;
            };
            if *k2 != JoinKind::Inner {
                return 0;
            }
            let nch = memo.children(nested_e);
            let (a, b) = (nch[0], nch[1]);
            // (A ⋈k2 B) ⋈k1 C  →  A ⋈k2' (B ⋈k1 C)  when k1's outer-side
            // columns all come from B.
            let b_cols = &memo.group_est(b).cols;
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
            (inner_keys, keys2.clone(), a, b, c, outer_g)
        };
        let new_inner = self.sub(
            memo,
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: inner_keys,
            },
            &[b, c],
        );
        if guarded {
            let before = memo.group_est(outer_g).rows;
            let after = memo.group_est(new_inner).rows;
            if after >= before {
                return 0;
            }
        }
        self.alt(
            memo,
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: keys2,
            },
            &[a, new_inner],
        )
    }

    fn join_on_union(&self, memo: &mut Memo, max_arity: usize, left: bool) -> usize {
        let (keys, union_e, other_side) = {
            let LogicalOp::Join { kind, keys } = memo.op(self.expr_id) else {
                return 0;
            };
            if *kind != JoinKind::Inner {
                return 0;
            }
            let ch = memo.children(self.expr_id);
            let (u, o) = if left { (ch[0], ch[1]) } else { (ch[1], ch[0]) };
            let union_e = memo.canonical(u);
            if memo.kind_of(union_e) != OpKind::UnionAll || memo.children(union_e).len() > max_arity
            {
                return 0;
            }
            (keys.clone(), union_e, o)
        };
        let n = memo.children(union_e).len();
        let mut joined = Vec::with_capacity(n);
        for i in 0..n {
            let branch = memo.children(union_e)[i];
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
                &[lg, rg],
            ));
        }
        self.alt(memo, LogicalOp::UnionAll, &joined)
    }

    // ---- Aggregation rewrites ---------------------------------------------

    fn groupby_on_join(&self, memo: &mut Memo, variant: u8) -> usize {
        let side = (variant % 2) as usize; // variants alternate push side
        let (keys, aggs, pkeys, jk, jkeys, jc0, jc1, side_group) = {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = memo.op(self.expr_id)
            else {
                return 0;
            };
            if *partial {
                return 0;
            }
            let child_e = memo.canonical(self.child0(memo));
            let LogicalOp::Join {
                kind: jk,
                keys: jkeys,
            } = memo.op(child_e)
            else {
                return 0;
            };
            let ch = memo.children(child_e);
            let (jc0, jc1) = (ch[0], ch[1]);
            let side_group = if side == 0 { jc0 } else { jc1 };
            let side_est = memo.group_est(side_group);
            let side_cols = &side_est.cols;
            if !keys.iter().all(|k| side_cols.contains(k)) {
                return 0;
            }
            // Higher variants fire unconditionally; low variants require a
            // plausibly-reducing aggregation.
            if variant < 2 && side_est.rows < 10_000.0 {
                return 0;
            }
            // Partial-aggregate the chosen side on (group keys ∪ join keys).
            let mut pkeys = keys.clone();
            for &(l, r) in jkeys {
                let jc = if side == 0 { l } else { r };
                if side_cols.contains(&jc) && !pkeys.contains(&jc) {
                    pkeys.push(jc);
                }
            }
            let (keys, aggs, jkeys) = (keys.clone(), aggs.clone(), jkeys.clone());
            (keys, aggs, pkeys, *jk, jkeys, jc0, jc1, side_group)
        };
        let partial_agg = self.sub(
            memo,
            LogicalOp::GroupBy {
                keys: pkeys,
                aggs: aggs.clone(),
                partial: true,
            },
            &[side_group],
        );
        let mut join_children = [jc0, jc1];
        join_children[side] = partial_agg;
        let new_join = self.sub(
            memo,
            LogicalOp::Join {
                kind: jk,
                keys: jkeys,
            },
            &join_children,
        );
        self.alt(
            memo,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial: false,
            },
            &[new_join],
        )
    }

    fn groupby_below_union(&self, memo: &mut Memo, variant: u8) -> usize {
        let (keys, aggs, child_e) = {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = memo.op(self.expr_id)
            else {
                return 0;
            };
            if *partial {
                return 0;
            }
            let child_g = self.child0(memo);
            let child_e = memo.canonical(child_g);
            if memo.kind_of(child_e) != OpKind::UnionAll {
                return 0;
            }
            // Variant 0 requires a reducing aggregation estimate; higher
            // variants fire more eagerly.
            if variant == 0 && memo.group_est(child_g).rows < 10_000.0 {
                return 0;
            }
            (keys.clone(), aggs.clone(), child_e)
        };
        let n = memo.children(child_e).len();
        let mut partials = Vec::with_capacity(n);
        for i in 0..n {
            let branch = memo.children(child_e)[i];
            partials.push(self.sub(
                memo,
                LogicalOp::GroupBy {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    partial: true,
                },
                &[branch],
            ));
        }
        let new_union = self.sub(memo, LogicalOp::UnionAll, &partials);
        self.alt(
            memo,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial: false,
            },
            &[new_union],
        )
    }

    fn split_groupby(&self, memo: &mut Memo, variant: u8) -> usize {
        let (keys, aggs, child_g) = {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = memo.op(self.expr_id)
            else {
                return 0;
            };
            if *partial || keys.is_empty() {
                return 0;
            }
            let child_g = self.child0(memo);
            let threshold = match variant {
                0 => 100_000.0,
                1 => 10_000.0,
                _ => 0.0, // aggressive variants always fire
            };
            if memo.group_est(child_g).rows < threshold {
                return 0;
            }
            // Avoid re-splitting an already-split aggregation.
            if memo.canonical_kind(child_g) == OpKind::GroupBy {
                return 0;
            }
            (keys.clone(), aggs.clone(), child_g)
        };
        let partial_agg = self.sub(
            memo,
            LogicalOp::GroupBy {
                keys: keys.clone(),
                aggs: aggs.clone(),
                partial: true,
            },
            &[child_g],
        );
        self.alt(
            memo,
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial: false,
            },
            &[partial_agg],
        )
    }

    fn normalize_reduce(&self, memo: &mut Memo, variant: u8) -> usize {
        let (sorted, aggs, partial) = {
            let LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } = memo.op(self.expr_id)
            else {
                return 0;
            };
            if keys.len() < 2 {
                return 0;
            }
            // Sorting changes the keys exactly when they are not sorted yet.
            let ndv = |c: &ColId| self.ctx.est.observed().col_ndv(*c);
            let sorted = match variant {
                0 => keys.is_sorted(),
                1 => keys.is_sorted_by(|a, b| b <= a),
                _ => keys.is_sorted_by_key(ndv),
            };
            if sorted {
                return 0;
            }
            let mut sorted = keys.clone();
            match variant {
                0 => sorted.sort_unstable(),
                1 => sorted.sort_unstable_by(|a, b| b.cmp(a)),
                _ => sorted.sort_by_key(ndv),
            }
            (sorted, aggs.clone(), *partial)
        };
        self.alt_children_of(
            memo,
            LogicalOp::GroupBy {
                keys: sorted,
                aggs,
                partial,
            },
            self.expr_id,
        )
    }

    // ---- Union / process / top rewrites -----------------------------------

    fn union_flatten(&self, memo: &mut Memo, deep: bool) -> usize {
        if memo.kind_of(self.expr_id) != OpKind::UnionAll {
            return 0;
        }
        // Flattening changes something exactly when a child is a union.
        let children = memo.children(self.expr_id);
        if !children
            .iter()
            .any(|&g| memo.canonical_kind(g) == OpKind::UnionAll)
        {
            return 0;
        }
        let mut flat: Vec<GroupId> = Vec::new();
        let mut changed = false;
        let mut stack: Vec<(GroupId, usize)> = memo
            .children(self.expr_id)
            .iter()
            .map(|&g| (g, 0))
            .collect();
        stack.reverse();
        while let Some((g, depth)) = stack.pop() {
            let canon = memo.canonical(g);
            let is_union = memo.kind_of(canon) == OpKind::UnionAll;
            let may_recurse = depth == 0 || deep;
            if is_union && may_recurse {
                changed = true;
                for &c in memo.children(canon).iter().rev() {
                    stack.push((c, depth + 1));
                }
            } else {
                flat.push(g);
            }
        }
        if !changed || flat.len() < 2 {
            return 0;
        }
        self.alt(memo, LogicalOp::UnionAll, &flat)
    }

    fn process_below_union(&self, memo: &mut Memo) -> usize {
        let LogicalOp::Process { udo } = memo.op(self.expr_id) else {
            return 0;
        };
        let udo = *udo;
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != OpKind::UnionAll {
            return 0;
        }
        let n = memo.children(child_e).len();
        let mut pushed = Vec::with_capacity(n);
        for i in 0..n {
            let branch = memo.children(child_e)[i];
            pushed.push(self.sub(memo, LogicalOp::Process { udo }, &[branch]));
        }
        self.alt(memo, LogicalOp::UnionAll, &pushed)
    }

    fn top_below_union(&self, memo: &mut Memo) -> usize {
        let LogicalOp::Top { k } = memo.op(self.expr_id) else {
            return 0;
        };
        let k = *k;
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != OpKind::UnionAll {
            return 0;
        }
        let n = memo.children(child_e).len();
        let mut pushed = Vec::with_capacity(n);
        for i in 0..n {
            let branch = memo.children(child_e)[i];
            pushed.push(self.sub(memo, LogicalOp::Top { k }, &[branch]));
        }
        let new_union = self.sub(memo, LogicalOp::UnionAll, &pushed);
        self.alt(memo, LogicalOp::Top { k }, &[new_union])
    }

    // ---- Generic unary rewrites --------------------------------------------

    fn swap_unary(&self, memo: &mut Memo, parent: OpKind, child_kind: OpKind) -> usize {
        if memo.kind_of(self.expr_id) != parent || memo.expr(self.expr_id).n_children() != 1 {
            return 0;
        }
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != child_kind || memo.expr(child_e).n_children() != 1 {
            return 0;
        }
        let grandchild = memo.children(child_e)[0];
        let own_op = memo.expr(self.expr_id).op;
        let child_op = memo.expr(child_e).op;
        let below = self.sub_interned(memo, own_op, &[grandchild]);
        self.alt_interned(memo, child_op, &[below])
    }

    fn eliminate_identity(&self, memo: &mut Memo, kind: OpKind) -> usize {
        if memo.kind_of(self.expr_id) != kind {
            return 0;
        }
        let replace_with_child = match (memo.op(self.expr_id), kind) {
            (LogicalOp::Project { cols, computed }, OpKind::Project) => {
                *computed == 0 && {
                    let avail = &memo.group_est(self.child0(memo)).cols;
                    cols.len() == avail.len() && cols.iter().all(|c| avail.contains(c))
                }
            }
            (LogicalOp::Top { k }, OpKind::Top) => {
                // Risky: trusts the estimate.
                (*k as f64) >= memo.group_est(self.child0(memo)).rows
            }
            (LogicalOp::Sort { keys }, OpKind::Sort) => {
                // Sort whose keys prefix an identical child sort.
                match memo.canonical_op(self.child0(memo)) {
                    LogicalOp::Sort { keys: inner } => inner.starts_with(keys),
                    _ => false,
                }
            }
            (LogicalOp::UnionAll, OpKind::UnionAll) => memo.expr(self.expr_id).n_children() == 1,
            _ => false,
        };
        if !replace_with_child {
            return 0;
        }
        let child_e = memo.canonical(self.child0(memo));
        self.alt_existing(memo, child_e)
    }

    fn collapse_same(&self, memo: &mut Memo, kind: OpKind) -> usize {
        if memo.kind_of(self.expr_id) != kind || memo.expr(self.expr_id).n_children() != 1 {
            return 0;
        }
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != kind {
            return 0;
        }
        let own_op = memo.expr(self.expr_id).op;
        // Decide first (read borrows end with the match), insert after.
        let merged_top = match (memo.op(self.expr_id), memo.op(child_e)) {
            (LogicalOp::Sort { .. }, LogicalOp::Sort { .. })
            | (LogicalOp::Window { .. }, LogicalOp::Window { .. }) => None,
            (LogicalOp::Top { k: k1 }, LogicalOp::Top { k: k2 }) => Some((*k1).min(*k2)),
            _ => return 0,
        };
        match merged_top {
            // Merged operator == the parent's own (keys are the parent's);
            // reuse the interned handle over the child's children.
            None => self.alt_interned_children_of(memo, own_op, child_e),
            Some(k) => self.alt_children_of(memo, LogicalOp::Top { k }, child_e),
        }
    }
}
