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
//! (`Copy`) group ids and whatever fragments the rewrite will need,
//! followed by an *insert* phase once no memo borrows remain. Arms that
//! re-insert an operator the memo already holds — the matched one, its
//! child's, a nested join's — pass its interned handle
//! (`Memo::insert_interned` and friends) instead of building it again.
//!
//! ## Decide before building, build in the staging
//!
//! Most applications do not match, so in every arm each check that can
//! return `0` runs before the arm builds anything: membership is tested
//! against a group's estimated `cols` or an operator's keys in place,
//! pruning counts the columns it would keep before collecting them, and a
//! reordering tests `is_sorted_by` under its sort's comparator (a stable
//! sort of a sorted list is the identity, and of an unsorted one is not).
//!
//! What a matching arm builds it writes into the [`Staging`] a compile
//! scratch keeps: one operator per kind a rewrite creates with lists, and
//! the working lists of atoms, columns, keys and child groups. Every list
//! is cleared before it is filled and keeps its capacity, and a staged
//! operator is inserted by reference, so a duplicate — about half of what
//! a default compile's rewrites produce — costs a probe and nothing else,
//! and a new expression one copy into the interner, itself into a retired
//! operator. A warm exploration allocates nothing. Every sub-insertion
//! happens where it always did, so the memo is the same expression for
//! expression.

use scope_ir::ids::{ColId, TableId};
use scope_ir::{AggFunc, JoinKind, LogicalOp, OpKind, PredAtom, Predicate};

use crate::estimate::Estimator;
use crate::memo::{GroupId, Inserted, MExprId, Memo};
use crate::rules::{AtomOrder, Rule, RuleAction};
use crate::ruleset::RuleId;

/// A set of columns kept as a sorted list: clearing it keeps its capacity,
/// so a compile scratch reuses one for every compile's referenced columns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColSet(Vec<ColId>);

impl ColSet {
    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn insert(&mut self, col: ColId) {
        if let Err(at) = self.0.binary_search(&col) {
            self.0.insert(at, col);
        }
    }

    pub fn contains(&self, col: &ColId) -> bool {
        self.0.binary_search(col).is_ok()
    }
}

impl Extend<ColId> for ColSet {
    fn extend<I: IntoIterator<Item = ColId>>(&mut self, cols: I) {
        for col in cols {
            self.insert(col);
        }
    }
}

/// Shared context for transformations.
pub struct TransformCtx<'a> {
    pub est: &'a Estimator<'a>,
    /// Every column referenced anywhere in the original query — the safe
    /// retention set for pruning projections.
    pub referenced: &'a ColSet,
}

/// Columns referenced by an operator (keys, predicate atoms, projections,
/// aggregate arguments).
pub fn referenced_cols(op: &LogicalOp, out: &mut impl Extend<ColId>) {
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
        LogicalOp::Join { keys, .. } => out.extend(keys.iter().flat_map(|&(l, r)| [l, r])),
        LogicalOp::GroupBy { keys, aggs, .. } => {
            out.extend(keys.iter().copied());
            out.extend(aggs.iter().filter_map(|agg| match agg {
                AggFunc::Count => None,
                AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) | AggFunc::Avg(c) => Some(*c),
            }));
        }
        LogicalOp::Sort { keys } | LogicalOp::Window { keys } => out.extend(keys.iter().copied()),
    }
}

/// Where the rewrite arms build what they insert (see the module docs).
/// A compile scratch keeps one across compiles.
pub struct Staging {
    ops: StagedOps,
    /// A copy of the matched filter's atoms, for arms that insert between
    /// reading them and writing the last of them.
    atoms: Vec<PredAtom>,
    /// A copy of an operator's columns or keys.
    cols: Vec<ColId>,
    /// A copy of a join's key pairs.
    keys: Vec<(ColId, ColId)>,
    /// The child groups of an alternative under construction.
    groups: Vec<GroupId>,
    /// `UnionFlatten`'s walk.
    stack: Vec<(GroupId, usize)>,
}

impl Default for Staging {
    fn default() -> Staging {
        Staging {
            ops: StagedOps {
                filter: LogicalOp::Filter {
                    predicate: Predicate::true_pred(),
                },
                scan: LogicalOp::RangeGet {
                    table: TableId(0),
                    pushed: Predicate::true_pred(),
                },
                project: LogicalOp::Project {
                    cols: Vec::new(),
                    computed: 0,
                },
                join: LogicalOp::Join {
                    kind: JoinKind::Inner,
                    keys: Vec::new(),
                },
                groupby: LogicalOp::GroupBy {
                    keys: Vec::new(),
                    aggs: Vec::new(),
                    partial: false,
                },
            },
            atoms: Vec::new(),
            cols: Vec::new(),
            keys: Vec::new(),
            groups: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// One staged operator per kind a rewrite builds with lists. Each method
/// clears the operator's lists, lets `fill` write them and returns the
/// operator, ready to be inserted by reference.
struct StagedOps {
    filter: LogicalOp,
    scan: LogicalOp,
    project: LogicalOp,
    join: LogicalOp,
    groupby: LogicalOp,
}

impl StagedOps {
    fn filter(&mut self, fill: impl FnOnce(&mut Vec<PredAtom>)) -> &LogicalOp {
        let LogicalOp::Filter { predicate } = &mut self.filter else {
            unreachable!("the staged filter is a Filter");
        };
        predicate.atoms.clear();
        fill(&mut predicate.atoms);
        &self.filter
    }

    fn scan(&mut self, of: TableId, fill: impl FnOnce(&mut Vec<PredAtom>)) -> &LogicalOp {
        let LogicalOp::RangeGet { table, pushed } = &mut self.scan else {
            unreachable!("the staged scan is a RangeGet");
        };
        *table = of;
        pushed.atoms.clear();
        fill(&mut pushed.atoms);
        &self.scan
    }

    fn project(&mut self, computing: u8, fill: impl FnOnce(&mut Vec<ColId>)) -> &LogicalOp {
        let LogicalOp::Project { cols, computed } = &mut self.project else {
            unreachable!("the staged projection is a Project");
        };
        *computed = computing;
        cols.clear();
        fill(cols);
        &self.project
    }

    fn join(&mut self, of: JoinKind, fill: impl FnOnce(&mut Vec<(ColId, ColId)>)) -> &LogicalOp {
        let LogicalOp::Join { kind, keys } = &mut self.join else {
            unreachable!("the staged join is a Join");
        };
        *kind = of;
        keys.clear();
        fill(keys);
        &self.join
    }

    fn groupby(
        &mut self,
        is_partial: bool,
        fill: impl FnOnce(&mut Vec<ColId>, &mut Vec<AggFunc>),
    ) -> &LogicalOp {
        let LogicalOp::GroupBy {
            keys,
            aggs,
            partial,
        } = &mut self.groupby
        else {
            unreachable!("the staged aggregation is a GroupBy");
        };
        *partial = is_partial;
        keys.clear();
        aggs.clear();
        fill(keys, aggs);
        &self.groupby
    }
}

/// Whether `op` is a staged filter that received no atoms.
fn no_atoms(op: &LogicalOp) -> bool {
    matches!(op, LogicalOp::Filter { predicate } if predicate.is_true())
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

/// Apply `rule` to `expr_id`, building in `stage`; returns how many new
/// expressions were added.
pub fn apply_rule(
    rule: &Rule,
    expr_id: MExprId,
    memo: &mut Memo,
    stage: &mut Staging,
    ctx: &TransformCtx<'_>,
) -> usize {
    if memo.num_exprs() + REWRITE_MARGIN >= crate::memo::MAX_TOTAL_EXPRS {
        return 0;
    }
    let rewriter = Rewriter {
        rule_id: rule.id,
        expr_id,
        ctx,
    };
    rewriter.dispatch(&rule.action, memo, stage)
}

struct Rewriter<'a, 'b> {
    rule_id: RuleId,
    expr_id: MExprId,
    ctx: &'a TransformCtx<'b>,
}

impl Rewriter<'_, '_> {
    /// Insert a sub-expression (own group) created by this rule.
    /// `apply_rule` guarantees a budget margin, so this cannot fail.
    fn sub(&self, memo: &mut Memo, op: &LogicalOp, children: &[GroupId]) -> GroupId {
        match memo.insert_ref(op, children, None, Some(self.rule_id), self.ctx.est) {
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
    fn alt(&self, memo: &mut Memo, op: &LogicalOp, children: &[GroupId]) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted =
            memo.insert_ref(op, children, Some(target), Some(self.rule_id), self.ctx.est);
        usize::from(matches!(inserted, Inserted::New(_)))
    }

    /// Insert an alternative whose children are an existing expression's.
    fn alt_children_of(&self, memo: &mut Memo, op: &LogicalOp, src: MExprId) -> usize {
        let target = memo.expr(self.expr_id).group;
        let inserted =
            memo.insert_ref_children_of(op, src, Some(target), Some(self.rule_id), self.ctx.est);
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

    fn dispatch(&self, action: &RuleAction, memo: &mut Memo, stage: &mut Staging) -> usize {
        use RuleAction::*;
        match action {
            CollapseFilters => self.collapse_filters(memo, stage),
            DropTrueFilter => self.drop_true_filter(memo),
            FilterIntoScan => self.filter_into_scan(memo, stage),
            FilterBelow { kind, eq_only } => self.filter_below(memo, stage, *kind, *eq_only),
            ReorderAtoms(order) => self.reorder_atoms(memo, stage, *order),
            MergeProjects => self.merge_projects(memo, stage),
            ProjectBelow(kind) => self.project_below(memo, stage, *kind),
            PruneBelow { kind, eager } => self.prune_below(memo, stage, *kind, *eager),
            JoinCommute { guarded } => self.join_commute(memo, stage, *guarded),
            JoinAssoc { right, guarded } => self.join_assoc(memo, stage, *right, *guarded),
            JoinOnUnion { max_arity, left } => {
                self.join_on_union(memo, stage, *max_arity as usize, *left)
            }
            GroupByOnJoin { variant } => self.groupby_on_join(memo, stage, *variant),
            GroupByBelowUnion { variant } => self.groupby_below_union(memo, stage, *variant),
            SplitGroupBy { variant } => self.split_groupby(memo, stage, *variant),
            UnionFlatten { deep } => self.union_flatten(memo, stage, *deep),
            ProcessBelowUnion { .. } => self.process_below_union(memo, stage),
            TopBelowUnion { .. } => self.top_below_union(memo, stage),
            SwapUnary { parent, child, .. } => self.swap_unary(memo, *parent, *child),
            NormalizeReduce { variant } => self.normalize_reduce(memo, stage, *variant),
            EliminateIdentity(kind) => self.eliminate_identity(memo, *kind),
            CollapseSame(kind) => self.collapse_same(memo, *kind),
            // Normalizers, markers, and implementation rules are handled
            // elsewhere.
            _ => 0,
        }
    }

    // ---- Filter rewrites -------------------------------------------------

    fn collapse_filters(&self, memo: &mut Memo, stage: &mut Staging) -> usize {
        let LogicalOp::Filter { predicate: up } = memo.op(self.expr_id) else {
            return 0;
        };
        let child_e = memo.canonical(self.child0(memo));
        let LogicalOp::Filter { predicate: down } = memo.op(child_e) else {
            return 0;
        };
        let merged = stage.ops.filter(|atoms| {
            atoms.extend_from_slice(&up.atoms);
            atoms.extend_from_slice(&down.atoms);
        });
        self.alt_children_of(memo, merged, child_e)
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

    fn filter_into_scan(&self, memo: &mut Memo, stage: &mut Staging) -> usize {
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
        let merged = stage.ops.scan(*table, |atoms| {
            atoms.extend_from_slice(&pushed.atoms);
            atoms.extend_from_slice(&predicate.atoms);
        });
        self.alt(memo, merged, &[])
    }

    fn filter_below(
        &self,
        memo: &mut Memo,
        stage: &mut Staging,
        kind: OpKind,
        eq_only: bool,
    ) -> usize {
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
        let child_op = memo.expr(child_e).op;
        let Staging {
            ops,
            atoms,
            cols,
            groups,
            ..
        } = stage;
        // The atoms outlive the first insertion; the residual, pushable
        // atoms' complement in order, is always written last.
        atoms.clone_from(&predicate.atoms);
        let residual = |f: &mut Vec<PredAtom>| {
            f.extend(atoms.iter().filter(|a| !is_pushable(a)).cloned());
        };
        match kind {
            OpKind::Project | OpKind::Sort | OpKind::Window | OpKind::Top | OpKind::Process => {
                // Single push below a unary operator.
                let below_of = memo.children(child_e)[0];
                let pushed =
                    ops.filter(|f| f.extend(atoms.iter().filter(|a| is_pushable(a)).cloned()));
                let below = self.sub(memo, pushed, &[below_of]);
                let inner = self.sub_interned(memo, child_op, &[below]);
                self.wrap_residual(memo, inner, ops.filter(residual))
            }
            OpKind::UnionAll | OpKind::VirtualDataset => {
                let pushed =
                    ops.filter(|f| f.extend(atoms.iter().filter(|a| is_pushable(a)).cloned()));
                groups.clear();
                for i in 0..memo.children(child_e).len() {
                    let g = memo.children(child_e)[i];
                    groups.push(self.sub(memo, pushed, &[g]));
                }
                let inner = self.sub_interned(memo, child_op, groups);
                self.wrap_residual(memo, inner, ops.filter(residual))
            }
            OpKind::Join => {
                let (lg0, rg0) = {
                    let ch = memo.children(child_e);
                    (ch[0], ch[1])
                };
                // 0: the left input has the atom's column, 1: only the
                // right one, 2: neither. Group estimates never change.
                let side = |memo: &Memo, a: &PredAtom| {
                    if memo.group_est(lg0).cols.contains(&a.col) {
                        0
                    } else if memo.group_est(rg0).cols.contains(&a.col) {
                        1
                    } else {
                        2
                    }
                };
                if !atoms.iter().any(|a| is_pushable(a) && side(memo, a) < 2) {
                    return 0;
                }
                let mut pushed = [lg0, rg0];
                for (s, g) in pushed.iter_mut().enumerate() {
                    let op = ops.filter(|f| {
                        f.extend(
                            atoms
                                .iter()
                                .filter(|a| is_pushable(a) && side(memo, a) == s)
                                .cloned(),
                        );
                    });
                    if !no_atoms(op) {
                        *g = self.sub(memo, op, &[*g]);
                    }
                }
                let inner = self.sub_interned(memo, child_op, &pushed);
                let rest = ops.filter(|f| {
                    residual(f);
                    f.extend(
                        atoms
                            .iter()
                            .filter(|a| is_pushable(a) && side(memo, a) == 2)
                            .cloned(),
                    );
                });
                self.wrap_residual(memo, inner, rest)
            }
            OpKind::GroupBy => {
                let LogicalOp::GroupBy { keys, .. } = memo.op(child_e) else {
                    return 0;
                };
                let on_keys = |a: &PredAtom| is_pushable(a) && keys.contains(&a.col);
                if !atoms.iter().any(on_keys) {
                    return 0;
                }
                cols.clone_from(keys);
                let on_keys = |a: &&PredAtom| is_pushable(a) && cols.contains(&a.col);
                let below_of = memo.children(child_e)[0];
                let pushed = ops.filter(|f| f.extend(atoms.iter().filter(on_keys).cloned()));
                let below = self.sub(memo, pushed, &[below_of]);
                let inner = self.sub_interned(memo, child_op, &[below]);
                let rest = ops.filter(|f| {
                    residual(f);
                    f.extend(
                        atoms
                            .iter()
                            .filter(|a| is_pushable(a) && !cols.contains(&a.col))
                            .cloned(),
                    );
                });
                self.wrap_residual(memo, inner, rest)
            }
            _ => 0,
        }
    }

    /// Insert `inner` as an alternative of the matched group under the
    /// staged filter `residual`, or alone when the filter has no atoms.
    fn wrap_residual(&self, memo: &mut Memo, inner: GroupId, residual: &LogicalOp) -> usize {
        if no_atoms(residual) {
            let canon = memo.canonical(inner);
            self.alt_existing(memo, canon)
        } else {
            self.alt(memo, residual, &[inner])
        }
    }

    fn reorder_atoms(&self, memo: &mut Memo, stage: &mut Staging, order: AtomOrder) -> usize {
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
        let reordered = stage.ops.filter(|staged| {
            staged.extend_from_slice(atoms);
            match order {
                AtomOrder::SelAsc => staged.sort_by(|a, b| sel(a).total_cmp(&sel(b))),
                AtomOrder::SelDesc => staged.sort_by(|a, b| sel(b).total_cmp(&sel(a))),
                AtomOrder::EqFirst => staged.sort_by_key(rank),
                AtomOrder::ByCol => staged.sort_by_key(|a| a.col),
            }
        });
        self.alt_children_of(memo, reordered, self.expr_id)
    }

    // ---- Project rewrites ------------------------------------------------

    fn merge_projects(&self, memo: &mut Memo, stage: &mut Staging) -> usize {
        let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
            return 0;
        };
        let child_e = memo.canonical(self.child0(memo));
        let LogicalOp::Project { computed: c2, .. } = memo.op(child_e) else {
            return 0;
        };
        let merged = stage.ops.project(computed.saturating_add(*c2), |staged| {
            staged.extend_from_slice(cols);
        });
        self.alt_children_of(memo, merged, child_e)
    }

    /// Narrow `g` to the columns `need` keeps via an inserted projection;
    /// returns `g` unchanged when nothing would be dropped (or everything
    /// would).
    fn narrow_to(
        &self,
        memo: &mut Memo,
        ops: &mut StagedOps,
        g: GroupId,
        need: impl Fn(ColId) -> bool,
    ) -> GroupId {
        let avail = &memo.group_est(g).cols;
        if !narrows(avail, &need) {
            return g;
        }
        let kept = ops.project(0, |kept| {
            kept.extend(avail.iter().copied().filter(|&c| need(c)));
        });
        self.sub(memo, kept, &[g])
    }

    fn project_below(&self, memo: &mut Memo, stage: &mut Staging, kind: OpKind) -> usize {
        let LogicalOp::Project { cols, computed } = memo.op(self.expr_id) else {
            return 0;
        };
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != kind {
            return 0;
        }
        let own_op = memo.expr(self.expr_id).op;
        let child_op = memo.expr(child_e).op;
        match kind {
            OpKind::UnionAll => {
                // Each branch gets the matched projection itself.
                let groups = &mut stage.groups;
                groups.clear();
                for i in 0..memo.children(child_e).len() {
                    let g = memo.children(child_e)[i];
                    groups.push(self.sub_interned(memo, own_op, &[g]));
                }
                self.alt(memo, &LogicalOp::UnionAll, groups)
            }
            OpKind::Join => {
                if *computed > 0 {
                    return 0;
                }
                let LogicalOp::Join { keys, .. } = memo.op(child_e) else {
                    return 0;
                };
                let ch = memo.children(child_e);
                let needed =
                    |c: ColId| cols.contains(&c) || keys.iter().any(|&(l, r)| l == c || r == c);
                if !ch.iter().any(|&g| narrows(&memo.group_est(g).cols, needed)) {
                    return 0;
                }
                let (lg0, rg0) = (ch[0], ch[1]);
                let Staging {
                    ops,
                    cols: kept,
                    keys: join_keys,
                    ..
                } = stage;
                kept.clone_from(cols);
                join_keys.clone_from(keys);
                let need = |c: ColId| {
                    kept.contains(&c) || join_keys.iter().any(|&(l, r)| l == c || r == c)
                };
                let lg = self.narrow_to(memo, ops, lg0, need);
                let rg = self.narrow_to(memo, ops, rg0, need);
                if lg == lg0 && rg == rg0 {
                    return 0;
                }
                // The join and the projection (computing nothing) are the
                // matched ones over narrowed inputs.
                let inner = self.sub_interned(memo, child_op, &[lg, rg]);
                self.alt_interned(memo, own_op, &[inner])
            }
            OpKind::Sort | OpKind::Window => {
                let (LogicalOp::Sort { keys } | LogicalOp::Window { keys }) = memo.op(child_e)
                else {
                    return 0;
                };
                let below_of = memo.children(child_e)[0];
                let kept = stage.ops.project(*computed, |kept| {
                    kept.extend_from_slice(cols);
                    for &k in keys {
                        if !kept.contains(&k) {
                            kept.push(k);
                        }
                    }
                });
                let below = self.sub(memo, kept, &[below_of]);
                self.alt_interned(memo, child_op, &[below])
            }
            OpKind::Filter => {
                let LogicalOp::Filter { predicate } = memo.op(child_e) else {
                    return 0;
                };
                if !predicate.atoms.iter().all(|a| cols.contains(&a.col)) {
                    return 0;
                }
                // Swap the two: the matched projection below the child's
                // filter.
                let below_of = memo.children(child_e)[0];
                let below = self.sub_interned(memo, own_op, &[below_of]);
                self.alt_interned(memo, child_op, &[below])
            }
            OpKind::Top => {
                let below_of = memo.children(child_e)[0];
                let below = self.sub_interned(memo, own_op, &[below_of]);
                self.alt_interned(memo, child_op, &[below])
            }
            _ => 0,
        }
    }

    fn prune_below(
        &self,
        memo: &mut Memo,
        stage: &mut Staging,
        kind: OpKind,
        eager: bool,
    ) -> usize {
        if memo.kind_of(self.expr_id) != kind {
            return 0;
        }
        let min_drop = if eager { 1 } else { 4 };
        let referenced = |c: &ColId| self.ctx.referenced.contains(c);
        // A child is narrowed unless it already is, or pruning would keep
        // none of its columns or drop fewer than `min_drop`. Counting decides
        // that for every child before anything is built.
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
        let Staging { ops, groups, .. } = stage;
        groups.clear();
        groups.extend_from_slice(memo.children(self.expr_id));
        for slot in groups.iter_mut() {
            let g = *slot;
            if !prunes(memo, g) {
                continue;
            }
            let avail = &memo.group_est(g).cols;
            let kept = ops.project(0, |kept| {
                kept.extend(avail.iter().copied().filter(referenced));
            });
            *slot = self.sub(memo, kept, &[g]);
        }
        self.alt_interned(memo, own_op, groups)
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

    fn join_commute(&self, memo: &mut Memo, stage: &mut Staging, guarded: bool) -> usize {
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
        let swapped = stage.ops.join(*kind, |swapped| {
            swapped.extend(keys.iter().map(|&(l, r)| (r, l)));
        });
        self.alt(memo, swapped, &[c1, c0])
    }

    fn join_assoc(
        &self,
        memo: &mut Memo,
        stage: &mut Staging,
        right: bool,
        guarded: bool,
    ) -> usize {
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
        let LogicalOp::Join { kind: k2, .. } = memo.op(nested_e) else {
            return 0;
        };
        if *k2 != JoinKind::Inner {
            return 0;
        }
        let nch = memo.children(nested_e);
        let (a, b) = (nch[0], nch[1]);
        // (A ⋈k2 B) ⋈k1 C  →  A ⋈k2 (B ⋈k1 C)  when k1's outer-side
        // columns all come from B.
        let b_cols = &memo.group_est(b).cols;
        let outer_key_ok = keys.iter().all(|&(l, r)| {
            let outer_col = if right { r } else { l };
            b_cols.contains(&outer_col)
        });
        if !outer_key_ok {
            return 0;
        }
        let nested_op = memo.expr(nested_e).op;
        let inner = stage.ops.join(JoinKind::Inner, |inner| {
            if right {
                inner.extend(keys.iter().map(|&(l, r)| (r, l)));
            } else {
                inner.extend_from_slice(keys);
            }
        });
        let new_inner = self.sub(memo, inner, &[b, c]);
        if guarded {
            let before = memo.group_est(outer_g).rows;
            let after = memo.group_est(new_inner).rows;
            if after >= before {
                return 0;
            }
        }
        // The outer join is the nested one over the new inner join.
        self.alt_interned(memo, nested_op, &[a, new_inner])
    }

    fn join_on_union(
        &self,
        memo: &mut Memo,
        stage: &mut Staging,
        max_arity: usize,
        left: bool,
    ) -> usize {
        let LogicalOp::Join { kind, .. } = memo.op(self.expr_id) else {
            return 0;
        };
        if *kind != JoinKind::Inner {
            return 0;
        }
        let ch = memo.children(self.expr_id);
        let (u, other_side) = if left { (ch[0], ch[1]) } else { (ch[1], ch[0]) };
        let union_e = memo.canonical(u);
        if memo.kind_of(union_e) != OpKind::UnionAll || memo.children(union_e).len() > max_arity {
            return 0;
        }
        // Each branch joins the other side under the matched join.
        let own_op = memo.expr(self.expr_id).op;
        let groups = &mut stage.groups;
        groups.clear();
        for i in 0..memo.children(union_e).len() {
            let branch = memo.children(union_e)[i];
            let (lg, rg) = if left {
                (branch, other_side)
            } else {
                (other_side, branch)
            };
            groups.push(self.sub_interned(memo, own_op, &[lg, rg]));
        }
        self.alt(memo, &LogicalOp::UnionAll, groups)
    }

    // ---- Aggregation rewrites ---------------------------------------------

    fn groupby_on_join(&self, memo: &mut Memo, stage: &mut Staging, variant: u8) -> usize {
        let side = (variant % 2) as usize; // variants alternate push side
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
        let LogicalOp::Join { keys: jkeys, .. } = memo.op(child_e) else {
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
        let partial_op = stage.ops.groupby(true, |pkeys, paggs| {
            pkeys.extend_from_slice(keys);
            for &(l, r) in jkeys {
                let jc = if side == 0 { l } else { r };
                if side_cols.contains(&jc) && !pkeys.contains(&jc) {
                    pkeys.push(jc);
                }
            }
            paggs.extend_from_slice(aggs);
        });
        let own_op = memo.expr(self.expr_id).op;
        let join_op = memo.expr(child_e).op;
        let partial_agg = self.sub(memo, partial_op, &[side_group]);
        let mut join_children = [jc0, jc1];
        join_children[side] = partial_agg;
        // The child join over the aggregated side, under the matched
        // (final) aggregation.
        let new_join = self.sub_interned(memo, join_op, &join_children);
        self.alt_interned(memo, own_op, &[new_join])
    }

    /// The matched aggregation's partial half, staged: its keys and
    /// aggregates with `partial` set. `None` for a partial aggregation.
    fn stage_partial<'s>(&self, memo: &Memo, ops: &'s mut StagedOps) -> Option<&'s LogicalOp> {
        let LogicalOp::GroupBy {
            keys,
            aggs,
            partial: false,
        } = memo.op(self.expr_id)
        else {
            return None;
        };
        Some(ops.groupby(true, |pkeys, paggs| {
            pkeys.extend_from_slice(keys);
            paggs.extend_from_slice(aggs);
        }))
    }

    fn groupby_below_union(&self, memo: &mut Memo, stage: &mut Staging, variant: u8) -> usize {
        let LogicalOp::GroupBy { partial, .. } = memo.op(self.expr_id) else {
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
        let own_op = memo.expr(self.expr_id).op;
        let Staging { ops, groups, .. } = stage;
        let partial_op = self.stage_partial(memo, ops).expect("a final aggregation");
        groups.clear();
        for i in 0..memo.children(child_e).len() {
            let branch = memo.children(child_e)[i];
            groups.push(self.sub(memo, partial_op, &[branch]));
        }
        let new_union = self.sub(memo, &LogicalOp::UnionAll, groups);
        self.alt_interned(memo, own_op, &[new_union])
    }

    fn split_groupby(&self, memo: &mut Memo, stage: &mut Staging, variant: u8) -> usize {
        let LogicalOp::GroupBy { keys, partial, .. } = memo.op(self.expr_id) else {
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
        let own_op = memo.expr(self.expr_id).op;
        let partial_op = self
            .stage_partial(memo, &mut stage.ops)
            .expect("a final aggregation");
        let partial_agg = self.sub(memo, partial_op, &[child_g]);
        self.alt_interned(memo, own_op, &[partial_agg])
    }

    fn normalize_reduce(&self, memo: &mut Memo, stage: &mut Staging, variant: u8) -> usize {
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
        let reordered = stage.ops.groupby(*partial, |sorted, saggs| {
            sorted.extend_from_slice(keys);
            match variant {
                0 => sorted.sort_unstable(),
                1 => sorted.sort_unstable_by(|a, b| b.cmp(a)),
                _ => sorted.sort_by_key(ndv),
            }
            saggs.extend_from_slice(aggs);
        });
        self.alt_children_of(memo, reordered, self.expr_id)
    }

    // ---- Union / process / top rewrites -----------------------------------

    fn union_flatten(&self, memo: &mut Memo, stage: &mut Staging, deep: bool) -> usize {
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
        let Staging {
            groups: flat,
            stack,
            ..
        } = stage;
        flat.clear();
        stack.clear();
        let mut changed = false;
        stack.extend(children.iter().rev().map(|&g| (g, 0)));
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
        self.alt(memo, &LogicalOp::UnionAll, flat)
    }

    /// Push the matched unary operator below its child union, one copy per
    /// branch; returns the new branches' groups, or `None` when the child
    /// is not a union.
    fn below_union<'s>(
        &self,
        memo: &mut Memo,
        groups: &'s mut Vec<GroupId>,
    ) -> Option<&'s [GroupId]> {
        let child_e = memo.canonical(self.child0(memo));
        if memo.kind_of(child_e) != OpKind::UnionAll {
            return None;
        }
        let own_op = memo.expr(self.expr_id).op;
        groups.clear();
        for i in 0..memo.children(child_e).len() {
            let branch = memo.children(child_e)[i];
            groups.push(self.sub_interned(memo, own_op, &[branch]));
        }
        Some(groups)
    }

    fn process_below_union(&self, memo: &mut Memo, stage: &mut Staging) -> usize {
        if memo.kind_of(self.expr_id) != OpKind::Process {
            return 0;
        }
        let Some(pushed) = self.below_union(memo, &mut stage.groups) else {
            return 0;
        };
        self.alt(memo, &LogicalOp::UnionAll, pushed)
    }

    fn top_below_union(&self, memo: &mut Memo, stage: &mut Staging) -> usize {
        if memo.kind_of(self.expr_id) != OpKind::Top {
            return 0;
        }
        let Some(pushed) = self.below_union(memo, &mut stage.groups) else {
            return 0;
        };
        let new_union = self.sub(memo, &LogicalOp::UnionAll, pushed);
        let own_op = memo.expr(self.expr_id).op;
        self.alt_interned(memo, own_op, &[new_union])
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
            Some(k) => self.alt_children_of(memo, &LogicalOp::Top { k }, child_e),
        }
    }
}
