//! The Cascades memo: hash-consed groups of logically-equivalent
//! expressions, backed by flat slabs instead of per-expression heap nodes.
//!
//! Groups hold alternative expressions ([`MExpr`]) plus the logical
//! estimates derived from the group's *canonical* (first) expression.
//! Estimates are also kept **per expression**: two equivalent shapes can
//! carry different estimated cardinalities (order-sensitive backoff, moved
//! predicates), which is exactly why estimated costs across rule
//! configurations are not comparable (§5.3).
//!
//! ## Arena layout
//!
//! The memo owns four parallel slabs plus an operator interner:
//!
//! * `exprs` — [`MExpr`] records, which are small `Copy` structs holding
//!   *handles* (an interned [`ExprId`] for the operator, a range into
//!   `child_slab`, an [`EstId`] into `ests`) instead of owned data,
//! * `child_slab` — concatenated child-group lists; expressions that share
//!   children (e.g. re-inserted via [`Memo::insert_existing`]) share the
//!   same range,
//! * `ests` — one [`LogicalEst`] per expression; a group's canonical
//!   estimate is the same slab entry as its first expression's,
//! * `interner` — a per-memo [`ExprInterner`], so each distinct operator
//!   is stored once no matter how many expressions reference it.
//!
//! Group membership is an intrusive singly-linked list threaded through
//! `MExpr::next_in_group` (append-at-tail preserves insertion order, so the
//! canonical expression and exploration order match the old `Vec<MExprId>`
//! representation exactly).
//!
//! [`Memo::clear`] resets every slab without freeing, so a thread-local
//! compile scratch ([`crate::optimizer::CompileScratch`]) reaches a
//! steady state where inserting an expression allocates nothing.
//!
//! ## Dedup keys
//!
//! Expressions are deduplicated by the streamed `(op.memo_hash, children)`
//! hash, exactly as before interning: the interner stores the hasher state
//! after the op prefix, and `Memo::insert_inner` resumes a clone of it
//! with the children. This is byte-identical to the old `expr_key`
//! (proven by a unit test in `scope-ir::intern`), including its
//! hash-only collision semantics.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use scope_ir::ids::NodeId;
use scope_ir::{ExprId, ExprInterner, LogicalOp, OpKind, PlanGraph};

use crate::estimate::{ChildEsts, Estimator, LogicalEst};
use crate::ruleset::{RuleId, RuleSet};
use crate::search::CompileError;

/// Maximum alternative expressions per group; further additions are
/// rejected (exploration budget, like real optimizers' promise cutoffs).
pub(crate) const MAX_EXPRS_PER_GROUP: usize = 24;

/// Maximum total expressions in a memo; exploration stops beyond this.
pub const MAX_TOTAL_EXPRS: usize = 20_000;

/// Sentinel for "no expression" in the intrusive group lists.
const NONE: u32 = u32::MAX;

/// Id of a memo group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupId({})", self.0)
    }
}

/// Id of a memo expression.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MExprId(pub u32);

impl MExprId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MExprId({})", self.0)
    }
}

/// Index of a [`LogicalEst`] in the memo's estimate slab.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EstId(u32);

impl EstId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One expression: an operator over child *groups*. A plain-`Copy` record
/// of handles — resolve them through the owning [`Memo`]
/// ([`Memo::op`], [`Memo::children`], `Memo::expr_est`).
#[derive(Clone, Copy, Debug)]
pub struct MExpr {
    /// Interned operator handle ([`Memo::op`] resolves it).
    pub op: ExprId,
    /// Cached operator kind (no interner lookup needed).
    pub kind: OpKind,
    children_start: u32,
    children_len: u32,
    /// Group this expression belongs to.
    pub group: GroupId,
    /// Transformation rule that created it (`None` for original nodes).
    pub created_by: Option<RuleId>,
    /// This expression's own estimated output ([`Memo::est`] resolves it).
    pub est: EstId,
    /// Next expression in the same group (intrusive list; `NONE` ends it).
    next_in_group: u32,
}

impl MExpr {
    /// Number of child groups.
    #[inline]
    pub(crate) fn n_children(&self) -> usize {
        self.children_len as usize
    }
}

/// A set of logically-equivalent expressions (an intrusive list headed at
/// `first`, in insertion order).
#[derive(Clone, Copy, Debug)]
pub struct Group {
    first: u32,
    last: u32,
    len: u32,
    /// Canonical logical estimate (shared with the first expression).
    pub est: EstId,
}

impl Group {
    /// Number of alternative expressions in the group.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Operator source for [`Memo::insert_inner`]: borrow, move, or an
/// already-interned handle. Cloning happens at most once (borrowed op,
/// first sight) and never for duplicates or budget rejections.
enum OpSrc<'a> {
    Ref(&'a LogicalOp),
    Owned(LogicalOp),
    Interned(ExprId),
}

/// Children source: an external slice (copied into the slab only when the
/// insertion actually lands) or an existing expression's range (shared,
/// zero-copy).
enum ChildSrc<'a> {
    Slice(&'a [GroupId]),
    OfExpr(MExprId),
}

/// Adapter exposing a child-group list's canonical estimates to
/// [`Estimator::derive`] without collecting a `Vec<&LogicalEst>`.
struct SlabChildEsts<'a> {
    groups: &'a [Group],
    ests: &'a [LogicalEst],
    children: &'a [GroupId],
}

impl ChildEsts for SlabChildEsts<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.children.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &LogicalEst {
        &self.ests[self.groups[self.children[i].index()].est.index()]
    }
}

/// Outcome of inserting an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inserted {
    /// Fresh expression added to this group.
    New(MExprId),
    /// Expression already existed (same or different group).
    Duplicate(MExprId),
    /// Rejected by the per-group or global budget.
    Budget,
}

/// The memo.
pub struct Memo {
    groups: Vec<Group>,
    exprs: Vec<MExpr>,
    /// Concatenated child-group lists; each expression owns (or shares) a
    /// `[children_start, children_start + children_len)` range.
    child_slab: Vec<GroupId>,
    /// One estimate per expression; group estimates alias the canonical
    /// expression's entry.
    ests: Vec<LogicalEst>,
    /// Per-memo operator interner (see module docs).
    interner: ExprInterner,
    /// `(op value-hash, children)` → first expression anywhere; used to
    /// reuse groups when a rewrite re-creates a known sub-expression.
    any_group: HashMap<u64, MExprId>,
    /// `(op value-hash, children, group)` → expression; prevents duplicate
    /// alternatives within one group while still allowing the same shape to
    /// appear in several groups (needed for identity-elimination rewrites).
    by_group: HashMap<(u64, GroupId), MExprId>,
    /// Insertions rejected by the per-group or global budget (observability
    /// counter, surfaced in `CompiledPlan` stats).
    budget_rejections: usize,
    /// One bit per [`OpKind`] some expression has (set as it inserts).
    kinds: u16,
    /// Rules named in some expression's `created_by` (set as it inserts).
    created: RuleSet,
    /// Ingest scratch, kept across [`Memo::clear`] for allocation reuse.
    node_group: HashMap<NodeId, GroupId>,
    ingest_children: Vec<GroupId>,
}

impl Default for Memo {
    fn default() -> Memo {
        Memo::empty()
    }
}

impl Memo {
    /// Ingest a normalized logical plan into a fresh memo. Shared DAG nodes
    /// map to shared groups. Returns the memo and the root group, or a
    /// typed [`CompileError::MemoExhausted`] when the plan alone blows the
    /// hard expression cap.
    pub fn from_plan(
        plan: &PlanGraph,
        est: &Estimator<'_>,
    ) -> Result<(Memo, GroupId), CompileError> {
        let mut memo = Memo::empty();
        let root = memo.ingest(plan, est)?;
        Ok((memo, root))
    }

    /// An empty memo (normal use is [`Memo::from_plan`] or a reused
    /// scratch memo via [`Memo::clear`] + [`Memo::ingest`]).
    pub fn empty() -> Memo {
        Memo {
            groups: Vec::new(),
            exprs: Vec::new(),
            child_slab: Vec::new(),
            ests: Vec::new(),
            interner: ExprInterner::new(),
            any_group: HashMap::new(),
            by_group: HashMap::new(),
            budget_rejections: 0,
            kinds: 0,
            created: RuleSet::EMPTY,
            node_group: HashMap::new(),
            ingest_children: Vec::new(),
        }
    }

    /// Reset every slab and table without freeing — the allocation-reuse
    /// half of the compile-scratch contract.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.exprs.clear();
        self.child_slab.clear();
        self.ests.clear();
        self.interner.clear();
        self.any_group.clear();
        self.by_group.clear();
        self.budget_rejections = 0;
        self.kinds = 0;
        self.created = RuleSet::EMPTY;
        self.node_group.clear();
        self.ingest_children.clear();
    }

    /// Ingest a normalized plan into this (empty or cleared) memo and
    /// return the root group. Each node's operator is inserted by
    /// reference — the memo no longer clones one `LogicalOp` per node.
    pub fn ingest(
        &mut self,
        plan: &PlanGraph,
        est: &Estimator<'_>,
    ) -> Result<GroupId, CompileError> {
        debug_assert!(self.exprs.is_empty(), "ingest expects an empty memo");
        let mut node_group = std::mem::take(&mut self.node_group);
        let mut children = std::mem::take(&mut self.ingest_children);
        node_group.clear();
        let reachable = plan.reachable();
        for id in &reachable {
            let node = plan.node(*id);
            children.clear();
            children.extend(node.children.iter().map(|c| node_group[c]));
            let inserted = self.insert_ref(&node.op, &children, None, None, est);
            let gid = match inserted {
                Inserted::New(e) | Inserted::Duplicate(e) => self.exprs[e.index()].group,
                Inserted::Budget => {
                    self.node_group = node_group;
                    self.ingest_children = children;
                    return Err(CompileError::MemoExhausted {
                        groups: self.num_groups(),
                        exprs: self.num_exprs(),
                    });
                }
            };
            node_group.insert(*id, gid);
        }
        let root = node_group[&plan.root().expect("plan has root")];
        self.node_group = node_group;
        self.ingest_children = children;
        Ok(root)
    }

    /// Insert an expression, borrowing the operator (cloned only if this
    /// is the first time the memo sees it). If `target` is `Some`, the
    /// expression is an alternative for that group; otherwise a new group
    /// is created (unless the expression already exists somewhere, in
    /// which case its group is reused).
    pub(crate) fn insert_ref(
        &mut self,
        op: &LogicalOp,
        children: &[GroupId],
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Ref(op),
            ChildSrc::Slice(children),
            target,
            created_by,
            est,
        )
    }

    /// Insert an expression, taking ownership of the operator (moved into
    /// the interner on first sight, dropped on a duplicate — never cloned).
    pub(crate) fn insert_owned(
        &mut self,
        op: LogicalOp,
        children: &[GroupId],
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Owned(op),
            ChildSrc::Slice(children),
            target,
            created_by,
            est,
        )
    }

    /// Insert an expression whose operator is already interned in *this*
    /// memo (e.g. reusing an existing expression's op with new children).
    pub(crate) fn insert_interned(
        &mut self,
        op: ExprId,
        children: &[GroupId],
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Interned(op),
            ChildSrc::Slice(children),
            target,
            created_by,
            est,
        )
    }

    /// Insert an owned operator over an existing expression's children
    /// (shared child range — no copy).
    pub(crate) fn insert_owned_children_of(
        &mut self,
        op: LogicalOp,
        children_of: MExprId,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Owned(op),
            ChildSrc::OfExpr(children_of),
            target,
            created_by,
            est,
        )
    }

    /// Insert an already-interned operator over an existing expression's
    /// children (shared child range — no copy, no clone).
    pub(crate) fn insert_interned_children_of(
        &mut self,
        op: ExprId,
        children_of: MExprId,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Interned(op),
            ChildSrc::OfExpr(children_of),
            target,
            created_by,
            est,
        )
    }

    /// Re-insert an existing expression (same operator, same children)
    /// into another group. Shares the source's child range — no copies at
    /// all.
    pub fn insert_existing(
        &mut self,
        src: MExprId,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        let op = self.exprs[src.index()].op;
        self.insert_inner(
            OpSrc::Interned(op),
            ChildSrc::OfExpr(src),
            target,
            created_by,
            est,
        )
    }

    fn insert_inner(
        &mut self,
        op: OpSrc<'_>,
        children: ChildSrc<'_>,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        let op_id = match op {
            OpSrc::Ref(r) => self.interner.intern(r),
            OpSrc::Owned(o) => self.interner.intern_owned(o),
            OpSrc::Interned(id) => id,
        };
        let shared_range = match children {
            ChildSrc::Slice(_) => None,
            ChildSrc::OfExpr(e) => {
                let ex = &self.exprs[e.index()];
                Some((ex.children_start, ex.children_len))
            }
        };
        let shared_slice = |slab: &[GroupId]| -> std::ops::Range<usize> {
            let (s, l) = shared_range.expect("range view only for shared children");
            debug_assert!((s + l) as usize <= slab.len());
            s as usize..(s + l) as usize
        };
        // Byte-identical to the legacy `expr_key`: the interner's stored
        // prefix is the hasher state right after `op.memo_hash`.
        let key = {
            let mut h = self.interner.prefix_hasher(op_id);
            match &children {
                ChildSrc::Slice(s) => s.hash(&mut h),
                ChildSrc::OfExpr(_) => {
                    self.child_slab[shared_slice(&self.child_slab)].hash(&mut h);
                }
            }
            h.finish()
        };
        // Dedup and budget checks first — rejected insertions touch no slab.
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
                if self.groups[g.index()].len() >= MAX_EXPRS_PER_GROUP {
                    self.budget_rejections += 1;
                    return Inserted::Budget;
                }
            }
        }
        if self.exprs.len() >= MAX_TOTAL_EXPRS {
            self.budget_rejections += 1;
            return Inserted::Budget;
        }
        let e = {
            let child_slice: &[GroupId] = match &children {
                ChildSrc::Slice(s) => s,
                ChildSrc::OfExpr(_) => &self.child_slab[shared_slice(&self.child_slab)],
            };
            let ce = SlabChildEsts {
                groups: &self.groups,
                ests: &self.ests,
                children: child_slice,
            };
            est.derive(self.interner.op(op_id), &ce)
        };
        let (children_start, children_len) = match children {
            ChildSrc::Slice(s) => {
                let start = self.child_slab.len() as u32;
                self.child_slab.extend_from_slice(s);
                (start, s.len() as u32)
            }
            ChildSrc::OfExpr(_) => shared_range.expect("shared range resolved above"),
        };
        let est_id = EstId(self.ests.len() as u32);
        self.ests.push(e);
        let group = match target {
            Some(g) => g,
            None => {
                let g = GroupId(self.groups.len() as u32);
                self.groups.push(Group {
                    first: NONE,
                    last: NONE,
                    len: 0,
                    est: est_id,
                });
                g
            }
        };
        let id = MExprId(self.exprs.len() as u32);
        let kind = self.interner.kind(op_id);
        self.kinds |= 1 << kind as u16;
        if let Some(rule) = created_by {
            self.created.insert(rule);
        }
        self.exprs.push(MExpr {
            op: op_id,
            kind,
            children_start,
            children_len,
            group,
            created_by,
            est: est_id,
            next_in_group: NONE,
        });
        let gi = group.index();
        let prev_last = self.groups[gi].last;
        let was_empty = self.groups[gi].len == 0;
        self.groups[gi].len += 1;
        self.groups[gi].last = id.0;
        if was_empty {
            self.groups[gi].first = id.0;
        } else {
            self.exprs[prev_last as usize].next_in_group = id.0;
        }
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

    /// The expression's operator, resolved through the interner.
    #[inline]
    pub fn op(&self, id: MExprId) -> &LogicalOp {
        self.interner.op(self.exprs[id.index()].op)
    }

    /// The expression's operator kind (cached; no interner lookup).
    #[inline]
    pub(crate) fn kind_of(&self, id: MExprId) -> OpKind {
        self.exprs[id.index()].kind
    }

    /// The expression's child groups.
    #[inline]
    pub fn children(&self, id: MExprId) -> &[GroupId] {
        let e = &self.exprs[id.index()];
        &self.child_slab[e.children_start as usize..(e.children_start + e.children_len) as usize]
    }

    /// The canonical (first) expression of a group.
    #[inline]
    pub fn canonical(&self, id: GroupId) -> MExprId {
        MExprId(self.groups[id.index()].first)
    }

    /// The canonical expression's operator.
    #[inline]
    pub fn canonical_op(&self, id: GroupId) -> &LogicalOp {
        self.op(self.canonical(id))
    }

    /// The canonical expression's kind.
    #[inline]
    pub(crate) fn canonical_kind(&self, id: GroupId) -> OpKind {
        self.kind_of(self.canonical(id))
    }

    /// Iterate a group's expressions in insertion order (canonical first).
    pub fn group_exprs(&self, id: GroupId) -> GroupExprs<'_> {
        GroupExprs {
            exprs: &self.exprs,
            next: self.groups[id.index()].first,
        }
    }

    /// The group's canonical logical estimate.
    #[inline]
    pub(crate) fn group_est(&self, id: GroupId) -> &LogicalEst {
        &self.ests[self.groups[id.index()].est.index()]
    }

    /// An expression's own logical estimate.
    #[inline]
    pub(crate) fn expr_est(&self, id: MExprId) -> &LogicalEst {
        &self.ests[self.exprs[id.index()].est.index()]
    }

    /// Resolve an estimate handle (e.g. `MExpr::est`, `Group::est`).
    #[inline]
    pub fn est(&self, id: EstId) -> &LogicalEst {
        &self.ests[id.index()]
    }

    /// View a child-group slice as its canonical estimates without
    /// materialising a `Vec<&LogicalEst>` (a [`ChildEsts`] impl for the
    /// costing path).
    #[inline]
    pub(crate) fn group_ests<'a>(&'a self, children: &'a [GroupId]) -> GroupEsts<'a> {
        GroupEsts {
            memo: self,
            children,
        }
    }

    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Number of insertions rejected by the memo's space budgets.
    pub(crate) fn budget_rejections(&self) -> usize {
        self.budget_rejections
    }

    /// The operator kinds of this memo's expressions, one bit per
    /// [`OpKind`] discriminant.
    #[inline]
    pub(crate) fn kinds_present(&self) -> u16 {
        self.kinds
    }

    /// The rules that created at least one of this memo's expressions.
    #[inline]
    pub fn created_by_rules(&self) -> RuleSet {
        self.created
    }

    /// Iterate all expression ids (insertion order — original plan first,
    /// then rule outputs).
    pub(crate) fn expr_ids(&self) -> impl Iterator<Item = MExprId> {
        (0..self.exprs.len() as u32).map(MExprId)
    }
}

/// Zero-allocation [`ChildEsts`] view: resolves each child group to its
/// canonical estimate on demand.
pub(crate) struct GroupEsts<'a> {
    memo: &'a Memo,
    children: &'a [GroupId],
}

impl ChildEsts for GroupEsts<'_> {
    fn len(&self) -> usize {
        self.children.len()
    }
    fn get(&self, i: usize) -> &LogicalEst {
        self.memo.group_est(self.children[i])
    }
}

/// Iterator over a group's expressions (intrusive list walk).
pub struct GroupExprs<'a> {
    exprs: &'a [MExpr],
    next: u32,
}

impl Iterator for GroupExprs<'_> {
    type Item = MExprId;

    fn next(&mut self) -> Option<MExprId> {
        if self.next == NONE {
            return None;
        }
        let id = MExprId(self.next);
        self.next = self.exprs[id.index()].next_in_group;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
    use scope_ir::ids::{ColId, DomainId, TableId};
    use scope_ir::TrueCatalog;

    fn cat() -> TrueCatalog {
        let mut cat = TrueCatalog::new();
        let c0 = cat.add_column(100, 0.0, DomainId(0));
        cat.add_table(10_000, 100, 1, vec![c0]);
        cat
    }

    fn filter_op(lit: i64) -> LogicalOp {
        LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(ColId(0), CmpOp::Eq, Literal::Int(lit))),
        }
    }

    #[test]
    fn ingest_dedups_shared_nodes() {
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(
            LogicalOp::RangeGet {
                table: TableId(0),
                pushed: Predicate::true_pred(),
            },
            vec![],
        );
        let f = plan.add_unchecked(filter_op(1), vec![s]);
        let u = plan.add_unchecked(LogicalOp::UnionAll, vec![f, f]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 0 }, vec![u]);
        plan.set_root(o);

        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let (memo, root) = Memo::from_plan(&plan, &est).unwrap();
        // scan, filter, union, output — shared filter ingested once.
        assert_eq!(memo.num_groups(), 4);
        assert_eq!(memo.num_exprs(), 4);
        assert_eq!(memo.canonical_kind(root), scope_ir::OpKind::Output);
    }

    /// The kinds and creating rules are recorded by landed insertions
    /// only, and `clear` forgets them.
    #[test]
    fn footprint_sets_follow_landed_insertions() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let Inserted::New(s) = memo.insert_ref(&scan, &[], None, None, &est) else {
            panic!()
        };
        let g = memo.expr(s).group;
        let Inserted::New(f) = memo.insert_owned(filter_op(1), &[g], None, Some(RuleId(90)), &est)
        else {
            panic!()
        };
        // A duplicate under another rule names no rule.
        let dup = memo.insert_owned(filter_op(1), &[g], None, Some(RuleId(91)), &est);
        assert_eq!(dup, Inserted::Duplicate(f));
        let scanned: u16 = memo
            .expr_ids()
            .fold(0, |k, e| k | 1 << memo.kind_of(e) as u16);
        assert_eq!(memo.kinds_present(), scanned);
        assert_eq!(
            memo.kinds_present(),
            1 << OpKind::RangeGet as u16 | 1 << OpKind::Filter as u16
        );
        let mut created = RuleSet::EMPTY;
        created.insert(RuleId(90));
        assert_eq!(memo.created_by_rules(), created);
        memo.clear();
        assert_eq!(memo.kinds_present(), 0);
        assert_eq!(memo.created_by_rules(), RuleSet::EMPTY);
    }

    #[test]
    fn insert_dedups_identical_expressions() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let first = memo.insert_ref(&scan, &[], None, None, &est);
        let Inserted::New(e1) = first else { panic!() };
        let second = memo.insert_owned(scan, &[], None, None, &est);
        assert_eq!(second, Inserted::Duplicate(e1));
        assert_eq!(memo.num_groups(), 1);
        // The duplicate was deduplicated inside the interner too.
        assert_eq!(memo.num_exprs(), 1);
    }

    #[test]
    fn alternative_exprs_share_group_but_keep_own_estimates() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let Inserted::New(scan_e) = memo.insert_owned(scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f1) = memo.insert_owned(filter_op(1), &[scan_g], None, None, &est) else {
            panic!()
        };
        let fg = memo.expr(f1).group;
        // An alternative in the same group: the same filter with the
        // predicate pushed into the scan would be the realistic case; here
        // we just add a differently-valued filter as a stand-in alternative.
        let Inserted::New(f2) =
            memo.insert_owned(filter_op(2), &[scan_g], Some(fg), Some(RuleId(90)), &est)
        else {
            panic!()
        };
        assert_eq!(memo.expr(f2).group, fg);
        assert_eq!(memo.group_exprs(fg).count(), 2);
        assert_eq!(memo.expr(f2).created_by, Some(RuleId(90)));
        // Canonical estimate is from the first expression.
        assert_eq!(memo.group_est(fg).rows, memo.expr_est(f1).rows);
        // Intrusive list yields insertion order, canonical first.
        let order: Vec<MExprId> = memo.group_exprs(fg).collect();
        assert_eq!(order, vec![f1, f2]);
        assert_eq!(memo.canonical(fg), f1);
    }

    #[test]
    fn group_budget_is_enforced() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let Inserted::New(scan_e) = memo.insert_owned(scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f) = memo.insert_owned(filter_op(0), &[scan_g], None, None, &est) else {
            panic!()
        };
        let fg = memo.expr(f).group;
        let mut budget_hit = false;
        for lit in 1..100 {
            if let Inserted::Budget =
                memo.insert_owned(filter_op(lit), &[scan_g], Some(fg), None, &est)
            {
                budget_hit = true;
                break;
            }
        }
        assert!(budget_hit);
        assert_eq!(memo.group_exprs(fg).count(), MAX_EXPRS_PER_GROUP);
        assert!(memo.budget_rejections() >= 1);
    }

    #[test]
    fn insert_existing_shares_the_child_range() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let Inserted::New(scan_e) = memo.insert_owned(scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f1) = memo.insert_owned(filter_op(1), &[scan_g], None, None, &est) else {
            panic!()
        };
        // Make a second group, then re-insert f1's expression into it.
        let Inserted::New(f2) = memo.insert_owned(filter_op(2), &[scan_g], None, None, &est) else {
            panic!()
        };
        let other = memo.expr(f2).group;
        let slab_before = memo.child_slab.len();
        let Inserted::New(re) = memo.insert_existing(f1, Some(other), Some(RuleId(84)), &est)
        else {
            panic!()
        };
        assert_eq!(memo.child_slab.len(), slab_before, "no child copy");
        assert_eq!(memo.children(re), memo.children(f1));
        assert_eq!(memo.op(re), memo.op(f1));
        // Re-inserting the identical shape into the same group again is a
        // duplicate, not a new expression.
        assert_eq!(
            memo.insert_existing(f1, Some(other), Some(RuleId(84)), &est),
            Inserted::Duplicate(re)
        );
    }

    #[test]
    fn cleared_memo_reproduces_identical_ids() {
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(
            LogicalOp::RangeGet {
                table: TableId(0),
                pushed: Predicate::true_pred(),
            },
            vec![],
        );
        let f = plan.add_unchecked(filter_op(1), vec![s]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
        plan.set_root(o);

        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let root1 = memo.ingest(&plan, &est).unwrap();
        let n1 = (memo.num_groups(), memo.num_exprs());
        memo.clear();
        assert_eq!(memo.num_exprs(), 0);
        let root2 = memo.ingest(&plan, &est).unwrap();
        assert_eq!(root1, root2);
        assert_eq!(n1, (memo.num_groups(), memo.num_exprs()));
    }
}
