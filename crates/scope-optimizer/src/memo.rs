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
//! [`Memo::clear`] resets every slab and map without freeing, so a
//! thread-local compile scratch ([`crate::optimizer::CompileScratch`])
//! stops growing its slabs once it has held its largest memo. That holds
//! for what a new expression owns too: `clear` keeps the estimate slab's
//! entries, and an insertion writes its estimate over a retired entry with
//! `Estimator::derive_into`, whose column list keeps its capacity; the
//! interner copies a first-seen operator into a retired operator of its
//! kind. [`Memo::ingest`] normalizes the plan as it inserts it, through a
//! staged operator and reachability buffers the memo keeps. A warm memo
//! allocates only where an insertion outgrows what an earlier compile left.
//!
//! ## Dedup keys
//!
//! Expressions are keyed by `(op.memo_hash, children)` streamed into a
//! [`scope_ir::hash::WordHasher`]: the interner stores the hasher state
//! after the op prefix, and `Memo::insert_inner` resumes a copy of it with
//! the children. Every hit in the two maps the key probes (`any_group`,
//! `by_group`) is confirmed structurally — the same interned [`ExprId`]
//! (which the interner itself confirms with [`LogicalOp::memo_eq`]) and the
//! same child slice — and a hit that differs makes the lookup probe the
//! next key. A 64-bit collision therefore costs a probe and never merges
//! two expressions, so the key needs no stronger hash than the word
//! hasher's, and the maps, which are never iterated, index it with the
//! same hasher.

use std::fmt;
use std::hash::{Hash, Hasher};

use scope_ir::hash::WordHashMap;
use scope_ir::{ExprId, ExprInterner, LogicalOp, OpKind, PlanGraph};

use crate::estimate::{ChildEsts, Estimator, LogicalEst};
use crate::normalize::{walk, Normalization, WalkScratch};
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

/// Operator source for [`Memo::insert_inner`]: a borrowed operator or an
/// already-interned handle. Copying happens at most once (borrowed op,
/// first sight) and never for duplicates or budget rejections.
enum OpSrc<'a> {
    Ref(&'a LogicalOp),
    Interned(ExprId),
}

/// Children source: an external slice (copied into the slab only when the
/// insertion actually lands) or an existing expression's range (shared,
/// zero-copy).
#[derive(Clone, Copy)]
enum ChildSrc<'a> {
    Slice(&'a [GroupId]),
    OfExpr(MExprId),
}

impl<'a> ChildSrc<'a> {
    /// The child groups this names, given the memo's expression and child
    /// slabs.
    fn list(self, exprs: &[MExpr], child_slab: &'a [GroupId]) -> &'a [GroupId] {
        match self {
            ChildSrc::Slice(s) => s,
            ChildSrc::OfExpr(e) => expr_children(exprs, child_slab, e),
        }
    }
}

/// Expression `e`'s range of the child slab.
#[inline]
fn expr_children<'a>(exprs: &[MExpr], child_slab: &'a [GroupId], e: MExprId) -> &'a [GroupId] {
    let e = &exprs[e.index()];
    &child_slab[e.children_start as usize..(e.children_start + e.children_len) as usize]
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
    /// One estimate per expression in `ests[..n_ests]`; group estimates
    /// alias the canonical expression's entry. Entries past `n_ests` are
    /// earlier compiles', kept for their column lists' capacity.
    ests: Vec<LogicalEst>,
    n_ests: usize,
    /// Per-memo operator interner (see module docs).
    interner: ExprInterner,
    /// `(op, children)` key → first expression anywhere; used to reuse
    /// groups when a rewrite re-creates a known sub-expression.
    any_group: WordHashMap<u64, MExprId>,
    /// `((op, children) key, group)` → expression; prevents duplicate
    /// alternatives within one group while still allowing the same shape to
    /// appear in several groups (needed for identity-elimination rewrites).
    by_group: WordHashMap<(u64, GroupId), MExprId>,
    /// Insertions rejected by the per-group or global budget (observability
    /// counter, surfaced in `CompiledPlan` stats).
    budget_rejections: usize,
    /// One bit per [`OpKind`] some expression has (set as it inserts).
    kinds: u16,
    /// Rules named in some expression's `created_by` (set as it inserts).
    created: RuleSet,
    /// Ingest scratch, kept across [`Memo::clear`] for allocation reuse:
    /// each plan node's group, one node's child groups, and the
    /// normalizing walk's buffers.
    node_group: Vec<GroupId>,
    ingest_children: Vec<GroupId>,
    walk: WalkScratch,
}

impl Default for Memo {
    fn default() -> Memo {
        Memo::empty()
    }
}

impl Memo {
    /// Ingest a logical plan, normalized, into a fresh memo. Shared DAG nodes
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
            n_ests: 0,
            interner: ExprInterner::new(),
            any_group: WordHashMap::default(),
            by_group: WordHashMap::default(),
            budget_rejections: 0,
            kinds: 0,
            created: RuleSet::EMPTY,
            node_group: Vec::new(),
            ingest_children: Vec::new(),
            walk: WalkScratch::default(),
        }
    }

    /// Reset every slab and table without freeing — the allocation-reuse
    /// half of the compile-scratch contract.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.exprs.clear();
        self.child_slab.clear();
        self.n_ests = 0;
        self.interner.clear();
        self.any_group.clear();
        self.by_group.clear();
        self.budget_rejections = 0;
        self.kinds = 0;
        self.created = RuleSet::EMPTY;
        self.node_group.clear();
        self.ingest_children.clear();
    }

    /// Ingest a plan into this (empty or cleared) memo in normalized form
    /// and return the root group. Each reachable node's normal form
    /// ([`crate::normalize`]) is inserted by reference, children first, so
    /// the memo holds exactly what ingesting the normalized plan would.
    pub fn ingest(
        &mut self,
        plan: &PlanGraph,
        est: &Estimator<'_>,
    ) -> Result<GroupId, CompileError> {
        self.ingest_visiting(plan, est, |_| {})
            .map(|(root, _)| root)
    }

    /// [`Memo::ingest`] that also shows `visit` the normal form of every
    /// node, reachable or not, and returns what normalization fired and
    /// counted: one walk over the plan does all three.
    pub(crate) fn ingest_visiting(
        &mut self,
        plan: &PlanGraph,
        est: &Estimator<'_>,
        mut visit: impl FnMut(&LogicalOp),
    ) -> Result<(GroupId, Normalization), CompileError> {
        debug_assert!(self.exprs.is_empty(), "ingest expects an empty memo");
        let mut scratch = std::mem::take(&mut self.walk);
        let mut node_group = std::mem::take(&mut self.node_group);
        let mut children = std::mem::take(&mut self.ingest_children);
        node_group.clear();
        node_group.resize(plan.len(), GroupId(NONE));
        let walked = walk(plan, &mut scratch, |id, op, kids, reachable| {
            visit(op);
            if !reachable {
                return Ok(());
            }
            children.clear();
            children.extend(kids.iter().map(|c| node_group[c.index()]));
            match self.insert_ref(op, &children, None, None, est) {
                Inserted::New(e) | Inserted::Duplicate(e) => {
                    node_group[id.index()] = self.exprs[e.index()].group;
                    Ok(())
                }
                Inserted::Budget => Err(CompileError::MemoExhausted {
                    groups: self.num_groups(),
                    exprs: self.num_exprs(),
                }),
            }
        });
        let root = plan.root().map(|root| node_group[root.index()]);
        self.walk = scratch;
        self.node_group = node_group;
        self.ingest_children = children;
        let normal = walked?;
        Ok((root.expect("plan has root"), normal))
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

    /// Insert a borrowed operator over an existing expression's children
    /// (shared child range — no copy).
    pub(crate) fn insert_ref_children_of(
        &mut self,
        op: &LogicalOp,
        children_of: MExprId,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        self.insert_inner(
            OpSrc::Ref(op),
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
        let op = match op {
            OpSrc::Ref(r) => self.interner.intern(r),
            OpSrc::Interned(id) => id,
        };
        // The interner's stored prefix is the hasher state right after
        // `op.memo_hash`; the children finish the key.
        let key = {
            let mut h = self.interner.prefix_hasher(op);
            children.list(&self.exprs, &self.child_slab).hash(&mut h);
            h.finish()
        };
        self.insert_keyed(op, children, key, target, created_by, est)
    }

    /// [`Self::insert_ref`] with the expression's key forced to `key`, so
    /// a test can make distinct expressions collide.
    #[cfg(test)]
    fn insert_ref_under_key(
        &mut self,
        op: &LogicalOp,
        children: &[GroupId],
        key: u64,
        target: Option<GroupId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        let op = self.interner.intern(op);
        self.insert_keyed(op, ChildSrc::Slice(children), key, target, None, est)
    }

    /// Insert `op` over `children` under the dedup key `key`: a duplicate
    /// is the same operator over the same children, anywhere for a new
    /// group or within `target` for an alternative.
    fn insert_keyed(
        &mut self,
        op: ExprId,
        children: ChildSrc<'_>,
        key: u64,
        target: Option<GroupId>,
        created_by: Option<RuleId>,
        est: &Estimator<'_>,
    ) -> Inserted {
        let child_list = children.list(&self.exprs, &self.child_slab);
        let same = |e: MExprId| self.exprs[e.index()].op == op && self.children(e) == child_list;
        // Dedup and budget checks first — rejected insertions touch no slab.
        let by_key = match target {
            // A new group has no alternative yet.
            None => key,
            Some(g) => match probe(&self.by_group, key, |k| (k, g), same) {
                Ok(existing) => return Inserted::Duplicate(existing),
                Err(free) => free,
            },
        };
        let any_key = match probe(&self.any_group, key, |k| k, same) {
            Ok(existing) if target.is_none() => return Inserted::Duplicate(existing),
            Ok(_) => None,
            Err(free) => Some(free),
        };
        if target.is_some_and(|g| self.groups[g.index()].len() >= MAX_EXPRS_PER_GROUP)
            || self.exprs.len() >= MAX_TOTAL_EXPRS
        {
            self.budget_rejections += 1;
            return Inserted::Budget;
        }
        // The new estimate goes to the first entry past the live ones,
        // written over what an earlier compile left there; every child's
        // estimate is a live one before it.
        let est_id = EstId(self.n_ests as u32);
        if self.n_ests == self.ests.len() {
            self.ests.push(LogicalEst::default());
        }
        let (live, spare) = self.ests.split_at_mut(self.n_ests);
        est.derive_into(
            self.interner.op(op),
            &SlabChildEsts {
                groups: &self.groups,
                ests: live,
                children: children.list(&self.exprs, &self.child_slab),
            },
            &mut spare[0],
        );
        self.n_ests += 1;
        let (children_start, children_len) = match children {
            ChildSrc::Slice(s) => {
                let start = self.child_slab.len() as u32;
                self.child_slab.extend_from_slice(s);
                (start, s.len() as u32)
            }
            ChildSrc::OfExpr(e) => {
                let ex = &self.exprs[e.index()];
                (ex.children_start, ex.children_len)
            }
        };
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
        let kind = self.interner.kind(op);
        self.kinds |= 1 << kind as u16;
        if let Some(rule) = created_by {
            self.created.insert(rule);
        }
        self.exprs.push(MExpr {
            op,
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
        if let Some(free) = any_key {
            self.any_group.insert(free, id);
        }
        self.by_group.insert((by_key, group), id);
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

    /// The memo's operator interner: resolves an [`MExpr::op`] handle.
    #[inline]
    pub(crate) fn interner(&self) -> &ExprInterner {
        &self.interner
    }

    /// The expression's operator kind (cached; no interner lookup).
    #[inline]
    pub(crate) fn kind_of(&self, id: MExprId) -> OpKind {
        self.exprs[id.index()].kind
    }

    /// The expression's child groups.
    #[inline]
    pub fn children(&self, id: MExprId) -> &[GroupId] {
        expr_children(&self.exprs, &self.child_slab, id)
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

/// Probe `map` from `key` for the expression `same` accepts, or else the
/// first key of the probe sequence no entry holds. A hit `same` refuses is
/// a 64-bit collision and costs one more probe (`key + 1`, …); entries are
/// only removed all at once ([`Memo::clear`]), so no sequence has a hole.
fn probe<K: std::hash::Hash + Eq>(
    map: &WordHashMap<K, MExprId>,
    mut key: u64,
    at: impl Fn(u64) -> K,
    same: impl Fn(MExprId) -> bool,
) -> Result<MExprId, u64> {
    while let Some(&e) = map.get(&at(key)) {
        if same(e) {
            return Ok(e);
        }
        key = key.wrapping_add(1);
    }
    Err(key)
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
        let Inserted::New(f) = memo.insert_ref(&filter_op(1), &[g], None, Some(RuleId(90)), &est)
        else {
            panic!()
        };
        // A duplicate under another rule names no rule.
        let dup = memo.insert_ref(&filter_op(1), &[g], None, Some(RuleId(91)), &est);
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
        let second = memo.insert_ref(&scan, &[], None, None, &est);
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
        let Inserted::New(scan_e) = memo.insert_ref(&scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f1) = memo.insert_ref(&filter_op(1), &[scan_g], None, None, &est) else {
            panic!()
        };
        let fg = memo.expr(f1).group;
        // An alternative in the same group: the same filter with the
        // predicate pushed into the scan would be the realistic case; here
        // we just add a differently-valued filter as a stand-in alternative.
        let Inserted::New(f2) =
            memo.insert_ref(&filter_op(2), &[scan_g], Some(fg), Some(RuleId(90)), &est)
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
        let Inserted::New(scan_e) = memo.insert_ref(&scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f) = memo.insert_ref(&filter_op(0), &[scan_g], None, None, &est) else {
            panic!()
        };
        let fg = memo.expr(f).group;
        let mut budget_hit = false;
        for lit in 1..100 {
            if let Inserted::Budget =
                memo.insert_ref(&filter_op(lit), &[scan_g], Some(fg), None, &est)
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
        let Inserted::New(scan_e) = memo.insert_ref(&scan, &[], None, None, &est) else {
            panic!()
        };
        let scan_g = memo.expr(scan_e).group;
        let Inserted::New(f1) = memo.insert_ref(&filter_op(1), &[scan_g], None, None, &est) else {
            panic!()
        };
        // Make a second group, then re-insert f1's expression into it.
        let Inserted::New(f2) = memo.insert_ref(&filter_op(2), &[scan_g], None, None, &est) else {
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

    /// Every expression inserted under one key: the hash says nothing, so
    /// only the same operator over the same children may be a duplicate,
    /// in the same group for an alternative.
    #[test]
    fn a_forced_collision_keeps_distinct_expressions_apart() {
        let cat = cat();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let mut memo = Memo::empty();
        let scan = |t| LogicalOp::RangeGet {
            table: TableId(t),
            pushed: Predicate::true_pred(),
        };
        let insert = |memo: &mut Memo, op: &LogicalOp, children: &[GroupId], target| match memo
            .insert_ref_under_key(op, children, 42, target, &est)
        {
            Inserted::New(e) => Ok(e),
            Inserted::Duplicate(e) => Err(e),
            Inserted::Budget => panic!("budget"),
        };
        let s0 = insert(&mut memo, &scan(0), &[], None).unwrap();
        let s1 = insert(&mut memo, &scan(1), &[], None).unwrap();
        let (g0, g1) = (memo.expr(s0).group, memo.expr(s1).group);
        let f0 = insert(&mut memo, &filter_op(1), &[g0], None).unwrap();
        let f1 = insert(&mut memo, &filter_op(1), &[g1], None).unwrap();
        let f2 = insert(&mut memo, &filter_op(2), &[g0], None).unwrap();
        let u = insert(&mut memo, &LogicalOp::UnionAll, &[g0, g1], None).unwrap();
        let v = insert(&mut memo, &LogicalOp::UnionAll, &[g1, g0], None).unwrap();
        assert_eq!(memo.num_groups(), 7, "a collision merged two expressions");
        // Each one is found again, behind the others in the probe sequence.
        assert_eq!(insert(&mut memo, &filter_op(1), &[g1], None), Err(f1));
        assert_eq!(
            insert(&mut memo, &LogicalOp::UnionAll, &[g1, g0], None),
            Err(v)
        );
        // An alternative is a duplicate only within its own group.
        let fg = memo.expr(f0).group;
        let alt = insert(&mut memo, &filter_op(1), &[g1], Some(fg)).unwrap();
        assert_eq!(insert(&mut memo, &filter_op(1), &[g1], Some(fg)), Err(alt));
        assert_eq!(
            insert(&mut memo, &filter_op(2), &[g0], Some(fg)).map(|_| ()),
            Ok(())
        );
        // The first expression anywhere stays the one a new group reuses.
        assert_eq!(insert(&mut memo, &filter_op(1), &[g1], None), Err(f1));
        assert_eq!(memo.group_exprs(fg).count(), 3);
        assert_eq!(memo.num_exprs(), 9);
        assert_ne!(memo.expr(f2).group, memo.expr(u).group);
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

    /// A memo that held a wider plan writes each new estimate over an old
    /// one: nothing of the old estimate survives, and the raw `Get` and
    /// `Select` of the plan are ingested in normal form.
    #[test]
    fn a_reused_estimate_equals_a_fresh_one() {
        let mut cat = cat();
        let cols: Vec<ColId> = (0..6)
            .map(|i| cat.add_column(10 + i, 0.0, DomainId(1)))
            .collect();
        cat.add_table(500, 60, 2, cols);
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let plan = |table: u32| {
            let mut plan = PlanGraph::new();
            let s = plan.add_unchecked(
                LogicalOp::Get {
                    table: TableId(table),
                },
                vec![],
            );
            let f = plan.add_unchecked(
                LogicalOp::Select {
                    predicate: Predicate::atom(PredAtom::unknown(
                        ColId(0),
                        CmpOp::Eq,
                        Literal::Int(1),
                    )),
                },
                vec![s],
            );
            let o = plan.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
            plan.set_root(o);
            plan
        };
        let mut memo = Memo::empty();
        memo.ingest(&plan(1), &est).unwrap();
        memo.clear();
        memo.ingest(&plan(0), &est).unwrap();
        let (fresh, _) = Memo::from_plan(&plan(0), &est).unwrap();
        assert_eq!(memo.num_exprs(), fresh.num_exprs());
        for e in memo.expr_ids() {
            assert_eq!(memo.expr_est(e), fresh.expr_est(e));
            assert_eq!(memo.op(e), fresh.op(e));
        }
        assert_eq!(memo.kinds_present(), fresh.kinds_present());
        assert!(memo.kinds_present() & (1 << OpKind::Get as u16 | 1 << OpKind::Select as u16) == 0);
    }
}
