//! Hash-consing interners for plan expressions and predicate atoms.
//!
//! The optimizer's hot compile path used to carry owned [`LogicalOp`]s
//! through the memo, cloning one per insertion and re-streaming the full
//! memo hash (predicate atoms, literals, key lists) on every dedup probe.
//! [`ExprInterner`] replaces that with integer [`ExprId`] handles: each
//! distinct operator is stored once per compile, and its hash prefix is
//! kept as a *resumable hasher state* so the memo key for `(op, children)`
//! can be finished with just the children — byte-identical to hashing the
//! op from scratch, at integer-append cost.
//!
//! ## Collision semantics (deliberately inherited)
//!
//! The memo has always deduplicated expressions purely by their streamed
//! `memo_hash` — there is no structural equality check behind the hash
//! (see `scope-optimizer/src/memo.rs`). The interner keys its table the
//! same way, on the finished prefix hash alone. Two operators whose memo
//! hash streams collide therefore intern to one id — exactly the behavior
//! the pre-intern memo had for the same pair. Changing either layer to
//! structural equality would *change compile results*; keeping the
//! semantics aligned is what makes the interned path bit-identical.
//!
//! Both interners are scratch structures: [`ExprInterner::clear`] forgets
//! the entries but keeps the allocations, so a thread-local compile scratch
//! reaches a zero-allocation steady state across compiles.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use crate::expr::CmpOp;
use crate::hash::WordHashMap;
use crate::ids::ColId;
use crate::ops::{LogicalOp, OpKind};

/// Handle to an interned [`LogicalOp`] (valid for one interner lifetime /
/// until [`ExprInterner::clear`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(pub u32);

impl ExprId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an interned predicate-atom *shape* (`(column, operator)` —
/// the full input domain of the estimator's per-atom selectivity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash-consing store for [`LogicalOp`]s, keyed on the operator's
/// streamed [`LogicalOp::memo_hash`].
#[derive(Debug, Default)]
pub struct ExprInterner {
    ops: Vec<LogicalOp>,
    kinds: Vec<OpKind>,
    /// Hasher state after streaming `op.memo_hash` — cloned and resumed by
    /// the memo to finish `(op, children)` keys without re-hashing the op.
    prefixes: Vec<DefaultHasher>,
    /// Probed by the finished prefix hash, which is already a hash.
    by_hash: WordHashMap<u64, ExprId>,
}

impl ExprInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern by reference; clones the operator only on first sight.
    pub fn intern(&mut self, op: &LogicalOp) -> ExprId {
        let (prefix, key) = Self::prefix_of(op);
        if let Some(&id) = self.by_hash.get(&key) {
            return id;
        }
        self.push(op.clone(), prefix, key)
    }

    /// Intern an owned operator; moves it in on first sight, drops it on a
    /// hit (never clones).
    pub fn intern_owned(&mut self, op: LogicalOp) -> ExprId {
        let (prefix, key) = Self::prefix_of(&op);
        if let Some(&id) = self.by_hash.get(&key) {
            return id;
        }
        self.push(op, prefix, key)
    }

    fn prefix_of(op: &LogicalOp) -> (DefaultHasher, u64) {
        let mut h = DefaultHasher::new();
        op.memo_hash(&mut h);
        let key = h.finish();
        (h, key)
    }

    fn push(&mut self, op: LogicalOp, prefix: DefaultHasher, key: u64) -> ExprId {
        let id = ExprId(self.ops.len() as u32);
        self.kinds.push(op.kind());
        self.ops.push(op);
        self.prefixes.push(prefix);
        self.by_hash.insert(key, id);
        id
    }

    /// The interned operator.
    #[inline]
    pub fn op(&self, id: ExprId) -> &LogicalOp {
        &self.ops[id.index()]
    }

    /// The operator's kind (cached: no match on the op itself).
    #[inline]
    pub fn kind(&self, id: ExprId) -> OpKind {
        self.kinds[id.index()]
    }

    /// A clone of the hasher state right after `op.memo_hash` was streamed
    /// into a fresh `DefaultHasher`. Feeding the children and finishing
    /// yields the exact key `expr_key` produced before interning existed.
    #[inline]
    pub fn prefix_hasher(&self, id: ExprId) -> DefaultHasher {
        self.prefixes[id.index()].clone()
    }

    /// Number of distinct operators interned.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Forget all entries but keep the allocations (scratch reuse).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.kinds.clear();
        self.prefixes.clear();
        self.by_hash.clear();
    }
}

/// Hash-consing store for predicate-atom shapes. The estimator's
/// per-atom selectivity is a pure function of `(column, operator)` — the
/// literal does not participate — so interning on exactly that pair lets
/// a side table memoize selectivities with zero collision risk.
#[derive(Debug, Default)]
pub struct AtomInterner {
    keys: Vec<(ColId, CmpOp)>,
    by_key: WordHashMap<(ColId, CmpOp), AtomId>,
}

impl AtomInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an atom shape; returns the id and whether it was new (a new
    /// id always equals the previous [`Self::len`], so parallel side
    /// tables can push in lockstep).
    pub fn intern(&mut self, col: ColId, op: CmpOp) -> (AtomId, bool) {
        if let Some(&id) = self.by_key.get(&(col, op)) {
            return (id, false);
        }
        let id = AtomId(self.keys.len() as u32);
        self.keys.push((col, op));
        self.by_key.insert((col, op), id);
        (id, true)
    }

    /// The interned shape.
    #[inline]
    pub fn shape(&self, id: AtomId) -> (ColId, CmpOp) {
        self.keys[id.index()]
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Forget all entries but keep the allocations (scratch reuse).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.by_key.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Literal, PredAtom, Predicate};
    use crate::ids::TableId;
    use std::hash::Hash;

    fn filter(col: u32, lit: i64) -> LogicalOp {
        LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(ColId(col), CmpOp::Eq, Literal::Int(lit))),
        }
    }

    #[test]
    fn interning_is_idempotent_and_distinguishes_values() {
        let mut i = ExprInterner::new();
        let a = i.intern(&filter(0, 1));
        let b = i.intern(&filter(0, 1));
        let c = i.intern(&filter(0, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.kind(a), OpKind::Filter);
        assert_eq!(i.op(a), &filter(0, 1));
    }

    #[test]
    fn intern_owned_matches_intern_by_ref() {
        let mut i = ExprInterner::new();
        let a = i.intern(&filter(3, 7));
        let b = i.intern_owned(filter(3, 7));
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn prefix_hasher_resumes_to_the_legacy_expr_key() {
        // The pre-intern memo computed:
        //   h = DefaultHasher::new(); op.memo_hash(&mut h);
        //   children.hash(&mut h); h.finish()
        // Resuming the interned prefix must produce the identical key.
        let ops = [
            filter(1, 42),
            LogicalOp::RangeGet {
                table: TableId(3),
                pushed: Predicate::atom(PredAtom::unknown(ColId(2), CmpOp::Range, Literal::Int(9))),
            },
            LogicalOp::UnionAll,
            LogicalOp::Top { k: 10 },
        ];
        let children_cases: [&[u32]; 3] = [&[], &[0], &[5, 2, 5]];
        let mut i = ExprInterner::new();
        for op in &ops {
            let id = i.intern(op);
            for children in children_cases {
                let children: Vec<u32> = children.to_vec();
                let legacy = {
                    let mut h = DefaultHasher::new();
                    op.memo_hash(&mut h);
                    children.hash(&mut h);
                    h.finish()
                };
                let resumed = {
                    let mut h = i.prefix_hasher(id);
                    children.hash(&mut h);
                    h.finish()
                };
                assert_eq!(legacy, resumed, "{op:?} / {children:?}");
            }
        }
    }

    #[test]
    fn clear_retains_capacity_and_resets_ids() {
        let mut i = ExprInterner::new();
        for lit in 0..32 {
            i.intern_owned(filter(0, lit));
        }
        assert_eq!(i.len(), 32);
        i.clear();
        assert!(i.is_empty());
        let a = i.intern(&filter(9, 9));
        assert_eq!(a, ExprId(0));
    }

    #[test]
    fn atom_interner_keys_on_col_and_op_only() {
        let mut ai = AtomInterner::new();
        let (a, new_a) = ai.intern(ColId(1), CmpOp::Eq);
        let (b, new_b) = ai.intern(ColId(1), CmpOp::Eq);
        let (c, _) = ai.intern(ColId(1), CmpOp::Range);
        let (d, _) = ai.intern(ColId(2), CmpOp::Eq);
        assert!(new_a);
        assert!(!new_b);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(ai.len(), 3);
        assert_eq!(ai.shape(c), (ColId(1), CmpOp::Range));
        ai.clear();
        assert!(ai.is_empty());
        let (e, fresh) = ai.intern(ColId(5), CmpOp::Like);
        assert_eq!(e, AtomId(0));
        assert!(fresh);
    }
}
