//! Hash-consing interners for plan expressions and predicate atoms.
//!
//! The optimizer's hot compile path used to carry owned [`LogicalOp`]s
//! through the memo, cloning one per insertion and re-streaming the full
//! memo hash (predicate atoms, literals, key lists) on every dedup probe.
//! [`ExprInterner`] replaces that with integer [`ExprId`] handles: each
//! distinct operator is stored once per compile, and its hash prefix is
//! kept as a *resumable hasher state* so the memo key for `(op, children)`
//! can be finished with just the children, at integer-append cost.
//!
//! ## Exact hash-consing
//!
//! Operators are keyed by [`LogicalOp::memo_hash`] streamed into a
//! [`WordHasher`], and every hit is confirmed with [`LogicalOp::memo_eq`].
//! A hit whose operator differs is a 64-bit collision: the lookup probes
//! the next key (`key + 1`, then `key + 2`, …) until it finds the operator
//! or a free key. Entries are never removed before [`ExprInterner::clear`],
//! so a probe sequence never has a hole. Two operators intern to one id
//! exactly when they have one memo identity, whatever their hashes; the
//! memo (`scope-optimizer/src/memo.rs`) confirms its `(op, children)` keys
//! the same way, so no collision can merge two expressions, and the hash
//! only has to be fast, not strong.
//!
//! Both interners are scratch structures: [`ExprInterner::clear`] forgets
//! the entries but keeps the allocations, so a reused interner stops
//! growing once it has held its largest compile. That includes the
//! operators themselves: `clear` retires each one to a pool of its kind,
//! and a first-seen operator interned by reference is copied into a
//! retired operator of its kind with `clone_from`, whose lists keep their
//! capacity. A warm interner allocates only for an operator whose kind
//! has no retired operator left, or whose lists outgrow the retired one's.

use std::hash::Hasher;

use crate::expr::CmpOp;
use crate::hash::{WordHashMap, WordHasher};
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

/// Hash-consing store for [`LogicalOp`]s: one id per memo identity (see
/// the module docs).
#[derive(Debug, Default)]
pub struct ExprInterner {
    ops: Vec<LogicalOp>,
    kinds: Vec<OpKind>,
    /// Hasher state after streaming `op.memo_hash` — cloned and resumed by
    /// the memo to finish `(op, children)` keys without re-hashing the op.
    prefixes: Vec<WordHasher>,
    /// Probed from the finished prefix hash, which is already a hash.
    by_hash: WordHashMap<u64, ExprId>,
    /// Operators of earlier entries, by kind: [`Self::clear`] retires them
    /// here, and a first-seen operator of their kind is copied into one.
    retired: [Vec<LogicalOp>; OpKind::COUNT],
}

impl ExprInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern by reference; copies the operator only on first sight, into
    /// a retired operator of its kind when there is one.
    pub fn intern(&mut self, op: &LogicalOp) -> ExprId {
        let (prefix, key) = Self::prefix_of(op);
        self.find(op, key)
            .unwrap_or_else(|free| self.push_copy(op, prefix, free))
    }

    /// [`Self::intern`] with the operator's key forced to `key`, so a test
    /// can make distinct operators collide.
    #[cfg(test)]
    fn intern_under_key(&mut self, op: &LogicalOp, key: u64) -> ExprId {
        let (prefix, _) = Self::prefix_of(op);
        self.find(op, key)
            .unwrap_or_else(|free| self.push_copy(op, prefix, free))
    }

    fn prefix_of(op: &LogicalOp) -> (WordHasher, u64) {
        let mut h = WordHasher::default();
        op.memo_hash(&mut h);
        let key = h.finish();
        (h, key)
    }

    /// The interned operator with `op`'s memo identity, or the first free
    /// key of the probe sequence from `key`.
    fn find(&self, op: &LogicalOp, mut key: u64) -> Result<ExprId, u64> {
        while let Some(&id) = self.by_hash.get(&key) {
            if self.ops[id.index()].memo_eq(op) {
                return Ok(id);
            }
            key = key.wrapping_add(1);
        }
        Err(key)
    }

    /// Push a copy of `op` under `key`, written into a retired operator of
    /// its kind when the pool has one.
    fn push_copy(&mut self, op: &LogicalOp, prefix: WordHasher, key: u64) -> ExprId {
        let kind = op.kind();
        let slot = match self.retired[kind as usize].pop() {
            Some(mut slot) => {
                slot.clone_from(op);
                slot
            }
            None => op.clone(),
        };
        let id = ExprId(self.ops.len() as u32);
        self.kinds.push(kind);
        self.ops.push(slot);
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

    /// A copy of the hasher state right after `op.memo_hash` was streamed
    /// into a fresh [`WordHasher`]: feeding it the children and finishing
    /// gives the memo's `(op, children)` key.
    #[inline]
    pub fn prefix_hasher(&self, id: ExprId) -> WordHasher {
        self.prefixes[id.index()].clone()
    }

    /// Number of distinct operators interned.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Forget all entries but keep the allocations (scratch reuse): every
    /// operator is retired to its kind's pool, last first, so the pool
    /// hands them out again in the order they were interned and a repeated
    /// compile gets each operator's own lists back.
    pub fn clear(&mut self) {
        for op in self.ops.drain(..).rev() {
            self.retired[op.kind() as usize].push(op);
        }
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
    use crate::ids::{PredId, TableId};
    use proptest::prelude::*;

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

    fn with_pred(mut op: LogicalOp, pred: u32) -> LogicalOp {
        if let LogicalOp::Filter { predicate } = &mut op {
            for a in &mut predicate.atoms {
                a.pred = PredId(pred);
            }
        }
        op
    }

    fn conj(atoms: &[(u32, Literal)]) -> LogicalOp {
        LogicalOp::Filter {
            predicate: Predicate {
                atoms: atoms
                    .iter()
                    .map(|(c, l)| PredAtom::unknown(ColId(*c), CmpOp::Eq, l.clone()))
                    .collect(),
            },
        }
    }

    /// Every operator interned under one key: the hash says nothing, so
    /// only structural memo identity can merge two of them.
    #[test]
    fn a_forced_collision_keeps_distinct_operators_apart() {
        let (a, b) = ((1, Literal::Int(4)), (2, Literal::Int(5)));
        let ops = [
            filter(0, 1),
            filter(0, 2),
            filter(1, 1),
            conj(&[a.clone(), b.clone()]),
            conj(&[b, a]),
            conj(&[(0, Literal::Float(0.0))]),
            conj(&[(0, Literal::Float(-0.0))]),
            conj(&[(0, Literal::Int(0))]),
            LogicalOp::Select {
                predicate: Predicate::atom(PredAtom::unknown(ColId(0), CmpOp::Eq, Literal::Int(1))),
            },
            LogicalOp::Sort {
                keys: vec![ColId(3)],
            },
            LogicalOp::Window {
                keys: vec![ColId(3)],
            },
            LogicalOp::UnionAll,
            LogicalOp::VirtualDataset,
        ];
        let mut i = ExprInterner::new();
        let ids: Vec<ExprId> = ops.iter().map(|op| i.intern_under_key(op, 7)).collect();
        for (n, op) in ops.iter().enumerate() {
            assert_eq!(
                ids[n],
                ExprId(n as u32),
                "{op:?} merged with an earlier operator"
            );
            assert_eq!(i.op(ids[n]), op);
            // A second look finds it again at its place in the sequence.
            assert_eq!(i.intern_under_key(op, 7), ids[n]);
        }
        // Atoms that differ only in their truth handle are one operator.
        assert_eq!(i.intern_under_key(&with_pred(filter(0, 1), 9), 7), ids[0]);
        assert_eq!(i.len(), ops.len());
    }

    /// Picks from a small alphabet, so equal identities recur often.
    fn pick_op(code: u32) -> LogicalOp {
        let lit = |c: u32| match c % 5 {
            0 => Literal::Int(0),
            1 => Literal::Int(1),
            2 => Literal::Float(0.0),
            3 => Literal::Float(-0.0),
            _ => Literal::Str("a".to_string()),
        };
        let atom = |c: u32| PredAtom {
            col: ColId(c % 2),
            op: [CmpOp::Eq, CmpOp::Range][(c / 2 % 2) as usize],
            literal: lit(c / 4),
            pred: PredId(c / 20 % 2),
        };
        let predicate = Predicate {
            atoms: (0..code / 7 % 3)
                .map(|k| atom(code >> (4 + 5 * k)))
                .collect(),
        };
        match code % 7 {
            0 => LogicalOp::Filter { predicate },
            1 => LogicalOp::Select { predicate },
            2 => LogicalOp::RangeGet {
                table: TableId(code / 21 % 2),
                pushed: predicate,
            },
            3 => LogicalOp::Sort {
                keys: vec![ColId(code / 7 % 2)],
            },
            4 => LogicalOp::Window {
                keys: vec![ColId(code / 7 % 2)],
            },
            5 => LogicalOp::Top {
                k: u64::from(code / 7 % 2),
            },
            _ => LogicalOp::UnionAll,
        }
    }

    /// The reference identity: the operator with every truth handle erased
    /// and every float written as its bits.
    fn identity(op: &LogicalOp) -> String {
        let mut op = op.clone();
        if let LogicalOp::Filter { predicate }
        | LogicalOp::Select { predicate }
        | LogicalOp::RangeGet {
            pushed: predicate, ..
        } = &mut op
        {
            for a in &mut predicate.atoms {
                a.pred = PredId::UNKNOWN;
                if let Literal::Float(v) = a.literal {
                    a.literal = Literal::Str(format!("float bits {:x}", v.to_bits()));
                }
            }
        }
        format!("{op:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Interning numbers operators exactly as a map keyed by their
        /// structural identity does, under their own hashes and with every
        /// key forced to collide.
        #[test]
        fn interning_equals_a_structural_reference(
            codes in proptest::collection::vec(0u32..1 << 20, 1..24),
        ) {
            let ops: Vec<LogicalOp> = codes.iter().map(|&c| pick_op(c)).collect();
            let mut reference = std::collections::HashMap::new();
            let expected: Vec<u32> = ops
                .iter()
                .map(|op| {
                    let next = reference.len() as u32;
                    *reference.entry(identity(op)).or_insert(next)
                })
                .collect();
            let mut hashed = ExprInterner::new();
            let mut collided = ExprInterner::new();
            for (op, &want) in ops.iter().zip(&expected) {
                prop_assert_eq!(hashed.intern(op), ExprId(want));
                prop_assert_eq!(collided.intern_under_key(op, 0), ExprId(want));
            }
        }
    }

    #[test]
    fn clear_retains_capacity_and_resets_ids() {
        let mut i = ExprInterner::new();
        for lit in 0..32 {
            i.intern(&filter(0, lit));
        }
        assert_eq!(i.len(), 32);
        i.clear();
        assert!(i.is_empty());
        let a = i.intern(&filter(9, 9));
        assert_eq!(a, ExprId(0));
    }

    /// A first-seen operator copied into a retired one of its kind keeps
    /// nothing of it: a shorter predicate or key list, another table.
    #[test]
    fn a_retired_operator_takes_the_new_operators_value() {
        let mut i = ExprInterner::new();
        let long = conj(&[
            (0, Literal::Int(1)),
            (1, Literal::Int(2)),
            (2, Literal::Int(3)),
        ]);
        let scan = LogicalOp::RangeGet {
            table: TableId(4),
            pushed: Predicate {
                atoms: vec![PredAtom::unknown(ColId(1), CmpOp::Eq, Literal::Int(5)); 2],
            },
        };
        let sort = LogicalOp::Sort {
            keys: vec![ColId(1), ColId(2)],
        };
        for op in [&long, &scan, &sort] {
            i.intern(op);
        }
        i.clear();
        let short = filter(7, 8);
        let bare = LogicalOp::RangeGet {
            table: TableId(1),
            pushed: Predicate::true_pred(),
        };
        let one = LogicalOp::Sort {
            keys: vec![ColId(3)],
        };
        for (n, op) in [&short, &bare, &one, &long].into_iter().enumerate() {
            assert_eq!(i.intern(op), ExprId(n as u32));
            assert_eq!(i.op(ExprId(n as u32)), op);
        }
        assert_eq!(i.intern(&long), ExprId(3));
        assert_eq!(i.len(), 4);
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
