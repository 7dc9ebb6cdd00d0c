//! Scalar expressions and predicates.
//!
//! Predicates are conjunctions of [`PredAtom`]s (`col <op> literal`). Each
//! atom optionally carries a [`PredId`] linking it to ground-truth
//! selectivity in the [`crate::catalog::TrueCatalog`]; the *optimizer* never
//! dereferences that id — it estimates selectivity from the atom's shape.

use std::hash::{Hash, Hasher};

use crate::ids::{ColId, PredId};

/// Comparison operators appearing in generated SCOPE scripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `col = literal`
    Eq,
    /// `col <> literal`
    Neq,
    /// `col < literal` / `col > literal` (one-sided range)
    Range,
    /// `col BETWEEN a AND b` (two-sided range)
    Between,
    /// `col LIKE pattern` (string containment)
    Like,
    /// `col IN (v1, .., vk)`
    InList,
}

impl CmpOp {
    /// All operators, for exhaustive iteration in tests and generators.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Range,
        CmpOp::Between,
        CmpOp::Like,
        CmpOp::InList,
    ];
}

/// A literal constant. Literals are *variable values* in the paper's sense:
/// they are erased when computing template hashes.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Literal {
    /// A stable hash of the literal's value (used for *plan* hashes, which —
    /// unlike template hashes — distinguish different constants).
    pub fn value_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match self {
            Literal::Int(v) => {
                0u8.hash(&mut h);
                v.hash(&mut h);
            }
            Literal::Float(v) => {
                1u8.hash(&mut h);
                v.to_bits().hash(&mut h);
            }
            Literal::Str(s) => {
                2u8.hash(&mut h);
                s.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Stream the literal's memo identity into `h`: its variant and its
    /// value's bits (a float by [`f64::to_bits`]).
    pub fn memo_hash<H: Hasher>(&self, h: &mut H) {
        match self {
            Literal::Int(v) => {
                h.write_u8(0);
                h.write_i64(*v);
            }
            Literal::Float(v) => {
                h.write_u8(1);
                h.write_u64(v.to_bits());
            }
            Literal::Str(s) => {
                h.write_u8(2);
                s.hash(h);
            }
        }
    }

    /// Whether two literals have one memo identity: the same variant and
    /// the same value bits (so `0.0` and `-0.0` differ, and a NaN equals
    /// itself).
    pub fn memo_eq(&self, other: &Literal) -> bool {
        match (self, other) {
            (Literal::Int(a), Literal::Int(b)) => a == b,
            (Literal::Float(a), Literal::Float(b)) => a.to_bits() == b.to_bits(),
            (Literal::Str(a), Literal::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// One `column <op> literal` comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct PredAtom {
    /// Column being filtered.
    pub col: ColId,
    /// Comparison operator.
    pub op: CmpOp,
    /// The constant side. Erased from template hashes.
    pub literal: Literal,
    /// Ground-truth handle; [`PredId::UNKNOWN`] if none registered.
    pub pred: PredId,
}

impl PredAtom {
    /// Build an atom with no registered ground truth.
    pub fn unknown(col: ColId, op: CmpOp, literal: Literal) -> Self {
        PredAtom {
            col,
            op,
            literal,
            pred: PredId::UNKNOWN,
        }
    }

    /// Hash of the atom's *shape* (column + operator, no literal, no truth
    /// id) — the part that survives template-hash erasure.
    pub fn shape_hash<H: Hasher>(&self, h: &mut H) {
        self.col.hash(h);
        self.op.hash(h);
    }
}

/// A conjunction of atoms. The empty conjunction is `TRUE`.
///
/// Atom *order* is semantically irrelevant but observable by the optimizer's
/// selectivity estimator (which applies exponential backoff in atom order,
/// like several production engines). Rewrite rules that reorder atoms
/// therefore change estimated — not true — selectivity, which is one of the
/// mechanisms behind the paper's Figure 4 paradox.
#[derive(Debug, PartialEq, Default)]
pub struct Predicate {
    /// The conjuncts, in the order the optimizer will estimate them.
    pub atoms: Vec<PredAtom>,
}

impl Clone for Predicate {
    fn clone(&self) -> Self {
        Predicate {
            atoms: self.atoms.clone(),
        }
    }

    /// Copies `source`'s atoms into this predicate's list, which keeps its
    /// capacity.
    fn clone_from(&mut self, source: &Self) {
        self.atoms.clone_from(&source.atoms);
    }
}

impl Predicate {
    /// The always-true predicate.
    pub fn true_pred() -> Self {
        Predicate { atoms: Vec::new() }
    }

    /// A single-atom predicate.
    pub fn atom(atom: PredAtom) -> Self {
        Predicate { atoms: vec![atom] }
    }

    /// Whether this is the trivial `TRUE` predicate.
    pub fn is_true(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the conjunction is empty (i.e., `TRUE`).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjoin two predicates (used by filter-merging rewrite rules).
    pub fn and(mut self, other: Predicate) -> Predicate {
        self.atoms.extend(other.atoms);
        self
    }

    /// Hash of the predicate's shape: order-insensitive over atoms so that
    /// rewrites which merely reorder conjuncts do not change template
    /// identity.
    pub fn shape_hash<H: Hasher>(&self, h: &mut H) {
        let mut acc: u64 = 0;
        for a in &self.atoms {
            let mut ah = std::collections::hash_map::DefaultHasher::new();
            a.shape_hash(&mut ah);
            acc = acc.wrapping_add(std::hash::Hasher::finish(&ah));
        }
        acc.hash(h);
        self.atoms.len().hash(h);
    }

    /// Stream the predicate's memo identity into `h`: each atom's column,
    /// operator and literal bits **in order**, never its [`PredId`]. The
    /// memo keeps reordered conjunctions apart (atom order changes the
    /// backoff estimate), and atoms that differ only in their truth handle
    /// together (the optimizer never reads it).
    pub fn memo_hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.atoms.len());
        for a in &self.atoms {
            a.col.hash(h);
            a.op.hash(h);
            a.literal.memo_hash(h);
        }
    }

    /// Whether two predicates have one memo identity ([`Self::memo_hash`]
    /// streams exactly what this compares).
    pub fn memo_eq(&self, other: &Predicate) -> bool {
        self.atoms.len() == other.atoms.len()
            && self
                .atoms
                .iter()
                .zip(&other.atoms)
                .all(|(a, b)| a.col == b.col && a.op == b.op && a.literal.memo_eq(&b.literal))
    }

    /// Hash including literal values (order-insensitive), for plan identity.
    pub fn value_hash<H: Hasher>(&self, h: &mut H) {
        let mut acc: u64 = 0;
        for a in &self.atoms {
            let mut ah = std::collections::hash_map::DefaultHasher::new();
            a.shape_hash(&mut ah);
            a.literal.value_hash().hash(&mut ah);
            acc = acc.wrapping_add(std::hash::Hasher::finish(&ah));
        }
        acc.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn shape_of(p: &Predicate) -> u64 {
        let mut h = DefaultHasher::new();
        p.shape_hash(&mut h);
        h.finish()
    }

    fn value_of(p: &Predicate) -> u64 {
        let mut h = DefaultHasher::new();
        p.value_hash(&mut h);
        h.finish()
    }

    fn atom(col: u32, op: CmpOp, lit: i64) -> PredAtom {
        PredAtom::unknown(ColId(col), op, Literal::Int(lit))
    }

    #[test]
    fn true_predicate_is_empty() {
        let p = Predicate::true_pred();
        assert!(p.is_true());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn shape_hash_ignores_literals() {
        let p1 = Predicate::atom(atom(1, CmpOp::Eq, 10));
        let p2 = Predicate::atom(atom(1, CmpOp::Eq, 99));
        assert_eq!(shape_of(&p1), shape_of(&p2));
        let p3 = Predicate::atom(atom(2, CmpOp::Eq, 10));
        assert_ne!(shape_of(&p1), shape_of(&p3));
    }

    #[test]
    fn shape_hash_ignores_atom_order() {
        let a = atom(1, CmpOp::Eq, 10);
        let b = atom(2, CmpOp::Range, 5);
        let p1 = Predicate {
            atoms: vec![a.clone(), b.clone()],
        };
        let p2 = Predicate { atoms: vec![b, a] };
        assert_eq!(shape_of(&p1), shape_of(&p2));
    }

    #[test]
    fn value_hash_distinguishes_literals() {
        let p1 = Predicate::atom(atom(1, CmpOp::Eq, 10));
        let p2 = Predicate::atom(atom(1, CmpOp::Eq, 99));
        assert_ne!(value_of(&p1), value_of(&p2));
    }

    #[test]
    fn and_concatenates_conjuncts() {
        let p1 = Predicate::atom(atom(1, CmpOp::Eq, 10));
        let p2 = Predicate::atom(atom(2, CmpOp::Range, 3));
        let joined = p1.and(p2);
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn literal_hash_discriminates_types() {
        assert_ne!(
            Literal::Int(1).value_hash(),
            Literal::Str("1".to_string()).value_hash()
        );
        assert_ne!(
            Literal::Int(1).value_hash(),
            Literal::Float(1.0).value_hash()
        );
    }
}
