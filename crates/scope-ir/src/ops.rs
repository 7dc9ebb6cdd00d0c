//! Logical operators of the SCOPE-like engine.
//!
//! The operator set mirrors what the paper describes: relational operators,
//! SCOPE's n-ary `UNION ALL` and `VirtualDataset`, and opaque user-defined
//! `Process` operators. Two *pre-normalization* forms exist (`Get`,
//! `Select`); the required normalization rules `GetToRange` and
//! `SelectToFilter` rewrite them into `RangeGet` / `Filter` before cost-based
//! exploration, exactly as Table 2 of the paper lists them among the
//! required rules.

use std::hash::{Hash, Hasher};

use crate::expr::Predicate;
use crate::ids::{ColId, TableId, UdoId};

/// Join kinds supported by generated scripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    Semi,
}

/// Aggregate functions. The column argument (if any) is part of the
/// template-stable shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum(ColId),
    Min(ColId),
    Max(ColId),
    Avg(ColId),
}

/// A logical operator. Children are stored in the owning
/// [`crate::plan::PlanNode`], not in the operator itself.
#[derive(Debug, PartialEq)]
pub enum LogicalOp {
    /// Raw input scan as written in the script (pre-normalization).
    Get { table: TableId },
    /// Normalized scan produced by the required `GetToRange` rule. May carry
    /// a predicate pushed into the scan by pushdown rules.
    RangeGet { table: TableId, pushed: Predicate },
    /// Raw filter as written in the script (pre-normalization).
    Select { predicate: Predicate },
    /// Normalized filter produced by the required `SelectToFilter` rule.
    Filter { predicate: Predicate },
    /// Column projection; `computed` counts computed expressions (each adds
    /// CPU cost proportional to input rows).
    Project { cols: Vec<ColId>, computed: u8 },
    /// Equi-join on `keys[i].0 = keys[i].1`.
    Join {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
    },
    /// Grouped aggregation. `partial` marks the local/pre-aggregation half
    /// produced by aggregation-splitting rules.
    GroupBy {
        keys: Vec<ColId>,
        aggs: Vec<AggFunc>,
        partial: bool,
    },
    /// SCOPE's n-ary union-all.
    UnionAll,
    /// SCOPE-specific materialization of its inputs as a virtual dataset
    /// (the target of the `UnionAllToVirtualDataset` rule family).
    VirtualDataset,
    /// Top-k.
    Top { k: u64 },
    /// Total sort on `keys`.
    Sort { keys: Vec<ColId> },
    /// Windowed computation partitioned by `keys`.
    Window { keys: Vec<ColId> },
    /// Opaque user-defined operator (C#/Python in real SCOPE). The true
    /// per-row cost and selectivity live in the true catalog; the optimizer
    /// sees only a global default.
    Process { udo: UdoId },
    /// Job output sink. `stream` is the hash of the output stream name.
    Output { stream: u64 },
}

impl Clone for LogicalOp {
    fn clone(&self) -> Self {
        use LogicalOp::*;
        match self {
            Get { table } => Get { table: *table },
            RangeGet { table, pushed } => RangeGet {
                table: *table,
                pushed: pushed.clone(),
            },
            Select { predicate } => Select {
                predicate: predicate.clone(),
            },
            Filter { predicate } => Filter {
                predicate: predicate.clone(),
            },
            Project { cols, computed } => Project {
                cols: cols.clone(),
                computed: *computed,
            },
            Join { kind, keys } => Join {
                kind: *kind,
                keys: keys.clone(),
            },
            GroupBy {
                keys,
                aggs,
                partial,
            } => GroupBy {
                keys: keys.clone(),
                aggs: aggs.clone(),
                partial: *partial,
            },
            UnionAll => UnionAll,
            VirtualDataset => VirtualDataset,
            Top { k } => Top { k: *k },
            Sort { keys } => Sort { keys: keys.clone() },
            Window { keys } => Window { keys: keys.clone() },
            Process { udo } => Process { udo: *udo },
            Output { stream } => Output { stream: *stream },
        }
    }

    /// Onto an operator of the same kind, copies `source`'s lists into
    /// this operator's, which keep their capacity; onto any other kind,
    /// replaces it with a clone.
    fn clone_from(&mut self, source: &Self) {
        use LogicalOp::*;
        match (self, source) {
            (
                RangeGet { table, pushed },
                RangeGet {
                    table: t,
                    pushed: p,
                },
            ) => {
                *table = *t;
                pushed.clone_from(p);
            }
            (Select { predicate }, Select { predicate: p })
            | (Filter { predicate }, Filter { predicate: p }) => predicate.clone_from(p),
            (
                Project { cols, computed },
                Project {
                    cols: c,
                    computed: n,
                },
            ) => {
                cols.clone_from(c);
                *computed = *n;
            }
            (Join { kind, keys }, Join { kind: k, keys: ks }) => {
                *kind = *k;
                keys.clone_from(ks);
            }
            (
                GroupBy {
                    keys,
                    aggs,
                    partial,
                },
                GroupBy {
                    keys: ks,
                    aggs: a,
                    partial: p,
                },
            ) => {
                keys.clone_from(ks);
                aggs.clone_from(a);
                *partial = *p;
            }
            (Sort { keys }, Sort { keys: ks }) | (Window { keys }, Window { keys: ks }) => {
                keys.clone_from(ks);
            }
            (this, source) => *this = source.clone(),
        }
    }
}

/// A cheap discriminant for pattern matching, featurization slots, and
/// per-operator statistics. Keep in sync with [`LogicalOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum OpKind {
    Get = 0,
    RangeGet = 1,
    Select = 2,
    Filter = 3,
    Project = 4,
    Join = 5,
    GroupBy = 6,
    UnionAll = 7,
    VirtualDataset = 8,
    Top = 9,
    Sort = 10,
    Window = 11,
    Process = 12,
    Output = 13,
}

impl OpKind {
    /// Total number of operator kinds (size of featurization slot table).
    pub const COUNT: usize = 14;

    /// All kinds, in discriminant order.
    pub const ALL: [OpKind; Self::COUNT] = [
        OpKind::Get,
        OpKind::RangeGet,
        OpKind::Select,
        OpKind::Filter,
        OpKind::Project,
        OpKind::Join,
        OpKind::GroupBy,
        OpKind::UnionAll,
        OpKind::VirtualDataset,
        OpKind::Top,
        OpKind::Sort,
        OpKind::Window,
        OpKind::Process,
        OpKind::Output,
    ];

    /// Stable short name for display.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "Get",
            OpKind::RangeGet => "RangeGet",
            OpKind::Select => "Select",
            OpKind::Filter => "Filter",
            OpKind::Project => "Project",
            OpKind::Join => "Join",
            OpKind::GroupBy => "GroupBy",
            OpKind::UnionAll => "UnionAll",
            OpKind::VirtualDataset => "VirtualDataset",
            OpKind::Top => "Top",
            OpKind::Sort => "Sort",
            OpKind::Window => "Window",
            OpKind::Process => "Process",
            OpKind::Output => "Output",
        }
    }
}

impl LogicalOp {
    /// The operator's kind discriminant.
    pub fn kind(&self) -> OpKind {
        match self {
            LogicalOp::Get { .. } => OpKind::Get,
            LogicalOp::RangeGet { .. } => OpKind::RangeGet,
            LogicalOp::Select { .. } => OpKind::Select,
            LogicalOp::Filter { .. } => OpKind::Filter,
            LogicalOp::Project { .. } => OpKind::Project,
            LogicalOp::Join { .. } => OpKind::Join,
            LogicalOp::GroupBy { .. } => OpKind::GroupBy,
            LogicalOp::UnionAll => OpKind::UnionAll,
            LogicalOp::VirtualDataset => OpKind::VirtualDataset,
            LogicalOp::Top { .. } => OpKind::Top,
            LogicalOp::Sort { .. } => OpKind::Sort,
            LogicalOp::Window { .. } => OpKind::Window,
            LogicalOp::Process { .. } => OpKind::Process,
            LogicalOp::Output { .. } => OpKind::Output,
        }
    }

    /// Valid child-count range `(min, max)` for this operator.
    /// `max == usize::MAX` means unbounded (n-ary union / virtual dataset).
    pub fn arity(&self) -> (usize, usize) {
        match self.kind() {
            OpKind::Get | OpKind::RangeGet => (0, 0),
            OpKind::Join => (2, 2),
            OpKind::UnionAll | OpKind::VirtualDataset => (2, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Hash the *template-stable shape* of the operator: everything except
    /// literal constants. Used by template hashing.
    pub fn shape_hash<H: Hasher>(&self, h: &mut H) {
        (self.kind() as u8).hash(h);
        match self {
            LogicalOp::Get { table } | LogicalOp::RangeGet { table, .. } => table.hash(h),
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                predicate.shape_hash(h);
            }
            LogicalOp::Project { cols, computed } => {
                cols.hash(h);
                computed.hash(h);
            }
            LogicalOp::Join { kind, keys } => {
                kind.hash(h);
                keys.hash(h);
            }
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } => {
                keys.hash(h);
                aggs.hash(h);
                partial.hash(h);
            }
            LogicalOp::UnionAll | LogicalOp::VirtualDataset => {}
            LogicalOp::Top { k } => k.hash(h),
            LogicalOp::Sort { keys } | LogicalOp::Window { keys } => keys.hash(h),
            LogicalOp::Process { udo } => udo.hash(h),
            LogicalOp::Output { stream } => stream.hash(h),
        }
        // RangeGet's pushed predicate shape participates too: two scans with
        // different pushed filters are different shapes.
        if let LogicalOp::RangeGet { pushed, .. } = self {
            pushed.shape_hash(h);
        }
    }

    /// Hash the full operator including literal values (plan identity).
    pub fn value_hash<H: Hasher>(&self, h: &mut H) {
        self.shape_hash(h);
        match self {
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                predicate.value_hash(h);
            }
            LogicalOp::RangeGet { pushed, .. } => pushed.value_hash(h),
            _ => {}
        }
    }

    /// Stream the operator's memo identity into `h`: its kind, then its
    /// fields in declaration order, a predicate as
    /// [`Predicate::memo_hash`] (atom order and literal bits, never
    /// `PredId`). Every field goes straight into `h`; nothing is hashed
    /// apart and folded in.
    pub fn memo_hash<H: Hasher>(&self, h: &mut H) {
        h.write_u8(self.kind() as u8);
        match self {
            LogicalOp::Get { table } => table.hash(h),
            LogicalOp::RangeGet { table, pushed } => {
                table.hash(h);
                pushed.memo_hash(h);
            }
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                predicate.memo_hash(h);
            }
            LogicalOp::Project { cols, computed } => {
                cols.hash(h);
                computed.hash(h);
            }
            LogicalOp::Join { kind, keys } => {
                kind.hash(h);
                keys.hash(h);
            }
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } => {
                keys.hash(h);
                aggs.hash(h);
                partial.hash(h);
            }
            LogicalOp::UnionAll | LogicalOp::VirtualDataset => {}
            LogicalOp::Top { k } => k.hash(h),
            LogicalOp::Sort { keys } | LogicalOp::Window { keys } => keys.hash(h),
            LogicalOp::Process { udo } => udo.hash(h),
            LogicalOp::Output { stream } => stream.hash(h),
        }
    }

    /// Whether two operators have one memo identity: equal exactly where
    /// [`Self::memo_hash`] streams the same fields. The interner confirms
    /// every hash hit with it.
    pub fn memo_eq(&self, other: &LogicalOp) -> bool {
        use LogicalOp::*;
        match (self, other) {
            (
                RangeGet {
                    table: a,
                    pushed: p,
                },
                RangeGet {
                    table: b,
                    pushed: q,
                },
            ) => a == b && p.memo_eq(q),
            (Select { predicate: p }, Select { predicate: q })
            | (Filter { predicate: p }, Filter { predicate: q }) => p.memo_eq(q),
            // Without a predicate the derived equality compares exactly
            // the streamed fields.
            _ => self == other,
        }
    }

    /// The predicate carried by this operator, if any.
    pub fn predicate(&self) -> Option<&Predicate> {
        match self {
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => Some(predicate),
            LogicalOp::RangeGet { pushed, .. } if !pushed.is_true() => Some(pushed),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Literal, PredAtom};
    use std::collections::hash_map::DefaultHasher;

    fn shape_of(op: &LogicalOp) -> u64 {
        let mut h = DefaultHasher::new();
        op.shape_hash(&mut h);
        h.finish()
    }

    #[test]
    fn kind_roundtrip_covers_all_ops() {
        // Every OpKind::ALL entry is distinct and names are unique.
        let mut names: Vec<&str> = OpKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpKind::COUNT);
    }

    #[test]
    fn arity_constraints() {
        assert_eq!(LogicalOp::Get { table: TableId(0) }.arity(), (0, 0));
        assert_eq!(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![],
            }
            .arity(),
            (2, 2)
        );
        assert_eq!(LogicalOp::UnionAll.arity(), (2, usize::MAX));
        assert_eq!(LogicalOp::Top { k: 5 }.arity(), (1, 1));
    }

    #[test]
    fn shape_hash_erases_literals_but_not_structure() {
        let f1 = LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(ColId(1), CmpOp::Eq, Literal::Int(3))),
        };
        let f2 = LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(ColId(1), CmpOp::Eq, Literal::Int(42))),
        };
        assert_eq!(shape_of(&f1), shape_of(&f2));
        let f3 = LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(ColId(2), CmpOp::Eq, Literal::Int(3))),
        };
        assert_ne!(shape_of(&f1), shape_of(&f3));
    }

    #[test]
    fn select_and_filter_have_different_shapes() {
        let p = Predicate::atom(PredAtom::unknown(ColId(1), CmpOp::Eq, Literal::Int(3)));
        let s = LogicalOp::Select {
            predicate: p.clone(),
        };
        let f = LogicalOp::Filter { predicate: p };
        assert_ne!(shape_of(&s), shape_of(&f));
    }

    #[test]
    fn pushed_predicate_participates_in_scan_shape() {
        let bare = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        };
        let pushed = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::atom(PredAtom::unknown(ColId(1), CmpOp::Eq, Literal::Int(3))),
        };
        assert_ne!(shape_of(&bare), shape_of(&pushed));
    }
}
