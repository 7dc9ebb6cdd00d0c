//! Ground-truth property replay: true cardinalities, byte volumes, and
//! per-vertex data shares for every node of a physical plan.
//!
//! This is the half of the world the optimizer never sees: correlated
//! predicate selectivities, true join fanout including key skew, true UDO
//! behaviour, and the partition share of the busiest vertex under each
//! partitioning scheme.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use scope_ir::ids::ColId;
use scope_ir::{AggFunc, JoinKind, TrueCatalog};
use scope_optimizer::{Partitioning, PhysOp, PhysPlan};

/// True runtime properties of one physical node's output.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeTruth {
    /// True output rows.
    pub rows: f64,
    /// True output bytes.
    pub bytes: f64,
    /// Share of the output held by the busiest vertex (1.0 = everything on
    /// one vertex or replicated everywhere; 1/dop = perfectly uniform).
    pub share: f64,
    /// Parallelism this node actually runs with.
    pub dop: u32,
}

impl NodeTruth {
    /// Bytes per row (guarded).
    pub fn row_bytes(&self) -> f64 {
        if self.rows > 0.0 {
            self.bytes / self.rows
        } else {
            0.0
        }
    }
}

/// The busiest-vertex share after hash partitioning on `cols` at `dop`.
/// The partition holding a column's heaviest value carries at least that
/// value's share; compound keys distribute finer (take the smallest skew).
pub fn hash_share(cat: &TrueCatalog, cols: &[ColId], dop: u32) -> f64 {
    let uniform = 1.0 / dop.max(1) as f64;
    let key_skew = cols
        .iter()
        .map(|c| cat.columns.get(c.index()).map(|s| s.skew).unwrap_or(0.0))
        .fold(f64::INFINITY, f64::min);
    if key_skew.is_finite() {
        uniform.max(key_skew)
    } else {
        uniform
    }
}

/// True join output cardinality: uniform fanout plus the heavy-hitter term
/// the optimizer's uniformity assumption misses.
fn join_rows(
    cat: &TrueCatalog,
    kind: JoinKind,
    keys: &[(ColId, ColId)],
    l: &NodeTruth,
    r: &NodeTruth,
) -> f64 {
    let mut rows = match keys.first() {
        Some(&(lk, rk)) => {
            let ndv_l = cat.columns.get(lk.index()).map(|c| c.ndv).unwrap_or(1000);
            let ndv_r = cat.columns.get(rk.index()).map(|c| c.ndv).unwrap_or(1000);
            let skew_l = cat.columns.get(lk.index()).map(|c| c.skew).unwrap_or(0.0);
            let skew_r = cat.columns.get(rk.index()).map(|c| c.skew).unwrap_or(0.0);
            let uniform = l.rows * r.rows / ndv_l.max(ndv_r).max(1) as f64;
            let heavy = skew_l * l.rows * skew_r * r.rows;
            (uniform + heavy).min(l.rows * r.rows)
        }
        None => l.rows * r.rows,
    };
    for _ in keys.iter().skip(1) {
        rows *= 0.3;
    }
    match kind {
        JoinKind::Inner => rows,
        JoinKind::LeftOuter => rows.max(l.rows),
        JoinKind::Semi => (l.rows * 0.7).min(rows).max(0.0),
    }
    .max(0.0)
}

/// Derive the true properties of `op` from its children's true properties.
pub(crate) fn derive_truth(op: &PhysOp, children: &[&NodeTruth], cat: &TrueCatalog) -> NodeTruth {
    let child = |i: usize| -> &NodeTruth { children[i] };
    match op {
        PhysOp::Scan {
            table,
            pushed,
            parallel,
            ..
        } => {
            let t = cat.tables.get(table.index());
            let raw_rows = t.map(|t| t.rows as f64).unwrap_or(0.0);
            let row_bytes = t.map(|t| t.row_bytes as f64).unwrap_or(100.0);
            let sel = if pushed.is_true() {
                1.0
            } else {
                cat.true_conj_selectivity(&pushed.atoms)
            };
            let rows = raw_rows * sel;
            let dop = if *parallel {
                scope_optimizer::cost::dop_for_bytes(raw_rows * row_bytes)
            } else {
                1
            };
            NodeTruth {
                rows,
                bytes: rows * row_bytes,
                share: 1.0 / dop as f64,
                dop,
            }
        }
        PhysOp::Filter { predicate } => {
            let c = child(0);
            let sel = cat.true_conj_selectivity(&predicate.atoms);
            NodeTruth {
                rows: c.rows * sel,
                bytes: c.bytes * sel,
                share: c.share,
                dop: c.dop,
            }
        }
        PhysOp::Project { cols, computed } => {
            let c = child(0);
            let width = 12.0 + 8.0 * (cols.len() + *computed as usize) as f64;
            NodeTruth {
                rows: c.rows,
                bytes: c.rows * width,
                share: c.share,
                dop: c.dop,
            }
        }
        PhysOp::HashJoin { kind, keys, .. }
        | PhysOp::MergeJoin { kind, keys }
        | PhysOp::BroadcastJoin { kind, keys }
        | PhysOp::LoopJoin { kind, keys }
        | PhysOp::IndexJoin { kind, keys } => {
            let l = child(0);
            let r = child(1);
            let rows = join_rows(cat, *kind, keys, l, r);
            let width = match kind {
                JoinKind::Semi => l.row_bytes(),
                _ => l.row_bytes() + r.row_bytes(),
            };
            // The join runs where its (exchanged) inputs live; broadcast
            // joins inherit only the probe side's distribution.
            let (share, dop) = match op {
                PhysOp::BroadcastJoin { .. } | PhysOp::IndexJoin { .. } => (l.share, l.dop),
                PhysOp::LoopJoin { .. } => (1.0, 1),
                _ => (l.share.max(r.share), l.dop.max(r.dop)),
            };
            NodeTruth {
                rows,
                bytes: rows * width,
                share,
                dop,
            }
        }
        PhysOp::HashAgg {
            keys,
            aggs,
            partial,
        }
        | PhysOp::SortAgg {
            keys,
            aggs,
            partial,
        }
        | PhysOp::StreamAgg {
            keys,
            aggs,
            partial,
        } => {
            let c = child(0);
            let mut groups = 1.0_f64;
            for k in keys {
                groups *= cat.columns.get(k.index()).map(|s| s.ndv).unwrap_or(1000) as f64;
            }
            let rows = if *partial {
                (groups * c.dop as f64).min(c.rows)
            } else {
                groups.min(c.rows)
            };
            let width = 16.0 + 8.0 * (keys.len() + aggs.len()) as f64;
            // After a grouped aggregation the heaviest key collapses to one
            // row, so output skew dissolves; the busiest vertex still did
            // the skewed *work* (accounted in the work model).
            NodeTruth {
                rows: rows.max(1.0),
                bytes: rows.max(1.0) * width,
                share: 1.0 / c.dop.max(1) as f64,
                dop: c.dop,
            }
        }
        PhysOp::UnionAll { serial } => {
            let rows: f64 = children.iter().map(|c| c.rows).sum();
            let bytes: f64 = children.iter().map(|c| c.bytes).sum();
            if *serial {
                NodeTruth {
                    rows,
                    bytes,
                    share: 1.0,
                    dop: 1,
                }
            } else {
                // Streaming concat preserves whatever skew the inputs have.
                let share = children.iter().map(|c| c.share).fold(0.0, f64::max);
                let dop = children.iter().map(|c| c.dop).max().unwrap_or(1);
                NodeTruth {
                    rows,
                    bytes,
                    share,
                    dop,
                }
            }
        }
        PhysOp::VirtualDataset => {
            let rows: f64 = children.iter().map(|c| c.rows).sum();
            let bytes: f64 = children.iter().map(|c| c.bytes).sum();
            // Materialization rewrites the dataset uniformly: skew resets.
            let dop = scope_optimizer::cost::dop_for_bytes(bytes);
            NodeTruth {
                rows,
                bytes,
                share: 1.0 / dop as f64,
                dop,
            }
        }
        PhysOp::Top { k, .. } => {
            let c = child(0);
            let rows = (*k as f64).min(c.rows);
            NodeTruth {
                rows,
                bytes: rows * c.row_bytes(),
                share: 1.0,
                dop: 1,
            }
        }
        PhysOp::Sort { parallel, .. } => {
            let c = child(0);
            NodeTruth {
                rows: c.rows,
                bytes: c.bytes,
                share: if *parallel { c.share } else { 1.0 },
                dop: if *parallel { c.dop } else { 1 },
            }
        }
        PhysOp::Window { .. } => {
            let c = child(0);
            NodeTruth {
                rows: c.rows,
                bytes: c.bytes,
                share: c.share,
                dop: c.dop,
            }
        }
        PhysOp::Process { udo, parallel } => {
            let c = child(0);
            let truth = cat.udo_truth(*udo);
            let rows = c.rows * truth.selectivity;
            NodeTruth {
                rows,
                bytes: rows * c.row_bytes() * 1.2,
                share: if *parallel { c.share } else { 1.0 },
                dop: if *parallel { c.dop } else { 1 },
            }
        }
        PhysOp::Output { .. } => {
            let c = child(0);
            c.clone()
        }
        PhysOp::Exchange { scheme, dop } => {
            let c = child(0);
            let share = match scheme {
                Partitioning::Hash(cols) => hash_share(cat, cols, *dop),
                Partitioning::Range(_) => 1.0 / (*dop).max(1) as f64,
                Partitioning::Broadcast => 1.0,
                Partitioning::Singleton => 1.0,
                Partitioning::Any => 1.0 / (*dop).max(1) as f64,
            };
            NodeTruth {
                rows: c.rows,
                bytes: c.bytes,
                share,
                dop: (*dop).max(1),
            }
        }
    }
}

/// A deterministic fingerprint of a plan's *result semantics*: what is
/// scanned, filtered, joined, finally aggregated, processed, and emitted —
/// independent of operator order, physical implementation choices,
/// exchanges, and every other degree of freedom the rewrite rules exercise.
///
/// Two plans compiled from the same job under different rule configurations
/// must have equal fingerprints; a divergence means a rewrite changed what
/// the query *computes*, not merely how. The deployment guardrail uses this
/// as its differential correctness check: a steered plan whose fingerprint
/// diverges from the default plan's is quarantined.
///
/// Set semantics (not multisets) absorb legitimate duplications
/// (`JoinOnUnion` clones a join into every branch); canonically-ordered
/// join-key pairs absorb `JoinCommute`/`JoinAssoc` swaps; only *final*
/// (non-partial) aggregates count, since splitting rules insert partial
/// ones; `Top`/`Sort`/`Window`/`Project` are excluded because estimate-
/// trusting eliminations and window collapses legitimately drop them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SemanticFingerprint {
    /// Scanned table ids.
    pub tables: BTreeSet<u32>,
    /// Predicate-atom hashes from filters and pushed scan predicates.
    pub atoms: BTreeSet<u64>,
    /// Join specs: kind plus the canonically-ordered key-pair set.
    pub joins: BTreeSet<u64>,
    /// Final (non-partial) aggregation specs.
    pub aggs: BTreeSet<u64>,
    /// User-defined operators applied.
    pub udos: BTreeSet<u32>,
    /// Output stream ids.
    pub outputs: BTreeSet<u64>,
}

impl SemanticFingerprint {
    /// Collapse to a single comparable/reportable hash.
    pub fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.tables.hash(&mut h);
        self.atoms.hash(&mut h);
        self.joins.hash(&mut h);
        self.aggs.hash(&mut h);
        self.udos.hash(&mut h);
        self.outputs.hash(&mut h);
        h.finish()
    }
}

fn atom_hash(atom: &scope_ir::PredAtom) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    atom.col.hash(&mut h);
    atom.op.hash(&mut h);
    atom.literal.value_hash().hash(&mut h);
    atom.pred.hash(&mut h);
    h.finish()
}

fn join_hash(kind: JoinKind, keys: &[(ColId, ColId)]) -> u64 {
    // Canonical (min, max) ordering survives commute/assoc key swaps.
    let pairs: BTreeSet<(u32, u32)> = keys
        .iter()
        .map(|&(l, r)| (l.0.min(r.0), l.0.max(r.0)))
        .collect();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    kind.hash(&mut h);
    pairs.hash(&mut h);
    h.finish()
}

fn agg_hash(keys: &[ColId], aggs: &[AggFunc]) -> u64 {
    let mut sorted_keys: Vec<ColId> = keys.to_vec();
    sorted_keys.sort_unstable();
    let mut agg_hashes: Vec<u64> = aggs
        .iter()
        .map(|a| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            a.hash(&mut h);
            h.finish()
        })
        .collect();
    agg_hashes.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sorted_keys.hash(&mut h);
    agg_hashes.hash(&mut h);
    h.finish()
}

/// Compute the semantic fingerprint of a physical plan (reachable nodes
/// only).
pub(crate) fn semantic_fingerprint(plan: &PhysPlan) -> SemanticFingerprint {
    let mut fp = SemanticFingerprint::default();
    for id in plan.reachable() {
        match &plan.node(id).op {
            PhysOp::Scan { table, pushed, .. } => {
                fp.tables.insert(table.0);
                for atom in &pushed.atoms {
                    fp.atoms.insert(atom_hash(atom));
                }
            }
            PhysOp::Filter { predicate } => {
                for atom in &predicate.atoms {
                    fp.atoms.insert(atom_hash(atom));
                }
            }
            PhysOp::HashJoin { kind, keys, .. }
            | PhysOp::MergeJoin { kind, keys }
            | PhysOp::BroadcastJoin { kind, keys }
            | PhysOp::LoopJoin { kind, keys }
            | PhysOp::IndexJoin { kind, keys } => {
                fp.joins.insert(join_hash(*kind, keys));
            }
            PhysOp::HashAgg {
                keys,
                aggs,
                partial: false,
            }
            | PhysOp::SortAgg {
                keys,
                aggs,
                partial: false,
            }
            | PhysOp::StreamAgg {
                keys,
                aggs,
                partial: false,
            } => {
                fp.aggs.insert(agg_hash(keys, aggs));
            }
            PhysOp::Process { udo, .. } => {
                fp.udos.insert(udo.0);
            }
            PhysOp::Output { stream } => {
                fp.outputs.insert(*stream);
            }
            _ => {}
        }
    }
    fp
}

/// The semantic fingerprint collapsed to one comparable hash — the
/// differential correctness check's currency.
pub fn result_fingerprint(plan: &PhysPlan) -> u64 {
    semantic_fingerprint(plan).digest()
}

/// Replay truth through an entire plan; returns per-node truths indexed by
/// node id (unreachable nodes get zeroed entries).
pub fn replay(plan: &PhysPlan, cat: &TrueCatalog) -> Vec<NodeTruth> {
    let zero = NodeTruth {
        rows: 0.0,
        bytes: 0.0,
        share: 1.0,
        dop: 1,
    };
    let mut truths = vec![zero; plan.len()];
    for id in plan.reachable() {
        let node = plan.node(id);
        let children: Vec<&NodeTruth> = node.children.iter().map(|c| &truths[c.index()]).collect();
        truths[id.index()] = derive_truth(&node.op, &children, cat);
    }
    truths
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
    use scope_ir::ids::{DomainId, PredId, TableId};

    fn skewed_catalog() -> TrueCatalog {
        let mut cat = TrueCatalog::new();
        cat.add_column(10_000, 0.5, DomainId(0)); // heavily skewed join key
        cat.add_column(10_000, 0.0, DomainId(0)); // uniform join key
        cat.add_table(1_000_000, 100, 1, vec![ColId(0), ColId(1)]);
        cat
    }

    fn truth(rows: f64, share: f64, dop: u32) -> NodeTruth {
        NodeTruth {
            rows,
            bytes: rows * 100.0,
            share,
            dop,
        }
    }

    #[test]
    fn hash_share_respects_skew() {
        let cat = skewed_catalog();
        assert_eq!(hash_share(&cat, &[ColId(1)], 50), 1.0 / 50.0);
        assert_eq!(hash_share(&cat, &[ColId(0)], 50), 0.5);
        // Compound key takes the finer (smaller) skew.
        assert_eq!(hash_share(&cat, &[ColId(0), ColId(1)], 50), 1.0 / 50.0);
    }

    #[test]
    fn skewed_join_produces_heavy_hitter_rows() {
        let cat = skewed_catalog();
        let l = truth(100_000.0, 0.02, 50);
        let r = truth(100_000.0, 0.02, 50);
        let skewed = join_rows(&cat, JoinKind::Inner, &[(ColId(0), ColId(0))], &l, &r);
        let uniform = join_rows(&cat, JoinKind::Inner, &[(ColId(1), ColId(1))], &l, &r);
        assert!(skewed > uniform * 100.0, "{skewed} vs {uniform}");
    }

    #[test]
    fn correlated_filter_truth_differs_from_estimate() {
        let mut cat = TrueCatalog::new();
        let col = cat.add_column(1000, 0.0, DomainId(0));
        let g = cat.add_corr_group(1.0);
        let p1 = cat.add_pred(0.1, Some(g));
        let p2 = cat.add_pred(0.1, Some(g));
        cat.add_table(1_000_000, 100, 1, vec![col]);
        let atoms = vec![
            PredAtom {
                col,
                op: CmpOp::Like,
                literal: Literal::Int(0),
                pred: p1,
            },
            PredAtom {
                col,
                op: CmpOp::Like,
                literal: Literal::Int(1),
                pred: p2,
            },
        ];
        let c = truth(1_000_000.0, 0.02, 50);
        let out = derive_truth(
            &PhysOp::Filter {
                predicate: Predicate { atoms },
            },
            &[&c],
            &cat,
        );
        // Fully correlated: min(0.1, 0.1) = 0.1 → 100k rows, not 10k.
        assert!((out.rows - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn unknown_pred_truth_matches_shape_heuristic() {
        let mut cat = TrueCatalog::new();
        let col = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(1000, 100, 1, vec![col]);
        let atom = PredAtom {
            col,
            op: CmpOp::Range,
            literal: Literal::Int(0),
            pred: PredId::UNKNOWN,
        };
        let c = truth(900.0, 0.1, 10);
        let out = derive_truth(
            &PhysOp::Filter {
                predicate: Predicate { atoms: vec![atom] },
            },
            &[&c],
            &cat,
        );
        assert!((out.rows - 300.0).abs() < 1.0);
    }

    #[test]
    fn virtual_dataset_resets_skew() {
        let cat = skewed_catalog();
        let skewed_in = truth(1e8, 0.5, 50);
        let out = derive_truth(&PhysOp::VirtualDataset, &[&skewed_in, &skewed_in], &cat);
        assert!(out.share < 0.5);
        assert_eq!(out.rows, 2e8);
    }

    #[test]
    fn exploding_udo_truth() {
        let mut cat = TrueCatalog::new();
        let udo = cat.add_udo(25.0, 3.0);
        let c = truth(1000.0, 0.1, 10);
        let out = derive_truth(
            &PhysOp::Process {
                udo,
                parallel: true,
            },
            &[&c],
            &cat,
        );
        assert_eq!(out.rows, 3000.0);
    }

    mod fingerprint {
        use super::super::*;
        use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
        use scope_ir::ids::{NodeId, TableId};
        use scope_optimizer::PhysNode;

        fn node(op: PhysOp, children: Vec<NodeId>) -> PhysNode {
            PhysNode {
                op,
                children,
                est_rows: 10.0,
                est_bytes: 100.0,
                est_cost: 1.0,
                est_cost_vec: Default::default(),
                partitioning: Partitioning::Singleton,
                dop: 1,
                created_by: None,
                logical_rule: None,
            }
        }

        fn scan(table: u32, pushed: Predicate) -> PhysOp {
            PhysOp::Scan {
                table: TableId(table),
                pushed,
                parallel: false,
                indexed: false,
            }
        }

        fn atom(col: u32, lit: i64) -> PredAtom {
            PredAtom::unknown(ColId(col), CmpOp::Eq, Literal::Int(lit))
        }

        /// Filter-above-scan joined left×right as a hash join.
        fn filtered_join_plan() -> PhysPlan {
            let mut p = PhysPlan::new();
            let l = p.add(node(scan(0, Predicate::true_pred()), vec![]));
            let f = p.add(node(
                PhysOp::Filter {
                    predicate: Predicate::atom(atom(0, 7)),
                },
                vec![l],
            ));
            let r = p.add(node(scan(1, Predicate::true_pred()), vec![]));
            let j = p.add(node(
                PhysOp::HashJoin {
                    kind: JoinKind::Inner,
                    keys: vec![(ColId(0), ColId(2))],
                    variant: 1,
                },
                vec![f, r],
            ));
            let o = p.add(node(PhysOp::Output { stream: 5 }, vec![j]));
            p.set_root(o);
            p
        }

        /// Same semantics, different physics: predicate pushed into the
        /// scan, sides commuted into a merge join, an exchange and a sort
        /// inserted.
        fn rewritten_equivalent_plan() -> PhysPlan {
            let mut p = PhysPlan::new();
            let r = p.add(node(scan(1, Predicate::true_pred()), vec![]));
            let l = p.add(node(scan(0, Predicate::atom(atom(0, 7))), vec![]));
            let ex = p.add(node(
                PhysOp::Exchange {
                    scheme: Partitioning::Singleton,
                    dop: 1,
                },
                vec![l],
            ));
            let j = p.add(node(
                PhysOp::MergeJoin {
                    kind: JoinKind::Inner,
                    // Commuted: key pair order swapped.
                    keys: vec![(ColId(2), ColId(0))],
                },
                vec![r, ex],
            ));
            let s = p.add(node(
                PhysOp::Sort {
                    keys: vec![ColId(0)],
                    parallel: false,
                },
                vec![j],
            ));
            let o = p.add(node(PhysOp::Output { stream: 5 }, vec![s]));
            p.set_root(o);
            p
        }

        #[test]
        fn fingerprint_is_invariant_under_physical_rewrites() {
            let a = semantic_fingerprint(&filtered_join_plan());
            let b = semantic_fingerprint(&rewritten_equivalent_plan());
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }

        #[test]
        fn fingerprint_catches_a_changed_literal() {
            let base = result_fingerprint(&filtered_join_plan());
            let mut p = PhysPlan::new();
            let l = p.add(node(scan(0, Predicate::true_pred()), vec![]));
            let f = p.add(node(
                PhysOp::Filter {
                    predicate: Predicate::atom(atom(0, 8)), // 7 → 8
                },
                vec![l],
            ));
            let r = p.add(node(scan(1, Predicate::true_pred()), vec![]));
            let j = p.add(node(
                PhysOp::HashJoin {
                    kind: JoinKind::Inner,
                    keys: vec![(ColId(0), ColId(2))],
                    variant: 1,
                },
                vec![f, r],
            ));
            let o = p.add(node(PhysOp::Output { stream: 5 }, vec![j]));
            p.set_root(o);
            assert_ne!(base, result_fingerprint(&p));
        }

        #[test]
        fn fingerprint_catches_a_dropped_input() {
            // The "dangling input" corruption: the join and one scan vanish,
            // the job silently computes over half its inputs.
            let base = result_fingerprint(&filtered_join_plan());
            let mut p = PhysPlan::new();
            let l = p.add(node(scan(0, Predicate::true_pred()), vec![]));
            let f = p.add(node(
                PhysOp::Filter {
                    predicate: Predicate::atom(atom(0, 7)),
                },
                vec![l],
            ));
            let o = p.add(node(PhysOp::Output { stream: 5 }, vec![f]));
            p.set_root(o);
            assert_ne!(base, result_fingerprint(&p));
        }

        #[test]
        fn partial_aggregates_are_erased_final_ones_kept() {
            let agg = |partial: bool, child: NodeId| {
                node(
                    PhysOp::HashAgg {
                        keys: vec![ColId(0)],
                        aggs: vec![AggFunc::Count],
                        partial,
                    },
                    vec![child],
                )
            };
            // Unsplit aggregation.
            let mut a = PhysPlan::new();
            let s = a.add(node(scan(0, Predicate::true_pred()), vec![]));
            let g = a.add(agg(false, s));
            let o = a.add(node(PhysOp::Output { stream: 5 }, vec![g]));
            a.set_root(o);
            // Split into partial + final (a SortAgg, for good measure).
            let mut b = PhysPlan::new();
            let s = b.add(node(scan(0, Predicate::true_pred()), vec![]));
            let pa = b.add(agg(true, s));
            let fin = b.add(node(
                PhysOp::SortAgg {
                    keys: vec![ColId(0)],
                    aggs: vec![AggFunc::Count],
                    partial: false,
                },
                vec![pa],
            ));
            let o = b.add(node(PhysOp::Output { stream: 5 }, vec![fin]));
            b.set_root(o);
            assert_eq!(result_fingerprint(&a), result_fingerprint(&b));
        }
    }

    #[test]
    fn scan_replays_pushed_predicate_truth() {
        let mut cat = TrueCatalog::new();
        let col = cat.add_column(1_000, 0.0, DomainId(0));
        let p = cat.add_pred(0.001, None);
        cat.add_table(1_000_000, 100, 1, vec![col]);
        let op = PhysOp::Scan {
            table: TableId(0),
            pushed: Predicate::atom(PredAtom {
                col,
                op: CmpOp::Eq,
                literal: Literal::Int(0),
                pred: p,
            }),
            parallel: true,
            indexed: false,
        };
        let out = derive_truth(&op, &[], &cat);
        assert!((out.rows - 1000.0).abs() < 1e-6);
    }
}
