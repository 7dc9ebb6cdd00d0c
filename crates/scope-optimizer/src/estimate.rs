//! The optimizer's *estimated* logical properties: cardinality, width, and
//! available columns.
//!
//! Estimates are deliberately heuristic — independence with exponential
//! backoff for conjunctions, uniformity for join keys, a global constant for
//! user-defined operators — because the gap between these heuristics and the
//! ground truth in [`scope_ir::TrueCatalog`] is what rule steering exploits.
//!
//! Crucially, conjunct selectivity is **order-sensitive** (atoms are damped
//! in the order they appear, like SQL Server's exponential backoff), so
//! rewrite rules that reorder or relocate predicates change *estimated*
//! cardinalities without changing the truth. This is the mechanism behind
//! the paper's §5.3 observation that recompiled plans can have estimated
//! costs below the default plan's.

use std::cell::RefCell;

use scope_ir::catalog::shape_selectivity;
use scope_ir::ids::ColId;
use scope_ir::{AtomInterner, JoinKind, LogicalOp, ObservableCatalog, PredAtom};

/// Estimated logical properties of one expression's output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogicalEst {
    /// Estimated row count (≥ 0, not necessarily integral).
    pub rows: f64,
    /// Estimated bytes per row.
    pub row_bytes: f64,
    /// Columns available to parents (computed/aggregate outputs are
    /// anonymous and not listed).
    pub cols: Vec<ColId>,
}

impl LogicalEst {
    /// Estimated total bytes.
    ///
    /// Mirrors the simulator's finite-runtime contract: a NaN or negative
    /// width here would silently poison every downstream cost, so the debug
    /// build refuses it at the source instead.
    pub fn bytes(&self) -> f64 {
        debug_assert!(
            self.rows.is_finite() && self.rows >= 0.0,
            "LogicalEst::bytes: rows must be finite and non-negative, got {}",
            self.rows
        );
        debug_assert!(
            self.row_bytes.is_finite() && self.row_bytes >= 0.0,
            "LogicalEst::bytes: row_bytes must be finite and non-negative, got {}",
            self.row_bytes
        );
        self.rows * self.row_bytes
    }

    /// Debug-check the estimator's output contract (finite, non-negative,
    /// rows floored at the estimator's 1-row minimum for row-producing ops).
    /// Release builds compile this to nothing.
    #[inline]
    fn debug_check_derived(&self) {
        debug_assert!(
            self.rows.is_finite() && self.rows >= 0.0,
            "Estimator::derive produced invalid rows: {}",
            self.rows
        );
        debug_assert!(
            self.row_bytes.is_finite() && self.row_bytes >= 0.0,
            "Estimator::derive produced invalid row_bytes: {}",
            self.row_bytes
        );
    }
}

/// Read-only access to a derivation's child estimates. Abstracts over the
/// legacy `&[&LogicalEst]` shape and the memo's slab-backed children so
/// [`Estimator::derive`] never forces callers to materialize a `Vec` of
/// references per insertion.
pub trait ChildEsts {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> &LogicalEst;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ChildEsts for [&LogicalEst] {
    fn len(&self) -> usize {
        <[&LogicalEst]>::len(self)
    }
    fn get(&self, i: usize) -> &LogicalEst {
        self[i]
    }
}

impl<const N: usize> ChildEsts for [&LogicalEst; N] {
    fn len(&self) -> usize {
        N
    }
    fn get(&self, i: usize) -> &LogicalEst {
        self[i]
    }
}

impl ChildEsts for Vec<&LogicalEst> {
    fn len(&self) -> usize {
        <[&LogicalEst]>::len(self)
    }
    fn get(&self, i: usize) -> &LogicalEst {
        self[i]
    }
}

/// Number of leading conjuncts that contribute to a backoff estimate.
const BACKOFF_ATOMS: usize = 4;

/// Memoized per-atom selectivities, keyed by interned `(column, operator)`
/// shape — the full input domain of [`shape_selectivity`], so the cached
/// value is exactly what recomputation would return. A compile scratch
/// keeps one between compiles ([`Estimator::with_cache`] clears it).
#[derive(Default)]
pub(crate) struct SelCache {
    atoms: AtomInterner,
    sel: Vec<f64>,
}

/// Derives estimates for operators given their children's estimates.
pub struct Estimator<'a> {
    obs: &'a ObservableCatalog,
    cache: RefCell<SelCache>,
    /// Multiplicative feedback correction applied to scan (leaf)
    /// cardinalities — the runtime-feedback loop's handle on systematic
    /// row misestimates. 1.0 (the default) is a bit-exact no-op.
    rows_correction: f64,
}

impl<'a> Estimator<'a> {
    pub fn new(obs: &'a ObservableCatalog) -> Self {
        Estimator {
            obs,
            cache: RefCell::new(SelCache::default()),
            rows_correction: 1.0,
        }
    }

    /// [`Estimator::new`] with a scan-cardinality correction factor,
    /// memoizing into `cache`, which it clears first: the selectivities
    /// depend on the catalog, and the cache's tables keep their capacity.
    /// [`Estimator::into_cache`] hands it back. A non-finite or
    /// non-positive factor is a feedback-path bug upstream: debug builds
    /// refuse it, release builds fall back to the identity so a poisoned
    /// factor can never produce NaN cardinalities.
    pub(crate) fn with_cache(obs: &'a ObservableCatalog, factor: f64, mut cache: SelCache) -> Self {
        cache.atoms.clear();
        cache.sel.clear();
        debug_assert!(
            factor.is_finite() && factor > 0.0,
            "rows correction must be finite and positive, got {factor}"
        );
        let factor = if factor.is_finite() && factor > 0.0 {
            factor
        } else {
            1.0
        };
        Estimator {
            obs,
            cache: RefCell::new(cache),
            rows_correction: factor,
        }
    }

    /// The selectivity cache, for the next [`Estimator::with_cache`].
    pub(crate) fn into_cache(self) -> SelCache {
        self.cache.into_inner()
    }

    /// The observable catalog backing this estimator.
    pub fn observed(&self) -> &ObservableCatalog {
        self.obs
    }

    /// Estimated selectivity of one atom, from its shape only. Memoized
    /// per `(column, operator)` — the function's entire input domain — so
    /// the hot reorder/backoff loops stop recomputing `shape_selectivity`.
    pub fn atom_selectivity(&self, atom: &PredAtom) -> f64 {
        let mut cache = self.cache.borrow_mut();
        let (id, new) = cache.atoms.intern(atom.col, atom.op);
        if new {
            // Clamp into (0, 1] at the producer: every consumer (backoff
            // products, the bounds analysis) assumes a selectivity is a
            // probability, and a single out-of-range value would make the
            // abstract intervals unsound. `shape_selectivity` already lands
            // in [1e-6, 1], so the clamp is the identity for healthy values.
            let s = shape_selectivity(atom.op, self.obs.col_ndv(atom.col));
            debug_assert!(
                s.is_finite() && s > 0.0 && s <= 1.0,
                "shape_selectivity escaped (0, 1]: {s} for {:?}",
                atom.op
            );
            cache.sel.push(s.clamp(1e-9, 1.0));
        }
        cache.sel[id.index()]
    }

    /// Order-sensitive conjunction selectivity with exponential backoff:
    /// the i-th atom (0-based, first four only) contributes
    /// `sel_i ^ (1/2^i)`.
    pub fn conj_selectivity(&self, atoms: &[PredAtom]) -> f64 {
        let mut sel = 1.0_f64;
        for (i, atom) in atoms.iter().take(BACKOFF_ATOMS).enumerate() {
            let s = self.atom_selectivity(atom);
            // IEEE 754 guarantees powf(s, 1.0) == s; skip the libm call for
            // the (dominant) single-atom case without changing any bit.
            sel *= if i == 0 {
                s
            } else {
                s.powf(1.0 / (1u32 << i) as f64)
            };
        }
        sel.clamp(1e-9, 1.0)
    }

    /// Derive the estimate for `op` from its children's estimates
    /// (children given in operator child order).
    pub fn derive<C: ChildEsts + ?Sized>(&self, op: &LogicalOp, children: &C) -> LogicalEst {
        let mut est = LogicalEst::default();
        self.derive_into(op, children, &mut est);
        est
    }

    /// [`Estimator::derive`] written over `out`, whatever it held: its
    /// column list is cleared and refilled in place, so an estimate slot
    /// reused across compiles keeps its capacity.
    pub(crate) fn derive_into<C: ChildEsts + ?Sized>(
        &self,
        op: &LogicalOp,
        children: &C,
        out: &mut LogicalEst,
    ) {
        let cols = &mut out.cols;
        cols.clear();
        let (rows, row_bytes) = match op {
            LogicalOp::Get { table } | LogicalOp::RangeGet { table, .. } => {
                let rows = self.obs.table_rows(*table) as f64;
                let sel = match op {
                    LogicalOp::RangeGet { pushed, .. } if !pushed.is_true() => {
                        self.conj_selectivity(&pushed.atoms)
                    }
                    _ => 1.0,
                };
                if let Some(t) = self.obs.tables.get(table.index()) {
                    cols.extend_from_slice(&t.cols);
                }
                (
                    // The feedback correction multiplies *after* the
                    // selectivity product: at the identity factor the
                    // `* 1.0` leaves every bit unchanged.
                    (rows * sel * self.rows_correction).max(1.0),
                    self.obs.table_row_bytes(*table) as f64,
                )
            }
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                let c = children.get(0);
                cols.extend_from_slice(&c.cols);
                (
                    (c.rows * self.conj_selectivity(&predicate.atoms)).max(1.0),
                    c.row_bytes,
                )
            }
            LogicalOp::Project {
                cols: projected,
                computed,
            } => {
                let c = children.get(0);
                cols.extend_from_slice(projected);
                (
                    c.rows,
                    12.0 + 8.0 * (projected.len() + *computed as usize) as f64,
                )
            }
            LogicalOp::Join { kind, keys } => {
                let l = children.get(0);
                let r = children.get(1);
                let mut rows = match keys.first() {
                    Some(&(lk, rk)) => {
                        let ndv = self.obs.col_ndv(lk).max(self.obs.col_ndv(rk)).max(1);
                        l.rows * r.rows / ndv as f64
                    }
                    None => l.rows * r.rows, // cross join
                };
                // Additional keys are assumed 30%-selective each.
                for _ in keys.iter().skip(1) {
                    rows *= 0.3;
                }
                rows = match kind {
                    JoinKind::Inner => rows,
                    JoinKind::LeftOuter => rows.max(l.rows),
                    JoinKind::Semi => (l.rows * 0.7).min(rows).max(1.0),
                };
                cols.extend_from_slice(&l.cols);
                if *kind != JoinKind::Semi {
                    cols.extend_from_slice(&r.cols);
                }
                (
                    rows.max(1.0),
                    match kind {
                        JoinKind::Semi => l.row_bytes,
                        _ => l.row_bytes + r.row_bytes,
                    },
                )
            }
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } => {
                let c = children.get(0);
                let mut groups = 1.0_f64;
                for &k in keys {
                    groups *= self.obs.col_ndv(k) as f64;
                }
                // Distinct combinations can't exceed input rows; partial
                // aggregation produces up to `groups` per partition (we
                // assume the planned default parallelism of 50).
                let rows = if *partial {
                    (groups * 50.0).min(c.rows)
                } else {
                    groups.min(c.rows * 0.9)
                };
                cols.extend_from_slice(keys);
                (rows.max(1.0), 16.0 + 8.0 * (keys.len() + aggs.len()) as f64)
            }
            LogicalOp::UnionAll | LogicalOp::VirtualDataset => {
                let mut rows = 0.0_f64;
                let mut row_bytes = 0.0_f64;
                for i in 0..children.len() {
                    let c = children.get(i);
                    rows += c.rows;
                    row_bytes = row_bytes.max(c.row_bytes);
                }
                // Columns safe to reference above a union: those available
                // in every branch.
                if !children.is_empty() {
                    cols.extend_from_slice(&children.get(0).cols);
                }
                for i in 1..children.len() {
                    let c = children.get(i);
                    cols.retain(|col| c.cols.contains(col));
                }
                (rows.max(1.0), row_bytes)
            }
            LogicalOp::Top { k } => {
                let c = children.get(0);
                cols.extend_from_slice(&c.cols);
                ((*k as f64).min(c.rows).max(1.0), c.row_bytes)
            }
            LogicalOp::Sort { .. } | LogicalOp::Window { .. } | LogicalOp::Output { .. } => {
                let c = children.get(0);
                cols.extend_from_slice(&c.cols);
                (c.rows, c.row_bytes)
            }
            LogicalOp::Process { .. } => {
                let c = children.get(0);
                cols.extend_from_slice(&c.cols);
                // One global assumption for all UDOs: pass-through
                // cardinality, slightly wider rows.
                (
                    (c.rows * scope_ir::catalog::DEFAULT_UDO_SELECTIVITY).max(1.0),
                    c.row_bytes * 1.2,
                )
            }
        };
        out.rows = rows;
        out.row_bytes = row_bytes;
        out.debug_check_derived();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, Predicate};
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::AggFunc;
    use scope_ir::TrueCatalog;

    fn setup() -> (TrueCatalog, Vec<ColId>) {
        let mut cat = TrueCatalog::new();
        let c0 = cat.add_column(1000, 0.0, DomainId(0));
        let c1 = cat.add_column(100, 0.0, DomainId(1));
        let c2 = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(1_000_000, 100, 1, vec![c0, c1]);
        cat.add_table(500_000, 80, 2, vec![c2]);
        (cat, vec![c0, c1, c2])
    }

    fn atom(col: ColId, op: CmpOp) -> PredAtom {
        PredAtom::unknown(col, op, Literal::Int(1))
    }

    #[test]
    fn scan_estimate_uses_table_stats() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let scan = est.derive(
            &LogicalOp::RangeGet {
                table: TableId(0),
                pushed: Predicate::true_pred(),
            },
            &[],
        );
        assert_eq!(est.observed().table_rows(TableId(0)), 1_000_000);
        assert_eq!(scan.rows, 1_000_000.0);
        assert_eq!(scan.row_bytes, 100.0);
        assert_eq!(scan.cols, vec![cols[0], cols[1]]);
    }

    #[test]
    fn backoff_is_order_sensitive() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        // Eq on ndv=1024 (rounded) → sel ~1/1024; Range → 1/3.
        let a = atom(cols[0], CmpOp::Eq);
        let b = atom(cols[1], CmpOp::Range);
        let sel_ab = est.conj_selectivity(&[a.clone(), b.clone()]);
        let sel_ba = est.conj_selectivity(&[b, a]);
        assert!(
            (sel_ab - sel_ba).abs() > 1e-6,
            "reordering must change the estimate: {sel_ab} vs {sel_ba}"
        );
        // Most-selective-first yields the smaller combined estimate.
        assert!(sel_ab < sel_ba);
    }

    #[test]
    fn backoff_ignores_atoms_beyond_fourth() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let four: Vec<PredAtom> = (0..4).map(|_| atom(cols[1], CmpOp::Range)).collect();
        let five: Vec<PredAtom> = (0..5).map(|_| atom(cols[1], CmpOp::Range)).collect();
        assert_eq!(est.conj_selectivity(&four), est.conj_selectivity(&five));
    }

    #[test]
    fn join_estimate_divides_by_max_ndv() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let l = LogicalEst {
            rows: 1000.0,
            row_bytes: 50.0,
            cols: vec![cols[0]],
        };
        let r = LogicalEst {
            rows: 2000.0,
            row_bytes: 30.0,
            cols: vec![cols[2]],
        };
        let join = est.derive(
            &LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(cols[0], cols[2])],
            },
            &[&l, &r],
        );
        // ndv both 1024 after rounding.
        assert!((join.rows - 1000.0 * 2000.0 / 1024.0).abs() < 1e-6);
        assert_eq!(join.row_bytes, 80.0);
        assert_eq!(join.cols.len(), 2);
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let l = LogicalEst {
            rows: 1000.0,
            row_bytes: 50.0,
            cols: vec![cols[0]],
        };
        let r = LogicalEst {
            rows: 2000.0,
            row_bytes: 30.0,
            cols: vec![cols[2]],
        };
        let join = est.derive(
            &LogicalOp::Join {
                kind: JoinKind::Semi,
                keys: vec![(cols[0], cols[2])],
            },
            &[&l, &r],
        );
        assert_eq!(join.cols, vec![cols[0]]);
        assert!(join.rows <= 1000.0);
    }

    #[test]
    fn groupby_caps_at_input_rows() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let c = LogicalEst {
            rows: 50.0,
            row_bytes: 100.0,
            cols: vec![cols[0]],
        };
        let g = est.derive(
            &LogicalOp::GroupBy {
                keys: vec![cols[0]],
                aggs: vec![AggFunc::Count],
                partial: false,
            },
            &[&c],
        );
        assert!(g.rows <= 50.0);
        assert_eq!(g.cols, vec![cols[0]]);
    }

    #[test]
    fn union_intersects_columns_and_sums_rows() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let a = LogicalEst {
            rows: 10.0,
            row_bytes: 40.0,
            cols: vec![cols[0], cols[1]],
        };
        let b = LogicalEst {
            rows: 20.0,
            row_bytes: 60.0,
            cols: vec![cols[1], cols[2]],
        };
        let u = est.derive(&LogicalOp::UnionAll, &[&a, &b]);
        assert_eq!(u.rows, 30.0);
        assert_eq!(u.row_bytes, 60.0);
        assert_eq!(u.cols, vec![cols[1]]);
    }

    #[test]
    fn rows_correction_scales_scan_estimates() {
        let (cat, _cols) = setup();
        let obs = cat.observe();
        let op = LogicalOp::Get { table: TableId(0) };
        let base = Estimator::new(&obs).derive(&op, &[]);
        // The identity factor is bit-exact, not merely close.
        let ident = Estimator::with_cache(&obs, 1.0, SelCache::default()).derive(&op, &[]);
        assert_eq!(base.rows.to_bits(), ident.rows.to_bits());
        let doubled = Estimator::with_cache(&obs, 2.0, SelCache::default()).derive(&op, &[]);
        assert_eq!(doubled.rows, 2.0 * base.rows);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rows correction must be finite and positive")]
    fn degenerate_rows_correction_refused_in_debug() {
        let (cat, _cols) = setup();
        let obs = cat.observe();
        let _ = Estimator::with_cache(&obs, f64::NAN, SelCache::default());
    }

    #[test]
    fn top_caps_rows() {
        let (cat, cols) = setup();
        let obs = cat.observe();
        let est = Estimator::new(&obs);
        let c = LogicalEst {
            rows: 1e6,
            row_bytes: 10.0,
            cols: vec![cols[0]],
        };
        let t = est.derive(&LogicalOp::Top { k: 100 }, &[&c]);
        assert_eq!(t.rows, 100.0);
    }
}
