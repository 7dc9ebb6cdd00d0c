//! The true data catalog and its observable projection.
//!
//! [`TrueCatalog`] is the ground truth about a job's inputs: exact row
//! counts, true predicate selectivities (with correlation between
//! predicates), join-key skew, and true user-defined-operator behaviour.
//! Only the **execution simulator** reads it.
//!
//! [`ObservableCatalog`] is what the **optimizer** is allowed to see:
//! input sizes and schema, plus rounded distinct counts. Everything else it
//! must estimate from heuristics — and the systematic gap between those
//! heuristics and the truth is exactly what the paper's rule steering
//! exploits.

use crate::expr::{CmpOp, PredAtom};
use crate::ids::{ColId, DomainId, TableId, UdoId};

/// Ground-truth statistics for one column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: u64,
    /// Share of rows held by the single heaviest value, in `[0, 1]`.
    /// `0` means perfectly uniform. Invisible to the optimizer.
    pub skew: f64,
    /// Join-key domain; joins across different domains behave like
    /// low-overlap joins.
    pub domain: DomainId,
}

/// Ground-truth statistics for one input stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Exact row count (observable — SCOPE knows its input sizes).
    pub rows: u64,
    /// Average row width in bytes (observable).
    pub row_bytes: u32,
    /// Hash of the input stream name (observable; part of template identity).
    pub name_hash: u64,
    /// Columns of this table (ids into the catalog's global column arena).
    pub cols: Vec<ColId>,
}

/// Ground truth for one registered predicate atom.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredTruth {
    /// True standalone selectivity in `(0, 1]`.
    pub selectivity: f64,
    /// Correlation group, if the predicate is correlated with others.
    pub corr_group: Option<u32>,
}

/// A set of mutually correlated predicates.
///
/// For a conjunction containing `k ≥ 2` members of the group, the true
/// combined selectivity is blended between full nesting (`min` of the
/// members) and independence (product): `strength·min + (1−strength)·prod`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrGroup {
    /// `0` = independent, `1` = fully nested (e.g. `city ⇒ state`).
    pub strength: f64,
}

/// Ground truth for one user-defined operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UdoTruth {
    /// True CPU microseconds per input row.
    pub cpu_per_row: f64,
    /// True output/input row ratio (may exceed 1 for exploding UDOs).
    pub selectivity: f64,
}

/// Defaults assumed by the optimizer for *every* UDO — one global constant,
/// as in real SCOPE where user code is opaque.
pub const DEFAULT_UDO_CPU_PER_ROW: f64 = 1.0;
/// Default UDO output/input ratio assumed by the optimizer.
pub const DEFAULT_UDO_SELECTIVITY: f64 = 1.0;

/// The optimizer's shape-based selectivity heuristic, shared with the
/// simulator's fallback for unregistered predicates. `ndv` is the (rounded)
/// distinct count of the filtered column.
pub fn shape_selectivity(op: CmpOp, ndv: u64) -> f64 {
    let sel = match op {
        CmpOp::Eq => 1.0 / ndv.max(1) as f64,
        CmpOp::Neq => 1.0 - 1.0 / ndv.max(1) as f64,
        CmpOp::Range => 1.0 / 3.0,
        CmpOp::Between => 1.0 / 4.0,
        CmpOp::Like => 1.0 / 10.0,
        CmpOp::InList => (4.0 / ndv.max(1) as f64).min(0.5),
    };
    sel.clamp(1e-6, 1.0)
}

/// Ground truth about a job's world. Owned by each [`crate::job::Job`];
/// read only by the execution simulator and the workload generator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrueCatalog {
    pub tables: Vec<TableStats>,
    pub columns: Vec<ColumnStats>,
    pub preds: Vec<PredTruth>,
    pub corr_groups: Vec<CorrGroup>,
    pub udos: Vec<UdoTruth>,
}

impl TrueCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a column; returns its id.
    pub fn add_column(&mut self, ndv: u64, skew: f64, domain: DomainId) -> ColId {
        let id = ColId(self.columns.len() as u32);
        self.columns.push(ColumnStats { ndv, skew, domain });
        id
    }

    /// Register a table; returns its id.
    pub fn add_table(
        &mut self,
        rows: u64,
        row_bytes: u32,
        name_hash: u64,
        cols: Vec<ColId>,
    ) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableStats {
            rows,
            row_bytes,
            name_hash,
            cols,
        });
        id
    }

    /// Register a predicate's ground truth; returns its id.
    pub fn add_pred(&mut self, selectivity: f64, corr_group: Option<u32>) -> crate::ids::PredId {
        let id = crate::ids::PredId(self.preds.len() as u32);
        self.preds.push(PredTruth {
            selectivity: selectivity.clamp(1e-9, 1.0),
            corr_group,
        });
        id
    }

    /// Register a correlation group; returns its index for `add_pred`.
    pub fn add_corr_group(&mut self, strength: f64) -> u32 {
        let id = self.corr_groups.len() as u32;
        self.corr_groups.push(CorrGroup {
            strength: strength.clamp(0.0, 1.0),
        });
        id
    }

    /// Register a UDO's ground truth; returns its id.
    pub fn add_udo(&mut self, cpu_per_row: f64, selectivity: f64) -> UdoId {
        let id = UdoId(self.udos.len() as u32);
        self.udos.push(UdoTruth {
            cpu_per_row,
            selectivity,
        });
        id
    }

    /// True selectivity of one atom in isolation.
    pub fn true_atom_selectivity(&self, atom: &PredAtom) -> f64 {
        if atom.pred.is_known() {
            if let Some(t) = self.preds.get(atom.pred.index()) {
                return t.selectivity;
            }
        }
        let ndv = self
            .columns
            .get(atom.col.index())
            .map(|c| c.ndv)
            .unwrap_or(1000);
        shape_selectivity(atom.op, ndv)
    }

    /// True combined selectivity of a conjunction, accounting for
    /// correlation groups.
    pub fn true_conj_selectivity(&self, atoms: &[PredAtom]) -> f64 {
        let mut independent = 1.0_f64;
        // (group id, min sel, product sel, count)
        let mut groups: Vec<(u32, f64, f64, usize)> = Vec::new();
        for atom in atoms {
            let sel = self.true_atom_selectivity(atom);
            let group = atom
                .pred
                .is_known()
                .then(|| self.preds.get(atom.pred.index()).and_then(|t| t.corr_group))
                .flatten();
            match group {
                None => independent *= sel,
                Some(g) => match groups.iter_mut().find(|e| e.0 == g) {
                    Some(e) => {
                        e.1 = e.1.min(sel);
                        e.2 *= sel;
                        e.3 += 1;
                    }
                    None => groups.push((g, sel, sel, 1)),
                },
            }
        }
        for (g, min, prod, count) in groups {
            if count <= 1 {
                independent *= prod;
            } else {
                let strength = self
                    .corr_groups
                    .get(g as usize)
                    .map(|c| c.strength)
                    .unwrap_or(0.0);
                independent *= strength * min + (1.0 - strength) * prod;
            }
        }
        independent.clamp(1e-12, 1.0)
    }

    /// True behaviour of a UDO; falls back to the optimizer's defaults for
    /// unregistered ids (so hand-built plans see no estimation error).
    pub fn udo_truth(&self, udo: UdoId) -> UdoTruth {
        self.udos.get(udo.index()).copied().unwrap_or(UdoTruth {
            cpu_per_row: DEFAULT_UDO_CPU_PER_ROW,
            selectivity: DEFAULT_UDO_SELECTIVITY,
        })
    }

    /// Total bytes across all inputs (observable; used by featurization).
    pub fn total_input_bytes(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| t.rows.saturating_mul(t.row_bytes as u64))
            .sum()
    }

    /// Project down to what the optimizer may see.
    pub fn observe(&self) -> ObservableCatalog {
        let mut obs = ObservableCatalog::default();
        self.observe_into(&mut obs);
        obs
    }

    /// [`Self::observe`] into `obs`, overwriting it: its table and column
    /// lists, and each table's column list, keep their capacity, so a
    /// caller that keeps one catalog observes without allocating once it
    /// has held the largest.
    pub fn observe_into(&self, obs: &mut ObservableCatalog) {
        let tables = &mut obs.tables;
        tables.truncate(self.tables.len());
        tables.reserve_exact(self.tables.len() - tables.len());
        for (i, t) in self.tables.iter().enumerate() {
            match tables.get_mut(i) {
                Some(seen) => {
                    seen.rows = t.rows;
                    seen.row_bytes = t.row_bytes;
                    seen.name_hash = t.name_hash;
                    seen.cols.clone_from(&t.cols);
                }
                None => tables.push(ObservableTable {
                    rows: t.rows,
                    row_bytes: t.row_bytes,
                    name_hash: t.name_hash,
                    cols: t.cols.clone(),
                }),
            }
        }
        obs.columns.clear();
        obs.columns.reserve_exact(self.columns.len());
        obs.columns
            .extend(self.columns.iter().map(|c| ObservableColumn {
                ndv: round_pow2(c.ndv),
                domain: c.domain,
            }));
    }
}

/// Round to the nearest power of two — the granularity at which the
/// optimizer's histograms report distinct counts.
fn round_pow2(v: u64) -> u64 {
    if v <= 1 {
        return 1;
    }
    let lower = 1u64 << (63 - v.leading_zeros());
    let upper = lower << 1;
    if v - lower <= upper.saturating_sub(v) {
        lower
    } else {
        upper
    }
}

/// Observable column statistics (rounded distinct count, no skew).
#[derive(Clone, Debug, PartialEq)]
pub struct ObservableColumn {
    pub ndv: u64,
    pub domain: DomainId,
}

/// Observable table statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservableTable {
    pub rows: u64,
    pub row_bytes: u32,
    pub name_hash: u64,
    pub cols: Vec<ColId>,
}

/// What the optimizer sees: schema, sizes, rounded distinct counts. No
/// predicate truth, no correlation, no skew, no UDO internals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObservableCatalog {
    pub tables: Vec<ObservableTable>,
    pub columns: Vec<ObservableColumn>,
}

impl ObservableCatalog {
    /// Observable row count of a table (0 for unknown ids).
    pub fn table_rows(&self, t: TableId) -> u64 {
        self.tables.get(t.index()).map(|t| t.rows).unwrap_or(0)
    }

    /// Observable row width of a table.
    pub fn table_row_bytes(&self, t: TableId) -> u32 {
        self.tables
            .get(t.index())
            .map(|t| t.row_bytes)
            .unwrap_or(100)
    }

    /// Observable (rounded) distinct count of a column.
    pub fn col_ndv(&self, c: ColId) -> u64 {
        self.columns.get(c.index()).map(|c| c.ndv).unwrap_or(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Literal;
    use crate::ids::PredId;

    fn atom_with(pred: PredId) -> PredAtom {
        PredAtom {
            col: ColId(0),
            op: CmpOp::Eq,
            literal: Literal::Int(0),
            pred,
        }
    }

    #[test]
    fn round_pow2_behaviour() {
        assert_eq!(round_pow2(0), 1);
        assert_eq!(round_pow2(1), 1);
        assert_eq!(round_pow2(2), 2);
        assert_eq!(round_pow2(3), 2); // equidistant ties resolve down
        assert_eq!(round_pow2(5), 4);
        assert_eq!(round_pow2(7), 8);
        assert_eq!(round_pow2(1000), 1024);
    }

    #[test]
    fn independent_preds_multiply() {
        let mut cat = TrueCatalog::new();
        let p1 = cat.add_pred(0.1, None);
        let p2 = cat.add_pred(0.2, None);
        let sel = cat.true_conj_selectivity(&[atom_with(p1), atom_with(p2)]);
        assert!((sel - 0.02).abs() < 1e-12);
    }

    #[test]
    fn fully_correlated_preds_take_min() {
        let mut cat = TrueCatalog::new();
        let g = cat.add_corr_group(1.0);
        let p1 = cat.add_pred(0.1, Some(g));
        let p2 = cat.add_pred(0.2, Some(g));
        let sel = cat.true_conj_selectivity(&[atom_with(p1), atom_with(p2)]);
        assert!((sel - 0.1).abs() < 1e-12);
    }

    #[test]
    fn partially_correlated_preds_blend() {
        let mut cat = TrueCatalog::new();
        let g = cat.add_corr_group(0.5);
        let p1 = cat.add_pred(0.1, Some(g));
        let p2 = cat.add_pred(0.2, Some(g));
        let sel = cat.true_conj_selectivity(&[atom_with(p1), atom_with(p2)]);
        let expected = 0.5 * 0.1 + 0.5 * 0.02;
        assert!((sel - expected).abs() < 1e-12);
    }

    #[test]
    fn single_group_member_is_independent() {
        let mut cat = TrueCatalog::new();
        let g = cat.add_corr_group(1.0);
        let p1 = cat.add_pred(0.1, Some(g));
        let sel = cat.true_conj_selectivity(&[atom_with(p1)]);
        assert!((sel - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unknown_pred_falls_back_to_shape_heuristic() {
        let mut cat = TrueCatalog::new();
        cat.add_column(100, 0.0, DomainId(0));
        let atom = PredAtom::unknown(ColId(0), CmpOp::Eq, Literal::Int(3));
        let sel = cat.true_atom_selectivity(&atom);
        assert!((sel - 0.01).abs() < 1e-12);
    }

    #[test]
    fn observe_hides_truth_and_rounds_ndv() {
        let mut cat = TrueCatalog::new();
        let c = cat.add_column(1000, 0.8, DomainId(3));
        cat.add_table(5000, 120, 42, vec![c]);
        cat.add_pred(0.001, None);
        let obs = cat.observe();
        assert_eq!(obs.col_ndv(c), 1024);
        assert_eq!(obs.table_rows(TableId(0)), 5000);
        assert_eq!(obs.columns[0].domain, DomainId(3));
        // Truth fields simply do not exist on the observable type.
    }

    /// Observing into a catalog that held a larger one leaves nothing of
    /// it behind.
    #[test]
    fn observe_into_overwrites_a_larger_catalog() {
        let mut big = TrueCatalog::new();
        let cols: Vec<ColId> = (0..4)
            .map(|i| big.add_column(10 + i, 0.0, DomainId(i as u32)))
            .collect();
        big.add_table(7, 80, 1, cols.clone());
        big.add_table(9, 90, 2, cols[1..].to_vec());
        let mut small = TrueCatalog::new();
        let c = small.add_column(300, 0.0, DomainId(5));
        small.add_table(5000, 120, 42, vec![c]);
        let mut obs = big.observe();
        small.observe_into(&mut obs);
        assert_eq!(obs, small.observe());
        big.observe_into(&mut obs);
        assert_eq!(obs, big.observe());
    }

    #[test]
    fn udo_default_for_unknown() {
        let cat = TrueCatalog::new();
        let t = cat.udo_truth(UdoId(99));
        assert_eq!(t.cpu_per_row, DEFAULT_UDO_CPU_PER_ROW);
        assert_eq!(t.selectivity, DEFAULT_UDO_SELECTIVITY);
    }

    #[test]
    fn total_input_bytes_sums_tables() {
        let mut cat = TrueCatalog::new();
        cat.add_table(10, 100, 0, vec![]);
        cat.add_table(5, 200, 1, vec![]);
        assert_eq!(cat.total_input_bytes(), 2000);
    }
}
