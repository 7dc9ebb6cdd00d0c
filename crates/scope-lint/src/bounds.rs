//! Abstract interpretation over `scope-ir` plan graphs: guaranteed
//! `[lo, hi]` intervals for rows and bytes, and a floor under estimated
//! cost.
//!
//! The analysis has two layers with different soundness obligations:
//!
//! **Per-node rows/bytes intervals** (the abstract domain is
//! [`scope_ir::Interval`], a closed non-negative interval). Transfer
//! functions mirror [`Estimator::derive`] exactly, evaluated at the child
//! interval endpoints — every derivation arm is monotone in its child
//! estimates for fixed operator metadata, so endpoint evaluation is exact
//! interval arithmetic. The only non-monotone ingredient is the
//! *order-sensitive* conjunction backoff, which steering rules can reorder;
//! it is replaced by a catalog-derivable envelope:
//!
//! * `sel_lo` = full-strength product of *all* atom selectivities (every
//!   damped, truncated-to-four product dominates it, because selectivities
//!   lie in `(0, 1]` and backoff exponents are `≤ 1`),
//! * `sel_hi` = the rearrangement-maximal backoff product (the four largest
//!   selectivities, largest paired with the largest exponent) — an upper
//!   bound over every atom order any `ReorderAtoms` rule can produce.
//!
//! By induction over the (children-first) plan order, the live estimator's
//! point estimate for every node lies inside its interval; violations are
//! reported by [`audit_estimates`] as typed
//! [`LintViolation::EstimateOutOfBounds`] findings.
//!
//! **Whole-plan cost floor** ([`PlanBounds::cost_lo`]), which must hold
//! for the *winning plan of any rule configuration* — i.e. survive every
//! enabled rewrite the memo search may apply. Naive per-node cost intervals
//! are unsound here (associativity rules reshape join inputs arbitrarily;
//! filter pushdown changes every intermediate estimate), so the floor is
//! built only from quantities rewrites provably preserve:
//!
//! * The plan is hash-consed into *canonical* nodes (after the required
//!   `Get→RangeGet` / `Select→Filter` normalizers), mirroring memo ingest —
//!   a shared subtree is counted once, matching the extracted plan's
//!   DAG-shared cost accounting.
//! * Only *mandatory* kinds contribute: scans, joins, group-bys, processes.
//!   No catalog rule can eliminate or merge nodes of these kinds (rewrites
//!   may *replicate* them below unions, which only adds cost), so the
//!   extracted physical plan of any compiling configuration contains at
//!   least as many operators of each mandatory kind (per table, for scans)
//!   as the canonical plan. Eliminable kinds (`Filter`, `Project`, `Top`,
//!   `Sort`, `UnionAll`, `VirtualDataset`) and merge-prone ones (`Window`
//!   via `CollapseSame`) contribute zero.
//! * Each mandatory node contributes the minimum, over the configuration's
//!   *enabled* implementation rules for its kind, of that implementation's
//!   cost floor: the cost-model formula evaluated at provably-minimal
//!   inputs (estimates are floored at one row) and minimized over every
//!   degree-of-parallelism tier. Scan floors dominate in practice because
//!   the raw bytes a scan reads ([`scope_optimizer::cost::raw_scan_bytes`]) depend only on
//!   the table — a rewrite- and configuration-invariant quantity.
//!
//! The floor carries a tiny relative slack (`COST_SLACK`) absorbing the
//! float jitter of extraction's own-cost accounting.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;

use scope_ir::{
    Interval, JoinKind, LogicalOp, NodeId, ObservableCatalog, OpKind, PlanGraph, Predicate,
};
use scope_optimizer::cost::{
    dop_for_bytes, raw_scan_bytes, C_CPU_ROW, C_HASH_ROW, C_IO, C_SORT_ROW, C_UDO_ROW, C_VERTEX,
    DOP_TIERS,
};
use scope_optimizer::estimate::{Estimator, LogicalEst};
use scope_optimizer::{PhysImpl, RuleAction, RuleCatalog, RuleId, RuleSet};

use crate::violation::{BoundQuantity, LintViolation};

/// Relative slack on the whole-plan cost floor, absorbing float jitter in
/// extraction's `own_cost = winner − children − exchanges` accounting.
const COST_SLACK: f64 = 1e-6;

/// Relative slack on per-node rows/bytes intervals, absorbing `powf` /
/// product-associativity jitter between the live estimator and the
/// envelope computation.
const EST_SLACK: f64 = 1e-9;

/// Per-implementation cost floors of one canonical node:
/// `(carrying rule, floor)`.
#[derive(Debug)]
struct ImplTable {
    entries: Vec<(RuleId, f64)>,
}

impl ImplTable {
    /// Minimum over enabled entries; over all entries when the config
    /// disables every implementation of the kind (then compilation fails
    /// anyway, and the all-impl minimum stays sound).
    fn min_enabled(&self, enabled: &RuleSet) -> f64 {
        let over_enabled = self
            .entries
            .iter()
            .filter(|(r, _)| enabled.contains(*r))
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        if over_enabled.is_finite() {
            over_enabled
        } else {
            self.entries
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min)
                .clamp(0.0, f64::MAX)
        }
    }
}

/// Sound `[lo, hi]` intervals for one plan's per-node rows/bytes, plus a
/// whole-plan cost floor parameterized by the enabled rule set.
#[derive(Debug)]
pub struct PlanBounds {
    rows: Vec<Interval>,
    row_bytes: Vec<Interval>,
    order: Vec<NodeId>,
    floor_terms: Vec<ImplTable>,
}

impl PlanBounds {
    /// Run the abstract interpretation over `plan` with the observable
    /// catalog `obs`. Total: garbage inputs widen intervals, they never
    /// panic.
    pub fn analyze(plan: &PlanGraph, obs: &ObservableCatalog) -> PlanBounds {
        let est = Estimator::new(obs);
        let order = plan.reachable();
        let n = plan.len();
        let mut b = PlanBounds {
            rows: vec![Interval::ZERO; n],
            row_bytes: vec![Interval::ZERO; n],
            order: Vec::new(),
            floor_terms: Vec::new(),
        };
        // Canonical hash-consing (memo-ingest mirror): nodes with identical
        // normalized op and identical canonical children collapse into one
        // canonical id. Hash collisions can only merge more nodes, which
        // only lowers the floor sum — sound.
        let mut canon: HashMap<(u64, Vec<usize>), usize> = HashMap::new();
        let mut canon_id: Vec<usize> = vec![usize::MAX; n];
        for &id in &order {
            let node = plan.node(id);
            let nop = normalize_op(&node.op);

            // Rows / bytes interval transfer.
            let (rows, row_bytes) = b.transfer(&est, &nop, &node.children, obs);
            b.rows[id.index()] = widen(rows);
            b.row_bytes[id.index()] = widen(row_bytes);

            // Canonical floor terms for mandatory kinds.
            let kids: Vec<usize> = node.children.iter().map(|c| canon_id[c.index()]).collect();
            let mut h = DefaultHasher::new();
            nop.memo_hash(&mut h);
            let next = canon.len();
            let entry = *canon.entry((h.finish(), kids)).or_insert(next);
            canon_id[id.index()] = entry;
            if entry == next && is_floor_kind(nop.kind()) {
                b.floor_terms.push(floor_table(&nop, obs));
            }
        }
        b.order = order;
        b
    }

    /// Reachable node ids, children first.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Interval for a node's estimated output rows.
    pub fn rows(&self, id: NodeId) -> Interval {
        self.rows[id.index()]
    }

    /// Interval for a node's estimated bytes per row.
    pub fn row_bytes(&self, id: NodeId) -> Interval {
        self.row_bytes[id.index()]
    }

    /// Interval for a node's estimated total bytes.
    pub fn bytes(&self, id: NodeId) -> Interval {
        self.rows[id.index()].mul(&self.row_bytes[id.index()])
    }

    /// Guaranteed lower bound on the estimated cost of *any* plan the
    /// optimizer can compile for this job under a configuration with
    /// `enabled` rules. Always finite and `≥ 0`.
    pub fn cost_lo(&self, enabled: &RuleSet) -> f64 {
        let sum: f64 = self
            .floor_terms
            .iter()
            .map(|t| t.min_enabled(enabled))
            .sum();
        (sum * (1.0 - COST_SLACK)).max(0.0)
    }

    /// Interval transfer for one normalized operator given its children's
    /// already-computed intervals. Each arm evaluates the corresponding
    /// [`Estimator::derive`] formula at the child interval endpoints; all
    /// arms are monotone for fixed metadata, so this is exact.
    fn transfer(
        &self,
        est: &Estimator<'_>,
        op: &LogicalOp,
        children: &[NodeId],
        obs: &ObservableCatalog,
    ) -> (Interval, Interval) {
        let kid = |i: usize| -> (Interval, Interval) {
            children
                .get(i)
                .map(|c| (self.rows[c.index()], self.row_bytes[c.index()]))
                .unwrap_or((Interval::point(1.0), Interval::ZERO))
        };
        match op {
            LogicalOp::Get { table } => {
                // Normalized away; kept total for robustness.
                let t = obs.table_rows(*table) as f64;
                (
                    Interval::point(t.max(1.0)),
                    Interval::point(obs.table_row_bytes(*table) as f64),
                )
            }
            LogicalOp::RangeGet { table, pushed } => {
                let t = obs.table_rows(*table) as f64;
                let (slo, shi) = sel_envelope(est, pushed);
                (
                    Interval::new((t * slo).max(1.0), (t * shi).max(1.0)),
                    Interval::point(obs.table_row_bytes(*table) as f64),
                )
            }
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                let (r, rb) = kid(0);
                let (slo, shi) = sel_envelope(est, predicate);
                (
                    Interval::new((r.lo() * slo).max(1.0), (r.hi() * shi).max(1.0)),
                    rb,
                )
            }
            LogicalOp::Project { cols, computed } => {
                let (r, _) = kid(0);
                (
                    r,
                    Interval::point(12.0 + 8.0 * (cols.len() + *computed as usize) as f64),
                )
            }
            LogicalOp::Join { kind, keys } => {
                let (l, lb) = kid(0);
                let (r, rb) = kid(1);
                let rows_at = |lr: f64, rr: f64| -> f64 {
                    let mut rows = match keys.first() {
                        Some(&(lk, rk)) => {
                            let ndv = obs.col_ndv(lk).max(obs.col_ndv(rk)).max(1);
                            lr * rr / ndv as f64
                        }
                        None => lr * rr,
                    };
                    for _ in keys.iter().skip(1) {
                        rows *= 0.3;
                    }
                    rows = match kind {
                        JoinKind::Inner => rows,
                        JoinKind::LeftOuter => rows.max(lr),
                        JoinKind::Semi => (lr * 0.7).min(rows).max(1.0),
                    };
                    rows.max(1.0)
                };
                let rows = Interval::new(rows_at(l.lo(), r.lo()), rows_at(l.hi(), r.hi()));
                let row_bytes = match kind {
                    JoinKind::Semi => lb,
                    _ => lb.add(&rb),
                };
                (rows, row_bytes)
            }
            LogicalOp::GroupBy {
                keys,
                aggs,
                partial,
            } => {
                let (c, _) = kid(0);
                let mut groups = 1.0f64;
                for &k in keys {
                    groups *= obs.col_ndv(k) as f64;
                }
                let rows_at = |cr: f64| -> f64 {
                    let rows = if *partial {
                        (groups * 50.0).min(cr)
                    } else {
                        groups.min(cr * 0.9)
                    };
                    rows.max(1.0)
                };
                (
                    Interval::new(rows_at(c.lo()), rows_at(c.hi())),
                    Interval::point(16.0 + 8.0 * (keys.len() + aggs.len()) as f64),
                )
            }
            LogicalOp::UnionAll | LogicalOp::VirtualDataset => {
                let mut rows = Interval::ZERO;
                let mut row_bytes = Interval::ZERO;
                for i in 0..children.len() {
                    let (r, rb) = kid(i);
                    rows = rows.add(&r);
                    row_bytes = row_bytes.max(&rb);
                }
                (rows.floor_at(1.0), row_bytes)
            }
            LogicalOp::Top { k } => {
                let (c, rb) = kid(0);
                let kf = *k as f64;
                (
                    Interval::new(kf.min(c.lo()).max(1.0), kf.min(c.hi()).max(1.0)),
                    rb,
                )
            }
            LogicalOp::Sort { .. } | LogicalOp::Window { .. } | LogicalOp::Output { .. } => kid(0),
            LogicalOp::Process { .. } => {
                let (c, rb) = kid(0);
                let udo = scope_ir::catalog::DEFAULT_UDO_SELECTIVITY;
                (
                    Interval::new((c.lo() * udo).max(1.0), (c.hi() * udo).max(1.0)),
                    rb.scale(1.2),
                )
            }
        }
    }
}

/// Widen an interval by the relative estimator slack.
fn widen(i: Interval) -> Interval {
    Interval::new(i.lo() * (1.0 - EST_SLACK), i.hi() * (1.0 + EST_SLACK))
}

/// The required normalizers, applied op-locally (mirrors
/// `scope_optimizer::normalize`, which is 1:1 on nodes).
fn normalize_op(op: &LogicalOp) -> LogicalOp {
    match op {
        LogicalOp::Get { table } => LogicalOp::RangeGet {
            table: *table,
            pushed: Predicate::true_pred(),
        },
        LogicalOp::Select { predicate } => LogicalOp::Filter {
            predicate: predicate.clone(),
        },
        other => other.clone(),
    }
}

/// Mandatory kinds that contribute cost floors: no catalog rule can
/// eliminate or merge nodes of these kinds (see module docs). `Window` is
/// excluded because `CollapseSame(Window)` can merge stacked windows;
/// `Output` contributes a zero floor anyway (`in_bytes·C_IO/dop` has no
/// vertex term and its input estimate is not rewrite-invariant).
fn is_floor_kind(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::RangeGet | OpKind::Join | OpKind::GroupBy | OpKind::Process
    )
}

/// The order-invariant selectivity envelope of a conjunction (see module
/// docs): `lo` is the full-strength all-atoms product, `hi` the
/// rearrangement-maximal backoff product. Both clamped into the
/// estimator's `[1e-9, 1]` range; every `conj_selectivity` value for every
/// atom order lies inside.
fn sel_envelope(est: &Estimator<'_>, pred: &Predicate) -> (f64, f64) {
    if pred.is_true() || pred.atoms.is_empty() {
        return (1.0, 1.0);
    }
    let mut sels: Vec<f64> = pred.atoms.iter().map(|a| est.atom_selectivity(a)).collect();
    let lo = sels.iter().product::<f64>().clamp(1e-9, 1.0);
    sels.sort_by(|a, b| b.total_cmp(a));
    let mut hi = 1.0f64;
    for (i, s) in sels.iter().take(4).enumerate() {
        hi *= if i == 0 {
            *s
        } else {
            s.powf(1.0 / (1u32 << i) as f64)
        };
    }
    let hi = hi.clamp(1e-9, 1.0);
    (lo.min(hi), hi)
}

fn min_over_tiers(f: impl Fn(f64) -> f64) -> f64 {
    DOP_TIERS
        .iter()
        .map(|&d| f(d as f64))
        .fold(f64::INFINITY, f64::min)
}

/// `log2` as the cost model computes it (clamped at 2 rows).
fn log2c(rows: f64) -> f64 {
    rows.max(2.0).log2()
}

/// Cost floor of one implementation: its cost-model formula at
/// provably-minimal inputs (every estimate is floored at one row; byte
/// volumes at zero except the rewrite-invariant raw scan bytes), minimized
/// over every DOP tier the model could pick.
fn floor_table(op: &LogicalOp, obs: &ObservableCatalog) -> ImplTable {
    let cat = RuleCatalog::global();
    let mut entries = Vec::new();
    for &rid in cat.impls_for(op.kind()) {
        if let RuleAction::Impl(p) = cat.rule(rid).action {
            entries.push((rid, impl_floor(p, op, obs)));
        }
    }
    ImplTable { entries }
}

fn impl_floor(phys: PhysImpl, op: &LogicalOp, obs: &ObservableCatalog) -> f64 {
    use PhysImpl::*;
    let udo = C_UDO_ROW * scope_ir::catalog::DEFAULT_UDO_CPU_PER_ROW;
    match phys {
        ScanSerial => raw_scan_bytes(op, obs) * C_IO + C_VERTEX,
        ScanParallel => {
            // Exact: parallel scans always read the full table at the
            // byte-driven tier, independent of pushed predicates.
            let raw = raw_scan_bytes(op, obs);
            let d = dop_for_bytes(raw) as f64;
            raw * C_IO / d + d * C_VERTEX
        }
        ScanIndexed => {
            // Read volume is floored at one byte; the log term on raw bytes
            // is predicate-independent.
            let raw = raw_scan_bytes(op, obs);
            C_IO + 0.05 * raw.max(1.0).log2() + C_VERTEX
        }
        HashJoin1 | HashJoin2 | HashJoin3 => {
            min_over_tiers(|d| 2.0 * C_HASH_ROW / d + d * C_VERTEX)
        }
        MergeJoin => {
            min_over_tiers(|d| (2.0 * log2c(1.0) * C_SORT_ROW + 2.0 * C_CPU_ROW) / d + d * C_VERTEX)
        }
        BroadcastJoin => min_over_tiers(|d| C_HASH_ROW / d + C_HASH_ROW + d * C_VERTEX),
        LoopJoin => 0.02e-6 + C_VERTEX,
        IndexJoin => min_over_tiers(|d| log2c(1.0) * 0.8e-6 / d + C_CPU_ROW * 0.1 + d * C_VERTEX),
        HashAgg => min_over_tiers(|d| C_HASH_ROW / d),
        SortAgg => min_over_tiers(|d| log2c(1.0) * C_SORT_ROW / d),
        StreamAgg => min_over_tiers(|d| C_CPU_ROW * 0.8 / d),
        ProcessParallel => min_over_tiers(|d| udo / d + d * C_VERTEX),
        ProcessSerial => udo + C_VERTEX,
        // Aggregation-free unaries, unions, sorts, tops, windows, output,
        // exchanges: floors pinned at zero (eliminable, merge-prone, or
        // zero-vertex formulas over non-invariant inputs).
        _ => 0.0,
    }
}

/// Audit the live estimator against the abstract intervals: derive every
/// node's point estimate bottom-up (exactly as memo ingest does) and
/// report any rows/bytes value that escapes its interval as a typed
/// [`LintViolation::EstimateOutOfBounds`].
pub fn audit_estimates(plan: &PlanGraph, obs: &ObservableCatalog) -> Vec<LintViolation> {
    let bounds = PlanBounds::analyze(plan, obs);
    let est = Estimator::new(obs);
    let mut ests: Vec<Option<LogicalEst>> = (0..plan.len()).map(|_| None).collect();
    let mut out = Vec::new();
    for &id in bounds.order() {
        let node = plan.node(id);
        let nop = normalize_op(&node.op);
        let kids: Vec<&LogicalEst> = node
            .children
            .iter()
            .filter_map(|c| ests[c.index()].as_ref())
            .collect();
        let point = est.derive(&nop, &kids);
        let r = bounds.rows(id);
        if !r.contains(point.rows) {
            out.push(LintViolation::EstimateOutOfBounds {
                node: id.index(),
                kind: nop.kind(),
                quantity: BoundQuantity::Rows,
                point: point.rows,
                lo: r.lo(),
                hi: r.hi(),
            });
        }
        let b = bounds.bytes(id);
        let point_bytes = point.rows * point.row_bytes;
        if !b.contains(point_bytes) {
            out.push(LintViolation::EstimateOutOfBounds {
                node: id.index(),
                kind: nop.kind(),
                quantity: BoundQuantity::Bytes,
                point: point_bytes,
                lo: b.lo(),
                hi: b.hi(),
            });
        }
        ests[id.index()] = Some(point);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::ids::{ColId, DomainId, TableId};
    use scope_ir::{AggFunc, CmpOp, Literal, PredAtom, TrueCatalog};
    use scope_optimizer::RuleConfig;

    fn catalog() -> ObservableCatalog {
        let mut cat = TrueCatalog::new();
        let c0 = cat.add_column(1000, 0.0, DomainId(0));
        let c1 = cat.add_column(100, 0.0, DomainId(1));
        let c2 = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(1_000_000, 100, 1, vec![c0, c1]);
        cat.add_table(500_000, 80, 2, vec![c2]);
        cat.observe()
    }

    fn atom(col: ColId, op: CmpOp) -> PredAtom {
        PredAtom::unknown(col, op, Literal::Int(1))
    }

    /// Output(GroupBy(Join(Filter(Get(t0)), RangeGet(t1)))) — exercises
    /// scans, a filter envelope, a keyed join, and an aggregation.
    fn plan() -> PlanGraph {
        let mut p = PlanGraph::new();
        let s0 = p.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = p.add_unchecked(
            LogicalOp::Filter {
                predicate: Predicate::atom(atom(ColId(1), CmpOp::Range)),
            },
            vec![s0],
        );
        let s1 = p.add_unchecked(
            LogicalOp::RangeGet {
                table: TableId(1),
                pushed: Predicate::true_pred(),
            },
            vec![],
        );
        let j = p.add_unchecked(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(ColId(0), ColId(2))],
            },
            vec![f, s1],
        );
        let g = p.add_unchecked(
            LogicalOp::GroupBy {
                keys: vec![ColId(1)],
                aggs: vec![AggFunc::Count],
                partial: false,
            },
            vec![j],
        );
        let o = p.add_unchecked(LogicalOp::Output { stream: 1 }, vec![g]);
        p.set_root(o);
        p
    }

    #[test]
    fn intervals_are_finite_ordered_and_contain_live_points() {
        let obs = catalog();
        let p = plan();
        let bounds = PlanBounds::analyze(&p, &obs);
        let est = Estimator::new(&obs);
        let mut ests: Vec<Option<LogicalEst>> = (0..p.len()).map(|_| None).collect();
        for &id in bounds.order() {
            let node = p.node(id);
            let nop = normalize_op(&node.op);
            let kids: Vec<&LogicalEst> = node
                .children
                .iter()
                .filter_map(|c| ests[c.index()].as_ref())
                .collect();
            let point = est.derive(&nop, &kids);
            let r = bounds.rows(id);
            r.debug_check();
            bounds.row_bytes(id).debug_check();
            assert!(
                r.contains(point.rows),
                "node {id:?}: rows {} outside [{}, {}]",
                point.rows,
                r.lo(),
                r.hi()
            );
            let b = bounds.bytes(id);
            assert!(
                b.contains(point.rows * point.row_bytes),
                "node {id:?} bytes"
            );
            ests[id.index()] = Some(point);
        }
    }

    #[test]
    fn audit_is_clean_on_default_catalog() {
        let obs = catalog();
        assert_eq!(audit_estimates(&plan(), &obs), Vec::new());
    }

    #[test]
    fn cost_bounds_are_ordered_and_scan_anchored() {
        let obs = catalog();
        let p = plan();
        let bounds = PlanBounds::analyze(&p, &obs);
        let config = RuleConfig::default_config();
        let lo = bounds.cost_lo(config.enabled());
        let winner = scope_optimizer::compile(&p, &obs, &config)
            .unwrap()
            .est_cost;
        assert!(lo.is_finite());
        assert!(
            lo <= winner,
            "lo {lo} must not exceed the winner's {winner}"
        );
        // Two scans with a vertex floor each: the bound is structurally
        // positive, not a trivial zero.
        assert!(lo > 2.0 * 0.3, "scan floors must anchor the bound: {lo}");
    }

    #[test]
    fn disabling_impls_tightens_the_floor() {
        // A table large enough that a serial scan is strictly costlier than
        // the parallel/indexed minimum — so shrinking the enabled set to the
        // serial impl must strictly raise the floor.
        let mut cat = TrueCatalog::new();
        let c0 = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(200_000_000, 100, 4, vec![c0]);
        let obs = cat.observe();
        let mut p = PlanGraph::new();
        let s = p.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let o = p.add_unchecked(LogicalOp::Output { stream: 1 }, vec![s]);
        p.set_root(o);
        let bounds = PlanBounds::analyze(&p, &obs);
        let rules = RuleCatalog::global();
        let full = RuleConfig::default_config();
        let lo_full = bounds.cost_lo(full.enabled());
        // Keep only the serial scan: the per-scan minimum can only grow.
        let mut serial_only = full.clone();
        for &rid in rules.impls_for(OpKind::RangeGet) {
            if rules.rule(rid).action != RuleAction::Impl(PhysImpl::ScanSerial) {
                serial_only.disable(rid);
            }
        }
        let lo_serial = bounds.cost_lo(serial_only.enabled());
        assert!(
            lo_serial >= lo_full,
            "shrinking the enabled set must not lower the floor: {lo_serial} < {lo_full}"
        );
        assert!(
            lo_serial > lo_full,
            "serial-only scans are strictly costlier"
        );
    }

    #[test]
    fn shared_subtrees_are_counted_once() {
        let obs = catalog();
        // Union over the SAME scan node twice (a DAG) — the canonical pass
        // must count one scan floor, mirroring memo hash-consing.
        let mut shared = PlanGraph::new();
        let s = shared.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let u = shared.add_unchecked(LogicalOp::UnionAll, vec![s, s]);
        let o = shared.add_unchecked(LogicalOp::Output { stream: 1 }, vec![u]);
        shared.set_root(o);

        let mut single = PlanGraph::new();
        let s = single.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let o = single.add_unchecked(LogicalOp::Output { stream: 1 }, vec![s]);
        single.set_root(o);

        let config = RuleConfig::default_config();
        let lo_shared = PlanBounds::analyze(&shared, &obs).cost_lo(config.enabled());
        let lo_single = PlanBounds::analyze(&single, &obs).cost_lo(config.enabled());
        assert!(
            (lo_shared - lo_single).abs() < 1e-9,
            "shared scan must contribute one floor: {lo_shared} vs {lo_single}"
        );
    }

    #[test]
    fn sel_envelope_contains_every_atom_order() {
        let obs = catalog();
        let est = Estimator::new(&obs);
        let atoms = [
            atom(ColId(0), CmpOp::Eq),
            atom(ColId(1), CmpOp::Range),
            atom(ColId(2), CmpOp::Like),
            atom(ColId(1), CmpOp::Between),
            atom(ColId(0), CmpOp::Neq),
        ];
        let pred = Predicate {
            atoms: atoms.to_vec(),
        };
        let (lo, hi) = sel_envelope(&est, &pred);
        assert!(lo > 0.0 && hi <= 1.0 && lo <= hi);
        // A few representative orders, including reversed and rotated.
        let mut orders: Vec<Vec<PredAtom>> =
            vec![atoms.to_vec(), atoms.iter().rev().cloned().collect()];
        for rot in 1..atoms.len() {
            let mut v = atoms.to_vec();
            v.rotate_left(rot);
            orders.push(v);
        }
        for order in &orders {
            let s = est.conj_selectivity(order);
            assert!(
                s >= lo && s <= hi,
                "order produced {s} outside [{lo}, {hi}]"
            );
        }
    }
}
