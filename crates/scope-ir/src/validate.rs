//! Structural plan validation.
//!
//! [`validate_logical`] checks the invariants every *input* plan must hold
//! before it is handed to the optimizer: the DAG is rooted in an `Output`,
//! every operator has the right number of inputs, every scanned table exists
//! in the observable catalog, and every referenced column is actually
//! produced by the subtree below the reference. Violations come back as a
//! typed [`PlanViolation`] list rather than a panic. No product path calls
//! it: `crates/core/tests/guardrail_props.rs` checks with it that every
//! plan the workload generator emits is valid, and the deployment
//! guardrail vets each steered plan with the physical validator and the
//! default plan's result fingerprint instead.
//!
//! Column checks are deliberately *logical-only*: legitimate rewrites such
//! as `ReseqProjectOnFilter` push a `Project` below a column-referencing
//! operator, so column availability is not invariant under exploration. The
//! physical validator in `scope-optimizer` checks the invariants that *are*
//! preserved (structure, physical properties, estimates).

use std::collections::BTreeSet;
use std::fmt;

use crate::catalog::ObservableCatalog;
use crate::ids::{ColId, NodeId, TableId};
use crate::ops::{LogicalOp, OpKind};
use crate::plan::PlanGraph;

/// One violated plan invariant. `node` identifies the offending node in the
/// owning arena (logical [`PlanGraph`] or the optimizer's physical plan).
#[derive(Clone, Debug, PartialEq)]
pub enum PlanViolation {
    /// The plan has no root set.
    NoRoot,
    /// The root operator is not an `Output` sink.
    RootNotOutput { node: NodeId, kind: &'static str },
    /// An operator has the wrong number of inputs.
    BadArity {
        node: NodeId,
        kind: &'static str,
        got: usize,
        min: usize,
        max: usize,
    },
    /// A child edge does not resolve to an earlier arena node (the arena is
    /// topologically ordered, so any such edge would create a cycle or
    /// dangle).
    DanglingInput { node: NodeId, child: NodeId },
    /// A scan references a table missing from the catalog.
    UnknownTable { node: NodeId, table: TableId },
    /// An operator references a column its inputs do not produce.
    UnknownColumn { node: NodeId, col: ColId },
    /// A partitioned physical operator's input is not partitioned as
    /// required (no exchange was enforced). `required`/`found` are rendered
    /// partitioning schemes.
    MissingExchange {
        node: NodeId,
        child: NodeId,
        required: String,
        found: String,
    },
    /// An exchange node's own output partitioning disagrees with the scheme
    /// it implements.
    ExchangeSchemeMismatch { node: NodeId },
    /// A cardinality/size/cost estimate is NaN or infinite.
    NonFiniteEstimate { node: NodeId, what: &'static str },
    /// A cardinality/size/cost estimate is negative.
    NegativeEstimate { node: NodeId, what: &'static str },
    /// A physical node's degree of parallelism is zero.
    BadParallelism { node: NodeId, dop: u32 },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::NoRoot => write!(f, "plan has no root"),
            PlanViolation::RootNotOutput { node, kind } => {
                write!(f, "root node {node} is {kind}, not Output")
            }
            PlanViolation::BadArity {
                node,
                kind,
                got,
                min,
                max,
            } => {
                if max == &usize::MAX {
                    write!(f, "{kind} node {node} has {got} inputs, needs >= {min}")
                } else {
                    write!(f, "{kind} node {node} has {got} inputs, needs {min}..={max}")
                }
            }
            PlanViolation::DanglingInput { node, child } => {
                write!(f, "node {node} input {child} does not resolve")
            }
            PlanViolation::UnknownTable { node, table } => {
                write!(f, "node {node} scans unknown table {table}")
            }
            PlanViolation::UnknownColumn { node, col } => {
                write!(f, "node {node} references column {col} its inputs do not produce")
            }
            PlanViolation::MissingExchange {
                node,
                child,
                required,
                found,
            } => write!(
                f,
                "node {node} requires {required} input from {child}, found {found} (missing exchange)"
            ),
            PlanViolation::ExchangeSchemeMismatch { node } => {
                write!(f, "exchange node {node} output partitioning disagrees with its scheme")
            }
            PlanViolation::NonFiniteEstimate { node, what } => {
                write!(f, "node {node} has non-finite {what} estimate")
            }
            PlanViolation::NegativeEstimate { node, what } => {
                write!(f, "node {node} has negative {what} estimate")
            }
            PlanViolation::BadParallelism { node, dop } => {
                write!(f, "node {node} has invalid degree of parallelism {dop}")
            }
        }
    }
}

/// A node as seen by the shared structural checks — the common shape of a
/// logical [`PlanGraph`] node and the optimizer's physical node, so the
/// root/arity/dangling-edge logic lives in exactly one place (used by
/// [`validate_logical`] and `scope_optimizer::validate_physical`).
pub struct StructuralNode<'a> {
    /// Operator kind name, for diagnostics.
    pub kind: &'static str,
    /// Child edges into the owning arena.
    pub children: &'a [NodeId],
    /// Allowed input arity `(min, max)`.
    pub arity: (usize, usize),
    /// Whether the operator is an `Output` sink (the only legal root).
    pub is_output: bool,
}

/// Shared structural core: the plan has a root, the root is an `Output`,
/// every reachable node's input count is within its arity bounds, and every
/// child edge resolves to an earlier arena node (the arena is topologically
/// ordered, so any other edge would cycle or dangle).
///
/// Returns per-node edge-soundness flags (`false` = some child edge of that
/// node dangles), letting callers skip follow-on checks that would read
/// through corrupt edges. On a rootless plan only `NoRoot` is reported.
pub fn check_structure<'a>(
    root: Option<NodeId>,
    len: usize,
    reachable: impl IntoIterator<Item = NodeId>,
    view: impl Fn(NodeId) -> StructuralNode<'a>,
    out: &mut Vec<PlanViolation>,
) -> Vec<bool> {
    let Some(root) = root else {
        out.push(PlanViolation::NoRoot);
        return vec![true; len];
    };
    let root_view = view(root);
    if !root_view.is_output {
        out.push(PlanViolation::RootNotOutput {
            node: root,
            kind: root_view.kind,
        });
    }
    let mut edges_ok = vec![true; len];
    for id in reachable {
        let node = view(id);
        let (min, max) = node.arity;
        let got = node.children.len();
        if got < min || got > max {
            out.push(PlanViolation::BadArity {
                node: id,
                kind: node.kind,
                got,
                min,
                max,
            });
        }
        for &c in node.children {
            if c >= id || c.index() >= len {
                out.push(PlanViolation::DanglingInput { node: id, child: c });
                edges_ok[id.index()] = false;
            }
        }
    }
    edges_ok
}

/// Check that every column in `cols` is produced by the inputs.
fn check_cols<'a>(
    node: NodeId,
    cols: impl IntoIterator<Item = &'a ColId>,
    avail: &BTreeSet<ColId>,
    out: &mut Vec<PlanViolation>,
) {
    for col in cols {
        if !avail.contains(col) {
            out.push(PlanViolation::UnknownColumn { node, col: *col });
        }
    }
}

/// Validate a logical plan against the observable catalog.
///
/// Returns the empty vector iff the plan is well-formed: rooted in `Output`,
/// arity-correct, acyclic with all inputs resolving, all scanned tables
/// known, and every referenced column produced by the subtree beneath it.
/// Column derivation mirrors the estimator's schema propagation (`Project`
/// narrows to its list, unions intersect branches, `GroupBy` passes its
/// input through — aggregate outputs are addressed by their argument's id).
pub fn validate_logical(plan: &PlanGraph, obs: &ObservableCatalog) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    check_structure(
        plan.root(),
        plan.len(),
        plan.reachable(),
        |id| {
            let node = plan.node(id);
            StructuralNode {
                kind: node.op.kind().name(),
                children: &node.children,
                arity: node.op.arity(),
                is_output: node.op.kind() == OpKind::Output,
            }
        },
        &mut out,
    );
    if plan.root().is_some() {
        check_provenance(plan, obs, &mut out);
    }
    out
}

/// The table/column-provenance pass: bottom-up over the (topologically
/// ordered) reachable set, deriving the column set each node produces and
/// reporting scans of unknown tables and references to columns the inputs
/// do not produce. Dangling child edges are skipped silently — reporting
/// them is [`check_structure`]'s job.
fn check_provenance(plan: &PlanGraph, obs: &ObservableCatalog, out: &mut Vec<PlanViolation>) {
    let mut cols: Vec<BTreeSet<ColId>> = vec![BTreeSet::new(); plan.len()];
    for id in plan.reachable() {
        let node = plan.node(id);
        let mut inputs: Vec<&BTreeSet<ColId>> = Vec::with_capacity(node.children.len());
        for &c in &node.children {
            if c < id && c.index() < plan.len() {
                inputs.push(&cols[c.index()]);
            }
        }
        let avail: BTreeSet<ColId> = inputs.iter().flat_map(|s| s.iter().copied()).collect();
        let derived: BTreeSet<ColId> = match &node.op {
            LogicalOp::Get { table } | LogicalOp::RangeGet { table, .. } => {
                match obs.tables.get(table.index()) {
                    Some(t) => {
                        if let LogicalOp::RangeGet { pushed, .. } = &node.op {
                            let table_cols: BTreeSet<ColId> = t.cols.iter().copied().collect();
                            check_cols(id, pushed.atoms.iter().map(|a| &a.col), &table_cols, out);
                        }
                        t.cols.iter().copied().collect()
                    }
                    None => {
                        out.push(PlanViolation::UnknownTable {
                            node: id,
                            table: *table,
                        });
                        BTreeSet::new()
                    }
                }
            }
            LogicalOp::Select { predicate } | LogicalOp::Filter { predicate } => {
                check_cols(id, predicate.atoms.iter().map(|a| &a.col), &avail, out);
                avail
            }
            LogicalOp::Project { cols: pcols, .. } => {
                check_cols(id, pcols.iter(), &avail, out);
                pcols.iter().copied().collect()
            }
            LogicalOp::Join { keys, .. } => {
                // Keys are checked against the union of both sides: join
                // reassociation legitimately re-routes which side carries a
                // key column, so side-specific checks would false-positive.
                for (l, r) in keys {
                    check_cols(id, [l, r], &avail, out);
                }
                match &node.op {
                    LogicalOp::Join {
                        kind: crate::ops::JoinKind::Semi,
                        ..
                    } => inputs.first().map(|s| (*s).clone()).unwrap_or_default(),
                    _ => avail,
                }
            }
            LogicalOp::GroupBy { keys, .. } => {
                // Aggregate argument columns are *not* checked: aggregation
                // splitting pushes a partial aggregate below, whose output
                // narrows to the group keys, legitimately stranding the
                // final aggregate's argument column. Availability passes
                // through unchanged: column ids are global attribute names
                // and an aggregate's output is addressed by its argument's
                // id (a downstream `GroupBy` keys on `Sum(c)`'s result as
                // `c`), so grouping does not rescope what may be referenced
                // above it.
                check_cols(id, keys.iter(), &avail, out);
                avail
            }
            LogicalOp::UnionAll | LogicalOp::VirtualDataset => {
                // Branch intersection, like the estimator.
                let mut it = inputs.iter();
                match it.next() {
                    Some(first) => it.fold((*first).clone(), |acc, s| {
                        acc.intersection(s).copied().collect()
                    }),
                    None => BTreeSet::new(),
                }
            }
            LogicalOp::Sort { keys } | LogicalOp::Window { keys } => {
                check_cols(id, keys.iter(), &avail, out);
                avail
            }
            LogicalOp::Top { .. } | LogicalOp::Process { .. } | LogicalOp::Output { .. } => avail,
        };
        cols[id.index()] = derived;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Literal, PredAtom, Predicate};
    use crate::ids::DomainId;
    use crate::TrueCatalog;

    fn catalog() -> ObservableCatalog {
        let mut cat = TrueCatalog::new();
        let c0 = cat.add_column(100, 0.0, DomainId(0));
        let c1 = cat.add_column(50, 0.0, DomainId(1));
        cat.add_table(10_000, 100, 1, vec![c0, c1]);
        cat.observe()
    }

    fn scan() -> LogicalOp {
        LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::true_pred(),
        }
    }

    fn filter(col: ColId) -> LogicalOp {
        LogicalOp::Filter {
            predicate: Predicate::atom(PredAtom::unknown(col, CmpOp::Eq, Literal::Int(7))),
        }
    }

    #[test]
    fn valid_plan_has_no_violations() {
        let obs = catalog();
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(scan(), vec![]);
        let f = plan.add_unchecked(filter(ColId(0)), vec![s]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![f]);
        plan.set_root(o);
        assert!(validate_logical(&plan, &obs).is_empty());
    }

    #[test]
    fn missing_root_is_reported() {
        let plan = PlanGraph::new();
        assert_eq!(
            validate_logical(&plan, &catalog()),
            vec![PlanViolation::NoRoot]
        );
    }

    #[test]
    fn non_output_root_is_reported() {
        let obs = catalog();
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(scan(), vec![]);
        plan.set_root(s);
        assert_eq!(
            validate_logical(&plan, &obs),
            vec![PlanViolation::RootNotOutput {
                node: s,
                kind: "RangeGet"
            }]
        );
    }

    #[test]
    fn union_schema_is_the_branch_intersection() {
        let obs = catalog();
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(scan(), vec![]);
        let p0 = plan.add_unchecked(
            LogicalOp::Project {
                cols: vec![ColId(0)],
                computed: 0,
            },
            vec![s],
        );
        let p1 = plan.add_unchecked(
            LogicalOp::Project {
                cols: vec![ColId(0), ColId(1)],
                computed: 0,
            },
            vec![s],
        );
        let u = plan.add_unchecked(LogicalOp::UnionAll, vec![p0, p1]);
        // Only ColId(0) survives both branches.
        let f = plan.add_unchecked(filter(ColId(1)), vec![u]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![f]);
        plan.set_root(o);
        assert_eq!(
            validate_logical(&plan, &obs),
            vec![PlanViolation::UnknownColumn {
                node: f,
                col: ColId(1)
            }]
        );
    }

    #[test]
    fn unknown_table_and_column_are_reported() {
        let obs = catalog();
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(
            LogicalOp::RangeGet {
                table: TableId(9),
                pushed: Predicate::true_pred(),
            },
            vec![],
        );
        let f = plan.add_unchecked(filter(ColId(44)), vec![s]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![f]);
        plan.set_root(o);
        let v = validate_logical(&plan, &obs);
        assert!(v.contains(&PlanViolation::UnknownTable {
            node: s,
            table: TableId(9)
        }));
        assert!(v.contains(&PlanViolation::UnknownColumn {
            node: f,
            col: ColId(44)
        }));
    }

    #[test]
    fn projection_narrows_the_schema() {
        let obs = catalog();
        let mut plan = PlanGraph::new();
        let s = plan.add_unchecked(scan(), vec![]);
        let p = plan.add_unchecked(
            LogicalOp::Project {
                cols: vec![ColId(1)],
                computed: 0,
            },
            vec![s],
        );
        // Filter on a column the projection dropped.
        let f = plan.add_unchecked(filter(ColId(0)), vec![p]);
        let o = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![f]);
        plan.set_root(o);
        assert_eq!(
            validate_logical(&plan, &obs),
            vec![PlanViolation::UnknownColumn {
                node: f,
                col: ColId(0)
            }]
        );
    }

    #[test]
    fn shared_structure_core_reports_arity_and_dangling_edges() {
        // `PlanGraph::add` rejects bad arity and forward edges at build time,
        // so the defensive cases of the shared core are exercised directly:
        // a unary node with two children, one of them out of the arena.
        let children: Vec<Vec<NodeId>> = vec![vec![], vec![NodeId(0), NodeId(7)], vec![NodeId(1)]];
        let mut out = Vec::new();
        let edges_ok = check_structure(
            Some(NodeId(2)),
            3,
            (0..3u32).map(NodeId),
            |id| StructuralNode {
                kind: ["scan", "filter", "output"][id.index()],
                children: &children[id.index()],
                arity: [(0, 0), (1, 1), (1, 1)][id.index()],
                is_output: id.index() == 2,
            },
            &mut out,
        );
        assert!(matches!(
            &out[..],
            [
                PlanViolation::BadArity { node: a, got: 2, .. },
                PlanViolation::DanglingInput { node: d, child },
            ] if a.index() == 1 && d.index() == 1 && child.index() == 7
        ));
        // Per-node edge flags gate downstream checks: the broken node is
        // flagged, the clean ones are not.
        assert_eq!(edges_ok, vec![true, false, true]);
    }

    #[test]
    fn violations_render_as_text() {
        let v = PlanViolation::MissingExchange {
            node: NodeId(3),
            child: NodeId(1),
            required: "Hash".into(),
            found: "Any".into(),
        };
        assert!(format!("{v}").contains("missing exchange"));
    }
}
