//! Physical plans produced by the optimizer.
//!
//! A [`PhysPlan`] is an arena DAG like [`scope_ir::PlanGraph`], but over
//! physical operators, annotated with the optimizer's *estimates* (rows,
//! bytes, cost) and with the rule that created each node — the raw material
//! for rule signatures and for the execution simulator.

use scope_ir::ids::{ColId, NodeId, TableId, UdoId};
use scope_ir::{AggFunc, JoinKind, Predicate};

use crate::cost::CostEstimate;
use crate::ruleset::RuleId;

/// Data partitioning of an operator's output across vertices.
#[derive(Clone, Debug, PartialEq)]
pub enum Partitioning {
    /// No particular guarantee (round-robin / arbitrary).
    Any,
    /// Hash-partitioned on the given key columns.
    Hash(Vec<ColId>),
    /// Range-partitioned on the given key columns (balanced by the range
    /// partitioner; resistant to single-value skew).
    Range(Vec<ColId>),
    /// Every vertex holds a full copy.
    Broadcast,
    /// All data on a single vertex.
    Singleton,
}

impl Partitioning {
    /// Whether data with this partitioning satisfies `required` without an
    /// exchange.
    pub(crate) fn satisfies(&self, required: &Partitioning) -> bool {
        match (self, required) {
            (_, Partitioning::Any) => true,
            (Partitioning::Singleton, Partitioning::Singleton) => true,
            // A full copy everywhere or all data in one place trivially
            // satisfies any co-location requirement.
            (Partitioning::Singleton | Partitioning::Broadcast, Partitioning::Hash(_)) => true,
            (Partitioning::Singleton | Partitioning::Broadcast, Partitioning::Range(_)) => true,
            (Partitioning::Broadcast, Partitioning::Broadcast) => true,
            (Partitioning::Hash(a), Partitioning::Hash(b)) => a == b,
            (Partitioning::Range(a), Partitioning::Range(b)) => a == b,
            _ => false,
        }
    }
}

/// Physical operators. Variants carry the implementation-specific knobs the
/// cost model and the execution simulator need.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysOp {
    /// Leaf scan. `parallel` scans split the input across `dop` vertices;
    /// serial scans read on one vertex. `indexed` scans pay less IO when a
    /// pushed predicate is present.
    Scan {
        table: TableId,
        pushed: Predicate,
        parallel: bool,
        indexed: bool,
    },
    Filter {
        predicate: Predicate,
    },
    Project {
        cols: Vec<ColId>,
        computed: u8,
    },
    /// Partitioned hash join. `variant` distinguishes `HashJoinImpl1/2/3`,
    /// which differ in their degree-of-parallelism policy.
    HashJoin {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
        variant: u8,
    },
    /// Sort-merge join on range-partitioned inputs (the paper's
    /// `JoinImpl2`); slower per row but resistant to key skew.
    MergeJoin {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
    },
    /// Broadcast the (estimated-)smaller right side to every vertex.
    BroadcastJoin {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
    },
    /// Nested-loop join on a single vertex; only sensible for tiny inputs.
    LoopJoin {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
    },
    /// Index-lookup style join (`JoinToApplyIndex1`): cheap when the probe
    /// side is small.
    IndexJoin {
        kind: JoinKind,
        keys: Vec<(ColId, ColId)>,
    },
    HashAgg {
        keys: Vec<ColId>,
        aggs: Vec<AggFunc>,
        partial: bool,
    },
    SortAgg {
        keys: Vec<ColId>,
        aggs: Vec<AggFunc>,
        partial: bool,
    },
    StreamAgg {
        keys: Vec<ColId>,
        aggs: Vec<AggFunc>,
        partial: bool,
    },
    /// Streaming n-ary concatenation (`UnionAllToUnionAll`). `serial`
    /// gathers everything onto one vertex first.
    UnionAll {
        serial: bool,
    },
    /// Materialize the union inputs as a virtual dataset
    /// (`UnionAllToVirtualDataset`): pays a write+read, but downstream
    /// consumers read one well-partitioned dataset.
    VirtualDataset,
    /// Top-k: per-partition heaps then a final merge (`heap = true`) or a
    /// full global sort followed by a limit.
    Top {
        k: u64,
        heap: bool,
    },
    Sort {
        keys: Vec<ColId>,
        parallel: bool,
    },
    Window {
        keys: Vec<ColId>,
        hash_based: bool,
    },
    Process {
        udo: UdoId,
        parallel: bool,
    },
    Output {
        stream: u64,
    },
    /// Data movement inserted by the `EnforceExchange` enforcer. The
    /// `scheme` is this exchange's *output* partitioning.
    Exchange {
        scheme: Partitioning,
        dop: u32,
    },
}

impl PhysOp {
    /// Short stable name for display and logging.
    pub fn name(&self) -> &'static str {
        match self {
            PhysOp::Scan { .. } => "Scan",
            PhysOp::Filter { .. } => "Filter",
            PhysOp::Project { .. } => "Project",
            PhysOp::HashJoin { .. } => "HashJoin",
            PhysOp::MergeJoin { .. } => "MergeJoin",
            PhysOp::BroadcastJoin { .. } => "BroadcastJoin",
            PhysOp::LoopJoin { .. } => "LoopJoin",
            PhysOp::IndexJoin { .. } => "IndexJoin",
            PhysOp::HashAgg { .. } => "HashAgg",
            PhysOp::SortAgg { .. } => "SortAgg",
            PhysOp::StreamAgg { .. } => "StreamAgg",
            PhysOp::UnionAll { .. } => "UnionAll",
            PhysOp::VirtualDataset => "VirtualDataset",
            PhysOp::Top { .. } => "Top",
            PhysOp::Sort { .. } => "Sort",
            PhysOp::Window { .. } => "Window",
            PhysOp::Process { .. } => "Process",
            PhysOp::Output { .. } => "Output",
            PhysOp::Exchange { .. } => "Exchange",
        }
    }

    /// Whether this node starts a new execution stage below it (data is
    /// repartitioned or materialized).
    pub fn is_stage_boundary(&self) -> bool {
        matches!(self, PhysOp::Exchange { .. } | PhysOp::VirtualDataset)
    }
}

/// One physical node with the optimizer's annotations.
#[derive(Clone, Debug)]
pub struct PhysNode {
    pub op: PhysOp,
    pub children: Vec<NodeId>,
    /// Estimated output rows (the optimizer's belief, not the truth).
    pub est_rows: f64,
    /// Estimated output bytes.
    pub est_bytes: f64,
    /// Estimated cost of *this operator alone* (children excluded).
    pub est_cost: f64,
    /// Component-wise estimated cost of this operator alone (same scope as
    /// `est_cost`; `est_cost` is its scalarization under the compile's
    /// cost weights).
    pub est_cost_vec: CostEstimate,
    /// Output partitioning.
    pub partitioning: Partitioning,
    /// Degree of parallelism the optimizer planned for this operator.
    pub dop: u32,
    /// The rule that put this operator into the plan (implementation rule,
    /// enforcer, or normalization rule), if attributable.
    pub created_by: Option<RuleId>,
    /// The transformation rule that created the logical expression this
    /// operator implements, if it was not part of the original query.
    pub logical_rule: Option<RuleId>,
}

/// An arena DAG of physical nodes; same id invariant as `PlanGraph`
/// (children precede parents).
#[derive(Clone, Debug, Default)]
pub struct PhysPlan {
    nodes: Vec<PhysNode>,
    root: Option<NodeId>,
}

impl PhysPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node; children must already exist.
    pub fn add(&mut self, node: PhysNode) -> NodeId {
        for &c in &node.children {
            assert!(c.index() < self.nodes.len(), "forward edge in PhysPlan");
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    pub fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    pub fn node(&self, id: NodeId) -> &PhysNode {
        &self.nodes[id.index()]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate `(id, node)` in arena (= topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &PhysNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Nodes reachable from the root, ascending order.
    pub fn reachable(&self) -> Vec<NodeId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut mark = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut mark[id.index()], true) {
                continue;
            }
            stack.extend(self.node(id).children.iter().copied());
        }
        mark.iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Total estimated cost (sum of reachable per-operator costs).
    pub(crate) fn total_est_cost(&self) -> f64 {
        self.reachable()
            .iter()
            .map(|&id| self.node(id).est_cost)
            .sum()
    }

    /// Total component-wise estimated cost (sum of reachable per-operator
    /// cost vectors).
    pub(crate) fn total_est_cost_vec(&self) -> CostEstimate {
        self.reachable()
            .iter()
            .fold(CostEstimate::ZERO, |acc, &id| {
                acc.add(&self.node(id).est_cost_vec)
            })
    }

    /// Number of exchanges (stage boundaries) in the plan.
    pub fn num_exchanges(&self) -> usize {
        self.reachable()
            .iter()
            .filter(|&&id| self.node(id).op.is_stage_boundary())
            .count()
    }

    /// Render as an indented tree (shared nodes shown once).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let Some(root) = self.root else {
            return "<empty physical plan>".into();
        };
        let mut out = String::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            for _ in 0..depth {
                out.push_str("  ");
            }
            if !seen.insert(id) {
                let _ = writeln!(out, "^{id}");
                continue;
            }
            let n = self.node(id);
            let _ = writeln!(
                out,
                "[{id}] {} (rows={:.0}, cost={:.1}, dop={}, {:?})",
                n.op.name(),
                n.est_rows,
                n.est_cost,
                n.dop,
                n.partitioning
            );
            for &c in n.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(op: PhysOp, children: Vec<NodeId>, cost: f64) -> PhysNode {
        PhysNode {
            op,
            children,
            est_rows: 10.0,
            est_bytes: 100.0,
            est_cost: cost,
            est_cost_vec: CostEstimate {
                cpu: cost,
                ..CostEstimate::ZERO
            },
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        }
    }

    #[test]
    fn partitioning_satisfaction() {
        let h1 = Partitioning::Hash(vec![ColId(1)]);
        let h2 = Partitioning::Hash(vec![ColId(2)]);
        assert!(h1.satisfies(&Partitioning::Any));
        assert!(h1.satisfies(&h1.clone()));
        assert!(!h1.satisfies(&h2));
        assert!(Partitioning::Singleton.satisfies(&h1));
        assert!(Partitioning::Broadcast.satisfies(&h1));
        assert!(!Partitioning::Any.satisfies(&Partitioning::Singleton));
        assert!(!h1.satisfies(&Partitioning::Broadcast));
    }

    #[test]
    fn plan_cost_sums_reachable_only() {
        let mut p = PhysPlan::new();
        let s = p.add(node(
            PhysOp::Scan {
                table: TableId(0),
                pushed: Predicate::true_pred(),
                parallel: true,
                indexed: false,
            },
            vec![],
            5.0,
        ));
        // Unreachable garbage node.
        p.add(node(
            PhysOp::Scan {
                table: TableId(1),
                pushed: Predicate::true_pred(),
                parallel: true,
                indexed: false,
            },
            vec![],
            100.0,
        ));
        let o = p.add(node(PhysOp::Output { stream: 0 }, vec![s], 2.0));
        p.set_root(o);
        assert!((p.total_est_cost() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exchange_counts_as_stage_boundary() {
        let mut p = PhysPlan::new();
        let s = p.add(node(
            PhysOp::Scan {
                table: TableId(0),
                pushed: Predicate::true_pred(),
                parallel: true,
                indexed: false,
            },
            vec![],
            1.0,
        ));
        let e = p.add(node(
            PhysOp::Exchange {
                scheme: Partitioning::Hash(vec![ColId(0)]),
                dop: 50,
            },
            vec![s],
            1.0,
        ));
        let o = p.add(node(PhysOp::Output { stream: 0 }, vec![e], 1.0));
        p.set_root(o);
        assert_eq!(p.num_exchanges(), 1);
        assert!(p.render().contains("Exchange"));
    }

    #[test]
    #[should_panic(expected = "forward edge")]
    fn forward_edges_panic() {
        let mut p = PhysPlan::new();
        p.add(node(PhysOp::Output { stream: 0 }, vec![NodeId(4)], 1.0));
    }
}
