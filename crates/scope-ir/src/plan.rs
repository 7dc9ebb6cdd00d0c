//! Arena-allocated logical plan DAGs.
//!
//! SCOPE scripts compile to DAGs of operators (shared subplans are common:
//! one cooked intermediate feeding several outputs). [`PlanGraph`] stores
//! nodes in an append-only arena with the invariant that **children always
//! have smaller ids than their parents**, so arena order is a topological
//! order and cycles are impossible by construction. Rewrites build fresh
//! graphs rather than mutating in place.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::ids::{NodeId, TemplateId};
use crate::ops::{LogicalOp, OpKind};

/// One operator node and its children (edges point *down* towards inputs).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    pub op: LogicalOp,
    pub children: Vec<NodeId>,
}

/// Errors raised when constructing invalid plans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// Child id does not precede the node being added (would allow cycles).
    ForwardEdge { child: NodeId },
    /// Child id is out of bounds.
    UnknownChild { child: NodeId },
    /// Child count outside the operator's valid arity.
    BadArity {
        kind: OpKind,
        got: usize,
        min: usize,
        max: usize,
    },
    /// Graph has no root.
    NoRoot,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ForwardEdge { child } => write!(f, "forward edge to node {child}"),
            PlanError::UnknownChild { child } => write!(f, "unknown child node {child}"),
            PlanError::BadArity {
                kind,
                got,
                min,
                max,
            } => write!(
                f,
                "operator {} takes {min}..={max} children, got {got}",
                kind.name()
            ),
            PlanError::NoRoot => write!(f, "plan has no root"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An append-only plan DAG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanGraph {
    nodes: Vec<PlanNode>,
    root: Option<NodeId>,
}

impl PlanGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes in the arena (including any unreachable ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append a node. Children must already exist (smaller ids) and match
    /// the operator's arity.
    pub fn add(&mut self, op: LogicalOp, children: Vec<NodeId>) -> Result<NodeId, PlanError> {
        let id = NodeId(self.nodes.len() as u32);
        let (min, max) = op.arity();
        if children.len() < min || children.len() > max {
            return Err(PlanError::BadArity {
                kind: op.kind(),
                got: children.len(),
                min,
                max,
            });
        }
        for &c in &children {
            if c.index() >= self.nodes.len() {
                return Err(if c >= id {
                    PlanError::ForwardEdge { child: c }
                } else {
                    PlanError::UnknownChild { child: c }
                });
            }
        }
        self.nodes.push(PlanNode { op, children });
        Ok(id)
    }

    /// Append a node, panicking on invalid structure. For generator and test
    /// code where structure is known-good.
    pub fn add_unchecked(&mut self, op: LogicalOp, children: Vec<NodeId>) -> NodeId {
        self.add(op, children).expect("valid plan node")
    }

    /// Mark `id` as the job's root (normally an `Output`).
    pub fn set_root(&mut self, id: NodeId) {
        debug_assert!(id.index() < self.nodes.len());
        self.root = Some(id);
    }

    /// The root node, if set.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// Iterate `(id, node)` in arena (= topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &PlanNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Ids of nodes reachable from the root, in ascending (= topological,
    /// children-first) order.
    pub fn reachable(&self) -> Vec<NodeId> {
        let mut mark = Vec::new();
        self.mark_reachable(&mut mark, &mut Vec::new());
        mark.iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Set `mark[id]` exactly for the nodes reachable from the root, one
    /// flag per node, walking with `stack`. Both buffers are overwritten
    /// and keep their capacity, so a caller that keeps them walks without
    /// allocating.
    pub fn mark_reachable(&self, mark: &mut Vec<bool>, stack: &mut Vec<NodeId>) {
        mark.clear();
        mark.resize(self.nodes.len(), false);
        stack.clear();
        stack.extend(self.root);
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut mark[id.index()], true) {
                continue;
            }
            stack.extend(self.node(id).children.iter().copied());
        }
    }

    /// Validate the whole graph (arity, edge direction, root present).
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.root.is_none() {
            return Err(PlanError::NoRoot);
        }
        for (id, node) in self.iter() {
            let (min, max) = node.op.arity();
            if node.children.len() < min || node.children.len() > max {
                return Err(PlanError::BadArity {
                    kind: node.op.kind(),
                    got: node.children.len(),
                    min,
                    max,
                });
            }
            for &c in &node.children {
                if c >= id {
                    return Err(PlanError::ForwardEdge { child: c });
                }
            }
        }
        Ok(())
    }

    /// Per-node shape hashes (literal-erased, structure-recursive), indexed
    /// by node id. `shape[id]` combines the node's operator shape with its
    /// children's shape hashes in order.
    pub fn shape_hashes(&self) -> Vec<u64> {
        let mut shape = vec![0u64; self.nodes.len()];
        for (id, node) in self.iter() {
            let mut h = DefaultHasher::new();
            node.op.shape_hash(&mut h);
            for &c in &node.children {
                shape[c.index()].hash(&mut h);
            }
            shape[id.index()] = h.finish();
        }
        shape
    }

    /// The recurring-job template hash: the root's shape hash combined with
    /// the input stream names. Literal constants are erased; input names are
    /// retained (paper §3.1.1, §6.4).
    pub fn template_hash(&self, input_names: &[u64]) -> TemplateId {
        let shapes = self.shape_hashes();
        let mut h = DefaultHasher::new();
        if let Some(root) = self.root {
            shapes[root.index()].hash(&mut h);
        }
        for name in input_names {
            name.hash(&mut h);
        }
        TemplateId(h.finish())
    }

    /// Full plan hash including literal values — distinguishes two instances
    /// of the same template with different constants.
    pub fn plan_hash(&self) -> u64 {
        let mut value = vec![0u64; self.nodes.len()];
        for (id, node) in self.iter() {
            let mut h = DefaultHasher::new();
            node.op.value_hash(&mut h);
            for &c in &node.children {
                value[c.index()].hash(&mut h);
            }
            value[id.index()] = h.finish();
        }
        self.root.map(|r| value[r.index()]).unwrap_or(0)
    }

    /// Apply `f` to every operator in the arena (used by the workload
    /// generator to refresh literal values per instantiated job while
    /// preserving structure and template identity).
    pub fn map_ops<F: FnMut(&mut LogicalOp)>(&mut self, mut f: F) {
        for node in &mut self.nodes {
            f(&mut node.op);
        }
    }

    /// Count reachable nodes per [`OpKind`].
    pub fn op_counts(&self) -> [u32; OpKind::COUNT] {
        let mut counts = [0u32; OpKind::COUNT];
        for id in self.reachable() {
            counts[self.node(id).op.kind() as usize] += 1;
        }
        counts
    }

    /// Number of reachable operator nodes.
    pub fn size(&self) -> usize {
        self.reachable().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Literal, PredAtom, Predicate};
    use crate::ids::{ColId, TableId};
    use crate::ops::JoinKind;

    fn filter(col: u32, lit: i64) -> LogicalOp {
        LogicalOp::Select {
            predicate: Predicate::atom(PredAtom::unknown(ColId(col), CmpOp::Eq, Literal::Int(lit))),
        }
    }

    /// scan -> filter -> output
    fn linear_plan(lit: i64) -> PlanGraph {
        let mut g = PlanGraph::new();
        let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = g.add_unchecked(filter(0, lit), vec![s]);
        let o = g.add_unchecked(LogicalOp::Output { stream: 7 }, vec![f]);
        g.set_root(o);
        g
    }

    #[test]
    fn build_and_validate_linear_plan() {
        let g = linear_plan(5);
        assert_eq!(g.len(), 3);
        assert!(g.validate().is_ok());
        assert_eq!(g.reachable().len(), 3);
    }

    #[test]
    fn arity_is_enforced() {
        let mut g = PlanGraph::new();
        let s = g.add(LogicalOp::Get { table: TableId(0) }, vec![]).unwrap();
        let err = g
            .add(
                LogicalOp::Join {
                    kind: JoinKind::Inner,
                    keys: vec![],
                },
                vec![s],
            )
            .unwrap_err();
        assert!(matches!(err, PlanError::BadArity { got: 1, .. }));
    }

    #[test]
    fn forward_edges_are_rejected() {
        let mut g = PlanGraph::new();
        let err = g.add(filter(0, 1), vec![NodeId(5)]).unwrap_err();
        assert!(matches!(err, PlanError::ForwardEdge { .. }));
    }

    #[test]
    fn template_hash_erases_literals() {
        let g1 = linear_plan(5);
        let g2 = linear_plan(99);
        assert_eq!(g1.template_hash(&[1]), g2.template_hash(&[1]));
        assert_ne!(g1.plan_hash(), g2.plan_hash());
    }

    #[test]
    fn template_hash_includes_input_names() {
        let g = linear_plan(5);
        assert_ne!(g.template_hash(&[1]), g.template_hash(&[2]));
    }

    #[test]
    fn shared_subplan_counted_once() {
        let mut g = PlanGraph::new();
        let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = g.add_unchecked(filter(0, 1), vec![s]);
        // Two branches share `f`.
        let t1 = g.add_unchecked(LogicalOp::Top { k: 10 }, vec![f]);
        let t2 = g.add_unchecked(
            LogicalOp::Sort {
                keys: vec![ColId(0)],
            },
            vec![f],
        );
        let u = g.add_unchecked(LogicalOp::UnionAll, vec![t1, t2]);
        let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![u]);
        g.set_root(o);
        assert!(g.validate().is_ok());
        assert_eq!(g.size(), 6);
        assert_eq!(g.op_counts()[OpKind::Get as usize], 1);
    }

    #[test]
    fn unreachable_nodes_are_excluded_from_size() {
        let mut g = linear_plan(5);
        // Garbage node not connected to the root.
        g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.size(), 3);
    }

    #[test]
    fn reachable_is_children_first() {
        let g = linear_plan(5);
        let order = g.reachable();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for (id, node) in g.iter() {
            for &c in &node.children {
                assert!(pos(c) < pos(id));
            }
        }
    }
}
