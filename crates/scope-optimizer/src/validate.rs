//! Physical-plan validation.
//!
//! [`validate_physical`] checks the invariants the optimizer *guarantees*
//! for every extracted [`PhysPlan`]: a well-formed `Output`-rooted DAG,
//! arity-correct operators, enforced physical properties (every partitioned
//! operator sees correctly-partitioned input, i.e. exchanges were inserted
//! where required), finite non-negative estimates, and sane parallelism.
//! Violations come back as the shared [`PlanViolation`] vocabulary from
//! `scope-ir`, so the pipeline can reject a corrupted candidate plan with a
//! typed reason instead of executing it.
//!
//! Column-availability is deliberately *not* checked here: legitimate
//! rewrites (`ReseqProjectOnFilter` and friends) push projections below
//! column-referencing operators, so column flow is not invariant under
//! exploration. See `scope_ir::validate::validate_logical` for the input-
//! plan column checks.

use scope_ir::validate::{check_structure, PlanViolation, StructuralNode};

use crate::physical::{Partitioning, PhysOp, PhysPlan};

/// Valid child-count range `(min, max)` for a physical operator.
fn phys_arity(op: &PhysOp) -> (usize, usize) {
    match op {
        PhysOp::Scan { .. } => (0, 0),
        PhysOp::HashJoin { .. }
        | PhysOp::MergeJoin { .. }
        | PhysOp::BroadcastJoin { .. }
        | PhysOp::LoopJoin { .. }
        | PhysOp::IndexJoin { .. } => (2, 2),
        PhysOp::UnionAll { .. } | PhysOp::VirtualDataset => (2, usize::MAX),
        _ => (1, 1),
    }
}

/// Input partitionings `op` requires of its `arity` children. Mirrors the
/// cost model's requirement table, but reads the keys straight from the
/// physical operator so it can audit a finished plan without the memo.
pub(crate) fn required_parts_phys(op: &PhysOp, arity: usize) -> Vec<Partitioning> {
    let split = |keys: &[(scope_ir::ColId, scope_ir::ColId)]| {
        (
            keys.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            keys.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
        )
    };
    match op {
        PhysOp::Scan { .. } => Vec::new(),
        PhysOp::Filter { .. } | PhysOp::Project { .. } | PhysOp::Output { .. } => {
            vec![Partitioning::Any; arity]
        }
        PhysOp::HashJoin { keys, .. } => {
            let (l, r) = split(keys);
            if l.is_empty() {
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Hash(l), Partitioning::Hash(r)]
            }
        }
        PhysOp::MergeJoin { keys, .. } => {
            let (l, r) = split(keys);
            if l.is_empty() {
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Range(l), Partitioning::Range(r)]
            }
        }
        PhysOp::BroadcastJoin { .. } => vec![Partitioning::Any, Partitioning::Broadcast],
        PhysOp::LoopJoin { .. } => vec![Partitioning::Singleton, Partitioning::Singleton],
        PhysOp::IndexJoin { keys, .. } => {
            let (_, r) = split(keys);
            if r.is_empty() {
                vec![Partitioning::Singleton, Partitioning::Singleton]
            } else {
                vec![Partitioning::Any, Partitioning::Hash(r)]
            }
        }
        PhysOp::HashAgg { keys, partial, .. } => {
            if *partial {
                vec![Partitioning::Any]
            } else if keys.is_empty() {
                vec![Partitioning::Singleton]
            } else {
                vec![Partitioning::Hash(keys.clone())]
            }
        }
        PhysOp::SortAgg { keys, partial, .. } | PhysOp::StreamAgg { keys, partial, .. } => {
            if *partial {
                vec![Partitioning::Any]
            } else if keys.is_empty() {
                vec![Partitioning::Singleton]
            } else {
                vec![Partitioning::Range(keys.clone())]
            }
        }
        PhysOp::UnionAll { serial } => {
            if *serial {
                vec![Partitioning::Singleton; arity]
            } else {
                vec![Partitioning::Any; arity]
            }
        }
        PhysOp::VirtualDataset => vec![Partitioning::Any; arity],
        PhysOp::Top { heap, .. } => {
            if *heap {
                vec![Partitioning::Any]
            } else {
                vec![Partitioning::Singleton]
            }
        }
        PhysOp::Sort { keys, parallel } => {
            if *parallel {
                vec![Partitioning::Range(keys.clone())]
            } else {
                vec![Partitioning::Singleton]
            }
        }
        PhysOp::Window { keys, hash_based } => {
            if *hash_based {
                vec![Partitioning::Hash(keys.clone())]
            } else {
                vec![Partitioning::Range(keys.clone())]
            }
        }
        PhysOp::Process { parallel, .. } => {
            if *parallel {
                vec![Partitioning::Any]
            } else {
                vec![Partitioning::Singleton]
            }
        }
        PhysOp::Exchange { .. } => vec![Partitioning::Any],
    }
}

/// Validate a physical plan. Returns the empty vector iff the plan upholds
/// every optimizer-guaranteed invariant (see module docs).
pub fn validate_physical(plan: &PhysPlan) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    // Root/arity/dangling-edge checks are the shared structural core from
    // `scope-ir`; only the physical-property checks below are specific to
    // this validator.
    let edges_ok = check_structure(
        plan.root(),
        plan.len(),
        plan.reachable(),
        |id| {
            let node = plan.node(id);
            StructuralNode {
                kind: node.op.name(),
                children: &node.children,
                arity: phys_arity(&node.op),
                is_output: matches!(node.op, PhysOp::Output { .. }),
            }
        },
        &mut out,
    );
    if plan.root().is_none() {
        return out;
    }
    for id in plan.reachable() {
        let node = plan.node(id);
        let got = node.children.len();
        let (min, max) = phys_arity(&node.op);
        // Physical-property enforcement: each child's output partitioning
        // must satisfy what this operator requires (the enforcer's job).
        if edges_ok[id.index()] && got >= min && got <= max {
            let required = required_parts_phys(&node.op, got);
            for (&c, req) in node.children.iter().zip(required.iter()) {
                let found = &plan.node(c).partitioning;
                if !found.satisfies(req) {
                    out.push(PlanViolation::MissingExchange {
                        node: id,
                        child: c,
                        required: format!("{req:?}"),
                        found: format!("{found:?}"),
                    });
                }
            }
        }
        if let PhysOp::Exchange { scheme, .. } = &node.op {
            if &node.partitioning != scheme {
                out.push(PlanViolation::ExchangeSchemeMismatch { node: id });
            }
        }
        for (value, what) in [
            (node.est_rows, "rows"),
            (node.est_bytes, "bytes"),
            (node.est_cost, "cost"),
        ] {
            if !value.is_finite() {
                out.push(PlanViolation::NonFiniteEstimate { node: id, what });
            } else if value < 0.0 {
                out.push(PlanViolation::NegativeEstimate { node: id, what });
            }
        }
        if node.dop == 0 {
            out.push(PlanViolation::BadParallelism { node: id, dop: 0 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysNode;
    use scope_ir::ids::{ColId, NodeId, TableId};
    use scope_ir::{JoinKind, Predicate};

    fn node(op: PhysOp, children: Vec<NodeId>, part: Partitioning) -> PhysNode {
        PhysNode {
            op,
            children,
            est_rows: 100.0,
            est_bytes: 1_000.0,
            est_cost: 5.0,
            est_cost_vec: crate::cost::CostEstimate {
                cpu: 5.0,
                ..crate::cost::CostEstimate::ZERO
            },
            partitioning: part,
            dop: 4,
            created_by: None,
            logical_rule: None,
        }
    }

    fn scan(table: u32) -> PhysOp {
        PhysOp::Scan {
            table: TableId(table),
            pushed: Predicate::true_pred(),
            parallel: true,
            indexed: false,
        }
    }

    #[test]
    fn well_formed_plan_is_clean() {
        let mut p = PhysPlan::new();
        let s = p.add(node(scan(0), vec![], Partitioning::Any));
        let e = p.add(node(
            PhysOp::Exchange {
                scheme: Partitioning::Hash(vec![ColId(0)]),
                dop: 8,
            },
            vec![s],
            Partitioning::Hash(vec![ColId(0)]),
        ));
        let a = p.add(node(
            PhysOp::HashAgg {
                keys: vec![ColId(0)],
                aggs: vec![],
                partial: false,
            },
            vec![e],
            Partitioning::Hash(vec![ColId(0)]),
        ));
        let o = p.add(node(
            PhysOp::Output { stream: 7 },
            vec![a],
            Partitioning::Any,
        ));
        p.set_root(o);
        assert!(validate_physical(&p).is_empty());
    }

    #[test]
    fn empty_plan_reports_no_root() {
        assert_eq!(
            validate_physical(&PhysPlan::new()),
            vec![PlanViolation::NoRoot]
        );
    }

    #[test]
    fn missing_exchange_before_partitioned_agg_is_caught() {
        let mut p = PhysPlan::new();
        // Scan feeds the final hash aggregate directly: no exchange enforced.
        let s = p.add(node(scan(0), vec![], Partitioning::Any));
        let a = p.add(node(
            PhysOp::HashAgg {
                keys: vec![ColId(0)],
                aggs: vec![],
                partial: false,
            },
            vec![s],
            Partitioning::Hash(vec![ColId(0)]),
        ));
        let o = p.add(node(
            PhysOp::Output { stream: 7 },
            vec![a],
            Partitioning::Any,
        ));
        p.set_root(o);
        let v = validate_physical(&p);
        assert!(matches!(
            v.as_slice(),
            [PlanViolation::MissingExchange { .. }]
        ));
    }

    #[test]
    fn join_arity_violation_is_caught() {
        let mut p = PhysPlan::new();
        let s = p.add(node(scan(0), vec![], Partitioning::Singleton));
        // A one-input join: the dangling-input corruption a buggy transform
        // would produce.
        let j = p.add(node(
            PhysOp::LoopJoin {
                kind: JoinKind::Inner,
                keys: vec![],
            },
            vec![s],
            Partitioning::Singleton,
        ));
        let o = p.add(node(
            PhysOp::Output { stream: 7 },
            vec![j],
            Partitioning::Any,
        ));
        p.set_root(o);
        let v = validate_physical(&p);
        assert!(v.contains(&PlanViolation::BadArity {
            node: j,
            kind: "LoopJoin",
            got: 1,
            min: 2,
            max: 2,
        }));
    }

    #[test]
    fn bad_estimates_and_dop_are_caught() {
        let mut p = PhysPlan::new();
        let mut broken = node(scan(0), vec![], Partitioning::Any);
        broken.est_rows = f64::NAN;
        broken.est_cost = -1.0;
        broken.dop = 0;
        let s = p.add(broken);
        let o = p.add(node(
            PhysOp::Output { stream: 7 },
            vec![s],
            Partitioning::Any,
        ));
        p.set_root(o);
        let v = validate_physical(&p);
        assert!(v.contains(&PlanViolation::NonFiniteEstimate {
            node: s,
            what: "rows"
        }));
        assert!(v.contains(&PlanViolation::NegativeEstimate {
            node: s,
            what: "cost"
        }));
        assert!(v.contains(&PlanViolation::BadParallelism { node: s, dop: 0 }));
    }

    #[test]
    fn exchange_scheme_mismatch_is_caught() {
        let mut p = PhysPlan::new();
        let s = p.add(node(scan(0), vec![], Partitioning::Any));
        let e = p.add(node(
            PhysOp::Exchange {
                scheme: Partitioning::Hash(vec![ColId(0)]),
                dop: 8,
            },
            vec![s],
            // Claims a different output partitioning than its scheme.
            Partitioning::Singleton,
        ));
        let o = p.add(node(
            PhysOp::Output { stream: 7 },
            vec![e],
            Partitioning::Any,
        ));
        p.set_root(o);
        let v = validate_physical(&p);
        assert!(v.contains(&PlanViolation::ExchangeSchemeMismatch { node: e }));
    }
}
