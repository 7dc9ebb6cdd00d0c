//! Direct tests of the transformation-rule engine: each family applied to a
//! hand-built memo, checking the rewritten alternative's shape.

use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_ir::ids::{ColId, DomainId, TableId, UdoId};
use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
use scope_ir::{PlanGraph, TrueCatalog};
use scope_optimizer::estimate::Estimator;
use scope_optimizer::memo::{GroupId, MExprId, Memo};
use scope_optimizer::transform::{apply_rule, referenced_cols, ColSet, Staging, TransformCtx};
use scope_optimizer::{RuleCatalog, RuleId};

struct Fixture {
    cat: TrueCatalog,
}

impl Fixture {
    fn new() -> Fixture {
        let mut cat = TrueCatalog::new();
        for i in 0..6 {
            cat.add_column(1000 + i, 0.0, DomainId(i as u32));
        }
        cat.add_table(1_000_000, 100, 1, vec![ColId(0), ColId(1), ColId(2)]);
        cat.add_table(500_000, 80, 2, vec![ColId(3), ColId(4)]);
        Fixture { cat }
    }

    /// Ingest a plan, apply `rule_name` to every expression once, and
    /// return (memo, root, number of new expressions).
    fn apply(&self, plan: &PlanGraph, rule_name: &str) -> (Memo, GroupId, usize) {
        let obs = self.cat.observe();
        let est = Estimator::new(&obs);
        let mut referenced = ColSet::default();
        for (_, node) in plan.iter() {
            referenced_cols(&node.op, &mut referenced);
        }
        let (mut memo, root) = Memo::from_plan(plan, &est).unwrap();
        let catalog = RuleCatalog::global();
        let rule = catalog.rule(
            catalog
                .find(rule_name)
                .unwrap_or_else(|| panic!("rule {rule_name}")),
        );
        let ctx = TransformCtx {
            est: &est,
            referenced: &referenced,
        };
        let mut stage = Staging::default();
        let mut added = 0;
        let upto = memo.num_exprs();
        for i in 0..upto {
            added += apply_rule(rule, MExprId(i as u32), &mut memo, &mut stage, &ctx);
        }
        (memo, root, added)
    }
}

fn atom(col: u32, op: CmpOp) -> PredAtom {
    PredAtom::unknown(ColId(col), op, Literal::Int(1))
}

fn filter(atoms: Vec<PredAtom>) -> LogicalOp {
    LogicalOp::Filter {
        predicate: Predicate { atoms },
    }
}

fn scan(t: u32) -> LogicalOp {
    LogicalOp::RangeGet {
        table: TableId(t),
        pushed: Predicate::true_pred(),
    }
}

/// Find an expression in a group matching a predicate over its op.
fn find_in_group<F: Fn(&LogicalOp) -> bool>(memo: &Memo, g: GroupId, f: F) -> bool {
    memo.group_exprs(g).any(|e| f(memo.op(e)))
}

/// First child group of a group's canonical expression.
fn canonical_child0(memo: &Memo, g: GroupId) -> GroupId {
    memo.children(memo.canonical(g))[0]
}

#[test]
fn collapse_filters_merges_adjacent_filters() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let f1 = p.add_unchecked(filter(vec![atom(0, CmpOp::Eq)]), vec![s]);
    let f2 = p.add_unchecked(filter(vec![atom(1, CmpOp::Range)]), vec![f1]);
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f2]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "CollapseSelects");
    assert_eq!(added, 1);
    // The merged filter lives in the upper filter's group.
    let out_child = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, out_child, |op| {
        matches!(op, LogicalOp::Filter { predicate } if predicate.len() == 2)
    }));
}

#[test]
fn filter_into_scan_pushes_predicate() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let f = p.add_unchecked(filter(vec![atom(0, CmpOp::Eq)]), vec![s]);
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "SelectPartitions");
    assert_eq!(added, 1);
    let out_child = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, out_child, |op| {
        matches!(op, LogicalOp::RangeGet { pushed, .. } if pushed.len() == 1)
    }));
}

#[test]
fn filter_below_join_splits_by_side() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let l = p.add_unchecked(scan(0), vec![]);
    let r = p.add_unchecked(scan(1), vec![]);
    let j = p.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(3))],
        },
        vec![l, r],
    );
    // One atom per side.
    let f = p.add_unchecked(
        filter(vec![atom(1, CmpOp::Eq), atom(4, CmpOp::Range)]),
        vec![j],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "SelectOnJoin");
    assert!(added >= 1);
    // An alternative join over filtered children exists in the filter's
    // group (no residual — both atoms moved).
    let out_child = canonical_child0(&memo, root);
    let pushed_join = memo.group_exprs(out_child).any(|e| {
        matches!(memo.op(e), LogicalOp::Join { .. })
            && memo
                .children(e)
                .iter()
                .all(|&c| matches!(memo.canonical_op(c), LogicalOp::Filter { .. }))
    });
    assert!(pushed_join, "expected Join over per-side Filters");
}

#[test]
fn eq_only_pushdown_keeps_residual_above() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let proj = p.add_unchecked(
        LogicalOp::Project {
            cols: vec![ColId(0), ColId(1), ColId(2)],
            computed: 0,
        },
        vec![s],
    );
    let f = p.add_unchecked(
        filter(vec![atom(1, CmpOp::Eq), atom(2, CmpOp::Like)]),
        vec![proj],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
    p.set_root(o);
    // SelectOnProject pushes everything; the eq_only variants exist for
    // Join/GroupBy — here use the full pushdown and check both atoms move.
    let (memo, root, added) = fx.apply(&p, "SelectOnProject");
    assert_eq!(added, 1);
    let out_child = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, out_child, |op| {
        matches!(op, LogicalOp::Project { .. })
    }));
}

#[test]
fn reorder_atoms_orders_by_estimated_selectivity() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    // Range (sel 1/3) before Eq (sel ~1/1000): SelAsc must swap them.
    let f = p.add_unchecked(
        filter(vec![atom(1, CmpOp::Range), atom(0, CmpOp::Eq)]),
        vec![s],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "SelectPredNormalized");
    assert_eq!(added, 1);
    let out_child = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, out_child, |op| {
        matches!(op, LogicalOp::Filter { predicate }
            if predicate.atoms[0].op == CmpOp::Eq && predicate.atoms[1].op == CmpOp::Range)
    }));
}

#[test]
fn join_commute_swaps_children_and_keys() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let l = p.add_unchecked(scan(0), vec![]);
    let r = p.add_unchecked(scan(1), vec![]);
    let j = p.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(3))],
        },
        vec![l, r],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![j]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "JoinCommute");
    assert_eq!(added, 1);
    let join_group = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, join_group, |op| {
        matches!(op, LogicalOp::Join { keys, .. } if keys == &vec![(ColId(3), ColId(0))])
    }));
}

#[test]
fn join_on_union_distributes_join_over_branches() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let b1 = p.add_unchecked(scan(0), vec![]);
    let b2 = p.add_unchecked(scan(0), vec![]);
    let u = p.add_unchecked(LogicalOp::UnionAll, vec![b1, b2]);
    let r = p.add_unchecked(scan(1), vec![]);
    let j = p.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(3))],
        },
        vec![u, r],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![j]);
    p.set_root(o);
    // b1 == b2 structurally → they dedup to one group; union arity 2 kept.
    let (memo, root, added) = fx.apply(&p, "CorrelatedJoinOnUnionAll1");
    assert!(added >= 1, "rule must fire");
    let join_group = canonical_child0(&memo, root);
    assert!(
        find_in_group(&memo, join_group, |op| {
            matches!(op, LogicalOp::UnionAll)
        }),
        "expected UnionAll(Join, Join) alternative"
    );
}

#[test]
fn split_groupby_produces_partial_final_pair() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let g = p.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![ColId(1)],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![s],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![g]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "SplitGroupByHashed");
    assert_eq!(added, 1);
    let gb_group = canonical_child0(&memo, root);
    let has_split = memo.group_exprs(gb_group).any(|e| {
        matches!(memo.op(e), LogicalOp::GroupBy { partial: false, .. })
            && memo.children(e).len() == 1
            && matches!(
                memo.canonical_op(memo.children(e)[0]),
                LogicalOp::GroupBy { partial: true, .. }
            )
    });
    assert!(has_split);
}

#[test]
fn union_flatten_inlines_nested_unions() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let a = p.add_unchecked(scan(0), vec![]);
    let b = p.add_unchecked(scan(1), vec![]);
    let inner = p.add_unchecked(LogicalOp::UnionAll, vec![a, b]);
    let c = p.add_unchecked(LogicalOp::Process { udo: UdoId(0) }, vec![b]);
    let outer = p.add_unchecked(LogicalOp::UnionAll, vec![inner, c]);
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![outer]);
    p.set_root(o);
    let (memo, root, added) = fx.apply(&p, "UnionAllOnUnionAll");
    assert!(added >= 1);
    let u_group = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, u_group, |op| matches!(
        op,
        LogicalOp::UnionAll
    )));
    // Flattened alternative has 3 children.
    let flattened = memo
        .group_exprs(u_group)
        .any(|e| matches!(memo.op(e), LogicalOp::UnionAll) && memo.children(e).len() == 3);
    assert!(flattened);
}

#[test]
fn swap_unary_commutes_adjacent_operators() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let sort = p.add_unchecked(
        LogicalOp::Sort {
            keys: vec![ColId(0)],
        },
        vec![s],
    );
    let f = p.add_unchecked(filter(vec![atom(1, CmpOp::Eq)]), vec![sort]);
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
    p.set_root(o);
    // ReseqFilterOnSort: Filter over Sort → Sort over Filter.
    let (memo, root, added) = fx.apply(&p, "ReseqFilterOnSort");
    assert_eq!(added, 1);
    let top_group = canonical_child0(&memo, root);
    assert!(find_in_group(&memo, top_group, |op| matches!(
        op,
        LogicalOp::Sort { .. }
    )));
}

#[test]
fn rules_do_not_fire_on_mismatched_patterns() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let s = p.add_unchecked(scan(0), vec![]);
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![s]);
    p.set_root(o);
    for name in [
        "CollapseSelects",
        "SelectOnJoin",
        "JoinCommute",
        "SplitGroupBy",
        "UnionAllOnUnionAll",
        "CorrelatedJoinOnUnionAll1",
        "TopOnRestrRemap",
    ] {
        let (_, _, added) = fx.apply(&p, name);
        assert_eq!(added, 0, "{name} fired on a bare scan");
    }
}

#[test]
fn prune_below_respects_referenced_columns() {
    let fx = Fixture::new();
    let mut p = PlanGraph::new();
    let l = p.add_unchecked(scan(0), vec![]); // 3 cols
    let r = p.add_unchecked(scan(1), vec![]); // 2 cols
    let j = p.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(3))],
        },
        vec![l, r],
    );
    let g = p.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![ColId(1)],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![j],
    );
    let o = p.add_unchecked(LogicalOp::Output { stream: 0 }, vec![g]);
    p.set_root(o);
    // Lazy pruning needs ≥4 droppable columns; this plan references every
    // column except ColId(2) and ColId(4), so the lazy rule must NOT fire,
    // while the eager off-by-default variant fires.
    let (_, _, lazy_added) = fx.apply(&p, "PruneJoin");
    assert_eq!(lazy_added, 0);
    let (memo, root, eager_added) = fx.apply(&p, "EagerPruneJoin");
    assert!(eager_added >= 1);
    // The pruning projection keeps only referenced columns.
    let gb_group = canonical_child0(&memo, root);
    let join_group = canonical_child0(&memo, gb_group);
    let pruned = memo.group_exprs(join_group).any(|e| {
        matches!(memo.op(e), LogicalOp::Join { .. })
            && memo.children(e).iter().any(|&c| {
                matches!(memo.canonical_op(c),
                    LogicalOp::Project { cols, .. } if !cols.contains(&ColId(2)))
            })
    });
    assert!(pruned);
}

#[test]
fn rule_id_lookup_sanity() {
    // Ids used in the transform tests exist and are transformation rules.
    let cat = RuleCatalog::global();
    for name in ["CollapseSelects", "SelectOnJoin", "JoinCommute"] {
        let id: RuleId = cat.find(name).unwrap();
        assert!(cat.rule(id).action.is_transformation());
    }
}
