//! Cost-model behaviour tests across the remaining implementation
//! alternatives: relative orderings the search relies on.

use scope_ir::ids::{ColId, DomainId, TableId};
use scope_ir::ops::{AggFunc, LogicalOp};
use scope_ir::TrueCatalog;
use scope_optimizer::cost::{exchange_cost, impl_cost, CostEstimate, CostWeights};
use scope_optimizer::estimate::LogicalEst;
use scope_optimizer::rules::PhysImpl;
use scope_optimizer::Partitioning;

/// Default scalarization — the single ranked value the search compares.
fn ds(c: &CostEstimate) -> f64 {
    CostWeights::DEFAULT.scalarize(c)
}

fn obs() -> scope_ir::ObservableCatalog {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(1000, 0.0, DomainId(0));
    cat.add_table(10_000_000, 100, 1, vec![c]);
    cat.observe()
}

fn est(rows: f64) -> LogicalEst {
    LogicalEst {
        rows,
        row_bytes: 100.0,
        cols: vec![ColId(0)],
    }
}

fn agg_op(partial: bool) -> LogicalOp {
    LogicalOp::GroupBy {
        keys: vec![ColId(0)],
        aggs: vec![AggFunc::Count],
        partial,
    }
}

#[test]
fn agg_impl_ordering_for_large_inputs() {
    let op = agg_op(false);
    let own = est(1e4);
    let child = est(1e8);
    let o = obs();
    let hash = impl_cost(PhysImpl::HashAgg, &op, &own, &[&child], &o);
    let sort = impl_cost(PhysImpl::SortAgg, &op, &own, &[&child], &o);
    let stream = impl_cost(PhysImpl::StreamAgg, &op, &own, &[&child], &o);
    // Sorting dominates hashing for large inputs; streaming is cheapest
    // per-row (it needs range-partitioned input instead).
    assert!(ds(&sort.cost) > ds(&hash.cost));
    assert!(ds(&stream.cost) < ds(&hash.cost));
}

#[test]
fn top_heap_beats_global_sort_for_big_inputs() {
    let op = LogicalOp::Top { k: 100 };
    let own = est(100.0);
    let child = est(1e8);
    let o = obs();
    let heap = impl_cost(PhysImpl::TopN, &op, &own, &[&child], &o);
    let sort = impl_cost(PhysImpl::TopSort, &op, &own, &[&child], &o);
    assert!(
        ds(&heap.cost) < ds(&sort.cost) / 5.0,
        "{} vs {}",
        ds(&heap.cost),
        ds(&sort.cost)
    );
    assert!(heap.dop >= sort.dop);
}

#[test]
fn serial_variants_cost_more_on_big_inputs() {
    let o = obs();
    let sort_op = LogicalOp::Sort {
        keys: vec![ColId(0)],
    };
    let own = est(1e8);
    let child = est(1e8);
    let par = impl_cost(PhysImpl::SortParallel, &sort_op, &own, &[&child], &o);
    let ser = impl_cost(PhysImpl::SortSerial, &sort_op, &own, &[&child], &o);
    assert!(ds(&par.cost) < ds(&ser.cost));
    assert_eq!(ser.dop, 1);

    let union_op = LogicalOp::UnionAll;
    let par_u = impl_cost(
        PhysImpl::UnionConcat,
        &union_op,
        &own,
        &[&child, &child],
        &o,
    );
    let ser_u = impl_cost(
        PhysImpl::UnionSerial,
        &union_op,
        &own,
        &[&child, &child],
        &o,
    );
    assert!(ds(&par_u.cost) < ds(&ser_u.cost));
}

#[test]
fn union_virtual_charges_materialization() {
    let o = obs();
    let op = LogicalOp::UnionAll;
    let own = est(2e7);
    let child = est(1e7);
    let concat = impl_cost(PhysImpl::UnionConcat, &op, &own, &[&child, &child], &o);
    let virt = impl_cost(PhysImpl::UnionVirtual, &op, &own, &[&child, &child], &o);
    // The write+read makes the estimated cost strictly higher — the reason
    // the default plan prefers UnionAllToUnionAll even when materializing
    // would truly be better under skew (the QA3/QB3 motif).
    assert!(ds(&virt.cost) > ds(&concat.cost));
}

#[test]
fn window_impls_track_their_agg_counterparts() {
    let o = obs();
    let op = LogicalOp::Window {
        keys: vec![ColId(0)],
    };
    let own = est(1e7);
    let child = est(1e7);
    let hash = impl_cost(PhysImpl::WindowHash, &op, &own, &[&child], &o);
    let sort = impl_cost(PhysImpl::WindowSort, &op, &own, &[&child], &o);
    assert!(ds(&hash.cost) < ds(&sort.cost));
}

#[test]
fn exchange_costs_reflect_data_movement() {
    let bytes = 1e10;
    let hash = exchange_cost(PhysImpl::ExchangeHash, bytes, 50);
    let range = exchange_cost(PhysImpl::ExchangeRange, bytes, 50);
    let bcast = exchange_cost(PhysImpl::ExchangeBroadcast, bytes, 50);
    let gather = exchange_cost(PhysImpl::ExchangeGather, bytes, 50);
    // Range pays sampling on top of hash; gather serializes everything.
    assert!(ds(&range.cost) > ds(&hash.cost));
    assert!(ds(&gather.cost) > ds(&hash.cost));
    assert!(ds(&bcast.cost) > ds(&hash.cost));
    assert_eq!(gather.dop, 1);
    assert_eq!(hash.dop, 50);
}

#[test]
fn partial_agg_has_no_partitioning_requirement() {
    use scope_optimizer::classic::required_child_parts;
    let full = required_child_parts(PhysImpl::HashAgg, &agg_op(false), 1);
    let partial = required_child_parts(PhysImpl::HashAgg, &agg_op(true), 1);
    assert!(matches!(full[0], Partitioning::Hash(_)));
    assert!(matches!(partial[0], Partitioning::Any));
}

#[test]
fn global_agg_without_keys_gathers() {
    use scope_optimizer::classic::required_child_parts;
    let op = LogicalOp::GroupBy {
        keys: vec![],
        aggs: vec![AggFunc::Count],
        partial: false,
    };
    let parts = required_child_parts(PhysImpl::HashAgg, &op, 1);
    assert_eq!(parts[0], Partitioning::Singleton);
}

#[test]
fn scan_variants_dop_and_indexing() {
    let o = obs();
    let op = LogicalOp::RangeGet {
        table: TableId(0),
        pushed: scope_ir::Predicate::true_pred(),
    };
    let own = est(1e7);
    let par = impl_cost(PhysImpl::ScanParallel, &op, &own, &[], &o);
    let ser = impl_cost(PhysImpl::ScanSerial, &op, &own, &[], &o);
    assert!(par.dop > 1);
    assert_eq!(ser.dop, 1);
    assert!(ds(&par.cost) < ds(&ser.cost));
    // Without a pushed predicate the indexed scan has no advantage.
    let idx = impl_cost(PhysImpl::ScanIndexed, &op, &own, &[], &o);
    assert!(ds(&idx.cost) >= ds(&par.cost) * 0.5);
}
