//! Allocation accounting of a compile's two searches. Exploration: a rule
//! that does not match allocates nothing, and one that does builds its
//! output in the staging and inserts it into estimates and interned
//! operators the memo keeps, so a warm exploration allocates nothing at
//! all. Implementation: winners
//! are `Copy` handles into the table of costed alternatives, so a pass that
//! finds every slot it touches already filled allocates only for the plan
//! it extracts — however many times a group's winner is replaced on the
//! way — and a slot holds its partitionings as handles, so filling one
//! allocates nothing either. A warm default compile is pinned as a whole.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_ir::ids::{DomainId, TableId};
use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
use scope_ir::{PlanGraph, TrueCatalog};
use scope_optimizer::estimate::Estimator;
use scope_optimizer::memo::Memo;
use scope_optimizer::search::{explore, BudgetTracker};
use scope_optimizer::transform::{referenced_cols, ColSet, Staging, TransformCtx};
use scope_optimizer::{
    compile_candidates, CompileBudget, CompiledPlan, CostModel, PhysOp, RuleCatalog, RuleConfig,
    RuleSet,
};

/// Counts the allocator calls of the thread that makes them: the tests of
/// this binary run side by side in one process.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocator calls this thread made while it ran.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Four tables joined in a chain, the first filtered, then grouped and
/// sorted. With every rule enabled the memo holds 318 expressions, most of
/// them in the join groups.
fn join_chain() -> (PlanGraph, TrueCatalog) {
    let mut cat = TrueCatalog::new();
    let mut cols = Vec::new();
    for (t, rows) in [2_000_000u64, 800_000, 300_000, 50_000]
        .into_iter()
        .enumerate()
    {
        let key = cat.add_column(40_000, 0.0, DomainId(0));
        let attr = cat.add_column(300, 0.0, DomainId(1 + t as u32));
        cat.add_table(rows, 90, 11 + t as u64, vec![key, attr]);
        cols.push((key, attr));
    }
    let mut plan = PlanGraph::new();
    let first = plan.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let mut acc = plan.add_unchecked(
        LogicalOp::Select {
            predicate: Predicate::atom(PredAtom::unknown(cols[0].1, CmpOp::Eq, Literal::Int(3))),
        },
        vec![first],
    );
    for t in 1..cols.len() {
        let right = plan.add_unchecked(
            LogicalOp::Get {
                table: TableId(t as u32),
            },
            vec![],
        );
        acc = plan.add_unchecked(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(cols[t - 1].0, cols[t].0)],
            },
            vec![acc, right],
        );
    }
    let agg = plan.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![cols[3].1],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![acc],
    );
    let sort = plan.add_unchecked(
        LogicalOp::Sort {
            keys: vec![cols[3].1],
        },
        vec![agg],
    );
    let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![sort]);
    plan.set_root(out);
    (plan, cat)
}

#[test]
fn a_pass_over_filled_slots_allocates_only_for_its_plan() {
    let (plan, cat) = join_chain();
    let obs = cat.observe();
    let config = RuleConfig::from_enabled(RuleSet::FULL);
    let budget = CompileBudget::default();
    let batch = |configs: &[RuleConfig]| {
        allocs_of(|| compile_candidates(&plan, &obs, configs, &budget, &CostModel::DEFAULT))
    };
    // Warm this thread's compile scratch: memo slabs and table capacity.
    batch(std::slice::from_ref(&config));

    // The same batch with the configuration once more: its pass finds every
    // slot it touches filled by the first, so the difference is that one
    // pass, its extraction and its packaging.
    let (alone, once) = batch(std::slice::from_ref(&config));
    let (twice, with_repeat) = batch(&[config.clone(), config.clone()]);
    let compiled = alone[0].as_ref().expect("the chain compiles");
    assert_eq!(
        twice[1].as_ref().map(CompiledPlan::fingerprint),
        Ok(compiled.fingerprint())
    );
    let count = |op: fn(&PhysOp) -> bool| compiled.plan.iter().filter(|(_, n)| op(&n.op)).count();
    let exchanges = count(|op| matches!(op, PhysOp::Exchange { .. }));
    let joins = count(|op| op.name().ends_with("Join"));
    assert!(
        compiled.memo_exprs > 300 && exchanges > 0 && joins == 3,
        "vacuous: {} expressions, {exchanges} exchanges, {joins} joins",
        compiled.memo_exprs
    );

    // Extraction allocates per node at most its child list, its operator's
    // key and predicate lists and its partitioning's keys (an exchange: its
    // child list and its scheme twice), beside the arena's doubling
    // growth; debug builds add the physical validation of every node. A
    // winner that allocated would cost that much per replacement, and the
    // join groups replace theirs hundreds of times.
    let repeat = with_repeat - once;
    let bound = 6 * compiled.plan.len() as u64;
    assert!(
        repeat <= bound,
        "the repeated pass made {repeat} allocations for a {}-node plan (bound {bound})",
        compiled.plan.len()
    );
}

/// The allocator calls of a warm default compile of [`join_chain`] (25
/// memo expressions): what normalizing, ingesting, exploring, implementing
/// and extracting the chain allocates once the thread's compile scratch
/// has held it. Measured at 194 in a debug build and 152 in a release one
/// (debug builds also validate the plan); 478 and 389 while the costing
/// table built a `Vec` of partitionings per alternative. The bound is 1.1×
/// the pin. A rise means a costed alternative or a probe allocates again;
/// lower the pin when the count falls.
const DEFAULT_COMPILE_ALLOCS: u64 = if cfg!(debug_assertions) { 80 } else { 38 };

#[test]
fn a_warm_default_compile_stays_within_its_allocation_pin() {
    let (plan, cat) = join_chain();
    let obs = cat.observe();
    let config = RuleConfig::default_config();
    let compile = || allocs_of(|| scope_optimizer::compile(&plan, &obs, &config));
    let _ = compile();
    let (compiled, allocs) = compile();
    let compiled = compiled.expect("the chain compiles");
    assert!(compiled.memo_exprs > 20, "vacuous: {}", compiled.memo_exprs);
    let bound = DEFAULT_COMPILE_ALLOCS * 11 / 10;
    assert!(
        allocs <= bound,
        "a warm default compile made {allocs} allocations (pin {DEFAULT_COMPILE_ALLOCS}, \
         bound {bound})"
    );
}

/// Every configuration of one `compile_candidates` partition after the
/// first shares its exploration and finds the slots it charges filled:
/// each one allocates only for the plan it extracts and packages, however
/// different its implementation rules are.
#[test]
fn each_further_configuration_of_a_partition_allocates_only_its_plan() {
    let (plan, cat) = join_chain();
    let obs = cat.observe();
    let budget = CompileBudget::default();
    let rules = RuleCatalog::global();
    let full = RuleConfig::from_enabled(RuleSet::FULL);
    // The same transformations, so one partition; each later configuration
    // drops one more join implementation.
    let mut configs = vec![full.clone()];
    for &rule in rules.impls_for(scope_ir::OpKind::Join).iter().take(4) {
        let mut next = configs.last().expect("non-empty").clone();
        next.disable(rule);
        configs.push(next);
    }
    let batch = |configs: &[RuleConfig]| {
        allocs_of(|| compile_candidates(&plan, &obs, configs, &budget, &CostModel::DEFAULT))
    };
    batch(&configs);
    let mut before = batch(&configs[..1]).1;
    for k in 2..=configs.len() {
        let (results, allocs) = batch(&configs[..k]);
        let compiled = results[k - 1].as_ref().expect("compiles");
        let alone = scope_optimizer::compile(&plan, &obs, &configs[k - 1]).expect("compiles");
        assert_eq!(compiled.fingerprint(), alone.fingerprint());
        // As in the repeated pass above: per plan node its child list, its
        // operator's lists and its partitioning's keys, and the results
        // vector's growth.
        let added = allocs - before;
        let bound = 6 * compiled.plan.len() as u64;
        assert!(
            added <= bound,
            "configuration {k} of the partition made {added} allocations for a {}-node plan \
             (bound {bound})",
            compiled.plan.len()
        );
        before = allocs;
    }
}

/// Three scans of one shape under a union, the first filtered, grouped
/// once as they are and once joined to a dimension table. Every table
/// carries five columns the query never reads, so the pruning rules narrow
/// every input.
fn union_groupby() -> (PlanGraph, TrueCatalog) {
    let mut cat = TrueCatalog::new();
    let table = |cat: &mut TrueCatalog, rows: u64, seed: u64| {
        let key = cat.add_column(20_000, 0.0, DomainId(0));
        let attr = cat.add_column(50, 0.0, DomainId(1));
        let mut cols = vec![key, attr];
        cols.extend((0..5).map(|i| cat.add_column(1_000, 0.0, DomainId(2 + i))));
        cat.add_table(rows, 120, seed, cols);
        (key, attr)
    };
    let parts: Vec<_> = (0..3u64)
        .map(|t| table(&mut cat, 600_000 + 100_000 * t, 31 + t))
        .collect();
    let (dim_key, dim_attr) = table(&mut cat, 40_000, 41);
    let mut plan = PlanGraph::new();
    let mut branches = Vec::new();
    for (t, &(_, attr)) in parts.iter().enumerate() {
        let get = plan.add_unchecked(
            LogicalOp::Get {
                table: TableId(t as u32),
            },
            vec![],
        );
        branches.push(if t == 0 {
            plan.add_unchecked(
                LogicalOp::Select {
                    predicate: Predicate::atom(PredAtom::unknown(attr, CmpOp::Eq, Literal::Int(9))),
                },
                vec![get],
            )
        } else {
            get
        });
    }
    // The branches share column ids only through the union's output, so
    // the join and the group-by read the first branch's.
    let (key, attr) = parts[0];
    let union = plan.add_unchecked(LogicalOp::UnionAll, branches);
    let dim = plan.add_unchecked(LogicalOp::Get { table: TableId(3) }, vec![]);
    let join = plan.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(key, dim_key)],
        },
        vec![union, dim],
    );
    let joined = plan.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![attr, dim_attr],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![join],
    );
    let direct = plan.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![attr],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![union],
    );
    let both = plan.add_unchecked(LogicalOp::UnionAll, vec![joined, direct]);
    let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![both]);
    plan.set_root(out);
    (plan, cat)
}

/// Explore `plan` under every rule on a memo and staging that explored it
/// once already: the allocator calls of that second exploration, the
/// expressions it inserted and the rules that created them.
fn explore_allocs(plan: &PlanGraph, cat: &TrueCatalog) -> (u64, usize, RuleSet) {
    let obs = cat.observe();
    let est = Estimator::new(&obs);
    let mut referenced = ColSet::default();
    for (_, node) in plan.iter() {
        referenced_cols(&node.op, &mut referenced);
    }
    let ctx = TransformCtx {
        est: &est,
        referenced: &referenced,
    };
    let config = RuleConfig::from_enabled(RuleSet::FULL);
    let mut memo = Memo::empty();
    let mut stage = Staging::default();
    let mut run = || {
        memo.clear();
        memo.ingest(plan, &est).expect("ingests");
        let mut tracker = BudgetTracker::new(&CompileBudget::UNLIMITED);
        allocs_of(|| explore(&mut memo, &mut stage, &config, &ctx, &mut tracker).expect("explores"))
    };
    // Warm the memo's slabs, tables, estimates and interned operators, the
    // staging and the selectivity cache.
    run();
    let (added, allocs) = run();
    (allocs, added, memo.created_by_rules())
}

/// A rule that does not match allocates nothing: every check that can
/// refuse a match runs before anything is built. One that matches builds
/// its output in the staging, and the memo writes each new expression's
/// estimate and operator over ones an earlier exploration left, so what a
/// second exploration of the same plan inserts costs no allocation at all.
/// The chain and the union fixture insert 307 and 128 expressions;
/// exploring them again made 1 918 and 768 allocations while every
/// inserted expression's operator, estimate and rewrite temporaries were
/// allocated anew, and 6 439 and 2 061 when most misses cloned first.
#[test]
fn exploration_allocates_only_for_what_it_inserts() {
    for (name, (plan, cat), families) in [
        ("join chain", join_chain(), &[][..]),
        (
            "union group-by",
            union_groupby(),
            &["Prune", "GroupbyBelowUnionAll", "CorrelatedJoinOnUnionAll"][..],
        ),
    ] {
        let (allocs, added, created) = explore_allocs(&plan, &cat);
        for family in families {
            let rules = RuleCatalog::global().rules();
            assert!(
                rules
                    .iter()
                    .any(|r| r.name.contains(family) && created.contains(r.id)),
                "{name}: no {family}* rule inserted anything"
            );
        }
        assert!(added > 100, "{name}: vacuous, {added} inserted expressions");
        assert_eq!(
            allocs, 0,
            "{name}: re-exploring made {allocs} allocations for {added} inserted expressions"
        );
    }
}
