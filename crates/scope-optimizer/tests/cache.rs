//! Integration tests for the fingerprint-keyed compile cache against the
//! real optimizer: cached plans must be bit-identical to fresh compiles,
//! errors must never be cached, and concurrent lookups of the same key must
//! converge on one shared entry.

use std::sync::Arc;

use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_ir::ids::{DomainId, TableId};
use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
use scope_ir::{ObservableCatalog, PlanGraph, TrueCatalog};
use scope_optimizer::{
    compile, plan_catalog_fingerprint, CompileCache, CostModel, RuleCatalog, RuleConfig, RuleSet,
};

fn test_job() -> (PlanGraph, ObservableCatalog) {
    let mut cat = TrueCatalog::new();
    let k0 = cat.add_column(50_000, 0.0, DomainId(0));
    let a = cat.add_column(200, 0.0, DomainId(1));
    let k1 = cat.add_column(50_000, 0.0, DomainId(0));
    let b = cat.add_column(1_000, 0.0, DomainId(2));
    cat.add_table(2_000_000, 120, 11, vec![k0, a]);
    cat.add_table(800_000, 80, 22, vec![k1, b]);

    let mut g = PlanGraph::new();
    let s0 = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let f = g.add_unchecked(
        LogicalOp::Select {
            predicate: Predicate::atom(PredAtom::unknown(a, CmpOp::Eq, Literal::Int(7))),
        },
        vec![s0],
    );
    let s1 = g.add_unchecked(LogicalOp::Get { table: TableId(1) }, vec![]);
    let j = g.add_unchecked(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(k0, k1)],
        },
        vec![f, s1],
    );
    let agg = g.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![b],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![j],
    );
    let o = g.add_unchecked(LogicalOp::Output { stream: 99 }, vec![agg]);
    g.set_root(o);
    (g, cat.observe())
}

/// A configuration that disables every implementation rule: no physical
/// plan can be produced, so compilation must fail.
fn impossible_config() -> RuleConfig {
    let cat = RuleCatalog::global();
    let enabled: RuleSet = cat
        .non_required()
        .iter()
        .filter(|id| cat.rule(*id).category != scope_optimizer::RuleCategory::Implementation)
        .collect();
    RuleConfig::from_enabled(enabled)
}

#[test]
fn cached_plan_is_bit_identical_to_a_fresh_compile() {
    let (plan, obs) = test_job();
    let fp = plan_catalog_fingerprint(&plan, &obs);
    let config = RuleConfig::default_config();
    let cache = CompileCache::new(64);

    let fresh = compile(&plan, &obs, &config).expect("compiles");
    let cached = cache
        .get_or_compile(fp, &config, &CostModel::DEFAULT, || {
            compile(&plan, &obs, &config)
        })
        .expect("compiles");
    let hit = cache
        .get_or_compile(fp, &config, &CostModel::DEFAULT, || {
            panic!("must not recompile on a hit")
        })
        .expect("hit");

    // The hit shares the insertion's allocation...
    assert!(Arc::ptr_eq(&cached, &hit));
    // ...and the cached result is bit-identical to an uncached compile
    // (plans have no PartialEq; their Debug form is a full rendering).
    assert_eq!(cached.est_cost.to_bits(), fresh.est_cost.to_bits());
    assert_eq!(cached.signature, fresh.signature);
    assert_eq!(format!("{:?}", cached.plan), format!("{:?}", fresh.plan));
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().misses, 1);
}

#[test]
fn compile_errors_are_never_cached() {
    let (plan, obs) = test_job();
    let fp = plan_catalog_fingerprint(&plan, &obs);
    let config = impossible_config();
    let cache = CompileCache::new(64);

    for _ in 0..3 {
        assert!(cache
            .get_or_compile(fp, &config, &CostModel::DEFAULT, || compile(
                &plan, &obs, &config
            ))
            .is_err());
    }
    // Every attempt recompiled: the failure was never served from cache.
    assert_eq!(cache.stats().misses, 3);
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.len(), 0);

    // The failing key must not shadow a later success for a different
    // config under the same fingerprint.
    let ok = cache.get_or_compile(
        fp,
        &RuleConfig::default_config(),
        &CostModel::DEFAULT,
        || compile(&plan, &obs, &RuleConfig::default_config()),
    );
    assert!(ok.is_ok());
    assert_eq!(cache.len(), 1);
}

#[test]
fn concurrent_lookups_converge_on_one_entry() {
    let (plan, obs) = test_job();
    let fp = plan_catalog_fingerprint(&plan, &obs);
    let config = RuleConfig::default_config();
    let cache = CompileCache::new(64);

    let results: Vec<Arc<_>> = std::thread::scope(|s| {
        // The intermediate collect is the point: all eight threads must be
        // spawned before the first join, or the "race" runs sequentially.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    cache
                        .get_or_compile(fp, &config, &CostModel::DEFAULT, || {
                            compile(&plan, &obs, &config)
                        })
                        .expect("compiles")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Racing threads may each compile (the closure runs outside the lock),
    // but first-insert-wins: exactly one entry exists afterwards and every
    // *subsequent* lookup shares it.
    assert_eq!(cache.len(), 1);
    let canonical = cache
        .get_or_compile(fp, &config, &CostModel::DEFAULT, || panic!("must hit"))
        .unwrap();
    for r in &results {
        assert_eq!(r.est_cost.to_bits(), canonical.est_cost.to_bits());
        assert_eq!(r.signature, canonical.signature);
    }
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 9);
    assert_eq!(stats.insertions, 1);
}

#[test]
fn distinct_configs_get_distinct_entries_under_one_fingerprint() {
    let (plan, obs) = test_job();
    let fp = plan_catalog_fingerprint(&plan, &obs);
    let cache = CompileCache::new(64);
    let cat = RuleCatalog::global();

    let default = RuleConfig::default_config();
    let all = RuleConfig::from_enabled(cat.non_required());
    assert_ne!(default.enabled(), all.enabled());

    let a = cache
        .get_or_compile(fp, &default, &CostModel::DEFAULT, || {
            compile(&plan, &obs, &default)
        })
        .unwrap();
    let b = cache
        .get_or_compile(fp, &all, &CostModel::DEFAULT, || compile(&plan, &obs, &all))
        .unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(cache.len(), 2);
    // Both keys hit independently afterwards.
    assert!(Arc::ptr_eq(
        &a,
        &cache
            .get_or_compile(fp, &default, &CostModel::DEFAULT, || panic!("hit"))
            .unwrap()
    ));
    assert!(Arc::ptr_eq(
        &b,
        &cache
            .get_or_compile(fp, &all, &CostModel::DEFAULT, || panic!("hit"))
            .unwrap()
    ));
}
