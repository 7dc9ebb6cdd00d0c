//! Failure-injection and edge-case tests for the execution simulator.

use scope_exec::{execute_deterministic, explain, ABTester, ClusterConfig};
use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
use scope_ir::ids::{ColId, DomainId, JobId, TableId};
use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
use scope_ir::{Job, PlanGraph, TrueCatalog};
use scope_optimizer::{compile, RuleConfig};

fn compile_default(plan: &PlanGraph, cat: &TrueCatalog) -> scope_optimizer::PhysPlan {
    compile(plan, &cat.observe(), &RuleConfig::default_config())
        .expect("compiles")
        .plan
}

#[test]
fn empty_table_executes_in_overhead_time() {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(1, 0.0, DomainId(0));
    cat.add_table(0, 100, 1, vec![c]);
    let mut g = PlanGraph::new();
    let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![s]);
    g.set_root(o);
    let plan = compile_default(&g, &cat);
    let m = execute_deterministic(&plan, &cat, &ClusterConfig::noiseless());
    assert!(m.runtime.is_finite() && m.runtime > 0.0);
    assert!(
        m.runtime < 60.0,
        "empty scan should be overhead-bound: {}",
        m.runtime
    );
}

#[test]
fn zero_selectivity_filter_does_not_produce_nan() {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(1000, 0.0, DomainId(0));
    let p = cat.add_pred(1e-9, None); // essentially nothing passes
    cat.add_table(1_000_000_000, 100, 1, vec![c]);
    let mut g = PlanGraph::new();
    let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let f = g.add_unchecked(
        LogicalOp::Select {
            predicate: Predicate::atom(PredAtom {
                col: c,
                op: CmpOp::Eq,
                literal: Literal::Int(0),
                pred: p,
            }),
        },
        vec![s],
    );
    let agg = g.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![c],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![f],
    );
    let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![agg]);
    g.set_root(o);
    let plan = compile_default(&g, &cat);
    let m = execute_deterministic(&plan, &cat, &ClusterConfig::noiseless());
    assert!(m.runtime.is_finite());
    assert!(m.cpu_time.is_finite());
    assert!(m.io_time.is_finite());
}

#[test]
fn extreme_skew_dominates_runtime_but_not_cpu() {
    // Same plan, two worlds: uniform vs 90%-skewed join key. CPU totals are
    // nearly identical; the skewed world's wall-clock collapses onto one
    // vertex.
    let build = |skew: f64| -> (PlanGraph, TrueCatalog) {
        let mut cat = TrueCatalog::new();
        // A fact-to-fact join: the right side is too big to broadcast, so
        // the optimizer hash-partitions both sides on the (skewed) key.
        let k0 = cat.add_column(50_000_000, skew, DomainId(0));
        let k1 = cat.add_column(50_000_000, 0.0, DomainId(0));
        cat.add_table(500_000_000, 100, 1, vec![k0]);
        cat.add_table(50_000_000, 50, 2, vec![k1]);
        let mut g = PlanGraph::new();
        let a = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let b = g.add_unchecked(LogicalOp::Get { table: TableId(1) }, vec![]);
        let j = g.add_unchecked(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                keys: vec![(ColId(0), ColId(1))],
            },
            vec![a, b],
        );
        let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![j]);
        g.set_root(o);
        (g, cat)
    };
    let (gp, cat_uniform) = build(0.0);
    let (gs, cat_skewed) = build(0.9);
    let cluster = ClusterConfig::noiseless();
    let plan_u = compile_default(&gp, &cat_uniform);
    let plan_s = compile_default(&gs, &cat_skewed);
    let mu = execute_deterministic(&plan_u, &cat_uniform, &cluster);
    let ms = execute_deterministic(&plan_s, &cat_skewed, &cluster);
    // Plans are identical (the optimizer can't see skew), so only truth
    // differs. Note: the heavy-hitter join also inflates output rows, so
    // CPU differs somewhat — but runtime must blow up far more.
    let runtime_ratio = ms.runtime / mu.runtime;
    let cpu_ratio = ms.cpu_time / mu.cpu_time;
    assert!(runtime_ratio > 3.0, "runtime ratio {runtime_ratio}");
    assert!(
        runtime_ratio > cpu_ratio * 1.5,
        "skew must hit wall-clock harder than CPU: {runtime_ratio} vs {cpu_ratio}"
    );
}

#[test]
fn ab_runner_metrics_are_positive_across_trials() {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(100, 0.0, DomainId(0));
    cat.add_table(50_000_000, 100, 1, vec![c]);
    let mut g = PlanGraph::new();
    let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![s]);
    g.set_root(o);
    let plan = compile_default(&g, &cat);
    let job = Job::new(JobId(1), g, cat, vec![], 0, 50);
    let ab = ABTester::new(3);
    let mut runtimes = Vec::new();
    for trial in 0..20 {
        let m = ab.run(&job, &plan, trial);
        assert!(m.runtime > 0.0 && m.runtime.is_finite());
        runtimes.push(m.runtime);
    }
    // Noise produces distinct trials but bounded spread.
    let min = runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = runtimes.iter().cloned().fold(0.0_f64, f64::max);
    assert!(max > min);
    assert!(max / min < 2.0, "noise spread too wide: {min}..{max}");
}

#[test]
fn explain_handles_single_node_stage_graphs() {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(10, 0.0, DomainId(0));
    cat.add_table(100, 100, 1, vec![c]);
    let mut g = PlanGraph::new();
    let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![s]);
    g.set_root(o);
    let plan = compile_default(&g, &cat);
    let trace = explain(&plan, &cat, &ClusterConfig::noiseless());
    assert!(!trace.nodes.is_empty());
    assert!(!trace.stages.is_empty());
    assert!(!trace.render().is_empty());
}

#[test]
fn more_tokens_never_hurt() {
    let mut cat = TrueCatalog::new();
    let c = cat.add_column(1000, 0.0, DomainId(0));
    cat.add_table(2_000_000_000, 100, 1, vec![c]);
    let mut g = PlanGraph::new();
    let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
    let agg = g.add_unchecked(
        LogicalOp::GroupBy {
            keys: vec![c],
            aggs: vec![AggFunc::Count],
            partial: false,
        },
        vec![s],
    );
    let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![agg]);
    g.set_root(o);
    let plan = compile_default(&g, &cat);
    let mut last = f64::INFINITY;
    for tokens in [10u32, 25, 50, 100, 250] {
        let cluster = ClusterConfig {
            tokens,
            ..ClusterConfig::noiseless()
        };
        let m = execute_deterministic(&plan, &cat, &cluster);
        assert!(
            m.runtime <= last + 1e-9,
            "tokens {tokens} regressed runtime"
        );
        last = m.runtime;
    }
}
