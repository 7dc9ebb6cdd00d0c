//! `EXPLAIN ANALYZE`-style execution traces: per-operator estimated vs
//! true cardinalities, work breakdown, and stage assignment — the
//! debugging view an engineer would use to understand *why* a plan is slow
//! and which estimates the optimizer got wrong.

use std::fmt::Write as _;

use scope_ir::ids::NodeId;
use scope_ir::TrueCatalog;
use scope_optimizer::PhysPlan;

use crate::cluster::ClusterConfig;
use crate::simulate::{evaluate, makespan, RunMetrics};
use crate::work::NodeWork;

/// Per-operator row of the trace.
#[derive(Clone, Debug)]
pub struct NodeReport {
    pub node: NodeId,
    pub op: &'static str,
    /// The optimizer's estimated output rows.
    pub est_rows: f64,
    /// The true output rows.
    pub true_rows: f64,
    /// Estimated per-operator cost.
    pub est_cost: f64,
    /// True work breakdown.
    pub work: NodeWork,
    /// Busiest-vertex data share.
    pub share: f64,
    pub dop: u32,
    /// Execution stage this operator runs in.
    pub stage: usize,
}

impl NodeReport {
    /// The cardinality q-error: `max(est/true, true/est)` (≥ 1; large
    /// values mark the estimates steering decisions went wrong on).
    pub fn q_error(&self) -> f64 {
        let est = self.est_rows.max(1.0);
        let truth = self.true_rows.max(1.0);
        (est / truth).max(truth / est)
    }
}

/// Per-stage summary.
#[derive(Clone, Debug)]
pub struct StageReport {
    pub stage: usize,
    pub elapsed: f64,
    pub dop: u32,
    pub deps: Vec<usize>,
}

/// The full trace of one simulated execution.
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    pub nodes: Vec<NodeReport>,
    pub stages: Vec<StageReport>,
    pub metrics: RunMetrics,
}

impl ExecutionTrace {
    /// Nodes sorted by cardinality q-error, worst first. Descending
    /// NaN-last (`nan_first_cmp` with swapped operands), so a corrupted
    /// row drops to the bottom instead of panicking the sort.
    pub fn worst_estimates(&self, n: usize) -> Vec<&NodeReport> {
        let mut refs: Vec<&NodeReport> = self.nodes.iter().collect();
        refs.sort_by(|a, b| scope_ir::stats::nan_first_cmp(b.q_error(), a.q_error()));
        refs.truncate(n);
        refs
    }

    /// Nodes sorted by elapsed contribution, hottest first (descending
    /// NaN-last, like [`Self::worst_estimates`]).
    pub fn hottest_nodes(&self, n: usize) -> Vec<&NodeReport> {
        let mut refs: Vec<&NodeReport> = self.nodes.iter().collect();
        refs.sort_by(|a, b| scope_ir::stats::nan_first_cmp(b.work.elapsed, a.work.elapsed));
        refs.truncate(n);
        refs
    }

    /// Render as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>5} {:<14} {:>12} {:>12} {:>8} {:>9} {:>9} {:>9} {:>8} {:>5}",
            "node",
            "stage",
            "op",
            "est rows",
            "true rows",
            "q-err",
            "cpu s",
            "io s",
            "elapsed",
            "share",
            "dop"
        );
        for r in &self.nodes {
            let _ = writeln!(
                out,
                "{:>4} {:>5} {:<14} {:>12.0} {:>12.0} {:>8.1} {:>9.2} {:>9.2} {:>9.2} {:>8.3} {:>5}",
                r.node.index(),
                r.stage,
                r.op,
                r.est_rows,
                r.true_rows,
                r.q_error(),
                r.work.cpu,
                r.work.io + r.work.net,
                r.work.elapsed,
                r.share,
                r.dop
            );
        }
        let _ = writeln!(
            out,
            "-- {} stages; runtime {:.1}s, cpu {:.1}s, io {:.1}s",
            self.stages.len(),
            self.metrics.runtime,
            self.metrics.cpu_time,
            self.metrics.io_time
        );
        out
    }
}

/// Produce the trace of a (noise-free) execution.
pub fn explain(plan: &PhysPlan, cat: &TrueCatalog, cluster: &ClusterConfig) -> ExecutionTrace {
    let eval = evaluate(plan, cat, cluster);
    let nodes = plan
        .reachable()
        .into_iter()
        .map(|id| {
            let n = plan.node(id);
            let truth = &eval.truths[id.index()];
            NodeReport {
                node: id,
                op: n.op.name(),
                est_rows: n.est_rows,
                true_rows: truth.rows,
                est_cost: n.est_cost,
                work: eval.works[id.index()],
                share: truth.share,
                dop: truth.dop,
                stage: eval.stages.node_stage[id.index()],
            }
        })
        .collect();
    let stage_reports = eval
        .stages
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| StageReport {
            stage: i,
            elapsed: s.elapsed,
            dop: s.dop,
            deps: s.deps.clone(),
        })
        .collect();
    ExecutionTrace {
        nodes,
        stages: stage_reports,
        metrics: RunMetrics {
            runtime: makespan(&eval.stages, cluster.tokens),
            ..eval.totals
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::execute_deterministic;
    use scope_ir::expr::{CmpOp, Literal, PredAtom, Predicate};
    use scope_ir::ids::DomainId;
    use scope_ir::ops::{AggFunc, JoinKind, LogicalOp};
    use scope_ir::{PlanGraph, TrueCatalog};
    use scope_optimizer::{compile, RuleConfig};

    fn compiled_job() -> (PhysPlan, TrueCatalog) {
        let mut cat = TrueCatalog::new();
        let k0 = cat.add_column(50_000, 0.3, DomainId(0));
        let a = cat.add_column(200, 0.0, DomainId(1));
        let k1 = cat.add_column(50_000, 0.0, DomainId(0));
        let b = cat.add_column(1_000, 0.0, DomainId(2));
        // A predicate whose truth diverges sharply from the Eq heuristic.
        let p = cat.add_pred(0.3, None);
        cat.add_table(50_000_000, 120, 11, vec![k0, a]);
        cat.add_table(800_000, 80, 22, vec![k1, b]);
        let mut g = PlanGraph::new();
        let s0 = g.add_unchecked(
            LogicalOp::Get {
                table: scope_ir::ids::TableId(0),
            },
            vec![],
        );
        let f = g.add_unchecked(
            LogicalOp::Select {
                predicate: Predicate::atom(PredAtom {
                    col: a,
                    op: CmpOp::Eq,
                    literal: Literal::Int(1),
                    pred: p,
                }),
            },
            vec![s0],
        );
        let s1 = g.add_unchecked(
            LogicalOp::Get {
                table: scope_ir::ids::TableId(1),
            },
            vec![],
        );
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
        let obs = cat.observe();
        let compiled = compile(&g, &obs, &RuleConfig::default_config()).unwrap();
        (compiled.plan, cat)
    }

    #[test]
    fn trace_metrics_match_execution() {
        let (plan, cat) = compiled_job();
        let cluster = ClusterConfig::noiseless();
        let trace = explain(&plan, &cat, &cluster);
        let direct = execute_deterministic(&plan, &cat, &cluster);
        assert!((trace.metrics.runtime - direct.runtime).abs() < 1e-9);
        assert!((trace.metrics.cpu_time - direct.cpu_time).abs() < 1e-9);
        assert!((trace.metrics.io_time - direct.io_time).abs() < 1e-9);
        assert_eq!(trace.nodes.len(), plan.reachable().len());
    }

    #[test]
    fn worst_estimates_surface_the_planted_misestimate() {
        let (plan, cat) = compiled_job();
        let trace = explain(&plan, &cat, &ClusterConfig::noiseless());
        let worst = trace.worst_estimates(3);
        // The Eq-heuristic vs 0.3-truth gap is ~77x and must rank first or
        // second (the join inherits it).
        assert!(worst[0].q_error() > 20.0, "q-error {}", worst[0].q_error());
        // Sorted descending.
        assert!(worst[0].q_error() >= worst[1].q_error());
    }

    #[test]
    fn hottest_nodes_and_render() {
        let (plan, cat) = compiled_job();
        let trace = explain(&plan, &cat, &ClusterConfig::noiseless());
        let hottest = trace.hottest_nodes(2);
        assert!(hottest[0].work.elapsed >= hottest[1].work.elapsed);
        let text = trace.render();
        assert!(text.contains("est rows"));
        assert!(text.contains("runtime"));
        assert!(text.lines().count() >= trace.nodes.len() + 2);
    }

    #[test]
    fn rankings_tolerate_nan_rows() {
        let (plan, cat) = compiled_job();
        let mut trace = explain(&plan, &cat, &ClusterConfig::noiseless());
        // A corrupted row: NaN elapsed poisons the hot-node ranking key.
        trace.nodes[0].work.elapsed = f64::NAN;
        let n = trace.nodes.len();
        let hottest = trace.hottest_nodes(n);
        assert_eq!(hottest.len(), n);
        // The poisoned row sinks to the bottom; the top stays finite and
        // descending.
        assert!(hottest[n - 1].work.elapsed.is_nan());
        assert!(hottest[0].work.elapsed.is_finite());
        for w in hottest[..n - 1].windows(2) {
            assert!(w[0].work.elapsed >= w[1].work.elapsed);
        }
        // worst_estimates stays total even with the corrupted row present.
        let worst = trace.worst_estimates(n);
        assert_eq!(worst.len(), n);
        for w in worst.windows(2) {
            assert!(w[0].q_error() >= w[1].q_error());
        }
    }

    #[test]
    fn stage_assignment_is_consistent() {
        let (plan, cat) = compiled_job();
        let trace = explain(&plan, &cat, &ClusterConfig::noiseless());
        for r in &trace.nodes {
            assert!(r.stage < trace.stages.len());
        }
        // At least two stages (there is a join with exchanges).
        assert!(trace.stages.len() >= 2);
    }
}
