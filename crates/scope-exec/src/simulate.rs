//! Stage construction, token-limited scheduling, and job-level metrics.
//!
//! A physical plan is cut into *stages* at exchange/materialization
//! boundaries. Stage wall time is the sum of its nodes' busiest-vertex
//! elapsed times, multiplied by the wave factor when the stage's
//! parallelism exceeds the job's tokens. Job runtime is the critical-path
//! finish time of the output stage; CPU time and IO time aggregate over all
//! vertices, mirroring the paper's three metrics (§3.1.2).

use rand::Rng;

use scope_ir::stats::lognormal;
use scope_ir::TrueCatalog;
use scope_optimizer::PhysPlan;

use crate::cluster::ClusterConfig;
use crate::truth::{replay, NodeTruth};
use crate::work::{node_work, NodeWork};

/// Fixed scheduling overhead per stage (seconds).
pub(crate) const STAGE_OVERHEAD_S: f64 = 2.0;
/// Additional scheduling overhead per vertex wave.
pub(crate) const WAVE_OVERHEAD_S: f64 = 0.8;

/// Vertex waves a stage of the given parallelism needs under a token
/// limit (shared by the fault-free and faulted schedulers).
pub(crate) fn waves_for_tokens(dop: u32, tokens: u32) -> f64 {
    (dop as f64 / tokens.max(1) as f64).ceil().max(1.0)
}

/// The paper's three metrics (§3.1.2) in seconds, plus the peak per-vertex
/// working set in bytes (the feedback loop's memory signal).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Wall-clock latency of the job.
    pub runtime: f64,
    /// Total CPU time across all vertices.
    pub cpu_time: f64,
    /// Total IO time (reads, writes, spills, shuffles).
    pub io_time: f64,
    /// Peak per-vertex working-set bytes across all operators. Not a time:
    /// it gets no lognormal noise (working sets are a property of the data,
    /// not of cluster weather), and timeout-truncated runs report the peak
    /// reached, unscaled.
    pub memory: f64,
}

impl RunMetrics {
    /// Fetch one metric. The match arms, `RunMetrics::as_array`, and
    /// [`Metric::ALL`] must all list components in the same order — the
    /// `metric_selector_roundtrip` test checks every variant mechanically.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Runtime => self.runtime,
            Metric::CpuTime => self.cpu_time,
            Metric::IoTime => self.io_time,
            Metric::Memory => self.memory,
        }
    }

    /// All components in [`Metric::ALL`] order.
    pub(crate) fn as_array(&self) -> [f64; Metric::ALL.len()] {
        [self.runtime, self.cpu_time, self.io_time, self.memory]
    }

    /// All metrics are finite and non-negative. Every simulator path
    /// must uphold this — downstream ranking code orders by these values
    /// and must never see NaN.
    pub fn is_valid(&self) -> bool {
        self.as_array().iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

/// Metric selector used by the multi-metric experiments (Figure 7).
/// `Memory` is appended after the paper's three so positional consumers of
/// the original triple keep their indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    Runtime,
    CpuTime,
    IoTime,
    Memory,
}

impl Metric {
    pub const ALL: [Metric; 4] = [
        Metric::Runtime,
        Metric::CpuTime,
        Metric::IoTime,
        Metric::Memory,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Metric::Runtime => "runtime",
            Metric::CpuTime => "cpu_time",
            Metric::IoTime => "io_time",
            Metric::Memory => "memory",
        }
    }
}

/// One execution stage.
#[derive(Clone, Debug, Default)]
pub struct Stage {
    /// Sum of member nodes' busiest-vertex elapsed seconds.
    pub elapsed: f64,
    /// Maximum parallelism among member nodes.
    pub dop: u32,
    /// Stages that must finish before this one starts.
    pub deps: Vec<usize>,
}

/// The stage decomposition of a plan (exposed for tests and diagnostics).
pub struct StageGraph {
    pub stages: Vec<Stage>,
    /// Stage of each plan node (by node id index; unreachable nodes get 0).
    pub node_stage: Vec<usize>,
    /// Stage containing the root.
    pub root_stage: usize,
}

/// Build the stage graph and accumulate per-node work into stages.
pub(crate) fn build_stages(
    plan: &PhysPlan,
    truths: &[NodeTruth],
    works: &[NodeWork],
) -> StageGraph {
    let mut stages: Vec<Stage> = Vec::new();
    let mut node_stage = vec![0usize; plan.len()];
    let reachable = plan.reachable();
    for &id in &reachable {
        let node = plan.node(id);
        let mut chosen: Option<usize> = None;
        let mut deps: Vec<usize> = Vec::new();
        for &c in &node.children {
            let cs = node_stage[c.index()];
            if plan.node(c).op.is_stage_boundary() {
                // Consumers of a boundary run in a fresh stage that depends
                // on the producer's stage.
                deps.push(cs);
            } else if let Some(s) = chosen {
                if s != cs {
                    // Two pipelines meet without an exchange (e.g. a
                    // streaming union): treat the other as a dependency.
                    deps.push(cs);
                }
            } else {
                chosen = Some(cs);
            }
        }
        let sid = match chosen {
            Some(s) => {
                // Several nodes of one stage can consume the same producer
                // stage; record each dependency once.
                for d in deps {
                    if d != s && !stages[s].deps.contains(&d) {
                        stages[s].deps.push(d);
                    }
                }
                s
            }
            None => {
                deps.sort_unstable();
                deps.dedup();
                let sid = stages.len();
                stages.push(Stage {
                    elapsed: 0.0,
                    dop: 1,
                    deps,
                });
                sid
            }
        };
        node_stage[id.index()] = sid;
        let stage = &mut stages[sid];
        stage.elapsed += works[id.index()].elapsed;
        stage.dop = stage.dop.max(truths[id.index()].dop);
    }
    let root_stage = plan.root().map(|r| node_stage[r.index()]).unwrap_or(0);
    // Producer-side enforcement of the RunMetrics contract: stage elapsed
    // times are built from NodeWork and must already be finite and
    // non-negative here, so a poisoned work model is caught where it enters
    // the scheduler instead of panicking a downstream comparator.
    debug_assert!(
        stages
            .iter()
            .all(|s| s.elapsed.is_finite() && s.elapsed >= 0.0),
        "stage elapsed times must be finite and non-negative"
    );
    StageGraph {
        stages,
        node_stage,
        root_stage,
    }
}

/// Critical-path makespan under the token limit.
pub fn makespan(stages: &StageGraph, tokens: u32) -> f64 {
    let n = stages.stages.len();
    let mut finish = vec![0.0_f64; n];
    // Stages were created in topological order (children before parents).
    for (i, stage) in stages.stages.iter().enumerate() {
        let start = stage
            .deps
            .iter()
            .map(|&d| finish[d])
            .fold(0.0_f64, f64::max);
        let waves = waves_for_tokens(stage.dop, tokens);
        let time = stage.elapsed * waves + STAGE_OVERHEAD_S + WAVE_OVERHEAD_S * waves;
        finish[i] = start + time;
    }
    let runtime = finish
        .get(stages.root_stage)
        .copied()
        .unwrap_or(STAGE_OVERHEAD_S);
    debug_assert!(
        runtime.is_finite() && runtime >= 0.0,
        "makespan must be finite and non-negative: {runtime}"
    );
    runtime
}

/// Execute a plan deterministically (no noise).
pub fn execute_deterministic(
    plan: &PhysPlan,
    cat: &TrueCatalog,
    cluster: &ClusterConfig,
) -> RunMetrics {
    let truths = replay(plan, cat);
    let mut works = vec![NodeWork::default(); plan.len()];
    for id in plan.reachable() {
        let node = plan.node(id);
        let children: Vec<&NodeTruth> = node.children.iter().map(|c| &truths[c.index()]).collect();
        works[id.index()] = node_work(&node.op, &truths[id.index()], &children, cat, cluster);
    }
    let stages = build_stages(plan, &truths, &works);
    let runtime = makespan(&stages, cluster.tokens);
    let mut cpu = 0.0;
    let mut io = 0.0;
    let mut mem = 0.0_f64;
    for id in plan.reachable() {
        cpu += works[id.index()].cpu;
        io += works[id.index()].io + works[id.index()].net;
        mem = mem.max(works[id.index()].mem);
    }
    let metrics = RunMetrics {
        runtime,
        cpu_time: cpu,
        io_time: io,
        memory: mem,
    };
    debug_assert!(
        metrics.is_valid(),
        "deterministic metrics must stay finite and non-negative: {metrics:?}"
    );
    scope_trace::count(scope_trace::Counter::ExecRuns, 1);
    if scope_trace::enabled() {
        scope_trace::record(
            scope_trace::Histogram::ExecSimulatedMillis,
            (metrics.runtime * 1000.0) as u64,
        );
        for stage in &stages.stages {
            scope_trace::record(
                scope_trace::Histogram::StageSimulatedMillis,
                (stage.elapsed * 1000.0) as u64,
            );
        }
    }
    metrics
}

/// Execute with multiplicative lognormal noise (mean-one), modelling the
/// cluster variance described in §3.1.1.
pub(crate) fn execute<R: Rng + ?Sized>(
    plan: &PhysPlan,
    cat: &TrueCatalog,
    cluster: &ClusterConfig,
    rng: &mut R,
) -> RunMetrics {
    let base = execute_deterministic(plan, cat, cluster);
    let sigma = cluster.sigma_for_runtime(base.runtime);
    if sigma == 0.0 {
        return base;
    }
    let mean_one = |rng: &mut R, s: f64| lognormal(rng, -s * s / 2.0, s);
    // Exactly three draws, same order as before the memory metric was
    // added: the RNG stream feeding every seed-stable test must not shift.
    let metrics = RunMetrics {
        runtime: base.runtime * mean_one(rng, sigma),
        cpu_time: base.cpu_time * mean_one(rng, sigma * 0.5),
        io_time: base.io_time * mean_one(rng, sigma * 0.5),
        memory: base.memory,
    };
    debug_assert!(
        metrics.is_valid(),
        "noisy metrics must stay finite and non-negative: {metrics:?}"
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scope_ir::expr::Predicate;
    use scope_ir::ids::{ColId, DomainId, TableId};
    use scope_optimizer::{Partitioning, PhysNode, PhysOp};

    fn node(op: PhysOp, children: Vec<scope_ir::ids::NodeId>) -> PhysNode {
        PhysNode {
            op,
            children,
            est_rows: 0.0,
            est_bytes: 0.0,
            est_cost: 0.0,
            est_cost_vec: Default::default(),
            partitioning: Partitioning::Any,
            dop: 1,
            created_by: None,
            logical_rule: None,
        }
    }

    fn two_stage_plan() -> (PhysPlan, TrueCatalog) {
        let mut cat = TrueCatalog::new();
        let c = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(10_000_000, 100, 1, vec![c]);
        let mut p = PhysPlan::new();
        let scan = p.add(node(
            PhysOp::Scan {
                table: TableId(0),
                pushed: Predicate::true_pred(),
                parallel: true,
                indexed: false,
            },
            vec![],
        ));
        let ex = p.add(node(
            PhysOp::Exchange {
                scheme: Partitioning::Hash(vec![ColId(0)]),
                dop: 50,
            },
            vec![scan],
        ));
        let agg = p.add(node(
            PhysOp::HashAgg {
                keys: vec![ColId(0)],
                aggs: vec![],
                partial: false,
            },
            vec![ex],
        ));
        let out = p.add(node(PhysOp::Output { stream: 0 }, vec![agg]));
        p.set_root(out);
        (p, cat)
    }

    #[test]
    fn stage_cut_at_exchange() {
        let (plan, cat) = two_stage_plan();
        let cluster = ClusterConfig::noiseless();
        let truths = replay(&plan, &cat);
        let mut works = vec![NodeWork::default(); plan.len()];
        for id in plan.reachable() {
            let n = plan.node(id);
            let ch: Vec<&NodeTruth> = n.children.iter().map(|c| &truths[c.index()]).collect();
            works[id.index()] = node_work(&n.op, &truths[id.index()], &ch, &cat, &cluster);
        }
        let stages = build_stages(&plan, &truths, &works);
        // Stage 0: scan + exchange (producer side). Stage 1: agg + output.
        assert_eq!(stages.stages.len(), 2);
        assert_eq!(stages.node_stage[0], 0);
        assert_eq!(stages.node_stage[1], 0);
        assert_eq!(stages.node_stage[2], 1);
        assert_eq!(stages.node_stage[3], 1);
        assert_eq!(stages.stages[1].deps, vec![0]);
        assert_eq!(stages.root_stage, 1);
    }

    #[test]
    fn makespan_respects_dependencies_and_waves() {
        let g = StageGraph {
            stages: vec![
                Stage {
                    elapsed: 10.0,
                    dop: 50,
                    deps: vec![],
                },
                Stage {
                    elapsed: 5.0,
                    dop: 100,
                    deps: vec![0],
                },
            ],
            node_stage: vec![],
            root_stage: 1,
        };
        let m50 = makespan(&g, 50);
        // Stage 1 at dop 100 with 50 tokens runs in 2 waves.
        let expected = (10.0 + STAGE_OVERHEAD_S + WAVE_OVERHEAD_S)
            + (5.0 * 2.0 + STAGE_OVERHEAD_S + 2.0 * WAVE_OVERHEAD_S);
        assert!((m50 - expected).abs() < 1e-9);
        // More tokens → no waves → faster.
        assert!(makespan(&g, 100) < m50);
    }

    #[test]
    fn execution_is_deterministic_without_noise() {
        let (plan, cat) = two_stage_plan();
        let cluster = ClusterConfig::noiseless();
        let a = execute_deterministic(&plan, &cat, &cluster);
        let b = execute_deterministic(&plan, &cat, &cluster);
        assert_eq!(a, b);
        assert!(a.runtime > 0.0);
        assert!(a.cpu_time > 0.0);
        assert!(a.io_time > 0.0);
    }

    #[test]
    fn noise_is_seed_stable_and_mean_one_ish() {
        let (plan, cat) = two_stage_plan();
        let cluster = ClusterConfig::ab_testing();
        let base = execute_deterministic(&plan, &cat, &cluster);
        let mut rng = StdRng::seed_from_u64(42);
        let a = execute(&plan, &cat, &cluster, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(42);
        let b = execute(&plan, &cat, &cluster, &mut rng2);
        assert_eq!(a, b);
        // Mean-one noise: across many trials the average is close to base.
        let mut rng = StdRng::seed_from_u64(7);
        let mean: f64 = (0..500)
            .map(|_| execute(&plan, &cat, &cluster, &mut rng).runtime)
            .sum::<f64>()
            / 500.0;
        assert!((mean / base.runtime - 1.0).abs() < 0.05);
    }

    #[test]
    fn metric_selector_roundtrip() {
        // Distinct value per field so any ordering mix-up between the
        // struct, `get`, `as_array`, and `Metric::ALL` fails loudly.
        let m = RunMetrics {
            runtime: 1.0,
            cpu_time: 2.0,
            io_time: 3.0,
            memory: 4.0,
        };
        assert_eq!(m.get(Metric::Runtime), 1.0);
        assert_eq!(m.get(Metric::CpuTime), 2.0);
        assert_eq!(m.get(Metric::IoTime), 3.0);
        assert_eq!(m.get(Metric::Memory), 4.0);
        assert_eq!(Metric::ALL.len(), 4);
        // Exhaustive per-variant consistency: as_array's slot i IS
        // get(ALL[i]), and names stay unique.
        let arr = m.as_array();
        for (i, metric) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(arr[i], m.get(metric), "slot {i} ({})", metric.name());
        }
        let names: std::collections::BTreeSet<&str> =
            Metric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn memory_metric_tracks_peak_working_set_without_noise() {
        let (plan, cat) = two_stage_plan();
        let det = execute_deterministic(&plan, &cat, &ClusterConfig::noiseless());
        assert!(det.memory > 0.0, "hash agg build must report a working set");
        // Noise perturbs the three time metrics but never the byte peak.
        let cluster = ClusterConfig::ab_testing();
        let base = execute_deterministic(&plan, &cat, &cluster);
        let mut rng = StdRng::seed_from_u64(9);
        let noisy = execute(&plan, &cat, &cluster, &mut rng);
        assert_ne!(noisy.runtime, base.runtime);
        assert_eq!(noisy.memory, base.memory);
    }
}
