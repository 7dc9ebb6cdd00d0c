//! The *true* per-operator work model: CPU, IO, network, and busiest-vertex
//! elapsed time, computed from ground-truth properties.
//!
//! The constants match the optimizer's cost model — the divergence between
//! estimate and truth comes from cardinalities (correlation), skew (busiest
//! vertex), spills (memory cliffs) and true UDO cost, not from different
//! unit prices.

use scope_ir::TrueCatalog;
use scope_optimizer::cost::{C_CPU_ROW, C_HASH_ROW, C_IO, C_NET, C_SORT_ROW, C_UDO_ROW};
use scope_optimizer::{Partitioning, PhysOp};

use crate::cluster::ClusterConfig;
use crate::truth::NodeTruth;

/// Work done by one physical node, aggregated over all its vertices.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeWork {
    /// Total CPU seconds across vertices.
    pub cpu: f64,
    /// Total IO seconds (reads, writes, spills).
    pub io: f64,
    /// Total network seconds (shuffles, broadcasts, gathers).
    pub net: f64,
    /// Wall-clock seconds on the busiest vertex (the stage critical path
    /// contribution of this node).
    pub elapsed: f64,
    /// Peak per-vertex working-set bytes (hash builds, sort buffers,
    /// broadcast copies). Zero for streaming operators.
    pub mem: f64,
}

fn log2(rows: f64) -> f64 {
    rows.max(2.0).log2()
}

/// Spill factor for a per-vertex build of `build_pv` bytes: `0` when it
/// fits, growing linearly beyond the memory budget.
fn spill_ratio(build_pv: f64, mem: f64) -> f64 {
    ((build_pv - mem) / mem).max(0.0)
}

/// Compute the true work of `op`.
pub(crate) fn node_work(
    op: &PhysOp,
    own: &NodeTruth,
    children: &[&NodeTruth],
    cat: &TrueCatalog,
    cluster: &ClusterConfig,
) -> NodeWork {
    let c0 = children.first();
    let in_rows: f64 = children.iter().map(|c| c.rows).sum();
    let in_bytes: f64 = children.iter().map(|c| c.bytes).sum();
    let share = c0.map(|c| c.share).unwrap_or(1.0);
    match op {
        PhysOp::Scan {
            table,
            pushed,
            parallel,
            indexed,
        } => {
            let t = cat.tables.get(table.index());
            let raw_rows = t.map(|t| t.rows as f64).unwrap_or(0.0);
            let raw_bytes = raw_rows * t.map(|t| t.row_bytes as f64).unwrap_or(100.0);
            let read_bytes = if *indexed && !pushed.is_true() {
                (own.bytes * 2.0).min(raw_bytes)
            } else {
                raw_bytes
            };
            let io = read_bytes * C_IO;
            let cpu = raw_rows * C_CPU_ROW * (1.0 + pushed.len() as f64 * 0.2);
            let per_vertex = if *parallel { 1.0 / own.dop as f64 } else { 1.0 };
            NodeWork {
                cpu,
                io,
                net: 0.0,
                elapsed: (io + cpu) * per_vertex,
                mem: 0.0,
            }
        }
        PhysOp::Filter { predicate } => {
            let cpu = in_rows * C_CPU_ROW * (1.0 + predicate.len() as f64 * 0.2);
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * share,
                mem: 0.0,
            }
        }
        PhysOp::Project { computed, .. } => {
            let cpu = in_rows * C_CPU_ROW * (1.0 + *computed as f64);
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * share,
                mem: 0.0,
            }
        }
        PhysOp::HashJoin { .. } => {
            let l = children[0];
            let r = children[1];
            let join_share = l.share.max(r.share);
            let build_pv = r.bytes * r.share;
            let spill = spill_ratio(build_pv, cluster.mem_per_vertex);
            let cpu = (l.rows + r.rows) * C_HASH_ROW * (1.0 + 0.3 * spill);
            let spill_io = 2.0 * (build_pv - cluster.mem_per_vertex).max(0.0) * C_IO;
            NodeWork {
                cpu,
                io: spill_io,
                net: 0.0,
                elapsed: cpu * join_share + spill_io,
                mem: build_pv,
            }
        }
        PhysOp::MergeJoin { .. } => {
            let l = children[0];
            let r = children[1];
            let join_share = l.share.max(r.share);
            let cpu = l.rows * log2(l.rows * l.share) * C_SORT_ROW
                + r.rows * log2(r.rows * r.share) * C_SORT_ROW
                + (l.rows + r.rows) * C_CPU_ROW;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * join_share,
                mem: l.bytes * l.share + r.bytes * r.share,
            }
        }
        PhysOp::BroadcastJoin { .. } => {
            let l = children[0];
            let r = children[1];
            // Every probe vertex builds the full right side.
            let build_each = r.rows * C_HASH_ROW;
            let spill = spill_ratio(r.bytes, cluster.mem_per_vertex);
            let probe = l.rows * C_HASH_ROW;
            let spill_io_each = 2.0 * (r.bytes - cluster.mem_per_vertex).max(0.0) * C_IO;
            let dop = l.dop.max(1) as f64;
            NodeWork {
                cpu: probe + build_each * dop * (1.0 + 0.3 * spill),
                io: spill_io_each * dop,
                net: 0.0,
                elapsed: probe * l.share + build_each * (1.0 + 0.3 * spill) + spill_io_each,
                mem: r.bytes,
            }
        }
        PhysOp::LoopJoin { .. } => {
            let l = children[0];
            let r = children[1];
            let cpu = l.rows * r.rows * 0.02e-6;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu,
                mem: r.bytes * r.share,
            }
        }
        PhysOp::IndexJoin { .. } => {
            let l = children[0];
            let r = children[1];
            let cpu = l.rows * log2(r.rows) * 0.8e-6 + r.rows * C_CPU_ROW * 0.1;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * l.share.max(1.0 / l.dop.max(1) as f64),
                mem: 0.0,
            }
        }
        PhysOp::HashAgg { .. }
        | PhysOp::Window {
            hash_based: true, ..
        } => {
            let build_pv = in_bytes * share;
            let spill = spill_ratio(build_pv, cluster.mem_per_vertex);
            let cpu = in_rows * C_HASH_ROW * (1.0 + 0.3 * spill);
            let spill_io = 2.0 * (build_pv - cluster.mem_per_vertex).max(0.0) * C_IO;
            NodeWork {
                cpu,
                io: spill_io,
                net: 0.0,
                elapsed: cpu * share + spill_io,
                mem: build_pv,
            }
        }
        PhysOp::SortAgg { .. }
        | PhysOp::Window {
            hash_based: false, ..
        } => {
            let cpu = in_rows * log2(in_rows * share) * C_SORT_ROW;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * share,
                mem: in_bytes * share,
            }
        }
        PhysOp::StreamAgg { .. } => {
            let cpu = in_rows * C_CPU_ROW * 0.8;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * share,
                mem: 0.0,
            }
        }
        PhysOp::UnionAll { serial } => {
            let cpu = in_rows * C_CPU_ROW * 0.1;
            let s = if *serial {
                1.0
            } else {
                children.iter().map(|c| c.share).fold(0.0, f64::max)
            };
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: cpu * s,
                mem: 0.0,
            }
        }
        PhysOp::VirtualDataset => {
            // Write by producers (at their skew), read back uniformly.
            let write = in_bytes * C_IO;
            let read = in_bytes * C_IO;
            let in_share = children.iter().map(|c| c.share).fold(0.0, f64::max);
            NodeWork {
                cpu: in_rows * C_CPU_ROW * 0.1,
                io: write + read,
                net: 0.0,
                elapsed: write * in_share + read / own.dop.max(1) as f64,
                mem: 0.0,
            }
        }
        PhysOp::Top { k, heap } => {
            let kf = *k as f64;
            if *heap {
                let cpu = in_rows * C_CPU_ROW + kf * log2(kf) * C_SORT_ROW;
                let row_bytes = in_bytes / in_rows.max(1.0);
                NodeWork {
                    cpu,
                    io: 0.0,
                    net: 0.0,
                    elapsed: in_rows * C_CPU_ROW * share + kf * log2(kf) * C_SORT_ROW,
                    mem: kf * row_bytes,
                }
            } else {
                let cpu = in_rows * log2(in_rows) * C_SORT_ROW;
                NodeWork {
                    cpu,
                    io: 0.0,
                    net: 0.0,
                    elapsed: cpu,
                    mem: in_bytes,
                }
            }
        }
        PhysOp::Sort { parallel, .. } => {
            let cpu = in_rows * log2(in_rows * if *parallel { share } else { 1.0 }) * C_SORT_ROW;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: if *parallel { cpu * share } else { cpu },
                mem: in_bytes * if *parallel { share } else { 1.0 },
            }
        }
        PhysOp::Process { udo, parallel } => {
            let truth = cat.udo_truth(*udo);
            let cpu = in_rows * truth.cpu_per_row * C_UDO_ROW;
            NodeWork {
                cpu,
                io: 0.0,
                net: 0.0,
                elapsed: if *parallel { cpu * share } else { cpu },
                mem: 0.0,
            }
        }
        PhysOp::Output { .. } => {
            let io = in_bytes * C_IO;
            NodeWork {
                cpu: 0.0,
                io,
                net: 0.0,
                elapsed: io * share,
                mem: 0.0,
            }
        }
        PhysOp::Exchange { scheme, dop } => {
            let volume = match scheme {
                Partitioning::Broadcast => in_bytes * (*dop).max(1) as f64,
                _ => in_bytes,
            };
            let net = volume * C_NET;
            let recv_share = own.share;
            let send_share = share;
            NodeWork {
                cpu: in_rows * C_CPU_ROW * 0.2,
                io: 0.0,
                net,
                elapsed: net * send_share.max(recv_share).max(1.0 / (*dop).max(1) as f64),
                mem: 0.0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::ids::ColId;
    use scope_ir::JoinKind;

    fn t(rows: f64, bytes: f64, share: f64, dop: u32) -> NodeTruth {
        NodeTruth {
            rows,
            bytes,
            share,
            dop,
        }
    }

    fn hj() -> PhysOp {
        PhysOp::HashJoin {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
            variant: 1,
        }
    }

    #[test]
    fn skew_inflates_elapsed_not_cpu() {
        let cat = TrueCatalog::new();
        let cluster = ClusterConfig::ab_testing();
        let own = t(1e6, 1e8, 0.02, 50);
        let uniform_l = t(1e7, 1e9, 0.02, 50);
        let uniform_r = t(1e6, 1e8, 0.02, 50);
        let skewed_l = t(1e7, 1e9, 0.5, 50);
        let w_uniform = node_work(&hj(), &own, &[&uniform_l, &uniform_r], &cat, &cluster);
        let w_skewed = node_work(&hj(), &own, &[&skewed_l, &uniform_r], &cat, &cluster);
        assert!((w_uniform.cpu - w_skewed.cpu).abs() < 1e-9);
        assert!(w_skewed.elapsed > w_uniform.elapsed * 10.0);
    }

    #[test]
    fn hash_join_spills_beyond_memory() {
        let cat = TrueCatalog::new();
        let cluster = ClusterConfig::ab_testing();
        let own = t(1e6, 1e8, 0.02, 50);
        let l = t(1e6, 1e8, 0.02, 50);
        let fits = t(1e6, 1e8, 0.02, 50); // 2 MB per vertex
        let too_big = t(1e9, 4e11, 0.02, 50); // 8 GB per vertex
        let w_fit = node_work(&hj(), &own, &[&l, &fits], &cat, &cluster);
        let w_spill = node_work(&hj(), &own, &[&l, &too_big], &cat, &cluster);
        assert_eq!(w_fit.io, 0.0);
        assert!(w_spill.io > 0.0);
    }

    #[test]
    fn broadcast_join_pays_per_vertex_build() {
        let cat = TrueCatalog::new();
        let cluster = ClusterConfig::ab_testing();
        let own = t(1e6, 1e8, 0.02, 50);
        let l = t(1e7, 1e9, 0.02, 50);
        let small_r = t(1e3, 1e5, 1.0, 1);
        let big_r = t(1e8, 1e10, 1.0, 1);
        let op = PhysOp::BroadcastJoin {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let w_small = node_work(&op, &own, &[&l, &small_r], &cat, &cluster);
        let w_big = node_work(&op, &own, &[&l, &big_r], &cat, &cluster);
        assert!(w_big.cpu > w_small.cpu * 100.0);
        assert!(w_big.io > 0.0, "oversized broadcast build must spill");
    }

    #[test]
    fn broadcast_exchange_moves_dop_copies() {
        let cat = TrueCatalog::new();
        let cluster = ClusterConfig::ab_testing();
        let own = t(1e6, 1e8, 1.0, 50);
        let child = t(1e6, 1e8, 0.02, 50);
        let bcast = PhysOp::Exchange {
            scheme: Partitioning::Broadcast,
            dop: 50,
        };
        let hash = PhysOp::Exchange {
            scheme: Partitioning::Hash(vec![ColId(0)]),
            dop: 50,
        };
        let w_b = node_work(&bcast, &own, &[&child], &cat, &cluster);
        let w_h = node_work(&hash, &own, &[&child], &cat, &cluster);
        assert!(w_b.net > w_h.net * 10.0);
    }

    #[test]
    fn true_udo_cost_differs_from_default() {
        let mut cat = TrueCatalog::new();
        let heavy = cat.add_udo(40.0, 1.0);
        let cluster = ClusterConfig::ab_testing();
        let own = t(1e6, 1e8, 0.02, 50);
        let child = t(1e6, 1e8, 0.02, 50);
        let w = node_work(
            &PhysOp::Process {
                udo: heavy,
                parallel: true,
            },
            &own,
            &[&child],
            &cat,
            &cluster,
        );
        let w_default = node_work(
            &PhysOp::Process {
                udo: scope_ir::ids::UdoId(99),
                parallel: true,
            },
            &own,
            &[&child],
            &cat,
            &cluster,
        );
        assert!((w.cpu / w_default.cpu - 40.0).abs() < 1e-6);
    }
}
