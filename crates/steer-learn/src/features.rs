//! The feature vector of §7.2: job-level features, per-configuration
//! features (estimated cost + RuleDiff bit vector), and per-operator
//! query-graph slots.

use scope_ir::{Job, OpKind};
use scope_optimizer::{CompiledPlan, RuleDiff, RuleSignature, NUM_RULES};

use crate::encode::{hash_bin, one_hot, HASH_BINS};

/// Per-operator-kind slots: count, mean estimated cost, log mean estimated
/// rows.
const GRAPH_SLOT_WIDTH: usize = 3;

/// Dimensionality of the job-level + query-graph part.
pub(crate) fn job_feature_dim() -> usize {
    // log bytes, #inputs, input-name multi-hot, template one-hot, graph slots.
    2 + HASH_BINS + HASH_BINS + OpKind::COUNT * GRAPH_SLOT_WIDTH
}

/// Dimensionality of one configuration's features.
pub(crate) fn config_feature_dim() -> usize {
    1 + NUM_RULES
}

/// Total raw feature dimensionality for `k` candidate configurations.
pub fn feature_dim(k: usize) -> usize {
    job_feature_dim() + k * config_feature_dim()
}

/// Job-level + query-graph features, computed from the job and its
/// default-configuration compilation.
pub(crate) fn job_features(job: &Job, default: &CompiledPlan) -> Vec<f64> {
    let mut out = vec![0.0; job_feature_dim()];
    out[0] = (job.total_input_bytes() as f64 + 1.0).ln();
    out[1] = job.inputs.len() as f64;
    // Input-name hashing (multi-hot over 50 bins).
    let mut offset = 2;
    for input in &job.inputs {
        out[offset + hash_bin(input.name_hash)] = 1.0;
    }
    offset += HASH_BINS;
    one_hot(&mut out, offset, HASH_BINS, hash_bin(job.template.0));
    offset += HASH_BINS;
    // Query-graph slots from the default physical plan.
    let mut counts = [0.0f64; OpKind::COUNT];
    let mut cost_sums = [0.0f64; OpKind::COUNT];
    let mut row_sums = [0.0f64; OpKind::COUNT];
    for id in default.plan.reachable() {
        let node = default.plan.node(id);
        let slot = phys_slot(node.op.name());
        counts[slot] += 1.0;
        cost_sums[slot] += node.est_cost;
        row_sums[slot] += node.est_rows;
    }
    for kind in 0..OpKind::COUNT {
        let base = offset + kind * GRAPH_SLOT_WIDTH;
        out[base] = counts[kind];
        if counts[kind] > 0.0 {
            out[base + 1] = cost_sums[kind] / counts[kind];
            out[base + 2] = (row_sums[kind] / counts[kind] + 1.0).ln();
        }
    }
    out
}

/// Map a physical operator name to a logical slot (several physical
/// implementations share a logical operator's slot).
fn phys_slot(name: &str) -> usize {
    let kind = match name {
        "Scan" => OpKind::RangeGet,
        "Filter" => OpKind::Filter,
        "Project" => OpKind::Project,
        "HashJoin" | "MergeJoin" | "BroadcastJoin" | "LoopJoin" | "IndexJoin" => OpKind::Join,
        "HashAgg" | "SortAgg" | "StreamAgg" => OpKind::GroupBy,
        "UnionAll" => OpKind::UnionAll,
        "VirtualDataset" => OpKind::VirtualDataset,
        "Top" => OpKind::Top,
        "Sort" => OpKind::Sort,
        "Window" => OpKind::Window,
        "Process" => OpKind::Process,
        "Output" => OpKind::Output,
        // Exchanges land in the (otherwise unused) pre-normalization slot.
        _ => OpKind::Get,
    };
    kind as usize
}

/// Per-configuration features: log estimated cost plus the RuleDiff vector
/// against the default signature.
pub(crate) fn config_features(
    default_signature: &RuleSignature,
    est_cost: f64,
    signature: &RuleSignature,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(config_feature_dim());
    out.push((est_cost + 1.0).ln());
    out.extend(RuleDiff::between(default_signature, signature).to_feature_vec());
    out
}

/// Assemble the full raw feature vector for one sample.
pub(crate) fn assemble(job_feats: &[f64], per_config: &[Vec<f64>]) -> Vec<f64> {
    let mut out = Vec::with_capacity(job_feats.len() + per_config.len() * config_feature_dim());
    out.extend_from_slice(job_feats);
    for cf in per_config {
        out.extend_from_slice(cf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::ids::JobId;
    use scope_ir::{InputRef, PlanGraph, TrueCatalog};
    use scope_optimizer::{compile, RuleConfig};

    fn tiny_job() -> Job {
        let mut cat = TrueCatalog::new();
        let c = cat.add_column(100, 0.0, scope_ir::ids::DomainId(0));
        cat.add_table(1_000_000, 100, 7, vec![c]);
        let mut g = PlanGraph::new();
        let s = g.add_unchecked(
            scope_ir::LogicalOp::Get {
                table: scope_ir::ids::TableId(0),
            },
            vec![],
        );
        let o = g.add_unchecked(scope_ir::LogicalOp::Output { stream: 1 }, vec![s]);
        g.set_root(o);
        Job::new(
            JobId(1),
            g,
            cat,
            vec![InputRef {
                name_hash: 7,
                bytes: 100_000_000,
            }],
            0,
            50,
        )
    }

    #[test]
    fn job_features_have_documented_shape() {
        let job = tiny_job();
        let obs = job.catalog.observe();
        let compiled = compile(&job.plan, &obs, &RuleConfig::default_config()).unwrap();
        let f = job_features(&job, &compiled);
        assert_eq!(f.len(), job_feature_dim());
        assert!(f[0] > 0.0, "log bytes");
        assert_eq!(f[1], 1.0, "one input");
        // Exactly one input bin and one template bin set.
        let input_bins: f64 = f[2..2 + HASH_BINS].iter().sum();
        assert_eq!(input_bins, 1.0);
        let tmpl_bins: f64 = f[2 + HASH_BINS..2 + 2 * HASH_BINS].iter().sum();
        assert_eq!(tmpl_bins, 1.0);
        // Scan and Output slots are populated.
        let base = 2 + 2 * HASH_BINS;
        assert!(f[base + (OpKind::RangeGet as usize) * 3] >= 1.0);
        assert!(f[base + (OpKind::Output as usize) * 3] >= 1.0);
    }

    #[test]
    fn config_features_embed_rulediff() {
        let job = tiny_job();
        let obs = job.catalog.observe();
        let default = compile(&job.plan, &obs, &RuleConfig::default_config()).unwrap();
        let same = config_features(&default.signature, default.est_cost, &default.signature);
        assert_eq!(same.len(), config_feature_dim());
        assert!(same[1..].iter().all(|&v| v == 0.0), "no diff vs itself");
    }

    #[test]
    fn assemble_concatenates() {
        let jf = vec![1.0; job_feature_dim()];
        let cf = vec![vec![2.0; config_feature_dim()]; 3];
        let full = assemble(&jf, &cf);
        assert_eq!(full.len(), feature_dim(3));
        assert_eq!(full[job_feature_dim()], 2.0);
    }
}
