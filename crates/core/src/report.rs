//! Summary statistics over pipeline outcomes (Table 3 and the §6.2
//! narrative numbers).

use scope_ir::stats::mean;

use crate::pipeline::JobOutcome;

/// Table 3's per-workload row: mean runtime change (seconds and percent)
/// when always choosing the best-known configuration (which may be the
/// default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestKnownSummary {
    pub n_jobs: usize,
    /// Mean of (best − default) runtime in seconds (≤ 0).
    pub mean_delta_runtime_s: f64,
    /// Mean percentage change (≤ 0).
    pub mean_delta_pct: f64,
}

/// Compute the Table 3 summary for a set of outcomes.
pub fn best_known_summary(outcomes: &[JobOutcome]) -> BestKnownSummary {
    let deltas: Vec<f64> = outcomes
        .iter()
        .map(|o| o.best_known_runtime() - o.default_metrics.runtime)
        .collect();
    let pcts: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            let d = o.default_metrics.runtime;
            if d > 0.0 {
                100.0 * (o.best_known_runtime() - d) / d
            } else {
                0.0
            }
        })
        .collect();
    BestKnownSummary {
        n_jobs: outcomes.len(),
        mean_delta_runtime_s: mean(&deltas),
        mean_delta_pct: mean(&pcts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CandidateOutcome, SelectionReason};
    use scope_exec::RunMetrics;
    use scope_ir::ids::{JobId, TemplateId};
    use scope_optimizer::{RuleConfig, RuleSignature};

    fn outcome(default_rt: f64, best_rt: f64) -> JobOutcome {
        JobOutcome {
            job_id: JobId(1),
            template: TemplateId(2),
            day: 0,
            group: RuleSignature::default(),
            default_cost: 100.0,
            default_metrics: RunMetrics {
                runtime: default_rt,
                cpu_time: 10.0,
                io_time: 10.0,
                memory: 1e6,
            },
            span_size: 5,
            n_candidates: 10,
            n_cheaper: 2,
            n_same_as_default: 0,
            n_duplicate_plans: 0,
            reason: SelectionReason::CheaperPlans,
            n_failed: 0,
            vetting: crate::guard::CandidateFilterStats::default(),
            executed: vec![CandidateOutcome {
                config: RuleConfig::default_config(),
                est_cost: 90.0,
                signature: RuleSignature::default(),
                metrics: RunMetrics {
                    runtime: best_rt,
                    cpu_time: 10.0,
                    io_time: 10.0,
                    memory: 1e6,
                },
            }],
        }
    }

    #[test]
    fn best_known_uses_default_when_alternatives_regress() {
        let outcomes = vec![outcome(100.0, 150.0), outcome(100.0, 40.0)];
        let s = best_known_summary(&outcomes);
        assert_eq!(s.n_jobs, 2);
        // Job 1 keeps default (Δ 0), job 2 saves 60s → mean −30s / −30%.
        assert!((s.mean_delta_runtime_s + 30.0).abs() < 1e-9);
        assert!((s.mean_delta_pct + 30.0).abs() < 1e-9);
    }
}
