//! Shared helpers for steer-core's own tests.
//!
//! Discovery on the tiny test-scale workloads is statistical: whether a
//! particular RNG seed surfaces a winning configuration depends on the
//! generator stream. Tests that need "a discovery run that found winners"
//! scan a few seeds instead of hard-coding one, so they stay stable across
//! RNG implementations (the workspace vendors its own).

use rand::rngs::StdRng;
use rand::SeedableRng;

use scope_exec::ABTester;
use scope_optimizer::{RuleCatalog, RuleConfig, RuleId};
use scope_workload::{Workload, WorkloadProfile};

use crate::groups::{winning_configs, GroupConfig};
use crate::pipeline::{DiscoveryReport, Pipeline, PipelineParams};

/// A small workload-A discovery run that is guaranteed (by seed scanning)
/// to have produced at least one winner at `min_improvement_pct`.
pub struct DiscoveredWinners {
    pub workload: Workload,
    pub ab: ABTester,
    pub report: DiscoveryReport,
    pub winners: Vec<GroupConfig>,
}

/// Run the discovery pipeline over day 0 of a small Workload A until some
/// (A/B seed, search seed) pair yields winners. Panics if every pair comes
/// up empty — at that point the planted divergences are genuinely broken.
pub fn discover_winners(min_improvement_pct: f64) -> DiscoveredWinners {
    discover_winners_where(min_improvement_pct, |_| true)
}

/// Like [`discover_winners`], but keeps scanning until the discovery also
/// satisfies `accept` (e.g. "the winning group recurs on day 1").
pub fn discover_winners_where<F>(min_improvement_pct: f64, accept: F) -> DiscoveredWinners
where
    F: Fn(&DiscoveredWinners) -> bool,
{
    for ab_seed in [11u64, 5, 7, 13] {
        let ab = ABTester::new(ab_seed);
        let pipeline = Pipeline::new(
            ab.clone(),
            PipelineParams {
                m_candidates: 120,
                execute_top_k: 5,
                sample_frac: 1.0,
                ..PipelineParams::default()
            },
        );
        for seed in 1..=6u64 {
            // Regenerated each attempt (generation is deterministic) so the
            // accepted result can own it without `Workload: Clone`.
            let workload = Workload::generate(WorkloadProfile::workload_a(0.08));
            let mut rng = StdRng::seed_from_u64(seed);
            let report = pipeline.discover(&workload.day(0), &mut rng);
            let winners = winning_configs(&report.outcomes, min_improvement_pct);
            if winners.is_empty() {
                continue;
            }
            let found = DiscoveredWinners {
                workload,
                ab: ab.clone(),
                report,
                winners,
            };
            if accept(&found) {
                return found;
            }
        }
    }
    panic!("no (ab, search) seed pair produced an acceptable discovery");
}

/// A rule that is on by default but not required, so disabling it sticks.
pub fn optional_rule() -> RuleId {
    RuleConfig::default_config()
        .enabled()
        .difference(RuleCatalog::global().required())
        .iter()
        .next()
        .expect("catalog has optional default rules")
}
