//! Configuration minimization: shrink a winning configuration to the
//! smallest delta from the default that still reproduces the winning plan.
//!
//! Candidate configurations from §5.2 enable *everything* outside the job
//! span and toggle many span rules at once; only a few of those changes
//! matter (Table 4's RuleDiffs are short). A deployable "plan hint"
//! (§3.3) should carry just the load-bearing changes — customers review
//! these by hand. [`minimize_config`] greedily reverts each changed rule
//! back to its default state and keeps the reversion whenever the compiled
//! plan stays identical.
//!
//! Most reversions are decided before they compile. The last accepted
//! compile's [`RuleFootprint`](scope_optimizer::RuleFootprint) says which
//! rule flips can change its plan, and a trial that flips any other rule
//! compiles to that same plan, so it is accepted without a compile: a
//! rule anchored on or implementing a kind the memo never held, a marker,
//! or the disabling of a transformation that created nothing. Debug builds
//! compile every such trial anyway and check that it reproduces the target
//! plan and the footprint carried forward.

use scope_exec::plan_fingerprint;
use scope_ir::Job;
use scope_optimizer::{catch_compile_panics, compile, effective_config, RuleConfig};
use scope_trace::Counter;

/// Result of minimizing a configuration for a job.
#[derive(Clone, Debug)]
pub struct MinimizedConfig {
    /// The minimized configuration (same plan, fewest default deltas).
    pub config: RuleConfig,
    /// Deltas before minimization (disabled + enabled vs default).
    pub deltas_before: usize,
    /// Deltas after minimization.
    pub deltas_after: usize,
    /// Compilations made (the target's included).
    pub compiles: usize,
}

/// Greedily minimize `config` for `job`, preserving the exact physical
/// plan it produces. Returns `None` if the configuration does not compile
/// for the job. A trial whose compile panics is rejected like one that
/// fails to compile.
pub fn minimize_config(job: &Job, config: &RuleConfig) -> Option<MinimizedConfig> {
    let _span = scope_trace::span("minimize");
    let obs = job.catalog.observe();
    let compile_trial = |trial: &RuleConfig| {
        catch_compile_panics(|| compile(&job.plan, &obs, &effective_config(job, trial)))
    };
    let (target_fp, mut footprint) = {
        let target = compile_trial(config).ok()?;
        (plan_fingerprint(&target.plan), target.footprint)
    };

    let (disabled, enabled) = config.delta_from_default();
    let deltas_before = disabled.len() + enabled.len();
    let mut compiles = 1usize;
    let mut current = config.clone();

    // Revert newly-enabled rules first (they are usually the §5.2 blanket
    // enables), then newly-disabled ones.
    let flips = enabled.iter().map(|id| (id, false));
    for (id, enable) in flips.chain(disabled.iter().map(|id| (id, true))) {
        let mut trial = current.clone();
        if enable {
            trial.enable(id);
        } else {
            trial.disable(id);
        }
        if !footprint.may_change_plan(id, enable) {
            scope_trace::count(Counter::MinimizeTrialsSkipped, 1);
            #[cfg(debug_assertions)]
            {
                let audit = compile_trial(&trial).expect("a skipped trial compiles");
                debug_assert_eq!(
                    plan_fingerprint(&audit.plan),
                    target_fp,
                    "flipping rule {id} (enable: {enable}) changed the plan"
                );
                debug_assert_eq!(audit.footprint, footprint, "rule {id} moved the footprint");
            }
            current = trial;
            continue;
        }
        scope_trace::count(Counter::MinimizeTrialsCompiled, 1);
        compiles += 1;
        if let Ok(c) = compile_trial(&trial) {
            if plan_fingerprint(&c.plan) == target_fp {
                current = trial;
                footprint = c.footprint;
            }
        }
    }

    let (d_after, e_after) = current.delta_from_default();
    Some(MinimizedConfig {
        config: current,
        deltas_before,
        deltas_after: d_after.len() + e_after.len(),
        compiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_exec::Metric;
    use scope_optimizer::{compile_job, RuleCatalog};
    use scope_workload::{Workload, WorkloadProfile};

    /// The greedy without footprints: every trial compiles.
    fn minimize_by_compiling_every_trial(
        job: &Job,
        config: &RuleConfig,
    ) -> Option<MinimizedConfig> {
        let target = compile_job(job, config).ok()?;
        let target_fp = plan_fingerprint(&target.plan);

        let (disabled, enabled) = config.delta_from_default();
        let deltas_before = disabled.len() + enabled.len();
        let mut compiles = 1usize;
        let mut current = config.clone();

        for id in enabled.iter() {
            let mut trial = current.clone();
            trial.disable(id);
            compiles += 1;
            if let Ok(c) = compile_job(job, &trial) {
                if plan_fingerprint(&c.plan) == target_fp {
                    current = trial;
                }
            }
        }
        for id in disabled.iter() {
            let mut trial = current.clone();
            trial.enable(id);
            compiles += 1;
            if let Ok(c) = compile_job(job, &trial) {
                if plan_fingerprint(&c.plan) == target_fp {
                    current = trial;
                }
            }
        }

        let (d_after, e_after) = current.delta_from_default();
        Some(MinimizedConfig {
            config: current,
            deltas_before,
            deltas_after: d_after.len() + e_after.len(),
            compiles,
        })
    }

    /// Fails, in release builds too, if disabling any transformation is
    /// taken as unable to change the plan, or if the "created nothing"
    /// clause is applied when enabling a rule.
    #[test]
    fn minimization_equals_the_greedy_that_compiles_every_trial() {
        let d = crate::testutil::discover_winners(10.0);
        let day = d.workload.day(0);
        let job_of = |id| day.iter().find(|j| j.id == id).expect("winner's base job");
        let mut cases: Vec<(&Job, RuleConfig)> = d
            .winners
            .iter()
            .map(|w| (job_of(w.base_job), w.config.clone()))
            .collect();
        // One transformation flipped away from its default where that moves
        // the plan, each way: reverting it must compile and be refused.
        let rules = RuleCatalog::global();
        let default = RuleConfig::default_config();
        for enable in [false, true] {
            let moved = day.iter().find_map(|job| {
                let fp = plan_fingerprint(&compile_job(job, &default).ok()?.plan);
                rules.non_required().iter().find_map(|id| {
                    let action = &rules.rule(id).action;
                    if !action.is_transformation() || default.is_enabled(id) == enable {
                        return None;
                    }
                    let mut config = default.clone();
                    if enable {
                        config.enable(id);
                    } else {
                        config.disable(id);
                    }
                    let c = compile_job(job, &config).ok()?;
                    (plan_fingerprint(&c.plan) != fp).then_some((job, config))
                })
            });
            cases.push(moved.expect("a transformation that moves some plan"));
        }
        // A job carrying customer hints, under a winner's configuration
        // that also enables every hinted rule: reverting one of those is a
        // no-op for the effective configuration.
        let hinted = day
            .iter()
            .find(|j| !j.hints.is_empty())
            .expect("a job with customer hints");
        let mut config = d.winners[0].config.clone();
        for &raw in &hinted.hints {
            config.enable(scope_optimizer::RuleId(raw));
        }
        cases.push((hinted, config));

        let (mut made, mut reference_made) = (0, 0);
        for (job, config) in cases {
            let got = minimize_config(job, &config).expect("every case compiles");
            let want = minimize_by_compiling_every_trial(job, &config).expect("and so here");
            assert_eq!(got.config, want.config, "job {:?}", job.id);
            assert_eq!(got.deltas_before, want.deltas_before);
            assert_eq!(got.deltas_after, want.deltas_after);
            assert!(got.compiles <= want.compiles);
            made += got.compiles;
            reference_made += want.compiles;
        }
        assert!(
            made < reference_made,
            "no trial was skipped: {made} compiles against {reference_made}"
        );
    }

    #[test]
    fn minimization_preserves_plan_and_shrinks_delta() {
        let d = crate::testutil::discover_winners(10.0);
        let jobs = d.workload.day(0);
        let outcome = d
            .report
            .outcomes
            .iter()
            .find(|o| o.best_runtime_change_pct() < -10.0)
            .expect("an improving outcome");
        let job = jobs.iter().find(|j| j.id == outcome.job_id).unwrap();
        let best = outcome.best_by(Metric::Runtime).unwrap();

        let min = minimize_config(job, &best.config).expect("compiles");
        assert!(
            min.deltas_after <= min.deltas_before,
            "minimization must not grow the delta"
        );
        // §5.2 candidates enable ~45 off-by-default rules blanket-style;
        // most must fall away.
        assert!(
            min.deltas_after < min.deltas_before / 2,
            "expected substantial shrink: {} -> {}",
            min.deltas_before,
            min.deltas_after
        );
        // Same physical plan.
        let a = compile_job(job, &best.config).unwrap();
        let b = compile_job(job, &min.config).unwrap();
        assert_eq!(plan_fingerprint(&a.plan), plan_fingerprint(&b.plan));
        assert!((a.est_cost - b.est_cost).abs() < 1e-9);
    }

    #[test]
    fn default_config_minimizes_to_itself() {
        let w = Workload::generate(WorkloadProfile::workload_a(0.05));
        let jobs = w.day(0);
        let min = minimize_config(&jobs[0], &RuleConfig::default_config()).unwrap();
        assert_eq!(min.deltas_before, 0);
        assert_eq!(min.deltas_after, 0);
        assert_eq!(min.config, RuleConfig::default_config());
    }
}
