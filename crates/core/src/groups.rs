//! Rule-signature job groups (Definition 6.2) and extrapolation of winning
//! configurations to unseen jobs (§6.4).
//!
//! A hint reaches a job only if the job's group is derived the way its
//! winner's was, so every default plan the loop keys by comes from
//! `default_plan`: discovery's baselines, the flight layer's day,
//! [`group_of`] and [`extrapolate`]. It compiles under the identity cost
//! model; a corrected model could change a default's signature and orphan
//! the group's hint. The flight layer compiles only the jobs whose
//! `default_signature_bound`, which compiles nothing, admits a key it
//! wants.

use std::collections::HashMap;

use scope_exec::ABTester;
use scope_ir::ids::JobId;
use scope_ir::stats::pct_change;
use scope_ir::Job;
use scope_lint::SignatureBound;
use scope_optimizer::{
    catch_compile_panics, compile_job_guarded, effective_config, CompileBudget, CompileError,
    CompiledPlan, RuleConfig, RuleSignature,
};

use crate::guard::{compile_steered, SteeredCompile};
use crate::pipeline::JobOutcome;

/// A job group key: the default rule signature.
pub(crate) type GroupKey = RuleSignature;

/// A job's default plan: the default configuration with the job's customer
/// hints, the default compile budget and the identity cost model, a panic
/// caught as [`CompileError::Panicked`]. Its signature is the job's group.
pub(crate) fn default_plan(job: &Job) -> Result<CompiledPlan, CompileError> {
    compile_job_guarded(
        job,
        &RuleConfig::default_config(),
        &CompileBudget::default(),
    )
}

/// Sound bounds on [`default_plan`]'s signature, from the job's
/// normalized plan alone: a key the bound does not admit is not the job's
/// group. `None` where normalizing the job panics; its default compile
/// then panics too.
pub(crate) fn default_signature_bound(job: &Job) -> Option<SignatureBound> {
    let config = effective_config(job, &RuleConfig::default_config());
    catch_compile_panics(|| Ok(SignatureBound::new(&job.plan, &config))).ok()
}

/// Compute a job's group: the signature of its default plan.
pub fn group_of(job: &Job) -> Option<GroupKey> {
    default_plan(job).ok().map(|c| c.signature)
}

/// Partition jobs by their default rule signature.
pub fn group_jobs(jobs: &[Job]) -> HashMap<GroupKey, Vec<&Job>> {
    let mut map: HashMap<GroupKey, Vec<&Job>> = HashMap::new();
    for job in jobs {
        if let Some(g) = group_of(job) {
            map.entry(g).or_default().push(job);
        }
    }
    map
}

/// A configuration discovered on base jobs, keyed by their group.
#[derive(Clone, Debug)]
pub struct GroupConfig {
    pub group: GroupKey,
    pub config: RuleConfig,
    /// The runtime improvement observed on the base job (negative %).
    pub base_change_pct: f64,
    pub base_job: JobId,
}

/// Collect the winning configurations per group from pipeline outcomes:
/// for each improved base job, its best alternative configuration.
pub fn winning_configs(outcomes: &[JobOutcome], min_improvement_pct: f64) -> Vec<GroupConfig> {
    let mut out = Vec::new();
    for o in outcomes {
        let change = o.best_runtime_change_pct();
        if change >= -min_improvement_pct {
            continue;
        }
        if let Some(best) = o.best_by(scope_exec::Metric::Runtime) {
            out.push(GroupConfig {
                group: o.group,
                config: best.config.clone(),
                base_change_pct: change,
                base_job: o.job_id,
            });
        }
    }
    out
}

/// One extrapolated application of a group config to an unseen job.
#[derive(Clone, Debug)]
pub struct ExtrapolatedRun {
    pub job_id: JobId,
    pub day: u32,
    pub group: GroupKey,
    /// Runtime change vs the unseen job's own default plan (negative =
    /// improvement).
    pub change_pct: f64,
    pub default_runtime: f64,
    pub steered_runtime: f64,
}

/// Apply group configurations to unseen jobs across days (Figure 1, §6.4).
/// Jobs whose default signature matches no group config are skipped, as are
/// jobs the deployment guardrail (`guard::compile_steered`: lint verdict,
/// guarded compile, validator and result fingerprint) keeps on their
/// default plan.
pub fn extrapolate(
    group_configs: &[GroupConfig],
    jobs: &[&Job],
    ab: &ABTester,
) -> Vec<ExtrapolatedRun> {
    // Several base jobs can share a group; apply the strongest winner
    // (mirroring `FlightController::ingest`) rather than an arbitrary one.
    let mut by_group: HashMap<&GroupKey, &GroupConfig> = HashMap::new();
    for g in group_configs {
        by_group
            .entry(&g.group)
            .and_modify(|cur| {
                if g.base_change_pct < cur.base_change_pct {
                    *cur = g;
                }
            })
            .or_insert(g);
    }
    let mut runs = Vec::new();
    for job in jobs {
        let Ok(default) = default_plan(job) else {
            continue;
        };
        let Some(gc) = by_group.get(&default.signature) else {
            continue;
        };
        let SteeredCompile::Steered(steered) =
            compile_steered(job, &default, &gc.config, &CompileBudget::default())
        else {
            continue;
        };
        let default_m = ab.run(job, &default.plan, 0);
        let steered_m = ab.run(job, &steered.plan, 0);
        runs.push(ExtrapolatedRun {
            job_id: job.id,
            day: job.day,
            group: default.signature,
            change_pct: pct_change(default_m.runtime, steered_m.runtime),
            default_runtime: default_m.runtime,
            steered_runtime: steered_m.runtime,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_workload::{Workload, WorkloadProfile};

    #[test]
    fn groups_partition_jobs() {
        let w = Workload::generate(WorkloadProfile::workload_b(0.3));
        let jobs = w.day(0);
        let groups = group_jobs(&jobs);
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, jobs.len());
        assert!(groups.len() > 1);
        assert!(groups.len() < jobs.len(), "some group has several jobs");
    }

    #[test]
    fn same_template_jobs_share_group() {
        let w = Workload::generate(WorkloadProfile::workload_b(0.3));
        let d0 = w.day(0);
        let d1 = w.day(1);
        // Find a template present on both days.
        let j0 = &d0[0];
        let j1 = d1.iter().find(|j| j.template == j0.template);
        if let Some(j1) = j1 {
            assert_eq!(group_of(j0), group_of(j1));
        }
    }

    /// Discovery, `group_of` and the flight layer derive a job's group the
    /// same way, so every winner reaches the jobs of its own group.
    #[test]
    fn discovery_and_the_flight_layer_key_a_job_the_same_way() {
        use crate::flight::{FlightConfig, FlightController};
        use scope_exec::RetryPolicy;

        let d = crate::testutil::discover_winners(5.0);
        let day = d.workload.day(0);
        for o in &d.report.outcomes {
            let job = day
                .iter()
                .find(|j| j.id == o.job_id)
                .expect("an analyzed job");
            assert_eq!(Some(o.group), group_of(job), "job {:?}", o.job_id);
        }
        let mut c = FlightController::new(FlightConfig::default());
        c.ingest(&d.winners, 0);
        c.advance(0);
        let served = c.serve_day(&day, &d.ab, &RetryPolicy::no_retries(), 0);
        let keys: Vec<String> = c.store.hints().map(|h| h.group.clone()).collect();
        let mut winners: Vec<String> = d.winners.iter().map(|w| w.group.to_bit_string()).collect();
        winners.sort();
        winners.dedup();
        assert_eq!(keys, winners);
        for key in keys {
            let matching = served.by_group.get(&key).map_or(0, |s| s.matching);
            assert!(matching >= 1, "no job of the day matched {key}");
        }
    }

    #[test]
    fn extrapolation_applies_winning_configs_across_days() {
        // Require a discovery whose winning groups recur on day 1 and whose
        // improvements are not pure A/B-noise flukes (a majority of the
        // same-group day-1 jobs must improve too).
        let d = crate::testutil::discover_winners_where(5.0, |d| {
            let d1 = d.workload.day(1);
            let refs: Vec<&Job> = d1.iter().collect();
            let runs = extrapolate(&d.winners, &refs, &d.ab);
            !runs.is_empty() && runs.iter().filter(|r| r.change_pct < 0.0).count() * 2 >= runs.len()
        });
        let winners = d.winners;
        assert!(!winners.is_empty(), "no winning configs discovered");

        let d1 = d.workload.day(1);
        let refs: Vec<&Job> = d1.iter().collect();
        let runs = extrapolate(&winners, &refs, &d.ab);
        assert!(!runs.is_empty(), "no same-group jobs on the next day");
        // Most extrapolated applications of the planted motifs improve.
        let improved = runs.iter().filter(|r| r.change_pct < 0.0).count();
        assert!(
            improved * 2 >= runs.len(),
            "improved {improved} of {}",
            runs.len()
        );
    }
}
