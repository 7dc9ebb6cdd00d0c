//! The steering loop, driven from outside through the program's public
//! functions: the nightly discovery (`night`), the online path of a day
//! (`daytime`, `end_of_day`), and the journal recovery that ends a pass
//! (`finish`). `loop-a` runs all of it, `daytime-a` only the online path
//! and `discover-bc` only `discover`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_exec::{result_fingerprint, ABTester, ArrivalCurve, RetryPolicy, ServeFaultProfile};
use scope_ir::Job;
use scope_optimizer::{compile_job, CompiledPlan, CostCorrections, RuleConfig};
use steer_core::{
    build_entries, minimize_config, winning_configs, CorrectionStore, DiscoveryReport,
    FlightConfig, FlightController, GroupConfig, Pipeline, PipelineParams, ServeRequest,
    ServiceConfig, SteeringService,
};

use crate::inputs::mix;
use crate::record::Recorder;

/// Winners must beat the default by this much to become hints (§6.4).
const MIN_IMPROVEMENT_PCT: f64 = 10.0;

/// A discovery pipeline with the product's defaults and `threads` workers.
pub fn pipeline(seed: u64, threads: usize) -> Pipeline {
    Pipeline::new(
        ABTester::new(seed),
        PipelineParams {
            n_threads: threads,
            ..PipelineParams::default()
        },
    )
}

/// One `Pipeline::discover` call over `jobs`, with everything its report
/// carries folded into `rec`.
pub fn discover(
    pipeline: &Pipeline,
    jobs: &[Job],
    seed: u64,
    stream: u64,
    rec: &mut Recorder,
) -> DiscoveryReport {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xD15C_0000 + stream));
    let report = rec.timed("bench.pipeline.discover", || {
        pipeline.discover(jobs, &mut rng)
    });
    let analyzed = report.outcomes.len() + report.not_selected;
    // One operation per job baselined and per candidate slot searched: the
    // two stages' costs are in about that proportion, so operations per
    // second does not swing with how many jobs a seed puts in the window.
    rec.ops += (jobs.len() + analyzed * pipeline.params.m_candidates) as u64;
    rec.add("discover.jobs_offered", jobs.len() as f64);
    rec.add("discover.jobs_analyzed", analyzed as f64);
    rec.add("discover.duplicates", report.duplicate_plans as f64);
    rec.add("discover.vetoed", report.vetting.dynamic_total() as f64);
    rec.add("cache.hits", report.cache.hits as f64);
    rec.add("cache.misses", report.cache.misses as f64);
    rec.add("cache.evictions", report.cache.evictions as f64);
    rec.add("cache.contended", report.cache.contended as f64);
    for o in &report.outcomes {
        rec.add("discover.default_runtime", o.default_metrics.runtime);
        rec.add("discover.best_runtime", o.best_known_runtime());
        rec.add("discover.executed", o.executed.len() as f64);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (o.job_id.0, o.group, o.default_cost.to_bits()).hash(&mut h);
        (o.n_candidates, o.n_cheaper, o.n_duplicate_plans, o.n_failed).hash(&mut h);
        for c in &o.executed {
            (&c.config, c.est_cost.to_bits(), c.metrics.runtime.to_bits()).hash(&mut h);
        }
        rec.digest(h.finish());
    }
    rec.digest((report.not_selected, report.out_of_window));
    report
}

/// The winners of a discovery report, each minimized on its base job.
pub fn minimized_winners(
    report: &DiscoveryReport,
    jobs: &[Job],
    rec: &mut Recorder,
) -> Vec<GroupConfig> {
    let winners = rec.timed("bench.groups.winning_configs", || {
        winning_configs(&report.outcomes, MIN_IMPROVEMENT_PCT)
    });
    let by_id: HashMap<u64, &Job> = jobs.iter().map(|j| (j.id.0, j)).collect();
    let mut out = Vec::new();
    for mut winner in winners {
        let job = by_id[&winner.base_job.0];
        let Some(min) = rec.timed("bench.minimize.config", || {
            minimize_config(job, &winner.config)
        }) else {
            continue;
        };
        rec.add("minimize.deltas_before", min.deltas_before as f64);
        rec.add("minimize.deltas_after", min.deltas_after as f64);
        winner.config = min.config;
        out.push(winner);
    }
    rec.add("groups.winners", out.len() as f64);
    out
}

/// Whether every factor of a correction is finite and positive.
fn sound(c: &CostCorrections) -> bool {
    [c.rows, c.cpu, c.io]
        .iter()
        .all(|f| f.is_finite() && *f > 0.0)
}

/// Run `f` with tracing off: work the benchmark does to check or grade
/// the program must not show in the program's own counters.
fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let tracing = scope_trace::enabled();
    scope_trace::set_enabled(false);
    let out = f();
    scope_trace::set_enabled(tracing);
    out
}

/// Fresh state of every online layer, as one pass starts with.
pub struct Steering {
    pub flights: FlightController,
    pub service: SteeringService,
    pub corrections: CorrectionStore,
    ab: ABTester,
    retry: RetryPolicy,
    seed: u64,
}

impl Steering {
    pub fn new(seed: u64) -> Steering {
        Steering {
            flights: FlightController::new(FlightConfig::default()),
            service: SteeringService::new(ServiceConfig::default()),
            corrections: CorrectionStore::new(),
            ab: ABTester::new(seed),
            retry: PipelineParams::default().retry,
            seed,
        }
    }

    /// Night `day`: discover over the day's jobs, minimize the winners and
    /// hand them to the flight controller as candidates.
    pub fn night(&mut self, pipeline: &Pipeline, day: u32, jobs: &[Job], rec: &mut Recorder) {
        let report = discover(pipeline, jobs, self.seed, u64::from(day), rec);
        let winners = minimized_winners(&report, jobs, rec);
        self.ingest(&winners, day, rec);
    }

    pub fn ingest(&mut self, winners: &[GroupConfig], day: u32, rec: &mut Recorder) {
        let stored = rec.timed("bench.flight.ingest", || self.flights.ingest(winners, day));
        rec.digest(stored);
    }

    /// The online path of `day`: derive every job's group key, decide,
    /// serve through the flight layer, run each job on the plan it was
    /// served and feed what was observed back, revalidate in the
    /// background.
    pub fn daytime(&mut self, day: u32, jobs: &[Job], rec: &mut Recorder) {
        let default_config = RuleConfig::default_config();
        let mut served: Vec<(usize, CompiledPlan)> = Vec::with_capacity(jobs.len());
        let mut requests = Vec::with_capacity(jobs.len());
        let curve = ArrivalCurve::new(self.seed);
        for (i, job) in jobs.iter().enumerate() {
            rec.ops += 1;
            let derived = rec.timed("bench.keys.derive", || {
                compile_job(job, &default_config)
                    .ok()
                    .map(|c| (c.signature.to_bit_string(), c))
            });
            let Some((key, compiled)) = derived else {
                rec.failed += 1;
                continue;
            };
            requests.push(ServeRequest {
                job_id: job.id.0,
                group_key: key,
                arrival_us: curve.arrival_us(day, i as u64, None),
            });
            served.push((i, compiled));
        }

        // What may be steered onto today: exactly what last night's state
        // publishes. A retired, quarantined or rolled-back group is not in
        // it, whatever the table still holds.
        let servable: HashMap<String, RuleConfig> = build_entries(&self.flights, 0)
            .into_iter()
            .map(|e| (e.group, e.config))
            .collect();
        let none = ServeFaultProfile::none();
        let decided = rec.timed("bench.serve.serve_day", || {
            self.service.serve_day(&requests, &none, day, 1)
        });
        rec.check(decided.decisions.len() == requests.len(), || {
            format!(
                "day {day}: {} requests, {} decisions",
                requests.len(),
                decided.decisions.len()
            )
        });
        rec.add("serve.requests", decided.requests as f64);
        rec.add("serve.steered", decided.steered as f64);
        rec.add(
            "serve.forced",
            (decided.shed + decided.deadline_expired) as f64,
        );
        rec.digest(decided.fingerprint);

        let flown = rec.timed("bench.flight.serve_day", || {
            self.flights.serve_day(jobs, &self.ab, &self.retry, day)
        });
        rec.add("flight.steered", flown.steered as f64);
        rec.add("flight.fallbacks", flown.fallbacks as f64);
        rec.digest((
            flown.steered,
            flown.held_back,
            flown.unmatched,
            flown.vetoes,
        ));

        // Every job runs on the plan it was served and reports what it
        // observed against what the optimizer estimated. A steered plan
        // must be published, compile, and compute what the default plan
        // computes; what it saves against the default on the same trial is
        // the quality guard beside the timings.
        let mut observed = Vec::with_capacity(served.len());
        for (decision, (i, default_plan)) in decided.decisions.iter().zip(&served) {
            let job = &jobs[*i];
            let mut steered_plan = None;
            if decision.steered {
                let published = decision
                    .group
                    .as_ref()
                    .and_then(|g| servable.get(g))
                    .is_some_and(|config| *config == decision.config);
                steered_plan = rec.timed("bench.optimizer.compile_served", || {
                    compile_job(job, &decision.config).ok()
                });
                let same_result = steered_plan.as_ref().is_some_and(|p| {
                    result_fingerprint(&p.plan) == result_fingerprint(&default_plan.plan)
                });
                if !(published && same_result) {
                    rec.failed += 1;
                    rec.violations.push(format!(
                        "day {day}: job {} steered onto {:?}: published {published}, \
                         compiles to the default plan's result {same_result}",
                        job.id.0, decision.group
                    ));
                }
            }
            let plan = steered_plan.as_ref().unwrap_or(default_plan);
            let metrics = rec.timed("bench.exec.run", || self.ab.run(job, &plan.plan, 0));
            if steered_plan.is_some() {
                let default = untraced(|| self.ab.run(job, &default_plan.plan, 0));
                rec.add("quality.steered_runtime", metrics.runtime);
                rec.add("quality.steered_default_runtime", default.runtime);
            }
            observed.push((
                job.template.0,
                job.id.0,
                plan.est_cost_vec,
                plan.est_cost,
                metrics,
            ));
        }
        let before = rec.wall_s;
        let accepted = rec.timed("bench.feedback.ingest", || {
            observed
                .iter()
                .filter(|(template, token, estimated, _, metrics)| {
                    self.corrections
                        .ingest(*template, *token, estimated, metrics, false)
                })
                .count()
        });
        rec.samples
            .entry("feedback.ingest_per_run_s")
            .or_default()
            .push((rec.wall_s - before) / observed.len().max(1) as f64);
        rec.digest(accepted);
        let promoted = rec.timed("bench.feedback.end_of_day", || {
            self.corrections.end_of_day(|_, c| sound(c))
        });
        for template in &promoted {
            let c = self.corrections.corrections_for(*template);
            rec.check(sound(&c), || {
                format!("template {template} carries the correction {c:?}")
            });
        }
        rec.add("feedback.promoted", promoted.len() as f64);
        rec.digest(&promoted);
        // The estimate's relative error on the day's runs; the last day's
        // value is the one reported.
        let errors: Vec<f64> = observed
            .iter()
            .filter(|(.., m)| m.cpu_time + m.io_time > 0.0)
            .map(|(_, _, _, est, m)| {
                (est - (m.cpu_time + m.io_time)).abs() / (m.cpu_time + m.io_time)
            })
            .collect();
        rec.counts
            .insert("feedback.rel_error", crate::stats::mean(&errors));

        let background = rec.timed("bench.flight.revalidate", || {
            self.flights.revalidate_background(jobs, &self.ab, day)
        });
        for group in &background.quarantined {
            rec.timed("bench.serve.retire", || self.service.retire(group));
        }
        rec.digest((
            &background.observed,
            &background.quarantined,
            &background.restored,
        ));
    }

    /// The day boundary: stage decisions, rolled-back groups leave the
    /// serving table at once, then the nightly publish.
    pub fn end_of_day(&mut self, day: u32, rec: &mut Recorder) {
        let advanced = rec.timed("bench.flight.advance", || self.flights.advance(day));
        rec.add("flight.rollbacks", advanced.rollbacks.len() as f64);
        for group in &advanced.rollbacks {
            rec.timed("bench.serve.retire", || self.service.retire(group));
        }
        rec.digest((advanced.promotions.len(), &advanced.rollbacks));
        let none = ServeFaultProfile::none();
        let landed = rec.timed("bench.serve.publish", || {
            self.service.publish_from(&self.flights, &none)
        });
        rec.digest(landed);
    }

    /// After the last day: recover the controller from its journal.
    pub fn finish(self, rec: &mut Recorder) {
        rec.add("serve.table_entries", self.service.table.len() as f64);
        let journal = self.flights.journal_text();
        rec.add("flight.journal_events", journal.lines().count() as f64);
        rec.add("flight.journal_bytes", journal.len() as f64);
        let recovered = rec.timed("bench.flight.recover", || {
            FlightController::recover(None, &journal, FlightConfig::default())
        });
        match recovered {
            Ok((twin, _)) => {
                rec.check(twin.snapshot_text() == self.flights.snapshot_text(), || {
                    "the controller recovered from the journal differs from the live one"
                        .to_string()
                })
            }
            Err(e) => rec.violations.push(format!("journal recovery failed: {e}")),
        }
    }
}
