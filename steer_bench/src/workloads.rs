//! The five workloads: what each is fed (`build`) and one pass over it
//! (`pass`). Why each exists is in `BENCHMARK.json` and the README.

use std::collections::HashMap;
use std::time::Instant;

use scope_exec::ServeFaultProfile;
use scope_ir::ids::JobId;
use scope_ir::Job;
use scope_workload::WorkloadTag;
use steer_core::{
    build_entries, DecisionReason, FlightConfig, FlightController, GroupConfig, HintStatus,
    ServeRequest, ServiceConfig, ServingEntry, SteeringService,
};

use crate::inputs::{self, KeyDraw};
use crate::record::Recorder;
use crate::steering::{self, Steering};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LoopA,
    DaytimeA,
    DiscoverBc,
    ServeHot,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LoopA,
        Workload::DaytimeA,
        Workload::DiscoverBc,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopA => "loop-a",
            Workload::DaytimeA => "daytime-a",
            Workload::DiscoverBc => "discover-bc",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass calls `Pipeline::discover`, the one place the
    /// program fans out to worker threads.
    pub fn discovers(self) -> bool {
        matches!(self, Workload::LoopA | Workload::DiscoverBc)
    }

    /// Whether a pass is a stream of request batches cut off by the clock,
    /// as opposed to a fixed amount of work run whole.
    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeChurn)
    }
}

/// How much of everything. The contract sizes are `Sizing::contract()`;
/// `--quick` shrinks them for the smoke test and `--scale` grows the
/// generated workloads for manual runs up the scale ladder.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Multiplies each workload's own scale.
    pub scale: f64,
    /// `loop-a`: discovery on nights `0..nights`, daytime on days
    /// `1..=nights`.
    pub nights: u32,
    /// `daytime-a` and the serving workloads: days `1..=days` of A.
    pub days: u32,
    /// Requests per serving batch.
    pub batch: usize,
    /// Distinct pre-built batches a serving pass cycles through.
    pub pool_batches: usize,
    /// Batches of a serving pass that is not cut off by the clock (the
    /// warm-up and both passes of a traced run).
    pub fixed_batches: usize,
}

/// Scales of the two workloads that discover, as multiples of the paper's
/// 1/100 workloads. What a job costs to analyse varies by a factor of fifty
/// (6 to 330 ms), so operations per second swings from seed to seed with
/// the few jobs a seed puts in the runtime window: these scales put about
/// 190 (B and C) and 160 (A) distinct jobs there, which holds the spread
/// across seeds near a tenth in the fifteen seconds a pass may take.
const BC_SCALE: f64 = 12.0;
const LOOP_SCALE: f64 = 2.5;

/// Seed of everything set-up needs that is not an input of the timed
/// passes — the workload the discovery workloads warm up on and the
/// discovery whose winners the serving tables cycle — so that set-up costs
/// the same from seed to seed.
pub const FIXED_SEED: u64 = 2021;

impl Sizing {
    pub fn contract() -> Sizing {
        Sizing {
            scale: 1.0,
            nights: 2,
            days: 6,
            batch: 10_000,
            pool_batches: 8,
            fixed_batches: 100,
        }
    }

    pub fn quick() -> Sizing {
        Sizing {
            scale: 0.1,
            nights: 2,
            days: 2,
            batch: 1_000,
            pool_batches: 4,
            fixed_batches: 20,
        }
    }

    /// The same shape at a twentieth the size: what the discovery workloads
    /// warm up on, a full-size warm-up pass being as long as the run.
    pub fn warm_up(self) -> Sizing {
        Sizing {
            scale: self.scale * 0.05,
            ..self
        }
    }
}

/// One pre-built batch and, per request, which published key it carries.
pub struct Batch {
    pub requests: Vec<ServeRequest>,
    key_index: Vec<Option<usize>>,
}

pub enum Inputs {
    /// Jobs of days `0..=nights`.
    Loop { days: Vec<Vec<Job>> },
    /// Jobs of days `1..=days` and the hints night 0 found.
    Daytime {
        days: Vec<Vec<Job>>,
        winners: Vec<GroupConfig>,
    },
    /// Day 0 of each tag.
    Discover { tags: Vec<Vec<Job>> },
    Serve {
        /// Holds one flight per distinct group key; cloned per pass.
        flights: Box<FlightController>,
        /// What the controller publishes, which is what a request can hit.
        entries: Vec<ServingEntry>,
        pool: Vec<Batch>,
        churn: bool,
    },
}

pub struct Built {
    pub inputs: Inputs,
    /// Wall time of workload generation alone.
    pub generate_ms: f64,
    pub jobs_per_day: f64,
}

/// Minimized winners of discovery over `jobs`, searched a slice at a time
/// until there are `want` of them: set-up only needs realistic configs.
fn some_winners(jobs: &[Job], seed: u64, threads: usize, want: usize) -> Vec<GroupConfig> {
    let pipeline = steering::pipeline(seed, threads);
    let mut scratch = Recorder::new(0);
    let mut winners = Vec::new();
    for (i, slice) in jobs.chunks(300).enumerate() {
        let report = steering::discover(&pipeline, slice, seed, i as u64, &mut scratch);
        winners.extend(steering::minimized_winners(&report, slice, &mut scratch));
        if winners.len() >= want {
            break;
        }
    }
    winners
}

pub fn build(workload: Workload, sizing: Sizing, seed: u64, threads: usize) -> Built {
    let start = Instant::now();
    let generate = |tag, scale: f64, days: std::ops::RangeInclusive<u32>| -> Vec<Vec<Job>> {
        let w = inputs::generate(tag, scale * sizing.scale, seed);
        days.map(|d| w.day(d)).collect()
    };
    let days = match workload {
        Workload::LoopA => generate(WorkloadTag::A, LOOP_SCALE, 0..=sizing.nights),
        Workload::DaytimeA => generate(WorkloadTag::A, 1.0, 0..=sizing.days),
        Workload::ServeHot | Workload::ServeChurn => generate(WorkloadTag::A, 1.0, 1..=sizing.days),
        Workload::DiscoverBc => [WorkloadTag::B, WorkloadTag::C]
            .into_iter()
            .flat_map(|tag| generate(tag, BC_SCALE, 0..=0))
            .collect(),
    };
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let jobs_per_day = days.iter().map(Vec::len).sum::<usize>() as f64 / days.len() as f64;

    let inputs = match workload {
        Workload::LoopA => Inputs::Loop { days },
        Workload::DiscoverBc => Inputs::Discover { tags: days },
        Workload::DaytimeA => {
            let winners = some_winners(&days[0], seed, threads, usize::MAX);
            Inputs::Daytime {
                days: days[1..].to_vec(),
                winners,
            }
        }
        Workload::ServeHot | Workload::ServeChurn => {
            let churn = workload == Workload::ServeChurn;
            let scouted = inputs::generate(WorkloadTag::A, sizing.scale, FIXED_SEED).day(0);
            let winners = some_winners(&scouted, FIXED_SEED, threads, 4);
            let mix = inputs::key_mix(&days);
            // One hint per distinct key, the discovered configs cycled (no
            // hint at all if discovery found no winner).
            let hints: Vec<GroupConfig> = mix
                .distinct
                .iter()
                .zip(winners.iter().cycle())
                .map(|((signature, _), winner)| GroupConfig {
                    group: *signature,
                    config: winner.config.clone(),
                    base_change_pct: -20.0,
                    base_job: JobId(0),
                })
                .collect();
            let mut flights = FlightController::new(FlightConfig::default());
            if churn {
                // Every other hint fully deployed, the rest canaries, so
                // the rollout split holds some requests back.
                let deployed: Vec<_> = hints.iter().step_by(2).cloned().collect();
                let canaries: Vec<_> = hints.iter().skip(1).step_by(2).cloned().collect();
                flights.ingest_deployed(&deployed, 0);
                flights.ingest(&canaries, 0);
                flights.advance(0);
            } else {
                flights.ingest_deployed(&hints, 0);
            }
            let draw = if churn {
                KeyDraw::Production { hit: 0.05 }
            } else {
                KeyDraw::Zipf { miss: 0.10 }
            };
            // What the controller publishes is what a request can hit.
            let entries = build_entries(&flights, 0);
            let index: HashMap<&str, usize> = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.group.as_str(), i))
                .collect();
            let pool = inputs::request_batches(&mix, draw, sizing.pool_batches, sizing.batch, seed)
                .into_iter()
                .map(|requests| Batch {
                    key_index: requests
                        .iter()
                        .map(|r| index.get(r.group_key.as_str()).copied())
                        .collect(),
                    requests,
                })
                .collect();
            Inputs::Serve {
                flights: Box::new(flights),
                entries,
                pool,
                churn,
            }
        }
    };
    Built {
        inputs,
        generate_ms,
        jobs_per_day,
    }
}

/// When a pass of request batches stops.
#[derive(Clone, Copy)]
pub struct Budget {
    pub batches: usize,
    pub deadline: Option<Instant>,
}

/// One pass over `inputs` with fresh state in every layer.
pub fn pass(inputs: &Inputs, seed: u64, threads: usize, budget: Budget, rec: &mut Recorder) {
    match inputs {
        Inputs::Loop { days } => {
            let pipeline = steering::pipeline(seed, threads);
            let mut s = Steering::new(seed);
            let last = days.len() - 1;
            for (d, jobs) in days.iter().enumerate() {
                if d >= 1 {
                    s.daytime(d as u32, jobs, rec);
                }
                // Nothing is served after the last day, so its night is
                // not searched.
                if d < last {
                    s.night(&pipeline, d as u32, jobs, rec);
                }
                s.end_of_day(d as u32, rec);
            }
            s.finish(rec);
        }
        Inputs::Daytime { days, winners } => {
            let mut s = Steering::new(seed);
            s.ingest(winners, 0, rec);
            rec.add("groups.winners", winners.len() as f64);
            s.end_of_day(0, rec);
            for (i, jobs) in days.iter().enumerate() {
                s.daytime(i as u32 + 1, jobs, rec);
                s.end_of_day(i as u32 + 1, rec);
            }
            s.finish(rec);
        }
        Inputs::Discover { tags } => {
            for (i, jobs) in tags.iter().enumerate() {
                let pipeline = steering::pipeline(seed, threads);
                steering::discover(&pipeline, jobs, seed, i as u64, rec);
            }
        }
        Inputs::Serve {
            flights,
            entries,
            pool,
            churn,
        } => serve_pass(flights.as_ref().clone(), entries, pool, *churn, budget, rec),
    }
}

fn serve_pass(
    mut flights: FlightController,
    entries: &[ServingEntry],
    pool: &[Batch],
    churn: bool,
    budget: Budget,
    rec: &mut Recorder,
) {
    let none = ServeFaultProfile::none();
    let mut service = SteeringService::new(ServiceConfig::default());
    service.publish_from(&flights, &none);
    rec.add("serve.table_entries", service.table.len() as f64);
    // Keys retired after the previous batch: never to be steered onto.
    let mut retired: Vec<usize> = Vec::new();
    for b in 0..budget.batches {
        if b > 0 && budget.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let batch = &pool[b % pool.len()];
        let before = rec.wall_s;
        let report = rec.timed("bench.serve.serve_day", || {
            service.serve_day(&batch.requests, &none, b as u32 + 1, 1)
        });

        let (mut hits, mut misses, mut forced, mut wrong) = (0usize, 0usize, 0usize, 0usize);
        for (d, key) in report.decisions.iter().zip(&batch.key_index) {
            let published = key.filter(|k| !retired.contains(k));
            let as_expected = match d.reason {
                DecisionReason::Steered => {
                    hits += 1;
                    published.is_some_and(|k| {
                        d.group.as_deref() == Some(entries[k].group.as_str())
                            && d.config == entries[k].config
                    })
                }
                DecisionReason::HeldBack => {
                    hits += 1;
                    published.is_some()
                }
                DecisionReason::NoHint => {
                    misses += 1;
                    published.is_none()
                }
                _ => {
                    forced += 1;
                    false
                }
            };
            wrong += usize::from(!as_expected);
        }
        rec.ops += batch.requests.len() as u64;
        rec.failed += wrong as u64;
        rec.check(wrong == 0, || {
            format!("batch {b}: {wrong} decisions are not what the published table implies")
        });
        rec.check(
            report.requests == batch.requests.len()
                && hits + misses + forced == batch.requests.len(),
            || {
                format!(
                    "batch {b}: {hits} hits + {misses} misses + {forced} forced != {} requests",
                    batch.requests.len()
                )
            },
        );
        rec.add("serve.requests", report.requests as f64);
        rec.add("serve.hits", hits as f64);
        rec.add("serve.steered", report.steered as f64);
        rec.add("serve.forced", forced as f64);
        rec.digest(report.fingerprint);

        if churn && !entries.is_empty() {
            // The pair retired last round is active again; the next pair
            // is suspended, leaves the table at once, and the nightly
            // publish rebuilds the table from the controller.
            for k in retired.drain(..) {
                flights
                    .store
                    .set_status(&entries[k].group, HintStatus::Active);
            }
            for k in [2 * b, 2 * b + 1].map(|k| k % entries.len()) {
                let group = &entries[k].group;
                flights.store.set_status(group, HintStatus::Suspended);
                rec.timed("bench.serve.retire", || service.retire(group));
                retired.push(k);
            }
            rec.timed("bench.serve.publish", || {
                service.publish_from(&flights, &none)
            });
        }
        let per_request = (rec.wall_s - before) / batch.requests.len() as f64;
        rec.samples
            .entry("batch.per_op_s")
            .or_default()
            .push(per_request);
    }
}
