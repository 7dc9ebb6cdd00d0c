//! `scope-steer` — command-line interface to the steering stack.
//!
//! ```text
//! scope-steer workload --tag A --scale 0.1 --day 0      # day statistics
//! scope-steer compile  --tag A --job 3                  # plan + signature
//! scope-steer span     --tag A --job 3                  # Algorithm 1
//! scope-steer search   --tag A --job 3 --m 200          # candidate configs
//! scope-steer explain  --tag A --job 3                  # EXPLAIN ANALYZE trace
//! scope-steer pipeline --tag A --scale 0.1              # §6.1 discovery
//! scope-steer hints    --tag A --scale 0.1 --days 3     # discover + flight + revalidate + print hint file
//! scope-steer serve    --tag A --scale 0.1 --days 5 --fault slow_lookups   # online serving daemon
//! ```
//!
//! All subcommands are deterministic for fixed arguments.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scope_steer::exec::{ABTester, ArrivalCurve, RetryPolicy, ServeFaultProfile};
use scope_steer::ir::Job;
use scope_steer::optimizer::{compile_job, RuleCatalog, RuleConfig};
use scope_steer::steer::{
    approximate_span, candidate_configs, group_of, winning_configs, FlightConfig, FlightController,
    Pipeline, PipelineParams, ServeRequest, ServiceConfig, SteeringService,
};
use scope_steer::workload::{Workload, WorkloadProfile, WorkloadTag};

struct Args {
    cmd: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut argv = std::env::args().skip(1);
        let cmd = argv.next()?;
        let mut flags = HashMap::new();
        let mut key: Option<String> = None;
        for a in argv {
            if let Some(stripped) = a.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else {
                    key = Some(stripped.to_string());
                    flags.insert(stripped.to_string(), "true".to_string());
                }
            } else if let Some(k) = key.take() {
                flags.insert(k, a);
            }
        }
        Some(Args { cmd, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn tag(&self) -> WorkloadTag {
        match self.flags.get("tag").map(String::as_str) {
            Some("B") | Some("b") => WorkloadTag::B,
            Some("C") | Some("c") => WorkloadTag::C,
            _ => WorkloadTag::A,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: scope-steer <workload|compile|span|search|explain|pipeline|hints|serve> \
         [--tag A|B|C] [--scale 0.1] [--day 0] [--job N] [--m 200] [--days 3] \
         [--fault none|slow_lookups|torn_swaps|journal_stalls|burst_overload] [--threads 2]"
    );
    std::process::exit(2)
}

fn load_day(args: &Args) -> (Workload, Vec<Job>) {
    let scale: f64 = args.get("scale", 0.1);
    let day: u32 = args.get("day", 0);
    let w = Workload::generate(WorkloadProfile::for_tag(args.tag(), scale));
    let jobs = w.day(day);
    (w, jobs)
}

fn pick_job<'a>(args: &Args, jobs: &'a [Job]) -> &'a Job {
    let idx: usize = args.get("job", 0);
    jobs.get(idx).unwrap_or_else(|| {
        eprintln!("--job {idx} out of range (day has {} jobs)", jobs.len());
        std::process::exit(2)
    })
}

fn main() {
    let Some(args) = Args::parse() else { usage() };
    let rules = RuleCatalog::global();
    match args.cmd.as_str() {
        "workload" => {
            let (w, jobs) = load_day(&args);
            let templates: std::collections::HashSet<_> = jobs.iter().map(|j| j.template).collect();
            println!(
                "workload {} scale {}: {} jobs, {} templates, {} recurring pool templates",
                w.profile.tag.name(),
                args.get::<f64>("scale", 0.1),
                jobs.len(),
                templates.len(),
                w.templates.len()
            );
            let mut sizes: Vec<usize> = jobs.iter().map(Job::plan_size).collect();
            sizes.sort_unstable();
            println!(
                "plan sizes: min {} / median {} / max {} operators",
                sizes.first().unwrap_or(&0),
                sizes.get(sizes.len() / 2).unwrap_or(&0),
                sizes.last().unwrap_or(&0)
            );
        }
        "compile" => {
            let (_, jobs) = load_day(&args);
            let job = pick_job(&args, &jobs);
            let compiled = compile_job(job, &RuleConfig::default_config()).expect("compiles");
            println!("job {} (template {})", job.id, job.template);
            println!("estimated cost: {:.1}", compiled.est_cost);
            println!("{}", compiled.plan.render());
            println!("rule signature ({} rules):", compiled.signature.len());
            for id in compiled.signature.on_rules() {
                println!(
                    "  {:>3} {} [{:?}]",
                    id,
                    rules.rule(id).name,
                    rules.rule(id).category
                );
            }
        }
        "span" => {
            let (_, jobs) = load_day(&args);
            let job = pick_job(&args, &jobs);
            let obs = job.catalog.observe();
            let span = approximate_span(&job.plan, &obs);
            println!(
                "job {}: span has {} of 219 non-required rules ({} iterations, compile-failure hit: {})",
                job.id,
                span.len(),
                span.iterations,
                span.hit_compile_failure
            );
            for id in span.rules.iter() {
                println!(
                    "  {:>3} {} [{:?}]",
                    id,
                    rules.rule(id).name,
                    rules.rule(id).category
                );
            }
        }
        "search" => {
            let (_, jobs) = load_day(&args);
            let job = pick_job(&args, &jobs);
            let obs = job.catalog.observe();
            let span = approximate_span(&job.plan, &obs);
            let m: usize = args.get("m", 200);
            let mut rng = StdRng::seed_from_u64(args.get("seed", 7u64));
            let configs = candidate_configs(&span, m, &mut rng);
            let default = compile_job(job, &RuleConfig::default_config()).expect("compiles");
            let mut cheaper = 0usize;
            let mut failed = 0usize;
            let mut best: Option<(f64, RuleConfig)> = None;
            for config in &configs {
                match compile_job(job, config) {
                    Ok(c) => {
                        if c.est_cost < default.est_cost {
                            cheaper += 1;
                        }
                        if best.as_ref().is_none_or(|(cost, _)| c.est_cost < *cost) {
                            best = Some((c.est_cost, config.clone()));
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            println!(
                "job {}: {} candidates, {} cheaper than default (cost {:.1}), {} failed to compile",
                job.id,
                configs.len(),
                cheaper,
                default.est_cost,
                failed
            );
            if let Some((cost, config)) = best {
                let (disabled, enabled) = config.delta_from_default();
                println!("cheapest candidate: cost {:.1}", cost);
                println!(
                    "  disables: {}",
                    disabled
                        .iter()
                        .map(|id| rules.rule(id).name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                if !enabled.is_empty() {
                    println!(
                        "  enables:  {}",
                        enabled
                            .iter()
                            .map(|id| rules.rule(id).name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
        }
        "explain" => {
            let (_, jobs) = load_day(&args);
            let job = pick_job(&args, &jobs);
            let compiled = compile_job(job, &RuleConfig::default_config()).expect("compiles");
            let cluster = scope_steer::exec::ClusterConfig::ab_testing();
            let trace = scope_steer::exec::explain(&compiled.plan, &job.catalog, &cluster);
            println!("job {} — default plan execution trace:", job.id);
            print!("{}", trace.render());
            println!("\nworst cardinality estimates:");
            for r in trace.worst_estimates(3) {
                println!(
                    "  node {} {}: est {:.0} vs true {:.0} rows (q-error {:.1})",
                    r.node.index(),
                    r.op,
                    r.est_rows,
                    r.true_rows,
                    r.q_error()
                );
            }
            println!("hottest operators:");
            for r in trace.hottest_nodes(3) {
                println!(
                    "  node {} {}: {:.1}s elapsed (share {:.3}, dop {})",
                    r.node.index(),
                    r.op,
                    r.work.elapsed,
                    r.share,
                    r.dop
                );
            }
        }
        "pipeline" => {
            let (_, jobs) = load_day(&args);
            let pipeline = Pipeline::new(
                ABTester::new(args.get("seed", 2021u64)),
                PipelineParams {
                    m_candidates: args.get("m", 200),
                    sample_frac: 1.0,
                    ..PipelineParams::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(args.get("seed", 2021u64));
            let report = pipeline.discover(&jobs, &mut rng);
            println!(
                "selected {} jobs ({} in-window not selected, {} outside 5min-1h window)",
                report.outcomes.len(),
                report.not_selected,
                report.out_of_window
            );
            for o in &report.outcomes {
                println!(
                    "  job {}: default {:.0}s, best alternative {:+.1}% ({} candidates, {} cheaper)",
                    o.job_id,
                    o.default_metrics.runtime,
                    o.best_runtime_change_pct(),
                    o.n_candidates,
                    o.n_cheaper
                );
            }
            let summary = scope_steer::steer::best_known_summary(&report.outcomes);
            println!(
                "best-known: {:+.0}s / {:+.0}% mean over {} jobs",
                summary.mean_delta_runtime_s, summary.mean_delta_pct, summary.n_jobs
            );
        }
        "hints" => {
            let scale: f64 = args.get("scale", 0.1);
            let days: u32 = args.get("days", 3);
            let w = Workload::generate(WorkloadProfile::for_tag(args.tag(), scale));
            let ab = ABTester::new(args.get("seed", 2021u64));
            let pipeline = Pipeline::new(
                ab.clone(),
                PipelineParams {
                    m_candidates: args.get("m", 200),
                    sample_frac: 1.0,
                    ..PipelineParams::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(args.get("seed", 2021u64));
            let report = pipeline.discover(&w.day(0), &mut rng);
            let winners = winning_configs(&report.outcomes, 10.0);
            // One lifecycle: serve each day steered, re-check every
            // deployed hint in the background, let the monitors roll back.
            let mut flights = FlightController::new(FlightConfig {
                revalidation_budget: winners.len().max(1),
                ..FlightConfig::default()
            });
            flights.ingest_deployed(&winners, 0);
            println!("day 0: deployed {} hints", flights.store.len());
            let policy = RetryPolicy::default();
            for day in 1..days {
                let jobs = w.day(day);
                let served = flights.serve_day(&jobs, &ab, &policy, day);
                let r = flights.revalidate_background(&jobs, &ab, day);
                let rolled_back = flights.advance(day).rollbacks.len();
                println!(
                    "day {day}: steered {} jobs; re-checked {} groups over {} jobs, mean change {:+.1}%, rolled back {rolled_back}",
                    served.steered,
                    r.observed.len(),
                    r.jobs_executed,
                    r.mean_change_pct
                );
            }
            println!("\n# hint file (one line per group: its hint and its rollout)");
            println!("{}", flights.store.to_hint_text());
        }
        "serve" => {
            let scale: f64 = args.get("scale", 0.1);
            let days: u32 = args.get("days", 5);
            let threads: usize = args.get("threads", 2);
            let seed: u64 = args.get("seed", 2021u64);
            let fault_name = args
                .flags
                .get("fault")
                .cloned()
                .unwrap_or_else(|| "none".to_string());
            let Some(fault) = ServeFaultProfile::all()
                .into_iter()
                .find(|p| p.name == fault_name)
            else {
                eprintln!("unknown --fault {fault_name} (see usage)");
                std::process::exit(2)
            };
            let w = Workload::generate(WorkloadProfile::for_tag(args.tag(), scale));
            let ab = ABTester::new(seed);
            let pipeline = Pipeline::new(
                ab,
                PipelineParams {
                    m_candidates: args.get("m", 200),
                    sample_frac: 1.0,
                    ..PipelineParams::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let report = pipeline.discover(&w.day(0), &mut rng);
            let winners = winning_configs(&report.outcomes, 10.0);
            let mut flights = FlightController::new(FlightConfig::default());
            flights.ingest_deployed(&winners, 0);
            flights.advance(0);
            let mut service = SteeringService::new(ServiceConfig {
                // Compressed virtual day so shedding and the mode ladder
                // are visible in a short interactive run.
                tick_us: 50_000,
                breaker_cooldown_us: 120_000,
                max_inflight: 2,
                seed,
            });
            let published = service.publish_from(&flights, &fault);
            println!(
                "serving table: {published} hints published; fault profile {}",
                fault.name
            );
            let curve = ArrivalCurve {
                seed,
                day_us: 1_000_000,
            };
            for day in 1..=days {
                let jobs = w.day(day);
                let requests: Vec<ServeRequest> = jobs
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, job)| {
                        Some(ServeRequest {
                            job_id: job.id.0,
                            group_key: group_of(job)?.to_bit_string(),
                            arrival_us: curve.arrival_us(day, idx as u64, fault.burst.as_ref()),
                        })
                    })
                    .collect();
                let r = service.serve_day(&requests, &fault, day, threads);
                println!(
                    "day {day}: {:>4} requests — steered {:>3} default {:>3} shed {:>3} expired {:>3} torn {:>2} | p99 {:>5}µs mode {}",
                    r.requests,
                    r.steered,
                    r.defaults,
                    r.shed,
                    r.deadline_expired,
                    r.torn_entries,
                    r.p99_latency_us,
                    r.final_mode.name()
                );
                service.publish_from(&flights, &fault);
            }
            println!(
                "breaker: {} trips, {} half-opens; {} mode transitions over {} days",
                service.breaker.trips,
                service.breaker.half_opens,
                service.mode_transitions(),
                days
            );
        }
        _ => usage(),
    }
}
