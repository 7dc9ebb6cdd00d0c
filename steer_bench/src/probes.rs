//! Probe passes of the traced run, for the layers that record no span of
//! their own: each public function called in isolation on a fixed seeded
//! sample, timed per call (or per block where a call is too short for the
//! clock), with the allocation counter on where allocations are reported.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scope_exec::{ABTester, ServeFaultProfile};
use scope_ir::Job;
use scope_lint::{JobLint, PlanBounds};
use scope_optimizer::{
    compile_with_budget, effective_config, CompileBudget, RuleConfig, RuleId, RuleSet, NUM_RULES,
};
use steer_core::{
    approximate_span, build_entries, candidate_configs_effective, vet_candidate, PipelineParams,
    ServiceConfig, SteeringService,
};

use crate::alloc_count::counted;
use crate::inputs::mix;
use crate::report::Metrics;
use crate::stats::{mean, percentile, ratio};
use crate::workloads::Inputs;

/// Jobs sampled, candidates classified per job, candidates compiled per
/// job, and compiles per job run under the allocation counter.
const JOBS: usize = 60;
const CONFIGS: usize = 200;
const COMPILES: usize = 40;
const COUNTED: usize = 10;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Run `f`, adding its wall time in µs to `samples`.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(us(start));
    out
}

/// Lint, bounds, span, search, guard, exec and single compiles, on a
/// seeded sample of `jobs`.
pub fn discovery(mut sample: Vec<&Job>, seed: u64, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    sample.shuffle(&mut rng);
    sample.truncate(JOBS);
    let budget = CompileBudget::default();
    let slots = PipelineParams::default().m_candidates;
    let ab = ABTester::new(seed);

    let mut default_us = Vec::new();
    let mut candidate_us = Vec::new();
    let mut lint_new_us = Vec::new();
    let mut bounds_us = Vec::new();
    let mut span_us = Vec::new();
    let mut span_sizes = Vec::new();
    let mut search_us = Vec::new();
    let mut configs_per_job = Vec::new();
    let mut classify_ns = Vec::new();
    let mut cost_lo_ns = Vec::new();
    let mut vet_us = Vec::new();
    let mut run_us = Vec::new();
    let (mut counted_compiles, mut alloc_calls, mut alloc_bytes) = (0u64, 0u64, 0u64);

    for job in sample {
        let obs = job.catalog.observe();
        let default_config = effective_config(job, &RuleConfig::default_config());
        let default = timed(&mut default_us, || {
            compile_with_budget(&job.plan, &obs, &default_config, &budget)
        });
        let Ok(default) = default else {
            continue;
        };

        let lint = timed(&mut lint_new_us, || JobLint::new(&job.plan));
        let bounds = timed(&mut bounds_us, || PlanBounds::analyze(&job.plan, &obs));
        let span = timed(&mut span_us, || approximate_span(&job.plan, &obs));
        span_sizes.push(span.len() as f64);

        let mut forced = RuleSet::EMPTY;
        for &raw in job.hints.iter().filter(|&&raw| (raw as usize) < NUM_RULES) {
            forced.insert(RuleId(raw));
        }
        let configs = timed(&mut search_us, || {
            candidate_configs_effective(&span, &forced, slots, &mut rng)
        });
        configs_per_job.push(configs.len() as f64);

        let block = &configs[..configs.len().min(CONFIGS)];
        if !block.is_empty() {
            let start = Instant::now();
            for config in block {
                black_box(lint.classify(black_box(config)));
            }
            classify_ns.push(us(start) * 1e3 / block.len() as f64);
            let start = Instant::now();
            for config in block {
                black_box(bounds.cost_lo(black_box(config.enabled())));
            }
            cost_lo_ns.push(us(start) * 1e3 / block.len() as f64);
        }

        for (i, config) in block.iter().take(COMPILES).enumerate() {
            let compiled = timed(&mut candidate_us, || {
                compile_with_budget(&job.plan, &obs, config, &budget)
            });
            if i < COUNTED {
                let (_, calls, bytes) =
                    counted(|| black_box(compile_with_budget(&job.plan, &obs, config, &budget)));
                counted_compiles += 1;
                alloc_calls += calls;
                alloc_bytes += bytes;
            }
            let Ok(compiled) = compiled else {
                continue;
            };
            let vetted = timed(&mut vet_us, || vet_candidate(&default, &compiled));
            if vetted.is_ok() {
                timed(&mut run_us, || black_box(ab.run(job, &compiled.plan, 0)));
            }
        }
    }

    m.set(
        "optimizer.default_compile_us_p50",
        percentile(&default_us, 0.5),
    );
    m.set(
        "optimizer.candidate_compile_us_p50",
        percentile(&candidate_us, 0.5),
    );
    m.set(
        "optimizer.candidate_compile_us_p95",
        percentile(&candidate_us, 0.95),
    );
    m.set(
        "optimizer.allocs_per_compile",
        ratio(alloc_calls as f64, counted_compiles as f64),
    );
    m.set(
        "optimizer.alloc_kib_per_compile",
        ratio(alloc_bytes as f64 / 1024.0, counted_compiles as f64),
    );
    m.set("lint.joblint_new_us_p50", percentile(&lint_new_us, 0.5));
    m.set("lint.classify_ns_per_config", percentile(&classify_ns, 0.5));
    m.set("bounds.analyze_us_p50", percentile(&bounds_us, 0.5));
    m.set("bounds.cost_lo_ns_per_config", percentile(&cost_lo_ns, 0.5));
    m.set("span.approximate_ms_p50", percentile(&span_us, 0.5) / 1e3);
    m.set("span.size_mean", mean(&span_sizes));
    m.set("search.generate_us_p50", percentile(&search_us, 0.5));
    m.set("search.configs_per_job", mean(&configs_per_job));
    m.set("guard.vet_us_p50", percentile(&vet_us, 0.5));
    m.set("exec.run_us_p50", percentile(&run_us, 0.5));
}

/// Table lookups in blocks of 1 000, `build_entries`, and the allocations
/// of a served batch, on a serving workload's published table.
pub fn serving(inputs: &Inputs, m: &mut Metrics) {
    let Inputs::Serve {
        flights,
        entries,
        pool,
        ..
    } = inputs
    else {
        return;
    };
    let none = ServeFaultProfile::none();
    let mut service = SteeringService::new(ServiceConfig::default());
    service.publish_from(flights, &none);

    let published: std::collections::HashSet<&str> =
        entries.iter().map(|e| e.group.as_str()).collect();
    let (hit_keys, miss_keys): (Vec<&str>, Vec<&str>) = pool
        .iter()
        .flat_map(|b| &b.requests)
        .map(|r| r.group_key.as_str())
        .partition(|k| published.contains(k));
    // Fifty blocks of 1 000, cycling through whatever keys there are.
    let lookup_ns = |keys: &[&str]| -> f64 {
        let cycled: Vec<&str> = keys.iter().copied().cycle().take(50_000).collect();
        let mut blocks = Vec::new();
        for block in cycled.chunks_exact(1000) {
            timed(&mut blocks, || {
                for key in block {
                    black_box(service.table.lookup(black_box(key)));
                }
            });
        }
        percentile(&blocks, 0.5)
    };
    m.set("serve.lookup_hit_ns_p50", lookup_ns(&hit_keys));
    m.set("serve.lookup_miss_ns_p50", lookup_ns(&miss_keys));

    let mut builds = Vec::new();
    for version in 0..20 {
        timed(&mut builds, || black_box(build_entries(flights, version)));
    }
    m.set("serve.build_entries_us_p50", percentile(&builds, 0.5));

    let batch = &pool[0].requests;
    let (_, calls, _) = counted(|| black_box(service.serve_day(batch, &none, 1, 1)));
    m.set(
        "serve.allocs_per_decision",
        ratio(calls as f64, batch.len() as f64),
    );
}
