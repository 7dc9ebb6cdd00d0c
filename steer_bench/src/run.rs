//! One run of one workload: set-up, then either the timed passes of a
//! plain run (end-to-end metrics, tracing off) or the reference, traced
//! and probe passes of a traced run (per-layer metrics).

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use scope_trace::{Counter, Histogram, MetricsSnapshot, SpanEvent};

use crate::probes;
use crate::record::Recorder;
use crate::report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{percentile, ratio, self_times};
use crate::workloads::{build, pass, Budget, Built, Inputs, Sizing, Workload, FIXED_SEED};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub scale: f64,
}

/// Layers a span name can belong to, by its first segment (the
/// benchmark's own spans carry a `bench.` prefix), and the metric that
/// reports each layer's share of self time.
const LAYERS: &[(&str, &str)] = &[
    ("optimizer", "share.optimizer_pct"),
    ("pipeline", "share.pipeline_pct"),
    ("minimize", "share.minimize_pct"),
    ("groups", "share.groups_pct"),
    ("keys", "share.keys_pct"),
    ("flight", "share.flight_pct"),
    ("serve", "share.serve_pct"),
    ("exec", "share.exec_pct"),
    ("feedback", "share.feedback_pct"),
];

fn layer_of(span: &str) -> Option<&'static str> {
    let name = span.strip_prefix("bench.").unwrap_or(span);
    let head = match name.split('.').next().unwrap_or(name) {
        "compile" => "optimizer",
        "discover" | "default_run" | "analyze_job" => "pipeline",
        other => other,
    };
    LAYERS.iter().map(|(layer, _)| *layer).find(|l| *l == head)
}

/// Calls that make up a night of the loop; the rest is daytime.
const NIGHT: &[&str] = &[
    "bench.pipeline.discover",
    "bench.groups.winning_configs",
    "bench.minimize.config",
    "bench.flight.ingest",
];

fn one_pass(inputs: &Inputs, seed: u64, threads: usize, budget: Budget, id: u64) -> Recorder {
    let mut rec = Recorder::new(id);
    pass(inputs, seed, threads, budget, &mut rec);
    rec
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run(o: &Options, started: Instant) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Discovery fans out to two workers where there are two cores to run
    // them; more threads than cores would time the scheduler.
    let threads = cores.min(2);
    let mut sizing = if o.quick {
        Sizing::quick()
    } else {
        Sizing::contract()
    };
    sizing.scale *= o.scale;
    let fixed = Budget {
        batches: sizing.fixed_batches,
        deadline: None,
    };

    let built = build(o.workload, sizing, o.seed, threads);
    let mut violations = Vec::new();

    // Warm-up: lazily built catalogs, thread-local scratch, the allocator.
    // The discovery workloads warm up on a twentieth-size twin, once per
    // thread count, which also shows that the fan-out does not change
    // results.
    if o.workload.discovers() {
        let twin = build(o.workload, sizing.warm_up(), FIXED_SEED, threads);
        let serial = one_pass(&twin.inputs, FIXED_SEED, 1, fixed, 0);
        let fanned = one_pass(&twin.inputs, FIXED_SEED, threads, fixed, 0);
        if serial.fingerprint != fanned.fingerprint {
            violations.push(format!(
                "results differ between 1 and {threads} threads on the warm-up workload"
            ));
        }
    } else {
        one_pass(&built.inputs, o.seed, threads, fixed, 0);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut notes = Vec::new();
    let (metrics, passes) = if o.trace {
        traced(o, &built, threads, fixed, &mut notes)
    } else {
        plain(o, &built, threads, fixed, setup_s, &mut notes)
    };

    for rec in &passes {
        violations.extend(rec.violations.iter().cloned());
    }
    // (A plain serving run makes one pass, cut off by the clock.)
    if passes
        .iter()
        .any(|r| r.fingerprint != passes[0].fingerprint)
    {
        violations.push("results differ between passes over the same inputs".to_string());
    }
    if !o.quick && matches!(o.workload, Workload::LoopA | Workload::DaytimeA) {
        let last = &passes[passes.len() - 1];
        if last.count("groups.winners") == 0.0 || last.count("serve.steered") == 0.0 {
            violations.push("a full-size loop found no winner or steered no job".to_string());
        }
    }

    Outcome {
        provenance: vec![
            ("workload", o.workload.name().to_string()),
            (
                "commit",
                tool_version("git", &["rev-parse", "--short", "HEAD"]),
            ),
            ("rustc", tool_version("rustc", &["--version"])),
            ("cores", cores.to_string()),
            ("threads", threads.to_string()),
            ("scale", sizing.scale.to_string()),
            ("nights", sizing.nights.to_string()),
            ("days", sizing.days.to_string()),
            ("batch", sizing.batch.to_string()),
            ("seed", o.seed.to_string()),
            ("seconds", o.seconds.to_string()),
            ("passes", passes.len().to_string()),
            (
                "method",
                if o.trace {
                    "one untraced and one traced pass, wall clock, then probes"
                } else {
                    "median over timed passes or batches, wall clock, tracing off"
                }
                .to_string(),
            ),
        ],
        notes,
        metrics,
        attempted: passes.iter().map(|r| r.ops).sum(),
        failed: passes.iter().map(|r| r.failed).sum(),
        violations,
    }
}

/// Timed passes until `--seconds` have gone by: a serving workload as one
/// stream of batches cut off by the clock, the others as whole passes for
/// as long as another one is expected to fit (and always one).
fn plain(
    o: &Options,
    built: &Built,
    threads: usize,
    fixed: Budget,
    setup_s: f64,
    notes: &mut Vec<String>,
) -> (Metrics, Vec<Recorder>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    let budget = if o.quick {
        fixed
    } else {
        Budget {
            batches: usize::MAX,
            deadline: Some(deadline),
        }
    };
    let mut passes: Vec<Recorder> = Vec::new();
    loop {
        passes.push(one_pass(
            &built.inputs,
            o.seed,
            threads,
            budget,
            passes.len() as u64 + 1,
        ));
        let per_pass = start.elapsed() / passes.len() as u32;
        if o.quick || o.workload.serves() || Instant::now() + per_pass > deadline {
            break;
        }
    }

    let per_op_us: Vec<f64> = if o.workload.serves() {
        passes[0].scaled("batch.per_op_s", 1e6)
    } else {
        passes
            .iter()
            .map(|r| ratio(r.wall_s * 1e6, r.ops as f64))
            .collect()
    };
    notes.push(format!(
        "op_us_p50 is over {} samples; wall per pass: {:?} s",
        per_op_us.len(),
        passes.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    ));
    let ops: u64 = passes.iter().map(|r| r.ops).sum();
    let wall: f64 = passes.iter().map(|r| r.wall_s).sum();
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", setup_s);
    m.set("ops_per_s", ratio(ops as f64, wall));
    m.set("op_us_p50", percentile(&per_op_us, 0.5));
    m.set("peak_rss_mb", peak_rss_mb());
    (m, passes)
}

fn traced(
    o: &Options,
    built: &Built,
    threads: usize,
    fixed: Budget,
    notes: &mut Vec<String>,
) -> (Metrics, Vec<Recorder>) {
    let reference = one_pass(&built.inputs, o.seed, threads, fixed, 1);

    scope_trace::reset();
    scope_trace::set_span_cap(1 << 23);
    let before = MetricsSnapshot::capture();
    scope_trace::set_enabled(true);
    let t = one_pass(&built.inputs, o.seed, threads, fixed, 2);
    scope_trace::set_enabled(false);
    let snap = MetricsSnapshot::capture().since(&before);
    let spans = scope_trace::take_spans();

    let mut m = Metrics::new(PER_LAYER);
    let r = &reference;
    let night_s: f64 = NIGHT.iter().map(|n| r.total(n)).sum();
    m.set("loop.wall_s", r.wall_s);
    m.set("loop.night_s", night_s);
    m.set("loop.daytime_s", r.wall_s - night_s);
    m.set(
        "loop.discover_jobs_per_s",
        ratio(
            r.count("discover.jobs_offered"),
            r.total("bench.pipeline.discover"),
        ),
    );
    m.set(
        "loop.daytime_jobs_per_s",
        ratio(r.count("serve.requests"), r.wall_s - night_s),
    );
    m.set(
        "quality.discover_saving_pct",
        100.0
            * ratio(
                t.count("discover.default_runtime") - t.count("discover.best_runtime"),
                t.count("discover.default_runtime"),
            ),
    );
    m.set(
        "quality.steered_saving_pct",
        100.0
            * ratio(
                t.count("quality.steered_default_runtime") - t.count("quality.steered_runtime"),
                t.count("quality.steered_default_runtime"),
            ),
    );

    // Self time by layer, over everything the traced pass recorded. With
    // two workers it adds up to the threads' busy time, not to the wall:
    // the shares say where the work went.
    let main_thread = spans
        .iter()
        .find(|s| s.name.starts_with("bench."))
        .map_or(0, |s| s.thread);
    let own = self_times(&spans, main_thread);
    let mut by_layer: HashMap<Option<&str>, u64> = HashMap::new();
    for (span, us) in spans.iter().zip(&own) {
        *by_layer.entry(layer_of(span.name)).or_default() += us;
    }
    let total_us: u64 = own.iter().sum();
    let layer_us = |layer: Option<&str>| by_layer.get(&layer).copied().unwrap_or(0);
    let share = |layer| 100.0 * ratio(layer_us(layer) as f64, total_us as f64);
    for &(layer, metric) in LAYERS {
        m.set(metric, share(Some(layer)));
    }
    m.set("share.unattributed_pct", share(None));
    // Durations of the program's spans named `name`.
    let dur_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3)
            .collect()
    };
    let dur_s = |name: &str| dur_ms(name).iter().sum::<f64>() / 1e3;
    let p50 = |name: &str, factor: f64| percentile(&t.scaled(name, factor), 0.5);

    m.set("workload.generate_ms", built.generate_ms);
    m.set("workload.jobs_per_day", built.jobs_per_day);
    m.set("keys.derive_us_p50", p50("bench.keys.derive", 1e6));

    let compile = snap.histogram(Histogram::CompileMicros);
    m.set("optimizer.compiles", compile.count as f64);
    m.set("optimizer.compile_busy_s", compile.sum as f64 / 1e6);
    m.set(
        "optimizer.explore_busy_s",
        snap.histogram(Histogram::ExploreMicros).sum as f64 / 1e6,
    );
    m.set(
        "optimizer.implement_busy_s",
        snap.histogram(Histogram::ImplementMicros).sum as f64 / 1e6,
    );
    m.set(
        "optimizer.memo_exprs_mean",
        snap.histogram(Histogram::MemoExprs).mean(),
    );
    m.set(
        "optimizer.tasks_mean",
        snap.histogram(Histogram::CompileTasks).mean(),
    );
    let counter = |c: Counter| snap.counter(c) as f64;
    m.set(
        "optimizer.compile_fail_ratio",
        ratio(
            counter(Counter::FunnelCompileFailed),
            counter(Counter::FunnelCompiled),
        ),
    );
    m.set(
        "cache.hit_ratio",
        ratio(
            t.count("cache.hits"),
            t.count("cache.hits") + t.count("cache.misses"),
        ),
    );
    m.set("cache.evictions", t.count("cache.evictions"));
    m.set("cache.contended", t.count("cache.contended"));
    let generated = counter(Counter::FunnelGenerated);
    m.set(
        "lint.static_rejected_ratio",
        ratio(counter(Counter::FunnelStaticRejected), generated),
    );
    m.set(
        "bounds.pruned_ratio",
        ratio(counter(Counter::FunnelBoundsPruned), generated),
    );

    let analyze_job_ms = dur_ms("analyze_job");
    m.set("pipeline.defaults_s", dur_s("discover.defaults"));
    m.set("pipeline.analyze_s", dur_s("discover.analyze"));
    m.set("pipeline.self_s", layer_us(Some("pipeline")) as f64 / 1e6);
    m.set(
        "pipeline.analyze_job_ms_p50",
        percentile(&analyze_job_ms, 0.5),
    );
    m.set(
        "pipeline.analyze_job_ms_max",
        percentile(&analyze_job_ms, 1.0),
    );
    m.set(
        "pipeline.parallel_efficiency",
        ratio(
            dur_s("analyze_job"),
            threads as f64 * dur_s("discover.analyze"),
        ),
    );
    m.set("pipeline.jobs_analyzed", t.count("discover.jobs_analyzed"));
    m.set("pipeline.candidates_generated", generated);
    m.set(
        "pipeline.candidates_compiled",
        counter(Counter::FunnelCompiled),
    );
    m.set(
        "pipeline.candidates_duplicate",
        counter(Counter::FunnelDuplicate),
    );
    m.set(
        "pipeline.candidates_executed",
        counter(Counter::FunnelExecuted),
    );
    m.set("guard.vetoed", t.count("discover.vetoed"));
    m.set("exec.runs", counter(Counter::ExecRuns));

    m.set("minimize.config_ms_p50", p50("bench.minimize.config", 1e3));
    m.set(
        "minimize.rules_kept_ratio",
        ratio(
            t.count("minimize.deltas_after"),
            t.count("minimize.deltas_before"),
        ),
    );
    m.set("groups.winners", t.count("groups.winners"));

    m.set("flight.ingest_us_p50", p50("bench.flight.ingest", 1e6));
    m.set(
        "flight.serve_day_ms_p50",
        p50("bench.flight.serve_day", 1e3),
    );
    m.set(
        "flight.revalidate_ms_p50",
        p50("bench.flight.revalidate", 1e3),
    );
    m.set("flight.advance_us_p50", p50("bench.flight.advance", 1e6));
    m.set("flight.steered", t.count("flight.steered"));
    m.set("flight.fallbacks", t.count("flight.fallbacks"));
    m.set("flight.rollbacks", t.count("flight.rollbacks"));
    m.set("flight.journal_events", t.count("flight.journal_events"));
    m.set("flight.journal_bytes", t.count("flight.journal_bytes"));
    m.set("flight.recover_us", p50("bench.flight.recover", 1e6));

    let requests = t.count("serve.requests");
    let calls = t.samples("bench.serve.serve_day").len() as f64;
    m.set(
        "serve.day_ns_per_request",
        ratio(t.total("bench.serve.serve_day") * 1e9, requests),
    );
    m.set(
        "serve.batch_ns_p99",
        percentile(
            &t.scaled("bench.serve.serve_day", ratio(1e9 * calls, requests)),
            0.99,
        ),
    );
    m.set("serve.publish_us_p50", p50("bench.serve.publish", 1e6));
    m.set("serve.retire_us_p50", p50("bench.serve.retire", 1e6));
    m.set("serve.hit_ratio", ratio(t.count("serve.hits"), requests));
    m.set(
        "serve.steered_ratio",
        ratio(t.count("serve.steered"), requests),
    );
    m.set("serve.table_entries", t.count("serve.table_entries"));

    m.set(
        "feedback.ingest_ns_p50",
        p50("feedback.ingest_per_run_s", 1e9),
    );
    m.set(
        "feedback.end_of_day_us_p50",
        p50("bench.feedback.end_of_day", 1e6),
    );
    m.set("feedback.promoted", t.count("feedback.promoted"));
    m.set("feedback.rel_error_last_day", t.count("feedback.rel_error"));

    m.set(
        "trace.overhead_pct",
        100.0 * ratio(t.wall_s - r.wall_s, r.wall_s),
    );
    m.set("trace.spans", spans.len() as f64);
    m.set("trace.spans_dropped", counter(Counter::TraceSpansDropped));

    match &built.inputs {
        Inputs::Loop { days } => probes::discovery(days[0].iter().collect(), o.seed, &mut m),
        Inputs::Discover { tags } => {
            probes::discovery(tags.iter().flatten().collect(), o.seed, &mut m);
        }
        inputs => probes::serving(inputs, &mut m),
    }

    notes.push(format!(
        "wall: reference {:.4} s, traced {:.4} s; {} spans",
        r.wall_s,
        t.wall_s,
        spans.len()
    ));
    write_chrome_trace(o.workload, &spans, notes);
    (m, vec![reference, t])
}

/// The traced run leaves its Chrome trace beside the executable, which is
/// under the build's target directory.
fn write_chrome_trace(workload: Workload, spans: &[SpanEvent], notes: &mut Vec<String>) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
    else {
        return;
    };
    let path = dir.join(format!("steer_bench_trace_{}.json", workload.name()));
    notes.push(
        match std::fs::write(&path, scope_trace::chrome_trace(spans)) {
            Ok(()) => format!("Chrome trace: {}", path.display()),
            Err(e) => format!("Chrome trace not written to {}: {e}", path.display()),
        },
    );
}
