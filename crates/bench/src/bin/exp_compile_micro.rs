//! **Compile micro-benchmark**: single-compile latency and allocation
//! counts for the arena/interner compile path against the frozen
//! pre-rework oracle (`scope_optimizer::classic`).
//!
//! Three paths are measured over the same workload day:
//!
//! - `classic` — the byte-for-byte snapshot of the compile path before the
//!   arena rework (owned memo, per-expression rule vectors);
//! - `arena_fresh` — the live path through a brand-new [`CompileScratch`]
//!   per compile (what a cold thread pays);
//! - `arena_reused` — the live path through one scratch reused across all
//!   compiles (the steady state of the thread-local fast path and of
//!   per-worker scratch in parallel discovery).
//!
//! Every job is first compiled on all three paths and the
//! [`CompiledPlan::fingerprint`]s are asserted identical (or the errors
//! equal) — this benchmark refuses to report a speedup for a path that
//! changes results. Latency is then measured per job as the minimum over
//! interleaved repetitions (robust to scheduler noise on small machines),
//! and allocations are counted by a wrapping `#[global_allocator]`.
//!
//! Emits `results/BENCH_compile.json`. The ≥25% mean-latency gate and the
//! fewer-allocations gate fire at `--scale` ≥ 0.1; smoke runs below that
//! assert only bit-identity.
//!
//! Run: `cargo run -p scope-steer-bench --release --bin exp_compile_micro -- [--scale=1.0]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scope_ir::{Job, ObservableCatalog};
use scope_optimizer::classic::compile_classic;
use scope_optimizer::optimizer::{compile_with_scratch, CompileScratch};
use scope_optimizer::{
    effective_config, CompileBudget, CompileError, CompiledPlan, CostModel, RuleConfig,
};
use scope_steer_bench::harness::workload;
use scope_steer_bench::reporting::{
    banner, json_array, json_object, markdown_table, scale_arg, write_json,
};
use scope_workload::WorkloadTag;

/// Allocation-counting wrapper around the system allocator. Counts every
/// `alloc`/`realloc` call and the bytes requested; `dealloc` is passed
/// through uncounted (frees mirror allocations).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Interleaved repetitions per path: each rep re-times every job on every
/// path back-to-back, and a job's latency is its minimum across reps, so a
/// scheduler hiccup hits one rep of one path, not one path's whole mean.
const REPS: usize = 5;

struct PathStats {
    name: &'static str,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    allocs_per_compile: f64,
    alloc_kb_per_compile: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn stats_for(name: &'static str, mins_us: &[f64], allocs: u64, bytes: u64, n: usize) -> PathStats {
    let mut sorted = mins_us.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    PathStats {
        name,
        mean_us: mins_us.iter().sum::<f64>() / mins_us.len().max(1) as f64,
        p50_us: percentile(&sorted, 0.50),
        p95_us: percentile(&sorted, 0.95),
        allocs_per_compile: allocs as f64 / n.max(1) as f64,
        alloc_kb_per_compile: bytes as f64 / 1024.0 / n.max(1) as f64,
    }
}

/// One arena-path compile under the default budget and cost model.
fn compile_arena(
    job: &Job,
    obs: &ObservableCatalog,
    config: &RuleConfig,
    scratch: &mut CompileScratch,
) -> Result<CompiledPlan, CompileError> {
    let budget = CompileBudget::default();
    compile_with_scratch(
        &job.plan,
        obs,
        config,
        &budget,
        &CostModel::DEFAULT,
        scratch,
    )
}

fn main() {
    let scale = scale_arg();
    banner(
        "CompileMicro",
        "single-compile latency + allocations: arena/interner path vs the frozen classic oracle",
    );
    let w = workload(WorkloadTag::A, scale);
    let jobs = w.day(0);
    let default = RuleConfig::default_config();

    // Pre-derive everything that is not the compile itself, and keep only
    // jobs that compile cleanly under the default config (both paths must
    // agree on which those are — asserted below for every job).
    let prepared: Vec<_> = jobs
        .iter()
        .map(|job: &Job| {
            let obs = job.catalog.observe();
            let config = effective_config(job, &default);
            (job, obs, config)
        })
        .collect();

    // ── Bit-identity gate ───────────────────────────────────────────────
    let mut reused = CompileScratch::new();
    let mut ok_idx: Vec<usize> = Vec::new();
    for (i, (job, obs, config)) in prepared.iter().enumerate() {
        let classic = compile_classic(&job.plan, obs, config)
            .map(|p| p.fingerprint())
            .map_err(|e| e.to_string());
        let fresh = compile_arena(job, obs, config, &mut CompileScratch::new())
            .map(|p| p.fingerprint())
            .map_err(|e| e.to_string());
        let warm = compile_arena(job, obs, config, &mut reused)
            .map(|p| p.fingerprint())
            .map_err(|e| e.to_string());
        assert_eq!(classic, fresh, "arena (fresh) diverged on job {}", job.id);
        assert_eq!(classic, warm, "arena (reused) diverged on job {}", job.id);
        if classic.is_ok() {
            ok_idx.push(i);
        }
    }
    let n = ok_idx.len();
    println!(
        "{} jobs, {} compile under the default config; all {} fingerprints identical across paths",
        jobs.len(),
        n,
        3 * jobs.len(),
    );
    assert!(n > 0, "vacuous: no job compiled");

    // ── Allocation counts (one full pass per path, after the warm-up the
    // identity gate already provided) ───────────────────────────────────
    let (a0, b0) = alloc_snapshot();
    for &i in &ok_idx {
        let (job, obs, config) = &prepared[i];
        let _ = compile_classic(&job.plan, obs, config);
    }
    let (a1, b1) = alloc_snapshot();
    for &i in &ok_idx {
        let (job, obs, config) = &prepared[i];
        let _ = compile_arena(job, obs, config, &mut CompileScratch::new());
    }
    let (a2, b2) = alloc_snapshot();
    for &i in &ok_idx {
        let (job, obs, config) = &prepared[i];
        let _ = compile_arena(job, obs, config, &mut reused);
    }
    let (a3, b3) = alloc_snapshot();
    let allocs = [(a1 - a0, b1 - b0), (a2 - a1, b2 - b1), (a3 - a2, b3 - b2)];

    // ── Latency: interleaved min-of-reps per job ────────────────────────
    let mut min_classic = vec![f64::INFINITY; n];
    let mut min_fresh = vec![f64::INFINITY; n];
    let mut min_reused = vec![f64::INFINITY; n];
    for _rep in 0..REPS {
        for (slot, &i) in ok_idx.iter().enumerate() {
            let (job, obs, config) = &prepared[i];

            let t = Instant::now();
            let r = compile_classic(&job.plan, obs, config);
            let dt = t.elapsed().as_secs_f64() * 1e6;
            assert!(r.is_ok());
            min_classic[slot] = min_classic[slot].min(dt);

            let mut scratch = CompileScratch::new();
            let t = Instant::now();
            let r = compile_arena(job, obs, config, &mut scratch);
            let dt = t.elapsed().as_secs_f64() * 1e6;
            assert!(r.is_ok());
            min_fresh[slot] = min_fresh[slot].min(dt);

            let t = Instant::now();
            let r = compile_arena(job, obs, config, &mut reused);
            let dt = t.elapsed().as_secs_f64() * 1e6;
            assert!(r.is_ok());
            min_reused[slot] = min_reused[slot].min(dt);
        }
    }

    let paths = [
        stats_for("classic", &min_classic, allocs[0].0, allocs[0].1, n),
        stats_for("arena_fresh", &min_fresh, allocs[1].0, allocs[1].1, n),
        stats_for("arena_reused", &min_reused, allocs[2].0, allocs[2].1, n),
    ];

    let table: Vec<Vec<String>> = paths
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", p.mean_us),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p95_us),
                format!("{:.1}", p.allocs_per_compile),
                format!("{:.1}", p.alloc_kb_per_compile),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "path",
                "mean (µs)",
                "p50 (µs)",
                "p95 (µs)",
                "allocs/compile",
                "alloc KiB/compile"
            ],
            &table
        )
    );

    let classic = &paths[0];
    let reused_stats = &paths[2];
    let latency_reduction_pct = 100.0 * (1.0 - reused_stats.mean_us / classic.mean_us.max(1e-9));
    let alloc_reduction_pct =
        100.0 * (1.0 - reused_stats.allocs_per_compile / classic.allocs_per_compile.max(1e-9));
    println!(
        "arena_reused vs classic: {latency_reduction_pct:.1}% mean latency reduction, {alloc_reduction_pct:.1}% fewer allocations"
    );

    let path_rows: Vec<String> = paths
        .iter()
        .map(|p| {
            json_object(&[
                ("path", format!("\"{}\"", p.name)),
                ("mean_us", format!("{:.3}", p.mean_us)),
                ("p50_us", format!("{:.3}", p.p50_us)),
                ("p95_us", format!("{:.3}", p.p95_us)),
                ("allocs_per_compile", format!("{:.2}", p.allocs_per_compile)),
                (
                    "alloc_kib_per_compile",
                    format!("{:.2}", p.alloc_kb_per_compile),
                ),
            ])
        })
        .collect();
    let body = json_object(&[
        ("experiment", "\"compile_micro\"".into()),
        ("scale", format!("{scale}")),
        ("n_jobs", jobs.len().to_string()),
        ("n_compiled", n.to_string()),
        ("reps", REPS.to_string()),
        ("all_fingerprints_identical", "true".into()),
        (
            "latency_reduction_pct_reused_vs_classic",
            format!("{latency_reduction_pct:.2}"),
        ),
        (
            "alloc_reduction_pct_reused_vs_classic",
            format!("{alloc_reduction_pct:.2}"),
        ),
        ("paths", json_array(&path_rows)),
    ]);
    let out = write_json("BENCH_compile.json", &body);
    println!("wrote {}", out.display());

    // Performance gates: only at real scale — sub-0.1 smoke runs (CI) have
    // too few jobs for stable percentiles, and their job is the identity
    // assert above, which already ran unconditionally.
    if scale >= 0.1 {
        assert!(
            reused_stats.allocs_per_compile < classic.allocs_per_compile,
            "arena path must allocate strictly less than classic ({:.1} vs {:.1} allocs/compile)",
            reused_stats.allocs_per_compile,
            classic.allocs_per_compile
        );
        assert!(
            latency_reduction_pct >= 25.0,
            "arena path must be ≥25% faster than classic (got {latency_reduction_pct:.1}%)"
        );
    }
}
