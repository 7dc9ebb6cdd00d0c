//! Typed counters and histograms backed by static atomic arrays.
//!
//! The registry is *closed*: [`Counter`] and [`Histogram`] enumerate every
//! metric the workspace records, so bumping one is an array index plus a
//! relaxed atomic op — no registration, no hashing, no locks — and a
//! [`MetricsSnapshot`] can enumerate the full state wait-free.
//!
//! Histograms use power-of-two buckets (`bucket b` holds values in
//! `[2^(b-1), 2^b)`, bucket 0 holds zero) with exact `count`/`sum` and
//! process-lifetime `min`/`max` gauges, giving approximate quantiles at a
//! fixed 65-slot footprint per histogram.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::enabled;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order (the storage order).
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants (size of the backing atomic array).
            pub const COUNT: usize = $name::ALL.len();

            /// Stable machine-readable name, used in JSON exports.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters. Grouped by subsystem:
    /// `funnel.*` (per-candidate fate inside `Pipeline::discover`),
    /// `exec.*` (simulator + fault layer), `bandit.*` (steer-learn).
    Counter {
        /// Candidate configs generated for a job (funnel entry).
        FunnelGenerated => "funnel.generated",
        /// Candidates rejected by the static lint gate before compiling.
        FunnelStaticRejected => "funnel.static_rejected",
        /// Candidates retired by the abstract-interpretation bounds gate:
        /// their whole-plan cost lower bound exceeded the execution
        /// threshold, so they were never compiled.
        FunnelBoundsPruned => "funnel.bounds_pruned",
        /// Candidates compiled (every candidate the static gates let through).
        FunnelCompiled => "funnel.compiled",
        /// Candidates whose compile failed (budget, no impl, panic, ...).
        FunnelCompileFailed => "funnel.compile_failed",
        /// Candidates vetoed by the plan-vetting guardrail.
        FunnelVetoed => "funnel.vetoed",
        /// Candidates dropped as duplicate plan signatures.
        FunnelDuplicate => "funnel.duplicate",
        /// Candidates that reached simulated execution.
        FunnelExecuted => "funnel.executed",
        /// Compiles served by an exploration another configuration of the
        /// same batch ran (`compile_candidates`).
        ExploreShared => "compile.explore_shared",
        /// Minimization trials compiled (`minimize_config`).
        MinimizeTrialsCompiled => "minimize.trials_compiled",
        /// Minimization trials accepted without a compile: the last
        /// accepted compile's footprint shows the flip cannot change the
        /// plan.
        MinimizeTrialsSkipped => "minimize.trials_skipped",
        /// Simulated runs completed (success or failure).
        ExecRuns => "exec.runs",
        /// Task retries scheduled by the fault layer.
        ExecRetries => "exec.retries",
        /// Straggler waves observed by the fault layer.
        ExecStragglers => "exec.stragglers",
        /// Speculative copies launched by the fault layer.
        ExecSpeculativeCopies => "exec.speculative_copies",
        /// Runs that ended in `JobOutcome::Failed`.
        ExecFailures => "exec.failures",
        /// Runs that ended in `JobOutcome::TimedOut`.
        ExecTimeouts => "exec.timeouts",
        /// `ThompsonGaussian::choose` saw no finite sample and fell back
        /// to its deterministic arm.
        BanditDegenerateChoice => "bandit.degenerate_choice",
        /// Jobs served a steered plan by the flight controller.
        FlightServedSteered => "flight.served_steered",
        /// Jobs matching a flighted hint but held on the default plan by
        /// the canary hash split.
        FlightHeldBack => "flight.held_back",
        /// Flight stage promotions (Candidate→Canary, ramp-ups, →Deployed).
        FlightPromotions => "flight.promotions",
        /// Flights auto-rolled back by the regression monitor.
        FlightRollbacks => "flight.rollbacks",
        /// Quarantined hints restored to Canary after clean probation.
        FlightRestorations => "flight.restorations",
        /// Per-group daily observations fed to regression monitors.
        FlightObservations => "flight.observations",
        /// Events appended to the flight journal (including torn/lost
        /// writes under an armed crash plan).
        FlightJournalEvents => "flight.journal_events",
        /// Journal/snapshot recoveries performed.
        FlightRecoveries => "flight.recoveries",
        /// Steering-service requests received (admitted or shed).
        ServeRequests => "serve.requests",
        /// Requests answered with a steered (non-default) config.
        ServeSteered => "serve.steered",
        /// Requests answered with the default config (any reason).
        ServeDefault => "serve.default",
        /// Requests shed by admission control (served default, not errored).
        ServeShed => "serve.shed",
        /// Requests whose decision budget expired (hard default fallback).
        ServeDeadlineExpired => "serve.deadline_expired",
        /// Circuit breaker transitions Closed→Open.
        ServeBreakerTrips => "serve.breaker_trips",
        /// Circuit breaker transitions Open→HalfOpen (probe windows).
        ServeBreakerHalfOpens => "serve.breaker_half_opens",
        /// Degraded-mode ladder transitions (either direction).
        ServeModeTransitions => "serve.mode_transitions",
        /// Serving-table snapshot publishes (copy-on-write swaps).
        ServeTableSwaps => "serve.table_swaps",
        /// Serving-table entries failing their checksum (torn reads
        /// detected and refused — served default instead).
        ServeTornReads => "serve.torn_reads",
        /// Serving-table entries retired (rollback / quarantine).
        ServeRetired => "serve.retired",
        /// Span events dropped because the global sink hit its cap.
        TraceSpansDropped => "trace.spans_dropped",
    }
}

metric_enum! {
    /// Value distributions. Units are part of the contract and encoded in
    /// the name suffix (`_us` microseconds, `_ms` milliseconds, bare =
    /// dimensionless count).
    Histogram {
        /// End-to-end `compile_with_budget` latency (µs).
        CompileMicros => "compile.total_us",
        /// Explore-phase latency (µs); one sample per exploration run, so
        /// fewer than compiles where a batch shares explorations.
        ExploreMicros => "compile.explore_us",
        /// Implement-phase latency (µs).
        ImplementMicros => "compile.implement_us",
        /// Memo groups after compilation.
        MemoGroups => "compile.memo_groups",
        /// Memo expressions after compilation.
        MemoExprs => "compile.memo_exprs",
        /// Optimizer tasks executed per compile.
        CompileTasks => "compile.tasks",
        /// Simulated job runtime (ms of simulated time).
        ExecSimulatedMillis => "exec.simulated_ms",
        /// Per-stage simulated runtime (ms of simulated time).
        StageSimulatedMillis => "exec.stage_simulated_ms",
        /// Candidates executed per job after dedup/top-k.
        CandidatesExecutedPerJob => "funnel.executed_per_job",
        /// Days a flight spent in its stage before auto-rollback.
        FlightDaysToRollback => "flight.days_to_rollback",
        /// Journal events replayed per recovery.
        FlightReplayedEvents => "flight.replayed_events",
        /// Per-request steering decision latency (µs, simulated).
        ServeDecisionMicros => "serve.decision_us",
        /// Serving-table entries published per snapshot swap.
        ServeTableEntries => "serve.table_entries",
        /// Requests admitted concurrently at admission time (inflight
        /// gauge sampled per request).
        ServeInflight => "serve.inflight",
    }
}

/// `bucket 0` = value 0; `bucket b (1..=64)` = values in `[2^(b-1), 2^b)`.
const N_BUCKETS: usize = 65;

#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl HistCell {
    const fn new() -> HistCell {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of independent counter lanes. A dense `[AtomicU64; COUNT]`
/// packs eight counters per cache line, so under parallel discovery every
/// thread's every bump bounces the same few lines between cores. Each
/// thread instead hashes to one of these lanes; lanes start on their own
/// cache line (`align(128)` guards against adjacent-line prefetching) and
/// reads sum across lanes. Histograms stay single-copy: they are recorded
/// only behind the `enabled()` gate, which is off on the hot path.
const N_STRIPES: usize = 8;

#[repr(align(128))]
struct CounterLane([AtomicU64; Counter::COUNT]);

impl CounterLane {
    const fn new() -> CounterLane {
        CounterLane([const { AtomicU64::new(0) }; Counter::COUNT])
    }
}

static COUNTERS: [CounterLane; N_STRIPES] = [const { CounterLane::new() }; N_STRIPES];
static HISTOGRAMS: [HistCell; Histogram::COUNT] = [const { HistCell::new() }; Histogram::COUNT];

/// Round-robin lane assignment: threads are spread evenly, and a thread's
/// lane never changes (so its counter lines stay core-local).
static NEXT_LANE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

thread_local! {
    static LANE: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed) % N_STRIPES;
}

#[inline]
fn lane() -> &'static CounterLane {
    &COUNTERS[LANE.with(|l| *l)]
}

/// Add `delta` to `counter`. No-op while the tracer is disabled.
#[inline]
pub fn count(counter: Counter, delta: u64) {
    if enabled() {
        lane().0[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Add `delta` to `counter` regardless of the enabled gate. Used for
/// bookkeeping that must stay accurate across enable/disable flips
/// (e.g. span-sink drops).
#[inline]
pub(crate) fn count_always(counter: Counter, delta: u64) {
    lane().0[counter as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Current value of one counter, summed across lanes.
fn counter_total(c: Counter) -> u64 {
    COUNTERS
        .iter()
        .map(|lane| lane.0[c as usize].load(Ordering::Relaxed))
        .sum()
}

/// Record one observation of `value` into `hist`. No-op while the tracer
/// is disabled.
#[inline]
pub fn record(hist: Histogram, value: u64) {
    if !enabled() {
        return;
    }
    let cell = &HISTOGRAMS[hist as usize];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.sum.fetch_add(value, Ordering::Relaxed);
    cell.min.fetch_min(value, Ordering::Relaxed);
    cell.max.fetch_max(value, Ordering::Relaxed);
    cell.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
}

/// Zero all counters and histograms (used by [`crate::reset`]).
pub(crate) fn reset_storage() {
    for lane in &COUNTERS {
        for c in &lane.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
    for h in &HISTOGRAMS {
        h.reset();
    }
}

/// A counter's value at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterValue {
    pub name: &'static str,
    pub value: u64,
}

/// A histogram's state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty). Process-lifetime gauge: not
    /// adjusted by [`MetricsSnapshot::since`].
    pub min: u64,
    /// Largest observation (0 when empty). Process-lifetime gauge.
    pub max: u64,
    /// Power-of-two bucket counts (see module docs).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn empty(name: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            name,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; N_BUCKETS],
        }
    }

    /// Exact mean of recorded observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) from the bucket counts: the
    /// geometric interior of the bucket holding the target rank, clamped
    /// to the observed `[min, max]` envelope. Exact for single-bucket
    /// histograms; within a factor of two otherwise.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let est = if b == 0 {
                    0u128
                } else {
                    ((1u128 << (b - 1)) + (1u128 << b)) / 2
                };
                let est = u64::try_from(est).unwrap_or(u64::MAX);
                return est.clamp(self.min, self.max.max(self.min));
            }
        }
        self.max
    }
}

/// Point-in-time copy of the full metric registry. [`Default`] is the
/// all-zero snapshot, so `report.metrics` is meaningful even when tracing
/// never ran.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// One entry per [`Counter`], in declaration order.
    pub counters: Vec<CounterValue>,
    /// One entry per [`Histogram`], in declaration order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| CounterValue {
                    name: c.name(),
                    value: 0,
                })
                .collect(),
            histograms: Histogram::ALL
                .iter()
                .map(|h| HistogramSnapshot::empty(h.name()))
                .collect(),
        }
    }
}

impl MetricsSnapshot {
    /// Read the current value of every counter and histogram. Wait-free;
    /// concurrent recording may be partially visible (counts and sums are
    /// each individually consistent).
    #[must_use]
    pub fn capture() -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name(),
                value: counter_total(c),
            })
            .collect();
        let histograms = Histogram::ALL
            .iter()
            .map(|&h| {
                let cell = &HISTOGRAMS[h as usize];
                let count = cell.count.load(Ordering::Relaxed);
                let raw_min = cell.min.load(Ordering::Relaxed);
                HistogramSnapshot {
                    name: h.name(),
                    count,
                    sum: cell.sum.load(Ordering::Relaxed),
                    min: if raw_min == u64::MAX { 0 } else { raw_min },
                    max: cell.max.load(Ordering::Relaxed),
                    buckets: cell
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// The delta accumulated since `earlier` (counters, counts, sums, and
    /// buckets subtract; `min`/`max` stay process-lifetime gauges). Lets a
    /// run report only its own activity although the registry is global.
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .zip(&earlier.counters)
            .map(|(now, was)| CounterValue {
                name: now.name,
                value: now.value.saturating_sub(was.value),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .zip(&earlier.histograms)
            .map(|(now, was)| HistogramSnapshot {
                name: now.name,
                count: now.count.saturating_sub(was.count),
                sum: now.sum.saturating_sub(was.sum),
                min: now.min,
                max: now.max,
                buckets: now
                    .buckets
                    .iter()
                    .zip(&was.buckets)
                    .map(|(n, w)| n.saturating_sub(*w))
                    .collect(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Value of one counter in this snapshot.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].value
    }

    /// One histogram's state in this snapshot.
    #[must_use]
    pub fn histogram(&self, h: Histogram) -> &HistogramSnapshot {
        &self.histograms[h as usize]
    }

    /// True when nothing was recorded (all counters zero, all histograms
    /// empty) — e.g. tracing was never enabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.value == 0) && self.histograms.iter().all(|h| h.count == 0)
    }

    /// Machine-readable JSON: every counter, plus per-histogram summaries
    /// (`count`/`sum`/`min`/`max`/`mean`/`p50`/`p95`). Raw buckets are
    /// omitted — consumers wanting the distribution use the Rust API.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name, c.value));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{}}}",
                h.name,
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Histogram::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn default_snapshot_is_empty_and_aligned() {
        let snap = MetricsSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.counters.len(), Counter::COUNT);
        assert_eq!(snap.histograms.len(), Histogram::COUNT);
        assert_eq!(snap.counter(Counter::BanditDegenerateChoice), 0);
        assert_eq!(snap.histogram(Histogram::MemoGroups).count, 0);
    }

    #[test]
    fn quantiles_track_buckets() {
        let mut h = HistogramSnapshot::empty("test");
        // 10 observations of exactly 100 (bucket 7: [64, 128)).
        h.count = 10;
        h.sum = 1000;
        h.min = 100;
        h.max = 100;
        h.buckets[bucket_of(100)] = 10;
        // Clamped to [min, max] ⇒ exact here.
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 100);
        assert!((h.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn since_subtracts_counts_and_buckets() {
        let mut earlier = MetricsSnapshot::default();
        let mut later = MetricsSnapshot::default();
        let ci = Counter::FunnelGenerated as usize;
        earlier.counters[ci].value = 5;
        later.counters[ci].value = 12;
        let hi = Histogram::CompileMicros as usize;
        earlier.histograms[hi].count = 2;
        earlier.histograms[hi].sum = 20;
        earlier.histograms[hi].buckets[4] = 2;
        later.histograms[hi].count = 5;
        later.histograms[hi].sum = 80;
        later.histograms[hi].buckets[4] = 3;
        later.histograms[hi].buckets[5] = 2;
        later.histograms[hi].min = 9;
        later.histograms[hi].max = 31;

        let delta = later.since(&earlier);
        assert_eq!(delta.counter(Counter::FunnelGenerated), 7);
        let h = delta.histogram(Histogram::CompileMicros);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 60);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[5], 2);
        assert_eq!(h.min, 9);
        assert_eq!(h.max, 31);
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        // `count_always` bypasses the enabled gate, so this test does not
        // perturb (or depend on) the global tracer state beyond the one
        // counter it bumps — read via before/after totals. The gate keeps
        // a concurrent `reset()` from zeroing that counter mid-sum.
        let _g = crate::test_gate();
        let before = counter_total(Counter::TraceSpansDropped);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        count_always(Counter::TraceSpansDropped, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        count_always(Counter::TraceSpansDropped, 1);
        let after = counter_total(Counter::TraceSpansDropped);
        assert_eq!(after - before, 4 * 1000 + 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let snap = MetricsSnapshot::default();
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"funnel.generated\":0"));
        assert!(json.contains("\"compile.total_us\":{\"count\":0"));
        assert!(json.ends_with("}}"));
    }
}
