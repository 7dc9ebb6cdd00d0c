//! Seeded, deterministic fault injection for the cluster simulator.
//!
//! Production SCOPE clusters lose vertices to transient machine failures,
//! grow stragglers on hot or degraded nodes, and occasionally have whole
//! stages preempted when capacity is reclaimed. The paper's steering
//! pipeline has to survive all of that: a candidate configuration whose
//! A/B trial dies is *evidence to discard*, not a panic, and a steered
//! production run that fails falls back to the default plan (§3.3's
//! guardrail). This module injects those failure modes into the simulator
//! in a seeded, reproducible way:
//!
//! * [`FaultProfile`] — per-run fault rates: transient per-vertex failure
//!   probability, straggler probability, stage preemption, the retry
//!   budget, an optional job timeout, and plan-targeted slowdowns.
//! * [`JobOutcome`] — what happened: clean success, success after retries,
//!   retry-budget exhaustion, or timeout.
//! * `schedule_with_faults` — the simulator's one critical-path scheduler.
//!   Every run, faulted or not, goes through it; with
//!   [`FaultProfile::none`] it draws nothing and is the plain makespan.
//!
//! Failed vertices force their stage to re-run: retries consume a shared
//! job-level budget, add exponential backoff to the critical path, and
//! inflate CPU/IO by the re-executed work. A straggling stage gets a
//! speculative backup copy, which caps its stretch at `SPECULATION_CAP`
//! but duplicates the stage's work.

use rand::Rng;

use crate::simulate::{
    waves_for_tokens, RunMetrics, StageGraph, STAGE_OVERHEAD_S, WAVE_OVERHEAD_S,
};

/// A straggling stage attempt's wall-time stretch: the speculative backup
/// copy launched for the straggler finishes first, at this factor.
const SPECULATION_CAP: f64 = 1.5;
/// Backoff before a run's first stage retry (seconds); doubles per retry.
const BACKOFF_BASE_S: f64 = 5.0;
/// Exponential backoff stops doubling after this many retries.
const BACKOFF_DOUBLING_CAP: u32 = 6;

/// Fault rates applied to one simulated run. All probabilities are per
/// stage *attempt*; vertex failures compound with the stage's parallelism.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability that a single vertex attempt fails transiently. A stage
    /// with `dop` vertices fails with probability `1 - (1-p)^dop`.
    pub vertex_failure_prob: f64,
    /// Probability that a stage attempt grows a straggler.
    pub straggler_prob: f64,
    /// Probability that a stage attempt is preempted by capacity reclaim
    /// (kills the whole attempt, like a failure).
    pub preemption_prob: f64,
    /// Job-level retry budget shared across all stages.
    pub max_retries: u32,
    /// Job-level wall-clock timeout in seconds: a run whose noisy runtime
    /// passes it is killed there and reported [`JobOutcome::TimedOut`].
    pub timeout_s: Option<f64>,
    /// Planted plan-targeted regressions: any run whose
    /// [`plan_fingerprint`](crate::abtest::plan_fingerprint) appears here
    /// has its runtime and CPU multiplied by the paired factor. This
    /// models an environment shift that hurts *one specific plan shape*
    /// (the case flighting must contain) while leaving every other plan —
    /// including the default plan for the same job — untouched.
    pub slowdown_plans: Vec<(u64, f64)>,
}

impl FaultProfile {
    /// No faults at all: a run under this profile draws nothing but its
    /// noise.
    pub fn none() -> FaultProfile {
        FaultProfile {
            vertex_failure_prob: 0.0,
            straggler_prob: 0.0,
            preemption_prob: 0.0,
            max_retries: 3,
            timeout_s: None,
            slowdown_plans: Vec::new(),
        }
    }

    /// A bad day: frequent vertex failures, common stragglers, real
    /// preemption pressure.
    pub fn heavy() -> FaultProfile {
        FaultProfile {
            vertex_failure_prob: 2e-3,
            straggler_prob: 0.10,
            preemption_prob: 0.01,
            ..FaultProfile::none()
        }
    }

    /// A profile that only injects transient vertex failures at `p` (used
    /// by the fault-sweep experiment).
    pub fn with_vertex_failures(p: f64) -> FaultProfile {
        FaultProfile {
            vertex_failure_prob: p,
            ..FaultProfile::none()
        }
    }

    /// Same profile with a job-level timeout.
    pub fn with_timeout(mut self, timeout_s: f64) -> FaultProfile {
        self.timeout_s = Some(timeout_s);
        self
    }

    /// A profile that only plants plan-targeted slowdowns (used by the
    /// flighting experiment to inject a regression into specific hints).
    pub fn with_slowdown_plans(plans: Vec<(u64, f64)>) -> FaultProfile {
        FaultProfile {
            slowdown_plans: plans,
            ..FaultProfile::none()
        }
    }

    /// The planted slowdown factor for a plan fingerprint (1.0 when the
    /// plan is not targeted). First match wins.
    pub(crate) fn slowdown_for(&self, fingerprint: u64) -> f64 {
        self.slowdown_plans
            .iter()
            .find(|(fp, _)| *fp == fingerprint)
            .map_or(1.0, |(_, factor)| factor.max(0.0))
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// How a simulated job run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Finished with no faults observed.
    Success,
    /// Finished, but some stages had to be re-run.
    SuccessWithRetries { retries: u32 },
    /// The retry budget ran out before the job completed.
    Failed { reason: String },
    /// The job exceeded its wall-clock timeout.
    TimedOut,
}

impl JobOutcome {
    /// Whether the job produced its output.
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            JobOutcome::Success | JobOutcome::SuccessWithRetries { .. }
        )
    }

    /// Retries consumed (0 unless `SuccessWithRetries`).
    pub fn retries(&self) -> u32 {
        match self {
            JobOutcome::SuccessWithRetries { retries } => *retries,
            _ => 0,
        }
    }
}

/// One faulted execution: metrics plus how the run ended.
#[derive(Clone, Debug)]
pub struct FaultedRun {
    /// For failed/timed-out runs these are the *partial* metrics up to the
    /// abort point — still finite and non-negative, never NaN.
    pub metrics: RunMetrics,
    pub outcome: JobOutcome,
    /// Stage re-executions consumed from the retry budget.
    pub retries: u32,
    /// Speculative backup copies launched for stragglers.
    pub speculative_copies: u32,
}

/// Deterministic process-crash fault for crash-safety testing.
///
/// A crash plan is a countdown over durable-write operations (journal
/// appends, snapshot writes): while the countdown lasts every operation
/// persists normally, the operation on which it expires is *torn* — only
/// a byte prefix reaches stable storage, modelling a crash mid-`write` —
/// and every operation after that is lost entirely (the process is dead).
/// Being a countdown rather than a probability keeps crash tests
/// bit-reproducible: the same plan always kills the same write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    remaining: u64,
    torn_bytes: usize,
    dead: bool,
}

/// What a [`CrashPlan`] decided for one durable-write operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashRoll {
    /// The write persists in full.
    Alive,
    /// The process crashed mid-write: only this many bytes persisted.
    Torn(usize),
    /// The process is already dead; nothing persists.
    Dead,
}

impl CrashPlan {
    /// Crash on the write after `survive` successful operations, leaving
    /// `torn_bytes` of that final write on stable storage.
    pub fn after_ops(survive: u64, torn_bytes: usize) -> CrashPlan {
        CrashPlan {
            remaining: survive,
            torn_bytes,
            dead: false,
        }
    }

    /// Roll the plan for the next durable-write operation.
    pub fn roll(&mut self) -> CrashRoll {
        if self.dead {
            return CrashRoll::Dead;
        }
        if self.remaining == 0 {
            self.dead = true;
            return CrashRoll::Torn(self.torn_bytes);
        }
        self.remaining -= 1;
        CrashRoll::Alive
    }

    /// Whether the simulated process has already crashed.
    pub fn crashed(&self) -> bool {
        self.dead
    }
}

/// A torn serving-table snapshot swap: the publisher "crashes" while
/// writing its `publish`-th snapshot (0-based), which swaps in with one
/// entry carrying a corrupted checksum — a torn entry write the read path
/// must detect and refuse to serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornSwap {
    /// 0-based index of the publish operation that tears.
    pub publish: u64,
}

/// Fault rates targeting the *serving loop* rather than simulated
/// execution: slow table lookups, torn snapshot swaps, flighting-journal
/// write stalls, and burst overload on the arrival curve. All randomness
/// is derived from pure hashes of `(seed, day, index)` inside the serving
/// layer, so a profile is bit-reproducible across runs and thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeFaultProfile {
    /// Profile name, used in reports and the bench fault matrix.
    pub name: &'static str,
    /// Probability a single lookup is slow (per-request deterministic roll).
    pub slow_lookup_prob: f64,
    /// Extra decision latency added to a slow lookup (µs).
    pub slow_lookup_extra_us: u64,
    /// Probability a flighting-journal write stalls (per maintenance tick);
    /// consecutive stalls trip the circuit breaker.
    pub journal_stall_prob: f64,
    /// Torn snapshot swap, if any.
    pub torn_swap: Option<TornSwap>,
    /// Burst overload overlay on the arrival curve, if any.
    pub burst: Option<crate::arrival::ArrivalBurst>,
}

impl ServeFaultProfile {
    /// No serving faults.
    pub fn none() -> ServeFaultProfile {
        ServeFaultProfile {
            name: "none",
            slow_lookup_prob: 0.0,
            slow_lookup_extra_us: 0,
            journal_stall_prob: 0.0,
            torn_swap: None,
            burst: None,
        }
    }

    /// A quarter of lookups blow straight through the decision deadline.
    pub fn slow_lookups() -> ServeFaultProfile {
        ServeFaultProfile {
            name: "slow_lookups",
            slow_lookup_prob: 0.25,
            slow_lookup_extra_us: 5_000,
            ..ServeFaultProfile::none()
        }
    }

    /// The second snapshot publish tears: one of its entries lands with a
    /// corrupted checksum.
    pub fn torn_swaps() -> ServeFaultProfile {
        ServeFaultProfile {
            name: "torn_swaps",
            torn_swap: Some(TornSwap { publish: 1 }),
            ..ServeFaultProfile::none()
        }
    }

    /// Half of all flighting-journal writes stall — breaker food.
    pub fn journal_stalls() -> ServeFaultProfile {
        ServeFaultProfile {
            name: "journal_stalls",
            journal_stall_prob: 0.5,
            ..ServeFaultProfile::none()
        }
    }

    /// A thundering-herd arrival spike (see
    /// `ArrivalBurst::spike`).
    pub fn burst_overload() -> ServeFaultProfile {
        ServeFaultProfile {
            name: "burst_overload",
            burst: Some(crate::arrival::ArrivalBurst::spike()),
            ..ServeFaultProfile::none()
        }
    }

    /// The full fault matrix the serving bench replays.
    pub fn all() -> Vec<ServeFaultProfile> {
        vec![
            ServeFaultProfile::none(),
            ServeFaultProfile::slow_lookups(),
            ServeFaultProfile::torn_swaps(),
            ServeFaultProfile::journal_stalls(),
            ServeFaultProfile::burst_overload(),
        ]
    }
}

impl Default for ServeFaultProfile {
    fn default() -> Self {
        ServeFaultProfile::none()
    }
}

/// Fault accounting for one pass over the stage graph.
pub(crate) struct Schedule {
    pub(crate) runtime: f64,
    /// Stage-elapsed seconds that were executed more than once (retried
    /// fractions, speculative copies). Inflates CPU and IO.
    pub(crate) rework_elapsed: f64,
    /// Fault-free stage-elapsed seconds (denominator for the rework
    /// fraction).
    pub(crate) clean_elapsed: f64,
    pub(crate) retries: u32,
    pub(crate) speculative_copies: u32,
    /// Stage index where the retry budget ran out, if any.
    pub(crate) failed_at: Option<usize>,
}

/// Walk the stage graph in topological order, rolling faults per stage
/// attempt. Failures and preemptions kill the attempt partway through and
/// consume the shared retry budget (plus exponential backoff); stragglers
/// stretch the attempt by `SPECULATION_CAP`. A fault whose probability is
/// zero is never rolled, so [`FaultProfile::none`] draws nothing from `rng`
/// and finishes each stage at `start + clean`: the critical-path makespan.
pub(crate) fn schedule_with_faults<R: Rng + ?Sized>(
    stages: &StageGraph,
    tokens: u32,
    profile: &FaultProfile,
    rng: &mut R,
) -> Schedule {
    let n = stages.stages.len();
    let mut finish = vec![0.0_f64; n];
    let mut sched = Schedule {
        runtime: STAGE_OVERHEAD_S,
        rework_elapsed: 0.0,
        clean_elapsed: 0.0,
        retries: 0,
        speculative_copies: 0,
        failed_at: None,
    };
    let mut retries_left = profile.max_retries;

    for (i, stage) in stages.stages.iter().enumerate() {
        let start = stage
            .deps
            .iter()
            .map(|&d| finish[d])
            .fold(0.0_f64, f64::max);
        let waves = waves_for_tokens(stage.dop, tokens);
        let clean = stage.elapsed * waves + STAGE_OVERHEAD_S + WAVE_OVERHEAD_S * waves;
        sched.clean_elapsed += stage.elapsed;

        // A stage attempt dies when any of its vertices fails transiently
        // (compounding with parallelism) or the attempt is preempted.
        let p_vertex_escalated = if profile.vertex_failure_prob > 0.0 {
            1.0 - (1.0 - profile.vertex_failure_prob.min(1.0)).powi(stage.dop.max(1) as i32)
        } else {
            0.0
        };
        let p_attempt_dies = (p_vertex_escalated + profile.preemption_prob).clamp(0.0, 0.95);

        let mut time = 0.0;
        loop {
            let mut attempt_time = clean;
            if profile.straggler_prob > 0.0 && rng.gen_bool(profile.straggler_prob.min(1.0)) {
                scope_trace::count(scope_trace::Counter::ExecStragglers, 1);
                attempt_time = clean * SPECULATION_CAP;
                sched.speculative_copies += 1;
                // The backup duplicates the straggling stage's work.
                sched.rework_elapsed += stage.elapsed;
            }
            if p_attempt_dies > 0.0 && rng.gen_bool(p_attempt_dies) {
                // The attempt dies partway through; its work is wasted.
                let done_frac: f64 = rng.gen_range(0.1..0.9);
                time += attempt_time * done_frac;
                sched.rework_elapsed += stage.elapsed * done_frac;
                if retries_left == 0 {
                    finish[i] = start + time;
                    sched.failed_at = Some(i);
                    sched.runtime = finish[i];
                    debug_assert!(
                        sched.runtime.is_finite() && sched.runtime >= 0.0,
                        "faulted schedule runtime must stay finite: {}",
                        sched.runtime
                    );
                    return sched;
                }
                retries_left -= 1;
                sched.retries += 1;
                let doubling = (sched.retries - 1).min(BACKOFF_DOUBLING_CAP);
                time += BACKOFF_BASE_S * f64::powi(2.0, doubling as i32);
                continue;
            }
            time += attempt_time;
            break;
        }
        finish[i] = start + time;
    }

    sched.runtime = finish
        .get(stages.root_stage)
        .copied()
        .unwrap_or(STAGE_OVERHEAD_S);
    debug_assert!(
        sched.runtime.is_finite() && sched.runtime >= 0.0,
        "faulted schedule runtime must stay finite: {}",
        sched.runtime
    );
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::Stage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_graph(elapsed: f64, dop: u32, n: usize) -> StageGraph {
        let stages = (0..n)
            .map(|i| Stage {
                elapsed,
                dop,
                deps: if i == 0 { vec![] } else { vec![i - 1] },
            })
            .collect();
        StageGraph {
            stages,
            node_stage: vec![],
            root_stage: n - 1,
        }
    }

    #[test]
    fn none_profile_is_inert() {
        // No fault can fire, so the schedule draws nothing: the generator
        // comes back where it started and the noise stream is untouched.
        let g = chain_graph(10.0, 500, 3);
        for p in [FaultProfile::none(), FaultProfile::none().with_timeout(1.0)] {
            let mut rng = StdRng::seed_from_u64(1);
            let sched = schedule_with_faults(&g, 50, &p, &mut rng);
            assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(1).gen::<u64>());
            assert_eq!(sched.retries, 0);
            assert_eq!(sched.speculative_copies, 0);
            assert!(sched.failed_at.is_none());
            assert_eq!(sched.rework_elapsed, 0.0);
        }
    }

    #[test]
    fn schedule_without_faults_matches_makespan() {
        let g = chain_graph(10.0, 50, 3);
        let p = FaultProfile::none();
        let mut rng = StdRng::seed_from_u64(1);
        let sched = schedule_with_faults(&g, 50, &p, &mut rng);
        let expected = crate::simulate::makespan(&g, 50);
        assert!((sched.runtime - expected).abs() < 1e-9);
        assert_eq!(sched.retries, 0);
        assert!(sched.failed_at.is_none());
        assert_eq!(sched.rework_elapsed, 0.0);
    }

    #[test]
    fn retries_add_time_and_rework() {
        let g = chain_graph(10.0, 100, 4);
        let mut p = FaultProfile::with_vertex_failures(0.01);
        p.max_retries = 50;
        // With dop 100 and p=0.01, each attempt dies with ~63% probability:
        // retries are essentially guaranteed over 4 stages.
        let mut rng = StdRng::seed_from_u64(3);
        let sched = schedule_with_faults(&g, 100, &p, &mut rng);
        assert!(sched.retries > 0);
        assert!(sched.failed_at.is_none(), "budget of 50 should suffice");
        assert!(sched.rework_elapsed > 0.0);
        assert!(sched.runtime > crate::simulate::makespan(&g, 100));
    }

    #[test]
    fn budget_exhaustion_fails_the_job() {
        let g = chain_graph(10.0, 1000, 4);
        let mut p = FaultProfile::with_vertex_failures(0.05);
        p.max_retries = 2;
        // dop 1000 at p=0.05 → every attempt dies (capped at 95%).
        let mut rng = StdRng::seed_from_u64(1);
        let sched = schedule_with_faults(&g, 100, &p, &mut rng);
        assert_eq!(sched.retries, 2);
        assert!(sched.failed_at.is_some());
        assert!(sched.runtime.is_finite() && sched.runtime > 0.0);
    }

    #[test]
    fn stragglers_stretch_but_speculation_caps() {
        let g = chain_graph(100.0, 50, 6);
        let clean = crate::simulate::makespan(&g, 50);
        let mut p = FaultProfile::none();
        p.straggler_prob = 1.0; // every stage straggles
        let mut rng = StdRng::seed_from_u64(1);
        let capped = schedule_with_faults(&g, 50, &p, &mut rng);
        // Every stage of the chain stretches by exactly the cap.
        assert!(capped.runtime > clean);
        assert!((capped.runtime - SPECULATION_CAP * clean).abs() < 1e-9);
        assert_eq!(capped.speculative_copies, 6);
        // Speculation trades wall time for duplicated work.
        assert_eq!(capped.rework_elapsed, 6.0 * 100.0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let g = chain_graph(20.0, 200, 5);
        let p = FaultProfile::heavy();
        let a = schedule_with_faults(&g, 50, &p, &mut StdRng::seed_from_u64(9));
        let b = schedule_with_faults(&g, 50, &p, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.failed_at, b.failed_at);
        let c = schedule_with_faults(&g, 50, &p, &mut StdRng::seed_from_u64(10));
        // A different seed rolls different faults (overwhelmingly likely
        // under the heavy profile on 5 stages of dop 200).
        assert!(a.runtime != c.runtime || a.retries != c.retries);
    }

    #[test]
    fn slowdown_plans_make_profile_non_inert() {
        let p = FaultProfile::with_slowdown_plans(vec![(42, 1.2)]);
        assert_eq!(p.slowdown_for(42), 1.2);
        assert_eq!(p.slowdown_for(43), 1.0);
        assert_eq!(FaultProfile::none().slowdown_for(42), 1.0);
    }

    #[test]
    fn serve_profiles_cover_the_matrix() {
        let all = ServeFaultProfile::all();
        assert_eq!(all.len(), 5);
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "none",
                "slow_lookups",
                "torn_swaps",
                "journal_stalls",
                "burst_overload"
            ]
        );
        assert_eq!(ServeFaultProfile::none(), ServeFaultProfile::default());
        assert_eq!(
            ServeFaultProfile::torn_swaps().torn_swap,
            Some(TornSwap { publish: 1 })
        );
        assert!(ServeFaultProfile::burst_overload().burst.is_some());
    }

    #[test]
    fn crash_plan_counts_down_tears_once_then_stays_dead() {
        let mut c = CrashPlan::after_ops(2, 7);
        assert_eq!(c.roll(), CrashRoll::Alive);
        assert!(!c.crashed());
        assert_eq!(c.roll(), CrashRoll::Alive);
        assert_eq!(c.roll(), CrashRoll::Torn(7));
        assert!(c.crashed());
        assert_eq!(c.roll(), CrashRoll::Dead);
        assert_eq!(c.roll(), CrashRoll::Dead);
    }

    #[test]
    fn crash_plan_with_zero_survivors_tears_immediately() {
        let mut c = CrashPlan::after_ops(0, 0);
        assert_eq!(c.roll(), CrashRoll::Torn(0));
        assert_eq!(c.roll(), CrashRoll::Dead);
    }

    #[test]
    fn outcome_helpers() {
        assert!(JobOutcome::Success.is_success());
        assert!(JobOutcome::SuccessWithRetries { retries: 2 }.is_success());
        assert_eq!(JobOutcome::SuccessWithRetries { retries: 2 }.retries(), 2);
        assert!(!JobOutcome::TimedOut.is_success());
        assert!(!JobOutcome::Failed { reason: "x".into() }.is_success());
        assert_eq!(JobOutcome::Success.retries(), 0);
    }
}
