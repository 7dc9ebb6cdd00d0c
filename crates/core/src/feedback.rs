//! Runtime feedback into the cost model: per-template multiplicative
//! corrections learned from executed jobs.
//!
//! The optimizer's estimates and the cluster's observed metrics disagree
//! systematically on recurring templates (correlated predicates, skew,
//! true UDO cost). Discovery already *measures* the disagreement on every
//! A/B run; this module closes the loop. A [`CorrectionStore`] ingests
//! `(estimated cost vector, observed RunMetrics)` pairs keyed by template,
//! turns them into bounded observed/estimated ratios per metric
//! (`safe_ratio`), smooths them exponentially, and — only at an explicit
//! day boundary, behind a caller-supplied vetting gate — promotes them to
//! *active* [`CostCorrections`] that [`CostModel`] applies at estimation
//! time on the next day's compiles.
//!
//! Safety properties, each enforced here rather than hoped for downstream:
//!
//! * A correction factor is always finite, positive, and inside the
//!   configured band. Degenerate denominators (zero, negative, NaN, ∞
//!   estimates) contribute the identity ratio `1.0`, never a poisoned one.
//! * Ingestion is idempotent per `(template, token)`: re-reporting a run
//!   cannot double-shift the smoothed state.
//! * Observations from quarantined hints are excluded — a regressed plan's
//!   metrics must not teach the model.
//! * Pending state is invisible to [`CorrectionStore::corrections_for`]
//!   until [`CorrectionStore::end_of_day`] promotes it, so a template's
//!   plans never change mid-day.

use std::collections::{HashMap, HashSet};

use scope_exec::RunMetrics;
use scope_optimizer::{CostCorrections, CostEstimate, CostModel, CostWeights};

/// Multiplicative clamp band for correction factors. The default `[0.25,
/// 4.0]` bounds how far one day of feedback can move any estimate — a
/// grossly mis-estimated template converges over days instead of slamming
/// the model in one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectionBand {
    pub lo: f64,
    pub hi: f64,
}

impl CorrectionBand {
    pub const DEFAULT: CorrectionBand = CorrectionBand { lo: 0.25, hi: 4.0 };

    /// A usable band: finite, positive, ordered, containing the identity.
    pub fn is_valid(&self) -> bool {
        self.lo.is_finite()
            && self.hi.is_finite()
            && 0.0 < self.lo
            && self.lo <= 1.0
            && 1.0 <= self.hi
    }
}

impl Default for CorrectionBand {
    fn default() -> CorrectionBand {
        CorrectionBand::DEFAULT
    }
}

/// The guarded observed/estimated ratio. Returns the identity `1.0` for
/// any degenerate input — non-finite, zero, or negative on either side —
/// and otherwise the ratio clamped into `band`. The result is always
/// finite and strictly positive; no caller ever needs to re-check.
pub(crate) fn safe_ratio(observed: f64, estimated: f64, band: &CorrectionBand) -> f64 {
    debug_assert!(band.is_valid(), "correction band must be sane: {band:?}");
    if !observed.is_finite() || observed <= 0.0 {
        return 1.0;
    }
    if !estimated.is_finite() || estimated <= 0.0 {
        return 1.0;
    }
    let r = (observed / estimated).clamp(band.lo, band.hi);
    // clamp of a finite/finite ratio of positives is finite and positive,
    // but guard release builds against future refactors all the same.
    if r.is_finite() && r > 0.0 {
        r
    } else {
        1.0
    }
}

/// Smoothed per-template state awaiting promotion.
#[derive(Clone, Debug)]
struct PendingState {
    /// EWMA of observed/estimated CPU-seconds ratios.
    cpu: f64,
    /// EWMA of observed/estimated IO-seconds ratios (the simulator's
    /// `io_time` aggregates disk and network, so the estimate side is
    /// `io + net`).
    io: f64,
    /// Observations absorbed.
    n: u32,
    /// Idempotence tokens already ingested for this template.
    seen: HashSet<u64>,
}

/// Per-template corrections: ingestion during the day, promotion at the
/// day boundary, lookup of *active* (promoted) corrections only.
#[derive(Clone, Debug)]
pub struct CorrectionStore {
    /// EWMA weight of each new observation.
    alpha: f64,
    band: CorrectionBand,
    /// Observations a template needs before it may be promoted.
    min_observations: u32,
    pending: HashMap<u64, PendingState>,
    active: HashMap<u64, CostCorrections>,
}

impl Default for CorrectionStore {
    fn default() -> CorrectionStore {
        CorrectionStore::new()
    }
}

impl CorrectionStore {
    pub fn new() -> CorrectionStore {
        CorrectionStore {
            alpha: 0.3,
            band: CorrectionBand::DEFAULT,
            min_observations: 3,
            pending: HashMap::new(),
            active: HashMap::new(),
        }
    }

    /// Override the smoothing weight (`0 < alpha <= 1`) and band.
    pub fn with_params(alpha: f64, band: CorrectionBand, min_observations: u32) -> CorrectionStore {
        debug_assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        debug_assert!(band.is_valid(), "correction band must be sane: {band:?}");
        let alpha = if alpha.is_finite() && alpha > 0.0 && alpha <= 1.0 {
            alpha
        } else {
            0.3
        };
        let band = if band.is_valid() {
            band
        } else {
            CorrectionBand::DEFAULT
        };
        CorrectionStore {
            alpha,
            band,
            min_observations,
            pending: HashMap::new(),
            active: HashMap::new(),
        }
    }

    /// Absorb one executed run for `template`. `estimated` is the cost
    /// vector the model actually produced for the executed plan (corrected,
    /// if a correction was active — see [`Self::end_of_day`] for why
    /// residuals compose). `token` dedupes repeated reports of the same
    /// run within the current pending generation (use a run-unique id).
    /// Returns whether the observation was absorbed; quarantined,
    /// invalid-metric, and duplicate observations are refused.
    pub fn ingest(
        &mut self,
        template: u64,
        token: u64,
        estimated: &CostEstimate,
        observed: &RunMetrics,
        quarantined: bool,
    ) -> bool {
        if quarantined || !observed.is_valid() {
            return false;
        }
        let r_cpu = safe_ratio(observed.cpu_time, estimated.cpu, &self.band);
        let r_io = safe_ratio(observed.io_time, estimated.io + estimated.net, &self.band);
        let state = self
            .pending
            .entry(template)
            .or_insert_with(|| PendingState {
                cpu: 1.0,
                io: 1.0,
                n: 0,
                seen: HashSet::new(),
            });
        if !state.seen.insert(token) {
            return false;
        }
        if state.n == 0 {
            state.cpu = r_cpu;
            state.io = r_io;
        } else {
            state.cpu += self.alpha * (r_cpu - state.cpu);
            state.io += self.alpha * (r_io - state.io);
        }
        state.n += 1;
        debug_assert!(
            state.cpu.is_finite() && state.cpu > 0.0 && state.io.is_finite() && state.io > 0.0,
            "smoothed ratios must stay finite and positive"
        );
        true
    }

    /// The *active* corrections for a template — identity until a
    /// day-boundary promotion, no matter what is pending.
    pub fn corrections_for(&self, template: u64) -> CostCorrections {
        self.active
            .get(&template)
            .copied()
            .unwrap_or(CostCorrections::IDENTITY)
    }

    /// A full cost model for a template under the given weights.
    pub fn model_for(&self, template: u64, weights: CostWeights) -> CostModel {
        CostModel {
            weights,
            corrections: self.corrections_for(template),
        }
    }

    /// Templates with promoted corrections.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Day-boundary promotion: every pending template with enough
    /// observations is offered to `vet`; accepted corrections become
    /// active for subsequent compiles. `vet` is where the guardrail /
    /// flighting ladder plugs in — a template whose corrected plans fail
    /// vetting or canary stays unpromoted (and keeps smoothing).
    ///
    /// Ratios are measured against the estimates the model *actually
    /// produced* — which already carry the active correction — so a
    /// pending EWMA is a *residual* factor and promotion composes it onto
    /// the active one (re-clamped into the band). A promoted template's
    /// pending generation is consumed: the next day measures the residual
    /// of the new correction from scratch. A vetoed template keeps its
    /// pending state (and its idempotence tokens) and may promote later.
    ///
    /// Returns the promoted template ids. Deterministic: templates are
    /// visited in sorted order.
    pub fn end_of_day(&mut self, mut vet: impl FnMut(u64, &CostCorrections) -> bool) -> Vec<u64> {
        let mut tids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, s)| s.n >= self.min_observations)
            .map(|(&t, _)| t)
            .collect();
        tids.sort_unstable();
        let mut promoted = Vec::new();
        for tid in tids {
            let state = &self.pending[&tid];
            let prev = self.corrections_for(tid);
            let candidate = CostCorrections {
                rows: prev.rows,
                cpu: (prev.cpu * state.cpu).clamp(self.band.lo, self.band.hi),
                io: (prev.io * state.io).clamp(self.band.lo, self.band.hi),
            };
            debug_assert!(candidate.is_valid(), "promotion candidate degenerate");
            if !candidate.is_valid() {
                continue;
            }
            if vet(tid, &candidate) {
                self.active.insert(tid, candidate);
                self.pending.remove(&tid);
                promoted.push(tid);
            }
        }
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAND: CorrectionBand = CorrectionBand::DEFAULT;

    fn est(cpu: f64, io: f64) -> CostEstimate {
        CostEstimate {
            cpu,
            io,
            ..CostEstimate::ZERO
        }
    }

    fn run(cpu: f64, io: f64) -> RunMetrics {
        RunMetrics {
            runtime: cpu + io,
            cpu_time: cpu,
            io_time: io,
            memory: 0.0,
        }
    }

    #[test]
    fn safe_ratio_neutralizes_every_degenerate_denominator() {
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(safe_ratio(10.0, bad, &BAND), 1.0, "estimated = {bad}");
        }
    }

    #[test]
    fn safe_ratio_neutralizes_every_degenerate_numerator() {
        for bad in [0.0, -0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(safe_ratio(bad, 10.0, &BAND), 1.0, "observed = {bad}");
        }
    }

    #[test]
    fn safe_ratio_clamps_to_the_band_and_never_degenerates() {
        assert_eq!(safe_ratio(2.0, 1.0, &BAND), 2.0);
        assert_eq!(safe_ratio(100.0, 1.0, &BAND), BAND.hi);
        assert_eq!(safe_ratio(1.0, 100.0, &BAND), BAND.lo);
        // Exhaustive-ish sweep: no input pair may ever produce a
        // non-finite or non-positive factor.
        let probes = [
            0.0,
            -0.0,
            1e-300,
            1.0,
            1e300,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        for &o in &probes {
            for &e in &probes {
                let r = safe_ratio(o, e, &BAND);
                assert!(r.is_finite() && r > 0.0, "safe_ratio({o}, {e}) = {r}");
                assert!((BAND.lo..=BAND.hi).contains(&r));
            }
        }
    }

    #[test]
    fn ingestion_is_idempotent_per_token() {
        let mut a = CorrectionStore::new();
        let mut b = CorrectionStore::new();
        for token in 0..5u64 {
            a.ingest(7, token, &est(1.0, 1.0), &run(2.0, 1.0), false);
            b.ingest(7, token, &est(1.0, 1.0), &run(2.0, 1.0), false);
            // b re-reports every run three times.
            assert!(!b.ingest(7, token, &est(1.0, 1.0), &run(2.0, 1.0), false));
            assert!(!b.ingest(7, token, &est(1.0, 1.0), &run(2.0, 1.0), false));
        }
        let pa = a.end_of_day(|_, _| true);
        let pb = b.end_of_day(|_, _| true);
        assert_eq!(pa, pb);
        assert_eq!(a.corrections_for(7), b.corrections_for(7));
    }

    #[test]
    fn smoothing_converges_on_a_fixed_ratio_stream() {
        let mut s = CorrectionStore::new();
        for token in 0..60u64 {
            assert!(s.ingest(1, token, &est(1.0, 2.0), &run(2.0, 1.0), false));
        }
        s.end_of_day(|_, _| true);
        let c = s.corrections_for(1);
        // Observed cpu is 2× the estimate, observed io 0.5×.
        assert!((c.cpu - 2.0).abs() < 1e-6, "cpu converged to {}", c.cpu);
        assert!((c.io - 0.5).abs() < 1e-6, "io converged to {}", c.io);
        assert!(c.is_valid());
    }

    #[test]
    fn quarantined_observations_are_excluded() {
        let mut s = CorrectionStore::new();
        for token in 0..10u64 {
            assert!(!s.ingest(3, token, &est(1.0, 1.0), &run(4.0, 4.0), true));
        }
        assert_eq!(s.pending.len(), 0);
        assert!(s.end_of_day(|_, _| true).is_empty());
        assert_eq!(s.corrections_for(3), CostCorrections::IDENTITY);
    }

    #[test]
    fn invalid_metrics_are_refused() {
        let mut s = CorrectionStore::new();
        let poisoned = RunMetrics {
            runtime: f64::NAN,
            cpu_time: 1.0,
            io_time: 1.0,
            memory: 0.0,
        };
        assert!(!s.ingest(3, 0, &est(1.0, 1.0), &poisoned, false));
    }

    #[test]
    fn corrections_never_apply_mid_day() {
        let mut s = CorrectionStore::new();
        for token in 0..10u64 {
            s.ingest(9, token, &est(1.0, 1.0), &run(3.0, 3.0), false);
        }
        // Plenty of pending signal, but no promotion has happened.
        assert_eq!(s.corrections_for(9), CostCorrections::IDENTITY);
        assert_eq!(
            s.model_for(9, CostWeights::DEFAULT).fingerprint_bits(),
            CostModel::DEFAULT.fingerprint_bits()
        );
        s.end_of_day(|_, _| true);
        assert_ne!(s.corrections_for(9), CostCorrections::IDENTITY);
    }

    #[test]
    fn promotion_is_gated_by_the_vet_closure() {
        let mut s = CorrectionStore::new();
        for token in 0..10u64 {
            s.ingest(4, token, &est(1.0, 1.0), &run(2.0, 2.0), false);
        }
        let rejected = s.end_of_day(|_, _| false);
        assert!(rejected.is_empty());
        assert_eq!(s.corrections_for(4), CostCorrections::IDENTITY);
        // The template keeps its pending state and can promote later.
        let promoted = s.end_of_day(|_, _| true);
        assert_eq!(promoted, vec![4]);
        assert!((s.corrections_for(4).cpu - 2.0).abs() < 1e-9);
    }

    #[test]
    fn promotions_compose_residual_ratios_and_stay_in_band() {
        let mut s = CorrectionStore::new();
        // Generation 1: observed cpu is 2× the (raw) estimate.
        for token in 0..10u64 {
            s.ingest(8, token, &est(1.0, 1.0), &run(2.0, 1.0), false);
        }
        assert_eq!(s.end_of_day(|_, _| true), vec![8]);
        assert!((s.corrections_for(8).cpu - 2.0).abs() < 1e-9);
        // Generation 2: estimates now carry the 2× correction, and the
        // residual observed/corrected ratio is 1.5 — true cost 3× raw.
        for token in 0..10u64 {
            s.ingest(8, token, &est(2.0, 1.0), &run(3.0, 1.0), false);
        }
        assert_eq!(s.end_of_day(|_, _| true), vec![8]);
        assert!((s.corrections_for(8).cpu - 3.0).abs() < 1e-9);
        // Generation 3: a wild residual composes but clamps to the band.
        for token in 0..10u64 {
            s.ingest(8, token, &est(3.0, 1.0), &run(30.0, 1.0), false);
        }
        s.end_of_day(|_, _| true);
        let c = s.corrections_for(8);
        assert_eq!(c.cpu, CorrectionBand::DEFAULT.hi);
        assert!(c.is_valid());
    }

    #[test]
    fn too_few_observations_never_promote() {
        let mut s = CorrectionStore::new();
        s.ingest(5, 0, &est(1.0, 1.0), &run(2.0, 2.0), false);
        s.ingest(5, 1, &est(1.0, 1.0), &run(2.0, 2.0), false);
        assert!(s.end_of_day(|_, _| true).is_empty(), "n < min_observations");
    }

    #[test]
    fn degenerate_estimates_teach_nothing() {
        let mut s = CorrectionStore::new();
        // Zero/NaN/negative estimated components: the guarded ratios are
        // identity, so even promotion leaves the model unchanged.
        for (token, cpu_est) in [(0u64, 0.0), (1, f64::NAN), (2, -5.0), (3, f64::INFINITY)] {
            s.ingest(6, token, &est(cpu_est, 0.0), &run(7.0, 7.0), false);
        }
        let promoted = s.end_of_day(|_, _| true);
        assert_eq!(promoted, vec![6]);
        let c = s.corrections_for(6);
        assert_eq!(c, CostCorrections::IDENTITY);
    }
}
