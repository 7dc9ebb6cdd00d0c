//! Deterministic diurnal job-arrival streams for the serving layer.
//!
//! The batch experiments hand `compile_day` a whole day of jobs at once;
//! a *serving* daemon instead sees jobs arrive one at a time on a
//! diurnal curve — quiet overnight, a morning ramp, an afternoon peak —
//! and must survive the hours where arrivals bunch up. This module
//! synthesizes that stream without ever touching a wall clock: a job's
//! arrival offset is a pure function of `(seed, day, job index)`, so the
//! same workload replays bit-identically regardless of thread count or
//! host, and a fault profile can overlay a [`ArrivalBurst`] that remaps a
//! fraction of the day's arrivals into a short spike (the overload case
//! admission control exists for).
//!
//! Arrival times are *virtual microseconds since the day's start*; the
//! serving loop treats them as its only clock.

/// Virtual length of one serving day, in microseconds.
pub const DAY_US: u64 = 86_400_000_000;

/// Relative arrival weight per hour of the virtual day: a two-peak
/// business-hours curve (09:00 and 15:00) over a non-zero overnight
/// floor, loosely matching recurring-job cluster load.
const HOUR_WEIGHTS: [f64; 24] = [
    0.3, 0.25, 0.2, 0.2, 0.25, 0.4, 0.7, 1.1, 1.6, 2.0, 1.9, 1.7, 1.5, 1.7, 1.9, 2.0, 1.8, 1.4,
    1.0, 0.8, 0.6, 0.5, 0.4, 0.35,
];

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A unit-interval draw that is a pure function of its arguments.
/// `stream` decorrelates the independent decisions made per job.
#[inline]
fn unit(seed: u64, day: u32, idx: u64, stream: u64) -> f64 {
    let h = mix64(seed ^ mix64(u64::from(day) ^ mix64(idx ^ mix64(stream))));
    // 53 high bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A burst overlay: a `fraction` of the day's arrivals is remapped into
/// the window `[start_frac, start_frac + width_frac)` of the day,
/// modelling a thundering-herd spike on top of the diurnal baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalBurst {
    /// Window start, as a fraction of the day (`0.0..1.0`).
    pub start_frac: f64,
    /// Window width, as a fraction of the day (> 0).
    pub width_frac: f64,
    /// Fraction of arrivals remapped into the window (`0.0..=1.0`).
    pub fraction: f64,
}

impl ArrivalBurst {
    /// The default overload spike: 60% of the day's traffic crammed into
    /// a two-minute-scale window mid-morning.
    pub(crate) fn spike() -> ArrivalBurst {
        ArrivalBurst {
            start_frac: 0.40,
            width_frac: 0.002,
            fraction: 0.6,
        }
    }
}

/// The deterministic arrival-time generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalCurve {
    pub seed: u64,
    /// Virtual day length in microseconds ([`DAY_US`] by default).
    pub day_us: u64,
}

impl ArrivalCurve {
    pub fn new(seed: u64) -> ArrivalCurve {
        ArrivalCurve {
            seed,
            day_us: DAY_US,
        }
    }

    /// Arrival offset (µs since the day's start) for job `idx` on `day`,
    /// optionally remapped by a burst overlay. Pure: the same arguments
    /// always produce the same offset.
    pub fn arrival_us(&self, day: u32, idx: u64, burst: Option<&ArrivalBurst>) -> u64 {
        if let Some(b) = burst {
            if unit(self.seed, day, idx, 2) < b.fraction.clamp(0.0, 1.0) {
                let start = b.start_frac.clamp(0.0, 1.0);
                let width = b.width_frac.max(1e-9).min(1.0 - start);
                let frac = start + unit(self.seed, day, idx, 3) * width;
                return ((frac * self.day_us as f64) as u64).min(self.day_us - 1);
            }
        }
        // Pick an hour bin by the diurnal weights, then a uniform offset
        // within the bin.
        let total: f64 = HOUR_WEIGHTS.iter().sum();
        let mut target = unit(self.seed, day, idx, 0) * total;
        let mut hour = HOUR_WEIGHTS.len() - 1;
        for (h, &w) in HOUR_WEIGHTS.iter().enumerate() {
            if target < w {
                hour = h;
                break;
            }
            target -= w;
        }
        let bin_us = self.day_us / HOUR_WEIGHTS.len() as u64;
        let within = (unit(self.seed, day, idx, 1) * bin_us as f64) as u64;
        (hour as u64 * bin_us + within).min(self.day_us - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arrival offsets for jobs `0..n` on `day`, in job-index order.
    fn day_arrivals(
        c: &ArrivalCurve,
        day: u32,
        n: usize,
        burst: Option<&ArrivalBurst>,
    ) -> Vec<u64> {
        (0..n as u64)
            .map(|idx| c.arrival_us(day, idx, burst))
            .collect()
    }

    #[test]
    fn arrivals_are_deterministic_and_in_range() {
        let c = ArrivalCurve::new(7);
        for day in 0..3 {
            for idx in 0..200 {
                let a = c.arrival_us(day, idx, None);
                assert_eq!(a, c.arrival_us(day, idx, None));
                assert!(a < DAY_US);
            }
        }
    }

    #[test]
    fn different_days_and_seeds_differ() {
        let c = ArrivalCurve::new(7);
        let d0 = day_arrivals(&c, 0, 100, None);
        let d1 = day_arrivals(&c, 1, 100, None);
        assert_ne!(d0, d1);
        let other = day_arrivals(&ArrivalCurve::new(8), 0, 100, None);
        assert_ne!(d0, other);
    }

    #[test]
    fn curve_is_diurnal_not_uniform() {
        let c = ArrivalCurve::new(2021);
        let arrivals = day_arrivals(&c, 0, 20_000, None);
        let bin_us = DAY_US / 24;
        let mut per_hour = [0usize; 24];
        for a in arrivals {
            per_hour[(a / bin_us) as usize % 24] += 1;
        }
        // The 09:00 and 15:00 peaks must clearly dominate the 02:00
        // trough (weights 2.0 vs 0.2 → ~10x in expectation).
        assert!(per_hour[9] > per_hour[2] * 4, "{per_hour:?}");
        assert!(per_hour[15] > per_hour[2] * 4, "{per_hour:?}");
    }

    #[test]
    fn burst_concentrates_arrivals() {
        let c = ArrivalCurve::new(11);
        let burst = ArrivalBurst::spike();
        let arrivals = day_arrivals(&c, 0, 10_000, Some(&burst));
        let lo = (burst.start_frac * DAY_US as f64) as u64;
        let hi = ((burst.start_frac + burst.width_frac) * DAY_US as f64) as u64;
        let in_window = arrivals.iter().filter(|&&a| a >= lo && a < hi).count();
        // 60% of arrivals are remapped into a window that would naturally
        // hold ~0.2% of the day.
        assert!(
            in_window as f64 > 0.5 * arrivals.len() as f64,
            "only {in_window} of {} arrivals in the burst window",
            arrivals.len()
        );
    }
}
