//! Closed, finite, non-negative intervals `[lo, hi]` used by the
//! abstract-interpretation bounds analysis (`scope-lint::bounds`).
//!
//! The invariants are deliberately strict — every constructor and every
//! arithmetic operation preserves them — so downstream consumers (the
//! discovery bounds gate, the estimator audit) never have to re-check for
//! NaN, infinities, or inverted endpoints:
//!
//! 1. `lo` and `hi` are finite,
//! 2. `0 ≤ lo ≤ hi`.
//!
//! Arithmetic follows standard interval semantics restricted to the
//! non-negative orthant, which is all the plan quantities (rows, bytes,
//! cost seconds) ever need: for monotone operations the endpoint images are
//! the interval endpoints, so `add`/`mul`/`min`/`max` are exact (no
//! sub-distributive widening is required).

/// A closed interval `[lo, hi]` with `0 ≤ lo ≤ hi`, both finite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Largest magnitude either endpoint may take. Large enough that no
    /// realistic plan quantity (rows, bytes, cost) gets clamped in practice,
    /// small enough that sums and products of a plan's worth of intervals
    /// stay comfortably inside `f64` range.
    pub const MAX_MAG: f64 = 1e300;

    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Construct `[lo, hi]`, sanitising the endpoints into the invariant:
    /// NaN becomes the identity for that endpoint (`0` for `lo`,
    /// [`Self::MAX_MAG`] for `hi`), infinities and out-of-range magnitudes
    /// are clamped, and the pair is reordered if inverted. Sanitising (rather
    /// than panicking) keeps the analysis *total*: a garbage input widens the
    /// interval, which is sound, instead of aborting the pipeline.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Interval {
        let lo = if lo.is_nan() {
            0.0
        } else {
            lo.clamp(0.0, Self::MAX_MAG)
        };
        let hi = if hi.is_nan() {
            Self::MAX_MAG
        } else {
            hi.clamp(0.0, Self::MAX_MAG)
        };
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]` (sanitised like [`Self::new`]).
    #[must_use]
    pub fn point(x: f64) -> Interval {
        Interval::new(x, x)
    }

    /// Lower endpoint. Always finite and `≥ 0`.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint. Always finite and `≥ self.lo()`.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi − lo` of the interval.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies inside `[lo, hi]` (inclusive). NaN is never
    /// contained.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Whether `self` is a subset of `other` — i.e. `other` is at least as
    /// wide on both sides. This is the partial order proptests use to check
    /// that widening joins only ever grow intervals.
    #[must_use]
    pub fn subset_of(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Interval sum: `[a.lo + b.lo, a.hi + b.hi]`.
    #[must_use]
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Interval product. Exact on the non-negative orthant:
    /// `[a.lo · b.lo, a.hi · b.hi]`.
    #[must_use]
    pub fn mul(&self, other: &Interval) -> Interval {
        Interval::new(self.lo * other.lo, self.hi * other.hi)
    }

    /// Scale both endpoints by a non-negative factor.
    #[must_use]
    pub fn scale(&self, k: f64) -> Interval {
        let k = if k.is_nan() { 0.0 } else { k.max(0.0) };
        Interval::new(self.lo * k, self.hi * k)
    }

    /// Pointwise minimum: `[min(a.lo, b.lo), min(a.hi, b.hi)]`.
    #[must_use]
    pub fn min(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise maximum: `[max(a.lo, b.lo), max(a.hi, b.hi)]`.
    #[must_use]
    pub fn max(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Lattice join (interval hull): the smallest interval containing both.
    /// This is the *widening* join of the analysis — monotone in both
    /// arguments, and both arguments are subsets of the result.
    #[must_use]
    pub fn join(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Clamp both endpoints into `[lo_min, hi_max]` (e.g. a row floor of 1).
    #[must_use]
    pub fn clamp(&self, lo_min: f64, hi_max: f64) -> Interval {
        Interval::new(self.lo.clamp(lo_min, hi_max), self.hi.clamp(lo_min, hi_max))
    }

    /// Raise the lower endpoint to at least `floor` (and the upper endpoint
    /// with it, preserving `lo ≤ hi`).
    #[must_use]
    pub fn floor_at(&self, floor: f64) -> Interval {
        Interval::new(self.lo.max(floor), self.hi.max(floor))
    }

    /// Debug-check the invariants. Release builds compile this to nothing.
    #[inline]
    pub fn debug_check(&self) {
        debug_assert!(
            self.lo.is_finite() && self.hi.is_finite(),
            "interval endpoints must be finite: [{}, {}]",
            self.lo,
            self.hi
        );
        debug_assert!(
            self.lo >= 0.0 && self.lo <= self.hi,
            "interval must satisfy 0 <= lo <= hi: [{}, {}]",
            self.lo,
            self.hi
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sanitises_garbage() {
        let i = Interval::new(f64::NAN, f64::NAN);
        i.debug_check();
        assert_eq!(i.lo(), 0.0);
        assert_eq!(i.hi(), Interval::MAX_MAG);

        let i = Interval::new(f64::INFINITY, -3.0);
        i.debug_check();
        assert_eq!(i.lo(), 0.0);
        assert_eq!(i.hi(), Interval::MAX_MAG);

        let i = Interval::new(5.0, 2.0);
        assert_eq!((i.lo(), i.hi()), (2.0, 5.0));
    }

    #[test]
    fn arithmetic_is_exact_on_points() {
        let a = Interval::point(3.0);
        let b = Interval::point(4.0);
        assert_eq!(a.add(&b), Interval::point(7.0));
        assert_eq!(a.mul(&b), Interval::point(12.0));
        assert_eq!(a.scale(2.0), Interval::point(6.0));
        assert_eq!(a.min(&b), a);
        assert_eq!(a.max(&b), b);
    }

    #[test]
    fn join_is_an_upper_bound() {
        let a = Interval::new(1.0, 4.0);
        let b = Interval::new(2.0, 9.0);
        let j = a.join(&b);
        assert!(a.subset_of(&j) && b.subset_of(&j));
        assert_eq!((j.lo(), j.hi()), (1.0, 9.0));
    }

    #[test]
    fn contains_rejects_nan() {
        let a = Interval::new(0.0, 10.0);
        assert!(a.contains(0.0) && a.contains(10.0) && a.contains(5.0));
        assert!(!a.contains(-0.1) && !a.contains(10.1) && !a.contains(f64::NAN));
    }

    #[test]
    fn floor_and_clamp_preserve_order() {
        let a = Interval::new(0.2, 0.4);
        let f = a.floor_at(1.0);
        assert_eq!((f.lo(), f.hi()), (1.0, 1.0));
        let c = Interval::new(0.0, 100.0).clamp(1.0, 10.0);
        assert_eq!((c.lo(), c.hi()), (1.0, 10.0));
    }
}
