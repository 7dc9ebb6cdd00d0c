//! Property tests for the abstract-interpretation bounds over random rule
//! configurations, real workload jobs, and adversarial interval endpoints:
//!
//! 1. **Interval well-formedness** — every derived rows/bytes interval is
//!    finite with `lo ≤ hi`, for every node of every job, under garbage
//!    inputs too (the domain constructor sanitizes NaN/∞).
//! 2. **Cost-floor soundness** — for any config that compiles, the
//!    compiled winner's estimated cost is at least `cost_lo` of its
//!    effective enabled set, and the floor is finite and non-negative for
//!    *every* enabled set.
//! 3. **Point containment** — the live estimator's per-node point
//!    estimates stay inside their intervals ([`audit_estimates`] is
//!    silent). The `classic` differential oracle derives through the same
//!    `Estimator`, so its points are contained by the same check.
//! 4. **Lattice laws** — `join` is an upper bound and widening is
//!    monotone: joining further intervals never shrinks the hull; interval
//!    arithmetic preserves the invariants and containment.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_ir::{Interval, Job};
use scope_lint::{audit_estimates, PlanBounds};
use scope_optimizer::{compile_job, effective_config, RuleConfig, RuleId, RuleSet, NUM_RULES};
use scope_workload::{Workload, WorkloadProfile};

fn jobs() -> &'static Vec<Job> {
    static JOBS: OnceLock<Vec<Job>> = OnceLock::new();
    JOBS.get_or_init(|| {
        let w = Workload::generate(WorkloadProfile::workload_a(0.02));
        w.day(0)
    })
}

/// A random config: every non-required rule kept with probability `keep`.
fn random_config(seed: u64, keep: f64) -> RuleConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut enabled = RuleSet::EMPTY;
    for id in 0..NUM_RULES as u16 {
        if rng.gen_bool(keep) {
            enabled.insert(RuleId(id));
        }
    }
    RuleConfig::normalized(enabled).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intervals_are_wellformed_and_cost_bounds_bracket_compiles(
        seed in any::<u64>(),
        keep in 0.2f64..0.95,
        job_pick in any::<u64>(),
    ) {
        let jobs = jobs();
        let job = &jobs[job_pick as usize % jobs.len()];
        let obs = job.catalog.observe();
        let config = random_config(seed, keep);
        let bounds = PlanBounds::analyze(&job.plan, &obs);
        for &id in bounds.order() {
            for i in [bounds.rows(id), bounds.row_bytes(id), bounds.bytes(id)] {
                prop_assert!(i.lo().is_finite() && i.hi().is_finite());
                prop_assert!(0.0 <= i.lo() && i.lo() <= i.hi());
            }
        }
        // The lower bound must be finite and non-negative for *any*
        // enabled set, compilable or not.
        let lo_any = bounds.cost_lo(config.enabled());
        prop_assert!(lo_any.is_finite() && lo_any >= 0.0);
        // When the config compiles, the compile goes through the job's
        // effective config (customer hints merged) — the floor for that
        // enabled set must hold for the winner's cost.
        if let Ok(c) = compile_job(job, &config) {
            let ec = effective_config(job, &config);
            let lo = bounds.cost_lo(ec.enabled());
            prop_assert!(
                lo <= c.est_cost,
                "cost_lo {lo} exceeds compiled cost {} (job {})",
                c.est_cost,
                job.id.0
            );
        }
        // Monotonicity of the floor: the full rule set can only have a
        // lower (or equal) floor than any subset.
        let full = RuleConfig::default_config();
        prop_assert!(bounds.cost_lo(full.enabled()) <= lo_any + 1e-12);
    }

    #[test]
    fn live_and_classic_point_estimates_stay_inside_their_intervals(
        job_pick in any::<u64>(),
    ) {
        let jobs = jobs();
        let job = &jobs[job_pick as usize % jobs.len()];
        let obs = job.catalog.observe();
        // `audit_estimates` replays `Estimator::derive` bottom-up — the
        // exact derivation both the memo search and the `classic` oracle
        // consume — so an empty report is containment for both.
        let violations = audit_estimates(&job.plan, &obs);
        prop_assert!(
            violations.is_empty(),
            "estimator escaped its interval: {violations:?}"
        );
    }

    #[test]
    fn interval_join_widens_monotonically_and_arithmetic_preserves_invariants(
        a in any::<f64>(),
        b in any::<f64>(),
        c in any::<f64>(),
        d in any::<f64>(),
        x in any::<f64>(),
    ) {
        // The constructor must sanitize anything, NaN and ∞ included.
        let ia = Interval::new(a, b);
        let ib = Interval::new(c, d);
        for i in [ia, ib] {
            prop_assert!(i.lo().is_finite() && i.hi().is_finite());
            prop_assert!(0.0 <= i.lo() && i.lo() <= i.hi());
        }
        // Join is an upper bound, and widening by further joins is
        // monotone: the hull never shrinks.
        let j = ia.join(&ib);
        prop_assert!(ia.subset_of(&j) && ib.subset_of(&j));
        let wider = j.join(&Interval::new(x, x));
        prop_assert!(j.subset_of(&wider));
        // Arithmetic preserves invariants and pointwise containment.
        let sum = ia.add(&ib);
        let prod = ia.mul(&ib);
        for i in [sum, prod] {
            prop_assert!(i.lo().is_finite() && i.hi().is_finite());
            prop_assert!(i.lo() <= i.hi());
        }
        prop_assert!(sum.contains(ia.lo() + ib.lo()));
        prop_assert!(sum.contains(ia.hi() + ib.hi()));
        prop_assert!(prod.contains(ia.lo() * ib.lo()));
        prop_assert!(prod.contains(ia.hi() * ib.hi()));
    }
}
