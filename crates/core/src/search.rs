//! Randomized configuration search (§5.2).
//!
//! Candidate configurations enable every rule outside the job's span (a
//! rule that cannot affect the plan is harmless either way — and spans are
//! approximate, so leaving unknown rules enabled is useful), then disable
//! an independently-sampled subset of span rules *per category*, under the
//! paper's category-independence assumption.

use rand::Rng;

use scope_optimizer::{RuleCatalog, RuleCategory, RuleConfig, RuleSet};

use crate::span::JobSpan;

/// Generate up to `m` unique candidate configurations for a job with the
/// given span. The default configuration is *not* included.
pub fn candidate_configs<R: Rng + ?Sized>(
    span: &JobSpan,
    m: usize,
    rng: &mut R,
) -> Vec<RuleConfig> {
    candidate_configs_effective(span, &RuleSet::EMPTY, m, rng)
}

/// [`candidate_configs`] deduplicated by **effective** bits: `forced_on`
/// holds rules the compiler will force back on regardless of sampling
/// (customer hints, per [`scope_optimizer::effective_config`]; required
/// rules are clamped by `RuleConfig::from_enabled` either way). Two raw
/// samples that differ only inside `forced_on` compile identically, so
/// without this the pipeline would recompile — and possibly A/B-execute —
/// the same effective configuration twice. The returned configs have
/// `forced_on` already merged, making them safe cache keys as-is.
pub fn candidate_configs_effective<R: Rng + ?Sized>(
    span: &JobSpan,
    forced_on: &RuleSet,
    m: usize,
    rng: &mut R,
) -> Vec<RuleConfig> {
    let by_category: Vec<RuleSet> = [
        RuleCategory::OffByDefault,
        RuleCategory::OnByDefault,
        RuleCategory::Implementation,
    ]
    .iter()
    .map(|c| span.in_category(*c))
    .collect();

    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(m);
    let attempts = m.saturating_mul(5).max(16);
    let full = RuleCatalog::global().non_required();
    for _ in 0..attempts {
        if out.len() >= m {
            break;
        }
        // Step 1: enable everything not in the span (plus span rules we
        // don't sample for disabling below).
        let mut disabled = RuleSet::EMPTY;
        // Step 2: per category, sample an independent subset of span rules
        // to disable. A per-config, per-category rate gives a mix of light
        // and heavy steering.
        for rules in &by_category {
            if rules.is_empty() {
                continue;
            }
            let rate: f64 = rng.gen_range(0.05..0.75);
            for id in rules.iter() {
                if rng.gen_bool(rate) {
                    disabled.insert(id);
                }
            }
        }
        // A sample whose every disable is forced back on is effectively
        // the all-rules configuration — skip it like an empty sample.
        if disabled.difference(forced_on).is_empty() {
            continue;
        }
        let enabled = full.difference(&disabled).union(forced_on);
        // Step 3: normalize (required rules clamped back on — the sampler
        // never clears them, so the correction mask is empty here) and
        // dedup by post-normalization effective bits.
        let (config, _correction) = RuleConfig::normalized(enabled);
        if seen.insert(*config.enabled()) {
            out.push(config);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scope_optimizer::RuleId;

    fn fake_span() -> JobSpan {
        let cat = RuleCatalog::global();
        // A handful of rules in each configurable category.
        let mut rules = RuleSet::EMPTY;
        for name in [
            "CorrelatedJoinOnUnionAll1",
            "GroupbyOnJoin",
            "CollapseSelects",
            "SelectOnJoin",
            "SelectPartitions",
            "HashJoinImpl1",
            "JoinImpl2",
            "BroadcastJoinImpl",
        ] {
            rules.insert(cat.find(name).unwrap());
        }
        JobSpan {
            rules,
            iterations: 3,
            hit_compile_failure: false,
        }
    }

    #[test]
    fn candidates_are_unique_and_differ_from_default() {
        let span = fake_span();
        let mut rng = StdRng::seed_from_u64(1);
        let configs = candidate_configs(&span, 50, &mut rng);
        assert!(configs.len() >= 40, "got {}", configs.len());
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(seen.insert(c.enabled().to_bit_string()));
            assert_ne!(c, &RuleConfig::default_config());
        }
    }

    #[test]
    fn non_span_rules_are_enabled() {
        let span = fake_span();
        let mut rng = StdRng::seed_from_u64(2);
        let configs = candidate_configs(&span, 20, &mut rng);
        let cat = RuleCatalog::global();
        // A non-span, off-by-default rule is enabled in candidates (step 1
        // of §5.2 — note this differs from the default configuration).
        let off_rule = cat.find("SelectPredReversed").unwrap();
        assert!(!span.rules.contains(off_rule));
        for c in &configs {
            assert!(c.is_enabled(off_rule));
        }
    }

    #[test]
    fn only_span_rules_get_disabled() {
        let span = fake_span();
        let mut rng = StdRng::seed_from_u64(3);
        for c in candidate_configs(&span, 30, &mut rng) {
            let disabled = c.disabled();
            assert!(
                disabled.difference(&span.rules).is_empty(),
                "disabled a rule outside the span"
            );
            assert!(!disabled.is_empty());
        }
    }

    #[test]
    fn required_rules_stay_enabled() {
        let span = fake_span();
        let mut rng = StdRng::seed_from_u64(4);
        let enforce = RuleCatalog::global().find("EnforceExchange").unwrap();
        for c in candidate_configs(&span, 10, &mut rng) {
            assert!(c.is_enabled(enforce));
            assert!(c.is_enabled(RuleId(0)));
        }
    }

    #[test]
    fn empty_span_produces_no_candidates() {
        let span = JobSpan {
            rules: RuleSet::EMPTY,
            iterations: 1,
            hit_compile_failure: false,
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(candidate_configs(&span, 10, &mut rng).is_empty());
    }

    #[test]
    fn effective_dedup_merges_forced_rules_and_stays_unique() {
        let span = fake_span();
        let cat = RuleCatalog::global();
        let forced: RuleSet = [
            cat.find("HashJoinImpl1").unwrap(),
            cat.find("GroupbyOnJoin").unwrap(),
        ]
        .into_iter()
        .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let configs = candidate_configs_effective(&span, &forced, 50, &mut rng);
        assert!(!configs.is_empty());
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            // Forced (hinted) rules are merged into every candidate, so the
            // returned bits are the effective bits...
            for id in forced.iter() {
                assert!(c.is_enabled(id));
            }
            // ...and uniqueness holds post-merge, not on the raw samples.
            assert!(seen.insert(*c.enabled()));
        }
    }

    #[test]
    fn m_caps_candidate_count() {
        let span = fake_span();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(candidate_configs(&span, 7, &mut rng).len() <= 7);
    }
}
