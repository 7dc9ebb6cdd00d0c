//! Property tests for the hint-text persistence format: `to_hint_text` /
//! `from_hint_text` must be a lossless round trip for *any* store of hints
//! not yet flown (a line carries no rollout) — every status variant, any
//! rule-config delta, any finite float (runtimes are serialized as IEEE-754
//! bit patterns, so even `-0.0` and subnormals must survive). The
//! flighting snapshot embeds these lines verbatim, so a
//! single lossy field here would silently break the bit-identical
//! crash-recovery guarantee.

use proptest::collection;
use proptest::prelude::*;
use scope_optimizer::{RuleCatalog, RuleConfig, RuleId, RuleSet, NUM_RULES};
use steer_core::{HintStatus, HintStore, StoredHint};

fn status_strategy() -> impl Strategy<Value = HintStatus> {
    (0u32..3).prop_map(|pick| match pick {
        0 => HintStatus::Active,
        1 => HintStatus::Suspended,
        _ => HintStatus::Quarantined,
    })
}

/// A finite f64 with full bit-pattern variety: the format stores the raw
/// bits, so sign, subnormals, and extreme exponents all matter. Non-finite
/// patterns (would break store equality via `NaN != NaN`) keep their
/// mantissa entropy but get a finite exponent.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & !(0x7ff << 52) | (0x3fe << 52))
        }
    })
}

/// A config whose delta from the default toggles an arbitrary subset of the
/// non-required rules (required rules cannot move, so toggling them would
/// produce a config `from_hint_text` can never reconstruct).
fn config_strategy() -> impl Strategy<Value = RuleConfig> {
    collection::vec(any::<u32>(), 0..8).prop_map(|picks| {
        let ids: Vec<_> = RuleCatalog::global().non_required().iter().collect();
        let mut config = RuleConfig::default_config();
        for pick in picks {
            let id = ids[pick as usize % ids.len()];
            if config.is_enabled(id) {
                config.disable(id);
            } else {
                config.enable(id);
            }
        }
        config
    })
}

/// A group key: a rule signature's `NUM_RULES` bits, any of them set.
fn key_strategy() -> impl Strategy<Value = String> {
    collection::vec(any::<u32>(), 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|pick| RuleId((pick as usize % NUM_RULES) as u16))
            .collect::<RuleSet>()
            .to_bit_string()
    })
}

fn hint_strategy() -> impl Strategy<Value = StoredHint> {
    (
        key_strategy(),
        config_strategy(),
        finite_f64(),
        any::<u32>(),
        status_strategy(),
    )
        .prop_map(|(group, config, base_change_pct, discovered_day, status)| {
            StoredHint::new(group, config, base_change_pct, discovered_day, status)
        })
}

/// Printable-ish text with tabs and newlines — the format's own structural
/// characters, where a lazy parser would slice past the end.
fn arbitrary_text() -> impl Strategy<Value = String> {
    collection::vec(0u32..98, 0..400).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                96 => '\t',
                97 => '\n',
                c => char::from(b' ' + c as u8),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hint_text_round_trip_is_lossless(hints in collection::vec(hint_strategy(), 0..6)) {
        let mut store = HintStore::new();
        for hint in hints {
            // Later duplicates of a group replace earlier ones, exactly as
            // repeated ingestion would.
            store.insert_hint(hint);
        }
        let text = store.to_hint_text();
        let parsed = HintStore::from_hint_text(&text).expect("own output must parse");
        prop_assert_eq!(&parsed, &store);
        prop_assert_eq!(parsed.to_hint_text(), text);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_text(text in arbitrary_text()) {
        // Corrupt or adversarial input must come back as a typed error (or
        // an empty store), never a panic.
        let _ = HintStore::from_hint_text(&text);
    }
}
