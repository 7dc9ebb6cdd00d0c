//! Property tests for the hint line, the one text form of a stored hint:
//! `to_hint_text` / `from_hint_text` must be a lossless round trip for
//! *any* store — every status variant, any rule-config delta, any rollout
//! stage and monitor state, any finite float (runtimes and CUSUM levels are
//! serialized as IEEE-754 bit patterns, so even `-0.0` and subnormals must
//! survive). The flighting snapshot is a hint file and every journal line
//! carries one hint line, so a single lossy field here would silently break
//! the bit-identical crash-recovery guarantee. The converse holds too: a line
//! the parser accepts is one the writer would have written, so it
//! re-renders byte for byte.

use proptest::collection;
use proptest::prelude::*;
use scope_optimizer::{RuleCatalog, RuleConfig, RuleId, RuleSet, NUM_RULES};
use steer_core::{FlightStage, HintStatus, HintStore, StoredHint};

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

fn stage_strategy() -> impl Strategy<Value = FlightStage> {
    (0u32..5, any::<u32>()).prop_map(|(pick, day)| match pick {
        0 => FlightStage::Candidate,
        1 => FlightStage::Canary,
        2 => FlightStage::Ramping,
        3 => FlightStage::Deployed,
        _ => FlightStage::RolledBack { day },
    })
}

fn hint_strategy() -> impl Strategy<Value = StoredHint> {
    (
        (
            key_strategy(),
            config_strategy(),
            finite_f64(),
            any::<u32>(),
            status_strategy(),
        ),
        (
            stage_strategy(),
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            finite_f64(),
        ),
    )
        .prop_map(
            |(
                (group, config, base_change_pct, discovered_day, status),
                (stage, (since, clean, strikes, probation), cusum),
            )| {
                let mut hint =
                    StoredHint::new(group, config, base_change_pct, discovered_day, status);
                let f = &mut hint.flight;
                f.stage = stage;
                f.stage_since_day = since;
                f.clean_days_in_stage = clean;
                f.strikes = strikes;
                f.cusum = cusum;
                f.probation_clean = probation;
                hint
            },
        )
}

/// One edit of a valid hint line, of a kind a lenient parser would read
/// back as a hint that renders otherwise: `(which, flag, kind, x, y)`, as
/// [`mutate`] reads it.
type Mutation = (u8, bool, u8, u32, u32);

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0u8..4, any::<bool>(), 0u8..4, any::<u32>(), any::<u32>())
}

/// Apply one edit to `line`, chosen by `which`:
/// 0. insert at `y` into the `-[…]` list (`flag`) or the `+[…]` list the
///    `x`-th id of the required rules, the rules on by default, the rules
///    off by default, or the ids the list holds (`kind`);
/// 1. swap the list's `x`-th and `y`-th ids;
/// 2. put `+` (`flag`) or `0` before the value of a decimal field;
/// 3. upper-case the `cusum` (`flag`) or `base` hex.
fn mutate(line: &str, (which, flag, kind, x, y): Mutation) -> String {
    let mut fields: Vec<String> = line.split('\t').map(String::from).collect();
    let (x, y) = (x as usize, y as usize);
    let list = if flag { 2 } else { 3 };
    let mut ids: Vec<String> = fields[list][2..fields[list].len() - 1]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    match which {
        0 => {
            let cat = RuleCatalog::global();
            let pool: Vec<String> = match kind {
                0 => *cat.required(),
                1 => RuleConfig::default_config()
                    .enabled()
                    .difference(cat.required()),
                2 => *cat.off_by_default(),
                _ => ids.iter().map(|id| RuleId(id.parse().unwrap())).collect(),
            }
            .iter()
            .map(|id| id.0.to_string())
            .collect();
            if !pool.is_empty() {
                ids.insert(y % (ids.len() + 1), pool[x % pool.len()].clone());
            }
        }
        1 if !ids.is_empty() => {
            let n = ids.len();
            ids.swap(x % n, y % n);
        }
        1 => {}
        2 => {
            // `day`, `since`, `clean`, `strikes`, `probation`.
            let field = &mut fields[[5, 7, 8, 9, 11][x % 5]];
            let colon = field.find(':').expect("a tagged field");
            field.insert(colon + 1, if flag { '+' } else { '0' });
        }
        _ => {
            let i = if flag { 10 } else { 4 };
            fields[i] = fields[i].to_uppercase();
        }
    }
    fields[list] = format!("{}[{}]", &fields[list][..1], ids.join(","));
    fields.join("\t")
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
    fn every_accepted_line_re_renders_byte_for_byte(
        hint in hint_strategy(),
        mutations in collection::vec(mutation_strategy(), 1..4),
    ) {
        let mut store = HintStore::new();
        store.insert_hint(hint);
        let mut line = store.to_hint_text();
        for &m in &mutations {
            line = mutate(&line, m);
        }
        // Whatever the edits, the parser either refuses the line or reads
        // back a hint the writer renders to exactly that line.
        if let Ok(parsed) = HintStore::from_hint_text(&line) {
            prop_assert_eq!(parsed.to_hint_text(), line);
        }
    }

    #[test]
    fn parse_never_panics_on_arbitrary_text(text in arbitrary_text()) {
        // Corrupt or adversarial input must come back as a typed error (or
        // an empty store), never a panic.
        let _ = HintStore::from_hint_text(&text);
    }
}
