//! Plan hints at rest (§3.3): the one record kept per job group, and its
//! one text form, the hint line.
//!
//! A [`StoredHint`] holds its group's config, lifecycle status and rollout
//! ([`FlightState`]); [`HintStore`], in group-key order, is the flight
//! controller's only per-group table. The controller ([`crate::flight`])
//! decides which hint reaches which job and what happens to one that
//! regresses, dies or trips a guardrail: it is the only writer outside
//! tests and offline experiments, and every write it makes is journaled.
//!
//! A hint is written as text in one place, `hint_line`, and read in one,
//! `parse_hint_line`: the hint file customers would check in is those
//! lines, the flight controller's snapshot is a checksummed hint file, and
//! every journal line is the hint line of its group after the change it
//! records, so the store is the last journaled line per group. A line
//! holds a hint and its rollout together, so no text can hold either
//! without the other, and the parser accepts only what the writer writes.

use std::collections::BTreeMap;
use std::fmt;

use scope_optimizer::{RuleConfig, RuleId, RuleSet, NUM_RULES};

use crate::flight::{flight_salt, FlightConfig, FlightStage, FlightState};

/// Lifecycle state of a stored hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HintStatus {
    /// Served to the group, at the exposure its flight stage allows.
    Active,
    /// Rolled back by the regression monitors; no longer served.
    Suspended,
    /// Tripped a correctness or resource guardrail (compile panic, budget
    /// exhaustion, invalid plan, or result-fingerprint divergence). Unlike
    /// a performance regression, this is never re-tried on the serving
    /// path; background probes may release it.
    Quarantined,
}

/// A stored hint for one job group, with its rollout.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredHint {
    /// The group key (default-signature bit string).
    pub group: String,
    pub config: RuleConfig,
    /// Improvement observed on the base job at discovery time.
    pub base_change_pct: f64,
    pub discovered_day: u32,
    pub status: HintStatus,
    /// Its rollout, written on the hint's own line.
    pub flight: FlightState,
}

impl StoredHint {
    /// A hint that has not flown yet: a `Candidate` since `day`.
    pub fn new(
        group: String,
        config: RuleConfig,
        base_change_pct: f64,
        day: u32,
        status: HintStatus,
    ) -> StoredHint {
        StoredHint {
            flight: FlightState::new(FlightStage::Candidate, day, flight_salt(&group)),
            group,
            config,
            base_change_pct,
            discovered_day: day,
            status,
        }
    }

    /// The percentage of its group's jobs this hint is served to: its
    /// stage's exposure while it is `Active`, 0 otherwise. Publishing and
    /// flight serving both decide by this, so they steer the same jobs.
    pub(crate) fn served_pct(&self, config: &FlightConfig) -> u8 {
        match self.status {
            HintStatus::Active => self.flight.stage.exposure_pct(config),
            HintStatus::Suspended | HintStatus::Quarantined => 0,
        }
    }
}

/// The per-group hint store, in group-key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HintStore {
    entries: BTreeMap<String, StoredHint>,
}

impl HintStore {
    pub fn new() -> HintStore {
        HintStore::default()
    }

    /// Insert a fully-specified hint verbatim (no best-per-group logic, no
    /// catalog vetting). This is persistence plumbing — journal recovery
    /// must reconstruct *exactly* what was recorded, not re-decide it.
    pub fn insert_hint(&mut self, hint: StoredHint) {
        self.entries.insert(hint.group.clone(), hint);
    }

    /// The stored hint for a group key (any status).
    pub fn hint(&self, group: &str) -> Option<&StoredHint> {
        self.entries.get(group)
    }

    /// Set the lifecycle status of a group's hint. Returns `false` when
    /// the group has no stored hint.
    pub fn set_status(&mut self, group: &str, status: HintStatus) -> bool {
        self.entries
            .get_mut(group)
            .map(|h| h.status = status)
            .is_some()
    }

    /// Number of stored hints (any status).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate stored hints in group-key order.
    pub fn hints(&self) -> impl Iterator<Item = &StoredHint> {
        self.entries.values()
    }

    /// Serialize to the plain-text hint format customers would check in:
    /// one tab-separated line per group, in group-key order —
    ///
    /// ```text
    /// bits  status  -[ids]  +[ids]  base:<hex64>  day:<n>
    ///       stage:<stage>  since:<n>  clean:<n>  strikes:<n>  cusum:<hex64>  probation:<n>
    /// ```
    ///
    /// (one line; wrapped here). Rule ids are the config's delta from the
    /// default, ascending. The last six fields are the hint's rollout: its
    /// stage, the day it entered it, and the stage's monitor state. Floats
    /// are serialized as their IEEE-754 bit pattern in hex, so
    /// [`Self::from_hint_text`] round-trips *bit-identically* — a
    /// requirement for crash-recovery equivalence checks, and immune to
    /// decimal-formatting drift.
    pub fn to_hint_text(&self) -> String {
        self.hints().map(hint_line).collect::<Vec<_>>().join("\n")
    }

    /// Parse the format produced by [`Self::to_hint_text`].
    ///
    /// Strict: a malformed, truncated, or duplicated line is a typed
    /// [`HintParseError`] carrying its 1-based line number, never a
    /// silently skipped hint, and so is a line the writer would not have
    /// written (a rule id that is no delta from the default, a repeated or
    /// unsorted id, a number with a sign or a leading zero, upper-case
    /// hex): every line read back re-renders byte for byte. A hint file
    /// drives what production jobs execute; parsing must not guess.
    pub fn from_hint_text(text: &str) -> Result<HintStore, HintParseError> {
        let mut store = HintStore::new();
        for (idx, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let hint = parse_hint_line(line).map_err(|kind| HintParseError {
                line: idx + 1,
                kind,
            })?;
            if store.entries.contains_key(&hint.group) {
                return Err(HintParseError {
                    line: idx + 1,
                    kind: HintParseErrorKind::DuplicateGroup(hint.group),
                });
            }
            store.entries.insert(hint.group.clone(), hint);
        }
        Ok(store)
    }
}

/// Field order of one hint line (also the names used in parse errors).
/// From `base` on, a field is its name, a colon and its value.
const HINT_FIELDS: [&str; 12] = [
    "group",
    "status",
    "disabled",
    "enabled",
    "base",
    "day",
    "stage",
    "since",
    "clean",
    "strikes",
    "cusum",
    "probation",
];

/// Why a hint file failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HintParseErrorKind {
    /// The line ended before this field.
    MissingField(&'static str),
    /// The line carried more than the expected fields.
    TrailingFields(String),
    /// The status field was none of `active`/`suspended`/`quarantined`.
    UnknownStatus(String),
    /// A rule id was not a number or not below `NUM_RULES`.
    BadRuleId(String),
    /// A numeric field failed to parse.
    BadNumber { field: &'static str, value: String },
    /// A field had the wrong shape (non-binary group bits, an unknown
    /// stage), or is not what the writer would have written there (see
    /// [`HintStore::from_hint_text`]).
    Malformed { field: &'static str, value: String },
    /// Two lines claimed the same group.
    DuplicateGroup(String),
}

/// A typed parse failure: what went wrong and on which (1-based) line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HintParseError {
    pub line: usize,
    pub kind: HintParseErrorKind,
}

impl fmt::Display for HintParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hint line {}: ", self.line)?;
        match &self.kind {
            HintParseErrorKind::MissingField(name) => write!(f, "missing field `{name}`"),
            HintParseErrorKind::TrailingFields(rest) => {
                write!(f, "unexpected trailing fields `{rest}`")
            }
            HintParseErrorKind::UnknownStatus(s) => write!(f, "unknown status `{s}`"),
            HintParseErrorKind::BadRuleId(s) => {
                write!(f, "bad rule id `{s}` (want an integer < {NUM_RULES})")
            }
            HintParseErrorKind::BadNumber { field, value } => {
                write!(f, "bad number `{value}` in field `{field}`")
            }
            HintParseErrorKind::Malformed { field, value } => {
                write!(f, "malformed field `{field}`: `{value}`")
            }
            HintParseErrorKind::DuplicateGroup(g) => write!(f, "duplicate group `{g}`"),
        }
    }
}

impl std::error::Error for HintParseError {}

/// Human-readable status token (the hint-file vocabulary).
fn status_name(status: HintStatus) -> &'static str {
    match status {
        HintStatus::Active => "active",
        HintStatus::Suspended => "suspended",
        HintStatus::Quarantined => "quarantined",
    }
}

/// Inverse of [`status_name`].
fn status_from_name(name: &str) -> Option<HintStatus> {
    match name {
        "active" => Some(HintStatus::Active),
        "suspended" => Some(HintStatus::Suspended),
        "quarantined" => Some(HintStatus::Quarantined),
        _ => None,
    }
}

/// An `f64` as its IEEE-754 bit pattern, 16 hex digits. Lossless for
/// every value including NaN payloads and signed zero.
fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_to_hex`].
fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// The rule ids of one delta field, `-[1,5]` or `+[]`, in ascending order.
fn id_list(ids: &RuleSet) -> String {
    let ids: Vec<String> = ids.iter().map(|id| id.0.to_string()).collect();
    ids.join(",")
}

/// Parse one delta field, `sign[ids]`. `Err` carries the offending token
/// (not a number, or an id outside the catalog).
fn parse_id_list(field: &str, sign: char) -> Result<Vec<u16>, String> {
    let inner = field
        .strip_prefix(sign)
        .and_then(|s| s.strip_prefix('['))
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| field.to_string())?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|v| {
            let id: u16 = v.parse().map_err(|_| v.to_string())?;
            if (id as usize) >= NUM_RULES {
                return Err(v.to_string());
            }
            Ok(id)
        })
        .collect()
}

/// Serialize one hint as a hint-file line (no newline): the only writer of
/// a hint's fields.
pub(crate) fn hint_line(h: &StoredHint) -> String {
    let (disabled, enabled) = h.config.delta_from_default();
    let f = &h.flight;
    format!(
        "{}\t{}\t-[{}]\t+[{}]\tbase:{}\tday:{}\tstage:{}\tsince:{}\tclean:{}\tstrikes:{}\tcusum:{}\tprobation:{}",
        h.group,
        status_name(h.status),
        id_list(&disabled),
        id_list(&enabled),
        f64_to_hex(h.base_change_pct),
        h.discovered_day,
        f.stage.render(),
        f.stage_since_day,
        f.clean_days_in_stage,
        f.strikes,
        f64_to_hex(f.cusum),
        f.probation_clean
    )
}

/// The value of field `i`, `<name>:<value>`, parsed by `parse`.
fn tagged<T>(
    fields: &[&str],
    i: usize,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, HintParseErrorKind> {
    let name = HINT_FIELDS[i];
    fields[i]
        .strip_prefix(name)
        .and_then(|v| v.strip_prefix(':'))
        .and_then(parse)
        .ok_or_else(|| HintParseErrorKind::BadNumber {
            field: name,
            value: fields[i].to_string(),
        })
}

/// Parse one non-empty hint-file line: the only reader of a hint's fields.
/// A line is accepted only if [`hint_line`] renders its hint back to it.
pub(crate) fn parse_hint_line(line: &str) -> Result<StoredHint, HintParseErrorKind> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < HINT_FIELDS.len() {
        return Err(HintParseErrorKind::MissingField(HINT_FIELDS[fields.len()]));
    }
    if fields.len() > HINT_FIELDS.len() {
        return Err(HintParseErrorKind::TrailingFields(
            fields[HINT_FIELDS.len()..].join("\t"),
        ));
    }
    let malformed = |i: usize| HintParseErrorKind::Malformed {
        field: HINT_FIELDS[i],
        value: fields[i].to_string(),
    };
    let group = fields[0];
    if !is_group_key(group) {
        return Err(malformed(0));
    }
    let status = status_from_name(fields[1])
        .ok_or_else(|| HintParseErrorKind::UnknownStatus(fields[1].to_string()))?;
    let mut config = RuleConfig::default_config();
    for id in parse_id_list(fields[2], '-').map_err(HintParseErrorKind::BadRuleId)? {
        config.disable(RuleId(id));
    }
    for id in parse_id_list(fields[3], '+').map_err(HintParseErrorKind::BadRuleId)? {
        config.enable(RuleId(id));
    }
    let number = |i: usize| tagged(&fields, i, |v| v.parse().ok());
    let hint = StoredHint {
        group: group.to_string(),
        config,
        base_change_pct: tagged(&fields, 4, f64_from_hex)?,
        discovered_day: number(5)?,
        status,
        flight: FlightState {
            stage: tagged(&fields, 6, FlightStage::parse).map_err(|_| malformed(6))?,
            stage_since_day: number(7)?,
            clean_days_in_stage: number(8)?,
            strikes: number(9)?,
            cusum: tagged(&fields, 10, f64_from_hex)?,
            probation_clean: number(11)?,
            salt: flight_salt(group),
        },
    };
    // Every parse above accepts more than the writer writes (a rule id
    // that is no delta, `+5`, `05`, upper-case hex), and that surplus
    // would not survive a re-render: refuse it at the first field it
    // changes.
    let rendered = hint_line(&hint);
    match rendered.split('\t').zip(&fields).position(|(r, f)| r != *f) {
        Some(i) => Err(malformed(i)),
        None => Ok(hint),
    }
}

/// A group key is a rule signature's bit string, wherever a hint line is
/// written: exactly [`NUM_RULES`] characters of `0` and `1`, as
/// `RuleSet::to_bit_string` writes every key a job can have. A shorter or
/// longer one matches no job, so it is refused rather than stored.
fn is_group_key(group: &str) -> bool {
    group.len() == NUM_RULES && group.bytes().all(|b| b == b'0' || b == b'1')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::optional_rule;
    use scope_optimizer::RuleCatalog;

    /// The group key of the signature whose leading bits are `bits`.
    fn key(bits: &str) -> String {
        RuleSet::from_bit_string(bits).to_bit_string()
    }

    /// One hint per status, with distinct deltas, days, improvements and
    /// rollouts.
    fn sample_store() -> HintStore {
        let mut store = HintStore::new();
        let statuses = [
            HintStatus::Active,
            HintStatus::Suspended,
            HintStatus::Quarantined,
        ];
        for (i, status) in statuses.into_iter().enumerate() {
            let mut config = RuleConfig::default_config();
            if i > 0 {
                config.disable(optional_rule());
            }
            let mut hint = StoredHint::new(
                key(&format!("1{i:b}01")),
                config,
                -10.5 * (i + 1) as f64,
                i as u32,
                status,
            );
            let f = &mut hint.flight;
            f.stage = [
                FlightStage::Ramping,
                FlightStage::RolledBack { day: 9 },
                FlightStage::Candidate,
            ][i];
            (f.stage_since_day, f.clean_days_in_stage, f.strikes) = (9, 2, i as u32);
            (f.cusum, f.probation_clean) = (12.75 * i as f64, 3 - i as u32);
            store.insert_hint(hint);
        }
        store
    }

    #[test]
    fn hint_text_round_trip() {
        let store = sample_store();
        let text = store.to_hint_text();
        let parsed = HintStore::from_hint_text(&text).expect("well-formed hint text");
        // The round trip is lossless, down to float bit patterns.
        assert_eq!(parsed, store);
        // And stable: re-serializing yields the same bytes.
        assert_eq!(parsed.to_hint_text(), text);
    }

    #[test]
    fn hints_iterate_in_group_key_order() {
        // `sample_store` inserts the keys of "1001", "1101", "11001" in
        // that order.
        let groups: Vec<String> = sample_store().hints().map(|h| h.group.clone()).collect();
        assert_eq!(groups, [key("1001"), key("11001"), key("1101")]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let good = sample_store().to_hint_text();
        let n_lines = good.lines().count();

        // A truncated final line: typed error naming the missing field.
        let truncated: String = good
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == n_lines - 1 {
                    l.split('\t').take(3).collect::<Vec<_>>().join("\t")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = HintStore::from_hint_text(&truncated).unwrap_err();
        assert_eq!(err.line, n_lines);
        assert_eq!(err.kind, HintParseErrorKind::MissingField("enabled"));

        // A line without a rollout (hint files before the flight fields)
        // is refused rather than read back as a fresh candidate.
        let first = good.lines().next().unwrap();
        let v2: Vec<&str> = first.split('\t').take(6).collect();
        let err = HintStore::from_hint_text(&v2.join("\t")).unwrap_err();
        assert_eq!(err.kind, HintParseErrorKind::MissingField("stage"));

        // Fields past `probation` are an error, not silently dropped.
        let old_format = format!("{good}\tfailed:0\tvals:[]");
        let err = HintStore::from_hint_text(&old_format).unwrap_err();
        assert_eq!(err.line, n_lines);
        assert!(matches!(err.kind, HintParseErrorKind::TrailingFields(_)));

        // An unknown status.
        let bad_status = good.replacen("active", "enabled?!", 1);
        let err = HintStore::from_hint_text(&bad_status).unwrap_err();
        assert!(matches!(err.kind, HintParseErrorKind::UnknownStatus(_)));

        // Errors render with their line number.
        assert!(err.to_string().contains(&format!("line {}", err.line)));
    }

    /// The rollout fields of a candidate of day 0.
    const FRESH: &str =
        "stage:candidate\tsince:0\tclean:0\tstrikes:0\tcusum:0000000000000000\tprobation:0";

    #[test]
    fn a_line_the_writer_would_not_write_is_refused() {
        let cat = RuleCatalog::global();
        let required = cat.required().iter().next().unwrap();
        let off = cat.off_by_default().iter().next().unwrap();
        let optional = RuleConfig::default_config()
            .enabled()
            .difference(cat.required());
        let on: Vec<u16> = optional.iter().take(2).map(|id| id.0).collect();
        let (on, other_on) = (on[0], on[1]);
        let group = key("101");
        let base = f64_to_hex(-10.5);
        let line = |minus: &str, plus: &str, day: &str| {
            format!("{group}\tactive\t-[{minus}]\t+[{plus}]\tbase:{base}\tday:{day}\t{FRESH}")
        };
        let ok = line(&format!("{on},{other_on}"), "", "5");
        assert_eq!(HintStore::from_hint_text(&ok).unwrap().to_hint_text(), ok);
        let malformed =
            |field: &'static str, value: String| HintParseErrorKind::Malformed { field, value };
        for (bad, kind) in [
            // A required rule cannot be disabled: the old parser dropped it.
            (
                line(&required.0.to_string(), "", "5"),
                malformed("disabled", format!("-[{}]", required.0)),
            ),
            // A rule enabled by default is no `+` delta, and one disabled
            // by default no `-` delta.
            (
                line("", &on.to_string(), "5"),
                malformed("enabled", format!("+[{on}]")),
            ),
            (
                line(&off.0.to_string(), "", "5"),
                malformed("disabled", format!("-[{}]", off.0)),
            ),
            // Ids are written once each, ascending.
            (
                line(&format!("{on},{on}"), "", "5"),
                malformed("disabled", format!("-[{on},{on}]")),
            ),
            (
                line(&format!("{other_on},{on}"), "", "5"),
                malformed("disabled", format!("-[{other_on},{on}]")),
            ),
            // Numbers carry no sign and no leading zero, hex no capitals.
            (line("", "", "05"), malformed("day", "day:05".into())),
            (line("", "", "+5"), malformed("day", "day:+5".into())),
        ] {
            let err = HintStore::from_hint_text(&bad).unwrap_err();
            assert_eq!(err.kind, kind, "{bad}");
        }
        let upper = ok.replacen(&base, &base.to_uppercase(), 1);
        assert_ne!(upper, ok, "the sample hex has a letter");
        let err = HintStore::from_hint_text(&upper).unwrap_err();
        assert_eq!(
            err.kind,
            malformed("base", format!("base:{}", base.to_uppercase()))
        );
    }

    #[test]
    fn parse_rejects_out_of_range_rule_ids_and_duplicates() {
        let line = |group: &str, minus: &str| {
            format!(
                "{group}\tactive\t-[{minus}]\t+[]\tbase:{}\tday:0\t{FRESH}",
                f64_to_hex(-10.0)
            )
        };
        let group = key("101");
        // Rule id 256 is outside the catalog: the old parser silently
        // dropped it (and with it part of the hint's meaning).
        let err = HintStore::from_hint_text(&line(&group, "256")).unwrap_err();
        assert_eq!(err.kind, HintParseErrorKind::BadRuleId("256".into()));
        // In-range parses, and the disable really lands.
        let id = optional_rule();
        let minus = id.0.to_string();
        let store = HintStore::from_hint_text(&line(&group, &minus)).unwrap();
        assert!(!store.hint(&group).unwrap().config.is_enabled(id));

        let dup = format!("{}\n{}", line(&group, &minus), line(&group, &minus));
        let err = HintStore::from_hint_text(&dup).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, HintParseErrorKind::DuplicateGroup(group.clone()));

        // Non-binary group bits are rejected, not stored as dead keys, and
        // so is a key of any length but `NUM_RULES`: no job's signature
        // has fewer or more bits, so its hint would serve nothing.
        for bad in [
            group.replacen('0', "x", 1),
            group[1..].to_string(),
            format!("{group}0"),
            "1".to_string(),
            "0101".to_string(),
        ] {
            let err = HintStore::from_hint_text(&line(&bad, &minus)).unwrap_err();
            assert_eq!(
                err.kind,
                HintParseErrorKind::Malformed {
                    field: "group",
                    value: bad,
                }
            );
        }
    }
}
