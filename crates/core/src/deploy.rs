//! Plan hints at rest (§3.3): what is stored per job group, and the
//! plain-text hint file customers would check in.
//!
//! [`HintStore`] is storage only. Which hint reaches which job, and what
//! happens to a hint that regresses, dies or trips a guardrail, is the
//! flight controller's business ([`crate::flight`]): it is the only writer
//! outside tests and offline experiments, and every write it makes is
//! journaled.

use std::collections::HashMap;
use std::fmt;

use scope_optimizer::{RuleConfig, RuleId, RuleSet, NUM_RULES};

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

/// A stored hint for one job group.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredHint {
    /// The group key (default-signature bit string).
    pub group: String,
    pub config: RuleConfig,
    /// Improvement observed on the base job at discovery time.
    pub base_change_pct: f64,
    pub discovered_day: u32,
    pub status: HintStatus,
}

/// The per-group hint store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HintStore {
    entries: HashMap<String, StoredHint>,
}

impl HintStore {
    pub fn new() -> HintStore {
        HintStore::default()
    }

    /// Insert a fully-specified hint verbatim (no best-per-group logic, no
    /// catalog vetting). This is persistence plumbing — journal replay and
    /// snapshot loading must reconstruct *exactly* what was recorded, not
    /// re-decide it.
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
        match self.entries.get_mut(group) {
            Some(e) => {
                e.status = status;
                true
            }
            None => false,
        }
    }

    /// Number of stored hints (any status).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate stored hints.
    pub fn hints(&self) -> impl Iterator<Item = &StoredHint> {
        self.entries.values()
    }

    /// Serialize to the plain-text hint format customers would check in:
    /// one tab-separated line per group, sorted —
    ///
    /// ```text
    /// bits  status  -[ids]  +[ids]  base:<hex64>  day:<n>
    /// ```
    ///
    /// Rule ids are relative to the default config. Floats are serialized
    /// as their IEEE-754 bit pattern in hex, so
    /// [`Self::from_hint_text`] round-trips *bit-identically* — a
    /// requirement for crash-recovery equivalence checks, and immune to
    /// decimal-formatting drift.
    pub fn to_hint_text(&self) -> String {
        let mut lines: Vec<String> = self.entries.values().map(hint_line).collect();
        lines.sort();
        lines.join("\n")
    }

    /// Parse the format produced by [`Self::to_hint_text`].
    ///
    /// Strict: a malformed, truncated, or duplicated line is a typed
    /// [`HintParseError`] carrying its 1-based line number, never a
    /// silently skipped hint. A hint file drives what production jobs
    /// execute; parsing must not guess.
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
const HINT_FIELDS: [&str; 6] = ["group", "status", "disabled", "enabled", "base", "day"];

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
    /// A field had the wrong shape (non-binary group bits).
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
pub(crate) fn status_name(status: HintStatus) -> &'static str {
    match status {
        HintStatus::Active => "active",
        HintStatus::Suspended => "suspended",
        HintStatus::Quarantined => "quarantined",
    }
}

/// Inverse of [`status_name`].
pub(crate) fn status_from_name(name: &str) -> Option<HintStatus> {
    match name {
        "active" => Some(HintStatus::Active),
        "suspended" => Some(HintStatus::Suspended),
        "quarantined" => Some(HintStatus::Quarantined),
        _ => None,
    }
}

/// An `f64` as its IEEE-754 bit pattern, 16 hex digits. Lossless for
/// every value including NaN payloads and signed zero.
pub(crate) fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_to_hex`].
pub(crate) fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Render a config as its delta from the default: `("-[ids]", "+[ids]")`.
pub(crate) fn config_delta_fields(config: &RuleConfig) -> (String, String) {
    let (disabled, enabled) = config.delta_from_default();
    let ids = |set: &RuleSet| {
        set.iter()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    (
        format!("-[{}]", ids(&disabled)),
        format!("+[{}]", ids(&enabled)),
    )
}

/// Rebuild a config from its delta fields. `Err` carries the offending
/// token (not a number, or an id outside the catalog).
pub(crate) fn config_from_delta_fields(minus: &str, plus: &str) -> Result<RuleConfig, String> {
    let mut config = RuleConfig::default_config();
    for id in parse_id_list(minus, '-')? {
        config.disable(RuleId(id));
    }
    for id in parse_id_list(plus, '+')? {
        config.enable(RuleId(id));
    }
    Ok(config)
}

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

/// Serialize one hint as a hint-file line (no newline).
fn hint_line(e: &StoredHint) -> String {
    let (minus, plus) = config_delta_fields(&e.config);
    format!(
        "{}\t{}\t{}\t{}\tbase:{}\tday:{}",
        e.group,
        status_name(e.status),
        minus,
        plus,
        f64_to_hex(e.base_change_pct),
        e.discovered_day
    )
}

/// Parse one non-empty hint-file line.
fn parse_hint_line(line: &str) -> Result<StoredHint, HintParseErrorKind> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < HINT_FIELDS.len() {
        return Err(HintParseErrorKind::MissingField(HINT_FIELDS[fields.len()]));
    }
    if fields.len() > HINT_FIELDS.len() {
        return Err(HintParseErrorKind::TrailingFields(
            fields[HINT_FIELDS.len()..].join("\t"),
        ));
    }
    let group = fields[0];
    if group.is_empty() || !group.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(HintParseErrorKind::Malformed {
            field: "group",
            value: group.to_string(),
        });
    }
    let status = status_from_name(fields[1])
        .ok_or_else(|| HintParseErrorKind::UnknownStatus(fields[1].to_string()))?;
    let config =
        config_from_delta_fields(fields[2], fields[3]).map_err(HintParseErrorKind::BadRuleId)?;
    let base_change_pct = fields[4]
        .strip_prefix("base:")
        .and_then(f64_from_hex)
        .ok_or_else(|| HintParseErrorKind::BadNumber {
            field: "base",
            value: fields[4].to_string(),
        })?;
    let discovered_day: u32 = fields[5]
        .strip_prefix("day:")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HintParseErrorKind::BadNumber {
            field: "day",
            value: fields[5].to_string(),
        })?;
    Ok(StoredHint {
        group: group.to_string(),
        config,
        base_change_pct,
        discovered_day,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_optimizer::RuleCatalog;

    /// A rule that is on by default but not required, so disabling it
    /// sticks.
    fn optional_rule() -> RuleId {
        RuleConfig::default_config()
            .enabled()
            .difference(RuleCatalog::global().required())
            .iter()
            .next()
            .expect("some default rule is optional")
    }

    /// One hint per status, with distinct deltas, days and improvements.
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
            store.insert_hint(StoredHint {
                group: format!("1{i:b}01"),
                config,
                base_change_pct: -10.5 * (i + 1) as f64,
                discovered_day: i as u32,
                status,
            });
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

        // Fields past `day` (a v1 hint file carried validation history
        // there) are an error, not silently dropped.
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

    #[test]
    fn parse_rejects_out_of_range_rule_ids_and_duplicates() {
        let line = |group: &str, minus: &str| {
            format!(
                "{group}\tactive\t-[{minus}]\t+[]\tbase:{}\tday:0",
                f64_to_hex(-10.0)
            )
        };
        // Rule id 256 is outside the catalog: the old parser silently
        // dropped it (and with it part of the hint's meaning).
        let err = HintStore::from_hint_text(&line("101", "256")).unwrap_err();
        assert_eq!(err.kind, HintParseErrorKind::BadRuleId("256".into()));
        // In-range parses, and the disable really lands.
        let id = optional_rule();
        let minus = id.0.to_string();
        let store = HintStore::from_hint_text(&line("101", &minus)).unwrap();
        assert!(!store.hint("101").unwrap().config.is_enabled(id));

        let dup = format!("{}\n{}", line("101", &minus), line("101", &minus));
        let err = HintStore::from_hint_text(&dup).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, HintParseErrorKind::DuplicateGroup("101".into()));

        // Non-binary group bits are rejected, not stored as dead keys.
        let err = HintStore::from_hint_text(&line("1x1", &minus)).unwrap_err();
        assert!(matches!(
            err.kind,
            HintParseErrorKind::Malformed { field: "group", .. }
        ));
    }
}
