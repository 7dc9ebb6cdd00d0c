//! Flighting: staged canary rollout, auto-rollback, and crash-safe hint
//! deployment.
//!
//! The QO-Advisor deployment story (PAPERS.md, arXiv 2210.13625) is that
//! steering survived production not because discovery got smarter but
//! because promotion got *slower*: a hint earns fleet-wide traffic by
//! passing through staged canaries, is watched by regression monitors
//! that roll it back automatically, and keeps being re-validated after it
//! is deployed. [`FlightController`] is that lifecycle, and the only one:
//! the paper's §3.3 guardrail and §6.4 periodic re-validation are
//! [`FlightController::serve_day`] and
//! [`FlightController::revalidate_background`], and [`HintStore`] beneath
//! it is plain storage.
//!
//! * **State machine** — every hint owns a [`FlightState`] walking
//!   `Candidate → Canary(pct) → Ramping(pct…) → Deployed`, with
//!   `RolledBack` as the terminal failure state. Canary exposure is
//!   [`FlightConfig::canary_pct`], the ramp is `RAMP_PCTS`; the traffic
//!   split is a deterministic hash of `(flight salt, job id)`
//!   ([`scope_exec::in_rollout`]), so replays are bit-identical and a
//!   recurring job stays on one side of the split.
//! * **Regression monitors with hysteresis** — per-day per-group mean
//!   runtime change feeds an N-strike counter ([`N_STRIKES`] consecutive
//!   days above `STRIKE_THRESHOLD_PCT`) and a CUSUM accumulator
//!   (`s = max(0, s + x − CUSUM_DRIFT_PCT)`, tripping above
//!   `CUSUM_THRESHOLD`). Either tripping rolls the flight back; a single
//!   noisy sample cannot (the paper's workloads are noisy by construction,
//!   §3.1.3). A steered run that dies and re-runs on the default plan is
//!   an observation too — the wasted attempt is what the customer paid —
//!   so a hint whose plan keeps dying is rolled back like one that keeps
//!   running slow.
//! * **Background revalidation** — a per-day budget
//!   ([`FlightConfig::revalidation_budget`]) re-runs a rotating sample of
//!   Deployed hints (which no longer pay for shadow baselines on the
//!   serving path) and feeds the same monitors; it also probes
//!   Quarantined hints, restoring them to Canary after
//!   [`PROBATION_CLEAN_REQUIRED`] consecutive clean probes — the
//!   probation path out of the old quarantine dead-end.
//! * **Crash safety by construction** — every state mutation is a
//!   `FlightEvent` applied through one `apply` function and appended to
//!   an in-memory journal with per-line checksums. Recovery replays the
//!   journal (optionally on top of a checksummed snapshot) through the
//!   *same* `apply`, so the reconstructed state is bit-identical to the
//!   original, and a torn tail (simulated with
//!   [`scope_exec::CrashPlan`]) truncates to the last durable event
//!   instead of corrupting the store.
//! * **One default compile per job-day** — a day's default plans are
//!   compiled once, fanned out over every core ([`crate::par`]) with
//!   panic isolation, so a job whose default compile fails or panics is
//!   `skipped` rather than fatal. `serve_day` keeps the first
//!   `REVALIDATION_JOBS` jobs of every flighted group as the day's
//!   sample, and `revalidate_background` reads that sample instead of
//!   compiling the day again. The sample is derived state: it is not
//!   journaled, and a sweep without a matching sample (another day, other
//!   jobs, a flight installed since, a recovered controller) derives one
//!   afresh.
//!
//! The controller journals through its own methods only. Mutating the
//! public [`FlightController::store`] directly bypasses the journal and
//! forfeits the recovery guarantee.

use std::collections::BTreeMap;
use std::sync::Arc;

use scope_exec::{ABTester, CrashPlan, CrashRoll, RetryPolicy};
use scope_ir::stats::{mean, pct_change};
use scope_ir::Job;
use scope_lint::catalog_invalid;
use scope_optimizer::{compile_job_guarded, CompileBudget, CompiledPlan, RuleConfig};
use scope_trace::{count, record, Counter, Histogram};

use crate::deploy::{
    config_delta_fields, config_from_delta_fields, f64_from_hex, f64_to_hex, status_from_name,
    status_name, HintStatus, HintStore, StoredHint,
};
use crate::groups::GroupConfig;
use crate::guard::{compile_steered, SteeredCompile};
use crate::par::{available_threads, run_chunked_on};

/// Where a flight is in its rollout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightStage {
    /// Ingested, not yet serving.
    Candidate,
    /// Serving [`FlightConfig::canary_pct`] of matching traffic.
    Canary,
    /// Serving `RAMP_PCTS[step]` of matching traffic.
    Ramping { step: usize },
    /// Serving all matching traffic; monitored only by background
    /// revalidation (no shadow baselines on the serving path).
    Deployed,
    /// Auto-rolled back on `day`. Terminal.
    RolledBack { day: u32 },
}

impl FlightStage {
    /// Percentage of matching traffic this stage serves steered.
    pub(crate) fn exposure_pct(self, config: &FlightConfig) -> u8 {
        match self {
            FlightStage::Candidate | FlightStage::RolledBack { .. } => 0,
            FlightStage::Canary => config.canary_pct,
            FlightStage::Ramping { step } => RAMP_PCTS.get(step).copied().unwrap_or(100),
            FlightStage::Deployed => 100,
        }
    }

    /// The stage a clean promotion leads to.
    fn next(self) -> FlightStage {
        match self {
            FlightStage::Candidate => FlightStage::Canary,
            FlightStage::Canary => FlightStage::Ramping { step: 0 },
            FlightStage::Ramping { step } if step + 1 < RAMP_PCTS.len() => {
                FlightStage::Ramping { step: step + 1 }
            }
            FlightStage::Ramping { .. } => FlightStage::Deployed,
            other => other,
        }
    }

    fn render(self) -> String {
        match self {
            FlightStage::Candidate => "candidate".into(),
            FlightStage::Canary => "canary".into(),
            FlightStage::Ramping { step } => format!("ramping:{step}"),
            FlightStage::Deployed => "deployed".into(),
            FlightStage::RolledBack { day } => format!("rolledback:{day}"),
        }
    }

    fn parse(s: &str) -> Option<FlightStage> {
        match s {
            "candidate" => Some(FlightStage::Candidate),
            "canary" => Some(FlightStage::Canary),
            "deployed" => Some(FlightStage::Deployed),
            _ => {
                if let Some(step) = s.strip_prefix("ramping:") {
                    // A step past the ladder is no stage this controller
                    // can be in: reject it rather than serve it at 100 %.
                    let step = step.parse().ok()?;
                    (step < RAMP_PCTS.len()).then_some(FlightStage::Ramping { step })
                } else if let Some(day) = s.strip_prefix("rolledback:") {
                    Some(FlightStage::RolledBack {
                        day: day.parse().ok()?,
                    })
                } else {
                    None
                }
            }
        }
    }
}

/// Exposure ladder between canary and deployed.
pub(crate) const RAMP_PCTS: [u8; 1] = [25];
/// A stage must last at least this many days before promotion.
pub(crate) const MIN_DAYS_PER_STAGE: u32 = 1;
/// … and accumulate this many *clean observed* days.
pub(crate) const MIN_CLEAN_DAYS_PER_STAGE: u32 = 1;
/// A day-mean change above this is a strike.
pub(crate) const STRIKE_THRESHOLD_PCT: f64 = 10.0;
/// Consecutive strikes that trip a rollback.
pub const N_STRIKES: u32 = 3;
/// CUSUM drift: day-mean change is accumulated above this allowance.
pub(crate) const CUSUM_DRIFT_PCT: f64 = 5.0;
/// CUSUM level that trips a rollback.
pub(crate) const CUSUM_THRESHOLD: f64 = 25.0;
/// Jobs sampled per hint per background revalidation.
pub(crate) const REVALIDATION_JOBS: usize = 3;
/// Consecutive clean probes before a quarantined hint re-enters Canary.
pub const PROBATION_CLEAN_REQUIRED: u32 = 3;
/// A probe is clean only if its mean change stays at or below this.
pub(crate) const REGRESSION_THRESHOLD_PCT: f64 = 5.0;

/// The rollout settings a caller chooses; the rest of the policy is the
/// constants above.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightConfig {
    /// Exposure while canarying.
    pub canary_pct: u8,
    /// Deployed/quarantined hints revalidated per background sweep.
    pub revalidation_budget: usize,
    /// Budget applied to every steered compile of a stored hint (serving
    /// and background revalidation). Exhaustion quarantines the hint
    /// rather than blocking the job.
    pub compile_budget: CompileBudget,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            canary_pct: 5,
            revalidation_budget: 2,
            compile_budget: CompileBudget::default(),
        }
    }
}

/// Per-hint rollout state. Monitor state (`strikes`, `cusum`,
/// `clean_days_in_stage`, `probation_clean`) is per-stage: every stage
/// transition resets it, so hysteresis is judged against the current
/// exposure level only.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightState {
    pub stage: FlightStage,
    pub stage_since_day: u32,
    pub clean_days_in_stage: u32,
    pub strikes: u32,
    pub cusum: f64,
    pub probation_clean: u32,
}

impl FlightState {
    fn new(day: u32) -> FlightState {
        FlightState {
            stage: FlightStage::Candidate,
            stage_since_day: day,
            clean_days_in_stage: 0,
            strikes: 0,
            cusum: 0.0,
            probation_clean: 0,
        }
    }
}

/// One journaled state transition. Everything the controller ever does to
/// its durable state is one of these, applied through one code path by
/// both live execution and crash recovery.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FlightEvent {
    /// A discovery winner entered the store (as `Candidate`).
    Install {
        group: String,
        config: RuleConfig,
        base_change_pct: f64,
        day: u32,
        status: HintStatus,
    },
    /// A flight moved to a new stage.
    Stage {
        group: String,
        to: FlightStage,
        day: u32,
    },
    /// A hint's lifecycle status changed.
    Status { group: String, status: HintStatus },
    /// One day's observed mean runtime change for a group (monitor food).
    Observe {
        group: String,
        mean_change_pct: f64,
        n: u32,
        day: u32,
    },
    /// One background probation probe of a quarantined hint.
    Probe { group: String, clean: bool },
}

fn render_event(event: &FlightEvent) -> String {
    match event {
        FlightEvent::Install {
            group,
            config,
            base_change_pct,
            day,
            status,
        } => {
            let (minus, plus) = config_delta_fields(config);
            format!(
                "install\t{group}\t{}\t{minus}\t{plus}\t{}\t{day}",
                status_name(*status),
                f64_to_hex(*base_change_pct)
            )
        }
        FlightEvent::Stage { group, to, day } => {
            format!("stage\t{group}\t{}\t{day}", to.render())
        }
        FlightEvent::Status { group, status } => {
            format!("status\t{group}\t{}", status_name(*status))
        }
        FlightEvent::Observe {
            group,
            mean_change_pct,
            n,
            day,
        } => format!("obs\t{group}\t{}\t{n}\t{day}", f64_to_hex(*mean_change_pct)),
        FlightEvent::Probe { group, clean } => {
            format!("probe\t{group}\t{}", if *clean { "clean" } else { "dirty" })
        }
    }
}

/// Parse `"<seq>\t<payload>"`. `None` on any malformation — recovery
/// treats that as a torn tail, not a guess.
fn parse_event_body(body: &str) -> Option<(u64, FlightEvent)> {
    let mut it = body.split('\t');
    let seq: u64 = it.next()?.parse().ok()?;
    let kind = it.next()?;
    let event = match kind {
        "install" => FlightEvent::Install {
            group: it.next()?.to_string(),
            status: status_from_name(it.next()?)?,
            config: {
                let minus = it.next()?;
                let plus = it.next()?;
                config_from_delta_fields(minus, plus).ok()?
            },
            base_change_pct: f64_from_hex(it.next()?)?,
            day: it.next()?.parse().ok()?,
        },
        "stage" => FlightEvent::Stage {
            group: it.next()?.to_string(),
            to: FlightStage::parse(it.next()?)?,
            day: it.next()?.parse().ok()?,
        },
        "status" => FlightEvent::Status {
            group: it.next()?.to_string(),
            status: status_from_name(it.next()?)?,
        },
        "obs" => FlightEvent::Observe {
            group: it.next()?.to_string(),
            mean_change_pct: f64_from_hex(it.next()?)?,
            n: it.next()?.parse().ok()?,
            day: it.next()?.parse().ok()?,
        },
        "probe" => FlightEvent::Probe {
            group: it.next()?.to_string(),
            clean: match it.next()? {
                "clean" => true,
                "dirty" => false,
                _ => return None,
            },
        },
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some((seq, event))
}

/// FNV-1a, the workspace's stock content checksum: stable across
/// platforms and rust versions (unlike `DefaultHasher`, which is only
/// stable within a process — fine for traffic splits, not for bytes that
/// must be re-verifiable after a restart).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic per-flight salt for the traffic split.
pub(crate) fn flight_salt(group: &str) -> u64 {
    fnv64(group.as_bytes())
}

/// Append-only event journal with per-line checksums. A line is
/// `"<seq>\t<payload>\t#<fnv64-hex>"`; the checksum covers everything
/// before the `\t#`. An armed [`CrashPlan`] makes appends fail the way a
/// real crash does: one torn (prefix-only) write, then nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlightJournal {
    lines: Vec<String>,
    next_seq: u64,
    crash: Option<CrashPlan>,
}

impl FlightJournal {
    fn append(&mut self, event: &FlightEvent) {
        let body = format!("{}\t{}", self.next_seq, render_event(event));
        self.next_seq += 1;
        let line = format!("{body}\t#{:016x}", fnv64(body.as_bytes()));
        count(Counter::FlightJournalEvents, 1);
        match self
            .crash
            .as_mut()
            .map_or(CrashRoll::Alive, CrashPlan::roll)
        {
            CrashRoll::Alive => self.lines.push(line),
            CrashRoll::Torn(keep) => {
                let keep = keep.min(line.len());
                self.lines.push(line[..keep].to_string());
            }
            CrashRoll::Dead => {}
        }
    }

    /// The journal as it would read back from stable storage.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// Whether an armed crash plan has fired.
    pub fn crashed(&self) -> bool {
        self.crash.as_ref().is_some_and(CrashPlan::crashed)
    }
}

/// Split journal text into verified events. Stops at the first corrupt
/// line (bad checksum, unparsable body): in an append-only log anything
/// after a torn write is untrustworthy. Returns the events and how many
/// trailing lines were discarded.
fn parse_journal(text: &str) -> (Vec<(u64, FlightEvent, String)>, usize) {
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let verified = line.rsplit_once("\t#").and_then(|(body, ck)| {
            let sum = u64::from_str_radix(ck, 16).ok()?;
            (sum == fnv64(body.as_bytes())).then_some(body)
        });
        match verified.and_then(parse_event_body) {
            Some((seq, event)) => out.push((seq, event, (*line).to_string())),
            None => return (out, lines.len() - i),
        }
    }
    (out, 0)
}

/// What a recovery replayed and what it had to discard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Events applied on top of the starting state.
    pub replayed_events: usize,
    /// Trailing journal lines dropped as torn/corrupt.
    pub discarded_lines: usize,
    /// Sequence number the snapshot covered (0 without a snapshot).
    pub snapshot_seq: u64,
}

/// Why a snapshot could not be loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// Header missing or not a supported version.
    SnapshotVersion(String),
    /// The trailing checksum did not match the snapshot body.
    SnapshotChecksum,
    /// A body line was neither a hint nor a flight record.
    SnapshotMalformed { line: usize, what: String },
    /// The embedded hint store failed to parse.
    SnapshotHints(crate::deploy::HintParseError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::SnapshotVersion(h) => write!(f, "bad snapshot header: `{h}`"),
            RecoveryError::SnapshotChecksum => write!(f, "snapshot checksum mismatch"),
            RecoveryError::SnapshotMalformed { line, what } => {
                write!(f, "snapshot line {line}: malformed `{what}`")
            }
            RecoveryError::SnapshotHints(e) => write!(f, "snapshot hints: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-group serving stats for one day.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupDayStats {
    /// Jobs whose default signature matched this flight.
    pub matching: usize,
    /// … of which served the steered plan.
    pub steered: usize,
    /// … of which stayed on the default plan (hash split, zero exposure,
    /// or inactive hint).
    pub held_back: usize,
    /// Steered runs that died and re-ran on the default plan.
    pub fallbacks: usize,
    /// Steered/baseline and fallback pairs that produced an observation.
    pub observed: usize,
    /// Mean runtime change of today's observations (0 when none).
    pub mean_change_pct: f64,
}

/// One day of serving through the flight layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightDayReport {
    pub day: u32,
    /// Jobs offered.
    pub jobs: usize,
    /// Jobs whose group has no flight (served default; not simulated).
    pub unmatched: usize,
    /// Jobs whose default compile failed or panicked.
    pub skipped: usize,
    pub steered: usize,
    pub held_back: usize,
    /// Hints vetoed at serve time (fatal compile or vet failure) — each
    /// veto also quarantined the hint.
    pub vetoes: usize,
    /// Steered jobs the static analyzer or a benign compile error kept on
    /// the default plan.
    pub static_skips: usize,
    pub fallbacks: usize,
    /// Fallbacks whose default-plan re-run died too: the job did not
    /// finish within its retry budget on either plan.
    pub lost: usize,
    pub by_group: BTreeMap<String, GroupDayStats>,
}

/// Stage changes decided by one [`FlightController::advance`] call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdvanceReport {
    pub day: u32,
    pub promotions: Vec<(String, FlightStage)>,
    pub rollbacks: Vec<String>,
}

/// What one background revalidation sweep did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackgroundReport {
    pub day: u32,
    /// Deployed hints that produced a monitor observation.
    pub observed: Vec<String>,
    /// Steered/default pairs behind those observations.
    pub jobs_executed: usize,
    /// Mean runtime change over those pairs (0 when none).
    pub mean_change_pct: f64,
    /// Quarantined hints probed (clean or dirty).
    pub probed: Vec<String>,
    /// Quarantined hints restored to Canary this sweep.
    pub restored: Vec<String>,
    /// Deployed hints quarantined by a fatal compile / vet failure.
    pub quarantined: Vec<String>,
    /// Picked hints whose group had no matching jobs today.
    pub absent: usize,
}

/// One job's default plan, as the flight layer needs it.
enum DayDefault {
    /// The default compile failed or panicked.
    Failed,
    /// The default compiled to a group the caller does not want.
    Unflighted,
    /// The default compiled to a wanted group: its key and the plan,
    /// boxed so that every entry, mostly the other two, is 32 bytes.
    Flighted(String, Box<CompiledPlan>),
}

/// Compile every job's default plan under the default budget on
/// `n_threads` workers, one value per job in job order. A plan is kept
/// only when `wanted` accepts its group key.
fn derive_defaults(
    jobs: &[Job],
    n_threads: usize,
    wanted: impl Fn(&str) -> bool + Sync,
) -> Vec<DayDefault> {
    let config = RuleConfig::default_config();
    let budget = CompileBudget::default();
    let derived = run_chunked_on(
        jobs,
        n_threads,
        |job| {
            Some(match compile_job_guarded(job, &config, &budget) {
                Err(_) => DayDefault::Failed,
                Ok(plan) => {
                    let key = plan.signature.to_bit_string();
                    if wanted(&key) {
                        DayDefault::Flighted(key, Box::new(plan))
                    } else {
                        DayDefault::Unflighted
                    }
                }
            })
        },
        |job| format!("job {}", job.id.0),
    );
    // Guarded compiles do not panic, so no job was dropped and the result
    // zips with `jobs`.
    debug_assert_eq!(derived.len(), jobs.len());
    derived
}

/// The first [`REVALIDATION_JOBS`] jobs of every flighted group on one
/// day, with their default plans: what a background revalidation sweep
/// samples. Derived state, never journaled.
#[derive(Debug)]
struct DaySample {
    day: u32,
    job_ids: Vec<u64>,
    n_flights: usize,
    /// Per group key: (index into the day's jobs, default plan), in job
    /// order.
    groups: BTreeMap<String, Vec<(usize, Box<CompiledPlan>)>>,
}

impl DaySample {
    /// Keep the first [`REVALIDATION_JOBS`] jobs of each group in
    /// `defaults`, [`derive_defaults`]' result over `jobs`.
    fn new(day: u32, jobs: &[Job], n_flights: usize, defaults: Vec<DayDefault>) -> DaySample {
        let mut groups: BTreeMap<String, Vec<(usize, Box<CompiledPlan>)>> = BTreeMap::new();
        for (i, derived) in defaults.into_iter().enumerate() {
            if let DayDefault::Flighted(key, plan) = derived {
                let sampled = groups.entry(key).or_default();
                if sampled.len() < REVALIDATION_JOBS {
                    sampled.push((i, plan));
                }
            }
        }
        DaySample {
            day,
            job_ids: jobs.iter().map(|j| j.id.0).collect(),
            n_flights,
            groups,
        }
    }

    /// Whether a sweep over `jobs` on `day`, with `n_flights` flights, may
    /// sample from this. Flights are never removed, so an equal count
    /// means an equal set of group keys.
    fn covers(&self, day: u32, jobs: &[Job], n_flights: usize) -> bool {
        self.day == day
            && self.n_flights == n_flights
            && self.job_ids.iter().copied().eq(jobs.iter().map(|j| j.id.0))
    }
}

/// The flighting state machine over a [`HintStore`].
#[derive(Clone, Debug)]
pub struct FlightController {
    /// The underlying store. Read freely; direct mutation bypasses the
    /// journal and forfeits crash recovery (offline experiments only).
    pub store: HintStore,
    flights: BTreeMap<String, FlightState>,
    pub config: FlightConfig,
    journal: FlightJournal,
    /// The sample the last `serve_day` took, until a sweep consumes it.
    day_sample: Option<Arc<DaySample>>,
}

impl FlightController {
    pub fn new(config: FlightConfig) -> FlightController {
        FlightController {
            store: HintStore::new(),
            flights: BTreeMap::new(),
            config,
            journal: FlightJournal::default(),
            day_sample: None,
        }
    }

    /// The one place state changes: mutate, then journal. Recovery calls
    /// the same `apply` per journaled event, which is what makes replayed
    /// state bit-identical to live state.
    fn emit(&mut self, event: FlightEvent) {
        self.apply(&event);
        self.journal.append(&event);
    }

    fn apply(&mut self, event: &FlightEvent) {
        match event {
            FlightEvent::Install {
                group,
                config,
                base_change_pct,
                day,
                status,
            } => {
                self.store.insert_hint(StoredHint {
                    group: group.clone(),
                    config: config.clone(),
                    base_change_pct: *base_change_pct,
                    discovered_day: *day,
                    status: *status,
                });
                self.flights.insert(group.clone(), FlightState::new(*day));
            }
            FlightEvent::Stage { group, to, day } => {
                if let Some(f) = self.flights.get_mut(group) {
                    f.stage = *to;
                    f.stage_since_day = *day;
                    f.clean_days_in_stage = 0;
                    f.strikes = 0;
                    f.cusum = 0.0;
                    f.probation_clean = 0;
                }
            }
            FlightEvent::Status { group, status } => {
                self.store.set_status(group, *status);
            }
            FlightEvent::Observe {
                group,
                mean_change_pct,
                ..
            } => {
                if let Some(f) = self.flights.get_mut(group) {
                    if *mean_change_pct > STRIKE_THRESHOLD_PCT {
                        f.strikes += 1;
                    } else {
                        f.strikes = 0;
                        f.clean_days_in_stage += 1;
                    }
                    f.cusum = (f.cusum + mean_change_pct - CUSUM_DRIFT_PCT).max(0.0);
                }
            }
            FlightEvent::Probe { group, clean } => {
                if let Some(f) = self.flights.get_mut(group) {
                    f.probation_clean = if *clean { f.probation_clean + 1 } else { 0 };
                }
            }
        }
    }

    /// Ingest discovery winners as `Candidate` flights, keeping per group
    /// the one with the largest base improvement. A winner whose
    /// configuration is plan-independently broken (see
    /// [`scope_lint::catalog_invalid`]; it can compile no job at all) is
    /// stored directly as `Quarantined` so it is never served — the
    /// static-analysis arm of the quarantine guardrail, applied at
    /// ingestion instead of first failure. Returns how many were stored.
    pub fn ingest(&mut self, winners: &[GroupConfig], day: u32) -> usize {
        let mut installed = 0;
        for w in winners {
            let key = w.group.to_bit_string();
            let keep = self
                .store
                .hint(&key)
                .map(|e| w.base_change_pct < e.base_change_pct)
                .unwrap_or(true);
            if !keep {
                continue;
            }
            let status = if catalog_invalid(&w.config).is_empty() {
                HintStatus::Active
            } else {
                HintStatus::Quarantined
            };
            self.emit(FlightEvent::Install {
                group: key,
                config: w.config.clone(),
                base_change_pct: w.base_change_pct,
                day,
                status,
            });
            installed += 1;
        }
        installed
    }

    /// [`Self::ingest`] and immediately promote every resulting active
    /// candidate to `Deployed` (100 % exposure). For offline experiments
    /// that start from an already-rolled-out fleet; production-style
    /// drivers should let [`Self::advance`] walk the stages instead.
    pub fn ingest_deployed(&mut self, winners: &[GroupConfig], day: u32) -> usize {
        let n = self.ingest(winners, day);
        let candidates: Vec<String> = self
            .flights
            .iter()
            .filter(|(_, f)| f.stage == FlightStage::Candidate)
            .map(|(k, _)| k.clone())
            .collect();
        for group in candidates {
            if self
                .store
                .hint(&group)
                .is_some_and(|h| h.status == HintStatus::Active)
            {
                self.emit(FlightEvent::Stage {
                    group,
                    to: FlightStage::Deployed,
                    day,
                });
            }
        }
        n
    }

    /// The flight for a group key, if any.
    pub fn flight(&self, group: &str) -> Option<&FlightState> {
        self.flights.get(group)
    }

    /// Iterate flights in deterministic (sorted-key) order.
    pub fn flights(&self) -> impl Iterator<Item = (&String, &FlightState)> {
        self.flights.iter()
    }

    /// Serve one day of traffic through the flight layer.
    ///
    /// For each job whose default-plan signature has a flight: the hash
    /// split decides steered vs held back; steered jobs run through the
    /// full guardrail (`guard::compile_steered`; a veto quarantines the hint on
    /// the spot) and fall back to the default plan if the steered run
    /// dies. While a flight is in a measured stage (Canary/Ramping) every
    /// steered run is paired with a shadow baseline run; Deployed flights
    /// skip the shadow (that cost moves to
    /// [`Self::revalidate_background`]). A fallback is its own pair at
    /// every stage — wasted attempt plus re-run against the re-run alone.
    /// The day's mean change over a group's pairs feeds the monitors.
    /// Held-back and unmatched jobs are counted but not simulated — they
    /// run the default plan by definition.
    ///
    /// Every job's default plan is compiled first, on every core; a job
    /// whose default fails or panics is `skipped`. The first
    /// `REVALIDATION_JOBS` jobs of each flighted group are kept for
    /// today's [`Self::revalidate_background`].
    pub fn serve_day(
        &mut self,
        jobs: &[Job],
        ab: &ABTester,
        policy: &RetryPolicy,
        day: u32,
    ) -> FlightDayReport {
        self.serve_day_on(jobs, ab, policy, day, available_threads())
    }

    /// [`Self::serve_day`] with the default compiles on `n_threads`
    /// workers.
    pub(crate) fn serve_day_on(
        &mut self,
        jobs: &[Job],
        ab: &ABTester,
        policy: &RetryPolicy,
        day: u32,
        n_threads: usize,
    ) -> FlightDayReport {
        let _span = scope_trace::span("flight.serve_day");
        let mut report = FlightDayReport {
            day,
            ..FlightDayReport::default()
        };
        let mut day_changes: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let flights = &self.flights;
        let defaults = derive_defaults(jobs, n_threads, |key| flights.contains_key(key));
        let compile_budget = self.config.compile_budget;
        for (job, derived) in jobs.iter().zip(&defaults) {
            report.jobs += 1;
            let (key, default) = match derived {
                DayDefault::Failed => {
                    report.skipped += 1;
                    continue;
                }
                DayDefault::Unflighted => {
                    report.unmatched += 1;
                    continue;
                }
                DayDefault::Flighted(key, default) => (key, default),
            };
            let stage = self.flights[key].stage;
            let exposure = stage.exposure_pct(&self.config);
            let active = self
                .store
                .hint(key)
                .is_some_and(|h| h.status == HintStatus::Active);
            let stats = report.by_group.entry(key.clone()).or_default();
            stats.matching += 1;
            if exposure == 0
                || !active
                || !scope_exec::in_rollout(job.id.0, flight_salt(key), exposure)
            {
                stats.held_back += 1;
                report.held_back += 1;
                count(Counter::FlightHeldBack, 1);
                continue;
            }
            let hint_cfg = self
                .store
                .hint(key)
                .expect("active hint exists")
                .config
                .clone();
            let steered = match compile_steered(job, default, &hint_cfg, &compile_budget) {
                SteeredCompile::Steered(s) => s,
                SteeredCompile::SkippedStatically | SteeredCompile::SkippedBenignly => {
                    report.static_skips += 1;
                    continue;
                }
                SteeredCompile::Vetoed => {
                    self.emit(FlightEvent::Status {
                        group: key.clone(),
                        status: HintStatus::Quarantined,
                    });
                    report.vetoes += 1;
                    continue;
                }
            };
            let run = ab.run_with_retry(job, &steered.plan, 0, policy);
            let stats = report.by_group.entry(key.clone()).or_default();
            stats.steered += 1;
            report.steered += 1;
            count(Counter::FlightServedSteered, 1);
            if !run.outcome.is_success() {
                // Guardrail: the job re-runs on its default plan. What the
                // customer saw — the wasted attempt plus the re-run, against
                // the re-run alone — is evidence against the hint at every
                // stage, Deployed included.
                let fallback = ab.run_with_retry(job, &default.plan, 0, policy);
                stats.fallbacks += 1;
                report.fallbacks += 1;
                if fallback.outcome.is_success() {
                    day_changes.entry(key.clone()).or_default().push(pct_change(
                        fallback.metrics.runtime,
                        run.metrics.runtime + fallback.metrics.runtime,
                    ));
                } else {
                    report.lost += 1;
                }
                continue;
            }
            if stage != FlightStage::Deployed {
                let baseline = ab.run_with_retry(job, &default.plan, 0, policy);
                if baseline.outcome.is_success() {
                    day_changes
                        .entry(key.clone())
                        .or_default()
                        .push(pct_change(baseline.metrics.runtime, run.metrics.runtime));
                }
            }
        }
        let sample = DaySample::new(day, jobs, self.flights.len(), defaults);
        self.day_sample = Some(Arc::new(sample));
        for (group, changes) in day_changes {
            let m = mean(&changes);
            let stats = report.by_group.entry(group.clone()).or_default();
            stats.observed = changes.len();
            stats.mean_change_pct = m;
            self.emit(FlightEvent::Observe {
                group,
                mean_change_pct: m,
                n: changes.len() as u32,
                day,
            });
            count(Counter::FlightObservations, 1);
        }
        report
    }

    /// End-of-day stage decisions: roll back tripped monitors (N
    /// consecutive strikes or CUSUM over threshold), promote candidates to
    /// Canary, and promote measured stages that aged and stayed clean.
    pub fn advance(&mut self, day: u32) -> AdvanceReport {
        let _span = scope_trace::span("flight.advance");
        let mut report = AdvanceReport {
            day,
            ..AdvanceReport::default()
        };
        let groups: Vec<String> = self.flights.keys().cloned().collect();
        for key in groups {
            let Some(f) = self.flights.get(&key) else {
                continue;
            };
            let stage = f.stage;
            let since = f.stage_since_day;
            let clean = f.clean_days_in_stage;
            let tripped = f.strikes >= N_STRIKES || f.cusum > CUSUM_THRESHOLD;
            let active = self
                .store
                .hint(&key)
                .is_some_and(|h| h.status == HintStatus::Active);
            match stage {
                FlightStage::Candidate => {
                    if active {
                        self.emit(FlightEvent::Stage {
                            group: key.clone(),
                            to: FlightStage::Canary,
                            day,
                        });
                        count(Counter::FlightPromotions, 1);
                        report.promotions.push((key, FlightStage::Canary));
                    }
                }
                FlightStage::Canary | FlightStage::Ramping { .. } | FlightStage::Deployed => {
                    if !active {
                        continue;
                    }
                    if tripped {
                        record(
                            Histogram::FlightDaysToRollback,
                            u64::from(day.saturating_sub(since)),
                        );
                        count(Counter::FlightRollbacks, 1);
                        self.emit(FlightEvent::Stage {
                            group: key.clone(),
                            to: FlightStage::RolledBack { day },
                            day,
                        });
                        self.emit(FlightEvent::Status {
                            group: key.clone(),
                            status: HintStatus::Suspended,
                        });
                        report.rollbacks.push(key);
                    } else if stage != FlightStage::Deployed
                        && day.saturating_sub(since) >= MIN_DAYS_PER_STAGE
                        && clean >= MIN_CLEAN_DAYS_PER_STAGE
                    {
                        let to = stage.next();
                        self.emit(FlightEvent::Stage {
                            group: key.clone(),
                            to,
                            day,
                        });
                        count(Counter::FlightPromotions, 1);
                        report.promotions.push((key, to));
                    }
                }
                FlightStage::RolledBack { .. } => {}
            }
        }
        report
    }

    /// Background revalidation sweep: spend
    /// [`FlightConfig::revalidation_budget`] on a rotating
    /// (day-offset) sample of Deployed hints — their only monitoring,
    /// since deployed serving pays no shadow baselines — and of
    /// Quarantined hints, whose clean probes accumulate toward probation
    /// release back into Canary.
    ///
    /// Each picked hint runs on the first `REVALIDATION_JOBS` of
    /// today's jobs in its group.
    /// They come from the sample today's [`Self::serve_day`] took over the
    /// same jobs; without one that still fits, the day's defaults are
    /// compiled afresh, on every core.
    pub fn revalidate_background(
        &mut self,
        jobs: &[Job],
        ab: &ABTester,
        day: u32,
    ) -> BackgroundReport {
        self.revalidate_background_on(jobs, ab, day, available_threads())
    }

    /// [`Self::revalidate_background`] with any default compiles on
    /// `n_threads` workers.
    pub(crate) fn revalidate_background_on(
        &mut self,
        jobs: &[Job],
        ab: &ABTester,
        day: u32,
        n_threads: usize,
    ) -> BackgroundReport {
        let _span = scope_trace::span("flight.revalidate");
        let mut report = BackgroundReport {
            day,
            ..BackgroundReport::default()
        };
        let day_sample = self.day_sample.take();
        let eligible: Vec<String> = self
            .flights
            .iter()
            .filter_map(|(k, f)| {
                let status = self.store.hint(k)?.status;
                let deployed_active =
                    f.stage == FlightStage::Deployed && status == HintStatus::Active;
                let quarantined = status == HintStatus::Quarantined;
                (deployed_active || quarantined).then(|| k.clone())
            })
            .collect();
        if eligible.is_empty() {
            return report;
        }
        let budget = self.config.revalidation_budget.max(1);
        let start = (day as usize).wrapping_mul(budget) % eligible.len();
        let picked: Vec<String> = (0..budget.min(eligible.len()))
            .map(|i| eligible[(start + i) % eligible.len()].clone())
            .collect();

        // The first `REVALIDATION_JOBS` of today's jobs in each picked
        // group, with their default plans for the guardrail below.
        let sample = match day_sample {
            Some(s) if s.covers(day, jobs, self.flights.len()) => s,
            _ => {
                let defaults =
                    derive_defaults(jobs, n_threads, |key| picked.iter().any(|p| p == key));
                Arc::new(DaySample::new(day, jobs, self.flights.len(), defaults))
            }
        };

        let compile_budget = self.config.compile_budget;
        let mut observed_changes = Vec::new();
        for key in &picked {
            let Some(group_jobs) = sample.groups.get(key) else {
                report.absent += 1;
                continue;
            };
            let hint = self.store.hint(key).expect("picked hints exist");
            let status = hint.status;
            let hint_cfg = hint.config.clone();
            let mut changes = Vec::new();
            let mut dirty = false;
            let mut fatal = false;
            for (i, default) in group_jobs {
                let job = &jobs[*i];
                let steered = match compile_steered(job, default, &hint_cfg, &compile_budget) {
                    SteeredCompile::Steered(s) => s,
                    SteeredCompile::SkippedStatically => {
                        // Benign for a deployed hint; for a probation
                        // probe it means the hint still cannot serve
                        // this group — not clean.
                        if status == HintStatus::Quarantined {
                            dirty = true;
                        }
                        continue;
                    }
                    SteeredCompile::SkippedBenignly => continue,
                    SteeredCompile::Vetoed => {
                        fatal = true;
                        break;
                    }
                };
                let sm = ab.run_outcome(job, &steered.plan, 0);
                if !sm.outcome.is_success() {
                    dirty = true;
                    continue;
                }
                let dm = ab.run_outcome(job, &default.plan, 0);
                if !dm.outcome.is_success() {
                    continue;
                }
                changes.push(pct_change(dm.metrics.runtime, sm.metrics.runtime));
            }
            match status {
                HintStatus::Active => {
                    if fatal {
                        self.emit(FlightEvent::Status {
                            group: key.clone(),
                            status: HintStatus::Quarantined,
                        });
                        report.quarantined.push(key.clone());
                    } else if !changes.is_empty() {
                        self.emit(FlightEvent::Observe {
                            group: key.clone(),
                            mean_change_pct: mean(&changes),
                            n: changes.len() as u32,
                            day,
                        });
                        count(Counter::FlightObservations, 1);
                        report.observed.push(key.clone());
                        observed_changes.extend(changes);
                    }
                }
                HintStatus::Quarantined => {
                    let clean = !fatal
                        && !dirty
                        && !changes.is_empty()
                        && mean(&changes) <= REGRESSION_THRESHOLD_PCT;
                    self.emit(FlightEvent::Probe {
                        group: key.clone(),
                        clean,
                    });
                    report.probed.push(key.clone());
                    let released = self
                        .flights
                        .get(key)
                        .is_some_and(|f| f.probation_clean >= PROBATION_CLEAN_REQUIRED);
                    if clean && released {
                        self.emit(FlightEvent::Status {
                            group: key.clone(),
                            status: HintStatus::Active,
                        });
                        self.emit(FlightEvent::Stage {
                            group: key.clone(),
                            to: FlightStage::Canary,
                            day,
                        });
                        count(Counter::FlightRestorations, 1);
                        report.restored.push(key.clone());
                    }
                }
                HintStatus::Suspended => {}
            }
        }
        report.jobs_executed = observed_changes.len();
        report.mean_change_pct = mean(&observed_changes);
        report
    }

    /// Arm a simulated crash: the `n`-th journal append from now tears,
    /// later ones are lost. [`Self::crashed`] reports once it fires.
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.journal.crash = Some(plan);
    }

    /// Whether an armed crash has fired (the "process" is dead; its
    /// in-memory state is no longer backed by the journal).
    pub fn crashed(&self) -> bool {
        self.journal.crashed()
    }

    /// The journal as it would survive on stable storage.
    pub fn journal_text(&self) -> String {
        self.journal.text()
    }

    /// Serialize the full durable state: a versioned header carrying the
    /// journal sequence watermark, the hint store (lossless hint-text
    /// lines), every flight state, and a trailing whole-body checksum.
    /// Two controllers with bit-identical state produce bit-identical
    /// snapshots, which is how the recovery tests check fidelity.
    pub fn snapshot_text(&self) -> String {
        let mut lines = vec![format!("flightsnap\tv2\tseq:{}", self.journal.next_seq)];
        for l in self.store.to_hint_text().lines() {
            if !l.is_empty() {
                lines.push(format!("hint\t{l}"));
            }
        }
        for (k, f) in &self.flights {
            lines.push(format!(
                "flight\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                k,
                f.stage.render(),
                f.stage_since_day,
                f.clean_days_in_stage,
                f.strikes,
                f64_to_hex(f.cusum),
                f.probation_clean
            ));
        }
        let body = lines.join("\n");
        format!("{body}\nend\t#{:016x}", fnv64(body.as_bytes()))
    }

    /// Rebuild a controller from durable state: parse the snapshot (or
    /// start from genesis), then replay every journal event past the
    /// snapshot's sequence watermark through the same `apply` used live.
    /// Torn/corrupt journal tails are discarded, not guessed at.
    pub fn recover(
        snapshot: Option<&str>,
        journal_text: &str,
        config: FlightConfig,
    ) -> Result<(FlightController, RecoveryReport), RecoveryError> {
        let _span = scope_trace::span("flight.recover");
        let mut c = match snapshot {
            Some(s) => parse_snapshot(s, config)?,
            None => FlightController::new(config),
        };
        let snapshot_seq = c.journal.next_seq;
        let (entries, discarded) = parse_journal(journal_text);
        let mut replayed = 0usize;
        for (seq, event, line) in entries {
            c.journal.lines.push(line);
            if seq >= c.journal.next_seq {
                c.apply(&event);
                c.journal.next_seq = seq + 1;
                replayed += 1;
            }
        }
        count(Counter::FlightRecoveries, 1);
        record(Histogram::FlightReplayedEvents, replayed as u64);
        Ok((
            c,
            RecoveryReport {
                replayed_events: replayed,
                discarded_lines: discarded,
                snapshot_seq,
            },
        ))
    }
}

fn parse_snapshot(text: &str, config: FlightConfig) -> Result<FlightController, RecoveryError> {
    let Some((body, tail)) = text.rsplit_once("\nend\t#") else {
        return Err(RecoveryError::SnapshotChecksum);
    };
    let ok = u64::from_str_radix(tail.trim_end(), 16)
        .map(|sum| sum == fnv64(body.as_bytes()))
        .unwrap_or(false);
    if !ok {
        return Err(RecoveryError::SnapshotChecksum);
    }
    let mut lines = body.lines().enumerate();
    let header = lines.next().map(|(_, l)| l).unwrap_or("");
    let seq = header
        .strip_prefix("flightsnap\tv2\tseq:")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| RecoveryError::SnapshotVersion(header.to_string()))?;
    let mut hint_lines = Vec::new();
    let mut flights = BTreeMap::new();
    for (i, line) in lines {
        if let Some(h) = line.strip_prefix("hint\t") {
            hint_lines.push(h);
            continue;
        }
        let malformed = || RecoveryError::SnapshotMalformed {
            line: i + 1,
            what: line.to_string(),
        };
        let rest = line.strip_prefix("flight\t").ok_or_else(malformed)?;
        let fields: Vec<&str> = rest.split('\t').collect();
        if fields.len() != 7 {
            return Err(malformed());
        }
        let state = (|| {
            Some(FlightState {
                stage: FlightStage::parse(fields[1])?,
                stage_since_day: fields[2].parse().ok()?,
                clean_days_in_stage: fields[3].parse().ok()?,
                strikes: fields[4].parse().ok()?,
                cusum: f64_from_hex(fields[5])?,
                probation_clean: fields[6].parse().ok()?,
            })
        })()
        .ok_or_else(malformed)?;
        flights.insert(fields[0].to_string(), state);
    }
    let store =
        HintStore::from_hint_text(&hint_lines.join("\n")).map_err(RecoveryError::SnapshotHints)?;
    Ok(FlightController {
        store,
        flights,
        config,
        journal: FlightJournal {
            lines: Vec::new(),
            next_seq: seq,
            crash: None,
        },
        day_sample: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::ids::JobId;
    use scope_optimizer::{RuleCatalog, RuleSet, RuleSignature};

    /// A non-required, on-by-default rule (so disabling it sticks).
    fn optional_rule() -> scope_optimizer::RuleId {
        RuleConfig::default_config()
            .enabled()
            .difference(RuleCatalog::global().required())
            .iter()
            .next()
            .expect("catalog has optional default rules")
    }

    fn winner(bits: &str, pct: f64) -> GroupConfig {
        let mut config = RuleConfig::default_config();
        config.disable(optional_rule());
        GroupConfig {
            group: RuleSignature(RuleSet::from_bit_string(bits)),
            config,
            base_change_pct: pct,
            base_job: JobId(1),
        }
    }

    fn controller_with(bits: &str, pct: f64) -> (FlightController, String) {
        let mut c = FlightController::new(FlightConfig::default());
        assert_eq!(c.ingest(&[winner(bits, pct)], 0), 1);
        let key = RuleSet::from_bit_string(bits).to_bit_string();
        (c, key)
    }

    #[test]
    fn stage_render_parse_round_trip() {
        for stage in [
            FlightStage::Candidate,
            FlightStage::Canary,
            FlightStage::Ramping { step: 0 },
            FlightStage::Deployed,
            FlightStage::RolledBack { day: 17 },
        ] {
            assert_eq!(FlightStage::parse(&stage.render()), Some(stage));
        }
        assert_eq!(FlightStage::parse("ramping:x"), None);
        assert_eq!(FlightStage::parse("launched"), None);
        // A step past the ladder is refused, so a journal line carrying
        // one is a torn tail rather than a stage served at 100 %.
        let past = FlightStage::Ramping {
            step: RAMP_PCTS.len(),
        };
        assert_eq!(FlightStage::parse(&past.render()), None);
        assert_eq!(FlightStage::parse("ramping:7"), None);
        let stage = FlightEvent::Stage {
            group: "101".into(),
            to: past,
            day: 1,
        };
        let body = format!("0\t{}", render_event(&stage));
        let line = format!("{body}\t#{:016x}", fnv64(body.as_bytes()));
        let (entries, discarded) = parse_journal(&line);
        assert_eq!((entries.len(), discarded), (0, 1));
    }

    #[test]
    fn exposure_follows_the_stage_ladder() {
        let cfg = FlightConfig {
            canary_pct: 5,
            ..FlightConfig::default()
        };
        assert_eq!(FlightStage::Candidate.exposure_pct(&cfg), 0);
        assert_eq!(FlightStage::Canary.exposure_pct(&cfg), 5);
        assert_eq!(FlightStage::Ramping { step: 0 }.exposure_pct(&cfg), 25);
        assert_eq!(FlightStage::Deployed.exposure_pct(&cfg), 100);
        assert_eq!(FlightStage::RolledBack { day: 1 }.exposure_pct(&cfg), 0);
    }

    #[test]
    fn events_survive_the_journal_round_trip() {
        let (mut c, key) = controller_with("101", -30.0);
        c.emit(FlightEvent::Stage {
            group: key.clone(),
            to: FlightStage::Canary,
            day: 1,
        });
        c.emit(FlightEvent::Observe {
            group: key.clone(),
            mean_change_pct: -12.5,
            n: 4,
            day: 1,
        });
        c.emit(FlightEvent::Probe {
            group: key.clone(),
            clean: true,
        });
        c.emit(FlightEvent::Status {
            group: key,
            status: HintStatus::Suspended,
        });
        let (entries, discarded) = parse_journal(&c.journal_text());
        assert_eq!(discarded, 0);
        assert_eq!(entries.len(), 5); // install + the four above
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries.last().unwrap().0, 4);
        // Replay reproduces the exact event values.
        assert!(matches!(
            &entries[2].1,
            FlightEvent::Observe { mean_change_pct, n: 4, .. } if *mean_change_pct == -12.5
        ));
    }

    #[test]
    fn corrupt_journal_lines_cut_the_tail() {
        let (mut c, key) = controller_with("101", -30.0);
        for day in 1..=3 {
            c.emit(FlightEvent::Observe {
                group: key.clone(),
                mean_change_pct: -1.0,
                n: 1,
                day,
            });
        }
        let text = c.journal_text();
        // Flip one byte in the second line's payload: that line and both
        // after it are discarded, the line before survives.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replace("obs", "obz");
        let (entries, discarded) = parse_journal(&lines.join("\n"));
        assert_eq!(entries.len(), 1);
        assert_eq!(discarded, 3);
    }

    #[test]
    fn observations_drive_strikes_and_cusum() {
        let (mut c, key) = controller_with("101", -30.0);
        c.advance(0); // Candidate → Canary
        assert_eq!(c.flight(&key).unwrap().stage, FlightStage::Canary);
        // Two bad days: strikes build, no trip yet (N_STRIKES = 3).
        for day in 1..=2 {
            c.emit(FlightEvent::Observe {
                group: key.clone(),
                mean_change_pct: 12.0,
                n: 3,
                day,
            });
        }
        assert_eq!(c.flight(&key).unwrap().strikes, 2);
        assert!(c.advance(2).rollbacks.is_empty());
        // A clean day resets the strike count and counts toward promotion.
        c.emit(FlightEvent::Observe {
            group: key.clone(),
            mean_change_pct: -5.0,
            n: 3,
            day: 3,
        });
        let f = c.flight(&key).unwrap();
        assert_eq!(f.strikes, 0);
        assert_eq!(f.clean_days_in_stage, 1);
        // Sustained moderate regression trips CUSUM even without three
        // consecutive strikes ever forming.
        for day in 4..=7 {
            c.emit(FlightEvent::Observe {
                group: key.clone(),
                mean_change_pct: 20.0,
                n: 3,
                day,
            });
            if !c.advance(day).rollbacks.is_empty() {
                let f = c.flight(&key).unwrap();
                assert!(matches!(f.stage, FlightStage::RolledBack { .. }));
                assert_eq!(c.store.hint(&key).unwrap().status, HintStatus::Suspended);
                return;
            }
        }
        panic!("sustained regression never tripped the monitor");
    }

    #[test]
    fn clean_flights_climb_the_ladder() {
        let (mut c, key) = controller_with("101", -30.0);
        c.advance(0);
        let mut stages = vec![c.flight(&key).unwrap().stage];
        for day in 1..=4 {
            c.emit(FlightEvent::Observe {
                group: key.clone(),
                mean_change_pct: -10.0,
                n: 5,
                day,
            });
            c.advance(day);
            stages.push(c.flight(&key).unwrap().stage);
        }
        assert_eq!(
            stages,
            vec![
                FlightStage::Canary,
                FlightStage::Ramping { step: 0 },
                FlightStage::Deployed,
                FlightStage::Deployed,
                FlightStage::Deployed,
            ]
        );
    }

    #[test]
    fn probation_probes_accumulate_and_reset() {
        let (mut c, key) = controller_with("101", -30.0);
        c.emit(FlightEvent::Status {
            group: key.clone(),
            status: HintStatus::Quarantined,
        });
        for _ in 0..2 {
            c.emit(FlightEvent::Probe {
                group: key.clone(),
                clean: true,
            });
        }
        assert_eq!(c.flight(&key).unwrap().probation_clean, 2);
        c.emit(FlightEvent::Probe {
            group: key.clone(),
            clean: false,
        });
        assert_eq!(c.flight(&key).unwrap().probation_clean, 0);
    }

    #[test]
    fn recovery_replays_to_identical_state() {
        let (mut c, key) = controller_with("101", -30.0);
        c.advance(0);
        for day in 1..=3 {
            c.emit(FlightEvent::Observe {
                group: key.clone(),
                mean_change_pct: if day == 2 { 15.0 } else { -8.0 },
                n: 2,
                day,
            });
            c.advance(day);
        }
        let (r, report) =
            FlightController::recover(None, &c.journal_text(), FlightConfig::default())
                .expect("journal recovers");
        assert_eq!(report.discarded_lines, 0);
        assert!(report.replayed_events > 0);
        assert_eq!(r.snapshot_text(), c.snapshot_text());
        assert_eq!(r.store, c.store);
        assert_eq!(r.flights, c.flights);
    }

    #[test]
    fn snapshot_round_trips_and_detects_corruption() {
        let (mut c, key) = controller_with("110", -22.0);
        c.advance(0);
        c.emit(FlightEvent::Observe {
            group: key,
            mean_change_pct: -3.25,
            n: 7,
            day: 1,
        });
        let snap = c.snapshot_text();
        let (r, report) =
            FlightController::recover(Some(&snap), "", FlightConfig::default()).expect("snapshot");
        assert_eq!(report.replayed_events, 0);
        assert_eq!(r.snapshot_text(), snap);
        assert_eq!(r.store, c.store);
        assert_eq!(r.flights, c.flights);
        // A flipped byte fails the whole-body checksum.
        let bad = snap.replace("-3.25", "-3.26"); // no-op if not present, so also flip a real byte
        let mut bytes = bad.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bytes).unwrap();
        assert_eq!(
            FlightController::recover(Some(&bad), "", FlightConfig::default()).unwrap_err(),
            RecoveryError::SnapshotChecksum
        );
    }

    #[test]
    fn armed_crash_tears_one_write_and_recovery_truncates() {
        let make = |crash: Option<CrashPlan>| {
            let (mut c, key) = controller_with("101", -30.0);
            if let Some(plan) = crash {
                c.arm_crash(plan);
            }
            c.advance(0);
            for day in 1..=4 {
                c.emit(FlightEvent::Observe {
                    group: key.clone(),
                    mean_change_pct: -6.0,
                    n: 2,
                    day,
                });
                c.advance(day);
            }
            c
        };
        let healthy = make(None);
        let n_events = healthy.journal_text().lines().count();
        assert!(n_events > 5);
        // The install already journaled one event before the crash was
        // armed; three more appends survive, then the next is torn mid-line.
        let crashed = make(Some(CrashPlan::after_ops(3, 10)));
        assert!(crashed.crashed());
        let surviving = crashed.journal_text();
        assert_eq!(surviving.lines().count(), 5);
        let (rec, report) =
            FlightController::recover(None, &surviving, FlightConfig::default()).unwrap();
        assert_eq!(report.discarded_lines, 1);
        assert_eq!(report.replayed_events, 4);
        // Recovery equals replaying the durable prefix of the healthy run:
        // the torn write never happened, durably.
        let prefix: String = healthy
            .journal_text()
            .lines()
            .take(4)
            .collect::<Vec<_>>()
            .join("\n");
        let (ref_rec, _) =
            FlightController::recover(None, &prefix, FlightConfig::default()).unwrap();
        assert_eq!(rec.snapshot_text(), ref_rec.snapshot_text());
        assert_eq!(rec.store, ref_rec.store);
    }

    #[test]
    fn ingest_keeps_best_per_group() {
        let mut c = FlightController::new(FlightConfig::default());
        c.ingest(&[winner("101", -20.0), winner("101", -60.0)], 0);
        let key = RuleSet::from_bit_string("101").to_bit_string();
        assert_eq!(c.store.len(), 1);
        assert_eq!(c.store.hint(&key).unwrap().base_change_pct, -60.0);
        // A weaker winner later neither overwrites nor journals.
        let events = c.journal_text().lines().count();
        assert_eq!(c.ingest(&[winner("101", -10.0)], 1), 0);
        let hint = c.store.hint(&key).unwrap();
        assert_eq!((hint.base_change_pct, hint.discovered_day), (-60.0, 0));
        assert_eq!(c.journal_text().lines().count(), events);
    }

    /// A configuration that can compile no job: every `Output`
    /// implementation is disabled, so ingestion quarantines it.
    fn catalog_invalid_config() -> RuleConfig {
        let mut config = RuleConfig::default_config();
        for id in scope_lint::RuleGraph::global()
            .impls(scope_ir::OpKind::Output)
            .iter()
        {
            config.disable(id);
        }
        config
    }

    #[test]
    fn ingest_deployed_skips_quarantined_winners() {
        let broken = GroupConfig {
            group: RuleSignature(RuleSet::from_bit_string("011")),
            config: catalog_invalid_config(),
            base_change_pct: -50.0,
            base_job: JobId(9),
        };
        let mut c = FlightController::new(FlightConfig::default());
        c.ingest_deployed(&[winner("101", -30.0), broken.clone()], 0);
        let good_key = RuleSet::from_bit_string("101").to_bit_string();
        let bad_key = broken.group.to_bit_string();
        assert_eq!(c.flight(&good_key).unwrap().stage, FlightStage::Deployed);
        assert_eq!(c.flight(&bad_key).unwrap().stage, FlightStage::Candidate);
        assert_eq!(
            c.store.hint(&bad_key).unwrap().status,
            HintStatus::Quarantined
        );
    }

    /// Day-0 discovery winners on a small Workload A, the first half
    /// Deployed and the rest in Canary, with a budget that revalidates
    /// every eligible hint in each sweep.
    fn flighted_winners() -> (crate::testutil::DiscoveredWinners, FlightController) {
        let d = crate::testutil::discover_winners(5.0);
        let mut c = FlightController::new(FlightConfig {
            canary_pct: 50,
            revalidation_budget: 64,
            ..FlightConfig::default()
        });
        let (deployed, canaries) = d.winners.split_at(d.winners.len().div_ceil(2));
        c.ingest_deployed(deployed, 0);
        c.ingest(canaries, 0);
        c.advance(0);
        (d, c)
    }

    #[test]
    fn flight_days_are_identical_at_any_worker_count() {
        let (d, start) = flighted_winners();
        let policy = RetryPolicy::no_retries();
        let run = |n_threads: usize| {
            let mut c = start.clone();
            let mut days = Vec::new();
            for day in 1..=4 {
                let jobs = d.workload.day(day);
                let served = c.serve_day_on(&jobs, &d.ab, &policy, day, n_threads);
                let background = c.revalidate_background_on(&jobs, &d.ab, day, n_threads);
                days.push((served, background, c.advance(day)));
            }
            (days, c.journal_text(), c.snapshot_text())
        };
        let serial = run(1);
        assert!(serial.0.iter().any(|(served, ..)| served.steered > 0));
        assert!(serial.0.iter().any(|(_, bg, _)| !bg.observed.is_empty()));
        for n_threads in [2, 4] {
            assert_eq!(run(n_threads), serial, "{n_threads} workers");
        }
    }

    /// Revalidate one clone of `c` from its day sample and another with
    /// the sample dropped: both must report and journal the same.
    fn sampled_equals_fresh(
        c: &FlightController,
        jobs: &[Job],
        ab: &ABTester,
        day: u32,
    ) -> BackgroundReport {
        let mut sampled = c.clone();
        let mut fresh = c.clone();
        fresh.day_sample = None;
        let report = sampled.revalidate_background_on(jobs, ab, day, 2);
        assert_eq!(report, fresh.revalidate_background_on(jobs, ab, day, 2));
        assert_eq!(sampled.journal_text(), fresh.journal_text());
        report
    }

    fn sample_covers(c: &FlightController, jobs: &[Job], day: u32) -> bool {
        c.day_sample
            .as_ref()
            .is_some_and(|s| s.covers(day, jobs, c.flights.len()))
    }

    #[test]
    fn revalidation_from_the_day_sample_equals_a_fresh_derivation() {
        let (d, mut c) = flighted_winners();
        let policy = RetryPolicy::no_retries();

        // The plain day: the sweep reads what serve_day sampled, which is
        // the first `REVALIDATION_JOBS` jobs of each flighted group.
        let jobs = d.workload.day(1);
        c.serve_day_on(&jobs, &d.ab, &policy, 1, 2);
        assert!(sample_covers(&c, &jobs, 1));
        let mut first_jobs: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let default = scope_optimizer::compile_job(job, &RuleConfig::default_config());
            let Ok(default) = default else {
                continue;
            };
            let key = default.signature.to_bit_string();
            if c.flights.contains_key(&key) {
                let kept = first_jobs.entry(key).or_default();
                if kept.len() < REVALIDATION_JOBS {
                    kept.push(i);
                }
            }
        }
        let sample = c.day_sample.as_ref().expect("serve_day took a sample");
        let sampled: BTreeMap<String, Vec<usize>> = sample
            .groups
            .iter()
            .map(|(key, kept)| (key.clone(), kept.iter().map(|(i, _)| *i).collect()))
            .collect();
        assert_eq!(sampled, first_jobs);
        let plain = sampled_equals_fresh(&c, &jobs, &d.ab, 1);
        assert!(!plain.observed.is_empty());

        // A flight installed after serving: quarantined at ingestion, so
        // it is probed at once, on jobs the sample never kept.
        let jobs = d.workload.day(2);
        c.serve_day_on(&jobs, &d.ab, &policy, 2, 2);
        let group = jobs
            .iter()
            .find_map(|job| {
                let default = scope_optimizer::compile_job(job, &RuleConfig::default_config());
                let signature = default.ok()?.signature;
                (!c.flights.contains_key(&signature.to_bit_string())).then_some(signature)
            })
            .expect("a group of day 2 has no flight");
        let key = group.to_bit_string();
        c.ingest(
            &[GroupConfig {
                group,
                config: catalog_invalid_config(),
                base_change_pct: -50.0,
                base_job: JobId(0),
            }],
            2,
        );
        assert_eq!(c.store.hint(&key).unwrap().status, HintStatus::Quarantined);
        let probed = sampled_equals_fresh(&c, &jobs, &d.ab, 2);
        assert!(probed.probed.contains(&key));
        assert!(!sample_covers(&c, &jobs, 2));

        // Other jobs on the same day.
        let jobs = d.workload.day(3);
        c.serve_day_on(&jobs, &d.ab, &policy, 3, 2);
        sampled_equals_fresh(&c, &jobs[1..], &d.ab, 3);
        assert!(!sample_covers(&c, &jobs[1..], 3));

        // No serve_day on day 4: day 3's sample does not fit its jobs.
        let jobs = d.workload.day(4);
        sampled_equals_fresh(&c, &jobs, &d.ab, 4);
        assert!(!sample_covers(&c, &jobs, 4));
    }
}
