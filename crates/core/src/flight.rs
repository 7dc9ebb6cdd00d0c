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
//! [`FlightController::revalidate_background`].
//!
//! * **One record per group** — the controller's only per-group table is
//!   its [`HintStore`]; each [`StoredHint`] carries its [`FlightState`],
//!   and `StoredHint::served_pct` is the one rule for the exposure it is
//!   served at, in `serve_day` and [`crate::serve::build_entries`] alike.
//! * **State machine** — every hint's [`FlightState`] walks
//!   `Candidate → Canary(pct) → Ramping → Deployed`, with
//!   `RolledBack` as the terminal failure state. Canary exposure is
//!   [`FlightConfig::canary_pct`], the ramp's is `RAMP_PCT`; the traffic
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
//! * **Crash safety by construction** — every state change is computed
//!   once, on a copy of its group's hint, and that copy is appended to an
//!   in-memory journal with per-line checksums before it is stored. A
//!   journal line is the group's whole hint line ([`crate::deploy`]) after
//!   the change, tagged with the kind of change, so the store is the last
//!   journaled line per group. Recovery (optionally on top of a checksummed
//!   snapshot, itself a hint file) stores each line's record as written
//!   and runs none of the rollout policy, so what a journal recovers to
//!   does not depend on the constants of the binary that reads it. A torn
//!   tail (simulated with [`scope_exec::CrashPlan`]), a gap or repeat in
//!   the sequence, or a change to a group nothing installed truncates the
//!   journal to the last durable line instead of corrupting the store.
//! * **At most one default compile per job-day** — a day's default plans
//!   are compiled once, fanned out over every core ([`crate::par`]) with
//!   panic isolation, so a job whose default compile fails or panics is
//!   `skipped` rather than fatal. Only a job whose signature bound
//!   (`groups::default_signature_bound`, a normalization, no compile)
//!   admits a wanted group's key is compiled: any other job's default
//!   cannot key a wanted group, so skipping it changes nothing the day
//!   decides. `serve_day` keeps the first
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
use scope_optimizer::{CompileBudget, CompiledPlan, RuleSet, RuleSignature};
use scope_trace::{count, record, Counter, Histogram};

use crate::deploy::{
    hint_line, parse_hint_line, HintParseError, HintStatus, HintStore, StoredHint,
};
use crate::groups::{default_plan, default_signature_bound, GroupConfig};
use crate::guard::{compile_steered, SteeredCompile};
use crate::par::{available_threads, run_chunked_on};

/// Where a flight is in its rollout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightStage {
    /// Ingested, not yet serving.
    Candidate,
    /// Serving [`FlightConfig::canary_pct`] of matching traffic.
    Canary,
    /// Serving `RAMP_PCT` of matching traffic.
    Ramping,
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
            FlightStage::Ramping => RAMP_PCT,
            FlightStage::Deployed => 100,
        }
    }

    /// The stage a clean promotion leads to.
    fn next(self) -> FlightStage {
        match self {
            FlightStage::Candidate => FlightStage::Canary,
            FlightStage::Canary => FlightStage::Ramping,
            FlightStage::Ramping => FlightStage::Deployed,
            other => other,
        }
    }

    pub(crate) fn render(self) -> String {
        match self {
            FlightStage::Candidate => "candidate".into(),
            FlightStage::Canary => "canary".into(),
            // Journals and snapshots name the one rung by its index.
            FlightStage::Ramping => "ramping:0".into(),
            FlightStage::Deployed => "deployed".into(),
            FlightStage::RolledBack { day } => format!("rolledback:{day}"),
        }
    }

    pub(crate) fn parse(s: &str) -> Option<FlightStage> {
        match s {
            "candidate" => Some(FlightStage::Candidate),
            "canary" => Some(FlightStage::Canary),
            // Any other step is no stage this controller can be in: a
            // line carrying one is refused rather than served.
            "ramping:0" => Some(FlightStage::Ramping),
            "deployed" => Some(FlightStage::Deployed),
            _ => Some(FlightStage::RolledBack {
                day: s.strip_prefix("rolledback:")?.parse().ok()?,
            }),
        }
    }
}

/// Exposure of the one rung between canary and deployed.
pub(crate) const RAMP_PCT: u8 = 25;
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
    /// The traffic-split salt, a function of the group key alone: computed
    /// once when the flight is created or recovered, never written out.
    pub(crate) salt: u64,
}

impl FlightState {
    /// A flight entering `stage` on `day`, its monitors reset.
    pub(crate) fn new(stage: FlightStage, day: u32, salt: u64) -> FlightState {
        FlightState {
            stage,
            stage_since_day: day,
            clean_days_in_stage: 0,
            strikes: 0,
            cusum: 0.0,
            probation_clean: 0,
            salt,
        }
    }
}

/// What a journal line records. The line carries it as an audit tag only:
/// recovery reads the hint after it, and asks of the tag just whether the
/// line installs its group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlightEvent {
    /// A discovery winner entered the store (as `Candidate`).
    Install,
    /// A flight moved to a new stage.
    Stage,
    /// A hint's lifecycle status changed.
    Status,
    /// One day's mean runtime change fed the monitors.
    Observe,
    /// One background probation probe of a quarantined hint.
    Probe,
}

impl FlightEvent {
    const ALL: [FlightEvent; 5] = [
        FlightEvent::Install,
        FlightEvent::Stage,
        FlightEvent::Status,
        FlightEvent::Observe,
        FlightEvent::Probe,
    ];

    fn name(self) -> &'static str {
        match self {
            FlightEvent::Install => "install",
            FlightEvent::Stage => "stage",
            FlightEvent::Status => "status",
            FlightEvent::Observe => "obs",
            FlightEvent::Probe => "probe",
        }
    }
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

/// Append-only journal with per-line checksums. A line is
/// `"<seq>\t<event>\t<hint line>\t#<fnv64-hex>"`: the group's whole record
/// after the event, and a checksum over everything before the `\t#`. An
/// armed [`CrashPlan`] makes appends fail the way a real crash does: one
/// torn (prefix-only) write, then nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlightJournal {
    lines: Vec<String>,
    next_seq: u64,
    crash: Option<CrashPlan>,
}

impl FlightJournal {
    fn append(&mut self, event: FlightEvent, hint: &StoredHint) {
        let body = format!("{}\t{}\t{}", self.next_seq, event.name(), hint_line(hint));
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

/// One journal line as the writer wrote it: its sequence number, event and
/// record. `None` on any malformation (a bad checksum, or a number, hint or
/// checksum the writer would not have written), which recovery treats as a
/// torn tail, not a guess.
fn parse_journal_line(line: &str) -> Option<(u64, FlightEvent, StoredHint)> {
    let (body, sum) = line.rsplit_once("\t#")?;
    if sum != format!("{:016x}", fnv64(body.as_bytes())) {
        return None;
    }
    let (seq, rest) = body.split_once('\t')?;
    let (event, hint) = rest.split_once('\t')?;
    let n: u64 = seq.parse().ok().filter(|n: &u64| n.to_string() == seq)?;
    let event = FlightEvent::ALL.into_iter().find(|e| e.name() == event)?;
    Some((n, event, parse_hint_line(hint).ok()?))
}

/// What a recovery replayed and what it had to discard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journaled records inserted on top of the starting state.
    pub replayed_events: usize,
    /// Trailing journal lines dropped, from the first one recovery refused.
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
    /// The snapshot's hint lines failed to parse; the error's line number
    /// counts the header as line 1.
    SnapshotHints(HintParseError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::SnapshotVersion(h) => write!(f, "bad snapshot header: `{h}`"),
            RecoveryError::SnapshotChecksum => write!(f, "snapshot checksum mismatch"),
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
    /// Jobs whose group has no stored hint (served default; not simulated).
    pub unmatched: usize,
    /// Jobs whose default compile failed or panicked. Only a job that
    /// could key a stored hint is compiled: any other job counts as
    /// `unmatched`, even if its default would have failed.
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
    /// The default's group is not one the caller wants: its signature
    /// bound ruled every wanted key out, or it compiled to another group.
    Unflighted,
    /// The default compiled to a wanted group: its key and the plan,
    /// boxed so that every entry, mostly the other two, is 32 bytes.
    Flighted(String, Box<CompiledPlan>),
}

/// The [`default_plan`] of every job whose group could be one of the
/// `wanted` keys, compiled on `n_threads` workers, one value per job in
/// job order. A job whose [`default_signature_bound`] admits no wanted
/// key is `Unflighted` without a compile; a plan is kept only when its
/// group is wanted.
fn derive_defaults<'a>(
    jobs: &[Job],
    n_threads: usize,
    wanted: impl IntoIterator<Item = &'a str>,
) -> Vec<DayDefault> {
    // Only a key in the form a signature renders to can be a group.
    let wanted: Vec<RuleSignature> = wanted
        .into_iter()
        .filter_map(|key| {
            let signature = RuleSignature(RuleSet::from_bit_string(key));
            (signature.0.to_bit_string() == key).then_some(signature)
        })
        .collect();
    let derived = run_chunked_on(
        jobs,
        n_threads,
        |job| {
            let keyable = default_signature_bound(job)
                .is_none_or(|bound| wanted.iter().any(|key| bound.admits(key)));
            if !keyable {
                return Some(DayDefault::Unflighted);
            }
            Some(match default_plan(job) {
                Err(_) => DayDefault::Failed,
                Ok(plan) if wanted.contains(&plan.signature) => {
                    DayDefault::Flighted(plan.signature.0.to_bit_string(), Box::new(plan))
                }
                Ok(_) => DayDefault::Unflighted,
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
/// samples. Derived state, never journaled; an install drops it, since a
/// group flighted since was not sampled.
#[derive(Debug)]
struct DaySample {
    day: u32,
    job_ids: Vec<u64>,
    /// Per group key: (index into the day's jobs, default plan), in job
    /// order.
    groups: BTreeMap<String, Vec<(usize, Box<CompiledPlan>)>>,
}

impl DaySample {
    /// Keep the first [`REVALIDATION_JOBS`] jobs of each group in
    /// `defaults`, [`derive_defaults`]' result over `jobs`.
    fn new(day: u32, jobs: &[Job], defaults: Vec<DayDefault>) -> DaySample {
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
            groups,
        }
    }

    /// Whether a sweep over `jobs` on `day` may sample from this.
    fn covers(&self, day: u32, jobs: &[Job]) -> bool {
        self.day == day && self.job_ids.iter().copied().eq(jobs.iter().map(|j| j.id.0))
    }
}

/// The flighting state machine over a [`HintStore`].
#[derive(Clone, Debug)]
pub struct FlightController {
    /// Every group's hint and flight. Read freely; direct mutation bypasses
    /// the journal and forfeits crash recovery (offline experiments only).
    pub store: HintStore,
    pub config: FlightConfig,
    journal: FlightJournal,
    /// The sample the last `serve_day` took, until a sweep consumes it or
    /// an install drops it.
    day_sample: Option<Arc<DaySample>>,
}

impl FlightController {
    pub fn new(config: FlightConfig) -> FlightController {
        FlightController {
            store: HintStore::new(),
            config,
            journal: FlightJournal::default(),
            day_sample: None,
        }
    }

    /// The one place state changes: `hint`, its group's whole record after
    /// `event`, is journaled and then stored. Recovery stores the journaled
    /// record as written, which is what makes recovered state bit-identical
    /// to live state.
    fn emit(&mut self, event: FlightEvent, hint: StoredHint) {
        self.journal.append(event, &hint);
        if event == FlightEvent::Install {
            self.day_sample = None;
        }
        self.store.insert_hint(hint);
    }

    /// Emit `event` as `change` applied to a copy of `group`'s hint. A group
    /// without a hint has nothing to change.
    fn transition(
        &mut self,
        event: FlightEvent,
        group: &str,
        change: impl FnOnce(&mut StoredHint),
    ) {
        if let Some(mut hint) = self.store.hint(group).cloned() {
            change(&mut hint);
            self.emit(event, hint);
        }
    }

    /// Move a group's flight to `to` on `day`, its monitors reset.
    fn set_stage(&mut self, group: &str, to: FlightStage, day: u32) {
        self.transition(FlightEvent::Stage, group, |h| {
            h.flight = FlightState::new(to, day, h.flight.salt);
        });
    }

    fn set_status(&mut self, group: &str, status: HintStatus) {
        self.transition(FlightEvent::Status, group, |h| h.status = status);
    }

    /// Feed one day's runtime changes of a group to its monitors: a mean
    /// above `STRIKE_THRESHOLD_PCT` is a strike, any other a clean day, and
    /// the CUSUM accumulates the mean above `CUSUM_DRIFT_PCT`.
    fn observe(&mut self, group: &str, changes: &[f64]) {
        let change = mean(changes);
        self.transition(FlightEvent::Observe, group, |h| {
            let f = &mut h.flight;
            if change > STRIKE_THRESHOLD_PCT {
                f.strikes += 1;
            } else {
                f.strikes = 0;
                f.clean_days_in_stage += 1;
            }
            f.cusum = (f.cusum + change - CUSUM_DRIFT_PCT).max(0.0);
        });
        count(Counter::FlightObservations, 1);
    }

    /// Count one probation probe: a clean one toward release, a dirty one
    /// back to zero.
    fn probe(&mut self, group: &str, clean: bool) {
        self.transition(FlightEvent::Probe, group, |h| {
            let f = &mut h.flight;
            f.probation_clean = if clean { f.probation_clean + 1 } else { 0 };
        });
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
            let hint = StoredHint::new(key, w.config.clone(), w.base_change_pct, day, status);
            self.emit(FlightEvent::Install, hint);
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
            .store
            .hints()
            .filter(|h| h.flight.stage == FlightStage::Candidate && h.status == HintStatus::Active)
            .map(|h| h.group.clone())
            .collect();
        for group in candidates {
            self.set_stage(&group, FlightStage::Deployed, day);
        }
        n
    }

    /// Serve one day of traffic through the flight layer.
    ///
    /// For each job whose default-plan signature has a stored hint: the
    /// hint's exposure (`StoredHint::served_pct`, 0 unless it is active)
    /// and the hash split decide steered vs held back; steered jobs run
    /// through the full guardrail (`guard::compile_steered`; a veto
    /// quarantines the hint on the spot) and fall back to the default
    /// plan if the steered run dies. While a flight is in a measured stage
    /// (Canary/Ramping) every steered run is paired with a shadow baseline
    /// run; Deployed flights skip the shadow (that cost moves to
    /// [`Self::revalidate_background`]). A fallback is its own pair at
    /// every stage — wasted attempt plus re-run against the re-run alone.
    /// The day's mean change over a group's pairs feeds the monitors.
    /// Held-back and unmatched jobs are counted but not simulated — they
    /// run the default plan by definition.
    ///
    /// The default plan of every job that could key a stored hint is
    /// compiled first, on every core; a job whose default fails or panics
    /// is `skipped`. A job whose signature bound admits no stored key
    /// cannot match one, so it is `unmatched` without a compile. The
    /// first `REVALIDATION_JOBS` jobs of each flighted group are kept for
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
        let stored = self.store.hints().map(|h| h.group.as_str());
        let defaults = derive_defaults(jobs, n_threads, stored);
        let compile_budget = self.config.compile_budget;
        for (job, derived) in jobs.iter().zip(&defaults) {
            report.jobs += 1;
            let flighted = match derived {
                DayDefault::Failed => {
                    report.skipped += 1;
                    continue;
                }
                DayDefault::Unflighted => None,
                DayDefault::Flighted(key, default) => {
                    self.store.hint(key).map(|hint| (key, default, hint))
                }
            };
            let Some((key, default, hint)) = flighted else {
                report.unmatched += 1;
                continue;
            };
            let exposure = hint.served_pct(&self.config);
            let stage = hint.flight.stage;
            let stats = report.by_group.entry(key.clone()).or_default();
            stats.matching += 1;
            if exposure == 0 || !scope_exec::in_rollout(job.id.0, hint.flight.salt, exposure) {
                stats.held_back += 1;
                report.held_back += 1;
                count(Counter::FlightHeldBack, 1);
                continue;
            }
            let steered = match compile_steered(job, default, &hint.config, &compile_budget) {
                SteeredCompile::Steered(s) => s,
                SteeredCompile::SkippedStatically | SteeredCompile::SkippedBenignly => {
                    report.static_skips += 1;
                    continue;
                }
                SteeredCompile::Vetoed => {
                    self.set_status(key, HintStatus::Quarantined);
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
        let sample = DaySample::new(day, jobs, defaults);
        self.day_sample = Some(Arc::new(sample));
        for (group, changes) in day_changes {
            let stats = report.by_group.entry(group.clone()).or_default();
            stats.observed = changes.len();
            stats.mean_change_pct = mean(&changes);
            self.observe(&group, &changes);
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
        // Each decision reads only its own group's record, so deciding all
        // of them first journals what deciding one at a time would.
        let decided: Vec<(String, u32, FlightStage)> = self
            .store
            .hints()
            .filter(|h| h.status == HintStatus::Active)
            .filter_map(|h| {
                let f = &h.flight;
                let tripped = f.strikes >= N_STRIKES || f.cusum > CUSUM_THRESHOLD;
                let to = match f.stage {
                    FlightStage::Candidate => FlightStage::Canary,
                    FlightStage::RolledBack { .. } => return None,
                    _ if tripped => FlightStage::RolledBack { day },
                    FlightStage::Deployed => return None,
                    stage => {
                        let aged = day.saturating_sub(f.stage_since_day) >= MIN_DAYS_PER_STAGE;
                        if !aged || f.clean_days_in_stage < MIN_CLEAN_DAYS_PER_STAGE {
                            return None;
                        }
                        stage.next()
                    }
                };
                Some((h.group.clone(), f.stage_since_day, to))
            })
            .collect();
        for (group, since, to) in decided {
            self.set_stage(&group, to, day);
            if matches!(to, FlightStage::RolledBack { .. }) {
                record(
                    Histogram::FlightDaysToRollback,
                    u64::from(day.saturating_sub(since)),
                );
                count(Counter::FlightRollbacks, 1);
                self.set_status(&group, HintStatus::Suspended);
                report.rollbacks.push(group);
            } else {
                count(Counter::FlightPromotions, 1);
                report.promotions.push((group, to));
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
    /// same jobs; without one that still fits, the defaults of the jobs
    /// that could key a picked hint are compiled afresh, on every core.
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
        let eligible: Vec<&StoredHint> = self
            .store
            .hints()
            .filter(|h| match h.status {
                HintStatus::Active => h.flight.stage == FlightStage::Deployed,
                status => status == HintStatus::Quarantined,
            })
            .collect();
        if eligible.is_empty() {
            return report;
        }
        let budget = self.config.revalidation_budget.max(1);
        let start = (day as usize).wrapping_mul(budget) % eligible.len();
        let picked: Vec<StoredHint> = (0..budget.min(eligible.len()))
            .map(|i| eligible[(start + i) % eligible.len()].clone())
            .collect();

        // The first `REVALIDATION_JOBS` of today's jobs in each picked
        // group, with their default plans for the guardrail below.
        let sample = match day_sample {
            Some(s) if s.covers(day, jobs) => s,
            _ => {
                let picked_keys = picked.iter().map(|p| p.group.as_str());
                let defaults = derive_defaults(jobs, n_threads, picked_keys);
                Arc::new(DaySample::new(day, jobs, defaults))
            }
        };

        let compile_budget = self.config.compile_budget;
        let mut observed_changes = Vec::new();
        for hint in &picked {
            let (key, status, hint_cfg) = (&hint.group, hint.status, &hint.config);
            let Some(group_jobs) = sample.groups.get(key) else {
                report.absent += 1;
                continue;
            };
            let mut changes = Vec::new();
            let mut dirty = false;
            let mut fatal = false;
            for (i, default) in group_jobs {
                let job = &jobs[*i];
                let steered = match compile_steered(job, default, hint_cfg, &compile_budget) {
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
                        self.set_status(key, HintStatus::Quarantined);
                        report.quarantined.push(key.clone());
                    } else if !changes.is_empty() {
                        self.observe(key, &changes);
                        report.observed.push(key.clone());
                        observed_changes.extend(changes);
                    }
                }
                HintStatus::Quarantined => {
                    let clean = !fatal
                        && !dirty
                        && !changes.is_empty()
                        && mean(&changes) <= REGRESSION_THRESHOLD_PCT;
                    self.probe(key, clean);
                    report.probed.push(key.clone());
                    let released = self
                        .store
                        .hint(key)
                        .is_some_and(|h| h.flight.probation_clean >= PROBATION_CLEAN_REQUIRED);
                    if clean && released {
                        self.set_status(key, HintStatus::Active);
                        self.set_stage(key, FlightStage::Canary, day);
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
    /// journal sequence watermark, the hint file (one line per group, its
    /// rollout included), and a trailing whole-body checksum. Two
    /// controllers with bit-identical state produce bit-identical
    /// snapshots, which is how the recovery tests check fidelity.
    pub fn snapshot_text(&self) -> String {
        let body = format!(
            "{SNAPSHOT_HEADER}{}\n{}",
            self.journal.next_seq,
            self.store.to_hint_text()
        );
        format!("{body}\nend\t#{:016x}", fnv64(body.as_bytes()))
    }

    /// Rebuild a controller from durable state: parse the snapshot (or
    /// start from genesis), then store the record of every journal line
    /// past the snapshot's sequence watermark as written; no rollout policy
    /// runs. The journal is cut at its first line that is torn or corrupt,
    /// that does not follow the line before it by one (the first line at
    /// or past the watermark must be the watermark), or that changes a
    /// group neither the snapshot nor the journal installed: anything after
    /// it is discarded, not guessed at.
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
        let lines: Vec<&str> = journal_text.lines().filter(|l| !l.is_empty()).collect();
        let mut prev: Option<u64> = None;
        let mut replayed = 0usize;
        for line in &lines {
            let Some((seq, event, hint)) = parse_journal_line(line) else {
                break;
            };
            // Lines count up by one, and the first at or past the
            // watermark is the watermark.
            if prev.map_or(seq > snapshot_seq, |p| seq != p + 1) {
                break;
            }
            if seq >= snapshot_seq {
                // Only an install may name a group nothing installed.
                if event != FlightEvent::Install && c.store.hint(&hint.group).is_none() {
                    break;
                }
                c.store.insert_hint(hint);
                c.journal.next_seq = seq + 1;
                replayed += 1;
            }
            prev = Some(seq);
            c.journal.lines.push((*line).to_string());
        }
        count(Counter::FlightRecoveries, 1);
        record(Histogram::FlightReplayedEvents, replayed as u64);
        let report = RecoveryReport {
            replayed_events: replayed,
            discarded_lines: lines.len() - c.journal.lines.len(),
            snapshot_seq,
        };
        Ok((c, report))
    }
}

/// A snapshot's first line, up to its sequence watermark.
const SNAPSHOT_HEADER: &str = "flightsnap\tv3\tseq:";

fn parse_snapshot(text: &str, config: FlightConfig) -> Result<FlightController, RecoveryError> {
    let (body, sum) = text
        .rsplit_once("\nend\t#")
        .ok_or(RecoveryError::SnapshotChecksum)?;
    if u64::from_str_radix(sum.trim_end(), 16) != Ok(fnv64(body.as_bytes())) {
        return Err(RecoveryError::SnapshotChecksum);
    }
    let (header, hints) = body.split_once('\n').unwrap_or((body, ""));
    let seq = header
        .strip_prefix(SNAPSHOT_HEADER)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| RecoveryError::SnapshotVersion(header.to_string()))?;
    let store = HintStore::from_hint_text(hints).map_err(|e| {
        RecoveryError::SnapshotHints(HintParseError {
            line: e.line + 1,
            ..e
        })
    })?;
    let mut c = FlightController::new(config);
    c.store = store;
    c.journal.next_seq = seq;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::optional_rule;
    use scope_ir::ids::JobId;
    use scope_optimizer::RuleConfig;

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

    /// The flight of a group the controller holds.
    fn flight<'a>(c: &'a FlightController, key: &str) -> &'a FlightState {
        &c.store.hint(key).expect("the group has a hint").flight
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
            FlightStage::Ramping,
            FlightStage::Deployed,
            FlightStage::RolledBack { day: 17 },
        ] {
            assert_eq!(FlightStage::parse(&stage.render()), Some(stage));
        }
        assert_eq!(FlightStage::Ramping.render(), "ramping:0");
        assert_eq!(FlightStage::parse("launched"), None);
        // Every other step is refused, so a journal line carrying one is a
        // torn tail rather than a stage served at 100 %.
        for step in ["1", "7", "00", "x", ""] {
            assert_eq!(FlightStage::parse(&format!("ramping:{step}")), None);
        }
        let (mut c, key) = controller_with("101", -30.0);
        c.set_stage(&key, FlightStage::Ramping, 1);
        let ramp = |step: &str| recover_edited(&c, 1, |b| b.replace("ramping:0", step));
        assert_eq!(ramp("ramping:0").1.discarded_lines, 0);
        assert_eq!(ramp("ramping:1").1.discarded_lines, 1);
    }

    #[test]
    fn exposure_follows_the_stage_ladder() {
        let cfg = FlightConfig {
            canary_pct: 5,
            ..FlightConfig::default()
        };
        assert_eq!(FlightStage::Candidate.exposure_pct(&cfg), 0);
        assert_eq!(FlightStage::Canary.exposure_pct(&cfg), 5);
        assert_eq!(FlightStage::Ramping.exposure_pct(&cfg), 25);
        assert_eq!(FlightStage::Deployed.exposure_pct(&cfg), 100);
        assert_eq!(FlightStage::RolledBack { day: 1 }.exposure_pct(&cfg), 0);
    }

    /// `line` with its body rewritten by `edit` and checksummed again.
    fn forge(line: &str, edit: impl FnOnce(&str) -> String) -> String {
        let body = edit(line.rsplit_once("\t#").expect("a checksummed line").0);
        format!("{body}\t#{:016x}", fnv64(body.as_bytes()))
    }

    /// Recover `c`'s journal with line `i` forged by `edit`.
    fn recover_edited(
        c: &FlightController,
        i: usize,
        edit: impl FnOnce(&str) -> String,
    ) -> (FlightController, RecoveryReport) {
        let mut lines: Vec<String> = c.journal_text().lines().map(String::from).collect();
        lines[i] = forge(&lines[i], edit);
        FlightController::recover(None, &lines.join("\n"), c.config.clone()).unwrap()
    }

    #[test]
    fn events_survive_the_journal_round_trip() {
        let (mut c, key) = controller_with("101", -30.0);
        let mut records = vec![c.store.hint(&key).unwrap().clone()];
        let steps: [fn(&mut FlightController, &str); 4] = [
            |c, key| c.set_stage(key, FlightStage::Canary, 1),
            |c, key| c.observe(key, &[-12.5; 4]),
            |c, key| c.probe(key, true),
            |c, key| c.set_status(key, HintStatus::Suspended),
        ];
        for step in steps {
            step(&mut c, &key);
            records.push(c.store.hint(&key).unwrap().clone());
        }
        // Each line reads back as its sequence number, its event and the
        // group's record right after it.
        let lines: Vec<_> = c.journal_text().lines().map(parse_journal_line).collect();
        let events = [
            FlightEvent::Install,
            FlightEvent::Stage,
            FlightEvent::Observe,
            FlightEvent::Probe,
            FlightEvent::Status,
        ];
        let expected: Vec<_> = (0..)
            .zip(events)
            .zip(records)
            .map(|((seq, event), hint)| Some((seq, event, hint)))
            .collect();
        assert_eq!(lines, expected);
        let f = flight(&c, &key);
        assert_eq!((f.clean_days_in_stage, f.probation_clean), (1, 1));
    }

    #[test]
    fn an_event_for_a_group_no_hint_file_holds_is_a_torn_tail() {
        let (c, key) = controller_with("101", -30.0);
        // A non-binary key, and a binary one a bit short of a signature.
        for group in ["1x1", &key[1..]] {
            let config = RuleConfig::default_config();
            let hint = StoredHint::new(group.into(), config, -10.0, 1, HintStatus::Active);
            let body = format!("1\tinstall\t{}", hint_line(&hint));
            let journal = format!(
                "{}\n{body}\t#{:016x}",
                c.journal_text(),
                fnv64(body.as_bytes())
            );
            let (r, report) = FlightController::recover(None, &journal, c.config.clone()).unwrap();
            assert_eq!((report.replayed_events, report.discarded_lines), (1, 1));
            assert_eq!(r.snapshot_text(), c.snapshot_text());
        }
    }

    #[test]
    fn corrupt_journal_lines_cut_the_tail() {
        let (mut c, key) = controller_with("101", -30.0);
        for _ in 1..=3 {
            c.observe(&key, &[-1.0]);
        }
        let text = c.journal_text();
        // Flip one byte in the second line's payload: that line and both
        // after it are discarded, the line before survives.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replace("\tobs\t", "\tobz\t");
        let (r, report) =
            FlightController::recover(None, &lines.join("\n"), c.config.clone()).unwrap();
        assert_eq!((report.replayed_events, report.discarded_lines), (1, 3));
        assert_eq!(r.journal_text(), lines[0]);
    }

    /// A journal line is refused unless the writer would have written it
    /// byte for byte: each forgery below cuts the journal at the `obs`
    /// line, leaving what the first two lines recover to.
    #[test]
    fn a_journal_line_the_writer_would_not_write_is_a_torn_tail() {
        let (mut c, key) = controller_with("101", -30.0);
        c.set_stage(&key, FlightStage::Canary, 1);
        c.observe(&key, &[20.0]);
        c.set_status(&key, HintStatus::Suspended);
        let journal = c.journal_text();
        let lines: Vec<&str> = journal.lines().collect();
        let recover = |text: &str| FlightController::recover(None, text, c.config.clone()).unwrap();
        let (prefix, _) = recover(&lines[..2].join("\n"));
        let cusum = format!("{:016x}", 15f64.to_bits());
        assert!(lines[2].contains(&format!("\tcusum:{cusum}\t")));
        let other = RuleSet::from_bit_string("011").to_bit_string();
        // (forgery, what the `obs` line holds, what it is replaced by)
        let forgeries = [
            ("a padded number", "\tsince:1\t", "\tsince:01\t".to_string()),
            ("a signed number", "\tstrikes:1\t", "\tstrikes:+1\t".into()),
            ("upper-case hex", &cusum, cusum.to_uppercase()),
            ("a padded sequence number", "2\tobs", "02\tobs".into()),
            ("a signed sequence number", "2\tobs", "+2\tobs".into()),
            ("an unknown event", "\tobs\t", "\tobserve\t".into()),
            ("another group", &key, other),
            ("a gap", "2\tobs", "3\tobs".into()),
            ("a repeat", "2\tobs", "1\tobs".into()),
        ];
        for (what, from, to) in forgeries {
            let (r, report) = recover_edited(&c, 2, |b| b.replacen(from, &to, 1));
            assert_eq!(
                (report.replayed_events, report.discarded_lines),
                (2, 2),
                "{what}"
            );
            assert_eq!(r.store, prefix.store, "{what}");
        }
        // Upper-case checksum digits are refused too.
        let (body, sum) = lines[2].rsplit_once("\t#").unwrap();
        assert_ne!(sum, sum.to_uppercase(), "the checksum has a letter");
        let upper = format!("{body}\t#{}", sum.to_uppercase());
        let (_, report) = recover(&[lines[0], lines[1], &upper, lines[3]].join("\n"));
        assert_eq!(report.discarded_lines, 2);
    }

    #[test]
    fn observations_drive_strikes_and_cusum() {
        let (mut c, key) = controller_with("101", -30.0);
        c.advance(0); // Candidate → Canary
        assert_eq!(flight(&c, &key).stage, FlightStage::Canary);
        // Two bad days: strikes build, no trip yet (N_STRIKES = 3).
        for _ in 1..=2 {
            c.observe(&key, &[12.0; 3]);
        }
        assert_eq!(flight(&c, &key).strikes, 2);
        assert!(c.advance(2).rollbacks.is_empty());
        // A clean day resets the strike count and counts toward promotion.
        c.observe(&key, &[-5.0; 3]);
        let f = flight(&c, &key);
        assert_eq!(f.strikes, 0);
        assert_eq!(f.clean_days_in_stage, 1);
        // Sustained moderate regression trips CUSUM even without three
        // consecutive strikes ever forming.
        for day in 4..=7 {
            c.observe(&key, &[20.0; 3]);
            if !c.advance(day).rollbacks.is_empty() {
                let f = flight(&c, &key);
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
        let mut stages = vec![flight(&c, &key).stage];
        for day in 1..=4 {
            c.observe(&key, &[-10.0; 5]);
            c.advance(day);
            stages.push(flight(&c, &key).stage);
        }
        assert_eq!(
            stages,
            vec![
                FlightStage::Canary,
                FlightStage::Ramping,
                FlightStage::Deployed,
                FlightStage::Deployed,
                FlightStage::Deployed,
            ]
        );
    }

    #[test]
    fn probation_probes_accumulate_and_reset() {
        let (mut c, key) = controller_with("101", -30.0);
        c.set_status(&key, HintStatus::Quarantined);
        for _ in 0..2 {
            c.probe(&key, true);
        }
        assert_eq!(flight(&c, &key).probation_clean, 2);
        c.probe(&key, false);
        assert_eq!(flight(&c, &key).probation_clean, 0);
    }

    #[test]
    fn recovery_replays_to_identical_state() {
        let (mut c, key) = controller_with("101", -30.0);
        c.advance(0);
        for day in 1..=3 {
            c.observe(&key, &[if day == 2 { 15.0 } else { -8.0 }; 2]);
            c.advance(day);
        }
        let (r, report) =
            FlightController::recover(None, &c.journal_text(), FlightConfig::default())
                .expect("journal recovers");
        assert_eq!(report.discarded_lines, 0);
        assert!(report.replayed_events > 0);
        assert_eq!(r.snapshot_text(), c.snapshot_text());
        assert_eq!(r.store, c.store);
    }

    #[test]
    fn snapshot_round_trips_and_detects_corruption() {
        let (mut c, key) = controller_with("110", -22.0);
        c.advance(0);
        c.observe(&key, &[-3.25; 7]);
        let snap = c.snapshot_text();
        let (r, report) =
            FlightController::recover(Some(&snap), "", FlightConfig::default()).expect("snapshot");
        assert_eq!(report.replayed_events, 0);
        assert_eq!(r.snapshot_text(), snap);
        assert_eq!(r.store, c.store);
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
        // A correctly checksummed body that repeats a group is refused at
        // the repeat's line of the snapshot, the header being line 1.
        let body = snap.rsplit_once("\nend\t#").unwrap().0;
        let resum = |body: &str| format!("{body}\nend\t#{:016x}", fnv64(body.as_bytes()));
        let hint = body.lines().nth(1).unwrap();
        let repeated = resum(&format!("{body}\n{hint}"));
        assert_eq!(
            FlightController::recover(Some(&repeated), "", FlightConfig::default()).unwrap_err(),
            RecoveryError::SnapshotHints(HintParseError {
                line: 3,
                kind: crate::deploy::HintParseErrorKind::DuplicateGroup(key.clone()),
            })
        );
        // So is a header of another version: the v2 snapshot wrote each
        // group's flight on a line of its own.
        let v2 = resum(&body.replacen("\tv3\t", "\tv2\t", 1));
        assert!(matches!(
            FlightController::recover(Some(&v2), "", FlightConfig::default()),
            Err(RecoveryError::SnapshotVersion(h)) if h.starts_with("flightsnap\tv2\t")
        ));
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
                c.observe(&key, &[-6.0; 2]);
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
        assert_eq!(flight(&c, &good_key).stage, FlightStage::Deployed);
        assert_eq!(flight(&c, &bad_key).stage, FlightStage::Candidate);
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
        c.day_sample.as_ref().is_some_and(|s| s.covers(day, jobs))
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
            if c.store.hint(&key).is_some() {
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
                c.store
                    .hint(&signature.to_bit_string())
                    .is_none()
                    .then_some(signature)
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

    /// The signature bound is exact: it admits the signature of every
    /// default that compiles, so the defaults `derive_defaults` keeps are
    /// the ones compiling every job keeps, whichever groups are wanted.
    #[test]
    fn derived_defaults_equal_compiling_every_job() {
        use rand::{Rng, SeedableRng};
        use scope_workload::{Workload, WorkloadProfile};
        use std::collections::BTreeSet;

        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for profile in [
            WorkloadProfile::workload_a(0.1),
            WorkloadProfile::workload_b(0.5),
            WorkloadProfile::workload_c(0.2),
        ] {
            let jobs = Workload::generate(profile).day(0);
            let reference: Vec<Option<CompiledPlan>> =
                jobs.iter().map(|job| default_plan(job).ok()).collect();
            for (job, default) in jobs.iter().zip(&reference) {
                if let Some(default) = default {
                    let bound = default_signature_bound(job).expect("a compiling job normalizes");
                    assert!(bound.admits(&default.signature), "job {}", job.id.0);
                }
            }
            let groups: BTreeSet<String> = reference
                .iter()
                .flatten()
                .map(|d| d.signature.0.to_bit_string())
                .collect();
            let every: Vec<&str> = groups.iter().map(String::as_str).collect();
            let third: Vec<&str> = every
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(1.0 / 3.0))
                .collect();
            assert!(!third.is_empty() && third.len() < every.len());
            for wanted in [every.clone(), third.clone(), Vec::new()] {
                let kept: Vec<Option<(String, u64)>> = derive_defaults(&jobs, 2, wanted.clone())
                    .iter()
                    .map(|derived| match derived {
                        DayDefault::Flighted(key, plan) => Some((key.clone(), plan.fingerprint())),
                        _ => None,
                    })
                    .collect();
                let expected: Vec<Option<(String, u64)>> = reference
                    .iter()
                    .map(|default| {
                        let default = default.as_ref()?;
                        let key = default.signature.0.to_bit_string();
                        wanted
                            .contains(&key.as_str())
                            .then(|| (key, default.fingerprint()))
                    })
                    .collect();
                assert_eq!(kept, expected, "{} groups wanted", wanted.len());
            }
            // Not vacuous: the bound rules jobs out of the wanted third
            // without compiling them.
            let ruled_out = jobs.iter().filter(|job| {
                let bound = default_signature_bound(job).expect("every job normalizes");
                !third
                    .iter()
                    .any(|key| bound.admits(&RuleSignature(RuleSet::from_bit_string(key))))
            });
            assert!(ruled_out.count() > 0);
        }
    }
}
