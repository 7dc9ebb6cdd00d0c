//! The failure-hardened online serving layer ("steering as a service").
//!
//! QO-Advisor survived production because its serving path was boring and
//! safe: hint lookup is O(1), never blocks on compilation, and *every*
//! failure degrades to the unsteered default plan instead of an error.
//! This module is that path for the reproduction — a long-running
//! steering service driven by streaming job arrival
//! ([`scope_exec::arrival`]) instead of `compile_day` batches:
//!
//! * [`ServingTable`] — the lock-light read path: one immutable snapshot
//!   of rule-signature → [`ServingEntry`], replaced whole by a
//!   copy-on-write swap from the [`FlightController`]'s state, so readers
//!   only ever take the read lock for the instant it takes to clone an
//!   `Arc`. Entries carry a checksum so a torn write is *detected and
//!   refused* (served default) rather than served corrupt.
//!   [`ServingTable::retire`] removes a group synchronously, which is what
//!   makes "never serve a rolled-back or quarantined hint" a hard
//!   invariant even when a torn publish swapped in a corrupt entry.
//! * [`CircuitBreaker`] — wraps the flighting/revalidation interactions
//!   (journal writes, background probes): trips open after
//!   `BREAKER_FAILURES` consecutive failures, half-opens on a timer,
//!   closes again on a clean probe.
//! * [`DegradedMode`] — the typed degradation ladder
//!   Healthy → HintsStale → DefaultOnly, walked down and back up one rung
//!   per tick from observed shed/timeout rates (`DEGRADE_FRAC`,
//!   `RECOVER_FRAC`) and breaker state.
//! * [`SteeringService`] — ties it together: deterministic admission
//!   control with explicit load shedding at the inflight ceiling (shed
//!   requests are *served the default config*, never errored), a
//!   per-request decision deadline ([`DEADLINE_US`]) with hard default
//!   fallback, and a decision function that is a pure read so the
//!   parallel fan-out (`run_chunked_on`) is bit-identical at any thread
//!   count.
//!
//! Determinism contract: [`SteeringService::serve_day`] runs a sequential
//! admission/mode pass over arrivals ordered by `(arrival_us, job_id)`
//! (all stateful transitions happen here), then computes the admitted
//! decisions in parallel as pure functions of the immutable table
//! snapshot — so 1, 2, and 4 serving threads produce bit-identical
//! decision streams, which `tests/serving_chaos.rs` asserts under every
//! fault profile.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use scope_exec::faults::ServeFaultProfile;
use scope_optimizer::RuleConfig;
use scope_trace::{count, record, Counter, Histogram};

use crate::deploy::HintStatus;
use crate::flight::{flight_salt, FlightController};
use crate::par::run_chunked_on;

/// Hash a sequence of `Hash` pieces with the std SipHash-backed hasher —
/// deterministic for fixed inputs, the same property the rollout split
/// and plan fingerprints already rely on.
fn hash64<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A unit-interval draw that is a pure function of its arguments (same
/// construction as `scope_exec::arrival`): the serving layer's only
/// source of "randomness", so every fault roll replays bit-identically.
fn unit(seed: u64, day: u32, idx: u64, stream: u64) -> f64 {
    let h = hash64(&(seed, day, idx, stream));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// Serving table
// ---------------------------------------------------------------------

/// One published hint on the read path. Self-contained and checksummed:
/// a reader can validate an entry without consulting any other entry,
/// which is what makes a torn entry write safe to detect.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingEntry {
    /// Group key (default-signature bit string).
    pub group: String,
    /// The steered configuration to serve.
    pub config: RuleConfig,
    /// Rollout exposure at publish time (1..=100; 0-exposure groups are
    /// never published).
    pub exposure_pct: u8,
    /// Per-flight salt for the deterministic traffic split.
    pub salt: u64,
    /// Publish version that wrote this entry.
    pub version: u64,
    /// Checksum over every other field.
    pub check: u64,
}

impl ServingEntry {
    pub fn new(
        group: String,
        config: RuleConfig,
        exposure_pct: u8,
        salt: u64,
        version: u64,
    ) -> ServingEntry {
        let mut e = ServingEntry {
            group,
            config,
            exposure_pct,
            salt,
            version,
            check: 0,
        };
        e.check = e.checksum();
        e
    }

    /// The checksum the `check` field must carry.
    #[must_use]
    pub(crate) fn checksum(&self) -> u64 {
        hash64(&(
            &self.group,
            &self.config,
            self.exposure_pct,
            self.salt,
            self.version,
        ))
    }

    /// Whether the entry survived storage intact.
    #[must_use]
    pub(crate) fn is_intact(&self) -> bool {
        self.check == self.checksum()
    }

    /// A torn-write twin of this entry (checksum deliberately wrong) —
    /// used by the chaos harness to plant detectable corruption.
    #[must_use]
    pub(crate) fn corrupted(mut self) -> ServingEntry {
        self.check ^= 0xDEAD_BEEF;
        self
    }
}

/// What a table lookup found.
#[derive(Clone, Debug, PartialEq)]
pub enum Lookup {
    /// An intact entry.
    Hit(ServingEntry),
    /// No entry for the group.
    Miss,
    /// An entry was present but failed its checksum — the caller must
    /// serve the default config.
    Torn,
}

/// An immutable table snapshot. Readers clone the `Arc` and search the
/// map without holding any lock.
type Snapshot = BTreeMap<String, ServingEntry>;

/// Look `group` up in a snapshot. A checksum-corrupt entry is reported
/// as [`Lookup::Torn`], never returned.
fn lookup_in(snapshot: &Snapshot, group: &str) -> Lookup {
    match snapshot.get(group) {
        None => Lookup::Miss,
        Some(e) if e.is_intact() => Lookup::Hit(e.clone()),
        Some(_) => {
            count(Counter::ServeTornReads, 1);
            Lookup::Torn
        }
    }
}

/// The lock-light rule-signature → hint map. Writers build a whole
/// replacement snapshot off to the side and swap it in under the
/// write lock (copy-on-write); readers hold the read lock only long
/// enough to clone the `Arc`.
#[derive(Default)]
pub struct ServingTable {
    snapshot: RwLock<Arc<Snapshot>>,
}

impl ServingTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> ServingTable {
        ServingTable::default()
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().expect("serving table lock poisoned"))
    }

    /// Lookup on the read path: clone the snapshot `Arc`, search the
    /// immutable map. A checksum-corrupt entry is reported as
    /// [`Lookup::Torn`], never returned.
    #[must_use]
    pub fn lookup(&self, group: &str) -> Lookup {
        lookup_in(&self.snapshot(), group)
    }

    /// Copy-on-write snapshot swap: `entries` replace the whole table in
    /// one step. Returns the number of entries published.
    pub fn publish(&self, entries: Vec<ServingEntry>) -> usize {
        let next: Snapshot = entries.into_iter().map(|e| (e.group.clone(), e)).collect();
        let landed = next.len();
        *self.snapshot.write().expect("serving table lock poisoned") = Arc::new(next);
        count(Counter::ServeTableSwaps, 1);
        record(Histogram::ServeTableEntries, landed as u64);
        landed
    }

    /// Synchronously remove `group` (rollback/quarantine), so a retired
    /// group is gone from whatever snapshot the table carries, torn or
    /// not — the invariant behind "zero decisions on rolled-back hints".
    /// Readers holding the old snapshot keep it; the map is copied only
    /// while one does.
    pub fn retire(&self, group: &str) -> bool {
        let mut guard = self.snapshot.write().expect("serving table lock poisoned");
        if !guard.contains_key(group) {
            return false;
        }
        Arc::make_mut(&mut guard).remove(group);
        count(Counter::ServeRetired, 1);
        true
    }

    /// Published entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Build the publishable entries for a controller's current state: every
/// flight with non-zero exposure whose hint is still [`HintStatus::Active`].
/// Quarantined, suspended, candidate, and rolled-back groups are *never*
/// published.
#[must_use]
pub fn build_entries(flights: &FlightController, version: u64) -> Vec<ServingEntry> {
    let mut entries = Vec::new();
    for (group, state) in flights.flights() {
        let exposure = state.stage.exposure_pct(&flights.config);
        if exposure == 0 {
            continue;
        }
        let Some(hint) = flights.store.hint(group) else {
            continue;
        };
        if hint.status != HintStatus::Active {
            continue;
        }
        entries.push(ServingEntry::new(
            group.clone(),
            hint.config.clone(),
            exposure,
            flight_salt(group),
            version,
        ));
    }
    entries
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker state machine (virtual-clock driven, so tests and the chaos
/// harness replay it deterministically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Operations flow through.
    Closed,
    /// Tripped: operations are skipped until the cooldown expires.
    Open {
        /// Virtual time at which the breaker half-opens.
        until_us: u64,
    },
    /// Cooldown expired: one probe operation is allowed through; its
    /// outcome decides Closed vs re-Open.
    HalfOpen,
}

/// A consecutive-failure circuit breaker around the flighting/
/// revalidation interactions (journal writes, background probes).
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Consecutive failures that trip the breaker.
    pub threshold: u32,
    /// Virtual µs the breaker stays open before half-opening.
    pub cooldown_us: u64,
    /// Lifetime Closed→Open transitions.
    pub trips: u64,
    /// Lifetime Open→HalfOpen transitions.
    pub half_opens: u64,
}

impl CircuitBreaker {
    #[must_use]
    pub fn new(threshold: u32, cooldown_us: u64) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            cooldown_us,
            trips: 0,
            half_opens: 0,
        }
    }

    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker currently blocks operations (Open and still
    /// cooling down at `now_us`).
    #[must_use]
    pub(crate) fn is_open(&self, now_us: u64) -> bool {
        matches!(self.state, BreakerState::Open { until_us } if now_us < until_us)
    }

    /// Ask to run one operation at virtual time `now_us`. Open breakers
    /// half-open once the cooldown expires (allowing a probe).
    pub(crate) fn allows(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until_us } => {
                if now_us >= until_us {
                    self.state = BreakerState::HalfOpen;
                    self.half_opens += 1;
                    count(Counter::ServeBreakerHalfOpens, 1);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report the outcome of an allowed operation.
    pub fn record(&mut self, ok: bool, now_us: u64) {
        if ok {
            self.consecutive_failures = 0;
            if self.state == BreakerState::HalfOpen {
                self.state = BreakerState::Closed;
            }
            return;
        }
        self.consecutive_failures += 1;
        let trip = match self.state {
            // A failed probe re-trips immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                until_us: now_us + self.cooldown_us,
            };
            self.trips += 1;
            self.consecutive_failures = 0;
            count(Counter::ServeBreakerTrips, 1);
        }
    }
}

// ---------------------------------------------------------------------
// Degraded-mode ladder
// ---------------------------------------------------------------------

/// The service's typed degradation ladder. Transitions are one rung per
/// tick in either direction — hysteresis lives in the tick cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradedMode {
    /// Full service: hints served, table refreshed from flighting.
    Healthy,
    /// Hints still served from the existing table, but refreshes are
    /// suspended (flighting interactions failing or shedding elevated).
    HintsStale,
    /// Every request gets the default config; the table is not consulted.
    DefaultOnly,
}

impl DegradedMode {
    /// One rung worse.
    #[must_use]
    pub(crate) fn down(self) -> DegradedMode {
        match self {
            DegradedMode::Healthy => DegradedMode::HintsStale,
            DegradedMode::HintsStale | DegradedMode::DefaultOnly => DegradedMode::DefaultOnly,
        }
    }

    /// One rung better.
    #[must_use]
    pub fn up(self) -> DegradedMode {
        match self {
            DegradedMode::DefaultOnly => DegradedMode::HintsStale,
            DegradedMode::HintsStale | DegradedMode::Healthy => DegradedMode::Healthy,
        }
    }

    /// Stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegradedMode::Healthy => "healthy",
            DegradedMode::HintsStale => "hints_stale",
            DegradedMode::DefaultOnly => "default_only",
        }
    }
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

/// Per-request decision budget (virtual µs); expiry → hard default
/// fallback.
pub const DEADLINE_US: u64 = 1_000;
/// Simulated healthy decision latency (virtual µs).
pub(crate) const BASE_LATENCY_US: u64 = 120;
/// Latency billed to a shed request (virtual µs) — the admission check
/// only.
pub(crate) const SHED_LATENCY_US: u64 = 5;
/// Consecutive flighting-op failures that trip the breaker.
pub(crate) const BREAKER_FAILURES: u32 = 3;
/// Bad-request fraction per tick at or above which the mode steps down
/// one rung.
pub(crate) const DEGRADE_FRAC: f64 = 0.10;
/// Bad-request fraction per tick at or below which the mode steps back
/// up one rung (requires a closed breaker).
pub(crate) const RECOVER_FRAC: f64 = 0.02;

/// The steering service's settings a caller chooses; the rest are the
/// constants above. Defaults target the virtual-µs clock of
/// [`scope_exec::arrival`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Admission ceiling: arrivals beyond this many inflight decisions
    /// are shed (served default).
    pub max_inflight: usize,
    /// Breaker cooldown before half-opening (virtual µs).
    pub breaker_cooldown_us: u64,
    /// Mode-ladder evaluation cadence (virtual µs).
    pub tick_us: u64,
    /// Seed for the deterministic fault rolls.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_inflight: 64,
            breaker_cooldown_us: 4 * 3_600_000_000, // 4 virtual hours
            tick_us: 3_600_000_000,                 // 1 virtual hour
            seed: 2021,
        }
    }
}

/// One streaming steering request: the job, its precomputed group key
/// (the default plan's rule signature, computed once when the recurring
/// job was first seen — the serving path never compiles), and its virtual
/// arrival time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRequest {
    pub job_id: u64,
    pub group_key: String,
    pub arrival_us: u64,
}

/// Why a request got the config it got. Every variant except `Steered`
/// means "the default config" — there is no error path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// Served the hint (in the rollout split, entry intact).
    Steered,
    /// No published hint for the group.
    NoHint,
    /// Hint exists but the job hashed outside the exposure split.
    HeldBack,
    /// Shed by admission control at the inflight ceiling.
    Shed,
    /// Decision budget expired; hard fallback.
    DeadlineExpired,
    /// Service is in [`DegradedMode::DefaultOnly`].
    DegradedDefault,
    /// The entry failed its checksum (torn write) and was refused.
    TornEntry,
}

impl DecisionReason {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionReason::Steered => "steered",
            DecisionReason::NoHint => "no_hint",
            DecisionReason::HeldBack => "held_back",
            DecisionReason::Shed => "shed",
            DecisionReason::DeadlineExpired => "deadline_expired",
            DecisionReason::DegradedDefault => "degraded_default",
            DecisionReason::TornEntry => "torn_entry",
        }
    }
}

/// One steering decision. Always carries a servable config — callers
/// never see an error.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    pub job_id: u64,
    pub arrival_us: u64,
    /// Decision latency (µs, virtual). Capped at the deadline by
    /// construction: an expired budget *is* the fallback.
    pub latency_us: u64,
    pub steered: bool,
    /// The group whose hint was served (only when `steered`).
    pub group: Option<String>,
    pub config: RuleConfig,
    pub reason: DecisionReason,
    /// Service mode at decision time.
    pub mode: DegradedMode,
}

/// Stable fingerprint of a decision stream — the bit-identity probe the
/// bench compares across thread counts.
#[must_use]
fn decisions_fingerprint(decisions: &[Decision]) -> u64 {
    let mut h = DefaultHasher::new();
    for d in decisions {
        (
            d.job_id,
            d.arrival_us,
            d.latency_us,
            d.steered,
            &d.group,
            &d.config,
            d.reason.name(),
            d.mode.name(),
        )
            .hash(&mut h);
    }
    h.finish()
}

/// Per-request annotation produced by the sequential admission pass.
#[derive(Clone, Copy, Debug)]
struct Admission {
    /// `None` = admitted in time; otherwise the forced-default reason
    /// (Shed or DeadlineExpired).
    forced: Option<DecisionReason>,
    latency_us: u64,
    mode: DegradedMode,
}

/// Aggregates for one served day.
#[derive(Clone, Debug)]
pub struct DayServeReport {
    pub decisions: Vec<Decision>,
    pub requests: usize,
    pub steered: usize,
    pub defaults: usize,
    pub shed: usize,
    pub deadline_expired: usize,
    pub torn_entries: usize,
    /// Mode transitions during the day.
    pub mode_transitions: u64,
    /// Breaker trips during the day.
    pub breaker_trips: u64,
    pub final_mode: DegradedMode,
    pub p99_latency_us: u64,
    pub max_latency_us: u64,
    pub fingerprint: u64,
}

/// The long-running steering service.
pub struct SteeringService {
    pub table: ServingTable,
    pub config: ServiceConfig,
    pub breaker: CircuitBreaker,
    mode: DegradedMode,
    mode_transitions: u64,
    publishes: u64,
}

impl SteeringService {
    #[must_use]
    pub fn new(config: ServiceConfig) -> SteeringService {
        let breaker = CircuitBreaker::new(BREAKER_FAILURES, config.breaker_cooldown_us);
        SteeringService {
            table: ServingTable::new(),
            config,
            breaker,
            mode: DegradedMode::Healthy,
            mode_transitions: 0,
            publishes: 0,
        }
    }

    #[must_use]
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// Lifetime mode-ladder transitions.
    #[must_use]
    pub fn mode_transitions(&self) -> u64 {
        self.mode_transitions
    }

    fn set_mode(&mut self, next: DegradedMode) {
        if next != self.mode {
            self.mode = next;
            self.mode_transitions += 1;
            count(Counter::ServeModeTransitions, 1);
        }
    }

    /// Rebuild the serving table from the flight controller's current
    /// state (copy-on-write swap). In [`DegradedMode::HintsStale`] or
    /// worse the refresh is suspended (the existing table keeps serving).
    /// The fault profile may tear this publish: its last entry is written
    /// with a corrupt checksum. Returns entries published (0 when
    /// suspended).
    pub fn publish_from(&mut self, flights: &FlightController, fault: &ServeFaultProfile) -> usize {
        if self.mode != DegradedMode::Healthy {
            return 0;
        }
        let publish_index = self.publishes;
        self.publishes += 1;
        let mut entries = build_entries(flights, self.publishes);
        if fault.torn_swap.is_some_and(|t| t.publish == publish_index) {
            let torn = entries.pop().map(ServingEntry::corrupted);
            entries.extend(torn);
        }
        self.table.publish(entries)
    }

    /// Synchronously retire a group (rollback / quarantine). Must be
    /// called before the flight controller's rollback is considered
    /// complete — this is what keeps retired hints out of every future
    /// decision regardless of snapshot staleness.
    pub fn retire(&mut self, group: &str) -> bool {
        self.table.retire(group)
    }

    /// Run one flighting/revalidation maintenance operation through the
    /// circuit breaker at virtual time `now_us`. `stalled` is the
    /// deterministic stall roll for this op (true = the journal write
    /// stalled). Returns whether the op ran and succeeded.
    pub(crate) fn maintain(&mut self, now_us: u64, stalled: bool) -> bool {
        if !self.breaker.allows(now_us) {
            return false;
        }
        self.breaker.record(!stalled, now_us);
        !stalled
    }

    /// Walk the mode ladder at a tick boundary from the tick's observed
    /// bad-request fraction and breaker state.
    fn tick_mode(&mut self, tick_requests: usize, tick_bad: usize, now_us: u64) {
        let frac = if tick_requests == 0 {
            0.0
        } else {
            tick_bad as f64 / tick_requests as f64
        };
        let breaker_open = self.breaker.is_open(now_us);
        if frac >= DEGRADE_FRAC {
            self.set_mode(self.mode.down());
        } else if breaker_open {
            // Flighting machinery down: hints go stale but keep serving.
            self.set_mode(self.mode.max(DegradedMode::HintsStale));
        } else if frac <= RECOVER_FRAC {
            self.set_mode(self.mode.up());
        }
    }

    /// Serve one virtual day of streaming requests under a fault profile.
    ///
    /// Pass 1 (sequential, stateful): arrivals ordered by
    /// `(arrival_us, job_id)` run through admission control (inflight
    /// ceiling → shed), the deterministic latency model (slow-lookup
    /// faults → deadline expiry), per-tick maintenance ops through the
    /// breaker, and the mode ladder.
    ///
    /// Pass 2 (parallel, pure): admitted requests resolve against the
    /// immutable table snapshot via `run_chunked_on` with `n_threads`
    /// workers — order-preserving, so the decision stream is
    /// bit-identical at any thread count.
    pub fn serve_day(
        &mut self,
        requests: &[ServeRequest],
        fault: &ServeFaultProfile,
        day: u32,
        n_threads: usize,
    ) -> DayServeReport {
        let cfg = self.config.clone();
        let breaker_trips_before = self.breaker.trips;
        let mode_transitions_before = self.mode_transitions;

        // Stream order: virtual arrival time, job id as tiebreak.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival_us, requests[i].job_id));

        let mut admissions: Vec<Admission> = vec![
            Admission {
                forced: None,
                latency_us: 0,
                mode: DegradedMode::Healthy,
            };
            requests.len()
        ];
        // Completion times of inflight decisions (min-heap via Reverse).
        let mut inflight: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
        let mut tick = 0u64;
        let mut tick_requests = 0usize;
        let mut tick_bad = 0usize;

        for &i in &order {
            let r = &requests[i];
            // Cross any tick boundaries before this arrival: run one
            // maintenance op per tick through the breaker, then walk the
            // mode ladder on the tick's stats.
            while cfg.tick_us > 0 && r.arrival_us >= (tick + 1) * cfg.tick_us {
                tick += 1;
                let now = tick * cfg.tick_us;
                let stalled = fault.journal_stall_prob > 0.0
                    && unit(cfg.seed, day, tick, 10) < fault.journal_stall_prob;
                self.maintain(now, stalled);
                self.tick_mode(tick_requests, tick_bad, now);
                tick_requests = 0;
                tick_bad = 0;
            }

            while let Some(&std::cmp::Reverse(done)) = inflight.peek() {
                if done <= r.arrival_us {
                    inflight.pop();
                } else {
                    break;
                }
            }

            tick_requests += 1;
            let mode = self.mode;
            let a = if inflight.len() >= cfg.max_inflight {
                tick_bad += 1;
                Admission {
                    forced: Some(DecisionReason::Shed),
                    latency_us: SHED_LATENCY_US,
                    mode,
                }
            } else {
                let mut latency = BASE_LATENCY_US;
                if fault.slow_lookup_prob > 0.0
                    && unit(cfg.seed, day, r.job_id, 20) < fault.slow_lookup_prob
                {
                    latency += fault.slow_lookup_extra_us;
                }
                if latency > DEADLINE_US {
                    // The budget expires; the fallback is served *at* the
                    // deadline — p99 is bounded by construction.
                    tick_bad += 1;
                    inflight.push(std::cmp::Reverse(r.arrival_us + DEADLINE_US));
                    Admission {
                        forced: Some(DecisionReason::DeadlineExpired),
                        latency_us: DEADLINE_US,
                        mode,
                    }
                } else {
                    inflight.push(std::cmp::Reverse(r.arrival_us + latency));
                    Admission {
                        forced: None,
                        latency_us: latency,
                        mode,
                    }
                }
            };
            admissions[i] = a;
        }

        // Pass 2: pure decisions over one snapshot, fanned out
        // order-preserving.
        let snapshot = self.table.snapshot();
        let idxs: Vec<usize> = (0..requests.len()).collect();
        let decisions: Vec<Decision> = run_chunked_on(
            &idxs,
            n_threads.max(1),
            |&i| Some(decide(&snapshot, &requests[i], &admissions[i])),
            |&i| format!("serve request {}", requests[i].job_id),
        );

        // Aggregates + metrics.
        let mut report = DayServeReport {
            requests: decisions.len(),
            steered: 0,
            defaults: 0,
            shed: 0,
            deadline_expired: 0,
            torn_entries: 0,
            mode_transitions: self.mode_transitions - mode_transitions_before,
            breaker_trips: self.breaker.trips - breaker_trips_before,
            final_mode: self.mode,
            p99_latency_us: 0,
            max_latency_us: 0,
            fingerprint: decisions_fingerprint(&decisions),
            decisions,
        };
        let mut latencies: Vec<u64> = Vec::with_capacity(report.requests);
        for d in &report.decisions {
            count(Counter::ServeRequests, 1);
            record(Histogram::ServeDecisionMicros, d.latency_us);
            latencies.push(d.latency_us);
            if d.steered {
                report.steered += 1;
                count(Counter::ServeSteered, 1);
            } else {
                report.defaults += 1;
                count(Counter::ServeDefault, 1);
            }
            match d.reason {
                DecisionReason::Shed => {
                    report.shed += 1;
                    count(Counter::ServeShed, 1);
                }
                DecisionReason::DeadlineExpired => {
                    report.deadline_expired += 1;
                    count(Counter::ServeDeadlineExpired, 1);
                }
                DecisionReason::TornEntry => report.torn_entries += 1,
                _ => {}
            }
        }
        latencies.sort_unstable();
        if !latencies.is_empty() {
            let p99_idx = ((latencies.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
            report.p99_latency_us = latencies[p99_idx.min(latencies.len() - 1)];
            report.max_latency_us = *latencies.last().unwrap();
        }
        record(Histogram::ServeInflight, report.requests as u64);
        report
    }
}

/// The pure per-request decision: a function of the request, its
/// admission annotation, and the immutable table snapshot only. Never
/// errors — every path yields a servable config.
fn decide(snapshot: &Snapshot, r: &ServeRequest, a: &Admission) -> Decision {
    let default = |reason: DecisionReason| Decision {
        job_id: r.job_id,
        arrival_us: r.arrival_us,
        latency_us: a.latency_us,
        steered: false,
        group: None,
        config: RuleConfig::default_config(),
        reason,
        mode: a.mode,
    };
    if let Some(reason) = a.forced {
        return default(reason);
    }
    if a.mode == DegradedMode::DefaultOnly {
        return default(DecisionReason::DegradedDefault);
    }
    match lookup_in(snapshot, &r.group_key) {
        Lookup::Miss => default(DecisionReason::NoHint),
        Lookup::Torn => default(DecisionReason::TornEntry),
        Lookup::Hit(e) => {
            if scope_exec::in_rollout(r.job_id, e.salt, e.exposure_pct) {
                Decision {
                    job_id: r.job_id,
                    arrival_us: r.arrival_us,
                    latency_us: a.latency_us,
                    steered: true,
                    group: Some(e.group),
                    config: e.config,
                    reason: DecisionReason::Steered,
                    mode: a.mode,
                }
            } else {
                default(DecisionReason::HeldBack)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn entry(group: &str, exposure: u8, version: u64) -> ServingEntry {
        ServingEntry::new(
            group.to_string(),
            RuleConfig::default_config(),
            exposure,
            flight_salt(group),
            version,
        )
    }

    fn request(job_id: u64, group: &str, arrival_us: u64) -> ServeRequest {
        ServeRequest {
            job_id,
            group_key: group.to_string(),
            arrival_us,
        }
    }

    #[test]
    fn entries_checksum_and_detect_corruption() {
        let e = entry("g1", 25, 1);
        assert!(e.is_intact());
        assert!(!e.clone().corrupted().is_intact());
    }

    #[test]
    fn table_publishes_looks_up_and_retires() {
        let t = ServingTable::new();
        assert!(t.is_empty());
        let landed = t.publish(vec![entry("g1", 25, 1), entry("g2", 5, 1)]);
        assert_eq!(landed, 2);
        assert_eq!(t.len(), 2);
        assert!(matches!(t.lookup("g1"), Lookup::Hit(e) if e.group == "g1"));
        assert_eq!(t.lookup("missing"), Lookup::Miss);
        assert!(t.retire("g1"));
        assert!(!t.retire("g1"), "already retired");
        assert_eq!(t.lookup("g1"), Lookup::Miss);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn torn_publish_swaps_in_one_refused_entry_and_retire_still_works() {
        use crate::groups::GroupConfig;
        use scope_ir::ids::JobId;
        use scope_optimizer::{RuleId, RuleSignature};

        let winners: Vec<GroupConfig> = (0..32)
            .map(|i| GroupConfig {
                group: RuleSignature([RuleId(i)].into_iter().collect()),
                config: RuleConfig::default_config(),
                base_change_pct: -20.0,
                base_job: JobId(u64::from(i)),
            })
            .collect();
        let mut flights = FlightController::new(crate::flight::FlightConfig::default());
        flights.ingest_deployed(&winners, 0);
        let groups: Vec<String> = winners.iter().map(|w| w.group.to_bit_string()).collect();
        let fault = ServeFaultProfile::torn_swaps();
        let torn_publish = fault
            .torn_swap
            .expect("the profile tears a publish")
            .publish;
        let mut s = SteeringService::new(ServiceConfig::default());
        for publish in 0..=torn_publish {
            assert_eq!(s.publish_from(&flights, &fault), groups.len());
            let torn = groups
                .iter()
                .filter(|g| s.table.lookup(g) == Lookup::Torn)
                .count();
            assert_eq!(
                torn,
                usize::from(publish == torn_publish),
                "publish {publish}"
            );
        }
        // One swap, one version: every other entry is the torn publish's.
        // Every entry, the torn one included, retires.
        for g in &groups {
            match s.table.lookup(g) {
                Lookup::Hit(e) => assert_eq!(e.version, torn_publish + 1),
                Lookup::Torn => {}
                Lookup::Miss => panic!("lost {g}"),
            }
            assert!(s.retire(g));
            assert_eq!(s.table.lookup(g), Lookup::Miss, "{g} served after retire");
        }
    }

    #[test]
    fn corrupt_entries_are_refused_not_served() {
        let t = ServingTable::new();
        t.publish(vec![entry("ok", 100, 1), entry("bad", 100, 1).corrupted()]);
        assert!(matches!(t.lookup("ok"), Lookup::Hit(_)));
        assert_eq!(t.lookup("bad"), Lookup::Torn);
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let mut b = CircuitBreaker::new(3, 100);
        assert!(b.allows(0));
        b.record(false, 0);
        b.record(false, 1);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, 2);
        assert_eq!(b.state(), BreakerState::Open { until_us: 102 });
        assert_eq!(b.trips, 1);
        assert!(!b.allows(50), "still cooling down");
        assert!(b.allows(102), "cooldown expired → half-open probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.half_opens, 1);
        // Failed probe re-trips immediately.
        b.record(false, 103);
        assert_eq!(b.state(), BreakerState::Open { until_us: 203 });
        assert_eq!(b.trips, 2);
        // Clean probe closes.
        assert!(b.allows(203));
        b.record(true, 204);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn mode_ladder_steps_one_rung_at_a_time() {
        assert_eq!(DegradedMode::Healthy.down(), DegradedMode::HintsStale);
        assert_eq!(DegradedMode::HintsStale.down(), DegradedMode::DefaultOnly);
        assert_eq!(DegradedMode::DefaultOnly.down(), DegradedMode::DefaultOnly);
        assert_eq!(DegradedMode::DefaultOnly.up(), DegradedMode::HintsStale);
        assert_eq!(DegradedMode::HintsStale.up(), DegradedMode::Healthy);
        assert_eq!(DegradedMode::Healthy.up(), DegradedMode::Healthy);
    }

    fn service_with_table(groups: &[&str]) -> SteeringService {
        let s = SteeringService::new(ServiceConfig {
            // Short ticks so day-scale tests cross many boundaries.
            tick_us: 1_000_000,
            breaker_cooldown_us: 3_000_000,
            ..ServiceConfig::default()
        });
        let entries: Vec<ServingEntry> = groups.iter().map(|g| entry(g, 100, 1)).collect();
        s.table.publish(entries);
        s
    }

    #[test]
    fn served_stream_is_bit_identical_across_thread_counts() {
        let groups = ["g1", "g2", "g3"];
        let requests: Vec<ServeRequest> = (0..300)
            .map(|i| request(i, groups[(i % 3) as usize], (i * 7_919) % 20_000_000))
            .collect();
        let fault = ServeFaultProfile::slow_lookups();
        let mut prints = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut s = service_with_table(&groups);
            let report = s.serve_day(&requests, &fault, 0, threads);
            assert_eq!(report.requests, requests.len());
            prints.push(report.fingerprint);
        }
        assert_eq!(prints[0], prints[1]);
        assert_eq!(prints[1], prints[2]);
    }

    #[test]
    fn every_shed_or_expired_request_is_served_the_default() {
        let mut s = service_with_table(&["g1"]);
        s.config.max_inflight = 2;
        // A tight burst: everyone arrives within one decision latency.
        let requests: Vec<ServeRequest> = (0..50).map(|i| request(i, "g1", 1_000 + i)).collect();
        let report = s.serve_day(&requests, &ServeFaultProfile::none(), 0, 2);
        assert!(report.shed > 0, "ceiling of 2 must shed a 50-burst");
        for d in &report.decisions {
            if matches!(
                d.reason,
                DecisionReason::Shed | DecisionReason::DeadlineExpired
            ) {
                assert!(!d.steered);
                assert_eq!(d.config, RuleConfig::default_config());
            }
            assert!(d.latency_us <= DEADLINE_US);
        }
    }

    #[test]
    fn deadline_expiry_caps_latency_and_falls_back() {
        let mut s = service_with_table(&["g1"]);
        let fault = ServeFaultProfile {
            slow_lookup_prob: 1.0,
            slow_lookup_extra_us: 50_000,
            ..ServeFaultProfile::none()
        };
        let requests: Vec<ServeRequest> =
            (0..40).map(|i| request(i, "g1", i * 2_000_000)).collect();
        let report = s.serve_day(&requests, &fault, 0, 1);
        assert_eq!(report.deadline_expired, report.requests);
        assert_eq!(report.steered, 0);
        assert_eq!(report.max_latency_us, DEADLINE_US);
    }

    #[test]
    fn journal_stalls_trip_the_breaker_and_stale_the_mode() {
        let mut s = service_with_table(&["g1"]);
        let fault = ServeFaultProfile {
            journal_stall_prob: 1.0,
            ..ServeFaultProfile::none()
        };
        // Spread arrivals across many ticks so maintenance runs often.
        let requests: Vec<ServeRequest> =
            (0..60).map(|i| request(i, "g1", i * 1_000_000)).collect();
        let report = s.serve_day(&requests, &fault, 0, 1);
        assert!(report.breaker_trips >= 1, "stalls must trip the breaker");
        assert!(
            s.mode() >= DegradedMode::HintsStale,
            "open breaker must stale the mode, got {:?}",
            s.mode()
        );
        // Stale, not dead: hints keep serving.
        assert!(report.steered > 0);
    }

    #[test]
    fn degraded_default_only_serves_no_hints_and_recovers() {
        let mut s = service_with_table(&["g1"]);
        s.config.max_inflight = 1;
        // Tick 0-1: an overload burst drives the bad fraction over the
        // degrade threshold twice → Healthy → HintsStale → DefaultOnly.
        let mut requests: Vec<ServeRequest> = (0..40).map(|i| request(i, "g1", 100 + i)).collect();
        requests.extend((100..140).map(|i| request(i, "g1", 1_000_100 + (i - 100))));
        // Ticks 2..8: calm traffic far below recover_frac → walks back up.
        requests.extend((200..208).map(|i| request(i, "g1", (i - 198) * 1_000_000)));
        let report = s.serve_day(&requests, &ServeFaultProfile::none(), 0, 2);
        assert!(
            report
                .decisions
                .iter()
                .any(|d| d.reason == DecisionReason::DegradedDefault),
            "overload must reach DefaultOnly"
        );
        assert_eq!(s.mode(), DegradedMode::Healthy, "calm traffic must recover");
        assert!(report.mode_transitions >= 4, "down twice and back up twice");
    }

    #[test]
    fn publish_from_is_suspended_while_degraded() {
        let mut s = SteeringService::new(ServiceConfig::default());
        s.set_mode(DegradedMode::HintsStale);
        let flights = FlightController::new(crate::flight::FlightConfig::default());
        assert_eq!(s.publish_from(&flights, &ServeFaultProfile::none()), 0);
        assert_eq!(s.publishes, 0);
    }

    /// Satellite: scoped-thread stress test for the snapshot-swap read
    /// path. A writer cycles flight stage transitions — each round it
    /// publishes a stable cohort plus one fresh "victim" group at rising
    /// exposure (Canary → Ramping → Deployed), then retires the victim
    /// (RolledBack) and advances a monotone `retired_rounds` counter —
    /// while reader threads hammer lookups. Invariants: every hit is
    /// checksum-intact (no torn reads), and once `retired_rounds` shows a
    /// victim's rollback, that victim is never served again (victims are
    /// never re-published, so the check is race-free). Runs under Miri
    /// (small iteration count) via the CI job's `serve::` filter.
    #[test]
    fn concurrent_lookups_race_stage_transitions_safely() {
        use std::sync::atomic::AtomicUsize;

        let iters: usize = if cfg!(miri) { 12 } else { 1_500 };
        let table = ServingTable::new();
        let stable: Vec<String> = (0..6).map(|i| format!("stable-group-{i}")).collect();
        let retired_rounds = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let victim_name = |round: usize| format!("victim-{round}");

        std::thread::scope(|s| {
            let table = &table;
            let stable = &stable;
            let retired_rounds = &retired_rounds;
            let stop = &stop;
            let victim_name = &victim_name;

            s.spawn(move || {
                for round in 0..iters {
                    let version = round as u64 + 1;
                    let victim = victim_name(round);
                    // Canary → Ramping → Deployed: republish the whole
                    // set (stable cohort + this round's victim) at
                    // rising exposure.
                    for exposure in [5u8, 25, 100] {
                        let mut entries: Vec<ServingEntry> = stable
                            .iter()
                            .map(|g| {
                                ServingEntry::new(
                                    g.clone(),
                                    RuleConfig::default_config(),
                                    exposure,
                                    flight_salt(g),
                                    version,
                                )
                            })
                            .collect();
                        entries.push(ServingEntry::new(
                            victim.clone(),
                            RuleConfig::default_config(),
                            exposure,
                            flight_salt(&victim),
                            version,
                        ));
                        table.publish(entries);
                    }
                    // RolledBack: retire the victim, *then* advance the
                    // counter (release) — readers that observe the new
                    // count must observe the retire too.
                    table.retire(&victim);
                    retired_rounds.store(round + 1, Ordering::Release);
                }
                stop.store(true, Ordering::Release);
            });

            for _ in 0..3 {
                s.spawn(move || {
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        // Everything retired so far must stay gone.
                        let retired = retired_rounds.load(Ordering::Acquire);
                        if retired > 0 {
                            let gone = victim_name(retired - 1);
                            match table.lookup(&gone) {
                                Lookup::Miss => {}
                                other => panic!("{gone} served after rollback: {other:?}"),
                            }
                        }
                        // The stable cohort and the in-flight victim may
                        // hit or miss, but a hit must never be torn.
                        for g in stable {
                            match table.lookup(g) {
                                Lookup::Hit(e) => {
                                    hits += 1;
                                    assert!(e.is_intact(), "torn read of {g}");
                                }
                                Lookup::Torn => panic!("torn read of {g}"),
                                Lookup::Miss => {}
                            }
                        }
                        let current = victim_name(retired);
                        match table.lookup(&current) {
                            Lookup::Hit(e) => assert!(e.is_intact(), "torn read of {current}"),
                            Lookup::Torn => panic!("torn read of {current}"),
                            Lookup::Miss => {}
                        }
                    }
                    // Readers must have actually observed live entries.
                    assert!(hits > 0 || cfg!(miri));
                });
            }
        });
    }
}
