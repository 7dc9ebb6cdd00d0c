//! A sharded, thread-safe compile cache keyed by *(plan fingerprint,
//! effective rule configuration)*.
//!
//! Discovery is compile-bound: span approximation (Algorithm 1) recompiles
//! each job up to `MAX_SPAN_ITERATIONS` times and candidate search
//! recompiles M configurations per selected job — and several of those
//! compiles are provably identical (span recovery re-tests the last
//! successful configuration, the default configuration is compiled by both
//! selection and analysis, experiment sweeps replay the same day). The
//! cache returns a shared [`Arc<CompiledPlan>`] for repeated keys instead
//! of rebuilding the memo from scratch.
//!
//! ## Key soundness
//!
//! A compile is a pure function of `(logical plan, observable catalog,
//! rule configuration, cost model)`: the search is deterministic, breaks
//! cost ties by insertion order, and never reads ambient state. The key
//! therefore combines
//!
//! * [`plan_catalog_fingerprint`] — a digest of the plan's full value hash
//!   (literals included) and every observable table/column statistic, and
//! * the configuration's enabled [`RuleSet`] — callers must pass the
//!   **effective** configuration (after [`crate::optimizer::effective_config`]
//!   merges customer hints and after required-rule clamping), since that is
//!   what the search actually consumes, and
//! * [`CostModel::fingerprint_bits`] of the model the compile runs under.
//!
//! Only successful compiles are cached. A [`CompileError`] is returned to
//! the caller and the key stays absent, so a failure (a panic, a budget
//! smaller than the next caller's) is retried on the next lookup rather
//! than being replayed as permanent.
//!
//! The only field of a cached [`CompiledPlan`] that is not bit-identical
//! to a fresh compile is `stats.compile_micros`, which reports the wall
//! clock of the *original* compile — by design, so hit latency is not
//! mistaken for compile latency.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use scope_ir::{ObservableCatalog, PlanGraph};

use crate::config::RuleConfig;
use crate::cost::CostModel;
use crate::optimizer::CompiledPlan;
use crate::ruleset::RuleSet;
use crate::search::CompileError;

/// Digest of everything a compile reads besides the rule configuration:
/// the logical plan (literals included) and the observable catalog. Two
/// jobs with equal fingerprints compile identically under equal configs.
pub fn plan_catalog_fingerprint(plan: &PlanGraph, obs: &ObservableCatalog) -> u64 {
    let mut h = DefaultHasher::new();
    // Arena length distinguishes plans that differ only in unreachable
    // nodes (they still shape memo diagnostics).
    plan.len().hash(&mut h);
    plan.plan_hash().hash(&mut h);
    obs.tables.len().hash(&mut h);
    for t in &obs.tables {
        t.rows.hash(&mut h);
        t.row_bytes.hash(&mut h);
        t.name_hash.hash(&mut h);
        t.cols.hash(&mut h);
    }
    obs.columns.len().hash(&mut h);
    for c in &obs.columns {
        c.ndv.hash(&mut h);
        c.domain.hash(&mut h);
    }
    h.finish()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: u64,
    enabled: RuleSet,
    /// Digest of the cost model (weights + corrections) the compile ran
    /// under. Plans compiled under different models are different values —
    /// a correction promotion must never serve yesterday's plan bits.
    model: u64,
}

/// One shard: a hash map plus FIFO insertion order for deterministic
/// eviction (no recency clocks — cache behaviour must not depend on
/// thread scheduling).
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Arc<CompiledPlan>>,
    order: VecDeque<CacheKey>,
}

/// One shard plus its statistics, padded to two cache lines so adjacent
/// shards never share a line — false sharing on the lock word would
/// serialize otherwise-independent shards. The counters are per-shard for
/// the same reason: global `AtomicU64`s would be one contended line that
/// every thread's every lookup bounces.
#[repr(align(128))]
#[derive(Default)]
struct PaddedShard {
    inner: Mutex<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Lock acquisitions that found this shard's lock already held.
    contended: AtomicU64,
}

impl PaddedShard {
    /// Lock the shard, counting contention: a failed `try_lock` bumps
    /// `contended` before falling back to the blocking lock, so shard-lock
    /// fights are diagnosable from [`CacheStats::contended`] instead of
    /// showing up only as mysterious throughput loss.
    fn lock(&self) -> std::sync::MutexGuard<'_, Shard> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("cache shard poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }
}

/// Point-in-time counters for a [`CompileCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real compile.
    pub misses: u64,
    /// Successful compiles stored.
    pub insertions: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Shard-lock acquisitions that found the lock already held (each is a
    /// failed `try_lock` that fell back to blocking). Sustained growth
    /// under a parallel discovery run means threads are fighting over
    /// shards — the first thing to check when discovery throughput stops
    /// scaling (`steer_bench` reports it as `cache.contended`).
    pub contended: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas accumulated since an earlier snapshot (`entries` and
    /// `capacity` stay absolute — they are gauges, not counters).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
            contended: self.contended - earlier.contended,
            entries: self.entries,
            capacity: self.capacity,
        }
    }
}

/// Maximum shard count; small caches use fewer shards so the capacity
/// bound stays exact.
const MAX_SHARDS: usize = 16;

/// A bounded, sharded, thread-safe map from *(plan fingerprint, effective
/// config)* to [`Arc<CompiledPlan>`]. Capacity `0` disables caching
/// entirely (every lookup is a miss and nothing is stored).
pub struct CompileCache {
    shards: Vec<PaddedShard>,
    /// Per-shard capacities; they sum to the requested total.
    shard_caps: Vec<usize>,
    capacity: usize,
}

impl CompileCache {
    /// A cache holding at most `capacity` compiled plans.
    pub fn new(capacity: usize) -> CompileCache {
        let n_shards = capacity.clamp(1, MAX_SHARDS);
        let base = capacity / n_shards;
        let extra = capacity % n_shards;
        CompileCache {
            shards: (0..n_shards).map(|_| PaddedShard::default()).collect(),
            shard_caps: (0..n_shards)
                .map(|i| base + usize::from(i < extra))
                .collect(),
            capacity,
        }
    }

    /// A cache that never hits (capacity 0) — the serial-baseline control.
    pub fn disabled() -> CompileCache {
        CompileCache::new(0)
    }

    /// Total entries the cache may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Look a compiled plan up without compiling. Counts a hit or a miss.
    /// `model` is the cost model the compile ran (or would run) under.
    pub fn lookup(
        &self,
        fingerprint: u64,
        config: &RuleConfig,
        model: &CostModel,
    ) -> Option<Arc<CompiledPlan>> {
        if self.capacity == 0 {
            self.shards[0].misses.fetch_add(1, Ordering::Relaxed);
            scope_trace::count(scope_trace::Counter::CacheMiss, 1);
            return None;
        }
        let key = CacheKey {
            fingerprint,
            enabled: *config.enabled(),
            model: model.fingerprint_bits(),
        };
        let padded = &self.shards[self.shard_of(&key)];
        let shard = padded.lock();
        match shard.map.get(&key) {
            Some(hit) => {
                padded.hits.fetch_add(1, Ordering::Relaxed);
                scope_trace::count(scope_trace::Counter::CacheHit, 1);
                Some(Arc::clone(hit))
            }
            None => {
                padded.misses.fetch_add(1, Ordering::Relaxed);
                scope_trace::count(scope_trace::Counter::CacheMiss, 1);
                None
            }
        }
    }

    /// Store a compiled plan, evicting the oldest entry of the shard when
    /// full. Racing inserts of the same key keep the first-stored value so
    /// every subsequent hit returns one consistent `Arc`.
    pub fn insert(
        &self,
        fingerprint: u64,
        config: &RuleConfig,
        model: &CostModel,
        plan: Arc<CompiledPlan>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = CacheKey {
            fingerprint,
            enabled: *config.enabled(),
            model: model.fingerprint_bits(),
        };
        let idx = self.shard_of(&key);
        let cap = self.shard_caps[idx];
        if cap == 0 {
            return;
        }
        let padded = &self.shards[idx];
        let mut shard = padded.lock();
        if shard.map.contains_key(&key) {
            return;
        }
        while shard.map.len() >= cap {
            let Some(oldest) = shard.order.pop_front() else {
                break;
            };
            shard.map.remove(&oldest);
            padded.evictions.fetch_add(1, Ordering::Relaxed);
            scope_trace::count(scope_trace::Counter::CacheEviction, 1);
        }
        shard.map.insert(key, plan);
        shard.order.push_back(key);
        padded.insertions.fetch_add(1, Ordering::Relaxed);
        scope_trace::count(scope_trace::Counter::CacheInsert, 1);
    }

    /// The memoizing entry point: return the cached plan for the key or
    /// run `compile`, caching its result on success. Errors are *never*
    /// cached — the next lookup for the key compiles again.
    ///
    /// The compile closure runs outside the shard lock, so concurrent
    /// misses on one key may compile redundantly (both results are
    /// bit-identical; the first insert wins). That is the right trade:
    /// holding a shard lock across a multi-millisecond compile would
    /// serialize exactly the workload this cache exists to parallelize.
    ///
    /// `model` must be the cost model the `compile` closure runs under: it
    /// is part of the key.
    pub fn get_or_compile<F>(
        &self,
        fingerprint: u64,
        config: &RuleConfig,
        model: &CostModel,
        compile: F,
    ) -> Result<Arc<CompiledPlan>, CompileError>
    where
        F: FnOnce() -> Result<CompiledPlan, CompileError>,
    {
        // Hit/miss path latencies, recorded only while the tracer runs (the
        // clock read is behind the enabled gate).
        let timed = scope_trace::enabled().then(std::time::Instant::now);
        if let Some(hit) = self.lookup(fingerprint, config, model) {
            if let Some(t) = timed {
                scope_trace::record(
                    scope_trace::Histogram::CacheHitMicros,
                    t.elapsed().as_micros() as u64,
                );
            }
            return Ok(hit);
        }
        let compiled = Arc::new(compile()?);
        self.insert(fingerprint, config, model, Arc::clone(&compiled));
        if let Some(t) = timed {
            scope_trace::record(
                scope_trace::Histogram::CacheMissMicros,
                t.elapsed().as_micros() as u64,
            );
        }
        Ok(compiled)
    }

    /// Snapshot the counters (summed across shards).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.insertions += shard.insertions.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            stats.contended += shard.contended.load(Ordering::Relaxed);
            stats.entries += shard.lock().map.len();
        }
        stats
    }
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::compile;
    use scope_ir::ids::{DomainId, TableId};
    use scope_ir::{LogicalOp, TrueCatalog};

    fn tiny_job() -> (PlanGraph, ObservableCatalog) {
        let mut cat = TrueCatalog::new();
        let col = cat.add_column(100, 0.0, DomainId(0));
        cat.add_table(1_000_000, 100, 7, vec![col]);
        let mut plan = PlanGraph::new();
        let scan = plan.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let out = plan.add_unchecked(LogicalOp::Output { stream: 1 }, vec![scan]);
        plan.set_root(out);
        (plan, cat.observe())
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::new(8);
        let fp = plan_catalog_fingerprint(&plan, &obs);
        let cfg = RuleConfig::default_config();
        let a = cache
            .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
            .unwrap();
        let b = cache
            .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || {
                panic!("must not recompile")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::disabled();
        let fp = plan_catalog_fingerprint(&plan, &obs);
        let cfg = RuleConfig::default_config();
        for _ in 0..3 {
            cache
                .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 3);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn capacity_is_a_hard_bound_with_fifo_eviction() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::new(4);
        let cfg = RuleConfig::default_config();
        for fp in 0..32u64 {
            cache
                .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 4, "over capacity: {}", s.entries);
        assert_eq!(s.insertions, 32);
        assert_eq!(s.evictions, 32 - s.entries as u64);
    }

    #[test]
    fn fingerprint_separates_literals_and_catalogs() {
        let (plan, obs) = tiny_job();
        let fp = plan_catalog_fingerprint(&plan, &obs);
        // Different catalog stats ⇒ different fingerprint.
        let mut cat2 = TrueCatalog::new();
        let col = cat2.add_column(100, 0.0, DomainId(0));
        cat2.add_table(2_000_000, 100, 7, vec![col]);
        assert_ne!(fp, plan_catalog_fingerprint(&plan, &cat2.observe()));
        // Same inputs ⇒ same fingerprint.
        assert_eq!(fp, plan_catalog_fingerprint(&plan, &obs));
    }

    #[test]
    fn contention_counter_stays_quiet_single_threaded() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::new(8);
        let cfg = RuleConfig::default_config();
        let fp = plan_catalog_fingerprint(&plan, &obs);
        cache
            .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
            .unwrap();
        cache
            .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || panic!("must hit"))
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.contended, 0, "no lock fight on one thread");
        assert_eq!(s.since(&CacheStats::default()).contended, 0);
    }

    #[test]
    fn distinct_cost_models_do_not_share_entries() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::new(8);
        let cfg = RuleConfig::default_config();
        let fp = plan_catalog_fingerprint(&plan, &obs);
        cache
            .get_or_compile(fp, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
            .unwrap();
        // A non-default model must not be served the default-model plan.
        let skewed = CostModel {
            weights: crate::cost::CostWeights {
                io: 4.0,
                ..crate::cost::CostWeights::DEFAULT
            },
            ..CostModel::DEFAULT
        };
        let mut recompiled = false;
        cache
            .get_or_compile(fp, &cfg, &skewed, || {
                recompiled = true;
                compile(&plan, &obs, &cfg)
            })
            .unwrap();
        assert!(recompiled, "model digest missing from the cache key");
        // But the same model keyed twice hits.
        cache
            .get_or_compile(fp, &cfg, &skewed, || panic!("must hit"))
            .unwrap();
    }

    #[test]
    fn errors_are_not_cached() {
        let (plan, obs) = tiny_job();
        let cache = CompileCache::new(8);
        let cfg = RuleConfig::default_config();
        let mut calls = 0;
        for _ in 0..2 {
            let r = cache.get_or_compile(7, &cfg, &CostModel::DEFAULT, || {
                calls += 1;
                Err(CompileError::NoExchangeImplementation)
            });
            assert!(r.is_err());
        }
        assert_eq!(calls, 2, "a cached error would skip the second compile");
        assert_eq!(cache.stats().entries, 0);
        // The key still caches fine once a compile succeeds.
        cache
            .get_or_compile(7, &cfg, &CostModel::DEFAULT, || compile(&plan, &obs, &cfg))
            .unwrap();
        cache
            .get_or_compile(7, &cfg, &CostModel::DEFAULT, || panic!("must hit"))
            .unwrap();
    }
}
