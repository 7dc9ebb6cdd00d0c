//! What one pass over a workload records: the wall time of every call
//! into the program, by name, and the counts its return values carry.

use std::collections::BTreeMap;
use std::time::Instant;

/// Timings and counts of one pass. Every call into the program goes
/// through [`Recorder::timed`]; the calls do not nest, so their sum is the
/// pass's wall time with the harness's own work (building requests,
/// checking results) left out.
#[derive(Default)]
pub struct Recorder {
    /// Seconds per call, keyed by the name of the span around it.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
    pub wall_s: f64,
    /// Operations completed (see the README for what one is per workload).
    pub ops: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Digest of every result the pass produced; equal across passes.
    pub fingerprint: u64,
    /// Span argument: which pass of the run this is.
    pub pass: u64,
}

impl Recorder {
    pub fn new(pass: u64) -> Recorder {
        Recorder {
            pass,
            ..Recorder::default()
        }
    }

    /// Run `f` under a span named `name` (inert unless tracing is on) and
    /// record its wall time.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = scope_trace::span_with(name, self.pass);
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64();
        drop(span);
        self.samples.entry(name).or_default().push(dt);
        self.wall_s += dt;
        out
    }

    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_default() += delta;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total seconds spent in calls named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Samples of `name` scaled by `factor` (s → ms is 1e3, …).
    pub fn scaled(&self, name: &str, factor: f64) -> Vec<f64> {
        self.samples(name).iter().map(|s| s * factor).collect()
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Fold `value` into the pass's result digest.
    pub fn digest(&mut self, value: impl std::hash::Hash) {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(self.fingerprint);
        value.hash(&mut h);
        self.fingerprint = h.finish();
    }
}
