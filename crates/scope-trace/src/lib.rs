//! # scope-trace
//!
//! A lightweight structured tracing + metrics layer for the steering
//! pipeline, modelled on the flighting telemetry that kept QO-Advisor's
//! production deployment observable: every load-bearing stage (optimizer
//! phases, the exec simulator, discovery) emits *spans* and bumps *typed
//! counters/histograms*, and exporters turn them into a Chrome
//! `trace_event` flamegraph or a machine-readable [`MetricsSnapshot`].
//!
//! Design constraints, in order:
//!
//! 1. **A disabled tracer is a no-op.** Every instrumentation point is
//!    gated on one relaxed atomic load ([`enabled`]); when it is `false`
//!    nothing allocates, locks, or reads the clock. The tracer ships
//!    disabled and is flipped on by benches ([`set_enabled`]).
//! 2. **Tracing must never change results.** Instrumented code takes no
//!    decisions from the tracer; steer-core's `tests/tracing_identity.rs`
//!    holds discovery reports bit-identical with tracing on and off.
//! 3. **Cheap when enabled.** Counters and histograms are lock-free
//!    atomics; span events buffer in thread-local storage and drain into
//!    the global sink only on flush (buffer full, thread exit, or
//!    [`take_spans`]).
//!
//! ## Spans
//!
//! [`span`] opens a hierarchical span: monotonic start/end timestamps
//! (microseconds since the process-wide trace epoch), the recording
//! thread, and a parent link to the span enclosing it on the same thread.
//! The returned [`SpanGuard`] closes the span on drop, so instrumentation
//! is one line:
//!
//! ```
//! fn explore_phase() {
//!     let _span = scope_trace::span("compile.explore");
//!     // ... work ...
//! }
//! ```
//!
//! [`span_timed`] additionally records the span's duration into a
//! [`Histogram`], and [`span_with`] attaches a numeric argument (e.g. a
//! job id) that the Chrome exporter surfaces under `args`.
//!
//! ## Counters and histograms
//!
//! [`Counter`] and [`Histogram`] are closed enums — the registry of
//! everything the workspace measures — so recording is an array index and
//! an atomic add, and a [`MetricsSnapshot`] can enumerate the whole state
//! without locks. Snapshots subtract ([`MetricsSnapshot::since`]) so
//! callers report per-run deltas even though the tracer is process-global.

pub mod chrome;
pub mod metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use chrome::chrome_trace;
pub use metrics::{
    count, record, Counter, CounterValue, Histogram, HistogramSnapshot, MetricsSnapshot,
};

/// Master switch. Relaxed is sufficient: the flag only gates *whether*
/// telemetry is recorded, never synchronizes data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the tracer is recording. One relaxed load — the cost of every
/// instrumentation point when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the tracer on or off. Spans opened while enabled still close
/// normally after a disable (their guards are already live).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide trace epoch: all span timestamps are microseconds
/// since this instant (fixed at first use, monotonic).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One closed span, as drained by [`take_spans`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"compile.explore"`).
    pub name: &'static str,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Small dense id of the recording thread (not the OS tid).
    pub thread: u64,
    /// Caller-supplied argument (0 when unused) — e.g. a job id.
    pub arg: u64,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Local buffers flush into the global sink when they reach this size.
const FLUSH_THRESHOLD: usize = 4096;

/// Default ceiling on spans retained in the global sink between
/// [`take_spans`] drains. Generous for batch benches; a long-running
/// daemon lowers it via [`set_span_cap`].
const DEFAULT_SPAN_CAP: usize = 1 << 20;

static SPAN_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_SPAN_CAP);

/// Cap the number of closed spans the global sink retains between
/// [`take_spans`] drains. Once the sink is full, further flushes drop
/// their newest spans and bump [`Counter::TraceSpansDropped`] — tracing
/// memory stays bounded no matter how rarely the daemon drains. The cap
/// is clamped to at least 1.
pub fn set_span_cap(cap: usize) {
    SPAN_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Current sink cap (see [`set_span_cap`]).
#[must_use]
pub fn span_cap() -> usize {
    SPAN_CAP.load(Ordering::Relaxed)
}

static GLOBAL_SPANS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread span state: the open-span stack (parent links) and a buffer
/// of closed spans. Flushes on drop, so scoped worker threads hand their
/// events to the sink when they exit.
struct ThreadBuf {
    thread: u64,
    stack: Vec<u64>,
    closed: Vec<SpanEvent>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            closed: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.closed.is_empty() {
            return;
        }
        let cap = span_cap();
        let mut sink = GLOBAL_SPANS.lock().expect("span sink poisoned");
        let room = cap.saturating_sub(sink.len());
        if self.closed.len() > room {
            let dropped = (self.closed.len() - room) as u64;
            self.closed.truncate(room);
            // Not gated on `enabled()`: the spans being dropped were
            // recorded while enabled, and the drop must be visible even
            // if the tracer was switched off before this flush.
            metrics::count_always(Counter::TraceSpansDropped, dropped);
        }
        sink.append(&mut self.closed);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// An open span; closes (records start, duration, parent, thread) when
/// dropped. A guard obtained while the tracer is disabled is inert.
#[must_use = "a span closes when its guard drops — bind it to a variable"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    arg: u64,
    start: Instant,
    start_us: u64,
    timed: Option<Histogram>,
}

fn open_span(name: &'static str, arg: u64, timed: Option<Histogram>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = THREAD_BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.stack.last().copied();
        b.stack.push(id);
        parent
    });
    SpanGuard {
        live: Some(LiveSpan {
            name,
            id,
            parent,
            arg,
            start: Instant::now(),
            start_us: now_us(),
            timed,
        }),
    }
}

/// Open a span named `name` under the current thread's innermost span.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, 0, None)
}

/// [`span`] with a numeric argument (job id, candidate index, ...).
pub fn span_with(name: &'static str, arg: u64) -> SpanGuard {
    open_span(name, arg, None)
}

/// [`span`] that also records its duration (µs) into `hist` on close.
pub fn span_timed(name: &'static str, hist: Histogram) -> SpanGuard {
    open_span(name, 0, Some(hist))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_us = live.start.elapsed().as_micros() as u64;
        if let Some(hist) = live.timed {
            metrics::record(hist, dur_us);
        }
        THREAD_BUF.with(|b| {
            let mut b = b.borrow_mut();
            // Guards are scoped, so the top of the stack is this span; be
            // tolerant anyway (a mem::forget'd guard must not corrupt
            // parenting forever).
            if let Some(pos) = b.stack.iter().rposition(|&id| id == live.id) {
                b.stack.truncate(pos);
            }
            let thread = b.thread;
            b.closed.push(SpanEvent {
                name: live.name,
                id: live.id,
                parent: live.parent,
                thread,
                arg: live.arg,
                start_us: live.start_us,
                dur_us,
            });
            if b.closed.len() >= FLUSH_THRESHOLD {
                b.flush();
            }
        });
    }
}

/// Drain every closed span recorded so far: the calling thread's buffer
/// plus everything already flushed to the global sink (including buffers
/// of worker threads that have exited). Spans still *open*, and closed
/// spans buffered on other still-live threads, are not included.
pub fn take_spans() -> Vec<SpanEvent> {
    THREAD_BUF.with(|b| b.borrow_mut().flush());
    let mut sink = GLOBAL_SPANS.lock().expect("span sink poisoned");
    std::mem::take(&mut *sink)
}

/// Clear all recorded telemetry: counters, histograms, and drained spans.
/// Best-effort for spans still buffered on other live threads (the
/// pipeline's workers are scoped, so between runs none are alive). Meant
/// for benches and tests that want a clean slate between phases.
pub fn reset() {
    metrics::reset_storage();
    drop(take_spans());
}

/// Global tracer state (the enabled flag, the span sink, every counter)
/// is process-wide; every test in this crate that writes it or asserts on
/// it holds this gate, so `reset()` in one module cannot zero a counter
/// another module's test is summing.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = test_gate();
        set_enabled(false);
        reset();
        {
            let _s = span("noop");
            count(Counter::FunnelGenerated, 3);
            record(Histogram::CompileMicros, 17);
        }
        assert!(take_spans().is_empty());
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counter(Counter::FunnelGenerated), 0);
    }

    #[test]
    fn spans_nest_and_carry_parent_links() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span_with("inner", 42);
            }
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.arg, 42);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.thread, outer.thread);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        let main_tid = std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _s = span("worker");
            });
            h.join().expect("worker");
            let _m = span("main");
            0u64
        });
        let _ = main_tid;
        set_enabled(false);
        let spans = take_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"worker"), "worker span lost: {names:?}");
        assert!(names.contains(&"main"));
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        let main = spans.iter().find(|s| s.name == "main").unwrap();
        assert_ne!(worker.thread, main.thread);
    }

    #[test]
    fn span_timed_feeds_its_histogram() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        {
            let _s = span_timed("timed", Histogram::CompileMicros);
        }
        set_enabled(false);
        let snap = MetricsSnapshot::capture();
        let h = snap.histogram(Histogram::CompileMicros);
        assert_eq!(h.count, 1);
        let _ = take_spans();
    }

    #[test]
    fn span_cap_bounds_sink_and_counts_drops() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        let before = MetricsSnapshot::capture();
        set_span_cap(3);
        for _ in 0..8 {
            let _s = span("capped");
            // Force a flush per span so the cap is exercised.
            THREAD_BUF.with(|b| b.borrow_mut().flush());
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 3, "sink exceeded cap: {}", spans.len());
        let snap = MetricsSnapshot::capture().since(&before);
        assert_eq!(snap.counter(Counter::TraceSpansDropped), 5);
        set_span_cap(DEFAULT_SPAN_CAP);
        reset();
    }

    #[test]
    fn take_spans_drains_once() {
        let _g = test_gate();
        set_enabled(true);
        reset();
        {
            let _s = span("only");
        }
        set_enabled(false);
        assert_eq!(take_spans().len(), 1);
        assert!(take_spans().is_empty());
    }
}
