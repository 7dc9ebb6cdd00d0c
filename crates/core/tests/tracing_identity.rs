//! Tracing must never change results: instrumented code takes no decision
//! from the tracer, so a discovery day run with `scope-trace` recording is
//! bit-identical to the same day run with it off — and the traced run
//! really did record. The tracer is process-global, so this test has a
//! binary to itself.

mod common;

use common::{result_fingerprint, run};
use scope_trace::Counter;

#[test]
fn tracing_never_changes_discovery_results() {
    let plain = run(2, 42);

    scope_trace::reset();
    scope_trace::set_enabled(true);
    let traced = run(2, 42);
    scope_trace::set_enabled(false);
    let spans = scope_trace::take_spans();

    assert_eq!(
        result_fingerprint(&traced),
        result_fingerprint(&plain),
        "tracing changed discovery results"
    );
    assert!(
        plain.metrics.is_empty(),
        "the untraced run recorded metrics"
    );
    assert!(
        traced.metrics.counter(Counter::FunnelGenerated) > 0,
        "the traced run's funnel recorded no candidates"
    );
    assert!(!spans.is_empty(), "the traced run recorded no spans");
}
