//! The metric registry — every name `BENCHMARK.json` declares, with its
//! unit — and the run's printed output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics a user of the system would see; printed by a plain run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers; printed by a traced run. A layer the
/// workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // the loop as a whole, from the untraced one-thread pass
    ("loop.wall_s", "s"),
    ("loop.night_s", "s"),
    ("loop.daytime_s", "s"),
    ("loop.discover_jobs_per_s", "1/s"),
    ("loop.daytime_jobs_per_s", "1/s"),
    ("quality.discover_saving_pct", "%"),
    ("quality.steered_saving_pct", "%"),
    // where the traced pass's wall went: self time by layer
    ("share.optimizer_pct", "%"),
    ("share.pipeline_pct", "%"),
    ("share.minimize_pct", "%"),
    ("share.groups_pct", "%"),
    ("share.keys_pct", "%"),
    ("share.flight_pct", "%"),
    ("share.serve_pct", "%"),
    ("share.exec_pct", "%"),
    ("share.feedback_pct", "%"),
    ("share.unattributed_pct", "%"),
    // scope-workload
    ("workload.generate_ms", "ms"),
    ("workload.jobs_per_day", "count"),
    // key derivation
    ("keys.derive_us_p50", "us"),
    // scope-optimizer
    ("optimizer.default_compile_us_p50", "us"),
    ("optimizer.candidate_compile_us_p50", "us"),
    ("optimizer.candidate_compile_us_p95", "us"),
    ("optimizer.compile_fail_ratio", "ratio"),
    ("optimizer.compiles", "count"),
    ("optimizer.compile_busy_s", "s"),
    ("optimizer.explore_busy_s", "s"),
    ("optimizer.implement_busy_s", "s"),
    ("optimizer.memo_exprs_mean", "count"),
    ("optimizer.tasks_mean", "count"),
    ("optimizer.allocs_per_compile", "count"),
    ("optimizer.alloc_kib_per_compile", "KiB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.contended", "count"),
    // scope-lint
    ("lint.joblint_new_us_p50", "us"),
    ("lint.classify_ns_per_config", "ns"),
    ("lint.static_rejected_ratio", "ratio"),
    ("bounds.analyze_us_p50", "us"),
    ("bounds.cost_lo_ns_per_config", "ns"),
    ("bounds.pruned_ratio", "ratio"),
    // span / search
    ("span.approximate_ms_p50", "ms"),
    ("span.size_mean", "count"),
    ("search.generate_us_p50", "us"),
    ("search.configs_per_job", "count"),
    // pipeline
    ("pipeline.defaults_s", "s"),
    ("pipeline.analyze_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.analyze_job_ms_p50", "ms"),
    ("pipeline.analyze_job_ms_max", "ms"),
    ("pipeline.parallel_efficiency", "ratio"),
    ("pipeline.jobs_analyzed", "count"),
    ("pipeline.candidates_generated", "count"),
    ("pipeline.candidates_compiled", "count"),
    ("pipeline.candidates_duplicate", "count"),
    ("pipeline.candidates_executed", "count"),
    // guard / scope-exec
    ("guard.vet_us_p50", "us"),
    ("guard.vetoed", "count"),
    ("exec.run_us_p50", "us"),
    ("exec.runs", "count"),
    // minimize / groups
    ("minimize.config_ms_p50", "ms"),
    ("minimize.rules_kept_ratio", "ratio"),
    ("groups.winners", "count"),
    // flight
    ("flight.ingest_us_p50", "us"),
    ("flight.serve_day_ms_p50", "ms"),
    ("flight.revalidate_ms_p50", "ms"),
    ("flight.advance_us_p50", "us"),
    ("flight.steered", "count"),
    ("flight.fallbacks", "count"),
    ("flight.rollbacks", "count"),
    ("flight.journal_events", "count"),
    ("flight.journal_bytes", "count"),
    ("flight.recover_us", "us"),
    // serve
    ("serve.lookup_hit_ns_p50", "ns"),
    ("serve.lookup_miss_ns_p50", "ns"),
    ("serve.day_ns_per_request", "ns"),
    ("serve.batch_ns_p99", "ns"),
    ("serve.build_entries_us_p50", "us"),
    ("serve.publish_us_p50", "us"),
    ("serve.retire_us_p50", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.steered_ratio", "ratio"),
    ("serve.table_entries", "count"),
    ("serve.allocs_per_decision", "count"),
    // feedback
    ("feedback.ingest_ns_p50", "ns"),
    ("feedback.end_of_day_us_p50", "us"),
    ("feedback.promoted", "count"),
    ("feedback.rel_error_last_day", "ratio"),
    // scope-trace
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
];

/// Values by metric name. Setting a name outside `registry`, or twice, is
/// a bug in the benchmark and panics.
pub struct Metrics {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(registry: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            registry,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.registry.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        let previous = self.values.insert(name, value + 0.0);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Every declared metric in registry order; unset ones read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.registry
            .iter()
            .map(|&(name, unit)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
    }
}

/// What a run leaves behind: provenance, the metrics, the operation counts
/// and every violated invariant.
pub struct Outcome {
    pub provenance: Vec<(&'static str, String)>,
    /// Free-form lines for the reader (per-pass values, sample counts).
    pub notes: Vec<String>,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The contract's result: one JSON object on one line.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.metrics.rows().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Everything, for a reader: provenance, notes, every metric by name
    /// with its unit, violations, and the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let provenance: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "# {}", provenance.join(" "));
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, unit, value) in self.metrics.rows() {
            let _ = writeln!(out, "{name:<40} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for v in &self.violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for w in crate::Workload::ALL {
            assert!(name_ok(w.name()), "bad workload name {}", w.name());
            assert!(seen.insert(w.name()), "name {} used twice", w.name());
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_lists_every_metric_once_and_unset_ones_read_zero() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 1.25);
        let outcome = Outcome {
            provenance: Vec::new(),
            notes: Vec::new(),
            metrics,
            attempted: 3,
            failed: 0,
            violations: Vec::new(),
        };
        let line = outcome.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Metrics::new(END_TO_END).set("nonsense", 1.0);
    }
}
