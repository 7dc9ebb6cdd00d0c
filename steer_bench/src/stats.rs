//! Order statistics over timing samples, and self time over spans.

use std::collections::HashMap;

use scope_trace::SpanEvent;

/// Nearest-rank percentile (`q` in 0..=1) of `samples`; 0 when empty, so a
/// layer that made no calls reports 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when the layer did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Self time (µs) of every span: its duration minus what its children
/// cover. A span's children are the spans naming it as parent, plus the
/// root spans of *other* threads that started while it was the innermost
/// open span of `main_thread` — the program's fan-out runs workers on
/// scoped threads while the caller blocks, so their spans have no parent
/// link of their own. With several workers at once the adopter's own
/// self time clamps to zero (it only waits) and self times add up to the
/// threads' busy time.
pub fn self_times(spans: &[SpanEvent], main_thread: u64) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_us = vec![0u64; spans.len()];

    // Parent before child on equal timestamps: ids are handed out at open.
    let mut by_start: Vec<usize> = (0..spans.len()).collect();
    by_start.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
    let mut open: Vec<usize> = Vec::new();
    for &i in &by_start {
        let s = &spans[i];
        // Main-thread spans that ended before this one started are closed.
        // Timestamps are truncated to whole µs, so a span may appear to
        // outlive its parent by one.
        while open
            .last()
            .is_some_and(|&o| spans[o].start_us + spans[o].dur_us + 1 < s.start_us)
        {
            open.pop();
        }
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            child_us[p] += s.dur_us;
        } else if s.thread != main_thread {
            if let Some(&adopter) = open.last() {
                child_us[adopter] += s.dur_us;
            }
        }
        if s.thread == main_thread {
            open.push(i);
        }
    }
    spans
        .iter()
        .zip(&child_us)
        .map(|(s, &c)| s.dur_us.saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name: "t",
            id,
            parent,
            thread,
            arg: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_and_empty_is_zero() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_linked_children() {
        // root 100µs; child 30µs with a 10µs grandchild; second child 20µs.
        let spans = vec![
            span(1, None, 0, 0, 100),
            span(2, Some(1), 0, 10, 30),
            span(3, Some(2), 0, 15, 10),
            span(4, Some(1), 0, 50, 20),
        ];
        assert_eq!(self_times(&spans, 0), vec![50, 20, 10, 20]);
    }

    #[test]
    fn worker_roots_are_adopted_by_the_innermost_open_main_span() {
        // main: pass [0,100) > stage [10,90); worker thread 1 runs two
        // parentless items inside the stage, one with its own child.
        let spans = vec![
            span(1, None, 0, 0, 100),
            span(2, Some(1), 0, 10, 80),
            span(3, None, 1, 12, 30),
            span(4, Some(3), 1, 20, 5),
            span(5, None, 1, 45, 40),
        ];
        let own = self_times(&spans, 0);
        assert_eq!(own[0], 20, "pass keeps only what the stage leaves");
        assert_eq!(own[1], 10, "stage waits while the worker runs");
        assert_eq!(own[2], 25);
        assert_eq!(own[4], 40);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root's duration"
        );
    }

    #[test]
    fn two_workers_at_once_leave_the_waiting_span_no_self_time() {
        let spans = vec![
            span(1, None, 0, 0, 100),
            span(2, None, 1, 1, 90),
            span(3, None, 2, 2, 95),
        ];
        assert_eq!(self_times(&spans, 0), vec![0, 90, 95]);
    }

    #[test]
    fn a_worker_root_outside_every_main_span_is_left_alone() {
        let spans = vec![span(1, None, 0, 0, 10), span(2, None, 1, 50, 5)];
        assert_eq!(self_times(&spans, 0), vec![10, 5]);
    }
}
