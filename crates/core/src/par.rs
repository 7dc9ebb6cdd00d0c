//! Scoped-thread fan-out with panic isolation.
//!
//! The discovery pipeline, the serving layer and the bench harness all fan
//! work out through it. Workers claim items from a shared atomic index —
//! one at a time when the items are few, in small blocks when they are
//! many — so a worker that drew a slow item does not leave the others
//! idle (discovery's per-job work ranges over two orders of magnitude),
//! and a panic loses only its own item. Results are collected **in item
//! order** regardless of worker count, which is what makes parallel
//! discovery bit-identical to serial runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fan `items` out over available cores and collect the mapped results in
/// item order. An item whose `map` panics is logged (with `describe`) and
/// dropped alone — every other item's result survives, so one poisoned
/// job cannot abort a whole experiment.
pub fn run_chunked<T, U, F, D>(items: &[T], map: F, describe: D) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync,
    D: Fn(&T) -> String,
{
    run_chunked_on(items, available_threads(), map, describe)
}

/// The default worker count: one per available core.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// About how many claims each worker makes: a claim is
/// `max(1, len / (workers · CLAIMS_PER_WORKER))` items, so the claim's
/// atomic add is amortised over a long run of cheap items. Claiming (and
/// catching) every item alone made `serve-hot` and `serve-churn` (batches
/// of 10 000 sub-microsecond decisions on one worker) 13 % and 12 % slower
/// in `ops_per_s`, worse in 10 of 10 and 9 of 10 alternating pairs.
/// Discovery's analysis stage (under 200 jobs of milliseconds each) is
/// still handed out one job at a time.
const CLAIMS_PER_WORKER: usize = 64;

/// [`run_chunked`] with an explicit worker count (exposed for tests and
/// sweeps, which must not depend on the machine's core count). Each of the
/// `n_threads` workers claims the next unclaimed items from a shared index
/// until none is left.
pub(crate) fn run_chunked_on<T, U, F, D>(
    items: &[T],
    n_threads: usize,
    map: F,
    describe: D,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync,
    D: Fn(&T) -> String,
{
    if items.is_empty() {
        return Vec::new();
    }
    let n_threads = n_threads.clamp(1, items.len());
    let block = (items.len() / (n_threads * CLAIMS_PER_WORKER)).max(1);
    let next = AtomicUsize::new(0);
    let (mut runs, mut panicked) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_threads)
            .map(|_| {
                let (map, next) = (&map, &next);
                s.spawn(move || claim_and_map(items, block, next, map))
            })
            .collect();
        for worker in workers {
            let (worker_runs, worker_panicked) = worker
                .join()
                .expect("the claim loop cannot panic: every `map` call is caught");
            runs.extend(worker_runs);
            panicked.extend(worker_panicked);
        }
    });
    panicked.sort_unstable();
    for i in panicked {
        eprintln!(
            "warning: a worker panicked on {}; dropping that item",
            describe(&items[i])
        );
    }
    runs.sort_unstable_by_key(|&(first, _)| first);
    let mut out = Vec::with_capacity(items.len());
    for (_, mapped) in runs {
        out.extend(mapped);
    }
    out
}

/// One worker's loop: claim `block` items at a time from `next` and map
/// them in order. Returns one run per claim — its first item's index and
/// its mapped results — and the indices of the items whose `map` panicked.
/// A panic unwinds to this loop, which goes on with the claim's next item;
/// `catch_unwind` is entered once per panic, not once per item.
fn claim_and_map<T, U>(
    items: &[T],
    block: usize,
    next: &AtomicUsize,
    map: impl Fn(&T) -> Option<U>,
) -> (Vec<(usize, Vec<U>)>, Vec<usize>) {
    let (mut runs, mut panicked) = (Vec::new(), Vec::new());
    // The claimed items not mapped yet: `pos..stop`.
    let (mut pos, mut stop) = (0, 0);
    while catch_unwind(AssertUnwindSafe(|| loop {
        if pos == stop {
            // The index publishes no data (items are shared read-only,
            // results come back through `join`), so a claim needs no
            // ordering beyond the counter's own atomicity.
            pos = next.fetch_add(block, Ordering::Relaxed).min(items.len());
            stop = (pos + block).min(items.len());
            if pos == stop {
                return;
            }
            runs.push((pos, Vec::with_capacity(stop - pos)));
        }
        pos += 1;
        let mapped = map(&items[pos - 1]);
        runs.last_mut()
            .expect("a claim opens a run")
            .1
            .extend(mapped);
    }))
    .is_err()
    {
        panicked.push(pos - 1);
    }
    (runs, panicked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunked_survives_a_panicking_worker() {
        // A panic loses only its own item, at any worker count, whether
        // claims are single items (64) or blocks (1 000: at one worker
        // item 13 sits inside a 15-item block, which goes on).
        for len in [64, 1_000] {
            let items: Vec<u32> = (0..len).collect();
            for n in [1, 2, 8] {
                let out = run_chunked_on(
                    &items,
                    n,
                    |&i| {
                        if i == 13 || i == 20 {
                            panic!("poisoned item");
                        }
                        Some(i * 2)
                    },
                    |&i| format!("item {i}"),
                );
                let expected: Vec<u32> = items
                    .iter()
                    .filter(|&&i| i != 13 && i != 20)
                    .map(|&i| i * 2)
                    .collect();
                assert_eq!(out, expected, "{len} items, {n} workers");
            }
        }
    }

    #[test]
    fn run_chunked_handles_empty_and_filtered_input() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_chunked(&empty, |&i| Some(i), std::string::ToString::to_string).is_empty());
        assert!(
            run_chunked_on(&empty, 4, |&i| Some(i), std::string::ToString::to_string).is_empty()
        );
        let items = [1u32, 2, 3, 4];
        let odd_only = run_chunked(
            &items,
            |&i| (i % 2 == 1).then_some(i),
            std::string::ToString::to_string,
        );
        assert_eq!(odd_only, vec![1, 3]);
    }

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        for len in [100, 1_000] {
            let items: Vec<u32> = (0..len).collect();
            for n in [1, 2, 3, 7, 16, 100] {
                let out = run_chunked_on(
                    &items,
                    n,
                    |&i| (i % 3 != 0).then_some(i * 2),
                    std::string::ToString::to_string,
                );
                let expected: Vec<u32> = items
                    .iter()
                    .filter(|&&i| i % 3 != 0)
                    .map(|&i| i * 2)
                    .collect();
                assert_eq!(out, expected, "order broke at {len} items, {n} workers");
            }
        }
    }
}
