//! Scoped-thread fan-out with panic isolation.
//!
//! The discovery pipeline, the serving layer and the bench harness all fan
//! work out through it. Results are collected **in item order** regardless
//! of worker count, which is what makes parallel discovery bit-identical
//! to serial runs.

/// Fan `items` out over available cores in contiguous chunks and collect
/// each chunk's mapped results in order. A chunk whose worker panics is
/// logged (with `describe` applied to its items) and dropped — the other
/// chunks' results survive, so one poisoned job cannot abort a whole
/// experiment.
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
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// [`run_chunked`] with an explicit worker count (exposed for tests and
/// sweeps, which must not depend on the machine's core count).
pub fn run_chunked_on<T, U, F, D>(items: &[T], n_threads: usize, map: F, describe: D) -> Vec<U>
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
    let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(n_threads)).collect();
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let map = &map;
                s.spawn(move || chunk.iter().filter_map(map).collect::<Vec<_>>())
            })
            .collect();
        for (handle, chunk) in handles.into_iter().zip(&chunks) {
            match handle.join() {
                Ok(results) => out.extend(results),
                Err(_) => {
                    let affected: Vec<String> = chunk.iter().map(&describe).collect();
                    eprintln!(
                        "warning: a worker panicked; dropping its chunk of {} items: [{}]",
                        chunk.len(),
                        affected.join(", ")
                    );
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunked_survives_a_panicking_worker() {
        // Many items → many chunks; a panic on one item loses only its own
        // chunk, never the whole run.
        let items: Vec<u32> = (0..64).collect();
        let out = run_chunked_on(
            &items,
            8,
            |&i| {
                if i == 13 {
                    panic!("poisoned item");
                }
                Some(i * 2)
            },
            |&i| format!("item {i}"),
        );
        assert!(!out.is_empty(), "surviving chunks must be kept");
        assert!(out.len() < items.len(), "the poisoned chunk is dropped");
        assert!(out.iter().all(|&v| v % 2 == 0));
        assert!(
            !out.contains(&26),
            "results from the poisoned chunk are gone"
        );
    }

    #[test]
    fn run_chunked_handles_empty_and_filtered_input() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_chunked(&empty, |&i| Some(i), std::string::ToString::to_string).is_empty());
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
        let items: Vec<u32> = (0..100).collect();
        for n in [1, 2, 3, 7, 16, 100] {
            let out = run_chunked_on(&items, n, |&i| Some(i), std::string::ToString::to_string);
            assert_eq!(out, items, "order broke at {n} workers");
        }
    }
}
