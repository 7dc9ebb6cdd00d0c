//! Allocation accounting of the online path's compile: the loop compiles
//! every job's default plan every day, through `compile_job`, on a thread
//! whose compile scratch already holds the day's larger memos. Such a warm
//! compile allocates the physical plan it returns and little else: the
//! memo's slabs, the estimates' column lists, the interned operators, the
//! staged rule outputs, the selectivity cache and the observed catalog all
//! reuse the scratch's capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scope_optimizer::{compile_job, RuleConfig};
use scope_workload::{Workload, WorkloadProfile};

/// Counts the allocator calls of the thread that makes them: the tests of
/// this binary run side by side in one process.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocator calls this thread made while it ran.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What a warm compile may allocate beyond a clone of the plan it returns,
/// on average over a day of A: extraction grows the plan's node arena by
/// doubling where a clone sizes it once. Measured at 2.34 in a release
/// build, where it was 116.49 before the memo's estimates and interned
/// operators, the rewrites' outputs, normalization, the referenced
/// columns, the selectivity cache and the observed catalog reused the
/// compile scratch. A debug build also validates the plan and re-adds its
/// cost over the plan's reachable nodes: 34.12 there. A rise means some
/// part of a compile allocates per compile again.
const EXTRA_ALLOCS_PER_COMPILE: f64 = if cfg!(debug_assertions) { 36.0 } else { 4.0 };

#[test]
fn a_warm_default_compile_allocates_little_beyond_its_plan() {
    let w = Workload::generate(WorkloadProfile::workload_a(0.3));
    let jobs = w.day(1);
    let config = RuleConfig::default_config();
    // Warm this thread's compile scratch on the whole day first.
    for job in &jobs {
        let _ = compile_job(job, &config);
    }
    let (mut compiles, mut compile_allocs, mut clone_allocs) = (0u64, 0u64, 0u64);
    for job in &jobs {
        let (compiled, allocs) = allocs_of(|| compile_job(job, &config));
        let Ok(compiled) = compiled else { continue };
        let (plan, cloned) = allocs_of(|| compiled.plan.clone());
        drop(plan);
        compiles += 1;
        compile_allocs += allocs;
        clone_allocs += cloned;
    }
    assert!(compiles > 200, "vacuous: {compiles} compiles");
    let extra = (compile_allocs as f64 - clone_allocs as f64) / compiles as f64;
    eprintln!(
        "{compiles} warm compiles: {:.2} allocations each, {:.2} to clone the plan",
        compile_allocs as f64 / compiles as f64,
        clone_allocs as f64 / compiles as f64
    );
    assert!(
        extra <= EXTRA_ALLOCS_PER_COMPILE,
        "a warm compile made {extra:.2} allocations beyond a clone of its plan \
         (bound {EXTRA_ALLOCS_PER_COMPILE})"
    );
}
