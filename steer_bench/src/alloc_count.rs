//! Allocation accounting: a wrapper around the system allocator whose
//! counting is switched by one relaxed flag. The flag is off for every
//! timed pass, so end-to-end metrics pay one relaxed load per allocation;
//! only the probes of the traced run switch it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed everywhere: the flag and the two totals are statistics and
// publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and bytes requested while `f` ran (all threads).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Keep freed memory in the process. glibc otherwise hands the top of the
/// heap back to the kernel when a batch of decisions is dropped and faults
/// it in again for the next batch — or not, depending on what happens to
/// sit above it — which made the serving workloads read 0.50 or 0.67 µs
/// per decision from one seed to the next.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets tunables of glibc's allocator, which
    // `System` is on this target; it is called once, first thing in
    // `main`, before any other thread exists. Its result is ignored: a
    // refused tunable leaves the default in place.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}
