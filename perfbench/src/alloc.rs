//! Counting global allocator: live and peak heap bytes for the whole
//! process, so a run's peak heap and one compiled world's footprint can be
//! read without an external profiler.
//!
//! Each thread batches its allocation deltas and folds them into the shared
//! counters only once they pass [`BATCH`] bytes, so worker threads do not
//! contend on one cache line per allocation. Readings are therefore exact
//! to within `BATCH` bytes per running thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

const BATCH: i64 = 256 * 1024;

// Statistics only: neither counter publishes other data, so `Relaxed`
// suffices.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// A thread's not yet published allocation delta; published when the
/// thread ends.
struct Pending(Cell<i64>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(delta: i64) {
    if delta == 0 {
        return;
    }
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn account(delta: i64) {
    let batched = PENDING.try_with(|p| {
        let sum = p.0.get() + delta;
        if sum.abs() < BATCH {
            p.0.set(sum);
        } else {
            p.0.set(0);
            publish(sum);
        }
    });
    // During thread teardown the batch is gone: publish directly.
    if batched.is_err() {
        publish(delta);
    }
}

pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the accounting reads and writes only the atomics and
// the thread-local batch, never the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`
        // (every allocation goes through `alloc` above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes currently allocated, after publishing the calling thread's batch.
pub fn live() -> u64 {
    let _ = PENDING.try_with(|p| publish(p.0.replace(0)));
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// Runs `f` and returns its result with the peak heap it added on top of
/// what was live when it started, in bytes.
pub fn peak_added<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = live();
    PEAK.store(base as i64, Ordering::Relaxed);
    let out = f();
    live();
    (out, (PEAK.load(Ordering::Relaxed) as u64).saturating_sub(base))
}
