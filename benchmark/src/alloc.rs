//! Counting global allocator: exact live/peak heap bytes and allocation
//! counts for `peak_heap_mb` and `alloc.*`.
//!
//! This is the benchmark's only `unsafe`; the workspace crates stay
//! `forbid(unsafe_code)`. Counters are process-wide statistics that
//! publish no other data, so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with counters around it.
pub struct Counting;

fn grew(size: u64) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` as for `dealloc` and
        // a valid non-zero `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapStats {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations since process start (`realloc` counts as one).
    pub count: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// Read the counters.
pub fn stats() -> HeapStats {
    HeapStats {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restart peak tracking from the current live size (called between reps).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
