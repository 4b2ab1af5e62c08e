//! Counting global allocator: allocation calls, bytes requested, live
//! bytes and their high-water mark.
//!
//! Every block goes straight to `System` — no recycling of large blocks
//! (unlike `perf_report`'s allocator), because users of the library do not
//! have one: `peak_heap_bytes` and the page-fault cost of fresh multi-MiB
//! buffers are what they actually pay.

// A counting `GlobalAlloc` cannot be written without implementing an
// unsafe trait; nothing here touches the pointers beyond forwarding them.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let size = l.size() as u64;
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Relaxed);
        // SAFETY: `p` came from `System.alloc` with this layout.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot { allocs: ALLOCS.load(Relaxed), bytes: BYTES.load(Relaxed) }
}

/// Restarts the high-water mark from the bytes live now and returns that
/// baseline; [`peak_above`] then reports growth beyond it.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// High-water mark of live bytes since [`reset_peak`], above `baseline`.
pub fn peak_above(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}
