//! Counting global allocator: live, peak and total bytes plus call count.
//!
//! The benchmark binary installs [`Counting`] as its `#[global_allocator]`
//! so every heap request made by any layer under test is visible at pass
//! and span boundaries without touching the layers themselves. The
//! counters are plain relaxed atomics: each one is a statistic that
//! publishes no other data, and load is generated from a single thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The four counters behind an allocator. Kept separate from the
/// `GlobalAlloc` impl so the arithmetic is unit-testable on a private
/// instance instead of the process-wide one.
#[derive(Debug)]
pub struct Counters {
    live: AtomicU64,
    peak: AtomicU64,
    total: AtomicU64,
    calls: AtomicU64,
}

/// A point-in-time reading of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`Counters::reset_peak`].
    pub peak: u64,
    /// Bytes ever requested (never decreases).
    pub total: u64,
    /// Allocation calls ever made (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
}

impl Counters {
    /// All-zero counters.
    pub const fn new() -> Self {
        Counters {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            total: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Accounts one allocation of `size` bytes.
    pub fn on_alloc(&self, size: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.total.fetch_add(size, Relaxed);
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
    }

    /// Accounts one deallocation of `size` bytes.
    pub fn on_dealloc(&self, size: u64) {
        self.live.fetch_sub(size, Relaxed);
    }

    /// Accounts a resize from `old` to `new` bytes: one call, and only the
    /// growth counts towards `total`.
    pub fn on_realloc(&self, old: u64, new: u64) {
        self.calls.fetch_add(1, Relaxed);
        if new >= old {
            let grown = new - old;
            self.total.fetch_add(grown, Relaxed);
            let live = self.live.fetch_add(grown, Relaxed) + grown;
            self.peak.fetch_max(live, Relaxed);
        } else {
            self.live.fetch_sub(old - new, Relaxed);
        }
    }

    /// Reads all four counters.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            total: self.total.load(Relaxed),
            calls: self.calls.load(Relaxed),
        }
    }

    /// Restarts peak tracking from the current live level.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }
}

/// `System` with every call accounted in [`COUNTERS`].
pub struct Counting;

/// The process-wide counters [`Counting`] feeds.
pub static COUNTERS: Counters = Counters::new();

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are atomic counter
// updates, which neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            COUNTERS.on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            COUNTERS.on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        COUNTERS.on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc` for `ptr`/`layout`; `new_size` is the
        // caller's, passed through unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            COUNTERS.on_realloc(layout.size() as u64, new_size as u64);
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_peak_total_and_calls_follow_the_call_sequence() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        assert_eq!(
            c.snapshot(),
            Snapshot {
                live: 50,
                peak: 150,
                total: 150,
                calls: 2
            }
        );
        c.on_realloc(50, 80); // grow: +30 live, +30 total, one call
        assert_eq!(
            c.snapshot(),
            Snapshot {
                live: 80,
                peak: 150,
                total: 180,
                calls: 3
            }
        );
        c.on_realloc(80, 10); // shrink: live drops, total unchanged
        assert_eq!(
            c.snapshot(),
            Snapshot {
                live: 10,
                peak: 150,
                total: 180,
                calls: 4
            }
        );
    }

    #[test]
    fn reset_peak_restarts_from_the_live_level() {
        let c = Counters::new();
        c.on_alloc(1000);
        c.on_dealloc(900);
        c.reset_peak();
        assert_eq!(c.snapshot().peak, 100);
        c.on_alloc(20);
        assert_eq!(c.snapshot().peak, 120);
        // Deltas between snapshots are what passes and spans report.
        let before = c.snapshot();
        c.on_alloc(5);
        c.on_alloc(7);
        let after = c.snapshot();
        assert_eq!(after.total - before.total, 12);
        assert_eq!(after.calls - before.calls, 2);
    }

    #[test]
    fn the_installed_allocator_sees_real_allocations() {
        let before = COUNTERS.snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = COUNTERS.snapshot();
        assert!(after.total - before.total >= 4096);
        assert!(after.calls > before.calls);
        drop(v);
    }
}
