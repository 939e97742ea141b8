//! Deterministic parallel execution for batch fingerprinting.
//!
//! Product code is serial: every pool a product path builds is
//! [`Pool::serial`]. The one parallel path left is
//! `gear_hash::fingerprint_all` over a wider pool, which a host-rate
//! benchmark runs to report how MD5 scales with cores (the paper notes
//! conversion "can be shorter … using multiple threads", §V-B). Hashing a
//! batch is the one loop whose items are large and independent enough to
//! pay for threads; every other loop in the workspace runs over objects
//! smaller than a thread spawn is worth.
//!
//! [`Pool::map_heavy`] runs such a loop on [`std::thread::scope`] workers
//! with two guarantees:
//!
//! * **Order preservation** — results come back in input order, exactly as
//!   the serial `items.iter().map(f).collect()` would.
//! * **Determinism** — the work split is a pure function of `(len, workers)`,
//!   never of thread timing, so a run is bit-identical to serial regardless
//!   of scheduling. Parallelism changes *when* work happens, never *what*.
//!
//! There is no work stealing and no shared mutable state: the input is cut
//! into at most `workers` contiguous chunks, each worker owns one chunk, and
//! results are stitched back in chunk order.
//!
//! ```
//! use gear_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map_heavy(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Bit-identical to any other worker count, including serial.
//! assert_eq!(squares, Pool::serial().map_heavy(&[1u64, 2, 3, 4, 5], |&x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A fixed-width deterministic job pool.
///
/// The pool owns no threads between calls — each [`Pool::map_heavy`] spawns
/// scoped workers and joins them before returning, so there is no lifecycle
/// to manage and borrowed data can flow into the closure freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// A pool that runs everything on the calling thread.
    pub fn serial() -> Self {
        Pool { workers: 1 }
    }

    /// A pool sized to the host's available parallelism (1 if unknown).
    pub fn with_available_parallelism() -> Self {
        Pool::new(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning results **in input order**:
    /// serially on a one-worker pool, otherwise one contiguous chunk per
    /// worker, stitched back in chunk order. Any two-or-more-item slice fans
    /// out, so the items should each be worth a thread — a caller batches
    /// small items into shares first, as `fingerprint_all` does. Output is
    /// bit-identical to `items.iter().map(f).collect()` for any worker
    /// count. A worker's panic resumes on the calling thread.
    pub fn map_heavy<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() < 2 {
            return items.iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(self.workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|slice| scope.spawn(|| slice.iter().map(&f).collect::<Vec<R>>()))
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_heavy_parallelizes_small_item_counts() {
        // Two or more items fan out, and match serial output exactly at
        // every worker count.
        let items: Vec<u64> = (0..8).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 31 + 1).collect();
        for workers in [1, 2, 3, 8, 16] {
            let par = Pool::new(workers).map_heavy(&items, |&x| x * 31 + 1);
            assert_eq!(par, serial, "workers={workers}");
        }
        assert!(Pool::new(4).map_heavy(&Vec::<u8>::new(), |&x| x).is_empty());
        assert_eq!(Pool::new(4).map_heavy(&[5u8], |&x| x + 1), vec![6]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
    }

    #[test]
    fn borrowed_context_flows_into_closures() {
        let offset = 41u64;
        let out = Pool::new(2).map_heavy(&(0..100u64).collect::<Vec<_>>(), |&x| x + offset);
        assert_eq!(out[1], 42);
    }
}
