//! Deterministic parallel execution for the Gear hot paths.
//!
//! Every CPU-bound loop in the conversion pipeline (fingerprinting, corpus
//! synthesis, integrity scans) has the same shape: a pure function applied
//! independently to each element of a slice. This crate runs such loops on a
//! small [`std::thread::scope`]-based pool with two guarantees the rest of
//! the workspace depends on:
//!
//! * **Order preservation** — `pool.map(&items, f)` returns results in input
//!   order, exactly as the serial `items.iter().map(f).collect()` would.
//! * **Determinism** — the work split is a pure function of `(len, workers)`,
//!   never of thread timing, so a run is bit-identical to serial regardless
//!   of scheduling. Parallelism changes *when* work happens, never *what*.
//!
//! There is no work stealing and no shared mutable state: the input is cut
//! into at most `workers` contiguous chunks, each worker owns one chunk, and
//! results are stitched back in chunk order. For the corpus/hash workloads
//! (thousands of similar-cost items) static chunking loses almost nothing to
//! stealing and keeps the reasoning trivial.
//!
//! ```
//! use gear_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Bit-identical to any other worker count, including serial.
//! assert_eq!(squares, Pool::serial().map(&[1u64, 2, 3, 4, 5], |&x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Below this many items a `map` runs serially: spawning threads costs more
/// than it saves on tiny inputs, and serial is trivially deterministic.
pub const PARALLEL_THRESHOLD: usize = 32;

/// A fixed-width deterministic job pool.
///
/// The pool owns no threads between calls — each [`Pool::map`] spawns scoped
/// workers and joins them before returning, so there is no lifecycle to
/// manage and borrowed data can flow into the closure freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_available_parallelism()
    }
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

    /// Applies `f` to every item, in parallel across the pool, returning
    /// results **in input order**. Output is bit-identical to
    /// `items.iter().map(f).collect()` for any worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.fork_join(PARALLEL_THRESHOLD, items, f)
    }

    /// Like [`Pool::map`] but with no small-input serial threshold: any
    /// two-or-more-item slice fans out across the pool.
    ///
    /// [`Pool::map`]'s [`PARALLEL_THRESHOLD`] assumes items are cheap (hash
    /// one small file, check one fingerprint), where thread spawn overhead
    /// swamps the win below a few dozen items. Block compression inverts
    /// that: a 2 MiB input is only eight 256 KiB blocks, but each block
    /// costs milliseconds — exactly the shape where eight scoped threads
    /// pay for themselves many times over. Results are returned in input
    /// order and are bit-identical to the serial map for any worker count,
    /// same as [`Pool::map`].
    pub fn map_heavy<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.fork_join(2, items, f)
    }

    /// The one fork-join body: serial below `serial_below` items, otherwise
    /// one contiguous chunk per worker, stitched back in chunk order. A
    /// worker's panic resumes on the calling thread.
    fn fork_join<T, R, F>(&self, serial_below: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() < serial_below {
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
    fn map_preserves_order_and_matches_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for workers in [1, 2, 3, 7, 8, 64] {
            let par = Pool::new(workers).map(&items, |&x| x.wrapping_mul(x) ^ 7);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn small_inputs_run_serially() {
        let items: Vec<u32> = (0..(PARALLEL_THRESHOLD as u32 - 1)).collect();
        let out = Pool::new(8).map(&items, |&x| x + 1);
        assert_eq!(out.len(), items.len());
        assert_eq!(out[0], 1);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(4).map(&empty, |&x| x).is_empty());
        assert_eq!(Pool::new(4).map(&[9u8], |&x| x * 2), vec![18]);
    }

    #[test]
    fn map_heavy_parallelizes_small_item_counts() {
        // Below PARALLEL_THRESHOLD items, map_heavy still matches serial
        // output exactly at every worker count.
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
        let out = Pool::new(2).map(&(0..100u64).collect::<Vec<_>>(), |&x| x + offset);
        assert_eq!(out[1], 42);
    }
}
