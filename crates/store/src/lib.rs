//! Content-addressed blob storage for the Gear reproduction.
//!
//! Gear's value proposition is file-granularity sharing of content-addressed
//! objects between the registry pool, the client cache, and peer nodes. This
//! crate is the single storage abstraction all three consume: a [`BlobStore`]
//! trait keyed by [`Fingerprint`], with composable implementations:
//!
//! * [`MemStore`] — the capacity-bounded in-memory cache with O(log n)
//!   BTreeSet-indexed eviction (FIFO/LRU) and pinning — the client's
//!   level-1 shared cache;
//! * [`DiskStore`] — a [`MemStore`] whose reads and writes accrue simulated
//!   I/O time from a deterministic [`DiskModel`](gear_simnet::DiskModel),
//!   so tier placement has priced latency ([`BlobStore::drain_cost`] hands
//!   the accrued time to the caller's clock);
//! * [`TieredStore`] — L1 memory over L2 modeled disk with write-through and
//!   promotion-on-hit policies.
//!
//! Those three are every store shape: what a client configuration builds
//! and what a [`StoreSnapshot`] carries across a live upgrade. Each cache has
//! one owner and is reached through `&mut`, so nothing here locks or shards —
//! placing blobs on servers is `gear_registry::ShardedStore`'s job.
//!
//! The crate is dependency-free in the external sense: it builds from the
//! workspace (`gear-hash`, `gear-simnet`, `gear-par`) and the vendored
//! `bytes` only.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;

mod disk;
pub mod journal;
mod mem;
pub mod snapshot;
mod stats;
mod tiered;

pub use disk::DiskStore;
pub use journal::{JournalMedia, JournalRecord, RecoveryReport};
pub use mem::{EvictionPolicy, MemStore};
pub use snapshot::{
    DiskSnapshot, EntrySnapshot, MemSnapshot, SnapshotError, StoreSnapshot, TieredSnapshot,
};
pub use stats::StoreStats;
pub use tiered::TieredStore;

/// A content-addressed blob store keyed by MD5 fingerprint.
///
/// The trait is object-safe: consumers hold a `Box<dyn BlobStore>` and swap
/// flat, disk, or tiered backends without code changes. Semantics every
/// implementation upholds:
///
/// * [`contains`](BlobStore::contains) and [`peek`](BlobStore::peek) are
///   **pure reads** — no recency update, no hit/miss accounting — so
///   residency probes and side-channel reads never perturb eviction order.
/// * [`get`](BlobStore::get) records a hit or miss and refreshes recency,
///   even for pinned entries (pinning grants immunity from eviction, not
///   exemption from recency tracking).
/// * [`put`](BlobStore::put) deduplicates by fingerprint and returns whether
///   the blob is resident afterwards; bounded stores evict unpinned blobs to
///   make room and reject blobs larger than their whole capacity.
/// * Simulated storage cost accrues inside the store and is handed to the
///   caller's clock through [`drain_cost`](BlobStore::drain_cost); a pure
///   in-memory store accrues nothing.
pub trait BlobStore: fmt::Debug + Send {
    /// Whether the blob is resident. A pure read (see trait docs).
    fn contains(&self, fingerprint: Fingerprint) -> bool;

    /// Reads the blob without touching recency or hit/miss accounting, and
    /// without accruing storage cost — the side-channel read used by pure
    /// accessors (dedup checks, wire-size queries, integrity tooling).
    fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes>;

    /// Looks the blob up, recording a hit or miss and refreshing recency.
    fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes>;

    /// Stores the blob (no-op if present), evicting unpinned blobs as
    /// needed. Returns whether the blob is resident afterwards.
    fn put(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool;

    /// Pins the blob (one reference); pinned blobs are never evicted.
    fn pin(&mut self, fingerprint: Fingerprint);

    /// Releases one pin; on the last release the blob rejoins the eviction
    /// order at its current recency.
    fn unpin(&mut self, fingerprint: Fingerprint);

    /// Evicts the policy's current victim, returning its fingerprint and
    /// size; `None` when everything resident is pinned (or the store is
    /// empty).
    fn evict(&mut self) -> Option<(Fingerprint, u64)>;

    /// Accounting so far (hit/miss/eviction counters plus residency gauges).
    fn stats(&self) -> StoreStats;

    /// Integrity scan: re-hashes every blob and returns the fingerprints
    /// whose content no longer matches, sorted (empty = clean).
    fn verify(&self) -> Vec<Fingerprint>;

    /// Resident blob count.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes.
    fn bytes(&self) -> u64;

    /// Drops every blob but keeps statistics (the paper's cold-cache
    /// experiment setup).
    fn clear(&mut self);

    /// Simulated storage time accrued since the last drain. Callers fold
    /// this into their deterministic clock; memory-only stores return zero.
    fn drain_cost(&mut self) -> Duration {
        Duration::ZERO
    }

    /// Resident bytes split `(memory tier, disk tier)`; single-tier stores
    /// report everything in their native tier.
    fn tier_bytes(&self) -> (u64, u64) {
        (self.bytes(), 0)
    }

    /// Whether a journaled store's planned power cut has fired, leaving the
    /// store inert until recovered (see
    /// [`DiskStore::recover`](crate::DiskStore::recover)). Stores without
    /// crash wiring are never crashed.
    fn is_crashed(&self) -> bool {
        false
    }

    /// The store's complete state for live-upgrade handoff:
    /// [`StoreSnapshot::restore`] rehydrates an instance that behaves
    /// tick-for-tick identically (see [`crate::snapshot`]).
    fn snapshot(&self) -> StoreSnapshot;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn fp(n: u8) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    #[test]
    fn default_tier_bytes_is_all_memory() {
        let mut store = MemStore::new();
        store.insert(fp(1), Bytes::from_static(b"abcd"));
        let store: &dyn BlobStore = &store;
        assert_eq!(store.tier_bytes(), (4, 0));
    }
}
