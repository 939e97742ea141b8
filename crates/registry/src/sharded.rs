//! A consistent-hash sharded Gear file store with admission control.
//!
//! [`ShardedStore`] spreads objects over N [`GearFileStore`] shards via a
//! seeded [`HashRing`] and writes each object to `replication` distinct
//! shards, so a reader can fail over when a shard is down (a scripted
//! outage, an upgrade) without losing a single deployment. Each shard
//! carries a bounded admission queue: a driver with concurrent requests in
//! flight takes a token per request ([`ShardedStore::try_admit`]) and a
//! full queue yields a typed [`ShardRejection::Overloaded`] — the condition
//! gear-p2p's `FleetSim` answers with a seeded `RetryPolicy` back-off once
//! every replica has refused.
//!
//! The store itself is synchronous and instantaneous; *time* (queueing
//! delay, service time) is priced by the event-driven fleet simulator in
//! gear-p2p, which holds admission tokens for the simulated duration of
//! each transfer.

use std::error::Error;
use std::fmt;

use bytes::Bytes;
use gear_hash::Fingerprint;

use crate::filestore::{GearFileStore, UploadError, UploadOutcome};
use crate::ring::HashRing;

/// Virtual points per shard — enough to keep per-shard keyspace arcs
/// within a few percent of `1/shards`.
pub const DEFAULT_VNODES: u32 = 128;

/// Default bound on concurrently admitted requests per shard.
pub const DEFAULT_QUEUE_DEPTH: u32 = 64;

/// Why a shard refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRejection {
    /// The shard's admission queue is full; retry after backoff.
    Overloaded,
    /// The shard is down (outage or upgrade); fail over to a replica.
    Down,
}

impl fmt::Display for ShardRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardRejection::Overloaded => write!(f, "shard admission queue is full"),
            ShardRejection::Down => write!(f, "shard is down"),
        }
    }
}

impl Error for ShardRejection {}

/// Per-shard counters exposed by [`ShardedStore::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Objects resident on the shard (replicas count once per shard).
    pub objects: usize,
    /// Requests admitted through the queue.
    pub admitted: u64,
    /// Requests rejected with [`ShardRejection::Overloaded`].
    pub rejected: u64,
    /// Whether the shard is currently down.
    pub down: bool,
    /// Requests currently holding admission tokens.
    pub in_flight: u32,
}

#[derive(Debug)]
struct Shard {
    store: GearFileStore,
    in_flight: u32,
    admitted: u64,
    rejected: u64,
    down: bool,
}

/// A replicated, consistent-hash sharded registry store.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    ring: HashRing,
    replication: usize,
    max_queue: u32,
    failovers: u64,
}

impl ShardedStore {
    /// Builds `shards` empty shards behind a seeded ring, writing each
    /// object to `replication` distinct shards (clamped to the shard
    /// count), with the default admission queue depth.
    pub fn new(shards: u32, replication: usize, seed: u64) -> Self {
        let shards_vec = (0..shards)
            .map(|_| Shard {
                store: GearFileStore::new(),
                in_flight: 0,
                admitted: 0,
                rejected: 0,
                down: false,
            })
            .collect();
        ShardedStore {
            shards: shards_vec,
            ring: HashRing::new(shards, DEFAULT_VNODES, seed),
            replication: replication.clamp(1, shards as usize),
            max_queue: DEFAULT_QUEUE_DEPTH,
            failovers: 0,
        }
    }

    /// Bounds each shard's admission queue (concurrently held tokens).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.max_queue = depth.max(1);
        self
    }

    /// The ring assigning keys to shards.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Shards in the store.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Replicas written per object.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The shards holding `fingerprint`, primary first.
    pub fn replicas_for(&self, fingerprint: Fingerprint) -> Vec<u32> {
        self.ring.replicas(fingerprint, self.replication)
    }

    /// Marks a shard down (scripted outage / upgrade) or back up. Tokens
    /// held across the transition stay counted; new admissions are refused
    /// while down.
    pub fn set_down(&mut self, shard: u32, down: bool) {
        self.shards[shard as usize].down = down;
    }

    /// Takes an admission token on `shard`.
    ///
    /// # Errors
    ///
    /// [`ShardRejection::Down`] when the shard is out of service,
    /// [`ShardRejection::Overloaded`] when its queue is full.
    pub fn try_admit(&mut self, shard: u32) -> Result<(), ShardRejection> {
        let s = &mut self.shards[shard as usize];
        if s.down {
            return Err(ShardRejection::Down);
        }
        if s.in_flight >= self.max_queue {
            s.rejected += 1;
            return Err(ShardRejection::Overloaded);
        }
        s.in_flight += 1;
        s.admitted += 1;
        Ok(())
    }

    /// Returns an admission token taken with [`ShardedStore::try_admit`].
    pub fn release(&mut self, shard: u32) {
        let s = &mut self.shards[shard as usize];
        debug_assert!(s.in_flight > 0, "release without admit");
        s.in_flight = s.in_flight.saturating_sub(1);
    }

    /// Stores `content` on every *up* replica shard.
    ///
    /// Returns the primary's outcome (or the first up replica's, when the
    /// primary is down). Uploads bypass admission control: writes are the
    /// publish path, sized in advance, while admission bounds the flash
    /// crowd's read path.
    ///
    /// # Errors
    ///
    /// `Some(Err(`[`UploadError::FingerprintMismatch`]`))` when `content`
    /// does not hash to `fingerprint`; `None` when every replica shard is
    /// down and nothing could be written.
    pub fn upload(
        &mut self,
        fingerprint: Fingerprint,
        content: &Bytes,
    ) -> Option<Result<UploadOutcome, UploadError>> {
        let mut first = None;
        for shard in self.replicas_for(fingerprint) {
            let s = &mut self.shards[shard as usize];
            if s.down {
                continue;
            }
            let outcome = s.store.upload(fingerprint, content.clone());
            if let Err(error) = &outcome {
                // A corrupt upload is corrupt on every replica; stop early.
                return Some(Err(error.clone()));
            }
            if first.is_none() {
                first = Some(outcome);
            }
        }
        first
    }

    /// Fetches `fingerprint`, failing over across replicas: the primary is
    /// tried first, then each further replica in ring order, skipping down
    /// shards. Returns the serving shard alongside the bytes.
    pub fn download(&mut self, fingerprint: Fingerprint) -> Option<(u32, Bytes)> {
        let replicas = self.replicas_for(fingerprint);
        for (rank, shard) in replicas.iter().copied().enumerate() {
            if self.shards[shard as usize].down {
                continue;
            }
            if let Some(bytes) = self.shards[shard as usize].store.download(fingerprint) {
                if rank > 0 {
                    self.failovers += 1;
                }
                return Some((shard, bytes));
            }
        }
        None
    }

    /// Wire size of `fingerprint` on the first up replica that has it.
    pub fn transfer_size(&self, fingerprint: Fingerprint) -> Option<u64> {
        self.replicas_for(fingerprint).into_iter().find_map(|shard| {
            let s = &self.shards[shard as usize];
            if s.down {
                None
            } else {
                s.store.transfer_size(fingerprint)
            }
        })
    }

    /// Reads that were served by a non-primary replica.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Per-shard counters, indexed by shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                objects: s.store.object_count(),
                admitted: s.admitted,
                rejected: s.rejected,
                down: s.down,
                in_flight: s.in_flight,
            })
            .collect()
    }

    /// Max over min per-shard object count — the shard-balance bound gated
    /// by `repro fleet` (1.0 = perfectly even). Shards with zero objects
    /// make the ratio infinite; an empty store reports 1.0.
    pub fn balance_ratio(&self) -> f64 {
        let counts: Vec<usize> = self.shards.iter().map(|s| s.store.object_count()).collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(i: u32) -> Bytes {
        Bytes::from(format!("object {i} payload").into_bytes())
    }

    fn populated(objects: u32) -> ShardedStore {
        let mut store = ShardedStore::new(4, 2, 7);
        for i in 0..objects {
            let content = body(i);
            let fp = Fingerprint::of(&content);
            store.upload(fp, &content).unwrap().unwrap();
        }
        store
    }

    #[test]
    fn objects_replicate_to_distinct_shards() {
        let store = populated(100);
        let per_shard: usize = store.shard_stats().iter().map(|s| s.objects).sum();
        assert_eq!(per_shard, 200, "100 objects × 2 replicas");
    }

    #[test]
    fn reads_fail_over_when_the_primary_is_down() {
        let mut store = populated(50);
        for i in 0..50 {
            let content = body(i);
            let fp = Fingerprint::of(&content);
            let primary = store.replicas_for(fp)[0];
            store.set_down(primary, true);
            let (served_by, bytes) = store.download(fp).expect("replica must serve");
            assert_ne!(served_by, primary);
            assert_eq!(bytes, content);
            store.set_down(primary, false);
        }
        assert_eq!(store.failovers(), 50);
    }

    #[test]
    fn every_replica_down_loses_the_read() {
        let mut store = populated(10);
        let content = body(3);
        let fp = Fingerprint::of(&content);
        for shard in store.replicas_for(fp) {
            store.set_down(shard, true);
        }
        assert_eq!(store.download(fp), None);
        assert_eq!(store.transfer_size(fp), None);
    }

    #[test]
    fn admission_queue_bounds_in_flight_requests() {
        let mut store = ShardedStore::new(2, 1, 7).with_queue_depth(3);
        for _ in 0..3 {
            store.try_admit(0).unwrap();
        }
        assert_eq!(store.try_admit(0), Err(ShardRejection::Overloaded));
        assert_eq!(store.shard_stats()[0].rejected, 1);
        store.release(0);
        store.try_admit(0).unwrap();
        assert_eq!(store.shard_stats()[0].in_flight, 3);
        // The other shard's queue is independent.
        store.try_admit(1).unwrap();
    }

    #[test]
    fn down_shards_refuse_admission_typed() {
        let mut store = ShardedStore::new(2, 1, 7);
        store.set_down(1, true);
        assert_eq!(store.try_admit(1), Err(ShardRejection::Down));
        store.set_down(1, false);
        assert!(store.try_admit(1).is_ok());
    }

    #[test]
    fn balance_stays_bounded_across_shards() {
        let store = populated(400);
        let ratio = store.balance_ratio();
        assert!(ratio.is_finite() && ratio < 1.8, "shard balance ratio {ratio}");
    }

    #[test]
    fn corrupt_uploads_are_rejected_everywhere() {
        let mut store = ShardedStore::new(4, 2, 7);
        let claimed = Fingerprint::of(b"what the client claimed");
        let result = store.upload(claimed, &Bytes::from_static(b"different bytes"));
        assert!(matches!(result, Some(Err(UploadError::FingerprintMismatch { .. }))));
        assert!(store.shard_stats().iter().all(|s| s.objects == 0));
    }

    #[test]
    fn uploads_survive_a_down_replica_and_heal_nothing_silently() {
        let mut store = ShardedStore::new(4, 2, 7);
        let content = body(9);
        let fp = Fingerprint::of(&content);
        let primary = store.replicas_for(fp)[0];
        store.set_down(primary, true);
        store.upload(fp, &content).unwrap().unwrap();
        store.set_down(primary, false);
        // The primary missed the write; the surviving replica serves it.
        let (served_by, bytes) = store.download(fp).expect("replica serves");
        assert_eq!(bytes, content);
        assert_ne!(served_by, primary);
    }
}
