//! Placement and admission control for a consistent-hash sharded registry.
//!
//! [`ShardedStore`] places every object on `replication` distinct shards
//! via a seeded [`HashRing`], so a reader can fail over when a shard is down
//! (a scripted outage, an upgrade) without losing a single deployment. Each
//! shard carries a bounded admission queue: a driver with concurrent
//! requests in flight takes a token per request ([`ShardedStore::try_admit`])
//! and a full queue yields a typed [`ShardRejection::Overloaded`] — the
//! condition gear-p2p's `FleetSim` answers with a seeded `RetryPolicy`
//! back-off once every replica has refused.
//!
//! The store holds no object bodies and prices nothing: *what* a shard
//! serves and *how long* it takes (queueing delay, service time) is the
//! event-driven fleet simulator's, which holds admission tokens for the
//! simulated duration of each transfer.

use std::error::Error;
use std::fmt;

use gear_hash::Fingerprint;

use crate::ring::HashRing;

/// Virtual points per shard — enough to keep per-shard keyspace arcs
/// within a few percent of `1/shards`.
pub const DEFAULT_VNODES: u32 = 128;

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

/// One shard's admission state, exposed by [`ShardedStore::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests admitted through the queue.
    pub admitted: u64,
    /// Requests rejected with [`ShardRejection::Overloaded`].
    pub rejected: u64,
    /// Whether the shard is currently down.
    pub down: bool,
    /// Requests currently holding admission tokens.
    pub in_flight: u32,
}

/// Replica placement and per-shard admission for a sharded registry.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<ShardStats>,
    ring: HashRing,
    replication: usize,
    max_queue: u32,
}

impl ShardedStore {
    /// Places objects on `shards` shards behind a seeded ring, each on
    /// `replication` distinct shards (clamped to the shard count), with at
    /// most `queue_depth` (at least 1) admitted requests per shard at once.
    pub fn new(shards: u32, replication: usize, queue_depth: u32, seed: u64) -> Self {
        ShardedStore {
            shards: vec![ShardStats::default(); shards as usize],
            ring: HashRing::new(shards, DEFAULT_VNODES, seed),
            replication: replication.clamp(1, shards as usize),
            max_queue: queue_depth.max(1),
        }
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

    /// Per-shard counters, indexed by shard id.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_queue_bounds_in_flight_requests() {
        let mut store = ShardedStore::new(2, 1, 3, 7);
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
        let mut store = ShardedStore::new(2, 1, 64, 7);
        store.set_down(1, true);
        assert_eq!(store.try_admit(1), Err(ShardRejection::Down));
        store.set_down(1, false);
        assert!(store.try_admit(1).is_ok());
    }
}
