//! L1 memory over L2 modeled disk.
//!
//! The "Bounded-Memory Parallel Image Pulling" line of work (PAPERS.md)
//! shows tiered memory/disk staging is what makes large-image pulls scale;
//! this store brings that shape to the Gear client. The L2 [`DiskStore`] is
//! **authoritative**: capacity, pinning, eviction policy, and hit/miss
//! accounting all live there, and the L1 [`MemStore`] is strictly a
//! residency accelerator holding copies of recently touched blobs
//! (invariant: L1 ⊆ L2).
//!
//! Policies:
//!
//! * **Write-through** — [`put`](BlobStore::put) lands in L2 first (paying
//!   the modeled write) and the fresh copy is kept in L1.
//! * **Promotion on hit** — a lookup that misses L1 but hits L2 pays the
//!   modeled read and installs the blob in L1.
//! * **Recency sync** — a lookup answered from L1 still refreshes the
//!   blob's recency in L2 (a free metadata touch), so L2 makes the same
//!   replacement decisions a flat store would.
//! * **Invalidation** — when L2 evicts (capacity pressure or explicit
//!   [`evict`](BlobStore::evict)), any L1 copy is dropped with it.
//!
//! Because of those rules, a `TieredStore` with an unbounded L1 is
//! *observably identical* to a flat [`MemStore`] with the L2's capacity —
//! same hit set, same final contents, same stats — which the crate's
//! property tests pin down. Bounding L1 only changes where hits are served
//! from (and therefore the accrued disk time), never what hits.

use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::DiskModel;

use crate::{BlobStore, DiskStore, EvictionPolicy, MemStore, StoreStats};

/// A two-tier blob store: bounded L1 memory in front of an authoritative
/// L2 on modeled disk.
#[derive(Debug)]
pub struct TieredStore {
    l1: MemStore,
    l2: DiskStore,
    /// Scratch for L2 eviction victims (reused across puts).
    evicted: Vec<Fingerprint>,
}

impl TieredStore {
    /// A tiered store: `l1_capacity` bytes of memory (`None` = unbounded)
    /// over an L2 of `l2_capacity` bytes on `model`. Both tiers use
    /// `policy`; `byte_scale` maps stored bytes to modeled real bytes as in
    /// [`DiskStore::new`].
    pub fn new(
        policy: EvictionPolicy,
        l1_capacity: Option<u64>,
        l2_capacity: Option<u64>,
        model: DiskModel,
        byte_scale: u64,
    ) -> Self {
        TieredStore {
            l1: MemStore::with_policy(policy, l1_capacity),
            l2: DiskStore::new(policy, l2_capacity, model, byte_scale),
            evicted: Vec::new(),
        }
    }

    /// Composes a tiered store from pre-built tiers — how a harness mounts a
    /// journaled/crashing [`DiskStore`] (built via
    /// [`DiskStore::with_journal`]) under an L1, and how snapshots
    /// rehydrate.
    pub fn from_parts(l1: MemStore, l2: DiskStore) -> Self {
        TieredStore { l1, l2, evicted: Vec::new() }
    }

    /// Replaces the L2 crash plan (no-op when L2 has no journal).
    pub fn set_crash_plan(&mut self, plan: gear_simnet::CrashPlan) {
        self.l2.set_crash_plan(plan);
    }

    /// The L2 journal media, when one is attached.
    pub fn journal_media(&self) -> Option<crate::JournalMedia> {
        self.l2.journal_media()
    }

    /// Rehydrates a snapshot; the result behaves tick-for-tick identically
    /// (see [`crate::snapshot`]).
    pub fn restore(snapshot: &crate::TieredSnapshot) -> Self {
        TieredStore::from_parts(MemStore::restore(&snapshot.l1), DiskStore::restore(&snapshot.l2))
    }

    /// L1 is volatile: the moment L2's planned power cut fires, the memory
    /// tier's contents are lost with the machine.
    fn drop_l1_on_crash(&mut self) {
        if self.l2.is_crashed() && !self.l1.is_empty() {
            self.l1.clear();
        }
    }
}

impl BlobStore for TieredStore {
    fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.l2.contains(fingerprint)
    }

    fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        // L1 holds byte-identical copies; prefer it, fall back to L2.
        self.l1.peek(fingerprint).or_else(|| self.l2.peek(fingerprint))
    }

    fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes> {
        if self.l2.is_crashed() {
            return None;
        }
        if let Some(content) = self.l1.get(fingerprint) {
            // Served from memory: free, but L2's replacement order must
            // advance exactly as a flat store's would.
            self.l2.touch(fingerprint);
            return Some(content);
        }
        let content = self.l2.get(fingerprint)?;
        self.l1.insert(fingerprint, content.clone());
        Some(content)
    }

    fn put(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool {
        // Write-through: L2 decides residency; its victims leave L1 too.
        self.evicted.clear();
        let resident =
            self.l2.insert_recording(fingerprint, content.clone(), &mut self.evicted);
        for victim in self.evicted.drain(..) {
            self.l1.remove(victim);
        }
        // A cut during the write-through tears the L1 install away with the
        // rest of volatile memory; the ack still follows L2's commit.
        if self.l2.is_crashed() {
            self.drop_l1_on_crash();
        } else if resident {
            self.l1.insert(fingerprint, content);
        }
        resident
    }

    fn pin(&mut self, fingerprint: Fingerprint) {
        // Pins guard residency, which is L2's business; an L1 copy may
        // still be displaced (the blob stays resident in L2).
        self.l2.pin(fingerprint);
        self.drop_l1_on_crash();
    }

    fn unpin(&mut self, fingerprint: Fingerprint) {
        self.l2.unpin(fingerprint);
        self.drop_l1_on_crash();
    }

    fn evict(&mut self) -> Option<(Fingerprint, u64)> {
        let evicted = self.l2.evict();
        self.drop_l1_on_crash();
        let (victim, len) = evicted?;
        self.l1.remove(victim);
        Some((victim, len))
    }

    fn stats(&self) -> StoreStats {
        // L2 is authoritative for everything except where hits were served
        // from; fold L1's hit count in so total hits match a flat store.
        let mut stats = self.l2.stats();
        stats.hits += self.l1.stats().hits;
        stats
    }

    fn verify(&self) -> Vec<Fingerprint> {
        self.l2.verify()
    }

    fn len(&self) -> usize {
        self.l2.len()
    }

    fn bytes(&self) -> u64 {
        self.l2.bytes()
    }

    fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
    }

    fn drain_cost(&mut self) -> Duration {
        self.l2.drain_cost()
    }

    fn tier_bytes(&self) -> (u64, u64) {
        (self.l1.bytes(), self.l2.bytes())
    }

    fn is_crashed(&self) -> bool {
        self.l2.is_crashed()
    }

    fn snapshot(&self) -> crate::StoreSnapshot {
        crate::StoreSnapshot::Tiered(crate::TieredSnapshot {
            l1: self.l1.snapshot_parts(),
            l2: self.l2.snapshot_parts(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u8) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    fn body(n: u8, len: usize) -> Bytes {
        Bytes::from(vec![n; len])
    }

    fn tiered(l1: Option<u64>, l2: Option<u64>) -> TieredStore {
        TieredStore::new(EvictionPolicy::Lru, l1, l2, DiskModel::ssd(), 1)
    }

    #[test]
    fn l1_hits_are_free_l2_hits_are_priced() {
        let mut t = tiered(Some(100), None);
        t.put(fp(1), body(1, 50));
        t.drain_cost(); // discard the write-through cost
        assert!(t.get(fp(1)).is_some());
        assert_eq!(t.drain_cost(), Duration::ZERO, "L1 hit moves no disk data");
        // Push the blob out of L1 (but not out of unbounded L2).
        t.put(fp(2), body(2, 60));
        t.drain_cost();
        assert_eq!(t.tier_bytes(), (60, 110), "L1 displaced the older blob");
        assert!(t.get(fp(1)).is_some(), "still resident in L2");
        assert_eq!(t.drain_cost(), DiskModel::ssd().io_time(50, 1), "L2 hit pays a read");
        // Promotion put it back in memory: the next lookup is free again.
        assert!(t.get(fp(1)).is_some());
        assert_eq!(t.drain_cost(), Duration::ZERO);
    }

    #[test]
    fn l2_eviction_invalidates_l1() {
        let mut t = tiered(None, Some(100));
        t.put(fp(1), body(1, 60));
        t.put(fp(2), body(2, 60)); // L2 evicts 1; L1 must drop it too
        assert!(!t.contains(fp(1)));
        assert!(t.peek(fp(1)).is_none(), "no stale L1 copy survives");
        assert_eq!(t.tier_bytes(), (60, 60));
        assert!(t.get(fp(1)).is_none());
    }

    #[test]
    fn explicit_evict_clears_both_tiers() {
        let mut t = tiered(None, Some(200));
        t.put(fp(1), body(1, 60));
        t.put(fp(2), body(2, 70));
        let (victim, len) = t.evict().unwrap();
        assert_eq!((victim, len), (fp(1), 60), "LRU victim is the older blob");
        assert!(t.peek(victim).is_none());
        assert_eq!(t.tier_bytes(), (70, 70));
    }

    #[test]
    fn pins_protect_l2_residency() {
        let mut t = tiered(Some(50), Some(100));
        t.put(fp(1), body(1, 60));
        t.pin(fp(1));
        assert_eq!(t.tier_bytes().0, 0, "too big for L1, resident in L2 only");
        assert!(!t.put(fp(2), body(2, 60)), "pinned L2 blob blocks the write");
        assert!(t.contains(fp(1)));
        t.unpin(fp(1));
        assert!(t.put(fp(2), body(2, 60)));
        assert!(!t.contains(fp(1)));
    }

    #[test]
    fn oversized_for_l1_still_resides_in_l2() {
        let mut t = tiered(Some(10), None);
        assert!(t.put(fp(1), body(1, 50)));
        assert_eq!(t.tier_bytes(), (0, 50));
        assert!(t.get(fp(1)).is_some(), "served from L2");
    }

    #[test]
    fn clear_empties_both_tiers_but_keeps_stats() {
        let mut t = tiered(None, None);
        t.put(fp(1), body(1, 10));
        t.get(fp(1));
        t.clear();
        assert_eq!(t.tier_bytes(), (0, 0));
        assert!(t.is_empty());
        assert_eq!(t.stats().hits, 1);
    }
}
