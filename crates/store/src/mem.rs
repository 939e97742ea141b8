//! The in-memory blob store (paper §III-D1's level-1 shared file cache).
//!
//! Blobs belonging to different images share one fingerprint-deduplicated
//! store. Users bound its capacity and pick a replacement policy (the paper
//! names FIFO and LRU); blobs currently linked from an installed Gear index
//! are pinned and never evicted.
//!
//! # Recency policy
//!
//! The recency rules are deliberate and tested:
//!
//! * [`MemStore::contains`] is a pure read — it never touches recency state
//!   or hit/miss counters, so probing for residency (dedup checks,
//!   assertions, accounting) cannot perturb the replacement order.
//! * [`MemStore::get`] refreshes the entry's last-used time **even when the
//!   entry is pinned**. A pinned blob is immune to eviction, but its recency
//!   keeps tracking real accesses, so the moment it is unpinned it competes
//!   at its true position in the LRU order rather than at the stale position
//!   it held when first pinned.
//!
//! # Eviction index
//!
//! Victim selection is O(log n): alongside the fingerprint map the store
//! keeps a [`BTreeSet`] of `(policy_key, fingerprint)` pairs covering
//! exactly the unpinned entries, where `policy_key` is the insertion tick
//! (FIFO) or the last-used tick (LRU). Ticks are the store's own counter —
//! monotonically increasing, each key written at a distinct tick — so keys
//! are unique and the set's smallest element is precisely the entry a full
//! scan's `min_by_key` would have chosen: the index is a pure speedup, not a
//! policy change.

use std::collections::{BTreeSet, HashMap};

use bytes::Bytes;
use gear_hash::Fingerprint;

use crate::{BlobStore, StoreStats};

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the oldest-inserted unpinned blob first.
    Fifo,
    /// Evict the least-recently-used unpinned blob first (the default).
    #[default]
    Lru,
}

#[derive(Debug, Clone)]
struct StoreEntry {
    content: Bytes,
    /// Number of installed indexes referencing this blob.
    pins: u32,
    /// Insertion sequence (FIFO key).
    inserted: u64,
    /// Last-access sequence (LRU key).
    used: u64,
}

/// A capacity-bounded, fingerprint-addressed in-memory blob store.
#[derive(Debug, Default)]
pub struct MemStore {
    entries: HashMap<Fingerprint, StoreEntry>,
    /// Unpinned entries ordered by eviction key; `first()` is the victim.
    index: BTreeSet<(u64, Fingerprint)>,
    policy: EvictionPolicy,
    /// Capacity in bytes; `None` = unbounded.
    capacity: Option<u64>,
    bytes: u64,
    pinned_bytes: u64,
    /// The last tick handed out; a store's ticks are its own.
    ticks: u64,
    stats: StoreStats,
}

impl MemStore {
    /// An unbounded LRU store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store with the given policy and byte capacity (`None` = unbounded).
    pub fn with_policy(policy: EvictionPolicy, capacity: Option<u64>) -> Self {
        MemStore { policy, capacity, ..Self::default() }
    }

    /// The next tick (the first is 1). Wraps rather than panics: a restored
    /// snapshot sets the counter from untrusted bytes.
    fn next_tick(&mut self) -> u64 {
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks
    }

    /// The eviction-order key of an entry under `policy`. An associated fn
    /// (not a method) so it can be called while an entry is mutably
    /// borrowed out of the map.
    fn policy_key(policy: EvictionPolicy, entry: &StoreEntry) -> u64 {
        match policy {
            EvictionPolicy::Fifo => entry.inserted,
            EvictionPolicy::Lru => entry.used,
        }
    }

    /// Whether the blob is resident. A pure read: recency state and hit/miss
    /// counters are untouched, so residency probes never perturb eviction
    /// order (see the module docs).
    pub fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Reads the blob without touching recency or hit/miss accounting (the
    /// side-channel read behind [`BlobStore::peek`]).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        self.entries.get(&fingerprint).map(|e| e.content.clone())
    }

    /// Looks the blob up, recording a hit or miss and refreshing recency.
    ///
    /// The last-used time advances even for pinned entries — pinning grants
    /// immunity from eviction, not exemption from recency tracking — so an
    /// unpinned blob re-enters the LRU order at its true position.
    pub fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes> {
        let tick = self.next_tick();
        match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                if entry.pins == 0 && self.policy == EvictionPolicy::Lru {
                    self.index.remove(&(entry.used, fingerprint));
                    self.index.insert((tick, fingerprint));
                }
                entry.used = tick;
                self.stats.hits += 1;
                Some(entry.content.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Refreshes the blob's recency exactly as [`MemStore::get`] would —
    /// same tick consumption, same re-indexing — without counting a hit or
    /// cloning the content. [`TieredStore`](crate::TieredStore) uses this to
    /// keep the authoritative tier's replacement order identical to a flat
    /// store's when a lookup is answered from L1.
    pub fn touch(&mut self, fingerprint: Fingerprint) {
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            if entry.pins == 0 && self.policy == EvictionPolicy::Lru {
                self.index.remove(&(entry.used, fingerprint));
                self.index.insert((tick, fingerprint));
            }
            entry.used = tick;
        }
    }

    /// Inserts a blob (no-op if present), evicting unpinned blobs as needed.
    /// Returns whether the blob is resident afterwards (a blob larger than
    /// the whole capacity is not stored).
    pub fn insert(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool {
        let mut evicted = Vec::new();
        self.insert_recording(fingerprint, content, &mut evicted)
    }

    /// [`MemStore::insert`], appending each eviction victim's fingerprint to
    /// `evicted` — the hook [`TieredStore`](crate::TieredStore) uses to
    /// invalidate L1 copies when the authoritative tier evicts.
    pub fn insert_recording(
        &mut self,
        fingerprint: Fingerprint,
        content: Bytes,
        evicted: &mut Vec<Fingerprint>,
    ) -> bool {
        if self.entries.contains_key(&fingerprint) {
            return true;
        }
        let len = content.len() as u64;
        if let Some(cap) = self.capacity {
            if len > cap {
                return false;
            }
            while self.bytes + len > cap {
                match self.evict_one() {
                    Some((victim, _)) => evicted.push(victim),
                    None => return false, // everything left is pinned
                }
            }
        }
        let tick = self.next_tick();
        self.bytes += len;
        self.entries.insert(
            fingerprint,
            StoreEntry { content, pins: 0, inserted: tick, used: tick },
        );
        // FIFO and LRU keys coincide at insertion time.
        self.index.insert((tick, fingerprint));
        true
    }

    /// Pins a blob (one reference from an installed index).
    pub fn pin(&mut self, fingerprint: Fingerprint) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            e.pins += 1;
            if e.pins == 1 {
                let key = Self::policy_key(self.policy, e);
                self.index.remove(&(key, fingerprint));
                self.pinned_bytes += e.content.len() as u64;
            }
        }
    }

    /// Releases one pin. When the last pin drops the entry rejoins the
    /// eviction order at its current recency (see [`MemStore::get`]).
    pub fn unpin(&mut self, fingerprint: Fingerprint) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            if e.pins == 1 {
                let key = Self::policy_key(self.policy, e);
                self.index.insert((key, fingerprint));
                self.pinned_bytes -= e.content.len() as u64;
            }
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Evicts one unpinned blob per the policy; `None` if none is
    /// evictable. O(log n): the victim is the index's smallest key.
    fn evict_one(&mut self) -> Option<(Fingerprint, u64)> {
        let (_, fp) = self.index.pop_first()?;
        // A hand-built snapshot can index an entry it does not hold; that
        // ends the eviction, not the process.
        let entry = self.entries.remove(&fp)?;
        let len = entry.content.len() as u64;
        self.bytes -= len;
        // Saturating: a restored snapshot's counters are untrusted too.
        self.stats.evictions = self.stats.evictions.saturating_add(1);
        self.stats.evicted_bytes = self.stats.evicted_bytes.saturating_add(len);
        Some((fp, len))
    }

    /// Evicts the policy's current victim (trait-level name for
    /// `evict_one`).
    pub fn evict(&mut self) -> Option<(Fingerprint, u64)> {
        self.evict_one()
    }

    /// Silently removes a blob — no eviction statistics — returning its
    /// size. Used for L1 invalidation by [`TieredStore`](crate::TieredStore)
    /// and for registry garbage collection, neither of which is a
    /// capacity-pressure eviction.
    pub fn remove(&mut self, fingerprint: Fingerprint) -> Option<u64> {
        let entry = self.entries.remove(&fingerprint)?;
        let len = entry.content.len() as u64;
        self.bytes -= len;
        if entry.pins == 0 {
            self.index.remove(&(Self::policy_key(self.policy, &entry), fingerprint));
        } else {
            self.pinned_bytes -= len;
        }
        Some(len)
    }

    /// Resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Resident blob count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accounting so far: counters plus the current residency gauges.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            pinned_bytes: self.pinned_bytes,
            objects: self.entries.len() as u64,
            stored_bytes: self.bytes,
            logical_bytes: self.bytes,
            ..self.stats
        }
    }

    /// Iterates over resident blobs as `(fingerprint, content)`.
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, &Bytes)> {
        self.entries.iter().map(|(fp, e)| (*fp, &e.content))
    }

    /// Integrity scan: re-hashes every blob and returns the fingerprints
    /// whose content no longer matches (empty = clean), sorted.
    /// Every blob is hashed in one [`gear_hash::fingerprint_all`] batch.
    pub fn verify(&self) -> Vec<Fingerprint> {
        let (ids, bodies): (Vec<Fingerprint>, Vec<&Bytes>) = self.iter().unzip();
        let mut bad: Vec<Fingerprint> = ids
            .into_iter()
            .zip(gear_hash::fingerprint_all(&bodies, &gear_par::Pool::serial()))
            .filter_map(|(id, actual)| (actual != id).then_some(id))
            .collect();
        bad.sort();
        bad
    }

    /// Drops every blob (the paper's cold-cache experiment setup) but keeps
    /// statistics.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.bytes = 0;
        self.pinned_bytes = 0;
    }

    /// The store's complete state as a [`MemSnapshot`](crate::MemSnapshot)
    /// (entries in fingerprint order, so equal states snapshot identically).
    pub fn snapshot_parts(&self) -> crate::MemSnapshot {
        let mut entries: Vec<crate::EntrySnapshot> = self
            .entries
            .iter()
            .map(|(fp, e)| crate::EntrySnapshot {
                fingerprint: *fp,
                content: e.content.clone(),
                pins: e.pins,
                inserted: e.inserted,
                used: e.used,
            })
            .collect();
        entries.sort_by_key(|e| e.fingerprint);
        crate::MemSnapshot {
            policy: self.policy,
            capacity: self.capacity,
            ticks: self.ticks,
            entries,
            counters: self.stats,
        }
    }

    /// Rebuilds a store from a snapshot; the result resumes at the
    /// snapshot's tick and behaves tick-for-tick identically to the
    /// snapshotted store.
    pub fn restore(snapshot: &crate::MemSnapshot) -> Self {
        let mut store = MemStore {
            policy: snapshot.policy,
            capacity: snapshot.capacity,
            ticks: snapshot.ticks,
            stats: snapshot.counters,
            ..Self::default()
        };
        for e in &snapshot.entries {
            store.bytes += e.content.len() as u64;
            if e.pins > 0 {
                store.pinned_bytes += e.content.len() as u64;
            } else {
                let key = match snapshot.policy {
                    EvictionPolicy::Fifo => e.inserted,
                    EvictionPolicy::Lru => e.used,
                };
                store.index.insert((key, e.fingerprint));
            }
            store.entries.insert(
                e.fingerprint,
                StoreEntry {
                    content: e.content.clone(),
                    pins: e.pins,
                    inserted: e.inserted,
                    used: e.used,
                },
            );
        }
        store
    }

    /// Overwrites the stored body of `fingerprint` without touching its key,
    /// simulating on-disk corruption for integrity tests. A blob that is not
    /// resident stays absent.
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, fingerprint: Fingerprint, bad: Bytes) {
        let Some(entry) = self.entries.get_mut(&fingerprint) else {
            return;
        };
        let old = entry.content.len() as u64;
        let new = bad.len() as u64;
        self.bytes = self.bytes - old + new;
        if entry.pins > 0 {
            self.pinned_bytes = self.pinned_bytes - old + new;
        }
        entry.content = bad;
    }
}

impl BlobStore for MemStore {
    fn contains(&self, fingerprint: Fingerprint) -> bool {
        MemStore::contains(self, fingerprint)
    }

    fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        MemStore::peek(self, fingerprint)
    }

    fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes> {
        MemStore::get(self, fingerprint)
    }

    fn put(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool {
        self.insert(fingerprint, content)
    }

    fn pin(&mut self, fingerprint: Fingerprint) {
        MemStore::pin(self, fingerprint);
    }

    fn unpin(&mut self, fingerprint: Fingerprint) {
        MemStore::unpin(self, fingerprint);
    }

    fn evict(&mut self) -> Option<(Fingerprint, u64)> {
        MemStore::evict(self)
    }

    fn stats(&self) -> StoreStats {
        MemStore::stats(self)
    }

    fn verify(&self) -> Vec<Fingerprint> {
        MemStore::verify(self)
    }

    fn len(&self) -> usize {
        MemStore::len(self)
    }

    fn is_empty(&self) -> bool {
        MemStore::is_empty(self)
    }

    fn bytes(&self) -> u64 {
        MemStore::bytes(self)
    }

    fn clear(&mut self) {
        MemStore::clear(self);
    }

    fn snapshot(&self) -> crate::StoreSnapshot {
        crate::StoreSnapshot::Mem(self.snapshot_parts())
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

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = MemStore::new();
        assert!(c.get(fp(1)).is_none());
        c.insert(fp(1), body(1, 10));
        assert_eq!(c.get(fp(1)).unwrap().len(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn dedup_on_insert() {
        let mut c = MemStore::new();
        assert!(c.insert(fp(1), body(1, 10)));
        assert!(c.insert(fp(1), body(1, 10)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 10);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut c = MemStore::with_policy(EvictionPolicy::Fifo, Some(25));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 10));
        c.get(fp(1)); // recently used, but FIFO ignores that
        c.insert(fp(3), body(3, 10));
        assert!(!c.contains(fp(1)), "oldest-inserted must be evicted");
        assert!(c.contains(fp(2)) && c.contains(fp(3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 10));
        c.get(fp(1)); // refresh 1, so 2 is the LRU victim
        c.insert(fp(3), body(3, 10));
        assert!(c.contains(fp(1)));
        assert!(!c.contains(fp(2)));
    }

    #[test]
    fn pinned_blobs_survive_eviction() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        c.insert(fp(1), body(1, 10));
        c.pin(fp(1));
        c.insert(fp(2), body(2, 10));
        c.insert(fp(3), body(3, 10)); // must evict 2, not pinned 1
        assert!(c.contains(fp(1)));
        assert!(!c.contains(fp(2)));
        // Unpin and it becomes evictable again.
        c.unpin(fp(1));
        c.insert(fp(4), body(4, 10));
        assert!(!c.contains(fp(1)));
    }

    #[test]
    fn oversized_and_all_pinned() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(10));
        assert!(!c.insert(fp(1), body(1, 11)), "larger than capacity");
        c.insert(fp(2), body(2, 10));
        c.pin(fp(2));
        assert!(!c.insert(fp(3), body(3, 5)), "cannot evict pinned content");
    }

    #[test]
    fn clear_keeps_stats() {
        let mut c = MemStore::new();
        c.insert(fp(1), body(1, 4));
        c.get(fp(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().pinned_bytes, 0);
    }

    #[test]
    fn contains_does_not_perturb_recency() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 10));
        // Probe 1 repeatedly: contains() is a pure read, so 1 stays the
        // LRU victim despite being the most recently *probed*.
        for _ in 0..5 {
            assert!(c.contains(fp(1)));
        }
        c.insert(fp(3), body(3, 10));
        assert!(!c.contains(fp(1)), "contains() must not refresh LRU position");
        assert!(c.contains(fp(2)));
        // And it never counts as a hit or a miss.
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn peek_is_a_pure_read() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 10));
        assert_eq!(c.peek(fp(1)).unwrap(), body(1, 10));
        assert!(c.peek(fp(9)).is_none());
        c.insert(fp(3), body(3, 10));
        assert!(!c.contains(fp(1)), "peek() must not refresh LRU position");
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn touch_refreshes_recency_like_get() {
        let mut touched = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        let mut gotten = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        for c in [&mut touched, &mut gotten] {
            c.insert(fp(1), body(1, 10));
            c.insert(fp(2), body(2, 10));
        }
        touched.touch(fp(1));
        gotten.get(fp(1));
        for c in [&mut touched, &mut gotten] {
            c.insert(fp(3), body(3, 10));
            assert!(c.contains(fp(1)));
            assert!(!c.contains(fp(2)));
        }
        // touch() consumed a tick but recorded no hit.
        assert_eq!(touched.stats().hits, 0);
        assert_eq!(gotten.stats().hits, 1);
    }

    #[test]
    fn get_refreshes_recency_while_pinned() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(25));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 10));
        c.pin(fp(1));
        c.get(fp(1)); // bumps 1's recency even though it is pinned
        c.unpin(fp(1));
        // 1 was used after 2, so 2 — not 1 — is the victim.
        c.insert(fp(3), body(3, 10));
        assert!(c.contains(fp(1)), "pinned-era access keeps 1 recent after unpin");
        assert!(!c.contains(fp(2)));
    }

    #[test]
    fn pinned_bytes_gauge_tracks_pin_transitions() {
        let mut c = MemStore::new();
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 7));
        assert_eq!(c.stats().pinned_bytes, 0);
        c.pin(fp(1));
        assert_eq!(c.stats().pinned_bytes, 10);
        c.pin(fp(1)); // second pin on the same entry: no double count
        assert_eq!(c.stats().pinned_bytes, 10);
        c.pin(fp(2));
        assert_eq!(c.stats().pinned_bytes, 17);
        c.unpin(fp(1)); // 2 pins -> 1: still pinned
        assert_eq!(c.stats().pinned_bytes, 17);
        c.unpin(fp(1)); // 1 -> 0: released
        assert_eq!(c.stats().pinned_bytes, 7);
        c.unpin(fp(2));
        assert_eq!(c.stats().pinned_bytes, 0);
        c.unpin(fp(2)); // over-unpin is a no-op
        assert_eq!(c.stats().pinned_bytes, 0);
    }

    #[test]
    fn remove_is_silent_and_exact() {
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(100));
        c.insert(fp(1), body(1, 10));
        c.insert(fp(2), body(2, 7));
        c.pin(fp(2));
        assert_eq!(c.remove(fp(1)), Some(10));
        assert_eq!(c.remove(fp(2)), Some(7), "remove ignores pins");
        assert_eq!(c.remove(fp(3)), None);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        let s = c.stats();
        assert_eq!((s.evictions, s.evicted_bytes, s.pinned_bytes), (0, 0, 0));
        // The eviction index is clean: nothing dangling to evict.
        assert!(c.evict().is_none());
    }

    #[test]
    fn eviction_index_survives_churn() {
        // Interleave inserts/gets/pins over a small capacity and verify the
        // map and index never disagree (every unpinned entry evictable,
        // byte accounting exact).
        let mut c = MemStore::with_policy(EvictionPolicy::Lru, Some(64));
        for round in 0u8..120 {
            c.insert(fp(round % 16), body(round % 16, 8 + (round % 5) as usize));
            c.get(fp(round.wrapping_mul(7) % 16));
            if round % 3 == 0 {
                c.pin(fp(round % 16));
            }
            if round % 3 == 1 {
                c.unpin(fp(round.wrapping_sub(1) % 16));
            }
            assert!(c.bytes() <= 64);
        }
        // Drain: with all pins released, eviction must be able to empty it.
        for n in 0u8..16 {
            c.unpin(fp(n));
            c.unpin(fp(n));
        }
        while c.evict().is_some() {}
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn verify_flags_corruption() {
        let mut c = MemStore::new();
        let bodies: Vec<Bytes> = (0u8..40).map(|i| Bytes::from(vec![i; 32 << 10])).collect();
        for b in &bodies {
            c.insert(Fingerprint::of(b), b.clone());
        }
        assert!(c.verify().is_empty(), "fresh store is clean");
        let bad_a = Fingerprint::of(&bodies[3]);
        let bad_b = Fingerprint::of(&bodies[17]);
        c.corrupt_for_test(bad_a, Bytes::from_static(b"bit rot"));
        c.corrupt_for_test(bad_b, Bytes::from_static(b"more rot"));
        let mut expected = vec![bad_a, bad_b];
        expected.sort();
        assert_eq!(c.verify(), expected);
    }
}
