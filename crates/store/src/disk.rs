//! A blob store on modeled disk: every read and write accrues deterministic
//! I/O time from a [`DiskModel`].
//!
//! Contents live in memory (this is a simulation — determinism is the whole
//! point), but access is *priced*: a `get` that hits accrues one file read,
//! a `put` that stores accrues one file write, and an integrity scan accrues
//! a full-pool read. The accrued time sits in the store until the caller
//! folds it into its own simulated clock via
//! [`drain_cost`](crate::BlobStore::drain_cost) — the same
//! accrue-then-charge pattern the deployment cost models use.
//!
//! Metadata-only operations (`contains`, `pin`, `evict`, `touch`) are free:
//! the model charges data movement, not bookkeeping.
//!
//! # Durability (opt-in)
//!
//! By default the store is crash-oblivious, exactly as before the journal
//! existed. [`DiskStore::with_journal`] attaches a write-ahead journal on a
//! [`JournalMedia`] plus a [`CrashPlan`]: every mutating operation is
//! journaled as an atomic batch terminated by a commit marker (see
//! [`journal`](crate::journal)), each journal append consults the plan, and
//! a planned power cut leaves the store **crashed** — inert until the
//! harness calls [`DiskStore::recover`] on the surviving media. An operation
//! is acknowledged iff its commit marker became durable, which is what makes
//! "no acked blob lost / unacked puts vanish" provable under any crash
//! point. Journaled writes are priced twice (data + journal cell), the
//! classic WAL write-amplification, and recovery prices one sequential read
//! of the journal.

use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::{CrashPlan, CrashPoint, DiskModel};

use crate::journal::{compact, replay, JournalMedia, JournalRecord, RecoveryReport};
use crate::{BlobStore, DiskSnapshot, EvictionPolicy, MemStore, StoreSnapshot, StoreStats};

/// Durability wiring: where journal cells land and which append the
/// simulated power cut interrupts.
#[derive(Debug)]
struct Journal {
    media: JournalMedia,
    plan: CrashPlan,
}

/// A capacity-bounded blob store whose data accesses accrue [`DiskModel`]
/// time, scaled by the corpus byte scale so priced latency matches the
/// deployment cost model's units.
#[derive(Debug)]
pub struct DiskStore {
    inner: MemStore,
    model: DiskModel,
    /// Multiplier mapping stored (corpus-scaled) bytes back to modeled real
    /// bytes, mirroring `ClientConfig::byte_scale`.
    byte_scale: u64,
    accrued: Duration,
    /// Write-ahead journal; `None` = the historical crash-oblivious store.
    journal: Option<Journal>,
    /// A journaled store that hit its planned power cut: inert until
    /// recovered from the media.
    crashed: bool,
}

impl DiskStore {
    /// A store with the given policy, capacity, and disk model.
    /// `byte_scale` is the corpus down-scaling factor (1 = unscaled).
    pub fn new(
        policy: EvictionPolicy,
        capacity: Option<u64>,
        model: DiskModel,
        byte_scale: u64,
    ) -> Self {
        DiskStore {
            inner: MemStore::with_policy(policy, capacity),
            model,
            byte_scale: byte_scale.max(1),
            accrued: Duration::ZERO,
            journal: None,
            crashed: false,
        }
    }

    /// Like [`DiskStore::new`], journaling every mutation to `media` under
    /// `plan` (see the module docs). Pass [`CrashPlan::never`] for a durable
    /// store that is never killed.
    pub fn with_journal(
        policy: EvictionPolicy,
        capacity: Option<u64>,
        model: DiskModel,
        byte_scale: u64,
        media: JournalMedia,
        plan: CrashPlan,
    ) -> Self {
        let mut store = Self::new(policy, capacity, model, byte_scale);
        store.journal = Some(Journal { media, plan });
        store
    }

    /// Replays `media`, rebuilding the store a power cut killed: exactly the
    /// committed batches are applied (contents, pins), eviction order is
    /// re-ticked in replay order (recency is volatile and does not survive a
    /// crash), statistics counters restart from zero with gauges matching
    /// the recovered contents, and the journal is compacted. The recovery
    /// read is priced into the store's accrued time — drain it for the
    /// modeled recovery latency. The returned store journals to the same
    /// media with a [`CrashPlan::never`]; use
    /// [`DiskStore::set_crash_plan`] to schedule another cut.
    pub fn recover(
        policy: EvictionPolicy,
        capacity: Option<u64>,
        model: DiskModel,
        byte_scale: u64,
        media: JournalMedia,
    ) -> (Self, RecoveryReport) {
        let (state, report) = replay(&media);
        compact(&media, &state);
        let mut store =
            Self::with_journal(policy, capacity, model, byte_scale, media, CrashPlan::never());
        for (fingerprint, content, pins) in &state.entries {
            store.inner.insert(*fingerprint, content.clone());
            for _ in 0..*pins {
                store.inner.pin(*fingerprint);
            }
        }
        store.accrue_io(report.read_bytes, 1);
        (store, report)
    }

    /// Replaces the crash plan (e.g. to schedule a second cut after
    /// recovery). No-op on a store without a journal.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        if let Some(journal) = &mut self.journal {
            journal.plan = plan;
        }
    }

    /// The journal media, when one is attached — the handle that survives
    /// this store's death.
    pub fn journal_media(&self) -> Option<JournalMedia> {
        self.journal.as_ref().map(|j| j.media.clone())
    }

    /// Whether the planned power cut has fired (the store is inert).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn accrue_io(&mut self, bytes: u64, files: u64) {
        self.accrued += self.model.io_time(bytes * self.byte_scale, files);
    }

    /// Appends `records` + a commit marker as one atomic batch, each append
    /// consulting the crash plan. Returns whether the commit marker became
    /// durable — the operation's acknowledgement. Without a journal this is
    /// trivially true.
    fn journal_batch(&mut self, records: Vec<JournalRecord>) -> bool {
        let Some(journal) = &mut self.journal else {
            return true;
        };
        if records.is_empty() {
            return true; // nothing changed; nothing to make durable
        }
        let count = records.len();
        let mut priced = Vec::new();
        for (i, record) in records.into_iter().chain([JournalRecord::Commit]).enumerate() {
            let cell = record.encode();
            match journal.plan.next_write() {
                None => {
                    journal.media.append(&cell);
                    priced.push(cell.len() as u64);
                }
                Some(CrashPoint::BeforeWrite) => {
                    self.crashed = true;
                    break;
                }
                Some(CrashPoint::TornWrite) => {
                    journal.media.append(&cell[..cell.len() / 2]);
                    self.crashed = true;
                    break;
                }
                Some(CrashPoint::AfterWrite) => {
                    journal.media.append(&cell);
                    self.crashed = true;
                    // A cut after the *commit* append still acknowledges.
                    if i == count {
                        priced.push(cell.len() as u64);
                    }
                    break;
                }
            }
        }
        let committed = priced.len() == count + 1;
        for bytes in priced {
            self.accrue_io(bytes, 1);
        }
        committed
    }

    /// Pure read — no recency, no accounting, no priced I/O (see
    /// [`BlobStore::peek`]).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        if self.crashed {
            return None;
        }
        self.inner.peek(fingerprint)
    }

    /// Whether the blob is resident (free metadata probe).
    pub fn contains(&self, fingerprint: Fingerprint) -> bool {
        !self.crashed && self.inner.contains(fingerprint)
    }

    /// Looks the blob up, accruing one file read on a hit.
    pub fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes> {
        if self.crashed {
            return None;
        }
        let found = self.inner.get(fingerprint);
        if let Some(content) = &found {
            self.accrue_io(content.len() as u64, 1);
        }
        found
    }

    /// Recency refresh without data movement (see [`MemStore::touch`]).
    /// Recency is volatile — it is not journaled and does not survive a
    /// crash.
    pub fn touch(&mut self, fingerprint: Fingerprint) {
        if self.crashed {
            return;
        }
        self.inner.touch(fingerprint);
    }

    /// Stores the blob, accruing one file write when it is newly written.
    /// Eviction victims are appended to `evicted` (deletion is metadata —
    /// free). On a journaled store the put and its evictions are one atomic
    /// batch, and the return value is the *acknowledgement*: `true` iff the
    /// blob is resident **and** the batch committed to the journal.
    pub fn insert_recording(
        &mut self,
        fingerprint: Fingerprint,
        content: Bytes,
        evicted: &mut Vec<Fingerprint>,
    ) -> bool {
        if self.crashed {
            return false;
        }
        if self.inner.contains(fingerprint) {
            return true; // dedup: nothing crosses the disk
        }
        let len = content.len() as u64;
        if self.journal.is_none() {
            // The historical crash-oblivious path, byte-identical to the
            // pre-journal store.
            let resident = self.inner.insert_recording(fingerprint, content, evicted);
            if resident {
                self.accrue_io(len, 1);
            }
            return resident;
        }
        let first_victim = evicted.len();
        let resident = self.inner.insert_recording(fingerprint, content.clone(), evicted);
        if resident {
            self.accrue_io(len, 1);
        }
        let mut records: Vec<JournalRecord> = evicted[first_victim..]
            .iter()
            .map(|fp| JournalRecord::Evict { fingerprint: *fp })
            .collect();
        if resident {
            records.push(JournalRecord::Put { fingerprint, content });
        }
        let committed = self.journal_batch(records);
        resident && committed
    }

    /// [`DiskStore::insert_recording`] without victim tracking.
    pub fn insert(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool {
        let mut evicted = Vec::new();
        self.insert_recording(fingerprint, content, &mut evicted)
    }

    /// The time accrued since the last drain (without draining it).
    pub fn accrued(&self) -> Duration {
        self.accrued
    }

    /// The store's complete logical state (journal wiring excluded — see
    /// [`crate::snapshot`]).
    pub fn snapshot_parts(&self) -> DiskSnapshot {
        DiskSnapshot {
            mem: self.inner.snapshot_parts(),
            model: self.model,
            byte_scale: self.byte_scale,
            accrued: self.accrued,
        }
    }

    /// Rehydrates a snapshot taken by [`DiskStore::snapshot_parts`]; the
    /// result behaves tick-for-tick identically. Comes back without a
    /// journal — attach one via [`DiskStore::with_journal`]-style wiring if
    /// the new instance should be durable too.
    pub fn restore(snapshot: &DiskSnapshot) -> Self {
        DiskStore {
            inner: MemStore::restore(&snapshot.mem),
            model: snapshot.model,
            byte_scale: snapshot.byte_scale,
            accrued: snapshot.accrued,
            journal: None,
            crashed: false,
        }
    }
}

impl BlobStore for DiskStore {
    fn contains(&self, fingerprint: Fingerprint) -> bool {
        DiskStore::contains(self, fingerprint)
    }

    fn peek(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        DiskStore::peek(self, fingerprint)
    }

    fn get(&mut self, fingerprint: Fingerprint) -> Option<Bytes> {
        DiskStore::get(self, fingerprint)
    }

    fn put(&mut self, fingerprint: Fingerprint, content: Bytes) -> bool {
        self.insert(fingerprint, content)
    }

    fn pin(&mut self, fingerprint: Fingerprint) {
        if self.crashed || !self.inner.contains(fingerprint) {
            return;
        }
        self.inner.pin(fingerprint);
        self.journal_batch(vec![JournalRecord::Pin { fingerprint }]);
    }

    fn unpin(&mut self, fingerprint: Fingerprint) {
        if self.crashed || !self.inner.contains(fingerprint) {
            return;
        }
        self.inner.unpin(fingerprint);
        self.journal_batch(vec![JournalRecord::Unpin { fingerprint }]);
    }

    fn evict(&mut self) -> Option<(Fingerprint, u64)> {
        if self.crashed {
            return None;
        }
        let (victim, len) = self.inner.evict()?;
        let committed = self.journal_batch(vec![JournalRecord::Evict { fingerprint: victim }]);
        // An uncommitted eviction un-happens at recovery; don't ack it.
        committed.then_some((victim, len))
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn verify(&self) -> Vec<Fingerprint> {
        // Integrity scans are offline tooling, outside the deployment
        // clock; like `peek`, they are not priced.
        self.inner.verify()
    }

    fn len(&self) -> usize {
        if self.crashed {
            return 0;
        }
        self.inner.len()
    }

    fn bytes(&self) -> u64 {
        if self.crashed {
            return 0;
        }
        self.inner.bytes()
    }

    fn clear(&mut self) {
        if self.crashed {
            return;
        }
        self.inner.clear();
        self.journal_batch(vec![JournalRecord::Clear]);
    }

    fn drain_cost(&mut self) -> Duration {
        std::mem::take(&mut self.accrued)
    }

    fn tier_bytes(&self) -> (u64, u64) {
        (0, self.bytes())
    }

    fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot::Disk(self.snapshot_parts())
    }

    fn is_crashed(&self) -> bool {
        self.crashed
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
    fn reads_and_writes_accrue_modeled_time() {
        let mut d = DiskStore::new(EvictionPolicy::Lru, None, DiskModel::ssd(), 1);
        assert_eq!(d.drain_cost(), Duration::ZERO);
        d.insert(fp(1), body(1, 1_000_000));
        let write = d.drain_cost();
        assert_eq!(write, DiskModel::ssd().io_time(1_000_000, 1));
        d.get(fp(1));
        let read = d.drain_cost();
        assert_eq!(read, DiskModel::ssd().io_time(1_000_000, 1));
        // Drained: nothing left.
        assert_eq!(d.drain_cost(), Duration::ZERO);
    }

    #[test]
    fn metadata_operations_are_free() {
        let mut d = DiskStore::new(EvictionPolicy::Lru, Some(100), DiskModel::hdd(), 1);
        d.insert(fp(1), body(1, 60));
        d.drain_cost();
        assert!(d.contains(fp(1)));
        assert!(d.peek(fp(1)).is_some());
        d.touch(fp(1));
        d.pin(fp(1));
        d.unpin(fp(1));
        assert_eq!(d.drain_cost(), Duration::ZERO);
        // A duplicate insert moves no data.
        d.insert(fp(1), body(1, 60));
        assert_eq!(d.drain_cost(), Duration::ZERO);
        // A miss moves no data either.
        assert!(d.get(fp(9)).is_none());
        assert_eq!(d.drain_cost(), Duration::ZERO);
    }

    #[test]
    fn byte_scale_multiplies_priced_bytes() {
        let mut scaled = DiskStore::new(EvictionPolicy::Lru, None, DiskModel::nvme(), 1024);
        scaled.insert(fp(1), body(1, 1000));
        assert_eq!(scaled.drain_cost(), DiskModel::nvme().io_time(1000 * 1024, 1));
    }

    #[test]
    fn behaves_like_memstore_modulo_cost() {
        let mut d = DiskStore::new(EvictionPolicy::Fifo, Some(25), DiskModel::ram(), 1);
        let mut m = MemStore::with_policy(EvictionPolicy::Fifo, Some(25));
        for n in 1u8..=4 {
            assert_eq!(d.insert(fp(n), body(n, 10)), m.insert(fp(n), body(n, 10)));
            assert_eq!(d.get(fp(1)).is_some(), m.get(fp(1)).is_some());
        }
        assert_eq!(d.stats(), m.stats());
        assert_eq!(d.bytes(), m.bytes());
    }

    #[test]
    fn journaled_store_without_crashes_matches_plain_contents() {
        let media = JournalMedia::new();
        let mut journaled = DiskStore::with_journal(
            EvictionPolicy::Lru,
            Some(64),
            DiskModel::ssd(),
            1,
            media.clone(),
            CrashPlan::never(),
        );
        let mut plain = DiskStore::new(EvictionPolicy::Lru, Some(64), DiskModel::ssd(), 1);
        for n in 0u8..10 {
            assert_eq!(journaled.insert(fp(n), body(n, 10)), plain.insert(fp(n), body(n, 10)));
            assert_eq!(journaled.get(fp(n / 2)).is_some(), plain.get(fp(n / 2)).is_some());
        }
        journaled.pin(fp(9));
        plain.pin(fp(9));
        assert_eq!(journaled.stats(), plain.stats());
        assert_eq!(journaled.bytes(), plain.bytes());
        assert!(!journaled.is_crashed());
        // The journal priced extra (WAL write amplification).
        assert!(journaled.accrued() > plain.accrued());
        // And replaying it reproduces the live contents exactly.
        let (recovered, report) =
            DiskStore::recover(EvictionPolicy::Lru, Some(64), DiskModel::ssd(), 1, media);
        assert!(!report.torn_tail);
        assert_eq!(report.discarded_records, 0);
        assert_eq!(recovered.bytes(), journaled.bytes());
        assert_eq!(recovered.len(), journaled.len());
        assert_eq!(recovered.stats().pinned_bytes, journaled.stats().pinned_bytes);
        for n in 0u8..10 {
            assert_eq!(recovered.peek(fp(n)), journaled.peek(fp(n)), "blob {n}");
        }
    }

    #[test]
    fn a_journaled_put_prices_its_data_and_each_journal_cell_once() {
        let (model, media) = (DiskModel::hdd(), JournalMedia::new());
        let mut store = DiskStore::with_journal(
            EvictionPolicy::Lru,
            None,
            model,
            1,
            media.clone(),
            CrashPlan::never(),
        );
        let put = JournalRecord::Put { fingerprint: fp(1), content: body(1, 4096) };
        let cells = [put.encode(), JournalRecord::Commit.encode()];
        assert!(store.insert(fp(1), body(1, 4096)));
        assert_eq!(media.len(), cells.iter().map(Vec::len).sum::<usize>());
        let journal = cells.iter().map(|cell| model.io_time(cell.len() as u64, 1));
        assert_eq!(store.drain_cost(), model.io_time(4096, 1) + journal.sum::<Duration>());
    }

    #[test]
    fn crash_before_commit_discards_the_put() {
        for point in [CrashPoint::BeforeWrite, CrashPoint::TornWrite] {
            let media = JournalMedia::new();
            let mut store = DiskStore::with_journal(
                EvictionPolicy::Lru,
                None,
                DiskModel::ssd(),
                1,
                media.clone(),
                // Writes 0,1 = put a + commit; write 2 = put b's record.
                CrashPlan::new(0).crash_at_write(2, point),
            );
            assert!(store.insert(fp(1), body(1, 8)), "first put acks");
            let acked = store.insert(fp(2), body(2, 8));
            assert!(!acked, "{point:?}: interrupted put must not ack");
            assert!(store.is_crashed());
            // Dead store is inert.
            assert!(!store.contains(fp(1)));
            assert!(store.get(fp(1)).is_none());
            assert!(!store.insert(fp(3), body(3, 8)));
            let (recovered, report) =
                DiskStore::recover(EvictionPolicy::Lru, None, DiskModel::ssd(), 1, media);
            assert_eq!(report.torn_tail, point == CrashPoint::TornWrite);
            assert!(recovered.contains(fp(1)), "acked blob survives");
            assert!(!recovered.contains(fp(2)), "unacked blob vanishes");
            assert_eq!(recovered.peek(fp(1)), Some(body(1, 8)), "no partial contents");
        }
    }

    #[test]
    fn crash_after_commit_preserves_the_acked_put() {
        let media = JournalMedia::new();
        let mut store = DiskStore::with_journal(
            EvictionPolicy::Lru,
            None,
            DiskModel::ssd(),
            1,
            media.clone(),
            // Write 3 is put b's commit marker: cut right after it.
            CrashPlan::new(0).crash_at_write(3, CrashPoint::AfterWrite),
        );
        assert!(store.insert(fp(1), body(1, 8)));
        assert!(store.insert(fp(2), body(2, 8)), "commit became durable: acked");
        assert!(store.is_crashed(), "...but the machine died right after");
        let (recovered, _) =
            DiskStore::recover(EvictionPolicy::Lru, None, DiskModel::ssd(), 1, media);
        assert!(recovered.contains(fp(1)));
        assert!(recovered.contains(fp(2)), "acked put survives the cut");
    }

    #[test]
    fn eviction_batch_is_atomic_with_its_put() {
        // Capacity 16: putting c evicts a, as one batch. Cut before the
        // batch commits: recovery shows the *old* state (a resident, c not).
        let media = JournalMedia::new();
        let mut store = DiskStore::with_journal(
            EvictionPolicy::Fifo,
            Some(16),
            DiskModel::ssd(),
            1,
            media.clone(),
            // Writes: 0=put a,1=commit,2=put b,3=commit,4=evict a,5=put c,6=commit.
            CrashPlan::new(0).crash_at_write(6, CrashPoint::BeforeWrite),
        );
        assert!(store.insert(fp(1), body(1, 8)));
        assert!(store.insert(fp(2), body(2, 8)));
        assert!(!store.insert(fp(3), body(3, 8)), "batch never committed");
        let (recovered, report) =
            DiskStore::recover(EvictionPolicy::Fifo, Some(16), DiskModel::ssd(), 1, media);
        assert!(recovered.contains(fp(1)), "uncommitted eviction un-happens");
        assert!(recovered.contains(fp(2)));
        assert!(!recovered.contains(fp(3)));
        assert_eq!(report.discarded_records, 2);
        assert_eq!(recovered.bytes(), 16, "within capacity after recovery");
    }

    #[test]
    fn recovery_prices_the_journal_read() {
        let media = JournalMedia::new();
        let mut store = DiskStore::with_journal(
            EvictionPolicy::Lru,
            None,
            DiskModel::hdd(),
            1,
            media.clone(),
            CrashPlan::never(),
        );
        store.insert(fp(1), body(1, 4096));
        let journal_bytes = media.len() as u64;
        let (mut recovered, report) =
            DiskStore::recover(EvictionPolicy::Lru, None, DiskModel::hdd(), 1, media);
        assert_eq!(report.read_bytes, journal_bytes);
        assert_eq!(recovered.drain_cost(), DiskModel::hdd().io_time(journal_bytes, 1));
    }

    #[test]
    fn recovered_store_keeps_journaling() {
        let media = JournalMedia::new();
        let mut store = DiskStore::with_journal(
            EvictionPolicy::Lru,
            None,
            DiskModel::ssd(),
            1,
            media.clone(),
            CrashPlan::new(1).with_crash(1.0),
        );
        assert!(!store.insert(fp(1), body(1, 8)), "dies on the very first append");
        let (mut recovered, _) =
            DiskStore::recover(EvictionPolicy::Lru, None, DiskModel::ssd(), 1, media.clone());
        assert!(recovered.is_empty());
        // The recovered instance journals on: a second crash-and-recover
        // round trips through the same media.
        assert!(recovered.insert(fp(2), body(2, 8)));
        recovered.set_crash_plan(CrashPlan::new(2).with_crash(1.0));
        assert!(!recovered.insert(fp(3), body(3, 8)));
        assert!(recovered.is_crashed());
        let (second, _) =
            DiskStore::recover(EvictionPolicy::Lru, None, DiskModel::ssd(), 1, media);
        assert!(second.contains(fp(2)));
        assert!(!second.contains(fp(3)));
    }
}

