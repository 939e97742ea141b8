//! Live-upgrade state handoff: serializable snapshots of every store shape
//! ([`MemStore`], [`DiskStore`], [`TieredStore`]).
//!
//! A [`StoreSnapshot`] captures the *complete* observable state of a running
//! store — contents, pin counts, per-entry eviction ticks, the tick counter,
//! accrued (undrained) simulated I/O time, and the statistics counters — so
//! a "new version" process can [`restore`](StoreSnapshot::restore) it
//! mid-traffic and behave **tick-for-tick identically** from that point on:
//! same victims, same hits, same priced I/O. That is the zero-downtime
//! upgrade shape production storage daemons use (nydus' failover/upgrade
//! path), reduced to this crate's deterministic models.
//!
//! Snapshots serialize to a versioned, checksummed binary blob
//! ([`StoreSnapshot::to_bytes`] / [`StoreSnapshot::from_bytes`]) so the
//! handoff can cross a process boundary. Entries are serialized in
//! fingerprint order, making equal states produce equal bytes.
//!
//! The trailer is an unkeyed checksum — it catches torn writes, and anyone
//! can re-seal a blob — so [`StoreSnapshot::from_bytes`] treats its input as
//! untrusted: a length is bounds-checked before it is added to an offset,
//! entries must be in strictly ascending fingerprint order (what the
//! encoder writes, and what makes a fingerprint unique), and no frame
//! nests, so decoding never recurses. Shape tag 3, once a wrapper around
//! further snapshots, is retired and decodes to
//! [`SnapshotError::Malformed`].
//!
//! A journaled [`DiskStore`](crate::DiskStore) snapshots its *logical* state
//! only: the journal media handle and crash plan are harness-owned wiring,
//! re-attached explicitly on the new instance if desired.

use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::DiskModel;

use crate::journal::checksum64;
use crate::{BlobStore, DiskStore, EvictionPolicy, MemStore, StoreStats, TieredStore};

/// One resident blob's full state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySnapshot {
    /// Content address.
    pub fingerprint: Fingerprint,
    /// Stored bytes.
    pub content: Bytes,
    /// Pin references held.
    pub pins: u32,
    /// Insertion tick (FIFO eviction key).
    pub inserted: u64,
    /// Last-use tick (LRU eviction key).
    pub used: u64,
}

/// A [`MemStore`]'s complete state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Replacement policy.
    pub policy: EvictionPolicy,
    /// Byte capacity (`None` = unbounded).
    pub capacity: Option<u64>,
    /// Tick counter value at snapshot time.
    pub ticks: u64,
    /// Resident entries, in fingerprint order.
    pub entries: Vec<EntrySnapshot>,
    /// Monotonic counters (gauges are recomputed from the entries).
    pub counters: StoreStats,
}

/// A [`DiskStore`]'s complete state.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSnapshot {
    /// The backing in-memory state.
    pub mem: MemSnapshot,
    /// The I/O pricing model.
    pub model: DiskModel,
    /// Corpus byte-scale multiplier.
    pub byte_scale: u64,
    /// Simulated I/O time accrued but not yet drained.
    pub accrued: Duration,
}

/// A [`TieredStore`]'s complete state.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredSnapshot {
    /// The L1 accelerator tier.
    pub l1: MemSnapshot,
    /// The authoritative L2 tier.
    pub l2: DiskSnapshot,
}

/// A snapshot of any store shape this crate builds.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreSnapshot {
    /// Flat in-memory store.
    Mem(MemSnapshot),
    /// Store on modeled disk.
    Disk(DiskSnapshot),
    /// L1 memory over L2 disk.
    Tiered(TieredSnapshot),
}

/// Why a serialized snapshot failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// The leading magic was not a snapshot's.
    BadMagic,
    /// The version byte is newer than this build understands.
    BadVersion(u8),
    /// The trailing checksum did not match the payload.
    ChecksumMismatch,
    /// A tag or field held an impossible value.
    Malformed,
    /// The snapshot is well-formed but holds a different kind of store than
    /// the configuration resuming it describes.
    ShapeMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a store snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed => write!(f, "malformed snapshot field"),
            SnapshotError::ShapeMismatch => {
                write!(f, "snapshot store kind does not match the configuration")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

const MAGIC: &[u8; 4] = b"GSNP";
const VERSION: u8 = 1;

const TAG_MEM: u8 = 0;
const TAG_DISK: u8 = 1;
const TAG_TIERED: u8 = 2;
// 3 was a wrapper frame around further snapshots: retired, not to be reused.

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(n) => {
                self.u8(1);
                self.u64(n);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.take(N)?.try_into().map_err(|_| SnapshotError::Truncated)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.array()?))
    }
    fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)?;
        self.take(len)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed),
        }
    }
}

fn encode_stats(w: &mut Writer, s: &StoreStats) {
    for v in [
        s.hits,
        s.misses,
        s.evictions,
        s.evicted_bytes,
        s.pinned_bytes,
        s.objects,
        s.stored_bytes,
        s.logical_bytes,
        s.dedup_hits,
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut Reader) -> Result<StoreStats, SnapshotError> {
    Ok(StoreStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        evicted_bytes: r.u64()?,
        pinned_bytes: r.u64()?,
        objects: r.u64()?,
        stored_bytes: r.u64()?,
        logical_bytes: r.u64()?,
        dedup_hits: r.u64()?,
    })
}

fn encode_mem(w: &mut Writer, m: &MemSnapshot) {
    w.u8(match m.policy {
        EvictionPolicy::Fifo => 0,
        EvictionPolicy::Lru => 1,
    });
    w.opt_u64(m.capacity);
    w.u64(m.ticks);
    encode_stats(w, &m.counters);
    w.u64(m.entries.len() as u64);
    for e in &m.entries {
        w.0.extend_from_slice(e.fingerprint.as_bytes());
        w.bytes(&e.content);
        w.u32(e.pins);
        w.u64(e.inserted);
        w.u64(e.used);
    }
}

fn decode_mem(r: &mut Reader) -> Result<MemSnapshot, SnapshotError> {
    let policy = match r.u8()? {
        0 => EvictionPolicy::Fifo,
        1 => EvictionPolicy::Lru,
        _ => return Err(SnapshotError::Malformed),
    };
    let capacity = r.opt_u64()?;
    let ticks = r.u64()?;
    let counters = decode_stats(r)?;
    let count = r.u64()? as usize;
    let mut entries: Vec<EntrySnapshot> = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let fingerprint = Fingerprint::from_bytes(r.array()?);
        if entries.last().is_some_and(|prev| prev.fingerprint >= fingerprint) {
            return Err(SnapshotError::Malformed);
        }
        let content = Bytes::copy_from_slice(r.bytes()?);
        let pins = r.u32()?;
        let inserted = r.u64()?;
        let used = r.u64()?;
        entries.push(EntrySnapshot { fingerprint, content, pins, inserted, used });
    }
    Ok(MemSnapshot { policy, capacity, ticks, entries, counters })
}

fn encode_disk(w: &mut Writer, d: &DiskSnapshot) {
    encode_mem(w, &d.mem);
    w.u64(d.model.bytes_per_sec.to_bits());
    w.u128(d.model.per_file.as_nanos());
    w.u64(d.byte_scale);
    w.u128(d.accrued.as_nanos());
}

fn nanos_to_duration(nanos: u128) -> Result<Duration, SnapshotError> {
    let secs = u64::try_from(nanos / 1_000_000_000).map_err(|_| SnapshotError::Malformed)?;
    Ok(Duration::new(secs, (nanos % 1_000_000_000) as u32))
}

fn decode_disk(r: &mut Reader) -> Result<DiskSnapshot, SnapshotError> {
    let mem = decode_mem(r)?;
    let bytes_per_sec = f64::from_bits(r.u64()?);
    let per_file = nanos_to_duration(r.u128()?)?;
    let byte_scale = r.u64()?;
    let accrued = nanos_to_duration(r.u128()?)?;
    Ok(DiskSnapshot {
        mem,
        model: DiskModel { bytes_per_sec, per_file },
        byte_scale,
        accrued,
    })
}

fn encode_snapshot(w: &mut Writer, snapshot: &StoreSnapshot) {
    match snapshot {
        StoreSnapshot::Mem(m) => {
            w.u8(TAG_MEM);
            encode_mem(w, m);
        }
        StoreSnapshot::Disk(d) => {
            w.u8(TAG_DISK);
            encode_disk(w, d);
        }
        StoreSnapshot::Tiered(t) => {
            w.u8(TAG_TIERED);
            encode_mem(w, &t.l1);
            encode_disk(w, &t.l2);
            // Once a promote-on-hit flag; L2 hits always promote now, and
            // the byte stays so the layout does not move.
            w.u8(1);
        }
    }
}

fn decode_snapshot(r: &mut Reader) -> Result<StoreSnapshot, SnapshotError> {
    Ok(match r.u8()? {
        TAG_MEM => StoreSnapshot::Mem(decode_mem(r)?),
        TAG_DISK => StoreSnapshot::Disk(decode_disk(r)?),
        TAG_TIERED => {
            let l1 = decode_mem(r)?;
            let l2 = decode_disk(r)?;
            if r.u8()? != 1 {
                return Err(SnapshotError::Malformed);
            }
            StoreSnapshot::Tiered(TieredSnapshot { l1, l2 })
        }
        _ => return Err(SnapshotError::Malformed),
    })
}

impl StoreSnapshot {
    /// Serializes the snapshot: magic, version, payload, FNV-1a trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.0.extend_from_slice(MAGIC);
        w.u8(VERSION);
        encode_snapshot(&mut w, self);
        let check = checksum64(&w.0);
        w.u64(check);
        w.0
    }

    /// Loads a snapshot serialized by [`StoreSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreSnapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let check = Reader { buf: trailer, pos: 0 }.u64()?;
        if checksum64(payload) != check {
            return Err(SnapshotError::ChecksumMismatch);
        }
        if &payload[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if payload[4] != VERSION {
            return Err(SnapshotError::BadVersion(payload[4]));
        }
        let mut r = Reader { buf: payload, pos: 5 };
        let snapshot = decode_snapshot(&mut r)?;
        if r.pos != payload.len() {
            return Err(SnapshotError::Malformed);
        }
        Ok(snapshot)
    }

    /// Rehydrates a store that behaves tick-for-tick identically to the one
    /// snapshotted (see the module docs). Journal/crash wiring is not part
    /// of a snapshot and comes back detached.
    pub fn restore(&self) -> Box<dyn BlobStore> {
        match self {
            StoreSnapshot::Mem(m) => Box::new(MemStore::restore(m)),
            StoreSnapshot::Disk(d) => Box::new(DiskStore::restore(d)),
            StoreSnapshot::Tiered(t) => Box::new(TieredStore::restore(t)),
        }
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

    fn busy_mem() -> MemStore {
        let mut m = MemStore::with_policy(EvictionPolicy::Lru, Some(200));
        for n in 0u8..12 {
            m.insert(fp(n), body(n, 10 + n as usize));
        }
        m.get(fp(3));
        m.get(fp(200)); // miss
        m.pin(fp(5));
        m.pin(fp(5));
        m.pin(fp(7));
        m.unpin(fp(7));
        m.evict();
        m
    }

    #[test]
    fn bytes_roundtrip_is_exact_for_every_shape() {
        let mem = StoreSnapshot::Mem(busy_mem().snapshot_parts());
        let mut disk = DiskStore::new(EvictionPolicy::Fifo, Some(500), DiskModel::hdd(), 16);
        disk.insert(fp(1), body(1, 64));
        disk.pin(fp(1));
        let disk = disk.snapshot();
        let mut tiered =
            TieredStore::new(EvictionPolicy::Lru, Some(32), Some(100), DiskModel::ssd(), 1);
        tiered.put(fp(2), body(2, 16));
        tiered.get(fp(2));
        let tiered = tiered.snapshot();
        for snapshot in [mem, disk, tiered] {
            let bytes = snapshot.to_bytes();
            let back = StoreSnapshot::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, snapshot);
            // Canonical: equal state re-serializes to equal bytes.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let snapshot = StoreSnapshot::Mem(busy_mem().snapshot_parts());
        let bytes = snapshot.to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                StoreSnapshot::from_bytes(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes must not load"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(StoreSnapshot::from_bytes(&bad).is_err(), "flip at {i} must be caught");
        }
    }

    #[test]
    fn restored_mem_store_behaves_tick_for_tick() {
        let mut original = busy_mem();
        let mut restored = StoreSnapshot::Mem(original.snapshot_parts()).restore();
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.bytes(), restored.bytes());
        // Drive both through the same suffix; every observation must match.
        for n in 0u8..40 {
            assert_eq!(
                original.get(fp(n % 14)).is_some(),
                restored.get(fp(n % 14)).is_some(),
                "get {n}"
            );
            assert_eq!(
                original.insert(fp(100 + n), body(n, 9)),
                restored.put(fp(100 + n), body(n, 9)),
                "put {n}"
            );
        }
        assert_eq!(original.stats(), restored.stats());
        let mut a = Vec::new();
        let mut b = Vec::new();
        while let Some(v) = original.evict() {
            a.push(v);
        }
        while let Some(v) = restored.evict() {
            b.push(v);
        }
        assert_eq!(a, b, "identical eviction sequence to the end");
    }

    #[test]
    fn restored_disk_store_keeps_accrued_cost_and_pricing() {
        let mut original = DiskStore::new(EvictionPolicy::Lru, None, DiskModel::hdd(), 8);
        original.insert(fp(1), body(1, 1000));
        // Snapshot with the write cost still staged.
        let mut restored = original.snapshot().restore();
        assert_eq!(restored.drain_cost(), original.drain_cost(), "staged cost survives");
        // Same pricing model after restore.
        original.get(fp(1));
        restored.get(fp(1));
        assert_eq!(restored.drain_cost(), original.drain_cost());
    }
}
