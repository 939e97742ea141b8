//! Write-ahead journal for [`DiskStore`](crate::DiskStore).
//!
//! Every mutating store operation is journaled as a *batch*: its effect
//! records ([`JournalRecord::Evict`] for each capacity victim, then the
//! [`JournalRecord::Put`] / [`JournalRecord::Pin`] / … itself) followed by a
//! [`JournalRecord::Commit`] marker. An operation is **acknowledged** exactly
//! when its commit marker is durable, and [`replay`] applies exactly the
//! committed batches, so the whole operation — including its evictions — is
//! atomic under any power cut:
//!
//! * a cut before the commit marker discards the entire batch (unacked puts
//!   vanish, their evictions un-happen);
//! * a cut after the commit marker preserves the entire batch (acked puts
//!   survive recovery).
//!
//! # On-"disk" cell format
//!
//! The journal is a flat byte log of self-checking cells:
//!
//! ```text
//! [len: u32 LE] [body: tag u8 + payload] [check: u64 LE = fnv1a64(body)]
//! ```
//!
//! A torn write leaves a strict prefix of a cell at the log tail; replay
//! detects it as a short or checksum-failing cell, discards it together with
//! its uncommitted batch, and stops — the classic WAL recovery rule.
//! Replay is idempotent: it only reads the log, so recovering twice from the
//! same media yields the same state.
//!
//! The log itself is [`JournalMedia`] — shared, crash-surviving bytes
//! (`Arc<Mutex<Vec<u8>>>`): the store holding the journal may "die" (drop or
//! go inert) while the harness keeps the media handle and recovers a fresh
//! store from it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use gear_hash::Fingerprint;

/// One journaled effect. `Commit` terminates a batch; everything between two
/// commit markers belongs to one atomic store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A blob became resident.
    Put {
        /// Content address of the blob.
        fingerprint: Fingerprint,
        /// The stored bytes.
        content: Bytes,
    },
    /// A blob left residency (capacity eviction or explicit evict).
    Evict {
        /// Content address of the evicted blob.
        fingerprint: Fingerprint,
    },
    /// One pin reference was added.
    Pin {
        /// Content address of the pinned blob.
        fingerprint: Fingerprint,
    },
    /// One pin reference was released.
    Unpin {
        /// Content address of the unpinned blob.
        fingerprint: Fingerprint,
    },
    /// Every blob was dropped (the cold-cache experiment reset).
    Clear,
    /// Batch terminator: everything since the previous commit is atomic.
    Commit,
}

const TAG_PUT: u8 = 1;
const TAG_EVICT: u8 = 2;
const TAG_PIN: u8 = 3;
const TAG_UNPIN: u8 = 4;
const TAG_CLEAR: u8 = 5;
const TAG_COMMIT: u8 = 6;

/// FNV-1a over `bytes`, the journal's (and snapshot's) torn-write detector.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl JournalRecord {
    /// Encodes the record as one self-checking cell (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            JournalRecord::Put { fingerprint, content } => {
                body.push(TAG_PUT);
                body.extend_from_slice(fingerprint.as_bytes());
                body.extend_from_slice(content);
            }
            JournalRecord::Evict { fingerprint } => {
                body.push(TAG_EVICT);
                body.extend_from_slice(fingerprint.as_bytes());
            }
            JournalRecord::Pin { fingerprint } => {
                body.push(TAG_PIN);
                body.extend_from_slice(fingerprint.as_bytes());
            }
            JournalRecord::Unpin { fingerprint } => {
                body.push(TAG_UNPIN);
                body.extend_from_slice(fingerprint.as_bytes());
            }
            JournalRecord::Clear => body.push(TAG_CLEAR),
            JournalRecord::Commit => body.push(TAG_COMMIT),
        }
        let mut cell = Vec::with_capacity(4 + body.len() + 8);
        cell.extend_from_slice(&(body.len() as u32).to_le_bytes());
        cell.extend_from_slice(&body);
        cell.extend_from_slice(&checksum64(&body).to_le_bytes());
        cell
    }

    /// Decodes one cell starting at `bytes`. Returns the record and the cell
    /// size, or `None` when the prefix is short, checksum-failing, or
    /// malformed — i.e. a torn tail.
    fn decode(bytes: &[u8]) -> Option<(JournalRecord, usize)> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        // Checked: a hostile length must not wrap a 32-bit `usize`.
        let body_end = len.checked_add(4)?;
        let cell_end = body_end.checked_add(8)?;
        let body = bytes.get(4..body_end)?;
        let check = u64::from_le_bytes(bytes.get(body_end..cell_end)?.try_into().ok()?);
        if checksum64(body) != check {
            return None;
        }
        let fp_of = |b: &[u8]| -> Option<Fingerprint> {
            Some(Fingerprint::from_bytes(b.get(..16)?.try_into().ok()?))
        };
        let record = match *body.first()? {
            TAG_PUT => JournalRecord::Put {
                fingerprint: fp_of(&body[1..])?,
                content: Bytes::copy_from_slice(body.get(17..)?),
            },
            TAG_EVICT if body.len() == 17 => JournalRecord::Evict { fingerprint: fp_of(&body[1..])? },
            TAG_PIN if body.len() == 17 => JournalRecord::Pin { fingerprint: fp_of(&body[1..])? },
            TAG_UNPIN if body.len() == 17 => JournalRecord::Unpin { fingerprint: fp_of(&body[1..])? },
            TAG_CLEAR if body.len() == 1 => JournalRecord::Clear,
            TAG_COMMIT if body.len() == 1 => JournalRecord::Commit,
            _ => return None,
        };
        Some((record, cell_end))
    }
}

/// The durable medium a journal is written to: shared bytes that survive the
/// "death" of the store writing them. Clone the handle before handing it to
/// a store; after a crash, recover a fresh store from the same handle.
#[derive(Debug, Clone, Default)]
pub struct JournalMedia(Arc<Mutex<Vec<u8>>>);

impl JournalMedia {
    /// An empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// A torn tail is a state recovery already handles, so a poisoned lock
    /// still guards valid media.
    fn bytes(&self) -> MutexGuard<'_, Vec<u8>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Journal size in bytes (including any torn tail).
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether nothing has ever been written.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Appends raw bytes (possibly a torn prefix of a cell).
    pub(crate) fn append(&self, bytes: &[u8]) {
        self.bytes().extend_from_slice(bytes);
    }

    /// Snapshot of the full journal contents.
    pub(crate) fn contents(&self) -> Vec<u8> {
        self.bytes().clone()
    }

    /// Replaces the journal wholesale (compaction after recovery).
    pub(crate) fn replace(&self, bytes: Vec<u8>) {
        *self.bytes() = bytes;
    }
}

/// What [`replay`] reconstructed and what it had to discard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records applied from committed batches (commit markers included).
    pub replayed_records: u64,
    /// Records discarded from the uncommitted tail batch.
    pub discarded_records: u64,
    /// Whether a torn (short or checksum-failing) cell ended the scan.
    pub torn_tail: bool,
    /// Blobs resident after replay.
    pub recovered_blobs: u64,
    /// Bytes resident after replay.
    pub recovered_bytes: u64,
    /// Journal bytes scanned (prices the recovery read).
    pub read_bytes: u64,
}

/// The store state a committed journal prefix reconstructs: resident blobs
/// with pin counts, in re-insertion order (the order recovery re-ticks).
#[derive(Debug, Clone, Default)]
pub struct ReplayedState {
    /// `(fingerprint, content, pins)` in the order the blobs (re-)entered
    /// residency.
    pub entries: Vec<(Fingerprint, Bytes, u32)>,
}

/// Replays `media`, applying exactly the committed batches (see the module
/// docs). Pure read of the media: calling it twice yields identical results.
pub fn replay(media: &JournalMedia) -> (ReplayedState, RecoveryReport) {
    let log = media.contents();
    let mut report = RecoveryReport { read_bytes: log.len() as u64, ..Default::default() };

    // Parse the cell stream; stop at the first torn cell.
    let mut records = Vec::new();
    let mut offset = 0;
    while offset < log.len() {
        match JournalRecord::decode(&log[offset..]) {
            Some((record, size)) => {
                records.push(record);
                offset += size;
            }
            None => {
                report.torn_tail = true;
                break;
            }
        }
    }
    // Records after the last commit marker belong to an uncommitted batch.
    let committed = records
        .iter()
        .rposition(|r| *r == JournalRecord::Commit)
        .map_or(0, |last| last + 1);
    report.discarded_records = (records.len() - committed) as u64;
    records.truncate(committed);
    report.replayed_records = records.len() as u64;

    // Apply the committed prefix. `order` keeps first-residency order with
    // re-inserts moved to the back (matching a fresh store's tick order);
    // `live` holds the surviving entries.
    let mut live: HashMap<Fingerprint, (Bytes, u32)> = HashMap::new();
    let mut order: Vec<Fingerprint> = Vec::new();
    for record in records {
        match record {
            JournalRecord::Put { fingerprint, content } => {
                if let std::collections::hash_map::Entry::Vacant(slot) = live.entry(fingerprint) {
                    slot.insert((content, 0));
                    order.retain(|fp| *fp != fingerprint);
                    order.push(fingerprint);
                }
            }
            JournalRecord::Evict { fingerprint } => {
                live.remove(&fingerprint);
            }
            JournalRecord::Pin { fingerprint } => {
                if let Some((_, pins)) = live.get_mut(&fingerprint) {
                    *pins += 1;
                }
            }
            JournalRecord::Unpin { fingerprint } => {
                if let Some((_, pins)) = live.get_mut(&fingerprint) {
                    *pins = pins.saturating_sub(1);
                }
            }
            JournalRecord::Clear => {
                live.clear();
                order.clear();
            }
            JournalRecord::Commit => {}
        }
    }
    let entries: Vec<(Fingerprint, Bytes, u32)> = order
        .into_iter()
        .filter_map(|fp| live.remove(&fp).map(|(content, pins)| (fp, content, pins)))
        .collect();
    report.recovered_blobs = entries.len() as u64;
    report.recovered_bytes = entries.iter().map(|(_, c, _)| c.len() as u64).sum();
    (ReplayedState { entries }, report)
}

/// Rewrites `media` to the minimal committed journal reproducing `state`:
/// one `Put` (and `Pin` per reference) per resident blob, one `Commit`.
pub fn compact(media: &JournalMedia, state: &ReplayedState) {
    let mut log = Vec::new();
    for (fingerprint, content, pins) in &state.entries {
        log.extend_from_slice(
            &JournalRecord::Put { fingerprint: *fingerprint, content: content.clone() }.encode(),
        );
        for _ in 0..*pins {
            log.extend_from_slice(&JournalRecord::Pin { fingerprint: *fingerprint }.encode());
        }
    }
    log.extend_from_slice(&JournalRecord::Commit.encode());
    media.replace(log);
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

    fn all_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Put { fingerprint: fp(1), content: body(1, 9) },
            JournalRecord::Put { fingerprint: fp(2), content: Bytes::new() },
            JournalRecord::Evict { fingerprint: fp(1) },
            JournalRecord::Pin { fingerprint: fp(2) },
            JournalRecord::Unpin { fingerprint: fp(2) },
            JournalRecord::Clear,
            JournalRecord::Commit,
        ]
    }

    #[test]
    fn encode_decode_roundtrips() {
        for record in all_records() {
            let cell = record.encode();
            let (decoded, size) = JournalRecord::decode(&cell).expect("valid cell");
            assert_eq!(decoded, record);
            assert_eq!(size, cell.len());
        }
    }

    #[test]
    fn every_strict_prefix_reads_as_torn() {
        for record in all_records() {
            let cell = record.encode();
            for keep in 0..cell.len() {
                assert!(
                    JournalRecord::decode(&cell[..keep]).is_none(),
                    "{record:?} prefix of {keep} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn corrupted_cells_fail_the_checksum() {
        let cell = JournalRecord::Put { fingerprint: fp(1), content: body(1, 20) }.encode();
        for i in 4..cell.len() {
            let mut bad = cell.clone();
            bad[i] ^= 0x01;
            assert!(JournalRecord::decode(&bad).is_none(), "flip at {i} must be caught");
        }
    }

    #[test]
    fn replay_applies_only_committed_batches() {
        let media = JournalMedia::new();
        // Batch 1 (committed): put a, put b, pin b.
        for r in [
            JournalRecord::Put { fingerprint: fp(1), content: body(1, 5) },
            JournalRecord::Put { fingerprint: fp(2), content: body(2, 6) },
            JournalRecord::Pin { fingerprint: fp(2) },
            JournalRecord::Commit,
        ] {
            media.append(&r.encode());
        }
        // Batch 2 (uncommitted): evict a, put c — must be discarded whole.
        for r in [
            JournalRecord::Evict { fingerprint: fp(1) },
            JournalRecord::Put { fingerprint: fp(3), content: body(3, 7) },
        ] {
            media.append(&r.encode());
        }
        let (state, report) = replay(&media);
        let fps: Vec<Fingerprint> = state.entries.iter().map(|(f, _, _)| *f).collect();
        assert_eq!(fps, vec![fp(1), fp(2)]);
        assert_eq!(state.entries[1].2, 1, "pin on b survives");
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.discarded_records, 2);
        assert!(!report.torn_tail);
        assert_eq!(report.recovered_blobs, 2);
        assert_eq!(report.recovered_bytes, 11);
    }

    #[test]
    fn torn_tail_is_detected_and_replay_is_idempotent() {
        let media = JournalMedia::new();
        media.append(
            &JournalRecord::Put { fingerprint: fp(1), content: body(1, 5) }.encode(),
        );
        media.append(&JournalRecord::Commit.encode());
        let torn = JournalRecord::Put { fingerprint: fp(2), content: body(2, 50) }.encode();
        media.append(&torn[..torn.len() / 2]);
        let (state1, report1) = replay(&media);
        assert!(report1.torn_tail);
        assert_eq!(report1.replayed_records, 2);
        assert_eq!(state1.entries.len(), 1);
        // Idempotent: a second replay sees exactly the same thing.
        let (state2, report2) = replay(&media);
        assert_eq!(state1.entries, state2.entries);
        assert_eq!(report1, report2);
    }

    #[test]
    fn reinsert_after_evict_moves_to_the_back_of_the_order() {
        let media = JournalMedia::new();
        for r in [
            JournalRecord::Put { fingerprint: fp(1), content: body(1, 4) },
            JournalRecord::Put { fingerprint: fp(2), content: body(2, 4) },
            JournalRecord::Commit,
            JournalRecord::Evict { fingerprint: fp(1) },
            JournalRecord::Commit,
            JournalRecord::Put { fingerprint: fp(1), content: body(1, 4) },
            JournalRecord::Commit,
        ] {
            media.append(&r.encode());
        }
        let (state, _) = replay(&media);
        let fps: Vec<Fingerprint> = state.entries.iter().map(|(f, _, _)| *f).collect();
        assert_eq!(fps, vec![fp(2), fp(1)], "re-inserted blob is youngest");
    }

    #[test]
    fn compaction_preserves_replayed_state() {
        let media = JournalMedia::new();
        for r in [
            JournalRecord::Put { fingerprint: fp(1), content: body(1, 400) },
            JournalRecord::Commit,
            JournalRecord::Evict { fingerprint: fp(1) },
            JournalRecord::Commit,
            JournalRecord::Put { fingerprint: fp(2), content: body(2, 8) },
            JournalRecord::Pin { fingerprint: fp(2) },
            JournalRecord::Pin { fingerprint: fp(2) },
            JournalRecord::Commit,
        ] {
            media.append(&r.encode());
        }
        let before = media.len();
        let (state, _) = replay(&media);
        compact(&media, &state);
        assert!(media.len() < before, "dead history is dropped");
        let (after, report) = replay(&media);
        assert_eq!(after.entries, state.entries);
        assert!(!report.torn_tail);
        assert_eq!(report.discarded_records, 0);
    }

    mod damaged_streams {
        use super::*;
        use proptest::prelude::*;

        /// Four blobs, so records land on what earlier ones put, pinned or
        /// evicted; commits often enough that most streams hold batches.
        fn any_record() -> impl Strategy<Value = JournalRecord> {
            prop_oneof![
                (0..4u8, 0..40usize).prop_map(|(n, len)| JournalRecord::Put {
                    fingerprint: fp(n),
                    content: body(n, len)
                }),
                (0..4u8).prop_map(|n| JournalRecord::Evict { fingerprint: fp(n) }),
                (0..4u8).prop_map(|n| JournalRecord::Pin { fingerprint: fp(n) }),
                (0..4u8).prop_map(|n| JournalRecord::Unpin { fingerprint: fp(n) }),
                Just(JournalRecord::Clear),
                Just(JournalRecord::Commit),
                Just(JournalRecord::Commit),
            ]
        }

        /// One way to damage a record stream; the `u64`s pick where.
        #[derive(Debug, Clone)]
        enum Damage {
            Truncate(u64),
            FlipByte(u64, u8),
            Overwrite(u64, Vec<u8>),
            /// Inserts bytes, led by a `u32::MAX` length prefix when set.
            InsertRun(u64, bool, Vec<u8>),
        }

        fn any_damage() -> impl Strategy<Value = Damage> {
            let bytes = || proptest::collection::vec(any::<u8>(), 1..16);
            prop_oneof![
                any::<u64>().prop_map(Damage::Truncate),
                (any::<u64>(), 1..=255u8).prop_map(|(at, mask)| Damage::FlipByte(at, mask)),
                (any::<u64>(), bytes()).prop_map(|(at, run)| Damage::Overwrite(at, run)),
                (any::<u64>(), any::<bool>(), bytes())
                    .prop_map(|(at, huge, run)| Damage::InsertRun(at, huge, run)),
            ]
        }

        fn damaged(log: &[u8], damage: &Damage) -> Vec<u8> {
            let mut bytes = log.to_vec();
            let within = |at: u64| (at % log.len() as u64) as usize;
            let up_to_end = |at: u64| (at % (log.len() as u64 + 1)) as usize;
            match damage {
                Damage::Truncate(cut) => bytes.truncate(up_to_end(*cut)),
                Damage::FlipByte(at, mask) => bytes[within(*at)] ^= mask,
                Damage::Overwrite(at, run) => {
                    for (byte, new) in bytes[within(*at)..].iter_mut().zip(run) {
                        *byte = *new;
                    }
                }
                Damage::InsertRun(at, huge, run) => {
                    let prefix = if *huge { u32::MAX.to_le_bytes().to_vec() } else { Vec::new() };
                    let at = up_to_end(*at);
                    bytes.splice(at..at, prefix.into_iter().chain(run.iter().copied()));
                }
            }
            bytes
        }

        fn replay_bytes(bytes: &[u8]) -> (ReplayedState, RecoveryReport) {
            let media = JournalMedia::new();
            media.append(bytes);
            replay(&media)
        }

        proptest! {
            /// A record stream damaged by truncation, a flipped byte, an
            /// overwritten run or an inserted one (a `u32::MAX` length
            /// among them) replays without a panic, and applies what the
            /// clean stream's cells before the first damaged byte apply:
            /// their committed prefix, nothing after. (8 damaged streams
            /// per case.)
            #[test]
            fn replay_applies_a_committed_prefix_of_the_clean_stream(
                records in proptest::collection::vec(any_record(), 1..24),
                damages in proptest::collection::vec(any_damage(), 8),
            ) {
                let cells: Vec<Vec<u8>> = records.iter().map(JournalRecord::encode).collect();
                let clean = cells.concat();
                for damage in &damages {
                    let bytes = damaged(&clean, damage);
                    let (state, report) = replay_bytes(&bytes);
                    let first_bad = clean
                        .iter()
                        .zip(&bytes)
                        .position(|(a, b)| a != b)
                        .unwrap_or(clean.len().min(bytes.len()));
                    let mut intact = 0;
                    let mut end = 0;
                    while intact < cells.len() && end + cells[intact].len() <= first_bad {
                        end += cells[intact].len();
                        intact += 1;
                    }
                    // The intact cells' committed prefix ends at their last
                    // commit; a stream of just those cells ends clean.
                    let committed = records[..intact]
                        .iter()
                        .rposition(|r| *r == JournalRecord::Commit)
                        .map_or(0, |last| last + 1);
                    let (want, _) = replay_bytes(&cells[..committed].concat());
                    prop_assert_eq!(&state.entries, &want.entries, "{:?}", damage);
                    prop_assert_eq!(report.replayed_records, committed as u64);
                    prop_assert_eq!(report.discarded_records, (intact - committed) as u64);
                    prop_assert_eq!(report.torn_tail, bytes.len() > end, "{:?}", damage);
                }
            }
        }
    }
}
