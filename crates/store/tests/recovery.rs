//! Crash-recovery invariants for the journaled [`DiskStore`], under proptest
//! and under a deterministic seed matrix (the CI `crash-chaos` job).
//!
//! The contract under test (see `gear_store::journal`):
//!
//! * **Atomic batches** — after recovering from a crash, the store state is
//!   exactly the state after some *prefix of whole operations*: either the
//!   crashing operation committed entirely (evictions + put together) or it
//!   vanished entirely. Equivalently: no acknowledged blob is ever lost, and
//!   unacknowledged puts leave no trace — no partial contents, no orphan
//!   evictions.
//! * **Statistics rebuilt consistent** — gauges match a fresh scan of the
//!   recovered contents; counters restart at zero.
//! * **Idempotent replay** — recovering twice from the same media yields the
//!   same store.
//! * **L1 ⊆ L2** — a tiered store whose journaled L2 crashes recovers with
//!   its volatile L1 empty, and the inclusion holds through post-recovery
//!   traffic.
//! * **Snapshots are untrusted bytes** — the FNV-1a trailer is unkeyed, so
//!   any blob can be re-sealed: `StoreSnapshot::from_bytes` answers damaged
//!   or crafted input with a typed error, never a panic, and whatever it
//!   does accept restores to a store that drains without one. The bytes of
//!   an intact snapshot are pinned.

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::{CrashPlan, CrashPoint, DiskModel};
use gear_store::{
    BlobStore, DiskStore, EntrySnapshot, EvictionPolicy, JournalMedia, MemSnapshot, MemStore,
    SnapshotError, StoreSnapshot, StoreStats, TieredStore,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Get(u8),
    Pin(u8),
    Unpin(u8),
    Evict,
    Clear,
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u16..256).prop_map(|(k, len)| Op::Put(k, len)),
        (any::<u8>(), 1u16..256).prop_map(|(k, len)| Op::Put(k, len)),
        (any::<u8>(), 1u16..256).prop_map(|(k, len)| Op::Put(k, len)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Pin),
        any::<u8>().prop_map(Op::Unpin),
        Just(Op::Evict),
        Just(Op::Clear),
    ]
}

fn any_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![Just(EvictionPolicy::Fifo), Just(EvictionPolicy::Lru)]
}

fn any_plan() -> impl Strategy<Value = CrashPlan> {
    let point = prop_oneof![
        Just(CrashPoint::BeforeWrite),
        Just(CrashPoint::TornWrite),
        Just(CrashPoint::AfterWrite),
    ];
    prop_oneof![
        // Scripted: die at an exact journal write.
        (0u64..60, point).prop_map(|(at, p)| CrashPlan::new(0).crash_at_write(at, p)),
        // Probabilistic: seeded per-write coin.
        (any::<u64>(), 2u32..20)
            .prop_map(|(seed, p)| CrashPlan::new(seed).with_crash(f64::from(p) / 100.0)),
    ]
}

fn fp(k: u8) -> Fingerprint {
    Fingerprint::of(&[k])
}

fn body(k: u8, len: u16) -> Bytes {
    Bytes::from(vec![k; len as usize])
}

fn apply(store: &mut dyn BlobStore, op: &Op) -> String {
    match op {
        Op::Put(k, len) => format!("put={}", store.put(fp(*k), body(*k, *len))),
        Op::Get(k) => format!("get={:?}", store.get(fp(*k)).map(|b| b.len())),
        Op::Pin(k) => {
            store.pin(fp(*k));
            String::new()
        }
        Op::Unpin(k) => {
            store.unpin(fp(*k));
            String::new()
        }
        Op::Evict => format!("evict={:?}", store.evict()),
        Op::Clear => {
            store.clear();
            String::new()
        }
    }
}

/// The logical contents a snapshot exposes: `(fingerprint, content, pins)`
/// in fingerprint order — everything that must survive a crash (ticks and
/// counters are volatile and excluded on purpose).
fn logical_state(store: &dyn BlobStore) -> Vec<(Fingerprint, Bytes, u32)> {
    let mem = match store.snapshot() {
        StoreSnapshot::Mem(m) => m,
        StoreSnapshot::Disk(d) => d.mem,
        other => panic!("single-store test helper got {other:?}"),
    };
    mem.entries.into_iter().map(|e| (e.fingerprint, e.content, e.pins)).collect()
}

/// Drives `ops` into a journaled store under `plan`; on a crash, recovers
/// from the media and checks every recovery invariant against two shadow
/// stores (state before the crashing op / state after it). Returns whether
/// a crash fired, so callers can assert coverage.
fn run_crash_case(
    policy: EvictionPolicy,
    capacity: Option<u64>,
    ops: &[Op],
    plan: CrashPlan,
) -> bool {
    let media = JournalMedia::new();
    let model = DiskModel::ssd();
    let mut store =
        DiskStore::with_journal(policy, capacity, model, 1, media.clone(), plan);
    // Shadows replicate the plain (crash-free) semantics: `completed` holds
    // every op that finished before the crash, `including` additionally
    // holds the op the crash interrupted.
    let mut completed = DiskStore::new(policy, capacity, model, 1);
    let mut including = DiskStore::new(policy, capacity, model, 1);

    let mut crash_op: Option<(usize, String)> = None;
    for (i, op) in ops.iter().enumerate() {
        let observed = apply(&mut store, op);
        apply(&mut including, op);
        if store.is_crashed() {
            crash_op = Some((i, observed));
            break;
        }
        let shadow = apply(&mut completed, op);
        assert_eq!(observed, shadow, "pre-crash op {op:?} must behave crash-free");
    }

    let Some((crash_index, crash_observed)) = crash_op else {
        // No crash: the journaled store must agree with plain semantics to
        // the end, and recovery from a cleanly committed journal must
        // reproduce the live contents.
        let (recovered, report) = DiskStore::recover(policy, capacity, model, 1, media);
        assert!(!report.torn_tail, "no crash, no torn tail");
        assert_eq!(report.discarded_records, 0);
        assert_eq!(logical_state(&recovered), logical_state(&completed));
        return false;
    };

    let (recovered, report) = DiskStore::recover(policy, capacity, model, 1, media.clone());
    let state = logical_state(&recovered);
    assert_eq!(report.recovered_blobs as usize, state.len(), "report counts what it recovered");
    let before = logical_state(&completed);
    let after = logical_state(&including);

    // Atomicity: recovery lands exactly on a whole-operation boundary.
    assert!(
        state == before || state == after,
        "recovered state is neither side of the crashing op #{crash_index} \
         {:?}\n  recovered: {state:?}\n  before: {before:?}\n  after: {after:?}",
        ops[crash_index],
    );
    // An acknowledged put must be on the committed side.
    if crash_observed == "put=true" {
        assert_eq!(state, after, "acked put lost by recovery");
    }
    // No partial contents: every recovered blob is byte-exact (keys encode
    // the fill byte, so any torn body would differ).
    for (f, content, _) in &state {
        let k = content.first().copied().expect("bodies are non-empty");
        assert_eq!(*f, fp(k), "recovered key mismatch");
        assert!(content.iter().all(|b| *b == k), "partial blob content for {f}");
    }
    // Stats: gauges match a fresh scan, counters restart at zero.
    let stats = recovered.stats();
    assert_eq!(stats.objects, state.len() as u64);
    assert_eq!(stats.stored_bytes, state.iter().map(|(_, c, _)| c.len() as u64).sum::<u64>());
    assert_eq!(
        stats.pinned_bytes,
        state
            .iter()
            .filter(|(_, _, pins)| *pins > 0)
            .map(|(_, c, _)| c.len() as u64)
            .sum::<u64>()
    );
    assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 0, 0));
    // Idempotent replay: a second recovery (from the now-compacted media)
    // sees the identical store.
    let (again, _) = DiskStore::recover(policy, capacity, model, 1, media);
    assert_eq!(logical_state(&again), state);
    true
}

proptest! {
    /// The tentpole property: under any op sequence, policy, capacity, and
    /// crash plan, recovery is atomic at operation granularity, loses no
    /// acknowledged blob, drops every unacknowledged put, rebuilds stats
    /// consistently, and replays idempotently.
    #[test]
    fn recovery_invariants_hold_at_every_crash_point(
        ops in proptest::collection::vec(any_op(), 1..80),
        policy in any_policy(),
        capacity in prop_oneof![Just(None), (300u64..3000).prop_map(Some)],
        plan in any_plan(),
    ) {
        run_crash_case(policy, capacity, &ops, plan);
    }

    /// L1 ⊆ L2 holds through a crash: the tiered store's volatile L1 is
    /// empty right after recovery and stays included in L2 under further
    /// traffic.
    #[test]
    fn tiered_l1_subset_of_l2_survives_crash_and_recovery(
        ops in proptest::collection::vec(any_op(), 1..60),
        suffix in proptest::collection::vec(any_op(), 1..40),
        l1_capacity in prop_oneof![Just(None), (100u64..800).prop_map(Some)],
        plan in any_plan(),
    ) {
        let media = JournalMedia::new();
        let policy = EvictionPolicy::Lru;
        let l2_capacity = Some(2000);
        let model = DiskModel::ssd();
        let l2 = DiskStore::with_journal(policy, l2_capacity, model, 1, media.clone(), plan);
        let mut tiered =
            TieredStore::from_parts(MemStore::with_policy(policy, l1_capacity), l2);
        for op in &ops {
            apply(&mut tiered, op);
            if tiered.is_crashed() {
                break;
            }
        }
        if !tiered.is_crashed() {
            return Ok(()); // crash-free runs are covered elsewhere
        }
        prop_assert_eq!(tiered.tier_bytes(), (0, 0), "dead machine holds nothing");
        let (l2, _) = DiskStore::recover(policy, l2_capacity, model, 1, media);
        let mut tiered =
            TieredStore::from_parts(MemStore::with_policy(policy, l1_capacity), l2);
        prop_assert_eq!(tiered.tier_bytes().0, 0, "L1 restarts cold");
        for op in &suffix {
            apply(&mut tiered, op);
            // Inclusion check via the snapshot: every L1 entry must be in
            // L2 with identical bytes.
            let StoreSnapshot::Tiered(snap) = BlobStore::snapshot(&tiered) else {
                unreachable!()
            };
            for entry in &snap.l1.entries {
                let twin = snap
                    .l2
                    .mem
                    .entries
                    .iter()
                    .find(|e| e.fingerprint == entry.fingerprint);
                prop_assert!(
                    twin.is_some_and(|t| t.content == entry.content),
                    "L1 blob {} missing from L2 after {:?}",
                    entry.fingerprint,
                    op
                );
            }
        }
    }

    /// Upgrade handoff bit-identity: snapshot a store mid-workload, push the
    /// snapshot through its byte encoding, restore, and the restored store
    /// is observation-for-observation identical on any suffix — including
    /// eviction victims and priced I/O.
    #[test]
    fn snapshot_handoff_is_bit_identical(
        prefix in proptest::collection::vec(any_op(), 0..60),
        suffix in proptest::collection::vec(any_op(), 1..60),
        policy in any_policy(),
        capacity in prop_oneof![Just(None), (300u64..3000).prop_map(Some)],
    ) {
        let mut original = DiskStore::new(policy, capacity, DiskModel::hdd(), 4);
        for op in &prefix {
            apply(&mut original, op);
        }
        let bytes = BlobStore::snapshot(&original).to_bytes();
        let snapshot = StoreSnapshot::from_bytes(&bytes).expect("snapshot roundtrip");
        let mut restored = snapshot.restore();
        for op in &suffix {
            let a = apply(&mut original, op);
            let b = apply(restored.as_mut(), op);
            prop_assert_eq!(a, b, "upgraded instance diverged at {:?}", op);
            prop_assert_eq!(original.drain_cost(), restored.drain_cost());
        }
        prop_assert_eq!(BlobStore::stats(&original), restored.stats());
        prop_assert_eq!(logical_state(&original), logical_state(restored.as_ref()));
        prop_assert_eq!(drain(&mut original), drain(restored.as_mut()), "victim order");
    }

    /// Truncate, flip a byte or overwrite a length field of any store
    /// shape's snapshot, re-seal the trailer, and decoding is a typed error
    /// or a store that drains — never a panic.
    #[test]
    fn damaged_snapshot_never_panics(
        ops in proptest::collection::vec(any_op(), 0..40),
        shape in 0u8..3,
        policy in any_policy(),
        capacity in prop_oneof![Just(None), (300u64..3000).prop_map(Some)],
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
        length in prop_oneof![Just(u64::MAX), Just(0u64), 0u64..4096, any::<u64>()],
    ) {
        let model = DiskModel::ssd();
        let mut store: Box<dyn BlobStore> = match shape {
            0 => Box::new(MemStore::with_policy(policy, capacity)),
            1 => Box::new(DiskStore::new(policy, capacity, model, 2)),
            _ => Box::new(TieredStore::new(policy, Some(400), capacity, model, 2)),
        };
        for op in &ops {
            apply(store.as_mut(), op);
        }
        let snapshot = store.snapshot();
        let mut payload = snapshot.to_bytes();
        payload.truncate(payload.len() - 8);

        let truncated = payload[..at.index(payload.len())].to_vec();
        let mut flipped = payload.clone();
        flipped[at.index(payload.len())] ^= flip;
        let fields = length_fields(&snapshot);
        let field = fields[at.index(fields.len())];
        let mut relengthed = payload;
        relengthed[field..field + 8].copy_from_slice(&length.to_le_bytes());

        for damaged in [truncated, flipped, relengthed] {
            if let Ok(decoded) = StoreSnapshot::from_bytes(&seal(damaged)) {
                drain(decoded.restore().as_mut());
            }
        }
    }
}

/// Evicts until nothing evictable is left, returning the victim order.
fn drain(store: &mut dyn BlobStore) -> Vec<(Fingerprint, u64)> {
    std::iter::from_fn(|| store.evict()).collect()
}

/// Appends the snapshot trailer — unkeyed FNV-1a, so anyone holding a blob
/// can do this — to a payload of magic, version and body.
fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in &payload {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    payload.extend_from_slice(&hash.to_le_bytes());
    payload
}

/// Offsets into `snapshot.to_bytes()` of every `u64` length field: each
/// store's entry count and each entry's content length.
fn length_fields(snapshot: &StoreSnapshot) -> Vec<usize> {
    fn mem(m: &MemSnapshot, at: &mut usize, fields: &mut Vec<usize>) {
        // policy, capacity, ticks, nine counters
        *at += 1 + if m.capacity.is_some() { 9 } else { 1 } + 8 + 72;
        fields.push(*at);
        *at += 8;
        for e in &m.entries {
            fields.push(*at + 16); // after the fingerprint
            *at += 16 + 8 + e.content.len() + 4 + 8 + 8;
        }
    }
    let mut at = 6; // magic, version, shape tag
    let mut fields = Vec::new();
    match snapshot {
        StoreSnapshot::Mem(m) => mem(m, &mut at, &mut fields),
        StoreSnapshot::Disk(d) => mem(&d.mem, &mut at, &mut fields),
        StoreSnapshot::Tiered(t) => {
            mem(&t.l1, &mut at, &mut fields);
            mem(&t.l2.mem, &mut at, &mut fields);
        }
    }
    fields
}

fn mem_snapshot(entries: Vec<EntrySnapshot>, counters: StoreStats) -> StoreSnapshot {
    StoreSnapshot::Mem(MemSnapshot {
        policy: EvictionPolicy::Lru,
        capacity: None,
        ticks: entries.len() as u64,
        entries,
        counters,
    })
}

fn entry(k: u8, tick: u64) -> EntrySnapshot {
    EntrySnapshot { fingerprint: fp(k), content: body(k, 8), pins: 0, inserted: tick, used: tick }
}

#[test]
fn entry_length_past_the_address_space_is_truncated_not_overflow() {
    let snapshot = mem_snapshot(vec![entry(1, 1)], StoreStats::default());
    let mut payload = snapshot.to_bytes();
    payload.truncate(payload.len() - 8);
    let field = length_fields(&snapshot)[1];
    payload[field..field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(StoreSnapshot::from_bytes(&seal(payload)), Err(SnapshotError::Truncated));
}

#[test]
fn fingerprint_listed_twice_is_malformed() {
    let twice = mem_snapshot(vec![entry(1, 1), entry(1, 2)], StoreStats::default());
    assert_eq!(StoreSnapshot::from_bytes(&twice.to_bytes()), Err(SnapshotError::Malformed));
    // Built in memory it never meets the decoder; it must still drain.
    assert_eq!(drain(twice.restore().as_mut()), vec![(fp(1), 8)]);
    // Likewise any order the encoder would not have written.
    let (mut a, mut b) = (entry(1, 1), entry(2, 2));
    if a.fingerprint < b.fingerprint {
        std::mem::swap(&mut a, &mut b);
    }
    let descending = mem_snapshot(vec![a, b], StoreStats::default()).to_bytes();
    assert_eq!(StoreSnapshot::from_bytes(&descending), Err(SnapshotError::Malformed));
}

#[test]
fn counters_at_the_ceiling_still_drain() {
    let full =
        StoreStats { evictions: u64::MAX, evicted_bytes: u64::MAX, ..StoreStats::default() };
    let bytes = mem_snapshot(vec![entry(1, 1)], full).to_bytes();
    let decoded = StoreSnapshot::from_bytes(&bytes).expect("well-formed");
    assert_eq!(drain(decoded.restore().as_mut()), vec![(fp(1), 8)]);
}

/// Tag 3 was a wrapper frame holding further snapshots, so nesting it drove
/// the decoder's recursion as deep as the blob was long. The tiered shape's
/// last byte was a promote-on-hit flag, and `0` asked for a store that no
/// longer exists.
#[test]
fn retired_tag_three_is_malformed_at_any_depth() {
    let mut payload = b"GSNP\x01".to_vec();
    for _ in 0..200_000 {
        payload.push(3);
        payload.extend_from_slice(&1u64.to_le_bytes());
    }
    assert_eq!(StoreSnapshot::from_bytes(&seal(payload)), Err(SnapshotError::Malformed));

    let tiered = TieredStore::new(EvictionPolicy::Lru, Some(32), None, DiskModel::ssd(), 1);
    let mut payload = tiered.snapshot().to_bytes();
    payload.truncate(payload.len() - 8);
    assert_eq!(payload.pop(), Some(1));
    payload.push(0);
    assert_eq!(StoreSnapshot::from_bytes(&seal(payload)), Err(SnapshotError::Malformed));
}

/// Live-upgrade handoff crosses a process boundary between two builds, so
/// the bytes of the three store shapes are a wire format.
#[test]
fn snapshot_wire_bytes_are_pinned() {
    let mut mem = MemStore::with_policy(EvictionPolicy::Lru, Some(200));
    for n in 0u8..12 {
        mem.insert(fp(n), body(n, 10 + u16::from(n)));
    }
    mem.get(fp(3));
    mem.get(fp(200));
    mem.pin(fp(5));
    mem.pin(fp(5));
    mem.pin(fp(7));
    mem.unpin(fp(7));
    mem.evict();
    let mut disk = DiskStore::new(EvictionPolicy::Fifo, Some(500), DiskModel::hdd(), 16);
    disk.insert(fp(1), body(1, 64));
    disk.insert(fp(2), body(2, 32));
    disk.get(fp(1));
    disk.pin(fp(1));
    let mut tiered =
        TieredStore::new(EvictionPolicy::Lru, Some(32), Some(100), DiskModel::ssd(), 4);
    for n in 0u8..5 {
        tiered.put(fp(n), body(n, 24));
    }
    tiered.get(fp(2));
    tiered.get(fp(4));
    tiered.drain_cost();
    tiered.get(fp(3));

    let digest = |store: &dyn BlobStore| Fingerprint::of(&store.snapshot().to_bytes()).to_hex();
    assert_eq!(digest(&mem), "c693f2354f5a61ab1eafae35fb5c3929");
    assert_eq!(digest(&disk), "a6844faede6080db95cb53222509ec24");
    assert_eq!(digest(&tiered), "2ce277674a9706ef6ae6e73063cc95ea");
}

/// A deterministic workload for seed `seed`: enough puts/gets/pins/evicts
/// over a bounded store that a 6 % per-write crash probability fires in most
/// seeds, at varied points.
fn matrix_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..120 {
        let r = next();
        let k = (r >> 8) as u8;
        ops.push(match r % 10 {
            0..=4 => Op::Put(k, 16 + (r % 160) as u16),
            5 | 6 => Op::Get(k),
            7 => Op::Pin(k),
            8 => Op::Unpin(k),
            _ => Op::Evict,
        });
    }
    ops
}

/// The CI `crash-chaos` entry point: sweeps `GEAR_CRASH_SEEDS` seeds
/// (default 16) of probabilistic crashes plus every scripted crash point,
/// asserting the full recovery-invariant battery each time.
#[test]
fn crash_seed_matrix_loses_no_acked_blobs() {
    let seeds: u64 = std::env::var("GEAR_CRASH_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let mut crashes = 0u64;
    for seed in 0..seeds {
        let ops = matrix_ops(seed);
        let policy = if seed % 2 == 0 { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        if run_crash_case(policy, Some(1200), &ops, CrashPlan::new(seed).with_crash(0.06)) {
            crashes += 1;
        }
        for point in CrashPoint::ALL {
            if run_crash_case(
                policy,
                Some(1200),
                &ops,
                CrashPlan::new(seed).crash_at_write(seed % 40, point),
            ) {
                crashes += 1;
            }
        }
    }
    assert!(
        crashes >= seeds * 3,
        "matrix must actually exercise crashes ({crashes} fired over {seeds} seeds)"
    );
}
