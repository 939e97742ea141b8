//! Property-based equivalence tests for the store implementations.
//!
//! A [`TieredStore`] with an **unbounded L1** is observably identical to a
//! flat [`MemStore`] with the L2's capacity — same lookup results, same
//! final contents, same stats. Bounding L1 may only change *where* hits are
//! served from (priced disk time), never *what* hits.

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::DiskModel;
use gear_store::{BlobStore, EvictionPolicy, MemStore, TieredStore};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8),
    Get(u8),
    Pin(u8),
    Unpin(u8),
    Evict,
    Clear,
}

/// Keys drawn from so few that gets hit and puts evict.
const KEYS: u8 = 16;

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS).prop_map(Op::Put),
        (0..KEYS).prop_map(Op::Put),
        (0..KEYS).prop_map(Op::Get),
        (0..KEYS).prop_map(Op::Get),
        (0..KEYS).prop_map(Op::Pin),
        (0..KEYS).prop_map(Op::Unpin),
        Just(Op::Evict),
        Just(Op::Clear),
    ]
}

fn fp(k: u8) -> Fingerprint {
    Fingerprint::of(&[k])
}

/// A key's one body (16 to 451 bytes): content addressing never puts two
/// bodies under one fingerprint.
fn body(k: u8) -> Bytes {
    Bytes::from(vec![k; 16 + usize::from(k) * 29])
}

fn any_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![Just(EvictionPolicy::Fifo), Just(EvictionPolicy::Lru)]
}

/// Applies one op to any store through the trait, returning an observation
/// string for comparison.
fn apply(store: &mut dyn BlobStore, op: &Op) -> String {
    match op {
        Op::Put(k) => format!("put={}", store.put(fp(*k), body(*k))),
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

fn resident_set(store: &dyn BlobStore) -> Vec<(Fingerprint, usize)> {
    let mut all: Vec<(Fingerprint, usize)> = (0..KEYS)
        .filter_map(|k| store.peek(fp(k)).map(|b| (fp(k), b.len())))
        .collect();
    all.sort();
    all
}

proptest! {
    /// Tiered-with-unbounded-L1 ≡ flat: hit set, residency, and stats
    /// all match for any op sequence, policy, and L2 capacity.
    #[test]
    fn tiered_with_unbounded_l1_equals_flat_memstore(
        ops in proptest::collection::vec(any_op(), 1..120),
        policy in any_policy(),
        capacity in prop_oneof![Just(None), (200u64..4000).prop_map(Some)],
    ) {
        let mut flat = MemStore::with_policy(policy, capacity);
        let mut tiered = TieredStore::new(policy, None, capacity, DiskModel::ssd(), 1);
        for op in &ops {
            let a = apply(&mut flat, op);
            let b = apply(&mut tiered, op);
            prop_assert_eq!(&a, &b, "op {:?} diverged", op);
        }
        prop_assert_eq!(resident_set(&flat), resident_set(&tiered));
        prop_assert_eq!(flat.len(), tiered.len());
        prop_assert_eq!(BlobStore::bytes(&flat), tiered.bytes());
        prop_assert_eq!(MemStore::stats(&flat), BlobStore::stats(&tiered));
    }

    /// Tiered stats decompose: L1 + L2 hits equal flat hits and the accrued
    /// disk time is exactly the L2 traffic the op sequence implies — here
    /// checked as "bounding L1 never changes observable results, only cost".
    #[test]
    fn bounded_l1_changes_cost_not_behaviour(
        ops in proptest::collection::vec(any_op(), 1..120),
        policy in any_policy(),
        l1 in 1u64..2000,
    ) {
        let mut flat = MemStore::with_policy(policy, Some(3000));
        let mut tiered = TieredStore::new(policy, Some(l1), Some(3000), DiskModel::nvme(), 1);
        for op in &ops {
            let a = apply(&mut flat, op);
            let b = apply(&mut tiered, op);
            prop_assert_eq!(&a, &b, "op {:?} diverged", op);
        }
        prop_assert_eq!(resident_set(&flat), resident_set(&tiered));
        let (f, t) = (MemStore::stats(&flat), BlobStore::stats(&tiered));
        prop_assert_eq!(f, t);
        let (l1_bytes, l2_bytes) = tiered.tier_bytes();
        prop_assert!(l1_bytes <= l2_bytes, "L1 ⊆ L2");
        prop_assert_eq!(l2_bytes, MemStore::bytes(&flat));
    }
}
