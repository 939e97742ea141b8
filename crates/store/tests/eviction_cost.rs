//! LRU eviction cost is flat in cache size: the ordered recency index makes
//! an evicting insert O(log n), where a scan for the oldest entry is O(n).

use std::time::{Duration, Instant};

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_store::{EvictionPolicy, MemStore};

const ENTRY_BYTES: usize = 1024;
const OPS: usize = 30_000;

/// Wall-clock of `OPS` operations on a cache full at `entries`: alternating
/// evicting inserts and gets of a resident key.
#[allow(
    clippy::disallowed_methods,
    reason = "only a clock can see this property: a linear scan passes every behavioural test"
)]
fn churn(entries: usize, keys: &[Fingerprint], body: &Bytes) -> Duration {
    let capacity = (entries * ENTRY_BYTES) as u64;
    let mut cache = MemStore::with_policy(EvictionPolicy::Lru, Some(capacity));
    for key in &keys[..entries] {
        cache.insert(*key, body.clone());
    }
    assert_eq!(cache.len(), entries);

    let start = Instant::now();
    let mut next = entries;
    for performed in (0..OPS).step_by(2) {
        cache.insert(keys[next], body.clone());
        next += 1;
        cache.get(keys[next - 1 - (performed + 1) * 7 % entries]);
    }
    start.elapsed()
}

#[test]
fn lru_eviction_cost_is_flat_in_cache_size() {
    const SIZES: [usize; 3] = [256, 1024, 4096];
    let body = Bytes::from(vec![0u8; ENTRY_BYTES]);
    // Fingerprints up front, so the loop times the cache and not MD5.
    let keys: Vec<Fingerprint> =
        (0..(SIZES[2] + OPS) as u64).map(|i| Fingerprint::of(&i.to_le_bytes())).collect();
    // Best of three per size: one preemption cannot fail the test.
    let [small, larger @ ..] = SIZES.map(|entries| {
        (0..3).map(|_| churn(entries, &keys, &body)).min().expect("three timings")
    });
    // Up to 16x the entries at the same ops: a linear scan lands near 0.06.
    for (entries, wall) in SIZES[1..].iter().zip(larger) {
        let flatness = small.as_secs_f64() / wall.as_secs_f64();
        assert!(flatness > 0.2, "ops/s at {entries} entries over ops/s at 256: {flatness:.3}");
    }
}
