//! Consistent hashing for the sharded registry.
//!
//! A [`HashRing`] places `vnodes` virtual points per shard on a 64-bit
//! ring, each point a seeded splitmix64 draw, so shard placement is a pure
//! function of `(shards, vnodes, seed)` — two processes building the same
//! ring agree on every assignment without coordination. Keys (file
//! fingerprints) hash onto the ring and are owned by the first point at or
//! clockwise after them; [`HashRing::replicas`] keeps walking clockwise
//! collecting *distinct* shards for N-way replication, which is what lets a
//! reader fail over when the primary is down or its admission queue is
//! full.
//!
//! Virtual nodes smooth the load: with hundreds of points per shard the
//! arcs owned by each shard concentrate around `1/shards` of the keyspace
//! (the shard-balance bound gated by `repro fleet`).

use gear_hash::Fingerprint;

/// Mixes `x` through the splitmix64 finalizer — the same construction the
/// deterministic fault and jitter draws use elsewhere in the workspace.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, shard)` pairs, sorted by position.
    points: Vec<(u64, u32)>,
    shards: u32,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual points per shard.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `vnodes` is zero — an empty ring cannot own
    /// keys, and silently returning one would turn every lookup into a
    /// surprise at a distance.
    pub fn new(shards: u32, vnodes: u32, seed: u64) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one virtual node per shard");
        let mut points = Vec::with_capacity(shards as usize * vnodes as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let point = splitmix64(seed ^ splitmix64(((shard as u64) << 32) | vnode as u64));
                points.push((point, shard));
            }
        }
        // Position ties (astronomically unlikely) resolve by shard id so
        // the ring stays a pure function of its inputs.
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Hashes a fingerprint onto the ring.
    fn position(fingerprint: Fingerprint) -> u64 {
        let bytes = fingerprint.to_string();
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for byte in bytes.as_bytes() {
            acc = (acc ^ *byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        splitmix64(acc)
    }

    /// The shard owning `fingerprint` (its first replica).
    pub fn primary(&self, fingerprint: Fingerprint) -> u32 {
        self.replicas(fingerprint, 1)[0]
    }

    /// The first `n` *distinct* shards clockwise from the key's position:
    /// replica 0 is the primary, the rest are failover targets in
    /// deterministic preference order. Returns all shards (in ring order)
    /// when `n >= shards`.
    pub fn replicas(&self, fingerprint: Fingerprint, n: usize) -> Vec<u32> {
        let want = n.clamp(1, self.shards as usize);
        let position = Self::position(fingerprint);
        let start = self.points.partition_point(|&(p, _)| p < position);
        let mut owners = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !owners.contains(&shard) {
                owners.push(shard);
                if owners.len() == want {
                    break;
                }
            }
        }
        owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(format!("key {i}").as_bytes())
    }

    #[test]
    fn ring_is_a_pure_function_of_its_inputs() {
        let a = HashRing::new(4, 128, 7);
        let b = HashRing::new(4, 128, 7);
        for i in 0..500 {
            assert_eq!(a.replicas(fp(i), 3), b.replicas(fp(i), 3));
        }
    }

    #[test]
    fn different_seeds_shuffle_ownership() {
        let a = HashRing::new(8, 64, 1);
        let b = HashRing::new(8, 64, 2);
        let moved = (0..500).filter(|&i| a.primary(fp(i)) != b.primary(fp(i))).count();
        assert!(moved > 200, "only {moved}/500 keys moved between seeds");
    }

    #[test]
    fn replicas_are_distinct_and_ordered_by_ring_walk() {
        let ring = HashRing::new(5, 64, 42);
        for i in 0..200 {
            let replicas = ring.replicas(fp(i), 3);
            assert_eq!(replicas.len(), 3);
            let mut dedup = replicas.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct shards");
            assert_eq!(replicas[0], ring.primary(fp(i)));
        }
    }

    #[test]
    fn replica_count_saturates_at_the_shard_count() {
        let ring = HashRing::new(3, 32, 9);
        let replicas = ring.replicas(fp(1), 10);
        assert_eq!(replicas.len(), 3, "cannot replicate wider than the fleet");
        assert_eq!(ring.replicas(fp(1), 0).len(), 1, "zero means the primary");
    }

    #[test]
    fn virtual_nodes_balance_the_keyspace() {
        let ring = HashRing::new(4, 256, 7);
        let mut owned = [0u32; 4];
        let keys = 4_000;
        for i in 0..keys {
            owned[ring.primary(fp(i)) as usize] += 1;
        }
        let ideal = keys / 4;
        for (shard, &count) in owned.iter().enumerate() {
            let skew = (count as f64 - ideal as f64).abs() / ideal as f64;
            assert!(skew < 0.30, "shard {shard} owns {count} keys ({skew:.2} skew)");
        }
    }

    #[test]
    fn adding_a_shard_moves_only_a_fraction_of_keys() {
        // The consistent-hashing contract: growing the fleet from 4 to 5
        // shards remaps roughly 1/5 of the keys, not all of them.
        let four = HashRing::new(4, 256, 7);
        let five = HashRing::new(5, 256, 7);
        let keys = 2_000;
        let moved = (0..keys).filter(|&i| four.primary(fp(i)) != five.primary(fp(i))).count();
        let fraction = moved as f64 / keys as f64;
        assert!(fraction < 0.35, "adding one shard moved {moved}/{keys} keys ({fraction:.2})");
        assert!(moved > 0, "some keys must move to the new shard");
    }
}
