//! Unified accounting for every [`BlobStore`](crate::BlobStore).
//!
//! One struct replaces the old `gear-client` `CacheStats` and
//! `gear-registry` `FileStoreStats`: cache-style hit/miss/eviction counters
//! and registry-style object/byte totals live side by side.

/// Store accounting: counters (monotonic) and gauges (current state).
///
/// Counter fields (`hits`, `misses`, `evictions`, `evicted_bytes`,
/// `dedup_hits`) only ever grow; gauge fields (`pinned_bytes`, `objects`,
/// `stored_bytes`, `logical_bytes`) track the store's current residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found the blob locally.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blobs evicted to make room.
    pub evictions: u64,
    /// Bytes evicted.
    pub evicted_bytes: u64,
    /// Bytes currently held by pinned blobs (the portion of residency that
    /// eviction cannot touch).
    pub pinned_bytes: u64,
    /// Unique blobs resident.
    pub objects: u64,
    /// Bytes as kept by the backing medium (compressed when the owner
    /// compresses).
    pub stored_bytes: u64,
    /// Logical (uncompressed) bytes resident.
    pub logical_bytes: u64,
    /// Writes rejected as duplicates of an already-resident blob.
    pub dedup_hits: u64,
}

impl StoreStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Logical bytes saved by the backing medium (compression), i.e.
    /// `logical_bytes - stored_bytes`; 0 when storage is uncompressed.
    #[must_use]
    pub fn saved_bytes(&self) -> u64 {
        self.logical_bytes.saturating_sub(self.stored_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_accessors() {
        let s = StoreStats { hits: 3, misses: 1, stored_bytes: 40, logical_bytes: 100, ..StoreStats::default() };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.saved_bytes(), 60);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
    }
}
