//! Builds the level-1 shared file cache (paper §III-D1) a [`ClientConfig`]
//! asks for, out of [`gear_store`]'s stores:
//!
//! * `tier: None` (the default) — a flat [`MemStore`] (zero staged I/O
//!   time);
//! * `tier: Some(..)` — a [`TieredStore`]: bounded L1 memory over the
//!   configured [`gear_simnet::DiskModel`], whose staged read/write time the
//!   client drains into each deployment's timeline.

use gear_store::{BlobStore, MemStore, SnapshotError, StoreSnapshot, TieredStore};

use crate::config::ClientConfig;

/// Builds the blob store `config` asks for (see the module docs).
pub fn store_for(config: &ClientConfig) -> Box<dyn BlobStore> {
    match config.tier {
        None => Box::new(MemStore::with_policy(config.cache_policy, config.cache_capacity)),
        Some(tier) => Box::new(TieredStore::new(
            config.cache_policy,
            tier.l1_capacity,
            config.cache_capacity,
            tier.disk,
            config.byte_scale,
        )),
    }
}

/// Rehydrates the blob store a live-upgrade handoff snapshot describes —
/// the restore side of [`store_for`]. The restored store behaves
/// tick-for-tick identically to the one snapshotted (see
/// [`gear_store::snapshot`]).
///
/// # Errors
///
/// [`SnapshotError::ShapeMismatch`] when the snapshot is not of the store
/// [`store_for`] would build for `config`: an upgraded binary must not
/// silently resume a flat cache as a tiered one.
pub fn restore_store_for(
    config: &ClientConfig,
    snapshot: &StoreSnapshot,
) -> Result<Box<dyn BlobStore>, SnapshotError> {
    match (config.tier, snapshot) {
        (None, StoreSnapshot::Mem(_)) | (Some(_), StoreSnapshot::Tiered(_)) => {
            Ok(snapshot.restore())
        }
        _ => Err(SnapshotError::ShapeMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierConfig;
    use bytes::Bytes;
    use gear_hash::Fingerprint;

    #[test]
    fn default_config_builds_a_flat_memory_store() {
        let mut store = store_for(&ClientConfig::default());
        let fp = Fingerprint::of(b"blob");
        assert!(store.put(fp, Bytes::from_static(b"blob")));
        assert!(store.get(fp).is_some());
        assert_eq!(store.drain_cost(), std::time::Duration::ZERO);
        assert_eq!(store.tier_bytes(), (4, 0), "all bytes resident in memory");
    }

    #[test]
    fn restoring_the_wrong_store_kind_is_a_typed_error() {
        let flat = store_for(&ClientConfig::default()).snapshot();
        let tiered = ClientConfig::default().with_tier(TierConfig::default());
        assert!(restore_store_for(&ClientConfig::default(), &flat).is_ok());
        assert!(matches!(
            restore_store_for(&tiered, &flat),
            Err(SnapshotError::ShapeMismatch)
        ));
    }

    #[test]
    fn tier_config_builds_a_tiered_store() {
        let config = ClientConfig {
            tier: Some(TierConfig { l1_capacity: Some(2), ..TierConfig::default() }),
            ..ClientConfig::default()
        };
        let mut store = store_for(&config);
        let fp = Fingerprint::of(b"blob");
        assert!(store.put(fp, Bytes::from_static(b"blob")));
        assert!(store.drain_cost() > std::time::Duration::ZERO, "write-through is priced");
        assert_eq!(store.tier_bytes(), (0, 4), "too big for the 2-byte L1");
    }
}
