//! Registries: Docker-style layer storage and the Gear file store.
//!
//! Two server-side components from the paper:
//!
//! * [`DockerRegistry`] — stores manifests plus compressed layer blobs with
//!   layer-level deduplication (paper §II-B). Gear reuses it unchanged to
//!   store single-layer *index images*.
//! * [`GearFileStore`] — the MinIO-backed Gear Registry (paper §IV): a
//!   content-addressed pool of Gear files with the three verbs `query`,
//!   `upload`, `download`, deduplicating on MD5 fingerprints and optionally
//!   compressing each file.
//!
//! The [`dedup`] module implements the granularity study behind Table II:
//! given the same image corpus, how much space and how many objects does
//! dedup at layer, file, or chunk granularity produce?
//!
//! For fleet-scale serving, [`ShardedStore`] places objects on shards via a
//! seeded consistent-hash [`HashRing`] (virtual nodes, N-way replication)
//! with bounded per-shard admission queues: a full queue is a typed
//! [`ShardRejection::Overloaded`] — the fleet simulator backs the request
//! off and retries — and a down shard fails over to its replicas.
//!
//! # Examples
//!
//! ```
//! use gear_registry::GearFileStore;
//! use gear_hash::Fingerprint;
//! use bytes::Bytes;
//!
//! let mut store = GearFileStore::with_compression();
//! let body = Bytes::from_static(b"shared library bytes");
//! let fp = Fingerprint::of(&body);
//! assert!(!store.query(fp));
//! store.upload(fp, body.clone())?;
//! store.upload(fp, body.clone())?; // deduplicated
//! assert_eq!(store.object_count(), 1);
//! assert_eq!(store.download(fp), Some(body));
//! # Ok::<(), gear_registry::UploadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
mod docker;
mod filestore;
mod ring;
mod sharded;

pub use docker::{DockerRegistry, PushReport, RegistryStats};
pub use filestore::{GearFile, GearFileStore, StoreStats, UploadError, UploadOutcome};
pub use ring::HashRing;
pub use sharded::{ShardRejection, ShardStats, ShardedStore, DEFAULT_VNODES};
