//! Client-side Gear runtime and deployment baselines.
//!
//! This crate is the deployment half of the Gear framework (paper §III-D):
//!
//! * [`store_for`] — the level-1 shared file cache: a [`gear_store`] blob
//!   store holding Gear files from every image, deduplicated by fingerprint,
//!   with FIFO/LRU replacement; files linked from installed indexes are
//!   pinned.
//! * [`GearClient`] — the Gear Driver + Gear File Viewer: pulls an index
//!   image, union-mounts it over a writable layer, and materializes files on
//!   demand from cache or the Gear Registry (three-level storage).
//! * [`RegistryChain::pull_index`] and [`replay`] — the pull and run phases
//!   themselves: the one pull-and-install and the one replay-and-price path
//!   that [`GearClient`] and `gear-p2p`'s cluster nodes both deploy through,
//!   differing only in the [`Sources`] chain a cache miss walks.
//! * [`DockerClient`] — the stock Docker baseline: full image pull into an
//!   Overlay2 store, then launch.
//! * [`SlackerClient`] — the block-level lazy baseline of the paper's
//!   Fig. 10: per-container virtual block device, 4 KiB blocks, no
//!   cross-container sharing.
//!
//! All engines price their work as simulated `Duration`s through the same
//! [`ClientConfig`] cost model, so their reported deployment times are
//! directly comparable, deterministic, and independent of host speed.
//!
//! # Examples
//!
//! ```
//! use gear_client::{ClientConfig, GearClient};
//! use gear_core::{publish, Converter};
//! use gear_corpus::{StartupTrace, TaskKind};
//! use gear_image::{ImageBuilder, ImageRef};
//! use gear_registry::{DockerRegistry, GearFileStore};
//! use gear_fs::FsTree;
//! use bytes::Bytes;
//!
//! // Publish a converted image.
//! let mut tree = FsTree::new();
//! tree.create_file("srv/app", Bytes::from_static(b"app binary"))?;
//! let image = ImageBuilder::new("app:1".parse::<ImageRef>()?).layer_from_tree(&tree).build();
//! let conv = Converter::new().convert(&image)?;
//! let (mut docker, mut store) = (DockerRegistry::new(), GearFileStore::new());
//! publish(&conv, &mut docker, &mut store);
//!
//! // Deploy it with Gear.
//! let mut client = GearClient::new(ClientConfig::default());
//! let trace = StartupTrace { reads: vec!["srv/app".into()], task: TaskKind::Generic };
//! let (id, report) = client.deploy(&"app:1".parse()?, &trace, &docker, &store)?;
//! assert_eq!(report.files_fetched, 1);
//! client.destroy(id);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod docker;
mod gear;
mod replay;
mod report;
mod slacker;
mod timeline;

pub use cache::{restore_store_for, store_for};
pub use config::{ClientConfig, Costs, FetchConfig, TierConfig};
pub use docker::DockerClient;
pub use gear::{ClientHandoff, ContainerId, DeployError, GearClient};
pub use gear_store::{EvictionPolicy, StoreStats};
pub use replay::{replay, FetchCharge, Fetched, Lane, Pulled, RegistryChain, Replayed, Sources};
pub use report::DeploymentReport;
pub use slacker::SlackerClient;
pub use timeline::{Timeline, TimelineEvent};
