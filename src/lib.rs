//! # Gear — efficient container storage and deployment with a new image format
//!
//! A Rust reproduction of *"Gear: Enable Efficient Container Storage and
//! Deployment with a New Image Format"* (ICDCS 2021). Gear splits a Docker
//! image into a tiny **Gear index** (the directory tree with regular files
//! replaced by MD5 fingerprints) and a pool of content-addressed **Gear
//! files**. Containers start as soon as the index is pulled; files are
//! fetched lazily and shared at file granularity in the registry and in a
//! local client cache.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `gear-core` | Gear index, converter, commit |
//! | [`client`] | `gear-client` | shared cache, Gear/Docker/Slacker deployment |
//! | [`registry`] | `gear-registry` | Docker registry, Gear file store, dedup analysis |
//! | [`image`] | `gear-image` | layers, manifests, Overlay2 store |
//! | [`fs`] | `gear-fs` | in-memory VFS + union mounts |
//! | [`archive`] | `gear-archive` | the `gar` layer-archive format |
//! | [`compress`] | `gear-compress` | LZSS compression |
//! | [`hash`] | `gear-hash` | MD5/SHA-256, fingerprints, digests |
//! | [`simnet`] | `gear-simnet` | link, disk and fault models, event queue |
//! | [`p2p`] | `gear-p2p` | cooperative cluster distribution of Gear files |
//! | [`corpus`] | `gear-corpus` | synthetic 50-series image corpus |
//!
//! # Quickstart
//!
//! ```
//! use bytes::Bytes;
//! use gear::client::{ClientConfig, GearClient};
//! use gear::core::{publish, Converter};
//! use gear::corpus::{StartupTrace, TaskKind};
//! use gear::fs::FsTree;
//! use gear::image::{ImageBuilder, ImageRef};
//! use gear::registry::{DockerRegistry, GearFileStore};
//!
//! // 1. Build a Docker image.
//! let mut rootfs = FsTree::new();
//! rootfs.create_file("usr/bin/server", Bytes::from_static(b"server binary"))?;
//! rootfs.create_file("usr/share/docs", Bytes::from_static(b"never read at startup"))?;
//! let image = ImageBuilder::new("server:1.0".parse::<ImageRef>()?)
//!     .layer_from_tree(&rootfs)
//!     .build();
//!
//! // 2. Convert it to a Gear image and publish.
//! let conversion = Converter::new().convert(&image)?;
//! let (mut docker, mut files) = (DockerRegistry::new(), GearFileStore::new());
//! publish(&conversion, &mut docker, &mut files);
//!
//! // 3. Deploy: only the index and the accessed file cross the wire.
//! let mut client = GearClient::new(ClientConfig::default());
//! let trace = StartupTrace { reads: vec!["usr/bin/server".into()], task: TaskKind::WebServe };
//! let (_, report) = client.deploy(&"server:1.0".parse()?, &trace, &docker, &files)?;
//! assert_eq!(report.files_fetched, 1); // usr/share/docs never downloaded
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use gear_archive as archive;
pub use gear_client as client;
pub use gear_compress as compress;
pub use gear_core as core;
pub use gear_corpus as corpus;
pub use gear_fs as fs;
pub use gear_hash as hash;
pub use gear_image as image;
pub use gear_p2p as p2p;
pub use gear_registry as registry;
pub use gear_simnet as simnet;
pub use gear_store as store;
