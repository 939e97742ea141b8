//! Cooperative peer-to-peer distribution of Gear files across a cluster.
//!
//! The Gear paper's related-work section (§VI-B) observes that decentralized
//! image distribution — CoMICon/Wharf-style cooperative caches and
//! Dragonfly/FID/DADI-style P2P — is *orthogonal* to the Gear format and
//! "also help\[s\] speed up the distribution of Gear files". This crate
//! implements that combination: a [`Cluster`] of nodes, each with its own
//! level-1 shared cache and installed indexes, where a fingerprint miss is
//! served **by a peer over the LAN** whenever any node already holds the
//! file, and only falls back to the remote Gear registry otherwise.
//!
//! Because Gear files are content-addressed, peer transfers need no trust
//! beyond an MD5 check, and the peer directory is just a
//! fingerprint → nodes map — exactly the property that makes file-level
//! sharing compose with P2P.
//!
//! # Examples
//!
//! ```
//! use gear_p2p::{Cluster, ClusterConfig};
//! use gear_core::{publish, Converter};
//! use gear_corpus::{StartupTrace, TaskKind};
//! use gear_fs::FsTree;
//! use gear_image::{ImageBuilder, ImageRef};
//! use gear_registry::{DockerRegistry, GearFileStore};
//! use bytes::Bytes;
//!
//! // Publish one image.
//! let mut tree = FsTree::new();
//! tree.create_file("bin/app", Bytes::from_static(b"binary"))?;
//! let image = ImageBuilder::new("app:1".parse::<ImageRef>()?).layer_from_tree(&tree).build();
//! let conv = Converter::new().convert(&image)?;
//! let (mut reg, mut files) = (DockerRegistry::new(), GearFileStore::new());
//! publish(&conv, &mut reg, &mut files);
//!
//! // Deploy on node 0 (hits the registry), then node 1 (hits node 0).
//! let mut cluster = Cluster::new(ClusterConfig::lan(4));
//! let trace = StartupTrace { reads: vec!["bin/app".into()], task: TaskKind::Generic };
//! cluster.deploy_on(0, &"app:1".parse()?, &trace, &reg, &files)?;
//! let report = cluster.deploy_on(1, &"app:1".parse()?, &trace, &reg, &files)?;
//! assert_eq!(report.peer_files, 1);
//! assert_eq!(report.registry_files, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod directory;
mod fleet;
mod topology;

pub use cluster::{Cluster, ClusterConfig, ClusterError, NodeDeployment, NodeId};
pub use directory::PeerDirectory;
pub use fleet::{FleetConfig, FleetReport, FleetSim};
pub use topology::{SiteConfig, Topology, TopologyConfig};
