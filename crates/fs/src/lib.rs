//! In-memory virtual file system with overlay union mounts.
//!
//! This crate is the substrate standing in for the Linux VFS + overlayfs in
//! the Gear paper's prototype. It provides:
//!
//! * [`FsTree`] — a mutable directory tree of files, directories, and
//!   symlinks, with layer replay ([`FsTree::apply_layer`]) following the
//!   OCI/Docker whiteout semantics.
//! * [`FrozenTree`] — the same tree laid out flat and read-only: fixed-width
//!   node records and each directory's children as one sorted run, built
//!   from an [`FsTree`] or filled by a decoder through a [`TreeBuilder`].
//! * [`UnionFs`] — an Overlay2-style union mount: any number of read-only
//!   lower trees, walked as [`FrozenTree`]s, plus one writable upper, with
//!   copy-up on write, whiteouts on unlink, opaque directories, and merged
//!   `readdir`.
//! * [`FileData`] — file bodies that are either inline bytes, a *fingerprint
//!   placeholder* (the Gear index representation; resolved on demand through
//!   a [`Materializer`], mirroring the paper's modified
//!   `ovl_lookup_single()`), or a chunk list for big files (the paper's
//!   future-work extension).
//!
//! # Examples
//!
//! ```
//! use gear_fs::{FsTree, UnionFs, FileData, Materializer, FsError};
//! use gear_archive::ArchivePath;
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let mut lower = FsTree::new();
//! lower.create_file("etc/os-release", Bytes::from_static(b"ID=debian\n"))?;
//!
//! let mut mount = UnionFs::new(vec![Arc::new(lower)]);
//! // Reads fall through to the lower layer.
//! assert_eq!(&mount.read("etc/os-release", &gear_fs::NoFetch)?[..], b"ID=debian\n");
//! // Writes land in the upper layer (copy-on-write).
//! mount.write("etc/hostname", Bytes::from_static(b"gear\n"))?;
//! assert_eq!(mount.diff().len(), 2); // etc/ + etc/hostname
//! # Ok::<(), FsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frozen;
mod node;
mod tree;
mod union;

pub use error::FsError;
pub use frozen::{ChunkRun, DataRef, DirStart, FrozenTree, NodeRef, TreeBuilder};
pub use node::{ChunkRef, FileData, FileNode, Node, SymlinkNode};
pub use tree::{FsTree, TreeStats};
pub use union::{Materializer, MountStats, NoFetch, UnionFs};
