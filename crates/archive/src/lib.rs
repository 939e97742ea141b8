//! The `gar` layer-archive format — a typed tar substitute for image layers.
//!
//! Docker stores each image layer as a tarball whose entries describe a diff
//! against the layers below: regular files, directories, symlinks, hardlinks,
//! and *whiteouts* (the `.wh.` convention) that delete lower entries. This
//! crate provides the same vocabulary as explicit types, plus a compact
//! binary wire format with a streaming writer/reader, so layers can be
//! hashed, compressed, shipped, and replayed without a system `tar`.
//!
//! # Examples
//!
//! ```
//! use gear_archive::{Archive, ArchivePath, Entry, EntryKind, Metadata};
//! use bytes::Bytes;
//!
//! let mut archive = Archive::new();
//! archive.push(Entry::dir(ArchivePath::new("etc")?, Metadata::dir_default()));
//! archive.push(Entry::file(
//!     ArchivePath::new("etc/hostname")?,
//!     Metadata::file_default(),
//!     Bytes::from_static(b"gear-host\n"),
//! ));
//! let wire = archive.to_bytes();
//! let back = Archive::from_bytes(&wire)?;
//! assert_eq!(back, archive);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod path;
mod wire;

pub use entry::{Archive, Entry, EntryKind, Metadata};
pub use path::{ArchivePath, PathError};
pub use wire::{EntryStream, ReadError};
