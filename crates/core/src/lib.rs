//! The Gear image format (the paper's primary contribution).
//!
//! A **Gear image** decouples an image's structure from its data:
//!
//! * the [`GearIndex`] keeps the whole directory tree, with each regular
//!   file replaced by the MD5 *fingerprint* of its content (plus size and
//!   metadata) — typically well under a megabyte;
//! * the **Gear files** — the actual file contents — live in a shared,
//!   content-addressed pool ([`gear_registry::GearFileStore`]), deduplicated
//!   across every image in the registry.
//!
//! A container can start as soon as its index is pulled; file contents are
//! fetched on demand. Because the index is packaged as an ordinary
//! single-layer Docker image ([`GearImage::to_index_image`]), the existing
//! Docker distribution machinery stores and ships it unchanged.
//!
//! Modules:
//!
//! * [`index`] — the index: a placeholder `FsTree` plus its JSON wire form.
//! * [`convert`] — the Gear Converter: Docker image → Gear image + files,
//!   with MD5-collision detection and big-file chunking (paper §III-B, §VII).
//! * [`commit`] — turning a running container's writable diff into a new
//!   Gear image (paper §III-D2).
//!
//! # Examples
//!
//! ```
//! use gear_core::{Converter, GearImage};
//! use gear_image::{ImageBuilder, ImageRef};
//! use gear_fs::FsTree;
//! use bytes::Bytes;
//!
//! // A Docker image with one layer.
//! let mut tree = FsTree::new();
//! tree.create_file("usr/bin/app", Bytes::from_static(b"binary bytes"))?;
//! let docker = ImageBuilder::new("app:1.0".parse::<ImageRef>()?)
//!     .layer_from_tree(&tree)
//!     .build();
//!
//! // Convert it.
//! let conversion = Converter::new().convert(&docker)?;
//! assert_eq!(conversion.files.len(), 1);            // one unique Gear file
//! assert!(conversion.gear_image.index().serialized_len() < 4096);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
pub mod convert;
pub mod index;

pub use commit::{commit, CommitError, CommitOutput};
pub use convert::{
    publish, CollisionResolver, Conversion, ConversionReport, ConvertError, Converter,
    ConverterOptions, GearFile, PublishReport,
};
pub use index::{GearImage, GearIndex, IndexError, LayerDecodeError, INDEX_PATH};
