//! Committing a running Gear container as a new Gear image (paper §III-D2).
//!
//! The Gear File Viewer records all modifications in the writable "diff"
//! layer. Committing extracts the diff's file contents as new Gear files,
//! merges their metadata with the current Gear index, and yields a new
//! index plus the (typically few) new files to push.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use gear_fs::{FileData, FileNode, FsError, Node, UnionFs};
use gear_hash::Fingerprint;
use gear_image::ImageRef;

use crate::convert::{CollisionResolver, GearFile};
use crate::index::{GearImage, GearIndex, IndexError};

/// Error returned by [`commit`].
#[derive(Debug)]
pub enum CommitError {
    /// The diff could not be merged over the index tree.
    Merge(FsError),
    /// The merged tree could not be indexed.
    Index(IndexError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Merge(e) => write!(f, "cannot merge container diff: {e}"),
            CommitError::Index(e) => write!(f, "cannot index committed image: {e}"),
        }
    }
}

impl Error for CommitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CommitError::Merge(e) => Some(e),
            CommitError::Index(e) => Some(e),
        }
    }
}

impl From<FsError> for CommitError {
    fn from(e: FsError) -> Self {
        CommitError::Merge(e)
    }
}

impl From<IndexError> for CommitError {
    fn from(e: IndexError) -> Self {
        CommitError::Index(e)
    }
}

/// The result of committing a container.
#[derive(Debug, Clone)]
pub struct CommitOutput {
    /// The new Gear image (index + name).
    pub gear_image: GearImage,
    /// Gear files that did not exist in the base image (to upload).
    pub new_files: Vec<GearFile>,
    /// Bytes of new Gear-file content.
    pub new_bytes: u64,
}

/// Commits the state of a mounted Gear container as `new_reference`.
///
/// Files already present in the base index keep their fingerprints and are
/// **not** re-extracted; only contents written to the diff layer become new
/// Gear files.
///
/// # Errors
///
/// [`CommitError`] if the diff cannot be merged or the result indexed.
pub fn commit(
    mount: &UnionFs,
    base: &GearIndex,
    new_reference: ImageRef,
) -> Result<CommitOutput, CommitError> {
    // Merge the writable diff over a copy of the index's placeholder tree.
    let mut merged = base.to_tree();
    merged.apply_layer(&mount.diff())?;

    // Convert the (few) inline files the diff introduced, in place.
    let mut resolver = CollisionResolver::new();
    let mut new_files: Vec<GearFile> = Vec::new();
    let mut new_bytes = 0u64;
    let known: HashSet<Fingerprint> =
        base.referenced_files().into_iter().map(|(fp, _)| fp).collect();
    let inline: Vec<(String, Bytes)> = merged
        .walk()
        .filter_map(|(path, node)| match node {
            Node::File(FileNode { data: FileData::Inline(content), .. }) => {
                Some((path, content.clone()))
            }
            _ => None,
        })
        .collect();
    for (path, content) in inline {
        let (id, new) = resolver.admit(Fingerprint::of(&content), &content);
        if let Some(file) = new.filter(|_| !known.contains(&id)) {
            new_bytes += content.len() as u64;
            new_files.push(file);
        }
        if let Some(Node::File(file)) = merged.get_mut(&path) {
            file.data = FileData::Fingerprint { fingerprint: id, size: content.len() as u64 };
        }
    }

    let index = GearIndex::from_tree(merged, base.config.clone())?;
    Ok(CommitOutput {
        gear_image: GearImage::new(new_reference, index),
        new_files,
        new_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_archive::Metadata;
    use gear_fs::FsTree;
    use gear_image::ImageConfig;
    use std::sync::Arc;

    fn base_index() -> GearIndex {
        let mut tree = FsTree::new();
        tree.insert(
            "app/bin",
            Node::fingerprint_file(Metadata::exec_default(), Fingerprint::of(b"binary"), 6),
        )
        .unwrap();
        tree.insert(
            "app/config",
            Node::fingerprint_file(Metadata::file_default(), Fingerprint::of(b"cfg-v1"), 6),
        )
        .unwrap();
        GearIndex::from_tree(tree, ImageConfig { env: vec!["E=1".into()], ..Default::default() })
            .unwrap()
    }

    fn mounted(base: &GearIndex) -> UnionFs {
        UnionFs::new(vec![Arc::clone(base.tree())])
    }

    #[test]
    fn commit_captures_new_files_only() {
        let base = base_index();
        let mut mount = mounted(&base);
        mount.write("app/data.db", Bytes::from_static(b"fresh rows")).unwrap();

        let out = commit(&mount, &base, "app:2".parse().unwrap()).unwrap();
        assert_eq!(out.new_files.len(), 1);
        assert_eq!(out.new_bytes, 10);
        let idx = out.gear_image.index();
        // Old files keep their fingerprints.
        assert_eq!(idx.file_at("app/bin").unwrap().0, Fingerprint::of(b"binary"));
        // New file is indexed under its content fingerprint.
        assert_eq!(idx.file_at("app/data.db").unwrap().0, Fingerprint::of(b"fresh rows"));
        // Config is carried over.
        assert_eq!(idx.config.env, vec!["E=1"]);
    }

    #[test]
    fn commit_records_modifications() {
        let base = base_index();
        let mut mount = mounted(&base);
        mount.write("app/config", Bytes::from_static(b"cfg-v2!")).unwrap();

        let out = commit(&mount, &base, "app:2".parse().unwrap()).unwrap();
        let idx = out.gear_image.index();
        assert_eq!(idx.file_at("app/config").unwrap().0, Fingerprint::of(b"cfg-v2!"));
        assert_eq!(out.new_files.len(), 1);
    }

    #[test]
    fn commit_respects_deletions() {
        let base = base_index();
        let mut mount = mounted(&base);
        mount.unlink("app/config").unwrap();

        let out = commit(&mount, &base, "app:2".parse().unwrap()).unwrap();
        assert!(out.gear_image.index().file_at("app/config").is_none());
        assert!(out.new_files.is_empty());
    }

    #[test]
    fn commit_dedups_against_base() {
        let base = base_index();
        let mut mount = mounted(&base);
        // Write a file whose content equals an existing Gear file.
        mount.write("app/copy", Bytes::from_static(b"binary")).unwrap();
        let out = commit(&mount, &base, "app:2".parse().unwrap()).unwrap();
        assert!(out.new_files.is_empty(), "existing content must not be re-pushed");
        assert_eq!(out.gear_image.index().file_at("app/copy").unwrap().0, Fingerprint::of(b"binary"));
    }

    #[test]
    fn clean_commit_is_identity_plus_name() {
        let base = base_index();
        let mount = mounted(&base);
        let out = commit(&mount, &base, "app:clone".parse().unwrap()).unwrap();
        assert!(out.new_files.is_empty());
        assert_eq!(out.gear_image.index().referenced_files(), base.referenced_files());
        assert_eq!(out.gear_image.reference().tag(), "clone");
    }
}
