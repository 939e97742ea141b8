//! Archive entries and the in-memory [`Archive`] container.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::path::ArchivePath;

/// POSIX-style metadata carried by every non-whiteout entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Metadata {
    /// File mode bits (permissions + type-agnostic flags), e.g. `0o644`.
    pub mode: u32,
    /// Owner user id.
    pub uid: u32,
    /// Owner group id.
    pub gid: u32,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

impl Metadata {
    /// `0o644 root:root` — the common default for image files.
    pub fn file_default() -> Self {
        Metadata { mode: 0o644, uid: 0, gid: 0, mtime: 0 }
    }

    /// `0o755 root:root` — the common default for image directories.
    pub fn dir_default() -> Self {
        Metadata { mode: 0o755, uid: 0, gid: 0, mtime: 0 }
    }

    /// `0o755 root:root` — the common default for executables.
    pub fn exec_default() -> Self {
        Metadata { mode: 0o755, uid: 0, gid: 0, mtime: 0 }
    }
}

impl Default for Metadata {
    fn default() -> Self {
        Self::file_default()
    }
}

/// What an archive entry describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A directory.
    Dir {
        /// Directory metadata.
        meta: Metadata,
    },
    /// A regular file with inline content.
    File {
        /// File metadata.
        meta: Metadata,
        /// File content.
        content: Bytes,
    },
    /// A symbolic link.
    Symlink {
        /// Link metadata.
        meta: Metadata,
        /// Link target (not validated; may dangle, be absolute, or relative).
        target: String,
    },
    /// A hard link to another path *within the same image*.
    Hardlink {
        /// Path of the link target, relative to the image root.
        target: ArchivePath,
    },
    /// A whiteout: deletes the entry at this path in lower layers.
    Whiteout,
    /// An opaque directory: a directory that masks all lower-layer content
    /// beneath the same path.
    OpaqueDir {
        /// Directory metadata.
        meta: Metadata,
    },
}

/// The wire format's tag of a regular file.
pub(crate) const FILE_TAG: u8 = 1;

impl EntryKind {
    /// Numeric tag used by the wire format.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            EntryKind::Dir { .. } => 0,
            EntryKind::File { .. } => FILE_TAG,
            EntryKind::Symlink { .. } => 2,
            EntryKind::Hardlink { .. } => 3,
            EntryKind::Whiteout => 4,
            EntryKind::OpaqueDir { .. } => 5,
        }
    }
}

/// One record of an image-layer diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Where in the image root this entry applies.
    pub path: ArchivePath,
    /// What it describes.
    pub kind: EntryKind,
}

impl Entry {
    /// Creates a directory entry.
    pub fn dir(path: ArchivePath, meta: Metadata) -> Self {
        Entry { path, kind: EntryKind::Dir { meta } }
    }

    /// Creates a regular-file entry.
    pub fn file(path: ArchivePath, meta: Metadata, content: Bytes) -> Self {
        Entry { path, kind: EntryKind::File { meta, content } }
    }

    /// Creates a symlink entry.
    pub fn symlink(path: ArchivePath, meta: Metadata, target: impl Into<String>) -> Self {
        Entry { path, kind: EntryKind::Symlink { meta, target: target.into() } }
    }

    /// Creates a hardlink entry.
    pub fn hardlink(path: ArchivePath, target: ArchivePath) -> Self {
        Entry { path, kind: EntryKind::Hardlink { target } }
    }

    /// Creates a whiteout entry deleting `path` from lower layers.
    pub fn whiteout(path: ArchivePath) -> Self {
        Entry { path, kind: EntryKind::Whiteout }
    }

    /// Creates an opaque-directory entry.
    pub fn opaque_dir(path: ArchivePath, meta: Metadata) -> Self {
        Entry { path, kind: EntryKind::OpaqueDir { meta } }
    }

    /// Content size for files; 0 for everything else.
    pub fn content_len(&self) -> u64 {
        match &self.kind {
            EntryKind::File { content, .. } => content.len() as u64,
            _ => 0,
        }
    }
}

/// An ordered list of entries making up one layer diff.
///
/// Order matters: parent directories should precede children, and replay
/// applies entries first-to-last.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Archive {
    entries: Vec<Entry>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// Entries in replay order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Entry> {
        self.entries.iter()
    }

    /// Total bytes of regular-file content (the "unpacked size" of the layer,
    /// ignoring metadata overhead).
    pub fn content_bytes(&self) -> u64 {
        self.entries.iter().map(Entry::content_len).sum()
    }

    /// Number of regular-file entries.
    pub fn file_count(&self) -> usize {
        self.entries.iter().filter(|e| matches!(e.kind, EntryKind::File { .. })).count()
    }

    /// Sorts entries so parents precede children (stable, path-lexicographic).
    ///
    /// Useful after assembling entries out of order; replay requires parent
    /// directories to exist before their children are created.
    pub fn sort_by_path(&mut self) {
        self.entries.sort_by(|a, b| a.path.cmp(&b.path));
    }
}

impl FromIterator<Entry> for Archive {
    fn from_iter<T: IntoIterator<Item = Entry>>(iter: T) -> Self {
        Archive { entries: iter.into_iter().collect() }
    }
}

impl Extend<Entry> for Archive {
    fn extend<T: IntoIterator<Item = Entry>>(&mut self, iter: T) {
        self.entries.extend(iter);
    }
}

impl IntoIterator for Archive {
    type Item = Entry;
    type IntoIter = std::vec::IntoIter<Entry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Archive {
    type Item = &'a Entry;
    type IntoIter = std::slice::Iter<'a, Entry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> ArchivePath {
        ArchivePath::new(s).unwrap()
    }

    #[test]
    fn accounting() {
        let mut a = Archive::new();
        a.push(Entry::dir(p("bin"), Metadata::dir_default()));
        a.push(Entry::file(p("bin/sh"), Metadata::exec_default(), Bytes::from_static(b"#!x")));
        a.push(Entry::file(p("bin/ls"), Metadata::exec_default(), Bytes::from_static(b"#!xyz")));
        a.push(Entry::symlink(p("bin/link"), Metadata::file_default(), "/bin/sh"));
        a.push(Entry::whiteout(p("bin/old")));
        assert_eq!(a.len(), 5);
        assert_eq!(a.file_count(), 2);
        assert_eq!(a.content_bytes(), 8);
    }

    #[test]
    fn sort_orders_parents_first() {
        let mut a = Archive::new();
        a.push(Entry::file(p("d/a/f"), Metadata::file_default(), Bytes::new()));
        a.push(Entry::dir(p("d"), Metadata::dir_default()));
        a.push(Entry::dir(p("d/a"), Metadata::dir_default()));
        a.sort_by_path();
        let paths: Vec<_> = a.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["d", "d/a", "d/a/f"]);
    }

    #[test]
    fn collect_from_iterator() {
        let a: Archive = vec![Entry::dir(p("x"), Metadata::dir_default())].into_iter().collect();
        assert_eq!(a.len(), 1);
    }
}
