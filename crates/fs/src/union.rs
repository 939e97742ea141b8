//! Overlay2-style union mount.
//!
//! A [`UnionFs`] merges any number of read-only *lower* trees (topmost first
//! in precedence after the upper) beneath a single writable *upper* tree.
//! Semantics follow Linux overlayfs:
//!
//! * lookups hit the upper first, then lowers top-to-bottom;
//! * directories present in several layers are merged; any non-directory
//!   masks everything beneath the same path in deeper layers;
//! * writes copy up into the upper; deletions of lower entries create
//!   *whiteouts*; deleting and recreating a directory marks it *opaque*;
//! * `readdir` merges child names across layers minus whiteouts.
//!
//! Reading a file whose body is a fingerprint placeholder consults the
//! mount's [`Materializer`] — the analogue of the Gear paper's modified
//! `ovl_lookup_single()` pausing to ask a user-mode helper for the file. The
//! resolved content is memoized in the mount, which models the paper's
//! "hard-link the Gear file into the index so later requests need not search
//! the cache again".

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, Metadata};
use gear_hash::Fingerprint;
use gear_telemetry::Telemetry;

use crate::error::FsError;
use crate::node::{FileData, Node};
use crate::tree::FsTree;

/// Maximum symlink indirections before declaring a loop (Linux uses 40).
const SYMLINK_MAX: usize = 40;

/// Resolves fingerprint placeholders to file content.
///
/// Implementations typically consult a local shared cache first and fall back
/// to a remote Gear registry (see `gear-client`).
pub trait Materializer {
    /// Fetches the `size`-byte content identified by `fingerprint`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the content cannot be produced;
    /// the mount surfaces it as [`FsError::Materialize`].
    fn fetch(&self, fingerprint: Fingerprint, size: u64) -> Result<Bytes, String>;
}

/// A [`Materializer`] that refuses every fetch. Use it for mounts that are
/// expected to contain only inline content.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFetch;

impl Materializer for NoFetch {
    fn fetch(&self, fingerprint: Fingerprint, _size: u64) -> Result<Bytes, String> {
        Err(format!("no materializer configured (wanted {fingerprint})"))
    }
}

/// Counters accumulated by a mount over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MountStats {
    /// Path lookups performed.
    pub lookups: u64,
    /// Whole-file reads served.
    pub reads: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Fingerprint placeholders resolved through the materializer.
    pub materializations: u64,
    /// Bytes fetched through the materializer.
    pub materialized_bytes: u64,
    /// Whiteouts created by unlinks.
    pub whiteouts_created: u64,
    /// Always 0: the mount keeps no resolve cache (every lookup is one
    /// `Walk`). The field stays for callers that still report it.
    pub resolve_cache_hits: u64,
}

/// An Overlay2-style union mount (read-write view over read-only layers).
#[derive(Debug, Clone)]
pub struct UnionFs {
    /// Lower trees, bottom-most first (index 0 is the deepest layer).
    lowers: Vec<Arc<FsTree>>,
    upper: FsTree,
    whiteouts: BTreeSet<String>,
    opaques: BTreeSet<String>,
    /// Memoized fingerprint resolutions ("hard links into the index").
    resolved: HashMap<Fingerprint, Bytes>,
    /// Paths whose inodes have been instantiated (for unmount-cost modelling).
    touched: HashSet<String>,
    stats: MountStats,
    telemetry: Telemetry,
}

impl UnionFs {
    /// Creates a mount over `lowers` (bottom-most first) with an empty upper.
    pub fn new(lowers: Vec<Arc<FsTree>>) -> Self {
        UnionFs {
            lowers,
            upper: FsTree::new(),
            whiteouts: BTreeSet::new(),
            opaques: BTreeSet::new(),
            resolved: HashMap::new(),
            touched: HashSet::new(),
            stats: MountStats::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry recorder: lookups, reads, copy-ups, and
    /// materializations feed `fs.*` counters, and each materializer fetch
    /// shows up as an instant event.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Mount statistics so far.
    pub fn stats(&self) -> MountStats {
        self.stats
    }

    /// Number of distinct inodes (paths) instantiated by this mount. The
    /// short-running experiment (paper Fig. 11b) models unmount cost as
    /// proportional to this count.
    pub fn inode_count(&self) -> usize {
        self.touched.len()
    }

    /// Read-only view of the writable upper tree.
    pub fn upper(&self) -> &FsTree {
        &self.upper
    }

    /// Whether `path` is visible in the merged view (symlinks not followed).
    pub fn contains(&mut self, path: &str) -> bool {
        self.stats.lookups += 1;
        self.find(path).is_some()
    }

    /// Metadata of the node at `path` after following symlinks.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::SymlinkLoop`].
    pub fn metadata(&mut self, path: &str) -> Result<Metadata, FsError> {
        let resolved = self.resolve(path, true)?;
        self.touch(&resolved);
        let node = self.find(&resolved).ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        Ok(node.meta())
    }

    /// Logical size of the file at `path` after following symlinks, without
    /// materializing its content.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::NotAFile`], [`FsError::SymlinkLoop`].
    pub fn file_size(&mut self, path: &str) -> Result<u64, FsError> {
        let resolved = self.resolve(path, true)?;
        match self.find(&resolved) {
            Some(Node::File(f)) => Ok(f.data.size()),
            Some(_) => Err(FsError::NotAFile(path.to_owned())),
            None => Err(FsError::NotFound(path.to_owned())),
        }
    }

    /// Target of the symlink at `path` (final component not followed).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if nothing is there, [`FsError::NotAFile`] if
    /// the entry is not a symlink.
    pub fn symlink_target(&mut self, path: &str) -> Result<String, FsError> {
        let resolved = self.resolve(path, false)?;
        self.stats.lookups += 1;
        match self.find(&resolved) {
            Some(Node::Symlink(s)) => Ok(s.target.clone()),
            Some(_) => Err(FsError::NotAFile(path.to_owned())),
            None => Err(FsError::NotFound(path.to_owned())),
        }
    }

    /// Reads the whole file at `path`, following symlinks and materializing
    /// fingerprint/chunked bodies through `mat`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::NotAFile`], [`FsError::SymlinkLoop`],
    /// or [`FsError::Materialize`] when `mat` cannot provide the content.
    pub fn read(&mut self, path: &str, mat: &dyn Materializer) -> Result<Bytes, FsError> {
        let resolved = self.resolve(path, true)?;
        self.touch(&resolved);
        self.stats.lookups += 1;
        let data = match self.find(&resolved) {
            Some(Node::File(f)) => f.data.clone(),
            Some(_) => return Err(FsError::NotAFile(path.to_owned())),
            None => return Err(FsError::NotFound(path.to_owned())),
        };
        let content = self.load(&resolved, &data, mat)?;
        self.stats.reads += 1;
        self.stats.bytes_read += content.len() as u64;
        if self.telemetry.enabled() {
            self.telemetry.count("fs.reads", 1);
            self.telemetry.count("fs.bytes_read", content.len() as u64);
            self.telemetry.sketch("fs.read_bytes", content.len() as u64);
        }
        Ok(content)
    }

    /// Reads `len` bytes at `offset` from the file at `path`. For chunked
    /// files only the overlapping chunks are materialized — the point of the
    /// paper's big-file extension.
    ///
    /// # Errors
    ///
    /// As [`UnionFs::read`]; reads past end-of-file are truncated, not errors.
    pub fn read_range(
        &mut self,
        path: &str,
        offset: u64,
        len: u64,
        mat: &dyn Materializer,
    ) -> Result<Bytes, FsError> {
        let resolved = self.resolve(path, true)?;
        self.touch(&resolved);
        self.stats.lookups += 1;
        let data = match self.find(&resolved) {
            Some(Node::File(f)) => f.data.clone(),
            Some(_) => return Err(FsError::NotAFile(path.to_owned())),
            None => return Err(FsError::NotFound(path.to_owned())),
        };
        let content = match &data {
            FileData::Chunked { chunks, size } => {
                let end = (offset + len).min(*size);
                if offset >= end {
                    Bytes::new()
                } else {
                    let mut out = Vec::with_capacity((end - offset) as usize);
                    let mut chunk_start = 0u64;
                    for chunk in chunks {
                        let chunk_end = chunk_start + chunk.size;
                        if chunk_end > offset && chunk_start < end {
                            let bytes =
                                self.materialize(&resolved, chunk.fingerprint, chunk.size, mat)?;
                            let from = offset.saturating_sub(chunk_start) as usize;
                            let to = (end.min(chunk_end) - chunk_start) as usize;
                            out.extend_from_slice(&bytes[from..to]);
                        }
                        chunk_start = chunk_end;
                        if chunk_start >= end {
                            break;
                        }
                    }
                    Bytes::from(out)
                }
            }
            other => {
                let whole = self.load(&resolved, other, mat)?;
                let start = (offset as usize).min(whole.len());
                let stop = ((offset + len) as usize).min(whole.len());
                whole.slice(start..stop)
            }
        };
        self.stats.reads += 1;
        self.stats.bytes_read += content.len() as u64;
        if self.telemetry.enabled() {
            self.telemetry.count("fs.reads", 1);
            self.telemetry.count("fs.bytes_read", content.len() as u64);
            self.telemetry.sketch("fs.read_bytes", content.len() as u64);
        }
        Ok(content)
    }

    /// Merged child names of the directory at `path` (symlinks followed).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`] /
    /// [`FsError::SymlinkLoop`].
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, FsError> {
        let resolved = self.resolve(path, true)?;
        self.touch(&resolved);
        self.stats.lookups += 1;
        let mut names = BTreeSet::new();
        let mut found_dir = false;
        let mut found_any = false;
        if let Some(node) = self.upper.get(&resolved) {
            found_any = true;
            match node {
                Node::Dir { children, .. } => {
                    found_dir = true;
                    names.extend(children.keys().cloned());
                }
                _ => return Err(FsError::NotADirectory(path.to_owned())),
            }
        }
        if !self.walk(&resolved).hides_below() {
            for tree in self.visible_lowers(&resolved) {
                if let Some(Node::Dir { children, .. }) = tree.get(&resolved) {
                    found_any = true;
                    found_dir = true;
                    for name in children.keys() {
                        let child_path = join(&resolved, name);
                        if !self.whiteouts.contains(&child_path) || self.upper.contains(&child_path)
                        {
                            names.insert(name.clone());
                        }
                    }
                } else if tree.get(&resolved).is_some() && !found_any {
                    return Err(FsError::NotADirectory(path.to_owned()));
                }
            }
        }
        if !found_dir {
            return if found_any {
                Err(FsError::NotADirectory(path.to_owned()))
            } else {
                Err(FsError::NotFound(path.to_owned()))
            };
        }
        // Drop children whited-out and not recreated.
        names.retain(|name| {
            let p = join(&resolved, name);
            self.upper.contains(&p) || !self.whiteouts.contains(&p)
        });
        Ok(names.into_iter().collect())
    }

    /// Writes `content` to `path` in the upper layer, creating parents
    /// (copy-up) as needed and uncovering any whiteout at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if a non-directory blocks an ancestor;
    /// [`FsError::InvalidPath`] for malformed paths.
    pub fn write(&mut self, path: &str, content: Bytes) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        let meta = match self.find(valid.as_str()) {
            Some(Node::File(f)) => f.meta,
            Some(Node::Dir { .. }) => return Err(FsError::NotAFile(path.to_owned())),
            _ => Metadata::file_default(),
        };
        self.copy_up_parents(&valid)?;
        self.upper.insert(valid.as_str(), Node::inline_file(meta, content))?;
        self.whiteouts.remove(valid.as_str());
        self.touch(valid.as_str());
        Ok(())
    }

    /// Creates a directory (and parents) in the upper layer.
    ///
    /// # Errors
    ///
    /// As [`UnionFs::write`].
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        // Creating a directory over a visible non-directory is EEXIST; check
        // every prefix so `mkdir -p a/b` cannot tunnel through a lower file.
        let mut prefix = String::new();
        for comp in valid.components() {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(comp);
            match self.find(&prefix) {
                Some(n) if !n.is_dir() => return Err(FsError::NotADirectory(prefix)),
                _ => {}
            }
        }
        self.copy_up_parents(&valid)?;
        self.upper.mkdir_p(valid.as_str())?;
        // Deleting a lower dir and re-creating it makes the new one opaque.
        if self.whiteouts.remove(valid.as_str()) {
            self.opaques.insert(valid.as_str().to_owned());
        }
        Ok(())
    }

    /// Creates a symlink at `path` in the upper layer.
    ///
    /// # Errors
    ///
    /// As [`UnionFs::write`].
    pub fn symlink(&mut self, path: &str, target: impl Into<String>) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        if matches!(self.find(valid.as_str()), Some(Node::Dir { .. })) {
            return Err(FsError::AlreadyExists(path.to_owned()));
        }
        self.copy_up_parents(&valid)?;
        self.upper.insert(valid.as_str(), Node::symlink(Metadata::file_default(), target))?;
        self.whiteouts.remove(valid.as_str());
        Ok(())
    }

    /// Appends `data` to the file at `path` (copy-up if it lives in a lower
    /// layer), creating it when absent — `open(O_APPEND)` semantics.
    ///
    /// # Errors
    ///
    /// [`FsError::NotAFile`] for directories; [`FsError::Materialize`] when
    /// the existing content cannot be fetched; plus [`UnionFs::write`]'s
    /// errors.
    pub fn append(
        &mut self,
        path: &str,
        data: &[u8],
        mat: &dyn Materializer,
    ) -> Result<(), FsError> {
        let existing = match self.find(path) {
            Some(Node::File(_)) => self.read(path, mat)?,
            Some(_) => return Err(FsError::NotAFile(path.to_owned())),
            None => Bytes::new(),
        };
        let mut combined = Vec::with_capacity(existing.len() + data.len());
        combined.extend_from_slice(&existing);
        combined.extend_from_slice(data);
        self.write(path, Bytes::from(combined))
    }

    /// Truncates the file at `path` to `len` bytes (copy-up as needed).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotAFile`] /
    /// [`FsError::Materialize`].
    pub fn truncate(
        &mut self,
        path: &str,
        len: u64,
        mat: &dyn Materializer,
    ) -> Result<(), FsError> {
        match self.find(path) {
            Some(Node::File(_)) => {}
            Some(_) => return Err(FsError::NotAFile(path.to_owned())),
            None => return Err(FsError::NotFound(path.to_owned())),
        }
        let existing = self.read(path, mat)?;
        let end = (len as usize).min(existing.len());
        self.write(path, existing.slice(..end))
    }

    /// Renames a regular file or symlink: copy-up + whiteout, exactly how
    /// overlayfs implements rename without `redirect_dir`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for a missing source; [`FsError::NotAFile`]
    /// when the source is a directory (directory rename is not supported,
    /// as in overlayfs's default mode); [`FsError::Materialize`] when the
    /// content cannot be fetched; plus [`UnionFs::write`]'s errors for the
    /// destination.
    pub fn rename(
        &mut self,
        from: &str,
        to: &str,
        mat: &dyn Materializer,
    ) -> Result<(), FsError> {
        match self.find(from) {
            Some(Node::Dir { .. }) => Err(FsError::NotAFile(from.to_owned())),
            Some(Node::Symlink(link)) => {
                let target = link.target.clone();
                self.symlink(to, target)?;
                self.unlink(from)
            }
            Some(Node::File(_)) => {
                let content = self.read(from, mat)?;
                let meta = self.metadata(from)?;
                self.write(to, content)?;
                // Preserve the original metadata on the new upper entry.
                if let Some(Node::File(f)) = self.upper.get_mut(to) {
                    f.meta = meta;
                }
                self.unlink(from)
            }
            None => Err(FsError::NotFound(from.to_owned())),
        }
    }

    /// Removes the entry at `path`: drops it from the upper layer and/or
    /// whiteouts the lower entry.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when nothing is visible at `path`.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        let path = valid.as_str();
        let at = self.walk(path);
        let (in_upper, in_lower, hidden) =
            (at.upper().is_some(), at.lower().is_some(), at.hidden());
        if !in_upper && (!in_lower || hidden) {
            return Err(FsError::NotFound(path.to_owned()));
        }
        if in_upper {
            let _ = self.upper.remove(path);
        }
        if in_lower {
            self.whiteouts.insert(path.to_owned());
            self.stats.whiteouts_created += 1;
        }
        self.opaques.remove(path);
        Ok(())
    }

    /// Extracts the writable state as a layer diff: upper entries (parents
    /// first) plus whiteouts and opaque markers. Feeding the result to
    /// [`FsTree::apply_layer`] on the merged lower state reproduces this
    /// mount's merged view — this is exactly `docker commit`.
    pub fn diff(&self) -> Archive {
        let mut archive = Archive::new();
        for path in &self.whiteouts {
            if !self.upper.contains(path) {
                // Every stored path went through `ArchivePath::new` in `unlink`.
                if let Ok(p) = ArchivePath::new(path) {
                    archive.push(Entry::whiteout(p));
                }
            }
        }
        for (path, node) in self.upper.walk() {
            // The upper only ever grows by validated paths; an entry no path
            // reaches has no archive form.
            let Ok(apath) = ArchivePath::new(&path) else { continue };
            match node {
                Node::Dir { meta, .. } => {
                    if self.opaques.contains(&path) {
                        archive.push(Entry::opaque_dir(apath, *meta));
                    } else {
                        archive.push(Entry::dir(apath, *meta));
                    }
                }
                Node::File(f) => {
                    let content = match &f.data {
                        FileData::Inline(b) => b.clone(),
                        FileData::Fingerprint { fingerprint, .. } => {
                            Bytes::from(fingerprint.to_string())
                        }
                        FileData::Chunked { chunks, .. } => Bytes::from(
                            chunks
                                .iter()
                                .map(|c| format!("{}\n", c.fingerprint))
                                .collect::<String>(),
                        ),
                    };
                    archive.push(Entry::file(apath, f.meta, content));
                }
                Node::Symlink(s) => {
                    archive.push(Entry::symlink(apath, s.meta, s.target.clone()))
                }
            }
        }
        archive
    }

    /// Flattens the merged view into a plain [`FsTree`] (fingerprint bodies
    /// preserved, not materialized).
    pub fn flatten(&self) -> FsTree {
        let mut out = FsTree::new();
        // Bottom-up: lowers then upper, honouring whiteouts/opaques.
        for tree in &self.lowers {
            for (path, node) in tree.walk() {
                // Skip paths masked by whiteouts/opaque ancestors.
                if self.walk(&path).hidden() {
                    continue;
                }
                let _ = out.insert(&path, node.clone());
            }
        }
        for path in &self.whiteouts {
            let _ = out.remove(path);
        }
        for (path, node) in self.upper.walk() {
            if node.is_dir() {
                if self.opaques.contains(&path) {
                    let _ = out.remove(&path);
                }
                let _ = out.mkdir_p(&path);
            } else {
                let _ = out.insert(&path, node.clone());
            }
        }
        out
    }

    // ---- internals -------------------------------------------------------

    /// Ensures every ancestor of `path` exists as a directory in the upper
    /// layer, copying metadata from the merged view where available (the
    /// overlayfs "copy-up" of the directory chain).
    fn copy_up_parents(&mut self, path: &ArchivePath) -> Result<(), FsError> {
        let Some(parent) = path.parent() else { return Ok(()) };
        let mut prefix = String::new();
        for comp in parent.components() {
            if !prefix.is_empty() {
                prefix.push('/');
            }
            prefix.push_str(comp);
            if self.upper.contains(&prefix) {
                continue;
            }
            let meta = match self.find(&prefix) {
                Some(Node::Dir { meta, .. }) => *meta,
                Some(_) => return Err(FsError::NotADirectory(prefix)),
                None => Metadata::dir_default(),
            };
            self.upper.insert(&prefix, Node::empty_dir(meta))?;
            self.telemetry.count("fs.copy_up_dirs", 1);
        }
        Ok(())
    }

    fn touch(&mut self, path: &str) {
        if !self.touched.contains(path) {
            self.touched.insert(path.to_owned());
        }
    }

    fn load(
        &mut self,
        path: &str,
        data: &FileData,
        mat: &dyn Materializer,
    ) -> Result<Bytes, FsError> {
        match data {
            FileData::Inline(b) => Ok(b.clone()),
            FileData::Fingerprint { fingerprint, size } => {
                self.materialize(path, *fingerprint, *size, mat)
            }
            FileData::Chunked { chunks, size } => {
                let mut out = Vec::with_capacity(*size as usize);
                for chunk in chunks.clone() {
                    let bytes = self.materialize(path, chunk.fingerprint, chunk.size, mat)?;
                    out.extend_from_slice(&bytes);
                }
                Ok(Bytes::from(out))
            }
        }
    }

    fn materialize(
        &mut self,
        path: &str,
        fingerprint: Fingerprint,
        size: u64,
        mat: &dyn Materializer,
    ) -> Result<Bytes, FsError> {
        if let Some(bytes) = self.resolved.get(&fingerprint) {
            return Ok(bytes.clone());
        }
        let bytes = mat
            .fetch(fingerprint, size)
            .map_err(|reason| FsError::Materialize { path: path.to_owned(), reason })?;
        self.stats.materializations += 1;
        self.stats.materialized_bytes += bytes.len() as u64;
        if self.telemetry.enabled() {
            self.telemetry.count("fs.materializations", 1);
            self.telemetry.count("fs.materialized_bytes", bytes.len() as u64);
            self.telemetry.instant("fs", "materialize");
        }
        self.resolved.insert(fingerprint, bytes.clone());
        Ok(bytes)
    }

    /// Lower trees in precedence order (topmost lower first).
    fn visible_lowers(&self, _path: &str) -> impl Iterator<Item = &Arc<FsTree>> {
        self.lowers.iter().rev()
    }

    /// A [`Walk`] taken down `path`, one level per component.
    fn walk(&self, path: &str) -> Walk<'_> {
        let mut walk = Walk::new(self, path.len());
        if !path.is_empty() {
            for comp in path.split('/') {
                walk.push(comp);
            }
        }
        walk
    }

    /// Finds the node at `path` in the merged view, no symlink following.
    fn find(&self, path: &str) -> Option<&Node> {
        self.walk(path).node()
    }

    /// Resolves symlinks in `path`; returns the normalized final path.
    ///
    /// One [`Walk`] that steps down for a name, up for `..`, and back to the
    /// root for an absolute link target. What is still to be walked is a
    /// stack of component iterators borrowed from the request path and from
    /// the targets of the links met on the way, the innermost target on top.
    fn resolve<'a>(&'a self, path: &'a str, follow_final: bool) -> Result<String, FsError> {
        self.telemetry.count("fs.lookups", 1);
        if path.is_empty() {
            return Ok(String::new());
        }
        ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        let mut walk = Walk::new(self, path.len());
        let mut pending = vec![path.split('/')];
        let mut hops = 0usize;
        while let Some(rest) = pending.last_mut() {
            let Some(comp) = rest.next() else {
                pending.pop();
                continue;
            };
            match comp {
                "" | "." => continue,
                ".." => {
                    walk.pop();
                    continue;
                }
                _ => {}
            }
            walk.push(comp);
            let is_final = || pending.iter().all(|rest| rest.clone().all(|c| matches!(c, "" | ".")));
            if !follow_final && is_final() {
                continue;
            }
            if let Some(Node::Symlink(link)) = walk.node() {
                hops += 1;
                if hops > SYMLINK_MAX {
                    return Err(FsError::SymlinkLoop(path.to_owned()));
                }
                walk.pop(); // the link component itself
                if link.target.starts_with('/') {
                    walk.clear();
                }
                pending.push(link.target.trim_start_matches('/').split('/'));
            }
        }
        Ok(walk.path)
    }
}

/// What one prefix of a walked path holds in each part of the mount.
#[derive(Debug)]
struct Level<'a> {
    /// The upper tree's node here.
    upper: Option<&'a Node>,
    /// Where this level's nodes start in [`Walk::lowers`]; they run to the
    /// next level's start, the top level's to the end.
    lowers_start: usize,
    /// Lower content *at* this prefix is hidden: a whiteout here or on a
    /// prefix above, or what `hides_below` says of the level above.
    hidden: bool,
    /// Lower content *below* this prefix is hidden: `hidden`, or this prefix
    /// is opaque, or the upper holds a non-directory here.
    hides_below: bool,
    /// Length of [`Walk::path`] without this level's component.
    parent_len: usize,
}

/// A position in the merged view, moved one component at a time — the one
/// place overlay masking is worked out. Stepping down costs one map lookup in
/// the upper and one in each lower directory still merged in; nothing is
/// allocated per step.
#[derive(Debug)]
struct Walk<'a> {
    fs: &'a UnionFs,
    /// Where the walk starts, and stands while `levels` is empty.
    root: Level<'a>,
    /// One level per component walked.
    levels: Vec<Level<'a>>,
    /// Every level's lower nodes, the root's first, then level after level.
    /// A level's are what the lower stack alone shows at its prefix, topmost
    /// lower first: either the directories merged there, or the one
    /// non-directory that masks the rest. Whether the upper lets any of it
    /// through is the level's `hidden`.
    lowers: Vec<&'a Node>,
    /// The walked prefix, as whiteouts and opaque markers are keyed.
    path: String,
}

impl<'a> Walk<'a> {
    /// A walk standing at the root, with room for a path of `path_len` bytes.
    fn new(fs: &'a UnionFs, path_len: usize) -> Self {
        let root = Level {
            upper: Some(fs.upper.root()),
            lowers_start: 0,
            hidden: false,
            hides_below: false,
            parent_len: 0,
        };
        let mut lowers = Vec::with_capacity(8 * fs.lowers.len().max(1));
        lowers.extend(fs.lowers.iter().rev().map(|tree| tree.root()));
        Walk {
            fs,
            root,
            levels: Vec::with_capacity(8),
            lowers,
            path: String::with_capacity(path_len),
        }
    }

    fn top(&self) -> &Level<'a> {
        self.levels.last().unwrap_or(&self.root)
    }

    /// Steps down into `comp`, whether or not anything is there.
    fn push(&mut self, comp: &str) {
        let top = self.top();
        let upper = match top.upper {
            Some(Node::Dir { children, .. }) => children.get(comp),
            _ => None,
        };
        let (above, hidden_above) = (top.lowers_start, top.hides_below);
        let start = self.lowers.len();
        for at in above..start {
            let Node::Dir { children, .. } = self.lowers[at] else { continue };
            let Some(child) = children.get(comp) else { continue };
            if self.lowers.len() == start {
                self.lowers.push(child);
                if !child.is_dir() {
                    break; // masks deeper layers
                }
            } else if child.is_dir() {
                self.lowers.push(child); // merged dir
            }
            // deeper non-dir under a dir: hidden
        }
        let parent_len = self.path.len();
        if parent_len > 0 {
            self.path.push('/');
        }
        self.path.push_str(comp);
        let hidden = hidden_above || self.fs.whiteouts.contains(&self.path);
        let hides_below = hidden
            || self.fs.opaques.contains(&self.path)
            || upper.is_some_and(|node| !node.is_dir());
        self.levels.push(Level { upper, lowers_start: start, hidden, hides_below, parent_len });
    }

    /// Steps back up one component; at the root, stays there.
    fn pop(&mut self) {
        if let Some(top) = self.levels.pop() {
            self.lowers.truncate(top.lowers_start);
            self.path.truncate(top.parent_len);
        }
    }

    /// Back to the root.
    fn clear(&mut self) {
        self.levels.clear();
        self.lowers.truncate(self.fs.lowers.len());
        self.path.clear();
    }

    /// The upper tree's node here.
    fn upper(&self) -> Option<&'a Node> {
        self.top().upper
    }

    /// What the lower stack alone shows here, masking between lowers applied.
    fn lower(&self) -> Option<&'a Node> {
        self.lowers.get(self.top().lowers_start).copied()
    }

    /// Whether the upper hides lower content here.
    fn hidden(&self) -> bool {
        self.top().hidden
    }

    /// Whether the upper hides lower content below here.
    fn hides_below(&self) -> bool {
        self.top().hides_below
    }

    /// The node the merged view shows here.
    fn node(&self) -> Option<&'a Node> {
        self.upper().or_else(|| if self.hidden() { None } else { self.lower() })
    }
}

fn join(base: &str, name: &str) -> String {
    if base.is_empty() {
        name.to_owned()
    } else {
        format!("{base}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_with(paths: &[(&str, &[u8])]) -> Arc<FsTree> {
        let mut t = FsTree::new();
        for (p, content) in paths {
            t.create_file(p, Bytes::copy_from_slice(content)).unwrap();
        }
        Arc::new(t)
    }

    #[test]
    fn reads_fall_through_to_lower() {
        let lower = lower_with(&[("etc/conf", b"lower")]);
        let mut m = UnionFs::new(vec![lower]);
        assert_eq!(&m.read("etc/conf", &NoFetch).unwrap()[..], b"lower");
    }

    #[test]
    fn upper_shadows_lower() {
        let lower = lower_with(&[("f", b"old")]);
        let mut m = UnionFs::new(vec![lower]);
        m.write("f", Bytes::from_static(b"new")).unwrap();
        assert_eq!(&m.read("f", &NoFetch).unwrap()[..], b"new");
    }

    #[test]
    fn top_lower_shadows_bottom_lower() {
        let bottom = lower_with(&[("f", b"bottom"), ("only-bottom", b"b")]);
        let top = lower_with(&[("f", b"top")]);
        let mut m = UnionFs::new(vec![bottom, top]);
        assert_eq!(&m.read("f", &NoFetch).unwrap()[..], b"top");
        assert_eq!(&m.read("only-bottom", &NoFetch).unwrap()[..], b"b");
    }

    #[test]
    fn unlink_lower_creates_whiteout() {
        let lower = lower_with(&[("a", b"x"), ("b", b"y")]);
        let mut m = UnionFs::new(vec![lower]);
        m.unlink("a").unwrap();
        assert!(m.read("a", &NoFetch).is_err());
        assert!(m.read("b", &NoFetch).is_ok());
        assert_eq!(m.stats().whiteouts_created, 1);
        // Re-create uncovers.
        m.write("a", Bytes::from_static(b"again")).unwrap();
        assert_eq!(&m.read("a", &NoFetch).unwrap()[..], b"again");
    }

    #[test]
    fn unlink_missing_errors() {
        let mut m = UnionFs::new(vec![]);
        assert!(matches!(m.unlink("ghost"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn readdir_merges_layers() {
        let lower = lower_with(&[("d/from-lower", b"1")]);
        let mut m = UnionFs::new(vec![lower]);
        m.write("d/from-upper", Bytes::from_static(b"2")).unwrap();
        assert_eq!(m.readdir("d").unwrap(), vec!["from-lower", "from-upper"]);
        m.unlink("d/from-lower").unwrap();
        assert_eq!(m.readdir("d").unwrap(), vec!["from-upper"]);
    }

    #[test]
    fn deleted_then_recreated_dir_is_opaque() {
        let lower = lower_with(&[("d/old", b"1")]);
        let mut m = UnionFs::new(vec![lower]);
        m.unlink("d").unwrap();
        m.mkdir_p("d").unwrap();
        m.write("d/new", Bytes::from_static(b"2")).unwrap();
        assert_eq!(m.readdir("d").unwrap(), vec!["new"]);
        assert!(m.read("d/old", &NoFetch).is_err());
        // The diff records the opacity.
        let diff = m.diff();
        assert!(diff
            .iter()
            .any(|e| matches!(e.kind, gear_archive::EntryKind::OpaqueDir { .. })));
    }

    #[test]
    fn symlinks_followed_absolute_and_relative() {
        let mut t = FsTree::new();
        t.create_file("usr/lib/real.so", Bytes::from_static(b"ELF")).unwrap();
        t.insert("usr/lib/link.so", Node::symlink(Metadata::file_default(), "real.so")).unwrap();
        t.insert("alias", Node::symlink(Metadata::file_default(), "/usr/lib/link.so")).unwrap();
        t.insert("upref", Node::symlink(Metadata::file_default(), "usr/lib/../lib/real.so"))
            .unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        assert_eq!(&m.read("usr/lib/link.so", &NoFetch).unwrap()[..], b"ELF");
        assert_eq!(&m.read("alias", &NoFetch).unwrap()[..], b"ELF");
        assert_eq!(&m.read("upref", &NoFetch).unwrap()[..], b"ELF");
        assert_eq!(m.symlink_target("alias").unwrap(), "/usr/lib/link.so");
    }

    #[test]
    fn symlink_loop_detected() {
        let mut t = FsTree::new();
        t.insert("a", Node::symlink(Metadata::file_default(), "b")).unwrap();
        t.insert("b", Node::symlink(Metadata::file_default(), "a")).unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        assert!(matches!(m.read("a", &NoFetch), Err(FsError::SymlinkLoop(_))));
    }

    #[test]
    fn fingerprint_materialization_and_memoization() {
        use std::cell::Cell;
        struct Counting<'a>(&'a Cell<u32>);
        impl Materializer for Counting<'_> {
            fn fetch(&self, _fp: Fingerprint, _size: u64) -> Result<Bytes, String> {
                self.0.set(self.0.get() + 1);
                Ok(Bytes::from_static(b"gear file body"))
            }
        }
        let mut t = FsTree::new();
        let fp = Fingerprint::of(b"gear file body");
        t.insert("data", Node::fingerprint_file(Metadata::file_default(), fp, 14)).unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        let calls = Cell::new(0);
        let mat = Counting(&calls);
        assert_eq!(&m.read("data", &mat).unwrap()[..], b"gear file body");
        assert_eq!(&m.read("data", &mat).unwrap()[..], b"gear file body");
        assert_eq!(calls.get(), 1, "second read must hit the memoized hard link");
        assert_eq!(m.stats().materializations, 1);
    }

    #[test]
    fn materialize_failure_is_surfaced() {
        let mut t = FsTree::new();
        t.insert(
            "missing",
            Node::fingerprint_file(Metadata::file_default(), Fingerprint::of(b"?"), 1),
        )
        .unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        assert!(matches!(m.read("missing", &NoFetch), Err(FsError::Materialize { .. })));
    }

    #[test]
    fn read_range_fetches_only_needed_chunks() {
        use std::cell::RefCell;
        struct ChunkStore<'a>(&'a RefCell<Vec<Fingerprint>>, Vec<(Fingerprint, Bytes)>);
        impl Materializer for ChunkStore<'_> {
            fn fetch(&self, fp: Fingerprint, _size: u64) -> Result<Bytes, String> {
                self.0.borrow_mut().push(fp);
                self.1
                    .iter()
                    .find(|(f, _)| *f == fp)
                    .map(|(_, b)| b.clone())
                    .ok_or_else(|| "unknown chunk".to_owned())
            }
        }
        let c1 = Bytes::from(vec![1u8; 100]);
        let c2 = Bytes::from(vec![2u8; 100]);
        let c3 = Bytes::from(vec![3u8; 100]);
        let refs: Vec<crate::ChunkRef> = [&c1, &c2, &c3]
            .iter()
            .map(|b| crate::ChunkRef { fingerprint: Fingerprint::of(b), size: b.len() as u64 })
            .collect();
        let store = vec![
            (refs[0].fingerprint, c1),
            (refs[1].fingerprint, c2),
            (refs[2].fingerprint, c3),
        ];
        let mut t = FsTree::new();
        t.insert(
            "model.bin",
            Node::File(crate::FileNode {
                meta: Metadata::file_default(),
                data: FileData::Chunked { chunks: refs.clone(), size: 300 },
            }),
        )
        .unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        let fetched = RefCell::new(Vec::new());
        let mat = ChunkStore(&fetched, store);
        let got = m.read_range("model.bin", 150, 20, &mat).unwrap();
        assert_eq!(&got[..], &[2u8; 20][..]);
        assert_eq!(fetched.borrow().len(), 1, "only the middle chunk should be fetched");
        assert_eq!(fetched.borrow()[0], refs[1].fingerprint);
    }

    #[test]
    fn diff_apply_reproduces_merged_view() {
        let lower = lower_with(&[("keep", b"k"), ("gone", b"g"), ("d/sub", b"s")]);
        let mut m = UnionFs::new(vec![lower.clone()]);
        m.write("new", Bytes::from_static(b"n")).unwrap();
        m.write("d/added", Bytes::from_static(b"a")).unwrap();
        m.unlink("gone").unwrap();

        let mut replay = (*lower).clone();
        replay.apply_layer(&m.diff()).unwrap();
        let flat = m.flatten();
        assert_eq!(replay, flat);
    }

    #[test]
    fn inode_count_tracks_touched_paths() {
        let lower = lower_with(&[("a", b"1"), ("b", b"2"), ("c", b"3")]);
        let mut m = UnionFs::new(vec![lower]);
        m.read("a", &NoFetch).unwrap();
        m.read("a", &NoFetch).unwrap();
        m.read("b", &NoFetch).unwrap();
        assert_eq!(m.inode_count(), 2);
    }

    #[test]
    fn repointed_symlinks_and_unlinked_targets_are_seen_at_once() {
        let mut t = FsTree::new();
        t.create_file("old", Bytes::from_static(b"old body")).unwrap();
        t.insert("ln", Node::symlink(Metadata::file_default(), "old")).unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);
        assert_eq!(&m.read("ln", &NoFetch).unwrap()[..], b"old body");
        // Repoint the symlink: the next read follows the new target.
        m.write("new", Bytes::from_static(b"new body")).unwrap();
        m.symlink("ln", "new").unwrap();
        assert_eq!(&m.read("ln", &NoFetch).unwrap()[..], b"new body");
        // Unlink the target: the whiteout makes the lookup fail.
        m.unlink("new").unwrap();
        assert!(m.read("ln", &NoFetch).is_err());
    }

    #[test]
    fn append_and_truncate() {
        let lower = lower_with(&[("log", b"line1\n")]);
        let mut m = UnionFs::new(vec![lower]);
        m.append("log", b"line2\n", &NoFetch).unwrap();
        assert_eq!(&m.read("log", &NoFetch).unwrap()[..], b"line1\nline2\n");
        // Append creates missing files.
        m.append("fresh", b"start", &NoFetch).unwrap();
        assert_eq!(&m.read("fresh", &NoFetch).unwrap()[..], b"start");
        // Truncate shrinks; extending truncate clamps.
        m.truncate("log", 5, &NoFetch).unwrap();
        assert_eq!(&m.read("log", &NoFetch).unwrap()[..], b"line1");
        m.truncate("log", 100, &NoFetch).unwrap();
        assert_eq!(&m.read("log", &NoFetch).unwrap()[..], b"line1");
        assert!(matches!(m.truncate("nope", 0, &NoFetch), Err(FsError::NotFound(_))));
    }

    #[test]
    fn rename_copy_up_semantics() {
        let mut t = FsTree::new();
        t.insert(
            "old/name",
            Node::File(crate::FileNode {
                meta: Metadata { mode: 0o640, uid: 3, gid: 4, mtime: 7 },
                data: FileData::Inline(Bytes::from_static(b"payload")),
            }),
        )
        .unwrap();
        t.insert("old/link", Node::symlink(Metadata::file_default(), "/old/name")).unwrap();
        let mut m = UnionFs::new(vec![Arc::new(t)]);

        m.rename("old/name", "new/name", &NoFetch).unwrap();
        assert!(m.read("old/name", &NoFetch).is_err(), "source whited out");
        assert_eq!(&m.read("new/name", &NoFetch).unwrap()[..], b"payload");
        assert_eq!(m.metadata("new/name").unwrap().mode, 0o640, "metadata preserved");

        m.rename("old/link", "new/link", &NoFetch).unwrap();
        assert_eq!(m.symlink_target("new/link").unwrap(), "/old/name");

        assert!(matches!(m.rename("ghost", "x", &NoFetch), Err(FsError::NotFound(_))));
        assert!(matches!(m.rename("new", "y", &NoFetch), Err(FsError::NotAFile(_))));
        // The commit invariant still holds after renames.
        let diff = m.diff();
        assert!(diff.iter().any(|e| matches!(e.kind, gear_archive::EntryKind::Whiteout)));
    }

    #[test]
    fn metadata_and_file_size() {
        let lower = lower_with(&[("f", b"12345")]);
        let mut m = UnionFs::new(vec![lower]);
        assert_eq!(m.file_size("f").unwrap(), 5);
        assert_eq!(m.metadata("f").unwrap().mode, 0o644);
        assert!(matches!(m.file_size("nope"), Err(FsError::NotFound(_))));
    }

    // ---- the walk against what it replaced -------------------------------

    /// `find`, `find_lower`, `lower_hidden`, `resolve_uncached` and `flatten`
    /// as they stood before [`Walk`], word for word: every call walks its
    /// path from the root again, `resolve_uncached` once per prefix. Fields
    /// and `visible_lowers` are reached through the `Deref`.
    struct Reference<'a>(&'a UnionFs);

    impl std::ops::Deref for Reference<'_> {
        type Target = UnionFs;
        fn deref(&self) -> &UnionFs {
            self.0
        }
    }

    impl Reference<'_> {
        /// Whether lower content at `path` is hidden by a whiteout/opaque marker
        /// at the path itself or any ancestor, or by a non-directory in the upper
        /// at an ancestor.
        fn lower_hidden(&self, path: &str) -> bool {
            let mut prefix = String::new();
            let mut comps = path.split('/').peekable();
            while let Some(comp) = comps.next() {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(comp);
                let is_final = comps.peek().is_none();
                if self.whiteouts.contains(&prefix) {
                    return true;
                }
                if !is_final && self.opaques.contains(&prefix) {
                    return true;
                }
                if !is_final {
                    if let Some(node) = self.upper.get(&prefix) {
                        if !node.is_dir() {
                            return true;
                        }
                    }
                }
            }
            false
        }

        /// Finds the node at `path` in the merged view, no symlink following.
        fn find(&self, path: &str) -> Option<&Node> {
            if let Some(node) = self.upper.get(path) {
                return Some(node);
            }
            if path.is_empty() {
                return self.lowers.last().map(|t| t.get("").expect("root exists"));
            }
            if self.lower_hidden(path) {
                return None;
            }
            self.find_lower(path)
        }

        /// Finds `path` in the lower stack with overlay masking between lowers.
        fn find_lower(&self, path: &str) -> Option<&Node> {
            // Current merged set of directory nodes at the walked prefix,
            // ordered topmost-lower first.
            let mut dirs: Vec<&Node> = self
                .visible_lowers(path)
                .map(|t| t.get("").expect("root exists"))
                .collect();
            let mut comps = path.split('/').peekable();
            while let Some(comp) = comps.next() {
                let is_final = comps.peek().is_none();
                let mut matched: Vec<&Node> = Vec::new();
                for dir in &dirs {
                    if let Node::Dir { children, .. } = dir {
                        if let Some(child) = children.get(comp) {
                            if matched.is_empty() {
                                let non_dir = !child.is_dir();
                                matched.push(child);
                                if non_dir {
                                    break; // masks deeper layers
                                }
                            } else if child.is_dir() {
                                matched.push(child); // merged dir
                            }
                            // deeper non-dir under a dir: hidden
                        }
                    }
                }
                if matched.is_empty() {
                    return None;
                }
                if is_final {
                    return Some(matched[0]);
                }
                if !matched[0].is_dir() {
                    return None; // cannot descend through a file/symlink
                }
                dirs = matched;
            }
            None
        }

        /// The uncached resolution walk behind [`UnionFs::resolve`].
        fn resolve_uncached(&self, path: &str, follow_final: bool) -> Result<String, FsError> {
            if path.is_empty() {
                return Ok(String::new());
            }
            ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
            let mut stack: Vec<String> = Vec::new();
            let mut pending: Vec<String> = path.split('/').rev().map(str::to_owned).collect();
            let mut hops = 0usize;
            while let Some(comp) = pending.pop() {
                match comp.as_str() {
                    "" | "." => continue,
                    ".." => {
                        stack.pop();
                        continue;
                    }
                    _ => {}
                }
                stack.push(comp);
                let current = stack.join("/");
                let is_final = pending.iter().all(|c| c == "." || c.is_empty());
                if is_final && !follow_final {
                    continue;
                }
                if let Some(Node::Symlink(link)) = self.find(&current) {
                    hops += 1;
                    if hops > SYMLINK_MAX {
                        return Err(FsError::SymlinkLoop(path.to_owned()));
                    }
                    let target = link.target.clone();
                    stack.pop(); // the link component itself
                    if target.starts_with('/') {
                        stack.clear();
                    }
                    // Queue the target's components ahead of the remaining ones.
                    for part in target.trim_start_matches('/').split('/').rev() {
                        pending.push(part.to_owned());
                    }
                }
            }
            Ok(stack.join("/"))
        }

        /// Flattens the merged view into a plain [`FsTree`] (fingerprint bodies
        /// preserved, not materialized).
        fn flatten(&self) -> FsTree {
            let mut out = FsTree::new();
            // Bottom-up: lowers then upper, honouring whiteouts/opaques.
            for tree in &self.lowers {
                for (path, node) in tree.walk() {
                    // Skip paths masked by whiteouts/opaque ancestors.
                    if self.lower_hidden(&path) {
                        continue;
                    }
                    let _ = out.insert(&path, node.clone());
                }
            }
            for path in &self.whiteouts {
                let _ = out.remove(path);
            }
            for (path, node) in self.upper.walk() {
                if node.is_dir() {
                    if self.opaques.contains(&path) {
                        let _ = out.remove(&path);
                    }
                    let _ = out.mkdir_p(&path);
                } else {
                    let _ = out.insert(&path, node.clone());
                }
            }
            out
        }
    }

    mod walk_matches_reference {
        use super::*;
        use proptest::prelude::*;

        /// Four names, so paths collide: files mask directories, directories
        /// merge, writes land on what a lower already holds.
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];

        fn any_name() -> impl Strategy<Value = &'static str> {
            (0..NAMES.len()).prop_map(|i| NAMES[i])
        }

        fn any_path() -> impl Strategy<Value = String> {
            proptest::collection::vec(any_name(), 1..4).prop_map(|names| names.join("/"))
        }

        /// A link target or a probe: names, `.`, `..` and empty components,
        /// now and then from the root.
        fn any_crooked_path() -> impl Strategy<Value = String> {
            let comp = prop_oneof![
                any_name(),
                any_name(),
                any_name(),
                Just("."),
                Just(".."),
                Just(""),
            ];
            (0..4u8, proptest::collection::vec(comp, 1..5)).prop_map(|(rooted, comps)| {
                format!("{}{}", if rooted == 0 { "/" } else { "" }, comps.join("/"))
            })
        }

        #[derive(Debug, Clone)]
        enum Entry {
            File(u8),
            Dir,
            Link(String),
        }

        fn any_lower() -> impl Strategy<Value = FsTree> {
            let entry = prop_oneof![
                any::<u8>().prop_map(Entry::File),
                any::<u8>().prop_map(Entry::File),
                Just(Entry::Dir),
                any_crooked_path().prop_map(Entry::Link),
            ];
            proptest::collection::vec((any_path(), entry), 0..10).prop_map(|entries| {
                let mut tree = FsTree::new();
                for (path, entry) in entries {
                    // A path through a file does not insert; the tree keeps
                    // what does.
                    let _ = match entry {
                        Entry::File(byte) => tree.create_file(&path, Bytes::from(vec![byte])),
                        Entry::Dir => tree.mkdir_p(&path),
                        Entry::Link(target) => {
                            tree.insert(&path, Node::symlink(Metadata::file_default(), target))
                        }
                    };
                }
                tree
            })
        }

        #[derive(Debug, Clone)]
        enum Op {
            Write(String, u8),
            MkdirP(String),
            Symlink(String, String),
            Unlink(String),
            Rename(String, String),
        }

        fn any_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (any_path(), any::<u8>()).prop_map(|(p, b)| Op::Write(p, b)),
                any_path().prop_map(Op::MkdirP),
                (any_path(), any_crooked_path()).prop_map(|(p, t)| Op::Symlink(p, t)),
                any_path().prop_map(Op::Unlink),
                any_path().prop_map(Op::Unlink),
                (any_path(), any_path()).prop_map(|(from, to)| Op::Rename(from, to)),
            ]
        }

        fn same_node(walked: Option<&Node>, reference: Option<&Node>) -> bool {
            match (walked, reference) {
                (Some(a), Some(b)) => std::ptr::eq(a, b),
                (None, None) => true,
                _ => false,
            }
        }

        fn check(mount: &UnionFs, probes: &[String]) -> Result<(), String> {
            let reference = Reference(mount);
            // Everything either side can name, and then the crooked probes.
            let mut paths: Vec<String> = mount.upper.walk().map(|(path, _)| path).collect();
            for tree in &mount.lowers {
                paths.extend(tree.walk().map(|(path, _)| path));
            }
            paths.extend(mount.whiteouts.iter().cloned());
            paths.extend(probes.iter().cloned());
            paths.push(String::new());
            for path in &paths {
                prop_assert!(same_node(mount.find(path), reference.find(path)), "find {:?}", path);
                let walk = mount.walk(path);
                // Hidden-ness is asked of paths the mount made itself. (An
                // empty component the old prefix string swallowed at its
                // front and kept elsewhere; the walk looks it up as a name.
                // Nothing is found through one either way.)
                if !path.split('/').any(str::is_empty) {
                    prop_assert_eq!(walk.hidden(), reference.lower_hidden(path), "{:?}", path);
                    prop_assert!(
                        same_node(walk.lower(), reference.find_lower(path)),
                        "find_lower {:?}",
                        path
                    );
                }
                for follow_final in [true, false] {
                    prop_assert_eq!(
                        mount.resolve(path, follow_final),
                        reference.resolve_uncached(path, follow_final),
                        "resolve {:?} follow_final={}",
                        path,
                        follow_final
                    );
                }
            }
            prop_assert_eq!(mount.flatten(), reference.flatten());
            Ok(())
        }

        proptest! {
            /// Over one to three lowers and any run of mutations, `Walk`
            /// finds the node, the lower node and the hidden-ness the old
            /// trio found, `resolve` lands where it landed, and `flatten` is
            /// the tree it was — checked before the first mutation and after
            /// every one.
            #[test]
            fn on_every_path_after_every_mutation(
                lowers in proptest::collection::vec(any_lower(), 1..4),
                ops in proptest::collection::vec(any_op(), 0..16),
                probes in proptest::collection::vec(any_crooked_path(), 12),
            ) {
                let mut mount = UnionFs::new(lowers.into_iter().map(Arc::new).collect());
                check(&mount, &probes)?;
                for op in ops {
                    let _ = match &op {
                        Op::Write(path, byte) => mount.write(path, Bytes::from(vec![*byte])),
                        Op::MkdirP(path) => mount.mkdir_p(path),
                        Op::Symlink(path, target) => mount.symlink(path, target.clone()),
                        Op::Unlink(path) => mount.unlink(path),
                        Op::Rename(from, to) => mount.rename(from, to, &NoFetch),
                    };
                    if let Err(why) = check(&mount, &probes) {
                        return Err(format!("after {op:?}: {why}"));
                    }
                }
            }
        }
    }
}
