//! A mutable directory tree with layer replay.

use std::collections::BTreeMap;

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, EntryKind, Metadata};

use crate::error::FsError;
use crate::node::{FileData, FileNode, Node};

/// Aggregate statistics over a tree (see [`FsTree::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of regular files.
    pub files: u64,
    /// Number of directories (excluding the root).
    pub dirs: u64,
    /// Number of symlinks.
    pub symlinks: u64,
    /// Total logical bytes of regular-file content.
    pub bytes: u64,
}

/// A mutable in-memory file-system tree rooted at `/`.
///
/// Paths are the rooted-relative [`ArchivePath`] strings used throughout the
/// workspace ("`etc/passwd`", never "`/etc/passwd`"). String-accepting
/// methods validate with [`ArchivePath::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsTree {
    root: Node,
}

impl Default for FsTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FsTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        FsTree { root: Node::empty_dir(Metadata::dir_default()) }
    }

    /// Wraps an already-built node hierarchy as a tree — how a decoder hands
    /// over nodes it assembled itself. Every entry name is checked as
    /// untrusted input, so the tree holds only names a path lookup can reach.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if `root` is not a directory;
    /// [`FsError::InvalidPath`] for an entry name that is empty, `.`, `..`,
    /// or contains `/` or NUL.
    pub fn from_root(root: Node) -> Result<Self, FsError> {
        fn check_names(node: &Node) -> Result<(), FsError> {
            let Node::Dir { children, .. } = node else {
                return Ok(());
            };
            for (name, child) in children {
                if matches!(name.as_str(), "" | "." | "..") || name.contains(['/', '\0']) {
                    return Err(FsError::InvalidPath(format!("entry name {name:?}")));
                }
                check_names(child)?;
            }
            Ok(())
        }
        if !root.is_dir() {
            return Err(FsError::NotADirectory("/".to_owned()));
        }
        check_names(&root)?;
        Ok(FsTree { root })
    }

    /// Wraps a directory node whose names came from another tree.
    pub(crate) fn wrap(root: Node) -> Self {
        FsTree { root }
    }

    /// The root directory node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Looks up the node at `path` without following symlinks.
    pub fn get(&self, path: &str) -> Option<&Node> {
        let mut node = &self.root;
        if path.is_empty() {
            return Some(node);
        }
        for comp in path.split('/') {
            match node {
                Node::Dir { children, .. } => node = children.get(comp)?,
                _ => return None,
            }
        }
        Some(node)
    }

    /// Mutable lookup without following symlinks.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Node> {
        let mut node = &mut self.root;
        if path.is_empty() {
            return Some(node);
        }
        for comp in path.split('/') {
            match node {
                Node::Dir { children, .. } => node = children.get_mut(comp)?,
                _ => return None,
            }
        }
        Some(node)
    }

    /// Whether an entry exists at `path`.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Creates directory `path` and any missing ancestors.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if a non-directory blocks the path;
    /// [`FsError::InvalidPath`] for malformed paths.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        self.in_dir(valid.as_str(), |_, _| ())
    }

    /// Runs `f` on the metadata and children of the directory at `dir` (a
    /// valid path, or `""` for the root), made along with any missing
    /// ancestor — see [`descend`].
    fn in_dir<R>(
        &mut self,
        dir: &str,
        f: impl FnOnce(&mut Metadata, &mut BTreeMap<String, Node>) -> R,
    ) -> Result<R, FsError> {
        descend(&mut self.root, dir, 0, f)
    }

    /// Puts `node` at the valid path `path`, replacing what is there and
    /// making any missing ancestor. A name already present is not allocated
    /// again.
    fn put(&mut self, path: &str, node: Node) -> Result<(), FsError> {
        let (parent, name) = split_last(path);
        self.in_dir(parent, |_, children| match children.get_mut(name) {
            Some(slot) => *slot = node,
            None => {
                children.insert(name.to_owned(), node);
            }
        })
    }

    /// Inserts `node` at `path`, creating missing parent directories and
    /// replacing any existing entry at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if a non-directory blocks an ancestor;
    /// [`FsError::InvalidPath`] for malformed paths.
    pub fn insert(&mut self, path: &str, node: Node) -> Result<(), FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        self.put(valid.as_str(), node)
    }

    /// Convenience: inserts an inline regular file with default metadata.
    ///
    /// # Errors
    ///
    /// Same as [`FsTree::insert`].
    pub fn create_file(&mut self, path: &str, content: Bytes) -> Result<(), FsError> {
        self.insert(path, Node::inline_file(Metadata::file_default(), content))
    }

    /// Removes and returns the node at `path` (recursively for directories).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if nothing exists at `path`.
    pub fn remove(&mut self, path: &str) -> Result<Node, FsError> {
        let valid = ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
        self.take(valid.as_str()).ok_or_else(|| FsError::NotFound(path.to_owned()))
    }

    /// Removes and returns the node at the valid path `path`, if any.
    fn take(&mut self, path: &str) -> Option<Node> {
        let (parent, name) = split_last(path);
        match self.get_mut(parent)? {
            Node::Dir { children, .. } => children.remove(name),
            _ => None,
        }
    }

    /// Child names of the directory at `path` (empty string = root).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`].
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let node = self.get(path).ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        match node {
            Node::Dir { children, .. } => Ok(children.keys().cloned().collect()),
            _ => Err(FsError::NotADirectory(path.to_owned())),
        }
    }

    /// Depth-first pre-order walk of all nodes (excluding the root), yielding
    /// `(path, node)` pairs in sorted order.
    pub fn walk(&self) -> Walk<'_> {
        let mut stack = Vec::new();
        if let Node::Dir { children, .. } = &self.root {
            // Reverse so the BTreeMap's smallest key pops first.
            for (name, node) in children.iter().rev() {
                stack.push((name.clone(), node));
            }
        }
        Walk { stack }
    }

    /// Aggregate counts and sizes.
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats::default();
        for (_, node) in self.walk() {
            match node {
                Node::Dir { .. } => s.dirs += 1,
                Node::File(f) => {
                    s.files += 1;
                    s.bytes += f.data.size();
                }
                Node::Symlink(_) => s.symlinks += 1,
            }
        }
        s
    }

    /// Replays a layer diff onto this tree, following OCI whiteout semantics:
    /// whiteouts delete lower entries, opaque dirs clear the directory before
    /// applying, files/dirs/symlinks replace existing entries, hardlinks
    /// duplicate the target's current node.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for a hardlink whose target does not exist;
    /// [`FsError::NotADirectory`] / [`FsError::InvalidPath`] as per
    /// [`FsTree::insert`]. Whiteouts of missing paths are silently ignored
    /// (matching tar extraction behaviour).
    pub fn apply_layer(&mut self, layer: &Archive) -> Result<(), FsError> {
        for entry in layer {
            self.apply_entry(entry)?;
        }
        Ok(())
    }

    /// One entry, its path already valid: no path is validated or built
    /// again, and a directory that exists costs no allocation.
    fn apply_entry(&mut self, entry: &Entry) -> Result<(), FsError> {
        let path = entry.path.as_str();
        match &entry.kind {
            // Preserve children if the directory already exists.
            EntryKind::Dir { meta } => self.in_dir(path, |m, _| *m = *meta),
            // Whatever was there, everything below it included, is replaced.
            EntryKind::OpaqueDir { meta } => self.put(path, Node::empty_dir(*meta)),
            EntryKind::File { meta, content } => self.put(
                path,
                Node::File(FileNode { meta: *meta, data: FileData::Inline(content.clone()) }),
            ),
            EntryKind::Symlink { meta, target } => {
                self.put(path, Node::symlink(*meta, target.clone()))
            }
            EntryKind::Hardlink { target } => {
                let node = self
                    .get(target.as_str())
                    .ok_or_else(|| FsError::NotFound(target.as_str().to_owned()))?
                    .clone();
                self.put(path, node)
            }
            EntryKind::Whiteout => {
                self.take(path);
                Ok(())
            }
        }
    }

    /// Serializes the whole tree as a single layer archive (parents first).
    /// This is how a flattened root file system is turned back into a layer.
    pub fn to_layer(&self) -> Archive {
        let mut archive = Archive::new();
        for (path, node) in self.walk() {
            // Names are checked on the way in (`insert`, `from_root`); an
            // entry no path reaches has no archive form.
            let Ok(apath) = ArchivePath::new(&path) else { continue };
            match node {
                Node::Dir { meta, .. } => archive.push(Entry::dir(apath, *meta)),
                Node::File(f) => {
                    let content = match &f.data {
                        FileData::Inline(b) => b.clone(),
                        // Placeholder bodies serialize as their textual
                        // fingerprint — exactly the Gear index "fingerprint
                        // file" representation.
                        FileData::Fingerprint { fingerprint, .. } => {
                            Bytes::from(fingerprint.to_string())
                        }
                        FileData::Chunked { chunks, .. } => {
                            let listing: String =
                                chunks.iter().map(|c| format!("{}\n", c.fingerprint)).collect();
                            Bytes::from(listing)
                        }
                    };
                    archive.push(Entry::file(apath, f.meta, content));
                }
                Node::Symlink(s) => archive.push(Entry::symlink(apath, s.meta, s.target.clone())),
            }
        }
        archive
    }
}

/// A valid path's parent (`""` at the top level) and final name.
fn split_last(path: &str) -> (&str, &str) {
    path.rsplit_once('/').unwrap_or(("", path))
}

/// Runs `f` on the metadata and children of the directory at `dir` below
/// `node`, whose own name is the first `walked` bytes of `dir`. A directory
/// missing on the way is made with default metadata. Each name is looked up
/// once and allocated only when it has to be added; the error's path — the
/// prefix of `dir` through the name that could not be entered, or all of
/// `dir` when its last node is no directory — is built only on failure.
fn descend<R>(
    node: &mut Node,
    dir: &str,
    walked: usize,
    f: impl FnOnce(&mut Metadata, &mut BTreeMap<String, Node>) -> R,
) -> Result<R, FsError> {
    // The next name is `dir[start..end]`, empty once `dir` is walked.
    let start = if walked == 0 { 0 } else { (walked + 1).min(dir.len()) };
    let end = dir[start..].find('/').map_or(dir.len(), |at| start + at);
    let Node::Dir { meta, children } = node else {
        return Err(FsError::NotADirectory(dir[..end].to_owned()));
    };
    let name = &dir[start..end];
    if name.is_empty() {
        return Ok(f(meta, children));
    }
    let child = match children.get_mut(name) {
        Some(child) => child,
        None => children
            .entry(name.to_owned())
            .or_insert_with(|| Node::empty_dir(Metadata::dir_default())),
    };
    descend(child, dir, end, f)
}

/// Iterator returned by [`FsTree::walk`].
#[derive(Debug)]
pub struct Walk<'a> {
    stack: Vec<(String, &'a Node)>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = (String, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let (path, node) = self.stack.pop()?;
        if let Node::Dir { children, .. } = node {
            for (name, child) in children.iter().rev() {
                self.stack.push((format!("{path}/{name}"), child));
            }
        }
        Some((path, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_archive::Entry;

    fn ap(s: &str) -> ArchivePath {
        ArchivePath::new(s).unwrap()
    }

    #[test]
    fn mkdir_p_and_lookup() {
        let mut t = FsTree::new();
        t.mkdir_p("a/b/c").unwrap();
        assert!(t.get("a/b/c").unwrap().is_dir());
        assert!(t.get("a/b").unwrap().is_dir());
        assert!(t.get("a/b/c/d").is_none());
        assert!(t.get("").unwrap().is_dir());
    }

    #[test]
    fn from_root_checks_every_entry_name() {
        let mut t = FsTree::new();
        t.create_file("a/b/f", Bytes::from_static(b"x")).unwrap();
        assert_eq!(FsTree::from_root(t.root().clone()).unwrap(), t);

        let file = || Node::inline_file(Metadata::file_default(), Bytes::new());
        assert!(matches!(FsTree::from_root(file()), Err(FsError::NotADirectory(_))));
        for bad in ["", ".", "..", "x/y", "nul\0"] {
            // Nested, so the check is shown to recurse.
            let inner = Node::Dir {
                meta: Metadata::dir_default(),
                children: [(bad.to_owned(), file())].into(),
            };
            let root = Node::Dir {
                meta: Metadata::dir_default(),
                children: [("ok".to_owned(), inner)].into(),
            };
            assert!(matches!(FsTree::from_root(root), Err(FsError::InvalidPath(_))), "{bad:?}");
        }
    }

    #[test]
    fn mkdir_through_file_fails() {
        let mut t = FsTree::new();
        t.create_file("a", Bytes::from_static(b"x")).unwrap();
        assert!(matches!(t.mkdir_p("a/b"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn insert_replaces() {
        let mut t = FsTree::new();
        t.create_file("f", Bytes::from_static(b"one")).unwrap();
        t.create_file("f", Bytes::from_static(b"two")).unwrap();
        match t.get("f").unwrap() {
            Node::File(f) => assert_eq!(f.data.size(), 3),
            _ => panic!("expected file"),
        }
        assert_eq!(t.stats().files, 1);
    }

    #[test]
    fn remove_missing_errors() {
        let mut t = FsTree::new();
        assert!(matches!(t.remove("nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn walk_is_sorted_dfs() {
        let mut t = FsTree::new();
        t.create_file("b/two", Bytes::new()).unwrap();
        t.create_file("a/one", Bytes::new()).unwrap();
        t.create_file("a/two", Bytes::new()).unwrap();
        let paths: Vec<_> = t.walk().map(|(p, _)| p).collect();
        assert_eq!(paths, ["a", "a/one", "a/two", "b", "b/two"]);
    }

    #[test]
    fn stats_counts() {
        let mut t = FsTree::new();
        t.create_file("d/f1", Bytes::from_static(b"1234")).unwrap();
        t.insert("d/link", Node::symlink(Metadata::file_default(), "f1")).unwrap();
        let s = t.stats();
        assert_eq!(s, TreeStats { files: 1, dirs: 1, symlinks: 1, bytes: 4 });
    }

    #[test]
    fn apply_layer_whiteout_and_opaque() {
        let mut t = FsTree::new();
        t.create_file("etc/a.conf", Bytes::from_static(b"a")).unwrap();
        t.create_file("etc/b.conf", Bytes::from_static(b"b")).unwrap();
        t.create_file("var/cache/x", Bytes::from_static(b"x")).unwrap();

        let mut layer = Archive::new();
        layer.push(Entry::whiteout(ap("etc/a.conf")));
        layer.push(Entry::opaque_dir(ap("var/cache"), Metadata::dir_default()));
        layer.push(Entry::file(ap("etc/c.conf"), Metadata::file_default(), Bytes::from_static(b"c")));
        t.apply_layer(&layer).unwrap();

        assert!(t.get("etc/a.conf").is_none());
        assert!(t.get("etc/b.conf").is_some());
        assert!(t.get("etc/c.conf").is_some());
        assert!(t.get("var/cache").unwrap().is_dir());
        assert!(t.get("var/cache/x").is_none());
    }

    #[test]
    fn apply_layer_dir_preserves_children() {
        let mut t = FsTree::new();
        t.create_file("usr/bin/sh", Bytes::from_static(b"#!")).unwrap();
        let mut layer = Archive::new();
        layer.push(Entry::dir(ap("usr/bin"), Metadata { mode: 0o700, uid: 1, gid: 1, mtime: 9 }));
        t.apply_layer(&layer).unwrap();
        assert!(t.get("usr/bin/sh").is_some(), "re-applying a dir entry must not drop children");
        assert_eq!(t.get("usr/bin").unwrap().meta().mode, 0o700);
    }

    #[test]
    fn apply_layer_hardlink() {
        let mut t = FsTree::new();
        t.create_file("data", Bytes::from_static(b"shared")).unwrap();
        let mut layer = Archive::new();
        layer.push(Entry::hardlink(ap("alias"), ap("data")));
        t.apply_layer(&layer).unwrap();
        assert_eq!(t.get("alias").unwrap().size(), 6);

        let mut bad = Archive::new();
        bad.push(Entry::hardlink(ap("broken"), ap("missing")));
        assert!(matches!(t.apply_layer(&bad), Err(FsError::NotFound(_))));
    }

    #[test]
    fn to_layer_roundtrips_through_apply() {
        let mut t = FsTree::new();
        t.create_file("a/f", Bytes::from_static(b"data")).unwrap();
        t.insert("a/s", Node::symlink(Metadata::file_default(), "/a/f")).unwrap();
        t.mkdir_p("empty").unwrap();
        let layer = t.to_layer();
        let mut rebuilt = FsTree::new();
        rebuilt.apply_layer(&layer).unwrap();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn errors_name_the_prefix_that_could_not_be_entered() {
        let mut t = FsTree::new();
        t.create_file("a/f", Bytes::from_static(b"x")).unwrap();
        let blocked = |r: Result<(), FsError>| match r {
            Err(FsError::NotADirectory(p)) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(blocked(t.mkdir_p("a/f")), "a/f");
        assert_eq!(blocked(t.mkdir_p("a/f/g/h")), "a/f/g");
        assert_eq!(blocked(t.create_file("a/f/g", Bytes::new())), "a/f");
        assert_eq!(blocked(t.create_file("a/f/g/h", Bytes::new())), "a/f/g");
    }

    // ---- the replay against what it replaced -----------------------------

    mod replay_matches_reference {
        use super::*;
        use proptest::prelude::*;

        /// `apply_layer` as it stood before [`descend`], word for word: each
        /// entry through the string-taking `insert`, `mkdir_p` and `remove`,
        /// its path validated again and every ancestor entered by an owned
        /// name. Lookups go through the unchanged `get` and `get_mut`.
        struct Reference<'a>(&'a mut FsTree);

        impl Reference<'_> {
            fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
                let valid =
                    ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
                self.dir_mut(Some(&valid)).map(|_| ())
            }

            fn dir_mut(
                &mut self,
                path: Option<&ArchivePath>,
            ) -> Result<&mut BTreeMap<String, Node>, FsError> {
                let mut node = &mut self.0.root;
                let mut walked = String::new();
                for comp in path.into_iter().flat_map(ArchivePath::components) {
                    if !walked.is_empty() {
                        walked.push('/');
                    }
                    walked.push_str(comp);
                    let Node::Dir { children, .. } = node else {
                        return Err(FsError::NotADirectory(walked));
                    };
                    node = children
                        .entry(comp.to_owned())
                        .or_insert_with(|| Node::empty_dir(Metadata::dir_default()));
                }
                match node {
                    Node::Dir { children, .. } => Ok(children),
                    _ => Err(FsError::NotADirectory(walked)),
                }
            }

            fn insert(&mut self, path: &str, node: Node) -> Result<(), FsError> {
                let valid =
                    ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
                let children = self.dir_mut(valid.parent().as_ref())?;
                children.insert(valid.file_name().to_owned(), node);
                Ok(())
            }

            fn remove(&mut self, path: &str) -> Result<Node, FsError> {
                let valid =
                    ArchivePath::new(path).map_err(|e| FsError::InvalidPath(e.to_string()))?;
                let parent_path =
                    valid.parent().map(|p| p.as_str().to_owned()).unwrap_or_default();
                let parent = self
                    .0
                    .get_mut(&parent_path)
                    .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
                let Node::Dir { children, .. } = parent else {
                    return Err(FsError::NotFound(path.to_owned()));
                };
                children
                    .remove(valid.file_name())
                    .ok_or_else(|| FsError::NotFound(path.to_owned()))
            }

            fn apply_layer(&mut self, layer: &Archive) -> Result<(), FsError> {
                for entry in layer {
                    self.apply_entry(entry)?;
                }
                Ok(())
            }

            fn apply_entry(&mut self, entry: &Entry) -> Result<(), FsError> {
                let path = entry.path.as_str();
                match &entry.kind {
                    EntryKind::Dir { meta } => {
                        self.mkdir_p(path)?;
                        if let Some(Node::Dir { meta: m, .. }) = self.0.get_mut(path) {
                            *m = *meta;
                        }
                        Ok(())
                    }
                    EntryKind::OpaqueDir { meta } => {
                        let _ = self.remove(path);
                        self.insert(path, Node::empty_dir(*meta))
                    }
                    EntryKind::File { meta, content } => self.insert(
                        path,
                        Node::File(FileNode {
                            meta: *meta,
                            data: FileData::Inline(content.clone()),
                        }),
                    ),
                    EntryKind::Symlink { meta, target } => {
                        self.insert(path, Node::symlink(*meta, target.clone()))
                    }
                    EntryKind::Hardlink { target } => {
                        let node = self
                            .0
                            .get(target.as_str())
                            .ok_or_else(|| FsError::NotFound(target.as_str().to_owned()))?
                            .clone();
                        self.insert(path, node)
                    }
                    EntryKind::Whiteout => {
                        let _ = self.remove(path);
                        Ok(())
                    }
                }
            }
        }

        /// Three names, so paths collide: entries land on what is there,
        /// go through files, and link to what a whiteout took away.
        fn any_path() -> impl Strategy<Value = ArchivePath> {
            proptest::collection::vec(0..3usize, 1..5).prop_map(|names| {
                let names: Vec<&str> = names.into_iter().map(|i| ["a", "b", "c"][i]).collect();
                ArchivePath::new(names.join("/")).unwrap()
            })
        }

        fn any_meta() -> impl Strategy<Value = Metadata> {
            (0..3u32).prop_map(|m| Metadata { mode: 0o700 + m, uid: m, gid: 0, mtime: 0 })
        }

        fn any_entry() -> impl Strategy<Value = Entry> {
            prop_oneof![
                (any_path(), any_meta()).prop_map(|(p, m)| Entry::dir(p, m)),
                (any_path(), any_meta(), any::<u8>())
                    .prop_map(|(p, m, b)| Entry::file(p, m, Bytes::from(vec![b]))),
                (any_path(), any_meta(), any_path())
                    .prop_map(|(p, m, t)| Entry::symlink(p, m, t.as_str())),
                (any_path(), any_path()).prop_map(|(p, t)| Entry::hardlink(p, t)),
                any_path().prop_map(Entry::whiteout),
                (any_path(), any_meta()).prop_map(|(p, m)| Entry::opaque_dir(p, m)),
            ]
        }

        fn any_layer() -> impl Strategy<Value = Archive> {
            proptest::collection::vec(any_entry(), 0..14).prop_map(Archive::from_iter)
        }

        proptest! {
            /// Over any stack of layers — dirs, files, symlinks, hardlinks
            /// (to missing targets too), whiteouts and opaque dirs, paths
            /// through files — `apply_layer` leaves the tree the old replay
            /// left and fails, where it fails, with the same error, message
            /// included. Checked after every layer, a failed one too.
            #[test]
            fn after_every_layer(layers in proptest::collection::vec(any_layer(), 1..4)) {
                let mut tree = FsTree::new();
                let mut reference = FsTree::new();
                for layer in &layers {
                    let got = tree.apply_layer(layer);
                    let want = Reference(&mut reference).apply_layer(layer);
                    prop_assert_eq!(
                        got.as_ref().map_err(ToString::to_string),
                        want.as_ref().map_err(ToString::to_string)
                    );
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(&tree, &reference);
                }
            }
        }
    }
}
