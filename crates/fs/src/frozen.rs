//! A read-only tree laid out flat: the form an installed index takes.
//!
//! [`FrozenTree`] holds what an [`FsTree`] holds in a few buffers instead of
//! one allocation per node: fixed-width node records, one string of names and
//! symlink targets, the distinct metadata values, the chunk lists of big
//! files and any inline bodies. Each directory's children are one contiguous
//! run of records sorted by name, so a lookup is a binary search in a run and
//! a node is named by its id. A [`UnionFs`](crate::UnionFs) walks its lower
//! layers in this form, and a decoder fills one through a [`TreeBuilder`].
//!
//! The layout is canonical — a function of the tree alone, not of how it was
//! built — so two tables are equal exactly when their trees are:
//!
//! * record 0 is the root;
//! * nodes are *finished* in a depth-first walk that takes children in name
//!   order, each directory after its children;
//! * a directory's children run is placed when the directory is finished, so
//!   the runs of deeper directories come first;
//! * as each node is finished its name, then its symlink target, goes on the
//!   text, its chunks on the chunk list, its inline body on the body list,
//!   and its metadata on the metadata list unless one of the first
//!   [`META_SCAN`] entries already holds that value.

use std::fmt;

use bytes::Bytes;
use gear_archive::Metadata;
use gear_hash::Fingerprint;

use crate::error::FsError;
use crate::node::{ChunkRef, FileData, FileNode, Node, SymlinkNode};
use crate::tree::FsTree;

/// How many stored metadata values a new one is compared against before it
/// is stored again. An image carries a handful (the corpus three), and the
/// bound keeps a build linear whatever a document holds.
const META_SCAN: usize = 8;

/// A byte range of [`FrozenTree::text`] or of [`FrozenTree::chunks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

/// A `u64` kept as two halves, so that a record packs at 4-byte alignment:
/// 40 bytes rather than 48.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Size([u32; 2]);

impl Size {
    fn new(n: u64) -> Self {
        Size([n as u32, (n >> 32) as u32])
    }

    fn get(self) -> u64 {
        u64::from(self.0[0]) | (u64::from(self.0[1]) << 32)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// Children are records `first..first + len`.
    Dir {
        first: u32,
        len: u32,
    },
    File {
        fingerprint: Fingerprint,
        size: Size,
    },
    Chunked {
        chunks: Span,
        size: Size,
    },
    /// Index into [`FrozenTree::bodies`].
    Inline(u32),
    /// The link target in [`FrozenTree::text`].
    Symlink(Span),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    name: Span,
    /// Index into [`FrozenTree::metas`].
    meta: u32,
    body: Body,
}

/// Record 0 until the root is known.
const PLACEHOLDER: Record =
    Record { name: Span { start: 0, len: 0 }, meta: 0, body: Body::Dir { first: 0, len: 0 } };

/// `n` as a table offset. Offsets are `u32`: a decoder's tables are bounded
/// by its document, which [`TreeBuilder::finish`]'s caller keeps below 4 GiB,
/// and no in-memory [`FsTree`] comes near 2^32 nodes or bytes of names.
fn offset(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A read-only directory tree in flat, canonical form (see the module docs).
///
/// Built from an [`FsTree`] with [`FrozenTree::from_tree`], or node by node
/// with a [`TreeBuilder`]; read through [`NodeRef`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenTree {
    records: Vec<Record>,
    text: String,
    metas: Vec<Metadata>,
    chunks: Vec<ChunkRef>,
    bodies: Vec<Bytes>,
}

impl FrozenTree {
    /// Lays `tree` out flat. Every buffer is sized by one walk first, so the
    /// table costs one allocation per non-empty buffer.
    pub fn from_tree(tree: &FsTree) -> Self {
        let mut sizes = Sizes::default();
        sizes.open = sizes.add(tree.root(), 0);
        let mut builder = TreeBuilder::sized(&sizes);
        builder.push_node("", tree.root());
        builder.build()
    }

    /// The same tree as an [`FsTree`].
    pub fn to_tree(&self) -> FsTree {
        FsTree::wrap(self.root().to_node())
    }

    /// The root directory.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { tree: self, id: 0 }
    }

    /// The node with id `id`, if the table has one.
    pub(crate) fn node(&self, id: u32) -> Option<NodeRef<'_>> {
        (usize::try_from(id).ok()? < self.records.len()).then_some(NodeRef { tree: self, id })
    }

    /// Number of nodes, the root included.
    pub(crate) fn node_count(&self) -> usize {
        self.records.len()
    }

    /// Looks up the node at `path` without following symlinks, as
    /// [`FsTree::get`] does: `""` is the root.
    pub fn get(&self, path: &str) -> Option<NodeRef<'_>> {
        let mut node = self.root();
        if path.is_empty() {
            return Some(node);
        }
        for comp in path.split('/') {
            node = node.child(comp)?;
        }
        Some(node)
    }

    /// Calls `f` on every node below the root, depth first, parents before
    /// their children and children in name order — [`FsTree::walk`]'s order,
    /// without a path built per node.
    pub fn visit<'a>(&'a self, mut f: impl FnMut(NodeRef<'a>)) {
        fn below<'a>(node: NodeRef<'a>, f: &mut impl FnMut(NodeRef<'a>)) {
            for child in node.children() {
                f(child);
                below(child, f);
            }
        }
        below(self.root(), &mut f);
    }

    /// Depth-first pre-order walk of every node below the root with its
    /// path, in [`FsTree::walk`]'s order.
    pub fn walk(&self) -> Walk<'_> {
        let stack = self.root().children().rev().map(|n| (n.name().to_owned(), n)).collect();
        Walk { stack }
    }

    fn text(&self, span: Span) -> &str {
        let start = span.start as usize;
        self.text.get(start..start + span.len as usize).unwrap_or_default()
    }

    fn record(&self, id: u32) -> &Record {
        self.records.get(id as usize).unwrap_or(&PLACEHOLDER)
    }

    /// The same tree re-laid out canonically; for a builder whose nodes did
    /// not all come in canonical order.
    fn relayout(&self) -> FrozenTree {
        let sizes = Sizes {
            records: self.records.len(),
            text: self.text.len(),
            chunks: self.chunks.len(),
            bodies: self.bodies.len(),
            open: self.records.len(),
        };
        let mut builder = TreeBuilder::sized(&sizes);
        builder.copy(self.root(), "");
        builder.build()
    }
}

/// Iterator returned by [`FrozenTree::walk`].
#[derive(Debug)]
pub struct Walk<'a> {
    stack: Vec<(String, NodeRef<'a>)>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = (String, NodeRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let (path, node) = self.stack.pop()?;
        for child in node.children().rev() {
            self.stack.push((format!("{path}/{}", child.name()), child));
        }
        Some((path, node))
    }
}

/// One node of a [`FrozenTree`]: the table and a node id, copied freely.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a FrozenTree,
    id: u32,
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef").field("id", &self.id).field("name", &self.name()).finish()
    }
}

impl<'a> NodeRef<'a> {
    fn record(&self) -> &'a Record {
        self.tree.record(self.id)
    }

    /// The node's id in its table (the root is 0).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The table the node belongs to.
    #[cfg(test)]
    pub(crate) fn tree(&self) -> &'a FrozenTree {
        self.tree
    }

    /// The node's name in its directory (`""` for the root).
    pub fn name(&self) -> &'a str {
        self.tree.text(self.record().name)
    }

    /// The node's metadata.
    pub fn meta(&self) -> Metadata {
        let at = self.record().meta as usize;
        self.tree.metas.get(at).copied().unwrap_or_else(Metadata::dir_default)
    }

    /// Whether this node is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self.record().body, Body::Dir { .. })
    }

    /// Whether this node is a regular file.
    pub fn is_file(&self) -> bool {
        matches!(self.record().body, Body::File { .. } | Body::Chunked { .. } | Body::Inline(_))
    }

    /// Whether this node is a symlink.
    pub fn is_symlink(&self) -> bool {
        matches!(self.record().body, Body::Symlink(_))
    }

    /// A directory's children in name order; nothing for any other node.
    pub fn children(
        &self,
    ) -> impl DoubleEndedIterator<Item = NodeRef<'a>> + ExactSizeIterator + 'a {
        let tree = self.tree;
        let ids = match self.record().body {
            Body::Dir { first, len } => first..first.saturating_add(len),
            _ => 0..0,
        };
        ids.map(move |id| NodeRef { tree, id })
    }

    /// The child named `name`: one binary search in the children run.
    pub fn child(&self, name: &str) -> Option<NodeRef<'a>> {
        let Body::Dir { first, len } = self.record().body else { return None };
        let start = first as usize;
        let run = self.tree.records.get(start..start + len as usize)?;
        let at = run.binary_search_by(|r| self.tree.text(r.name).cmp(name)).ok()?;
        Some(NodeRef { tree: self.tree, id: first + offset(at) })
    }

    /// A symlink's target.
    pub fn target(&self) -> Option<&'a str> {
        match self.record().body {
            Body::Symlink(span) => Some(self.tree.text(span)),
            _ => None,
        }
    }

    /// A regular file's body.
    pub fn data(&self) -> Option<DataRef<'a>> {
        let tree = self.tree;
        match self.record().body {
            Body::File { fingerprint, size } => {
                Some(DataRef::Fingerprint { fingerprint, size: size.get() })
            }
            Body::Chunked { chunks, size } => {
                let start = chunks.start as usize;
                let chunks = tree.chunks.get(start..start + chunks.len as usize).unwrap_or(&[]);
                Some(DataRef::Chunked { chunks, size: size.get() })
            }
            Body::Inline(at) => tree.bodies.get(at as usize).map(DataRef::Inline),
            Body::Dir { .. } | Body::Symlink(_) => None,
        }
    }

    /// Logical content size: file size for files, 0 otherwise.
    pub fn size(&self) -> u64 {
        self.data().map_or(0, |data| data.size())
    }

    /// The node, and everything below it, as an owned [`Node`].
    pub fn to_node(&self) -> Node {
        let meta = self.meta();
        if let Some(target) = self.target() {
            return Node::Symlink(SymlinkNode { meta, target: target.to_owned() });
        }
        match self.data() {
            Some(data) => Node::File(FileNode { meta, data: data.to_data() }),
            None => Node::Dir {
                meta,
                children: self.children().map(|c| (c.name().to_owned(), c.to_node())).collect(),
            },
        }
    }
}

/// A regular file's body, borrowed: from a [`FrozenTree`] or from a
/// [`FileData`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRef<'a> {
    /// Content held inline.
    Inline(&'a Bytes),
    /// A fingerprint placeholder.
    Fingerprint {
        /// Content fingerprint.
        fingerprint: Fingerprint,
        /// Content length in bytes.
        size: u64,
    },
    /// A big file's chunk list.
    Chunked {
        /// Ordered chunk list.
        chunks: &'a [ChunkRef],
        /// Total length in bytes.
        size: u64,
    },
}

impl DataRef<'_> {
    /// Logical file size in bytes.
    pub fn size(&self) -> u64 {
        match self {
            DataRef::Inline(b) => b.len() as u64,
            DataRef::Fingerprint { size, .. } | DataRef::Chunked { size, .. } => *size,
        }
    }

    /// An owned copy.
    pub(crate) fn to_data(self) -> FileData {
        match self {
            DataRef::Inline(b) => FileData::Inline(b.clone()),
            DataRef::Fingerprint { fingerprint, size } => {
                FileData::Fingerprint { fingerprint, size }
            }
            DataRef::Chunked { chunks, size } => {
                FileData::Chunked { chunks: chunks.to_vec(), size }
            }
        }
    }
}

impl<'a> From<&'a FileData> for DataRef<'a> {
    fn from(data: &'a FileData) -> Self {
        match data {
            FileData::Inline(b) => DataRef::Inline(b),
            FileData::Fingerprint { fingerprint, size } => {
                DataRef::Fingerprint { fingerprint: *fingerprint, size: *size }
            }
            FileData::Chunked { chunks, size } => DataRef::Chunked { chunks, size: *size },
        }
    }
}

/// Buffer sizes for a [`TreeBuilder`].
#[derive(Debug, Default)]
struct Sizes {
    records: usize,
    text: usize,
    chunks: usize,
    bodies: usize,
    /// Most nodes the builder holds unplaced at once.
    open: usize,
}

impl Sizes {
    /// Adds `node`, named with `name_len` bytes, and what is below it;
    /// returns the most unplaced nodes its build holds at once.
    fn add(&mut self, node: &Node, name_len: usize) -> usize {
        self.records += 1;
        self.text += name_len;
        match node {
            Node::Dir { children, .. } => {
                let mut peak = children.len().max(1);
                for (nth, (name, child)) in children.iter().enumerate() {
                    peak = peak.max(nth + self.add(child, name.len()));
                }
                peak
            }
            Node::File(FileNode { data, .. }) => {
                match data {
                    FileData::Inline(_) => self.bodies += 1,
                    FileData::Chunked { chunks, .. } => self.chunks += chunks.len(),
                    FileData::Fingerprint { .. } => {}
                }
                1
            }
            Node::Symlink(link) => {
                self.text += link.target.len();
                1
            }
        }
    }
}

/// Where a directory's children begin among the nodes pushed so far; see
/// [`TreeBuilder::dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirStart(usize);

/// A big file's chunk list among the chunks pushed so far; see
/// [`TreeBuilder::begin_chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRun {
    start: usize,
    end: usize,
}

/// Builds a [`FrozenTree`] node by node, each directory after its children —
/// the order a depth-first decoder finishes them in.
///
/// A directory's children are the nodes pushed since its [`DirStart`]; the
/// last node pushed at the top level is the root. Children may come in any
/// order and a name more than once (the last one wins), and pushed nodes may
/// be dropped again ([`TreeBuilder::discard`]); the finished table is
/// canonical all the same, laid out again once at the end when anything came
/// out of canonical order.
#[derive(Debug)]
pub struct TreeBuilder {
    tree: FrozenTree,
    /// Finished nodes not yet placed: the children of directories still open.
    open: Vec<Record>,
    /// Chunks taken by big files so far, as a prefix of the chunk list.
    chunks_used: usize,
    /// Every node so far sits where the canonical layout puts it.
    canonical: bool,
}

impl TreeBuilder {
    /// A builder with room for `nodes` nodes and `text` bytes of names and
    /// symlink targets.
    pub fn with_capacity(nodes: usize, text: usize) -> Self {
        Self::sized(&Sizes { records: nodes, text, chunks: 0, bodies: 0, open: 64 })
    }

    fn sized(sizes: &Sizes) -> Self {
        let mut records = Vec::with_capacity(sizes.records.max(1));
        records.push(PLACEHOLDER);
        TreeBuilder {
            tree: FrozenTree {
                records,
                text: String::with_capacity(sizes.text),
                metas: Vec::new(),
                chunks: Vec::with_capacity(sizes.chunks),
                bodies: Vec::with_capacity(sizes.bodies),
            },
            open: Vec::with_capacity(sizes.open),
            chunks_used: 0,
            canonical: true,
        }
    }

    /// Marks where the children of a directory about to be read begin.
    pub fn dir_start(&self) -> DirStart {
        DirStart(self.open.len())
    }

    /// Drops the nodes pushed since `start` — children read for a node that
    /// turns out not to be a directory, or read again.
    pub fn discard(&mut self, start: DirStart) {
        if self.open.len() > start.0 {
            self.open.truncate(start.0);
            self.canonical = false;
        }
    }

    /// Finishes a directory whose children are the nodes pushed since
    /// `start`.
    pub fn dir(&mut self, start: DirStart, name: &str, meta: Metadata) {
        let from = start.0.min(self.open.len());
        self.sort_run(from);
        let first = self.tree.records.len();
        self.tree.records.extend(self.open.drain(from..));
        let len = self.tree.records.len() - first;
        self.push(name, meta, Body::Dir { first: offset(first), len: offset(len) });
    }

    /// Finishes a fingerprint-placeholder file.
    pub fn file(&mut self, name: &str, meta: Metadata, fingerprint: Fingerprint, size: u64) {
        self.push(name, meta, Body::File { fingerprint, size: Size::new(size) });
    }

    /// Finishes a file with an inline body.
    pub fn inline(&mut self, name: &str, meta: Metadata, content: Bytes) {
        let at = offset(self.tree.bodies.len());
        self.tree.bodies.push(content);
        self.push(name, meta, Body::Inline(at));
    }

    /// Finishes a symlink.
    pub fn symlink(&mut self, name: &str, meta: Metadata, target: &str) {
        let name = self.push_text(name);
        let target = self.push_text(target);
        let meta = self.meta(meta);
        self.open.push(Record { name, meta, body: Body::Symlink(target) });
    }

    /// Opens a chunk list: the chunks pushed from here on, until
    /// [`TreeBuilder::end_chunks`].
    pub fn begin_chunks(&self) -> ChunkRun {
        let at = self.tree.chunks.len();
        ChunkRun { start: at, end: at }
    }

    /// Pushes one chunk of the open chunk list.
    pub fn chunk(&mut self, chunk: ChunkRef) {
        self.tree.chunks.push(chunk);
    }

    /// Closes the chunk list `run` opened.
    pub fn end_chunks(&self, run: ChunkRun) -> ChunkRun {
        ChunkRun { start: run.start, end: self.tree.chunks.len() }
    }

    /// Finishes a big file over the chunk list `chunks`.
    pub fn big_file(&mut self, name: &str, meta: Metadata, chunks: ChunkRun, size: u64) {
        if chunks.start != self.chunks_used {
            self.canonical = false;
        }
        self.chunks_used = chunks.end;
        let span = Span { start: offset(chunks.start), len: offset(chunks.end - chunks.start) };
        self.push(name, meta, Body::Chunked { chunks: span, size: Size::new(size) });
    }

    /// The table, its root the last node pushed at the top level. Every
    /// entry name is checked as untrusted input, as [`FsTree::from_root`]
    /// checks it.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if nothing was pushed;
    /// [`FsError::NotADirectory`] if the root is not a directory;
    /// [`FsError::InvalidPath`] for an entry name that is empty, `.`, `..`,
    /// or contains `/` or NUL.
    pub fn finish(self) -> Result<FrozenTree, FsError> {
        match self.open.last() {
            None => return Err(FsError::NotFound("/".to_owned())),
            Some(root) if !matches!(root.body, Body::Dir { .. }) => {
                return Err(FsError::NotADirectory("/".to_owned()));
            }
            Some(_) => {}
        }
        let tree = self.build();
        let mut first_bad = None;
        tree.visit(|node| {
            if first_bad.is_none() && !reachable(node.name()) {
                first_bad = Some(node.name());
            }
        });
        match first_bad {
            Some(name) => Err(FsError::InvalidPath(format!("entry name {name:?}"))),
            None => Ok(tree),
        }
    }

    /// The table, its root the last top-level node, which is a directory.
    fn build(mut self) -> FrozenTree {
        let root = self.open.pop().unwrap_or(PLACEHOLDER);
        if let Some(slot) = self.tree.records.first_mut() {
            *slot = Record { name: Span::default(), ..root };
        }
        let canonical =
            self.canonical && self.open.is_empty() && self.chunks_used == self.tree.chunks.len();
        let mut tree = self.tree;
        if !canonical {
            return tree.relayout();
        }
        tree.records.shrink_to_fit();
        tree.text.shrink_to_fit();
        tree.chunks.shrink_to_fit();
        tree
    }

    /// Pushes `node`, named `name`, and everything below it.
    fn push_node(&mut self, name: &str, node: &Node) {
        match node {
            Node::Dir { meta, children } => {
                let start = self.dir_start();
                for (child_name, child) in children {
                    self.push_node(child_name, child);
                }
                self.dir(start, name, *meta);
            }
            Node::File(FileNode { meta, data }) => match data {
                FileData::Inline(content) => self.inline(name, *meta, content.clone()),
                FileData::Fingerprint { fingerprint, size } => {
                    self.file(name, *meta, *fingerprint, *size);
                }
                FileData::Chunked { chunks, size } => self.chunked(name, *meta, chunks, *size),
            },
            Node::Symlink(link) => self.symlink(name, link.meta, &link.target),
        }
    }

    /// Pushes `node` of another table, named `name`, and everything below.
    fn copy(&mut self, node: NodeRef<'_>, name: &str) {
        let meta = node.meta();
        if let Some(target) = node.target() {
            return self.symlink(name, meta, target);
        }
        match node.data() {
            Some(DataRef::Inline(content)) => self.inline(name, meta, content.clone()),
            Some(DataRef::Fingerprint { fingerprint, size }) => {
                self.file(name, meta, fingerprint, size);
            }
            Some(DataRef::Chunked { chunks, size }) => self.chunked(name, meta, chunks, size),
            None => {
                let start = self.dir_start();
                for child in node.children() {
                    self.copy(child, child.name());
                }
                self.dir(start, name, meta);
            }
        }
    }

    fn chunked(&mut self, name: &str, meta: Metadata, chunks: &[ChunkRef], size: u64) {
        let run = self.begin_chunks();
        self.tree.chunks.extend_from_slice(chunks);
        let run = self.end_chunks(run);
        self.big_file(name, meta, run, size);
    }

    fn push(&mut self, name: &str, meta: Metadata, body: Body) {
        let name = self.push_text(name);
        let meta = self.meta(meta);
        self.open.push(Record { name, meta, body });
    }

    fn push_text(&mut self, text: &str) -> Span {
        let start = offset(self.tree.text.len());
        self.tree.text.push_str(text);
        Span { start, len: offset(text.len()) }
    }

    /// The index of `meta` in the metadata list, stored there if none of the
    /// first [`META_SCAN`] entries holds it.
    fn meta(&mut self, meta: Metadata) -> u32 {
        let metas = &mut self.tree.metas;
        let at = metas.iter().take(META_SCAN).position(|m| *m == meta).unwrap_or_else(|| {
            metas.push(meta);
            metas.len() - 1
        });
        offset(at)
    }

    /// Sorts the unplaced nodes from `from` on by name, keeping the last of
    /// equal names. A run that arrives sorted, as an encoder writes it, is
    /// only checked.
    fn sort_run(&mut self, from: usize) {
        let tree = &self.tree;
        let name = |r: &Record| tree.text(r.name);
        let Some(run) = self.open.get_mut(from..) else { return };
        if run.windows(2).all(|pair| name(&pair[0]) < name(&pair[1])) {
            return;
        }
        self.canonical = false;
        run.sort_by(|a, b| name(a).cmp(name(b)));
        let mut kept = from;
        for at in from..self.open.len() {
            let last_of_name =
                self.open.get(at + 1).is_none_or(|next| name(next) != name(&self.open[at]));
            if last_of_name {
                self.open[kept] = self.open[at];
                kept += 1;
            }
        }
        self.open.truncate(kept);
    }
}

/// Whether a path lookup can reach an entry named `name`: not empty, `.` or
/// `..`, and holding no `/` or NUL.
fn reachable(name: &str) -> bool {
    !matches!(name, "" | "." | "..") && !name.contains(['/', '\0'])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FsTree {
        let mut t = FsTree::new();
        t.create_file("etc/os-release", Bytes::from_static(b"ID=x\n")).unwrap();
        t.insert(
            "usr/bin/app",
            Node::fingerprint_file(Metadata::exec_default(), Fingerprint::of(b"app"), 3),
        )
        .unwrap();
        let chunks = vec![
            ChunkRef { fingerprint: Fingerprint::of(b"c0"), size: 4 },
            ChunkRef { fingerprint: Fingerprint::of(b"c1"), size: 2 },
        ];
        t.insert(
            "models/w.bin",
            Node::File(FileNode {
                meta: Metadata::file_default(),
                data: FileData::Chunked { chunks, size: 6 },
            }),
        )
        .unwrap();
        t.insert("usr/bin/link", Node::symlink(Metadata::file_default(), "../../etc/os-release"))
            .unwrap();
        t.mkdir_p("var/empty").unwrap();
        t
    }

    #[test]
    fn freezes_and_thaws_to_the_same_tree() {
        let tree = sample();
        let frozen = FrozenTree::from_tree(&tree);
        assert_eq!(frozen.to_tree(), tree);
        assert_eq!(frozen.node_count(), 1 + tree.walk().count());
        let walked: Vec<(String, Node)> = frozen.walk().map(|(p, n)| (p, n.to_node())).collect();
        let want: Vec<(String, Node)> = tree.walk().map(|(p, n)| (p, n.clone())).collect();
        assert_eq!(walked, want);
        for (path, node) in tree.walk() {
            assert_eq!(frozen.get(&path).map(|n| n.to_node()).as_ref(), Some(node), "{path}");
        }
        assert!(frozen.get("usr/bin/app/deeper").is_none());
        assert!(frozen.get("usr//bin").is_none());
        assert!(frozen.get("").is_some_and(|root| root.is_dir()));
        assert_eq!(
            frozen.get("usr/bin/link").and_then(|n| n.target()),
            Some("../../etc/os-release")
        );
    }

    #[test]
    fn a_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 40);
    }

    #[test]
    fn metadata_is_stored_once_per_value() {
        let tree = sample();
        let mut distinct: Vec<Metadata> = tree.walk().map(|(_, node)| node.meta()).collect();
        distinct.push(tree.root().meta());
        distinct.sort_by_key(|m| (m.mode, m.uid, m.gid, m.mtime));
        distinct.dedup();
        assert_eq!(FrozenTree::from_tree(&tree).metas, distinct);
    }

    /// Children that come unsorted and twice — the last one winning — and a
    /// subtree dropped again build the table the tree itself builds.
    #[test]
    fn any_push_order_builds_the_canonical_table() {
        let fp = Fingerprint::of(b"f");
        let meta = Metadata::file_default();
        let mut b = TreeBuilder::with_capacity(0, 0);
        let root = b.dir_start();
        b.file("b", meta, fp, 1);
        let dropped = b.dir_start();
        b.file("x", meta, fp, 9);
        b.discard(dropped);
        let d = b.dir_start();
        b.symlink("z", meta, "/b");
        b.file("y", meta, fp, 2);
        b.dir(d, "a", Metadata::dir_default());
        b.file("b", meta, fp, 3);
        b.dir(root, "", Metadata::dir_default());
        let built = b.finish().unwrap();

        let mut t = FsTree::new();
        t.insert("b", Node::fingerprint_file(meta, fp, 3)).unwrap();
        t.insert("a/y", Node::fingerprint_file(meta, fp, 2)).unwrap();
        t.insert("a/z", Node::symlink(meta, "/b")).unwrap();
        assert_eq!(built, FrozenTree::from_tree(&t));
        assert_eq!(built.to_tree(), t);
    }

    #[test]
    fn finish_checks_the_root_and_every_reachable_name() {
        let meta = Metadata::file_default();
        assert!(matches!(TreeBuilder::with_capacity(0, 0).finish(), Err(FsError::NotFound(_))));
        let mut b = TreeBuilder::with_capacity(0, 0);
        b.symlink("", meta, "x");
        assert!(matches!(b.finish(), Err(FsError::NotADirectory(_))));
        for bad in ["", ".", "..", "x/y", "nul\0"] {
            let mut b = TreeBuilder::with_capacity(0, 0);
            let root = b.dir_start();
            let dir = b.dir_start();
            b.symlink(bad, meta, "t");
            b.dir(dir, "ok", Metadata::dir_default());
            b.dir(root, "", Metadata::dir_default());
            match b.finish() {
                Err(FsError::InvalidPath(why)) => assert_eq!(why, format!("entry name {bad:?}")),
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        // A bad name on a node dropped again is no error.
        let mut b = TreeBuilder::with_capacity(0, 0);
        let root = b.dir_start();
        b.symlink("..", meta, "t");
        b.discard(root);
        b.dir(root, "", Metadata::dir_default());
        assert_eq!(b.finish().unwrap(), FrozenTree::from_tree(&FsTree::new()));
    }
}
