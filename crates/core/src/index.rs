//! The Gear index: an image's directory tree with fingerprint leaves.
//!
//! The index *is* the placeholder tree the Gear File Viewer mounts (paper
//! §III-B/III-D), held as one [`FrozenTree`] table from the wire to the
//! mount: the decoder fills the table, and every container of the image
//! walks it in place. Its JSON form (grammar in DESIGN.md §2) prices the
//! index blob every deployment pulls, so the hand-written codec below keeps
//! it byte-stable.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, LazyLock, OnceLock};

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, EntryKind, Metadata, ReadError};
use gear_compress::{DecompressError, Level};
use gear_fs::{ChunkRef, DataRef, FrozenTree, FsTree, Node, NodeRef, TreeBuilder};
use gear_hash::Fingerprint;
use gear_image::{Image, ImageBuilder, ImageConfig, ImageRef};
use gear_registry::{DockerRegistry, PushReport};
use gear_telemetry::Telemetry;
use serde::de::Error as _;
use serde_json::Reader;

/// Path inside the single-layer index image where the index JSON lives.
pub const INDEX_PATH: &str = "var/lib/gear/index.json";

/// Error parsing or constructing a Gear index.
#[derive(Debug)]
pub enum IndexError {
    /// The index JSON was malformed.
    Json(serde_json::Error),
    /// A tree passed to [`GearIndex::from_tree`] contained an inline file —
    /// contents must be converted to fingerprints first.
    UnresolvedContent(String),
    /// The image is not a single layer holding a regular file at
    /// [`INDEX_PATH`].
    NotAnIndexImage,
    /// The index image's layer blob does not decode.
    Layer(LayerDecodeError),
}

/// Why a pulled index layer blob does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerDecodeError {
    /// The compressed frame is malformed or fails its CRC-32.
    Frame(DecompressError),
    /// The archive inside the frame is malformed.
    Archive(ReadError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Json(e) => write!(f, "malformed index JSON: {e}"),
            IndexError::UnresolvedContent(p) => {
                write!(f, "file {p} still has inline content; convert it first")
            }
            IndexError::NotAnIndexImage => write!(f, "image does not contain a Gear index"),
            IndexError::Layer(LayerDecodeError::Frame(e)) => {
                write!(f, "index layer does not decode: {e}")
            }
            IndexError::Layer(LayerDecodeError::Archive(e)) => {
                write!(f, "index layer does not decode: {e}")
            }
        }
    }
}

impl Error for IndexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IndexError::Json(e) => Some(e),
            IndexError::Layer(LayerDecodeError::Frame(e)) => Some(e),
            IndexError::Layer(LayerDecodeError::Archive(e)) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for IndexError {
    fn from(e: serde_json::Error) -> Self {
        IndexError::Json(e)
    }
}

impl From<DecompressError> for IndexError {
    fn from(e: DecompressError) -> Self {
        IndexError::Layer(LayerDecodeError::Frame(e))
    }
}

impl From<ReadError> for IndexError {
    fn from(e: ReadError) -> Self {
        IndexError::Layer(LayerDecodeError::Archive(e))
    }
}

/// The Gear index: directory structure + file fingerprints + the runtime
/// config copied from the original image (paper §III-B/III-C).
///
/// The tree holds no inline file body: every regular file is a fingerprint
/// placeholder or a chunked big file (paper §VII), and irregular files are
/// served straight from it (§III-D2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GearIndex {
    tree: Arc<FrozenTree>,
    /// Runtime configuration copied from the source Docker image.
    pub config: ImageConfig,
}

/// Calls `f` on every node below `node`, parents first, names sorted.
/// (Not [`FsTree::walk`]: that builds a path `String` per node, and this
/// runs on every install and `remove_image`.)
pub(crate) fn visit<'a>(node: &'a Node, f: &mut impl FnMut(&'a Node)) {
    if let Node::Dir { children, .. } = node {
        for child in children.values() {
            f(child);
            visit(child, f);
        }
    }
}

impl GearIndex {
    /// Freezes a fully *converted* [`FsTree`] — one whose file bodies are
    /// all [`gear_fs::FileData::Fingerprint`] or
    /// [`gear_fs::FileData::Chunked`] — as an index.
    ///
    /// # Errors
    ///
    /// [`IndexError::UnresolvedContent`] if any file still holds inline
    /// bytes. (Use [`crate::Converter`] to convert contents first.)
    // The tree is handed over, as every caller builds it for the index
    // alone; the table copies out what it needs and the tree is dropped.
    #[allow(clippy::needless_pass_by_value)]
    pub fn from_tree(tree: FsTree, config: ImageConfig) -> Result<Self, IndexError> {
        /// The path, below `node`, of the first file with an inline body —
        /// put together only once there is one to report.
        fn first_inline(node: &Node) -> Option<String> {
            let Node::Dir { children, .. } = node else { return None };
            children.iter().find_map(|(name, child)| match child {
                Node::File(file) if file.data.is_resolved() => Some(name.clone()),
                _ => first_inline(child).map(|below| format!("{name}/{below}")),
            })
        }
        match first_inline(tree.root()) {
            Some(path) => Err(IndexError::UnresolvedContent(path)),
            None => Ok(GearIndex { tree: Arc::new(FrozenTree::from_tree(&tree)), config }),
        }
    }

    /// The table of fingerprint placeholders — the read-only lower layer the
    /// Gear File Viewer mounts. Every container of the image shares it.
    pub fn tree(&self) -> &Arc<FrozenTree> {
        &self.tree
    }

    /// The placeholder tree as an owned [`FsTree`], for callers that go on
    /// to modify it (committing a container merges its diff over one).
    pub fn to_tree(&self) -> FsTree {
        self.tree.to_tree()
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Vec<u8> {
        // Sized by a counting pass first: the buffer is allocated once, at
        // its final length.
        let config = self.config.to_json();
        let mut out = Vec::with_capacity(self.document_len(&config) as usize);
        self.write(&mut out, &config);
        out
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// [`IndexError::Json`] for malformed input, including an entry name no
    /// path can reach (empty, `.`, `..`, or holding `/` or NUL).
    pub fn from_json(bytes: &[u8]) -> Result<Self, IndexError> {
        Ok(read_index(bytes)?)
    }

    /// Size of the serialized index in bytes — the amount a client must pull
    /// before its container can start (paper: ~0.53 MB on average).
    pub fn serialized_len(&self) -> u64 {
        self.document_len(&self.config.to_json())
    }

    /// Every `(fingerprint, size)` the index references (files and chunks),
    /// in walk order, duplicates included.
    pub fn referenced_files(&self) -> Vec<(Fingerprint, u64)> {
        let mut out = Vec::new();
        self.visit_files(|fingerprint, size| out.push((fingerprint, size)));
        out
    }

    /// Calls `f` on every `(fingerprint, size)` [`GearIndex::referenced_files`]
    /// lists, in its order, reading the table in place.
    pub fn visit_files(&self, mut f: impl FnMut(Fingerprint, u64)) {
        self.tree.visit(|node| match node.data() {
            Some(DataRef::Fingerprint { fingerprint, size }) => f(fingerprint, size),
            Some(DataRef::Chunked { chunks, .. }) => {
                for chunk in chunks {
                    f(chunk.fingerprint, chunk.size);
                }
            }
            Some(DataRef::Inline(_)) | None => {}
        });
    }

    /// Looks up the `(fingerprint, size)` of the regular file at `path`.
    pub fn file_at(&self, path: &str) -> Option<(Fingerprint, u64)> {
        match self.tree.get(path)?.data()? {
            DataRef::Fingerprint { fingerprint, size } => Some((fingerprint, size)),
            _ => None,
        }
    }

    /// Looks up the ordered chunk list of the big file at `path` (`None`
    /// for whole-fingerprint files and non-files) — the resolution step
    /// behind chunk-granularity fetching: a deployer pulls exactly these
    /// blobs instead of one monolithic object.
    pub fn chunks_at(&self, path: &str) -> Option<&[ChunkRef]> {
        match self.tree.get(path)?.data()? {
            DataRef::Chunked { chunks, .. } => Some(chunks),
            _ => None,
        }
    }

    /// Counts of each node kind: `(dirs, files, big_files, symlinks)`.
    pub fn node_counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        self.tree.visit(|node| match node.data() {
            _ if node.is_dir() => c.0 += 1,
            Some(DataRef::Chunked { .. }) => c.2 += 1,
            Some(_) => c.1 += 1,
            None => c.3 += 1,
        });
        c
    }

    /// Total logical bytes of all referenced file content.
    pub fn logical_bytes(&self) -> u64 {
        self.referenced_files().iter().map(|(_, s)| s).sum()
    }
}

// ---- wire form --------------------------------------------------------------
//
// Key order is part of the format: `kind, meta`, then `children` |
// `fingerprint, size` | `chunks, size` | `target`; `root, config` at the top.
// Decoding takes the keys in any order and ignores unknown ones.
//
// The writer goes straight from the tree to the bytes — no `Value` tree in
// between, nothing allocated per node — and spells what the generic JSON
// writer would: no whitespace, integers in decimal, strings escaped as in
// `put_str`, fingerprints as 32 lowercase hex digits.

/// Where the document goes: into a buffer, or nowhere but a byte count.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The sink behind [`GearIndex::serialized_len`].
struct Count(u64);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// The lowercase hex digit of a value below 16.
fn hex_digit(nibble: u8) -> u8 {
    b"0123456789abcdef"[usize::from(nibble & 15)]
}

fn put_u64(out: &mut impl Sink, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put(&digits[at..]);
}

/// A JSON string: `"` and `\` behind a backslash, newline, return and tab by
/// letter, any other control character as `\u00XX`, the rest as it is.
fn put_str(out: &mut impl Sink, text: &str) {
    out.put(b"\"");
    let bytes = text.as_bytes();
    let mut written = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        let unicode;
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode = [b'\\', b'u', b'0', b'0', hex_digit(byte >> 4), hex_digit(byte & 15)];
                &unicode
            }
            _ => continue,
        };
        out.put(&bytes[written..at]);
        out.put(escape);
        written = at + 1;
    }
    out.put(&bytes[written..]);
    out.put(b"\"");
}

/// `"fingerprint":"<hex>","size":<n>` — a file's tail and a chunk's body.
fn put_content(out: &mut impl Sink, fingerprint: &Fingerprint, size: u64) {
    let mut hex = [0u8; 2 * Fingerprint::LEN];
    for (pair, byte) in hex.chunks_exact_mut(2).zip(fingerprint.as_bytes()) {
        pair.copy_from_slice(&[hex_digit(byte >> 4), hex_digit(byte & 15)]);
    }
    out.put(b"\"fingerprint\":\"");
    out.put(&hex);
    out.put(b"\",\"size\":");
    put_u64(out, size);
}

/// `{"kind":"<kind>","meta":{…},` — how every node opens.
fn put_head(out: &mut impl Sink, kind: &str, meta: &Metadata) {
    out.put(b"{\"kind\":\"");
    out.put(kind.as_bytes());
    out.put(b"\",\"meta\":{\"mode\":");
    put_u64(out, meta.mode.into());
    out.put(b",\"uid\":");
    put_u64(out, meta.uid.into());
    out.put(b",\"gid\":");
    put_u64(out, meta.gid.into());
    out.put(b",\"mtime\":");
    put_u64(out, meta.mtime);
    out.put(b"},");
}

fn put_node(out: &mut impl Sink, node: NodeRef<'_>) {
    let meta = node.meta();
    if let Some(target) = node.target() {
        put_head(out, "symlink", &meta);
        out.put(b"\"target\":");
        put_str(out, target);
        out.put(b"}");
        return;
    }
    match node.data() {
        None => {
            put_head(out, "dir", &meta);
            out.put(b"\"children\":{");
            for (nth, child) in node.children().enumerate() {
                if nth > 0 {
                    out.put(b",");
                }
                put_str(out, child.name());
                out.put(b":");
                put_node(out, child);
            }
            out.put(b"}}");
        }
        Some(DataRef::Fingerprint { fingerprint, size }) => {
            put_head(out, "file", &meta);
            put_content(out, &fingerprint, size);
            out.put(b"}");
        }
        Some(DataRef::Chunked { chunks, size }) => {
            put_head(out, "big_file", &meta);
            out.put(b"\"chunks\":[");
            for (nth, chunk) in chunks.iter().enumerate() {
                out.put(if nth > 0 { b",{" } else { b"{" });
                put_content(out, &chunk.fingerprint, chunk.size);
                out.put(b"}");
            }
            out.put(b"],\"size\":");
            put_u64(out, size);
            out.put(b"}");
        }
        Some(DataRef::Inline(_)) => unreachable!("`GearIndex::from_tree` admits no inline body"),
    }
}

impl GearIndex {
    /// Length of the document, its config already encoded as `config`.
    fn document_len(&self, config: &[u8]) -> u64 {
        let mut len = Count(0);
        self.write(&mut len, config);
        len.0
    }

    /// The document, its config already encoded as `config`.
    fn write(&self, out: &mut impl Sink, config: &[u8]) {
        out.put(b"{\"root\":");
        put_node(out, self.tree.root());
        out.put(b",\"config\":");
        out.put(config);
        out.put(b"}");
    }
}

// The reader: one pass over the document with `serde_json::Reader`, each node
// handed to a `TreeBuilder` as its closing brace is reached, its children
// before it. A node's fields are collected as options because they may come
// in any order; a key the grammar does not name is skipped, a key met twice
// keeps its last value, and a known key holding the wrong type is an error
// wherever it stands.

type Json<T> = Result<T, serde_json::Error>;

/// The value of a field its object has to have, now that the object is closed.
fn need<T>(reader: &Reader<'_>, field: &str, value: Option<T>) -> Json<T> {
    value.ok_or_else(|| reader.error(format!("missing field `{field}`")))
}

/// A `mode`, `uid` or `gid`: a number that fits `u32`.
fn read_u32(reader: &mut Reader<'_>) -> Json<u32> {
    let value = reader.u64()?;
    u32::try_from(value).map_err(|_| reader.error(format!("{value} does not fit in 32 bits")))
}

fn read_meta(reader: &mut Reader<'_>) -> Json<Metadata> {
    let (mut mode, mut uid, mut gid, mut mtime) = (None, None, None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "mode" => mode = Some(read_u32(reader)?),
            "uid" => uid = Some(read_u32(reader)?),
            "gid" => gid = Some(read_u32(reader)?),
            "mtime" => mtime = Some(reader.u64()?),
            _ => reader.skip()?,
        }
    }
    Ok(Metadata {
        mode: need(reader, "mode", mode)?,
        uid: need(reader, "uid", uid)?,
        gid: need(reader, "gid", gid)?,
        mtime: need(reader, "mtime", mtime)?,
    })
}

fn read_fingerprint(reader: &mut Reader<'_>) -> Json<Fingerprint> {
    let hex = reader.str()?;
    hex.parse().map_err(|e: gear_hash::ParseFingerprintError| reader.error(e.to_string()))
}

/// `{"fingerprint":…,"size":…}` — one entry of a big file's `chunks`.
fn read_chunk(reader: &mut Reader<'_>) -> Json<ChunkRef> {
    let (mut fingerprint, mut size) = (None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "fingerprint" => fingerprint = Some(read_fingerprint(reader)?),
            "size" => size = Some(reader.u64()?),
            _ => reader.skip()?,
        }
    }
    Ok(ChunkRef {
        fingerprint: need(reader, "fingerprint", fingerprint)?,
        size: need(reader, "size", size)?,
    })
}

/// A directory's `children`, each pushed as its node closes.
fn read_children(reader: &mut Reader<'_>, tree: &mut TreeBuilder) -> Json<()> {
    reader.begin_object()?;
    while let Some(name) = reader.next_key()? {
        read_node(reader, tree, &name)?;
    }
    Ok(())
}

/// One node, named `name`, pushed once it closes — a directory after its
/// children, which are pushed as they are read and dropped again should the
/// node turn out to be something else or its `children` come again.
fn read_node(reader: &mut Reader<'_>, tree: &mut TreeBuilder, name: &str) -> Json<()> {
    let start = tree.dir_start();
    let (mut kind, mut meta, mut children, mut target) = (None, None, None, None);
    let (mut fingerprint, mut size, mut chunks) = (None, None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "kind" => kind = Some(reader.str()?),
            "meta" => meta = Some(read_meta(reader)?),
            "children" => {
                tree.discard(start);
                read_children(reader, tree)?;
                children = Some(());
            }
            "fingerprint" => fingerprint = Some(read_fingerprint(reader)?),
            "size" => size = Some(reader.u64()?),
            "chunks" => {
                let run = tree.begin_chunks();
                reader.begin_array()?;
                while reader.next_item()? {
                    tree.chunk(read_chunk(reader)?);
                }
                chunks = Some(tree.end_chunks(run));
            }
            "target" => target = Some(reader.str()?),
            _ => reader.skip()?,
        }
    }
    let meta = need(reader, "meta", meta)?;
    let kind = need(reader, "kind", kind)?;
    if kind != "dir" {
        tree.discard(start);
    }
    match &*kind {
        "dir" => {
            need(reader, "children", children)?;
            tree.dir(start, name, meta);
        }
        "file" => tree.file(
            name,
            meta,
            need(reader, "fingerprint", fingerprint)?,
            need(reader, "size", size)?,
        ),
        "big_file" => {
            let chunks = need(reader, "chunks", chunks)?;
            tree.big_file(name, meta, chunks, need(reader, "size", size)?);
        }
        "symlink" => tree.symlink(name, meta, &need(reader, "target", target)?),
        _ => return Err(reader.error("unknown index node kind")),
    }
    Ok(())
}

/// Builds the table straight from the document — no inline body in it, by
/// construction. The index is untrusted input: the reader caps how deep it
/// nests, the table's `u32` offsets bound it below 4 GiB, and
/// [`TreeBuilder::finish`] rejects entry names no path can reach, which
/// would otherwise sit in the mount as unreachable nodes.
fn read_index(bytes: &[u8]) -> Json<GearIndex> {
    let mut reader = Reader::from_slice(bytes)?;
    if u32::try_from(bytes.len()).is_err() {
        return Err(reader.error("index larger than 4 GiB"));
    }
    // Room for a node per 96 bytes and a name byte per 16: an index written
    // by `to_json` spends about 128 bytes on a node and 10 on its name, so
    // the buffers are not grown along the way.
    let mut tree = TreeBuilder::with_capacity(bytes.len() / 96 + 1, bytes.len() / 16);
    let (mut root, mut config) = (None, None);
    reader.begin_object()?;
    while let Some(key) = reader.next_key()? {
        match &*key {
            "root" => root = Some(read_node(&mut reader, &mut tree, "")?),
            "config" => config = Some(reader.value()?),
            _ => reader.skip()?,
        }
    }
    reader.end()?;
    need(&reader, "root", root)?;
    let config = need(&reader, "config", config)?;
    let tree = tree.finish().map_err(serde_json::Error::custom)?;
    let config = serde::from_value(&config).map_err(serde_json::Error::custom)?;
    Ok(GearIndex { tree: Arc::new(tree), config })
}

/// A Gear image: a named [`GearIndex`]. The corresponding Gear files live in
/// a [`gear_registry::GearFileStore`].
#[derive(Clone)]
pub struct GearImage {
    reference: ImageRef,
    index: GearIndex,
    /// What a push writes besides the tree, encoded on first need: the
    /// converter's sizing of the index fills it, the push reads it, and an
    /// image pulled from a registry never pays for it. The index cannot
    /// change under it — this type hands out no `&mut GearIndex`.
    encoded: OnceLock<Encoded>,
}

/// The index's config as JSON, and the length of the whole index document
/// around it.
#[derive(Debug, Clone)]
struct Encoded {
    config: Vec<u8>,
    len: u64,
}

/// Two images are equal when their names and indexes are; what has been
/// encoded of them so far does not matter.
impl PartialEq for GearImage {
    fn eq(&self, other: &Self) -> bool {
        self.reference == other.reference && self.index == other.index
    }
}

impl fmt::Debug for GearImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GearImage")
            .field("reference", &self.reference)
            .field("index", &self.index)
            .finish()
    }
}

/// The index image's layer, all but the index file: a directory entry for
/// each ancestor of [`INDEX_PATH`], parents first and with default
/// metadata. Then the path of the index file. The same for every index, so
/// built once. Every prefix of `INDEX_PATH` is a valid path
/// (`index_layer_is_the_tree_layer` holds it to that).
static INDEX_LAYER: LazyLock<(Archive, Option<ArchivePath>)> = LazyLock::new(|| {
    let path = |end: usize| ArchivePath::new(&INDEX_PATH[..end]).ok();
    let dirs = INDEX_PATH.match_indices('/').filter_map(|(end, _)| path(end));
    (dirs.map(|dir| Entry::dir(dir, Metadata::dir_default())).collect(), path(INDEX_PATH.len()))
});

impl GearImage {
    /// Pairs an index with a name.
    pub fn new(reference: ImageRef, index: GearIndex) -> Self {
        GearImage { reference, index, encoded: OnceLock::new() }
    }

    /// The image name.
    pub fn reference(&self) -> &ImageRef {
        &self.reference
    }

    /// The index.
    pub fn index(&self) -> &GearIndex {
        &self.index
    }

    /// Consumes self, returning the index.
    pub fn into_index(self) -> GearIndex {
        self.index
    }

    /// [`GearIndex::serialized_len`] of the index, its config encoded once
    /// for this and the push to come.
    pub(crate) fn index_len(&self) -> u64 {
        self.encoded().len
    }

    fn encoded(&self) -> &Encoded {
        self.encoded.get_or_init(|| {
            let config = self.index.config.to_json();
            Encoded { len: self.index.document_len(&config), config }
        })
    }

    /// Packages the index as a **single-layer Docker image** so the existing
    /// Docker registry and CLI can store and distribute it unchanged (paper
    /// §III-C). The original image's config is carried over so containers
    /// launch with the right environment.
    pub fn to_index_image(&self) -> Image {
        ImageBuilder::new(self.reference.clone())
            .config(self.index.config.clone())
            .layer(self.index_layer())
            .build()
    }

    /// Pushes the index image to `docker` — what
    /// [`DockerRegistry::push_image`] of [`GearImage::to_index_image`] does,
    /// byte for byte, at the cost of one archive write and one compression:
    /// no [`Image`] is built and no diff id hashed, since the manifest names
    /// the blob by its own digest. The index document is written straight
    /// into the layer's wire, and the config is encoded once per image.
    ///
    /// Spanned on the registry's recorder ([`DockerRegistry::recorder`]):
    /// `push`, around `archive` (the wire, with the document's `json`
    /// inside), `compress` and the registry's `push_layers`.
    pub fn push(&self, docker: &mut DockerRegistry) -> PushReport {
        let telemetry = docker.recorder().clone();
        let _span = telemetry.enter("core", "push");
        let blob = {
            let wire = {
                let _span = telemetry.enter("core", "archive");
                self.index_wire(&telemetry)
            };
            let _span = telemetry.enter("compress", "compress");
            gear_compress::compress(&wire, Level::Default)
        };
        docker.push_layers(&self.reference, &self.encoded().config, [blob])
    }

    /// `index_layer().to_bytes()`, in one buffer of its exact length with the
    /// document written into it.
    fn index_wire(&self, telemetry: &Telemetry) -> Vec<u8> {
        let (dirs, file) = &*INDEX_LAYER;
        let Some(file) = file else { return dirs.to_bytes() };
        let encoded = self.encoded();
        dirs.to_bytes_with_file(file, Metadata::file_default(), encoded.len as usize, |out| {
            let _span = telemetry.enter("core", "json");
            self.index.write(out, &encoded.config);
        })
    }

    /// The index image's one layer: [`INDEX_LAYER`]'s directories, then the
    /// index file — what [`FsTree::to_layer`] gives of a tree holding only
    /// that file.
    fn index_layer(&self) -> Archive {
        let (dirs, file) = &*INDEX_LAYER;
        let mut layer = dirs.clone();
        if let Some(file) = file {
            let index = Bytes::from(self.index.to_json());
            layer.push(Entry::file(file.clone(), Metadata::file_default(), index));
        }
        layer
    }

    /// Recovers a Gear image from its single-layer index image.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotAnIndexImage`] if the image is not one layer with a
    /// regular file at [`INDEX_PATH`]; [`IndexError::Json`] if the index
    /// payload is malformed.
    pub fn from_index_image(image: &Image) -> Result<Self, IndexError> {
        let [layer] = image.layers() else {
            return Err(IndexError::NotAnIndexImage);
        };
        Self::from_layer(image.reference().clone(), layer.archive())
    }

    /// Pulls `reference`'s Gear image out of the registry that holds its
    /// index image — what [`GearImage::from_index_image`] of
    /// [`DockerRegistry::image`] gives, at the cost of one blob decode: the
    /// manifest, its config parsed, the one layer blob decompressed (the
    /// frame's CRC-32 checks it), the archive parsed, the index read. No
    /// [`Image`] is built, no layer replayed into a tree, and no diff id
    /// hashed, since nothing here would compare it.
    ///
    /// `Ok(None)` when the registry lacks the manifest, the config or the
    /// layer blob, or the config does not parse.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotAnIndexImage`] for a manifest of other than one
    /// layer or a layer with no regular file at [`INDEX_PATH`];
    /// [`IndexError::Layer`] for a blob that does not decode;
    /// [`IndexError::Json`] for a malformed index.
    pub fn pull(docker: &DockerRegistry, reference: &ImageRef) -> Result<Option<Self>, IndexError> {
        let Some(manifest) = docker.manifest(reference) else {
            return Ok(None);
        };
        if docker.config(manifest.config.digest).is_none() {
            return Ok(None);
        }
        let [layer] = manifest.layers.as_slice() else {
            return Err(IndexError::NotAnIndexImage);
        };
        let Some(blob) = docker.blob(layer.digest) else {
            return Ok(None);
        };
        let archive = Archive::from_bytes(&gear_compress::decompress(blob)?)?;
        Self::from_layer(reference.clone(), &archive).map(Some)
    }

    /// The one lookup both entry points share: the index in an index
    /// image's layer is the last entry at [`INDEX_PATH`], a regular file.
    fn from_layer(reference: ImageRef, layer: &Archive) -> Result<Self, IndexError> {
        match layer.iter().rev().find(|entry| entry.path.as_str() == INDEX_PATH) {
            Some(Entry { kind: EntryKind::File { content, .. }, .. }) => {
                Ok(GearImage::new(reference, GearIndex::from_json(content)?))
            }
            _ => Err(IndexError::NotAnIndexImage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_fs::{FileData, FileNode};

    fn sample_index() -> GearIndex {
        let mut tree = FsTree::new();
        tree.insert(
            "bin/app",
            Node::fingerprint_file(Metadata::exec_default(), Fingerprint::of(b"app"), 3),
        )
        .unwrap();
        tree.insert(
            "etc/app.conf",
            Node::fingerprint_file(Metadata::file_default(), Fingerprint::of(b"conf"), 4),
        )
        .unwrap();
        tree.insert("bin/link", Node::symlink(Metadata::file_default(), "/bin/app")).unwrap();
        let config = ImageConfig { env: vec!["A=1".into()], ..Default::default() };
        GearIndex::from_tree(tree, config).unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let index = sample_index();
        let parsed = GearIndex::from_json(&index.to_json()).unwrap();
        assert_eq!(parsed, index);
    }

    #[test]
    fn tree_roundtrip() {
        let index = sample_index();
        let tree = index.to_tree();
        assert_eq!(&FrozenTree::from_tree(&tree), index.tree().as_ref());
        let back = GearIndex::from_tree(tree, index.config.clone()).unwrap();
        assert_eq!(back, index);
    }

    #[test]
    fn rejects_inline_content() {
        let mut tree = FsTree::new();
        tree.create_file("raw", Bytes::from_static(b"inline")).unwrap();
        let err = GearIndex::from_tree(tree, ImageConfig::default()).unwrap_err();
        assert!(matches!(err, IndexError::UnresolvedContent(p) if p == "raw"));

        let mut tree = sample_index().to_tree();
        tree.create_file("etc/deep/raw", Bytes::from_static(b"inline")).unwrap();
        let err = GearIndex::from_tree(tree, ImageConfig::default()).unwrap_err();
        assert!(matches!(err, IndexError::UnresolvedContent(p) if p == "etc/deep/raw"));
    }

    #[test]
    fn referenced_files_and_counts() {
        let index = sample_index();
        assert_eq!(index.referenced_files().len(), 2);
        assert_eq!(index.logical_bytes(), 7);
        let (dirs, files, big, links) = index.node_counts();
        assert_eq!((dirs, files, big, links), (2, 2, 0, 1));
    }

    #[test]
    fn file_at_lookup() {
        let index = sample_index();
        let (fp, size) = index.file_at("bin/app").unwrap();
        assert_eq!(fp, Fingerprint::of(b"app"));
        assert_eq!(size, 3);
        assert!(index.file_at("bin/link").is_none());
        assert!(index.file_at("missing").is_none());
        assert!(index.file_at("").is_none());
    }

    #[test]
    fn index_image_roundtrip() {
        let gear = GearImage::new("app:1".parse().unwrap(), sample_index());
        let image = gear.to_index_image();
        assert_eq!(image.layers().len(), 1, "index image must be single-layer");
        assert_eq!(image.config().env, vec!["A=1"]);
        let back = GearImage::from_index_image(&image).unwrap();
        assert_eq!(back, gear);
    }

    /// The layer built entry by entry is the one a tree holding only the
    /// index file serializes to, so the index blob's bytes — which price
    /// every deploy — are those a tree replay gave.
    #[test]
    fn index_layer_is_the_tree_layer() {
        let gear = GearImage::new("app:1".parse().unwrap(), sample_index());
        let mut tree = FsTree::new();
        tree.create_file(INDEX_PATH, Bytes::from(gear.index().to_json())).unwrap();
        assert_eq!(gear.index_layer(), tree.to_layer());
        assert_eq!(gear.index_layer().len(), 4);
    }

    /// The pushed wire is the index layer's, written in one buffer of its
    /// exact length — before the config is encoded and after.
    #[test]
    fn index_wire_is_the_layer_at_its_exact_length() {
        let gear = GearImage::new("app:1".parse().unwrap(), sample_index());
        for _ in 0..2 {
            let wire = gear.index_wire(&Telemetry::noop());
            assert_eq!(wire, gear.index_layer().to_bytes());
            assert_eq!(wire.capacity(), wire.len());
        }
        assert_eq!(gear.index_len(), gear.index().serialized_len());
    }

    #[test]
    fn non_index_image_rejected() {
        let mut tree = FsTree::new();
        tree.create_file("just/a/file", Bytes::from_static(b"x")).unwrap();
        let image = ImageBuilder::new("plain:1".parse::<ImageRef>().unwrap())
            .layer_from_tree(&tree)
            .build();
        assert!(matches!(GearImage::from_index_image(&image), Err(IndexError::NotAnIndexImage)));
    }

    #[test]
    fn index_is_small_relative_to_content() {
        // 100 files of 10 KiB each: index must be a tiny fraction.
        let mut tree = FsTree::new();
        for i in 0..100 {
            tree.insert(
                &format!("data/file{i:03}"),
                Node::fingerprint_file(
                    Metadata::file_default(),
                    Fingerprint::of(format!("content{i}").as_bytes()),
                    10_240,
                ),
            )
            .unwrap();
        }
        let index = GearIndex::from_tree(tree, ImageConfig::default()).unwrap();
        let ratio = index.serialized_len() as f64 / index.logical_bytes() as f64;
        assert!(ratio < 0.05, "index/content ratio {ratio}");
    }

    #[test]
    fn big_file_nodes_roundtrip() {
        let chunks = vec![
            ChunkRef { fingerprint: Fingerprint::of(b"c0"), size: 1024 },
            ChunkRef { fingerprint: Fingerprint::of(b"c1"), size: 512 },
        ];
        let data = FileData::Chunked { chunks, size: 1536 };
        let mut tree = FsTree::new();
        tree.insert("model.bin", Node::File(FileNode { meta: Metadata::file_default(), data }))
            .unwrap();
        let index = GearIndex::from_tree(tree, ImageConfig::default()).unwrap();
        let parsed = GearIndex::from_json(&index.to_json()).unwrap();
        assert_eq!(parsed, index);
        assert_eq!(
            parsed.referenced_files(),
            [(Fingerprint::of(b"c0"), 1024), (Fingerprint::of(b"c1"), 512)]
        );
        assert_eq!(parsed.chunks_at("model.bin").map(<[ChunkRef]>::len), Some(2));
        assert_eq!(parsed.node_counts(), (0, 0, 1, 0));
        assert!(parsed.file_at("model.bin").is_none());
    }
}
