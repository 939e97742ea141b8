//! The Gear Converter: Docker image → Gear index + Gear files (paper §III-B).
//!
//! Conversion replays the image's layers bottom-up into a root file system,
//! then traverses it: every regular file's content is fingerprinted with MD5
//! and moved into the Gear file set; the tree of directories, metadata, and
//! fingerprints becomes the [`GearIndex`]. Files above a configurable
//! threshold are split into fingerprinted chunks (the paper's future-work
//! big-file support).
//!
//! MD5 is collision-resistant enough in practice (paper Eq. 1 puts the
//! accidental-collision probability far below disk-error rates), but the
//! design still detects collisions by content comparison during conversion
//! and falls back to a salted unique id excluded from deduplication —
//! implemented by [`CollisionResolver`].

use std::collections::hash_map::{Entry, HashMap};
use std::error::Error;
use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use gear_fs::{ChunkRef, FileData, FileNode, FsError, Node};
use gear_hash::Fingerprint;
use gear_image::Image;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::DiskModel;

use crate::index::{visit, GearImage, GearIndex, IndexError};

/// A unique Gear file produced by conversion: content plus its name — the
/// registry's unit of upload.
pub use gear_registry::GearFile;

/// Error returned by [`Converter::convert`].
#[derive(Debug)]
pub enum ConvertError {
    /// The image's layers could not be replayed into a root file system.
    RootFs(FsError),
    /// The converted tree could not be indexed.
    Index(IndexError),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::RootFs(e) => write!(f, "cannot reconstruct root file system: {e}"),
            ConvertError::Index(e) => write!(f, "cannot build index: {e}"),
        }
    }
}

impl Error for ConvertError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConvertError::RootFs(e) => Some(e),
            ConvertError::Index(e) => Some(e),
        }
    }
}

impl From<FsError> for ConvertError {
    fn from(e: FsError) -> Self {
        ConvertError::RootFs(e)
    }
}

impl From<IndexError> for ConvertError {
    fn from(e: IndexError) -> Self {
        ConvertError::Index(e)
    }
}

/// Detects fingerprint collisions by content comparison and assigns salted
/// unique ids to colliding files (paper §III-B).
///
/// The resolver remembers the first content seen for each fingerprint. A
/// later file with the same fingerprint but different content gets
/// [`Fingerprint::of_salted`] for increasing salts until an unused id is
/// found, and is flagged as non-deduplicable.
#[derive(Debug, Default)]
pub struct CollisionResolver {
    seen: HashMap<Fingerprint, Bytes>,
    collisions: u64,
}

impl CollisionResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the id for `content` whose hash is `fingerprint`.
    ///
    /// Returns `(id, dedup)` where `dedup` is false only for collision
    /// fallback ids.
    pub fn resolve(&mut self, fingerprint: Fingerprint, content: &Bytes) -> (Fingerprint, bool) {
        let (id, _) = self.admit(fingerprint, content);
        // A fallback id is one nothing held yet; `fingerprint` is held.
        (id, id == fingerprint)
    }

    /// Resolves the id as [`CollisionResolver::resolve`] does, with the new
    /// Gear file when `content` is the first to be given that id — `None`
    /// for a duplicate of one already produced.
    pub(crate) fn admit(
        &mut self,
        fingerprint: Fingerprint,
        content: &Bytes,
    ) -> (Fingerprint, Option<GearFile>) {
        let new = |fingerprint, salt| GearFile { fingerprint, content: content.clone(), salt };
        match self.seen.entry(fingerprint) {
            Entry::Vacant(slot) => {
                slot.insert(content.clone());
                (fingerprint, Some(new(fingerprint, None)))
            }
            Entry::Occupied(first) if first.get() == content => (fingerprint, None),
            Entry::Occupied(_) => {
                self.collisions += 1;
                let mut salt: u64 = 0;
                loop {
                    let id = Fingerprint::of_salted(content, salt);
                    if let Entry::Vacant(slot) = self.seen.entry(id) {
                        slot.insert(content.clone());
                        return (id, Some(new(id, Some(salt))));
                    }
                    salt += 1;
                }
            }
        }
    }

    /// Number of collisions detected so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }
}

/// Tunables for the converter.
#[derive(Debug, Clone, Copy)]
pub struct ConverterOptions {
    /// Files at or above this size are chunked ([`None`] disables chunking).
    pub big_file_threshold: Option<u64>,
    /// Chunk size for big files.
    pub chunk_size: u64,
    /// Content-defined chunking for big files: when set, chunk boundaries
    /// come from the Gear rolling hash under these size bounds instead of
    /// the fixed [`ConverterOptions::chunk_size`] grid, so a small edit in a
    /// large file changes only the O(1) chunks near the edit and every
    /// other chunk keeps its fingerprint (and dedups in the registry).
    /// [`None`] (the default) keeps the fixed-size split bit-identical to
    /// prior behaviour.
    pub cdc: Option<gear_hash::ChunkerConfig>,
    /// Disk model used to estimate conversion time (paper Fig. 6 compares
    /// HDD and SSD).
    pub disk: DiskModel,
    /// Hashing throughput in bytes/second for the time estimate.
    pub hash_bytes_per_sec: f64,
    /// Throughput of recompressing unique Gear files for the registry
    /// (gzip-class, single-threaded) — the dominant CPU cost of a real
    /// conversion.
    pub compress_bytes_per_sec: f64,
    /// Worker threads for fingerprinting file contents. The paper notes
    /// conversion "can be shorter … using multiple threads" (§V-B); hashing
    /// is the parallelizable part.
    pub threads: usize,
    /// Multiplier mapping scaled-down corpus bytes to paper-scale bytes in
    /// the time estimate (set to the corpus `scale_denom`).
    pub byte_scale: u64,
    /// Multiplier mapping the corpus's reduced file counts to realistic
    /// per-image file counts in the time estimate.
    pub count_scale: f64,
}

impl Default for ConverterOptions {
    fn default() -> Self {
        ConverterOptions {
            big_file_threshold: None,
            chunk_size: 1024 * 1024,
            cdc: None,
            disk: DiskModel::hdd(),
            hash_bytes_per_sec: 450.0e6, // MD5 on one 2.3 GHz Xeon core
            compress_bytes_per_sec: 45.0e6, // gzip -6 on one core
            threads: 1,
            byte_scale: 1,
            count_scale: 1.0,
        }
    }
}

/// Accounting for one conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConversionReport {
    /// Regular files scanned in the root file system.
    pub scanned_files: u64,
    /// Bytes of file content scanned.
    pub scanned_bytes: u64,
    /// Unique Gear files produced (after in-image dedup).
    pub unique_files: u64,
    /// Bytes of unique Gear-file content.
    pub unique_bytes: u64,
    /// Files that were duplicates of an already-produced Gear file.
    pub duplicate_files: u64,
    /// MD5 collisions detected (expected: 0).
    pub collisions: u64,
    /// Serialized index size in bytes.
    pub index_bytes: u64,
    /// Estimated wall-clock conversion time under the configured disk model.
    pub duration: Duration,
}

/// The result of converting one Docker image.
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The Gear image (index + name).
    pub gear_image: GearImage,
    /// Unique Gear files to upload.
    pub files: Vec<GearFile>,
    /// Accounting.
    pub report: ConversionReport,
}

/// The Gear Converter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Converter {
    options: ConverterOptions,
}

impl Converter {
    /// A converter with default options (no chunking, HDD timing).
    pub fn new() -> Self {
        Self::default()
    }

    /// A converter with explicit options.
    pub fn with_options(options: ConverterOptions) -> Self {
        Converter { options }
    }

    /// Converts `image` into a Gear image plus its unique Gear files.
    ///
    /// The conversion is performed once per image, ahead of any pull
    /// (paper §III-B), so its cost never sits on a container's start path.
    ///
    /// # Errors
    ///
    /// [`ConvertError`] if the image's layers cannot be replayed or indexed.
    pub fn convert(&self, image: &Image) -> Result<Conversion, ConvertError> {
        // The replayed root fs becomes the index tree: each inline body is
        // swapped for its placeholder in place. Directories, symlinks and
        // already-converted bodies (possible when re-converting a committed
        // image) stay as they are.
        let mut converted = image.root_fs()?;
        let mut resolver = CollisionResolver::new();
        let mut report = ConversionReport::default();
        let mut files = Vec::new();
        // A body not seen before joins the Gear file set.
        let mut produce = |hash: Fingerprint, content: &Bytes, report: &mut ConversionReport| {
            let (id, new) = resolver.admit(hash, content);
            if let Some(file) = new {
                report.unique_files += 1;
                report.unique_bytes += content.len() as u64;
                files.push(file);
            } else {
                report.duplicate_files += 1;
            }
            id
        };

        // Two visits in one order, nodes sorted by name and parents first:
        // the first gathers every inline body for one hashing batch, the
        // second meets the same files again with the batch's fingerprints.
        let mut bodies: Vec<&Bytes> = Vec::new();
        visit(converted.root(), &mut |node| {
            if let Node::File(FileNode { data: FileData::Inline(content), .. }) = node {
                bodies.push(content);
            }
        });
        let pool = gear_par::Pool::new(self.options.threads);
        let mut fingerprints = gear_hash::fingerprint_all(&bodies, &pool).into_iter();
        let mut place = |file: &mut FileNode| {
            let FileData::Inline(content) = &file.data else { return };
            let Some(whole) = fingerprints.next() else { return };
            let content = content.clone();
            let size = content.len() as u64;
            report.scanned_files += 1;
            report.scanned_bytes += size;
            file.data = if self.options.big_file_threshold.is_some_and(|t| size >= t) {
                let spans: Vec<std::ops::Range<usize>> = match &self.options.cdc {
                    Some(bounds) => gear_hash::chunk_spans(&content, bounds),
                    None => {
                        let step = self.options.chunk_size.max(1) as usize;
                        (0..content.len())
                            .step_by(step)
                            .map(|s| s..(s + step).min(content.len()))
                            .collect()
                    }
                };
                let chunks = spans
                    .into_iter()
                    .map(|span| {
                        let chunk = content.slice(span);
                        let id = produce(Fingerprint::of(&chunk), &chunk, &mut report);
                        ChunkRef { fingerprint: id, size: chunk.len() as u64 }
                    })
                    .collect();
                FileData::Chunked { chunks, size }
            } else {
                FileData::Fingerprint { fingerprint: produce(whole, &content, &mut report), size }
            };
        };
        // The empty path is the root.
        if let Some(root) = converted.get_mut("") {
            visit_files_mut(root, &mut place);
        }

        report.collisions = resolver.collisions();
        let index = GearIndex::from_tree(converted, image.config().clone())?;
        report.index_bytes = index.serialized_len();
        report.duration = self.estimate_duration(&report);

        Ok(Conversion {
            gear_image: GearImage::new(image.reference().clone(), index),
            files,
            report,
        })
    }

    /// Models conversion time: decompress + write the layers, traverse the
    /// tree, hash every file, write unique Gear files, and build the index
    /// (paper §V-B: "conversion time is proportional to the image size"
    /// because small files dominate).
    fn estimate_duration(&self, report: &ConversionReport) -> Duration {
        let disk = &self.options.disk;
        let bytes = |n: u64| n * self.options.byte_scale;
        let files = |n: u64| (n as f64 * self.options.count_scale).round() as u64;
        let unpack = disk.io_time(bytes(report.scanned_bytes), files(report.scanned_files));
        let traverse = disk.traverse_time(files(report.scanned_files));
        let threads = self.options.threads.max(1) as f64;
        let hash = Duration::from_secs_f64(
            bytes(report.scanned_bytes) as f64 / (self.options.hash_bytes_per_sec * threads),
        );
        // Recompression parallelizes per-file (pigz-style): each unique Gear
        // file is an independent gzip stream, so extra workers get full
        // credit, exactly like hashing.
        let recompress = Duration::from_secs_f64(
            bytes(report.unique_bytes) as f64 / (self.options.compress_bytes_per_sec * threads),
        );
        let write_files = disk.io_time(bytes(report.unique_bytes), files(report.unique_files));
        let build_index = disk.io_time(bytes(report.index_bytes), 1);
        unpack + traverse + hash + recompress + write_files + build_index
    }
}

/// Calls `f` on every regular file below `node`, in the order of
/// [`visit`].
fn visit_files_mut(node: &mut Node, f: &mut impl FnMut(&mut FileNode)) {
    match node {
        Node::Dir { children, .. } => {
            for child in children.values_mut() {
                visit_files_mut(child, f);
            }
        }
        Node::File(file) => f(file),
        Node::Symlink(_) => {}
    }
}

/// Result of publishing a conversion to the two registries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Gear files uploaded (new to the store).
    pub files_uploaded: u64,
    /// Bytes of Gear files stored (post-compression if enabled).
    pub file_bytes_stored: u64,
    /// Gear files skipped because the store already had them.
    pub files_deduped: u64,
    /// Compressed bytes the index image added to the Docker registry.
    pub index_bytes_uploaded: u64,
}

/// Publishes a conversion: the index image goes to the Docker registry, the
/// Gear files to the Gear file store. Only files whose fingerprints are
/// absent are uploaded (paper §III-C), as one batch.
pub fn publish(
    conversion: &Conversion,
    docker: &mut DockerRegistry,
    store: &mut GearFileStore,
) -> PublishReport {
    let new: Vec<GearFile> =
        conversion.files.iter().filter(|file| !store.query(file.fingerprint)).cloned().collect();
    let mut report = PublishReport {
        files_deduped: (conversion.files.len() - new.len()) as u64,
        ..PublishReport::default()
    };
    let outcomes = store
        .upload_all(&new)
        .unwrap_or_else(|e| panic!("converter produced invalid fingerprint: {e}"));
    for outcome in outcomes {
        if outcome.stored {
            report.files_uploaded += 1;
            report.file_bytes_stored += outcome.stored_bytes;
        } else {
            report.files_deduped += 1;
        }
    }
    report.index_bytes_uploaded = conversion.gear_image.push(docker).bytes_uploaded;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_fs::FsTree;
    use gear_image::{ImageBuilder, ImageRef};

    fn r(s: &str) -> ImageRef {
        s.parse().unwrap()
    }

    fn image_with(files: &[(&str, &[u8])]) -> Image {
        let mut tree = FsTree::new();
        for (p, c) in files {
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
        }
        ImageBuilder::new(r("test:1")).layer_from_tree(&tree).env("X=1").build()
    }

    #[test]
    fn convert_dedups_identical_files() {
        let image = image_with(&[
            ("a/dup", b"same body"),
            ("b/dup", b"same body"),
            ("c/unique", b"other body"),
        ]);
        let conv = Converter::new().convert(&image).unwrap();
        assert_eq!(conv.report.scanned_files, 3);
        assert_eq!(conv.report.unique_files, 2);
        assert_eq!(conv.report.duplicate_files, 1);
        assert_eq!(conv.files.len(), 2);
        assert_eq!(conv.report.collisions, 0);
        // Both dup paths reference the same fingerprint.
        let idx = conv.gear_image.index();
        assert_eq!(idx.file_at("a/dup"), idx.file_at("b/dup"));
    }

    #[test]
    fn convert_preserves_structure_and_config() {
        let image = image_with(&[("deep/nested/file", b"x")]);
        let conv = Converter::new().convert(&image).unwrap();
        let idx = conv.gear_image.index();
        assert!(idx.file_at("deep/nested/file").is_some());
        assert_eq!(idx.config.env, vec!["X=1"]);
        // Round trip: tree -> placeholders -> same fingerprints.
        let tree = idx.to_tree();
        assert!(tree.contains("deep/nested/file"));
    }

    #[test]
    fn gear_files_hash_to_their_fingerprints() {
        let image = image_with(&[("f1", b"alpha"), ("f2", b"beta")]);
        let conv = Converter::new().convert(&image).unwrap();
        for file in &conv.files {
            assert_eq!(Fingerprint::of(&file.content), file.fingerprint);
        }
    }

    #[test]
    fn big_files_are_chunked() {
        let body: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut tree = FsTree::new();
        tree.create_file("model.bin", Bytes::from(body.clone())).unwrap();
        tree.create_file("small.txt", Bytes::from_static(b"tiny")).unwrap();
        let image = ImageBuilder::new(r("ai:1")).layer_from_tree(&tree).build();
        let conv = Converter::with_options(ConverterOptions {
            big_file_threshold: Some(8192),
            chunk_size: 4096,
            ..Default::default()
        })
        .convert(&image)
        .unwrap();
        let (_, files, big, _) = conv.gear_image.index().node_counts();
        assert_eq!(big, 1);
        assert_eq!(files, 1);
        // 40 KB in 4 KB chunks = 10 chunk files + 1 small file.
        assert_eq!(conv.files.len(), 11);
        // Reassembling chunk contents reproduces the original body.
        let refs = conv.gear_image.index().referenced_files();
        let rebuilt: Vec<u8> = refs
            .iter()
            .filter(|(fp, _)| *fp != Fingerprint::of(b"tiny"))
            .flat_map(|(fp, _)| {
                conv.files.iter().find(|f| f.fingerprint == *fp).unwrap().content.to_vec()
            })
            .collect();
        assert_eq!(rebuilt, body);
    }

    /// Deterministic pseudo-random body (splitmix64 per position) so CDC
    /// boundaries are non-degenerate.
    fn noisy_body(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn cdc_chunks_follow_content_boundaries() {
        let bounds = gear_hash::ChunkerConfig { min_size: 256, avg_size: 1024, max_size: 4096 };
        let body = noisy_body(11, 40_000);
        let mut tree = FsTree::new();
        tree.create_file("model.bin", Bytes::from(body.clone())).unwrap();
        let image = ImageBuilder::new(r("cdc:1")).layer_from_tree(&tree).build();
        let conv = Converter::with_options(ConverterOptions {
            big_file_threshold: Some(4096),
            cdc: Some(bounds),
            ..Default::default()
        })
        .convert(&image)
        .unwrap();
        let (_, _, big, _) = conv.gear_image.index().node_counts();
        assert_eq!(big, 1);
        // Chunk sizes match the CDC spans, not the fixed 1 MiB grid.
        let spans = gear_hash::chunk_spans(&body, &bounds);
        assert_eq!(conv.files.len(), spans.len(), "one gear file per unique CDC chunk");
        let rebuilt: Vec<u8> = conv
            .gear_image
            .index()
            .referenced_files()
            .iter()
            .flat_map(|(fp, _)| {
                conv.files.iter().find(|f| f.fingerprint == *fp).unwrap().content.to_vec()
            })
            .collect();
        assert_eq!(rebuilt, body);
    }

    #[test]
    fn cdc_dedups_edited_versions_where_fixed_grid_cannot_after_insert() {
        // v2 inserts 3 bytes near the start of a large binary: with CDC
        // only the chunks around the insert change fingerprints, so most
        // chunk files dedup across versions; a fixed grid shifts every
        // chunk after the insert.
        let bounds = gear_hash::ChunkerConfig { min_size: 128, avg_size: 512, max_size: 2048 };
        let v1_body = noisy_body(12, 30_000);
        let mut v2_body = v1_body.clone();
        v2_body.splice(100..100, [1u8, 2, 3]);

        let convert = |body: &[u8], cdc: Option<gear_hash::ChunkerConfig>, tag: &str| {
            let mut tree = FsTree::new();
            tree.create_file("bin", Bytes::copy_from_slice(body)).unwrap();
            let image = ImageBuilder::new(r(tag)).layer_from_tree(&tree).build();
            Converter::with_options(ConverterOptions {
                big_file_threshold: Some(1024),
                chunk_size: 512,
                cdc,
                ..Default::default()
            })
            .convert(&image)
            .unwrap()
        };
        let shared = |a: &Conversion, b: &Conversion| {
            let have: std::collections::HashSet<Fingerprint> =
                a.files.iter().map(|f| f.fingerprint).collect();
            b.files.iter().filter(|f| have.contains(&f.fingerprint)).count()
        };

        let cdc_v1 = convert(&v1_body, Some(bounds), "cdc:1");
        let cdc_v2 = convert(&v2_body, Some(bounds), "cdc:2");
        let cdc_shared = shared(&cdc_v1, &cdc_v2);
        assert!(
            cdc_shared * 2 > cdc_v2.files.len(),
            "CDC must dedup most chunks across the edit: {cdc_shared}/{}",
            cdc_v2.files.len()
        );

        let fixed_v1 = convert(&v1_body, None, "fix:1");
        let fixed_v2 = convert(&v2_body, None, "fix:2");
        let fixed_shared = shared(&fixed_v1, &fixed_v2);
        assert!(
            cdc_shared > fixed_shared,
            "CDC shared {cdc_shared} must beat fixed-grid shared {fixed_shared}"
        );
    }

    #[test]
    fn cdc_option_without_threshold_changes_nothing() {
        // The CDC knob alone must not alter conversion: chunking still
        // gates on `big_file_threshold`, so the default config stays
        // bit-identical with or without a chunker config present.
        let body = noisy_body(13, 20_000);
        let mut tree = FsTree::new();
        tree.create_file("bin", Bytes::from(body)).unwrap();
        tree.create_file("small", Bytes::from_static(b"cfg")).unwrap();
        let image = ImageBuilder::new(r("gate:1")).layer_from_tree(&tree).build();
        let default = Converter::new().convert(&image).unwrap();
        let with_knob = Converter::with_options(ConverterOptions {
            cdc: Some(gear_hash::ChunkerConfig::default()),
            ..Default::default()
        })
        .convert(&image)
        .unwrap();
        assert_eq!(default.gear_image.index(), with_knob.gear_image.index());
        assert_eq!(default.files, with_knob.files);
        assert_eq!(default.report, with_knob.report);
    }

    #[test]
    fn collision_resolver_assigns_unique_ids() {
        let mut resolver = CollisionResolver::new();
        let fp = Fingerprint::of(b"the hash");
        let a = Bytes::from_static(b"content A");
        let b = Bytes::from_static(b"content B");
        // Simulate two different contents claiming the same fingerprint.
        let (id_a, dedup_a) = resolver.resolve(fp, &a);
        let (id_b, dedup_b) = resolver.resolve(fp, &b);
        assert_eq!(id_a, fp);
        assert!(dedup_a);
        assert_ne!(id_b, fp, "colliding file must get a fresh id");
        assert!(!dedup_b, "collision fallback is excluded from dedup");
        assert_eq!(resolver.collisions(), 1);
        // Same content as A again: dedups to the original fingerprint.
        let (id_a2, _) = resolver.resolve(fp, &a);
        assert_eq!(id_a2, fp);
        // A third distinct content colliding again gets yet another id.
        let c = Bytes::from_static(b"content C");
        let (id_c, _) = resolver.resolve(fp, &c);
        assert_ne!(id_c, fp);
        assert_ne!(id_c, id_b);
    }

    /// A real MD5 collision (Wang et al.'s 128-byte pair): the second body
    /// gets a salted id, the store takes it as such and stays clean, and
    /// each path's id fetches its own body.
    #[test]
    fn a_real_md5_collision_publishes_under_a_salted_id() {
        let a = gear_hash::hex_decode(
            "d131dd02c5e6eec4693d9a0698aff95c2fcab58712467eab4004583eb8fb7f89\
             55ad340609f4b30283e488832571415a085125e8f7cdc99fd91dbdf280373c5b\
             d8823e3156348f5bae6dacd436c919c6dd53e2b487da03fd02396306d248cda0\
             e99f33420f577ee8ce54b67080a80d1ec69821bcb6a8839396f9652b6ff72a70",
        )
        .unwrap();
        let b = gear_hash::hex_decode(
            "d131dd02c5e6eec4693d9a0698aff95c2fcab50712467eab4004583eb8fb7f89\
             55ad340609f4b30283e4888325f1415a085125e8f7cdc99fd91dbd7280373c5b\
             d8823e3156348f5bae6dacd436c919c6dd53e23487da03fd02396306d248cda0\
             e99f33420f577ee8ce54b67080280d1ec69821bcb6a8839396f965ab6ff72a70",
        )
        .unwrap();
        assert_ne!(a, b);
        for body in [&a, &b] {
            assert_eq!(Fingerprint::of(body).to_string(), "79054025255fb1a26e4bc422aef54eb4");
        }

        let image = image_with(&[("pair/a", &a), ("pair/b", &b)]);
        let conv = Converter::new().convert(&image).unwrap();
        assert_eq!(conv.report.collisions, 1);
        let salts: Vec<Option<u64>> = conv.files.iter().map(|f| f.salt).collect();
        assert_eq!(salts, [None, Some(0)]);

        let mut docker = DockerRegistry::new();
        let mut store = GearFileStore::with_compression();
        let report = publish(&conv, &mut docker, &mut store);
        assert_eq!(report.files_uploaded, 2);
        assert!(store.verify().is_empty(), "a salted object verifies with its salt");
        let index = conv.gear_image.index();
        for (path, body) in [("pair/a", &a), ("pair/b", &b)] {
            let (id, _) = index.file_at(path).unwrap();
            assert_eq!(store.download(id).as_deref(), Some(&body[..]), "{path}");
        }
    }

    #[test]
    fn conversion_time_scales_with_size_and_disk() {
        let small = image_with(&[("f", &[0u8; 1000])]);
        let many: Vec<(String, Vec<u8>)> =
            (0..200).map(|i| (format!("f{i}"), vec![i as u8; 5000])).collect();
        let mut tree = FsTree::new();
        for (p, c) in &many {
            tree.create_file(p, Bytes::from(c.clone())).unwrap();
        }
        let large = ImageBuilder::new(r("big:1")).layer_from_tree(&tree).build();

        let hdd = Converter::with_options(ConverterOptions::default());
        let ssd = Converter::with_options(ConverterOptions {
            disk: DiskModel::ssd(),
            ..Default::default()
        });
        let t_small = hdd.convert(&small).unwrap().report.duration;
        let t_large = hdd.convert(&large).unwrap().report.duration;
        let t_large_ssd = ssd.convert(&large).unwrap().report.duration;
        assert!(t_large > t_small);
        assert!(t_large_ssd < t_large, "SSD conversion must be faster (paper §V-B)");
    }

    #[test]
    fn parallel_conversion_matches_serial() {
        let files: Vec<(String, Vec<u8>)> =
            (0..200).map(|i| (format!("data/f{i:03}"), vec![i as u8; 700])).collect();
        let mut tree = FsTree::new();
        for (p, c) in &files {
            tree.create_file(p, Bytes::from(c.clone())).unwrap();
        }
        let image = ImageBuilder::new(r("par:1")).layer_from_tree(&tree).build();
        let serial = Converter::new().convert(&image).unwrap();
        let parallel = Converter::with_options(ConverterOptions {
            threads: 4,
            ..Default::default()
        })
        .convert(&image)
        .unwrap();
        assert_eq!(parallel.gear_image.index(), serial.gear_image.index());
        assert_eq!(parallel.files.len(), serial.files.len());
        // The time model credits the extra threads for hashing.
        assert!(parallel.report.duration <= serial.report.duration);
    }

    #[test]
    fn publish_dedups_across_images() {
        let v1 = image_with(&[("shared", b"library bytes"), ("only1", b"one")]);
        let mut tree = FsTree::new();
        tree.create_file("shared", Bytes::from_static(b"library bytes")).unwrap();
        tree.create_file("only2", Bytes::from_static(b"two")).unwrap();
        let v2 = ImageBuilder::new(r("test:2")).layer_from_tree(&tree).build();

        let mut docker = DockerRegistry::new();
        let mut store = GearFileStore::new();
        let c1 = Converter::new().convert(&v1).unwrap();
        let c2 = Converter::new().convert(&v2).unwrap();
        let p1 = publish(&c1, &mut docker, &mut store);
        let p2 = publish(&c2, &mut docker, &mut store);
        assert_eq!(p1.files_uploaded, 2);
        assert_eq!(p2.files_uploaded, 1, "shared file must not be re-uploaded");
        assert_eq!(p2.files_deduped, 1);
        assert_eq!(store.object_count(), 3);
        // Both index images are pullable from the Docker registry.
        assert!(docker.image(&r("test:1")).is_some());
        assert!(docker.image(&r("test:2")).is_some());
    }
}
