//! Deduplication-granularity analysis (paper §II-D, Table II).
//!
//! Given an image corpus, computes the registry storage footprint and the
//! number of unique objects under four schemes:
//!
//! | scheme       | object                         | compression      |
//! |--------------|--------------------------------|------------------|
//! | none         | one unpacked image             | none             |
//! | layer-level  | unique compressed layer        | per layer        |
//! | file-level   | unique file                    | per file         |
//! | chunk-level  | unique fixed-size chunk        | per chunk        |
//!
//! The paper's numbers (370 GB → 98 GB → 47 GB → 43 GB, with objects
//! exploding from 5.7 k layers to 10.5 M chunks at 128 KiB) motivate Gear's
//! choice of *file* granularity: nearly chunk-level space savings at a
//! fraction of the object-management cost.

use std::collections::HashMap;

use gear_compress::{compressed_size, Level};
use gear_hash::{Digest, Fingerprint};
use gear_image::Image;

/// Storage usage and object count under one deduplication scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GranularityRow {
    /// Bytes the registry stores under this scheme.
    pub storage_bytes: u64,
    /// Number of unique stored objects.
    pub objects: u64,
}

/// The four rows of Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupReport {
    /// No deduplication, no compression: every image stored unpacked.
    pub none: GranularityRow,
    /// Layer-level deduplication over per-layer compressed blobs (what
    /// Docker registries do).
    pub layer_level: GranularityRow,
    /// File-level deduplication over per-file compressed objects (what Gear
    /// does).
    pub file_level: GranularityRow,
    /// Chunk-level deduplication over per-chunk compressed objects.
    pub chunk_level: GranularityRow,
}

impl DedupReport {
    /// Space saved by `row` relative to storing with no deduplication.
    pub fn saving_vs_none(&self, row: GranularityRow) -> f64 {
        if self.none.storage_bytes == 0 {
            return 0.0;
        }
        1.0 - row.storage_bytes as f64 / self.none.storage_bytes as f64
    }
}

/// Configuration for [`analyze`].
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Chunk size for the chunk-level scheme. The paper uses 128 KiB at full
    /// Docker Hub scale; scale it with the corpus (see `gear-corpus`).
    pub chunk_size: usize,
    /// Compression level applied at every compressing granularity.
    pub level: Level,
    /// Bytes of per-object storage metadata charged for each stored file or
    /// chunk, replacing the compression frame's fixed header in the
    /// accounting. At full scale the real header (≈17 B per 128 KiB chunk,
    /// 0.01 %) is the honest choice; a corpus scaled down by `1/s` should
    /// charge `header / s` (usually 0) so metadata overhead keeps its
    /// real-world *proportion*.
    pub object_overhead: usize,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunk_size: 128 * 1024,
            level: Level::Fast,
            object_overhead: gear_compress::FRAME_OVERHEAD,
        }
    }
}

impl DedupConfig {
    /// Config for a corpus scaled down by `scale_denom`: chunk size and
    /// per-object overhead shrink together so both keep their full-scale
    /// proportions.
    pub fn scaled(scale_denom: u64) -> Self {
        DedupConfig {
            chunk_size: ((128 * 1024) / scale_denom as usize).max(16),
            level: Level::Fast,
            object_overhead: gear_compress::FRAME_OVERHEAD / scale_denom as usize,
        }
    }

    fn object_size(&self, content: &[u8]) -> u64 {
        (compressed_size(content, self.level) - gear_compress::FRAME_OVERHEAD
            + self.object_overhead) as u64
    }
}

/// Runs the granularity study over `images`.
///
/// Uniqueness keys: compressed-blob digest for layers, content MD5 for files
/// and chunks — the same identifiers the real systems use.
pub fn analyze(images: &[Image], config: DedupConfig) -> DedupReport {
    let mut report = DedupReport::default();

    // No dedup: every image stored unpacked, one object per image.
    for image in images {
        report.none.storage_bytes += image.uncompressed_size();
        report.none.objects += 1;
    }

    // Layer-level: unique layers, compressed individually.
    let mut seen_layers: HashMap<Digest, u64> = HashMap::new();
    for image in images {
        for layer in image.layers() {
            seen_layers.entry(layer.diff_id()).or_insert_with(|| {
                compressed_size(&layer.archive().to_bytes(), config.level) as u64
            });
        }
    }
    report.layer_level.objects = seen_layers.len() as u64;
    report.layer_level.storage_bytes = seen_layers.values().sum();

    // File-level: unique file contents, compressed individually.
    let mut seen_files: HashMap<Fingerprint, u64> = HashMap::new();
    let mut chunk_sizes: HashMap<Fingerprint, u64> = HashMap::new();
    for image in images {
        for layer in image.layers() {
            for entry in layer.archive() {
                if let gear_archive::EntryKind::File { content, .. } = &entry.kind {
                    let fp = Fingerprint::of(content);
                    seen_files.entry(fp).or_insert_with(|| config.object_size(content));
                    // Chunk-level: split the same content stream.
                    if !content.is_empty() {
                        for chunk in content.chunks(config.chunk_size.max(1)) {
                            let cfp = Fingerprint::of(chunk);
                            chunk_sizes.entry(cfp).or_insert_with(|| config.object_size(chunk));
                        }
                    }
                }
            }
        }
    }
    report.file_level.objects = seen_files.len() as u64;
    report.file_level.storage_bytes = seen_files.values().sum();
    report.chunk_level.objects = chunk_sizes.len() as u64;
    report.chunk_level.storage_bytes = chunk_sizes.values().sum();

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_archive::{Archive, ArchivePath, Entry, Metadata};
    use gear_image::{ImageBuilder, ImageRef};

    fn r(s: &str) -> ImageRef {
        s.parse().unwrap()
    }

    fn file_entry(path: &str, body: &[u8]) -> Entry {
        Entry::file(
            ArchivePath::new(path).unwrap(),
            Metadata::file_default(),
            Bytes::copy_from_slice(body),
        )
    }

    /// Incompressible pseudo-random bytes so dedup effects dominate
    /// compression-framing overheads. Uses splitmix64 over `(seed, index)`
    /// so streams from different seeds share no substrings (a plain xorshift
    /// walk from different seeds yields shifted copies of one orbit).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let mut z = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Two versions sharing a big base layer plus app files where v2's
    /// binary differs from v1's only in its final bytes.
    fn corpus() -> Vec<Image> {
        let mut base = Archive::new();
        base.push(file_entry("lib/base.so", &noise(1, 4096)));
        let shared_cfg = noise(2, 3000);
        let bin_v1 = noise(3, 4096);
        let mut bin_v2 = bin_v1.clone();
        let n = bin_v2.len();
        bin_v2[n - 32..].copy_from_slice(&noise(4, 32));

        let mut app_v1 = Archive::new();
        app_v1.push(file_entry("app/bin", &bin_v1));
        app_v1.push(file_entry("app/shared.cfg", &shared_cfg));
        let mut app_v2 = Archive::new();
        app_v2.push(file_entry("app/bin", &bin_v2));
        app_v2.push(file_entry("app/shared.cfg", &shared_cfg));

        let v1 = ImageBuilder::new(r("app:1")).layer(base.clone()).layer(app_v1).build();
        let v2 = ImageBuilder::new(r("app:2")).layer(base).layer(app_v2).build();
        vec![v1, v2]
    }

    #[test]
    fn granularities_are_ordered() {
        let report = analyze(
            &corpus(),
            DedupConfig { chunk_size: 256, level: Level::Fast, ..Default::default() },
        );
        assert!(report.layer_level.storage_bytes < report.none.storage_bytes);
        assert!(report.file_level.storage_bytes < report.layer_level.storage_bytes);
        assert!(report.chunk_level.storage_bytes <= report.file_level.storage_bytes);
        assert!(report.chunk_level.objects > report.file_level.objects);
        assert!(report.file_level.objects > report.layer_level.objects);
    }

    #[test]
    fn shared_layer_counted_once() {
        let report = analyze(&corpus(), DedupConfig::default());
        // base, app_v1, app_v2 => 3 unique layers (base shared).
        assert_eq!(report.layer_level.objects, 3);
        // base.so, bin-v1, bin-v2, shared.cfg => 4 unique files.
        assert_eq!(report.file_level.objects, 4);
        assert_eq!(report.none.objects, 2);
    }

    #[test]
    fn savings_fractions() {
        let report = analyze(&corpus(), DedupConfig::default());
        let layer_saving = report.saving_vs_none(report.layer_level);
        let file_saving = report.saving_vs_none(report.file_level);
        assert!(layer_saving > 0.0 && layer_saving < 1.0);
        assert!(file_saving > layer_saving);
    }

    #[test]
    fn empty_corpus_is_all_zero() {
        let report = analyze(&[], DedupConfig::default());
        assert_eq!(report, DedupReport::default());
    }
}
