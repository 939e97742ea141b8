//! `repro hotpath`: wall-clock microbenchmarks for the three hot paths
//! touched by the performance overhaul.
//!
//! Three suites, one per hot path:
//!
//! * **convert** — Docker→Gear conversion of the first image of every
//!   series, swept over worker counts. Reports the modeled duration (the
//!   deterministic cost model, where hashing and per-file recompression
//!   scale with workers), the measured wall-clock of the actual in-memory
//!   conversion, paper-scale throughput, and a bit-identical check of the
//!   parallel output against the serial run. The NVMe disk model is used so
//!   the CPU-bound phases dominate, as they do on the machines where
//!   parallel conversion matters.
//! * **cache** — [`MemStore`] insert/get churn at full capacity across a
//!   16× range of cache sizes. Every insert evicts, so this measures the
//!   eviction path directly; with the ordered index the per-op cost is
//!   O(log n) and ops/s stays flat as the cache grows (the scan-based
//!   eviction it replaced degrades linearly).
//! * **union** — [`UnionFs`] path resolution, cold (first lookup walks the
//!   layers) versus warm (repeated lookups served by the interned resolve
//!   cache).
//! * **compress** — block-parallel `GZc2` compression of a corpus-derived
//!   buffer, swept over `level x workers`. Reports real MB/s, the cost
//!   model's MB/s (per-file recompression rate credited across workers with
//!   static block chunking), the modeled speedup, and whether every worker
//!   count produced a byte-identical frame. Real wall-clock depends on the
//!   host's core count, so only the deterministic columns are gated.
//! * **kernels** — word-wise kernel throughput: slice-by-8 CRC-32,
//!   direct-from-slice MD5/SHA-256 blocks, and the `u64` XOR +
//!   `trailing_zeros` LZSS match scanner, all in GB/s.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gear_store::{EvictionPolicy, MemStore};
use gear_compress::{compress_with, crc32, Level, Lzss, BLOCK_SIZE};
use gear_core::{Converter, ConverterOptions};
use gear_fs::{FsTree, UnionFs};
use gear_hash::{Fingerprint, Md5, Sha256};
use gear_par::Pool;
use gear_simnet::DiskModel;

use super::{secs, ExperimentContext};
use crate::artifact::{Bound, Metric, Outcome};

/// Worker counts the convert sweep covers.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Cache body size for the churn benchmark (bytes per entry).
const CACHE_ENTRY_BYTES: u64 = 1024;

/// One worker count's conversion measurements.
#[derive(Debug, Clone)]
pub struct ConvertPoint {
    /// Worker count.
    pub threads: usize,
    /// Summed modeled conversion time across the sampled images.
    pub modeled: Duration,
    /// Modeled speedup over the serial run.
    pub modeled_speedup: f64,
    /// Measured wall-clock of the conversions themselves.
    pub wall: Duration,
    /// Paper-scale scanned bytes over modeled seconds, in MB/s.
    pub throughput_mb_s: f64,
    /// Whether every index and file pool matched the serial run exactly.
    pub bit_identical: bool,
}

/// One cache size's churn measurements.
#[derive(Debug, Clone)]
pub struct CachePoint {
    /// Resident capacity in entries.
    pub entries: usize,
    /// Operations performed (alternating evicting inserts and gets).
    pub ops: u64,
    /// Wall-clock for the whole churn loop.
    pub wall: Duration,
    /// Operations per second.
    pub ops_per_sec: f64,
}

/// Union-mount lookup measurements.
#[derive(Debug, Clone)]
pub struct UnionBench {
    /// Distinct paths resolved (files plus symlink aliases).
    pub paths: usize,
    /// First-lookup rate: every resolution walks the layers.
    pub cold_lookups_per_sec: f64,
    /// Repeated-lookup rate: resolutions served by the cache.
    pub warm_lookups_per_sec: f64,
    /// Warm over cold rate ratio.
    pub warm_over_cold: f64,
    /// Resolve-cache hits recorded by the mount during the warm passes.
    pub resolve_cache_hits: u64,
}

/// One `level x workers` block-compression measurement.
#[derive(Debug, Clone)]
pub struct CompressPoint {
    /// Compression level label (`"fast"` / `"default"`).
    pub level: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Input bytes over measured wall-clock, in MB/s (machine-dependent).
    pub real_mb_s: f64,
    /// Cost-model throughput: the converter's per-file recompression rate
    /// credited across workers under static block chunking.
    pub modeled_mb_s: f64,
    /// Modeled speedup over the serial row (deterministic: depends only on
    /// the block count and worker count).
    pub modeled_speedup: f64,
    /// Compressed over uncompressed size.
    pub ratio: f64,
    /// Whether the frame matched the serial frame byte for byte.
    pub bit_identical: bool,
}

/// Word-wise kernel throughputs, in GB/s (machine-dependent).
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Buffer size the kernels ran over.
    pub bytes: usize,
    /// Slice-by-8 CRC-32.
    pub crc32_gb_s: f64,
    /// MD5 with direct-from-slice block compression.
    pub md5_gb_s: f64,
    /// SHA-256 with direct-from-slice block compression.
    pub sha256_gb_s: f64,
    /// The 8-bytes-at-a-time LZSS match scanner (matched bytes per second).
    pub match_len_gb_s: f64,
}

/// The full hot-path benchmark result.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// Convert sweep, one row per worker count (serial first).
    pub convert: Vec<ConvertPoint>,
    /// Cache churn, one row per cache size (ascending).
    pub cache: Vec<CachePoint>,
    /// Union lookup rates.
    pub union: UnionBench,
    /// Block-compression sweep, grouped by level then worker count.
    pub compress: Vec<CompressPoint>,
    /// Word-wise kernel throughputs.
    pub kernels: KernelBench,
}

impl Hotpath {
    /// Modeled convert speedup at a worker count, if that count was swept.
    pub fn convert_speedup(&self, threads: usize) -> Option<f64> {
        self.convert.iter().find(|p| p.threads == threads).map(|p| p.modeled_speedup)
    }

    /// Ops/s at the largest cache size over ops/s at the smallest: ~1.0 for
    /// O(log n) eviction, ~`smallest/largest` for a linear scan.
    pub fn cache_flatness(&self) -> f64 {
        match (self.cache.first(), self.cache.last()) {
            (Some(small), Some(large)) if small.ops_per_sec > 0.0 => {
                large.ops_per_sec / small.ops_per_sec
            }
            _ => 0.0,
        }
    }

    /// Flattens the benchmark into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for point in &self.convert {
            let prefix = format!("convert/threads{}", point.threads);
            metrics
                .push(Metric::new(format!("{prefix}/modeled_secs"), point.modeled.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/modeled_speedup"), point.modeled_speedup));
            metrics.push(Metric::new(format!("{prefix}/wall_secs"), point.wall.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/throughput_mb_s"), point.throughput_mb_s));
            metrics.push(Metric::flag(format!("{prefix}/bit_identical"), point.bit_identical));
        }
        for point in &self.cache {
            metrics.push(Metric::new(
                format!("cache/entries{}/ops_per_sec", point.entries),
                point.ops_per_sec,
            ));
        }
        metrics.push(Metric::new("cache/flatness", self.cache_flatness()));
        metrics.push(Metric::new("union/cold_lookups_per_sec", self.union.cold_lookups_per_sec));
        metrics.push(Metric::new("union/warm_lookups_per_sec", self.union.warm_lookups_per_sec));
        metrics.push(Metric::new("union/warm_over_cold", self.union.warm_over_cold));
        metrics
            .push(Metric::new("union/resolve_cache_hits", self.union.resolve_cache_hits as f64));
        for point in &self.compress {
            let prefix = format!("compress/{}/workers{}", point.level, point.workers);
            metrics.push(Metric::new(format!("{prefix}/real_mb_s"), point.real_mb_s));
            metrics.push(Metric::new(format!("{prefix}/modeled_mb_s"), point.modeled_mb_s));
            metrics.push(Metric::new(format!("{prefix}/modeled_speedup"), point.modeled_speedup));
            metrics.push(Metric::new(format!("{prefix}/ratio"), point.ratio));
            metrics.push(Metric::flag(format!("{prefix}/bit_identical"), point.bit_identical));
        }
        metrics.push(Metric::new("kernels/crc32_gb_s", self.kernels.crc32_gb_s));
        metrics.push(Metric::new("kernels/md5_gb_s", self.kernels.md5_gb_s));
        metrics.push(Metric::new("kernels/sha256_gb_s", self.kernels.sha256_gb_s));
        metrics.push(Metric::new("kernels/match_len_gb_s", self.kernels.match_len_gb_s));
        metrics
    }

    /// The benchmark's outcome; a baseline records [`floors`].
    pub fn outcome(&self) -> Outcome {
        Outcome { metrics: self.metrics(), recorded: floors(), ..Outcome::text(self) }
    }
}

/// The hot-path floors a recorded baseline enforces: the modeled 8-worker
/// conversion speedup, bit-identical parallel output, flat cache ops/s
/// across a 16x size range, warm union lookups beating cold, and the
/// block-compression invariants (bit-identical frames at every worker
/// count, the modeled 8-worker speedup, and the ratio not collapsing to
/// stored blocks). Absolute wall-clock rates vary by machine, so only
/// deterministic and scale-free ratio metrics are gated tightly. The ratio
/// floors are deliberately loose — they catch a return to linear eviction
/// scans (flatness ~0.06), a dead resolve cache (warm/cold ~1.0), or a
/// broken block split without flaking on noisy CI machines.
/// Real-throughput floors (MB/s, GB/s) are order-of-magnitude tripwires
/// only: they fail when a kernel falls back to a byte-at-a-time loop, not
/// when the runner is merely slow.
pub fn floors() -> Vec<Bound> {
    vec![
        Bound::floor("convert/threads8/modeled_speedup", 4.0),
        Bound::floor("convert/threads8/bit_identical", 1.0),
        Bound::floor("cache/flatness", 0.2),
        Bound::floor("union/warm_over_cold", 1.5),
        // Deterministic block-compression gates.
        Bound::floor("compress/default/workers8/modeled_speedup", 4.0),
        Bound::floor("compress/default/workers8/bit_identical", 1.0),
        Bound::floor("compress/default/workers2/bit_identical", 1.0),
        Bound::floor("compress/fast/workers8/bit_identical", 1.0),
        // Machine-loose throughput tripwires.
        Bound::floor("compress/default/workers1/real_mb_s", 1.0),
        Bound::floor("kernels/crc32_gb_s", 0.2),
        Bound::floor("kernels/md5_gb_s", 0.03),
        Bound::floor("kernels/sha256_gb_s", 0.02),
        Bound::floor("kernels/match_len_gb_s", 0.2),
    ]
}

/// Runs all five suites. `quick` shrinks the op counts for CI smoke runs
/// and tests.
pub fn run(ctx: &ExperimentContext, quick: bool) -> Hotpath {
    let corpus_buffer = corpus_buffer(ctx, quick);
    Hotpath {
        convert: run_convert(ctx),
        cache: run_cache(quick),
        union: run_union(quick),
        compress: run_compress(&corpus_buffer),
        kernels: run_kernels(&corpus_buffer),
    }
}

/// Builds a compression workload from real corpus content: serialized layer
/// archives of the first image of each series, concatenated and tiled to a
/// fixed multiple of [`BLOCK_SIZE`] so the block count — and with it the
/// modeled speedups — is the same at every corpus scale.
fn corpus_buffer(ctx: &ExperimentContext, quick: bool) -> Vec<u8> {
    let blocks = if quick { 8 } else { 16 };
    let target = blocks * BLOCK_SIZE;
    let mut buffer = Vec::with_capacity(target + BLOCK_SIZE);
    'fill: loop {
        for series in &ctx.corpus.series {
            let Some(image) = series.images.first() else { continue };
            for layer in image.layers() {
                buffer.extend_from_slice(&layer.archive().to_bytes());
                if buffer.len() >= target {
                    break 'fill;
                }
            }
        }
        if buffer.is_empty() {
            // Degenerate corpus: fall back to a synthetic page so the suite
            // still runs.
            buffer.extend_from_slice(&[0xA5; 4096]);
        }
    }
    buffer.truncate(target);
    buffer
}

fn run_compress(buffer: &[u8]) -> Vec<CompressPoint> {
    let blocks = buffer.len().div_ceil(BLOCK_SIZE);
    let model_rate = ConverterOptions::default().compress_bytes_per_sec;
    let mut points = Vec::new();
    for (label, level) in [("fast", Level::Fast), ("default", Level::Default)] {
        let mut serial_frame: Vec<u8> = Vec::new();
        for workers in THREAD_SWEEP {
            let pool = Pool::new(workers);
            let start = Instant::now();
            let frame = compress_with(buffer, level, &pool);
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            if workers == 1 {
                serial_frame = frame.clone();
            }
            // Static chunking: the slowest worker carries ceil(blocks/w)
            // blocks, so modeled time scales by that over the serial count.
            let modeled_speedup = blocks as f64 / blocks.div_ceil(workers) as f64;
            points.push(CompressPoint {
                level: label,
                workers,
                real_mb_s: buffer.len() as f64 / 1.0e6 / wall,
                modeled_mb_s: model_rate * modeled_speedup / 1.0e6,
                modeled_speedup,
                ratio: frame.len() as f64 / buffer.len() as f64,
                bit_identical: frame == serial_frame,
            });
        }
    }
    points
}

fn run_kernels(buffer: &[u8]) -> KernelBench {
    let gb = |bytes: usize, secs: f64| bytes as f64 / 1.0e9 / secs.max(1e-9);

    let start = Instant::now();
    let mut crc_acc = 0u32;
    for _ in 0..4 {
        crc_acc ^= crc32(buffer);
    }
    let crc_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(crc_acc);

    let start = Instant::now();
    let mut md5 = Md5::new();
    md5.update(buffer);
    std::hint::black_box(md5.finalize());
    let md5_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut sha = Sha256::new();
    sha.update(buffer);
    std::hint::black_box(sha.finalize());
    let sha_secs = start.elapsed().as_secs_f64();

    // Match scanning: double the buffer's first half so position `i` and
    // `i + half` hold identical content — every probe then runs the
    // long-match fast path the word-wise kernel accelerates.
    let half = buffer.len() / 2;
    let doubled: Vec<u8> = [&buffer[..half], &buffer[..half]].concat();
    let start = Instant::now();
    let mut matched = 0usize;
    let mut i = 0;
    while i + half + 8 < doubled.len() {
        matched += Lzss::match_len(&doubled, i, i + half);
        i += 64;
    }
    let match_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(matched);

    KernelBench {
        bytes: buffer.len(),
        crc32_gb_s: gb(buffer.len() * 4, crc_secs),
        md5_gb_s: gb(buffer.len(), md5_secs),
        sha256_gb_s: gb(buffer.len(), sha_secs),
        match_len_gb_s: gb(matched, match_secs),
    }
}

fn run_convert(ctx: &ExperimentContext) -> Vec<ConvertPoint> {
    let scale = ctx.corpus.config.scale_denom;
    // First image of each series: no cross-version redundancy, so the
    // recompression phase (the parallel term that matters) is exercised on
    // close-to-unique content.
    let images: Vec<_> = ctx.corpus.series.iter().filter_map(|s| s.images.first()).collect();

    let mut serial_outputs: Vec<(Vec<u8>, Vec<Fingerprint>)> = Vec::new();
    let mut points = Vec::new();
    for threads in THREAD_SWEEP {
        let mut modeled = Duration::ZERO;
        let mut scanned_paper_bytes = 0u64;
        let mut identical = true;
        let start = Instant::now();
        for (i, image) in images.iter().enumerate() {
            let converter = Converter::with_options(ConverterOptions {
                disk: DiskModel::nvme(),
                byte_scale: scale,
                count_scale: 1.0,
                threads,
                ..Default::default()
            });
            let conv = converter.convert(image).expect("corpus images convert");
            modeled += conv.report.duration;
            scanned_paper_bytes += conv.report.scanned_bytes * scale;
            let index_json = conv.gear_image.index().to_json();
            let pool: Vec<Fingerprint> = conv.files.iter().map(|f| f.fingerprint).collect();
            if threads == 1 {
                serial_outputs.push((index_json, pool));
            } else {
                let (ref serial_json, ref serial_pool) = serial_outputs[i];
                identical &= index_json == *serial_json && pool == *serial_pool;
            }
        }
        let wall = start.elapsed();
        let serial_modeled =
            points.first().map_or(modeled, |p: &ConvertPoint| p.modeled);
        points.push(ConvertPoint {
            threads,
            modeled,
            modeled_speedup: serial_modeled.as_secs_f64() / modeled.as_secs_f64().max(1e-12),
            wall,
            throughput_mb_s: scanned_paper_bytes as f64 / 1.0e6
                / modeled.as_secs_f64().max(1e-12),
            bit_identical: identical,
        });
    }
    points
}

fn run_cache(quick: bool) -> Vec<CachePoint> {
    let sizes: [usize; 3] = [256, 1024, 4096];
    let ops: u64 = if quick { 30_000 } else { 200_000 };
    let body = Bytes::from(vec![0u8; CACHE_ENTRY_BYTES as usize]);

    // Pre-compute fingerprints so the loop times the cache, not MD5.
    let max_keys = sizes[sizes.len() - 1] as u64 + ops;
    let keys: Vec<Fingerprint> =
        (0..max_keys).map(|i| Fingerprint::of(&i.to_le_bytes())).collect();

    let mut points = Vec::new();
    for entries in sizes {
        let capacity = entries as u64 * CACHE_ENTRY_BYTES;
        let mut cache = MemStore::with_policy(EvictionPolicy::Lru, Some(capacity));
        for key in &keys[..entries] {
            cache.insert(*key, body.clone());
        }
        debug_assert_eq!(cache.len(), entries);

        let start = Instant::now();
        let mut next = entries as u64;
        let mut performed = 0u64;
        while performed < ops {
            // One evicting insert...
            cache.insert(keys[next as usize], body.clone());
            next += 1;
            performed += 1;
            // ...and one get of a resident key, to mix recency traffic in.
            let resident = next - 1 - (performed * 7 % entries as u64);
            cache.get(keys[resident as usize]);
            performed += 1;
        }
        let wall = start.elapsed();
        points.push(CachePoint {
            entries,
            ops: performed,
            wall,
            ops_per_sec: performed as f64 / wall.as_secs_f64().max(1e-9),
        });
    }
    points
}

fn run_union(quick: bool) -> UnionBench {
    let files: usize = if quick { 512 } else { 4096 };
    let warm_passes: usize = if quick { 8 } else { 16 };

    let mut lower = FsTree::new();
    let mut paths = Vec::with_capacity(files + files / 8);
    for i in 0..files {
        let path = format!("d{}/s{}/f{i}", i % 16, (i / 16) % 16);
        lower.create_file(&path, Bytes::from(vec![i as u8; 16])).expect("distinct paths");
        paths.push(path);
    }
    let mut union = UnionFs::new(vec![Arc::new(lower)]);
    // Symlink aliases exercise the multi-hop resolution the cache
    // short-circuits.
    for i in (0..files).step_by(8) {
        let alias = format!("alias{i}");
        union.symlink(&alias, paths[i].clone()).expect("fresh alias");
        paths.push(alias);
    }

    let before = union.stats();
    let start = Instant::now();
    for path in &paths {
        union.metadata(path).expect("path exists");
    }
    let cold_wall = start.elapsed();

    let start = Instant::now();
    for _ in 0..warm_passes {
        for path in &paths {
            union.metadata(path).expect("path exists");
        }
    }
    let warm_wall = start.elapsed();
    let hits = union.stats().resolve_cache_hits - before.resolve_cache_hits;

    let cold_rate = paths.len() as f64 / cold_wall.as_secs_f64().max(1e-9);
    let warm_rate =
        (paths.len() * warm_passes) as f64 / warm_wall.as_secs_f64().max(1e-9);
    UnionBench {
        paths: paths.len(),
        cold_lookups_per_sec: cold_rate,
        warm_lookups_per_sec: warm_rate,
        warm_over_cold: warm_rate / cold_rate.max(1e-9),
        resolve_cache_hits: hits,
    }
}

/// Formats a rate with a thousands-friendly unit.
fn rate(per_sec: f64) -> String {
    if per_sec >= 1.0e6 {
        format!("{:.1}M/s", per_sec / 1.0e6)
    } else if per_sec >= 1.0e3 {
        format!("{:.1}k/s", per_sec / 1.0e3)
    } else {
        format!("{per_sec:.0}/s")
    }
}

impl fmt::Display for Hotpath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Hot-path microbenchmarks")?;
        writeln!(f, "convert: first image of each series, NVMe disk model")?;
        writeln!(
            f,
            "{:<9}{:>11}{:>10}{:>11}{:>12}{:>11}",
            "threads", "modeled", "speedup", "wall", "MB/s", "identical"
        )?;
        for p in &self.convert {
            writeln!(
                f,
                "{:<9}{:>11}{:>9.2}x{:>11}{:>12.1}{:>11}",
                p.threads,
                secs(p.modeled),
                p.modeled_speedup,
                format!("{:.3}s", p.wall.as_secs_f64()),
                p.throughput_mb_s,
                if p.bit_identical { "yes" } else { "NO" }
            )?;
        }
        writeln!(f)?;
        writeln!(f, "cache: LRU churn at capacity, {CACHE_ENTRY_BYTES} B entries")?;
        writeln!(f, "{:<9}{:>9}{:>11}{:>12}", "entries", "ops", "wall", "ops/s")?;
        for p in &self.cache {
            writeln!(
                f,
                "{:<9}{:>9}{:>11}{:>12}",
                p.entries,
                p.ops,
                format!("{:.3}s", p.wall.as_secs_f64()),
                rate(p.ops_per_sec)
            )?;
        }
        writeln!(
            f,
            "flatness (ops/s at {} / at {}): {:.2}",
            self.cache.last().map_or(0, |p| p.entries),
            self.cache.first().map_or(0, |p| p.entries),
            self.cache_flatness()
        )?;
        writeln!(f)?;
        writeln!(f, "union: {} paths (files + symlink aliases)", self.union.paths)?;
        writeln!(f, "cold lookups: {}", rate(self.union.cold_lookups_per_sec))?;
        writeln!(
            f,
            "warm lookups: {} ({:.1}x cold, {} resolve-cache hits)",
            rate(self.union.warm_lookups_per_sec),
            self.union.warm_over_cold,
            self.union.resolve_cache_hits
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "compress: {} blocks of {} KiB, corpus-derived content",
            self.kernels.bytes.div_ceil(BLOCK_SIZE),
            BLOCK_SIZE / 1024
        )?;
        writeln!(
            f,
            "{:<9}{:>9}{:>11}{:>13}{:>10}{:>8}{:>11}",
            "level", "workers", "real MB/s", "model MB/s", "speedup", "ratio", "identical"
        )?;
        for p in &self.compress {
            writeln!(
                f,
                "{:<9}{:>9}{:>11.1}{:>13.1}{:>9.2}x{:>8.3}{:>11}",
                p.level,
                p.workers,
                p.real_mb_s,
                p.modeled_mb_s,
                p.modeled_speedup,
                p.ratio,
                if p.bit_identical { "yes" } else { "NO" }
            )?;
        }
        writeln!(f)?;
        writeln!(f, "kernels: word-wise throughput over {} MiB", self.kernels.bytes / (1 << 20))?;
        writeln!(f, "crc32 (slice-by-8):   {:>7.2} GB/s", self.kernels.crc32_gb_s)?;
        writeln!(f, "md5 (direct blocks):  {:>7.2} GB/s", self.kernels.md5_gb_s)?;
        writeln!(f, "sha256 (direct blocks):{:>6.2} GB/s", self.kernels.sha256_gb_s)?;
        write!(f, "match_len (u64 scan): {:>7.2} GB/s", self.kernels.match_len_gb_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_sweep_hits_the_speedup_target_and_stays_identical() {
        let ctx = ExperimentContext::quick();
        let hp = run(&ctx, true);
        assert_eq!(hp.convert.len(), THREAD_SWEEP.len());
        for p in &hp.convert {
            assert!(p.bit_identical, "threads={} diverged from serial", p.threads);
            assert!(p.modeled > Duration::ZERO);
        }
        let speedup = hp.convert_speedup(8).expect("8-thread row");
        assert!(speedup >= 4.0, "modeled speedup at 8 workers: {speedup:.2}");
        // Speedups grow monotonically with workers.
        for w in hp.convert.windows(2) {
            assert!(w[1].modeled_speedup > w[0].modeled_speedup);
        }
    }

    /// A Hotpath with only the cache/union suites populated (for tests that
    /// don't need the corpus-driven sweeps).
    fn cache_union_only() -> Hotpath {
        Hotpath {
            convert: Vec::new(),
            cache: run_cache(true),
            union: run_union(true),
            compress: Vec::new(),
            kernels: KernelBench {
                bytes: 0,
                crc32_gb_s: 0.0,
                md5_gb_s: 0.0,
                sha256_gb_s: 0.0,
                match_len_gb_s: 0.0,
            },
        }
    }

    #[test]
    fn cache_churn_stays_flat_across_sizes() {
        let hp = cache_union_only();
        assert_eq!(hp.cache.len(), 3);
        for p in &hp.cache {
            assert!(p.ops_per_sec > 0.0);
            assert!(p.ops >= 30_000);
        }
        // 16x more entries must not cost anywhere near 16x per op. A linear
        // eviction scan lands around 1/16 ≈ 0.06; the ordered index stays
        // well above the 0.2 CI floor even on noisy machines.
        assert!(hp.cache_flatness() > 0.2, "flatness {:.3}", hp.cache_flatness());
    }

    #[test]
    fn compress_sweep_is_bit_identical_and_modeled_speedup_scales() {
        let ctx = ExperimentContext::quick();
        let buffer = corpus_buffer(&ctx, true);
        assert_eq!(buffer.len(), 8 * BLOCK_SIZE, "quick buffer is 8 blocks");
        let compress = run_compress(&buffer);
        assert_eq!(compress.len(), 2 * THREAD_SWEEP.len(), "2 levels x 4 worker counts");
        for p in &compress {
            assert!(p.bit_identical, "{}/workers{} diverged from serial", p.level, p.workers);
            assert!(p.real_mb_s > 0.0);
            assert!(p.ratio > 0.0 && p.ratio <= 1.01, "ratio {:.3}", p.ratio);
        }
        // 8 blocks under static chunking: 2 workers -> 2x, 8 workers -> 8x.
        let eight = compress.iter().find(|p| p.level == "default" && p.workers == 8).unwrap();
        assert!(eight.modeled_speedup >= 4.0, "modeled {:.2}", eight.modeled_speedup);
        let two = compress.iter().find(|p| p.level == "default" && p.workers == 2).unwrap();
        assert!((two.modeled_speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_throughputs_are_positive() {
        let ctx = ExperimentContext::quick();
        let buffer = corpus_buffer(&ctx, true);
        let kernels = run_kernels(&buffer);
        assert_eq!(kernels.bytes, buffer.len());
        assert!(kernels.crc32_gb_s > 0.0);
        assert!(kernels.md5_gb_s > 0.0);
        assert!(kernels.sha256_gb_s > 0.0);
        assert!(kernels.match_len_gb_s > 0.0, "match scan measured no matched bytes");
    }

    #[test]
    fn union_warm_lookups_beat_cold() {
        let union = run_union(true);
        assert!(union.paths > 512);
        // Every warm lookup resolves from the cache: passes x paths hits.
        assert_eq!(union.resolve_cache_hits as usize, union.paths * 8);
        assert!(
            union.warm_over_cold > 1.5,
            "warm/cold {:.2}",
            union.warm_over_cold
        );
    }
}
