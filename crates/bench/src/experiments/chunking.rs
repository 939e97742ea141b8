//! `repro chunking`: file- vs chunk-granularity content addressing.
//!
//! The same corpus is converted and published twice — once at whole-file
//! granularity (the default converter) and once with big files split by the
//! content-defined Gear chunker — and the two registries are compared on:
//!
//! * **dedup ratio** — scanned content bytes over unique stored bytes: a
//!   small edit at chunk granularity re-uploads O(1) chunks instead of the
//!   whole file, so the chunked store holds strictly fewer bytes;
//! * **cold-start bytes** — each series' first image is deployed with an
//!   empty trace and then probed with sparse [`GearClient::read_range`]
//!   windows over its big files: the file store must materialize whole
//!   files, the chunked store pulls only the chunks the window touches;
//! * **cold deploy time** — first-version deployments over the real traces,
//!   so the per-request cost of chunk-granularity fetches stays visible;
//! * **default-path bit-identity** — converting with the CDC knob present
//!   but `big_file_threshold` unset must be byte-identical to the plain
//!   converter (chunking is strictly opt-in).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use gear_client::GearClient;
use gear_core::{publish, Converter, ConverterOptions};
use gear_corpus::StartupTrace;
use gear_hash::ChunkerConfig;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_telemetry::{Collector, QuantileSketch, Telemetry};

use super::{human_bytes, secs, ExperimentContext};
use crate::artifact::{Bound, Metric, Outcome};

/// One granularity's published registry plus its measurements.
#[derive(Debug, Clone)]
pub struct GranularitySide {
    /// Unique stored content bytes after publishing the whole corpus.
    pub stored_bytes: u64,
    /// Blobs in the store (whole files, or small files + chunks).
    pub objects: u64,
    /// Scanned content bytes / stored bytes.
    pub dedup_ratio: f64,
    /// Registry bytes pulled to serve the sparse startup probes.
    pub coldstart_bytes: u64,
    /// Mean first-version deployment time over the real traces.
    pub deploy_cold: Duration,
    /// Median per-file fetch latency during the cold deploys, from the
    /// merged [`gear_client::DeploymentReport::fetch_sketch`] sketches.
    pub fetch_p50: Duration,
    /// 99th-percentile per-file fetch latency — chunk granularity trades
    /// more requests for smaller ones, which shows up here first.
    pub fetch_p99: Duration,
}

/// The chunking comparison result.
#[derive(Debug, Clone)]
pub struct Chunking {
    /// Total content bytes scanned across all images (both sides equal).
    pub content_bytes: u64,
    /// Whole-file granularity (the default converter).
    pub file: GranularitySide,
    /// Chunk granularity (content-defined chunking of big files).
    pub chunk: GranularitySide,
    /// Big-file paths probed in the sparse startup phase.
    pub sparse_paths: u64,
    /// Bytes the sparse windows actually requested.
    pub sparse_window_bytes: u64,
    /// Every ranged read returned identical bytes on both sides.
    pub reads_identical: bool,
    /// Converting with the CDC knob set but the threshold unset matches
    /// the plain converter exactly.
    pub default_bit_identical: bool,
}

impl Chunking {
    /// Chunk-granularity dedup ratio over file-granularity dedup ratio.
    pub fn ratio_over_file(&self) -> f64 {
        self.chunk.dedup_ratio / self.file.dedup_ratio.max(f64::EPSILON)
    }

    /// Fraction of sparse cold-start bytes the chunked side saved.
    pub fn coldstart_saved_frac(&self) -> f64 {
        1.0 - self.chunk.coldstart_bytes as f64 / self.file.coldstart_bytes.max(1) as f64
    }

    /// Flattens the comparison into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("chunking/file_dedup_ratio", self.file.dedup_ratio),
            Metric::new("chunking/chunk_dedup_ratio", self.chunk.dedup_ratio),
            Metric::new("chunking/ratio_over_file", self.ratio_over_file()),
            Metric::new("chunking/file_coldstart_bytes", self.file.coldstart_bytes as f64),
            Metric::new("chunking/chunk_coldstart_bytes", self.chunk.coldstart_bytes as f64),
            Metric::new("chunking/coldstart_saved_frac", self.coldstart_saved_frac()),
            Metric::new("chunking/file_deploy_cold_secs", self.file.deploy_cold.as_secs_f64()),
            Metric::new("chunking/chunk_deploy_cold_secs", self.chunk.deploy_cold.as_secs_f64()),
            Metric::new("chunking/sparse_paths", self.sparse_paths as f64),
            Metric::flag("chunking/reads_identical", self.reads_identical),
            Metric::flag("chunking/default_bit_identical", self.default_bit_identical),
        ]
    }

    /// The comparison's outcome. Its claims are invariants, held at every
    /// scale: chunk-granularity dedup never falls below file-granularity
    /// dedup, sparse cold starts save at least 30 %, ranged reads agree
    /// across granularities, and the default (chunking-off) conversion is
    /// bit-identical to the plain converter.
    pub fn outcome(&self) -> Outcome {
        let invariants = vec![
            Bound::floor("chunking/ratio_over_file", 1.0),
            Bound::floor("chunking/coldstart_saved_frac", 0.3),
            Bound::floor("chunking/reads_identical", 1.0),
            Bound::floor("chunking/default_bit_identical", 1.0),
        ];
        Outcome { metrics: self.metrics(), invariants, ..Outcome::text(self) }
    }
}

/// A published corpus at one granularity, with a readable byte meter.
struct Variant {
    gear_index: DockerRegistry,
    store: GearFileStore,
    collector: Arc<Collector>,
}

/// Converts and publishes every image through `converter` into a fresh,
/// uncompressed store (so `logical_bytes` is exactly unique content).
fn publish_variant(ctx: &ExperimentContext, converter: &Converter) -> Variant {
    let mut gear_index = DockerRegistry::new();
    let mut store = GearFileStore::new();
    let (telemetry, collector) = Telemetry::collector();
    store.set_recorder(telemetry);
    for image in ctx.corpus.all_images() {
        let conv = converter.convert(image).expect("corpus images convert");
        publish(&conv, &mut gear_index, &mut store);
    }
    Variant { gear_index, store, collector }
}

/// Registry bytes served so far, over every download verb.
fn served_bytes(collector: &Collector) -> u64 {
    let metrics = collector.metrics();
    metrics.counter("registry.download_bytes")
        + metrics.counter("registry.chunk_bytes")
}

/// The chunk-size bounds and big-file threshold used for the chunked side.
pub fn chunk_bounds(scale_denom: u64) -> (ChunkerConfig, u64) {
    let bounds = ChunkerConfig::scaled(scale_denom);
    let threshold = 4 * bounds.avg_size as u64;
    (bounds, threshold)
}

/// Runs the comparison.
pub fn run(ctx: &ExperimentContext) -> Chunking {
    let scale = ctx.corpus.config.scale_denom;
    let (bounds, threshold) = chunk_bounds(scale);

    let plain = Converter::new();
    let chunked = Converter::with_options(ConverterOptions {
        big_file_threshold: Some(threshold),
        cdc: Some(bounds),
        ..ConverterOptions::default()
    });

    let content_bytes: u64 = ctx.corpus.all_images().map(|i| i.content_bytes()).sum();
    let file_side = publish_variant(ctx, &plain);
    let chunk_side = publish_variant(ctx, &chunked);

    // Sparse startup probes: deploy each series' first image with an empty
    // trace, then read one window out of every big file its real trace
    // touches — the same windows on both sides.
    let file_before = served_bytes(&file_side.collector);
    let chunk_before = served_bytes(&chunk_side.collector);
    let mut sparse_paths = 0u64;
    let mut sparse_window_bytes = 0u64;
    let mut reads_identical = true;
    for series in &ctx.corpus.series {
        let image = &series.images[0];
        let trace = &series.traces[0];
        let empty = StartupTrace { reads: Vec::new(), task: trace.task };

        let mut chunk_client = GearClient::new(ctx.client_config);
        let (cid, _) = chunk_client
            .deploy(image.reference(), &empty, &chunk_side.gear_index, &chunk_side.store)
            .expect("chunked deploy");
        let index = chunk_client.index(image.reference()).expect("index installed");
        let mut windows: Vec<(String, u64, u64)> = Vec::new();
        for path in &trace.reads {
            if let Some(chunks) = index.chunks_at(path) {
                let size: u64 = chunks.iter().map(|c| c.size).sum();
                windows.push((path.clone(), size / 3, (size / 6).max(1)));
            }
        }
        windows.sort();
        windows.dedup();

        let mut file_client = GearClient::new(ctx.client_config);
        let (fid, _) = file_client
            .deploy(image.reference(), &empty, &file_side.gear_index, &file_side.store)
            .expect("file deploy");
        for (path, offset, len) in &windows {
            let from_chunks = chunk_client
                .read_range(cid, path, *offset, *len, &chunk_side.store)
                .expect("chunked ranged read");
            let from_files = file_client
                .read_range(fid, path, *offset, *len, &file_side.store)
                .expect("file ranged read");
            reads_identical &= from_chunks == from_files;
            sparse_paths += 1;
            sparse_window_bytes += from_chunks.len() as u64;
        }
        chunk_client.destroy(cid);
        file_client.destroy(fid);
    }
    let file_coldstart = served_bytes(&file_side.collector) - file_before;
    let chunk_coldstart = served_bytes(&chunk_side.collector) - chunk_before;

    // Cold deployments over the real traces: every trace file is pulled in
    // full on both sides, so the chunked side's per-chunk request costs are
    // priced honestly.
    let deploy_cold = |variant: &Variant| {
        let mut total = Duration::ZERO;
        let mut n = 0u32;
        let mut fetches = QuantileSketch::new();
        for series in &ctx.corpus.series {
            let mut client = GearClient::new(ctx.client_config);
            let (id, report) = client
                .deploy(
                    series.images[0].reference(),
                    &series.traces[0],
                    &variant.gear_index,
                    &variant.store,
                )
                .expect("cold deploy");
            client.destroy(id);
            // Same default resolution; merge cannot fail.
            let _ = fetches.merge(&report.fetch_sketch());
            total += report.total();
            n += 1;
        }
        let at = |q: f64| Duration::from_nanos(fetches.quantile(q).unwrap_or(0));
        (total / n.max(1), at(0.5), at(0.99))
    };
    let file_deploy = deploy_cold(&file_side);
    let chunk_deploy = deploy_cold(&chunk_side);

    // Opt-in guarantee: the CDC knob without a threshold is inert.
    let knob_only =
        Converter::with_options(ConverterOptions { cdc: Some(bounds), ..Default::default() });
    let default_bit_identical = ctx.corpus.series.iter().all(|series| {
        let a = plain.convert(&series.images[0]).expect("plain conversion");
        let b = knob_only.convert(&series.images[0]).expect("knob-only conversion");
        a.gear_image.index() == b.gear_image.index()
            && a.files.iter().map(|f| f.fingerprint).eq(b.files.iter().map(|f| f.fingerprint))
    });

    let side = |variant: &Variant, coldstart: u64, deploy: (Duration, Duration, Duration)| {
        let stats = variant.store.stats();
        GranularitySide {
            stored_bytes: stats.logical_bytes,
            objects: variant.store.object_count() as u64,
            dedup_ratio: content_bytes as f64 / stats.logical_bytes.max(1) as f64,
            coldstart_bytes: coldstart,
            deploy_cold: deploy.0,
            fetch_p50: deploy.1,
            fetch_p99: deploy.2,
        }
    };
    Chunking {
        content_bytes,
        file: side(&file_side, file_coldstart, file_deploy),
        chunk: side(&chunk_side, chunk_coldstart, chunk_deploy),
        sparse_paths,
        sparse_window_bytes,
        reads_identical,
        default_bit_identical,
    }
}

impl fmt::Display for Chunking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chunking — file- vs chunk-granularity content addressing (content {})",
            human_bytes(self.content_bytes)
        )?;
        writeln!(
            f,
            "{:<14}{:>10}{:>10}{:>8}{:>12}{:>13}{:>12}{:>12}",
            "granularity", "stored", "objects", "dedup", "coldstart", "cold deploy", "fetch p50",
            "fetch p99"
        )?;
        for (label, side) in [("file", &self.file), ("chunk (cdc)", &self.chunk)] {
            let ms = |d: Duration| format!("{:.2}ms", d.as_secs_f64() * 1e3);
            writeln!(
                f,
                "{:<14}{:>10}{:>10}{:>7.2}x{:>12}{:>13}{:>12}{:>12}",
                label,
                human_bytes(side.stored_bytes),
                side.objects,
                side.dedup_ratio,
                human_bytes(side.coldstart_bytes),
                secs(side.deploy_cold),
                ms(side.fetch_p50),
                ms(side.fetch_p99),
            )?;
        }
        writeln!(
            f,
            "sparse startup: {} big-file windows, {} requested; ranged reads identical: {}",
            self.sparse_paths,
            human_bytes(self.sparse_window_bytes),
            if self.reads_identical { "yes" } else { "NO" }
        )?;
        write!(
            f,
            "chunk/file dedup {:.2}x; cold-start bytes saved {:.1}%; \
             default path bit-identical: {}",
            self.ratio_over_file(),
            self.coldstart_saved_frac() * 100.0,
            if self.default_bit_identical { "yes" } else { "NO" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_granularity_dedups_more_and_pulls_less() {
        let ctx = ExperimentContext::quick();
        let result = run(&ctx);

        assert!(result.sparse_paths > 0, "the corpus must contain big files to probe");
        // The claims (dedup at least file granularity's, ≥ 30 % fewer
        // cold-start bytes, identical ranged reads, opt-in chunking) are the
        // outcome's invariants.
        assert_eq!(crate::artifact::check(&[("chunking", result.outcome())], None), [""; 0]);
        // Chunks outnumber whole files, and the store stays smaller.
        assert!(result.chunk.objects > result.file.objects);
        assert!(result.chunk.stored_bytes <= result.file.stored_bytes);
        // The per-file fetch tails are populated and ordered on both sides.
        for side in [&result.file, &result.chunk] {
            assert!(side.fetch_p99 > Duration::ZERO, "cold deploys must record fetch tails");
            assert!(side.fetch_p50 <= side.fetch_p99);
        }
    }
}
