//! `repro hotpath`: what a fixed seed decides about the two parallel hot
//! paths — no clock is read here; rates live in the criterion benches.
//!
//! * **convert** — Docker→Gear conversion of the first image of every
//!   series, swept over worker counts. Reports the modeled duration (the
//!   deterministic cost model, where hashing and per-file recompression
//!   scale with workers), paper-scale throughput, and a bit-identical check
//!   of the parallel output against the serial run. The NVMe disk model is
//!   used so the CPU-bound phases dominate, as they do on the machines
//!   where parallel conversion matters.
//! * **compress** — block-parallel `GZc2` compression of a corpus-derived
//!   buffer, swept over `level x workers`. Reports the compression ratio
//!   and whether every worker count produced a byte-identical frame.

use std::fmt;
use std::time::Duration;

use gear_compress::{compress_with, Level, BLOCK_SIZE};
use gear_core::{Converter, ConverterOptions};
use gear_hash::Fingerprint;
use gear_par::Pool;
use gear_simnet::DiskModel;

use super::{secs, ExperimentContext};
use crate::artifact::{Bound, Metric, Outcome};

/// Worker counts both sweeps cover.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Blocks in the compress buffer, at every corpus scale: one per worker of
/// the widest sweep row.
const COMPRESS_BLOCKS: usize = 8;

/// One worker count's conversion measurements.
#[derive(Debug, Clone)]
pub struct ConvertPoint {
    /// Worker count.
    pub threads: usize,
    /// Summed modeled conversion time across the sampled images.
    pub modeled: Duration,
    /// Modeled speedup over the serial run.
    pub modeled_speedup: f64,
    /// Paper-scale scanned bytes over modeled seconds, in MB/s.
    pub throughput_mb_s: f64,
    /// Whether every index and file pool matched the serial run exactly.
    pub bit_identical: bool,
}

/// One `level x workers` block-compression measurement.
#[derive(Debug, Clone)]
pub struct CompressPoint {
    /// Compression level label (`"fast"` / `"default"`).
    pub level: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Compressed over uncompressed size.
    pub ratio: f64,
    /// Whether the frame matched the serial frame byte for byte.
    pub bit_identical: bool,
}

/// The full hot-path result.
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// Convert sweep, one row per worker count (serial first).
    pub convert: Vec<ConvertPoint>,
    /// Block-compression sweep, grouped by level then worker count.
    pub compress: Vec<CompressPoint>,
}

impl Hotpath {
    /// Flattens the result into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for point in &self.convert {
            let prefix = format!("convert/threads{}", point.threads);
            metrics
                .push(Metric::new(format!("{prefix}/modeled_secs"), point.modeled.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/modeled_speedup"), point.modeled_speedup));
            metrics.push(Metric::new(format!("{prefix}/throughput_mb_s"), point.throughput_mb_s));
            metrics.push(Metric::flag(format!("{prefix}/bit_identical"), point.bit_identical));
        }
        for point in &self.compress {
            let prefix = format!("compress/{}/workers{}", point.level, point.workers);
            metrics.push(Metric::new(format!("{prefix}/ratio"), point.ratio));
            metrics.push(Metric::flag(format!("{prefix}/bit_identical"), point.bit_identical));
        }
        metrics
    }

    /// The result's outcome; a baseline records [`floors`].
    pub fn outcome(&self) -> Outcome {
        Outcome { metrics: self.metrics(), recorded: floors(), ..Outcome::text(self) }
    }
}

/// The hot-path floors a recorded baseline enforces: the modeled 8-worker
/// conversion speedup, and parallel output bit-identical to serial for the
/// converter and for the block compressor at both levels.
pub fn floors() -> Vec<Bound> {
    vec![
        Bound::floor("convert/threads8/modeled_speedup", 4.0),
        Bound::floor("convert/threads8/bit_identical", 1.0),
        Bound::floor("compress/default/workers8/bit_identical", 1.0),
        Bound::floor("compress/default/workers2/bit_identical", 1.0),
        Bound::floor("compress/fast/workers8/bit_identical", 1.0),
    ]
}

/// Runs both sweeps.
pub fn run(ctx: &ExperimentContext) -> Hotpath {
    Hotpath { convert: run_convert(ctx), compress: run_compress(&corpus_buffer(ctx)) }
}

/// Builds a compression workload from real corpus content: serialized layer
/// archives of the first image of each series, concatenated and tiled to
/// [`COMPRESS_BLOCKS`] whole blocks.
fn corpus_buffer(ctx: &ExperimentContext) -> Vec<u8> {
    let target = COMPRESS_BLOCKS * BLOCK_SIZE;
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
    let mut points = Vec::new();
    for (label, level) in [("fast", Level::Fast), ("default", Level::Default)] {
        let mut serial_frame: Vec<u8> = Vec::new();
        for workers in THREAD_SWEEP {
            let frame = compress_with(buffer, level, &Pool::new(workers));
            if workers == 1 {
                serial_frame = frame.clone();
            }
            points.push(CompressPoint {
                level: label,
                workers,
                ratio: frame.len() as f64 / buffer.len() as f64,
                bit_identical: frame == serial_frame,
            });
        }
    }
    points
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
        let serial_modeled =
            points.first().map_or(modeled, |p: &ConvertPoint| p.modeled);
        points.push(ConvertPoint {
            threads,
            modeled,
            modeled_speedup: serial_modeled.as_secs_f64() / modeled.as_secs_f64().max(1e-12),
            throughput_mb_s: scanned_paper_bytes as f64 / 1.0e6
                / modeled.as_secs_f64().max(1e-12),
            bit_identical: identical,
        });
    }
    points
}

impl fmt::Display for Hotpath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let yes_no = |identical: bool| if identical { "yes" } else { "NO" };
        writeln!(f, "Hot-path sweeps: modeled cost and bit-identity against serial")?;
        writeln!(f, "convert: first image of each series, NVMe disk model")?;
        writeln!(
            f,
            "{:<9}{:>11}{:>10}{:>12}{:>11}",
            "threads", "modeled", "speedup", "MB/s", "identical"
        )?;
        for p in &self.convert {
            writeln!(
                f,
                "{:<9}{:>11}{:>9.2}x{:>12.1}{:>11}",
                p.threads,
                secs(p.modeled),
                p.modeled_speedup,
                p.throughput_mb_s,
                yes_no(p.bit_identical)
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "compress: {COMPRESS_BLOCKS} blocks of {} KiB, corpus-derived content",
            BLOCK_SIZE / 1024
        )?;
        write!(f, "{:<9}{:>9}{:>8}{:>11}", "level", "workers", "ratio", "identical")?;
        for p in &self.compress {
            write!(
                f,
                "\n{:<9}{:>9}{:>8.3}{:>11}",
                p.level,
                p.workers,
                p.ratio,
                yes_no(p.bit_identical)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_sweep_hits_the_speedup_target_and_stays_identical() {
        let ctx = ExperimentContext::quick();
        let convert = run_convert(&ctx);
        assert_eq!(convert.len(), THREAD_SWEEP.len());
        for p in &convert {
            assert!(p.bit_identical, "threads={} diverged from serial", p.threads);
            assert!(p.modeled > Duration::ZERO);
        }
        let eight = convert.last().expect("8-thread row");
        assert!(eight.modeled_speedup >= 4.0, "modeled speedup at 8 workers: {eight:?}");
        // Speedups grow monotonically with workers.
        for w in convert.windows(2) {
            assert!(w[1].modeled_speedup > w[0].modeled_speedup);
        }
    }

    #[test]
    fn compress_sweep_is_bit_identical_at_every_level_and_worker_count() {
        let ctx = ExperimentContext::quick();
        let buffer = corpus_buffer(&ctx);
        assert_eq!(buffer.len(), COMPRESS_BLOCKS * BLOCK_SIZE);
        let compress = run_compress(&buffer);
        assert_eq!(compress.len(), 2 * THREAD_SWEEP.len(), "2 levels x 4 worker counts");
        for p in &compress {
            assert!(p.bit_identical, "{}/workers{} diverged from serial", p.level, p.workers);
            assert!(p.ratio > 0.0 && p.ratio <= 1.01, "ratio {:.3}", p.ratio);
        }
    }
}
