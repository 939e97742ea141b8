//! `publish`: the write path. Converts every image and publishes it into
//! registries created fresh each pass.
//!
//! Archive replay, MD5 fingerprinting, LZSS sizing, index encoding and
//! registry dedup do nearly all the work; no client, union-mount,
//! store-eviction or event-loop code runs.

use bytes::Bytes;
use gear_compress::{compressed_size_with, Level};
use gear_core::{publish, Conversion, Converter};
use gear_fs::{FileData, FsTree, Node};
use gear_hash::{fingerprint_all, Fingerprint};
use gear_par::Pool;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_telemetry::Telemetry;

use super::{mb, ratio, LayerMetric, PassOutput, SimSummary, Workload};
use crate::setup::{self, Inputs, SCALE_DENOM};
use crate::trace::Tracer;

/// The `publish` workload.
pub struct Publish;

/// The registries one pass publishes into, plus its running sums.
struct Target {
    converter: Converter,
    index: DockerRegistry,
    files: GearFileStore,
    ops: u64,
    sim_s: Vec<f64>,
    stored_bytes: u64,
    failed: u64,
}

impl Target {
    fn new(ops: usize) -> Self {
        Target {
            converter: setup::converter(),
            index: DockerRegistry::new(),
            files: GearFileStore::with_compression(),
            ops: ops as u64,
            sim_s: Vec::with_capacity(ops),
            stored_bytes: 0,
            failed: 0,
        }
    }

    /// Publishes one conversion and accounts what the registries grew by:
    /// Gear-file bytes at paper scale, index bytes as they are (an index is
    /// metadata and already paper-sized).
    fn publish(&mut self, conversion: &Conversion) {
        let report = publish(conversion, &mut self.index, &mut self.files);
        self.stored_bytes += report.file_bytes_stored * SCALE_DENOM + report.index_bytes_uploaded;
        self.sim_s.push(conversion.report.duration.as_secs_f64());
    }

    fn finish(self, inputs: &Inputs, verify: bool) -> PassOutput {
        let mut failed = self.failed;
        if verify {
            // The store is clean and equals the one set-up published.
            failed += self.files.verify().len() as u64;
            let (got, want) = (self.files.stats(), inputs.files.stats());
            if self.files.object_count() != inputs.files.object_count()
                || got.stored_bytes != want.stored_bytes
            {
                failed += 1;
            }
        }
        let invariants = vec![
            ("objects", self.files.object_count() as u64),
            ("stored_bytes", self.files.stats().stored_bytes),
            ("index_blobs", self.index.stats().blobs as u64),
        ];
        PassOutput {
            ops: self.ops,
            failed,
            sim: SimSummary::from_ops(&self.sim_s, self.stored_bytes, invariants),
        }
    }
}

/// Whether every file the index references is in the store.
fn index_resolves(conversion: &Conversion, files: &GearFileStore) -> bool {
    conversion
        .gear_image
        .index()
        .referenced_files()
        .iter()
        .all(|(fingerprint, _)| files.query(*fingerprint))
}

fn run(inputs: &Inputs, verify: bool, telemetry: Option<Telemetry>) -> PassOutput {
    let ops = inputs.series_major();
    let mut target = Target::new(ops.len());
    if let Some(telemetry) = telemetry {
        target.files.set_recorder(telemetry);
    }
    for (image, _) in ops {
        match target.converter.convert(image) {
            Ok(conversion) => {
                target.publish(&conversion);
                if verify && !index_resolves(&conversion, &target.files) {
                    target.failed += 1;
                }
            }
            Err(_) => target.failed += 1,
        }
    }
    target.finish(inputs, verify)
}

/// The inline file bodies of a root file system: what the converter hashes.
fn file_bodies(rootfs: &FsTree) -> Vec<Bytes> {
    rootfs
        .walk()
        .filter_map(|(_, node)| match node {
            Node::File(f) => match &f.data {
                FileData::Inline(content) => Some(content.clone()),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

impl Workload for Publish {
    fn pass(&mut self, inputs: &Inputs, verify: bool) -> PassOutput {
        run(inputs, verify, None)
    }

    fn telemetry_pass(&mut self, inputs: &Inputs) -> PassOutput {
        let (telemetry, _collector) = Telemetry::collector();
        run(inputs, false, Some(telemetry))
    }

    fn traced_pass(&mut self, inputs: &Inputs, tracer: &Tracer) -> Vec<LayerMetric> {
        let ops = inputs.series_major();
        let mut target = Target::new(ops.len());
        // Shadow registries receive the same uploads through the registry
        // verbs directly, so upload and index push are timed apart from
        // `gear_core::publish`, which runs on the real pair.
        let mut shadow_index = DockerRegistry::new();
        let mut shadow_files = GearFileStore::with_compression();
        let serial = Pool::serial();
        let parallel = Pool::with_available_parallelism();
        let (mut scanned_files, mut scanned_bytes, mut unique_files, mut unique_bytes) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut new_raw, mut new_packed) = (0u64, 0u64);

        for (op, (image, _)) in ops.into_iter().enumerate() {
            tracer.set_op(op as u32);
            let _op = tracer.enter("bench", "publish_op");
            let Ok(rootfs) = tracer.span("image", "root_fs", || image.root_fs()) else {
                continue;
            };
            let bodies = file_bodies(&rootfs);
            tracer.span("hash", "fingerprint_all", || {
                fingerprint_all(&bodies, &serial)
            });
            tracer.span("hash", "fingerprint_all_par", || {
                fingerprint_all(&bodies, &parallel)
            });
            let Ok(conversion) = tracer.span("core", "convert", || target.converter.convert(image))
            else {
                continue;
            };
            let index_image = tracer.span("core", "index_encode", || {
                conversion.gear_image.to_index_image()
            });
            let new: Vec<&Bytes> = conversion
                .files
                .iter()
                .filter(|f| !shadow_files.query(f.fingerprint))
                .map(|f| &f.content)
                .collect();
            new_raw += new.iter().map(|c| c.len() as u64).sum::<u64>();
            new_packed += tracer.span("compress", "compressed_size", || {
                new.iter()
                    .map(|c| compressed_size_with(c, Level::Default, &serial) as u64)
                    .sum::<u64>()
            });
            tracer.span("hash", "upload_verify", || {
                for content in &new {
                    std::hint::black_box(Fingerprint::of(content));
                }
            });
            tracer.span("registry", "upload", || {
                for file in &conversion.files {
                    if !shadow_files.query(file.fingerprint) {
                        let _ = shadow_files.upload(file.fingerprint, file.content.clone());
                    }
                }
            });
            tracer.span("registry", "push_image", || {
                shadow_index.push_image(&index_image)
            });
            tracer.span("core", "publish", || target.publish(&conversion));
            scanned_files += conversion.report.scanned_files;
            scanned_bytes += conversion.report.scanned_bytes;
            unique_files += conversion.report.unique_files;
            unique_bytes += conversion.report.unique_bytes;
        }

        let t = tracer.summary();
        let ms = |layer, name| t.ms(layer, name);
        let root_fs = ms("image", "root_fs");
        let fingerprint = ms("hash", "fingerprint_all");
        let size = ms("compress", "compressed_size");
        let upload = ms("registry", "upload");
        let convert = ms("core", "convert");
        vec![
            ("image.root_fs_ms", root_fs),
            ("hash.fingerprint_ms", fingerprint),
            ("hash.mb_per_s", ratio(mb(scanned_bytes), fingerprint / 1e3)),
            (
                "hash.par_speedup",
                ratio(fingerprint, ms("hash", "fingerprint_all_par")),
            ),
            ("core.convert_ms", convert),
            // Conversion replays the layers and fingerprints every body
            // itself; what is left is tree walking, dedup and index build.
            ("core.convert_self_ms", convert - root_fs - fingerprint),
            ("core.index_encode_ms", ms("core", "index_encode")),
            ("compress.size_ms", size),
            ("compress.mb_per_s", ratio(mb(new_raw), size / 1e3)),
            ("compress.ratio", ratio(new_raw as f64, new_packed as f64)),
            ("registry.upload_ms", upload),
            // An upload re-hashes and sizes each new body; the rest is the
            // store's own bookkeeping.
            (
                "registry.upload_self_ms",
                upload - size - ms("hash", "upload_verify"),
            ),
            (
                "registry.dedup_ratio",
                ratio(unique_bytes as f64, new_raw as f64),
            ),
            ("registry.push_index_ms", ms("registry", "push_image")),
            ("core.publish_ms", ms("core", "publish")),
            ("core.files_scanned", scanned_files as f64),
            ("core.unique_files", unique_files as f64),
            ("registry.objects", target.files.object_count() as f64),
            ("registry.stored_mb", mb(target.files.stats().stored_bytes)),
        ]
    }
}
