//! `deploy_cold` and `rollout`: the read path, used two different ways.
//!
//! * `deploy_cold` empties the shared cache before every deployment and
//!   fetches with four streams: hit ratio 0 by construction, so index
//!   pull / decompress / decode, union mount, the fetch scheduler, store
//!   puts and stream pricing carry the load.
//! * `rollout` keeps one client with a cache half the size of what the
//!   schedule would leave resident, deploys version-major and removes the
//!   previous version: the same client / store / fs code, but exercised
//!   through hits, LRU eviction, pin / unpin, cross-series dedup and the
//!   serial fetch path. A `deploy_cold` gain bought by cheapening puts or
//!   skipping recency bookkeeping shows up here as lost hits.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;
use gear_client::{store_for, ClientConfig, ContainerId, DeploymentReport, GearClient};
use gear_core::GearImage;
use gear_corpus::StartupTrace;
use gear_fs::{Materializer, NoFetch, UnionFs};
use gear_hash::Fingerprint;
use gear_image::Image;
use gear_registry::GearFileStore;
use gear_simnet::StreamConfig;
use gear_store::BlobStore;
use gear_telemetry::Telemetry;

use super::{mb, ratio, LayerMetric, PassOutput, SimSummary, Workload};
use crate::setup::{self, Inputs};
use crate::trace::Tracer;

/// Concurrent registry requests of a cold deployment.
const COLD_STREAMS: usize = 4;

/// Either deployment workload.
pub struct Deploy {
    rollout: bool,
    config: ClientConfig,
}

impl Deploy {
    /// `deploy_cold`.
    pub fn cold() -> Self {
        Deploy {
            rollout: false,
            config: setup::client_config().with_streams(COLD_STREAMS),
        }
    }

    /// `rollout`, its cache sized from the set-up's resident-bytes figure.
    pub fn rollout(inputs: &Inputs) -> Self {
        let config = ClientConfig {
            cache_capacity: Some(inputs.rollout_capacity()),
            ..setup::client_config()
        };
        Deploy {
            rollout: true,
            config,
        }
    }

    /// The pass's ops: `(image, trace, image to remove afterwards)`.
    fn ops<'a>(&self, inputs: &'a Inputs) -> Vec<(&'a Image, &'a StartupTrace, Option<&'a Image>)> {
        if self.rollout {
            inputs.version_major()
        } else {
            inputs
                .series_major()
                .into_iter()
                .map(|(image, trace)| (image, trace, None))
                .collect()
        }
    }

    fn run(&self, inputs: &Inputs, verify: bool, telemetry: Option<Telemetry>) -> PassOutput {
        let ops = self.ops(inputs);
        let mut client = GearClient::new(self.config);
        if let Some(telemetry) = telemetry {
            client.set_recorder(telemetry);
        }
        let mut sim_s = Vec::with_capacity(ops.len());
        let (mut failed, mut bytes) = (0u64, 0u64);
        let attempted = ops.len() as u64;
        for (image, trace, previous) in ops {
            if !self.rollout {
                client.clear_cache();
            }
            match client.deploy(image.reference(), trace, &inputs.index, &inputs.files) {
                Ok((id, report)) => {
                    sim_s.push(report.total().as_secs_f64());
                    bytes += report.bytes_pulled;
                    if verify && !reads_match_oracle(&client, id, image, trace, inputs) {
                        failed += 1;
                    }
                    client.destroy(id);
                }
                Err(_) => failed += 1,
            }
            if let Some(previous) = previous {
                client.remove_image(previous.reference());
            }
        }
        let cache = client.cache_stats();
        let invariants = vec![
            ("cache_hits", cache.hits),
            ("cache_misses", cache.misses),
            ("cache_evictions", cache.evictions),
            ("requests", client.metrics().requests_down),
        ];
        PassOutput {
            ops: attempted,
            failed,
            sim: SimSummary::from_ops(&sim_s, bytes, invariants),
        }
    }
}

/// Serves placeholders straight from the registry, bypassing every cache.
struct FromRegistry<'a>(&'a GearFileStore);

impl Materializer for FromRegistry<'_> {
    fn fetch(&self, fingerprint: Fingerprint, _size: u64) -> Result<Bytes, String> {
        self.0
            .download(fingerprint)
            .ok_or_else(|| format!("{fingerprint} not in the registry"))
    }
}

/// The equivalence oracle: every trace path read through the deployed
/// container's mount must be byte-equal to the same path in the root file
/// system of the source Docker image, as the Docker registry serves it.
fn reads_match_oracle(
    client: &GearClient,
    id: ContainerId,
    image: &Image,
    trace: &StartupTrace,
    inputs: &Inputs,
) -> bool {
    let Some(mount) = client.mount(id) else {
        return false;
    };
    let Some(Ok(rootfs)) = inputs.docker.image(image.reference()).map(|i| i.root_fs()) else {
        return false;
    };
    let mut deployed = mount.clone();
    let mut oracle = UnionFs::new(vec![Arc::new(rootfs)]);
    let registry = FromRegistry(&inputs.files);
    trace.reads.iter().all(|path| {
        matches!(
            (deployed.read(path, &registry), oracle.read(path, &NoFetch)),
            (Ok(got), Ok(want)) if got == want
        )
    })
}

/// Replays a mount's placeholder fetches against a shadow cache and the
/// registry, one span per store and registry call, and keeps the scaled
/// wire sizes of what it downloaded for the stream-schedule replay.
struct Replay<'a> {
    cache: RefCell<&'a mut dyn BlobStore>,
    files: &'a GearFileStore,
    tracer: &'a Tracer,
    byte_scale: u64,
    payloads: RefCell<Vec<u64>>,
}

impl Materializer for Replay<'_> {
    fn fetch(&self, fingerprint: Fingerprint, _size: u64) -> Result<Bytes, String> {
        let hit = self
            .tracer
            .span("store", "get", || self.cache.borrow_mut().get(fingerprint));
        if let Some(content) = hit {
            return Ok(content);
        }
        let (content, wire) = self.tracer.span("registry", "download", || {
            (
                self.files.download(fingerprint),
                self.files.transfer_size(fingerprint),
            )
        });
        let content = content.ok_or_else(|| format!("{fingerprint} not in the registry"))?;
        self.payloads
            .borrow_mut()
            .push(wire.unwrap_or(0) * self.byte_scale);
        self.tracer.span("store", "put", || {
            self.cache.borrow_mut().put(fingerprint, content.clone())
        });
        Ok(content)
    }
}

/// Sums of the counters deployments report, over a traced pass.
#[derive(Default)]
struct ClientCounters {
    requests: u64,
    files_fetched: u64,
    cache_hits: u64,
    peak_buffered_bytes: u64,
}

impl ClientCounters {
    fn add(&mut self, report: &DeploymentReport) {
        self.requests += report.requests;
        self.files_fetched += report.files_fetched;
        self.cache_hits += report.cache_hits;
        self.peak_buffered_bytes = self.peak_buffered_bytes.max(report.peak_buffered_bytes);
    }
}

impl Workload for Deploy {
    fn pass(&mut self, inputs: &Inputs, verify: bool) -> PassOutput {
        self.run(inputs, verify, None)
    }

    fn telemetry_pass(&mut self, inputs: &Inputs) -> PassOutput {
        let (telemetry, _collector) = Telemetry::collector();
        self.run(inputs, false, Some(telemetry))
    }

    fn traced_pass(&mut self, inputs: &Inputs, tracer: &Tracer) -> Vec<LayerMetric> {
        let config = self.config;
        let mut client = GearClient::new(config);
        // The shadow cache sees the same clears, pins, gets, puts and
        // unpins as the client's own, in the same order.
        let mut shadow = store_for(&config);
        let mut counters = ClientCounters::default();
        let (mut lookups, mut resolve_hits, mut index_raw_bytes) = (0u64, 0u64, 0u64);

        for (op, (image, trace, previous)) in self.ops(inputs).into_iter().enumerate() {
            tracer.set_op(op as u32);
            let _op = tracer.enter("bench", "deploy_op");
            let reference = image.reference();
            if !self.rollout {
                shadow.clear();
            }

            let (manifest, index_image) = tracer.span("registry", "manifest", || {
                (
                    inputs.index.manifest(reference),
                    inputs.index.image(reference),
                )
            });
            let (Some(manifest), Some(index_image)) = (manifest, index_image) else {
                continue;
            };
            // `DockerRegistry::image` above decompressed the index layer on
            // its way; time that step alone on the same blob.
            let blobs: Vec<_> = manifest
                .layers
                .iter()
                .filter_map(|desc| inputs.index.compressed_layer(desc.digest))
                .collect();
            index_raw_bytes += tracer.span("compress", "decompress", || {
                blobs
                    .iter()
                    .filter_map(|b| b.to_layer().ok())
                    .map(|l| l.wire_len())
                    .sum::<u64>()
            });
            let Ok(gear) = tracer.span("core", "index_decode", || {
                GearImage::from_index_image(&index_image)
            }) else {
                continue;
            };
            let index = gear.into_index();
            tracer.span("store", "pin", || {
                for (fingerprint, _) in index.referenced_files() {
                    shadow.pin(fingerprint);
                }
            });
            let tree = Arc::new(tracer.span("core", "index_to_tree", || index.to_tree()));
            let mut mount = tracer.span("fs", "mount", || UnionFs::new(vec![tree]));
            let replay = Replay {
                cache: RefCell::new(shadow.as_mut()),
                files: &inputs.files,
                tracer,
                byte_scale: config.byte_scale,
                payloads: RefCell::new(Vec::new()),
            };
            for path in &trace.reads {
                let _ = tracer.span("fs", "read", || mount.read(path, &replay));
            }
            let payloads = replay.payloads.into_inner();
            tracer.span("simnet", "stream_schedule", || {
                config.link.stream_schedule(
                    config.amplified_fixed(),
                    &payloads,
                    StreamConfig {
                        streams: config.fetch.streams,
                        max_buffered_bytes: config.fetch.max_buffered_bytes,
                    },
                )
            });
            let stats = mount.stats();
            lookups += stats.lookups;
            resolve_hits += stats.resolve_cache_hits;

            if !self.rollout {
                tracer.span("client", "clear_cache", || client.clear_cache());
            }
            let deployed = tracer.span("client", "deploy", || {
                client.deploy(reference, trace, &inputs.index, &inputs.files)
            });
            if let Ok((id, report)) = deployed {
                counters.add(&report);
                tracer.span("client", "destroy", || client.destroy(id));
            }
            if let Some(previous) = previous {
                if let Some(index) = client.index(previous.reference()) {
                    tracer.span("store", "unpin", || {
                        for (fingerprint, _) in index.referenced_files() {
                            shadow.unpin(fingerprint);
                        }
                    });
                }
                tracer.span("client", "remove_image", || {
                    client.remove_image(previous.reference())
                });
            }
        }

        let t = tracer.summary();
        let ms = |layer, name| t.ms(layer, name);
        let decompress = ms("compress", "decompress");
        let deploy = ms("client", "deploy");
        // What a deployment does inside, replayed call by call above
        // (decompression is part of the manifest + image fetch).
        let replayed = ms("registry", "manifest")
            + ms("core", "index_decode")
            + ms("core", "index_to_tree")
            + ms("fs", "mount")
            + ms("fs", "read")
            + ms("simnet", "stream_schedule");
        let cache = client.cache_stats();
        vec![
            ("registry.manifest_ms", ms("registry", "manifest")),
            ("compress.decompress_ms", decompress),
            (
                "compress.decompress_mb_per_s",
                ratio(mb(index_raw_bytes), decompress / 1e3),
            ),
            ("core.index_decode_ms", ms("core", "index_decode")),
            ("core.index_to_tree_ms", ms("core", "index_to_tree")),
            ("fs.mount_ms", ms("fs", "mount")),
            // Self time: the union mount's own work, fetches excluded.
            ("fs.read_ms", t.of("fs", "read").self_ms()),
            ("fs.lookups", lookups as f64),
            (
                "fs.resolve_cache_hit_ratio",
                ratio(resolve_hits as f64, lookups as f64),
            ),
            ("registry.download_ms", ms("registry", "download")),
            ("store.put_ms", ms("store", "put")),
            ("store.get_ms", ms("store", "get")),
            ("store.hit_ratio", cache.hit_rate()),
            ("store.evictions", cache.evictions as f64),
            ("store.pinned_mb", mb(cache.pinned_bytes)),
            ("simnet.schedule_ms", ms("simnet", "stream_schedule")),
            ("client.deploy_ms", deploy),
            ("client.self_ms", deploy - replayed),
            ("client.destroy_ms", ms("client", "destroy")),
            ("client.requests", counters.requests as f64),
            ("client.files_fetched", counters.files_fetched as f64),
            ("client.cache_hits", counters.cache_hits as f64),
            ("client.peak_buffered_mb", mb(counters.peak_buffered_bytes)),
        ]
    }
}
