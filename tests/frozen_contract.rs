//! The frozen benchmark package (`benchmark/`) builds against the
//! workspace's crates, so what it calls is a contract: an item it uses may
//! change behind its signature, never the signature itself. This file names
//! those items with the signatures the benchmark calls them by, as typed
//! bindings, so a break fails this build and not only the benchmark's.
//!
//! It covers the event core (`gear-simnet`'s `EventQueue`, `FifoLane` and
//! `Link::mbps`), the fleet simulator (`gear-p2p`'s `FleetSim`,
//! `FleetConfig`, `FleetReport` and `Topology`), the registry's hash ring
//! (`gear-registry`'s `HashRing` and `DEFAULT_VNODES`) and telemetry
//! (`gear-telemetry`'s `QuantileSketch` and `Telemetry::collector`): every
//! item the fleet workload imports. For the publish path it covers
//! `gear-core`'s converter, `publish` and Gear image, `gear-compress`'s
//! sizing, and `gear-registry`'s two registries as the set-up and the
//! publish and deploy workloads call them. `gear-archive` has no entry: the
//! benchmark imports nothing from it. The other crates' entries are still
//! to be added.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_compress::{compressed_size_with, Level};
use gear_core::{
    publish, Conversion, ConversionReport, ConvertError, Converter, ConverterOptions, GearFile,
    GearImage, GearIndex, IndexError, PublishReport,
};
use gear_fs::FsTree;
use gear_hash::{Digest, Fingerprint};
use gear_image::{CompressedLayer, Image, ImageRef, Manifest};
use gear_p2p::{FleetConfig, FleetReport, FleetSim, NodeId, Topology, TopologyConfig};
use gear_par::Pool;
use gear_registry::{
    DockerRegistry, GearFileStore, HashRing, PushReport, RegistryStats, StoreStats,
    UploadError, UploadOutcome, DEFAULT_VNODES,
};
use gear_simnet::{DiskModel, EventQueue, FifoLane, LaneSlot, Link};
use gear_telemetry::{Collector, QuantileSketch, Telemetry};

#[test]
fn event_queue_keeps_its_signatures() {
    let _: fn() -> EventQueue<u64> = EventQueue::new;
    let _: fn(&mut EventQueue<u64>, Duration, u64) = EventQueue::push;
    let _: fn(&mut EventQueue<u64>) -> Option<(Duration, u64)> = EventQueue::pop;
    let _: fn(&EventQueue<u64>) -> usize = EventQueue::len;
    let _: fn(&EventQueue<u64>) -> bool = EventQueue::is_empty;
    let _: fn(&EventQueue<u64>) -> u64 = EventQueue::pushed;
}

#[test]
fn fifo_lane_keeps_its_signatures() {
    let _: fn(Link) -> FifoLane = FifoLane::new;
    let _: fn(&mut FifoLane, Duration, u64) -> LaneSlot = FifoLane::transfer;
    let _: fn(f64) -> Link = Link::mbps;
}

#[test]
fn topology_keeps_its_signatures() {
    let _: fn(usize, usize) -> TopologyConfig = TopologyConfig::edge_fleet;
    let _: fn(TopologyConfig) -> Topology = Topology::new;
}

/// The ring the fleet workload's replica-walk replay builds and walks.
#[test]
fn hash_ring_keeps_its_signatures() {
    let _: fn(u32, u32, u64) -> HashRing = HashRing::new;
    let _: fn(&HashRing, Fingerprint, usize) -> Vec<u32> = HashRing::replicas;
    let _: u32 = DEFAULT_VNODES;
}

#[test]
fn fleet_sim_keeps_its_signatures() {
    let _: fn(Topology, FleetConfig, &[(Fingerprint, Bytes)]) -> FleetSim = FleetSim::new;
    let _: fn(&mut FleetSim) -> FleetReport = FleetSim::run;
    let _: fn(&mut FleetSim, u32, Duration, Duration) = FleetSim::schedule_flash_crowd;
    let _: fn(&mut FleetSim, NodeId, Duration) = FleetSim::schedule_client;
    let _: fn(&mut FleetSim, u32, Duration) = FleetSim::schedule_site_reset;
    let _: fn(&mut FleetSim, u32, Duration, Duration) = FleetSim::schedule_shard_outage;
    // What the benchmark reads through the simulator's accessors.
    let _: fn(&FleetSim, u32) -> NodeId = |sim, site| sim.topology().site_nodes(site).start;
    let _: fn(&FleetSim) -> bool = |sim| sim.fleet().merged_metrics().is_ok();
}

#[test]
fn fleet_config_keeps_its_signatures() {
    let _: fn(u64) -> FleetConfig = FleetConfig::standard;
    let config = FleetConfig::standard(7);
    let _: (u32, usize, u64) = (config.shards, config.replication, config.seed);
}

/// The fields of a report the benchmark reads, with their types.
#[test]
fn fleet_report_keeps_its_fields() {
    let _ = |r: &FleetReport| {
        let _: [u32; 3] = [r.clients, r.completed, r.lost];
        let _: [Duration; 4] = [r.makespan, r.p50, r.p99, r.p999];
        let _: [u64; 6] = [
            r.deploy_samples,
            r.events,
            r.retries,
            r.registry_bytes,
            r.lan_bytes,
            r.backbone_bytes,
        ];
        let _: (f64, usize) = (r.shard_balance, r.validation_problems);
    };
}

/// The sketch the fleet workload's telemetry replay fills, one observation
/// per simulated client.
#[test]
fn quantile_sketch_keeps_its_signatures() {
    let _: fn() -> QuantileSketch = QuantileSketch::new;
    let _: fn(&mut QuantileSketch, u64) = QuantileSketch::observe;
    let _: fn(&QuantileSketch) -> u64 = QuantileSketch::count;
}

/// The recorder the publish and deploy workloads' telemetry passes run
/// with.
#[test]
fn telemetry_collector_keeps_its_signature() {
    let _: fn() -> (Telemetry, Arc<Collector>) = Telemetry::collector;
}

/// The converter as set-up and the publish workload build and run it.
#[test]
fn converter_keeps_its_signatures() {
    let _: fn() -> Converter = Converter::new;
    let _: fn(ConverterOptions) -> Converter = Converter::with_options;
    let _: fn(&Converter, &Image) -> Result<Conversion, ConvertError> = Converter::convert;
    let _ = |disk: DiskModel| ConverterOptions {
        disk,
        byte_scale: 1024,
        count_scale: 22.0,
        ..ConverterOptions::default()
    };
    let _ = |c: &Conversion| {
        let _: (&GearImage, &[GearFile], &ConversionReport) = (&c.gear_image, &c.files, &c.report);
        let r = &c.report;
        let _: Duration = r.duration;
        let _: [u64; 4] = [r.scanned_files, r.scanned_bytes, r.unique_files, r.unique_bytes];
        let _: (Fingerprint, &Bytes) = (c.files[0].fingerprint, &c.files[0].content);
    };
}

/// `publish` and the two report fields the publish workload sums.
#[test]
fn publish_keeps_its_signature() {
    let _: fn(&Conversion, &mut DockerRegistry, &mut GearFileStore) -> PublishReport = publish;
    let _ = |r: &PublishReport| {
        let _: [u64; 2] = [r.file_bytes_stored, r.index_bytes_uploaded];
    };
}

/// The Gear image and index as the publish and deploy workloads read them.
#[test]
fn gear_image_keeps_its_signatures() {
    let _: fn(&GearImage) -> &GearIndex = GearImage::index;
    let _: fn(GearImage) -> GearIndex = GearImage::into_index;
    let _: fn(&Image) -> Result<GearImage, IndexError> = GearImage::from_index_image;
    let _: fn(&GearImage) -> Image = GearImage::to_index_image;
    let _: fn(&GearIndex) -> FsTree = GearIndex::to_tree;
    let _: fn(&GearIndex) -> Vec<(Fingerprint, u64)> = GearIndex::referenced_files;
    let _: fn(&GearIndex, &str) -> Option<(Fingerprint, u64)> = GearIndex::file_at;
}

/// The sizing the publish workload's traced pass times.
#[test]
fn compressed_size_keeps_its_signature() {
    let _: fn(&[u8], Level, &Pool) -> usize = compressed_size_with;
    let _: [Level; 3] = [Level::Fast, Level::Default, Level::Best];
}

/// The Gear file store as set-up and every workload use it.
#[test]
fn gear_file_store_keeps_its_signatures() {
    let _: fn() -> GearFileStore = GearFileStore::with_compression;
    let _: fn(&mut GearFileStore, Telemetry) = GearFileStore::set_recorder;
    let _: fn(&GearFileStore, Fingerprint) -> bool = GearFileStore::query;
    let _: fn(&mut GearFileStore, Fingerprint, Bytes) -> Result<UploadOutcome, UploadError> =
        GearFileStore::upload;
    let _: fn(&GearFileStore, Fingerprint) -> Option<Bytes> = GearFileStore::download;
    let _: fn(&GearFileStore, Fingerprint) -> Option<u64> = GearFileStore::transfer_size;
    let _: fn(&GearFileStore) -> Vec<Fingerprint> = GearFileStore::verify;
    let _: fn(&GearFileStore) -> StoreStats = GearFileStore::stats;
    let _: fn(&GearFileStore) -> usize = GearFileStore::object_count;
    let _ = |s: &StoreStats| {
        let _: u64 = s.stored_bytes;
    };
}

/// The Docker registry as set-up fills it and the deploy workloads read it.
#[test]
fn docker_registry_keeps_its_signatures() {
    let _: fn() -> DockerRegistry = DockerRegistry::new;
    let _: fn(&mut DockerRegistry, &Image) -> PushReport = DockerRegistry::push_image;
    let _: for<'a> fn(&'a DockerRegistry, &ImageRef) -> Option<&'a Manifest> =
        DockerRegistry::manifest;
    let _: fn(&DockerRegistry, &ImageRef) -> Option<Image> = DockerRegistry::image;
    let _: fn(&DockerRegistry, Digest) -> Option<CompressedLayer> =
        DockerRegistry::compressed_layer;
    let _: fn(&DockerRegistry) -> RegistryStats = DockerRegistry::stats;
    let _ = |s: &RegistryStats| {
        let _: usize = s.blobs;
    };
}
