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
//! item the fleet workload imports. The other crates' entries are still to
//! be added.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_p2p::{FleetConfig, FleetReport, FleetSim, NodeId, Topology, TopologyConfig};
use gear_registry::{HashRing, DEFAULT_VNODES};
use gear_simnet::{EventQueue, FifoLane, LaneSlot, Link};
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
