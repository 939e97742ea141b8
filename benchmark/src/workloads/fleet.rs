//! `fleet`: a million-client flash crowd, then a million-client rolling
//! update, over a 32-site × 16-node edge topology against the sharded
//! registry.
//!
//! The two scenarios are those of `crates/bench/src/experiments/fleet.rs`
//! at fleet density. The peer topology and directory, `EventQueue` /
//! `FifoLane`, `ShardedStore` / `HashRing` admission and the fleet
//! telemetry sketches do all the work; no other workload touches them.
//! (`hetero_links` is left out: at this density its events, makespan and
//! tails equal the flash crowd's.)

use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_p2p::{FleetConfig, FleetReport, FleetSim, Topology, TopologyConfig};
use gear_registry::{HashRing, DEFAULT_VNODES};
use gear_simnet::{EventQueue, FifoLane, Link};
use gear_telemetry::QuantileSketch;

use super::{mb, ratio, LayerMetric, PassOutput, SimSummary, Workload};
use crate::setup::{self, Inputs};
use crate::trace::Tracer;

/// Simulated clients per scenario.
const CLIENTS: u32 = 1_000_000;
/// Edge sites.
const SITES: usize = 32;
/// Nodes per site.
const NODES_PER_SITE: usize = 16;
/// Gap between flash-crowd arrivals: everyone lands within two seconds,
/// as in the repository's 10 000-client experiment — inside the seeding
/// phase, so the median client waits for its node's seed. (Stretching a
/// million arrivals over 50 s instead makes the median client find its
/// node ready, and the median latency the constant launch cost.)
const FLASH_SPACING: Duration = Duration::from_micros(2);
/// Gap between rolling-update arrivals: five seconds, as in the
/// repository's experiment.
const ROLLING_SPACING: Duration = Duration::from_micros(5);
/// The series whose newest image the fleet deploys.
const SERIES: &str = "tomcat";
/// The percentile `FleetReport` exposes as its far tail.
const TAIL_P: f64 = 0.999;

/// The `fleet` workload.
pub struct Fleet {
    /// The image as the sharded registry serves it.
    objects: Vec<(Fingerprint, Bytes)>,
    seed: u64,
}

impl Fleet {
    /// Converts the newest `tomcat` image into registry objects; `None`
    /// when the corpus lacks it.
    pub fn new(inputs: &Inputs) -> Option<Self> {
        let image = inputs.corpus.series_by_name(SERIES)?.images.last()?;
        let conversion = setup::converter().convert(image).ok()?;
        let objects = conversion
            .files
            .into_iter()
            .map(|f| (f.fingerprint, f.content))
            .collect();
        Some(Fleet {
            objects,
            seed: inputs.corpus.config.seed,
        })
    }

    fn sim(&self) -> FleetSim {
        FleetSim::new(
            Topology::new(TopologyConfig::edge_fleet(SITES, NODES_PER_SITE)),
            FleetConfig::standard(self.seed),
            &self.objects,
        )
    }

    fn run(&self, schedule: fn(&mut FleetSim)) -> FleetReport {
        let mut sim = self.sim();
        schedule(&mut sim);
        sim.run()
    }
}

/// Everyone arrives within two seconds of a cold fleet.
fn flash_crowd(sim: &mut FleetSim) {
    sim.schedule_flash_crowd(CLIENTS, Duration::ZERO, FLASH_SPACING);
}

/// A shard outage covers the seeding phase, then every site is reset in
/// sequence once the crowd has landed, each followed by a straggler.
fn rolling_update(sim: &mut FleetSim) {
    sim.schedule_shard_outage(0, Duration::ZERO, Duration::from_secs(120));
    sim.schedule_flash_crowd(CLIENTS, Duration::ZERO, ROLLING_SPACING);
    for site in 0..SITES as u32 {
        sim.schedule_site_reset(site, Duration::from_secs(300 + 30 * u64::from(site)));
        let node = sim.topology().site_nodes(site).start;
        sim.schedule_client(node, Duration::from_secs(301 + 30 * u64::from(site)));
    }
}

/// The fields of a report that a fixed seed must reproduce exactly.
fn fingerprint_of(r: &FleetReport) -> [u64; 12] {
    [
        u64::from(r.clients),
        u64::from(r.completed),
        u64::from(r.lost),
        r.makespan.as_nanos() as u64,
        r.p50.as_nanos() as u64,
        r.p99.as_nanos() as u64,
        r.p999.as_nanos() as u64,
        r.events,
        r.retries,
        r.registry_bytes,
        r.lan_bytes,
        r.backbone_bytes,
    ]
}

fn summarise(crowd: &FleetReport, rolling: &FleetReport, mismatches: u64) -> PassOutput {
    let ops = u64::from(crowd.clients) + u64::from(rolling.clients);
    let lost = u64::from(crowd.lost) + u64::from(rolling.lost);
    let unfinished = ops - u64::from(crowd.completed) - u64::from(rolling.completed);
    let invariants = vec![
        ("events", crowd.events + rolling.events),
        ("retries", crowd.retries + rolling.retries),
        ("lan_bytes", crowd.lan_bytes + rolling.lan_bytes),
        (
            "backbone_bytes",
            crowd.backbone_bytes + rolling.backbone_bytes,
        ),
    ];
    PassOutput {
        ops,
        // `lost` clients are also unfinished: count each client once.
        failed: lost.max(unfinished) + mismatches,
        sim: SimSummary {
            p50_s: crowd.p50.as_secs_f64(),
            tail_s: crowd.p999.as_secs_f64(),
            tail_p: TAIL_P,
            samples: crowd.deploy_samples,
            total_s: (crowd.makespan + rolling.makespan).as_secs_f64(),
            net_mb_per_op: mb(crowd.registry_bytes + rolling.registry_bytes) / ops as f64,
            invariants,
        },
    }
}

impl Workload for Fleet {
    fn pass(&mut self, _inputs: &Inputs, verify: bool) -> PassOutput {
        let crowd = self.run(flash_crowd);
        let rolling = self.run(rolling_update);
        let mut mismatches = 0;
        if verify {
            // A fixed seed must reproduce the report bit for bit.
            let again = self.run(flash_crowd);
            if fingerprint_of(&again) != fingerprint_of(&crowd)
                || again.shard_balance.to_bits() != crowd.shard_balance.to_bits()
            {
                mismatches += 1;
            }
            mismatches += (crowd.validation_problems + rolling.validation_problems) as u64;
        }
        summarise(&crowd, &rolling, mismatches)
    }

    /// The fleet's per-node flight recorders are always on — there is no
    /// recorder to attach — so this is a plain pass.
    fn telemetry_pass(&mut self, inputs: &Inputs) -> PassOutput {
        self.pass(inputs, false)
    }

    fn traced_pass(&mut self, _inputs: &Inputs, tracer: &Tracer) -> Vec<LayerMetric> {
        let mut reports = Vec::with_capacity(2);
        let scenarios: [fn(&mut FleetSim); 2] = [flash_crowd, rolling_update];
        for (op, schedule) in scenarios.into_iter().enumerate() {
            tracer.set_op(op as u32);
            let _op = tracer.enter("bench", "fleet_scenario");
            let mut sim = tracer.span("p2p", "sim_build", || self.sim());
            tracer.span("p2p", "schedule", || schedule(&mut sim));
            reports.push(tracer.span("p2p", "run", || sim.run()));
            let _ = std::hint::black_box(tracer.span("telemetry", "merged_metrics", || {
                sim.fleet().merged_metrics()
            }));
        }
        let (crowd, rolling) = (&reports[0], &reports[1]);
        let events = crowd.events + rolling.events;
        let clients = u64::from(crowd.clients) + u64::from(rolling.clients);

        // Bare event core: the same number of events pushed, popped and
        // booked onto one lane, with no fleet logic around them.
        tracer.set_op(2);
        tracer.span("simnet", "queue_replay", || {
            let mut queue = EventQueue::new();
            let mut lane = FifoLane::new(Link::mbps(1_000.0));
            for i in 0..events {
                queue.push(FLASH_SPACING * (i as u32), i);
            }
            while let Some((at, _)) = queue.pop() {
                std::hint::black_box(lane.transfer(at, 4096));
            }
        });
        // Ring lookups: one replica walk per object per simulated seed.
        let config = FleetConfig::standard(self.seed);
        let ring = HashRing::new(config.shards, DEFAULT_VNODES, config.seed);
        let ring_rounds = 2_000usize;
        tracer.span("registry", "ring_replay", || {
            for _ in 0..ring_rounds {
                for (fingerprint, _) in &self.objects {
                    std::hint::black_box(ring.replicas(*fingerprint, config.replication));
                }
            }
        });
        // One sketch observation per simulated client, as the fleet makes.
        tracer.span("telemetry", "sketch_replay", || {
            let mut sketch = QuantileSketch::new();
            for i in 0..clients {
                sketch.observe(20_000_000 + i * 37);
            }
            std::hint::black_box(sketch.count());
        });

        let t = tracer.summary();
        let ms = |layer, name| t.ms(layer, name);
        let run = ms("p2p", "run");
        let ns_per = |ms: f64, n: f64| ratio(ms * 1e6, n);
        let ring_lookups = (ring_rounds * self.objects.len()) as f64;
        vec![
            ("p2p.sim_build_ms", ms("p2p", "sim_build")),
            ("p2p.schedule_ms", ms("p2p", "schedule")),
            ("p2p.run_ms", run),
            ("p2p.events", events as f64),
            ("p2p.events_per_s", ratio(events as f64, run / 1e3)),
            (
                "p2p.events_per_client",
                ratio(events as f64, clients as f64),
            ),
            ("p2p.lan_mb", mb(crowd.lan_bytes + rolling.lan_bytes)),
            (
                "p2p.backbone_mb",
                mb(crowd.backbone_bytes + rolling.backbone_bytes),
            ),
            (
                "p2p.registry_mb",
                mb(crowd.registry_bytes + rolling.registry_bytes),
            ),
            ("p2p.retries", (crowd.retries + rolling.retries) as f64),
            ("p2p.lost", f64::from(crowd.lost + rolling.lost)),
            (
                "simnet.queue_ns_per_event",
                ns_per(ms("simnet", "queue_replay"), events as f64),
            ),
            (
                "registry.ring_ns_per_lookup",
                ns_per(ms("registry", "ring_replay"), ring_lookups),
            ),
            ("registry.shard_balance", crowd.shard_balance),
            (
                "registry.shard_rejections",
                (crowd.shard_rejections + rolling.shard_rejections) as f64,
            ),
            (
                "telemetry.sketch_ns_per_sample",
                ns_per(ms("telemetry", "sketch_replay"), clients as f64),
            ),
            ("telemetry.merge_ms", ms("telemetry", "merged_metrics")),
            (
                "telemetry.dropped_spans",
                (crowd.dropped_spans + rolling.dropped_spans) as f64,
            ),
        ]
    }
}
