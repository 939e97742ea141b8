//! Fleet event core: the bare `EventQueue` under three schedule shapes, and
//! whole `FleetSim` runs of `repro fleet`'s flash crowd and rolling update
//! on its standard topology.
//!
//! * `event_queue/ascending` — 100 k events pushed in time order, then
//!   drained: a pre-scheduled crowd.
//! * `event_queue/outage_first` — one late event (an outage's end) queued
//!   before the same 100 k, which arrive as one spaced batch: the rolling
//!   update.
//! * `event_queue/interleaved` — 1 000 pending events, then pop one and
//!   push one a pseudo-random gap later until 100 k were pushed: events a
//!   simulation books as it goes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use gear_bench::experiments::fleet::{FLEET_CLIENTS, NODES_PER_SITE, SITES};
use gear_bench::experiments::ExperimentContext;
use gear_core::Converter;
use gear_p2p::{FleetConfig, FleetSim, Topology, TopologyConfig};
use gear_simnet::EventQueue;

/// Events pushed per queue case.
const EVENTS: u64 = 100_000;
/// Gap between ascending events.
const STEP: Duration = Duration::from_micros(2);

/// A pseudo-random gap under a millisecond.
fn gap(i: u64) -> Duration {
    Duration::from_nanos(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44)
}

fn ascending() -> impl Iterator<Item = (Duration, u64)> {
    (0..EVENTS).map(|i| (STEP * i as u32, i))
}

/// Pops everything, summing the payloads so nothing is optimised away.
fn drain(mut queue: EventQueue<u64>) -> u64 {
    let mut sum = 0u64;
    while let Some((_, payload)) = queue.pop() {
        sum = sum.wrapping_add(payload);
    }
    sum
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet/event_queue");
    group.bench_function("ascending", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            for (at, payload) in ascending() {
                queue.push(at, payload);
            }
            drain(queue)
        })
    });
    group.bench_function("outage_first", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            queue.push(Duration::from_secs(120), u64::MAX);
            queue.push_spaced(Duration::ZERO, STEP, 0..EVENTS as u32, u64::from);
            drain(queue)
        })
    });
    group.bench_function("interleaved", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            for i in 0..1_000 {
                queue.push(gap(i), i);
            }
            for i in 1_000..EVENTS {
                let (now, _) = queue.pop().unwrap();
                queue.push(now + gap(i), i);
            }
            drain(queue)
        })
    });
    group.finish();
}

fn bench_flash_crowd(c: &mut Criterion) {
    let ctx = ExperimentContext::quick();
    let series = ctx.corpus.series_by_name(ctx.series_or_first("redis")).unwrap();
    let conversion = Converter::new().convert(series.images.last().unwrap()).unwrap();
    let objects: Vec<_> =
        conversion.files.into_iter().map(|f| (f.fingerprint, f.content)).collect();
    let seed = ctx.corpus.config.seed;

    let sim = || {
        let topo = Topology::new(TopologyConfig::edge_fleet(SITES, NODES_PER_SITE));
        FleetSim::new(topo, FleetConfig::standard(seed), &objects)
    };

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("flash_crowd_10k", |b| {
        b.iter(|| {
            let mut sim = sim();
            sim.schedule_flash_crowd(FLEET_CLIENTS, Duration::ZERO, Duration::from_micros(200));
            sim.run().makespan
        })
    });
    // `repro fleet`'s rolling update: the crowd lands through a shard
    // outage, then every site is reset in turn and re-seeds for one
    // straggler — the path that wipes a node's tally beside its collector.
    group.bench_function("rolling_update_10k", |b| {
        b.iter(|| {
            let mut sim = sim();
            sim.schedule_shard_outage(0, Duration::ZERO, Duration::from_secs(120));
            sim.schedule_flash_crowd(FLEET_CLIENTS, Duration::ZERO, Duration::from_micros(500));
            for site in 0..SITES as u32 {
                sim.schedule_site_reset(site, Duration::from_secs(300 + 30 * u64::from(site)));
                let node = sim.topology().site_nodes(site).start;
                sim.schedule_client(node, Duration::from_secs(301 + 30 * u64::from(site)));
            }
            sim.run().makespan
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_flash_crowd);
criterion_main!(benches);
