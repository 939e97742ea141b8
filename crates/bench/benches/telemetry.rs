//! Telemetry hot-path micro-benchmarks.
//!
//! The record path runs inside every priced operation, so it must stay
//! cheap: the disabled handle should be branch-predictable nothingness, and
//! a live counter/sketch update one uncontended lock plus a map lookup by
//! `&str`.

use std::time::Duration;

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use gear_telemetry::{Collector, QuantileSketch, Telemetry};

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");

    let noop = Telemetry::noop();
    group.bench_function("noop_count", |b| {
        b.iter(|| noop.count(std::hint::black_box("client.bytes_pulled"), 1))
    });
    group.bench_function("noop_span", |b| {
        b.iter(|| {
            let span = noop.span_start("bench", std::hint::black_box("op"));
            noop.span_end(span);
        })
    });

    // Flight-recorder bounded, like a fleet node: span storage stays at
    // 1024 entries no matter how many iterations criterion runs.
    let live = Telemetry::new(Arc::new(Collector::with_span_capacity(1024)));
    group.bench_function("counter_hot_key", |b| {
        b.iter(|| live.count(std::hint::black_box("client.bytes_pulled"), 1))
    });
    group.bench_function("gauge_max", |b| {
        b.iter(|| live.gauge_max(std::hint::black_box("cache.bytes"), 4096))
    });
    group.bench_function("sketch_observe", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(977);
            live.sketch("client.fetch_nanos", std::hint::black_box(i % 1_000_000));
        })
    });
    // One `repro fleet` flash crowd's latencies as runs (first, step,
    // count): 10 000 clients 200 µs apart round-robin over 64 nodes, node
    // `n` ready at 0.4 s + 25 ms · n. Its queued clients form one run
    // falling by 200 µs · 64 a client; the rest deploy in the 20 ms launch.
    let runs: Vec<(u64, u64, u64)> = (0..64u64)
        .flat_map(|node| {
            let (spacing, launch) = (200_000, 20_000_000);
            let clients = (10_000 - node).div_ceil(64);
            let ready = 400_000_000 + 25_000_000 * node;
            let queued = ((ready - spacing * node) / (spacing * 64) + 1).min(clients);
            let first = ready + launch - spacing * node;
            [(first, spacing * 64, queued), (launch, 0, clients - queued)]
        })
        .collect();
    group.bench_function("sketch_observe_descending_10k/looped", |b| {
        b.iter(|| {
            let mut sketch = QuantileSketch::new();
            for &(first, step, count) in std::hint::black_box(&runs) {
                for i in 0..count {
                    sketch.observe(first - i * step);
                }
            }
            sketch
        })
    });
    group.bench_function("sketch_observe_descending_10k/batched", |b| {
        b.iter(|| {
            let mut sketch = QuantileSketch::new();
            for &(first, step, count) in std::hint::black_box(&runs) {
                sketch.observe_descending(first, step, count);
            }
            sketch
        })
    });
    group.bench_function("span_at", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            live.span_at(
                "bench",
                "op",
                Duration::from_nanos(i),
                Duration::from_nanos(std::hint::black_box(50)),
            )
        })
    });

    group.bench_function("sketch_merge_64_buckets", |b| {
        let mut shard = QuantileSketch::new();
        for v in 0..4096u64 {
            shard.observe(v * v % 1_048_576);
        }
        b.iter(|| {
            let mut cloud = QuantileSketch::new();
            cloud.merge(std::hint::black_box(&shard)).unwrap();
            cloud
        })
    });
    // The fleet report's fold: 512 node tallies of about 370 buckets each,
    // latencies from 3.6 s down to 66 ms plus a 20 ms launch run, merged
    // into one.
    let nodes: Vec<QuantileSketch> = (0..512u64)
        .map(|node| {
            let mut tally = QuantileSketch::new();
            tally.observe_descending(3_600_000_000 - 1_000 * node, 100_000, 35_340);
            tally.observe_descending(20_000_000, 0, 1 + node % 16);
            tally
        })
        .collect();
    group.bench_function("sketch_merge_512_nodes", |b| {
        b.iter(|| {
            let mut fleet = QuantileSketch::new();
            for tally in std::hint::black_box(&nodes) {
                fleet.merge(tally).unwrap();
            }
            fleet
        })
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
