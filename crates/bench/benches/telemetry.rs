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

    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
