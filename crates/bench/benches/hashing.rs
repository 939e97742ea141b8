//! Fingerprinting micro-benchmarks and the MD5-vs-SHA-256 ablation.
//!
//! The paper picks MD5 for Gear-file fingerprints; this bench quantifies the
//! hashing-cost side of that choice at typical image-file sizes.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use gear_hash::{fingerprint_all, md5_lanes, Digest, Fingerprint};
use gear_par::Pool;

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    for size in [512usize, 16 * 1024, 1024 * 1024] {
        let data = content(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("md5_fingerprint", size), &data, |b, d| {
            b.iter(|| Fingerprint::of(std::hint::black_box(d)))
        });
        group.bench_with_input(BenchmarkId::new("sha256_digest", size), &data, |b, d| {
            b.iter(|| Digest::of(std::hint::black_box(d)))
        });
    }
    // One index layer — what a cold deploy hashes for the layer's diff id.
    let layer = content(32 * 1024);
    group.throughput(Throughput::Bytes(layer.len() as u64));
    group.bench_with_input(BenchmarkId::new("sha256_digest", layer.len()), &layer, |b, d| {
        b.iter(|| Digest::of(std::hint::black_box(d)))
    });
    group.finish();
}

/// The batch a conversion hashes: one image's worth of small files — about
/// 200 of 2 KB in the benchmark corpus — on the serial pool `publish` uses.
fn bench_image_batch(c: &mut Criterion) {
    let files: Vec<Vec<u8>> = (0..200).map(|i| content(2048 + i)).collect();
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Bytes(files.iter().map(|f| f.len() as u64).sum()));
    group.bench_function("fingerprint_all_200x2k", |b| {
        b.iter(|| fingerprint_all(std::hint::black_box(&files), &Pool::serial()))
    });
    group.finish();
}

/// One image-shaped batch of ~200 bodies whose sizes spread evenly in log
/// scale from 64 B to 64 KiB, in an order unrelated to size — the shape the
/// longest-first lane feed is for.
fn bench_mixed_batch(c: &mut Criterion) {
    let files: Vec<Vec<u8>> = (0..200)
        .map(|i| content((64.0 * 1024f64.powf(f64::from(i * 67 % 200) / 199.0)) as usize))
        .collect();
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Bytes(files.iter().map(|f| f.len() as u64).sum()));
    group.bench_function("fingerprint_all_mixed", |b| {
        b.iter(|| fingerprint_all(std::hint::black_box(&files), &Pool::serial()))
    });
    group.finish();
}

/// The batch kernel at each lane width, on long equal messages where the
/// feed order and the narrow tail do not matter: 64 messages of 256 KiB.
fn bench_lanes(c: &mut Criterion) {
    fn width<const L: usize>(group: &mut BenchmarkGroup, messages: &[Vec<u8>]) {
        group.bench_with_input(BenchmarkId::new("md5_lanes", L), messages, |b, m| {
            b.iter(|| md5_lanes::<L, _>(std::hint::black_box(m)))
        });
    }
    let messages: Vec<Vec<u8>> = (0..64).map(|_| content(256 << 10)).collect();
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Bytes(64 << 18));
    width::<1>(&mut group, &messages);
    width::<2>(&mut group, &messages);
    width::<4>(&mut group, &messages);
    width::<8>(&mut group, &messages);
    width::<16>(&mut group, &messages);
    group.finish();
}

criterion_group!(benches, bench_hashing, bench_image_batch, bench_mixed_batch, bench_lanes);
criterion_main!(benches);
