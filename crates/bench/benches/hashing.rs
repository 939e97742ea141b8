//! Fingerprinting micro-benchmarks and the MD5-vs-SHA-256 ablation.
//!
//! The paper picks MD5 for Gear-file fingerprints; this bench quantifies the
//! hashing-cost side of that choice at typical image-file sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gear_hash::{fingerprint_all, Digest, Fingerprint};
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

criterion_group!(benches, bench_hashing, bench_image_batch);
criterion_main!(benches);
