//! CDC chunker micro-benchmarks: GB/s at several (min, avg, max) bound
//! configurations.
//! The chunker sits on the publish hot path (every big file is scanned
//! once), so its throughput needs the same visibility as the hash and
//! compression kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gear_corpus::{make_content, new_file_seeds};
use gear_hash::{chunk_spans, ChunkerConfig};

fn corpus_like(len: usize, seed: u64) -> Vec<u8> {
    make_content(&new_file_seeds(seed, len as u64), len as u64).to_vec()
}

/// Bound configs from fine to coarse; labels name the average chunk size.
fn configs() -> [(&'static str, ChunkerConfig); 3] {
    [
        ("avg4k", ChunkerConfig { min_size: 1024, avg_size: 4 * 1024, max_size: 16 * 1024 }),
        ("avg32k", ChunkerConfig { min_size: 8 * 1024, avg_size: 32 * 1024, max_size: 128 * 1024 }),
        ("avg128k", ChunkerConfig::default()), // 32k / 128k / 512k
    ]
}

fn bench_chunker(c: &mut Criterion) {
    let data = corpus_like(4 * 1024 * 1024, 42);
    let mut group = c.benchmark_group("cdc_chunker");
    group.throughput(Throughput::Bytes(data.len() as u64));
    for (label, config) in configs() {
        group.bench_with_input(BenchmarkId::new("chunk_spans", label), &data, |b, d| {
            b.iter(|| chunk_spans(std::hint::black_box(d), &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chunker);
criterion_main!(benches);
