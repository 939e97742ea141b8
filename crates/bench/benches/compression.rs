//! Compression micro-benchmarks: codec throughput, the granularity ablation
//! (per-layer vs per-file compression ratios on corpus content), sizing a
//! thousand small files as a publish pass does, and the word-wise kernels
//! (match_len, crc32, md5/sha256 block processing) so a kernel regression
//! is visible outside the modeled suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gear_compress::{compress, compressed_size, crc32, decompress, Level, Lzss};
use gear_corpus::{make_content, new_file_seeds};
use gear_hash::{Md5, Sha256};

fn corpus_like(len: usize, seed: u64) -> Vec<u8> {
    make_content(&new_file_seeds(seed, len as u64), len as u64).to_vec()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("lzss");
    let data = corpus_like(256 * 1024, 42);
    group.throughput(Throughput::Bytes(data.len() as u64));
    for level in [Level::Fast, Level::Default, Level::Best] {
        group.bench_with_input(
            BenchmarkId::new("compress", format!("{level:?}")),
            &data,
            |b, d| b.iter(|| compress(std::hint::black_box(d), level)),
        );
    }
    let framed = compress(&data, Level::Default);
    group.bench_function("decompress", |b| {
        b.iter(|| decompress(std::hint::black_box(&framed)).unwrap())
    });
    group.finish();
}

fn bench_granularity(c: &mut Criterion) {
    // Ablation: compressing 64 files individually vs as one concatenated
    // "layer" stream — the trade-off behind registry storage formats.
    let files: Vec<Vec<u8>> = (0..64).map(|i| corpus_like(4096, 1000 + i)).collect();
    let layer: Vec<u8> = files.iter().flatten().copied().collect();
    let mut group = c.benchmark_group("compression_granularity");
    group.bench_function("per_file_64x4k", |b| {
        b.iter(|| {
            files
                .iter()
                .map(|f| compressed_size(std::hint::black_box(f), Level::Fast))
                .sum::<usize>()
        })
    });
    group.bench_function("per_layer_256k", |b| {
        b.iter(|| compressed_size(std::hint::black_box(&layer), Level::Fast))
    });
    group.finish();
}

fn bench_small_file_sizing(c: &mut Criterion) {
    // What a publish pass asks of the compressor: the framed size of each
    // new file, a thousand calls on inputs far smaller than the match
    // finder's tables.
    let files: Vec<Vec<u8>> = (0..1000).map(|i| corpus_like(2048, 5000 + i)).collect();
    let mut group = c.benchmark_group("small_file_sizing");
    group.throughput(Throughput::Bytes(files.iter().map(|f| f.len() as u64).sum()));
    group.bench_function("compressed_size_1000x2k", |b| {
        b.iter(|| {
            files
                .iter()
                .map(|f| compressed_size(std::hint::black_box(f), Level::Default))
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let data = corpus_like(1024 * 1024, 99);

    let mut group = c.benchmark_group("kernels");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32_slice8", |b| {
        b.iter(|| crc32(std::hint::black_box(&data)))
    });
    group.bench_function("md5_block", |b| {
        b.iter(|| {
            let mut h = Md5::new();
            h.update(std::hint::black_box(&data));
            h.finalize()
        })
    });
    group.bench_function("sha256_block", |b| {
        b.iter(|| {
            let mut h = Sha256::new();
            h.update(std::hint::black_box(&data));
            h.finalize()
        })
    });
    group.finish();

    // match_len on self-similar data: every probe runs long matches, so the
    // measured rate is the word-wise scanner's fast path.
    let half = data.len() / 2;
    let doubled: Vec<u8> = [&data[..half], &data[..half]].concat();
    let mut matched = 0u64;
    let mut i = 0;
    while i + half + 8 < doubled.len() {
        matched += Lzss::match_len(&doubled, i, i + half) as u64;
        i += 64;
    }
    let mut group = c.benchmark_group("kernels_match_len");
    group.throughput(Throughput::Bytes(matched));
    group.bench_function("u64_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut i = 0;
            while i + half + 8 < doubled.len() {
                total += Lzss::match_len(std::hint::black_box(&doubled), i, i + half);
                i += 64;
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_granularity,
    bench_small_file_sizing,
    bench_kernels
);
criterion_main!(benches);
