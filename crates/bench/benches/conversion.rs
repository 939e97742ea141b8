//! Converter throughput (the work behind paper Fig. 6).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gear_core::{publish, Converter, ConverterOptions};
use gear_corpus::{Corpus, CorpusConfig};
use gear_registry::{DockerRegistry, GearFileStore};

fn bench_conversion(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig::quick());
    let image = corpus
        .series_by_name("tomcat")
        .expect("quick corpus has tomcat")
        .images
        .last()
        .expect("versions")
        .clone();
    let bytes = image.content_bytes();

    let mut group = c.benchmark_group("conversion");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("docker_to_gear", |b| {
        let converter = Converter::new();
        b.iter(|| converter.convert(std::hint::black_box(&image)).unwrap())
    });
    group.bench_function("docker_to_gear_chunked", |b| {
        let converter = Converter::with_options(ConverterOptions {
            big_file_threshold: Some(2048),
            chunk_size: 1024,
            ..Default::default()
        });
        b.iter(|| converter.convert(std::hint::black_box(&image)).unwrap())
    });
    group.bench_function("rootfs_reconstruction", |b| {
        b.iter(|| std::hint::black_box(&image).root_fs().unwrap())
    });
    // The whole write path: replay, fingerprint, upload check and sizing,
    // index encode and push, into registries as empty as a first publish.
    group.bench_function("convert_and_publish", |b| {
        let converter = Converter::new();
        b.iter(|| {
            let conversion = converter.convert(std::hint::black_box(&image)).unwrap();
            let mut docker = DockerRegistry::new();
            let mut files = GearFileStore::with_compression();
            publish(&conversion, &mut docker, &mut files)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_conversion);
criterion_main!(benches);
