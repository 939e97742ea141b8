//! Deployment-engine execution cost: how fast the simulator itself runs one
//! Gear / Docker / Slacker deployment (not the simulated time it reports).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gear_bench::experiments::{fig8, ExperimentContext};
use gear_client::{ClientConfig, DockerClient, GearClient, SlackerClient};
use gear_core::{Converter, GearImage, GearIndex};

fn bench_deploy(c: &mut Criterion) {
    let ctx = ExperimentContext::quick();
    let published = fig8::publish_corpus(&ctx);
    let series = ctx.corpus.series_by_name("tomcat").expect("quick corpus has tomcat");
    let image = series.images.last().unwrap();
    let trace = series.traces.last().unwrap();
    let config: ClientConfig = ctx.client_config;

    let mut group = c.benchmark_group("deployment");
    group.sample_size(20);
    group.bench_function("gear_cold", |b| {
        b.iter(|| {
            let mut client = GearClient::new(config);
            let (id, report) = client
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .unwrap();
            client.destroy(id);
            std::hint::black_box(report)
        })
    });
    group.bench_function("docker_cold", |b| {
        b.iter(|| {
            let mut client = DockerClient::new(config);
            let (id, report) =
                client.deploy(image.reference(), trace, &published.docker).unwrap();
            client.destroy(id);
            std::hint::black_box(report)
        })
    });
    group.bench_function("slacker_cold", |b| {
        b.iter(|| {
            let mut client = SlackerClient::new(config);
            let (id, report) =
                client.deploy(image.reference(), trace, &published.docker).unwrap();
            client.destroy(id);
            std::hint::black_box(report)
        })
    });
    // Warm Gear deployment: index installed, cache hot.
    group.bench_function("gear_warm", |b| {
        let mut client = GearClient::new(config);
        let (id, _) = client
            .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
            .unwrap();
        client.destroy(id);
        b.iter(|| {
            let (id, report) = client
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .unwrap();
            client.destroy(id);
            std::hint::black_box(report)
        })
    });
    // What a cold deploy does with the index bytes it pulled, before the
    // first read: JSON to placeholder tree.
    let index_json = Converter::new().convert(image).unwrap().gear_image.index().to_json();
    group.throughput(Throughput::Bytes(index_json.len() as u64));
    group.bench_function("index_decode", |b| {
        b.iter(|| GearIndex::from_json(std::hint::black_box(&index_json)).unwrap())
    });
    // The whole pull a cold deploy makes of its index, from the stored
    // blob: frame decode with CRC-32, archive parse, JSON decode.
    let manifest = published.gear_index.manifest(image.reference()).unwrap();
    group.throughput(Throughput::Bytes(manifest.total_layer_bytes()));
    group.bench_function("index_pull", |b| {
        b.iter(|| GearImage::pull(&published.gear_index, image.reference()).unwrap().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_deploy);
criterion_main!(benches);
