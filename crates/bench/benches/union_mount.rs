//! Union-mount hot-path micro-benchmarks: lookup, read, readdir, copy-up.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use gear_bench::experiments::ExperimentContext;
use gear_core::{Converter, GearIndex};
use gear_fs::{FrozenTree, FsTree, Materializer, NoFetch, UnionFs};
use gear_hash::Fingerprint;

/// Serves every placeholder as an empty body, so a read costs its lookup
/// and the mount's own bookkeeping only.
struct Free;

impl Materializer for Free {
    fn fetch(&self, _fingerprint: Fingerprint, _size: u64) -> Result<Bytes, String> {
        Ok(Bytes::new())
    }
}

fn deep_tree(files: usize) -> FsTree {
    let mut tree = FsTree::new();
    for i in 0..files {
        tree.create_file(
            &format!("usr/lib/d{}/sub{}/file{:04}", i % 8, i % 32, i),
            Bytes::from(vec![(i % 251) as u8; 256]),
        )
        .unwrap();
    }
    tree
}

fn bench_union(c: &mut Criterion) {
    let lower = Arc::new(deep_tree(2048));
    // The table every mount of the image shares, frozen once as an
    // installed index is.
    let frozen = Arc::new(FrozenTree::from_tree(&lower));
    let mut group = c.benchmark_group("union_mount");

    group.bench_function("read_through_lower", |b| {
        let mut mount = UnionFs::over(vec![Arc::clone(&frozen)]);
        let mut i = 0usize;
        b.iter(|| {
            let path = format!("usr/lib/d{}/sub{}/file{:04}", i % 8, i % 32, i % 2048);
            i += 1;
            mount.read(std::hint::black_box(&path), &NoFetch).unwrap()
        })
    });

    // The shape of a cold deploy: a fresh mount over one index tree, the 54
    // distinct files of a start-up trace read once each, on a mount that has
    // touched nothing yet; `read_through_lower` above reuses one warm mount.
    group.bench_function("cold_read_depth5", |b| {
        let paths: Vec<String> = (0..54)
            .map(|i| i * 37 % 2048)
            .map(|i| format!("usr/lib/d{}/sub{}/file{:04}", i % 8, i % 32, i))
            .collect();
        b.iter_batched(
            || UnionFs::over(vec![Arc::clone(&frozen)]),
            |mut mount| {
                for path in &paths {
                    std::hint::black_box(mount.read(path, &NoFetch).unwrap());
                }
                mount
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // What a cold deploy's reads cost the host: one corpus image's index,
    // decoded from its JSON and mounted as the client installs it, its
    // start-up trace read once through a fresh mount.
    group.bench_function("trace_reads_over_index", |b| {
        let ctx = ExperimentContext::quick();
        let series = ctx.corpus.series_by_name("tomcat").expect("quick corpus has tomcat");
        let (image, trace) = (series.images.last().unwrap(), series.traces.last().unwrap());
        let json = Converter::new().convert(image).unwrap().gear_image.index().to_json();
        let index = GearIndex::from_json(&json).unwrap();
        b.iter_batched(
            || UnionFs::over(vec![Arc::clone(index.tree())]),
            |mut mount| {
                for path in &trace.reads {
                    std::hint::black_box(mount.read(path, &Free).unwrap());
                }
                mount
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("readdir_merged", |b| {
        let mut mount = UnionFs::new(vec![Arc::clone(&lower)]);
        mount.write("usr/lib/d0/from-upper", Bytes::from_static(b"x")).unwrap();
        b.iter(|| mount.readdir(std::hint::black_box("usr/lib/d0")).unwrap())
    });

    group.bench_function("write_copy_up", |b| {
        let mut i = 0usize;
        b.iter_batched(
            || UnionFs::new(vec![Arc::clone(&lower)]),
            |mut mount| {
                i += 1;
                mount
                    .write(&format!("usr/lib/d1/new{i}"), Bytes::from_static(b"payload"))
                    .unwrap();
                std::hint::black_box(mount)
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("flatten_2048_files", |b| {
        let mount = UnionFs::new(vec![Arc::clone(&lower)]);
        b.iter(|| std::hint::black_box(&mount).flatten())
    });

    group.finish();
}

criterion_group!(benches, bench_union);
criterion_main!(benches);
