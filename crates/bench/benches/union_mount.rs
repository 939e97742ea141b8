//! Union-mount hot-path micro-benchmarks: lookup, read, readdir, copy-up.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use gear_fs::{FsTree, NoFetch, UnionFs};

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
    let mut group = c.benchmark_group("union_mount");

    group.bench_function("read_through_lower", |b| {
        let mut mount = UnionFs::new(vec![Arc::clone(&lower)]);
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
            || UnionFs::new(vec![Arc::clone(&lower)]),
            |mut mount| {
                for path in &paths {
                    std::hint::black_box(mount.read(path, &NoFetch).unwrap());
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
