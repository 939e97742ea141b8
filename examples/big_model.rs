//! The paper's future-work extension (§VII): AI containers with big model
//! files are chunked so a container can read *slices* of a model on demand
//! instead of pulling the whole file.
//!
//! ```sh
//! cargo run --example big_model
//! ```

use bytes::Bytes;
use gear::client::{ClientConfig, GearClient};
use gear::core::{publish, Converter, ConverterOptions};
use gear::corpus::{StartupTrace, TaskKind};
use gear::fs::FsTree;
use gear::image::{ImageBuilder, ImageRef};
use gear::registry::{DockerRegistry, GearFileStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An "AI serving" image: a small server binary plus a 4 MB model blob.
    let model: Vec<u8> = (0..4_000_000u32).map(|i| (i % 251) as u8).collect();
    let mut rootfs = FsTree::new();
    rootfs.create_file("usr/bin/serve", Bytes::from_static(b"server"))?;
    rootfs.create_file("opt/models/llm.bin", Bytes::from(model.clone()))?;
    let reference: ImageRef = "llm-serving:1.0".parse()?;
    let image = ImageBuilder::new(reference.clone()).layer_from_tree(&rootfs).build();

    // Convert with big-file chunking: files ≥ 1 MB become 256 KiB chunks.
    let converter = Converter::with_options(ConverterOptions {
        big_file_threshold: Some(1_000_000),
        chunk_size: 256 * 1024,
        ..Default::default()
    });
    let conversion = converter.convert(&image)?;
    let (_, files, big_files, _) = conversion.gear_image.index().node_counts();
    println!(
        "converted: {} regular files, {} chunked big files, {} Gear objects",
        files,
        big_files,
        conversion.files.len()
    );

    let mut registry = DockerRegistry::new();
    let mut store = GearFileStore::with_compression();
    publish(&conversion, &mut registry, &mut store);

    // Deploy; the startup trace reads only the server binary.
    let mut client = GearClient::new(ClientConfig::default());
    let trace = StartupTrace { reads: vec!["usr/bin/serve".into()], task: TaskKind::Generic };
    let (_id, report) = client.deploy(&reference, &trace, &registry, &store)?;
    println!(
        "deployed with {} fetches ({} bytes) — the model stayed remote",
        report.files_fetched, report.bytes_pulled
    );

    // Now the server reads one slice of the model (say an embedding table
    // in the middle): only the overlapping chunks are fetched.
    let before = client.metrics().bytes_down;
    let index = client.index(&reference).expect("installed");
    // Use the index's own view to show the chunk structure.
    let (dirs, regs, bigs, links) = index.node_counts();
    println!("index nodes: {dirs} dirs, {regs} files, {bigs} big files, {links} symlinks");

    // Read a 100 KiB slice at offset 2 MB through a fresh mount.
    let slice = read_model_slice(&mut client, &reference, &registry, &store, 2_000_000, 100_000)?;
    assert_eq!(&slice[..], &model[2_000_000..2_100_000]);
    let after = client.metrics().bytes_down;
    println!(
        "read 100 KB slice: fetched {} bytes of chunks (whole model is {} bytes)",
        after - before,
        model.len()
    );
    assert!((after - before) < model.len() as u64 / 4, "most chunks stay remote");
    println!("done.");
    Ok(())
}

/// Reads a byte range from a chunked file in a fresh container.
fn read_model_slice(
    client: &mut GearClient,
    reference: &ImageRef,
    registry: &DockerRegistry,
    store: &GearFileStore,
    offset: u64,
    len: u64,
) -> Result<Bytes, Box<dyn std::error::Error>> {
    let trace = StartupTrace { reads: vec![], task: TaskKind::Generic };
    let (id, _) = client.deploy(reference, &trace, registry, store)?;
    let slice = client.read_range(id, "opt/models/llm.bin", offset, len, store)?;
    client.destroy(id);
    Ok(slice)
}
