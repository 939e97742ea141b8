//! Property-based tests on the Gear format's core invariants.

use std::sync::Arc;

use bytes::Bytes;
use gear_core::{
    publish, CollisionResolver, Converter, ConverterOptions, GearImage, GearIndex, IndexError,
};
use gear_fs::{FrozenTree, FsTree, UnionFs};
use gear_hash::{Digest, Fingerprint};
use gear_image::{ImageBuilder, ImageConfig, ImageRef};
use gear_registry::{DockerRegistry, GearFileStore};
use proptest::prelude::*;

fn any_component() -> impl Strategy<Value = String> {
    "[a-z0-9_]{1,8}".prop_filter("reserved", |s| s != "." && s != "..")
}

fn any_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_component(), 1..4).prop_map(|v| v.join("/"))
}

fn any_files() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    proptest::collection::vec((any_path(), proptest::collection::vec(any::<u8>(), 0..128)), 1..24)
}

fn image_of(files: &[(String, Vec<u8>)]) -> Option<gear_image::Image> {
    let mut tree = FsTree::new();
    for (p, c) in files {
        // Paths may conflict (file under file); skip such samples.
        tree.create_file(p, Bytes::from(c.clone())).ok()?;
    }
    Some(ImageBuilder::new("prop:1".parse::<ImageRef>().unwrap()).layer_from_tree(&tree).build())
}

/// `len` letters and digits from a xorshift stream: text with next to no
/// four-byte repeat for LZSS to find.
fn noise_of(seed: u64, len: usize) -> String {
    const ALPHABET: &[u8; 62] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            char::from(ALPHABET[(x % 62) as usize])
        })
        .collect()
}

/// One way to damage an index document; the `u64`s pick where.
#[derive(Debug, Clone)]
enum Damage {
    Truncate(u64),
    FlipByte(u64, u8),
    /// Replaces one object key — a field name or an entry name — with
    /// another field name or a name no path can reach.
    RenameKey(u64, u64),
    /// Opens a run of arrays or objects at some byte, far more of them than
    /// a decoder could recurse through.
    InsertRun(u64, bool, usize),
}

fn any_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<u64>().prop_map(Damage::Truncate),
        (any::<u64>(), 1..=127u8).prop_map(|(at, mask)| Damage::FlipByte(at, mask)),
        (any::<u64>(), any::<u64>()).prop_map(|(key, name)| Damage::RenameKey(key, name)),
        (any::<u64>(), any::<bool>(), 1..60_000usize)
            .prop_map(|(at, array, len)| Damage::InsertRun(at, array, len)),
    ]
}

fn damaged(json: &[u8], damage: &Damage) -> Vec<u8> {
    const NAMES: [&str; 10] =
        ["..", ".", "", "a/b", "nul\\u0000", "kind", "children", "root", "size", "renamed"];
    let mut doc = json.to_vec();
    match *damage {
        Damage::Truncate(at) => doc.truncate((at % json.len() as u64) as usize),
        Damage::FlipByte(at, mask) => doc[(at % json.len() as u64) as usize] ^= mask,
        Damage::RenameKey(key, name) => {
            // Generated names hold no quotes, so a key is the quoted run
            // that ends at each `":`.
            let ends: Vec<usize> =
                (0..doc.len() - 1).filter(|&i| &doc[i..i + 2] == b"\":").collect();
            let end = ends[(key % ends.len() as u64) as usize];
            let start = doc[..end].iter().rposition(|&b| b == b'"').unwrap() + 1;
            doc.splice(start..end, NAMES[(name % NAMES.len() as u64) as usize].bytes());
        }
        Damage::InsertRun(at, array, len) => {
            let at = (at % json.len() as u64) as usize;
            let open = if array { "[" } else { "{\"a\":" };
            doc.splice(at..at, open.repeat(len).bytes());
        }
    }
    doc
}

proptest! {
    /// An index is untrusted input: whatever arrives, decoding returns
    /// `Ok` or `Err` — never panics — and every index it accepts mounts with
    /// each of its entries reachable by path. (8 damaged documents per case,
    /// so 512 in all.)
    #[test]
    fn damaged_index_json_never_panics(
        files in any_files(),
        damages in proptest::collection::vec(any_damage(), 8),
    ) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let json = Converter::new().convert(&image).unwrap().gear_image.index().to_json();
        for damage in &damages {
            let Ok(index) = GearIndex::from_json(&damaged(&json, damage)) else { continue };
            let mut mount = UnionFs::over(vec![Arc::clone(index.tree())]);
            for (path, node) in index.tree().walk() {
                prop_assert!(mount.contains(&path), "{:?}: {} unreachable", damage, path);
                prop_assert_eq!(index.tree().get(&path).map(|n| n.id()), Some(node.id()));
            }
            let tree = index.to_tree();
            prop_assert_eq!(&mount.flatten(), &tree);
            // However the document came, the table is the canonical one.
            prop_assert_eq!(&FrozenTree::from_tree(&tree), index.tree().as_ref());
        }
    }

    /// Conversion is lossless: every file in the image appears in the index
    /// with the right fingerprint, and the produced Gear files hash to their
    /// names and reproduce the content.
    #[test]
    fn conversion_is_lossless(files in any_files()) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let rootfs = image.root_fs().unwrap();
        let conv = Converter::new().convert(&image).unwrap();
        for file in &conv.files {
            prop_assert_eq!(Fingerprint::of(&file.content), file.fingerprint);
        }
        for (path, node) in rootfs.walk() {
            if let gear_fs::Node::File(f) = node {
                let gear_fs::FileData::Inline(content) = &f.data else { unreachable!() };
                let (fp, size) = conv.gear_image.index().file_at(&path).unwrap();
                prop_assert_eq!(fp, Fingerprint::of(content), "{}", path);
                prop_assert_eq!(size, content.len() as u64);
                let stored = conv.files.iter().find(|g| g.fingerprint == fp).unwrap();
                prop_assert_eq!(&stored.content, content);
            }
        }
    }

    /// The index survives JSON and index-image round trips.
    #[test]
    fn index_roundtrips(files in any_files()) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let conv = Converter::new().convert(&image).unwrap();
        let index = conv.gear_image.index();
        // JSON roundtrip.
        let parsed = GearIndex::from_json(&index.to_json()).unwrap();
        prop_assert_eq!(&parsed, index);
        // Single-layer-image roundtrip.
        let back = GearImage::from_index_image(&conv.gear_image.to_index_image()).unwrap();
        prop_assert_eq!(back.index(), index);
        // Tree roundtrip.
        let rebuilt = GearIndex::from_tree(index.to_tree(), ImageConfig::default()).unwrap();
        prop_assert_eq!(rebuilt.referenced_files(), index.referenced_files());
    }

    /// The table is the tree: the index of any converted image — big files
    /// chunked or not — reads back from its JSON as the same table, that
    /// table is the one its tree freezes to, and the tree thaws out of it
    /// unchanged.
    #[test]
    fn the_table_is_the_tree(files in any_files(), chunked in any::<bool>()) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let converter = if chunked {
            Converter::with_options(ConverterOptions {
                big_file_threshold: Some(64),
                chunk_size: 24,
                ..Default::default()
            })
        } else {
            Converter::new()
        };
        let conv = converter.convert(&image).unwrap();
        let index = conv.gear_image.index();
        prop_assert_eq!(&GearIndex::from_json(&index.to_json()).unwrap(), index);
        let tree = index.to_tree();
        prop_assert_eq!(&FrozenTree::from_tree(&tree), index.tree().as_ref());
        prop_assert_eq!(&GearIndex::from_tree(tree.clone(), index.config.clone()).unwrap(), index);
        prop_assert_eq!(&index.tree().to_tree(), &tree);
        for (path, node) in tree.walk() {
            let frozen = index.tree().get(&path).map(|n| n.to_node());
            prop_assert_eq!(frozen.as_ref(), Some(node), "{}", path);
        }
    }

    /// Publishing then downloading every referenced fingerprint reproduces
    /// the image's full content (registry-side losslessness).
    #[test]
    fn publish_then_fetch_all(files in any_files()) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let conv = Converter::new().convert(&image).unwrap();
        let mut docker = DockerRegistry::new();
        let mut store = GearFileStore::with_compression();
        publish(&conv, &mut docker, &mut store);
        for (fp, size) in conv.gear_image.index().referenced_files() {
            let body = store.download(fp);
            prop_assert!(body.is_some(), "missing {fp}");
            prop_assert_eq!(body.unwrap().len() as u64, size);
        }
        // And the index image is pullable.
        prop_assert!(docker.image(image.reference()).is_some());
    }

    /// The pull path is the Docker pull, short-cut: for any published
    /// image, [`GearImage::pull`] gives what `from_index_image` of the full
    /// `DockerRegistry::image` gives, and both give the conversion's own
    /// Gear image. An image of two layers is no index image to either.
    #[test]
    fn pull_agrees_with_the_docker_pull(files in any_files()) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let conv = Converter::new().convert(&image).unwrap();
        let mut docker = DockerRegistry::new();
        publish(&conv, &mut docker, &mut GearFileStore::new());
        let r = image.reference();
        let pulled = GearImage::pull(&docker, r).unwrap().unwrap();
        let full = GearImage::from_index_image(&docker.image(r).unwrap()).unwrap();
        prop_assert_eq!(&pulled, &full);
        prop_assert_eq!(&pulled, &conv.gear_image);

        let two: ImageRef = "two-layers:1".parse().unwrap();
        let stacked = ImageBuilder::from_image(two.clone(), &conv.gear_image.to_index_image())
            .layer_from_tree(&image.root_fs().unwrap())
            .build();
        docker.push_image(&stacked);
        prop_assert!(matches!(GearImage::pull(&docker, &two), Err(IndexError::NotAnIndexImage)));
        prop_assert!(matches!(
            GearImage::from_index_image(&docker.image(&two).unwrap()),
            Err(IndexError::NotAnIndexImage)
        ));
    }

    /// `GearImage::push` is the Docker push of the index image, short-cut:
    /// into a fresh registry it reports what `push_image` of
    /// `to_index_image` reports and stores the same manifest and the same
    /// blobs under the same digests — and the pull of what it stored is the
    /// conversion's Gear image. Half the images carry 64 KiB of noise in
    /// their config, which the index document holds too: LZSS cannot
    /// shrink that layer, and its frame falls back to stored.
    #[test]
    fn push_agrees_with_the_docker_push(files in any_files(), noise in (any::<bool>(), any::<u64>())) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let image = match noise {
            (true, seed) => ImageBuilder::from_image(image.reference().clone(), &image)
                .env(noise_of(seed, 64 * 1024))
                .build(),
            (false, _) => image,
        };
        let conv = Converter::new().convert(&image).unwrap();
        let r = image.reference();
        let mut pushed = DockerRegistry::new();
        let mut docker = DockerRegistry::new();
        prop_assert_eq!(
            conv.gear_image.push(&mut pushed),
            docker.push_image(&conv.gear_image.to_index_image())
        );
        prop_assert_eq!(pushed.manifest(r), docker.manifest(r));
        let blobs = |registry: &DockerRegistry| {
            let mut blobs: Vec<(Digest, Vec<u8>)> =
                registry.blobs().map(|(digest, blob)| (digest, blob.to_vec())).collect();
            blobs.sort();
            blobs
        };
        prop_assert_eq!(blobs(&pushed), blobs(&docker));
        prop_assert_eq!(pushed.stats(), docker.stats());
        prop_assert_eq!(GearImage::pull(&pushed, r).unwrap(), Some(conv.gear_image.clone()));
        let layer = pushed.manifest(r).unwrap().layers[0].digest;
        // The frame's method byte: 0 stored, 1 LZSS.
        prop_assert_eq!(pushed.blob(layer).unwrap()[4], u8::from(!noise.0));
    }

    /// A stored index blob is untrusted too: flipped or overwritten bytes,
    /// stored under their own digest behind a manifest naming them, pull as
    /// an error or as nothing — never a panic, and never as an index other
    /// than the one published.
    #[test]
    fn damaged_index_blob_never_panics(
        files in any_files(),
        damages in proptest::collection::vec((any::<u64>(), 1..=255u8, any::<bool>()), 8),
    ) {
        let Some(image) = image_of(&files) else { return Ok(()) };
        let conv = Converter::new().convert(&image).unwrap();
        let mut docker = DockerRegistry::new();
        publish(&conv, &mut docker, &mut GearFileStore::new());
        let manifest = docker.manifest(image.reference()).unwrap().clone();
        let blob = docker.blob(manifest.layers[0].digest).unwrap().to_vec();
        let damaged_ref: ImageRef = "damaged:1".parse().unwrap();
        for (at, byte, flip) in damages {
            let mut bad = blob.clone();
            let at = (at % bad.len() as u64) as usize;
            if flip { bad[at] ^= byte } else { bad[at] = byte }
            let mut pointing = manifest.clone();
            pointing.layers[0].digest = Digest::of(&bad);
            prop_assert!(docker.restore_blob(pointing.layers[0].digest, bad));
            docker.restore_manifest(damaged_ref.clone(), pointing);
            if let Ok(Some(pulled)) = GearImage::pull(&docker, &damaged_ref) {
                prop_assert_eq!(pulled.index(), conv.gear_image.index());
            }
        }
    }

    /// The collision resolver never hands out the same id for different
    /// contents, and always dedups identical contents.
    #[test]
    fn collision_resolver_is_injective(
        contents in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..16),
        same_key in any::<bool>(),
    ) {
        let mut resolver = CollisionResolver::new();
        let shared = Fingerprint::of(b"forced-shared-key");
        let mut seen: std::collections::HashMap<Fingerprint, Vec<u8>> = Default::default();
        for content in &contents {
            let bytes = Bytes::from(content.clone());
            let key = if same_key { shared } else { Fingerprint::of(content) };
            let (id, _) = resolver.resolve(key, &bytes);
            if let Some(prev) = seen.get(&id) {
                prop_assert_eq!(prev, content, "same id for different contents");
            }
            seen.insert(id, content.clone());
        }
    }
}
