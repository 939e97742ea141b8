//! Property-based tests for the image model.

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, Metadata};
use gear_compress::Level;
use gear_image::{Descriptor, ImageBuilder, ImageConfig, ImageRef, Layer, Manifest};
use gear_image::{MEDIA_TYPE_CONFIG, MEDIA_TYPE_LAYER};
use gear_hash::Digest;
use proptest::prelude::*;

fn any_component() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,8}".prop_filter("reserved", |s| s != "." && s != "..")
}

fn any_path() -> impl Strategy<Value = ArchivePath> {
    proptest::collection::vec(any_component(), 1..4)
        .prop_map(|v| ArchivePath::new(v.join("/")).unwrap())
}

fn any_layer() -> impl Strategy<Value = Archive> {
    proptest::collection::vec(
        (any_path(), proptest::collection::vec(any::<u8>(), 0..64)),
        0..12,
    )
    .prop_map(|entries| {
        let mut archive = Archive::new();
        for (path, content) in entries {
            archive.push(Entry::file(path, Metadata::file_default(), Bytes::from(content)));
        }
        archive
    })
}

fn any_manifest() -> impl Strategy<Value = Manifest> {
    let descriptor = |media_type: &'static str| {
        (any::<u64>(), any::<u64>()).prop_map(move |(seed, size)| Descriptor {
            media_type: media_type.to_owned(),
            digest: Digest::of(&seed.to_le_bytes()),
            size,
        })
    };
    (descriptor(MEDIA_TYPE_CONFIG), proptest::collection::vec(descriptor(MEDIA_TYPE_LAYER), 0..6))
        .prop_map(|(config, layers)| Manifest { schema_version: 2, config, layers })
}

fn any_config() -> impl Strategy<Value = ImageConfig> {
    let words = || proptest::collection::vec("[a-zA-Z0-9_=/:. -]{0,12}", 0..4);
    let labels = proptest::collection::vec(("[a-z.]{1,8}", "[a-z ]{0,8}"), 0..3);
    (words(), words(), words(), "[a-z/]{0,12}", labels)
        .prop_map(|(mut env, entrypoint, cmd, working_dir, labels)| {
            // One value that needs escaping: a quote, a backslash, a
            // control character and a character beyond ASCII.
            env.push("Q=\"\\\u{1}é".to_owned());
            ImageConfig { env, entrypoint, cmd, working_dir, labels }
        })
}

/// One way to damage a JSON document; the `u64`s pick where.
#[derive(Debug, Clone)]
enum Damage {
    Truncate(u64),
    FlipByte(u64, u8),
    /// Opens a run of arrays or objects at some byte, far more of them than
    /// a decoder could recurse through.
    InsertRun(u64, bool, usize),
}

fn any_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<u64>().prop_map(Damage::Truncate),
        (any::<u64>(), 1..=255u8).prop_map(|(at, mask)| Damage::FlipByte(at, mask)),
        (any::<u64>(), any::<bool>(), 1..60_000usize)
            .prop_map(|(at, array, len)| Damage::InsertRun(at, array, len)),
    ]
}

fn damaged(json: &[u8], damage: &Damage) -> Vec<u8> {
    let mut doc = json.to_vec();
    let at = |at: u64| (at % json.len() as u64) as usize;
    match *damage {
        Damage::Truncate(cut) => doc.truncate(at(cut)),
        Damage::FlipByte(flip, mask) => doc[at(flip)] ^= mask,
        Damage::InsertRun(run, array, len) => {
            let open = if array { "[" } else { "{\"a\":" };
            doc.splice(at(run)..at(run), open.repeat(len).bytes());
        }
    }
    doc
}

proptest! {
    /// A manifest is the first untrusted document of every pull: damaged
    /// by truncation, flipped bytes or a deep run of brackets, it decodes
    /// to `Ok` or `Err` — never a panic — and whatever it decodes to
    /// round-trips. (8 damaged documents per case.)
    #[test]
    fn damaged_manifest_never_panics(
        manifest in any_manifest(),
        damages in proptest::collection::vec(any_damage(), 8),
    ) {
        let json = manifest.to_json();
        prop_assert_eq!(Manifest::from_json(&json).unwrap(), manifest);
        for damage in &damages {
            if let Ok(decoded) = Manifest::from_json(&damaged(&json, damage)) {
                prop_assert_eq!(Manifest::from_json(&decoded.to_json()).unwrap(), decoded);
            }
        }
    }

    /// The config blob, read on every pull before the index: the same
    /// damage, the same guarantee.
    #[test]
    fn damaged_config_never_panics(
        config in any_config(),
        damages in proptest::collection::vec(any_damage(), 8),
    ) {
        let json = config.to_json();
        prop_assert_eq!(ImageConfig::from_json(&json).unwrap(), config);
        for damage in &damages {
            if let Ok(decoded) = ImageConfig::from_json(&damaged(&json, damage)) {
                prop_assert_eq!(ImageConfig::from_json(&decoded.to_json()).unwrap(), decoded);
            }
        }
    }

    /// Layer compression roundtrips at every level and preserves the diff id.
    #[test]
    fn layer_compression_roundtrip(archive in any_layer(), fast in any::<bool>()) {
        let level = if fast { Level::Fast } else { Level::Best };
        let layer = Layer::from_archive(archive);
        let compressed = layer.to_compressed(level);
        let back = compressed.to_layer().unwrap();
        prop_assert_eq!(back.diff_id(), layer.diff_id());
        prop_assert_eq!(back.archive(), layer.archive());
    }

    /// Identical archives get identical diff ids and distribution digests —
    /// the foundation of layer-level dedup.
    #[test]
    fn content_addressing_is_deterministic(archive in any_layer()) {
        let a = Layer::from_archive(archive.clone());
        let b = Layer::from_archive(archive);
        prop_assert_eq!(a.diff_id(), b.diff_id());
        prop_assert_eq!(
            a.to_compressed(Level::Fast).digest(),
            b.to_compressed(Level::Fast).digest()
        );
    }

    /// Manifests survive JSON roundtrips regardless of layer count.
    #[test]
    fn manifest_roundtrip(sizes in proptest::collection::vec(0u64..1_000_000, 0..16)) {
        let manifest = Manifest {
            schema_version: 2,
            config: Descriptor {
                media_type: MEDIA_TYPE_CONFIG.to_owned(),
                digest: Digest::of(b"config"),
                size: 1,
            },
            layers: sizes
                .iter()
                .enumerate()
                .map(|(i, s)| Descriptor {
                    media_type: MEDIA_TYPE_LAYER.to_owned(),
                    digest: Digest::of(format!("layer{i}").as_bytes()),
                    size: *s,
                })
                .collect(),
        };
        let parsed = Manifest::from_json(&manifest.to_json()).unwrap();
        prop_assert_eq!(&parsed, &manifest);
        prop_assert_eq!(parsed.total_layer_bytes(), sizes.iter().sum::<u64>());
    }

    /// Stacking layers and reconstructing the root fs is order-sensitive but
    /// total: the top layer always wins for the same path.
    #[test]
    fn top_layer_wins(path in any_path(), low in proptest::collection::vec(any::<u8>(), 1..32), high in proptest::collection::vec(any::<u8>(), 1..32)) {
        let mut bottom = Archive::new();
        bottom.push(Entry::file(path.clone(), Metadata::file_default(), Bytes::from(low)));
        let mut top = Archive::new();
        top.push(Entry::file(path.clone(), Metadata::file_default(), Bytes::from(high.clone())));
        let image = ImageBuilder::new("p:1".parse::<ImageRef>().unwrap())
            .layer(bottom)
            .layer(top)
            .build();
        let fs = image.root_fs().unwrap();
        match fs.get(path.as_str()) {
            Some(gear_fs::Node::File(f)) => {
                let gear_fs::FileData::Inline(content) = &f.data else { panic!() };
                prop_assert_eq!(&content[..], &high[..]);
            }
            other => prop_assert!(false, "expected file, got {other:?}"),
        }
    }

    /// Image config roundtrips through JSON with arbitrary strings.
    #[test]
    fn config_roundtrip(env in proptest::collection::vec("[A-Z_]{1,8}=[a-z0-9/:.]{0,16}", 0..8), wd in "[a-z/]{0,12}") {
        let config = ImageConfig { env, working_dir: wd, ..Default::default() };
        prop_assert_eq!(ImageConfig::from_json(&config.to_json()).unwrap(), config);
    }
}
