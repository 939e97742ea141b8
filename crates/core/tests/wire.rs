//! The Gear index's JSON wire form, held from outside the crate: the bytes
//! it writes are pinned, and what it reads is not tied to that byte order.

use gear_archive::Metadata;
use gear_core::GearIndex;
use gear_fs::{ChunkRef, FileData, FileNode, FsTree, Node};
use gear_hash::Fingerprint;
use gear_image::ImageConfig;

/// The index JSON is what a deployment pulls, so its bytes price every
/// simulated-time golden. The digest was taken from the derive-based codec
/// (over a separate index node type) that the hand-written one in `index.rs`
/// replaced: dir / file / big file / symlink, non-default metadata, names
/// needing escapes, a full config.
#[test]
fn index_wire_bytes_are_pinned() {
    let odd = Metadata { mode: 0o4750, uid: 1000, gid: 33, mtime: 1_600_000_000 };
    let mut tree = FsTree::new();
    tree.insert(
        "opt/say \"hi\"\\\n\t\u{e9}\u{1}",
        Node::fingerprint_file(odd, Fingerprint::of(b"hi"), 2),
    )
    .unwrap();
    let chunks = vec![
        ChunkRef { fingerprint: Fingerprint::of(b"c0"), size: 1024 },
        ChunkRef { fingerprint: Fingerprint::of(b"c1"), size: 512 },
    ];
    let data = FileData::Chunked { chunks, size: 1536 };
    tree.insert("opt/model.bin", Node::File(FileNode { meta: Metadata::file_default(), data }))
        .unwrap();
    tree.insert("opt/link", Node::symlink(odd, "../say \"hi\"")).unwrap();
    tree.mkdir_p("var/empty").unwrap();
    if let Some(Node::Dir { meta, .. }) = tree.get_mut("var") {
        *meta = odd;
    }
    let config = ImageConfig {
        env: vec!["PATH=/bin".into()],
        entrypoint: vec!["/opt/run".into()],
        cmd: vec!["--serve".into()],
        working_dir: "/opt".into(),
        labels: vec![("maintainer".into(), "a \"b\"".into())],
    };
    let index = GearIndex::from_tree(tree, config).unwrap();
    let wire = index.to_json();
    assert_eq!(Fingerprint::of(&wire).to_hex(), "8b7cec4db519e24c9bf87be96839df6f");
    assert_eq!(GearIndex::from_json(&wire).unwrap(), index);
}

/// `config` before `root`, `kind` last, an unknown key in between.
#[test]
fn decode_takes_keys_in_any_order() {
    let index = GearIndex::from_json(
        br#"{"config":{"env":["A=1"]},"root":{"children":{"f":{"size":3,
        "fingerprint":"d41d8cd98f00b204e9800998ecf8427e","extra":true,
        "meta":{"mtime":0,"gid":0,"uid":0,"mode":420},"kind":"file"}},
        "meta":{"mode":493,"uid":0,"gid":0,"mtime":0},"kind":"dir"}}"#,
    )
    .unwrap();
    assert_eq!(index.file_at("f"), Some((Fingerprint::of(b""), 3)));
    assert_eq!(index.config.env, vec!["A=1"]);
}
