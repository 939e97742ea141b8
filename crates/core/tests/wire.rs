//! The Gear index's JSON wire form, held from outside the crate: the bytes
//! it writes are pinned, and what it reads is not tied to that byte order.

use gear_archive::Metadata;
use gear_core::GearIndex;
use gear_fs::{ChunkRef, FileData, FileNode, FsTree, Node};
use gear_hash::Fingerprint;
use gear_image::ImageConfig;
use proptest::prelude::*;
use serde::{to_value, Value};

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

// ---- the writer against a reference ------------------------------------------
//
// `GearIndex::to_json` writes the document straight from the tree. The
// reference below builds the same document as a `serde_json::Value` tree — the
// grammar of DESIGN.md §2 spelled out key by key — and lets the generic JSON
// writer print it.

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
}

fn node_value(node: &Node) -> Value {
    let kind = |kind: &str| ("kind", Value::String(kind.to_owned()));
    match node {
        Node::Dir { meta, children } => {
            let children = children.iter().map(|(name, child)| (name.clone(), node_value(child)));
            object([
                kind("dir"),
                ("meta", to_value(meta)),
                ("children", Value::Object(children.collect())),
            ])
        }
        Node::File(FileNode { meta, data }) => match data {
            FileData::Fingerprint { fingerprint, size } => object([
                kind("file"),
                ("meta", to_value(meta)),
                ("fingerprint", to_value(fingerprint)),
                ("size", to_value(size)),
            ]),
            FileData::Chunked { chunks, size } => {
                let chunks = chunks.iter().map(|chunk| {
                    object([
                        ("fingerprint", to_value(&chunk.fingerprint)),
                        ("size", to_value(&chunk.size)),
                    ])
                });
                object([
                    kind("big_file"),
                    ("meta", to_value(meta)),
                    ("chunks", Value::Array(chunks.collect())),
                    ("size", to_value(size)),
                ])
            }
            FileData::Inline(_) => unreachable!("an index holds no inline body"),
        },
        Node::Symlink(link) => object([
            kind("symlink"),
            ("meta", to_value(&link.meta)),
            ("target", to_value(&link.target)),
        ]),
    }
}

fn reference_json(index: &GearIndex) -> Vec<u8> {
    let tree = index.to_tree();
    let doc = object([("root", node_value(tree.root())), ("config", to_value(&index.config))]);
    serde_json::to_vec(&doc).unwrap()
}

/// Characters a name or string may hold: every escape class of the JSON
/// writer (quote, backslash, the three short escapes, other controls), the
/// last unescaped ASCII neighbours of each, and two- to four-byte UTF-8.
const ALPHABET: [char; 20] = [
    'a',
    'Z',
    '0',
    '.',
    ' ',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{e9}',
    '\u{3b1}',
    '\u{65e5}',
    '\u{1f600}',
    '/',
];

/// A string over [`ALPHABET`]; `names` leaves out `/`, which no entry name
/// may hold.
fn any_text(names: bool, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let letters = ALPHABET.len() - usize::from(names);
    proptest::collection::vec(0..letters, len)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn any_meta() -> impl Strategy<Value = Metadata> {
    (any::<u32>(), any::<u32>(), 0..70_000u32, any::<u64>())
        .prop_map(|(mode, uid, gid, mtime)| Metadata { mode, uid, gid, mtime })
}

fn any_fingerprint() -> impl Strategy<Value = Fingerprint> {
    any::<u64>().prop_map(|seed| Fingerprint::of(&seed.to_le_bytes()))
}

fn any_node() -> impl Strategy<Value = Node> {
    let chunk = (any_fingerprint(), any::<u64>())
        .prop_map(|(fingerprint, size)| ChunkRef { fingerprint, size });
    prop_oneof![
        any_meta().prop_map(Node::empty_dir),
        (any_meta(), any_fingerprint(), any::<u64>())
            .prop_map(|(meta, fingerprint, size)| Node::fingerprint_file(meta, fingerprint, size)),
        (any_meta(), proptest::collection::vec(chunk, 0..4), any::<u64>()).prop_map(
            |(meta, chunks, size)| {
                Node::File(FileNode { meta, data: FileData::Chunked { chunks, size } })
            }
        ),
        (any_meta(), any_text(false, 0..12)).prop_map(|(meta, target)| Node::symlink(meta, target)),
    ]
}

fn any_config() -> impl Strategy<Value = ImageConfig> {
    let texts = || proptest::collection::vec(any_text(false, 0..8), 0..3);
    let labels = proptest::collection::vec((any_text(false, 0..8), any_text(false, 0..8)), 0..3);
    (texts(), texts(), texts(), any_text(false, 0..8), labels).prop_map(
        |(env, entrypoint, cmd, working_dir, labels)| ImageConfig {
            env,
            entrypoint,
            cmd,
            working_dir,
            labels,
        },
    )
}

fn any_index() -> impl Strategy<Value = GearIndex> {
    let path =
        proptest::collection::vec(any_text(true, 1..4), 1..4).prop_map(|names| names.join("/"));
    (proptest::collection::vec((path, any_node()), 0..24), any_config()).prop_map(
        |(entries, config)| {
            let mut tree = FsTree::new();
            for (path, node) in entries {
                // `.`, `..` and a path through a file or symlink do not
                // insert; the tree keeps what does.
                let _ = tree.insert(&path, node);
            }
            GearIndex::from_tree(tree, config).unwrap()
        },
    )
}

proptest! {
    /// Whatever the tree holds, the bytes are the reference's and read back
    /// as the same index.
    #[test]
    fn to_json_matches_the_value_tree_reference(index in any_index()) {
        let (wire, want) = (index.to_json(), reference_json(&index));
        prop_assert_eq!(String::from_utf8_lossy(&wire), String::from_utf8_lossy(&want));
        prop_assert_eq!(index.serialized_len(), wire.len() as u64);
        prop_assert_eq!(GearIndex::from_json(&wire).unwrap(), index);
    }
}
