//! What `GearIndex::from_json` makes of hand-written documents.
//!
//! The expectations were recorded from the decoder that went through a
//! `serde_json::Value` tree, before the pull decoder in `index.rs` replaced
//! it: every `accepts` document decoded there to the same index, every
//! `rejects` document was an error there. (The nesting cap at the end is the
//! exception: there, that decoder overflowed its stack.)

use gear_archive::Metadata;
use gear_core::{GearIndex, IndexError};
use gear_fs::{ChunkRef, FileData, FileNode, FsTree, Node};
use gear_image::ImageConfig;

const META: &str = r#"{"mode":420,"uid":1,"gid":2,"mtime":3}"#;
const FP: &str = "900150983cd24fb0d6963f7d28e17f72";
const FP2: &str = "d41d8cd98f00b204e9800998ecf8427e";

fn meta() -> Metadata {
    Metadata { mode: 420, uid: 1, gid: 2, mtime: 3 }
}

/// `{k:v,…}` from already-encoded keys and values.
fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// A document whose root holds `node` under the name `n`.
fn doc_with(node: &str) -> String {
    format!(r#"{{"root":{{"kind":"dir","meta":{META},"children":{{"n":{node}}}}},"config":{{}}}}"#)
}

/// The index [`doc_with`] decodes to when `node` decodes to `want`.
fn index_with(want: Node) -> GearIndex {
    let mut tree = FsTree::from_root(Node::empty_dir(meta())).unwrap();
    tree.insert("n", want).unwrap();
    GearIndex::from_tree(tree, ImageConfig::default()).unwrap()
}

fn file_node() -> Node {
    Node::fingerprint_file(meta(), FP.parse().unwrap(), 7)
}

fn big_file_node() -> Node {
    let chunks = vec![
        ChunkRef { fingerprint: FP.parse().unwrap(), size: 4 },
        ChunkRef { fingerprint: FP2.parse().unwrap(), size: 3 },
    ];
    Node::File(FileNode { meta: meta(), data: FileData::Chunked { chunks, size: 7 } })
}

/// A node's keys with their already-encoded values, in wire order.
type Fields = Vec<(&'static str, String)>;

fn file_fields() -> Fields {
    vec![
        ("kind", "\"file\"".into()),
        ("meta", META.into()),
        ("fingerprint", format!("\"{FP}\"")),
        ("size", "7".into()),
    ]
}

fn big_file_fields() -> Fields {
    let chunks =
        format!(r#"[{{"fingerprint":"{FP}","size":4}},{{"fingerprint":"{FP2}","size":3}}]"#);
    vec![
        ("kind", "\"big_file\"".into()),
        ("meta", META.into()),
        ("chunks", chunks),
        ("size", "7".into()),
    ]
}

fn symlink_fields() -> Fields {
    vec![("kind", "\"symlink\"".into()), ("meta", META.into()), ("target", "\"../t\"".into())]
}

/// [`META`], key by key.
fn meta_fields() -> Fields {
    vec![("mode", "420".into()), ("uid", "1".into()), ("gid", "2".into()), ("mtime", "3".into())]
}

fn dir_fields() -> Fields {
    vec![("kind", "\"dir\"".into()), ("meta", META.into()), ("children", "{}".into())]
}

/// Every ordering of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for pick in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(pick);
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

#[track_caller]
fn accepts(doc: &str, want: &GearIndex) {
    match GearIndex::from_json(doc.as_bytes()) {
        Ok(got) => assert_eq!(&got, want, "{doc}"),
        Err(e) => panic!("{e}: {doc}"),
    }
}

#[track_caller]
fn rejects(doc: &str) {
    match GearIndex::from_json(doc.as_bytes()) {
        Err(IndexError::Json(_)) => {}
        other => panic!("{other:?}: {doc}"),
    }
}

#[test]
fn keys_come_in_any_order() {
    let cases: [(Fields, Node); 4] = [
        (file_fields(), file_node()),
        (big_file_fields(), big_file_node()),
        (symlink_fields(), Node::symlink(meta(), "../t")),
        (dir_fields(), Node::empty_dir(meta())),
    ];
    for (fields, node) in cases {
        let want = index_with(node);
        for order in permutations(&fields) {
            accepts(&doc_with(&object(&order)), &want);
        }
    }
    // A chunk's two keys, and the four of `meta`.
    let want = index_with(big_file_node());
    let swapped =
        format!(r#"[{{"size":4,"fingerprint":"{FP}"}},{{"size":3,"fingerprint":"{FP2}"}}]"#);
    let mut fields = big_file_fields();
    fields[2].1 = swapped;
    accepts(&doc_with(&object(&fields)), &want);
    let want = index_with(file_node());
    for order in permutations(&meta_fields()) {
        let mut fields = file_fields();
        fields[1].1 = object(&order);
        accepts(&doc_with(&object(&fields)), &want);
    }
    // `config` before `root`.
    let root = object(&dir_fields());
    accepts(
        &format!(r#"{{"config":{{"env":["A=1"]}},"root":{root}}}"#),
        &GearIndex::from_tree(
            FsTree::from_root(Node::empty_dir(meta())).unwrap(),
            ImageConfig { env: vec!["A=1".into()], ..Default::default() },
        )
        .unwrap(),
    );
}

/// One value of each JSON type, nested ones included.
const UNKNOWN_VALUES: [&str; 10] = [
    "null",
    "true",
    "false",
    "0",
    "-2.5e3",
    r#""s \" \\ é""#,
    "[]",
    r#"[1,[2,{"a":[]}],"x"]"#,
    "{}",
    r#"{"kind":"dir","children":{"x":{"kind":7}},"deep":[{"a":{"b":null}}]}"#,
];

#[test]
fn unknown_keys_are_skipped_at_every_level() {
    let want = index_with(big_file_node());
    for value in UNKNOWN_VALUES {
        for at in 0..3 {
            let extra = ("extra", value.to_owned());
            // Node level: first, in the middle, last.
            let mut fields = big_file_fields();
            fields.insert([0, 2, 4][at], extra.clone());
            accepts(&doc_with(&object(&fields)), &want);
            // Meta level.
            let mut meta_fields = meta_fields();
            meta_fields.insert([0, 2, 4][at], extra.clone());
            let mut fields = big_file_fields();
            fields[1].1 = object(&meta_fields);
            accepts(&doc_with(&object(&fields)), &want);
            // Chunk level.
            let mut chunk: Vec<(&str, String)> =
                vec![("fingerprint", format!("\"{FP}\"")), ("size", "4".into())];
            chunk.insert(at, extra.clone());
            let mut fields = big_file_fields();
            fields[2].1 = format!(r#"[{},{{"fingerprint":"{FP2}","size":3}}]"#, object(&chunk));
            accepts(&doc_with(&object(&fields)), &want);
            // Root level.
            let node = object(&big_file_fields());
            let root = format!(r#"{{"kind":"dir","meta":{META},"children":{{"n":{node}}}}}"#);
            let mut top: Vec<(&str, String)> = vec![("root", root), ("config", "{}".into())];
            top.insert(at, extra);
            accepts(&object(&top), &want);
        }
    }
}

#[test]
fn the_last_duplicate_key_wins() {
    // `kind`: a dir that turns out to be a file.
    let mut fields = file_fields();
    fields.insert(0, ("kind", "\"dir\"".into()));
    accepts(&doc_with(&object(&fields)), &index_with(file_node()));
    let mut fields = file_fields();
    fields.push(("kind", "\"symlink\"".into()));
    fields.push(("target", "\"t\"".into()));
    accepts(&doc_with(&object(&fields)), &index_with(Node::symlink(meta(), "t")));
    // An unknown kind that a known one follows.
    let mut fields = file_fields();
    fields.insert(0, ("kind", "\"socket\"".into()));
    accepts(&doc_with(&object(&fields)), &index_with(file_node()));
    // Scalars and `meta`.
    let mut fields = file_fields();
    fields.insert(0, ("size", "9".into()));
    fields.insert(0, ("fingerprint", format!("\"{FP2}\"")));
    fields.insert(0, ("meta", r#"{"mode":1,"uid":1,"gid":1,"mtime":1}"#.into()));
    accepts(&doc_with(&object(&fields)), &index_with(file_node()));
    let mut fields = file_fields();
    fields[1].1 = r#"{"mode":1,"mode":420,"uid":1,"gid":2,"mtime":3}"#.into();
    accepts(&doc_with(&object(&fields)), &index_with(file_node()));
    // `children`: the second object replaces the first, it does not merge.
    let file = object(&file_fields());
    let link = object(&symlink_fields());
    let mut lone = FsTree::from_root(Node::empty_dir(meta())).unwrap();
    lone.insert("b", Node::symlink(meta(), "../t")).unwrap();
    accepts(
        &format!(
            r#"{{"root":{{"kind":"dir","meta":{META},"children":{{"a":{file}}},"children":{{"b":{link}}}}},"config":{{}}}}"#
        ),
        &GearIndex::from_tree(lone, ImageConfig::default()).unwrap(),
    );
    // A child name: the later node, wherever it sorts.
    for names in [["n", "n", "z"], ["n", "a", "n"], ["a", "n", "n"]] {
        let mut tree = FsTree::from_root(Node::empty_dir(meta())).unwrap();
        let nodes = [(file.as_str(), file_node()), (link.as_str(), Node::symlink(meta(), "../t"))];
        let mut children = Vec::new();
        for (nth, name) in names.iter().enumerate() {
            let (json, node) = &nodes[nth % 2];
            children.push(format!("\"{name}\":{json}"));
            tree.insert(name, node.clone()).unwrap();
        }
        accepts(
            &format!(
                r#"{{"root":{{"kind":"dir","meta":{META},"children":{{{}}}}},"config":{{}}}}"#,
                children.join(",")
            ),
            &GearIndex::from_tree(tree, ImageConfig::default()).unwrap(),
        );
    }
    // `root` and `config`.
    let root = object(&dir_fields());
    accepts(
        &format!(r#"{{"root":{link},"config":{{"cmd":["x"]}},"root":{root},"config":{{}}}}"#),
        &GearIndex::from_tree(
            FsTree::from_root(Node::empty_dir(meta())).unwrap(),
            ImageConfig::default(),
        )
        .unwrap(),
    );
}

#[test]
fn numbers_are_unsigned_integers_in_range() {
    let with_size = |size: &str| {
        let mut fields = file_fields();
        fields[3].1 = size.to_owned();
        doc_with(&object(&fields))
    };
    let sized = |size: u64| index_with(Node::fingerprint_file(meta(), FP.parse().unwrap(), size));
    accepts(&with_size("0"), &sized(0));
    accepts(&with_size("18446744073709551615"), &sized(u64::MAX));
    // A minus sign is not what rules a number out; its value is.
    accepts(&with_size("-0"), &sized(0));
    for size in ["-1", "7.0", "7.5", "7e0", "1e3", "1E+2", "18446744073709551616", "\"7\"", "null"]
    {
        rejects(&with_size(size));
    }
    let with_meta = |key: &str, value: &str| {
        let mut meta_fields = meta_fields();
        meta_fields.iter_mut().find(|(k, _)| *k == key).unwrap().1 = value.to_owned();
        let mut fields = file_fields();
        fields[1].1 = object(&meta_fields);
        doc_with(&object(&fields))
    };
    for key in ["mode", "uid", "gid"] {
        let mut want = meta();
        match key {
            "mode" => want.mode = u32::MAX,
            "uid" => want.uid = u32::MAX,
            _ => want.gid = u32::MAX,
        }
        accepts(
            &with_meta(key, "4294967295"),
            &index_with(Node::fingerprint_file(want, FP.parse().unwrap(), 7)),
        );
        for value in ["4294967296", "-1", "1.5", "1e2", "\"1\"", "null", "true"] {
            rejects(&with_meta(key, value));
        }
    }
    let late = Metadata { mtime: u64::MAX, ..meta() };
    accepts(
        &with_meta("mtime", "18446744073709551615"),
        &index_with(Node::fingerprint_file(late, FP.parse().unwrap(), 7)),
    );
    rejects(&with_meta("mtime", "-1"));
    rejects(&with_meta("mtime", "18446744073709551616"));
}

/// The JSON escape of one UTF-16 code unit, `code` being its hex digits.
fn u(code: &str) -> String {
    format!("{}u{code}", '\\')
}

#[test]
fn names_and_targets_are_unescaped() {
    // (JSON spelling, the string it stands for)
    let spellings = [
        (format!("caf{}", u("00e9")), "caf\u{e9}"),
        ("caf\u{e9}".to_owned(), "caf\u{e9}"),
        (u("d83d") + &u("de00"), "\u{1f600}"),
        (u("D83D") + &u("DE00"), "\u{1f600}"),
        ("\u{65e5}\u{672c}".to_owned(), "\u{65e5}\u{672c}"),
        (r#"q\"b\\n\nr\rt\tb\bf\f"#.to_owned(), "q\"b\\n\nr\rt\tb\u{8}f\u{c}"),
        (u("0001") + &u("001F"), "\u{1}\u{1f}"),
        (format!("s{}p ", u("0020")), "s p "),
    ];
    let file = object(&file_fields());
    for (json, text) in &spellings {
        let mut tree = FsTree::from_root(Node::empty_dir(meta())).unwrap();
        tree.insert(text, file_node()).unwrap();
        accepts(
            &format!(
                r#"{{"root":{{"kind":"dir","meta":{META},"children":{{"{json}":{file}}}}},"config":{{}}}}"#
            ),
            &GearIndex::from_tree(tree, ImageConfig::default()).unwrap(),
        );
        let mut fields = symlink_fields();
        fields[2].1 = format!("\"{json}\"");
        accepts(&doc_with(&object(&fields)), &index_with(Node::symlink(meta(), *text)));
    }
    // `\/` is a slash: fine in a target, never in a name.
    let mut fields = symlink_fields();
    fields[2].1 = r#""\/usr\/bin""#.into();
    accepts(&doc_with(&object(&fields)), &index_with(Node::symlink(meta(), "/usr/bin")));
    // Field names are strings like any other.
    accepts(
        &doc_with(&format!(
            r#"{{"k{i}nd":"file","m{e}ta":{META},"fingerprint":"{FP}","size":7}}"#,
            i = u("0069"),
            e = u("0065"),
        )),
        &index_with(file_node()),
    );
    // Upper-case hex reads as the same fingerprint.
    let mut fields = file_fields();
    fields[2].1 = format!("\"{}\"", FP.to_uppercase());
    accepts(&doc_with(&object(&fields)), &index_with(file_node()));
    // Whitespace between any two tokens.
    accepts(
        &format!(
            " {{ \"root\" : {{ \"kind\" :\t\"dir\" ,\n\"meta\" : {META} , \"children\" : {{ }} }} ,\r\n \"config\" : {{ }} }} "
        ),
        &GearIndex::from_tree(
            FsTree::from_root(Node::empty_dir(meta())).unwrap(),
            ImageConfig::default(),
        )
        .unwrap(),
    );
    let bad_names =
        ["".to_owned(), ".".into(), "..".into(), r"a\/b".into(), "a/b".into(), u("002e")];
    for name in bad_names.iter().chain([&format!("nul{}", u("0000"))]) {
        rejects(&format!(
            r#"{{"root":{{"kind":"dir","meta":{META},"children":{{"{name}":{file}}}}},"config":{{}}}}"#
        ));
    }
    let bad_escapes =
        [r"\x".to_owned(), u("12"), u("d83d"), u("d83d") + "x", u("00zz"), "\\".into()];
    for bad in bad_escapes {
        let mut fields = symlink_fields();
        fields[2].1 = format!("\"{bad}\"");
        rejects(&doc_with(&object(&fields)));
    }
}

#[test]
fn a_missing_or_mistyped_field_is_an_error() {
    for fields in [file_fields(), big_file_fields(), symlink_fields(), dir_fields()] {
        for drop in 0..fields.len() {
            let mut short = fields.clone();
            short.remove(drop);
            rejects(&doc_with(&object(&short)));
        }
    }
    for key in ["mode", "uid", "gid", "mtime"] {
        let meta_fields: Vec<(&str, String)> = ["mode", "uid", "gid", "mtime"]
            .into_iter()
            .filter(|k| *k != key)
            .map(|k| (k, "1".to_owned()))
            .collect();
        let mut fields = file_fields();
        fields[1].1 = object(&meta_fields);
        rejects(&doc_with(&object(&fields)));
    }
    for chunk in [format!(r#"{{"fingerprint":"{FP}"}}"#), r#"{"size":4}"#.into(), "{}".into()] {
        let mut fields = big_file_fields();
        fields[2].1 = format!("[{chunk}]");
        rejects(&doc_with(&object(&fields)));
    }
    let root = object(&dir_fields());
    rejects(&format!(r#"{{"root":{root}}}"#));
    rejects(r#"{"config":{}}"#);
    rejects("{}");

    // The right key holding the wrong thing.
    let mistyped: [(Fields, usize, &[&str]); 9] = [
        (file_fields(), 0, &["\"socket\"", "\"\"", "\"File\"", "7", "null", "[\"file\"]"]),
        (file_fields(), 1, &["null", "[]", "7", "\"meta\""]),
        (
            file_fields(),
            2,
            &[
                "null",
                "7",
                "\"\"",
                "\"900150983cd24fb0d6963f7d28e17f7\"",
                "\"900150983cd24fb0d6963f7d28e17f720\"",
                "\"900150983cd24fb0d6963f7d28e17f7g\"",
                "\"900150983cd24fb0d6963f7d28e17f72ab\"",
            ],
        ),
        (big_file_fields(), 2, &["null", "{}", "7", "[7]", "[null]", "[[]]", "\"chunks\""]),
        (big_file_fields(), 3, &["null", "[]"]),
        (symlink_fields(), 2, &["null", "7", "[\"t\"]", "{}"]),
        (dir_fields(), 2, &["null", "[]", "7", "{\"a\":7}", "{\"a\":null}", "{\"a\":{}}"]),
        (dir_fields(), 0, &["\"directory\""]),
        (dir_fields(), 1, &["{}"]),
    ];
    for (fields, at, values) in mistyped {
        for value in values {
            let mut wrong = fields.clone();
            wrong[at].1 = (*value).to_owned();
            rejects(&doc_with(&object(&wrong)));
        }
    }
    // An empty chunk list is a list all the same.
    let mut fields = big_file_fields();
    fields[2].1 = "[]".into();
    accepts(
        &doc_with(&object(&fields)),
        &index_with(Node::File(FileNode {
            meta: meta(),
            data: FileData::Chunked { chunks: Vec::new(), size: 7 },
        })),
    );

    // The root is a directory, the document an object, and nothing follows it.
    let file = object(&file_fields());
    rejects(&format!(r#"{{"root":{file},"config":{{}}}}"#));
    rejects(&format!(r#"{{"root":[{root}],"config":{{}}}}"#));
    rejects(&format!(r#"{{"root":{root},"config":[]}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{"env":"A=1"}}}}"#));
    rejects(&format!(r#"[{{"root":{root},"config":{{}}}}]"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}}}} x"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}}}}{{}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},}}"#));
    rejects(&format!(r#"{{"root":{root} "config":{{}}}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},"extra":[1,}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},"extra":tru}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},"extra":1.2.3}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},"extra":"open}}"#));
    rejects(&format!(r#"{{"root":{root},"config":{{}},extra:1}}"#));
    rejects("");
    rejects("null");
    rejects("\u{feff}{}");
    assert!(matches!(GearIndex::from_json(b"{\"root\":\xff}"), Err(IndexError::Json(_))));
}

/// A document whose one file sits `components` names below the root.
fn nested(components: usize) -> String {
    let open = format!(r#"{{"kind":"dir","meta":{META},"children":{{"d":"#);
    let file = object(&file_fields());
    let dirs = components - 1;
    format!(
        r#"{{"root":{}{{"kind":"dir","meta":{META},"children":{{"f":{file}}}}}{},"config":{{}}}}"#,
        open.repeat(dirs),
        "}}".repeat(dirs)
    )
}

/// The reader's nesting cap is what stands between a crafted index and a
/// stack overflow, which would abort the client rather than fail the pull.
/// Decoded on a spawned thread: its 2 MiB stack is the smallest the decoder
/// is promised, and an unoptimised build the most stack it needs.
#[test]
fn nesting_is_capped_before_the_stack_is() {
    std::thread::spawn(|| {
        // The file's `meta` is the deepest object: two levels a component,
        // three around them.
        let deepest = (serde_json::MAX_DEPTH - 3) / 2;
        assert!(deepest >= 100);
        let path = format!("{}f", "d/".repeat(deepest - 1));
        let index = GearIndex::from_json(nested(deepest).as_bytes()).unwrap();
        assert_eq!(index.file_at(&path), Some((FP.parse().unwrap(), 7)));

        let one_more = nested(deepest + 1);
        let Err(IndexError::Json(e)) = GearIndex::from_json(one_more.as_bytes()) else {
            panic!("{} components decoded", deepest + 1);
        };
        let at = one_more.rfind(r#"{"mode""#).unwrap();
        assert_eq!(e.to_string(), format!("nesting deeper than 256 levels at byte {at}"));

        // What used to end in `fatal runtime error: stack overflow`.
        rejects(&nested(100_000));
        let root = object(&dir_fields());
        for open in ["[", r#"{"a":"#] {
            let run = open.repeat(50_000);
            rejects(&format!(r#"{{"ignored":{run},"root":{root},"config":{{}}}}"#));
            rejects(&format!(r#"{{"root":{root},"config":{{"labels":{run}}}}}"#));
        }
        // Under the cap an ignored value is only skipped.
        let run = serde_json::MAX_DEPTH - 1;
        let ignored = format!("{}{}", "[".repeat(run), "]".repeat(run));
        assert!(GearIndex::from_json(
            format!(r#"{{"ignored":{ignored},"root":{root},"config":{{}}}}"#).as_bytes()
        )
        .is_ok());
    })
    .join()
    .unwrap();
}
