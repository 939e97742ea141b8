//! Edge-case integration tests for the union mount: multi-layer masking,
//! symlink pathologies, whiteout/opaque interactions, and metadata flow.

use std::sync::Arc;

use bytes::Bytes;
use gear_archive::Metadata;
use gear_fs::{FsError, FsTree, NoFetch, Node, UnionFs};

fn tree(files: &[(&str, &[u8])]) -> FsTree {
    let mut t = FsTree::new();
    for (p, c) in files {
        t.create_file(p, Bytes::copy_from_slice(c)).unwrap();
    }
    t
}

#[test]
fn lower_file_masks_deeper_directory() {
    // Deep layer has a directory `conf/`; a higher layer replaces it with a
    // *file* `conf`. The directory's children must become invisible.
    let deep = tree(&[("conf/a", b"deep"), ("conf/b", b"deep")]);
    let mut shallow = FsTree::new();
    shallow.create_file("conf", Bytes::from_static(b"now a file")).unwrap();
    let mut mount = UnionFs::new(vec![Arc::new(deep), Arc::new(shallow)]);
    assert_eq!(&mount.read("conf", &NoFetch).unwrap()[..], b"now a file");
    assert!(matches!(mount.read("conf/a", &NoFetch), Err(FsError::NotFound(_))));
    assert!(mount.readdir("conf").is_err());
}

#[test]
fn merged_dirs_across_three_layers() {
    let l0 = tree(&[("d/zero", b"0")]);
    let l1 = tree(&[("d/one", b"1")]);
    let l2 = tree(&[("d/two", b"2")]);
    let mut mount = UnionFs::new(vec![Arc::new(l0), Arc::new(l1), Arc::new(l2)]);
    assert_eq!(mount.readdir("d").unwrap(), vec!["one", "two", "zero"]);
    for (p, want) in [("d/zero", b"0"), ("d/one", b"1"), ("d/two", b"2")] {
        assert_eq!(&mount.read(p, &NoFetch).unwrap()[..], want);
    }
}

#[test]
fn whiteout_then_mkdir_then_unlink_again() {
    let lower = tree(&[("d/f", b"x")]);
    let mut mount = UnionFs::new(vec![Arc::new(lower)]);
    mount.unlink("d").unwrap(); // whiteout the whole dir
    mount.mkdir_p("d").unwrap(); // opaque re-creation
    mount.write("d/g", Bytes::from_static(b"y")).unwrap();
    assert_eq!(mount.readdir("d").unwrap(), vec!["g"]);
    mount.unlink("d/g").unwrap();
    assert_eq!(mount.readdir("d").unwrap(), Vec::<String>::new());
    // The lower file stays hidden through all of it.
    assert!(mount.read("d/f", &NoFetch).is_err());
}

#[test]
fn symlink_chain_across_layers() {
    // A symlink in an upper layer pointing into a lower layer, via a
    // relative `..` hop.
    let lower = tree(&[("data/real.txt", b"payload")]);
    let mut upper_tree = FsTree::new();
    upper_tree
        .insert("links/to-data", Node::symlink(Metadata::file_default(), "../data/real.txt"))
        .unwrap();
    let mut mount = UnionFs::new(vec![Arc::new(lower), Arc::new(upper_tree)]);
    assert_eq!(&mount.read("links/to-data", &NoFetch).unwrap()[..], b"payload");
}

#[test]
fn symlink_target_beyond_root_clamps_like_posix() {
    // `/..` resolves to `/` on POSIX; a target climbing past the root must
    // not panic and should resolve from the root.
    let mut t = FsTree::new();
    t.create_file("etc/passwd", Bytes::from_static(b"root")).unwrap();
    t.insert("weird", Node::symlink(Metadata::file_default(), "../../../etc/passwd")).unwrap();
    let mut mount = UnionFs::new(vec![Arc::new(t)]);
    assert_eq!(&mount.read("weird", &NoFetch).unwrap()[..], b"root");
}

#[test]
fn dangling_symlink_is_not_found() {
    let mut t = FsTree::new();
    t.insert("dangling", Node::symlink(Metadata::file_default(), "/no/such/file")).unwrap();
    let mut mount = UnionFs::new(vec![Arc::new(t)]);
    assert!(matches!(mount.read("dangling", &NoFetch), Err(FsError::NotFound(_))));
    // But reading the link itself (no follow) works.
    assert_eq!(mount.symlink_target("dangling").unwrap(), "/no/such/file");
}

#[test]
fn sixty_symlink_hops_is_a_loop_error() {
    let mut t = FsTree::new();
    t.create_file("end", Bytes::from_static(b"done")).unwrap();
    for i in 0..60 {
        let target = if i == 59 { "end".to_owned() } else { format!("hop{}", i + 1) };
        t.insert(&format!("hop{i}"), Node::symlink(Metadata::file_default(), target)).unwrap();
    }
    let mut mount = UnionFs::new(vec![Arc::new(t)]);
    assert!(matches!(mount.read("hop0", &NoFetch), Err(FsError::SymlinkLoop(_))));
}

#[test]
fn metadata_survives_copy_up_write() {
    let mut lower = FsTree::new();
    lower
        .insert(
            "bin/tool",
            Node::File(gear_fs::FileNode {
                meta: Metadata { mode: 0o755, uid: 10, gid: 20, mtime: 99 },
                data: gear_fs::FileData::Inline(Bytes::from_static(b"v1")),
            }),
        )
        .unwrap();
    let mut mount = UnionFs::new(vec![Arc::new(lower)]);
    mount.write("bin/tool", Bytes::from_static(b"v2")).unwrap();
    let meta = mount.metadata("bin/tool").unwrap();
    assert_eq!(meta.mode, 0o755, "overwrite preserves the original mode");
    assert_eq!(meta.uid, 10);
}

#[test]
fn readdir_root_merges_upper_and_lower() {
    let lower = tree(&[("from-lower", b"1")]);
    let mut mount = UnionFs::new(vec![Arc::new(lower)]);
    mount.write("from-upper", Bytes::from_static(b"2")).unwrap();
    let names = mount.readdir("").unwrap();
    assert!(names.contains(&"from-lower".to_owned()));
    assert!(names.contains(&"from-upper".to_owned()));
}

#[test]
fn write_through_symlinked_parent_fails_cleanly() {
    // Writing to a path whose ancestor is a file must not corrupt the tree.
    let lower = tree(&[("blocker", b"file")]);
    let mut mount = UnionFs::new(vec![Arc::new(lower)]);
    assert!(matches!(
        mount.write("blocker/child", Bytes::from_static(b"x")),
        Err(FsError::NotADirectory(_))
    ));
    // Mount still consistent.
    assert_eq!(&mount.read("blocker", &NoFetch).unwrap()[..], b"file");
}

#[test]
fn read_range_clamps_at_eof() {
    let lower = tree(&[("f", b"0123456789")]);
    let mut mount = UnionFs::new(vec![Arc::new(lower)]);
    assert_eq!(&mount.read_range("f", 5, 100, &NoFetch).unwrap()[..], b"56789");
    assert!(mount.read_range("f", 50, 10, &NoFetch).unwrap().is_empty());
}

#[test]
fn flatten_after_heavy_mutation_matches_replay() {
    let lower = tree(&[("a/1", b"x"), ("a/2", b"y"), ("b/3", b"z")]);
    let lower = Arc::new(lower);
    let mut mount = UnionFs::new(vec![Arc::clone(&lower)]);
    mount.unlink("a/1").unwrap();
    mount.write("a/4", Bytes::from_static(b"new")).unwrap();
    mount.unlink("b").unwrap();
    mount.mkdir_p("b").unwrap();
    mount.write("b/5", Bytes::from_static(b"five")).unwrap();
    mount.symlink("s", "/a/4").unwrap();

    let mut replay = (*lower).clone();
    replay.apply_layer(&mount.diff()).unwrap();
    assert_eq!(replay, mount.flatten());
    // Sanity on the merged view itself.
    assert_eq!(&mount.read("s", &NoFetch).unwrap()[..], b"new");
    assert!(mount.read("b/3", &NoFetch).is_err());
}
