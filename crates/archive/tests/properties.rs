//! Property-based tests: the wire format roundtrips arbitrary archives.

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, EntryKind, EntryStream, Metadata};
use proptest::prelude::*;

fn any_component() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-]{1,12}".prop_filter("no dot components", |s| s != "." && s != "..")
}

fn any_path() -> impl Strategy<Value = ArchivePath> {
    proptest::collection::vec(any_component(), 1..5)
        .prop_map(|parts| ArchivePath::new(parts.join("/")).expect("valid components"))
}

fn any_meta() -> impl Strategy<Value = Metadata> {
    (0u32..0o7777, 0u32..70_000, 0u32..70_000, 0u64..u32::MAX as u64)
        .prop_map(|(mode, uid, gid, mtime)| Metadata { mode, uid, gid, mtime })
}

fn any_entry() -> impl Strategy<Value = Entry> {
    (any_path(), any_meta(), proptest::collection::vec(any::<u8>(), 0..256), any_path(), 0u8..6)
        .prop_map(|(path, meta, content, other, tag)| {
            let kind = match tag {
                0 => EntryKind::Dir { meta },
                1 => EntryKind::File { meta, content: Bytes::from(content) },
                2 => EntryKind::Symlink { meta, target: format!("/{other}") },
                3 => EntryKind::Hardlink { target: other },
                4 => EntryKind::Whiteout,
                _ => EntryKind::OpaqueDir { meta },
            };
            Entry { path, kind }
        })
}

fn any_archive() -> impl Strategy<Value = Archive> {
    proptest::collection::vec(any_entry(), 0..32).prop_map(Archive::from_iter)
}

/// One way to damage an encoded archive; the `u64`s pick where.
#[derive(Debug, Clone)]
enum Damage {
    FlipByte(u64, u8),
    /// Writes bytes over the encoding from some offset on, clipped at its end.
    Overwrite(u64, Vec<u8>),
    /// Inserts a run of one byte — a length or count field grown huge, a
    /// tag repeated, a string stretched.
    InsertRun(u64, u8, usize),
}

fn any_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<u64>(), 1..=255u8).prop_map(|(at, mask)| Damage::FlipByte(at, mask)),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 1..12))
            .prop_map(|(at, bytes)| Damage::Overwrite(at, bytes)),
        (any::<u64>(), any::<u8>(), 1..300usize)
            .prop_map(|(at, byte, len)| Damage::InsertRun(at, byte, len)),
    ]
}

fn damaged(wire: &[u8], damage: &Damage) -> Vec<u8> {
    let mut out = wire.to_vec();
    let at = |pick: u64| (pick % wire.len() as u64) as usize;
    match damage {
        Damage::FlipByte(pick, mask) => out[at(*pick)] ^= mask,
        Damage::Overwrite(pick, bytes) => {
            for (slot, byte) in out[at(*pick)..].iter_mut().zip(bytes) {
                *slot = *byte;
            }
        }
        Damage::InsertRun(pick, byte, len) => {
            out.splice(at(*pick)..at(*pick), std::iter::repeat_n(*byte, *len));
        }
    }
    out
}

proptest! {
    /// A layer blob is untrusted input: whatever its bytes, both decoders
    /// return `Ok` or `Err` — never panic — and agree with each other, and
    /// an archive they accept re-encodes to bytes that decode to it again.
    /// (8 damaged encodings per case, so 512 in all.)
    #[test]
    fn damaged_archive_never_panics(
        archive in any_archive(),
        damages in proptest::collection::vec(any_damage(), 8),
    ) {
        let wire = archive.to_bytes();
        for damage in &damages {
            let bytes = damaged(&wire, damage);
            let bulk = Archive::from_bytes(&bytes);
            let streamed: Option<Result<Vec<Entry>, _>> =
                EntryStream::new(&bytes).ok().map(Iterator::collect);
            let Ok(accepted) = bulk else { continue };
            prop_assert_eq!(streamed, Some(Ok(accepted.entries().to_vec())), "{:?}", damage);
            prop_assert_eq!(Archive::from_bytes(&accepted.to_bytes()), Ok(accepted));
        }
    }

    /// to_bytes/from_bytes is the identity on arbitrary archives.
    #[test]
    fn wire_roundtrip(archive in any_archive()) {
        let bytes = archive.to_bytes();
        prop_assert_eq!(Archive::from_bytes(&bytes).unwrap(), archive);
    }

    /// Any proper prefix of the encoding fails to parse (no silent truncation).
    #[test]
    fn prefix_never_parses(archive in any_archive(), cut in any::<prop::sample::Index>()) {
        let bytes = archive.to_bytes();
        prop_assume!(!bytes.is_empty());
        let at = cut.index(bytes.len()); // strictly less than len
        prop_assert!(Archive::from_bytes(&bytes[..at]).is_err());
    }

    /// Accounting helpers agree with a manual fold.
    #[test]
    fn accounting_consistent(archive in any_archive()) {
        let files = archive.iter().filter(|e| matches!(e.kind, EntryKind::File { .. })).count();
        let bytes: u64 = archive.iter().map(|e| e.content_len()).sum();
        prop_assert_eq!(archive.file_count(), files);
        prop_assert_eq!(archive.content_bytes(), bytes);
    }

    /// sort_by_path puts every parent before its children.
    #[test]
    fn sort_parents_first(mut archive in any_archive()) {
        archive.sort_by_path();
        let paths: Vec<_> = archive.iter().map(|e| e.path.clone()).collect();
        for (i, p) in paths.iter().enumerate() {
            if let Some(parent) = p.parent() {
                if let Some(j) = paths.iter().position(|q| *q == parent) {
                    prop_assert!(j < i || paths[j] == paths[i], "parent after child");
                }
            }
        }
    }
}
