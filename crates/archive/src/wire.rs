//! Binary wire format for [`Archive`].
//!
//! ```text
//! magic  [4] = b"GAR1"
//! count  [4] le
//! entry* :
//!   tag    [1]
//!   path   [2 le + bytes]
//!   Dir/OpaqueDir : meta [20]
//!   File          : meta [20] + len [8 le] + bytes
//!   Symlink       : meta [20] + target [2 le + bytes]
//!   Hardlink      : target path [2 le + bytes]
//!   Whiteout      : (nothing)
//! meta = mode [4 le] uid [4 le] gid [4 le] mtime [8 le]
//! ```

use std::error::Error;
use std::fmt;

use bytes::Bytes;

use crate::entry::{Archive, Entry, EntryKind, Metadata, FILE_TAG};
use crate::path::ArchivePath;

const MAGIC: [u8; 4] = *b"GAR1";

/// Error decoding an archive from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Input ended before the declared structure was complete.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// An entry carried an unknown tag byte.
    UnknownTag(u8),
    /// A path or symlink target was not valid UTF-8.
    BadString,
    /// A decoded path failed [`ArchivePath`] validation.
    BadPath(String),
    /// Trailing bytes after the last declared entry.
    TrailingBytes(usize),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated => write!(f, "archive is truncated"),
            ReadError::BadMagic => write!(f, "archive has invalid magic"),
            ReadError::UnknownTag(t) => write!(f, "archive entry has unknown tag {t}"),
            ReadError::BadString => write!(f, "archive string is not valid UTF-8"),
            ReadError::BadPath(p) => write!(f, "archive path {p:?} is invalid"),
            ReadError::TrailingBytes(n) => write!(f, "{n} trailing bytes after archive"),
        }
    }
}

impl Error for ReadError {}

#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.buf.len() - self.pos < n {
            return Err(ReadError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// The next `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, ReadError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ReadError::BadString)
    }

    fn path(&mut self) -> Result<ArchivePath, ReadError> {
        let s = self.string()?;
        ArchivePath::new(&s).map_err(|_| ReadError::BadPath(s))
    }

    fn meta(&mut self) -> Result<Metadata, ReadError> {
        Ok(Metadata { mode: self.u32()?, uid: self.u32()?, gid: self.u32()?, mtime: self.u64()? })
    }
}

/// Bytes before the first entry: magic and entry count.
const HEADER_LEN: usize = 4 + 4;
/// Bytes of a [`Metadata`] on the wire.
const META_LEN: usize = 4 + 4 + 4 + 8;

/// Wire length of a string: its `u16` length, then its bytes.
fn string_len(s: &str) -> usize {
    2 + s.len()
}

/// Wire length of one entry.
fn entry_len(entry: &Entry) -> usize {
    let body = match &entry.kind {
        EntryKind::Dir { .. } | EntryKind::OpaqueDir { .. } => META_LEN,
        EntryKind::File { content, .. } => META_LEN + 8 + content.len(),
        EntryKind::Symlink { target, .. } => META_LEN + string_len(target),
        EntryKind::Hardlink { target } => string_len(target.as_str()),
        EntryKind::Whiteout => 0,
    };
    1 + string_len(entry.path.as_str()) + body
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string too long for wire format");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_meta(out: &mut Vec<u8>, m: &Metadata) {
    out.extend_from_slice(&m.mode.to_le_bytes());
    out.extend_from_slice(&m.uid.to_le_bytes());
    out.extend_from_slice(&m.gid.to_le_bytes());
    out.extend_from_slice(&m.mtime.to_le_bytes());
}

fn write_entry(out: &mut Vec<u8>, entry: &Entry) {
    out.push(entry.kind.tag());
    write_string(out, entry.path.as_str());
    match &entry.kind {
        EntryKind::Dir { meta } | EntryKind::OpaqueDir { meta } => write_meta(out, meta),
        EntryKind::File { meta, content } => {
            write_meta(out, meta);
            out.extend_from_slice(&(content.len() as u64).to_le_bytes());
            out.extend_from_slice(content);
        }
        EntryKind::Symlink { meta, target } => {
            write_meta(out, meta);
            write_string(out, target);
        }
        EntryKind::Hardlink { target } => write_string(out, target.as_str()),
        EntryKind::Whiteout => {}
    }
}

impl Archive {
    /// Exact length of [`Archive::to_bytes`], without writing it.
    fn wire_len(&self) -> usize {
        HEADER_LEN + self.iter().map(entry_len).sum::<usize>()
    }

    /// Serializes the archive to its binary wire format, in one buffer
    /// allocated at its exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_entries(&mut out, self.len());
        out
    }

    /// The wire form of this archive with one more entry at its end: a
    /// regular file at `path` whose `len` bytes of content `write` appends.
    /// A body made on the spot (an index document) is written straight
    /// into the wire instead of into a buffer of its own first; the one
    /// buffer is allocated at its exact length.
    ///
    /// # Panics
    ///
    /// If `write` appends other than `len` bytes.
    pub fn to_bytes_with_file(
        &self,
        path: &ArchivePath,
        meta: Metadata,
        len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let file = 1 + string_len(path.as_str()) + META_LEN + 8 + len;
        let mut out = Vec::with_capacity(self.wire_len() + file);
        self.write_entries(&mut out, self.len() + 1);
        out.push(FILE_TAG);
        write_string(&mut out, path.as_str());
        write_meta(&mut out, &meta);
        out.extend_from_slice(&(len as u64).to_le_bytes());
        let start = out.len();
        write(&mut out);
        assert_eq!(out.len() - start, len, "file body is not the length it was declared");
        out
    }

    /// The header, declaring `count` entries, then this archive's entries.
    fn write_entries(&self, out: &mut Vec<u8>, count: usize) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(count as u32).to_le_bytes());
        for entry in self.iter() {
            write_entry(out, entry);
        }
    }

    /// Parses an archive from its binary wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] on truncation, bad magic, unknown entry tags,
    /// malformed strings/paths, or trailing garbage.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ReadError> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(ReadError::BadMagic);
        }
        let count = r.u32()? as usize;
        let mut archive = Archive::new();
        for _ in 0..count {
            let tag = r.u8()?;
            let path = r.path()?;
            let kind = match tag {
                0 => EntryKind::Dir { meta: r.meta()? },
                1 => {
                    let meta = r.meta()?;
                    let len = r.u64()? as usize;
                    let content = Bytes::copy_from_slice(r.take(len)?);
                    EntryKind::File { meta, content }
                }
                2 => {
                    let meta = r.meta()?;
                    let target = r.string()?;
                    EntryKind::Symlink { meta, target }
                }
                3 => EntryKind::Hardlink { target: r.path()? },
                4 => EntryKind::Whiteout,
                5 => EntryKind::OpaqueDir { meta: r.meta()? },
                t => return Err(ReadError::UnknownTag(t)),
            };
            archive.push(Entry { path, kind });
        }
        if r.pos != buf.len() {
            return Err(ReadError::TrailingBytes(buf.len() - r.pos));
        }
        Ok(archive)
    }
}

/// A streaming parser over a serialized archive: yields entries one at a
/// time without materializing the whole [`Archive`]. Useful for registries
/// that scan layer blobs (e.g. to index files) without keeping them
/// decoded.
///
/// ```
/// use gear_archive::{Archive, ArchivePath, Entry, EntryStream, Metadata};
/// let mut a = Archive::new();
/// a.push(Entry::dir(ArchivePath::new("etc")?, Metadata::dir_default()));
/// let bytes = a.to_bytes();
/// let mut stream = EntryStream::new(&bytes)?;
/// assert_eq!(stream.next().unwrap()?.path.as_str(), "etc");
/// assert!(stream.next().is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EntryStream<'a> {
    reader: Reader<'a>,
    remaining: usize,
    failed: bool,
}

impl<'a> EntryStream<'a> {
    /// Starts streaming from serialized archive bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] / [`ReadError::BadMagic`] if the header is
    /// unreadable.
    pub fn new(buf: &'a [u8]) -> Result<Self, ReadError> {
        let mut reader = Reader { buf, pos: 0 };
        if reader.take(4)? != MAGIC {
            return Err(ReadError::BadMagic);
        }
        let remaining = reader.u32()? as usize;
        Ok(EntryStream { reader, remaining, failed: false })
    }

    /// Entries not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn read_entry(&mut self) -> Result<Entry, ReadError> {
        let r = &mut self.reader;
        let tag = r.u8()?;
        let path = r.path()?;
        let kind = match tag {
            0 => EntryKind::Dir { meta: r.meta()? },
            1 => {
                let meta = r.meta()?;
                let len = r.u64()? as usize;
                let content = Bytes::copy_from_slice(r.take(len)?);
                EntryKind::File { meta, content }
            }
            2 => {
                let meta = r.meta()?;
                let target = r.string()?;
                EntryKind::Symlink { meta, target }
            }
            3 => EntryKind::Hardlink { target: r.path()? },
            4 => EntryKind::Whiteout,
            5 => EntryKind::OpaqueDir { meta: r.meta()? },
            t => return Err(ReadError::UnknownTag(t)),
        };
        Ok(Entry { path, kind })
    }
}

impl Iterator for EntryStream<'_> {
    type Item = Result<Entry, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.read_entry() {
            Ok(entry) => Some(Ok(entry)),
            Err(e) => {
                self.failed = true; // stop after the first error
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> ArchivePath {
        ArchivePath::new(s).unwrap()
    }

    fn sample() -> Archive {
        let mut a = Archive::new();
        a.push(Entry::dir(p("etc"), Metadata::dir_default()));
        a.push(Entry::file(
            p("etc/passwd"),
            Metadata { mode: 0o600, uid: 0, gid: 0, mtime: 1_600_000_000 },
            Bytes::from_static(b"root:x:0:0::/root:/bin/sh\n"),
        ));
        a.push(Entry::symlink(p("etc/mtab"), Metadata::file_default(), "/proc/mounts"));
        a.push(Entry::hardlink(p("etc/alias"), p("etc/passwd")));
        a.push(Entry::whiteout(p("etc/stale.conf")));
        a.push(Entry::opaque_dir(p("var"), Metadata::dir_default()));
        a
    }

    #[test]
    fn roundtrip() {
        let a = sample();
        let bytes = a.to_bytes();
        assert_eq!(Archive::from_bytes(&bytes).unwrap(), a);
    }

    /// The wire is allocated once, at its length: a 100-entry layer of
    /// every kind, whose headers alone are far past any fixed slack.
    #[test]
    fn wire_is_allocated_at_its_exact_length() {
        let mut a = sample();
        for i in 0..94 {
            let path = p(&format!("usr/share/doc/package-{i:03}/copyright"));
            a.push(match i % 3 {
                0 => Entry::dir(path, Metadata::dir_default()),
                1 => Entry::file(path, Metadata::file_default(), Bytes::from(vec![i as u8; i])),
                _ => Entry::symlink(path, Metadata::file_default(), "../common-licenses/GPL"),
            });
        }
        assert_eq!(a.len(), 100);
        for archive in [Archive::new(), sample(), a] {
            let bytes = archive.to_bytes();
            assert_eq!(bytes.capacity(), bytes.len());
            assert_eq!(archive.wire_len(), bytes.len());
            assert_eq!(Archive::from_bytes(&bytes).unwrap(), archive);
        }
    }

    /// A file written into the wire is the entry pushed with that body.
    #[test]
    fn a_file_written_in_place_is_the_pushed_entry() {
        let body = b"{\"root\":{}}";
        let meta = Metadata { mode: 0o600, uid: 1, gid: 2, mtime: 3 };
        let path = p("var/lib/gear/index.json");
        let base = sample();
        let wire = base.to_bytes_with_file(&path, meta, body.len(), |out| {
            out.extend_from_slice(body);
        });
        let mut whole = base;
        whole.push(Entry::file(path, meta, Bytes::from_static(body)));
        assert_eq!(wire, whole.to_bytes());
        assert_eq!(wire.capacity(), wire.len());
    }

    #[test]
    #[should_panic(expected = "not the length it was declared")]
    fn a_file_body_of_another_length_panics() {
        Archive::new().to_bytes_with_file(&p("f"), Metadata::file_default(), 3, |out| {
            out.extend_from_slice(b"four");
        });
    }

    #[test]
    fn empty_roundtrip() {
        let a = Archive::new();
        assert_eq!(Archive::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn detects_truncation_anywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Archive::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[1] ^= 0xff;
        assert_eq!(Archive::from_bytes(&bytes), Err(ReadError::BadMagic));
    }

    #[test]
    fn detects_trailing_bytes() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(Archive::from_bytes(&bytes), Err(ReadError::TrailingBytes(1)));
    }

    #[test]
    fn detects_unknown_tag() {
        let mut a = Archive::new();
        a.push(Entry::whiteout(p("x")));
        let mut bytes = a.to_bytes();
        bytes[8] = 200; // first entry tag
        assert_eq!(Archive::from_bytes(&bytes), Err(ReadError::UnknownTag(200)));
    }

    #[test]
    fn stream_matches_bulk_parse() {
        let archive = sample();
        let bytes = archive.to_bytes();
        let streamed: Vec<Entry> =
            EntryStream::new(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(streamed, archive.entries().to_vec());
    }

    #[test]
    fn stream_reports_remaining_and_stops_after_error() {
        let archive = sample();
        let mut bytes = archive.to_bytes();
        let mut stream = EntryStream::new(&bytes).unwrap();
        assert_eq!(stream.remaining(), archive.len());
        stream.next();
        assert_eq!(stream.remaining(), archive.len() - 1);

        // Corrupt a tag mid-stream: the iterator yields one Err then ends.
        bytes[8] = 99;
        let results: Vec<_> = EntryStream::new(&bytes).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn stream_rejects_bad_header() {
        assert!(matches!(EntryStream::new(&[0, 1]), Err(ReadError::Truncated)));
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(EntryStream::new(&bytes), Err(ReadError::BadMagic)));
    }

    #[test]
    fn rejects_invalid_decoded_path() {
        let mut a = Archive::new();
        a.push(Entry::whiteout(p("ok")));
        let mut bytes = a.to_bytes();
        // Path "ok" starts right after magic(4)+count(4)+tag(1)+len(2) = offset 11.
        bytes[11] = b'.';
        bytes[12] = b'.';
        assert!(matches!(Archive::from_bytes(&bytes), Err(ReadError::BadPath(_))));
    }
}
