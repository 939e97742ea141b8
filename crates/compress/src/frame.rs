//! The self-describing compressed frame (little-endian):
//!
//! ```text
//! magic   [4]  = b"GZc1"
//! method  [1]  = 0 stored | 1 lzss
//! rawlen  [8]  = uncompressed length
//! crc     [4]  = CRC-32 of the uncompressed bytes
//! payload [..] = stored bytes or LZSS token stream
//! ```
//!
//! One frame holds one stream: the paper keeps one compressed stream per
//! Gear file and per layer, and every fixed-seed golden in the workspace
//! pins these bytes. A stored payload is used whenever LZSS would not
//! shrink the input, so a frame is never more than [`FRAME_OVERHEAD`] bytes
//! larger than its input.

use std::error::Error;
use std::fmt;

use gear_par::Pool;

use crate::crc32::crc32;
use crate::lzss::{Level, Lzss};

const MAGIC: [u8; 4] = *b"GZc1";
const METHOD_STORED: u8 = 0;
const METHOD_LZSS: u8 = 1;

/// Fixed per-frame header size, in bytes.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 8 + 4;

/// Error returned by [`decompress`] for malformed frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// Frame shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown compression method byte.
    UnknownMethod(u8),
    /// The payload failed to decode to the declared length.
    CorruptPayload,
    /// CRC-32 of the decoded bytes did not match the header.
    ChecksumMismatch,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed frame is truncated"),
            DecompressError::BadMagic => write!(f, "compressed frame has invalid magic"),
            DecompressError::UnknownMethod(m) => {
                write!(f, "compressed frame uses unknown method {m}")
            }
            DecompressError::CorruptPayload => write!(f, "compressed payload is corrupt"),
            DecompressError::ChecksumMismatch => {
                write!(f, "decompressed data failed checksum verification")
            }
        }
    }
}

impl Error for DecompressError {}

/// Compresses `data` into a `GZc1` frame.
///
/// Falls back to a stored payload when LZSS does not help, so the result is at
/// most `data.len() + FRAME_OVERHEAD` bytes. The frame is one buffer: the
/// LZSS stream is written straight after the header, and the stored
/// fallback overwrites it with the input. Either way the frame ends at its
/// exact length (`capacity() == len()`), so a registry that keeps it holds
/// no slack.
///
/// ```
/// use gear_compress::{compress, Level, FRAME_OVERHEAD};
/// let framed = compress(b"xyz", Level::Fast);
/// assert!(framed.len() <= 3 + FRAME_OVERHEAD);
/// ```
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + Lzss::stream_capacity(data.len()));
    out.extend_from_slice(&MAGIC);
    out.push(METHOD_LZSS);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(data).to_le_bytes());
    let mut out = Lzss::compress_onto(data, level, out);
    if out.len() - FRAME_OVERHEAD >= data.len() {
        // No room is needed: the stream was at least as long as the input.
        out[4] = METHOD_STORED;
        out.truncate(FRAME_OVERHEAD);
        out.extend_from_slice(data);
    }
    out.shrink_to_fit();
    out
}

/// Returns only the framed `GZc1` size of compressing `data`, for
/// storage-accounting callers that never keep the compressed bytes.
///
/// Routed through the count-only LZSS encoder ([`Lzss::compressed_len`]):
/// the full hash-chain search runs, but nothing is allocated — no token
/// stream, and the match finder's position tables are the thread's, kept
/// from call to call. Called once per unique file by the registry dedup
/// study and once per new file by a publishing `GearFileStore`.
pub fn compressed_size(data: &[u8], level: Level) -> usize {
    FRAME_OVERHEAD + Lzss::compressed_len(data, level).min(data.len())
}

/// [`compressed_size`] for callers that hold a pool: a frame is one stream,
/// so the pool has nothing to share out, and the size is that of the frame
/// [`compress`] writes at every length.
pub fn compressed_size_with(data: &[u8], level: Level, _pool: &Pool) -> usize {
    compressed_size(data, level)
}

/// Decompresses a frame produced by [`compress`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the frame is truncated, has a bad magic,
/// an unknown method, a corrupt payload, or a checksum mismatch.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if frame.len() < FRAME_OVERHEAD {
        return Err(DecompressError::Truncated);
    }
    if frame[..4] != MAGIC {
        return Err(DecompressError::BadMagic);
    }
    let method = frame[4];
    let raw_len = u64::from_le_bytes(field(frame, 5)?) as usize;
    let crc = u32::from_le_bytes(field(frame, 13)?);
    let payload = &frame[FRAME_OVERHEAD..];
    let data = match method {
        METHOD_STORED => {
            if payload.len() != raw_len {
                return Err(DecompressError::CorruptPayload);
            }
            payload.to_vec()
        }
        METHOD_LZSS => Lzss::decompress(payload, raw_len).ok_or(DecompressError::CorruptPayload)?,
        m => return Err(DecompressError::UnknownMethod(m)),
    };
    if crc32(&data) != crc {
        return Err(DecompressError::ChecksumMismatch);
    }
    Ok(data)
}

/// The `N`-byte header field of `frame` at `at`;
/// [`DecompressError::Truncated`] if the frame ends first.
fn field<const N: usize>(frame: &[u8], at: usize) -> Result<[u8; N], DecompressError> {
    frame.get(at..).and_then(<[u8]>::first_chunk).copied().ok_or(DecompressError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"gear gear gear gear gear files files files".repeat(30);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let framed = compress(&data, level);
            assert_eq!(decompress(&framed).unwrap(), data);
        }
    }

    #[test]
    fn empty_input() {
        let framed = compress(b"", Level::Default);
        assert_eq!(framed.len(), FRAME_OVERHEAD);
        assert_eq!(decompress(&framed).unwrap(), b"");
    }

    #[test]
    fn stored_fallback_bounds_size() {
        let mut x = 0xdeadbeefu32;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let framed = compress(&data, Level::Best);
        assert!(framed.len() <= data.len() + FRAME_OVERHEAD);
        assert_eq!(decompress(&framed).unwrap(), data);
    }

    /// A frame is allocated to its length, LZSS or stored, small or past
    /// the stream's first reservation.
    #[test]
    fn frames_end_at_their_exact_length() {
        let mut x = 0xdeadbeefu32;
        let noise: Vec<u8> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let text = b"gear gear gear files files".repeat(200);
        for (data, method) in [
            (&b""[..], METHOD_STORED),
            (b"xyz", METHOD_STORED),
            (&noise, METHOD_STORED),
            (&text, METHOD_LZSS),
        ] {
            for level in [Level::Fast, Level::Default, Level::Best] {
                let framed = compress(data, level);
                assert_eq!(framed[4], method, "len {}", data.len());
                assert_eq!(framed.capacity(), framed.len(), "len {} {level:?}", data.len());
                assert_eq!(decompress(&framed).unwrap(), data);
            }
        }
    }

    #[test]
    fn compressed_size_matches_compress() {
        let data = b"aaaabbbbccccaaaabbbbcccc".repeat(64);
        assert_eq!(compressed_size(&data, Level::Default), compress(&data, Level::Default).len());
    }

    #[test]
    fn detects_truncation() {
        assert_eq!(decompress(&[1, 2, 3]), Err(DecompressError::Truncated));
    }

    #[test]
    fn detects_bad_magic() {
        let mut framed = compress(b"hello", Level::Fast);
        framed[0] ^= 0xff;
        assert_eq!(decompress(&framed), Err(DecompressError::BadMagic));
    }

    #[test]
    fn detects_unknown_method() {
        let mut framed = compress(b"hello", Level::Fast);
        framed[4] = 42;
        assert_eq!(decompress(&framed), Err(DecompressError::UnknownMethod(42)));
    }

    #[test]
    fn detects_payload_corruption() {
        let data = b"abcabcabcabcabcabcabcabc".repeat(100);
        let mut framed = compress(&data, Level::Default);
        let last = framed.len() - 1;
        framed[last] ^= 0x55;
        let err = decompress(&framed).unwrap_err();
        assert!(
            matches!(err, DecompressError::CorruptPayload | DecompressError::ChecksumMismatch),
            "{err:?}"
        );
    }

    #[test]
    fn detects_stored_body_flip() {
        let mut x = 99u32;
        let data: Vec<u8> = (0..64)
            .map(|_| {
                x = x.wrapping_mul(48271);
                (x >> 16) as u8
            })
            .collect();
        let mut framed = compress(&data, Level::Fast);
        assert_eq!(framed[4], 0, "expected stored block");
        framed[FRAME_OVERHEAD] ^= 1;
        assert_eq!(decompress(&framed), Err(DecompressError::ChecksumMismatch));
    }

    /// A mixed corpus-like buffer of 300 KiB: past 256 KiB, and several
    /// times the 32 KiB window.
    fn mixed_data() -> Vec<u8> {
        let mut data = Vec::new();
        let mut x = 7u64;
        while data.len() < 300 * 1024 {
            // Alternate compressible text and pseudo-random stretches so
            // some spans store and some compress.
            data.extend_from_slice(b"shared library segment ".repeat(40).as_slice());
            for _ in 0..512 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                data.push((x >> 33) as u8);
            }
        }
        data
    }

    /// Whatever the pool, the price of an input is the length of the one
    /// frame [`compress`] writes, inputs past 256 KiB included.
    #[test]
    fn compressed_size_with_prices_the_one_frame() {
        let mixed = mixed_data();
        let small = b"small body".repeat(20);
        for workers in [1, 2] {
            let pool = Pool::new(workers);
            for level in [Level::Fast, Level::Default, Level::Best] {
                for data in [&mixed[..300 * 1024], &small] {
                    assert_eq!(
                        compressed_size_with(data, level, &pool),
                        compress(data, level).len(),
                        "workers={workers} level={level:?} len={}",
                        data.len()
                    );
                }
            }
        }
    }

    /// Length and CRC-32 of the frames the match finder produces, captured
    /// before its tables went from `usize` to `u32` positions (the 300 KiB
    /// rows, before the multi-block format was removed): any change to a
    /// token decision moves a stored size, hence every `sim_*` golden.
    #[test]
    fn match_finder_output_is_pinned() {
        let mixed = mixed_data();
        let mid = &mixed[..70 * 1024]; // crosses the 32 KiB window twice
        let big = &mixed[..300 * 1024]; // past 256 KiB, still one stream
        let mut got = Vec::new();
        for level in [Level::Fast, Level::Default, Level::Best] {
            for data in [&b""[..], b"gear!", mid, big] {
                let framed = compress(data, level);
                assert_eq!(compressed_size(data, level), framed.len());
                got.push((framed.len(), crc32(&framed)));
            }
        }
        let want = [
            (17, 3981119506),
            (22, 2825773899),
            (29468, 1006471878),
            (125968, 3303310315),
            (17, 3981119506),
            (22, 2825773899),
            (29468, 3162887093),
            (125968, 889075819),
            (17, 3981119506),
            (22, 2825773899),
            (29467, 1432777036),
            (125964, 3269605593),
        ];
        assert_eq!(got, want);
    }
}
