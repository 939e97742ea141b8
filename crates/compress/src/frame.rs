//! Self-describing compressed frame formats.
//!
//! Two wire layouts share one decoder entry point (little-endian):
//!
//! **`GZc1` — single block** (the default, unchanged since the first
//! release; every fixed-seed golden in the workspace pins these bytes):
//!
//! ```text
//! magic   [4]  = b"GZc1"
//! method  [1]  = 0 stored | 1 lzss
//! rawlen  [8]  = uncompressed length
//! crc     [4]  = CRC-32 of the uncompressed bytes
//! payload [..] = stored bytes or LZSS token stream
//! ```
//!
//! **`GZc2` — multi-block** (emitted by [`compress_with`] for inputs larger
//! than [`BLOCK_SIZE`]): the input is cut into fixed-size blocks, each
//! compressed *independently* — the LZSS window resets at every block
//! boundary — so blocks can be compressed and decompressed in parallel and
//! the frame bytes are a pure function of `(data, level, block_size)`,
//! never of the worker count:
//!
//! ```text
//! magic      [4]  = b"GZc2"
//! rawlen     [8]  = total uncompressed length
//! block_size [4]  = uncompressed bytes per block (last block may be short)
//! count      [4]  = number of blocks = ceil(rawlen / block_size)
//! table      [count x 9] = { method [1], comp_len [4], crc [4] } per block
//! payloads   [..] = the blocks' payloads, concatenated in order
//! ```
//!
//! Per-block offsets are prefix sums of the table's `comp_len` column, and
//! the per-block CRC is over the block's *uncompressed* bytes, so any block
//! can be located, decoded, and verified without touching the others — the
//! stepping stone to ranged lazy pulls (seekable-OCI-style) as well as the
//! parallel decode path.
//!
//! A stored block is used whenever LZSS would not shrink that block, so a
//! `GZc1` frame is never more than [`FRAME_OVERHEAD`] bytes larger than its
//! input and a `GZc2` frame never more than its header plus table.

use std::error::Error;
use std::fmt;

use gear_par::Pool;

use crate::crc32::crc32;
use crate::lzss::{Level, Lzss};

const MAGIC: [u8; 4] = *b"GZc1";
const MAGIC2: [u8; 4] = *b"GZc2";
const METHOD_STORED: u8 = 0;
const METHOD_LZSS: u8 = 1;

/// Fixed per-frame header size of a `GZc1` frame, in bytes.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 8 + 4;

/// Uncompressed bytes per `GZc2` block, and the threshold above which
/// [`compress_with`] switches from single-block `GZc1` to the multi-block
/// format. 256 KiB is large enough that the ~9-byte-per-block table is
/// noise (<0.004 %) and the per-block LZSS window reset costs almost no
/// ratio, yet small enough that a typical layer archive yields plenty of
/// blocks to spread across workers.
pub const BLOCK_SIZE: usize = 256 * 1024;

/// `GZc2` fixed header size (magic + rawlen + block_size + count).
const BLOCK_HEADER: usize = 4 + 8 + 4 + 4;
/// Per-block table entry size (method + comp_len + crc).
const BLOCK_ENTRY: usize = 1 + 4 + 4;

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

/// Compresses `data` into a single-block `GZc1` frame.
///
/// Falls back to a stored block when LZSS does not help, so the result is at
/// most `data.len() + FRAME_OVERHEAD` bytes. The stored fallback writes the
/// header first and then the input directly — the input is never cloned
/// into a temporary payload buffer.
///
/// ```
/// use gear_compress::{compress, Level, FRAME_OVERHEAD};
/// let framed = compress(b"xyz", Level::Fast);
/// assert!(framed.len() <= 3 + FRAME_OVERHEAD);
/// ```
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let tokens = Lzss::compress(data, level);
    let (method, payload_len) = if tokens.len() < data.len() {
        (METHOD_LZSS, tokens.len())
    } else {
        (METHOD_STORED, data.len())
    };
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(method);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(data).to_le_bytes());
    if method == METHOD_LZSS {
        out.extend_from_slice(&tokens);
    } else {
        out.extend_from_slice(data);
    }
    out
}

/// Compresses `data` with block parallelism when it pays: inputs of at most
/// [`BLOCK_SIZE`] bytes produce byte-for-byte the same single-block `GZc1`
/// frame as [`compress`] (so small-file goldens never move), larger inputs
/// a multi-block `GZc2` frame with [`BLOCK_SIZE`] blocks compressed across
/// `pool`.
///
/// The output is bit-identical for any worker count, including
/// [`Pool::serial`]: the split is fixed, blocks are independent, and
/// [`Pool::map_heavy`] preserves order.
pub fn compress_with(data: &[u8], level: Level, pool: &Pool) -> Vec<u8> {
    if data.len() <= BLOCK_SIZE {
        compress(data, level)
    } else {
        compress_blocks(data, level, BLOCK_SIZE, pool)
    }
}

/// Compresses `data` into a multi-block `GZc2` frame with `block_size`-byte
/// blocks (clamped to at least 1), fanning block compression out across
/// `pool`. Exposed for callers that tune the block size; most should use
/// [`compress_with`].
pub fn compress_blocks(data: &[u8], level: Level, block_size: usize, pool: &Pool) -> Vec<u8> {
    let block_size = block_size.max(1);
    let blocks: Vec<&[u8]> = data.chunks(block_size).collect();
    // Workers return the token stream only when it wins; stored blocks are
    // copied straight from the input during assembly, never cloned here.
    let encoded: Vec<(u8, Vec<u8>, u32)> = pool.map_heavy(&blocks, |block| {
        let tokens = Lzss::compress(block, level);
        let crc = crc32(block);
        if tokens.len() < block.len() {
            (METHOD_LZSS, tokens, crc)
        } else {
            (METHOD_STORED, Vec::new(), crc)
        }
    });

    let payload_total: usize = encoded
        .iter()
        .zip(&blocks)
        .map(|((method, tokens, _), block)| {
            if *method == METHOD_LZSS { tokens.len() } else { block.len() }
        })
        .sum();
    let mut out =
        Vec::with_capacity(BLOCK_HEADER + blocks.len() * BLOCK_ENTRY + payload_total);
    out.extend_from_slice(&MAGIC2);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for ((method, tokens, crc), block) in encoded.iter().zip(&blocks) {
        let comp_len = if *method == METHOD_LZSS { tokens.len() } else { block.len() };
        out.push(*method);
        out.extend_from_slice(&(comp_len as u32).to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }
    for ((method, tokens, _), block) in encoded.iter().zip(&blocks) {
        if *method == METHOD_LZSS {
            out.extend_from_slice(tokens);
        } else {
            out.extend_from_slice(block);
        }
    }
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

/// Returns `compress_with(data, level, pool).len()` without materializing
/// any frame: single-block sizes come from [`compressed_size`], multi-block
/// sizes from per-block count-only encodes fanned out across `pool`.
pub fn compressed_size_with(data: &[u8], level: Level, pool: &Pool) -> usize {
    if data.len() <= BLOCK_SIZE {
        compressed_size(data, level)
    } else {
        let blocks: Vec<&[u8]> = data.chunks(BLOCK_SIZE).collect();
        let payload: usize = pool
            .map_heavy(&blocks, |block| Lzss::compressed_len(block, level).min(block.len()))
            .into_iter()
            .sum();
        BLOCK_HEADER + blocks.len() * BLOCK_ENTRY + payload
    }
}

/// Decompresses a frame produced by [`compress`], [`compress_with`], or
/// [`compress_blocks`], decoding serially.
///
/// # Errors
///
/// Returns a [`DecompressError`] if the frame is truncated, has a bad magic,
/// an unknown method, a corrupt payload or block table, or a checksum
/// mismatch.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, DecompressError> {
    decompress_with(frame, &Pool::serial())
}

/// [`decompress`] with multi-block frames decoded across `pool`. Output is
/// identical for any worker count; `GZc1` frames decode serially either
/// way.
///
/// # Errors
///
/// Same conditions as [`decompress`].
pub fn decompress_with(frame: &[u8], pool: &Pool) -> Result<Vec<u8>, DecompressError> {
    if frame.len() >= 4 && frame[..4] == MAGIC2 {
        return decompress_blocks(frame, pool);
    }
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
        METHOD_LZSS => {
            Lzss::decompress(payload, raw_len).ok_or(DecompressError::CorruptPayload)?
        }
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

/// One parsed `GZc2` table entry plus its payload slice bounds.
struct BlockPlan<'a> {
    method: u8,
    payload: &'a [u8],
    raw_len: usize,
    crc: u32,
}

/// Decodes a `GZc2` frame, verifying each block's CRC independently.
fn decompress_blocks(frame: &[u8], pool: &Pool) -> Result<Vec<u8>, DecompressError> {
    if frame.len() < BLOCK_HEADER {
        return Err(DecompressError::Truncated);
    }
    let raw_len = u64::from_le_bytes(field(frame, 4)?);
    let block_size = u32::from_le_bytes(field(frame, 12)?) as u64;
    let count = u32::from_le_bytes(field(frame, 16)?) as u64;
    // The block count is fully determined by (rawlen, block_size); a frame
    // that disagrees with its own header is corrupt, not merely unusual.
    let expected_count = if raw_len == 0 {
        0
    } else if block_size == 0 {
        return Err(DecompressError::CorruptPayload);
    } else {
        raw_len.div_ceil(block_size)
    };
    if count != expected_count {
        return Err(DecompressError::CorruptPayload);
    }
    let table_len = (count as usize)
        .checked_mul(BLOCK_ENTRY)
        .ok_or(DecompressError::Truncated)?;
    let payload_at = BLOCK_HEADER
        .checked_add(table_len)
        .filter(|&end| end <= frame.len())
        .ok_or(DecompressError::Truncated)?;

    let mut plans: Vec<BlockPlan<'_>> = Vec::with_capacity(count as usize);
    let mut offset = payload_at;
    for i in 0..count {
        let at = BLOCK_HEADER + i as usize * BLOCK_ENTRY;
        let method = frame[at];
        let comp_len = u32::from_le_bytes(field(frame, at + 1)?) as usize;
        let crc = u32::from_le_bytes(field(frame, at + 5)?);
        let end = offset.checked_add(comp_len).ok_or(DecompressError::Truncated)?;
        if end > frame.len() {
            return Err(DecompressError::Truncated);
        }
        let block_raw = if i + 1 < count {
            block_size as usize
        } else {
            (raw_len - i * block_size) as usize
        };
        plans.push(BlockPlan { method, payload: &frame[offset..end], raw_len: block_raw, crc });
        offset = end;
    }
    if offset != frame.len() {
        // Trailing garbage after the last block payload.
        return Err(DecompressError::CorruptPayload);
    }

    let decoded: Vec<Result<Vec<u8>, DecompressError>> = pool.map_heavy(&plans, |plan| {
        let block = match plan.method {
            METHOD_STORED => {
                if plan.payload.len() != plan.raw_len {
                    return Err(DecompressError::CorruptPayload);
                }
                plan.payload.to_vec()
            }
            METHOD_LZSS => Lzss::decompress(plan.payload, plan.raw_len)
                .ok_or(DecompressError::CorruptPayload)?,
            m => return Err(DecompressError::UnknownMethod(m)),
        };
        if crc32(&block) != plan.crc {
            return Err(DecompressError::ChecksumMismatch);
        }
        Ok(block)
    });

    // Cap the pre-allocation: rawlen is untrusted, and every block is
    // bounded by what its payload could expand to, which the per-block
    // decode has already enforced.
    let mut out = Vec::with_capacity((raw_len as usize).min(frame.len().saturating_mul(260)));
    for block in decoded {
        out.extend_from_slice(&block?);
    }
    Ok(out)
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

    #[test]
    fn compressed_size_matches_compress() {
        let data = b"aaaabbbbccccaaaabbbbcccc".repeat(64);
        assert_eq!(
            compressed_size(&data, Level::Default),
            compress(&data, Level::Default).len()
        );
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

    /// A mixed corpus-like buffer big enough for several blocks.
    fn multi_block_data() -> Vec<u8> {
        let mut data = Vec::new();
        let mut x = 7u64;
        while data.len() < 3 * BLOCK_SIZE / 2 {
            // Alternate compressible text and pseudo-random stretches so
            // some blocks store and some compress.
            data.extend_from_slice(b"shared library segment ".repeat(40).as_slice());
            for _ in 0..512 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                data.push((x >> 33) as u8);
            }
        }
        data
    }

    #[test]
    fn compressed_size_with_matches_block_frame() {
        let data = multi_block_data();
        let pool = Pool::new(4);
        for level in [Level::Fast, Level::Default] {
            assert_eq!(
                compressed_size_with(&data, level, &pool),
                compress_with(&data, level, &pool).len()
            );
        }
        let small = b"small body".repeat(20);
        assert_eq!(
            compressed_size_with(&small, Level::Default, &pool),
            compress(&small, Level::Default).len()
        );
    }

    #[test]
    fn small_inputs_stay_gzc1_byte_identical() {
        let data = b"gear file body".repeat(100);
        assert!(data.len() <= BLOCK_SIZE);
        for level in [Level::Fast, Level::Default, Level::Best] {
            assert_eq!(compress_with(&data, level, &Pool::new(8)), compress(&data, level));
        }
    }

    #[test]
    fn multi_block_roundtrip_any_worker_count() {
        let data = multi_block_data();
        let serial = compress_with(&data, Level::Default, &Pool::serial());
        assert_eq!(&serial[..4], b"GZc2", "large input must use the block format");
        for workers in [2, 4, 8] {
            let framed = compress_with(&data, Level::Default, &Pool::new(workers));
            assert_eq!(framed, serial, "workers={workers} diverged");
        }
        assert_eq!(decompress(&serial).unwrap(), data);
        for workers in [2, 8] {
            assert_eq!(decompress_with(&serial, &Pool::new(workers)).unwrap(), data);
        }
    }

    #[test]
    fn explicit_block_size_roundtrips_with_short_tail() {
        let data = b"0123456789".repeat(100); // 1000 bytes, 128-byte blocks
        let framed = compress_blocks(&data, Level::Fast, 128, &Pool::new(3));
        assert_eq!(decompress(&framed).unwrap(), data);
        // Exact multiple too (no short tail).
        let exact = &data[..512];
        let framed = compress_blocks(exact, Level::Fast, 128, &Pool::serial());
        assert_eq!(decompress(&framed).unwrap(), exact);
    }

    #[test]
    fn block_frame_detects_payload_and_table_corruption() {
        let data = multi_block_data();
        let clean = compress_with(&data, Level::Fast, &Pool::serial());
        // Flip one payload byte.
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decompress(&bad).is_err());
        // Corrupt a table CRC.
        let mut bad = clean.clone();
        bad[BLOCK_HEADER + 5] ^= 0xff;
        assert!(decompress(&bad).is_err());
        // Truncate mid-payload.
        let mut bad = clean.clone();
        bad.truncate(clean.len() - 10);
        assert!(decompress(&bad).is_err());
        // Inflate the declared block count.
        let mut bad = clean;
        bad[16] ^= 1;
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn block_table_overhead_is_negligible() {
        // The price of the multi-block format is the table plus the
        // per-block LZSS window reset; on corpus-like content it must stay
        // within 2% of the single-stream frame.
        let data = multi_block_data();
        let single = compress(&data, Level::Default).len() as f64;
        let blocked = compress_with(&data, Level::Default, &Pool::serial()).len() as f64;
        let overhead = blocked / single - 1.0;
        println!(
            "single-stream {} B, 256 KiB blocks {} B, overhead {:.3}%",
            single,
            blocked,
            overhead * 100.0
        );
        assert!(overhead < 0.02, "block format overhead {:.3}%", overhead * 100.0);
    }

    /// Length and CRC-32 of the frames the match finder produces, captured
    /// before its tables went from `usize` to `u32` positions: any change
    /// to a token decision moves a stored size, hence every `sim_*` golden.
    #[test]
    fn match_finder_output_is_pinned() {
        let mixed = multi_block_data();
        let mid = &mixed[..70 * 1024]; // crosses the 32 KiB window twice
        let big = &mixed[..300 * 1024]; // > BLOCK_SIZE: GZc2 via compress_with
        let mut got = Vec::new();
        for level in [Level::Fast, Level::Default, Level::Best] {
            for data in [&b""[..], b"gear!", mid] {
                let framed = compress(data, level);
                assert_eq!(compressed_size(data, level), framed.len());
                got.push((framed.len(), crc32(&framed)));
            }
            let framed = compress_with(big, level, &Pool::new(2));
            assert_eq!(compressed_size_with(big, level, &Pool::serial()), framed.len());
            got.push((framed.len(), crc32(&framed)));
        }
        let want = [
            (17, 3981119506),
            (22, 2825773899),
            (29468, 1006471878),
            (126020, 2365491959),
            (17, 3981119506),
            (22, 2825773899),
            (29468, 3162887093),
            (126020, 1057345874),
            (17, 3981119506),
            (22, 2825773899),
            (29467, 1432777036),
            (126015, 3341233102),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn block_frame_rejects_zero_block_size() {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"GZc2");
        frame.extend_from_slice(&10u64.to_le_bytes()); // rawlen 10
        frame.extend_from_slice(&0u32.to_le_bytes()); // block_size 0
        frame.extend_from_slice(&1u32.to_le_bytes()); // count 1
        assert!(decompress(&frame).is_err());
    }

    #[test]
    fn hostile_block_count_does_not_allocate_unbounded() {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"GZc2");
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decompress(&frame).is_err());
    }
}
