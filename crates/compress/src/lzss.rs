//! LZSS dictionary compression.
//!
//! The token stream packs eight tokens per flag byte; each token is either a
//! literal byte or an `(offset, length)` back-reference into a 32 KiB sliding
//! window. Matches are found with a hash-chain matcher whose search depth is
//! controlled by [`Level`].
//!
//! The match finder is shared between two emitters: the real byte-stream
//! encoder behind [`Lzss::compress`] and a count-only encoder behind
//! [`Lzss::compressed_len`] that performs the identical search but only
//! tallies output bytes — the storage-accounting hot path
//! (`gear_compress::compressed_size`, called per unique file by the registry
//! dedup study) never allocates a token stream it would immediately drop.
//! What every call does allocate is the match finder's two position
//! tables: 128 KiB of chain heads plus 4 bytes per input byte, up to
//! another 128 KiB, of chain links.

/// Sliding-window size. Offsets are encoded in 16 bits, so the window must
/// not exceed 64 KiB; 32 KiB matches zlib's window and keeps chains short.
const WINDOW: usize = 32 * 1024;
/// Shortest back-reference worth encoding (3 bytes would break even only
/// against the flag bit; 4 gives a guaranteed win).
const MIN_MATCH: usize = 4;
/// Longest encodable match: length is stored as `len - MIN_MATCH` in a byte.
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Number of hash buckets for 4-byte prefixes.
const HASH_SIZE: usize = 1 << 15;
/// "No position" in the match finder's tables, which hold positions as
/// `u32`; [`scan`] therefore works in spans of at most this many bytes.
const NO_POS: u32 = u32::MAX;

/// Compression effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// Shallow match search; fastest.
    Fast,
    /// Balanced search depth (the default).
    #[default]
    Default,
    /// Deep search; best ratio.
    Best,
}

impl Level {
    /// Maximum hash-chain positions examined per input position.
    fn chain_depth(self) -> usize {
        match self {
            Level::Fast => 8,
            Level::Default => 32,
            Level::Best => 128,
        }
    }
}

/// Where the shared match-finder sends its tokens.
///
/// Both implementations are zero-cost after monomorphization; the search
/// loop in [`scan`] is written once, so the byte stream and the count can
/// never disagree about which tokens are produced.
trait Emit {
    /// A literal byte token.
    fn literal(&mut self, byte: u8);
    /// A back-reference token (`offset` back, `len` bytes).
    fn back_ref(&mut self, offset: usize, len: usize);
}

/// The real encoder: flag bytes allocated lazily, payloads following them.
struct StreamEmit {
    out: Vec<u8>,
    flags_at: usize,
    flag_bit: u8,
}

impl StreamEmit {
    fn new(capacity: usize) -> Self {
        // flag_bit = 8 forces allocation of the first flag byte.
        StreamEmit { out: Vec::with_capacity(capacity), flags_at: 0, flag_bit: 8 }
    }

    /// A flag byte is allocated lazily, right before the first token of each
    /// group of eight, so token payloads always follow their flags.
    fn flag(&mut self, set: bool) {
        if self.flag_bit == 8 {
            self.flag_bit = 0;
            self.flags_at = self.out.len();
            self.out.push(0);
        }
        if set {
            self.out[self.flags_at] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
    }
}

impl Emit for StreamEmit {
    fn literal(&mut self, byte: u8) {
        self.flag(false);
        self.out.push(byte);
    }

    fn back_ref(&mut self, offset: usize, len: usize) {
        self.flag(true);
        self.out.extend_from_slice(&(offset as u16).to_le_bytes());
        self.out.push((len - MIN_MATCH) as u8);
    }
}

/// The count-only encoder: one flag byte per eight tokens, one byte per
/// literal, three per back-reference — two counters, no output buffer.
#[derive(Default)]
struct CountEmit {
    tokens: usize,
    payload: usize,
}

impl CountEmit {
    fn total(&self) -> usize {
        self.payload + self.tokens.div_ceil(8)
    }
}

impl Emit for CountEmit {
    fn literal(&mut self, _byte: u8) {
        self.tokens += 1;
        self.payload += 1;
    }

    fn back_ref(&mut self, _offset: usize, _len: usize) {
        self.tokens += 1;
        self.payload += 3;
    }
}

/// The shared hash-chain match finder. Every token decision lives here, so
/// the byte-stream and count-only encoders are bit-for-bit in agreement.
///
/// Inputs of 4 GiB or more are scanned as independent spans of [`NO_POS`]
/// bytes (matches never reach back across a span boundary), so positions
/// always fit the `u32` tables.
fn scan<E: Emit>(data: &[u8], level: Level, emit: &mut E) {
    for span in data.chunks(NO_POS as usize) {
        scan_span(span, level, emit);
    }
}

/// [`scan`] over one span shorter than 4 GiB. Allocates the two position
/// tables per call: `head`, 128 KiB, and `prev`, 4 bytes per input byte up
/// to another 128 KiB.
fn scan_span<E: Emit>(data: &[u8], level: Level, emit: &mut E) {
    let depth = level.chain_depth();
    // head[h] = most recent position with hash h; prev[pos % WINDOW] = the
    // previous position in the same chain.
    let mut head = vec![NO_POS; HASH_SIZE];
    let mut prev = vec![NO_POS; data.len().min(WINDOW)];
    let mut pos = 0usize;

    while pos < data.len() {
        let (mut best_len, mut best_off) = (0usize, 0usize);
        if pos + MIN_MATCH <= data.len() {
            let h = hash4(&data[pos..]);
            let mut candidate = head[h];
            let limit = pos.saturating_sub(WINDOW - 1);
            let mut steps = 0;
            while candidate != NO_POS && candidate as usize >= limit && steps < depth {
                let at = candidate as usize;
                let len = Lzss::match_len(data, at, pos);
                if len > best_len {
                    best_len = len;
                    best_off = pos - at;
                    if len >= MAX_MATCH {
                        break;
                    }
                }
                candidate = prev[at % WINDOW];
                steps += 1;
            }
        }

        if best_len >= MIN_MATCH {
            emit.back_ref(best_off, best_len);
            // Insert every covered position into the chains so later
            // matches can start inside this one.
            let end = pos + best_len;
            while pos < end {
                if pos + MIN_MATCH <= data.len() {
                    let h = hash4(&data[pos..]);
                    prev[pos % WINDOW] = head[h];
                    head[h] = pos as u32;
                }
                pos += 1;
            }
        } else {
            emit.literal(data[pos]);
            if pos + MIN_MATCH <= data.len() {
                let h = hash4(&data[pos..]);
                prev[pos % WINDOW] = head[h];
                head[h] = pos as u32;
            }
            pos += 1;
        }
    }
}

/// The LZSS codec. A unit struct; the match finder's tables (see the module
/// docs) are allocated per call and nothing outlives it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lzss;

impl Lzss {
    /// Compresses `data` into a raw LZSS token stream (no frame header).
    ///
    /// Incompressible input expands by at most 1 bit per byte (one flag bit
    /// per literal); callers that must bound size use the frame layer, which
    /// falls back to stored blocks.
    pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
        let mut emit = StreamEmit::new(data.len() / 2 + 16);
        scan(data, level, &mut emit);
        emit.out
    }

    /// Returns exactly `Lzss::compress(data, level).len()` without building
    /// the token stream: the same hash-chain search runs, but tokens are
    /// only counted. Used by size-accounting callers that never keep the
    /// compressed bytes.
    pub fn compressed_len(data: &[u8], level: Level) -> usize {
        let mut emit = CountEmit::default();
        scan(data, level, &mut emit);
        emit.total()
    }

    /// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
    /// [`MAX_MATCH`] and the end of `data` (`a < b`).
    ///
    /// Compares 8 bytes at a time via `u64` XOR + `trailing_zeros`, falling
    /// back to byte-wise for the tail. Returns the index of the first
    /// differing byte — exactly what the byte-wise loop returns — so the
    /// token stream is bit-identical to the scalar kernel's. Public so the
    /// criterion kernel bench can pin its throughput.
    #[inline]
    pub fn match_len(data: &[u8], a: usize, b: usize) -> usize {
        let max = (data.len() - b).min(MAX_MATCH);
        let mut n = 0;
        // Word-wise: both slices end at or before data.len() because
        // a + n + 8 <= b + n + 8 <= data.len() whenever n + 8 <= max.
        while n + 8 <= max {
            let x = u64::from_le_bytes(data[a + n..a + n + 8].try_into().expect("8 bytes"));
            let y = u64::from_le_bytes(data[b + n..b + n + 8].try_into().expect("8 bytes"));
            let diff = x ^ y;
            if diff != 0 {
                return n + (diff.trailing_zeros() / 8) as usize;
            }
            n += 8;
        }
        while n < max && data[a + n] == data[b + n] {
            n += 1;
        }
        n
    }

    /// Decompresses a raw LZSS token stream produced by [`Lzss::compress`].
    ///
    /// `expected_len` is the exact decompressed size (recorded by the frame
    /// layer); decoding stops once it is reached. Back-references copy with
    /// `extend_from_within` — whole non-overlapping matches in one memmove,
    /// overlapping (RLE-style) matches in `offset`-sized steps.
    ///
    /// # Errors
    ///
    /// Returns `None` on a truncated stream or an out-of-range
    /// back-reference.
    pub fn decompress(stream: &[u8], expected_len: usize) -> Option<Vec<u8>> {
        // Cap the pre-allocation by what the stream could possibly expand
        // to: `expected_len` comes from an untrusted header, and a hostile
        // length must not reserve unbounded memory before the first decode
        // error surfaces.
        let cap = expected_len.min(stream.len().saturating_mul(MAX_MATCH));
        let mut out = Vec::with_capacity(cap);
        let mut i = 0usize;
        while out.len() < expected_len {
            let flags = *stream.get(i)?;
            i += 1;
            for bit in 0..8 {
                if out.len() == expected_len {
                    break;
                }
                if flags & (1 << bit) != 0 {
                    let lo = *stream.get(i)?;
                    let hi = *stream.get(i + 1)?;
                    let len = *stream.get(i + 2)? as usize + MIN_MATCH;
                    i += 3;
                    let off = u16::from_le_bytes([lo, hi]) as usize;
                    if off == 0 || off > out.len() {
                        return None;
                    }
                    let start = out.len() - off;
                    if off >= len {
                        // Non-overlapping: one bulk copy.
                        out.extend_from_within(start..start + len);
                    } else {
                        // Overlapping (RLE-style): each step doubles the
                        // bytes available to copy from, so this is
                        // O(len / off) memmoves instead of `len` pushes.
                        let mut remaining = len;
                        while remaining > 0 {
                            let take = remaining.min(out.len() - start);
                            out.extend_from_within(start..start + take);
                            remaining -= take;
                        }
                    }
                } else {
                    out.push(*stream.get(i)?);
                    i += 1;
                }
            }
        }
        Some(out)
    }
}

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - 15)) as usize & (HASH_SIZE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], level: Level) -> usize {
        let c = Lzss::compress(data, level);
        let d = Lzss::decompress(&c, data.len()).expect("valid stream");
        assert_eq!(d, data);
        assert_eq!(Lzss::compressed_len(data, level), c.len(), "count-only length diverged");
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(roundtrip(b"", Level::Default), 0);
        roundtrip(b"a", Level::Default);
        roundtrip(b"abc", Level::Default);
        roundtrip(b"abcd", Level::Default);
    }

    #[test]
    fn repetitive_input_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let size = roundtrip(&data, Level::Default);
        assert!(size < data.len() / 4, "{size} vs {}", data.len());
    }

    #[test]
    fn rle_overlapping_matches() {
        let data = vec![0x41u8; 10_000];
        let size = roundtrip(&data, Level::Fast);
        assert!(size < 200);
    }

    #[test]
    fn incompressible_bounded_expansion() {
        // Pseudo-random (xorshift) bytes: no 4-byte matches expected.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = Lzss::compress(&data, Level::Best);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
        assert_eq!(Lzss::decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn levels_order_ratio() {
        let data: Vec<u8> = (0..20_000u32)
            .flat_map(|i| format!("line {} of synthetic log\n", i % 700).into_bytes())
            .collect();
        let fast = Lzss::compress(&data, Level::Fast).len();
        let best = Lzss::compress(&data, Level::Best).len();
        assert!(best <= fast);
    }

    #[test]
    fn long_range_matches_within_window() {
        let mut data = vec![7u8; 100];
        data.extend(std::iter::repeat_n(3u8, WINDOW - 200));
        data.extend_from_slice(&[7u8; 100]); // matches the prefix across ~32K
        roundtrip(&data, Level::Best);
    }

    #[test]
    fn match_len_agrees_with_bytewise_scan() {
        // Crafted so matches end at every offset within a word and straddle
        // the 8-byte boundary both ways.
        let mut data = Vec::new();
        for n in 0..40usize {
            data.extend_from_slice(&vec![b'x'; n]);
            data.push(b'!');
        }
        data.extend_from_slice(&data.clone()); // long self-match at distance len/2
        for a in 0..data.len() {
            for b in (a + 1)..(a + 20).min(data.len()) {
                let max = (data.len() - b).min(MAX_MATCH);
                let mut expect = 0;
                while expect < max && data[a + expect] == data[b + expect] {
                    expect += 1;
                }
                assert_eq!(Lzss::match_len(&data, a, b), expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn compressed_len_matches_stream_across_levels() {
        let samples: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabcabcabc".repeat(40),
            vec![9u8; 5000],
            (0..3000u32).flat_map(|i| i.to_le_bytes()).collect(),
        ];
        for data in &samples {
            for level in [Level::Fast, Level::Default, Level::Best] {
                assert_eq!(
                    Lzss::compressed_len(data, level),
                    Lzss::compress(data, level).len(),
                    "len {} level {level:?}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn rejects_corrupt_stream() {
        let data = b"abcabcabcabcabcabc".repeat(50);
        let mut c = Lzss::compress(&data, Level::Default);
        c.truncate(c.len() / 2);
        assert!(Lzss::decompress(&c, data.len()).is_none());
    }

    #[test]
    fn rejects_bad_offset() {
        // flag byte: first token is a match; offset 9 with empty history.
        let stream = [0b0000_0001u8, 9, 0, 0];
        assert!(Lzss::decompress(&stream, 8).is_none());
    }

    #[test]
    fn hostile_expected_len_does_not_reserve_unbounded_memory() {
        // A 4-byte stream claiming usize::MAX of output must fail fast
        // without a giant allocation.
        let stream = [0u8, b'q', 0, 0];
        assert!(Lzss::decompress(&stream, usize::MAX).is_none());
    }
}
