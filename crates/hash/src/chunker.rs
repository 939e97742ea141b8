//! Content-defined chunking (CDC) with a Gear rolling hash.
//!
//! Files above a size threshold are split into variable-size chunks whose
//! boundaries depend only on the bytes *near* the boundary, never on the
//! byte offset. Inserting or deleting a span early in a file therefore
//! shifts only the O(1) chunks around the edit: the cut points downstream
//! re-synchronise on the same content and the tail chunks keep their
//! fingerprints — which is exactly what lets a registry deduplicate
//! consecutive versions of a large binary at sub-file granularity.
//!
//! The rolling hash is the Gear construction (fitting, given the paper's
//! name): one shift and one add per byte against a 256-entry random table,
//!
//! ```text
//! h = (h << 1) + GEAR_TABLE[byte]
//! ```
//!
//! A boundary is declared at the first position past `min_size` where
//! `h & mask == 0`, with `mask` sized so the *expected* chunk length is
//! `avg_size`; `max_size` force-cuts pathological runs. Because `h << 1`
//! discards one old byte's influence from the judged low bits per step, the
//! boundary decision depends only on the last `mask.count_ones()` bytes — a
//! small sliding window, entirely content-defined.
//!
//! The chunker is word-wise fast: bytes below `min_size` are skipped without
//! hashing (only a one-word warm-up window ahead of the first judged
//! position is rolled in), and the judged region is consumed in unrolled
//! 8-byte words.
//!
//! Everything is deterministic: boundaries are a pure function of
//! `(data, config)`.

use std::ops::Range;

use crate::Fingerprint;

/// Bytes of rolling-hash warm-up ahead of the first judged position. One
/// 64-byte span saturates every bit of the 64-bit hash, so the judged
/// window behaves as if the whole prefix had been rolled in.
const WARMUP: usize = 64;

const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Gear table: 256 fixed random words, one per byte value, generated
/// from a splitmix64 stream at compile time. Lives in a static (not on the
/// stack) — it is read-only shared state, like the CRC tables.
static GEAR_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut state = 0x6745_2301_EFCD_AB89u64; // arbitrary fixed seed
    let mut i = 0;
    while i < 256 {
        state = splitmix64(state);
        table[i] = state;
        i += 1;
    }
    table
};

/// Chunk-size bounds of the CDC chunker.
///
/// Boundaries are judged only in `[min_size, max_size]`; `avg_size` sets
/// the expected chunk length via the boundary mask (rounded to a power of
/// two). The default mirrors the paper's 128 KiB chunk unit; use
/// [`ChunkerConfig::scaled`] for a scaled-down corpus so chunk sizes keep
/// their full-scale proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// No chunk is shorter than this (except a file's final chunk).
    pub min_size: usize,
    /// Target expected chunk length.
    pub avg_size: usize,
    /// No chunk is longer than this (force cut).
    pub max_size: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig { min_size: 32 * 1024, avg_size: 128 * 1024, max_size: 512 * 1024 }
    }
}

impl ChunkerConfig {
    /// Bounds for a corpus scaled down by `scale_denom`: the default
    /// 32 KiB / 128 KiB / 512 KiB divided by the scale factor, floored so
    /// the ordering `min < avg < max` survives any scale.
    pub fn scaled(scale_denom: u64) -> Self {
        let s = scale_denom.max(1) as usize;
        ChunkerConfig {
            min_size: (32 * 1024 / s).max(8),
            avg_size: (128 * 1024 / s).max(16),
            max_size: (512 * 1024 / s).max(64),
        }
    }

    /// The boundary mask: `expected gap = mask + 1 ≈ avg_size - min_size`
    /// (rounded up to a power of two), so chunks average out near
    /// `avg_size` after the mandatory `min_size` skip.
    fn mask(&self) -> u64 {
        let gap = self.avg_size.saturating_sub(self.min_size).max(2);
        (gap.next_power_of_two() as u64) - 1
    }

    /// Bounds with the invariants enforced (`1 ≤ min ≤ avg ≤ max`).
    fn normalized(&self) -> ChunkerConfig {
        let min = self.min_size.max(1);
        let avg = self.avg_size.max(min);
        let max = self.max_size.max(avg);
        ChunkerConfig { min_size: min, avg_size: avg, max_size: max }
    }
}

/// One step of the Gear rolling hash.
#[inline(always)]
fn roll(h: u64, byte: u8) -> u64 {
    (h << 1).wrapping_add(GEAR_TABLE[byte as usize])
}

/// Length of the first chunk of `data` under `config` (already normalized).
fn next_cut(data: &[u8], config: &ChunkerConfig, mask: u64) -> usize {
    if data.len() <= config.min_size {
        return data.len();
    }
    let max = data.len().min(config.max_size);
    // Skip the unjudgeable prefix without hashing; warm the hash over the
    // last word before the judged region so every judged bit is populated.
    let mut h = 0u64;
    let warm = config.min_size.saturating_sub(WARMUP);
    for &byte in &data[warm..config.min_size] {
        h = roll(h, byte);
    }
    // Judged region, consumed in unrolled 8-byte words.
    let mut pos = config.min_size;
    let judged = &data[config.min_size..max];
    let mut words = judged.chunks_exact(8);
    for word in &mut words {
        for &byte in word {
            h = roll(h, byte);
            pos += 1;
            if h & mask == 0 {
                return pos;
            }
        }
    }
    for &byte in words.remainder() {
        h = roll(h, byte);
        pos += 1;
        if h & mask == 0 {
            return pos;
        }
    }
    max
}

/// Splits `data` into content-defined chunk spans.
///
/// Every span except possibly the last is `min_size ..= max_size` bytes;
/// spans tile `data` exactly, in order. Empty input yields no spans.
/// Deterministic: a pure function of `(data, config)`.
///
/// ```
/// use gear_hash::{chunk_spans, ChunkerConfig};
/// let data = vec![7u8; 100_000];
/// let config = ChunkerConfig { min_size: 2048, avg_size: 8192, max_size: 32768 };
/// let spans = chunk_spans(&data, &config);
/// assert_eq!(spans.iter().map(|s| s.len()).sum::<usize>(), data.len());
/// assert!(spans.iter().all(|s| s.len() <= 32768));
/// ```
pub fn chunk_spans(data: &[u8], config: &ChunkerConfig) -> Vec<Range<usize>> {
    let config = config.normalized();
    let mask = config.mask();
    let mut spans = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let len = next_cut(&data[start..], &config, mask);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Splits `data` and fingerprints each chunk: `(span, Fingerprint)` pairs in
/// file order — the unit the converter stores and the registry dedups on.
pub fn chunk_fingerprints(
    data: &[u8],
    config: &ChunkerConfig,
) -> Vec<(Range<usize>, Fingerprint)> {
    chunk_spans(data, config)
        .into_iter()
        .map(|span| {
            let fp = Fingerprint::of(&data[span.clone()]);
            (span, fp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| splitmix64(seed.wrapping_mul(0xA5A5).wrapping_add(i)) as u8).collect()
    }

    fn tiling_ok(spans: &[Range<usize>], len: usize) {
        let mut expect = 0;
        for span in spans {
            assert_eq!(span.start, expect, "spans must tile in order");
            assert!(span.end > span.start, "empty span");
            expect = span.end;
        }
        assert_eq!(expect, len, "spans must cover the buffer");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 1024 };
        assert!(chunk_spans(&[], &config).is_empty());
        // At or below min: one chunk, the whole file.
        assert_eq!(chunk_spans(&[1, 2, 3], &config), vec![0..3]);
        assert_eq!(chunk_spans(&noise(1, 64), &config), vec![0..64]);
    }

    #[test]
    fn spans_tile_and_respect_bounds() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 1024 };
        let data = noise(2, 100_000);
        let spans = chunk_spans(&data, &config);
        tiling_ok(&spans, data.len());
        assert!(spans.len() > 50, "expected many chunks, got {}", spans.len());
        for (i, span) in spans.iter().enumerate() {
            assert!(span.len() <= 1024, "chunk {i} over max: {}", span.len());
            if i + 1 < spans.len() {
                assert!(span.len() >= 64, "chunk {i} under min: {}", span.len());
            }
        }
    }

    #[test]
    fn average_chunk_size_is_near_target() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 2048 };
        let data = noise(3, 1 << 20);
        let spans = chunk_spans(&data, &config);
        let mean = data.len() / spans.len();
        // Expected ≈ min + 2^ceil(log2(avg-min)) = 64 + 256 = 320; allow a
        // wide band — the point is "hundreds of bytes, not 64 or 2048".
        assert!((128..=640).contains(&mean), "mean chunk {mean}");
    }

    #[test]
    fn deterministic_and_content_defined() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 1024 };
        let data = noise(4, 50_000);
        assert_eq!(chunk_spans(&data, &config), chunk_spans(&data, &config));
        // A different buffer chunks differently.
        let other = noise(5, 50_000);
        assert_ne!(chunk_spans(&data, &config), chunk_spans(&other, &config));
    }

    #[test]
    fn constant_data_hits_max_force_cuts() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 512 };
        let data = vec![0u8; 10_000];
        let spans = chunk_spans(&data, &config);
        tiling_ok(&spans, data.len());
        // Constant input either never matches the mask or always cuts at the
        // same length; both give uniform chunks.
        let lens: Vec<usize> = spans.iter().map(|s| s.len()).collect();
        assert!(lens[..lens.len() - 1].iter().all(|&l| l == lens[0]));
    }

    #[test]
    fn degenerate_configs_are_normalized() {
        // min > max, avg 0 — must still terminate and tile.
        let config = ChunkerConfig { min_size: 100, avg_size: 0, max_size: 10 };
        let data = noise(6, 5_000);
        let spans = chunk_spans(&data, &config);
        tiling_ok(&spans, data.len());
    }

    #[test]
    fn scaled_keeps_ordering() {
        for denom in [1u64, 64, 1024, 8192, 1 << 20] {
            let c = ChunkerConfig::scaled(denom);
            assert!(c.min_size < c.avg_size, "{c:?}");
            assert!(c.avg_size < c.max_size, "{c:?}");
        }
        assert_eq!(ChunkerConfig::scaled(1).avg_size, 128 * 1024);
    }

    #[test]
    fn fingerprints_name_chunk_content() {
        let config = ChunkerConfig { min_size: 64, avg_size: 256, max_size: 1024 };
        let data = noise(9, 20_000);
        let chunks = chunk_fingerprints(&data, &config);
        for (span, fp) in &chunks {
            assert_eq!(*fp, Fingerprint::of(&data[span.clone()]));
        }
        // Two files sharing a suffix share the tail chunks' fingerprints.
        let mut edited = data;
        edited[0] ^= 0xFF;
        let edited_chunks = chunk_fingerprints(&edited, &config);
        let shared = chunks
            .iter()
            .filter(|(_, fp)| edited_chunks.iter().any(|(_, efp)| efp == fp))
            .count();
        assert!(shared > chunks.len() / 2, "shared {shared}/{}", chunks.len());
    }
}
