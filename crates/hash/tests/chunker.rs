//! Property-based tests for the CDC chunker: shift-resistance (a small
//! early edit re-chunks only the O(1) chunks near the edit, never the tail)
//! and spans that tile the buffer within the size bounds.

use std::ops::Range;

use gear_hash::{chunk_spans, ChunkerConfig};
use proptest::prelude::*;

const CONFIG: ChunkerConfig = ChunkerConfig { min_size: 32, avg_size: 128, max_size: 512 };

/// Deterministic pseudo-random bytes from a seed (splitmix64 per position).
fn noise(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut z = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Cut positions measured from the END of the buffer, restricted to cuts
/// strictly inside the final `tail` bytes. Distance-from-end is the frame
/// in which an early insert/delete leaves the shared suffix untouched.
fn tail_cuts(spans: &[Range<usize>], total: usize, tail: usize) -> Vec<usize> {
    spans
        .iter()
        .map(|s| total - s.end)
        .filter(|&from_end| from_end > 0 && from_end < tail)
        .collect()
}

proptest! {
    /// Inserting a small span early in a long file must leave the tail
    /// chunking untouched: beyond a resync margin of a few max-size chunks
    /// past the edit, every cut (measured from the end of the buffer) is
    /// identical. A fixed-size chunker fails this instantly — every chunk
    /// after the insert shifts.
    #[test]
    fn early_insert_rechunks_only_nearby(
        seed in any::<u64>(),
        edit_at in 0usize..2_000,
        insert in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let original = noise(seed, 40_000);
        let mut edited = original.clone();
        let at = edit_at.min(edited.len());
        edited.splice(at..at, insert.iter().copied());

        let spans_a = chunk_spans(&original, &CONFIG);
        let spans_b = chunk_spans(&edited, &CONFIG);

        // Resync margin: the edit region plus a generous 8 max-size chunks
        // for the cut walks to coalesce on the shared suffix.
        let margin = at + insert.len() + 8 * CONFIG.max_size;
        let tail = original.len().saturating_sub(margin);
        prop_assert!(tail > 8 * CONFIG.max_size, "file long enough to have a tail");
        prop_assert_eq!(
            tail_cuts(&spans_a, original.len(), tail),
            tail_cuts(&spans_b, edited.len(), tail),
            "tail cuts must survive an early insert"
        );
    }

    /// Deleting a small span early must likewise leave the tail chunking
    /// untouched.
    #[test]
    fn early_delete_rechunks_only_nearby(
        seed in any::<u64>(),
        edit_at in 0usize..2_000,
        del in 1usize..64,
    ) {
        let original = noise(seed, 40_000);
        let mut edited = original.clone();
        let at = edit_at.min(edited.len() - del);
        edited.drain(at..at + del);

        let spans_a = chunk_spans(&original, &CONFIG);
        let spans_b = chunk_spans(&edited, &CONFIG);

        let margin = at + del + 8 * CONFIG.max_size;
        let tail = edited.len().saturating_sub(margin);
        prop_assert!(tail > 8 * CONFIG.max_size, "file long enough to have a tail");
        prop_assert_eq!(
            tail_cuts(&spans_a, original.len(), tail),
            tail_cuts(&spans_b, edited.len(), tail),
            "tail cuts must survive an early delete"
        );
    }

    /// Chunk spans tile the buffer exactly and respect the size bounds for
    /// arbitrary (not just noise) inputs.
    #[test]
    fn spans_tile_and_bound(data in proptest::collection::vec(any::<u8>(), 0..8_192)) {
        let spans = chunk_spans(&data, &CONFIG);
        let mut expect = 0;
        for (i, span) in spans.iter().enumerate() {
            prop_assert_eq!(span.start, expect);
            prop_assert!(span.len() <= CONFIG.max_size);
            if i + 1 < spans.len() {
                prop_assert!(span.len() >= CONFIG.min_size);
            }
            expect = span.end;
        }
        prop_assert_eq!(expect, data.len());
    }
}
