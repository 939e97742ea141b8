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
//!
//! The match finder's two position tables — 128 KiB of chain heads and
//! 128 KiB of chain links — belong to the thread, not to the call: the
//! files a registry sizes average under 2 KB, and allocating and filling
//! the tables for each one was a quarter of the time spent sizing it and
//! nearly all of the memory a publish allocated. [`Tables`] explains how a
//! call sees none of the positions its predecessors left behind.

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
/// The match finder's tables hold positions as `u32`; [`scan`] therefore
/// works in spans of at most this many bytes.
const MAX_SPAN: usize = u32::MAX as usize;

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
/// loop in [`Tables::scan`] is written once, so the byte stream and the count
/// can never disagree about which tokens are produced.
trait Emit {
    /// A literal byte token.
    fn literal(&mut self, byte: u8);
    /// A back-reference token (`offset` back, `len` bytes).
    fn back_ref(&mut self, offset: usize, len: usize);
}

/// The real encoder: flag bytes allocated lazily, payloads following them,
/// appended to whatever `out` already holds (a frame header, say).
struct StreamEmit {
    out: Vec<u8>,
    flags_at: usize,
    flag_bit: u8,
}

impl StreamEmit {
    fn onto(out: Vec<u8>) -> Self {
        // flag_bit = 8 forces allocation of the first flag byte.
        StreamEmit { out, flags_at: 0, flag_bit: 8 }
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

/// The hash-chain match finder's position tables, one pair per thread.
///
/// `head[h]` is the most recent position whose 4-byte prefix hashes to `h`;
/// `prev[pos % WINDOW]` is the position before `pos` in the same chain.
/// Entries are stamped: a call stores position `pos` as `base + pos`, and
/// `base` then moves past everything that call stored, so whatever an
/// earlier call left behind is below the current `base` and reads as "no
/// position". Nothing is cleared between calls; `head` is zero-filled again
/// only when the stamps would run out of `u32`, once per 4 GiB scanned on
/// the thread. (`prev` never needs it: a link is followed only from a
/// position the current call inserted, and inserting writes the link.)
struct Tables {
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u32; WINDOW]>,
    /// Stamp of the next call's position 0. At least 1, so a zeroed entry is
    /// below it; `u64` because it may come to rest on `1 << 32`.
    base: u64,
}

thread_local! {
    static TABLES: std::cell::RefCell<Tables> = std::cell::RefCell::new(Tables::new());
}

/// A zeroed table on the heap (an array literal would pass through the
/// stack).
fn zeroed<const N: usize>() -> Box<[u32; N]> {
    let Ok(table) = vec![0u32; N].into_boxed_slice().try_into() else {
        unreachable!("a slice of N converts to an array of N")
    };
    table
}

impl Tables {
    fn new() -> Self {
        Tables { head: zeroed(), prev: zeroed(), base: 1 }
    }

    /// Runs the match finder over one span of at most [`MAX_SPAN`] bytes.
    /// Every token decision lives here, so the byte-stream and count-only
    /// encoders are bit-for-bit in agreement.
    ///
    /// The search takes, among at most `depth` chain candidates walked from
    /// the newest, the first that matches longest — and spends no work on a
    /// candidate that cannot change that answer: one whose byte at
    /// `best_len` differs from the current position's matches at most
    /// `best_len` bytes, so it is passed over after a one-byte compare (it
    /// still counts towards the depth), and the walk stops as soon as
    /// `best_len` is the longest match the input still allows. The tokens
    /// are those of the plain walk that compares every candidate in full
    /// (`Tables::reference_scan` in the tests holds the two together).
    fn scan<E: Emit>(&mut self, data: &[u8], level: Level, emit: &mut E) {
        if self.base + data.len() as u64 > 1 << 32 {
            self.head.fill(0);
            self.base = 1;
        }
        // The largest stamp, base + len - 1, fits `u32` by the check above.
        let base = self.base as u32;
        self.base += data.len() as u64;
        let (head, prev) = (&mut *self.head, &mut *self.prev);
        let depth = level.chain_depth();
        // Positions below this have the four bytes a chain is keyed by; the
        // last three of the input neither start a match nor join a chain.
        let keyed = data.len().saturating_sub(MIN_MATCH - 1);
        let mut pos = 0usize;

        while pos < keyed {
            let h = hash4(data, pos);
            // No candidate matches more than this; reaching it ends the walk.
            let longest = (data.len() - pos).min(MAX_MATCH);
            let (mut best_len, mut best_off) = (0usize, 0usize);
            let mut candidate = head[h];
            // Stamps below this are out of the window or another call's.
            let floor = base + pos.saturating_sub(WINDOW - 1) as u32;
            let mut steps = 0;
            while candidate >= floor && steps < depth {
                let at = (candidate - base) as usize;
                // In bounds: best_len < longest <= data.len() - pos, at < pos.
                if data[at + best_len] == data[pos + best_len] {
                    let len = Lzss::match_len(data, at, pos);
                    if len > best_len {
                        best_len = len;
                        best_off = pos - at;
                        if len >= longest {
                            break;
                        }
                    }
                }
                candidate = prev[at % WINDOW];
                steps += 1;
            }
            prev[pos % WINDOW] = head[h];
            head[h] = base + pos as u32;

            if best_len >= MIN_MATCH {
                emit.back_ref(best_off, best_len);
                // Insert every covered position into the chains so later
                // matches can start inside this one: four keys from each
                // eight-byte load while one fits, then one key at a time.
                let end = pos + best_len;
                let stop = end.min(keyed);
                let mut covered = pos + 1;
                while covered + 4 <= stop {
                    let Some(word) = data.get(covered..).and_then(<[u8]>::first_chunk::<8>) else {
                        break;
                    };
                    let word = u64::from_le_bytes(*word);
                    for k in 0..4 {
                        let h = hash_key((word >> (8 * k)) as u32);
                        prev[(covered + k) % WINDOW] = head[h];
                        head[h] = base + (covered + k) as u32;
                    }
                    covered += 4;
                }
                for covered in covered..stop {
                    let h = hash4(data, covered);
                    prev[covered % WINDOW] = head[h];
                    head[h] = base + covered as u32;
                }
                pos = end;
            } else {
                emit.literal(data[pos]);
                pos += 1;
            }
        }
        for &byte in &data[pos..] {
            emit.literal(byte);
        }
    }
}

/// Runs the calling thread's match finder over `data`. Inputs of 4 GiB or
/// more are scanned as independent spans of [`MAX_SPAN`] bytes (matches
/// never reach back across a span boundary), so positions always fit the
/// `u32` tables.
fn scan<E: Emit>(data: &[u8], level: Level, emit: &mut E) {
    TABLES.with_borrow_mut(|tables| {
        for span in data.chunks(MAX_SPAN) {
            tables.scan(span, level, emit);
        }
    });
}

/// The LZSS codec. A unit struct: the only state, the match finder's
/// position tables, belongs to the calling thread and is reused from call to
/// call, and no call can observe what an earlier one left in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lzss;

impl Lzss {
    /// Compresses `data` into a raw LZSS token stream (no frame header).
    ///
    /// Incompressible input expands by at most 1 bit per byte (one flag bit
    /// per literal); callers that must bound size use the frame layer, which
    /// falls back to stored blocks.
    pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
        Self::compress_onto(data, level, Vec::with_capacity(Self::stream_capacity(data.len())))
    }

    /// [`Lzss::compress`], the stream appended to `out`: the frame layer
    /// writes it straight after its header.
    pub(crate) fn compress_onto(data: &[u8], level: Level, out: Vec<u8>) -> Vec<u8> {
        let mut emit = StreamEmit::onto(out);
        scan(data, level, &mut emit);
        emit.out
    }

    /// Room to reserve for the stream of `len` input bytes: enough for
    /// anything that compresses to half its size or better.
    pub(crate) fn stream_capacity(len: usize) -> usize {
        len / 2 + 16
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
    /// `MAX_MATCH` and the end of `data` (`a < b`).
    ///
    /// Compares 8 bytes at a time via `u64` XOR + `trailing_zeros`, falling
    /// back to byte-wise for the tail. Returns the index of the first
    /// differing byte — exactly what the byte-wise loop returns — so the
    /// token stream is bit-identical to the scalar kernel's. Public so the
    /// criterion kernel bench can pin its throughput.
    #[inline]
    pub fn match_len(data: &[u8], a: usize, b: usize) -> usize {
        let max = (data.len() - b).min(MAX_MATCH);
        // Both fit: a + max < b + max <= data.len().
        let (earlier, later) = (&data[a..a + max], &data[b..b + max]);
        let mut n = 0;
        for (x, y) in earlier.as_chunks::<8>().0.iter().zip(later.as_chunks::<8>().0) {
            let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
            if diff != 0 {
                return n + (diff.trailing_zeros() / 8) as usize;
            }
            n += 8;
        }
        n + earlier[n..].iter().zip(&later[n..]).take_while(|(x, y)| x == y).count()
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

/// Chain key of the four bytes at `pos`.
#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    // A slice of four always matches; the `else` is never taken.
    let [a, b, c, d] = data[pos..pos + 4] else { return 0 };
    hash_key(u32::from_le_bytes([a, b, c, d]))
}

/// Chain key of four bytes read as a little-endian `u32`.
#[inline]
fn hash_key(v: u32) -> usize {
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

    /// What a thread that has never compressed anything produces.
    fn on_fresh_thread(data: &[u8], level: Level) -> Vec<u8> {
        std::thread::scope(|scope| {
            scope.spawn(|| Lzss::compress(data, level)).join().expect("compressor panicked")
        })
    }

    fn set_base(base: u64) {
        TABLES.with_borrow_mut(|tables| tables.base = base);
    }

    fn base() -> u64 {
        TABLES.with_borrow(|tables| tables.base)
    }

    #[test]
    fn stamps_running_out_refill_the_heads() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let len = data.len() as u64;
        let fresh = on_fresh_thread(&data, Level::Default);
        // Leave this thread's tables full of positions of the same content,
        // then start so close to the end of `u32` that only one more call
        // fits.
        assert_eq!(Lzss::compress(&data, Level::Default), fresh);
        set_base((1 << 32) - len - 10);
        assert_eq!(Lzss::compress(&data, Level::Default), fresh);
        assert_eq!(base(), (1 << 32) - 10, "the call fits: no refill yet");
        assert_eq!(Lzss::compress(&data, Level::Default), fresh);
        assert_eq!(base(), 1 + len, "stamps restart at 1 after the refill");
        assert_eq!(Lzss::compressed_len(&data, Level::Default), fresh.len());
    }

    #[test]
    fn a_call_may_use_the_very_last_stamp() {
        let data = b"abcdabcdabcdabcd-abcdabcdabcdabcd".repeat(30);
        let fresh = on_fresh_thread(&data, Level::Best);
        Lzss::compress(&data, Level::Best);
        set_base((1 << 32) - data.len() as u64);
        assert_eq!(Lzss::compress(&data, Level::Best), fresh);
        assert_eq!(base(), 1 << 32, "every stamp is spent");
        assert_eq!(Lzss::compress(b"", Level::Best), b"");
        assert_eq!(Lzss::compress(&data, Level::Best), fresh);
        assert_eq!(base(), 1 + data.len() as u64);
    }

    /// The match finder as it was before the screen, the early stop and the
    /// word-load insert: every candidate compared in full, a walk stopped
    /// only at [`MAX_MATCH`], covered positions keyed one at a time. The
    /// oracle the kernel's tokens are held to.
    impl Tables {
        fn reference_scan<E: Emit>(&mut self, data: &[u8], level: Level, emit: &mut E) {
            if self.base + data.len() as u64 > 1 << 32 {
                self.head.fill(0);
                self.base = 1;
            }
            let base = self.base as u32;
            self.base += data.len() as u64;
            let (head, prev) = (&mut *self.head, &mut *self.prev);
            let depth = level.chain_depth();
            let keyed = data.len().saturating_sub(MIN_MATCH - 1);
            let mut pos = 0usize;

            while pos < keyed {
                let h = hash4(data, pos);
                let (mut best_len, mut best_off) = (0usize, 0usize);
                let mut candidate = head[h];
                let floor = base + pos.saturating_sub(WINDOW - 1) as u32;
                let mut steps = 0;
                while candidate >= floor && steps < depth {
                    let at = (candidate - base) as usize;
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
                prev[pos % WINDOW] = head[h];
                head[h] = base + pos as u32;

                if best_len >= MIN_MATCH {
                    emit.back_ref(best_off, best_len);
                    let end = pos + best_len;
                    for covered in pos + 1..end.min(keyed) {
                        let h = hash4(data, covered);
                        prev[covered % WINDOW] = head[h];
                        head[h] = base + covered as u32;
                    }
                    pos = end;
                } else {
                    emit.literal(data[pos]);
                    pos += 1;
                }
            }
            for &byte in &data[pos..] {
                emit.literal(byte);
            }
        }
    }

    /// The reference's token stream, from tables no call has used.
    fn reference_stream(data: &[u8], level: Level) -> Vec<u8> {
        let mut emit = StreamEmit::onto(Vec::new());
        Tables::new().reference_scan(data, level, &mut emit);
        emit.out
    }

    mod kernel_matches_reference {
        use super::*;
        use proptest::prelude::*;

        fn any_level() -> impl Strategy<Value = Level> {
            prop_oneof![Just(Level::Fast), Just(Level::Default), Just(Level::Best)]
        }

        /// A four-letter alphabet: short matches everywhere, and most
        /// inputs end inside one.
        fn few_letters() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u8..4, 0..3000)
        }

        /// A short pattern repeated past the 32 KiB window, a few bytes
        /// flipped: long matches, chains that run out of the window, and
        /// matches that reach [`MAX_MATCH`].
        fn past_the_window() -> impl Strategy<Value = Vec<u8>> {
            (
                proptest::collection::vec(0u8..8, 1..300),
                WINDOW + 1..2 * WINDOW + 5000,
                proptest::collection::vec((any::<u64>(), any::<u8>()), 0..64),
            )
                .prop_map(|(pattern, len, flips)| {
                    let mut data: Vec<u8> = pattern.iter().copied().cycle().take(len).collect();
                    for (at, byte) in flips {
                        data[(at % len as u64) as usize] = byte;
                    }
                    data
                })
        }

        /// Runs of one byte, short and long, back to back.
        fn runs() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec((0u8..3, 1usize..600), 1..40).prop_map(|runs| {
                runs.into_iter().flat_map(|(byte, n)| std::iter::repeat_n(byte, n)).collect()
            })
        }

        /// The kernel, on this thread's tables as earlier cases left them,
        /// against the reference on fresh ones: the stream byte for byte and
        /// the count-only length.
        fn holds(data: &[u8], level: Level) -> Result<(), String> {
            let want = reference_stream(data, level);
            prop_assert_eq!(&Lzss::compress(data, level), &want);
            prop_assert_eq!(Lzss::compressed_len(data, level), want.len());
            Ok(())
        }

        proptest! {
            #[test]
            fn on_few_letters(data in few_letters(), level in any_level()) {
                holds(&data, level)?;
            }

            #[test]
            fn past_the_32_kib_window(data in past_the_window(), level in any_level()) {
                holds(&data, level)?;
            }

            #[test]
            fn on_runs(data in runs(), level in any_level()) {
                holds(&data, level)?;
            }

            /// The call starts `slack` stamps before the end of `u32`: the
            /// heads are refilled first whenever the input does not fit.
            #[test]
            fn across_a_stamp_refill(data in few_letters(), level in any_level(), slack in 0u64..4) {
                set_base((1 << 32) - (data.len() as u64).saturating_sub(2) - slack);
                holds(&data, level)?;
            }
        }
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
