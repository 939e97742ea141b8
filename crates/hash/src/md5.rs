//! MD5 message digest, implemented from RFC 1321.
//!
//! MD5 is cryptographically broken for adversarial collision resistance, but
//! the Gear paper (§III-B) argues its accidental-collision probability
//! (bounded by the birthday paradox) is far below disk-error rates for
//! registry-scale corpora, and uses it as the Gear-file fingerprint. The
//! collision-detection fallback lives in `gear-core`.

/// K[i] = floor(2^32 * abs(sin(i + 1))) (RFC 1321 §3.4).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Left-rotate amounts (RFC 1321 §3.4): one row per round, each row cycling
/// every four steps.
const S: [[u32; 4]; 4] = [[7, 12, 17, 22], [5, 9, 14, 20], [4, 11, 16, 23], [6, 10, 15, 21]];

const INIT_STATE: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Streaming MD5 hasher.
///
/// ```
/// use gear_hash::Md5;
/// let mut h = Md5::new();
/// h.update(b"abc");
/// assert_eq!(gear_hash::hex_encode(&h.finalize()), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes processed so far (including buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 { state: INIT_STATE, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(std::array::from_mut(&mut self.state), [&block], 1);
                self.buf_len = 0;
            }
        }
        // Aligned full blocks compress straight from the caller's slice —
        // no 64-byte staging copy on the bulk path.
        let blocks = rest.len() / 64;
        compress(std::array::from_mut(&mut self.state), [rest], blocks);
        let tail = &rest[blocks * 64..];
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Pads, finishes, and returns the 16-byte digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 16] {
        let (pad, pad_len) = padding(self.buf_len, self.len);
        self.update(&pad[..pad_len]);
        debug_assert_eq!(self.buf_len, 0);
        digest(&self.state)
    }
}

/// What RFC 1321 §3.1–3.2 appends to a `len`-byte message whose last
/// `buffered` bytes are not yet compressed; the length goes little-endian.
fn padding(buffered: usize, len: u64) -> ([u8; 72], usize) {
    crate::md_padding(buffered, len.wrapping_mul(8).to_le_bytes())
}

fn digest(state: &[u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Compresses the first `blocks` 64-byte blocks of each of `L` independent
/// messages into their states, all `L` in step.
///
/// MD5 is one dependency chain: every step needs the one before, so a
/// single message leaves most of a vector unit idle. Each register and each
/// message word is held word-major, one `[u32; L]` across the lanes, so
/// every step is the same operation over a contiguous array, which LLVM
/// turns into vector instructions on the baseline x86-64 target (SSE2).
/// [`md5_all`] runs it [`LANES`] wide; the streaming [`Md5`] one wide.
///
/// Inlined into its callers: each knows how `blocks` relates to the
/// slices' lengths, which is worth 15 % on 2 KB messages.
#[inline(always)]
fn compress<const L: usize>(states: &mut [[u32; 4]; L], data: [&[u8]; L], blocks: usize) {
    let (mut a, mut b, mut c, mut d) = ([0u32; L], [0u32; L], [0u32; L], [0u32; L]);
    for l in 0..L {
        [a[l], b[l], c[l], d[l]] = states[l];
    }
    for block in 0..blocks {
        let mut m = [[0u32; L]; 16];
        for l in 0..L {
            let bytes = &data[l][block * 64..block * 64 + 64];
            for (word, chunk) in m.iter_mut().zip(bytes.chunks_exact(4)) {
                word[l] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        let (a0, b0, c0, d0) = (a, b, c, d);

        // One step (RFC 1321 §3.4) on every lane: a = b + ((a + f(b, c, d)
        // + m[g] + K[i]) <<< s).
        macro_rules! step {
            ($f:expr, $a:ident $b:ident $c:ident $d:ident, $g:expr, $s:expr, $i:expr) => {
                for l in 0..L {
                    let mixed: u32 = $f($b[l], $c[l], $d[l]);
                    let sum = $a[l].wrapping_add(mixed).wrapping_add(m[$g][l]).wrapping_add(K[$i]);
                    $a[l] = $b[l].wrapping_add(sum.rotate_left($s));
                }
            };
        }
        // Four steps, the registers trading roles instead of values.
        macro_rules! steps {
            ($f:expr, $s:expr, $i:expr, [$g0:expr, $g1:expr, $g2:expr, $g3:expr]) => {
                step!($f, a b c d, $g0, $s[0], $i);
                step!($f, d a b c, $g1, $s[1], $i + 1);
                step!($f, c d a b, $g2, $s[2], $i + 2);
                step!($f, b c d a, $g3, $s[3], $i + 3);
            };
        }
        // F and G as select-by-mask in three operations rather than the
        // four of `(b & c) | (!b & d)`.
        let f = |b: u32, c: u32, d: u32| d ^ (b & (c ^ d));
        let g = |b: u32, c: u32, d: u32| c ^ (d & (b ^ c));
        let h = |b: u32, c: u32, d: u32| b ^ c ^ d;
        let i = |b: u32, c: u32, d: u32| c ^ (b | !d);

        steps!(f, S[0], 0, [0, 1, 2, 3]);
        steps!(f, S[0], 4, [4, 5, 6, 7]);
        steps!(f, S[0], 8, [8, 9, 10, 11]);
        steps!(f, S[0], 12, [12, 13, 14, 15]);

        steps!(g, S[1], 16, [1, 6, 11, 0]);
        steps!(g, S[1], 20, [5, 10, 15, 4]);
        steps!(g, S[1], 24, [9, 14, 3, 8]);
        steps!(g, S[1], 28, [13, 2, 7, 12]);

        steps!(h, S[2], 32, [5, 8, 11, 14]);
        steps!(h, S[2], 36, [1, 4, 7, 10]);
        steps!(h, S[2], 40, [13, 0, 3, 6]);
        steps!(h, S[2], 44, [9, 12, 15, 2]);

        steps!(i, S[3], 48, [0, 7, 14, 5]);
        steps!(i, S[3], 52, [12, 3, 10, 1]);
        steps!(i, S[3], 56, [8, 15, 6, 13]);
        steps!(i, S[3], 60, [4, 11, 2, 9]);

        for l in 0..L {
            a[l] = a[l].wrapping_add(a0[l]);
            b[l] = b[l].wrapping_add(b0[l]);
            c[l] = c[l].wrapping_add(c0[l]);
            d[l] = d[l].wrapping_add(d0[l]);
        }
    }
    for l in 0..L {
        states[l] = [a[l], b[l], c[l], d[l]];
    }
}

/// One message on its way through [`md5_lanes`].
struct Lane<'a> {
    /// The message's index among the items, where its digest goes.
    slot: usize,
    state: [u32; 4],
    message: &'a [u8],
    /// How many bytes of the padded message are compressed.
    done: usize,
}

impl<'a> Lane<'a> {
    fn new(slot: usize, message: &'a [u8]) -> Self {
        Lane { slot, state: INIT_STATE, message, done: 0 }
    }

    /// The blocks due next, contiguous: what is left of the message's
    /// whole blocks, else what is left of its tail — the last partial block
    /// and the padding, one or two blocks, written into `tail`. Empty once
    /// the message is finished.
    fn due<'t>(&'t self, tail: &'t mut [u8; 128]) -> &'t [u8] {
        let whole = self.message.len() / 64 * 64;
        if self.done < whole {
            return &self.message[self.done..whole];
        }
        let rest = &self.message[whole..];
        let (pad, pad_len) = padding(rest.len(), self.message.len() as u64);
        tail[..rest.len()].copy_from_slice(rest);
        tail[rest.len()..rest.len() + pad_len].copy_from_slice(&pad[..pad_len]);
        &tail[self.done - whole..rest.len() + pad_len]
    }

    /// Whether the whole padded message is compressed: RFC 1321 pads to
    /// the first multiple of 64 bytes with room for the 8-byte length.
    fn finished(&self) -> bool {
        self.done >= (self.message.len() + 8) / 64 * 64 + 64
    }
}

/// How many messages [`md5_all`] hashes in step, chosen by measurement
/// (DESIGN §8): over the benchmark corpus's 199 per-image batches the
/// kernel alone takes 40–41 ms at 16 lanes, 59 at 4, 66–68 at 8, 50 at 20
/// and 58–59 at 32, against 88–89 for the two lanes it replaced.
const LANES: usize = 16;

/// MD5 of every item, in item order: what `md5` gives for each, computed
/// [`LANES`] messages at a time.
pub(crate) fn md5_all<T: AsRef<[u8]>>(items: &[T]) -> Vec<[u8; 16]> {
    md5_lanes::<LANES, T>(items)
}

/// MD5 of every item, in item order, computed `L` messages at a time (see
/// [`compress`]): the kernel of [`crate::fingerprint_all`] at a width of
/// the caller's choosing, for comparing widths.
///
/// Items are fed longest first, and a lane whose message ends takes the
/// next one. When the items run out, the lanes still mid-message finish
/// two wide and then one wide, so only the batch's shortest messages run
/// narrow.
///
/// ```
/// let items = [&b"abc"[..], b"", b"message digest"];
/// let want: Vec<[u8; 16]> = items.iter().map(|item| gear_hash::md5(item)).collect();
/// assert_eq!(gear_hash::md5_lanes::<4, _>(&items), want);
/// ```
pub fn md5_lanes<const L: usize, T: AsRef<[u8]>>(items: &[T]) -> Vec<[u8; 16]> {
    const { assert!(L > 0, "a batch needs at least one lane") };
    let mut out = vec![[0u8; 16]; items.len()];
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by_key(|&slot| std::cmp::Reverse(items[slot].as_ref().len()));
    let mut waiting = order.into_iter().map(|slot| Lane::new(slot, items[slot].as_ref()));
    let wide = run::<L>(&mut waiting, &mut out);
    let pair = run::<2>(&mut wide.into_iter().flatten(), &mut out);
    run::<1>(&mut pair.into_iter().flatten(), &mut out);
    out
}

/// Hashes `waiting` `L` messages at a time, each digest into its slot of
/// `out`, until a lane finishes with nothing left to take. Returns the
/// lanes still mid-message.
///
/// A lane's padded tail is written into `tails` only when it is due, so a
/// `Lane` is a few words: taking the next item and handing survivors to
/// the next, narrower run move no block-sized buffers.
fn run<'a, const L: usize>(
    waiting: &mut impl Iterator<Item = Lane<'a>>,
    out: &mut [[u8; 16]],
) -> [Option<Lane<'a>>; L] {
    let mut lanes: [Option<Lane<'a>>; L] = std::array::from_fn(|_| waiting.next());
    let mut tails = [[0u8; 128]; L];
    loop {
        let mut states = [[0u32; 4]; L];
        let mut due: [&[u8]; L] = [&[]; L];
        for (l, tail) in tails.iter_mut().enumerate() {
            let Some(lane) = &lanes[l] else { return lanes };
            states[l] = lane.state;
            due[l] = lane.due(tail);
        }
        let blocks = due.iter().map(|d| d.len()).min().unwrap_or(0) / 64;
        debug_assert!(blocks > 0, "a lane in flight has a block due");
        compress(&mut states, due, blocks);
        for (slot, state) in lanes.iter_mut().zip(states) {
            let Some(lane) = slot else { continue };
            lane.state = state;
            lane.done += blocks * 64;
            if lane.finished() {
                out[lane.slot] = digest(&lane.state);
                *slot = waiting.next();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_encode, Fingerprint};
    use proptest::prelude::*;

    fn md5_hex(data: &[u8]) -> String {
        let mut h = Md5::new();
        h.update(data);
        hex_encode(&h.finalize())
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5_hex(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(md5_hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(md5_hex(b"message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
        assert_eq!(
            md5_hex(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            md5_hex(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            md5_hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// RFC 1321 as its reference code has it — the 64 steps as one rolled
    /// loop over per-step shift and message-index tables, the padding
    /// appended to a copy of the message — for the unrolled lanes to be
    /// held to.
    fn reference(message: &[u8]) -> [u8; 16] {
        const S: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = INIT_STATE;
        for block in padded.chunks_exact(64) {
            let m: Vec<u32> = block
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                .collect();
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]);
                (a, d, c) = (d, c, b);
                b = b.wrapping_add(sum.rotate_left(S[i / 16 * 4 + i % 4]));
            }
            for (word, add) in state.iter_mut().zip([a, b, c, d]) {
                *word = word.wrapping_add(add);
            }
        }
        digest(&state)
    }

    fn message(len: usize, seed: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + seed * 7 + (i >> 8)) as u8).collect()
    }

    #[test]
    fn reference_passes_the_rfc_vectors() {
        assert_eq!(hex_encode(&reference(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex_encode(&reference(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex_encode(&reference(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// Every message length across the first two block boundaries and both
    /// padding boundaries (55/56, 119/120): one lane, and two lanes with
    /// every other length beside it, give what the reference gives.
    #[test]
    fn one_and_two_lanes_match_the_reference_at_every_length() {
        let messages: Vec<Vec<u8>> = (0..=130).map(|len| message(len, len)).collect();
        let want: Vec<[u8; 16]> = messages.iter().map(|m| reference(m)).collect();
        for (m, want) in messages.iter().zip(&want) {
            let mut h = Md5::new();
            h.update(m);
            assert_eq!(h.finalize(), *want, "one lane, length {}", m.len());
        }
        // 131 messages: an odd batch, lengths ascending in both lanes.
        assert_eq!(md5_all(&messages), want);
        for (i, a) in messages.iter().enumerate() {
            for (j, b) in messages.iter().enumerate() {
                assert_eq!(md5_all(&[a, b]), [want[i], want[j]], "lengths {i} beside {j}");
            }
        }
    }

    #[test]
    fn two_lanes_pass_the_rfc_vectors() {
        let vectors: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        let messages: Vec<&[u8]> = vectors.iter().map(|(m, _)| *m).collect();
        let got: Vec<String> = md5_all(&messages).iter().map(|d| hex_encode(d)).collect();
        let want: Vec<&str> = vectors.iter().map(|(_, hex)| *hex).collect();
        assert_eq!(got, want);
    }

    /// A lane whose message ends takes the next item while the other lanes
    /// are mid-message, so digests must land in item order however uneven
    /// the lengths.
    #[test]
    fn uneven_neighbours_and_odd_or_empty_batches() {
        let (tiny, huge) = (message(1, 1), message(1 << 20, 2));
        let (t, h) = (reference(&tiny), reference(&huge));
        assert_eq!(md5_all(&[&tiny, &huge]), [t, h]);
        assert_eq!(md5_all(&[&huge, &tiny]), [h, t]);
        assert_eq!(md5_all(&[&tiny, &huge, &tiny, &tiny, &tiny]), [t, h, t, t, t]);
        assert_eq!(md5_all(&[&huge, &tiny, &tiny, &huge, &tiny]), [h, t, t, h, t]);
        assert_eq!(md5_all(&[&huge]), [h]);
        assert_eq!(md5_all::<&[u8]>(&[]), Vec::<[u8; 16]>::new());
        let empty = reference(b"");
        assert_eq!(md5_all(&[b"", b"", b""]), [empty; 3]);

        // One huge body among more tiny ones than there are lanes, first
        // and last: it holds one lane while the others cycle through the
        // rest, and finishes in the narrow tail.
        let mut batch = vec![&tiny; 2 * LANES + 3];
        let mut want = vec![t; batch.len()];
        batch[0] = &huge;
        want[0] = h;
        assert_eq!(md5_all(&batch), want);
        batch.rotate_left(1);
        want.rotate_left(1);
        assert_eq!(md5_all(&batch), want);
        assert_eq!(md5_all(&vec![b""; 2 * LANES + 3]), vec![empty; 2 * LANES + 3]);
    }

    /// Equal lengths tie in the longest-first order; every digest still
    /// lands in its own item's slot.
    #[test]
    fn equal_lengths_keep_their_slots() {
        for len in [0, 55, 64, 1000] {
            let messages: Vec<Vec<u8>> = (0..LANES * 3 + 1).map(|i| message(len, i)).collect();
            let want: Vec<[u8; 16]> = messages.iter().map(|m| reference(m)).collect();
            assert_eq!(md5_all(&messages), want, "length {len}");
        }
    }

    /// Every length across the block and padding boundaries, hashed in a
    /// full-width batch beside `LANES - 1` others whose lengths run through
    /// every phase relative to it, at every position in the batch.
    #[test]
    fn every_length_beside_a_full_batch_of_every_phase() {
        let messages: Vec<Vec<u8>> = (0..=130).map(|len| message(len, len)).collect();
        let want: Vec<[u8; 16]> = messages.iter().map(|m| reference(m)).collect();
        for len in 0..messages.len() {
            for phase in 0..messages.len() {
                let mut lens: Vec<usize> =
                    (0..LANES).map(|j| (phase + 9 * j) % messages.len()).collect();
                lens[phase % LANES] = len;
                let batch: Vec<&Vec<u8>> = lens.iter().map(|&l| &messages[l]).collect();
                let expect: Vec<[u8; 16]> = lens.iter().map(|&l| want[l]).collect();
                assert_eq!(md5_all(&batch), expect, "length {len}, phase {phase}");
            }
        }
    }

    /// Batches that run only the narrow tail (fewer items than lanes), fill
    /// the lanes exactly, or refill once, at every width.
    #[test]
    fn batches_around_the_lane_count() {
        fn check<const L: usize>() {
            for count in [0, 1, L.saturating_sub(1), L, L + 1, 2 * L + 1] {
                let messages: Vec<Vec<u8>> = (0..count).map(|i| message(i * 53 % 300, i)).collect();
                let want: Vec<[u8; 16]> = messages.iter().map(|m| reference(m)).collect();
                assert_eq!(md5_lanes::<L, _>(&messages), want, "{L} lanes, {count} items");
            }
        }
        check::<1>();
        check::<2>();
        check::<4>();
        check::<8>();
        check::<LANES>();
    }

    proptest! {
        /// Random batches of uneven bodies, now and then a 64 KiB one among
        /// them, fingerprint to what each item does alone, in item order.
        #[test]
        fn random_batches_match_item_by_item(
            items in proptest::collection::vec((0usize..=4096, 0u8..32, any::<u8>()), 0..41),
        ) {
            let bodies: Vec<Vec<u8>> = items
                .iter()
                .map(|&(len, big, seed)| message(if big == 0 { 64 << 10 } else { len }, seed.into()))
                .collect();
            let want: Vec<[u8; 16]> =
                bodies.iter().map(|b| *Fingerprint::of(b).as_bytes()).collect();
            prop_assert_eq!(md5_all(&bodies), want);
        }
    }

    /// Streaming in arbitrary chunk sizes must equal one-shot hashing.
    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = md5_hex(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 128, 1000] {
            let mut h = Md5::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(hex_encode(&h.finalize()), oneshot, "chunk size {chunk}");
        }
    }

    /// Messages whose padded length straddles the block boundary.
    #[test]
    fn boundary_lengths() {
        // Known values computed with the reference implementation.
        let m55 = vec![b'x'; 55];
        let m56 = vec![b'x'; 56];
        let m64 = vec![b'x'; 64];
        assert_ne!(md5_hex(&m55), md5_hex(&m56));
        assert_ne!(md5_hex(&m56), md5_hex(&m64));
        // Self-consistency across the boundary.
        for n in 50..70 {
            let m = vec![0u8; n];
            let mut h = Md5::new();
            h.update(&m[..n / 2]);
            h.update(&m[n / 2..]);
            let mut h2 = Md5::new();
            h2.update(&m);
            assert_eq!(h.finalize(), h2.finalize());
        }
    }
}
