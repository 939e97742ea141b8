//! SHA-256, implemented from FIPS 180-4.
//!
//! Docker identifies layers and manifests by the SHA-256 of their content
//! ("digests"); the Gear index is stored as a single-layer Docker image and is
//! therefore also addressed by SHA-256.

/// First 32 bits of the fractional parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// First 32 bits of the fractional parts of the square roots of the first 8 primes.
const INIT_STATE: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use gear_hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     gear_hash::hex_encode(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 { state: INIT_STATE, len: 0, buf: [0u8; 64], buf_len: 0 }
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
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        // Aligned full blocks compress straight from the caller's slice —
        // no 64-byte staging copy on the bulk path.
        let whole = rest.len() - rest.len() % 64;
        compress(&mut self.state, &rest[..whole]);
        let tail = &rest[whole..];
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Pads, finishes, and returns the 32-byte digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 32] {
        // SHA-256 appends the length big-endian, unlike MD5.
        let (pad, pad_len) =
            crate::md_padding(self.buf_len, self.len.wrapping_mul(8).to_be_bytes());
        self.update(&pad[..pad_len]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `data`, a whole number of 64-byte blocks, into `state`.
///
/// The 64 rounds (FIPS 180-4 §6.2.2) are written out: the eight working
/// variables trade roles from round to round instead of values, so nothing
/// moves between them, and the message schedule is the 16 words a round can
/// still reach, each overwritten as the round that needs its successor comes
/// up, instead of 64 filled in ahead.
fn compress(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let (a0, b0, c0, d0, e0, f0, g0, h0) = (a, b, c, d, e, f, g, h);

        // One round. Ch and Maj in their three- and four-operation forms:
        // `g ^ (e & (f ^ g))` picks f where e is set and g elsewhere,
        // `(a & b) | (c & (a | b))` is the majority of the three.
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add($g ^ ($e & ($f ^ $g)))
                    .wrapping_add(K[$i])
                    .wrapping_add(w[$i & 15]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0).wrapping_add(($a & $b) | ($c & ($a | $b)));
            };
        }
        // W[i] for i >= 16, over W[i - 16], the word it replaces.
        macro_rules! schedule {
            ($i:expr) => {
                let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
                w[$i & 15] = w[$i & 15]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            };
        }
        // Eight rounds bring every variable back to its own place.
        macro_rules! rounds {
            ($step:ident, $i:expr) => {
                $step!(a b c d e f g h, $i);
                $step!(h a b c d e f g, $i + 1);
                $step!(g h a b c d e f, $i + 2);
                $step!(f g h a b c d e, $i + 3);
                $step!(e f g h a b c d, $i + 4);
                $step!(d e f g h a b c, $i + 5);
                $step!(c d e f g h a b, $i + 6);
                $step!(b c d e f g h a, $i + 7);
            };
        }
        macro_rules! scheduled_round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {
                schedule!($i);
                round!($a $b $c $d $e $f $g $h, $i);
            };
        }
        rounds!(round, 0);
        rounds!(round, 8);
        rounds!(scheduled_round, 16);
        rounds!(scheduled_round, 24);
        rounds!(scheduled_round, 32);
        rounds!(scheduled_round, 40);
        rounds!(scheduled_round, 48);
        rounds!(scheduled_round, 56);

        a = a.wrapping_add(a0);
        b = b.wrapping_add(b0);
        c = c.wrapping_add(c0);
        d = d.wrapping_add(d0);
        e = e.wrapping_add(e0);
        f = f.wrapping_add(f0);
        g = g.wrapping_add(g0);
        h = h.wrapping_add(h0);
    }
    *state = [a, b, c, d, e, f, g, h];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    fn sha_hex(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        hex_encode(&h.finalize())
    }

    /// FIPS 180-4 / NIST CAVS short-message vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            sha_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            sha_hex(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// The classic million-'a' vector, exercised via streaming updates.
    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex_encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha_hex(&data);
        for chunk in [1usize, 13, 63, 64, 65, 511] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(hex_encode(&h.finalize()), oneshot, "chunk size {chunk}");
        }
    }
}
