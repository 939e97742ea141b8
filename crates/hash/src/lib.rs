//! Cryptographic digests and content identifiers for the Gear image format.
//!
//! The Gear paper identifies regular files by their **MD5 fingerprint** and
//! Docker layers by their **SHA-256 digest**. This crate provides both hash
//! functions (implemented from RFC 1321 and FIPS 180-4 respectively — no
//! external crypto dependency), streaming hasher types, and strongly typed
//! identifiers:
//!
//! * [`Fingerprint`] — a 128-bit MD5 content fingerprint naming a Gear file.
//! * [`Digest`] — a 256-bit SHA-256 digest naming an image layer or manifest.
//!
//! # Examples
//!
//! ```
//! use gear_hash::{Fingerprint, Digest};
//!
//! let fp = Fingerprint::of(b"hello gear");
//! assert_eq!(fp.to_string().len(), 32);
//!
//! let digest = Digest::of(b"layer bytes");
//! assert_eq!(digest.to_string(), digest.to_string());
//! assert_ne!(Digest::of(b"a"), Digest::of(b"b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunker;
mod fingerprint;
mod hex;
mod md5;
mod sha256;

pub use chunker::{chunk_fingerprints, chunk_spans, ChunkerConfig};
pub use fingerprint::{Digest, Fingerprint, ParseDigestError, ParseFingerprintError};
pub use hex::{decode as hex_decode, encode as hex_encode, FromHexError};
pub use md5::{md5_lanes, Md5};
pub use sha256::Sha256;

/// Convenience one-shot MD5 over a byte slice.
///
/// ```
/// let d = gear_hash::md5(b"");
/// assert_eq!(gear_hash::hex_encode(&d), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Convenience one-shot SHA-256 over a byte slice.
///
/// ```
/// let d = gear_hash::sha256(b"");
/// assert_eq!(
///     gear_hash::hex_encode(&d),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The padding MD5 and SHA-256 share: `0x80`, zeros up to 56 mod 64, then
/// the message's bit length in the byte order the caller chose — 9 to 72
/// bytes that bring a message with `buffered` (under 64) bytes outstanding
/// to a whole number of 64-byte blocks, written once rather than absorbed
/// byte by byte.
fn md_padding(buffered: usize, bit_length: [u8; 8]) -> ([u8; 72], usize) {
    let mut pad = [0u8; 72];
    pad[0] = 0x80;
    let zeros = 55usize.wrapping_sub(buffered) % 64;
    pad[1 + zeros..9 + zeros].copy_from_slice(&bit_length);
    (pad, 9 + zeros)
}

/// Batches of fewer bytes than this are fingerprinted on the calling thread
/// whatever the pool's width: handing work to scoped threads costs a fixed
/// ~0.13 ms when the other core has gone idle, as it has between the images
/// of a conversion run, and buys nothing when the core is busy elsewhere.
/// Measured on the 2-core runner over the benchmark corpus (199 images,
/// mean 362 KiB of file bodies, k consecutive images a batch, a conversion
/// between any two timed calls), inline against two workers, best of 8, in
/// three runs with the second core free: 362 KiB 0.23 / 0.24–0.25 ms
/// (0.91–0.95×), 720 KiB 0.41–0.43 / 0.36 ms (1.13–1.19×), 1.05 MiB
/// 0.60–0.69 / 0.47–0.59 ms (1.18–1.33×), 2.1 MiB 1.21–1.29 / 0.77–0.85 ms
/// (1.44–1.58×), 5.0 MiB 2.93–3.05 / 1.68–1.79 ms (1.70–1.78×). In runs
/// minutes later with that core taken, two workers lost up to 2.1 MiB
/// (0.86–0.97×) and tied at 5.0 MiB. Hashing twice as fast as the two-lane
/// kernel this was first measured with moved the free-core crossover from
/// ~720 KiB to between 362 and 720 KiB; 1 MiB stays the limit, where two
/// workers gain 1.2–1.3× on a free core and lose at most 7 % on a busy one.
const INLINE_BELOW_BYTES: usize = 1 << 20;

/// Fingerprints every item of `items` across `pool`'s workers, preserving
/// input order. Bit-identical to the serial loop for any worker count —
/// MD5 of one buffer is a pure function, so only the schedule changes.
///
/// This is the corpus-wide fingerprinting primitive behind the converter's
/// Fig. 6 hot path: MD5 throughput scales with cores (the paper notes
/// conversion "can be shorter … using multiple threads", §V-B). Each worker
/// — the caller alone, for a batch under 1 MiB — takes a contiguous share
/// of the items and hashes it sixteen messages at a time, longest first
/// ([`md5_lanes`]), which on one core is ~3.7× the rate of
/// [`Fingerprint::of`] item by item.
///
/// ```
/// use gear_par::Pool;
/// let bodies: Vec<Vec<u8>> = (0u8..100).map(|i| vec![i; 64]).collect();
/// let par = gear_hash::fingerprint_all(&bodies, &Pool::new(4));
/// let serial = gear_hash::fingerprint_all(&bodies, &Pool::serial());
/// assert_eq!(par, serial);
/// assert_eq!(par[3], gear_hash::Fingerprint::of(&bodies[3]));
/// ```
pub fn fingerprint_all<T: AsRef<[u8]> + Sync>(
    items: &[T],
    pool: &gear_par::Pool,
) -> Vec<Fingerprint> {
    let of_all = |items: &[T]| md5::md5_all(items).into_iter().map(Fingerprint::from_bytes);
    let bytes = || items.iter().map(|item| item.as_ref().len()).sum::<usize>();
    if pool.workers() == 1 || bytes() < INLINE_BELOW_BYTES {
        return of_all(items).collect();
    }
    let shares: Vec<&[T]> = items.chunks(items.len().div_ceil(pool.workers())).collect();
    pool.map_heavy(&shares, |share| of_all(share).collect::<Vec<_>>()).concat()
}
