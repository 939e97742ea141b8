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

pub use chunker::{chunk_fingerprints, chunk_spans, chunk_spans_all, ChunkerConfig};
pub use fingerprint::{Digest, Fingerprint, ParseDigestError, ParseFingerprintError};
pub use hex::{decode as hex_decode, encode as hex_encode, FromHexError};
pub use md5::Md5;
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

/// Fingerprints every item of `items` across `pool`'s workers, preserving
/// input order. Bit-identical to the serial loop for any worker count —
/// MD5 of one buffer is a pure function, so only the schedule changes.
///
/// This is the corpus-wide fingerprinting primitive behind the converter's
/// Fig. 6 hot path: MD5 throughput scales with cores (the paper notes
/// conversion "can be shorter … using multiple threads", §V-B).
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
    pool.map(items, |item| Fingerprint::of(item.as_ref()))
}
