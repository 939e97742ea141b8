//! Property-based tests for the hash substrate.

use gear_hash::{fingerprint_all, hex_decode, hex_encode, Digest, Fingerprint, Md5, Sha256};
use gear_par::Pool;
use proptest::prelude::*;

/// A batch large enough (2 MiB) that `fingerprint_all` leaves the calling
/// thread: every worker count, dividing the 67 items evenly or not, gives
/// the item-by-item fingerprints in item order.
#[test]
fn fingerprint_all_across_workers_matches_item_by_item() {
    let items: Vec<Vec<u8>> =
        (0..67usize).map(|i| (0..i * 977).map(|j| (i * 131 + j) as u8).collect()).collect();
    assert!(items.iter().map(Vec::len).sum::<usize>() > 2 << 20);
    let want: Vec<Fingerprint> = items.iter().map(|item| Fingerprint::of(item)).collect();
    for workers in [1, 2, 3, 8, 67, 100] {
        assert_eq!(fingerprint_all(&items, &Pool::new(workers)), want, "workers={workers}");
    }
}

proptest! {
    /// Hex encode/decode is a bijection on byte vectors.
    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let enc = hex_encode(&data);
        prop_assert_eq!(hex_decode(&enc).unwrap(), data);
    }

    /// Splitting the input at any point must not change the MD5 digest.
    #[test]
    fn md5_split_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048), split in any::<prop::sample::Index>()) {
        let at = split.index(data.len() + 1);
        let mut a = Md5::new();
        a.update(&data);
        let mut b = Md5::new();
        b.update(&data[..at]);
        b.update(&data[at..]);
        prop_assert_eq!(a.finalize(), b.finalize());
    }

    /// A batch fingerprints to what its items fingerprint to one by one,
    /// whatever lengths meet in the lanes.
    #[test]
    fn fingerprint_all_matches_item_by_item(
        items in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..400), 0..12),
    ) {
        let want: Vec<Fingerprint> = items.iter().map(|item| Fingerprint::of(item)).collect();
        prop_assert_eq!(&fingerprint_all(&items, &Pool::serial()), &want);
        prop_assert_eq!(&fingerprint_all(&items, &Pool::new(3)), &want);
    }

    /// Splitting the input at any point must not change the SHA-256 digest.
    #[test]
    fn sha256_split_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048), split in any::<prop::sample::Index>()) {
        let at = split.index(data.len() + 1);
        let mut a = Sha256::new();
        a.update(&data);
        let mut b = Sha256::new();
        b.update(&data[..at]);
        b.update(&data[at..]);
        prop_assert_eq!(a.finalize(), b.finalize());
    }

    /// Fingerprints are deterministic and parse back from their display form.
    #[test]
    fn fingerprint_display_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let fp = Fingerprint::of(&data);
        prop_assert_eq!(fp, Fingerprint::of(&data));
        let parsed: Fingerprint = fp.to_string().parse().unwrap();
        prop_assert_eq!(parsed, fp);
    }

    /// Digests parse back from their display form.
    #[test]
    fn digest_display_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let d = Digest::of(&data);
        let parsed: Digest = d.to_string().parse().unwrap();
        prop_assert_eq!(parsed, d);
    }

    /// One-byte perturbations change the fingerprint (no trivial collisions).
    #[test]
    fn fingerprint_sensitive_to_flips(mut data in proptest::collection::vec(any::<u8>(), 1..256), idx in any::<prop::sample::Index>()) {
        let original = Fingerprint::of(&data);
        let i = idx.index(data.len());
        data[i] ^= 0x01;
        prop_assert_ne!(Fingerprint::of(&data), original);
    }
}
