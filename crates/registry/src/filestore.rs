//! The Gear Registry file store: a content-addressed pool of Gear files.
//!
//! Mirrors the paper's MinIO-backed file server (§IV) exposing three HTTP
//! verbs — `query`, `upload`, `download` — keyed by MD5 fingerprint.
//! Identical files collapse to one stored object regardless of how many
//! images contain them, which is the registry half of Gear's file-level
//! sharing.
//!
//! Residency, iteration, and integrity scanning are delegated to an
//! unbounded [`gear_store::MemStore`] — the same blob store the client
//! cache and the P2P nodes run on — so verification and accounting logic
//! live in exactly one place. This façade adds what is registry-specific:
//! fingerprint validation on upload, optional per-file compression with
//! compressed wire-size accounting, dedup counting, and `registry.*`
//! telemetry.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use gear_compress::{compressed_size_with, Level};
use gear_hash::{fingerprint_all, Fingerprint};
use gear_par::Pool;
use gear_store::MemStore;
use gear_telemetry::Telemetry;

pub use gear_store::StoreStats;

/// A Gear file: a body and the id it is stored and fetched under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GearFile {
    /// The body's fingerprint, or its salted id after a collision.
    pub fingerprint: Fingerprint,
    /// The file content.
    pub content: Bytes,
    /// The salt of a salted id — `fingerprint` is
    /// [`Fingerprint::of_salted`]`(content, salt)` — given to a body whose
    /// plain fingerprint another body already held. `None` for every file
    /// that did not collide.
    pub salt: Option<u64>,
}

/// A Gear file's bytes are its content, so a batch of files hashes as it is
/// ([`fingerprint_all`]).
impl AsRef<[u8]> for GearFile {
    fn as_ref(&self) -> &[u8] {
        &self.content
    }
}

/// Outcome of an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadOutcome {
    /// Whether the object was new (false = deduplicated).
    pub stored: bool,
    /// Bytes this object occupies in the store (0 when deduplicated).
    pub stored_bytes: u64,
}

/// Error returned by [`GearFileStore::upload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadError {
    /// The content's MD5 does not match the claimed fingerprint.
    FingerprintMismatch {
        /// Fingerprint the client claimed.
        claimed: Fingerprint,
        /// Fingerprint actually computed from the content.
        actual: Fingerprint,
    },
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::FingerprintMismatch { claimed, actual } => {
                write!(f, "fingerprint mismatch: claimed {claimed}, content hashes to {actual}")
            }
        }
    }
}

impl Error for UploadError {}

/// Checks every file's id against its content — one [`fingerprint_all`]
/// batch over all the bodies, then the salted ones hashed again with their
/// salt.
fn check(files: &[GearFile]) -> Result<(), UploadError> {
    for (file, plain) in files.iter().zip(fingerprint_all(files, &Pool::serial())) {
        let actual = match file.salt {
            Some(salt) => Fingerprint::of_salted(&file.content, salt),
            None => plain,
        };
        if actual != file.fingerprint {
            return Err(UploadError::FingerprintMismatch { claimed: file.fingerprint, actual });
        }
    }
    Ok(())
}

/// A content-addressed Gear-file pool.
#[derive(Debug, Default)]
pub struct GearFileStore {
    /// Raw (uncompressed) object bodies, unbounded: the registry never
    /// evicts — space reclamation is explicit via
    /// [`GearFileStore::retain_only`].
    store: MemStore,
    /// Per-object size as kept on disk and sent on the wire (compressed if
    /// compression is enabled).
    wire: HashMap<Fingerprint, u64>,
    /// The salt of each object stored under a salted id, so that an
    /// integrity scan checks it the way the id was made.
    salts: HashMap<Fingerprint, u64>,
    /// Whether objects are sized as compressed at [`Level::Default`].
    compressed: bool,
    dedup_hits: u64,
    /// Running compressed total, maintained on upload and GC so
    /// [`GearFileStore::stats`] is O(1) instead of a full-store sweep.
    stored_bytes: u64,
    telemetry: Telemetry,
}

impl GearFileStore {
    /// Creates a store that keeps files uncompressed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store that compresses each file at the default level —
    /// "Gear files can be further compressed for higher space efficiency"
    /// (paper §III-C).
    pub fn with_compression() -> Self {
        GearFileStore { compressed: true, ..Self::default() }
    }

    /// Attaches a telemetry recorder: each verb feeds `registry.*` counters
    /// and uploaded object sizes feed the `registry.object_bytes` sketch.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// `query` verb: whether a Gear file with this fingerprint exists.
    pub fn query(&self, fingerprint: Fingerprint) -> bool {
        self.telemetry.count("registry.queries", 1);
        self.store.contains(fingerprint)
    }

    /// `upload` verb: stores `content` under `fingerprint`, deduplicating —
    /// [`GearFileStore::upload_all`] of one unsalted file.
    ///
    /// # Errors
    ///
    /// [`UploadError::FingerprintMismatch`] when `content` does not hash to
    /// `fingerprint` — the store never trusts the client's naming.
    pub fn upload(
        &mut self,
        fingerprint: Fingerprint,
        content: Bytes,
    ) -> Result<UploadOutcome, UploadError> {
        let file = GearFile { fingerprint, content, salt: None };
        check(std::slice::from_ref(&file))?;
        Ok(self.admit(file))
    }

    /// [`GearFileStore::upload`] of every file in order, with the ids all
    /// checked first, in one [`fingerprint_all`] batch over the bodies. A
    /// salted id is checked the way it was made. Nothing is stored unless
    /// every id holds.
    ///
    /// # Errors
    ///
    /// [`UploadError::FingerprintMismatch`] for the first file whose id its
    /// content does not make; the store is left as it was.
    pub fn upload_all(&mut self, files: &[GearFile]) -> Result<Vec<UploadOutcome>, UploadError> {
        check(files)?;
        Ok(files.iter().map(|file| self.admit(file.clone())).collect())
    }

    /// Stores a file whose id has been checked, deduplicating.
    fn admit(&mut self, file: GearFile) -> UploadOutcome {
        let GearFile { fingerprint, content, salt } = file;
        self.telemetry.count("registry.uploads", 1);
        if self.store.contains(fingerprint) {
            self.dedup_hits += 1;
            self.telemetry.count("registry.dedup_hits", 1);
            return UploadOutcome { stored: false, stored_bytes: 0 };
        }
        // Count-only sizing: the registry keeps raw bodies and only accounts
        // the compressed wire size, so no token stream is ever materialized.
        let stored_len = if self.compressed {
            compressed_size_with(&content, Level::Default, &Pool::serial()) as u64
        } else {
            content.len() as u64
        };
        self.stored_bytes += stored_len;
        if self.telemetry.enabled() {
            self.telemetry.count("registry.upload_bytes", content.len() as u64);
            self.telemetry.sketch("registry.object_bytes", content.len() as u64);
            self.telemetry.instant("registry", "store");
        }
        if let Some(salt) = salt {
            self.salts.insert(fingerprint, salt);
        }
        self.wire.insert(fingerprint, stored_len);
        self.store.insert(fingerprint, content);
        UploadOutcome { stored: true, stored_bytes: stored_len }
    }

    /// `download` verb: retrieves the content for `fingerprint`. A pure
    /// read ([`MemStore::peek`]): server-side downloads never perturb the
    /// store's recency state.
    pub fn download(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        let found = self.store.peek(fingerprint);
        if self.telemetry.enabled() {
            self.telemetry.count("registry.downloads", 1);
            if let Some(body) = &found {
                self.telemetry.count("registry.download_bytes", body.len() as u64);
                self.telemetry.sketch("registry.served_bytes", body.len() as u64);
            }
        }
        found
    }

    /// `download_chunk` verb: identical lookup to [`GearFileStore::download`]
    /// (chunks are first-class content-addressed blobs), but accounted under
    /// `registry.chunk_*` so chunk-granularity traffic is separable from
    /// whole-file traffic in experiments.
    pub fn download_chunk(&self, fingerprint: Fingerprint) -> Option<Bytes> {
        let found = self.store.peek(fingerprint);
        if self.telemetry.enabled() {
            self.telemetry.count("registry.chunk_downloads", 1);
            if let Some(body) = &found {
                self.telemetry.count("registry.chunk_bytes", body.len() as u64);
                self.telemetry.sketch("registry.served_bytes", body.len() as u64);
            }
        }
        found
    }

    /// Bytes that cross the wire when downloading `fingerprint` (compressed
    /// size if compression is on).
    pub fn transfer_size(&self, fingerprint: Fingerprint) -> Option<u64> {
        self.wire.get(&fingerprint).copied()
    }

    /// Number of unique objects.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }

    /// Storage accounting. O(1): the compressed total is maintained
    /// incrementally by [`GearFileStore::upload`] and
    /// [`GearFileStore::retain_only`]; the rest comes from the blob store.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            stored_bytes: self.stored_bytes,
            dedup_hits: self.dedup_hits,
            ..self.store.stats()
        }
    }

    /// The salt `fingerprint` was made with, when it is a salted id — what
    /// a persistence layer keeps beside the body to upload it again.
    pub fn salt(&self, fingerprint: Fingerprint) -> Option<u64> {
        self.salts.get(&fingerprint).copied()
    }

    /// Iterates over stored files as `(fingerprint, content)` (for
    /// persistence layers).
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, &Bytes)> {
        self.store.iter()
    }

    /// Integrity scan: re-hashes every object and returns the fingerprints
    /// whose content no longer matches (empty = clean store), sorted.
    ///
    /// Objects are verified against the *raw* stored body — the store keeps
    /// content uncompressed and only accounts compressed wire sizes, so a
    /// scan never decompresses anything, and re-hashing is the entire cost.
    /// An object under a salted id is checked with its salt.
    pub fn verify(&self) -> Vec<Fingerprint> {
        self.unflag_salted(self.store.verify())
    }

    /// [`GearFileStore::verify`] fanned out across `pool`. Output is sorted,
    /// so it is identical for any worker count (and to the serial scan).
    pub fn verify_with(&self, pool: &gear_par::Pool) -> Vec<Fingerprint> {
        self.unflag_salted(self.store.verify_with(pool))
    }

    /// `flagged` — the ids whose body does not hash to them — less those a
    /// salted body makes with its salt.
    fn unflag_salted(&self, mut flagged: Vec<Fingerprint>) -> Vec<Fingerprint> {
        flagged.retain(|fp| match (self.salts.get(fp), self.store.peek(*fp)) {
            (Some(&salt), Some(body)) => Fingerprint::of_salted(&body, salt) != *fp,
            _ => true,
        });
        flagged
    }

    /// Removes objects not in `live`, returning bytes freed. Models cache
    /// replacement / garbage collection on the registry side. Running totals
    /// are kept in step, so [`GearFileStore::stats`] stays exact after GC.
    pub fn retain_only(&mut self, live: &std::collections::HashSet<Fingerprint>) -> u64 {
        let dead: Vec<Fingerprint> =
            self.iter().map(|(fp, _)| fp).filter(|fp| !live.contains(fp)).collect();
        let mut freed = 0;
        for fp in dead {
            self.store.remove(fp);
            self.salts.remove(&fp);
            freed += self.wire.remove(&fp).unwrap_or(0);
        }
        self.stored_bytes -= freed;
        freed
    }

    /// Test hook: overwrites the stored body of `fingerprint` without
    /// touching its key, simulating on-disk corruption for integrity tests.
    #[cfg(test)]
    fn corrupt_for_test(&mut self, fingerprint: Fingerprint, bad: Bytes) {
        self.store.corrupt_for_test(fingerprint, bad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_query_download() {
        let mut store = GearFileStore::new();
        let body = Bytes::from_static(b"libssl.so contents");
        let fp = Fingerprint::of(&body);
        assert!(!store.query(fp));
        let out = store.upload(fp, body.clone()).unwrap();
        assert!(out.stored);
        assert_eq!(out.stored_bytes, body.len() as u64);
        assert!(store.query(fp));
        assert_eq!(store.download(fp).unwrap(), body);
    }

    #[test]
    fn duplicate_upload_dedups() {
        let mut store = GearFileStore::new();
        let body = Bytes::from_static(b"same bytes");
        let fp = Fingerprint::of(&body);
        store.upload(fp, body.clone()).unwrap();
        let second = store.upload(fp, body).unwrap();
        assert!(!second.stored);
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.stats().dedup_hits, 1);
    }

    #[test]
    fn rejects_mismatched_fingerprint() {
        let mut store = GearFileStore::new();
        let err = store
            .upload(Fingerprint::of(b"claimed"), Bytes::from_static(b"different"))
            .unwrap_err();
        assert!(matches!(err, UploadError::FingerprintMismatch { .. }));
        assert_eq!(store.object_count(), 0);
    }

    #[test]
    fn chunk_downloads_serve_the_same_objects() {
        let mut store = GearFileStore::new();
        let body = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let fp = Fingerprint::of(&body);
        store.upload(fp, body.clone()).unwrap();
        assert_eq!(store.download_chunk(fp).unwrap(), body);
        assert!(store.download_chunk(Fingerprint::of(b"ghost")).is_none());
    }

    #[test]
    fn compression_reduces_stored_bytes() {
        let mut plain = GearFileStore::new();
        let mut packed = GearFileStore::with_compression();
        let body = Bytes::from(b"configuration = value\n".repeat(200));
        let fp = Fingerprint::of(&body);
        plain.upload(fp, body.clone()).unwrap();
        packed.upload(fp, body.clone()).unwrap();
        assert!(packed.stats().stored_bytes < plain.stats().stored_bytes);
        // Transfer size follows stored size; download returns raw content.
        assert!(packed.transfer_size(fp).unwrap() < body.len() as u64);
        assert_eq!(packed.download(fp).unwrap(), body);
    }

    #[test]
    fn downloads_never_touch_lookup_counters() {
        let mut store = GearFileStore::new();
        let body = Bytes::from_static(b"served object");
        let fp = Fingerprint::of(&body);
        store.upload(fp, body).unwrap();
        store.download(fp);
        store.download(Fingerprint::of(b"missing"));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "downloads are pure reads");
    }

    #[test]
    fn verify_flags_corruption_and_matches_parallel() {
        let mut store = GearFileStore::new();
        let bodies: Vec<Bytes> = (0u8..40).map(|i| Bytes::from(vec![i; 50])).collect();
        for body in &bodies {
            store.upload(Fingerprint::of(body), body.clone()).unwrap();
        }
        assert!(store.verify().is_empty(), "fresh store is clean");
        // Corrupt two objects in place; both scans must flag exactly those,
        // in the same (sorted) order regardless of worker count.
        let bad_a = Fingerprint::of(&bodies[3]);
        let bad_b = Fingerprint::of(&bodies[17]);
        store.corrupt_for_test(bad_a, Bytes::from_static(b"bit rot"));
        store.corrupt_for_test(bad_b, Bytes::from_static(b"more rot"));
        let serial = store.verify();
        let mut expected = vec![bad_a, bad_b];
        expected.sort();
        assert_eq!(serial, expected);
        for workers in [2, 4, 8] {
            assert_eq!(store.verify_with(&gear_par::Pool::new(workers)), serial);
        }
    }

    #[test]
    fn retain_only_keeps_stats_consistent() {
        let mut store = GearFileStore::with_compression();
        let bodies: Vec<Bytes> = (0u8..12)
            .map(|i| Bytes::from(vec![i; 64 + i as usize * 16]))
            .collect();
        let fps: Vec<Fingerprint> = bodies.iter().map(|b| Fingerprint::of(b)).collect();
        for (fp, body) in fps.iter().zip(&bodies) {
            store.upload(*fp, body.clone()).unwrap();
        }
        // Duplicate upload so dedup accounting is in play too.
        store.upload(fps[0], bodies[0].clone()).unwrap();
        let live: std::collections::HashSet<Fingerprint> =
            fps.iter().copied().step_by(2).collect();
        let freed = store.retain_only(&live);
        assert!(freed > 0);
        // The incremental totals must equal a from-scratch recount.
        let stats = store.stats();
        assert_eq!(stats.objects, live.len() as u64);
        let recount_logical: u64 = store.iter().map(|(_, raw)| raw.len() as u64).sum();
        let recount_stored: u64 =
            fps.iter().filter_map(|fp| store.transfer_size(*fp)).sum();
        assert_eq!(stats.logical_bytes, recount_logical);
        assert_eq!(stats.stored_bytes, recount_stored);
        assert_eq!(stats.dedup_hits, 1, "GC must not erase dedup history");
        // Re-uploading a collected object stores it again and accounting
        // keeps following.
        store.upload(fps[1], bodies[1].clone()).unwrap();
        assert_eq!(store.stats().objects, live.len() as u64 + 1);
        assert_eq!(
            store.stats().logical_bytes,
            recount_logical + bodies[1].len() as u64
        );
    }

    #[test]
    fn a_salted_object_is_checked_and_verified_with_its_salt() {
        let body = Bytes::from_static(b"second body of a colliding pair");
        let salted = GearFile {
            fingerprint: Fingerprint::of_salted(&body, 3),
            content: body.clone(),
            salt: Some(3),
        };
        let mut store = GearFileStore::new();
        // Unsalted, the id is not what the body hashes to.
        let err = store.upload(salted.fingerprint, body.clone()).unwrap_err();
        assert_eq!(
            err,
            UploadError::FingerprintMismatch {
                claimed: salted.fingerprint,
                actual: Fingerprint::of(&body)
            }
        );
        let wrong_salt = GearFile { salt: Some(4), ..salted.clone() };
        assert!(store.upload_all(&[wrong_salt]).is_err());
        assert_eq!(store.object_count(), 0);

        store.upload_all(std::slice::from_ref(&salted)).unwrap();
        assert_eq!(store.salt(salted.fingerprint), Some(3));
        assert!(store.verify().is_empty());
        assert_eq!(store.download(salted.fingerprint), Some(body));
        store.corrupt_for_test(salted.fingerprint, Bytes::from_static(b"bit rot"));
        assert_eq!(store.verify(), [salted.fingerprint]);
        assert_eq!(store.verify_with(&Pool::new(2)), [salted.fingerprint]);
        let freed = store.retain_only(&std::collections::HashSet::new());
        assert!(freed > 0 && store.salts.is_empty());
    }

    mod upload_all_matches_upload {
        use super::*;
        use proptest::prelude::*;

        /// Few distinct bodies, so a batch repeats bodies — within itself
        /// and against what the store already holds.
        fn any_body() -> impl Strategy<Value = Bytes> {
            (0..5u8, 0..4usize).prop_map(|(byte, len)| Bytes::from(vec![byte; len * 40]))
        }

        fn unsalted(content: Bytes) -> GearFile {
            GearFile { fingerprint: Fingerprint::of(&content), content, salt: None }
        }

        /// Everything an upload can change: accounting, every object with
        /// its wire size, and the salts.
        type Contents =
            (StoreStats, Vec<(Fingerprint, Bytes, Option<u64>)>, Vec<(Fingerprint, u64)>);

        fn contents(store: &GearFileStore) -> Contents {
            let mut objects: Vec<_> = store
                .iter()
                .map(|(fp, body)| (fp, body.clone(), store.transfer_size(fp)))
                .collect();
            objects.sort_by_key(|(fp, ..)| *fp);
            let mut salts: Vec<_> = store.salts.iter().map(|(fp, salt)| (*fp, *salt)).collect();
            salts.sort();
            (store.stats(), objects, salts)
        }

        fn store_holding(compressed: bool, bodies: &[Bytes]) -> GearFileStore {
            let mut store =
                if compressed { GearFileStore::with_compression() } else { GearFileStore::new() };
            for body in bodies {
                store.upload(Fingerprint::of(body), body.clone()).unwrap();
            }
            store
        }

        proptest! {
            /// One batch gives what `upload` of each file in turn gives:
            /// the outcomes, `stats()`, and every transfer size.
            #[test]
            fn outcome_by_outcome(
                compressed in any::<bool>(),
                held in proptest::collection::vec(any_body(), 0..6),
                batch in proptest::collection::vec(any_body(), 0..12),
            ) {
                let files: Vec<GearFile> = batch.into_iter().map(unsalted).collect();
                let mut one_by_one = store_holding(compressed, &held);
                let outcomes: Vec<UploadOutcome> = files
                    .iter()
                    .map(|f| one_by_one.upload(f.fingerprint, f.content.clone()).unwrap())
                    .collect();
                let mut batched = store_holding(compressed, &held);
                prop_assert_eq!(batched.upload_all(&files).unwrap(), outcomes);
                prop_assert_eq!(contents(&batched), contents(&one_by_one));
            }

            /// One file anywhere in the batch whose id its content does not
            /// make — a wrong plain id, or a salt that was not used —
            /// fails the batch with that file's mismatch and stores nothing.
            #[test]
            fn one_mismatch_stores_nothing(
                compressed in any::<bool>(),
                held in proptest::collection::vec(any_body(), 0..6),
                batch in proptest::collection::vec(any_body(), 1..12),
                at in any::<usize>(),
                salt in (any::<bool>(), 0..4u64).prop_map(|(on, salt)| on.then_some(salt)),
            ) {
                let mut files: Vec<GearFile> = batch.into_iter().map(unsalted).collect();
                let at = at % files.len();
                let bad = &mut files[at];
                let actual = match salt {
                    Some(salt) => {
                        bad.salt = Some(salt);
                        Fingerprint::of_salted(&bad.content, salt)
                    }
                    None => {
                        let actual = bad.fingerprint;
                        bad.fingerprint = Fingerprint::of(b"another body");
                        actual
                    }
                };
                let claimed = bad.fingerprint;
                let mut store = store_holding(compressed, &held);
                let before = contents(&store);
                prop_assert_eq!(
                    store.upload_all(&files),
                    Err(UploadError::FingerprintMismatch { claimed, actual })
                );
                prop_assert_eq!(contents(&store), before);
            }
        }
    }

    #[test]
    fn retain_only_gc() {
        let mut store = GearFileStore::new();
        let a = Bytes::from_static(b"aaa");
        let b = Bytes::from_static(b"bbb");
        let fa = Fingerprint::of(&a);
        let fb = Fingerprint::of(&b);
        store.upload(fa, a).unwrap();
        store.upload(fb, b).unwrap();
        let live = std::collections::HashSet::from([fa]);
        let freed = store.retain_only(&live);
        assert_eq!(freed, 3);
        assert!(store.query(fa));
        assert!(!store.query(fb));
    }
}
