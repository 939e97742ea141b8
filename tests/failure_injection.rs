//! Failure-injection integration tests: corrupted blobs, missing Gear files,
//! mismatched fingerprints, and malformed indexes must surface as typed
//! errors, never as wrong data.

use bytes::Bytes;
use gear::client::{ClientConfig, DeployError, GearClient};
use gear::compress::{decompress, DecompressError};
use gear::core::{publish, Converter, GearImage, IndexError};
use gear::corpus::{StartupTrace, TaskKind};
use gear::fs::FsTree;
use gear::hash::Fingerprint;
use gear::image::{ImageBuilder, ImageRef};
use gear::p2p::{Cluster, ClusterConfig, ClusterError};
use gear::registry::{DockerRegistry, GearFileStore, UploadError};

fn simple_published(
    files: &[(&str, &[u8])],
    name: &str,
) -> (DockerRegistry, GearFileStore, ImageRef) {
    let mut tree = FsTree::new();
    for (p, c) in files {
        tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
    }
    let r: ImageRef = name.parse().unwrap();
    let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
    let conv = Converter::new().convert(&image).unwrap();
    let mut docker = DockerRegistry::new();
    let mut store = GearFileStore::new();
    publish(&conv, &mut docker, &mut store);
    (docker, store, r)
}

fn trace(paths: &[&str]) -> StartupTrace {
    StartupTrace { reads: paths.iter().map(|s| s.to_string()).collect(), task: TaskKind::Echo }
}

#[test]
fn missing_gear_file_fails_deployment_cleanly() {
    let (docker, store, r) = simple_published(&[("bin/app", b"binary")], "svc:1");
    // Simulate a registry that lost the object: empty file store.
    let empty = GearFileStore::new();
    let _ = store;
    let mut client = GearClient::new(ClientConfig::default());
    let err = client.deploy(&r, &trace(&["bin/app"]), &docker, &empty).unwrap_err();
    assert!(matches!(err, DeployError::Fs(gear_fs::FsError::Materialize { .. })), "{err}");
}

#[test]
fn store_rejects_forged_fingerprints() {
    let mut store = GearFileStore::new();
    // An attacker claims content under someone else's fingerprint.
    let victim_fp = Fingerprint::of(b"legitimate library");
    let err = store.upload(victim_fp, Bytes::from_static(b"malicious payload")).unwrap_err();
    assert!(matches!(err, UploadError::FingerprintMismatch { .. }));
    assert!(!store.query(victim_fp), "forged upload must not be stored");
}

#[test]
fn corrupted_layer_blob_detected_on_pull() {
    let mut tree = FsTree::new();
    tree.create_file("f", Bytes::from_static(b"content")).unwrap();
    let r: ImageRef = "x:1".parse().unwrap();
    let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
    let mut reg = DockerRegistry::new();
    reg.push_image(&image);
    let manifest = reg.manifest(&r).unwrap().clone();
    // Flip a payload byte: decompression must fail its checksum.
    let mut bad = reg.blob(manifest.layers[0].digest).unwrap().to_vec();
    let n = bad.len() - 1;
    bad[n] ^= 0xff;
    let err = decompress(&bad).unwrap_err();
    assert!(
        matches!(err, DecompressError::CorruptPayload | DecompressError::ChecksumMismatch),
        "{err:?}"
    );
}

#[test]
fn malformed_index_image_is_rejected() {
    // An image that *looks* like an index image but carries broken JSON.
    let mut tree = FsTree::new();
    tree.create_file(gear::core::INDEX_PATH, Bytes::from_static(b"{ not json"))
        .unwrap();
    let r: ImageRef = "fake-index:1".parse().unwrap();
    let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
    let err = GearImage::from_index_image(&image).unwrap_err();
    assert!(matches!(err, IndexError::Json(_)));

    // Through the client: a registry serving it must produce BadIndex.
    let mut docker = DockerRegistry::new();
    docker.push_image(&image);
    let mut client = GearClient::new(ClientConfig::default());
    let err = client.deploy(&r, &trace(&[]), &docker, &GearFileStore::new()).unwrap_err();
    assert!(matches!(err, DeployError::BadIndex(_)));
}

#[test]
fn index_with_entry_names_no_path_reaches_is_rejected() {
    // A well-formed index whose entry names are hostile: `..`, `.` and the
    // empty name cannot be mounted at all (they used to panic the deploying
    // client), and `a/b` names a node no path lookup can reach. At the root
    // or nested, every engine must refuse the image with a typed error.
    let (docker, store, good) = simple_published(&[("top/leaf", b"x")], "svc:1");
    let index = GearImage::from_index_image(&docker.image(&good).unwrap()).unwrap();
    let json = String::from_utf8(index.index().to_json()).unwrap();
    for key in ["\"top\":", "\"leaf\":"] {
        assert_eq!(json.matches(key).count(), 1);
        for bad in ["..", ".", "", "a/b"] {
            let crafted = json.replace(key, &format!("\"{bad}\":"));
            let mut tree = FsTree::new();
            tree.create_file(gear::core::INDEX_PATH, Bytes::from(crafted)).unwrap();
            let r: ImageRef = "crafted:1".parse().unwrap();
            let mut docker = DockerRegistry::new();
            docker.push_image(&ImageBuilder::new(r.clone()).layer_from_tree(&tree).build());

            let mut client = GearClient::new(ClientConfig::default());
            let err = client.deploy(&r, &trace(&[]), &docker, &store).unwrap_err();
            assert!(
                matches!(err, DeployError::BadIndex(IndexError::Json(_))),
                "{key} -> {bad:?}: {err}"
            );
            assert!(client.index(&r).is_none(), "a rejected index is not installed");
            let mut cluster = Cluster::new(ClusterConfig::lan(1));
            let err = cluster.deploy_on(0, &r, &trace(&[]), &docker, &store).unwrap_err();
            assert!(
                matches!(err, ClusterError::BadIndex(IndexError::Json(_))),
                "{key} -> {bad:?}: {err}"
            );
        }
    }
}

#[test]
fn reading_unknown_path_is_not_found() {
    let (docker, store, r) = simple_published(&[("real", b"x")], "svc:1");
    let mut client = GearClient::new(ClientConfig::default());
    let err = client.deploy(&r, &trace(&["ghost/path"]), &docker, &store).unwrap_err();
    assert!(matches!(err, DeployError::Fs(gear_fs::FsError::NotFound(_))));
}

#[test]
fn tampered_store_content_never_reaches_the_container() {
    // GearFileStore verifies on upload; simulate tampering by uploading the
    // *correctly named* content and checking the download path returns it
    // verbatim (content addressing makes silent substitution impossible
    // without breaking MD5).
    let body = Bytes::from_static(b"authentic bytes");
    let fp = Fingerprint::of(&body);
    let mut store = GearFileStore::with_compression();
    store.upload(fp, body.clone()).unwrap();
    let served = store.download(fp).unwrap();
    assert_eq!(served, body);
    assert_eq!(Fingerprint::of(&served), fp, "clients can re-verify end-to-end");
}

#[test]
fn transport_faults_and_store_crash_in_one_deploy_leave_no_partial_state() {
    use gear::client::TierConfig;
    use gear::simnet::{CrashPlan, DiskModel, FaultPlan, RetryPolicy};
    use gear::store::{BlobStore, DiskStore, EvictionPolicy, JournalMedia, MemStore, TieredStore};

    // Enough files that the crash plan has journal writes to choose from.
    let files: Vec<(String, Vec<u8>)> =
        (0..10).map(|i| (format!("srv/f{i}"), vec![i as u8 + 1; 4_000])).collect();
    let refs: Vec<(&str, &[u8])> =
        files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
    let (docker, store, r) = simple_published(&refs, "svc:1");
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    let t = trace(&paths);
    let tier = TierConfig {
        l1_capacity: Some(16_000),
        disk: DiskModel::ssd(),
    };
    let config = ClientConfig::default().with_tier(tier);

    // Sweep the scripted store-crash point across the deploy's journal
    // writes while the transport concurrently drops requests; whatever
    // interleaving results, recovery must find only whole, verifiable blobs.
    let mut crashes_seen = 0;
    for crash_at in 0..12u64 {
        let media = JournalMedia::new();
        let l2 = DiskStore::with_journal(
            EvictionPolicy::Lru,
            None,
            tier.disk,
            config.byte_scale,
            media.clone(),
            CrashPlan::new(crash_at).crash_at_write(crash_at, gear::simnet::CrashPoint::TornWrite),
        );
        let cache = TieredStore::from_parts(
            MemStore::with_policy(EvictionPolicy::Lru, tier.l1_capacity),
            l2,
        );
        let mut client = GearClient::with_store(Box::new(cache), config);
        client.inject_faults(
            FaultPlan::new(crash_at).with_drop(0.2),
            RetryPolicy::standard(crash_at),
        );
        // The deploy may succeed (crash after the last insert, faults all
        // retried) or abort on the fault budget; either way it must not
        // panic, and the store must recover cleanly below.
        let outcome = client.deploy(&r, &t, &docker, &store);
        let crashed = client.cache_tier_bytes() == (0, 0) && outcome.is_ok();
        if crashed {
            crashes_seen += 1;
        }
        drop(client);

        let (recovered, report) =
            DiskStore::recover(EvictionPolicy::Lru, None, tier.disk, config.byte_scale, media);
        // No partial cache entries: every recovered blob re-hashes to its
        // fingerprint (real MD5 addressing end to end), and every recovered
        // blob is one of the published files, complete.
        assert!(recovered.verify().is_empty(), "torn blob survived recovery at {crash_at}");
        for (_, content) in files.iter().map(|(p, c)| (p, c)) {
            let fp = Fingerprint::of(content);
            if let Some(served) = recovered.peek(fp) {
                assert_eq!(served.as_ref(), content.as_slice(), "content mangled at {crash_at}");
            }
        }
        assert_eq!(
            report.recovered_blobs as usize,
            recovered.len(),
            "recovery report disagrees with the store at {crash_at}"
        );
    }
    assert!(crashes_seen > 0, "the sweep never crashed a store mid-deploy");
}

#[test]
fn deploy_is_idempotent_after_errors() {
    // A failed deployment (missing file) must not poison later successful
    // ones: the index may be installed, but state stays consistent.
    let (docker, store, r) = simple_published(&[("a", b"1"), ("b", b"2")], "svc:1");
    let empty = GearFileStore::new();
    let mut client = GearClient::new(ClientConfig::default());
    assert!(client.deploy(&r, &trace(&["a"]), &docker, &empty).is_err());
    // Retry against the healthy store succeeds.
    let (_, report) = client.deploy(&r, &trace(&["a", "b"]), &docker, &store).unwrap();
    assert_eq!(report.files_fetched, 2);
    assert_eq!(report.pull.as_nanos(), 0, "index already installed by the failed attempt");
}
