//! Property-based tests on the shared cache's replacement invariants and
//! the deploy path's fault handling.

use std::time::Duration;

use bytes::Bytes;
use gear_client::{ClientConfig, DeployError, EvictionPolicy, GearClient};
use gear_core::{publish, Converter, IndexError, LayerDecodeError};
use gear_corpus::{StartupTrace, TaskKind};
use gear_fs::FsTree;
use gear_hash::{Digest, Fingerprint};
use gear_image::{ImageBuilder, ImageRef};
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::{FaultKind, FaultPlan, RetryPolicy};
use gear_store::MemStore;
use proptest::prelude::*;

/// Publishes one image holding `files[i]` at `data/f{i}`; returns the
/// registries, the image's reference, and a trace reading every file in
/// order.
fn publish_files(files: &[Bytes]) -> (DockerRegistry, GearFileStore, ImageRef, StartupTrace) {
    let mut tree = FsTree::new();
    for (i, content) in files.iter().enumerate() {
        tree.create_file(&format!("data/f{i}"), content.clone()).unwrap();
    }
    let r: ImageRef = "prop:1".parse().unwrap();
    let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
    let conv = Converter::new().convert(&image).unwrap();
    let mut docker = DockerRegistry::new();
    let mut store = GearFileStore::new();
    publish(&conv, &mut docker, &mut store);
    let trace = StartupTrace {
        reads: (0..files.len()).map(|i| format!("data/f{i}")).collect(),
        task: TaskKind::Echo,
    };
    (docker, store, r, trace)
}

/// The serial retry loop, restated independently of the production one in
/// `gear_simnet::FaultInjector`: what charging one registry request of
/// `scaled_bytes` costs under `plan`, or `None` once the budget is spent.
fn charged_request_reference(
    plan: &mut FaultPlan,
    policy: &RetryPolicy,
    config: &ClientConfig,
    scaled_bytes: u64,
) -> Option<Duration> {
    let nominal = config.request_time(scaled_bytes);
    let mut elapsed = Duration::ZERO;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            elapsed += policy.backoff(attempt);
        }
        match plan.next_fault() {
            None => return Some(elapsed + nominal),
            Some(FaultKind::Stall(extra)) if nominal + extra <= policy.timeout => {
                return Some(elapsed + nominal + extra);
            }
            Some(FaultKind::Drop) | Some(FaultKind::Stall(_)) => elapsed += policy.timeout,
            Some(FaultKind::Corrupt) | Some(FaultKind::Truncate) => elapsed += nominal,
        }
    }
    None
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16),
    Get(u8),
    Pin(u8),
    Unpin(u8),
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u16..512).prop_map(|(k, len)| Op::Insert(k, len)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Pin),
        any::<u8>().prop_map(Op::Unpin),
    ]
}

fn fp(k: u8) -> Fingerprint {
    Fingerprint::of(&[k])
}

fn body(k: u8, len: u16) -> Bytes {
    Bytes::from(vec![k; len as usize])
}

/// The pre-index eviction semantics, restated as an executable model: a
/// full scan picking `min_by_key` over unpinned entries. The production
/// cache replaced this scan with an ordered index; this model is the oracle
/// proving the index is a pure speedup (same hits, same victims, same
/// residency) and not a policy change.
struct ScanModelCache {
    entries: std::collections::HashMap<u8, ModelEntry>,
    policy: EvictionPolicy,
    capacity: u64,
    bytes: u64,
    tick: u64,
    hits: u64,
    evictions: u64,
}

struct ModelEntry {
    len: u64,
    pins: u32,
    inserted: u64,
    used: u64,
}

impl ScanModelCache {
    fn new(policy: EvictionPolicy, capacity: u64) -> Self {
        ScanModelCache {
            entries: Default::default(),
            policy,
            capacity,
            bytes: 0,
            tick: 0,
            hits: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, k: u8) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&k) {
            e.used = self.tick; // bumped even while pinned (documented policy)
            self.hits += 1;
        }
    }

    fn insert(&mut self, k: u8, len: u64) {
        if self.entries.contains_key(&k) {
            return;
        }
        if len > self.capacity {
            return;
        }
        while self.bytes + len > self.capacity {
            if !self.evict_one() {
                return;
            }
        }
        self.tick += 1;
        self.bytes += len;
        self.entries.insert(k, ModelEntry { len, pins: 0, inserted: self.tick, used: self.tick });
    }

    fn evict_one(&mut self) -> bool {
        let policy = self.policy;
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0)
            .min_by_key(|(_, e)| match policy {
                EvictionPolicy::Fifo => e.inserted,
                EvictionPolicy::Lru => e.used,
            })
            .map(|(k, _)| *k);
        match victim {
            Some(k) => {
                let e = self.entries.remove(&k).unwrap();
                self.bytes -= e.len;
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    fn pin(&mut self, k: u8) {
        if let Some(e) = self.entries.get_mut(&k) {
            e.pins += 1;
        }
    }

    fn unpin(&mut self, k: u8) {
        if let Some(e) = self.entries.get_mut(&k) {
            e.pins = e.pins.saturating_sub(1);
        }
    }
}

proptest! {
    /// The O(log n) eviction index chooses exactly the victims the original
    /// scan-based policy would have chosen: after every operation the
    /// residency set, byte total, hit count, and eviction count all match
    /// the executable scan model, under both policies.
    #[test]
    fn eviction_index_agrees_with_scan_model(
        ops in proptest::collection::vec(any_op(), 0..300),
        capacity in 48u64..512,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        let mut cache = MemStore::with_policy(policy, Some(capacity));
        let mut model = ScanModelCache::new(policy, capacity);
        for op in ops {
            match op {
                // Narrow key space (16 keys) so capacity pressure and
                // pin interleavings actually collide.
                Op::Insert(k, len) => {
                    let k = k % 16;
                    let len = 8 + u64::from(len) % 64;
                    cache.insert(fp(k), Bytes::from(vec![k; len as usize]));
                    model.insert(k, len);
                }
                Op::Get(k) => {
                    cache.get(fp(k % 16));
                    model.get(k % 16);
                }
                Op::Pin(k) => {
                    cache.pin(fp(k % 16));
                    model.pin(k % 16);
                }
                Op::Unpin(k) => {
                    cache.unpin(fp(k % 16));
                    model.unpin(k % 16);
                }
            }
            for k in 0u8..16 {
                prop_assert_eq!(
                    cache.contains(fp(k)),
                    model.entries.contains_key(&k),
                    "residency diverged on key {} (policy {:?})", k, policy
                );
            }
            prop_assert_eq!(cache.bytes(), model.bytes);
            prop_assert_eq!(cache.stats().hits, model.hits);
            prop_assert_eq!(cache.stats().evictions, model.evictions);
        }
    }

    /// A bounded cache never exceeds its capacity, regardless of operation
    /// order or policy.
    #[test]
    fn capacity_never_exceeded(
        ops in proptest::collection::vec(any_op(), 0..200),
        capacity in 64u64..2048,
        lru in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        let mut cache = MemStore::with_policy(policy, Some(capacity));
        let mut pinned: std::collections::HashSet<u8> = Default::default();
        for op in ops {
            match op {
                Op::Insert(k, len) => { cache.insert(fp(k), body(k, len)); }
                Op::Get(k) => { cache.get(fp(k)); }
                Op::Pin(k) => {
                    if cache.contains(fp(k)) && pinned.insert(k) {
                        cache.pin(fp(k));
                    }
                }
                Op::Unpin(k) => {
                    if pinned.remove(&k) {
                        cache.unpin(fp(k));
                    }
                }
            }
            prop_assert!(cache.bytes() <= capacity, "{} > {}", cache.bytes(), capacity);
        }
    }

    /// Pinned entries survive arbitrary insertion pressure.
    #[test]
    fn pinned_entries_survive(
        protected in any::<u8>(),
        pressure in proptest::collection::vec((any::<u8>(), 1u16..128), 1..64),
    ) {
        let mut cache = MemStore::with_policy(EvictionPolicy::Lru, Some(1024));
        prop_assume!(cache.insert(fp(protected), body(protected, 100)));
        cache.pin(fp(protected));
        for (k, len) in pressure {
            if k != protected {
                cache.insert(fp(k), body(k, len));
            }
        }
        prop_assert!(cache.contains(fp(protected)));
    }

    /// get() after a successful insert returns exactly the inserted bytes,
    /// and hit/miss counters account for every lookup.
    #[test]
    fn accounting_is_exact(ops in proptest::collection::vec(any_op(), 0..150)) {
        let mut cache = MemStore::new(); // unbounded
        let mut model: std::collections::HashMap<u8, Bytes> = Default::default();
        let mut expect_hits = 0u64;
        let mut expect_misses = 0u64;
        for op in ops {
            match op {
                Op::Insert(k, len) => {
                    let b = body(k, len);
                    cache.insert(fp(k), b.clone());
                    model.entry(k).or_insert(b); // dedup: first insert wins
                }
                Op::Get(k) => {
                    let got = cache.get(fp(k));
                    match model.get(&k) {
                        Some(expected) => {
                            expect_hits += 1;
                            prop_assert_eq!(got.as_ref(), Some(expected));
                        }
                        None => {
                            expect_misses += 1;
                            prop_assert!(got.is_none());
                        }
                    }
                }
                Op::Pin(k) => cache.pin(fp(k)),
                Op::Unpin(k) => cache.unpin(fp(k)),
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, expect_hits);
        prop_assert_eq!(stats.misses, expect_misses);
        // Unbounded cache: resident bytes equal the model's total.
        let model_bytes: u64 = model.values().map(|b| b.len() as u64).sum();
        prop_assert_eq!(cache.bytes(), model_bytes);
    }

    /// Fault handling is the same at every stream count and equals serial
    /// charging. Every request (manifest, index layer, then one per file)
    /// draws from one scripted plan — a transient fault, then a burst that
    /// drops everything from `fail_from` on — in submission order, so
    /// replaying the plan through `charged_request_reference` predicts which
    /// request, if any, exhausts the budget. An aborted deployment leaves
    /// exactly the files requested before that one in the shared cache,
    /// complete; a deployment at `streams = 1` that survives takes exactly
    /// the sum of the reference prices plus local work.
    #[test]
    fn aborted_deploys_leave_no_partial_cache_entries(
        streams in 1usize..=8,
        fail_from in 0u64..12,
        transient in (0u64..8, prop_oneof![Just(FaultKind::Drop), Just(FaultKind::Corrupt)]),
        sizes in proptest::collection::vec(8u16..2048, 2..6),
    ) {
        // Distinct bytes per file so fingerprints never collide.
        let contents: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, len)| Bytes::from(vec![i as u8 + 1; *len as usize]))
            .collect();
        let (docker, store, r, trace) = publish_files(&contents);

        let config = ClientConfig::default().with_streams(streams);
        let policy = RetryPolicy::standard(0);
        let plan = FaultPlan::new(0)
            .fail_requests(transient.0, transient.0, transient.1)
            .fail_requests(fail_from, u64::MAX, FaultKind::Drop);

        // The oracle: walk the deployment's requests through the reference
        // loop. `survivors` counts the files delivered before the budget
        // ran out (if it did); `expected` sums prices and local work.
        let manifest = docker.manifest(&r).unwrap();
        let mut oracle = plan.clone();
        let mut exhausted = false;
        let mut expected = config.costs.container_start
            + config.costs.mount_setup
            + TaskKind::Echo.compute_time();
        let mut price = |bytes: u64, local: Duration| {
            match charged_request_reference(&mut oracle, &policy, &config, bytes) {
                Some(took) if !exhausted => expected += took + local,
                _ => exhausted = true,
            }
            !exhausted
        };
        price(manifest.to_json().len() as u64, Duration::ZERO);
        for layer in &manifest.layers {
            price(layer.size, config.decompress(layer.size));
        }
        let mut survivors = 0;
        for content in &contents {
            let raw = content.len() as u64;
            let wire = store.transfer_size(Fingerprint::of(content)).unwrap();
            let local = config.decompress(wire)
                + config.disk.io_time(raw, 1)
                + config.local_read(raw);
            if price(wire, local) {
                survivors += 1;
            }
        }

        let mut client = GearClient::new(config);
        client.inject_faults(plan, policy);
        match client.deploy(&r, &trace, &docker, &store) {
            Ok((_, report)) => {
                prop_assert!(!exhausted, "the oracle predicted an abort");
                prop_assert_eq!(report.files_fetched, contents.len() as u64);
                if streams == 1 {
                    prop_assert_eq!(report.total(), expected, "serial charging, bit for bit");
                }
            }
            Err(DeployError::FaultBudgetExhausted { .. }) => {
                prop_assert!(exhausted, "the oracle predicted success");
            }
            Err(other) => prop_assert!(false, "unexpected deploy error: {}", other),
        }
        // Whatever happened, the cache holds exactly the files whose
        // requests survived, each complete.
        let mut expected_bytes = 0u64;
        for (i, content) in contents.iter().enumerate() {
            let cached = client.cache_contains(Fingerprint::of(content));
            prop_assert_eq!(cached, i < survivors, "file {} of {} survivors", i, survivors);
            if cached {
                expected_bytes += content.len() as u64;
            }
        }
        prop_assert_eq!(client.cache_bytes(), expected_bytes, "cache bytes must be consistent");
        prop_assert_eq!(client.cache_stats().evictions, 0, "unbounded cache never evicts");
    }

    /// What a faulty registry path owes its caller, on the path deploys
    /// take. Under a probabilistic drop/corrupt plan a deployment either
    /// succeeds with exactly the fault-free run's files — every one cached
    /// and hashing to its fingerprint — or aborts with the typed budget
    /// error, and which of the two is decided by the plan alone: a request
    /// is lost exactly when all four of its attempts draw a fault. The same
    /// seeds give the same outcome. Any scripted burst shorter than the
    /// budget is invisible but for its retries (an in-budget stall is
    /// delivered late, with none).
    #[test]
    fn faulty_deploys_deliver_the_clean_files_or_a_typed_error(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.5,
        corrupt_p in 0.0f64..0.3,
        four_streams in any::<bool>(),
        sizes in proptest::collection::vec(8u16..2048, 2..6),
        burst in (
            0u64..4,
            1u64..=3,
            prop_oneof![
                Just(FaultKind::Drop),
                Just(FaultKind::Corrupt),
                Just(FaultKind::Truncate),
                Just(FaultKind::Stall(Duration::from_millis(100))),
                Just(FaultKind::Stall(Duration::from_secs(3))),
            ],
        ),
    ) {
        let contents: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, len)| Bytes::from(vec![i as u8 + 1; *len as usize]))
            .collect();
        let (docker, store, r, trace) = publish_files(&contents);
        let config = ClientConfig::default().with_streams(if four_streams { 4 } else { 1 });
        let policy = RetryPolicy::standard(seed);
        let deploy = |plan: Option<FaultPlan>| {
            let mut client = GearClient::new(config);
            if let Some(plan) = plan {
                client.inject_faults(plan, policy);
            }
            let result = client.deploy(&r, &trace, &docker, &store);
            (client, result)
        };
        // The files a deployment delivered, read back with no registry
        // behind the cache.
        let cached_intact = |client: &mut GearClient, id| {
            client.clear_faults();
            contents.iter().zip(&trace.reads).all(|(content, path)| {
                let fingerprint = Fingerprint::of(content);
                let len = content.len() as u64;
                client.cache_contains(fingerprint)
                    && client
                        .read_range(id, path, 0, len, &GearFileStore::new())
                        .is_ok_and(|cached| Fingerprint::of(&cached) == fingerprint)
            })
        };

        let clean = deploy(None).1.unwrap().1;
        // Manifest, index layer, then one request per file.
        prop_assert_eq!(clean.requests, 2 + contents.len() as u64);

        let plan = FaultPlan::new(seed).with_drop(drop_p).with_corrupt(corrupt_p);
        let mut oracle = plan.clone();
        let delivered = (0..clean.requests)
            .all(|_| (0..policy.max_attempts).any(|_| oracle.next_fault().is_none()));
        let (mut client, outcome) = deploy(Some(plan.clone()));
        match &outcome {
            Ok((id, report)) => {
                prop_assert!(delivered, "a request lost all four attempts, yet the deploy ran");
                prop_assert_eq!(report.files_fetched, clean.files_fetched);
                prop_assert_eq!(report.bytes_pulled, clean.bytes_pulled);
                prop_assert_eq!(report.retries, oracle.injected());
                prop_assert!(cached_intact(&mut client, *id));
            }
            Err(DeployError::FaultBudgetExhausted { attempts: 4 }) => {
                prop_assert!(!delivered, "every request had a clean attempt, yet it aborted");
            }
            Err(other) => prop_assert!(false, "unexpected deploy error: {}", other),
        }
        let summary = |outcome: Result<(_, gear_client::DeploymentReport), DeployError>| {
            outcome.map(|(_, report)| report).map_err(|e| e.to_string())
        };
        let again = deploy(Some(plan)).1;
        prop_assert_eq!(summary(again), summary(outcome), "same seeds, same outcome");

        let (from, len, kind) = burst;
        let (mut client, outcome) =
            deploy(Some(FaultPlan::new(seed).fail_requests(from, from + len - 1, kind)));
        let (id, report) = outcome.unwrap();
        let in_budget_stall = kind == FaultKind::Stall(Duration::from_millis(100));
        prop_assert_eq!(report.retries, if in_budget_stall { 0 } else { len });
        prop_assert_eq!(report.files_fetched, clean.files_fetched);
        prop_assert_eq!(report.bytes_pulled, clean.bytes_pulled);
        prop_assert!(cached_intact(&mut client, id));
    }

    /// Single-flight dedup: however many concurrent reads miss on the same
    /// fingerprint, the deployment issues exactly one registry request for
    /// it and the cache gains exactly one entry — with or without injected
    /// faults.
    #[test]
    fn concurrent_same_fingerprint_misses_download_once(
        readers in 2usize..6,
        streams in 2usize..9,
        len in 64u16..4096,
        fault_at in (any::<bool>(), 0u64..6).prop_map(|(on, at)| on.then_some(at)),
        corrupt in any::<bool>(),
    ) {
        // `readers` distinct paths, one shared content → one fingerprint.
        let shared = Bytes::from(vec![0x5A; len as usize]);
        let mut tree = FsTree::new();
        for i in 0..readers {
            tree.create_file(&format!("srv/reader{i}"), shared.clone()).unwrap();
        }
        let r: ImageRef = "prop:1".parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let conv = Converter::new().convert(&image).unwrap();
        let mut docker = DockerRegistry::new();
        let mut store = GearFileStore::new();
        publish(&conv, &mut docker, &mut store);
        let trace = StartupTrace {
            reads: (0..readers).map(|i| format!("srv/reader{i}")).collect(),
            task: TaskKind::Echo,
        };

        let mut client = GearClient::new(ClientConfig::default().with_streams(streams));
        if let Some(at) = fault_at {
            // One scripted fault somewhere in the request sequence; the
            // standard budget (4 attempts) always recovers from it.
            let kind = if corrupt { FaultKind::Corrupt } else { FaultKind::Drop };
            client.inject_faults(
                FaultPlan::new(1).fail_requests(at, at, kind),
                RetryPolicy::standard(1),
            );
        }
        let (_, report) = client.deploy(&r, &trace, &docker, &store).unwrap();

        prop_assert_eq!(report.files_fetched, 1, "one download for all readers");
        // manifest + index + exactly one file request.
        prop_assert_eq!(client.metrics().requests_down, 3);
        prop_assert!(client.cache_contains(Fingerprint::of(&shared)));
        prop_assert_eq!(client.cache_bytes(), shared.len() as u64, "one cache insert");
    }

    /// The fetch scheduler never holds more undelivered bytes than the
    /// configured window (a single payload larger than the window is
    /// admitted alone and bounds the peak instead).
    #[test]
    fn fetch_window_bounds_undelivered_bytes(
        sizes in proptest::collection::vec(1u16..8192, 1..24),
        streams in 2usize..9,
        window in 1024u64..32_768,
    ) {
        // Distinct first byte so every file is a distinct fingerprint.
        let contents: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, len)| {
                let mut content = vec![0u8; *len as usize];
                content[0] = i as u8;
                Bytes::from(content)
            })
            .collect();
        let fingerprints: Vec<Fingerprint> =
            contents.iter().map(|c| Fingerprint::of(c)).collect();
        let (docker, store, r, trace) = publish_files(&contents);

        let mut config = ClientConfig::default();
        config.fetch.streams = streams;
        config.fetch.max_buffered_bytes = window;
        let mut client = GearClient::new(config);
        let (_, report) = client.deploy(&r, &trace, &docker, &store).unwrap();

        // The wire carries scaled transfer sizes; the escape hatch admits
        // one oversized payload alone, so that payload is the only way the
        // peak may pass the window.
        let largest = fingerprints
            .iter()
            .filter_map(|fp| store.transfer_size(*fp))
            .map(|bytes| config.scaled(bytes))
            .max()
            .unwrap_or(0);
        let bound = window.max(largest);
        prop_assert!(
            report.peak_buffered_bytes <= bound,
            "peak {} > bound {} (window {window}, largest {largest})",
            report.peak_buffered_bytes,
            bound
        );
    }
}

/// An index blob that fails its frame check, stored under its own digest
/// behind a manifest naming it, is a typed `BadIndex` — not a missing image —
/// and installs and pins nothing, though the files it names are cached. A
/// manifest whose blob is gone is still `ImageNotFound`.
#[test]
fn damaged_index_blob_is_a_typed_error() {
    let contents = [Bytes::from_static(b"cached body")];
    let (mut docker, store, r, trace) = publish_files(&contents);
    let mut client = GearClient::new(ClientConfig::default());
    let (id, _) = client.deploy(&r, &trace, &docker, &store).unwrap();
    client.destroy(id);
    assert!(client.remove_image(&r));
    assert_eq!(client.cache_stats().pinned_bytes, 0);

    let mut manifest = docker.manifest(&r).unwrap().clone();
    let mut bad = docker.blob(manifest.layers[0].digest).unwrap().to_vec();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    manifest.layers[0].digest = Digest::of(&bad);
    assert!(docker.restore_blob(manifest.layers[0].digest, bad));
    let damaged: ImageRef = "damaged:1".parse().unwrap();
    docker.restore_manifest(damaged.clone(), manifest.clone());

    let err = client.deploy(&damaged, &trace, &docker, &store).unwrap_err();
    assert!(
        matches!(err, DeployError::BadIndex(IndexError::Layer(LayerDecodeError::Frame(_)))),
        "{err}"
    );
    assert!(client.index(&damaged).is_none(), "a damaged index is not installed");
    assert!(client.cache_contains(Fingerprint::of(&contents[0])));
    assert_eq!(client.cache_stats().pinned_bytes, 0, "a damaged index pins nothing");

    manifest.layers[0].digest = Digest::of(b"a blob the registry never had");
    let gone: ImageRef = "gone:1".parse().unwrap();
    docker.restore_manifest(gone.clone(), manifest);
    let err = client.deploy(&gone, &trace, &docker, &store).unwrap_err();
    assert!(matches!(err, DeployError::ImageNotFound(_)), "{err}");
}
