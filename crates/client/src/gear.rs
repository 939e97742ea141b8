//! The Gear client: Gear Driver + Gear File Viewer + three-level storage.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_core::{GearIndex, IndexError};
use gear_fs::{FsError, Materializer, UnionFs};
use gear_hash::{Digest, Fingerprint};
use gear_image::ImageRef;
use gear_corpus::StartupTrace;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::{BudgetExhausted, FaultInjector, FaultPlan, NetMetrics, RetryPolicy};
use gear_store::{BlobStore, StoreStats};
use gear_telemetry::Telemetry;

use crate::cache::store_for;
use crate::config::ClientConfig;
use crate::replay::{price_batch, replay, Lane, RegistryChain, Session};
use crate::report::DeploymentReport;
use crate::timeline::TimelineEvent;

/// Handle to a deployed (level-3) container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Crate-internal constructor shared by all deployment engines.
    pub(crate) fn from_raw(n: u64) -> Self {
        ContainerId(n)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "container-{}", self.0)
    }
}

/// Errors from Gear deployments.
#[derive(Debug)]
pub enum DeployError {
    /// The image (or index image) is not in the Docker registry.
    ImageNotFound(ImageRef),
    /// The pulled image is not a Gear index image.
    BadIndex(IndexError),
    /// A trace path could not be read.
    Fs(FsError),
    /// No such container.
    NoSuchContainer(ContainerId),
    /// Injected faults exhausted the retry budget on one request; the
    /// deployment aborts with no partial state in the shared cache.
    FaultBudgetExhausted {
        /// Attempts the retry policy allowed (all consumed).
        attempts: u32,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::ImageNotFound(r) => write!(f, "image {r} not found in registry"),
            DeployError::BadIndex(e) => write!(f, "invalid Gear index image: {e}"),
            DeployError::Fs(e) => write!(f, "file system error during deployment: {e}"),
            DeployError::NoSuchContainer(id) => write!(f, "no such container: {id}"),
            DeployError::FaultBudgetExhausted { attempts } => {
                write!(f, "injected faults exhausted the retry budget ({attempts} attempts)")
            }
        }
    }
}

impl Error for DeployError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeployError::BadIndex(e) => Some(e),
            DeployError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for DeployError {
    fn from(e: FsError) -> Self {
        DeployError::Fs(e)
    }
}

impl From<IndexError> for DeployError {
    fn from(e: IndexError) -> Self {
        DeployError::BadIndex(e)
    }
}

impl From<BudgetExhausted> for DeployError {
    fn from(e: BudgetExhausted) -> Self {
        DeployError::FaultBudgetExhausted { attempts: e.attempts }
    }
}

/// The Gear deployment client (paper §III-D): pulls tiny index images,
/// union-mounts them, and materializes files on demand through the shared
/// cache, charging every operation to a simulated clock.
#[derive(Debug)]
pub struct GearClient {
    config: ClientConfig,
    cache: Box<dyn BlobStore>,
    /// Level 2: the installed indexes; containers mount their trees.
    indexes: HashMap<ImageRef, Arc<GearIndex>>,
    /// Level 3: each running container's union mount.
    containers: HashMap<ContainerId, UnionFs>,
    /// Compressed index-image blobs already local (skip re-downloading).
    blobs: HashSet<Digest>,
    metrics: NetMetrics,
    next_id: u64,
    /// Fault injection, inactive unless [`GearClient::inject_faults`] ran.
    faults: FaultInjector,
    telemetry: Telemetry,
}

/// A running client's complete persistent state, extracted for live
/// upgrade: the shared cache as serialized snapshot bytes (contents, pins,
/// eviction ticks, accrued I/O cost), the installed indexes, the local
/// index-image blobs, network accounting, and the container-id cursor.
///
/// [`GearClient::handoff`] produces one mid-traffic; a "new version"
/// instance built by [`GearClient::resume`] continues bit-identically —
/// same cache hits, same eviction victims, same priced timelines. Running
/// containers do not survive an upgrade (their union mounts are process
/// state); fault injection and telemetry must be re-attached by the new
/// instance.
#[derive(Debug, Clone)]
pub struct ClientHandoff {
    config: ClientConfig,
    cache: Vec<u8>,
    indexes: Vec<(ImageRef, Arc<GearIndex>)>,
    blobs: Vec<Digest>,
    metrics: NetMetrics,
    next_id: u64,
}

impl ClientHandoff {
    /// The serialized cache snapshot (the wire format an out-of-process
    /// upgrade would ship; see [`gear_store::StoreSnapshot::from_bytes`]).
    pub fn cache_bytes(&self) -> &[u8] {
        &self.cache
    }
}

impl GearClient {
    /// Creates a client with an empty cache and no installed indexes.
    pub fn new(config: ClientConfig) -> Self {
        Self::with_store(store_for(&config), config)
    }

    /// Creates a client over a pre-built blob store — how restored
    /// snapshots and custom (e.g. journaled) caches are mounted.
    /// The store must match what `config` describes; [`GearClient::new`] is
    /// the common path.
    pub fn with_store(cache: Box<dyn BlobStore>, config: ClientConfig) -> Self {
        GearClient {
            cache,
            config,
            indexes: HashMap::new(),
            containers: HashMap::new(),
            blobs: HashSet::new(),
            metrics: NetMetrics::new(),
            next_id: 0,
            faults: FaultInjector::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Extracts this client's persistent state for a live upgrade,
    /// consuming the instance (running containers are torn down with it).
    /// The cache travels as canonical snapshot bytes; indexes and blob
    /// digests are listed in deterministic (reference / digest) order.
    pub fn handoff(self) -> ClientHandoff {
        let mut indexes: Vec<(ImageRef, Arc<GearIndex>)> = self.indexes.into_iter().collect();
        indexes.sort_by_key(|(reference, _)| reference.to_string());
        let mut blobs: Vec<Digest> = self.blobs.into_iter().collect();
        blobs.sort();
        ClientHandoff {
            config: self.config,
            cache: self.cache.snapshot().to_bytes(),
            indexes,
            blobs,
            metrics: self.metrics,
            next_id: self.next_id,
        }
    }

    /// Builds the "new version" instance from a handoff. Subsequent
    /// behaviour is bit-identical to the instance that produced the
    /// handoff: the restored cache serves the same hits, evicts the same
    /// victims, and accrues I/O from the same cost baseline.
    ///
    /// # Errors
    ///
    /// [`gear_store::SnapshotError`] when the cache bytes are corrupt or hold
    /// a different kind of store than the handoff's configuration describes.
    pub fn resume(handoff: ClientHandoff) -> Result<Self, gear_store::SnapshotError> {
        let snapshot = gear_store::StoreSnapshot::from_bytes(&handoff.cache)?;
        let mut client = GearClient::with_store(
            crate::cache::restore_store_for(&handoff.config, &snapshot)?,
            handoff.config,
        );
        // Pins already live in the cache snapshot: the indexes go back in
        // without re-pinning (a second pin per file would survive one future
        // `remove_image` too many).
        client.indexes = handoff.indexes.into_iter().collect();
        client.blobs = handoff.blobs.into_iter().collect();
        client.metrics = handoff.metrics;
        client.next_id = handoff.next_id;
        Ok(client)
    }

    /// Attaches a telemetry recorder: every deployment is replayed into it
    /// as a span tree (deploy / pull / run phases with per-step child
    /// spans), counters and sketches accumulate under `client.*` /
    /// `cache.*` / `net.*` keys, and the container mount, fetch scheduler,
    /// and fault plan report through the same recorder.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.faults.set_recorder(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The client's telemetry handle (disabled unless
    /// [`GearClient::set_recorder`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Activates fault injection: every registry request this client makes
    /// draws from `plan`, and failed attempts are retried under `policy`
    /// (timeouts and backoff charged to the simulated deployment time).
    /// Exhausting the budget aborts the deployment with
    /// [`DeployError::FaultBudgetExhausted`] and leaves no partial entries
    /// in the shared cache.
    pub fn inject_faults(&mut self, mut plan: FaultPlan, policy: RetryPolicy) {
        plan.set_recorder(self.telemetry.clone());
        self.faults.inject(plan, policy);
    }

    /// Deactivates fault injection.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Failed request attempts retried since [`GearClient::inject_faults`].
    pub fn fault_retries(&self) -> u64 {
        self.faults.retries()
    }

    /// The client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Network accounting so far.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Shared-cache statistics.
    pub fn cache_stats(&self) -> StoreStats {
        self.cache.stats()
    }

    /// Resident bytes per tier, `(memory, disk)`. An untiered cache reports
    /// everything under memory.
    pub fn cache_tier_bytes(&self) -> (u64, u64) {
        self.cache.tier_bytes()
    }

    /// Resident bytes in the shared cache (scaled units).
    pub fn cache_bytes(&self) -> u64 {
        self.cache.bytes()
    }

    /// Whether `fingerprint` is resident in the shared cache.
    pub fn cache_contains(&self, fingerprint: Fingerprint) -> bool {
        self.cache.contains(fingerprint)
    }

    /// Empties the shared cache (the paper's "no local cache" scenario).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Deploys a Gear container: pulls the index image if missing (pull
    /// phase), then launches the container and replays its startup trace
    /// with on-demand fetching (run phase).
    ///
    /// # Errors
    ///
    /// [`DeployError::ImageNotFound`] when the registry lacks the index
    /// image; [`DeployError::BadIndex`] when the pulled image is not a Gear
    /// index; [`DeployError::Fs`] when a trace path cannot be served.
    pub fn deploy(
        &mut self,
        reference: &ImageRef,
        trace: &StartupTrace,
        docker: &DockerRegistry,
        store: &GearFileStore,
    ) -> Result<(ContainerId, DeploymentReport), DeployError> {
        let mut report = DeploymentReport::new(reference.clone());
        let retries_before = self.fault_retries();
        let base = self.telemetry.now();
        let metrics_before = self.metrics;
        let cache_before = if self.telemetry.enabled() {
            self.cache.stats()
        } else {
            StoreStats::default()
        };
        let mut chain = RegistryChain {
            config: self.config,
            own: self.cache.as_mut(),
            registry: store,
            faults: &mut self.faults,
            metrics: &mut self.metrics,
            chunked: false,
        };

        // ---- pull phase: fetch the (tiny) index image if missing -----------
        let pulled = chain
            .pull_index::<DeployError>(
                reference,
                docker,
                &mut self.blobs,
                &mut self.indexes,
                &mut report.timeline,
            )?
            .ok_or_else(|| DeployError::ImageNotFound(reference.clone()))?;
        report.pull = pulled.took;
        report.bytes_pulled = pulled.bytes;
        report.requests = pulled.requests;

        // ---- run phase: launch + replay the startup trace ------------------
        let replayed = replay::<_, DeployError>(
            &self.config,
            Arc::clone(pulled.index.tree()),
            trace,
            &mut chain,
            &self.telemetry,
            &mut report.timeline,
            report.pull,
        )?;
        for (_, charge) in &replayed.charges {
            if charge.lane == Lane::Local {
                report.cache_hits += 1;
            } else {
                report.files_fetched += 1;
                report.requests += 1;
                report.bytes_pulled += charge.bytes;
            }
        }
        report.run = replayed.run;
        report.peak_buffered_bytes = replayed.peak_buffered_bytes;
        report.retries = self.fault_retries() - retries_before;
        report.pinned_bytes = self.cache.stats().pinned_bytes;

        let id = ContainerId::from_raw(self.next_id);
        self.next_id += 1;
        self.containers.insert(id, replayed.mount);
        if self.telemetry.enabled() {
            self.record_deploy(&report, base, metrics_before, cache_before);
        }
        Ok((id, report))
    }

    /// Replays a finished deployment into the telemetry recorder: phase and
    /// per-step spans at their exact simulated offsets (recorded after the
    /// fact, so instrumentation can never perturb the priced timeline),
    /// plus counter/gauge/sketch updates for this deployment's deltas.
    fn record_deploy(
        &self,
        report: &DeploymentReport,
        base: Duration,
        metrics_before: NetMetrics,
        cache_before: StoreStats,
    ) {
        let t = &self.telemetry;
        t.scoped_span(
            "client",
            &format!("deploy {}", report.reference),
            base,
            report.total(),
            &[
                ("bytes_pulled", report.bytes_pulled),
                ("files_fetched", report.files_fetched),
                ("cache_hits", report.cache_hits),
            ],
        );
        if !report.pull.is_zero() {
            t.span_at("client", "pull", base, report.pull);
        }
        t.span_at("client", "run", base + report.pull, report.run);
        report.timeline.record_spans(t, base, None);

        t.count("client.deploys", 1);
        t.count("client.bytes_pulled", report.bytes_pulled);
        t.count("client.requests", report.requests);
        t.count("client.files_fetched", report.files_fetched);
        t.count("client.cache_hits", report.cache_hits);
        t.count("client.retries", report.retries);
        t.gauge_max("client.peak_buffered_bytes", report.peak_buffered_bytes);
        t.sketch("client.deploy_nanos", report.total().as_nanos() as u64);
        for (_, took, event) in report.timeline.entries() {
            if let TimelineEvent::RegistryFetch { bytes, .. } = event {
                t.sketch("client.fetch_bytes", *bytes);
            }
            if let Some(lane) = event.lane() {
                t.sketch(&format!("client.fetch_nanos.{lane}"), took.as_nanos() as u64);
            }
        }

        let cache_now = self.cache.stats();
        t.count("cache.hits", cache_now.hits - cache_before.hits);
        t.count("cache.misses", cache_now.misses - cache_before.misses);
        t.count("cache.evictions", cache_now.evictions - cache_before.evictions);
        t.count("cache.evicted_bytes", cache_now.evicted_bytes - cache_before.evicted_bytes);
        t.gauge_set("cache.pinned_bytes", cache_now.pinned_bytes);
        t.gauge_max("cache.bytes", self.cache.bytes());
        if self.config.tier.is_some() {
            let (l1_bytes, l2_bytes) = self.cache.tier_bytes();
            t.gauge_set("cache.l1_bytes", l1_bytes);
            t.gauge_set("cache.l2_bytes", l2_bytes);
        }

        t.count("net.bytes_down", self.metrics.bytes_down - metrics_before.bytes_down);
        t.count("net.bytes_up", self.metrics.bytes_up - metrics_before.bytes_up);
        t.count(
            "net.requests_down",
            self.metrics.requests_down - metrics_before.requests_down,
        );
        t.count("net.requests_up", self.metrics.requests_up - metrics_before.requests_up);
        // The cursor already sits at the deployment's end: the deploy
        // scoped_span dragged it there.
    }

    /// Serves `ops` requests on a running container (the paper's
    /// long-running workloads, Fig. 11a): each op reads `op_reads` paths
    /// (cached after the first touch) and spends `op_compute`.
    ///
    /// Returns total simulated service time; throughput = ops / time.
    ///
    /// # Errors
    ///
    /// [`DeployError::NoSuchContainer`] / [`DeployError::Fs`].
    pub fn serve(
        &mut self,
        id: ContainerId,
        ops: u64,
        op_compute: Duration,
        op_reads: &[String],
        store: &GearFileStore,
    ) -> Result<Duration, DeployError> {
        let config = self.config;
        let mut elapsed = Duration::ZERO;
        for _ in 0..ops {
            for path in op_reads {
                let (content, wait) =
                    self.read_through(id, store, false, |mount, m| mount.read(path, m))?;
                // Every op pays the local read, exactly as Docker does; only
                // a first-touch download additionally pays the network. Tier
                // I/O staged while serving this path (L2 hits and first-touch
                // write-through) is part of the op's latency.
                elapsed += config.local_read(config.scaled(content.len() as u64))
                    + wait
                    + self.cache.drain_cost();
            }
            elapsed += op_compute;
        }
        Ok(elapsed)
    }

    /// One read on container `id`'s mount through the client's source
    /// chain: the read's result and how long its misses — priced as one
    /// batch, so a `BigFile` range spanning K chunks is one pipelined fetch
    /// rather than K serial round-trips — made it wait. A `chunked` read
    /// fetches through the chunk verb and counts its chunk hits and misses.
    fn read_through<T>(
        &mut self,
        id: ContainerId,
        store: &GearFileStore,
        chunked: bool,
        read: impl FnOnce(&mut UnionFs, &dyn Materializer) -> Result<T, FsError>,
    ) -> Result<(T, Duration), DeployError> {
        let mount = self.containers.get_mut(&id).ok_or(DeployError::NoSuchContainer(id))?;
        let mut chain = RegistryChain {
            config: self.config,
            own: self.cache.as_mut(),
            registry: store,
            faults: &mut self.faults,
            metrics: &mut self.metrics,
            chunked,
        };
        let session = Session::new(&mut chain);
        let out = session.read::<_, DeployError>(0, |m| read(mount, m))?;
        let charges = session.take_charges();
        let (wait, _) = price_batch(
            &self.config,
            self.config.fetch.streams,
            charges.iter().map(|(_, charge)| charge),
            &self.telemetry,
        );
        if chunked && self.telemetry.enabled() {
            let hits = charges.iter().filter(|(_, c)| c.lane == Lane::Local).count();
            self.telemetry.count("client.chunk_hits", hits as u64);
            self.telemetry.count("client.chunk_misses", (charges.len() - hits) as u64);
        }
        Ok((out, wait))
    }

    /// Reads a byte range from a file in a running container, fetching only
    /// the Gear chunks the range overlaps (the paper's §VII big-file
    /// extension).
    ///
    /// # Errors
    ///
    /// [`DeployError::NoSuchContainer`] / [`DeployError::Fs`].
    pub fn read_range(
        &mut self,
        id: ContainerId,
        path: &str,
        offset: u64,
        len: u64,
        store: &GearFileStore,
    ) -> Result<Bytes, DeployError> {
        let (content, _) = self.read_through(id, store, true, |mount, m| {
            mount.read_range(path, offset, len, m)
        })?;
        self.telemetry.sketch("client.range_bytes", content.len() as u64);
        // Ranged reads return content, not a priced duration; drop the
        // staged tier time so it cannot leak into a later deployment.
        let _ = self.cache.drain_cost();
        Ok(content)
    }

    /// Writes into a running container's writable layer.
    ///
    /// # Errors
    ///
    /// [`DeployError::NoSuchContainer`] / [`DeployError::Fs`].
    pub fn write(
        &mut self,
        id: ContainerId,
        path: &str,
        content: Bytes,
    ) -> Result<(), DeployError> {
        let mount = self.containers.get_mut(&id).ok_or(DeployError::NoSuchContainer(id))?;
        Ok(mount.write(path, content)?)
    }

    /// Access to a container's mount (e.g. for committing it).
    pub fn mount(&self, id: ContainerId) -> Option<&UnionFs> {
        self.containers.get(&id)
    }

    /// The installed index of `reference`, if pulled.
    pub fn index(&self, reference: &ImageRef) -> Option<Arc<GearIndex>> {
        self.indexes.get(reference).cloned()
    }

    /// Destroys a container, returning the simulated unmount time — Gear
    /// tears down only the inodes the container actually touched (paper
    /// Fig. 11b).
    pub fn destroy(&mut self, id: ContainerId) -> Duration {
        match self.containers.remove(&id) {
            Some(mount) => self.config.costs.inode_teardown * (mount.inode_count() as u32),
            None => Duration::ZERO,
        }
    }

    /// Uninstalls an image's index (level 2). Its Gear files stay in the
    /// level-1 cache (unpinned) and remain shareable — the decoupled life
    /// cycle the paper's three-level structure provides.
    pub fn remove_image(&mut self, reference: &ImageRef) -> bool {
        if let Some(index) = self.indexes.remove(reference) {
            index.visit_files(|fingerprint, _| self.cache.unpin(fingerprint));
            true
        } else {
            false
        }
    }

    /// Number of running containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_core::{publish, Converter};
    use gear_corpus::{StartupTrace, TaskKind};
    use gear_fs::FsTree;
    use gear_image::ImageBuilder;
    use gear_simnet::FaultKind;

    fn setup(
        files: &[(&str, &[u8])],
        reference: &str,
    ) -> (DockerRegistry, GearFileStore, ImageRef) {
        let mut tree = FsTree::new();
        for (p, c) in files {
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
        }
        let r: ImageRef = reference.parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let conv = Converter::new().convert(&image).unwrap();
        let mut docker = DockerRegistry::new();
        let mut store = GearFileStore::new();
        publish(&conv, &mut docker, &mut store);
        (docker, store, r)
    }

    fn trace(paths: &[&str]) -> StartupTrace {
        StartupTrace {
            reads: paths.iter().map(|s| s.to_string()).collect(),
            task: TaskKind::Echo,
        }
    }

    #[test]
    fn deploy_fetches_on_demand() {
        let (docker, store, r) =
            setup(&[("app/bin", b"binary"), ("app/unused", b"never read")], "svc:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (_, report) = client.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();
        assert_eq!(report.files_fetched, 1, "only the accessed file is fetched");
        assert_eq!(report.cache_hits, 0);
        assert!(report.pull > Duration::ZERO);
        assert!(report.run > Duration::ZERO);
    }

    #[test]
    fn second_deploy_hits_cache() {
        let (docker, store, r) = setup(&[("app/bin", b"binary")], "svc:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (c1, first) = client.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();
        client.destroy(c1);
        let (_, second) = client.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();
        assert_eq!(first.files_fetched, 1);
        assert_eq!(second.files_fetched, 0);
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.pull, Duration::ZERO, "index already installed");
        assert!(second.total() < first.total());
    }

    #[test]
    fn cross_image_file_sharing() {
        // Two images sharing one file: deploying the second downloads only
        // its unique file.
        let (mut docker, mut store, r1) =
            setup(&[("lib/shared.so", b"shared bytes"), ("app/v1", b"one")], "app:1");
        let mut tree = FsTree::new();
        tree.create_file("lib/shared.so", Bytes::from_static(b"shared bytes")).unwrap();
        tree.create_file("app/v2", Bytes::from_static(b"two!")).unwrap();
        let r2: ImageRef = "app:2".parse().unwrap();
        let image2 = ImageBuilder::new(r2.clone()).layer_from_tree(&tree).build();
        let conv2 = Converter::new().convert(&image2).unwrap();
        publish(&conv2, &mut docker, &mut store);

        let mut client = GearClient::new(ClientConfig::default());
        client.deploy(&r1, &trace(&["lib/shared.so", "app/v1"]), &docker, &store).unwrap();
        let (_, second) =
            client.deploy(&r2, &trace(&["lib/shared.so", "app/v2"]), &docker, &store).unwrap();
        assert_eq!(second.cache_hits, 1, "shared library must come from the cache");
        assert_eq!(second.files_fetched, 1);
    }

    #[test]
    fn unknown_image_errors() {
        let docker = DockerRegistry::new();
        let store = GearFileStore::new();
        let mut client = GearClient::new(ClientConfig::default());
        let r: ImageRef = "ghost:1".parse().unwrap();
        assert!(matches!(
            client.deploy(&r, &trace(&[]), &docker, &store),
            Err(DeployError::ImageNotFound(_))
        ));
    }

    #[test]
    fn non_index_image_rejected() {
        let mut tree = FsTree::new();
        tree.create_file("plain", Bytes::from_static(b"not an index")).unwrap();
        let r: ImageRef = "plain:1".parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let mut docker = DockerRegistry::new();
        docker.push_image(&image);
        let store = GearFileStore::new();
        let mut client = GearClient::new(ClientConfig::default());
        assert!(matches!(
            client.deploy(&r, &trace(&[]), &docker, &store),
            Err(DeployError::BadIndex(_))
        ));
    }

    #[test]
    fn remove_image_unpins_but_keeps_files() {
        let (docker, store, r) = setup(&[("f", b"content")], "x:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (id, _) = client.deploy(&r, &trace(&["f"]), &docker, &store).unwrap();
        client.destroy(id);
        assert!(client.remove_image(&r));
        // The file is still cached (shareable by other images).
        assert!(client.cache_bytes() > 0);
        assert!(!client.remove_image(&r), "second removal is a no-op");
    }

    #[test]
    fn writes_stay_per_container() {
        let (docker, store, r) = setup(&[("f", b"content")], "x:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (a, _) = client.deploy(&r, &trace(&["f"]), &docker, &store).unwrap();
        let (b, _) = client.deploy(&r, &trace(&["f"]), &docker, &store).unwrap();
        client.write(a, "scratch", Bytes::from_static(b"mine")).unwrap();
        assert!(client.mount(a).unwrap().upper().contains("scratch"));
        assert!(!client.mount(b).unwrap().upper().contains("scratch"));
    }

    #[test]
    fn destroy_cost_scales_with_touched_inodes() {
        let (docker, store, r) =
            setup(&[("a", b"1"), ("b", b"2"), ("c", b"3")], "x:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (small, _) = client.deploy(&r, &trace(&["a"]), &docker, &store).unwrap();
        let (large, _) = client.deploy(&r, &trace(&["a", "b", "c"]), &docker, &store).unwrap();
        let t_small = client.destroy(small);
        let t_large = client.destroy(large);
        assert!(t_large > t_small);
        assert_eq!(client.container_count(), 0);
    }

    #[test]
    fn concurrent_streams_speed_up_cold_deploys_with_identical_results() {
        let files: Vec<(String, Vec<u8>)> =
            (0..30).map(|i| (format!("srv/f{i:02}"), vec![i as u8; 3_000])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (docker, store, r) = setup(&refs, "svc:1");
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let t = trace(&paths);
        let slow = ClientConfig {
            link: gear_simnet::Link::mbps(20.0).with_rtt(Duration::from_millis(20)),
            request_amplification: 4.0,
            ..ClientConfig::default()
        };

        let mut serial = GearClient::new(slow);
        let (_, one) = serial.deploy(&r, &t, &docker, &store).unwrap();
        let mut wide = GearClient::new(slow.with_streams(4));
        let (_, four) = wide.deploy(&r, &t, &docker, &store).unwrap();

        assert!(
            four.total() < one.total(),
            "4 streams {:?} !< serial {:?}",
            four.total(),
            one.total()
        );
        // Same work moved, same end state — only the schedule differs.
        assert_eq!(four.files_fetched, one.files_fetched);
        assert_eq!(four.bytes_pulled, one.bytes_pulled);
        assert_eq!(four.cache_hits, one.cache_hits);
        assert_eq!(four.requests, one.requests);
        assert_eq!(wide.cache_bytes(), serial.cache_bytes());
        assert!(four.peak_buffered_bytes > 0, "the window saw in-flight bytes");
        assert!(
            four.timeline
                .entries()
                .iter()
                .any(|(_, _, e)| matches!(e, TimelineEvent::ParallelFetch { files: 30, .. })),
            "the batch shows up as one parallel-fetch event"
        );
    }

    #[test]
    fn timeline_accounts_for_the_whole_deployment() {
        use crate::timeline::TimelineEvent;
        let (docker, store, r) = setup(&[("a", b"first"), ("b", b"second")], "svc:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (_, report) = client.deploy(&r, &trace(&["a", "b"]), &docker, &store).unwrap();
        // manifest + index + launch + 2 fetches + task.
        assert_eq!(report.timeline.len(), 6);
        // Event durations sum exactly to pull + run.
        let total: Duration = report.timeline.entries().iter().map(|(_, d, _)| *d).sum();
        assert_eq!(total, report.total());
        // Offsets are monotone.
        let offsets: Vec<Duration> =
            report.timeline.entries().iter().map(|(at, _, _)| *at).collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        // Fetch time matches the per-event classification.
        assert_eq!(
            report
                .timeline
                .entries()
                .iter()
                .filter(|(_, _, e)| matches!(e, TimelineEvent::RegistryFetch { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn transient_faults_slow_deployment_but_keep_results_identical() {
        let (docker, store, r) = setup(&[("app/bin", b"binary bytes")], "svc:1");

        let mut clean = GearClient::new(ClientConfig::default());
        let (_, baseline) = clean.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();

        let mut faulty = GearClient::new(ClientConfig::default());
        faulty.inject_faults(
            FaultPlan::new(7).fail_requests(0, 1, FaultKind::Drop),
            RetryPolicy::standard(11),
        );
        let (_, report) = faulty.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();

        assert_eq!(report.retries, 2, "two scripted drops were retried");
        assert_eq!(report.files_fetched, baseline.files_fetched);
        assert_eq!(report.bytes_pulled, baseline.bytes_pulled);
        assert_eq!(report.cache_hits, baseline.cache_hits);
        assert!(
            report.total() > baseline.total(),
            "retries cost simulated time: {:?} !> {:?}",
            report.total(),
            baseline.total()
        );
        assert_eq!(faulty.cache_bytes(), clean.cache_bytes(), "same files end up cached");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let (docker, store, r) = setup(&[("a", b"one"), ("b", b"two")], "svc:1");
        let deploy_once = || {
            let mut client = GearClient::new(ClientConfig::default());
            client.inject_faults(
                FaultPlan::new(42).with_drop(0.3),
                RetryPolicy::standard(42),
            );
            let (_, report) = client.deploy(&r, &trace(&["a", "b"]), &docker, &store).unwrap();
            report
        };
        assert_eq!(deploy_once(), deploy_once(), "same seeds → identical report");
    }

    #[test]
    fn exhausted_budget_aborts_with_no_partial_cache_entries() {
        let (docker, store, r) = setup(&[("app/bin", b"binary")], "svc:1");
        let mut client = GearClient::new(ClientConfig::default());
        client.inject_faults(FaultPlan::new(3).with_drop(1.0), RetryPolicy::standard(5));
        let err = client.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap_err();
        assert!(matches!(err, DeployError::FaultBudgetExhausted { attempts: 4 }));
        assert_eq!(client.cache_bytes(), 0, "aborted deploy left data in the cache");
        // Clearing the plan makes the same deployment succeed.
        client.clear_faults();
        let (_, report) = client.deploy(&r, &trace(&["app/bin"]), &docker, &store).unwrap();
        assert_eq!(report.retries, 0);
        assert_eq!(report.files_fetched, 1);
    }

    #[test]
    fn tiered_cache_prices_io_without_changing_results() {
        use crate::config::TierConfig;
        let (docker, store, r) =
            setup(&[("app/bin", b"binary bytes here"), ("app/cfg", b"config")], "svc:1");
        let t = trace(&["app/bin", "app/cfg"]);

        let mut flat = GearClient::new(ClientConfig::default());
        let (_, base) = flat.deploy(&r, &t, &docker, &store).unwrap();

        // L1 too small for either file: every cache access goes to L2 disk.
        let tiered_cfg = ClientConfig::default().with_tier(TierConfig {
            l1_capacity: Some(1),
            disk: gear_simnet::DiskModel::hdd(),
        });
        let mut tiered = GearClient::new(tiered_cfg);
        let (_, report) = tiered.deploy(&r, &t, &docker, &store).unwrap();

        // Same work moved; only local tier I/O was added.
        assert_eq!(report.files_fetched, base.files_fetched);
        assert_eq!(report.bytes_pulled, base.bytes_pulled);
        assert_eq!(report.cache_hits, base.cache_hits);
        assert_eq!(tiered.cache_bytes(), flat.cache_bytes());
        assert_eq!(tiered.cache_tier_bytes().0, 0, "nothing fits the 1-byte L1");
        assert!(report.total() > base.total(), "write-through disk time is charged");
        let tier_io =
            report.timeline.time_in(|e| matches!(e, TimelineEvent::TierIo));
        assert_eq!(report.total() - base.total(), tier_io, "the delta is exactly tier I/O");
        assert_eq!(report.timeline.len(), base.timeline.len() + 1, "one TierIo event");

        // Warm redeploys hit the same files whichever tier serves them.
        let (c, warm_tiered) = tiered.deploy(&r, &t, &docker, &store).unwrap();
        tiered.destroy(c);
        let (_, warm_flat) = flat.deploy(&r, &t, &docker, &store).unwrap();
        assert_eq!(warm_tiered.cache_hits, warm_flat.cache_hits);
    }

    #[test]
    fn live_upgrade_handoff_is_bit_identical_mid_traffic() {
        use crate::config::TierConfig;
        let files: Vec<(String, Vec<u8>)> =
            (0..12).map(|i| (format!("srv/f{i:02}"), vec![i as u8; 600])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (docker, store, r) = setup(&refs, "svc:1");
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        // A tiny tiered cache so the workload exercises eviction order and
        // accrued disk cost — the state a sloppy handoff would lose.
        let config = ClientConfig::default().with_tier(TierConfig {
            l1_capacity: Some(1_500),
            disk: gear_simnet::DiskModel::hdd(),
        });
        let warm = trace(&paths[..8]);
        let hot = trace(&paths[4..]);

        let mut control = GearClient::new(config);
        control.deploy(&r, &warm, &docker, &store).unwrap();

        let mut old_version = GearClient::new(config);
        old_version.deploy(&r, &warm, &docker, &store).unwrap();
        // Upgrade between requests: snapshot, ship bytes, resume.
        let new_version = GearClient::resume(old_version.handoff()).unwrap();
        let mut new_version = new_version;

        let (_, upgraded) = new_version.deploy(&r, &hot, &docker, &store).unwrap();
        let (_, expected) = control.deploy(&r, &hot, &docker, &store).unwrap();
        assert_eq!(upgraded, expected, "post-upgrade deployment diverged");
        assert_eq!(new_version.cache_stats(), control.cache_stats());
        assert_eq!(new_version.cache_tier_bytes(), control.cache_tier_bytes());
        assert_eq!(new_version.metrics(), control.metrics());

        // The id cursor survives: the next container keeps counting.
        let (id_new, _) = new_version.deploy(&r, &trace(&[]), &docker, &store).unwrap();
        let (id_control, _) = control.deploy(&r, &trace(&[]), &docker, &store).unwrap();
        assert_eq!(id_new, id_control);

        // Indexes survived without double-pinning: removing the image once
        // releases every pin.
        assert!(new_version.remove_image(&r));
        assert_eq!(new_version.cache_stats().pinned_bytes, 0, "pins leaked through handoff");
    }

    #[test]
    fn serve_runs_from_cache() {
        let (docker, store, r) = setup(&[("data/hot", b"hot file")], "x:1");
        let mut client = GearClient::new(ClientConfig::default());
        let (id, _) = client.deploy(&r, &trace(&["data/hot"]), &docker, &store).unwrap();
        let elapsed = client
            .serve(id, 100, Duration::from_micros(50), &["data/hot".to_string()], &store)
            .unwrap();
        assert!(elapsed >= Duration::from_millis(5)); // 100 × 50 µs compute
        // No extra downloads during service: manifest + index + one file.
        assert_eq!(client.metrics().requests_down, 3);
    }
}
