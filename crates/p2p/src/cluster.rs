//! The cluster: per-node caches + indexes, peer-first fetch policy.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_client::{
    replay, store_for, ClientConfig, FetchCharge, Fetched, Lane, RegistryChain, Sources, Timeline,
};
use gear_core::{GearIndex, IndexError};
use gear_corpus::StartupTrace;
use gear_fs::FsError;
use gear_hash::{Digest, Fingerprint};
use gear_image::ImageRef;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::{BudgetExhausted, FaultInjector, FaultPlan, Link, NetMetrics, RetryPolicy};
use gear_store::{BlobStore, SnapshotError};
use gear_telemetry::Telemetry;

use crate::directory::PeerDirectory;

/// Identifies a node within a [`Cluster`].
pub type NodeId = usize;

/// Errors from cluster deployments.
#[derive(Debug)]
pub enum ClusterError {
    /// Node id out of range.
    NoSuchNode(NodeId),
    /// The index image is not in the registry.
    ImageNotFound(ImageRef),
    /// The pulled image is not a Gear index image.
    BadIndex(IndexError),
    /// A trace path could not be served.
    Fs(FsError),
    /// A node's cache snapshot could not be rehydrated during an upgrade.
    Snapshot(SnapshotError),
    /// Injected faults exhausted the retry budget on a registry transfer
    /// (peers had already been tried; the registry was the last resort).
    FaultBudgetExhausted {
        /// Attempts the retry policy allowed (all consumed).
        attempts: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            ClusterError::ImageNotFound(r) => write!(f, "image {r} not found"),
            ClusterError::BadIndex(e) => write!(f, "invalid Gear index image: {e}"),
            ClusterError::Fs(e) => write!(f, "file system error: {e}"),
            ClusterError::Snapshot(e) => write!(f, "node upgrade failed: {e}"),
            ClusterError::FaultBudgetExhausted { attempts } => {
                write!(f, "injected faults exhausted the retry budget ({attempts} attempts)")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::BadIndex(e) => Some(e),
            ClusterError::Fs(e) => Some(e),
            ClusterError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexError> for ClusterError {
    fn from(e: IndexError) -> Self {
        ClusterError::BadIndex(e)
    }
}

impl From<BudgetExhausted> for ClusterError {
    fn from(e: BudgetExhausted) -> Self {
        ClusterError::FaultBudgetExhausted { attempts: e.attempts }
    }
}

impl From<FsError> for ClusterError {
    fn from(e: FsError) -> Self {
        ClusterError::Fs(e)
    }
}

/// Cluster topology and cost model.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Node↔node link (typically a fast LAN).
    pub peer_link: Link,
    /// Node↔registry link (typically a slower WAN uplink shared by all).
    pub registry_link: Link,
    /// Per-node client cost model (disk, local costs, byte scaling, and the
    /// fetch policy: with `client.fetch.streams > 1` a deploying node keeps
    /// that many transfers in flight, each peer holder an independent lane
    /// beside the shared uplink). `client.link` is unused — nodes reach the
    /// registry over `registry_link`.
    pub client: ClientConfig,
}

impl ClusterConfig {
    /// A LAN cluster: 10 Gbps between nodes, the paper's 904 Mbps testbed
    /// uplink to the registry.
    pub fn lan(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            peer_link: Link::mbps(10_000.0).with_rtt(Duration::from_micros(80)),
            registry_link: Link::paper_testbed(),
            client: ClientConfig::default(),
        }
    }

    /// An edge cluster: 1 Gbps local mesh, a thin 20 Mbps uplink — the
    /// regime where cooperative caching matters most.
    pub fn edge(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            peer_link: Link::mbps(1_000.0),
            registry_link: Link::mbps(20.0),
            client: ClientConfig::default(),
        }
    }

    /// Replaces the per-node client config (e.g. to set the byte scale).
    pub fn with_client(mut self, client: ClientConfig) -> Self {
        self.client = client;
        self
    }
}

/// Outcome of deploying on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDeployment {
    /// The node that deployed.
    pub node: NodeId,
    /// Simulated pull + run time.
    pub total: Duration,
    /// Files served from the node's own cache.
    pub local_files: u64,
    /// Files fetched from peers.
    pub peer_files: u64,
    /// Files fetched from the remote registry.
    pub registry_files: u64,
    /// Bytes fetched from peers (paper scale).
    pub peer_bytes: u64,
    /// Bytes fetched from the registry (paper scale).
    pub registry_bytes: u64,
    /// Failed transfer attempts retried or degraded under fault injection
    /// (zero when no fault plan is active).
    pub retries: u64,
    /// Ordered record of the deployment's steps, including
    /// [`gear_client::TimelineEvent::PeerFetch`] entries for files served by peers.
    pub timeline: Timeline,
}

#[derive(Debug)]
struct Node {
    /// Per-node blob store, built by [`store_for`] from the cluster's
    /// client config — a flat memory cache by default, a tiered
    /// memory-over-disk store when `client.tier` is set.
    cache: Box<dyn BlobStore>,
    indexes: HashMap<ImageRef, Arc<GearIndex>>,
    /// Compressed index-image blobs already local (skip re-downloading).
    blobs: HashSet<Digest>,
}

/// A cluster of Gear clients with a shared peer directory.
///
/// Fetch policy per fingerprint: own cache → any peer holding it (LAN) →
/// the Gear registry (uplink). Every fetched file is announced to the
/// directory, so each unique file crosses the uplink at most once for the
/// whole cluster.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<Node>,
    directory: PeerDirectory,
    /// What crossed the registry uplink, cluster-wide.
    uplink: NetMetrics,
    peer_traffic: u64,
    faults: FaultInjector,
    telemetry: Telemetry,
}

impl Cluster {
    /// Creates a cluster of `config.nodes` empty nodes.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.nodes)
            .map(|_| Node {
                cache: store_for(&config.client),
                indexes: HashMap::new(),
                blobs: HashSet::new(),
            })
            .collect();
        Cluster {
            config,
            nodes,
            directory: PeerDirectory::new(),
            uplink: NetMetrics::new(),
            peer_traffic: 0,
            faults: FaultInjector::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry recorder: each node deployment is replayed as a
    /// `p2p` span tree, fetch sources feed `p2p.*` counters, and peer
    /// degradations under fault injection emit instant events.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.faults.set_recorder(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Activates fault injection: every network transfer in the cluster
    /// (peer and registry alike) draws from `plan`. A failed peer transfer
    /// degrades to the next holder and finally to the registry; registry
    /// transfers are retried under `policy`, and only exhausting that last
    /// resort aborts the deployment with
    /// [`ClusterError::FaultBudgetExhausted`].
    pub fn inject_faults(&mut self, mut plan: FaultPlan, policy: RetryPolicy) {
        plan.set_recorder(self.telemetry.clone());
        self.faults.inject(plan, policy);
    }

    /// Deactivates fault injection.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Failed transfer attempts retried since [`Cluster::inject_faults`].
    pub fn fault_retries(&self) -> u64 {
        self.faults.retries()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes the registry served to this cluster (paper scale) — the
    /// number P2P distribution exists to minimize.
    pub fn registry_egress(&self) -> u64 {
        self.uplink.bytes_down
    }

    /// Total node-to-node bytes (paper scale).
    pub fn peer_traffic(&self) -> u64 {
        self.peer_traffic
    }

    /// The cluster-wide file directory.
    pub fn directory(&self) -> &PeerDirectory {
        &self.directory
    }

    /// Deploys `reference` on `node`, replaying `trace` with the
    /// peer-first fetch policy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchNode`], [`ClusterError::ImageNotFound`],
    /// [`ClusterError::BadIndex`], [`ClusterError::FaultBudgetExhausted`],
    /// or [`ClusterError::Fs`] if a trace path cannot be served (e.g. the
    /// file is in neither any cache nor the registry).
    pub fn deploy_on(
        &mut self,
        node: NodeId,
        reference: &ImageRef,
        trace: &StartupTrace,
        index_registry: &DockerRegistry,
        file_store: &GearFileStore,
    ) -> Result<NodeDeployment, ClusterError> {
        if node >= self.nodes.len() {
            return Err(ClusterError::NoSuchNode(node));
        }
        let uplink = self.config.client.with_link(self.config.registry_link);
        let retries_before = self.fault_retries();
        let base = self.telemetry.now();
        let mut timeline = Timeline::new();

        let (before, rest) = self.nodes.split_at_mut(node);
        let Some((Node { cache, indexes, blobs }, after)) = rest.split_first_mut() else {
            return Err(ClusterError::NoSuchNode(node));
        };
        let mut chain = NodeChain {
            base: RegistryChain {
                config: uplink,
                own: cache.as_mut(),
                registry: file_store,
                faults: &mut self.faults,
                metrics: &mut self.uplink,
                chunked: false,
            },
            node,
            before,
            after,
            directory: &mut self.directory,
            peer: self.config.client.with_link(self.config.peer_link),
            peer_traffic: &mut self.peer_traffic,
            telemetry: &self.telemetry,
        };

        // --- pull: install the index if missing, over the uplink ------------
        let pulled = chain
            .base
            .pull_index::<ClusterError>(reference, index_registry, blobs, indexes, &mut timeline)?
            .ok_or_else(|| ClusterError::ImageNotFound(reference.clone()))?;
        let (pull, tree) = (pulled.took, Arc::clone(pulled.index.tree()));

        // --- run: the shared replay over this node's source chain -----------
        // The replay itself records nothing: the finished timeline is
        // replayed into the recorder below, and the scratch mount's `fs.*`
        // counters describe no container anyone keeps.
        let quiet = Telemetry::noop();
        let replayed = replay::<_, ClusterError>(
            &uplink, tree, trace, &mut chain, &quiet, &mut timeline, pull,
        )?;

        let mut report = NodeDeployment {
            node,
            total: pull + replayed.run,
            local_files: 0,
            peer_files: 0,
            registry_files: 0,
            peer_bytes: 0,
            registry_bytes: 0,
            retries: self.fault_retries() - retries_before,
            timeline,
        };
        for (_, charge) in &replayed.charges {
            match charge.lane {
                Lane::Local => report.local_files += 1,
                Lane::Peer(_) => {
                    report.peer_files += 1;
                    report.peer_bytes += charge.bytes;
                }
                Lane::Registry => {
                    report.registry_files += 1;
                    report.registry_bytes += charge.bytes;
                }
            }
        }
        if self.telemetry.enabled() {
            self.record_deployment(&report, reference, base);
        }
        Ok(report)
    }

    /// Replays a finished node deployment into the telemetry recorder (same
    /// after-the-fact strategy as the client: pricing is never perturbed).
    fn record_deployment(&self, report: &NodeDeployment, reference: &ImageRef, base: Duration) {
        let t = &self.telemetry;
        t.scoped_span(
            "p2p",
            &format!("deploy node{} {}", report.node, reference),
            base,
            report.total,
            &[
                ("peer_files", report.peer_files),
                ("registry_files", report.registry_files),
            ],
        );
        report.timeline.record_spans(t, base, Some("p2p"));

        t.count("p2p.deploys", 1);
        t.count("p2p.local_files", report.local_files);
        t.count("p2p.peer_files", report.peer_files);
        t.count("p2p.peer_bytes", report.peer_bytes);
        t.count("p2p.registry_files", report.registry_files);
        t.count("p2p.registry_bytes", report.registry_bytes);
        t.count("p2p.retries", report.retries);
        t.gauge_set("p2p.registry_egress", self.uplink.bytes_down);
        t.gauge_set("p2p.peer_traffic", self.peer_traffic);
        t.sketch("p2p.deploy_nanos", report.total.as_nanos() as u64);
        for (_, took, event) in report.timeline.entries() {
            if let Some(lane) = event.lane() {
                t.sketch(&format!("p2p.fetch_nanos.{lane}"), took.as_nanos() as u64);
            }
        }
        // The cursor already sits at the deployment's end: the deploy
        // scoped_span dragged it there.
    }

    /// Live-upgrades one node mid-traffic: its cache state (contents, pins,
    /// eviction ticks, accrued I/O cost) is serialized to snapshot bytes —
    /// the payload an out-of-process upgrade would ship — and rehydrated
    /// into a "new version" store instance that behaves tick-for-tick
    /// identically. Directory announcements and installed indexes survive
    /// untouched, so peers keep fetching from the node across the upgrade.
    ///
    /// Returns the handoff payload size in bytes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchNode`]; [`ClusterError::Snapshot`] when the
    /// handoff bytes do not rehydrate (the node keeps its old store).
    pub fn upgrade_node(&mut self, node: NodeId) -> Result<usize, ClusterError> {
        let n = self.nodes.get_mut(node).ok_or(ClusterError::NoSuchNode(node))?;
        let bytes = n.cache.snapshot().to_bytes();
        let snapshot =
            gear_store::StoreSnapshot::from_bytes(&bytes).map_err(ClusterError::Snapshot)?;
        n.cache = gear_client::restore_store_for(&self.config.client, &snapshot)
            .map_err(ClusterError::Snapshot)?;
        if self.telemetry.enabled() {
            self.telemetry.count("p2p.upgrades", 1);
            self.telemetry.instant("p2p", &format!("upgrade node{node}"));
        }
        Ok(bytes.len())
    }

    /// Empties one node's cache (e.g. node failure / re-image), withdrawing
    /// its directory entries.
    pub fn reset_node(&mut self, node: NodeId) {
        if node >= self.nodes.len() {
            return;
        }
        // Withdraw everything this node announced.
        let fingerprints: Vec<Fingerprint> = self.nodes[node]
            .indexes
            .values()
            .flat_map(|index| index.referenced_files())
            .map(|(fp, _)| fp)
            .collect();
        for fp in fingerprints {
            self.directory.withdraw(fp, node);
        }
        self.nodes[node].cache.clear();
        self.nodes[node].indexes.clear();
        self.nodes[node].blobs.clear();
    }
}

/// A deploying node's source chain: own store → peer holders (directory
/// order, one attempt each — real P2P clients switch peers rather than
/// hammer a bad one) → registry. Every file the node admits is announced, so
/// each unique file crosses the uplink at most once cluster-wide.
struct NodeChain<'a> {
    /// Own store and registry: the first and last step.
    base: RegistryChain<'a>,
    node: NodeId,
    /// The other nodes: ids below and above `node`.
    before: &'a mut [Node],
    after: &'a mut [Node],
    directory: &'a mut PeerDirectory,
    /// The node cost model over the peer link.
    peer: ClientConfig,
    peer_traffic: &'a mut u64,
    telemetry: &'a Telemetry,
}

impl NodeChain<'_> {
    fn peer_cache(&mut self, peer: NodeId) -> &mut dyn BlobStore {
        let node = if peer < self.node {
            &mut self.before[peer]
        } else {
            &mut self.after[peer - self.node - 1]
        };
        node.cache.as_mut()
    }

    fn admit(&mut self, fingerprint: Fingerprint, content: Bytes) {
        if self.base.own.put(fingerprint, content) {
            self.directory.announce(fingerprint, self.node);
        }
    }
}

impl Sources for NodeChain<'_> {
    fn fetch(&mut self, fingerprint: Fingerprint) -> Result<Fetched, BudgetExhausted> {
        if let Some(hit) = self.base.hit(fingerprint) {
            return Ok(Some(hit));
        }
        // What failed peer attempts burnt before some source delivered.
        let mut lost = Duration::ZERO;
        for peer in self.directory.holders_except(fingerprint, self.node) {
            let cache = self.peer_cache(peer);
            let Some(content) = cache.get(fingerprint) else {
                // Stale directory entry (peer evicted): try the next holder.
                self.directory.withdraw(fingerprint, peer);
                continue;
            };
            // Serving from a tiered peer may stage disk time on the peer's
            // side; it occupies that holder's lane along with the transfer.
            let peer_tier_io = cache.drain_cost();
            let bytes = self.peer.scaled(content.len() as u64);
            let nominal = self.peer.request_time(bytes);
            match self.base.faults.attempt(nominal) {
                Ok(extra) => {
                    *self.peer_traffic += bytes;
                    self.admit(fingerprint, content.clone());
                    let charge = FetchCharge {
                        lane: Lane::Peer(peer as u64),
                        bytes,
                        delay: lost,
                        transfers: 0,
                        lane_time: nominal + extra + peer_tier_io,
                        post: self.peer.disk.io_time(bytes, 1) + self.peer.local_read(bytes),
                    };
                    return Ok(Some((content, charge)));
                }
                Err(wasted) => {
                    lost += wasted.total(nominal);
                    // A failed peer attempt degrades to the next holder (and
                    // eventually the registry) — worth a mark on the trace.
                    if self.telemetry.enabled() {
                        self.telemetry.count("p2p.degradations", 1);
                        self.telemetry.instant("p2p", "degrade");
                    }
                }
            }
        }
        let mut fetched = self.base.download(fingerprint)?;
        if let Some((content, charge)) = &mut fetched {
            charge.delay += lost;
            self.admit(fingerprint, content.clone());
        }
        Ok(fetched)
    }

    fn drain_cost(&mut self) -> Duration {
        self.base.drain_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_core::{publish, Converter};
    use gear_corpus::TaskKind;
    use gear_fs::FsTree;
    use gear_image::ImageBuilder;
    use gear_simnet::FaultKind;

    fn published(files: &[(&str, &[u8])]) -> (DockerRegistry, GearFileStore, ImageRef) {
        let mut tree = FsTree::new();
        for (p, c) in files {
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
        }
        let r: ImageRef = "app:1".parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let conv = Converter::new().convert(&image).unwrap();
        let mut reg = DockerRegistry::new();
        let mut store = GearFileStore::new();
        publish(&conv, &mut reg, &mut store);
        (reg, store, r)
    }

    fn trace(paths: &[&str]) -> StartupTrace {
        StartupTrace {
            reads: paths.iter().map(|s| s.to_string()).collect(),
            task: TaskKind::Echo,
        }
    }

    #[test]
    fn second_node_fetches_from_first() {
        let body = vec![7u8; 50_000];
        let (reg, store, r) = published(&[("lib/shared.so", &body)]);
        let mut cluster = Cluster::new(ClusterConfig::lan(3));
        let first = cluster.deploy_on(0, &r, &trace(&["lib/shared.so"]), &reg, &store).unwrap();
        assert_eq!(first.registry_files, 1);
        assert_eq!(first.peer_files, 0);

        let second = cluster.deploy_on(1, &r, &trace(&["lib/shared.so"]), &reg, &store).unwrap();
        assert_eq!(second.registry_files, 0, "the file must come from node 0");
        assert_eq!(second.peer_files, 1);
        // Registry egress counted the file once plus two index pulls.
        assert!(cluster.peer_traffic() > 0);
    }

    #[test]
    fn chunked_big_file_deploys_and_second_node_peers_per_chunk() {
        use gear_core::ConverterOptions;

        // A big file that the CDC converter splits into several chunks.
        let body: Vec<u8> = (0..60_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut tree = FsTree::new();
        tree.create_file("models/weights.bin", Bytes::from(body)).unwrap();
        tree.create_file("bin/app", Bytes::from_static(b"tiny launcher")).unwrap();
        let r: ImageRef = "chunked:1".parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let conv = Converter::with_options(ConverterOptions {
            big_file_threshold: Some(16 * 1024),
            cdc: Some(gear_hash::ChunkerConfig {
                min_size: 2 * 1024,
                avg_size: 8 * 1024,
                max_size: 32 * 1024,
            }),
            ..Default::default()
        })
        .convert(&image)
        .unwrap();
        let mut reg = DockerRegistry::new();
        let mut store = GearFileStore::new();
        publish(&conv, &mut reg, &mut store);
        let chunks =
            conv.gear_image.index().chunks_at("models/weights.bin").expect("file was chunked");
        assert!(chunks.len() > 1, "CDC must split the big file");

        let mut cluster = Cluster::new(ClusterConfig::lan(2));
        let t = trace(&["models/weights.bin", "bin/app"]);
        let first = cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
        // Every chunk plus the small file came from the registry.
        assert_eq!(first.registry_files as usize, chunks.len() + 1);
        assert_eq!(first.peer_files, 0);

        // The second node sources all of them chunk-by-chunk from node 0.
        let second = cluster.deploy_on(1, &r, &t, &reg, &store).unwrap();
        assert_eq!(second.registry_files, 0, "chunks must come from the peer");
        assert_eq!(second.peer_files as usize, chunks.len() + 1);
    }

    #[test]
    fn unique_files_cross_uplink_once_cluster_wide() {
        let (reg, store, r) =
            published(&[("a", &[1u8; 10_000]), ("b", &[2u8; 10_000]), ("c", &[3u8; 10_000])]);
        let mut cluster = Cluster::new(ClusterConfig::lan(8));
        let t = trace(&["a", "b", "c"]);
        let mut registry_files = 0;
        for node in 0..8 {
            let report = cluster.deploy_on(node, &r, &t, &reg, &store).unwrap();
            registry_files += report.registry_files;
        }
        assert_eq!(registry_files, 3, "each unique file leaves the registry exactly once");
    }

    #[test]
    fn peer_fetch_is_faster_on_edge_uplink() {
        let body = vec![9u8; 200_000];
        let (reg, store, r) = published(&[("blob", &body)]);
        let mut cluster = Cluster::new(ClusterConfig::edge(2));
        let t = trace(&["blob"]);
        let cold = cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
        let warm = cluster.deploy_on(1, &r, &t, &reg, &store).unwrap();
        assert!(
            warm.total < cold.total,
            "peer fetch over the LAN must beat the thin uplink: {:?} vs {:?}",
            warm.total,
            cold.total
        );
    }

    #[test]
    fn reset_node_withdraws_directory_entries() {
        let (reg, store, r) = published(&[("f", &[5u8; 5_000])]);
        let mut cluster = Cluster::new(ClusterConfig::lan(2));
        let t = trace(&["f"]);
        cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
        cluster.reset_node(0);
        // Node 1 cannot find a peer; must go to the registry.
        let report = cluster.deploy_on(1, &r, &t, &reg, &store).unwrap();
        assert_eq!(report.registry_files, 1);
        assert_eq!(report.peer_files, 0);
    }

    #[test]
    fn stale_directory_entry_falls_back_to_registry() {
        let (reg, store, r) = published(&[("f", &[5u8; 5_000])]);
        let mut cluster = Cluster::new(ClusterConfig::lan(2));
        let t = trace(&["f"]);
        cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
        // Evict behind the directory's back (simulates cache pressure).
        cluster.nodes[0].cache.clear();
        let report = cluster.deploy_on(1, &r, &t, &reg, &store).unwrap();
        assert_eq!(report.registry_files, 1, "stale peer entry must not fail the fetch");
    }

    #[test]
    fn cross_image_sharing_through_peers() {
        // Two images share a library; node 0 deploys image A, node 1 then
        // deploys image B and gets the shared file from node 0 — file-level
        // sharing composes across images *and* across nodes.
        let shared = vec![0xABu8; 20_000];
        let mut tree_a = FsTree::new();
        tree_a.create_file("lib/shared.so", Bytes::from(shared.clone())).unwrap();
        tree_a.create_file("bin/a", Bytes::from_static(b"A")).unwrap();
        let mut tree_b = FsTree::new();
        tree_b.create_file("lib/shared.so", Bytes::from(shared)).unwrap();
        tree_b.create_file("bin/b", Bytes::from_static(b"B")).unwrap();

        let ra: ImageRef = "svc-a:1".parse().unwrap();
        let rb: ImageRef = "svc-b:1".parse().unwrap();
        let image_a = gear_image::ImageBuilder::new(ra.clone()).layer_from_tree(&tree_a).build();
        let image_b = gear_image::ImageBuilder::new(rb.clone()).layer_from_tree(&tree_b).build();
        let mut reg = DockerRegistry::new();
        let mut store = GearFileStore::new();
        let converter = Converter::new();
        publish(&converter.convert(&image_a).unwrap(), &mut reg, &mut store);
        publish(&converter.convert(&image_b).unwrap(), &mut reg, &mut store);

        let mut cluster = Cluster::new(ClusterConfig::lan(2));
        let ta = trace(&["lib/shared.so", "bin/a"]);
        let tb = trace(&["lib/shared.so", "bin/b"]);
        cluster.deploy_on(0, &ra, &ta, &reg, &store).unwrap();
        let report = cluster.deploy_on(1, &rb, &tb, &reg, &store).unwrap();
        assert_eq!(report.peer_files, 1, "the shared library comes from node 0");
        assert_eq!(report.registry_files, 1, "only bin/b comes from the registry");
    }

    #[test]
    fn faulty_peer_degrades_to_another_peer() {
        let body = vec![5u8; 40_000];
        let (reg, store, r) = published(&[("f", &body)]);
        let mut cluster = Cluster::new(ClusterConfig::lan(3));
        let t = trace(&["f"]);
        cluster.deploy_on(0, &r, &t, &reg, &store).unwrap(); // registry
        cluster.deploy_on(1, &r, &t, &reg, &store).unwrap(); // peer 0
        // Node 2: draws 0 and 1 are its index pull (manifest, index layer),
        // draw 2 the first peer attempt.
        cluster.inject_faults(
            FaultPlan::new(9).fail_requests(2, 2, FaultKind::Drop),
            RetryPolicy::standard(9),
        );
        let report = cluster.deploy_on(2, &r, &t, &reg, &store).unwrap();
        assert_eq!(report.peer_files, 1, "the second holder serves the file");
        assert_eq!(report.registry_files, 0);
        assert_eq!(report.retries, 1);
    }

    #[test]
    fn all_peers_faulty_degrades_to_registry() {
        let body = vec![5u8; 40_000];
        let (reg, store, r) = published(&[("f", &body)]);
        let mut cluster = Cluster::new(ClusterConfig::lan(3));
        let t = trace(&["f"]);
        cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
        cluster.deploy_on(1, &r, &t, &reg, &store).unwrap();
        // Node 2: fail both peer attempts (draws 2 and 3, after the two of
        // the index pull); the registry attempt (draw 4) is clean.
        cluster.inject_faults(
            FaultPlan::new(9).fail_requests(2, 3, FaultKind::Drop),
            RetryPolicy::standard(9),
        );
        let clean = {
            let mut c = Cluster::new(ClusterConfig::lan(3));
            c.deploy_on(0, &r, &t, &reg, &store).unwrap();
            c.deploy_on(1, &r, &t, &reg, &store).unwrap();
            c.deploy_on(2, &r, &t, &reg, &store).unwrap()
        };
        let report = cluster.deploy_on(2, &r, &t, &reg, &store).unwrap();
        assert_eq!(report.peer_files, 0);
        assert_eq!(report.registry_files, 1, "the registry is the last resort");
        assert_eq!(report.retries, 2);
        assert!(
            report.total > clean.total,
            "degradation costs simulated time: {:?} !> {:?}",
            report.total,
            clean.total
        );
    }

    #[test]
    fn registry_exhaustion_is_a_typed_error() {
        let (reg, store, r) = published(&[("f", &[5u8; 5_000])]);
        let mut cluster = Cluster::new(ClusterConfig::lan(1));
        cluster.inject_faults(FaultPlan::new(2).with_drop(1.0), RetryPolicy::standard(4));
        assert!(matches!(
            cluster.deploy_on(0, &r, &trace(&["f"]), &reg, &store),
            Err(ClusterError::FaultBudgetExhausted { attempts: 4 })
        ));
        // Clearing the plan makes the same deployment succeed.
        cluster.clear_faults();
        let report = cluster.deploy_on(0, &r, &trace(&["f"]), &reg, &store).unwrap();
        assert_eq!(report.registry_files, 1);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn cluster_fault_injection_is_deterministic() {
        let (reg, store, r) = published(&[("a", &[1u8; 9_000]), ("b", &[2u8; 9_000])]);
        let t = trace(&["a", "b"]);
        let deploy_once = || {
            let mut cluster = Cluster::new(ClusterConfig::edge(2));
            cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
            cluster.inject_faults(
                FaultPlan::new(77).with_drop(0.4),
                RetryPolicy::standard(77),
            );
            cluster.deploy_on(1, &r, &t, &reg, &store).unwrap()
        };
        assert_eq!(deploy_once(), deploy_once(), "same seeds → identical deployment");
    }

    /// Publishes one image holding `files`, plus one single-file image per
    /// entry (same content → same fingerprint), so deploying the singles on
    /// distinct nodes seeds a distinct peer holder for every file.
    fn published_with_singles(
        files: &[(&str, &[u8])],
    ) -> (DockerRegistry, GearFileStore, ImageRef, Vec<ImageRef>) {
        let mut reg = DockerRegistry::new();
        let mut store = GearFileStore::new();
        let converter = Converter::new();

        let mut tree = FsTree::new();
        for (p, c) in files {
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
        }
        let all: ImageRef = "all:1".parse().unwrap();
        let image = ImageBuilder::new(all.clone()).layer_from_tree(&tree).build();
        publish(&converter.convert(&image).unwrap(), &mut reg, &mut store);

        let mut singles = Vec::new();
        for (i, (p, c)) in files.iter().enumerate() {
            let mut tree = FsTree::new();
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
            let r: ImageRef = format!("single-{i}:1").parse().unwrap();
            let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
            publish(&converter.convert(&image).unwrap(), &mut reg, &mut store);
            singles.push(r);
        }
        (reg, store, all, singles)
    }

    fn edge_with_streams(nodes: usize, streams: usize) -> ClusterConfig {
        ClusterConfig::edge(nodes).with_client(ClientConfig::default().with_streams(streams))
    }

    #[test]
    fn streams_beat_serial_across_distinct_holders() {
        let files: Vec<(String, Vec<u8>)> =
            (0..4).map(|i| (format!("f{i}"), vec![i as u8 + 1; 400_000])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (reg, store, all, singles) = published_with_singles(&refs);
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let t = trace(&paths);

        let deploy_with = |streams: usize| {
            let mut cluster = Cluster::new(edge_with_streams(5, streams));
            for (i, r) in singles.iter().enumerate() {
                let path = [paths[i]];
                cluster.deploy_on(i, r, &trace(&path), &reg, &store).unwrap();
            }
            cluster.deploy_on(4, &all, &t, &reg, &store).unwrap()
        };

        let serial = deploy_with(1);
        let fanned = deploy_with(4);
        assert_eq!(serial.peer_files, 4, "every file has a peer holder");
        assert_eq!(fanned.peer_files, 4);
        assert!(
            fanned.total < serial.total,
            "4 holders in parallel must beat holder-by-holder: {:?} !< {:?}",
            fanned.total,
            serial.total
        );
    }

    #[test]
    fn streams_overlap_registry_fixed_costs() {
        // No peers at all: streams still help by pipelining the uplink's
        // per-request fixed costs — the node prices the batch as a
        // standalone client does.
        let files: Vec<(String, Vec<u8>)> =
            (0..6).map(|i| (format!("f{i}"), vec![i as u8 + 1; 50_000])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (reg, store, r) = published(&refs);
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let t = trace(&paths);

        let deploy_with = |streams: usize| {
            let mut cluster = Cluster::new(edge_with_streams(1, streams));
            cluster.deploy_on(0, &r, &t, &reg, &store).unwrap()
        };
        let serial = deploy_with(1);
        let fanned = deploy_with(4);
        assert_eq!(serial.registry_files, 6);
        assert_eq!(fanned.registry_files, 6, "the same files move either way");
        assert_eq!(fanned.registry_bytes, serial.registry_bytes);
        assert!(
            fanned.total < serial.total,
            "pipelined uplink must beat serial requests: {:?} !< {:?}",
            fanned.total,
            serial.total
        );
    }

    #[test]
    fn more_streams_are_never_slower() {
        let files: Vec<(String, Vec<u8>)> =
            (0..3).map(|i| (format!("f{i}"), vec![i as u8 + 1; 120_000])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (reg, store, all, singles) = published_with_singles(&refs);
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();

        let mut previous = Duration::MAX;
        for streams in [1usize, 2, 4, 8] {
            let mut cluster = Cluster::new(edge_with_streams(4, streams));
            for (i, r) in singles.iter().enumerate() {
                let path = [paths[i]];
                cluster.deploy_on(i, r, &trace(&path), &reg, &store).unwrap();
            }
            let report = cluster.deploy_on(3, &all, &trace(&paths), &reg, &store).unwrap();
            assert!(
                report.total <= previous,
                "{streams} streams slower: {:?} > {:?}",
                report.total,
                previous
            );
            previous = report.total;
        }
    }

    #[test]
    fn multi_stream_fault_injection_is_deterministic() {
        let (reg, store, r) = published(&[("a", &[1u8; 9_000]), ("b", &[2u8; 9_000])]);
        let t = trace(&["a", "b"]);
        let deploy_once = || {
            let mut cluster = Cluster::new(edge_with_streams(2, 4));
            cluster.deploy_on(0, &r, &t, &reg, &store).unwrap();
            cluster.inject_faults(FaultPlan::new(77).with_drop(0.4), RetryPolicy::standard(77));
            cluster.deploy_on(1, &r, &t, &reg, &store).unwrap()
        };
        assert_eq!(deploy_once(), deploy_once(), "same seeds → identical deployment");
    }

    #[test]
    fn upgrade_under_load_changes_nothing_observable() {
        use gear_client::TierConfig;
        // Tiered node caches so the handoff must carry eviction ticks and
        // accrued disk cost, not just contents.
        let tiered = ClientConfig::default().with_tier(TierConfig {
            l1_capacity: Some(2_000),
            disk: gear_simnet::DiskModel::hdd(),
        });
        let files: Vec<(String, Vec<u8>)> =
            (0..6).map(|i| (format!("f{i}"), vec![i as u8 + 1; 9_000])).collect();
        let refs: Vec<(&str, &[u8])> =
            files.iter().map(|(p, c)| (p.as_str(), c.as_slice())).collect();
        let (reg, store, r) = published(&refs);
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let warm = trace(&paths[..4]);
        let hot = trace(&paths[2..]);

        let run = |upgrade: bool| {
            let mut cluster = Cluster::new(ClusterConfig::edge(3).with_client(tiered));
            cluster.deploy_on(0, &r, &warm, &reg, &store).unwrap();
            cluster.deploy_on(1, &r, &warm, &reg, &store).unwrap();
            if upgrade {
                let payload = cluster.upgrade_node(0).unwrap();
                assert!(payload > 0, "the handoff ships real state");
            }
            // Post-upgrade traffic: node 0 serves peers and keeps deploying.
            let third = cluster.deploy_on(2, &r, &hot, &reg, &store).unwrap();
            let again = cluster.deploy_on(0, &r, &hot, &reg, &store).unwrap();
            (third, again, cluster.registry_egress(), cluster.peer_traffic())
        };

        let control = run(false);
        let upgraded = run(true);
        assert_eq!(upgraded, control, "an upgraded node must be indistinguishable");
        assert!(upgraded.0.peer_files > 0, "the upgraded node still serves peers");
    }

    #[test]
    fn upgrade_node_out_of_range_is_a_typed_error() {
        let mut cluster = Cluster::new(ClusterConfig::lan(1));
        assert!(matches!(cluster.upgrade_node(5), Err(ClusterError::NoSuchNode(5))));
    }

    #[test]
    fn bad_node_and_bad_image() {
        let (reg, store, r) = published(&[("f", b"x")]);
        let mut cluster = Cluster::new(ClusterConfig::lan(1));
        assert!(matches!(
            cluster.deploy_on(9, &r, &trace(&[]), &reg, &store),
            Err(ClusterError::NoSuchNode(9))
        ));
        let ghost: ImageRef = "ghost:1".parse().unwrap();
        assert!(matches!(
            cluster.deploy_on(0, &ghost, &trace(&[]), &reg, &store),
            Err(ClusterError::ImageNotFound(_))
        ));
    }

    #[test]
    fn non_index_image_rejected() {
        let mut tree = FsTree::new();
        tree.create_file("plain", Bytes::from_static(b"not an index")).unwrap();
        let r: ImageRef = "plain:1".parse().unwrap();
        let mut reg = DockerRegistry::new();
        reg.push_image(&ImageBuilder::new(r.clone()).layer_from_tree(&tree).build());
        let mut cluster = Cluster::new(ClusterConfig::lan(1));
        assert!(matches!(
            cluster.deploy_on(0, &r, &trace(&[]), &reg, &GearFileStore::new()),
            Err(ClusterError::BadIndex(_))
        ));
    }
}
