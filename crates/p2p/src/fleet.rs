//! Event-driven fleet deployment: tens of thousands of clients over a
//! hierarchical topology against a sharded registry.
//!
//! [`FleetSim`] is the driver the event core in `gear-simnet` was built
//! for. It owns one [`EventQueue`] and one [`FifoLane`] per contended
//! resource — each site's LAN and uplink, the inter-site backbone, and
//! each registry shard's egress — and advances a single simulated clock by
//! popping events in deterministic `(time, push-order)` sequence. Cost is
//! O(events), never O(clients × polling).
//!
//! The deployment policy mirrors the hierarchical cache the paper's
//! related work describes (§VI-B): a client arriving at a cold node seeds
//! the node from, in order of preference, a **same-site holder over the
//! LAN**, a **sibling already seeding** (the node joins the site's waiter
//! list instead of crossing the WAN again), a **foreign holder over the
//! backbone**, or — only when nobody holds the image — the **sharded
//! registry**, object by object, with per-shard admission control,
//! replica failover, and seeded retry-with-backoff. Once a node is ready
//! every queued and future client deploys at LAN-local cost.
//!
//! Everything is deterministic: same topology, same schedule, same seed →
//! bit-identical report.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_hash::{fingerprint_all, Fingerprint};
use gear_par::Pool;
use gear_registry::{ShardRejection, ShardedStore};
use gear_simnet::{EventQueue, FifoLane, Link, RetryPolicy};
use gear_telemetry::{FleetCollector, MetricsRegistry, QuantileSketch};

use crate::cluster::NodeId;
use crate::directory::PeerDirectory;
use crate::topology::Topology;

/// Per-shard admission queue depth.
const QUEUE_DEPTH: u32 = 64;
/// Each shard's egress bandwidth.
const SHARD_MBPS: f64 = 1_000.0;
/// Attempts per object fetch before a registry seed fails — a patient
/// budget, so flash crowds drain through admission control instead of
/// losing clients. Backoff is [`RetryPolicy::standard`]'s.
const MAX_ATTEMPTS: u32 = 10;
/// Local container-launch cost charged per deployment.
const LAUNCH: Duration = Duration::from_millis(20);
/// Span retention per node flight recorder.
const SPAN_CAPACITY: usize = 64;

/// The registry a fleet runs against: how it is sharded, and the seed of
/// its hash ring and retry jitter.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Registry shards behind the consistent-hash ring.
    pub shards: u32,
    /// Replicas per object (clamped to the shard count).
    pub replication: usize,
    /// Seed for the hash ring and retry jitter.
    pub seed: u64,
}

impl FleetConfig {
    /// A 4-shard, 2-replica registry.
    pub fn standard(seed: u64) -> Self {
        FleetConfig { shards: 4, replication: 2, seed }
    }
}

/// How a node acquired (or is acquiring) the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedKind {
    /// From a same-site holder over the LAN.
    Lan,
    /// From a foreign holder over the backbone.
    Backbone,
    /// Object by object from the sharded registry.
    Registry,
    /// Parked on the site waiter list behind a sibling's seed.
    Waiter,
}

impl SeedKind {
    fn counter(self) -> &'static str {
        match self {
            SeedKind::Lan => "fleet.seed_lan",
            SeedKind::Backbone => "fleet.seed_backbone",
            SeedKind::Registry => "fleet.seed_registry",
            SeedKind::Waiter => "fleet.seed_waited",
        }
    }
}

#[derive(Debug)]
struct NodeState {
    /// Set once the image is installed; deployments then cost [`LAUNCH`].
    ready: Option<Duration>,
    /// The in-flight seed, if any.
    seeding: Option<SeedKind>,
    /// When the in-flight seed started (arrival of its first client).
    seed_started: Duration,
    /// Bumped by a site reset; stale completion events check it.
    generation: u32,
    /// Clients waiting for the node to become ready.
    queued: Vec<u32>,
    /// Deploy latencies of the node's clients completed since the last
    /// hand-over, tallied where the simulator reaches them without a lock
    /// or a key lookup. [`FleetSim::run`] hands the tally to the node's
    /// collector as `fleet.deploys` (its count) and `fleet.deploy_nanos`:
    /// counters add and sketches merge by exact bucket addition, so the
    /// collector ends up holding what recording each client there built.
    tally: QuantileSketch,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            ready: None,
            seeding: None,
            seed_started: Duration::ZERO,
            generation: 0,
            queued: Vec::new(),
            tally: QuantileSketch::new(),
        }
    }
}

#[derive(Debug, Default)]
struct SiteState {
    /// In-flight WAN seeds (registry or backbone) in this site; cold
    /// arrivals park as waiters while one is pending.
    wan_seeds: u32,
    /// Nodes waiting for a sibling's seed to finish.
    waiters: Vec<NodeId>,
}

/// One registry seed in flight: a node pulling every object.
#[derive(Debug)]
struct RegistrySeed {
    node: NodeId,
    generation: u32,
    remaining: usize,
    failed: bool,
}

/// One scheduled client. A million of these are held at once, so a node
/// is a `u32` and nothing is kept about the finish but the makespan.
#[derive(Debug)]
struct FleetClient {
    node: u32,
    arrive: Duration,
}

#[derive(Debug)]
struct FleetObject {
    wire: u64,
    /// The shards holding the object, primary first. The ring never
    /// changes during a run, so it is walked once, at build.
    replicas: Vec<u32>,
}

/// A queued event. Indices are `u32` — `new`, `schedule_client` and
/// `start_seed` check they fit — so an entry of the queue, which holds a
/// whole pre-scheduled crowd, is 40 bytes rather than 48.
#[derive(Debug)]
enum Event {
    /// Client `idx` arrives at its node.
    Arrive(u32),
    /// A shard finished serving one object: return the admission token.
    Release { shard: u32 },
    /// One object of registry seed `seed` fully delivered.
    ObjectDone { seed: u32 },
    /// Retry one object of registry seed `seed`.
    Fetch { seed: u32, object: u32, attempt: u32 },
    /// A LAN/backbone seed finished installing on `node`.
    SeedDone { node: u32, generation: u32 },
    /// Scripted: wipe a site (rolling update / re-image).
    ResetSite(u32),
    /// Scripted: take a registry shard down or bring it back.
    SetShardDown { shard: u32, down: bool },
}

/// What a fleet run produced: completion accounting, tail latencies from
/// the merged per-node sketches, traffic per link class, and registry
/// health counters.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Clients scheduled.
    pub clients: u32,
    /// Clients whose deployment completed.
    pub completed: u32,
    /// Clients lost to exhausted retry budgets (must be 0 when replicas
    /// cover every outage).
    pub lost: u32,
    /// Completion time of the last deployment.
    pub makespan: Duration,
    /// Median deployment latency (merged fleet sketch).
    pub p50: Duration,
    /// 99th-percentile deployment latency.
    pub p99: Duration,
    /// 99.9th-percentile deployment latency.
    pub p999: Duration,
    /// Worst deployment latency observed by the sketch.
    pub max: Duration,
    /// Samples in the merged latency sketch (site resets wipe their
    /// nodes' samples, so this can trail `completed`).
    pub deploy_samples: u64,
    /// Object fetches re-attempted after every replica refused.
    pub retries: u64,
    /// Fetch waves in which every replica refused admission.
    pub overload_rejections: u64,
    /// Store-level admission rejections summed over shards.
    pub shard_rejections: u64,
    /// Requests a down shard refused (served by a replica instead).
    pub shard_down_refusals: u64,
    /// max/min of per-shard admitted requests, over the shards no scripted
    /// outage took down during the run (a down shard admits nothing for
    /// reasons balance does not measure); ∞ if one of those served none.
    pub shard_balance: f64,
    /// Bytes that crossed site uplinks (registry traffic).
    pub registry_bytes: u64,
    /// Bytes that crossed site LANs.
    pub lan_bytes: u64,
    /// Bytes that crossed the inter-site backbone.
    pub backbone_bytes: u64,
    /// Events processed — the run's cost measure.
    pub events: u64,
    /// Spans shed by the bounded flight recorders.
    pub dropped_spans: u64,
    /// Structural telemetry validation failures (must be 0).
    pub validation_problems: usize,
    /// Resident bytes of fleet span storage.
    pub collector_bytes: u64,
}

/// An event-driven simulation of fleet-wide image deployment.
#[derive(Debug)]
pub struct FleetSim {
    topo: Topology,
    config: FleetConfig,
    store: ShardedStore,
    directory: PeerDirectory,
    fleet: Arc<FleetCollector>,
    queue: EventQueue<Event>,
    objects: Vec<FleetObject>,
    /// Representative fingerprint announced to the peer directory: holding
    /// it means holding the whole image.
    image_fp: Fingerprint,
    /// Whole-image wire bytes for peer (LAN/backbone) transfers.
    image_wire: u64,
    lan: Vec<FifoLane>,
    uplinks: Vec<FifoLane>,
    backbone: FifoLane,
    shard_lanes: Vec<FifoLane>,
    /// The client's amplified per-request fixed cost over the LAN, the
    /// backbone and each site's uplink.
    lan_fixed: Duration,
    backbone_fixed: Duration,
    uplink_fixed: Vec<Duration>,
    nodes: Vec<NodeState>,
    sites: Vec<SiteState>,
    seeds: Vec<RegistrySeed>,
    clients: Vec<FleetClient>,
    completed: u32,
    /// Finish of the latest deployment so far.
    makespan: Duration,
    lost: u32,
    retries: u64,
    overload_rejections: u64,
    down_refusals: u64,
    /// Shards a scripted outage takes down at some point of the run.
    outage_shards: Vec<u32>,
    processed: u64,
    /// Tallies a node's collector refused (a sketch of another resolution
    /// under `fleet.deploy_nanos`); reported as validation problems.
    refused_tallies: usize,
}

impl FleetSim {
    /// Builds a fleet over `topo` whose image consists of `objects`
    /// (fingerprint + content), placed on the replicas of a fresh sharded
    /// registry. Each object crosses the wire as its content length.
    ///
    /// # Panics
    ///
    /// Panics when `objects` is empty or an object's content does not
    /// match its fingerprint — both are programming errors in the
    /// scenario, not simulated conditions — or when the objects or the
    /// topology's nodes are too many for a `u32` to index.
    pub fn new(topo: Topology, config: FleetConfig, objects: &[(Fingerprint, Bytes)]) -> Self {
        assert!(!objects.is_empty(), "a fleet image needs at least one object");
        assert!(
            u32::try_from(objects.len()).is_ok() && u32::try_from(topo.nodes()).is_ok(),
            "fleet events index objects and nodes as u32"
        );
        let store = ShardedStore::new(config.shards, config.replication, QUEUE_DEPTH, config.seed);
        let mut manifest = Vec::with_capacity(objects.len());
        let mut image_wire = 0u64;
        let bodies: Vec<&Bytes> = objects.iter().map(|(_, content)| content).collect();
        let hashed = fingerprint_all(&bodies, &Pool::serial());
        for ((fp, content), actual) in objects.iter().zip(hashed) {
            assert!(
                actual == *fp,
                "fleet image object rejected: content hashes to {actual}, claimed {fp}"
            );
            let wire = content.len() as u64;
            image_wire += wire;
            manifest.push(FleetObject { wire, replicas: store.replicas_for(*fp) });
        }
        let image_fp = objects[0].0;
        let sites = topo.sites();
        let lan = (0..sites).map(|_| FifoLane::new(*topo.lan())).collect();
        let uplinks =
            (0..sites).map(|s| FifoLane::new(*topo.uplink(s as u32))).collect();
        let backbone = FifoLane::new(*topo.backbone());
        let shard_lanes =
            (0..config.shards).map(|_| FifoLane::new(Link::mbps(SHARD_MBPS))).collect();
        let client = topo.config().client;
        let fixed = |link: &Link| client.with_link(*link).amplified_fixed();
        let lan_fixed = fixed(topo.lan());
        let backbone_fixed = fixed(topo.backbone());
        let uplink_fixed = (0..sites).map(|s| fixed(topo.uplink(s as u32))).collect();
        let fleet = Arc::new(FleetCollector::new(topo.nodes() as u32, SPAN_CAPACITY));
        let nodes = (0..topo.nodes()).map(|_| NodeState::new()).collect();
        let site_states = (0..sites).map(|_| SiteState::default()).collect();
        FleetSim {
            topo,
            config,
            store,
            directory: PeerDirectory::new(),
            fleet,
            queue: EventQueue::new(),
            objects: manifest,
            image_fp,
            image_wire,
            lan,
            uplinks,
            backbone,
            shard_lanes,
            lan_fixed,
            backbone_fixed,
            uplink_fixed,
            nodes,
            sites: site_states,
            seeds: Vec::new(),
            clients: Vec::new(),
            completed: 0,
            makespan: Duration::ZERO,
            lost: 0,
            retries: 0,
            overload_rejections: 0,
            down_refusals: 0,
            outage_shards: Vec::new(),
            processed: 0,
            refused_tallies: 0,
        }
    }

    /// The fleet's per-node flight recorders. Per-seed records (the `seed`
    /// span, `fleet.seeds`, the seed-kind counters, `fleet.lost`) land as
    /// the simulation makes them; per-client metrics (`fleet.deploys`,
    /// `fleet.deploy_nanos`) are tallied by the simulator and reach each
    /// node's collector when [`FleetSim::run`] returns.
    pub fn fleet(&self) -> &Arc<FleetCollector> {
        &self.fleet
    }

    /// The sharded registry backing the run.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The topology the fleet runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Schedules one client to arrive at `node` at simulated time `at`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is outside the topology, or when `u32::MAX`
    /// clients are already scheduled.
    pub fn schedule_client(&mut self, node: NodeId, at: Duration) {
        assert!(node < self.topo.nodes(), "client scheduled on unknown node {node}");
        let idx = self.client_indices(1).start;
        self.clients.push(FleetClient { node: node as u32, arrive: at });
        self.queue.push(at, Event::Arrive(idx));
    }

    /// Schedules `count` clients round-robin across every node, the first
    /// at `start` and each subsequent one `spacing` later — the flash-crowd
    /// arrival pattern. The same as `count` calls of
    /// [`FleetSim::schedule_client`], but the arrivals reach the queue as
    /// one batch in time order, which it pops without a heap.
    ///
    /// # Panics
    ///
    /// Panics when the crowd takes the client count past `u32::MAX`.
    pub fn schedule_flash_crowd(&mut self, count: u32, start: Duration, spacing: Duration) {
        let nodes = self.topo.nodes();
        let indices = self.client_indices(count);
        // Pushed one by one, so `clients` grows by doubling and still has
        // room for a few stragglers; an exact reservation would double a
        // full million-row vector on the next push.
        for i in 0..count {
            self.clients.push(FleetClient {
                node: ((i as usize) % nodes) as u32,
                arrive: start + spacing * i,
            });
        }
        let crowd = &self.clients[indices.start as usize..];
        self.queue.extend(indices.zip(crowd).map(|(idx, c)| (c.arrive, Event::Arrive(idx))));
    }

    /// The indices the next `count` clients get.
    fn client_indices(&self, count: u32) -> Range<u32> {
        // Every client so far got its index here, so the count fits.
        let first = self.clients.len() as u32;
        let Some(end) = first.checked_add(count) else {
            panic!("fleet events index clients as u32");
        };
        first..end
    }

    /// Schedules a scripted wipe of `site` at `at`: every node loses its
    /// image, its directory announcements, and its telemetry shard, then
    /// re-seeds for any still-queued clients. Models a rolling update.
    pub fn schedule_site_reset(&mut self, site: u32, at: Duration) {
        self.queue.push(at, Event::ResetSite(site));
    }

    /// Schedules a registry shard outage over `[from, to)`: the shard
    /// refuses admission (typed `Down`) and replicas carry its keys.
    pub fn schedule_shard_outage(&mut self, shard: u32, from: Duration, to: Duration) {
        self.outage_shards.push(shard);
        self.queue.push(from, Event::SetShardDown { shard, down: true });
        self.queue.push(to, Event::SetShardDown { shard, down: false });
    }

    /// Drains the event queue, hands each node's per-client tally to its
    /// collector, and reports. Idempotent in the sense that running again
    /// with no new schedule is a no-op over the same report and the same
    /// collectors.
    pub fn run(&mut self) -> FleetReport {
        while let Some((t, event)) = self.queue.pop() {
            self.processed += 1;
            match event {
                Event::Arrive(client) => self.on_arrive(t, client),
                Event::Release { shard } => self.store.release(shard),
                Event::ObjectDone { seed } => self.on_object_done(t, seed),
                Event::Fetch { seed, object, attempt } => {
                    self.fetch_object(t, seed, object, attempt);
                }
                Event::SeedDone { node, generation } => {
                    if self.nodes[node as usize].generation == generation {
                        self.node_ready(t, node as usize);
                    }
                }
                Event::ResetSite(site) => self.on_reset_site(t, site),
                Event::SetShardDown { shard, down } => self.store.set_down(shard, down),
            }
        }
        self.hand_over_tallies();
        self.report()
    }

    /// Moves every non-empty tally into its node's collector, leaving the
    /// tally empty so a later run hands over only what came after.
    fn hand_over_tallies(&mut self) {
        for (node, state) in (0u32..).zip(&mut self.nodes) {
            if state.tally.count() == 0 {
                continue;
            }
            let latency = std::mem::take(&mut state.tally);
            let mut metrics = MetricsRegistry::new();
            metrics.add("fleet.deploys", latency.count());
            metrics.set_sketch("fleet.deploy_nanos", latency);
            if self.fleet.shard(node).merge_metrics(metrics).is_err() {
                self.refused_tallies += 1;
            }
        }
    }

    fn on_arrive(&mut self, t: Duration, client: u32) {
        let node = self.clients[client as usize].node as usize;
        if self.nodes[node].ready.is_some() {
            self.complete_client(client, t + LAUNCH);
            return;
        }
        self.nodes[node].queued.push(client);
        if self.nodes[node].seeding.is_none() {
            self.start_seed(t, node);
        }
    }

    /// Picks the cheapest source for a cold node, in policy order:
    /// same-site holder → wait on a sibling's WAN seed → foreign holder →
    /// sharded registry.
    fn start_seed(&mut self, t: Duration, node: NodeId) {
        let site = self.topo.site_of(node) as usize;
        let holders = self.directory.holders_scoped(self.image_fp, node, self.topo.site_map());
        let same_site = holders.first().is_some_and(|&h| self.topo.same_site(h, node));
        self.nodes[node].seed_started = t;
        if same_site {
            let slot = self.lan[site].transfer_with_fixed(t, self.lan_fixed, self.image_wire);
            self.nodes[node].seeding = Some(SeedKind::Lan);
            self.queue.push(
                slot.done,
                Event::SeedDone { node: node as u32, generation: self.nodes[node].generation },
            );
        } else if self.sites[site].wan_seeds > 0 {
            self.nodes[node].seeding = Some(SeedKind::Waiter);
            self.sites[site].waiters.push(node);
        } else if !holders.is_empty() {
            let slot =
                self.backbone.transfer_with_fixed(t, self.backbone_fixed, self.image_wire);
            self.nodes[node].seeding = Some(SeedKind::Backbone);
            self.sites[site].wan_seeds += 1;
            self.queue.push(
                slot.done,
                Event::SeedDone { node: node as u32, generation: self.nodes[node].generation },
            );
        } else {
            let Ok(seed) = u32::try_from(self.seeds.len()) else {
                panic!("fleet events index registry seeds as u32");
            };
            self.seeds.push(RegistrySeed {
                node,
                generation: self.nodes[node].generation,
                remaining: self.objects.len(),
                failed: false,
            });
            self.nodes[node].seeding = Some(SeedKind::Registry);
            self.sites[site].wan_seeds += 1;
            for object in 0..self.objects.len() as u32 {
                self.fetch_object(t, seed, object, 0);
            }
        }
    }

    /// One admission attempt for one object of a registry seed: the
    /// object's replicas in ring order, resolved at build, skipping shards
    /// that are down or full on this attempt. When every
    /// replica refuses, the whole wave backs off and retries.
    fn fetch_object(&mut self, t: Duration, seed: u32, object: u32, attempt: u32) {
        let s = &self.seeds[seed as usize];
        if s.failed || self.nodes[s.node].generation != s.generation {
            return;
        }
        let site = self.topo.site_of(s.node) as usize;
        let FleetObject { wire, ref replicas } = self.objects[object as usize];
        for &shard in replicas {
            match self.store.try_admit(shard) {
                Ok(()) => {
                    // Shard egress and the site uplink are crossed in
                    // parallel; the object lands when the slower
                    // finishes. The admission token is held for the
                    // shard's service time only.
                    let served = self.shard_lanes[shard as usize].transfer(t, wire);
                    let hauled =
                        self.uplinks[site].transfer_with_fixed(t, self.uplink_fixed[site], wire);
                    self.queue.push(served.done, Event::Release { shard });
                    self.queue.push(served.done.max(hauled.done), Event::ObjectDone { seed });
                    return;
                }
                Err(ShardRejection::Down) => self.down_refusals += 1,
                Err(ShardRejection::Overloaded) => {}
            }
        }
        self.overload_rejections += 1;
        let next = attempt + 1;
        if next < MAX_ATTEMPTS {
            self.retries += 1;
            let jitter = self.config.seed.wrapping_add((u64::from(seed) << 20) ^ u64::from(object));
            let backoff = RetryPolicy::standard(jitter).backoff(next);
            self.queue.push(t + backoff, Event::Fetch { seed, object, attempt: next });
        } else {
            self.fail_seed(t, seed);
        }
    }

    fn on_object_done(&mut self, t: Duration, seed: u32) {
        let s = &mut self.seeds[seed as usize];
        s.remaining -= 1;
        let node = s.node;
        if s.failed || s.remaining > 0 || self.nodes[node].generation != s.generation {
            return;
        }
        self.node_ready(t, node);
    }

    /// A registry seed ran out of retry budget: its node's queued clients
    /// are lost and the site's waiters re-plan.
    fn fail_seed(&mut self, t: Duration, seed: u32) {
        let s = &mut self.seeds[seed as usize];
        s.failed = true;
        let node = s.node;
        if self.nodes[node].generation != s.generation {
            return;
        }
        let site = self.topo.site_of(node) as usize;
        self.sites[site].wan_seeds = self.sites[site].wan_seeds.saturating_sub(1);
        let abandoned = std::mem::take(&mut self.nodes[node].queued);
        self.lost += abandoned.len() as u32;
        self.fleet.telemetry(node as u32).count("fleet.lost", abandoned.len() as u64);
        self.nodes[node].seeding = None;
        if self.sites[site].wan_seeds == 0 {
            let waiters = std::mem::take(&mut self.sites[site].waiters);
            for w in waiters {
                self.nodes[w].seeding = None;
                self.start_seed(t, w);
            }
        }
    }

    /// The image finished installing on `node`: complete queued clients,
    /// announce to the directory, and fan the site's waiters out over the
    /// LAN.
    fn node_ready(&mut self, r: Duration, node: NodeId) {
        let Some(kind) = self.nodes[node].seeding.take() else { return };
        self.nodes[node].ready = Some(r);
        let site = self.topo.site_of(node) as usize;
        if matches!(kind, SeedKind::Backbone | SeedKind::Registry) {
            self.sites[site].wan_seeds = self.sites[site].wan_seeds.saturating_sub(1);
        }
        let started = self.nodes[node].seed_started;
        let telemetry = self.fleet.telemetry(node as u32);
        telemetry.scoped_span(
            "fleet",
            "seed",
            started,
            r.saturating_sub(started),
            &[("bytes", self.image_wire)],
        );
        telemetry.count("fleet.seeds", 1);
        telemetry.count(kind.counter(), 1);
        self.directory.announce(self.image_fp, node);
        let queued = std::mem::take(&mut self.nodes[node].queued);
        for client in queued {
            self.complete_client(client, r + LAUNCH);
        }
        let waiters = std::mem::take(&mut self.sites[site].waiters);
        for w in waiters {
            let slot = self.lan[site].transfer_with_fixed(r, self.lan_fixed, self.image_wire);
            self.nodes[w].seeding = Some(SeedKind::Lan);
            self.queue.push(
                slot.done,
                Event::SeedDone { node: w as u32, generation: self.nodes[w].generation },
            );
        }
    }

    fn complete_client(&mut self, client: u32, finish: Duration) {
        let c = &self.clients[client as usize];
        self.completed += 1;
        self.makespan = self.makespan.max(finish);
        let latency = finish.saturating_sub(c.arrive);
        self.nodes[c.node as usize].tally.observe(latency.as_nanos() as u64);
    }

    /// Rolling-update semantics: every node in the site goes cold, its
    /// announcements withdraw, its telemetry shard and tally reset
    /// (post-upgrade tails never mix pre-upgrade samples), and nodes with
    /// queued clients immediately re-plan their seed. Queued clients are
    /// never lost to a reset — they wait for the re-seed.
    fn on_reset_site(&mut self, t: Duration, site: u32) {
        for node in self.topo.site_nodes(site) {
            self.directory.withdraw(self.image_fp, node);
            let ns = &mut self.nodes[node];
            ns.generation += 1;
            ns.ready = None;
            ns.seeding = None;
            ns.tally = QuantileSketch::new();
            self.fleet.reset_shard(node as u32);
        }
        self.sites[site as usize].wan_seeds = 0;
        self.sites[site as usize].waiters.clear();
        for node in self.topo.site_nodes(site) {
            if !self.nodes[node].queued.is_empty() {
                self.start_seed(t, node);
            }
        }
    }

    fn report(&self) -> FleetReport {
        // A failed merge is a validation problem, not an empty fleet.
        let (merged, merge_failed) = match self.fleet.merged_metrics() {
            Ok(merged) => (merged, false),
            Err(_) => (MetricsRegistry::new(), true),
        };
        let nanos = |v: Option<u64>| Duration::from_nanos(v.unwrap_or(0));
        let (p50, p99, p999, max, samples) = match merged.sketch("fleet.deploy_nanos") {
            Some(sketch) => (
                nanos(sketch.quantile(0.50)),
                nanos(sketch.quantile(0.99)),
                nanos(sketch.quantile(0.999)),
                nanos(sketch.max()),
                sketch.count(),
            ),
            None => (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO, 0),
        };
        let stats = self.store.shard_stats();
        let admitted: Vec<u64> = (0u32..)
            .zip(stats)
            .filter(|(shard, _)| !self.outage_shards.contains(shard))
            .map(|(_, s)| s.admitted)
            .collect();
        let shard_balance = match (admitted.iter().max(), admitted.iter().min()) {
            (Some(&hi), Some(&lo)) if lo > 0 => hi as f64 / lo as f64,
            (Some(&hi), _) if hi > 0 => f64::INFINITY,
            _ => 1.0,
        };
        FleetReport {
            clients: self.clients.len() as u32,
            completed: self.completed,
            lost: self.lost,
            makespan: self.makespan,
            p50,
            p99,
            p999,
            max,
            deploy_samples: samples,
            retries: self.retries,
            overload_rejections: self.overload_rejections,
            shard_rejections: stats.iter().map(|s| s.rejected).sum(),
            shard_down_refusals: self.down_refusals,
            shard_balance,
            registry_bytes: self.uplinks.iter().map(FifoLane::bytes).sum(),
            lan_bytes: self.lan.iter().map(FifoLane::bytes).sum(),
            backbone_bytes: self.backbone.bytes(),
            events: self.processed,
            dropped_spans: self.fleet.dropped_spans(),
            validation_problems: self.fleet.validate().len()
                + self.refused_tallies
                + usize::from(merge_failed),
            collector_bytes: self.fleet.span_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use gear_hash::Digest;

    fn image(objects: usize) -> Vec<(Fingerprint, Bytes)> {
        (0..objects)
            .map(|i| {
                let content = Bytes::from(format!("object-{i}-{}", "x".repeat(4_000 + i * 37)));
                (Fingerprint::of(&content), content)
            })
            .collect()
    }

    fn sim(sites: usize, nodes_per_site: usize, seed: u64) -> FleetSim {
        FleetSim::new(
            Topology::new(TopologyConfig::edge_fleet(sites, nodes_per_site)),
            FleetConfig::standard(seed),
            &image(12),
        )
    }

    /// The first mismatch in object order is the one named.
    #[test]
    #[should_panic(
        expected = "fleet image object rejected: content hashes to 7b7cb40dad90108744b0a50a2a7035bb"
    )]
    fn objects_that_do_not_hash_to_their_fingerprint_are_rejected() {
        let mut objects = image(3);
        objects[1].1 = Bytes::from_static(b"not what the fingerprint names");
        objects[2].1 = Bytes::from_static(b"nor is this");
        FleetSim::new(
            Topology::new(TopologyConfig::edge_fleet(1, 1)),
            FleetConfig::standard(1),
            &objects,
        );
    }

    #[test]
    fn flash_crowd_completes_everyone() {
        let mut fleet = sim(4, 4, 7);
        fleet.schedule_flash_crowd(400, Duration::ZERO, Duration::from_micros(50));
        let report = fleet.run();
        assert_eq!(report.completed, 400);
        assert_eq!(report.lost, 0);
        assert!(report.makespan > Duration::ZERO);
        assert!(report.p999 >= report.p99 && report.p99 >= report.p50);
        assert_eq!(report.validation_problems, 0);
        assert_eq!(report.deploy_samples, 400);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut fleet = sim(3, 5, seed);
            fleet.schedule_flash_crowd(300, Duration::ZERO, Duration::from_micros(20));
            fleet.schedule_shard_outage(1, Duration::from_millis(5), Duration::from_secs(2));
            fleet.run()
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a.makespan, b.makespan, "same seed, same makespan, bit for bit");
        assert_eq!(a.p999, b.p999);
        assert_eq!(a.events, b.events);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.registry_bytes, b.registry_bytes);
    }

    /// Every field of a report, `shard_balance` by its bits.
    fn fields(report: &FleetReport) -> Vec<u64> {
        let FleetReport {
            clients,
            completed,
            lost,
            makespan,
            p50,
            p99,
            p999,
            max,
            deploy_samples,
            retries,
            overload_rejections,
            shard_rejections,
            shard_down_refusals,
            shard_balance,
            registry_bytes,
            lan_bytes,
            backbone_bytes,
            events,
            dropped_spans,
            validation_problems,
            collector_bytes,
        } = *report;
        let nanos = |d: Duration| d.as_nanos() as u64;
        vec![
            u64::from(clients),
            u64::from(completed),
            u64::from(lost),
            nanos(makespan),
            nanos(p50),
            nanos(p99),
            nanos(p999),
            nanos(max),
            deploy_samples,
            retries,
            overload_rejections,
            shard_rejections,
            shard_down_refusals,
            shard_balance.to_bits(),
            registry_bytes,
            lan_bytes,
            backbone_bytes,
            events,
            dropped_spans,
            validation_problems as u64,
            collector_bytes,
        ]
    }

    /// Each node's `fleet.deploys`, and the SHA-256 of the merged metrics
    /// export.
    fn pinned_metrics(fleet: &FleetSim) -> (Vec<u64>, String) {
        let collectors = fleet.fleet();
        let deploys = (0..fleet.topology().nodes() as u32)
            .map(|node| collectors.shard(node).metrics().counter("fleet.deploys"))
            .collect();
        let json = collectors.metrics_json().expect("every sketch at default resolution");
        (deploys, Digest::of(json.as_bytes()).to_hex())
    }

    /// The fleet's metrics, pinned on a small topology. The first fleet
    /// takes a flash crowd through a shard outage, a site reset while
    /// clients are queued (they re-seed), a second reset once everyone is
    /// ready, and stragglers; the second has every replica down long
    /// enough that seeds run out of attempts and lose their clients, then
    /// serves stragglers once the shards are back.
    #[test]
    fn fleet_metrics_are_pinned() {
        let mut fleet = sim(4, 4, 7);
        fleet.schedule_shard_outage(1, Duration::ZERO, Duration::from_secs(2));
        fleet.schedule_flash_crowd(400, Duration::ZERO, Duration::from_micros(50));
        fleet.schedule_site_reset(2, Duration::from_millis(5));
        fleet.schedule_site_reset(0, Duration::from_secs(300));
        for (site, at) in [(0, 301), (2, 302), (3, 303)] {
            let node = fleet.topology().site_nodes(site).start + 1;
            fleet.schedule_client(node, Duration::from_secs(at));
        }
        let report = fleet.run();
        assert_eq!((report.completed, report.lost), (403, 0));
        assert_eq!(
            pinned_metrics(&fleet),
            (
                vec![0, 1, 0, 0, 25, 25, 25, 25, 25, 26, 25, 25, 25, 26, 25, 25],
                "cd5af4a6eefb6df77269b3a6dad9c33c5ced140c5e9b0a5dcb7864ca87d60052".to_owned(),
            )
        );

        let mut fleet = sim(2, 3, 11);
        for shard in 0..4 {
            fleet.schedule_shard_outage(shard, Duration::ZERO, Duration::from_secs(60));
        }
        fleet.schedule_flash_crowd(60, Duration::ZERO, Duration::from_millis(1));
        for (node, at) in [(0, 120), (4, 121), (4, 122)] {
            fleet.schedule_client(node, Duration::from_secs(at));
        }
        let report = fleet.run();
        assert_eq!((report.completed, report.lost), (3, 60));
        assert_eq!(
            pinned_metrics(&fleet),
            (
                vec![1, 0, 0, 0, 2, 0],
                "e039b602123af4adb1851b3fc482651d7ce0a2e1f9fcac7d77462e1563a67f17".to_owned(),
            )
        );
    }

    #[test]
    fn a_run_exports_each_deploy_exactly_once() {
        let mut fleet = sim(2, 3, 19);
        fleet.schedule_flash_crowd(90, Duration::ZERO, Duration::from_micros(30));
        fleet.schedule_site_reset(1, Duration::from_secs(300));
        let first = fleet.run();
        let metrics = fleet.fleet().merged_metrics().expect("default resolution");
        assert_eq!(metrics.counter("fleet.deploys"), 45, "site 1's deploys were reset");

        // Nothing scheduled: nothing moves, in the report or the collectors.
        let again = fleet.run();
        assert_eq!(fields(&again), fields(&first));
        assert_eq!(fleet.fleet().merged_metrics().expect("default resolution"), metrics);

        // Three more clients add exactly their three deploys.
        for node in [0, 3, 4] {
            fleet.schedule_client(node, Duration::from_secs(400));
        }
        let more = fleet.run();
        assert_eq!(more.completed, first.completed + 3);
        let after = fleet.fleet().merged_metrics().expect("default resolution");
        assert_eq!(after.counter("fleet.deploys"), 48);
        let samples = after.sketch("fleet.deploy_nanos").map(QuantileSketch::count);
        assert_eq!(samples, Some(48));
        assert_eq!(more.deploy_samples, 48);
        let per_node: Vec<u64> = (0..6)
            .map(|node| fleet.fleet().shard(node).metrics().counter("fleet.deploys"))
            .collect();
        assert_eq!(per_node, [16, 15, 15, 1, 1, 0]);
    }

    #[test]
    fn a_sketch_that_cannot_merge_is_a_validation_problem() {
        let mut fleet = sim(2, 2, 5);
        let mut coarse = MetricsRegistry::new();
        coarse.set_sketch("fleet.deploy_nanos", QuantileSketch::with_sub_bucket_bits(2));
        fleet.fleet().shard(1).merge_metrics(coarse).expect("the shard had no sketch");
        fleet.schedule_flash_crowd(40, Duration::ZERO, Duration::from_micros(10));
        let report = fleet.run();
        assert_eq!(report.completed, 40);
        // Node 1 refuses its tally, and the fleet-wide fold fails.
        assert_eq!(report.validation_problems, 2);
        // The refusal is whole: node 1 takes neither the count nor the
        // samples of its deploys, while every other node takes its own.
        let node1 = fleet.fleet().shard(1).metrics();
        assert_eq!(node1.counter("fleet.deploys"), 0);
        assert_eq!(node1.sketch("fleet.deploy_nanos").map(QuantileSketch::count), Some(0));
        let others: u64 = [0, 2, 3]
            .map(|node| fleet.fleet().shard(node).metrics().counter("fleet.deploys"))
            .iter()
            .sum();
        assert!(others < 40, "node 1 had deploys to refuse");
    }

    #[test]
    fn per_client_rows_stay_compact() {
        // A million of each are held at once: the queue's entry is the
        // event plus 24 bytes of key.
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<FleetClient>(), 24);
    }

    #[test]
    fn a_flash_crowd_is_its_clients_scheduled_one_by_one() {
        let spacing = Duration::from_micros(20);
        let run = |batched: bool| {
            let mut fleet = sim(3, 5, 17);
            // The rolling update's order: the outage, and so an event later
            // than every arrival, is queued before the crowd.
            fleet.schedule_shard_outage(0, Duration::ZERO, Duration::from_secs(120));
            if batched {
                fleet.schedule_flash_crowd(600, Duration::ZERO, spacing);
            } else {
                let nodes = fleet.topology().nodes();
                for i in 0..600u32 {
                    fleet.schedule_client(i as usize % nodes, spacing * i);
                }
            }
            fleet.schedule_site_reset(1, Duration::from_secs(300));
            fleet.schedule_client(5, Duration::from_secs(301));
            fleet.run()
        };
        let (batched, one_by_one) = (run(true), run(false));
        assert_eq!(batched.completed, 601);
        assert_eq!(fields(&batched), fields(&one_by_one));
    }

    #[test]
    fn site_locality_keeps_registry_traffic_per_site_not_per_node() {
        let mut fleet = sim(2, 8, 9);
        fleet.schedule_flash_crowd(160, Duration::ZERO, Duration::from_micros(10));
        let report = fleet.run();
        assert_eq!(report.lost, 0);
        // Each site crosses the WAN roughly once (one registry or
        // backbone seed); the other 7 nodes per site seed over the LAN.
        let wan = report.registry_bytes + report.backbone_bytes;
        assert!(
            wan <= 3 * (report.registry_bytes + report.lan_bytes + report.backbone_bytes) / 8,
            "WAN carried too much: registry={} backbone={} lan={}",
            report.registry_bytes,
            report.backbone_bytes,
            report.lan_bytes
        );
        assert!(report.lan_bytes > report.registry_bytes, "LAN should dominate");
    }

    #[test]
    fn shard_outage_loses_nothing_thanks_to_replicas() {
        let mut fleet = sim(4, 4, 11);
        // Shard 0 is down for the entire seeding phase.
        fleet.schedule_shard_outage(0, Duration::ZERO, Duration::from_secs(600));
        fleet.schedule_flash_crowd(320, Duration::ZERO, Duration::from_micros(25));
        let report = fleet.run();
        assert_eq!(report.lost, 0, "replicas must absorb the outage");
        assert_eq!(report.completed, 320);
        assert!(report.shard_down_refusals > 0, "the down shard was actually consulted");
        assert!(report.shard_balance.is_finite(), "balance is over the shards that stayed up");
    }

    #[test]
    fn warm_nodes_deploy_at_launch_cost() {
        let mut fleet = sim(1, 2, 3);
        fleet.schedule_client(0, Duration::ZERO);
        // Arrives an hour later: the node is long since ready.
        fleet.schedule_client(0, Duration::from_secs(3_600));
        let report = fleet.run();
        assert_eq!(report.completed, 2);
        let warm = report.makespan - Duration::from_secs(3_600);
        assert_eq!(warm, LAUNCH, "warm deploys cost exactly the launch");
    }

    #[test]
    fn site_reset_reseeds_and_drops_stale_samples() {
        let mut fleet = sim(2, 2, 5);
        fleet.schedule_flash_crowd(40, Duration::ZERO, Duration::from_micros(10));
        fleet.schedule_site_reset(0, Duration::from_secs(300));
        // Post-reset arrivals must re-seed site 0.
        fleet.schedule_client(0, Duration::from_secs(301));
        let report = fleet.run();
        assert_eq!(report.completed, 41);
        assert_eq!(report.lost, 0);
        assert!(
            report.deploy_samples < u64::from(report.completed),
            "the reset site's pre-reset samples are gone"
        );
        assert_eq!(report.validation_problems, 0);
    }

    #[test]
    fn event_cost_scales_with_work_not_clients_squared() {
        let mut fleet = sim(4, 4, 13);
        fleet.schedule_flash_crowd(1_000, Duration::ZERO, Duration::from_micros(5));
        let report = fleet.run();
        assert_eq!(report.lost, 0);
        // Arrivals dominate: everything else is per-seed, not per-client.
        assert!(
            report.events < 1_000 + 16 * 12 * 40,
            "event count blew up: {}",
            report.events
        );
    }
}
