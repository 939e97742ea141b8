//! Event-driven fleet deployment: up to a million clients over a
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
//! Clients are held as the formulas they were scheduled by. One row per
//! schedule call gives client `first + k` its node and arrival, and a
//! node's waiting clients are runs of those rows: a crowd's clients at one
//! node are `k, k + nodes, k + 2·nodes, …`, so a run is (row, `k`, count)
//! and an arrival extends it in O(1). When the node becomes ready each run
//! completes in one step: its latencies fall by `spacing × nodes` from one
//! client to the next, and [`QuantileSketch::observe_descending`] records
//! them with one step per sketch bucket. A client that finds its node
//! ready deploys in exactly the launch cost, so such clients are only
//! counted, and join the node's tally as one run when [`FleetSim::run`]
//! returns.
//!
//! A crowd's arrivals are consumed as ranges between queue events, not one
//! pop each. When the queue's next events are the crowd batch's,
//! [`FleetSim::run`] takes every one of them that pops before the next
//! other event and walks them in one loop: the row is looked up once, and
//! each next client arrives one spacing later at the next node. A range is
//! cut right after an arrival that pushes an event (one that starts a
//! seed), since that event may pop before the rest of the range; the
//! remainder is taken again once it leads.
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
use gear_simnet::{EventQueue, FifoLane, LeadingSpaced, Link, RetryPolicy};
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
    queued: Queued,
    /// Deploy latencies of the node's clients completed since the last
    /// hand-over, tallied where the simulator reaches them without a lock
    /// or a key lookup. [`FleetSim::run`] hands the tally to the node's
    /// collector as `fleet.deploys` (its count) and `fleet.deploy_nanos`:
    /// counters add and sketches merge by exact bucket addition, so the
    /// collector ends up holding what recording each client there built.
    tally: QuantileSketch,
    /// Clients that found the node ready since the last hand-over. Each
    /// deployed in exactly [`LAUNCH`]; they join `tally` at hand-over.
    launched: u64,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            ready: None,
            seeding: None,
            seed_started: Duration::ZERO,
            generation: 0,
            queued: Queued::default(),
            tally: QuantileSketch::new(),
            launched: 0,
        }
    }
}

/// Clients `k`, `k + nodes`, `k + 2·nodes`, … of crowd row `row`, `count`
/// of them: how a node's clients from one crowd arrive.
#[derive(Debug, Clone, Copy)]
struct Run {
    row: u32,
    k: u32,
    count: u32,
}

/// A node's waiting clients as runs of their crowds. The run still
/// growing is kept inline, so a node that queues from one crowd allocates
/// nothing.
#[derive(Debug, Default)]
struct Queued {
    closed: Vec<Run>,
    open: Option<Run>,
}

impl Queued {
    /// Queues client `k` of row `row` on a fleet of `nodes` nodes:
    /// extends the open run when the client is from its row, else closes
    /// it and opens another. A node's clients from one row arrive in index
    /// order, `nodes` apart, and only draining the queue ends a run early,
    /// so a client from the open run's row is always its next.
    fn push(&mut self, row: u32, k: u32, nodes: u32) {
        if let Some(run) = &mut self.open {
            if run.row == row {
                debug_assert_eq!(
                    u64::from(run.k) + u64::from(run.count) * u64::from(nodes),
                    u64::from(k)
                );
                run.count += 1;
                return;
            }
            self.closed.push(*run);
        }
        self.open = Some(Run { row, k, count: 1 });
    }

    fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.open.is_none()
    }

    /// Every run, closed ones first.
    fn into_runs(self) -> impl Iterator<Item = Run> {
        self.closed.into_iter().chain(self.open)
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

/// The clients of one schedule call, held as the call gave them: client
/// `first + k` arrives at node `(first_node + k) % nodes` at `start +
/// spacing * k`. A flash crowd of a million is one row; a lone client is a
/// crowd of one.
#[derive(Debug)]
struct Crowd {
    first: u32,
    first_node: u32,
    start: Duration,
    spacing: Duration,
}

#[derive(Debug)]
struct FleetObject {
    wire: u64,
    /// The shards holding the object, primary first. The ring never
    /// changes during a run, so it is walked once, at build.
    replicas: Vec<u32>,
}

/// A queued event. Indices are `u32` — `new`, `schedule_client` and
/// `start_seed` check they fit — so an entry of the queue is 40 bytes
/// rather than 48.
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
    /// One row per schedule call, in client-index order.
    crowds: Vec<Crowd>,
    /// Clients scheduled so far.
    clients: u32,
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
    /// scenario, not simulated conditions — when `config.shards` is zero
    /// ("a ring needs at least one shard"), or when the objects or the
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
        let uplinks = (0..sites).map(|s| FifoLane::new(*topo.uplink(s as u32))).collect();
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
            crowds: Vec::new(),
            clients: 0,
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
        let ids = self.client_indices(1);
        self.queue.push(at, Event::Arrive(ids.start));
        self.add_crowd(ids, node as u32, at, Duration::ZERO);
    }

    /// Schedules `count` clients round-robin across every node, the first
    /// at `start` and each subsequent one `spacing` later — the flash-crowd
    /// arrival pattern. The same as `count` calls of
    /// [`FleetSim::schedule_client`], but held as one row and one queue
    /// item, whose arrivals [`FleetSim::run`] takes as ranges.
    ///
    /// # Panics
    ///
    /// Panics when the crowd takes the client count past `u32::MAX`, or
    /// when its last arrival, `start + spacing × (count − 1)`, overflows
    /// `Duration` ("a spaced batch's last event overflows Duration").
    pub fn schedule_flash_crowd(&mut self, count: u32, start: Duration, spacing: Duration) {
        let ids = self.client_indices(count);
        self.queue.push_spaced(start, spacing, ids.clone(), Event::Arrive);
        self.add_crowd(ids, 0, start, spacing);
    }

    /// The indices the next `count` clients get.
    fn client_indices(&self, count: u32) -> Range<u32> {
        let Some(end) = self.clients.checked_add(count) else {
            panic!("fleet events index clients as u32");
        };
        self.clients..end
    }

    /// Records clients `ids`, the `k`-th at node `(first_node + k) % nodes`
    /// at `start + spacing × k`, as one row.
    fn add_crowd(&mut self, ids: Range<u32>, first_node: u32, start: Duration, spacing: Duration) {
        if !ids.is_empty() {
            self.crowds.push(Crowd { first: ids.start, first_node, start, spacing });
        }
        self.clients = ids.end;
    }

    /// The index of the row that scheduled `client`: a binary search of
    /// the rows, which are in client-index order.
    fn row_of(&self, client: u32) -> usize {
        self.crowds.partition_point(|c| c.first <= client) - 1
    }

    /// Schedules a scripted wipe of `site` at `at`: every node loses its
    /// image, its directory announcements, and its telemetry shard, then
    /// re-seeds for any still-queued clients. Models a rolling update.
    ///
    /// # Panics
    ///
    /// Panics when `site` is outside the topology.
    pub fn schedule_site_reset(&mut self, site: u32, at: Duration) {
        assert!((site as usize) < self.topo.sites(), "site reset scheduled on unknown site {site}");
        self.queue.push(at, Event::ResetSite(site));
    }

    /// Schedules a registry shard outage over `[from, to)`: the shard
    /// refuses admission (typed `Down`) and replicas carry its keys.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not one of the registry's `config.shards`.
    pub fn schedule_shard_outage(&mut self, shard: u32, from: Duration, to: Duration) {
        assert!(shard < self.config.shards, "outage scheduled on unknown shard {shard}");
        self.outage_shards.push(shard);
        self.queue.push(from, Event::SetShardDown { shard, down: true });
        self.queue.push(to, Event::SetShardDown { shard, down: false });
    }

    /// Drains the event queue, hands each node's per-client tally to its
    /// collector, and reports. Idempotent in the sense that running again
    /// with no new schedule is a no-op over the same report and the same
    /// collectors.
    pub fn run(&mut self) -> FleetReport {
        loop {
            if let Some(range) = self.queue.leading_spaced() {
                self.arrive_range(range);
                continue;
            }
            let Some((t, event)) = self.queue.pop() else { break };
            self.processed += 1;
            match event {
                Event::Arrive(client) => {
                    let row = self.row_of(client);
                    let crowd = &self.crowds[row];
                    let k = client - crowd.first;
                    let node = (crowd.first_node as usize + k as usize) % self.nodes.len();
                    self.arrive(t, row as u32, k, node);
                }
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

    /// Moves every non-empty tally, with the node's launch-cost deploys,
    /// into its node's collector, leaving the tally empty so a later run
    /// hands over only what came after.
    fn hand_over_tallies(&mut self) {
        let launch = LAUNCH.as_nanos() as u64;
        for (node, state) in (0u32..).zip(&mut self.nodes) {
            state.tally.observe_descending(launch, 0, std::mem::take(&mut state.launched));
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

    /// Takes the leading arrivals of the queue's front crowd batch in one
    /// loop instead of one pop each: the batch is one crowd row, and each
    /// next client arrives `spacing` later at the next node. The range is
    /// cut right after an arrival that pushes an event (it starts a seed),
    /// since that event may come before the rest of the range.
    fn arrive_range(&mut self, range: LeadingSpaced) {
        let LeadingSpaced { mut at, spacing, ids } = range;
        let row = self.row_of(ids.start);
        let crowd = &self.crowds[row];
        let mut k = ids.start - crowd.first;
        let nodes = self.nodes.len();
        let mut node = (crowd.first_node as usize + k as usize) % nodes;
        let pushed = self.queue.pushed();
        let mut taken = 0;
        loop {
            self.arrive(at, row as u32, k, node);
            taken += 1;
            if taken == ids.len() as u32 || self.queue.pushed() != pushed {
                break;
            }
            at += spacing;
            k += 1;
            node += 1;
            if node == nodes {
                node = 0;
            }
        }
        self.queue.skip_spaced(taken);
        self.processed += u64::from(taken);
    }

    /// Client `k` of crowd row `row` arrives at `node` at `t`.
    #[inline]
    fn arrive(&mut self, t: Duration, row: u32, k: u32, node: NodeId) {
        let nodes = self.nodes.len() as u32;
        let state = &mut self.nodes[node];
        if state.ready.is_some() {
            // The event fires at the client's arrival, so the client
            // deploys in exactly the launch cost.
            state.launched += 1;
            self.completed += 1;
            self.makespan = self.makespan.max(t + LAUNCH);
            return;
        }
        state.queued.push(row, k, nodes);
        if state.seeding.is_none() {
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
            let slot = self.backbone.transfer_with_fixed(t, self.backbone_fixed, self.image_wire);
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
        let queued = std::mem::take(&mut self.nodes[node].queued);
        let abandoned: u32 = queued.into_runs().map(|run| run.count).sum();
        self.lost += abandoned;
        self.fleet.telemetry(node as u32).count("fleet.lost", u64::from(abandoned));
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
        let finish = r + LAUNCH;
        for run in std::mem::take(&mut self.nodes[node].queued).into_runs() {
            self.complete_run(node, finish, run);
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

    /// Completes the queued clients of `run` at `finish`, in one step.
    /// Their latencies `finish − arrival` fall by `spacing × nodes` from
    /// one client to the next.
    fn complete_run(&mut self, node: NodeId, finish: Duration, run: Run) {
        self.completed += run.count;
        self.makespan = self.makespan.max(finish);
        let crowd = &self.crowds[run.row as usize];
        let nodes = self.nodes.len() as u32;
        let arrival = |j: u32| crowd.start + crowd.spacing * (run.k + j * nodes);
        let latency = |j: u32| finish.saturating_sub(arrival(j));
        let tally = &mut self.nodes[node].tally;
        match u64::try_from(latency(0).as_nanos()) {
            Ok(first) => {
                // A run of two or more clients was scheduled, so its last
                // arrival bounds the step; a lone client takes none.
                let step =
                    if run.count > 1 { (crowd.spacing * nodes).as_nanos() as u64 } else { 0 };
                tally.observe_descending(first, step, u64::from(run.count));
            }
            // Too long for `u64` nanoseconds: each latency is truncated on
            // its own, as one `observe` per client does.
            Err(_) => {
                for j in 0..run.count {
                    tally.observe(latency(j).as_nanos() as u64);
                }
            }
        }
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
            ns.launched = 0;
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
            clients: self.clients,
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
    use proptest::prelude::*;

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
    #[should_panic(expected = "outage scheduled on unknown shard 4")]
    fn an_outage_on_an_unknown_shard_is_rejected_when_scheduled() {
        sim(2, 2, 7).schedule_shard_outage(4, Duration::ZERO, Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "site reset scheduled on unknown site 2")]
    fn a_reset_of_an_unknown_site_is_rejected_when_scheduled() {
        sim(2, 2, 7).schedule_site_reset(2, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "a ring needs at least one shard")]
    fn a_fleet_without_shards_is_rejected() {
        FleetSim::new(
            Topology::new(TopologyConfig::edge_fleet(1, 1)),
            FleetConfig { shards: 0, ..FleetConfig::standard(1) },
            &image(3),
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
    fn a_crowd_is_one_row_and_one_queue_item() {
        let mut fleet = sim(2, 3, 7);
        fleet.schedule_client(4, Duration::from_secs(1));
        fleet.schedule_flash_crowd(1_000_000, Duration::ZERO, Duration::from_micros(2));
        assert_eq!(fleet.crowds.len(), 2, "the million clients added one row");
        assert_eq!((fleet.queue.len(), fleet.queue.pushed()), (1_000_001, 1_000_001));
        assert_eq!(fleet.clients, 1_000_001);
        // The booked events a run queues beside the crowd stay compact.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn a_crowd_of_none_schedules_nothing() {
        let mut fleet = sim(2, 3, 7);
        fleet.schedule_flash_crowd(0, Duration::MAX, Duration::MAX);
        assert!(fleet.crowds.is_empty());
        assert_eq!((fleet.queue.len(), fleet.queue.pushed()), (0, 0), "no sequence numbers taken");
        let report = fleet.run();
        assert_eq!((report.clients, report.completed, report.events), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "a spaced batch's last event overflows Duration")]
    fn a_crowd_whose_last_arrival_overflows_is_rejected_when_scheduled() {
        let mut fleet = sim(2, 3, 7);
        fleet.schedule_flash_crowd(
            3,
            Duration::MAX - Duration::from_secs(1),
            Duration::from_secs(1),
        );
    }

    /// One schedule call of a scenario.
    #[derive(Debug, Clone)]
    enum Step {
        /// `count` clients round-robin from node 0, `spacing` apart.
        Crowd {
            count: u32,
            start: Duration,
            spacing: Duration,
        },
        Client {
            node: usize,
            at: Duration,
        },
        Reset {
            site: u32,
            at: Duration,
        },
        Outage {
            shards: Range<u32>,
            from: Duration,
            to: Duration,
        },
        /// Drain the queue and keep the report.
        Run,
    }

    /// Plays `steps` on `fleet`, each crowd as one `schedule_flash_crowd`
    /// call (`batched`) or as its clients scheduled one by one, which makes
    /// every client a row of one and every node queue runs of one. Returns
    /// each run's report fields and the merged metrics.
    fn play(
        mut fleet: FleetSim,
        steps: &[Step],
        batched: bool,
    ) -> (Vec<Vec<u64>>, MetricsRegistry) {
        let nodes = fleet.topology().nodes();
        let mut reports = Vec::new();
        for step in steps {
            match *step {
                Step::Crowd { count, start, spacing } if batched => {
                    fleet.schedule_flash_crowd(count, start, spacing);
                }
                Step::Crowd { count, start, spacing } => {
                    for i in 0..count {
                        fleet.schedule_client(i as usize % nodes, start + spacing * i);
                    }
                }
                Step::Client { node, at } => fleet.schedule_client(node, at),
                Step::Reset { site, at } => fleet.schedule_site_reset(site, at),
                Step::Outage { ref shards, from, to } => {
                    for shard in shards.clone() {
                        fleet.schedule_shard_outage(shard, from, to);
                    }
                }
                Step::Run => reports.push(fields(&fleet.run())),
            }
        }
        (reports, fleet.fleet().merged_metrics().expect("default resolution"))
    }

    /// Two crowds with different spacings and stragglers between them, the
    /// outage (an event later than every arrival) queued first; then a
    /// third crowd and a straggler after the first run.
    #[test]
    fn a_flash_crowd_is_its_clients_scheduled_one_by_one() {
        let (ms, secs) = (Duration::from_millis, Duration::from_secs);
        let steps = [
            Step::Outage { shards: 0..1, from: Duration::ZERO, to: secs(120) },
            Step::Crowd { count: 600, start: Duration::ZERO, spacing: Duration::from_micros(20) },
            Step::Client { node: 7, at: ms(3) },
            Step::Client { node: 2, at: secs(200) },
            Step::Crowd { count: 250, start: ms(5), spacing: Duration::from_micros(130) },
            Step::Reset { site: 1, at: secs(300) },
            Step::Client { node: 5, at: secs(301) },
            Step::Run,
            Step::Crowd { count: 40, start: secs(400), spacing: ms(3) },
            Step::Client { node: 11, at: secs(400) },
            Step::Run,
        ];
        let batched = play(sim(3, 5, 17), &steps, true);
        assert_eq!(batched.0[0][1], 853, "the first run completes every client");
        assert_eq!(batched.0[1][1], 894);
        assert_eq!(batched, play(sim(3, 5, 17), &steps, false));
    }

    /// A node that is ready before a crowd starts makes the crowd's first
    /// client at each cold node of its site start a LAN seed (and of the
    /// other sites, a backbone seed), each cutting the range of arrivals it
    /// falls in. The seeds finish milliseconds later, inside the crowd's
    /// window.
    #[test]
    fn a_lan_seed_that_lands_inside_a_crowds_window_cuts_the_range() {
        let us = Duration::from_micros;
        let steps = [
            Step::Client { node: 0, at: Duration::ZERO },
            Step::Crowd { count: 600, start: Duration::from_secs(10), spacing: us(100) },
            Step::Run,
        ];
        let batched = play(sim(2, 3, 23), &steps, true);
        let [completed, makespan, lan, backbone] = [1, 3, 15, 16].map(|i| batched.0[0][i]);
        assert_eq!(completed, 601);
        // The crowd spans 60 ms, and its last client deploys at launch
        // cost: every seed ended inside the window.
        let last_arrival = Duration::from_secs(10) + us(100) * 599;
        assert_eq!(makespan, (last_arrival + LAUNCH).as_nanos() as u64);
        assert!(lan > 0 && backbone > 0, "lan {lan}, backbone {backbone}");
        assert_eq!(batched, play(sim(2, 3, 23), &steps, false));
    }

    /// Every shard goes down at the instant a spacing-0 crowd arrives, the
    /// outage pushed first, so the outage wins the tie and every seed meets
    /// it. A second outage pushed after the crowd at the same instant loses
    /// the tie to every arrival.
    #[test]
    fn an_outage_pushed_before_a_spacing_0_crowd_at_its_instant_goes_first() {
        let secs = Duration::from_secs;
        let steps = [
            Step::Outage { shards: 0..3, from: secs(5), to: secs(90) },
            Step::Crowd { count: 200, start: secs(5), spacing: Duration::ZERO },
            Step::Outage { shards: 3..4, from: secs(5), to: secs(90) },
            Step::Run,
        ];
        let batched = play(sim(3, 5, 29), &steps, true);
        let (retries, down_refusals) = (batched.0[0][9], batched.0[0][12]);
        assert!(retries > 0 && down_refusals > 0, "the seeds met the outage");
        assert_eq!(batched, play(sim(3, 5, 29), &steps, false));
    }

    /// Stragglers scheduled inside a crowd's window: one between two of its
    /// arrivals, one at an arrival's instant (pushed after it, so it loses
    /// the tie), one before its first arrival.
    #[test]
    fn a_straggler_inside_a_crowds_window_cuts_the_range() {
        let us = Duration::from_micros;
        let steps = [
            Step::Crowd { count: 500, start: us(1_000), spacing: us(100) },
            Step::Client { node: 4, at: us(11_050) },
            Step::Client { node: 2, at: us(21_000) },
            Step::Client { node: 13, at: us(500) },
            Step::Run,
        ];
        let batched = play(sim(3, 5, 31), &steps, true);
        assert_eq!(batched.0[0][1], 503, "every client completes");
        assert_eq!(batched, play(sim(3, 5, 31), &steps, false));
    }

    proptest! {
        /// Any mix of crowds (spacing 0 included), stragglers, site resets,
        /// an outage of every shard long enough to lose clients, and a
        /// second schedule and run: the batched fleet reports and records
        /// what its clients scheduled one by one do.
        #[test]
        fn any_flash_crowd_is_its_clients_scheduled_one_by_one(
            (wide, seed) in (any::<bool>(), 0u64..1_000),
            crowds in prop::collection::vec(
                (0u32..300, 0u64..20_000, prop_oneof![Just(0u64), 1u64..400]),
                1..4,
            ),
            stragglers in prop::collection::vec((0usize..15, 0u64..150_000), 0..6),
            resets in prop::collection::vec(
                (0u32..3, prop_oneof![0u64..500, 0u64..300_000]),
                0..3,
            ),
            lossy in any::<bool>(),
            second in prop::collection::vec((0u32..100, 0u64..400), 0..2),
        ) {
            let (sites, per_site) = if wide { (3, 5) } else { (2, 3) };
            let us = Duration::from_micros;
            let mut steps = Vec::new();
            if lossy {
                let to = Duration::from_secs(60);
                steps.push(Step::Outage { shards: 0..4, from: Duration::ZERO, to });
            }
            for (i, &(count, start, spacing)) in crowds.iter().enumerate() {
                steps.push(Step::Crowd { count, start: us(start), spacing: us(spacing) });
                if i == 0 {
                    for &(node, at) in &stragglers {
                        steps.push(Step::Client { node: node % (sites * per_site), at: us(at) });
                    }
                }
            }
            for &(site, at) in &resets {
                let at = Duration::from_millis(at);
                steps.push(Step::Reset { site: site % sites as u32, at });
            }
            steps.push(Step::Run);
            if !second.is_empty() {
                for &(count, spacing) in &second {
                    steps.push(Step::Crowd {
                        count,
                        start: Duration::from_secs(1_000),
                        spacing: us(spacing),
                    });
                }
                steps.push(Step::Client { node: 1, at: Duration::from_secs(1_000) });
                steps.push(Step::Run);
            }
            let batched = play(sim(sites, per_site, seed), &steps, true);
            prop_assert_eq!(batched, play(sim(sites, per_site, seed), &steps, false));
        }
    }

    /// A short crowd spaced so far apart that `spacing × nodes` overflows
    /// `Duration` runs like its clients one by one: each node queues a run
    /// of one, which takes no step.
    #[test]
    fn a_short_crowd_with_a_huge_spacing_runs() {
        let spacing = Duration::from_secs(u64::MAX / 4);
        assert!(spacing.checked_mul(512).is_none());
        let steps = [Step::Crowd { count: 3, start: Duration::ZERO, spacing }, Step::Run];
        let batched = play(sim(32, 16, 3), &steps, true);
        assert_eq!(batched.0[0][1], 3, "every client completes");
        assert_eq!(batched, play(sim(32, 16, 3), &steps, false));
    }

    /// Behind an uplink whose round trip is 2^36 s, queued clients wait
    /// longer than `u64` nanoseconds hold: their runs are recorded client
    /// by client, each latency truncated as the same clients scheduled one
    /// by one record it.
    #[test]
    fn latencies_past_u64_nanoseconds_truncate_client_by_client() {
        let slow = || {
            let mut config = TopologyConfig::edge_fleet(1, 2);
            config.sites[0].uplink.rtt = Duration::from_secs(1 << 36);
            FleetSim::new(Topology::new(config), FleetConfig::standard(5), &image(3))
        };
        let steps = [
            Step::Crowd { count: 6, start: Duration::ZERO, spacing: Duration::from_millis(1) },
            Step::Run,
        ];
        let mut fleet = slow();
        fleet.schedule_flash_crowd(6, Duration::ZERO, Duration::from_millis(1));
        let report = fleet.run();
        assert_eq!(report.completed, 6, "every client completes");
        assert!(report.makespan.as_nanos() > u128::from(u64::MAX), "{:?}", report.makespan);
        assert_eq!(play(slow(), &steps, true), play(slow(), &steps, false));
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

    /// A reset wipes the deploys of clients that found a node ready beside
    /// the node's tally, though those join the tally only at hand-over.
    #[test]
    fn a_site_reset_drops_launch_cost_deploys_too() {
        let mut fleet = sim(1, 2, 3);
        fleet.schedule_client(0, Duration::ZERO);
        fleet.schedule_client(0, Duration::from_secs(3_600));
        fleet.schedule_site_reset(0, Duration::from_secs(7_200));
        let report = fleet.run();
        assert_eq!((report.completed, report.deploy_samples), (2, 0));
        fleet.schedule_client(0, Duration::from_secs(7_300));
        fleet.schedule_client(0, Duration::from_secs(9_000));
        let report = fleet.run();
        assert_eq!((report.completed, report.deploy_samples), (4, 2));
        let merged = fleet.fleet().merged_metrics().expect("default resolution");
        let fastest = merged.sketch("fleet.deploy_nanos").and_then(QuantileSketch::min);
        let launch = Some(LAUNCH.as_nanos() as u64);
        assert_eq!(fastest, launch, "the second client found the node ready");
    }

    #[test]
    fn event_cost_scales_with_work_not_clients_squared() {
        let mut fleet = sim(4, 4, 13);
        fleet.schedule_flash_crowd(1_000, Duration::ZERO, Duration::from_micros(5));
        let report = fleet.run();
        assert_eq!(report.lost, 0);
        // Arrivals dominate: everything else is per-seed, not per-client.
        assert!(report.events < 1_000 + 16 * 12 * 40, "event count blew up: {}", report.events);
    }
}
