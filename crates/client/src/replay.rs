//! The one lazy-deployment path (paper §III-D): launch a container over an
//! installed index, replay its startup reads through the union mount, and
//! materialise every file on first touch from the nearest place that has it.
//!
//! [`RegistryChain::pull_index`] is the pull phase and [`replay`] the run
//! phase, for every engine and every stream count. The one seam is the
//! [`Sources`] chain a miss walks: a standalone client's is own
//! store → registry ([`RegistryChain`]); a cluster node puts its peer
//! holders in between. Per fetch the chain charges the transfer against the
//! fault plan, then commits the file to the node's own store — so a file is
//! resident only once its request survived, and fault draws stay in fetch
//! order — and reports a [`FetchCharge`]. After the last read the charges
//! are laid out on the timeline; that layout is the only thing
//! [`FetchConfig::streams`](crate::FetchConfig::streams) selects:
//!
//! * `streams = 1` — one entry per file in read order, its duration the
//!   whole serial price (delay + transfers + local work);
//! * `streams > 1` — the cache hits, then one `ParallelFetch` window priced
//!   by [`price_batch`], then each fetched file's local work.
//!
//! `serve` and `read_range` price one operation's fetches
//! through the same chain and [`price_batch`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use gear_core::{GearImage, GearIndex, IndexError};
use gear_corpus::StartupTrace;
use gear_fs::{FsError, FsTree, Materializer, UnionFs};
use gear_hash::{Digest, Fingerprint};
use gear_image::ImageRef;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::{BudgetExhausted, FaultInjector, NetMetrics, StreamConfig};
use gear_store::BlobStore;
use gear_telemetry::Telemetry;

use crate::config::ClientConfig;
use crate::timeline::{Timeline, TimelineEvent};

/// Where a materialised file came from — the lane its transfer occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The node's own store: no transfer.
    Local,
    /// A peer holder: serial per holder, parallel across holders.
    Peer(u64),
    /// The registry link, shared by all registry transfers.
    Registry,
}

/// One materialised file's cost, decomposed so every stream count can price
/// the same side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchCharge {
    /// The source that served the file.
    pub lane: Lane,
    /// Bytes the timeline reports: logical size for a local hit, paper-scale
    /// wire bytes for a transfer.
    pub bytes: u64,
    /// Time that blocks the deployment whatever the stream count: timeouts,
    /// backoffs, stall extras, and attempts lost on the way down the chain.
    pub delay: Duration,
    /// Times `bytes` crossed the registry link (the delivered transfer plus
    /// wasted ones); zero for the other lanes.
    pub transfers: u32,
    /// Time the transfer occupies its lane when nothing overlaps it.
    pub lane_time: Duration,
    /// Local work once the bytes are here: hard link, decompression, disk
    /// write, and the container's read.
    pub post: Duration,
}

impl FetchCharge {
    fn event(&self, path: &str) -> TimelineEvent {
        let (path, bytes) = (path.to_owned(), self.bytes);
        match self.lane {
            Lane::Local => TimelineEvent::CacheHit { path, bytes },
            Lane::Peer(peer) => TimelineEvent::PeerFetch { path, bytes, peer },
            Lane::Registry => TimelineEvent::RegistryFetch { path, bytes },
        }
    }
}

/// A fetched file and what fetching it cost; `None` when no source holds it.
pub type Fetched = Option<(Bytes, FetchCharge)>;

/// The ordered fallback a miss walks, nearest source first.
pub trait Sources {
    /// Materialises `fingerprint` from the nearest source holding it and
    /// commits it to the node's own store.
    ///
    /// # Errors
    ///
    /// [`BudgetExhausted`] when the last resort ran out of retry attempts;
    /// nothing is committed for the failing file.
    fn fetch(&mut self, fingerprint: Fingerprint) -> Result<Fetched, BudgetExhausted>;

    /// Tier I/O time the node's own store staged since the last drain.
    fn drain_cost(&mut self) -> Duration;
}

/// The chain of length two — own store → registry — and the two steps every
/// longer chain starts and ends with.
pub struct RegistryChain<'a> {
    /// Cost model; `config.link` is the link to the registry.
    pub config: ClientConfig,
    /// The node's own store.
    pub own: &'a mut dyn BlobStore,
    /// The Gear registry's file store.
    pub registry: &'a GearFileStore,
    /// Fault plan every transfer draws from.
    pub faults: &'a mut FaultInjector,
    /// Accounting of what crossed the registry link.
    pub metrics: &'a mut NetMetrics,
    /// Fetch through the chunk verb, so ranged reads of chunked files
    /// account as chunk traffic on the registry side.
    pub chunked: bool,
}

/// A node's installed index of one image, and what pulling it cost — all
/// zero when the node already had it.
#[derive(Debug)]
pub struct Pulled {
    /// The installed index; its tree is what containers mount.
    pub index: Arc<GearIndex>,
    /// Pull-phase duration.
    pub took: Duration,
    /// Bytes pulled from the index registry.
    pub bytes: u64,
    /// Requests made to the index registry.
    pub requests: u64,
}

impl RegistryChain<'_> {
    /// The pull phase, for every engine: returns `reference`'s index from
    /// the node's installed `indexes`, pulling and installing it first when
    /// absent — one request for the manifest, one per compressed index layer
    /// not among the node's local `blobs` (plus its decompression), each
    /// charged serially under the fault plan and appended to `timeline` from
    /// offset zero; then decode ([`GearImage::pull`]), pin every referenced
    /// file in the own store, and insert. `None` when the registry cannot
    /// serve the image.
    ///
    /// # Errors
    ///
    /// [`BudgetExhausted`] when a request ran out of retry attempts,
    /// [`IndexError`] when the pulled image is not a Gear index or its layer
    /// does not decode; neither installs anything.
    pub fn pull_index<E: From<BudgetExhausted> + From<IndexError>>(
        &mut self,
        reference: &ImageRef,
        docker: &DockerRegistry,
        blobs: &mut HashSet<Digest>,
        indexes: &mut HashMap<ImageRef, Arc<GearIndex>>,
        timeline: &mut Timeline,
    ) -> Result<Option<Pulled>, E> {
        if let Some(index) = indexes.get(reference) {
            let index = Arc::clone(index);
            return Ok(Some(Pulled { index, took: Duration::ZERO, bytes: 0, requests: 0 }));
        }
        let Some(manifest) = docker.manifest(reference) else {
            return Ok(None);
        };
        let (mut took, mut pulled, mut requests) = (Duration::ZERO, 0, 0);
        let mut request = |bytes: u64, local: Duration, event| {
            let nominal = self.config.request_time(bytes);
            let step = self.faults.request(nominal)?.total(nominal) + local;
            timeline.push(took, step, event);
            took += step;
            pulled += bytes;
            requests += 1;
            self.metrics.download(bytes);
            Ok::<(), BudgetExhausted>(())
        };
        let bytes = manifest.to_json().len() as u64;
        request(bytes, Duration::ZERO, TimelineEvent::Manifest { bytes })?;
        for desc in &manifest.layers {
            if blobs.contains(&desc.digest) {
                continue;
            }
            // The index is metadata, not image content: its size is not
            // scaled up — it is already "paper scale" (a few hundred KB).
            let bytes = desc.size;
            request(bytes, self.config.decompress(bytes), TimelineEvent::Index { bytes })?;
            blobs.insert(desc.digest);
        }
        let Some(gear) = GearImage::pull(docker, reference)? else {
            return Ok(None);
        };
        let index = Arc::new(gear.into_index());
        for (fingerprint, _) in index.referenced_files() {
            self.own.pin(fingerprint);
        }
        indexes.insert(reference.clone(), Arc::clone(&index));
        Ok(Some(Pulled { index, took, bytes: pulled, requests }))
    }

    /// First step: the own store.
    pub fn hit(&mut self, fingerprint: Fingerprint) -> Fetched {
        let content = self.own.get(fingerprint)?;
        let bytes = content.len() as u64;
        let charge = FetchCharge {
            lane: Lane::Local,
            bytes,
            delay: Duration::ZERO,
            transfers: 0,
            lane_time: Duration::ZERO,
            post: self.config.costs.hard_link + self.config.local_read(self.config.scaled(bytes)),
        };
        Some((content, charge))
    }

    /// Last step: one registry request under the full retry budget. The
    /// caller commits the content.
    ///
    /// # Errors
    ///
    /// [`BudgetExhausted`].
    pub fn download(&mut self, fingerprint: Fingerprint) -> Result<Fetched, BudgetExhausted> {
        let found = if self.chunked {
            self.registry.download_chunk(fingerprint)
        } else {
            self.registry.download(fingerprint)
        };
        let Some(content) = found else {
            return Ok(None);
        };
        let config = &self.config;
        let raw = config.scaled(content.len() as u64);
        let bytes =
            config.scaled(self.registry.transfer_size(fingerprint).unwrap_or(content.len() as u64));
        let nominal = config.request_time(bytes);
        let request = self.faults.request(nominal)?;
        self.metrics.download(bytes);
        let charge = FetchCharge {
            lane: Lane::Registry,
            bytes,
            delay: request.delay,
            transfers: request.transfers,
            lane_time: nominal * request.transfers,
            post: config.decompress(bytes) + config.disk.io_time(raw, 1) + config.local_read(raw),
        };
        Ok(Some((content, charge)))
    }
}

impl Sources for RegistryChain<'_> {
    fn fetch(&mut self, fingerprint: Fingerprint) -> Result<Fetched, BudgetExhausted> {
        if let Some(hit) = self.hit(fingerprint) {
            return Ok(Some(hit));
        }
        let fetched = self.download(fingerprint)?;
        if let Some((content, _)) = &fetched {
            self.own.put(fingerprint, content.clone());
        }
        Ok(fetched)
    }

    fn drain_cost(&mut self) -> Duration {
        self.own.drain_cost()
    }
}

/// The mount-facing side of a source chain: serves the union mount's
/// fingerprint lookups and collects the charges, each tagged with the index
/// of the read that caused it.
pub(crate) struct Session<'s, S> {
    inner: RefCell<SessionInner<'s, S>>,
}

struct SessionInner<'s, S> {
    sources: &'s mut S,
    read: usize,
    charges: Vec<(usize, FetchCharge)>,
    exhausted: Option<BudgetExhausted>,
}

impl<'s, S: Sources> Session<'s, S> {
    pub(crate) fn new(sources: &'s mut S) -> Self {
        let inner = SessionInner { sources, read: 0, charges: Vec::new(), exhausted: None };
        Session { inner: RefCell::new(inner) }
    }

    /// Runs mount read number `read` under this session. A read the fault
    /// budget aborted surfaces as that, not as the mount's materialisation
    /// failure.
    pub(crate) fn read<T, E: From<FsError> + From<BudgetExhausted>>(
        &self,
        read: usize,
        op: impl FnOnce(&dyn Materializer) -> Result<T, FsError>,
    ) -> Result<T, E> {
        self.inner.borrow_mut().read = read;
        op(self).map_err(|error| match self.inner.borrow_mut().exhausted.take() {
            Some(exhausted) => exhausted.into(),
            None => error.into(),
        })
    }

    /// The charges collected since the last call.
    pub(crate) fn take_charges(&self) -> Vec<(usize, FetchCharge)> {
        std::mem::take(&mut self.inner.borrow_mut().charges)
    }
}

impl<S: Sources> Materializer for Session<'_, S> {
    fn fetch(&self, fingerprint: Fingerprint, _size: u64) -> Result<Bytes, String> {
        let inner = &mut *self.inner.borrow_mut();
        match inner.sources.fetch(fingerprint) {
            Ok(Some((content, charge))) => {
                inner.charges.push((inner.read, charge));
                Ok(content)
            }
            Ok(None) => Err(format!("gear file {fingerprint} not in any cache or the registry")),
            Err(exhausted) => {
                inner.exhausted = Some(exhausted);
                Err(format!("retry budget exhausted fetching {fingerprint}"))
            }
        }
    }
}

/// Prices the transfers of `charges` with up to `streams` in flight.
/// Registry transfers (wasted ones included) share `config.link` through
/// one [`Link::stream_schedule`](gear_simnet::Link::stream_schedule) under
/// the client's buffer window; each peer holder is one more lane, served
/// serially; the lanes are packed longest-first onto `streams` slots and the
/// makespan, plus the charges' delays, is what the node waits. A standalone
/// client has the registry lane only. At `streams = 1` the schedule is the
/// exact sequential sum, so the price equals charging request by request.
/// Returns that wait and the most undelivered registry bytes the stream
/// window held at once.
pub(crate) fn price_batch<'c>(
    config: &ClientConfig,
    streams: usize,
    charges: impl Iterator<Item = &'c FetchCharge>,
    telemetry: &Telemetry,
) -> (Duration, u64) {
    let mut wire: Vec<u64> = Vec::new();
    let mut peers: BTreeMap<u64, Duration> = BTreeMap::new();
    let mut wait = Duration::ZERO;
    for charge in charges {
        wait += charge.delay;
        match charge.lane {
            Lane::Local => {}
            Lane::Peer(holder) => *peers.entry(holder).or_default() += charge.lane_time,
            Lane::Registry => {
                wire.extend(std::iter::repeat_n(charge.bytes, charge.transfers as usize));
            }
        }
    }
    if wire.is_empty() && peers.is_empty() {
        return (wait, 0);
    }
    let streams = streams.max(1);
    let schedule = config.link.stream_schedule(
        config.amplified_fixed(),
        &wire,
        StreamConfig { streams, max_buffered_bytes: config.fetch.max_buffered_bytes },
    );
    schedule.record(telemetry, &wire);
    let mut lanes: Vec<Duration> = peers.into_values().collect();
    lanes.push(schedule.duration);
    // Longest-processing-time first keeps the packing deterministic and
    // near-optimal.
    lanes.sort_unstable_by(|a, b| b.cmp(a));
    let mut slots = vec![Duration::ZERO; streams];
    for lane in lanes {
        if let Some(slot) = slots.iter_mut().min() {
            *slot += lane;
        }
    }
    wait += slots.into_iter().max().unwrap_or(Duration::ZERO);
    (wait, schedule.peak_buffered_bytes)
}

/// A finished replay.
#[derive(Debug)]
pub struct Replayed {
    /// The container's union mount, warm from the reads.
    pub mount: UnionFs,
    /// Run-phase duration: launch, fetches, tier I/O and the task.
    pub run: Duration,
    /// Every materialised file's charge with the index of the read that
    /// caused it, in fetch order.
    pub charges: Vec<(usize, FetchCharge)>,
    /// Most undelivered registry bytes a multi-stream window held.
    pub peak_buffered_bytes: u64,
}

/// Runs a deployment's run phase: launches a container over `tree`, replays
/// `trace` through `sources`, and appends the priced steps to `timeline`
/// starting at offset `start` (see the module docs). `config` prices local
/// work and the registry lane; `telemetry` instruments the mount and the
/// multi-stream window (pass a disabled handle to record nothing).
///
/// # Errors
///
/// The mount's [`FsError`] for an unreadable path, [`BudgetExhausted`] for
/// a fetch out of retry attempts; files fetched before either stay
/// committed.
pub fn replay<S: Sources, E: From<FsError> + From<BudgetExhausted>>(
    config: &ClientConfig,
    tree: Arc<FsTree>,
    trace: &StartupTrace,
    sources: &mut S,
    telemetry: &Telemetry,
    timeline: &mut Timeline,
    start: Duration,
) -> Result<Replayed, E> {
    let mut mount = UnionFs::new(vec![tree]);
    mount.set_recorder(telemetry.clone());
    let mut steps = Steps { timeline, at: start };
    steps.push(config.costs.container_start + config.costs.mount_setup, TimelineEvent::Launch);

    let session = Session::new(sources);
    for (read, path) in trace.reads.iter().enumerate() {
        session.read::<_, E>(read, |materializer| mount.read(path, materializer))?;
    }
    let charges = session.take_charges();

    // A single stream lays every file out whole, in read order; several
    // lay out the hits, then one window for all transfers, then each
    // fetched file's local work.
    let mut peak_buffered_bytes = 0;
    let mut fetched = Vec::new();
    for (read, charge) in &charges {
        if config.fetch.streams <= 1 || charge.lane == Lane::Local {
            let took = charge.delay + charge.lane_time + charge.post;
            steps.push(took, charge.event(&trace.reads[*read]));
        } else {
            fetched.push((*read, charge));
        }
    }
    if !fetched.is_empty() {
        // Park the cursor at the window's start so the schedule's transfer
        // span lands inside the ParallelFetch entry.
        telemetry.set_now(telemetry.now() + steps.at);
        let (wait, peak) = price_batch(
            config,
            config.fetch.streams,
            fetched.iter().map(|(_, charge)| *charge),
            telemetry,
        );
        peak_buffered_bytes = peak;
        let bytes = fetched.iter().map(|(_, charge)| charge.bytes).sum();
        steps.push(wait, TimelineEvent::ParallelFetch { files: fetched.len() as u64, bytes });
        for (read, charge) in fetched {
            steps.push(charge.post, charge.event(&trace.reads[read]));
        }
    }
    // Tier I/O the own store staged (L2 reads, write-through traffic). A
    // pure memory store stages nothing, so the entry only appears when
    // `ClientConfig::tier` is set.
    let staged = sources.drain_cost();
    if !staged.is_zero() {
        steps.push(staged, TimelineEvent::TierIo);
    }
    steps.push(trace.task.compute_time(), TimelineEvent::Task);
    Ok(Replayed { mount, run: steps.at - start, charges, peak_buffered_bytes })
}

/// Appends back-to-back entries to a timeline.
struct Steps<'t> {
    timeline: &'t mut Timeline,
    at: Duration,
}

impl Steps<'_> {
    fn push(&mut self, took: Duration, event: TimelineEvent) {
        self.timeline.push(self.at, took, event);
        self.at += took;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_simnet::{FaultKind, FaultPlan, Link, RetryPolicy};

    fn config() -> ClientConfig {
        ClientConfig {
            link: Link::mbps(100.0),
            request_amplification: 4.0,
            ..ClientConfig::default()
        }
    }

    /// Registry-lane charges for `payloads`, drawn from `faults` in order.
    fn charges(
        config: &ClientConfig,
        faults: &mut FaultInjector,
        payloads: &[u64],
    ) -> Vec<FetchCharge> {
        payloads
            .iter()
            .map(|&bytes| {
                let nominal = config.request_time(bytes);
                let request = faults.request(nominal).unwrap();
                FetchCharge {
                    lane: Lane::Registry,
                    bytes,
                    delay: request.delay,
                    transfers: request.transfers,
                    lane_time: nominal * request.transfers,
                    post: Duration::ZERO,
                }
            })
            .collect()
    }

    /// The serial retry loop, restated independently of
    /// [`FaultInjector::request`]: what charging one request at a time costs.
    fn charged_request_reference(
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
        retries: &mut u64,
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
                Some(FaultKind::Drop) | Some(FaultKind::Stall(_)) => {
                    elapsed += policy.timeout;
                    *retries += 1;
                }
                Some(FaultKind::Corrupt) | Some(FaultKind::Truncate) => {
                    elapsed += nominal;
                    *retries += 1;
                }
            }
        }
        None
    }

    /// The keystone identity: a single-stream batch totals exactly the sum
    /// of serial per-request prices, fault plan included — and so does the
    /// per-file layout `replay` uses at `streams = 1`.
    #[test]
    fn single_stream_equals_serial_charging() {
        let config = config();
        let payloads = [4_000u64, 50_000, 1_200, 0, 9_999];
        let mut plan = FaultPlan::new(99)
            .fail_requests(1, 1, FaultKind::Drop)
            .fail_requests(3, 3, FaultKind::Corrupt);
        let policy = RetryPolicy::standard(5);
        let mut faults = FaultInjector::default();
        faults.inject(plan.clone(), policy);

        let mut retries = 0;
        let serial: Duration = payloads
            .iter()
            .map(|&p| {
                charged_request_reference(&mut plan, &policy, &mut retries, &config, p).unwrap()
            })
            .sum();

        let charges = charges(&config, &mut faults, &payloads);
        let (batch, _) = price_batch(&config, 1, charges.iter(), &Telemetry::noop());
        assert_eq!(batch, serial, "bit-for-bit");
        let per_file: Duration = charges.iter().map(|c| c.delay + c.lane_time).sum();
        assert_eq!(per_file, serial, "bit-for-bit");
        assert_eq!(faults.retries(), retries);
    }

    #[test]
    fn more_streams_are_never_slower() {
        let config = config();
        let payloads: Vec<u64> = (0..30).map(|i| 5_000 + i * 777).collect();
        let charges = charges(&config, &mut FaultInjector::default(), &payloads);
        let mut previous = Duration::MAX;
        for streams in [1usize, 2, 4, 8] {
            let (t, _) = price_batch(&config, streams, charges.iter(), &Telemetry::noop());
            assert!(t <= previous, "{streams} streams slower: {t:?} > {previous:?}");
            previous = t;
        }
    }
}
