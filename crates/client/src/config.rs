//! The shared cost model every deployment engine charges against.

use std::time::Duration;

use gear_simnet::{DiskModel, Link};
use gear_store::EvictionPolicy;

/// Local-operation costs shared by all engines, so that comparisons between
/// Gear, Docker, and Slacker differ only in *what* they do, never in how the
/// same operation is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Costs {
    /// Fixed container-creation overhead (daemon, namespaces, cgroups).
    pub container_start: Duration,
    /// Setting up the union mount.
    pub mount_setup: Duration,
    /// Opening + reading a local file: fixed part.
    pub local_read_per_file: Duration,
    /// Opening + reading a local file: throughput (page-cache speed).
    pub local_read_bytes_per_sec: f64,
    /// Hard-linking a cached Gear file into the index (paper §III-D2).
    pub hard_link: Duration,
    /// Decompressing downloaded blobs/files.
    pub decompress_bytes_per_sec: f64,
    /// Unpacking pulled layers into the graph driver's store. Writes go
    /// through the page cache and overlap the download, so this is far
    /// faster than raw disk throughput.
    pub unpack_bytes_per_sec: f64,
    /// Tearing down one cached inode at unmount (paper Fig. 11b).
    pub inode_teardown: Duration,
}

impl Default for Costs {
    fn default() -> Self {
        Costs {
            container_start: Duration::from_millis(250),
            mount_setup: Duration::from_millis(30),
            local_read_per_file: Duration::from_micros(30),
            local_read_bytes_per_sec: 2.0e9,
            hard_link: Duration::from_micros(20),
            decompress_bytes_per_sec: 350.0e6,
            unpack_bytes_per_sec: 380.0e6,
            inode_teardown: Duration::from_micros(4),
        }
    }
}

/// Concurrency policy of the fetch engine (see [`replay`](crate::replay())).
///
/// `streams = 1` (the default) keeps every registry request strictly
/// sequential — bit-for-bit the historical deployment times. More streams
/// overlap per-request fixed costs over the shared link while
/// `max_buffered_bytes` bounds how much undelivered download data the
/// scheduler may hold at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Concurrent registry requests kept in flight.
    pub streams: usize,
    /// Bound on undelivered downloaded bytes (paper scale). A single file
    /// larger than the window is still fetched, alone.
    pub max_buffered_bytes: u64,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig { streams: 1, max_buffered_bytes: 256 * 1024 * 1024 }
    }
}

/// Two-tier shared-cache configuration: bounded L1 memory in front of the
/// client's (modeled) local disk, which then holds the full
/// [`ClientConfig::cache_capacity`] budget. See
/// [`gear_store::TieredStore`] for the policies (write-through,
/// promotion-on-hit, L2-authoritative eviction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// L1 memory budget in (scaled) bytes; `None` = unbounded (observably
    /// identical to an untiered cache — only costs differ).
    pub l1_capacity: Option<u64>,
    /// Disk model backing the L2 tier.
    pub disk: DiskModel,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig { l1_capacity: None, disk: DiskModel::ssd() }
    }
}

/// Configuration of a deployment client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// The client↔registry link.
    pub link: Link,
    /// Local disk model.
    pub disk: DiskModel,
    /// Local operation costs.
    pub costs: Costs,
    /// Fetch-engine concurrency policy.
    pub fetch: FetchConfig,
    /// Multiplier mapping the corpus's scaled-down byte counts back to
    /// paper-scale bytes when charging network and disk time. Set it to the
    /// corpus `scale_denom` so simulated deployments take paper-scale time.
    pub byte_scale: u64,
    /// Multiplier on per-request fixed costs, compensating for the corpus
    /// having proportionally fewer (larger) files than real images.
    pub request_amplification: f64,
    /// Shared-cache eviction policy.
    pub cache_policy: EvictionPolicy,
    /// Shared-cache capacity in (scaled) bytes; `None` = unbounded.
    pub cache_capacity: Option<u64>,
    /// Optional two-tier cache: L1 memory over modeled disk. `None` (the
    /// default) keeps the whole cache in memory with zero staged I/O time —
    /// bit-for-bit the historical behaviour.
    pub tier: Option<TierConfig>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            link: Link::paper_testbed(),
            disk: DiskModel::hdd(),
            costs: Costs::default(),
            fetch: FetchConfig::default(),
            byte_scale: 1,
            request_amplification: 1.0,
            cache_policy: EvictionPolicy::Lru,
            cache_capacity: None,
            tier: None,
        }
    }
}

impl ClientConfig {
    /// The paper's testbed: 904 Mbps link, HDD, corpus at 1/1024 scale with
    /// ~12× fewer files per image than reality.
    pub fn paper_testbed(scale_denom: u64) -> Self {
        ClientConfig {
            byte_scale: scale_denom,
            request_amplification: 12.0,
            ..Self::default()
        }
    }

    /// Same as [`ClientConfig::paper_testbed`] but over a different link.
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
    }

    /// Returns a copy fetching with `streams` concurrent registry requests
    /// (clamped to at least 1).
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.fetch.streams = streams.max(1);
        self
    }

    /// Returns a copy running the shared cache as a two-tier store.
    pub fn with_tier(mut self, tier: TierConfig) -> Self {
        self.tier = Some(tier);
        self
    }

    /// The amplified per-request fixed cost (RTT + overhead, scaled by
    /// [`ClientConfig::request_amplification`]).
    pub fn amplified_fixed(&self) -> Duration {
        (self.link.rtt + self.link.request_overhead)
            .mul_f64(self.request_amplification.max(0.0))
    }

    /// Scales a simulated byte count up to paper scale.
    pub fn scaled(&self, bytes: u64) -> u64 {
        bytes * self.byte_scale
    }

    /// Time for one registry request moving `scaled_bytes`, including the
    /// amplified fixed costs.
    pub fn request_time(&self, scaled_bytes: u64) -> Duration {
        self.amplified_fixed() + self.link.bandwidth.transfer_time(scaled_bytes)
    }

    /// Time to read a local file of `scaled_bytes`.
    pub fn local_read(&self, scaled_bytes: u64) -> Duration {
        self.costs.local_read_per_file.mul_f64(self.request_amplification.max(0.0))
            + Duration::from_secs_f64(scaled_bytes as f64 / self.costs.local_read_bytes_per_sec)
    }

    /// Time to decompress `scaled_bytes`.
    pub fn decompress(&self, scaled_bytes: u64) -> Duration {
        Duration::from_secs_f64(scaled_bytes as f64 / self.costs.decompress_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_time_amplifies_fixed_costs_only() {
        let base = ClientConfig::default();
        let amp = ClientConfig { request_amplification: 10.0, ..base };
        let t1 = base.request_time(1_000_000);
        let t10 = amp.request_time(1_000_000);
        assert!(t10 > t1);
        // Payload term identical: difference is exactly 9 × fixed.
        let fixed = base.link.rtt + base.link.request_overhead;
        let diff = t10 - t1;
        assert_eq!(diff, fixed * 9);
    }

    #[test]
    fn scaled_multiplies() {
        let cfg = ClientConfig::paper_testbed(1024);
        assert_eq!(cfg.scaled(1000), 1_024_000);
    }

    #[test]
    fn decompress_is_priced_at_the_decode_rate() {
        assert_eq!(ClientConfig::default().decompress(700_000_000), Duration::from_secs(2));
    }

    #[test]
    fn local_read_has_fixed_and_variable_parts() {
        let cfg = ClientConfig::default();
        let small = cfg.local_read(0);
        let big = cfg.local_read(2_000_000_000);
        assert!(small > Duration::ZERO);
        assert!(big > small + Duration::from_millis(900));
    }
}
