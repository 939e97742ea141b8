//! Deployment reports.

use std::collections::BTreeMap;
use std::time::Duration;

use gear_image::ImageRef;
use gear_telemetry::QuantileSketch;

use crate::timeline::Timeline;

/// What one deployment did and how long each phase took (simulated time).
///
/// Deployment has two phases (paper §V-E): **pull** (downloading the Docker
/// image or the Gear index) and **run** (starting the container and
/// completing its task, including any on-demand fetches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentReport {
    /// The deployed image.
    pub reference: ImageRef,
    /// Pull-phase duration.
    pub pull: Duration,
    /// Run-phase duration.
    pub run: Duration,
    /// Bytes downloaded from the registries (paper-scale).
    pub bytes_pulled: u64,
    /// Registry requests issued.
    pub requests: u64,
    /// Files fetched on demand (Gear/Slacker) or read from the pulled image
    /// (Docker).
    pub files_fetched: u64,
    /// On-demand lookups served by the local shared cache.
    pub cache_hits: u64,
    /// Failed request attempts that were retried under fault injection
    /// (zero when no fault plan is active).
    pub retries: u64,
    /// Most undelivered downloaded bytes the fetch scheduler held at any
    /// instant (zero for strictly sequential fetching).
    pub peak_buffered_bytes: u64,
    /// Bytes the shared cache holds pinned (index-referenced files immune to
    /// eviction) when the deployment finished — a gauge snapshot.
    pub pinned_bytes: u64,
    /// Ordered step-by-step record of the deployment (populated by the Gear
    /// engine; coarse or empty for the baselines).
    pub timeline: Timeline,
}

impl DeploymentReport {
    /// Creates an empty report for `reference`.
    pub fn new(reference: ImageRef) -> Self {
        DeploymentReport {
            reference,
            pull: Duration::ZERO,
            run: Duration::ZERO,
            bytes_pulled: 0,
            requests: 0,
            files_fetched: 0,
            cache_hits: 0,
            retries: 0,
            peak_buffered_bytes: 0,
            pinned_bytes: 0,
            timeline: Timeline::new(),
        }
    }

    /// Total deployment time (pull + run).
    pub fn total(&self) -> Duration {
        self.pull + self.run
    }

    /// Per-lane latency sketches built from the timeline: one
    /// [`QuantileSketch`] of per-file latencies (nanoseconds) per fetch
    /// lane (`cache`, `registry`, `peer:<n>`). A pure function of the
    /// report, so it works on untelemetered deployments and never perturbs
    /// report equality.
    pub fn lane_sketches(&self) -> BTreeMap<String, QuantileSketch> {
        let mut lanes: BTreeMap<String, QuantileSketch> = BTreeMap::new();
        for (_, took, event) in self.timeline.entries() {
            if let Some(lane) = event.lane() {
                lanes.entry(lane).or_default().observe(took.as_nanos() as u64);
            }
        }
        lanes
    }

    /// One sketch over every per-file fetch latency, all lanes merged.
    pub fn fetch_sketch(&self) -> QuantileSketch {
        let mut all = QuantileSketch::new();
        for sketch in self.lane_sketches().values() {
            // Same default resolution everywhere; merge cannot fail.
            let _ = all.merge(sketch);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let mut r = DeploymentReport::new("a:1".parse().unwrap());
        r.pull = Duration::from_secs(2);
        r.run = Duration::from_secs(3);
        assert_eq!(r.total(), Duration::from_secs(5));
    }

    #[test]
    fn lane_sketches_split_by_source() {
        use crate::timeline::TimelineEvent;

        let mut r = DeploymentReport::new("a:1".parse().unwrap());
        for i in 0..10u64 {
            r.timeline.push(
                Duration::from_millis(i),
                Duration::from_micros(100 + i),
                TimelineEvent::CacheHit { path: format!("f{i}"), bytes: 10 },
            );
        }
        r.timeline.push(
            Duration::from_millis(20),
            Duration::from_millis(30),
            TimelineEvent::RegistryFetch { path: "slow".into(), bytes: 1 << 20 },
        );
        r.timeline.push(
            Duration::from_millis(50),
            Duration::from_millis(2),
            TimelineEvent::PeerFetch { path: "p".into(), bytes: 4096, peer: 3 },
        );
        // Phase events carry no lane.
        r.timeline.push(Duration::ZERO, Duration::from_millis(1), TimelineEvent::Launch);

        let lanes = r.lane_sketches();
        assert_eq!(lanes.keys().collect::<Vec<_>>(), ["cache", "peer:3", "registry"]);
        assert_eq!(lanes["cache"].count(), 10);
        assert!(lanes["cache"].quantile(0.5).is_some_and(|p50| p50 < 1_000_000));
        assert_eq!(r.fetch_sketch().count(), 12);
    }
}
