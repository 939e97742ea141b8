//! Fleet aggregation: many bounded per-node recorders, one merged view.
//!
//! A [`FleetCollector`] owns one flight-recorder [`Collector`] per node
//! (shard). Each node records through its own shard with no shared state
//! on the record path — shard `i` takes shard `i`'s one lock only — and the
//! fleet view is computed at read time by *merging*: metrics registries
//! fold with the exact merge semantics of
//! [`MetricsRegistry::merge`](crate::MetricsRegistry), which is
//! associative and commutative, so a hierarchical node → site → cloud
//! rollup produces the same registry as the flat fold
//! ([`FleetCollector::merged_metrics`]) — the property
//! `hierarchical_rollup_equals_flat_merge` pins down.
//!
//! The trace export interleaves every shard on its own Chrome-trace `tid`
//! (`shard + 1`); span storage stays bounded per node, so fleet memory is
//! `nodes × span_capacity`, never a function of how many deployments ran.

use std::sync::Arc;

use crate::collector::Collector;
use crate::export::{write_events, TRACE_PRELUDE};
use crate::handle::Telemetry;
use crate::metrics::MetricsRegistry;
use crate::sketch::SketchMergeError;

/// A fixed-size fleet of per-node flight recorders.
#[derive(Debug)]
pub struct FleetCollector {
    shards: Vec<Arc<Collector>>,
}

impl FleetCollector {
    /// `nodes` bounded collectors, each retaining at most `span_capacity`
    /// spans (and instants).
    pub fn new(nodes: u32, span_capacity: usize) -> Self {
        let shards = (0..nodes)
            .map(|shard| Arc::new(Collector::with_shard_and_capacity(shard, span_capacity)))
            .collect();
        FleetCollector { shards }
    }

    /// The recorder for node `shard`; panics if out of range (a fleet's
    /// size is fixed at construction).
    pub fn shard(&self, shard: u32) -> &Arc<Collector> {
        &self.shards[shard as usize]
    }

    /// A [`Telemetry`] handle feeding node `shard`.
    pub fn telemetry(&self, shard: u32) -> Telemetry {
        Telemetry::new(self.shards[shard as usize].clone())
    }

    /// Wipes node `shard`'s recording (spans, instants, metrics, drop
    /// counters) while keeping its identity, capacity, and sim-time
    /// cursor. `FleetSim` calls it when a site reset re-images the node, so
    /// post-reset tail distributions never mix in pre-reset samples.
    pub fn reset_shard(&self, shard: u32) {
        self.shards[shard as usize].reset();
    }

    /// Flat fold of every shard's metrics, in shard order.
    ///
    /// # Errors
    ///
    /// [`SketchMergeError`] if shards recorded sketches of different
    /// resolution under one key (impossible when all shards use the
    /// defaults).
    pub fn merged_metrics(&self) -> Result<MetricsRegistry, SketchMergeError> {
        let mut merged = MetricsRegistry::new();
        for shard in &self.shards {
            merged.merge_owned(shard.metrics())?;
        }
        Ok(merged)
    }

    /// One Chrome trace for the whole fleet: shard `i`'s spans and
    /// instants on `tid = i + 1`, in shard order, flow events included.
    pub fn trace_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.shards.len().max(1));
        out.push_str(TRACE_PRELUDE);
        let mut first = true;
        for shard in &self.shards {
            write_events(
                &mut out,
                &shard.spans(),
                &shard.instants(),
                shard.shard() + 1,
                &mut first,
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Serialized merged metrics (see [`crate::export::metrics_json`]).
    ///
    /// # Errors
    ///
    /// [`SketchMergeError`] on mismatched sketch resolution, as above.
    pub fn metrics_json(&self) -> Result<String, SketchMergeError> {
        Ok(crate::export::metrics_json(&self.merged_metrics()?))
    }

    /// Structural validation of every shard's recording; problems are
    /// prefixed with the shard id.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for shard in &self.shards {
            for p in shard.validate() {
                problems.push(format!("shard {}: {p}", shard.shard()));
            }
        }
        problems
    }

    /// Total spans shed by flight recorders across the fleet.
    pub fn dropped_spans(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_spans()).sum()
    }

    /// Approximate resident bytes of span/instant storage across the
    /// fleet — bounded by `nodes × span_capacity` by construction.
    pub fn span_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.span_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn shards_record_independently_and_merge() {
        let fleet = FleetCollector::new(3, 16);
        for shard in 0..3u32 {
            let t = fleet.telemetry(shard);
            t.count("deploys", u64::from(shard) + 1);
            t.sketch("lat", u64::from(shard + 1) * 100);
            t.scoped_span("client", "deploy", ms(0), ms(u64::from(shard) + 1), &[]);
        }
        let merged = fleet.merged_metrics().expect("default shapes");
        assert_eq!(merged.counter("deploys"), 6);
        assert_eq!(merged.sketch("lat").expect("observed").count(), 3);
        assert_eq!(merged.sketch("lat").expect("observed").max(), Some(300));
        assert!(fleet.validate().is_empty(), "{:?}", fleet.validate());
    }

    #[test]
    fn reset_shard_wipes_only_that_node() {
        let fleet = FleetCollector::new(3, 16);
        for shard in 0..3u32 {
            let t = fleet.telemetry(shard);
            t.count("deploys", 10);
            t.sketch("lat", u64::from(shard + 1) * 100);
            t.scoped_span("client", "deploy", ms(0), ms(1), &[]);
        }
        fleet.reset_shard(1);
        let merged = fleet.merged_metrics().expect("merge");
        assert_eq!(merged.counter("deploys"), 20, "only shard 1 forgot");
        let lat = merged.sketch("lat").expect("other shards kept samples");
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.max(), Some(300), "shard 2's sample survives");
        assert!(fleet.shard(1).spans().is_empty());
        assert_eq!(fleet.shard(0).spans().len(), 1);
        // Post-reset samples land in a clean shard: no pre-reset mixing.
        fleet.telemetry(1).sketch("lat", 999);
        let after = fleet.merged_metrics().expect("merge");
        assert_eq!(after.sketch("lat").expect("3 samples").count(), 3);
    }

    #[test]
    fn hierarchical_rollup_equals_flat_merge() {
        let fleet = FleetCollector::new(8, 8);
        for shard in 0..8u32 {
            let t = fleet.telemetry(shard);
            for i in 0..10u64 {
                t.sketch("lat", (u64::from(shard) + 1) * 37 + i * 1_000);
                t.count("ops", 1);
                t.gauge_max("peak", u64::from(shard) * 5 + i);
            }
        }
        let flat = fleet.merged_metrics().expect("merge");
        let shards: Vec<MetricsRegistry> = (0..8).map(|s| fleet.shard(s).metrics()).collect();
        for site_size in [1, 2, 3, 4, 8, 100] {
            // Node → site → cloud: shards fold into sites, sites into one.
            let mut cloud = MetricsRegistry::new();
            for site in shards.chunks(site_size) {
                let mut rollup = MetricsRegistry::new();
                for shard in site {
                    rollup.merge(shard).expect("merge");
                }
                cloud.merge(&rollup).expect("merge");
            }
            assert_eq!(cloud, flat, "site_size {site_size} changed the rollup");
        }
    }

    #[test]
    fn fleet_trace_uses_one_tid_per_shard() {
        let fleet = FleetCollector::new(2, 8);
        fleet.telemetry(0).scoped_span("client", "a", ms(0), ms(1), &[]);
        fleet.telemetry(1).scoped_span("p2p", "b", ms(0), ms(2), &[]);
        let json = fleet.trace_json();
        assert!(json.contains("\"tid\":1,\"cat\":\"client\",\"name\":\"a\""), "{json}");
        assert!(json.contains("\"tid\":2,\"cat\":\"p2p\",\"name\":\"b\""), "{json}");
    }

    #[test]
    fn fleet_memory_is_bounded() {
        let fleet = FleetCollector::new(4, 8);
        for shard in 0..4u32 {
            let c = fleet.shard(shard);
            for i in 0..1_000u64 {
                c.span_at("sim", "op", ms(i), ms(1));
            }
        }
        assert_eq!(fleet.dropped_spans(), 4 * (1_000 - 8));
        let bytes = fleet.span_bytes();
        // 4 shards × 8 retained spans, far below the 4 000 recorded.
        assert!(bytes < 4 * 8 * 512, "span storage unbounded: {bytes} bytes");
        for shard in 0..4u32 {
            assert_eq!(fleet.shard(shard).spans().len(), 8);
        }
    }
}
