//! Property tests for the telemetry core: exact sketch merges and
//! bit-identical exports for a fixed seed.

use std::time::Duration;

use gear_telemetry::{Collector, FleetCollector, MetricsRegistry, QuantileSketch, Telemetry};
use proptest::prelude::*;

/// Deterministic pseudo-random stream (splitmix64) for the fixed-seed
/// recording script.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

proptest! {
    /// Sketch merging is commutative: `a ∪ b == b ∪ a` bucket-for-bucket.
    #[test]
    fn sketch_merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let mut ab = sketch_of(&a);
        ab.merge(&sketch_of(&b)).unwrap();
        let mut ba = sketch_of(&b);
        ba.merge(&sketch_of(&a)).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// Sketch merging is associative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`.
    #[test]
    fn sketch_merge_is_associative(
        a in prop::collection::vec(0u64..u64::MAX, 0..48),
        b in prop::collection::vec(0u64..u64::MAX, 0..48),
        c in prop::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let mut left = sketch_of(&a);
        left.merge(&sketch_of(&b)).unwrap();
        left.merge(&sketch_of(&c)).unwrap();
        let mut bc = sketch_of(&b);
        bc.merge(&sketch_of(&c)).unwrap();
        let mut right = sketch_of(&a);
        right.merge(&bc).unwrap();
        prop_assert_eq!(left, right);
    }

    /// Sketch merging loses nothing: the merged sketch equals observing the
    /// concatenated stream directly — same count, sum, min/max, buckets,
    /// and therefore identical answers to every quantile query.
    #[test]
    fn sketch_merge_is_lossless(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b)).unwrap();
        let mut all = a;
        all.extend_from_slice(&b);
        prop_assert_eq!(merged, sketch_of(&all));
    }

    /// Every rank query answers within the configured relative-error bound
    /// of the exact order statistic, for arbitrary value streams.
    #[test]
    fn sketch_rank_answers_stay_within_relative_error(
        mut values in prop::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        let sketch = sketch_of(&values);
        values.sort_unstable();
        let err = sketch.relative_error_bound();
        for (i, &exact) in values.iter().enumerate() {
            let got = sketch.value_at_rank(i as u64 + 1).unwrap();
            let bound = (exact as f64) * err;
            prop_assert!(
                (got as f64 - exact as f64).abs() <= bound,
                "rank {}: got {} for exact {} (bound {})",
                i + 1, got, exact, bound,
            );
        }
    }

    /// Rank queries are monotone: a higher rank never answers a smaller
    /// value.
    #[test]
    fn sketch_rank_queries_are_monotone(
        values in prop::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        let sketch = sketch_of(&values);
        let mut last = 0u64;
        for rank in 1..=sketch.count() {
            let v = sketch.value_at_rank(rank).unwrap();
            prop_assert!(v >= last, "rank {rank} answered {v} after {last}");
            last = v;
        }
    }

    /// Sharding the same recording script over any number of per-node
    /// collectors merges to the same metrics export as recording it all on
    /// one node — shard count is an implementation detail of the fleet.
    #[test]
    fn sharded_recorders_merge_to_the_unsharded_export(
        seed in any::<u64>(),
        nodes in 1u32..6,
    ) {
        let script = |seed: u64| -> Vec<(u64, u64)> {
            let mut rng = Rng(seed);
            (0..48).map(|_| (rng.next() % 1_000_000, rng.next() % (1 << 20))).collect()
        };
        let ops = script(seed);

        // One node records everything.
        let (telemetry, collector) = Telemetry::collector();
        for &(nanos, bytes) in &ops {
            telemetry.count("ops", 1);
            telemetry.sketch("latency_nanos", nanos);
            telemetry.sketch("op_bytes", bytes);
            telemetry.gauge_max("peak", bytes);
        }
        let flat = collector.metrics();

        // The same ops striped round-robin over `nodes` shards, merged.
        let fleet = FleetCollector::new(nodes, 64);
        for (i, &(nanos, bytes)) in ops.iter().enumerate() {
            let t = fleet.telemetry(i as u32 % nodes);
            t.count("ops", 1);
            t.sketch("latency_nanos", nanos);
            t.sketch("op_bytes", bytes);
            t.gauge_max("peak", bytes);
        }
        let merged = fleet.merged_metrics().unwrap();
        prop_assert_eq!(&flat, &merged, "shard count leaked into the export");
        prop_assert_eq!(
            gear_telemetry::metrics_json(&flat),
            gear_telemetry::metrics_json(&merged),
        );
    }

    /// Samples tallied in a registry and handed to a collector in random
    /// batches leave it holding what recording each sample there built:
    /// the hand-over a fleet simulator makes when its run ends.
    #[test]
    fn handed_over_tallies_equal_direct_recording(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (direct, handed) = (Collector::new(), Collector::new());
        let mut tally = MetricsRegistry::new();
        for _ in 0..64 {
            let nanos = rng.next() % 1_000_000_000;
            direct.count("deploys", 1);
            direct.sketch("deploy_nanos", nanos);
            tally.add("deploys", 1);
            tally.sketch_observe("deploy_nanos", nanos);
            if rng.next().is_multiple_of(8) {
                handed.merge_metrics(std::mem::take(&mut tally)).unwrap();
            }
        }
        handed.merge_metrics(tally).unwrap();
        prop_assert_eq!(direct.metrics(), handed.metrics());
    }

    /// The same seed drives byte-identical trace and metrics exports.
    #[test]
    fn fixed_seed_exports_are_bit_identical(seed in any::<u64>()) {
        let record = |seed: u64| {
            let (telemetry, collector) = Telemetry::collector();
            let mut rng = Rng(seed);
            for i in 0..32 {
                let span = telemetry.span_start("sim", &format!("op{i}"));
                telemetry.advance(Duration::from_nanos(rng.next() % 1_000_000));
                telemetry.count("ops", 1);
                telemetry.sketch("op_bytes", rng.next() % (1 << 20));
                if rng.next().is_multiple_of(3) {
                    telemetry.instant("sim", "tick");
                }
                telemetry.gauge_max("peak", rng.next() % (1 << 16));
                telemetry.span_end(span);
            }
            (collector.trace_json(), collector.metrics_json())
        };
        prop_assert_eq!(record(seed), record(seed));
    }
}
