//! Property tests for the telemetry core: exact sketch merges and
//! bit-identical exports for a fixed seed.

use std::collections::BTreeMap;
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

/// The run `first`, `first − step`, … (`count` values) recorded after
/// `prior` into a sketch of `k` sub-bucket bits, once by one `observe` per
/// value and once by `observe_descending`.
fn descending_both_ways(
    k: u32,
    prior: &[u64],
    first: u64,
    step: u64,
    count: u64,
) -> (QuantileSketch, QuantileSketch) {
    let mut looped = QuantileSketch::with_sub_bucket_bits(k);
    for &v in prior {
        looped.observe(v);
    }
    let mut batched = looped.clone();
    for i in 0..count {
        looped.observe(first - i * step);
    }
    batched.observe_descending(first, step, count);
    (looped, batched)
}

/// Every resolution over the run shapes the fleet and the edges produce:
/// empty and lone runs, one bucket (`step` 0), runs through the zero slot,
/// across `2^(k+1)` and saturating the sum.
#[test]
fn descending_runs_at_the_edges_equal_one_observe_per_value() {
    for k in 1..=16u32 {
        let edge = 1u64 << (k + 1);
        let runs = [
            (0, 0, 0u64),
            (5, 0, 0),
            (7, 3, 1),
            (0, 0, 5),
            (40, 0, 9),
            (9, 3, 4),
            (edge + 10, 3, 20),
            (edge + 1_000, 1, 2_000),
            (edge * 3, edge / 2 + 1, 5),
            (20_000_000, 12_800_000, 2),
            (u64::MAX, 0, 3),
            (u64::MAX, u64::MAX, 2),
            (u64::MAX, 1 << 60, 16),
        ];
        for (first, step, count) in runs {
            // At small `k` a run that crosses the edge would go below zero.
            let first = first.max(step * count.saturating_sub(1));
            for prior in [&[][..], &[0, 3, u64::MAX - 1][..]] {
                let (looped, batched) = descending_both_ways(k, prior, first, step, count);
                assert_eq!(looped.bucket_count(), batched.bucket_count());
                assert_eq!(looped.memory_bytes(), batched.memory_bytes());
                let run = (first, step, count);
                assert_eq!(looped, batched, "k {k}, run {run:?} after {prior:?}");
            }
        }
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

    /// A descending run recorded in one call leaves the sketch equal to one
    /// `observe` per value: random resolutions, prior samples, and runs
    /// from anywhere, from across the exact octaves' edge `2^(k+1)`, down
    /// to zero, and from near `u64::MAX`, where the sum saturates.
    #[test]
    fn a_descending_run_equals_one_observe_per_value(
        k in 1u32..=16,
        prior in prop::collection::vec(any::<u64>(), 0..4),
        count in prop_oneof![Just(0u64), Just(1u64), 2u64..400],
        step in prop_oneof![Just(0u64), 1u64..8, 1u64..5_000, any::<u64>()],
        shape in 0u8..4,
        offset in any::<u64>(),
    ) {
        let step = step.min(u64::MAX / count.saturating_sub(1).max(1));
        let span = step * count.saturating_sub(1);
        let from = match shape {
            0 => offset,
            1 => 0,
            2 => (1u64 << (k + 1)).saturating_add(offset % (span + 1)),
            _ => u64::MAX - offset % (1 << 20),
        };
        let first = from.max(span);
        let (looped, batched) = descending_both_ways(k, &prior, first, step, count);
        prop_assert_eq!(looped.bucket_count(), batched.bucket_count());
        prop_assert_eq!(looped.memory_bytes(), batched.memory_bytes());
        prop_assert_eq!(looped, batched);
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

/// The sparse layout the sketch's counts had before they went dense: one
/// `BTreeMap` entry per occupied log-linear bucket, with the index and
/// representative arithmetic written out again. It is the reference model
/// the dense sketch is held to.
#[derive(Debug, Clone)]
struct SparseSketch {
    k: u32,
    buckets: BTreeMap<u32, u64>,
    zero: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl SparseSketch {
    fn new(k: u32) -> Self {
        SparseSketch {
            k,
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(&self, v: u64) -> u32 {
        let (e, k) = (v.ilog2(), self.k);
        let m = if e <= k { (v - (1 << e)) << (k - e) } else { (v - (1 << e)) >> (e - k) };
        (e << k) | m as u32
    }

    fn representative(&self, index: u32) -> u64 {
        let (e, k) = (index >> self.k, self.k);
        let m = u64::from(index & ((1 << k) - 1));
        if e <= k {
            (1 << e) + (m >> (k - e))
        } else {
            (1 << e) + (m << (e - k)) + (1 << (e - k - 1))
        }
    }

    fn observe(&mut self, v: u64) {
        match v {
            0 => self.zero += 1,
            _ => *self.buckets.entry(self.index(v)).or_insert(0) += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &SparseSketch) {
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The answer at every rank `0..=count + 1`, out-of-range ranks
    /// included.
    fn ranked(&self) -> Vec<Option<u64>> {
        let mut ranked = vec![None];
        ranked.extend(std::iter::repeat_n(Some(0), self.zero as usize));
        for (&index, &n) in &self.buckets {
            ranked.extend(std::iter::repeat_n(Some(self.representative(index)), n as usize));
        }
        ranked.push(None);
        ranked
    }
}

/// Holds `dense` to the reference `model` in every answer, and by `==` to
/// `flat`, the sketch of one `observe` per value of the same stream. Its
/// resident size is the header plus one count per index from the model's
/// lowest occupied bucket to its highest: trimmed and allocated exactly.
fn agrees(
    dense: &QuantileSketch,
    flat: &QuantileSketch,
    model: &SparseSketch,
) -> Result<(), String> {
    prop_assert_eq!(dense, flat);
    let (lo, hi) = (model.buckets.keys().next(), model.buckets.keys().next_back());
    let span = lo.zip(hi).map_or(0, |(lo, hi)| u64::from(hi - lo + 1));
    let header = std::mem::size_of::<QuantileSketch>() as u64;
    prop_assert_eq!(dense.memory_bytes(), header + 8 * span);
    let buckets: Vec<(u32, u64)> = model.buckets.iter().map(|(&i, &n)| (i, n)).collect();
    prop_assert_eq!(dense.buckets().collect::<Vec<_>>(), buckets);
    let ranked: Vec<Option<u64>> =
        (0..=dense.count() + 1).map(|r| dense.value_at_rank(r)).collect();
    prop_assert_eq!(ranked, model.ranked());
    let present = model.count > 0;
    prop_assert_eq!(
        (dense.count(), dense.sum(), dense.min(), dense.max(), dense.zero_count()),
        (
            model.count,
            model.sum,
            present.then_some(model.min),
            present.then_some(model.max),
            model.zero
        ),
    );
    prop_assert_eq!(dense.bucket_count(), model.buckets.len() + usize::from(model.zero > 0));
    Ok(())
}

proptest! {
    /// Random interleavings of `observe`, `observe_descending` and `merge`
    /// leave the dense sketch answering as the sparse reference does, and
    /// equal to one `observe` per value, after every step. Runs cover step
    /// 0, runs that reach zero and runs near `u64::MAX`; merges cover spans
    /// wholly below and wholly above the receiver's and merging into an
    /// empty sketch.
    #[test]
    fn dense_sketch_matches_the_sparse_reference(
        k in 1u32..=6,
        ops in prop::collection::vec((0u8..9, any::<u64>(), any::<u64>(), 0u64..16), 1..10),
    ) {
        let mut dense = QuantileSketch::with_sub_bucket_bits(k);
        let mut flat = dense.clone();
        let mut model = SparseSketch::new(k);
        for (kind, a, b, n) in ops {
            // Any magnitude: a value shifted right by a random amount.
            let (a_any, b_any) = (a >> (b % 64), b >> (a % 64));
            match kind {
                0 => {
                    dense.observe(a_any);
                    flat.observe(a_any);
                    model.observe(a_any);
                }
                1..=4 => {
                    let (first, step) = match kind {
                        1 => (a_any, 0),
                        // Ends on zero: `first` is a whole number of steps.
                        2 => {
                            let step = b_any.clamp(1, u64::MAX / n.max(1));
                            (step * n.saturating_sub(1), step)
                        }
                        3 => (u64::MAX - a % (1 << 20), b_any),
                        _ => (a_any, b_any),
                    };
                    let step = step.min(first / n.saturating_sub(1).max(1));
                    dense.observe_descending(first, step, n);
                    for v in (0..n).map(|i| first - i * step) {
                        flat.observe(v);
                        model.observe(v);
                    }
                }
                5..=7 => {
                    // Values wholly below the receiver's, wholly above, or
                    // anywhere.
                    let (lo, hi) = match kind {
                        5 => (0, model.min / 2),
                        6 => (model.max.saturating_mul(2), u64::MAX),
                        _ => (0, u64::MAX),
                    };
                    let mut rng = Rng(a);
                    let mut other = QuantileSketch::with_sub_bucket_bits(k);
                    let mut other_model = SparseSketch::new(k);
                    for _ in 0..n {
                        let x = rng.next();
                        let v = lo + (x >> (x % 64)) % (hi - lo).saturating_add(1);
                        other.observe(v);
                        other_model.observe(v);
                        flat.observe(v);
                    }
                    dense.merge(&other).unwrap();
                    model.merge(&other_model);
                }
                _ => {
                    let mut empty = QuantileSketch::with_sub_bucket_bits(k);
                    empty.merge(&dense).unwrap();
                    dense = empty;
                }
            }
            agrees(&dense, &flat, &model)?;
        }
    }
}

/// Runs that reach zero end on the zero slot, not in a bucket, so the
/// buckets they cover stop at their smallest positive value. The same values
/// recorded as one run, as two merged runs, and one at a time in either
/// order make equal sketches.
#[test]
fn the_same_values_grouped_differently_are_equal() {
    for (first, step, count) in [(6u64, 2u64, 4u64), (300, 100, 4), (3_000, 1_000, 4), (90, 1, 91)]
    {
        let mut one_run = QuantileSketch::new();
        one_run.observe_descending(first, step, count);
        let mut split = QuantileSketch::new();
        split.observe_descending(first, step, count / 2);
        let mut rest = QuantileSketch::new();
        rest.observe_descending(first - step * (count / 2), step, count - count / 2);
        split.merge(&rest).unwrap();
        let values: Vec<u64> = (0..count).map(|i| first - i * step).collect();
        let descending = sketch_of(&values);
        let ascending = sketch_of(&values.iter().rev().copied().collect::<Vec<_>>());
        let run = (first, step, count);
        assert_eq!(one_run, split, "run {run:?}");
        assert_eq!(one_run, descending, "run {run:?}");
        assert_eq!(one_run, ascending, "run {run:?}");
    }
}
