//! Mergeable quantile sketches with a fixed relative-error bound.
//!
//! A [`QuantileSketch`] is a DDSketch-style log-linear sketch over `u64`
//! observations: bucket boundaries grow geometrically, so the bucket a
//! value lands in — and therefore the bucket's representative value —
//! is within a fixed *relative* error of the value itself. A sketch
//! answers rank queries — p50, p99, p999 — beside exact count, sum, min
//! and max.
//!
//! Determinism is the design constraint. Bucket indices are computed with
//! integer arithmetic only (`ilog2` plus shifts — no `f64::ln`, whose
//! libm implementation varies across platforms), so two observations of
//! the same value land in the same bucket on every machine, and merging
//! is exact bucket-count addition: associative, commutative, and lossless
//! at sketch granularity. A merged sketch is bit-identical to the sketch
//! of the concatenated stream, which is what lets per-node sketches fold
//! hierarchically (node → site → cloud) in any grouping.
//!
//! # Bucket layout
//!
//! For a value `v ≥ 1` with `e = ilog2(v)` and `k` sub-bucket bits:
//!
//! * `e ≤ k`: the bucket index is exact — every integer below `2^(k+1)`
//!   gets its own bucket and queries return it exactly;
//! * `e > k`: the octave `[2^e, 2^(e+1))` is split into `2^k` equal
//!   buckets of width `2^(e-k)`; the representative is the bucket
//!   midpoint, so the error is at most half a bucket width:
//!   `|rep − v| ≤ 2^(e-k-1) ≤ v / 2^(k+1)`.
//!
//! Zero has a dedicated slot. With the default `k = 6` the guaranteed
//! relative error is `1/128 < 0.8 %` and a sketch never exceeds
//! `64 · 2^k + 1` buckets regardless of stream length — the bounded-memory
//! property the fleet collector's peak-memory gate relies on.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Default sub-bucket bits: 2^6 buckets per octave, relative error ≤ 1/128.
pub const DEFAULT_SUB_BUCKET_BITS: u32 = 6;

/// Two sketches with different sub-bucket resolution cannot be merged
/// losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchMergeError {
    /// Sub-bucket bits of the receiving sketch.
    pub ours: u32,
    /// Sub-bucket bits of the sketch being merged in.
    pub theirs: u32,
}

impl fmt::Display for SketchMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sketch resolutions differ: {} vs {} sub-bucket bits — merge would lose precision",
            self.ours, self.theirs
        )
    }
}

impl Error for SketchMergeError {}

/// A deterministic mergeable quantile sketch over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Sub-bucket bits `k`: each octave splits into `2^k` buckets.
    k: u32,
    /// Sparse bucket counts keyed by log-linear index, in index order.
    buckets: BTreeMap<u32, u64>,
    /// Observations of exactly zero (no logarithmic bucket exists for 0).
    zero: u64,
    count: u64,
    /// Saturating sum of observations.
    sum: u64,
    /// `u64::MAX` while empty (identity for `min`).
    min: u64,
    /// `0` while empty (identity for `max`).
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch at the default resolution
    /// ([`DEFAULT_SUB_BUCKET_BITS`]).
    pub fn new() -> Self {
        Self::with_sub_bucket_bits(DEFAULT_SUB_BUCKET_BITS)
    }

    /// An empty sketch with `2^k` buckets per octave. `k` is clamped to
    /// `1..=16` (beyond 16 the index would not fit the packed `u32`).
    pub fn with_sub_bucket_bits(k: u32) -> Self {
        let k = k.clamp(1, 16);
        QuantileSketch {
            k,
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The guaranteed bound on `|answer − true value| / true value` for
    /// any rank query: `1 / 2^(k+1)`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << (self.k + 1)) as f64
    }

    /// The log-linear bucket index of `v ≥ 1`.
    fn index(&self, v: u64) -> u32 {
        debug_assert!(v >= 1);
        let e = v.ilog2();
        let base = 1u64 << e;
        let m = if e <= self.k {
            // Small octaves are exact: every integer has its own bucket.
            ((v - base) << (self.k - e)) as u32
        } else {
            ((v - base) >> (e - self.k)) as u32
        };
        (e << self.k) | m
    }

    /// The deterministic representative value of bucket `index`: the exact
    /// value for small octaves, the bucket midpoint above them.
    fn representative(&self, index: u32) -> u64 {
        let e = index >> self.k;
        let m = u64::from(index & ((1 << self.k) - 1));
        let base = 1u64 << e;
        if e <= self.k {
            base + (m >> (self.k - e))
        } else {
            let step = 1u64 << (e - self.k);
            base + (m << (e - self.k)) + (step >> 1)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        if value == 0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(self.index(value)).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges `other` into `self` by exact bucket-count addition.
    ///
    /// # Errors
    ///
    /// [`SketchMergeError`] when the resolutions differ; `self` is
    /// untouched in that case.
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), SketchMergeError> {
        self.can_merge(other)?;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// The check [`QuantileSketch::merge`] makes before it touches
    /// anything: the two resolutions must match.
    pub(crate) fn can_merge(&self, other: &QuantileSketch) -> Result<(), SketchMergeError> {
        if self.k != other.k {
            return Err(SketchMergeError { ours: self.k, theirs: other.k });
        }
        Ok(())
    }

    /// The value at quantile `q ∈ [0, 1]`, within the relative-error
    /// bound; `None` while empty. `q = 0` answers at rank 1 and `q = 1`
    /// at rank `count`; the mapping is pure IEEE arithmetic (no libm), so
    /// it is deterministic across platforms.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.value_at_rank(rank)
    }

    /// The representative value at 1-based `rank` in sorted order;
    /// `None` when the sketch holds fewer than `rank` observations.
    pub fn value_at_rank(&self, rank: u64) -> Option<u64> {
        if rank == 0 || rank > self.count {
            return None;
        }
        let mut seen = self.zero;
        if rank <= seen {
            return Some(0);
        }
        for (&index, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                return Some(self.representative(index));
            }
        }
        None
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `None` while empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` while empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of occupied buckets (including the zero slot when used).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero > 0)
    }

    /// Approximate resident size: the fixed header plus one
    /// `(index, count)` node per occupied bucket. The log-linear layout
    /// caps this at `64 · 2^k + 1` buckets no matter how long the stream.
    pub fn memory_bytes(&self) -> u64 {
        // BTreeMap node payload: u32 key padded + u64 count.
        64 + 16 * self.bucket_count() as u64
    }

    /// Occupied log-linear buckets as `(index, count)`, in index (= value)
    /// order. The zero slot is not included — read it via
    /// [`QuantileSketch::zero_count`]; callers that need representative
    /// values should use [`QuantileSketch::value_at_rank`].
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&i, &n)| (i, n))
    }

    /// Observations of exactly zero.
    pub fn zero_count(&self) -> u64 {
        self.zero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..128 {
            s.observe(v);
        }
        // Every integer below 2^(k+1) = 128 has its own bucket.
        for rank in 1..=128 {
            assert_eq!(s.value_at_rank(rank), Some(rank - 1));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let s0 = QuantileSketch::new();
        let eps = s0.relative_error_bound();
        for v in [129u64, 1_000, 65_537, 1 << 33, u64::MAX / 3, u64::MAX] {
            let mut s = QuantileSketch::new();
            s.observe(v);
            let got = s.quantile(0.5).expect("non-empty");
            let err = got.abs_diff(v) as f64;
            assert!(
                err <= eps * v as f64,
                "value {v}: answered {got}, error {err} above bound {}",
                eps * v as f64
            );
        }
    }

    #[test]
    fn quantiles_hit_expected_ranks() {
        let mut s = QuantileSketch::new();
        for v in 1..=1000u64 {
            s.observe(v);
        }
        let eps = s.relative_error_bound();
        for (q, expected) in [(0.5, 500u64), (0.99, 990), (0.999, 999), (1.0, 1000)] {
            let got = s.quantile(q).expect("non-empty");
            assert!(
                (got.abs_diff(expected)) as f64 <= eps * expected as f64 + 1.0,
                "q={q}: got {got}, expected ~{expected}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1));
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for v in [0u64, 5, 129, 4_096, 70_000, 70_001, 1 << 40] {
            a.observe(v);
            all.observe(v);
        }
        for v in [3u64, 129, 999_999, u64::MAX] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b).expect("same resolution");
        assert_eq!(a, all);
    }

    #[test]
    fn merge_rejects_mismatched_resolution() {
        let mut a = QuantileSketch::with_sub_bucket_bits(4);
        let b = QuantileSketch::with_sub_bucket_bits(8);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn memory_is_bounded_for_long_streams() {
        let mut s = QuantileSketch::new();
        let mut x = 0x9e37_79b9u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            s.observe(x);
        }
        let cap = 64 * (1 << DEFAULT_SUB_BUCKET_BITS) + 1;
        assert!(s.bucket_count() <= cap, "{} buckets > cap {cap}", s.bucket_count());
        assert!(s.memory_bytes() <= 64 + 16 * cap as u64);
    }

    #[test]
    fn rank_queries_are_monotone() {
        let mut s = QuantileSketch::new();
        let mut x = 7u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            s.observe(x >> (x % 50));
        }
        let mut last = 0;
        for rank in 1..=s.count() {
            let v = s.value_at_rank(rank).expect("within count");
            assert!(v >= last, "rank {rank} answered {v} below previous {last}");
            last = v;
        }
    }
}
