//! The unified metrics registry: counters, gauges, and quantile sketches
//! with exact merge semantics.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::sketch::{QuantileSketch, SketchMergeError};

/// Counters, gauges, and quantile sketches keyed by dotted
/// names (e.g. `cache.hits`). Keys live in `BTreeMap`s so iteration — and
/// therefore every export — has one deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `key` (created at zero). Like every writer
    /// here, looks the key up by `&str` and owns it only on first touch:
    /// these run once per fetched file, and `entry(key.to_owned())` would
    /// allocate a `String` per sample.
    pub fn add(&mut self, key: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(key) {
            *v += delta;
        } else {
            self.counters.insert(key.to_owned(), delta);
        }
    }

    /// Sets gauge `key` to `value`.
    pub fn gauge_set(&mut self, key: &str, value: u64) {
        if let Some(v) = self.gauges.get_mut(key) {
            *v = value;
        } else {
            self.gauges.insert(key.to_owned(), value);
        }
    }

    /// Raises gauge `key` to `value` if larger (high-water mark).
    pub fn gauge_max(&mut self, key: &str, value: u64) {
        if let Some(v) = self.gauges.get_mut(key) {
            *v = (*v).max(value);
        } else {
            self.gauges.insert(key.to_owned(), value);
        }
    }

    /// Records `value` into quantile sketch `key`, created at default
    /// resolution on first observation.
    pub fn sketch_observe(&mut self, key: &str, value: u64) {
        if let Some(sketch) = self.sketches.get_mut(key) {
            sketch.observe(value);
        } else {
            self.sketches.entry(key.to_owned()).or_default().observe(value);
        }
    }

    /// Sets sketch `key` to `sketch`, replacing any sketch recorded under
    /// it — the way to hand a registry a distribution observed elsewhere.
    pub fn set_sketch(&mut self, key: &str, sketch: QuantileSketch) {
        self.sketches.insert(key.to_owned(), sketch);
    }

    /// Current value of counter `key` (zero if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of gauge `key`, if set.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.get(key).copied()
    }

    /// Quantile sketch `key`, if any observation was recorded.
    pub fn sketch(&self, key: &str) -> Option<&QuantileSketch> {
        self.sketches.get(key)
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Quantile sketches in key order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.sketches.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.sketches.is_empty()
    }

    /// Merges `other` in: counters add, gauges keep the max (the only
    /// commutative choice for a high-water aggregation), sketches merge
    /// exactly — which is what makes registry merge associative and
    /// commutative, so node → site → cloud aggregation yields the same
    /// registry in any grouping.
    ///
    /// # Errors
    ///
    /// [`SketchMergeError`] when a shared sketch key has different
    /// resolution; `self` is untouched in that case.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), SketchMergeError> {
        self.merge_owned(other.clone())
    }

    /// [`MetricsRegistry::merge`] of a registry the caller gives up: keys
    /// and sketches `self` lacks move in instead of being cloned.
    pub(crate) fn merge_owned(&mut self, other: MetricsRegistry) -> Result<(), SketchMergeError> {
        for (key, theirs) in &other.sketches {
            if let Some(ours) = self.sketches.get(key) {
                ours.can_merge(theirs)?;
            }
        }
        for (key, delta) in other.counters {
            *self.counters.entry(key).or_insert(0) += delta;
        }
        for (key, value) in other.gauges {
            let ours = self.gauges.entry(key).or_insert(value);
            *ours = (*ours).max(value);
        }
        for (key, theirs) in other.sketches {
            match self.sketches.entry(key) {
                Entry::Occupied(mut ours) => ours.get_mut().merge(&theirs)?,
                Entry::Vacant(slot) => {
                    slot.insert(theirs);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.add("cache.hits", 2);
        r.add("cache.hits", 3);
        r.gauge_set("cache.bytes", 10);
        r.gauge_max("cache.bytes", 4);
        r.gauge_max("cache.bytes", 40);
        assert_eq!(r.counter("cache.hits"), 5);
        assert_eq!(r.gauge("cache.bytes"), Some(40));
    }

    #[test]
    fn registry_merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        a.add("n", 1);
        a.gauge_set("g", 7);
        let mut b = MetricsRegistry::new();
        b.add("n", 2);
        b.add("only_b", 9);
        b.gauge_set("g", 3);
        a.merge(&b).unwrap();
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("only_b"), 9);
        assert_eq!(a.gauge("g"), Some(7), "gauge merge keeps the max");
    }

    #[test]
    fn registry_merge_combines_sketches() {
        let mut a = MetricsRegistry::new();
        a.sketch_observe("lat", 100);
        a.sketch_observe("lat", 200);
        let mut b = MetricsRegistry::new();
        b.sketch_observe("lat", 300);
        b.sketch_observe("only_b", 1);
        a.merge(&b).unwrap();
        assert_eq!(a.sketch("lat").unwrap().count(), 3);
        assert_eq!(a.sketch("lat").unwrap().max(), Some(300));
        assert_eq!(a.sketch("only_b").unwrap().count(), 1);
    }

    #[test]
    fn set_sketch_replaces() {
        let mut r = MetricsRegistry::new();
        r.sketch_observe("lat", 100);
        r.set_sketch("lat", QuantileSketch::with_sub_bucket_bits(2));
        assert_eq!(r.sketch("lat"), Some(&QuantileSketch::with_sub_bucket_bits(2)));
    }

    #[test]
    fn registry_merge_rejects_mismatched_sketch_resolution() {
        let mut a = MetricsRegistry::new();
        a.sketch_observe("lat", 100);
        let before = a.clone();
        let mut b = MetricsRegistry::new();
        b.add("n", 3);
        b.gauge_set("g", 4);
        b.sketch_observe("only_b", 1);
        let mut coarse = QuantileSketch::with_sub_bucket_bits(2);
        coarse.observe(100);
        b.sketches.insert("lat".to_owned(), coarse);
        assert!(a.merge(&b).is_err());
        assert_eq!(a, before, "a refused merge changes nothing");
    }
}
