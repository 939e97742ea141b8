//! The one stateful recorder: sim-time spans and instants in a bounded
//! ring ("flight recorder") plus a [`MetricsRegistry`] of counters, gauges,
//! and quantile sketches, all behind one mutex.
//!
//! One lock is enough because writers never meet inside a collector: every
//! engine and the fleet event loop is single-threaded, `gear-par` workers
//! compute first and record afterward, and a fleet gives each node its own
//! collector. The mutex is for safety — a [`Telemetry`](crate::Telemetry)
//! clone on another thread loses nothing — not for throughput.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use crate::handle::SpanId;
use crate::metrics::MetricsRegistry;
use crate::sketch::SketchMergeError;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Category (the emitting subsystem, e.g. `"simnet"`).
    pub cat: &'static str,
    /// Span name (e.g. `"transfer"`).
    pub name: String,
    /// Start, in simulated time.
    pub start: Duration,
    /// End, once closed.
    pub end: Option<Duration>,
    /// Local id of the span open when this one was opened, if any. May
    /// name a span the flight recorder has since dropped.
    pub parent: Option<u32>,
    /// Numeric arguments (`bytes`, `files`, ...), in attach order.
    pub args: Vec<(&'static str, u64)>,
}

/// One recorded instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantData {
    /// Category.
    pub cat: &'static str,
    /// Event name (e.g. `"fault.drop"`).
    pub name: String,
    /// When, in simulated time.
    pub at: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    now: Duration,
    /// Retained spans; local ids are monotonic, `base` is the id of the
    /// front element (ids below it were dropped by the flight recorder).
    spans: VecDeque<SpanData>,
    /// Local id the front of `spans` carries.
    base: u32,
    /// Next local id to assign.
    next: u32,
    /// Ids of currently open spans, innermost last.
    stack: Vec<u32>,
    instants: VecDeque<InstantData>,
    dropped_spans: u64,
    dropped_instants: u64,
    metrics: MetricsRegistry,
}

impl Inner {
    fn span_mut(&mut self, id: u32) -> Option<&mut SpanData> {
        let index = id.checked_sub(self.base)? as usize;
        self.spans.get_mut(index)
    }
}

/// Records spans, instants, and metrics stamped in simulated time.
///
/// The collector holds a **sim-time cursor**: instrumented code moves it
/// forward ([`Collector::advance`] / [`Collector::set_now`], which clamps —
/// the cursor never goes backward) as it charges simulated durations, and
/// open-span starts, span ends, and instants are stamped at it. Since every
/// stamp derives from the deterministic cost models, two runs with the same
/// seed produce identical recordings and therefore byte-identical exports.
///
/// All methods take `&self`; everything recorded sits behind one
/// `std::sync::Mutex` (recording order is the contract). Parallel sections
/// (e.g. `gear-par` workers) should compute first and record complete spans
/// afterward in submission order via [`Collector::span_at`], which is what
/// keeps traces independent of worker count.
///
/// A collector built with [`Collector::with_span_capacity`] is a **flight
/// recorder**: it retains only the last N spans and instants, counting
/// what it sheds ([`Collector::dropped_spans`]) — per-node recorders in a
/// fleet are bounded this way so collector memory never scales with
/// deployment count.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    /// Maximum retained spans (and, separately, instants).
    cap: usize,
    /// Fleet shard id; shard `s` exports on Chrome-trace tid `s + 1`.
    shard: u32,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// An unbounded collector (shard 0) with the cursor at zero.
    pub fn new() -> Self {
        Self::with_shard_and_capacity(0, usize::MAX)
    }

    /// A flight recorder: retains only the last `cap` spans (and the last
    /// `cap` instants), dropping the oldest beyond that.
    pub fn with_span_capacity(cap: usize) -> Self {
        Self::with_shard_and_capacity(0, cap)
    }

    /// A bounded collector recording as fleet shard `shard`.
    pub fn with_shard_and_capacity(shard: u32, cap: usize) -> Self {
        Collector { inner: Mutex::new(Inner::default()), cap: cap.max(1), shard }
    }

    /// This collector's fleet shard id.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Maximum spans the flight recorder retains (`usize::MAX` when
    /// unbounded).
    pub fn span_capacity(&self) -> usize {
        self.cap
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends a span under the innermost open one, shedding the oldest
    /// retained span once `cap` are held.
    fn push_span(
        &self,
        inner: &mut Inner,
        cat: &'static str,
        name: &str,
        start: Duration,
        end: Option<Duration>,
    ) -> u32 {
        let id = inner.next;
        inner.next = inner.next.wrapping_add(1);
        if inner.spans.len() == self.cap {
            inner.spans.pop_front();
            inner.base = inner.base.wrapping_add(1);
            inner.dropped_spans += 1;
        }
        inner.spans.push_back(SpanData {
            cat,
            name: name.to_owned(),
            start,
            end,
            parent: inner.stack.last().copied(),
            args: Vec::new(),
        });
        id
    }

    /// Wipes the recording: spans, instants, drop counters, metrics, and
    /// the open-span stack all return to the freshly constructed state.
    /// The shard id, capacity, and sim-time cursor survive — a reset node
    /// keeps its identity and its place on the simulated timeline, it just
    /// forgets what it recorded.
    ///
    /// This is the node-replacement path: when a fleet site reset
    /// re-images a node, the node's telemetry shard must not leak
    /// pre-reset samples into post-reset tail distributions.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner { now: inner.now, ..Inner::default() };
    }

    /// Snapshot of all retained spans, in recording order.
    pub fn spans(&self) -> Vec<SpanData> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Snapshot of all retained instants, in recording order.
    pub fn instants(&self) -> Vec<InstantData> {
        self.lock().instants.iter().cloned().collect()
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.lock().metrics.clone()
    }

    /// Spans shed by the flight recorder so far.
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped_spans
    }

    /// Instants shed by the flight recorder so far.
    pub fn dropped_instants(&self) -> u64 {
        self.lock().dropped_instants
    }

    /// Approximate resident bytes of retained span and instant storage —
    /// the quantity the fleet experiments gate. Bounded by construction
    /// when a span capacity is set.
    pub fn span_bytes(&self) -> u64 {
        let inner = self.lock();
        let spans: u64 = inner
            .spans
            .iter()
            .map(|s| {
                std::mem::size_of::<SpanData>() as u64
                    + s.name.len() as u64
                    + 16 * s.args.len() as u64
            })
            .sum();
        let instants: u64 = inner
            .instants
            .iter()
            .map(|i| std::mem::size_of::<InstantData>() as u64 + i.name.len() as u64)
            .sum();
        spans + instants
    }

    /// Structural validation of the recording:
    ///
    /// * every span is closed and ends no earlier than it starts;
    /// * spans form a well-nested forest under interval containment — for
    ///   any two spans, their intervals are disjoint or one contains the
    ///   other;
    /// * a child opened inside a retained parent lies within the parent's
    ///   interval (a parent the flight recorder dropped is skipped).
    ///
    /// Returns human-readable problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let inner = self.lock();
        let mut problems = Vec::new();
        for (i, span) in inner.spans.iter().enumerate() {
            let Some(end) = span.end else {
                problems.push(format!("span #{i} {}/{} never closed", span.cat, span.name));
                continue;
            };
            if end < span.start {
                problems.push(format!(
                    "span #{i} {}/{} ends before it starts ({:?} < {:?})",
                    span.cat, span.name, end, span.start
                ));
            }
            if let Some(parent) = span.parent {
                let Some(index) = parent.checked_sub(inner.base).map(|x| x as usize) else {
                    continue; // Parent dropped by the flight recorder.
                };
                let Some(p) = inner.spans.get(index) else { continue };
                let p_end = p.end.unwrap_or(Duration::MAX);
                if span.start < p.start || end > p_end {
                    problems.push(format!(
                        "span #{i} {}/{} escapes its parent {}/{}",
                        span.cat, span.name, p.cat, p.name
                    ));
                }
            }
        }
        // Interval well-nestedness sweep: sort by (start, longest-first) and
        // keep a stack of enclosing end times.
        let mut order: Vec<usize> = (0..inner.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&inner.spans[a], &inner.spans[b]);
            sa.start.cmp(&sb.start).then(sb.end.cmp(&sa.end)).then(a.cmp(&b))
        });
        let mut open: Vec<Duration> = Vec::new();
        for index in order {
            let span = &inner.spans[index];
            let Some(end) = span.end else { continue };
            while open.last().is_some_and(|&e| e <= span.start) {
                open.pop();
            }
            if let Some(&enclosing) = open.last() {
                if end > enclosing {
                    problems.push(format!(
                        "span {}/{} [{:?}..{:?}] straddles an enclosing span ending at {:?}",
                        span.cat, span.name, span.start, end, enclosing
                    ));
                }
            }
            open.push(end);
        }
        problems
    }

    /// The sim-time cursor.
    pub fn now(&self) -> Duration {
        self.lock().now
    }

    /// Moves the sim-time cursor to `now` (a sync point after a pre-priced
    /// section); the cursor never moves backward.
    pub fn set_now(&self, now: Duration) {
        let mut inner = self.lock();
        inner.now = inner.now.max(now);
    }

    /// Advances the sim-time cursor by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.lock().now += delta;
    }

    /// Opens a span starting at the cursor; close it with
    /// [`Collector::span_end`].
    pub fn span_start(&self, cat: &'static str, name: &str) -> SpanId {
        let mut inner = self.lock();
        let start = inner.now;
        let id = self.push_span(&mut inner, cat, name, start, None);
        inner.stack.push(id);
        SpanId(id)
    }

    /// Closes `span` at the cursor.
    pub fn span_end(&self, span: SpanId) {
        if !span.is_some() {
            return;
        }
        let mut inner = self.lock();
        let now = inner.now;
        if let Some(data) = inner.span_mut(span.0) {
            if data.end.is_none() {
                data.end = Some(now.max(data.start));
            }
        }
        if let Some(pos) = inner.stack.iter().rposition(|&id| id == span.0) {
            inner.stack.truncate(pos);
        }
    }

    /// Records a complete span at an explicit start and duration (used for
    /// pre-priced work whose cost was computed before recording); the
    /// cursor does not move.
    pub fn span_at(&self, cat: &'static str, name: &str, start: Duration, dur: Duration) -> SpanId {
        SpanId(self.push_span(&mut self.lock(), cat, name, start, Some(start + dur)))
    }

    /// Attaches a numeric argument to `span`.
    pub fn span_arg(&self, span: SpanId, key: &'static str, value: u64) {
        if !span.is_some() {
            return;
        }
        let mut inner = self.lock();
        if let Some(data) = inner.span_mut(span.0) {
            data.args.push((key, value));
        }
    }

    /// Records an instant event at the cursor.
    pub fn instant(&self, cat: &'static str, name: &str) {
        let mut inner = self.lock();
        let at = inner.now;
        if inner.instants.len() == self.cap {
            inner.instants.pop_front();
            inner.dropped_instants += 1;
        }
        inner.instants.push_back(InstantData { cat, name: name.to_owned(), at });
    }

    /// Adds `delta` to counter `key`.
    pub fn count(&self, key: &str, delta: u64) {
        self.lock().metrics.add(key, delta);
    }

    /// Sets gauge `key` to `value`.
    pub fn gauge_set(&self, key: &str, value: u64) {
        self.lock().metrics.gauge_set(key, value);
    }

    /// Raises gauge `key` to `value` if larger.
    pub fn gauge_max(&self, key: &str, value: u64) {
        self.lock().metrics.gauge_max(key, value);
    }

    /// Records `value` into quantile sketch `key` (latencies in
    /// nanoseconds, sizes in bytes, by convention).
    pub fn sketch(&self, key: &str, value: u64) {
        self.lock().metrics.sketch_observe(key, value);
    }

    /// Merges `metrics` into the registry under the one lock, with
    /// [`MetricsRegistry::merge`]'s semantics. Keys and sketches the
    /// collector lacks move in rather than being cloned, so metrics tallied
    /// elsewhere and handed over cost what recording them here would have.
    ///
    /// # Errors
    ///
    /// [`SketchMergeError`] when a shared sketch key has different
    /// resolution; the collector is untouched in that case.
    pub fn merge_metrics(&self, metrics: MetricsRegistry) -> Result<(), SketchMergeError> {
        self.lock().metrics.merge_owned(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantileSketch;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn spans_nest_on_the_cursor() {
        let c = Collector::new();
        let outer = c.span_start("client", "deploy");
        c.advance(ms(1));
        let inner = c.span_start("client", "pull");
        c.advance(ms(2));
        c.span_end(inner);
        c.advance(ms(3));
        c.span_end(outer);

        let spans = c.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, ms(0));
        assert_eq!(spans[0].end, Some(ms(6)));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].start, ms(1));
        assert_eq!(spans[1].end, Some(ms(3)));
        assert!(c.validate().is_empty(), "{:?}", c.validate());
    }

    #[test]
    fn set_now_never_rewinds() {
        let c = Collector::new();
        c.set_now(ms(10));
        c.set_now(ms(4));
        assert_eq!(c.now(), ms(10));
    }

    #[test]
    fn reset_forgets_the_recording_but_not_the_timeline() {
        let c = Collector::with_shard_and_capacity(3, 2);
        for _ in 0..5 {
            let span = c.span_start("p2p", "deploy");
            c.advance(ms(1));
            c.span_end(span);
            c.instant("p2p", "tick");
        }
        c.count("p2p.deploys", 5);
        c.gauge_set("p2p.registry_egress", 100);
        c.sketch("p2p.deploy_nanos", 1_000_000);
        assert!(c.dropped_spans() > 0);

        c.reset();
        assert!(c.spans().is_empty());
        assert!(c.instants().is_empty());
        assert_eq!(c.dropped_spans(), 0);
        assert_eq!(c.dropped_instants(), 0);
        assert!(c.metrics().is_empty(), "metrics survived reset");
        assert_eq!(c.shard(), 3, "identity survives");
        assert_eq!(c.span_capacity(), 2, "capacity survives");
        assert_eq!(c.now(), ms(5), "the sim-time cursor survives");

        // The collector keeps recording cleanly after the wipe.
        let span = c.span_start("p2p", "deploy");
        c.advance(ms(2));
        c.span_end(span);
        assert_eq!(c.spans().len(), 1);
        assert_eq!(c.spans()[0].start, ms(5));
        assert!(c.validate().is_empty(), "{:?}", c.validate());
    }

    #[test]
    fn validate_catches_unclosed_and_straddling_spans() {
        let c = Collector::new();
        c.span_start("a", "open_forever");
        let problems = c.validate();
        assert!(problems.iter().any(|p| p.contains("never closed")));

        let c = Collector::new();
        c.span_at("a", "first", ms(0), ms(10));
        c.span_at("a", "straddler", ms(5), ms(10));
        let problems = c.validate();
        assert!(problems.iter().any(|p| p.contains("straddles")), "{problems:?}");
    }

    #[test]
    fn complete_spans_under_open_parent_are_contained() {
        let c = Collector::new();
        let parent = c.span_start("client", "window");
        c.span_at("simnet", "transfer", ms(0), ms(4));
        c.span_at("simnet", "transfer", ms(0), ms(7));
        c.set_now(ms(9));
        c.span_end(parent);
        assert!(c.validate().is_empty(), "{:?}", c.validate());
        assert_eq!(c.spans()[1].parent, Some(0));
    }

    #[test]
    fn merged_metrics_equal_the_same_samples_recorded_here() {
        let direct = Collector::new();
        let handed = Collector::new();
        let mut elsewhere = MetricsRegistry::new();
        for (i, v) in [0u64, 7, 129, 4_096, 70_001, 1 << 40].into_iter().enumerate() {
            direct.count("n", 1);
            direct.sketch("lat", v);
            direct.sketch("size", v / 3);
            direct.gauge_max("peak", v);
            // Half of `n` and `lat` is recorded here first, so the merge
            // meets existing keys; `size` and `peak` only exist elsewhere
            // and move in.
            if i % 2 == 0 {
                handed.count("n", 1);
                handed.sketch("lat", v);
            } else {
                elsewhere.add("n", 1);
                elsewhere.sketch_observe("lat", v);
            }
            elsewhere.sketch_observe("size", v / 3);
            elsewhere.gauge_max("peak", v);
        }
        handed.merge_metrics(elsewhere).unwrap();
        assert_eq!(handed.metrics(), direct.metrics());
    }

    #[test]
    fn a_mismatched_sketch_is_an_error_and_merges_nothing() {
        let c = Collector::new();
        c.sketch("lat", 100);
        let before = c.metrics();
        let mut coarse = MetricsRegistry::new();
        coarse.add("n", 3);
        coarse.set_sketch("lat", QuantileSketch::with_sub_bucket_bits(2));
        let err = c.merge_metrics(coarse).unwrap_err();
        assert_eq!((err.ours, err.theirs), (6, 2));
        assert_eq!(c.metrics(), before);
    }

    #[test]
    fn flight_recorder_keeps_the_last_n() {
        let c = Collector::with_span_capacity(4);
        for i in 0..10u64 {
            let span = c.span_at("sim", &format!("op{i}"), ms(i), ms(1));
            c.span_arg(span, "i", i);
            c.instant("sim", "tick");
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "op6");
        assert_eq!(spans[3].name, "op9");
        // Args attach to retained spans by monotonic id even after drops.
        assert_eq!(spans[3].args, vec![("i", 9)]);
        assert_eq!(c.dropped_spans(), 6);
        assert_eq!(c.instants().len(), 4);
        assert_eq!(c.dropped_instants(), 6);
        assert!(c.span_bytes() > 0);
    }
}
