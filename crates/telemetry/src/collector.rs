//! The recording [`Recorder`]: sim-time spans and instants in a bounded
//! ring ("flight recorder") behind one mutex, with counters, gauges, and
//! quantile sketches on striped locks off to the side.
//!
//! The split matters on the hot record path: bumping a counter or
//! observing a latency into a sketch never touches the span mutex — it
//! hashes the key onto one of [`STRIPES`] independent locks, and an
//! already-registered counter needs only a read lock plus one atomic add.
//! Only span and instant storage (which must preserve recording order)
//! stays behind the single mutex.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

use crate::context::{span_key, TraceContext, NO_PARENT_SPAN};
use crate::metrics::MetricsRegistry;
use crate::recorder::{Recorder, SpanId};
use crate::sketch::QuantileSketch;

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
    /// Fleet-unique global key (`shard << 32 | local id`); doubles as the
    /// flow id when this span is a flow producer.
    pub key: u64,
    /// Whether this span caused an outbound request (emits a Chrome flow
    /// -start event with `id = key`).
    pub flow_out: bool,
    /// Flow id of the remote span that caused this one (emits a flow-end
    /// event), when a trace context was adopted.
    pub flow_in: Option<u64>,
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

/// Number of independent metric stripes. Eight is plenty: the point is
/// that concurrent counter traffic on different keys almost never shares
/// a lock, not fine-grained per-key locking.
const STRIPES: usize = 8;

/// FNV-1a stripe selector — deterministic, so a key always lands on the
/// same stripe.
fn stripe_of(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % STRIPES as u64) as usize
}

/// Counters and gauges striped over read-write locks of atomic cells, and
/// sketches striped over plain mutexes. The hot path for an
/// existing counter key is a read lock + `fetch_add`; the write lock is
/// taken once per key, on first touch.
#[derive(Debug, Default)]
struct Stripes {
    counters: [RwLock<BTreeMap<String, AtomicU64>>; STRIPES],
    /// Gauges store the raw value; `gauge_max` uses `fetch_max`.
    gauges: [RwLock<BTreeMap<String, AtomicU64>>; STRIPES],
    sketches: [Mutex<BTreeMap<String, QuantileSketch>>; STRIPES],
}

/// Read-lock fast path over a striped atomic map; falls back to the write
/// lock to insert the key, then applies `op` under the read view again.
fn atomic_update(
    map: &RwLock<BTreeMap<String, AtomicU64>>,
    key: &str,
    init: u64,
    op: impl Fn(&AtomicU64),
) {
    {
        let read = map.read().unwrap_or_else(|e| e.into_inner());
        if let Some(cell) = read.get(key) {
            op(cell);
            return;
        }
    }
    let mut write = map.write().unwrap_or_else(|e| e.into_inner());
    match write.get(key) {
        Some(cell) => op(cell),
        None => {
            write.insert(key.to_owned(), AtomicU64::new(init));
        }
    }
}

impl Stripes {
    fn count(&self, key: &str, delta: u64) {
        atomic_update(&self.counters[stripe_of(key)], key, delta, |cell| {
            cell.fetch_add(delta, Ordering::Relaxed);
        });
    }

    fn gauge_set(&self, key: &str, value: u64) {
        atomic_update(&self.gauges[stripe_of(key)], key, value, |cell| {
            cell.store(value, Ordering::Relaxed);
        });
    }

    fn gauge_max(&self, key: &str, value: u64) {
        atomic_update(&self.gauges[stripe_of(key)], key, value, |cell| {
            cell.fetch_max(value, Ordering::Relaxed);
        });
    }

    /// Looks the key up before owning it: `entry(key.to_owned())` would
    /// allocate a `String` per sample, and this runs once per fetched file.
    fn sketch(&self, key: &str, value: u64) {
        let mut map = self.sketches[stripe_of(key)].lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sketch) = map.get_mut(key) {
            sketch.observe(value);
        } else {
            map.entry(key.to_owned()).or_default().observe(value);
        }
    }

    /// Discards every metric in every stripe.
    fn clear(&self) {
        for stripe in &self.counters {
            stripe.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
        for stripe in &self.gauges {
            stripe.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
        for stripe in &self.sketches {
            stripe.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Folds every stripe into one key-sorted registry snapshot.
    fn snapshot(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for stripe in &self.counters {
            let read = stripe.read().unwrap_or_else(|e| e.into_inner());
            for (key, cell) in read.iter() {
                registry.add(key, cell.load(Ordering::Relaxed));
            }
        }
        for stripe in &self.gauges {
            let read = stripe.read().unwrap_or_else(|e| e.into_inner());
            for (key, cell) in read.iter() {
                registry.gauge_set(key, cell.load(Ordering::Relaxed));
            }
        }
        for stripe in &self.sketches {
            let map = stripe.lock().unwrap_or_else(|e| e.into_inner());
            for (key, sketch) in map.iter() {
                registry.set_sketch(key, sketch.clone());
            }
        }
        registry
    }
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
    /// Active trace id (0 = none); stamped onto outbound contexts.
    trace_id: u64,
}

impl Inner {
    fn span_mut(&mut self, id: u32) -> Option<&mut SpanData> {
        let index = id.checked_sub(self.base)? as usize;
        self.spans.get_mut(index)
    }

    fn push_span(&mut self, data: SpanData, cap: usize) -> u32 {
        let id = self.next;
        self.next = self.next.wrapping_add(1);
        if self.spans.len() == cap {
            self.spans.pop_front();
            self.base = self.base.wrapping_add(1);
            self.dropped_spans += 1;
        }
        self.spans.push_back(data);
        id
    }
}

/// Records spans, instants, and metrics stamped in simulated time.
///
/// The collector holds a **sim-time cursor**: instrumented code moves it
/// forward ([`Recorder::advance`] / [`Recorder::set_now`], which clamps —
/// the cursor never goes backward) as it charges simulated durations, and
/// everything stamped at "now" reads it. Since every stamp derives from the
/// deterministic cost models, two runs with the same seed produce identical
/// recordings and therefore byte-identical exports.
///
/// Span and instant storage sits behind one `std::sync::Mutex` (recording
/// order is the contract); metrics live on striped locks and never contend
/// with it. Parallel sections (e.g. `gear-par` workers) should compute
/// first and record complete spans afterward in submission order via
/// [`Recorder::span_at`], which is what keeps traces independent of worker
/// count.
///
/// A collector built with [`Collector::with_span_capacity`] is a **flight
/// recorder**: it retains only the last N spans and instants, counting
/// what it sheds ([`Collector::dropped_spans`]) — per-node recorders in a
/// fleet are bounded this way so collector memory never scales with
/// deployment count.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    stripes: Stripes,
    /// Maximum retained spans (and, separately, instants).
    cap: usize,
    /// Shard id baked into every span's global key; shard `s` exports on
    /// Chrome-trace tid `s + 1`.
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
        Collector {
            inner: Mutex::new(Inner::default()),
            stripes: Stripes::default(),
            cap: cap.max(1),
            shard,
        }
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

    /// Wipes the recording: spans, instants, drop counters, metrics, the
    /// open-span stack, and the trace id all return to the freshly
    /// constructed state. The shard id, capacity, and sim-time cursor
    /// survive — a reset node keeps its identity and its place on the
    /// simulated timeline, it just forgets what it recorded.
    ///
    /// This is the node-replacement path: when a cluster resets or
    /// upgrades a node, the node's telemetry shard must not leak
    /// pre-upgrade samples into post-upgrade tail distributions.
    pub fn reset(&self) {
        {
            let mut inner = self.lock();
            let now = inner.now;
            *inner = Inner::default();
            inner.now = now;
        }
        self.stripes.clear();
    }

    /// Snapshot of all retained spans, in recording order.
    pub fn spans(&self) -> Vec<SpanData> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Snapshot of all retained instants, in recording order.
    pub fn instants(&self) -> Vec<InstantData> {
        self.lock().instants.iter().cloned().collect()
    }

    /// Snapshot of the metrics registry (folded from the stripes, keys
    /// sorted).
    pub fn metrics(&self) -> MetricsRegistry {
        self.stripes.snapshot()
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
            .map(|s| std::mem::size_of::<SpanData>() as u64 + s.name.len() as u64
                + 16 * s.args.len() as u64)
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
}

impl Recorder for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn now(&self) -> Duration {
        self.lock().now
    }

    fn set_now(&self, now: Duration) {
        let mut inner = self.lock();
        inner.now = inner.now.max(now);
    }

    fn advance(&self, delta: Duration) {
        self.lock().now += delta;
    }

    fn span_start(&self, cat: &'static str, name: &str) -> SpanId {
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let start = inner.now;
        let key = span_key(self.shard, inner.next);
        let id = inner.push_span(
            SpanData {
                cat,
                name: name.to_owned(),
                start,
                end: None,
                parent,
                args: Vec::new(),
                key,
                flow_out: false,
                flow_in: None,
            },
            self.cap,
        );
        inner.stack.push(id);
        SpanId(id)
    }

    fn span_end(&self, span: SpanId) {
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

    fn span_at(&self, cat: &'static str, name: &str, start: Duration, dur: Duration) -> SpanId {
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let key = span_key(self.shard, inner.next);
        let id = inner.push_span(
            SpanData {
                cat,
                name: name.to_owned(),
                start,
                end: Some(start + dur),
                parent,
                args: Vec::new(),
                key,
                flow_out: false,
                flow_in: None,
            },
            self.cap,
        );
        SpanId(id)
    }

    fn span_arg(&self, span: SpanId, key: &'static str, value: u64) {
        if !span.is_some() {
            return;
        }
        let mut inner = self.lock();
        if let Some(data) = inner.span_mut(span.0) {
            data.args.push((key, value));
        }
    }

    fn instant(&self, cat: &'static str, name: &str) {
        let mut inner = self.lock();
        let at = inner.now;
        if inner.instants.len() == self.cap {
            inner.instants.pop_front();
            inner.dropped_instants += 1;
        }
        inner.instants.push_back(InstantData { cat, name: name.to_owned(), at });
    }

    fn count(&self, key: &str, delta: u64) {
        self.stripes.count(key, delta);
    }

    fn gauge_set(&self, key: &str, value: u64) {
        self.stripes.gauge_set(key, value);
    }

    fn gauge_max(&self, key: &str, value: u64) {
        self.stripes.gauge_max(key, value);
    }

    fn sketch(&self, key: &str, value: u64) {
        self.stripes.sketch(key, value);
    }

    fn set_trace_id(&self, trace_id: u64) {
        self.lock().trace_id = trace_id;
    }

    fn outbound_context(&self) -> Option<TraceContext> {
        let mut inner = self.lock();
        if inner.trace_id == 0 {
            return None;
        }
        let trace_id = inner.trace_id;
        let parent_span = match inner.stack.last().copied() {
            Some(id) => {
                // The innermost open span caused this request: mark it as
                // a flow producer so the exporter emits the flow start.
                if let Some(data) = inner.span_mut(id) {
                    data.flow_out = true;
                    data.key
                } else {
                    NO_PARENT_SPAN
                }
            }
            None => NO_PARENT_SPAN,
        };
        Some(TraceContext { trace_id, parent_span })
    }

    fn adopt_context(&self, span: SpanId, ctx: TraceContext) {
        if !span.is_some() {
            return;
        }
        let mut inner = self.lock();
        if let Some(data) = inner.span_mut(span.0) {
            if ctx.parent_span != NO_PARENT_SPAN {
                data.flow_in = Some(ctx.parent_span);
            }
            data.args.push(("trace_id", ctx.trace_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        c.set_trace_id(9);
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

    #[test]
    fn counters_move_without_the_span_mutex() {
        // Hold the span mutex on this thread; counters must still land.
        let c = Collector::new();
        let _guard = c.inner.lock().expect("unpoisoned");
        c.count("cache.hits", 2);
        c.gauge_max("peak", 9);
        c.gauge_max("peak", 4);
        c.sketch("lat", 1_000);
        drop(_guard);
        let m = c.metrics();
        assert_eq!(m.counter("cache.hits"), 2);
        assert_eq!(m.gauge("peak"), Some(9));
        assert_eq!(m.sketch("lat").expect("sketched").count(), 1);
    }

    #[test]
    fn outbound_context_marks_the_open_span() {
        let c = Collector::with_shard_and_capacity(2, usize::MAX);
        assert_eq!(c.outbound_context(), None, "no trace id yet");
        c.set_trace_id(0xabc);
        let span = c.span_start("client", "deploy");
        let ctx = c.outbound_context().expect("trace active");
        assert_eq!(ctx.trace_id, 0xabc);
        assert_eq!(ctx.parent_span, span_key(2, 0));
        c.span_end(span);
        let spans = c.spans();
        assert!(spans[0].flow_out);

        // Consumer side: adopting binds the flow and stamps the trace arg.
        let server = c.span_at("registry", "serve", ms(0), ms(0));
        c.adopt_context(server, ctx);
        let spans = c.spans();
        assert_eq!(spans[1].flow_in, Some(span_key(2, 0)));
        assert!(spans[1].args.contains(&(("trace_id"), 0xabc)));
    }
}
