//! The [`Recorder`] trait instrumented crates talk to, its zero-cost no-op
//! implementation, and the cheap [`Telemetry`] handle they hold.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::collector::Collector;
use crate::context::TraceContext;

/// Identifies a span inside one recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// The id returned by disabled recorders; every span operation on it is
    /// a no-op.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id refers to a real span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// Sink for spans, instant events, and metrics, stamped in simulated time.
///
/// All methods take `&self` (implementations use interior mutability) so a
/// recorder can be shared across crates and threads behind one `Arc`. The
/// **sim-time cursor** is the recorder's notion of "now": instrumented code
/// advances it as it charges simulated durations, and open-span starts,
/// span ends, and instants are stamped at the cursor. Pre-priced sections
/// (parallel batches, replayed timelines) record *complete* spans at
/// explicit times with [`Recorder::span_at`] instead of touching the
/// cursor.
///
/// Every method has a no-op default, which is the entire implementation of
/// [`NoopRecorder`].
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything (false = all methods no-op).
    fn enabled(&self) -> bool {
        false
    }

    /// The sim-time cursor.
    fn now(&self) -> Duration {
        Duration::ZERO
    }

    /// Moves the sim-time cursor to `now` (a sync point after a pre-priced
    /// section; the cursor also never moves backward — see
    /// [`Collector`](crate::Collector)).
    fn set_now(&self, _now: Duration) {}

    /// Advances the sim-time cursor by `delta`.
    fn advance(&self, _delta: Duration) {}

    /// Opens a span starting at the cursor; close it with
    /// [`Recorder::span_end`].
    fn span_start(&self, _cat: &'static str, _name: &str) -> SpanId {
        SpanId::NONE
    }

    /// Closes `span` at the cursor.
    fn span_end(&self, _span: SpanId) {}

    /// Records a complete span at an explicit start and duration (used for
    /// pre-priced work whose cost was computed before recording).
    fn span_at(&self, _cat: &'static str, _name: &str, _start: Duration, _dur: Duration) -> SpanId {
        SpanId::NONE
    }

    /// Attaches a numeric argument to `span`.
    fn span_arg(&self, _span: SpanId, _key: &'static str, _value: u64) {}

    /// Records an instant event at the cursor.
    fn instant(&self, _cat: &'static str, _name: &str) {}

    /// Adds `delta` to counter `key`.
    fn count(&self, _key: &str, _delta: u64) {}

    /// Sets gauge `key` to `value`.
    fn gauge_set(&self, _key: &str, _value: u64) {}

    /// Raises gauge `key` to `value` if larger.
    fn gauge_max(&self, _key: &str, _value: u64) {}

    /// Records `value` into quantile sketch `key` (latencies in
    /// nanoseconds, sizes in bytes, by convention).
    fn sketch(&self, _key: &str, _value: u64) {}

    /// Activates trace `trace_id` on this recorder: subsequent spans belong
    /// to it and [`Recorder::outbound_context`] stamps it on the wire.
    /// Id `0` means "no trace".
    fn set_trace_id(&self, _trace_id: u64) {}

    /// The context to attach to an outbound request: the active trace id
    /// plus the global key of the innermost open span, which is marked as a
    /// flow producer (the exporter emits its flow-start event). `None` when
    /// no trace is active.
    fn outbound_context(&self) -> Option<TraceContext> {
        None
    }

    /// Adopts a context received off the wire onto `span`: binds the flow
    /// (the exporter emits a flow-end from the remote parent into `span`)
    /// and stamps the trace id as a span argument.
    fn adopt_context(&self, _span: SpanId, _ctx: TraceContext) {}
}

/// A recorder that keeps nothing; every method is the trait's no-op default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The handle instrumented crates store: a shared [`Recorder`] plus a cached
/// `enabled` flag.
///
/// The flag is copied out of the recorder at construction, so the disabled
/// path costs one inline branch — no virtual call, which is what keeps
/// always-on instrumentation free on hot paths (union lookups, cache
/// probes). Cloning shares the recorder.
#[derive(Clone)]
pub struct Telemetry {
    recorder: Arc<dyn Recorder>,
    enabled: bool,
}

impl Telemetry {
    /// A disabled handle (the default everywhere).
    pub fn noop() -> Self {
        Telemetry { recorder: Arc::new(NoopRecorder), enabled: false }
    }

    /// Wraps an arbitrary recorder, caching its `enabled` flag.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        let enabled = recorder.enabled();
        Telemetry { recorder, enabled }
    }

    /// A fresh [`Collector`] and the handle that feeds it.
    pub fn collector() -> (Self, Arc<Collector>) {
        let collector = Arc::new(Collector::new());
        (Self::new(collector.clone()), collector)
    }

    /// Whether recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The sim-time cursor ([`Recorder::now`]).
    pub fn now(&self) -> Duration {
        if self.enabled {
            self.recorder.now()
        } else {
            Duration::ZERO
        }
    }

    /// Moves the cursor forward to `now` ([`Recorder::set_now`]).
    #[inline]
    pub fn set_now(&self, now: Duration) {
        if self.enabled {
            self.recorder.set_now(now);
        }
    }

    /// Advances the cursor ([`Recorder::advance`]).
    #[inline]
    pub fn advance(&self, delta: Duration) {
        if self.enabled {
            self.recorder.advance(delta);
        }
    }

    /// Opens a span at the cursor ([`Recorder::span_start`]).
    #[inline]
    pub fn span_start(&self, cat: &'static str, name: &str) -> SpanId {
        if self.enabled {
            self.recorder.span_start(cat, name)
        } else {
            SpanId::NONE
        }
    }

    /// Closes a span at the cursor ([`Recorder::span_end`]).
    #[inline]
    pub fn span_end(&self, span: SpanId) {
        if self.enabled {
            self.recorder.span_end(span);
        }
    }

    /// Records a complete span ([`Recorder::span_at`]).
    #[inline]
    pub fn span_at(&self, cat: &'static str, name: &str, start: Duration, dur: Duration) -> SpanId {
        if self.enabled {
            self.recorder.span_at(cat, name, start, dur)
        } else {
            SpanId::NONE
        }
    }

    /// Attaches an argument to a span ([`Recorder::span_arg`]).
    #[inline]
    pub fn span_arg(&self, span: SpanId, key: &'static str, value: u64) {
        if self.enabled {
            self.recorder.span_arg(span, key, value);
        }
    }

    /// Records an instant event at the cursor ([`Recorder::instant`]).
    #[inline]
    pub fn instant(&self, cat: &'static str, name: &str) {
        if self.enabled {
            self.recorder.instant(cat, name);
        }
    }

    /// Adds to a counter ([`Recorder::count`]).
    #[inline]
    pub fn count(&self, key: &str, delta: u64) {
        if self.enabled {
            self.recorder.count(key, delta);
        }
    }

    /// Sets a gauge ([`Recorder::gauge_set`]).
    #[inline]
    pub fn gauge_set(&self, key: &str, value: u64) {
        if self.enabled {
            self.recorder.gauge_set(key, value);
        }
    }

    /// Raises a gauge high-water mark ([`Recorder::gauge_max`]).
    #[inline]
    pub fn gauge_max(&self, key: &str, value: u64) {
        if self.enabled {
            self.recorder.gauge_max(key, value);
        }
    }

    /// Records a quantile-sketch observation ([`Recorder::sketch`]).
    #[inline]
    pub fn sketch(&self, key: &str, value: u64) {
        if self.enabled {
            self.recorder.sketch(key, value);
        }
    }

    /// Activates a trace ([`Recorder::set_trace_id`]).
    #[inline]
    pub fn set_trace_id(&self, trace_id: u64) {
        if self.enabled {
            self.recorder.set_trace_id(trace_id);
        }
    }

    /// Context for an outbound request ([`Recorder::outbound_context`]).
    #[inline]
    pub fn outbound_context(&self) -> Option<TraceContext> {
        if self.enabled {
            self.recorder.outbound_context()
        } else {
            None
        }
    }

    /// Adopts a received context onto a span
    /// ([`Recorder::adopt_context`]).
    #[inline]
    pub fn adopt_context(&self, span: SpanId, ctx: TraceContext) {
        if self.enabled {
            self.recorder.adopt_context(span, ctx);
        }
    }

    /// The one idiom every replay path uses: record a complete, pre-priced
    /// span with its arguments and drag the sim-time cursor to its end
    /// (never backward). Collapses the hand-rolled
    /// "span_at + span_arg… + set_now" blocks in gear-client, gear-p2p,
    /// and gear-registry into a single call.
    pub fn scoped_span(
        &self,
        cat: &'static str,
        name: &str,
        start: Duration,
        dur: Duration,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let span = self.recorder.span_at(cat, name, start, dur);
        for &(key, value) in args {
            self.recorder.span_arg(span, key, value);
        }
        self.recorder.set_now(start + dur);
        span
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::noop()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_inert() {
        let t = Telemetry::noop();
        assert!(!t.enabled());
        let span = t.span_start("cat", "name");
        assert!(!span.is_some());
        t.count("k", 1);
        t.advance(Duration::from_secs(1));
        assert_eq!(t.now(), Duration::ZERO);
    }

    #[test]
    fn collector_handle_is_enabled() {
        let (t, collector) = Telemetry::collector();
        assert!(t.enabled());
        t.count("k", 2);
        assert_eq!(collector.metrics().counter("k"), 2);
    }

    #[test]
    fn scoped_span_records_args_and_drags_the_cursor() {
        let (t, collector) = Telemetry::collector();
        let base = Duration::from_millis(5);
        t.scoped_span("client", "pull", base, Duration::from_millis(3), &[("bytes", 42)]);
        // A shorter span later must not rewind the cursor.
        t.scoped_span("client", "warm", base, Duration::from_millis(1), &[]);
        assert_eq!(t.now(), Duration::from_millis(8));
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].args, vec![("bytes", 42)]);
        assert_eq!(spans[0].end, Some(Duration::from_millis(8)));
    }
}
