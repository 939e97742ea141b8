//! The cheap [`Telemetry`] handle instrumented crates hold, and the
//! [`SpanId`] it hands back.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::collector::Collector;

/// Identifies a span inside one collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// The id a disabled handle returns; every span operation on it is a
    /// no-op.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id refers to a real span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// The handle instrumented crates store: a shared [`Collector`], or nothing.
///
/// Every method forwards to the collector method of the same name when
/// there is one and does nothing otherwise, so the disabled path costs one
/// inline branch on the `Option` — no call, no allocation, no lock — which
/// is what keeps always-on instrumentation free on hot paths (union
/// lookups, cache probes). Cloning shares the collector.
#[derive(Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// A disabled handle (the default everywhere).
    pub fn noop() -> Self {
        Telemetry { collector: None }
    }

    /// A handle that records into `collector`.
    pub fn new(collector: Arc<Collector>) -> Self {
        Telemetry { collector: Some(collector) }
    }

    /// A fresh [`Collector`] and the handle that feeds it.
    pub fn collector() -> (Self, Arc<Collector>) {
        let collector = Arc::new(Collector::new());
        (Self::new(collector.clone()), collector)
    }

    /// Whether recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// The sim-time cursor ([`Collector::now`]); zero when disabled.
    #[inline]
    pub fn now(&self) -> Duration {
        self.collector.as_ref().map_or(Duration::ZERO, |c| c.now())
    }

    /// Moves the cursor forward to `now` ([`Collector::set_now`]).
    #[inline]
    pub fn set_now(&self, now: Duration) {
        if let Some(c) = &self.collector {
            c.set_now(now);
        }
    }

    /// Advances the cursor ([`Collector::advance`]).
    #[inline]
    pub fn advance(&self, delta: Duration) {
        if let Some(c) = &self.collector {
            c.advance(delta);
        }
    }

    /// Opens a span at the cursor ([`Collector::span_start`]).
    #[inline]
    pub fn span_start(&self, cat: &'static str, name: &str) -> SpanId {
        self.collector.as_ref().map_or(SpanId::NONE, |c| c.span_start(cat, name))
    }

    /// Opens a span at the cursor that closes, at the cursor, when the
    /// returned guard drops. Disabled, it records nothing and the guard's
    /// drop does nothing: no allocation, no lock.
    #[inline]
    pub fn enter(&self, cat: &'static str, name: &str) -> SpanGuard {
        SpanGuard { span: self.span_start(cat, name), telemetry: self.clone() }
    }

    /// Closes a span at the cursor ([`Collector::span_end`]).
    #[inline]
    pub fn span_end(&self, span: SpanId) {
        if let Some(c) = &self.collector {
            c.span_end(span);
        }
    }

    /// Records a complete span ([`Collector::span_at`]).
    #[inline]
    pub fn span_at(&self, cat: &'static str, name: &str, start: Duration, dur: Duration) -> SpanId {
        self.collector.as_ref().map_or(SpanId::NONE, |c| c.span_at(cat, name, start, dur))
    }

    /// Attaches an argument to a span ([`Collector::span_arg`]).
    #[inline]
    pub fn span_arg(&self, span: SpanId, key: &'static str, value: u64) {
        if let Some(c) = &self.collector {
            c.span_arg(span, key, value);
        }
    }

    /// Records an instant event at the cursor ([`Collector::instant`]).
    #[inline]
    pub fn instant(&self, cat: &'static str, name: &str) {
        if let Some(c) = &self.collector {
            c.instant(cat, name);
        }
    }

    /// Adds to a counter ([`Collector::count`]).
    #[inline]
    pub fn count(&self, key: &str, delta: u64) {
        if let Some(c) = &self.collector {
            c.count(key, delta);
        }
    }

    /// Sets a gauge ([`Collector::gauge_set`]).
    #[inline]
    pub fn gauge_set(&self, key: &str, value: u64) {
        if let Some(c) = &self.collector {
            c.gauge_set(key, value);
        }
    }

    /// Raises a gauge high-water mark ([`Collector::gauge_max`]).
    #[inline]
    pub fn gauge_max(&self, key: &str, value: u64) {
        if let Some(c) = &self.collector {
            c.gauge_max(key, value);
        }
    }

    /// Records a quantile-sketch observation ([`Collector::sketch`]).
    #[inline]
    pub fn sketch(&self, key: &str, value: u64) {
        if let Some(c) = &self.collector {
            c.sketch(key, value);
        }
    }

    /// The one idiom every replay path uses: record a complete, pre-priced
    /// span with its arguments and drag the sim-time cursor to its end
    /// (never backward).
    pub fn scoped_span(
        &self,
        cat: &'static str,
        name: &str,
        start: Duration,
        dur: Duration,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        let Some(c) = &self.collector else {
            return SpanId::NONE;
        };
        let span = c.span_at(cat, name, start, dur);
        for &(key, value) in args {
            c.span_arg(span, key, value);
        }
        c.set_now(start + dur);
        span
    }
}

/// A span opened by [`Telemetry::enter`], closed when this drops.
#[must_use = "the span closes as soon as the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    span: SpanId,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        self.telemetry.span_end(self.span);
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
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
    fn an_entered_span_closes_when_its_guard_drops() {
        let (t, collector) = Telemetry::collector();
        {
            let _outer = t.enter("core", "publish");
            t.advance(Duration::from_millis(2));
            let inner = t.enter("registry", "upload_all");
            t.advance(Duration::from_millis(3));
            drop(inner);
            t.advance(Duration::from_millis(1));
        }
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end, Some(Duration::from_millis(6)));
        assert_eq!(
            (spans[1].start, spans[1].end),
            (Duration::from_millis(2), Some(Duration::from_millis(5)))
        );
        assert!(collector.validate().is_empty());
        let off = Telemetry::noop().enter("core", "publish");
        drop(off);
    }

    #[test]
    fn collector_handle_is_enabled() {
        let (t, collector) = Telemetry::collector();
        assert!(t.enabled());
        t.count("k", 2);
        assert_eq!(collector.metrics().counter("k"), 2);
    }

    /// What the collector's mutex is for: handles cloned onto other
    /// threads record into one collector and nothing is lost.
    #[test]
    fn clones_on_other_threads_lose_nothing() {
        const THREADS: u64 = 4;
        const OPS: u64 = 10_000;
        let (t, collector) = Telemetry::collector();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (t, start) = (t.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        t.count("ops", 1);
                        t.sketch("value", thread * OPS + i);
                    }
                });
            }
        });
        let metrics = collector.metrics();
        assert_eq!(metrics.counter("ops"), THREADS * OPS);
        let sketch = metrics.sketch("value").expect("observed");
        assert_eq!(sketch.count(), THREADS * OPS);
        assert_eq!(sketch.sum(), (0..THREADS * OPS).sum::<u64>());
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
