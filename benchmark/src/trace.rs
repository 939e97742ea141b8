//! In-memory spans recorded around calls into each layer.
//!
//! A [`Tracer`] is only handed to a workload in its traced pass; the
//! measured passes never see one, so end-to-end metrics carry no tracing
//! cost. Spans nest by call structure (the open span is the parent of the
//! next one opened), are kept in memory, and are written out once at exit.
//! A span also records the allocator counters at its two boundaries, so
//! per-layer allocation columns are measured where the work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::COUNTERS;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (crate) the call went into, e.g. `store`.
    pub layer: &'static str,
    /// The call, e.g. `put`.
    pub name: &'static str,
    /// Index of the workload op the call belongs to: spans of one op share it.
    pub op: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Bytes allocated between the two boundaries.
    pub alloc_bytes: u64,
    /// Allocation calls between the two boundaries.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing a `(layer, name)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed durations.
    pub nanos: u64,
    /// Summed self time: duration minus the part covered by child spans.
    pub self_nanos: u64,
    /// Summed bytes allocated.
    pub alloc_bytes: u64,
    /// Summed allocation calls.
    pub allocs: u64,
}

impl Totals {
    /// Total time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_nanos as f64 / 1e6
    }
}

/// Totals by `(layer, name)`; a call that was never made reads as zero.
#[derive(Debug)]
pub struct Summary(BTreeMap<(&'static str, &'static str), Totals>);

impl Summary {
    /// Totals of one call.
    pub fn of(&self, layer: &'static str, name: &'static str) -> Totals {
        self.0.get(&(layer, name)).copied().unwrap_or_default()
    }

    /// Total milliseconds spent in one call.
    pub fn ms(&self, layer: &'static str, name: &'static str) -> f64 {
        self.of(layer, name).ms()
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Records spans; single-threaded, like the load generator.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
    alloc_bytes: u64,
    allocs: u64,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, reserved up front
    /// so recording does not itself allocate inside the spans it measures.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
                op: 0,
            }),
        }
    }

    /// Sets the op index stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.state.borrow_mut().op = op;
    }

    /// Opens a span as a child of the currently open one.
    pub fn enter(&self, layer: &'static str, name: &'static str) -> SpanGuard<'_> {
        let counters = COUNTERS.snapshot();
        let mut state = self.state.borrow_mut();
        let index = state.spans.len() as u32;
        let parent = state.open.last().copied();
        let op = state.op;
        state.open.push(index);
        state.spans.push(Span {
            layer,
            name,
            op,
            start_ns: 0,
            end_ns: 0,
            parent,
            alloc_bytes: 0,
            allocs: 0,
        });
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping stays outside the interval.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut state.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = start_ns;
        SpanGuard {
            tracer: self,
            index,
            alloc_bytes: counters.total,
            allocs: counters.calls,
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(layer, name);
        f()
    }

    /// All closed spans, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Per-`(layer, name)` totals, self time included.
    pub fn summary(&self) -> Summary {
        Summary(totals(&self.state.borrow().spans))
    }

    /// [`nesting_problems`] of the recorded spans.
    pub fn nesting_problems(&self) -> Vec<String> {
        nesting_problems(&self.state.borrow().spans)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::with_capacity(state.spans.len() * 128 + 2);
        out.push('[');
        for (i, s) in state.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"op\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"alloc_bytes\":{},\"allocs\":{}}}",
                s.layer, s.name, s.op, s.start_ns, s.end_ns, s.alloc_bytes, s.allocs
            );
        }
        out.push_str("\n]\n");
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        let counters = COUNTERS.snapshot();
        let mut state = self.tracer.state.borrow_mut();
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(self.index), "spans close innermost first");
        let span = &mut state.spans[self.index as usize];
        span.end_ns = end_ns;
        span.alloc_bytes = counters.total - self.alloc_bytes;
        span.allocs = counters.calls - self.allocs;
    }
}

/// Sums spans by `(layer, name)`; a span's self time is its duration minus
/// the durations of its direct children (children never overlap: there is
/// one thread and spans close innermost first).
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Totals> {
    let mut child_nanos = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_nanos[parent as usize] += span.nanos();
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_nanos) {
        let t = out.entry((span.layer, span.name)).or_default();
        t.calls += 1;
        t.nanos += span.nanos();
        t.self_nanos += span.nanos().saturating_sub(*children);
        t.alloc_bytes += span.alloc_bytes;
        t.allocs += span.allocs;
    }
    out
}

/// Structural problems in a span list: a child outside its parent's
/// interval, a parent that opened later than its child, or siblings that
/// overlap. Empty means well-nested.
pub fn nesting_problems(spans: &[Span]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut last_sibling_end: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            problems.push(format!("span {i} ends before it starts"));
        }
        if let Some(p) = span.parent {
            match spans.get(p as usize) {
                Some(parent) if (p as usize) < i => {
                    if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                        problems.push(format!("span {i} escapes its parent {p}"));
                    }
                }
                _ => problems.push(format!("span {i} names parent {p} that did not open first")),
            }
        }
        let prev_end = last_sibling_end
            .insert(span.parent, span.end_ns)
            .unwrap_or(0);
        if span.start_ns < prev_end {
            problems.push(format!("span {i} overlaps its previous sibling"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer: "t",
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
            alloc_bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 → a 10..40 (→ leaf 15..25), b 50..90
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t[&("t", "root")].self_nanos, 100 - 30 - 40);
        assert_eq!(t[&("t", "a")].self_nanos, 30 - 10);
        assert_eq!(t[&("t", "leaf")].self_nanos, 10);
        assert_eq!(t[&("t", "b")].self_nanos, 40);
        // Self times partition the root interval.
        let total_self: u64 = t.values().map(|x| x.self_nanos).sum();
        assert_eq!(total_self, 100);
        assert!(nesting_problems(&spans).is_empty());
    }

    #[test]
    fn nesting_check_catches_escapes_and_overlaps() {
        let escapes = vec![span("root", 0, 50, None), span("child", 40, 60, Some(0))];
        assert_eq!(nesting_problems(&escapes).len(), 1);
        let overlaps = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
        ];
        assert_eq!(nesting_problems(&overlaps).len(), 1);
    }

    #[test]
    fn recorded_spans_nest_by_call_structure_and_count_allocations() {
        let tracer = Tracer::with_capacity(8);
        tracer.set_op(7);
        tracer.span("bench", "op", || {
            tracer.span("layer", "call", || {
                std::hint::black_box(Vec::<u8>::with_capacity(1 << 16));
            });
            tracer.span("layer", "call", || {});
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[1].alloc_bytes >= 1 << 16 && spans[1].allocs >= 1);
        assert!(spans[0].alloc_bytes >= spans[1].alloc_bytes);
        assert!(nesting_problems(&spans).is_empty());
        assert_eq!(tracer.summary().of("layer", "call").calls, 2);
        assert_eq!(tracer.summary().ms("never", "called"), 0.0);
        assert!(tracer.to_json().contains("\"parent\":0"));
    }
}
