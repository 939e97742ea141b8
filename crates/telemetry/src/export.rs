//! Exporters: Chrome/Perfetto `trace.json` and a flat `metrics.json`.
//!
//! Both writers are hand-rolled (this crate has no dependencies) and fully
//! deterministic: spans and instants are emitted in recording order,
//! metrics in key order, and timestamps as exact decimal microseconds
//! (`nanos / 1000` with a fixed three-digit fraction) — so a deterministic
//! recording serializes to byte-identical files. Each fleet shard exports
//! on its own `tid` (`shard + 1`), so a single-shard collector stays
//! byte-compatible with the historical all-`tid:1` format.

use std::fmt::Write as _;
use std::time::Duration;

use crate::collector::{Collector, InstantData, SpanData};
use crate::metrics::MetricsRegistry;

/// Escapes a string for a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats a simulated duration as Chrome-trace microseconds with a fixed
/// three-digit nanosecond fraction (`"12.345"`).
fn micros(d: Duration) -> String {
    let nanos = d.as_nanos();
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// The opening of every trace export.
pub(crate) const TRACE_PRELUDE: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

/// Appends one shard's events — complete spans, then instants — on
/// Chrome-trace thread `tid`. `first` threads the comma state across shards.
pub(crate) fn write_events(
    out: &mut String,
    spans: &[SpanData],
    instants: &[InstantData],
    tid: u32,
    first: &mut bool,
) {
    let mut sep = |out: &mut String| {
        if !std::mem::take(first) {
            out.push(',');
        }
    };
    for span in spans {
        sep(out);
        let _ = write!(out, "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"");
        escape_json(span.cat, out);
        out.push_str("\",\"name\":\"");
        escape_json(&span.name, out);
        let end = span.end.unwrap_or(span.start);
        let _ = write!(
            out,
            "\",\"ts\":{},\"dur\":{}",
            micros(span.start),
            micros(end.saturating_sub(span.start))
        );
        if !span.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in span.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(key, out);
                let _ = write!(out, "\":{value}");
            }
            out.push('}');
        }
        out.push('}');
    }
    for instant in instants {
        sep(out);
        let _ = write!(out, "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"s\":\"t\",\"cat\":\"");
        escape_json(instant.cat, out);
        out.push_str("\",\"name\":\"");
        escape_json(&instant.name, out);
        let _ = write!(out, "\",\"ts\":{}", micros(instant.at));
        out.push('}');
    }
}

impl Collector {
    /// Serializes the recording in the Chrome trace-event format: one
    /// complete (`"ph":"X"`) event per span and one instant (`"ph":"i"`)
    /// event per instant — all on `pid` 1, `tid` `shard + 1` (so the default
    /// shard-0 collector keeps the historical single-track layout, and
    /// Perfetto nests same-track spans by interval containment).
    pub fn trace_json(&self) -> String {
        let spans = self.spans();
        let instants = self.instants();
        let mut out = String::with_capacity(128 + 160 * (spans.len() + instants.len()));
        out.push_str(TRACE_PRELUDE);
        let mut first = true;
        write_events(&mut out, &spans, &instants, self.shard() + 1, &mut first);
        out.push_str("]}\n");
        out
    }

    /// Serializes the metrics registry as flat, key-sorted JSON (see
    /// [`metrics_json`]).
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.metrics())
    }
}

/// Serializes a registry as `{"counters":{...},"gauges":{...},
/// "sketches":{...}}` with keys in sorted order. Sketches carry their
/// summary stats, the pre-computed p50/p99/p999, the relative-error bound,
/// and the sparse `[index, count]` bucket list.
pub fn metrics_json(metrics: &MetricsRegistry) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (key, value)) in metrics.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(key, &mut out);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (key, value)) in metrics.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(key, &mut out);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("},\"sketches\":{");
    for (i, (key, sketch)) in metrics.sketches().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(key, &mut out);
        let q = |p: f64| sketch.quantile(p).unwrap_or(0);
        let _ = write!(
            out,
            "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"err\":{},\
             \"p50\":{},\"p99\":{},\"p999\":{},\"zero\":{},\"buckets\":[",
            sketch.count(),
            sketch.sum(),
            sketch.min().unwrap_or(0),
            sketch.max().unwrap_or(0),
            sketch.relative_error_bound(),
            q(0.5),
            q(0.99),
            q(0.999),
            sketch.zero_count(),
        );
        for (j, (index, count)) in sketch.buckets().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{index},{count}]");
        }
        out.push_str("]}");
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Telemetry;

    #[test]
    fn trace_json_shape() {
        let c = Collector::new();
        let span = c.span_start("client", "deploy");
        c.span_arg(span, "bytes", 42);
        c.advance(Duration::from_micros(1500));
        c.instant("simnet", "fault.drop");
        c.span_end(span);
        let json = c.trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"client\",\"name\":\"deploy\",\
             \"ts\":0.000,\"dur\":1500.000,\"args\":{\"bytes\":42}}"
        ));
        assert!(json.contains(
            "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"t\",\"cat\":\"simnet\",\
             \"name\":\"fault.drop\",\"ts\":1500.000}"
        ));
    }

    #[test]
    fn metrics_json_shape() {
        let c = Collector::new();
        c.count("b.two", 2);
        c.count("a.one", 1);
        c.gauge_set("g", 7);
        let json = c.metrics_json();
        // Counters in sorted key order.
        assert_eq!(
            json,
            "{\"counters\":{\"a.one\":1,\"b.two\":2},\"gauges\":{\"g\":7},\"sketches\":{}}\n"
        );
    }

    #[test]
    fn metrics_json_sketch_shape() {
        let c = Collector::new();
        for v in [0u64, 5, 5, 900] {
            c.sketch("lat", v);
        }
        let json = c.metrics_json();
        assert!(
            json.contains("\"lat\":{\"count\":4,\"sum\":910,\"min\":0,\"max\":900,"),
            "{json}"
        );
        assert!(json.contains("\"err\":0.0078125"), "{json}");
        assert!(json.contains("\"zero\":1"), "{json}");
        assert!(json.contains("\"p999\":"), "{json}");
    }

    /// Both exports of one hand-built recording, byte for byte, captured
    /// before the collector moved its metrics behind the span lock.
    #[test]
    fn exports_of_a_fixed_recording_are_pinned() {
        let us = Duration::from_micros;
        let (t, c) = Telemetry::collector();
        // Everything up to the reset is forgotten, except the cursor.
        let stale = t.span_start("client", "stale");
        t.count("stale.count", 1);
        t.gauge_max("stale.peak", 99);
        t.sketch("stale.nanos", 5);
        t.instant("simnet", "stale");
        t.advance(us(2));
        t.span_end(stale);
        c.reset();

        let outer = t.span_start("client", "deploy");
        t.advance(us(3));
        let inner = t.span_start("client", "pull \"index\"");
        t.advance(Duration::from_nanos(1_250));
        t.span_end(inner);
        let served = t.span_at("registry", "serve", us(5), Duration::from_nanos(250));
        t.span_arg(served, "bytes", 4096);
        t.instant("simnet", "fault.drop");
        t.count("client.requests", 2);
        t.count("client.requests", 3);
        t.count("client.retries", 0);
        t.gauge_set("store.bytes", 10);
        t.gauge_set("store.bytes", 7);
        t.gauge_max("client.peak_buffered", 9);
        t.gauge_max("client.peak_buffered", 4);
        for nanos in [0, 1_000, 1_000, 2_500_000] {
            t.sketch("client.fetch_nanos", nanos);
        }
        t.sketch("client.fetch_bytes", 4096);
        t.advance(us(1));
        t.span_end(outer);

        assert!(c.validate().is_empty(), "{:?}", c.validate());
        assert_eq!(
            c.trace_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"client\",\"name\":\"deploy\",\
             \"ts\":2.000,\"dur\":5.250},\
             {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"client\",\
             \"name\":\"pull \\\"index\\\"\",\"ts\":5.000,\"dur\":1.250},\
             {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"registry\",\"name\":\"serve\",\
             \"ts\":5.000,\"dur\":0.250,\"args\":{\"bytes\":4096}},\
             {\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"t\",\"cat\":\"simnet\",\
             \"name\":\"fault.drop\",\"ts\":6.250}]}\n"
        );
        assert_eq!(
            c.metrics_json(),
            "{\"counters\":{\"client.requests\":5,\"client.retries\":0},\
             \"gauges\":{\"client.peak_buffered\":9,\"store.bytes\":7},\
             \"sketches\":{\
             \"client.fetch_bytes\":{\"count\":1,\"sum\":4096,\"min\":4096,\"max\":4096,\
             \"err\":0.0078125,\"p50\":4128,\"p99\":4128,\"p999\":4128,\"zero\":0,\
             \"buckets\":[[768,1]]},\
             \"client.fetch_nanos\":{\"count\":4,\"sum\":2502000,\"min\":0,\"max\":2500000,\
             \"err\":0.0078125,\"p50\":1004,\"p99\":2506752,\"p999\":2506752,\"zero\":1,\
             \"buckets\":[[637,2],[1356,1]]}}}\n"
        );
    }

    #[test]
    fn escaping_controls_and_quotes() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let c = Collector::new();
            let s = c.span_start("x", "outer");
            c.advance(Duration::from_nanos(1_234_567));
            c.count("k", 3);
            c.sketch("q", 1_000);
            c.span_end(s);
            (c.trace_json(), c.metrics_json())
        };
        assert_eq!(build(), build());
    }
}
