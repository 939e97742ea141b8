//! Deterministic observability for the Gear deployment path.
//!
//! Every latency in this repository is *simulated*: links, disks, and retry
//! backoffs are priced by cost models, never by the wall clock. This crate
//! makes that timeline observable without breaking it. A [`Collector`]
//! records hierarchical spans and instant events stamped in **simulated
//! time** (a cursor the instrumented code advances as it charges durations)
//! plus a typed [`MetricsRegistry`] of counters, gauges, and mergeable
//! [`QuantileSketch`]es — the one distribution metric, for latencies and
//! byte sizes alike — with exact merge semantics. Because every stamp
//! derives from the deterministic cost models, the exported trace is a pure
//! function of the experiment seed — same seed, byte-identical `trace.json`.
//!
//! Instrumented crates talk to the [`Recorder`] trait through a cheap
//! [`Telemetry`] handle. The default handle is a no-op whose `enabled` flag
//! is cached inline, so hot paths (union-mount lookups, cache probes) pay
//! one predictable branch when telemetry is off — no dynamic dispatch, no
//! allocation, no lock.
//!
//! Fleet-scale aggregation is built from three pieces:
//!
//! * [`QuantileSketch`] — DDSketch-style log-linear buckets with a fixed
//!   relative-error bound and exact (associative, commutative) merge;
//! * [`FleetCollector`] — one bounded flight-recorder [`Collector`] per
//!   node shard, merged hierarchically at read time, with no shared lock
//!   on the record path (counters and gauges additionally sit on striped
//!   atomics inside each collector);
//! * [`TraceContext`] — the causal identity a request carries across node
//!   boundaries (one extra gear-proto header, [`TRACE_HEADER`]), exported
//!   as Chrome flow events so cross-node spans stitch into one tree.
//!
//! [`SloSpec`] closes the loop: tail targets evaluated straight from the
//! sketches, surfaced in deployment reports and gated by `repro fleet`.
//!
//! Exports follow the Chrome/Perfetto trace-event format
//! ([`Collector::trace_json`]) and a flat, sorted `metrics.json`
//! ([`Collector::metrics_json`]); both are hand-rolled writers, keeping this
//! crate dependency-free.

mod collector;
mod context;
mod export;
mod fleet;
mod metrics;
mod recorder;
mod sketch;
mod slo;

pub use collector::{Collector, InstantData, SpanData};
pub use context::{span_key, trace_id_for, TraceContext, NO_PARENT_SPAN, TRACE_HEADER};
pub use export::metrics_json;
pub use fleet::FleetCollector;
pub use metrics::MetricsRegistry;
pub use recorder::{NoopRecorder, Recorder, SpanId, Telemetry};
pub use sketch::{QuantileSketch, SketchMergeError, DEFAULT_SUB_BUCKET_BITS};
pub use slo::{SloEval, SloSpec};
