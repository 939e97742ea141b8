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
//! Instrumented crates hold a cheap [`Telemetry`] handle: a shared
//! [`Collector`] or nothing. The default handle is disabled, so hot paths
//! (union-mount lookups, cache probes) pay one predictable branch when
//! telemetry is off — no call, no allocation, no lock. An enabled handle
//! forwards to the collector, whose whole state — cursor, span ring,
//! registry — sits behind one mutex.
//!
//! Fleet-scale aggregation is built from two pieces:
//!
//! * [`QuantileSketch`] — DDSketch-style log-linear buckets with a fixed
//!   relative-error bound and exact (associative, commutative) merge;
//! * [`FleetCollector`] — one bounded flight-recorder [`Collector`] per
//!   node shard, merged hierarchically at read time, so nodes share no
//!   lock on the record path.
//!
//! Exports follow the Chrome/Perfetto trace-event format
//! ([`Collector::trace_json`]) and a flat, sorted `metrics.json`
//! ([`Collector::metrics_json`]); both are hand-rolled writers, keeping this
//! crate dependency-free.

mod collector;
mod export;
mod fleet;
mod handle;
mod metrics;
mod sketch;

pub use collector::{Collector, InstantData, SpanData};
pub use export::metrics_json;
pub use fleet::FleetCollector;
pub use handle::{SpanId, Telemetry};
pub use metrics::MetricsRegistry;
pub use sketch::{QuantileSketch, SketchMergeError, DEFAULT_SUB_BUCKET_BITS};
