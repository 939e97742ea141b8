//! Deterministic resource-timing models for deployment experiments.
//!
//! The Gear paper measures wall-clock deployment times on two servers joined
//! by a 904 Mbps link, repeating the experiments at 100/20/5 Mbps. This crate
//! replaces the physical testbed with explicit, deterministic models:
//!
//! * [`Link`] — bandwidth + RTT + per-request overhead; computes how long a
//!   request/response of a given size takes.
//! * [`DiskModel`] — sequential throughput + per-file overhead for local I/O
//!   (the paper's HDD vs SSD conversion-time comparison, Fig. 6).
//! * [`NetMetrics`] — byte/request accounting (bandwidth experiments, Fig. 8).
//! * [`FaultPlan`] — seeded, deterministic fault injection
//!   (drops, stalls, corruption, truncation) with failed attempts priced in
//!   simulated time; [`RetryPolicy`] describes a client's retry budget and
//!   [`FaultInjector`] is the one place a faulty request is decomposed into
//!   blocking delay and wire transfers.
//! * [`EventQueue`] / [`FifoLane`] — the event-driven core for fleet-scale
//!   runs: a deterministic event queue (a sorted run beside a binary heap)
//!   keyed on sim-time plus per-link FIFO lanes, replacing eager
//!   whole-transfer pricing so that simulating N concurrent clients costs
//!   O(events), not O(N × polling).
//!
//! Every deployment result in `gear-client` and `gear-bench` is a pure
//! function of these models plus the workload, so runs are reproducible
//! bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use gear_simnet::Link;
//!
//! let link = Link::mbps(100.0);
//! let download = link.request_time(1_000_000); // download 1 MB
//! assert!(download.as_millis() >= 80);         // ~80 ms of transfer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod disk;
mod event;
mod fault;
mod link;
mod metrics;
mod stream;

pub use crash::{CrashPlan, CrashPoint};
pub use disk::DiskModel;
pub use event::{EventQueue, FifoLane, LaneSlot};
pub use fault::{BudgetExhausted, FaultInjector, FaultKind, FaultPlan, RequestCharge, RetryPolicy};
pub use link::{Bandwidth, Link};
pub use metrics::NetMetrics;
pub use stream::{StreamConfig, StreamSchedule};
