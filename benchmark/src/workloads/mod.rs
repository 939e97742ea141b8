//! The four workloads and what one pass of any of them reports.

mod deploy;
mod fleet;
mod publish;

pub use deploy::Deploy;
pub use fleet::Fleet;
pub use publish::Publish;

use crate::setup::Inputs;
use crate::stats;
use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["publish", "deploy_cold", "rollout", "fleet"];

/// The simulated-time and byte results of a pass. A pure function of the
/// inputs, so every pass of a run must produce an equal value.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Median simulated seconds per op.
    pub p50_s: f64,
    /// Simulated seconds at `tail_p`.
    pub tail_s: f64,
    /// The reported tail percentile: the highest with ≥ 10 samples beyond.
    pub tail_p: f64,
    /// Samples behind the two percentiles.
    pub samples: u64,
    /// Sum of simulated seconds over the pass.
    pub total_s: f64,
    /// Paper-scale megabytes moved per op.
    pub net_mb_per_op: f64,
    /// Further deterministic counters of the pass (objects stored, cache
    /// hits, events, …) that must also repeat exactly.
    pub invariants: Vec<(&'static str, u64)>,
}

impl SimSummary {
    /// Summarises per-op simulated seconds and the bytes a pass moved.
    pub fn from_ops(sim_s: &[f64], net_bytes: u64, invariants: Vec<(&'static str, u64)>) -> Self {
        let samples = sim_s.len() as u64;
        let tail_p = stats::tail_percentile(samples).unwrap_or(stats::TAIL_CANDIDATES[0]);
        SimSummary {
            p50_s: stats::percentile(sim_s, 0.5),
            tail_s: stats::percentile(sim_s, tail_p),
            tail_p,
            samples,
            total_s: sim_s.iter().sum(),
            net_mb_per_op: net_bytes as f64 / samples as f64 / 1e6,
            invariants,
        }
    }
}

/// What one pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned an error, read bytes differing from the oracle,
    /// or (fleet) lost a client. Oracle checks only run when asked to.
    pub failed: u64,
    /// Simulated-time and byte results.
    pub sim: SimSummary,
}

/// One per-layer metric value, named as in `BENCHMARK.json`.
pub type LayerMetric = (&'static str, f64);

/// A workload: a fixed, seeded sequence of ops over the shared inputs.
pub trait Workload {
    /// One pass: the same ops on fresh state every time. With `verify` the
    /// pass also checks every output against its oracle (warm-up only, so
    /// checking never sits inside a measured pass).
    fn pass(&mut self, inputs: &Inputs, verify: bool) -> PassOutput;

    /// One pass with a live telemetry collector attached wherever the
    /// layers accept one; its wall time against an untraced pass is the
    /// cost of the system's own telemetry.
    fn telemetry_pass(&mut self, inputs: &Inputs) -> PassOutput;

    /// The traced pass: runs every op once more, recording one span per
    /// call into each layer (the real calls plus replays of the op's
    /// inputs through the layer's public functions), and returns the
    /// per-layer metrics it can compute from spans and layer counters.
    fn traced_pass(&mut self, inputs: &Inputs, tracer: &Tracer) -> Vec<LayerMetric>;
}

/// Builds the named workload.
pub fn by_name(name: &str, inputs: &Inputs) -> Option<Box<dyn Workload>> {
    match name {
        "publish" => Some(Box::new(Publish)),
        "deploy_cold" => Some(Box::new(Deploy::cold())),
        "rollout" => Some(Box::new(Deploy::rollout(inputs))),
        "fleet" => Fleet::new(inputs).map(|f| Box::new(f) as Box<dyn Workload>),
        _ => None,
    }
}

/// Megabytes (10^6 bytes).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// `num / den`, or 0 when the denominator is 0 (a layer that saw no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
