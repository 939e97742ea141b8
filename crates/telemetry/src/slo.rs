//! Service-level objectives evaluated from quantile sketches.
//!
//! An [`SloSpec`] names the latency targets a deployment path must meet
//! at p50, p99, and p999. [`SloSpec::evaluate`] reads those quantiles out
//! of a [`QuantileSketch`] and returns an [`SloEval`] carrying both the
//! measured tails and the per-target verdicts — the structure
//! `DeploymentReport` surfaces and the `repro fleet` flash-crowd gate
//! fails on.

use std::fmt;
use std::time::Duration;

use crate::sketch::QuantileSketch;

/// Latency targets for one operation class. Durations are simulated time,
/// like every latency in this repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Median target.
    pub p50: Duration,
    /// 99th-percentile target.
    pub p99: Duration,
    /// 99.9th-percentile target — the fleet tail the paper's evaluations
    /// are judged by.
    pub p999: Duration,
}

/// Measured tails plus per-target verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloEval {
    /// Measured median.
    pub p50: Duration,
    /// Measured 99th percentile.
    pub p99: Duration,
    /// Measured 99.9th percentile.
    pub p999: Duration,
    /// Observations the tails were computed from.
    pub count: u64,
    /// Whether each measured tail is within its target.
    pub p50_ok: bool,
    /// p99 within target.
    pub p99_ok: bool,
    /// p999 within target.
    pub p999_ok: bool,
}

impl SloEval {
    /// Whether every target is met.
    pub fn ok(&self) -> bool {
        self.p50_ok && self.p99_ok && self.p999_ok
    }
}

impl fmt::Display for SloEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = |ok: bool| if ok { "ok" } else { "VIOLATED" };
        write!(
            f,
            "p50 {:.3}ms [{}]  p99 {:.3}ms [{}]  p999 {:.3}ms [{}]  ({} samples)",
            self.p50.as_secs_f64() * 1e3,
            mark(self.p50_ok),
            self.p99.as_secs_f64() * 1e3,
            mark(self.p99_ok),
            self.p999.as_secs_f64() * 1e3,
            mark(self.p999_ok),
            self.count,
        )
    }
}

impl SloSpec {
    /// Evaluates this spec against a sketch of latency observations in
    /// **nanoseconds** (the unit every recorder observes latencies in).
    /// An empty sketch trivially passes with zero tails.
    pub fn evaluate(&self, sketch: &QuantileSketch) -> SloEval {
        let at = |q: f64| Duration::from_nanos(sketch.quantile(q).unwrap_or(0));
        let (p50, p99, p999) = (at(0.5), at(0.99), at(0.999));
        SloEval {
            p50,
            p99,
            p999,
            count: sketch.count(),
            p50_ok: p50 <= self.p50,
            p99_ok: p99 <= self.p99,
            p999_ok: p999 <= self.p999,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(nanos: impl IntoIterator<Item = u64>) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for v in nanos {
            s.observe(v);
        }
        s
    }

    #[test]
    fn evaluates_pass_and_fail() {
        let sketch = sketch_of((1..=1000).map(|i| i * 1_000));
        let loose = SloSpec {
            p50: Duration::from_micros(600),
            p99: Duration::from_micros(1_000),
            p999: Duration::from_micros(1_010),
        };
        let eval = loose.evaluate(&sketch);
        assert!(eval.ok(), "{eval}");
        assert_eq!(eval.count, 1000);

        let tight = SloSpec {
            p50: Duration::from_micros(600),
            p99: Duration::from_micros(700),
            p999: Duration::from_micros(1_010),
        };
        let eval = tight.evaluate(&sketch);
        assert!(!eval.ok());
        assert!(eval.p50_ok && !eval.p99_ok && eval.p999_ok, "{eval}");
    }

    #[test]
    fn empty_sketch_passes_trivially() {
        let spec = SloSpec {
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            p999: Duration::ZERO,
        };
        let eval = spec.evaluate(&QuantileSketch::new());
        assert!(eval.ok());
        assert_eq!(eval.count, 0);
    }
}
