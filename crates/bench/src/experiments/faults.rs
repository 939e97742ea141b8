//! Fault sweep: deployment-time degradation under injected network faults.
//!
//! Not a paper figure — a robustness companion to Fig. 9. Every registry
//! request of a cold Gear deployment draws from a seeded
//! [`gear_simnet::FaultPlan`] and is retried under a
//! [`gear_simnet::RetryPolicy`]; the sweep reports how mean deployment time
//! degrades as the drop rate rises on each of the four Fig. 9 bandwidth
//! presets.

use std::fmt;
use std::time::Duration;

use gear_client::{DeployError, GearClient};
use gear_simnet::{FaultPlan, Link, RetryPolicy};
use gear_telemetry::QuantileSketch;

use super::fig8::PublishedCorpus;
use super::{secs, ExperimentContext};

/// Per-request drop probabilities swept per link preset.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Results at one fault rate on one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateRun {
    /// Per-request drop probability.
    pub rate: f64,
    /// Mean time of the successful deployments.
    pub mean: Duration,
    /// Deployments attempted.
    pub deployments: u32,
    /// Deployments aborted with an exhausted retry budget.
    pub failed: u32,
    /// Failed request attempts that were retried.
    pub retries: u64,
    /// Median per-file registry-fetch latency across the rate's
    /// deployments, from the merged
    /// [`gear_client::DeploymentReport::lane_sketches`] `registry` lanes.
    pub registry_p50: Duration,
    /// 99th-percentile per-file registry-fetch latency — where retry
    /// backoff shows up long before the mean moves.
    pub registry_p99: Duration,
}

/// The fault sweep on one bandwidth preset.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultRun {
    /// Preset label, e.g. `"904Mbps"`.
    pub label: &'static str,
    /// One entry per [`FAULT_RATES`] value.
    pub rates: Vec<RateRun>,
}

impl LinkFaultRun {
    /// Mean-time degradation of `run` relative to the fault-free baseline.
    pub fn degradation(&self, run: &RateRun) -> f64 {
        let baseline = self.rates.first().map_or(Duration::ZERO, |r| r.mean);
        if baseline.is_zero() {
            return 1.0;
        }
        run.mean.as_secs_f64() / baseline.as_secs_f64()
    }
}

/// The full fault sweep (one entry per Fig. 9 bandwidth preset).
#[derive(Debug, Clone, PartialEq)]
pub struct Faults {
    /// Runs at 904/100/20/5 Mbps.
    pub runs: Vec<LinkFaultRun>,
}

/// Sweeps every fault rate on every Fig. 9 preset. The four presets are
/// independent and run on separate threads.
pub fn run(ctx: &ExperimentContext, published: &PublishedCorpus) -> Faults {
    let runs = std::thread::scope(|scope| {
        // The intermediate Vec is the spawn barrier: collecting the
        // handles starts every worker before the first join. Inlining
        // (as `needless_collect` would suggest) serializes the sweep.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = Link::figure9_presets()
            .into_iter()
            .map(|(label, link)| scope.spawn(move || run_at(ctx, published, label, link)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("faults worker")).collect()
    });
    Faults { runs }
}

/// Runs the fault sweep at a single link setting. Deployments are cold
/// (cache cleared before each) so every rate issues the same requests, and
/// each rate uses a fresh client with its own seeded plan — the whole sweep
/// is deterministic in the corpus seed and the plan seeds.
pub fn run_at(
    ctx: &ExperimentContext,
    published: &PublishedCorpus,
    label: &'static str,
    link: Link,
) -> LinkFaultRun {
    let config = ctx.client_config.with_link(link);
    let mut rates = Vec::with_capacity(FAULT_RATES.len());
    for (slot, &rate) in FAULT_RATES.iter().enumerate() {
        let seed = 0xFA17 + slot as u64;
        let mut client = GearClient::new(config);
        client.inject_faults(FaultPlan::new(seed).with_drop(rate), RetryPolicy::standard(seed));
        let mut total = Duration::ZERO;
        let mut ok = 0u32;
        let mut registry = QuantileSketch::new();
        let mut run = RateRun {
            rate,
            mean: Duration::ZERO,
            deployments: 0,
            failed: 0,
            retries: 0,
            registry_p50: Duration::ZERO,
            registry_p99: Duration::ZERO,
        };
        for series in &ctx.corpus.series {
            for (image, trace) in series.images.iter().zip(&series.traces) {
                client.clear_cache();
                run.deployments += 1;
                match client.deploy(
                    image.reference(),
                    trace,
                    &published.gear_index,
                    &published.gear_files,
                ) {
                    Ok((cid, report)) => {
                        client.destroy(cid);
                        if let Some(lane) = report.lane_sketches().get("registry") {
                            // Same default resolution; merge cannot fail.
                            let _ = registry.merge(lane);
                        }
                        total += report.total();
                        ok += 1;
                    }
                    Err(DeployError::FaultBudgetExhausted { .. }) => run.failed += 1,
                    Err(e) => panic!("unexpected deploy error under faults: {e}"),
                }
            }
        }
        // Cumulative over the whole client, aborted deployments included.
        run.retries = client.fault_retries();
        if ok > 0 {
            run.mean = total / ok;
        }
        let at = |q: f64| Duration::from_nanos(registry.quantile(q).unwrap_or(0));
        run.registry_p50 = at(0.5);
        run.registry_p99 = at(0.99);
        rates.push(run);
    }
    LinkFaultRun { label, rates }
}

impl fmt::Display for Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fault sweep — deployment-time degradation vs drop rate")?;
        writeln!(f, "(cold Gear deployments; 4 attempts, 2s timeout, exponential backoff)")?;
        for run in &self.runs {
            writeln!(f, "[{}]", run.label)?;
            writeln!(
                f,
                "{:<12}{:>14}{:>14}{:>12}{:>12}{:>10}{:>10}",
                "drop rate", "mean deploy", "degradation", "fetch p50", "fetch p99", "retries",
                "failed"
            )?;
            for rate in &run.rates {
                let ms = |d: Duration| format!("{:.2}ms", d.as_secs_f64() * 1e3);
                writeln!(
                    f,
                    "{:<12}{:>14}{:>13.2}x{:>12}{:>12}{:>10}{:>7}/{}",
                    format!("{:.0}%", rate.rate * 100.0),
                    secs(rate.mean),
                    run.degradation(rate),
                    ms(rate.registry_p50),
                    ms(rate.registry_p99),
                    rate.retries,
                    rate.failed,
                    rate.deployments,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig8::publish_corpus;

    #[test]
    fn degradation_grows_with_fault_rate() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);
        let run = run_at(&ctx, &published, "100Mbps", Link::mbps(100.0));
        let baseline = &run.rates[0];
        assert_eq!(baseline.failed, 0, "rate 0 must never fail");
        assert_eq!(baseline.retries, 0);
        let worst = run.rates.last().unwrap();
        assert!(worst.retries > 0, "a 50% drop rate must trigger retries");
        assert!(
            run.degradation(worst) > run.degradation(baseline),
            "mean deployment time must degrade: {:?} vs {:?}",
            worst.mean,
            baseline.mean
        );
        // Retry backoff lands on individual fetches, so the registry-lane
        // tail inflates with the drop rate.
        assert!(baseline.registry_p99 > Duration::ZERO, "fault-free fetches still have tails");
        assert!(
            worst.registry_p99 >= baseline.registry_p99,
            "fetch p99 must not shrink under faults: {:?} vs {:?}",
            worst.registry_p99,
            baseline.registry_p99
        );
    }
}
