//! `repro concurrency`: deployment time vs. fetch-stream count.
//!
//! Sweeps the concurrent fetch engine (`streams` × the Fig. 9 bandwidth
//! presets, cold vs warm cache). The `streams = 1` row is computed by the
//! Fig. 9 code itself, so it reproduces the paper baseline bit-for-bit;
//! the other rows show what pipelining per-request fixed costs buys on
//! each link.

use std::fmt;
use std::time::Duration;

use gear_client::GearClient;
use gear_simnet::Link;

use super::fig8::PublishedCorpus;
use super::fig9::{self, PhaseAverage};
use super::{secs, ExperimentContext};
use crate::artifact::{pins, Metric, Outcome};

/// Stream counts swept per bandwidth preset (1 = the Fig. 9 baseline).
pub const STREAM_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Mean Gear deployment times at one `(bandwidth, streams)` point.
#[derive(Debug, Clone, Copy)]
pub struct StreamPoint {
    /// Concurrent fetch streams.
    pub streams: usize,
    /// Mean cold-cache deployment time.
    pub cold: Duration,
    /// Mean warm-cache deployment time.
    pub warm: Duration,
}

/// The sweep at one bandwidth preset.
#[derive(Debug, Clone)]
pub struct BandwidthSweep {
    /// Preset label, e.g. `"20Mbps"`.
    pub label: &'static str,
    /// One point per entry of [`STREAM_SWEEP`], in order.
    pub points: Vec<StreamPoint>,
}

impl BandwidthSweep {
    /// The `streams = 1` baseline point.
    pub fn baseline(&self) -> StreamPoint {
        self.points[0]
    }
}

/// The full concurrency sweep (one entry per bandwidth preset).
#[derive(Debug, Clone)]
pub struct Concurrency {
    /// Sweeps at 904/100/20/5 Mbps.
    pub sweeps: Vec<BandwidthSweep>,
}

impl Concurrency {
    /// Flattens the sweep into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for sweep in &self.sweeps {
            for point in &sweep.points {
                let prefix = format!("{}/streams{}", sweep.label, point.streams);
                metrics.push(Metric::new(format!("{prefix}/cold_secs"), point.cold.as_secs_f64()));
                metrics.push(Metric::new(format!("{prefix}/warm_secs"), point.warm.as_secs_f64()));
            }
        }
        metrics
    }

    /// The sweep's outcome. A baseline pins the `streams = 1` times only:
    /// they are the Fig. 9 serial numbers, which must not drift.
    pub fn outcome(&self) -> Outcome {
        let metrics = self.metrics();
        let recorded = pins(&metrics, |m| m.key.contains("/streams1/"));
        Outcome { metrics, recorded, ..Outcome::text(self) }
    }
}

/// Runs the sweep; the four bandwidth presets run on separate threads.
pub fn run(ctx: &ExperimentContext, published: &PublishedCorpus) -> Concurrency {
    let sweeps = std::thread::scope(|scope| {
        // The intermediate Vec is the spawn barrier: collecting the
        // handles starts every worker before the first join. Inlining
        // (as `needless_collect` would suggest) serializes the sweep.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = Link::figure9_presets()
            .into_iter()
            .map(|(label, link)| scope.spawn(move || run_at(ctx, published, label, link)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("concurrency worker")).collect()
    });
    Concurrency { sweeps }
}

/// Runs the stream sweep at a single link setting.
pub fn run_at(
    ctx: &ExperimentContext,
    published: &PublishedCorpus,
    label: &'static str,
    link: Link,
) -> BandwidthSweep {
    let mut points = Vec::with_capacity(STREAM_SWEEP.len());
    for streams in STREAM_SWEEP {
        let (cold, warm) = if streams == 1 {
            // The serial baseline IS Fig. 9 — same code, same numbers.
            let (_, cold, warm) = fig9::run_at(ctx, published, label, link).overall();
            (cold, warm)
        } else {
            gear_means(ctx, published, link, streams)
        };
        points.push(StreamPoint { streams, cold, warm });
    }
    BandwidthSweep { label, points }
}

/// Mean Gear cold/warm deployment times over the whole corpus with the
/// fetch engine at `streams`, averaged exactly like Fig. 9.
fn gear_means(
    ctx: &ExperimentContext,
    published: &PublishedCorpus,
    link: Link,
    streams: usize,
) -> (Duration, Duration) {
    let config = ctx.client_config.with_link(link).with_streams(streams);
    let mut cold_avg = PhaseAverage::default();
    let mut warm_avg = PhaseAverage::default();
    for series in &ctx.corpus.series {
        let mut warm = GearClient::new(config);
        let mut cold = GearClient::new(config);
        for (image, trace) in series.images.iter().zip(&series.traces) {
            cold.clear_cache();
            let (cid, c) = cold
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear cold");
            cold.destroy(cid);
            cold_avg.add(c.pull, c.run);

            let (wid, w) = warm
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear warm");
            warm.destroy(wid);
            warm_avg.add(w.pull, w.run);
        }
    }
    (cold_avg.total(), warm_avg.total())
}

impl fmt::Display for Concurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Concurrency — Gear deployment time vs fetch streams")?;
        writeln!(f, "(streams = 1 is the Fig. 9 serial baseline)")?;
        for sweep in &self.sweeps {
            let base = sweep.baseline();
            writeln!(f, "[{}]", sweep.label)?;
            writeln!(
                f,
                "{:<10}{:>14}{:>14}{:>12}{:>12}",
                "streams", "gear no-cache", "gear cache", "cold gain", "warm gain"
            )?;
            for point in &sweep.points {
                writeln!(
                    f,
                    "{:<10}{:>14}{:>14}{:>11.2}x{:>11.2}x",
                    point.streams,
                    secs(point.cold),
                    secs(point.warm),
                    base.cold.as_secs_f64() / point.cold.as_secs_f64().max(f64::MIN_POSITIVE),
                    base.warm.as_secs_f64() / point.warm.as_secs_f64().max(f64::MIN_POSITIVE),
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
    fn streams_one_matches_fig9_and_more_streams_help_on_thin_links() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);

        let sweep = run_at(&ctx, &published, "20Mbps", Link::mbps(20.0));
        let fig9_run = fig9::run_at(&ctx, &published, "20Mbps", Link::mbps(20.0));
        let (_, fig9_cold, fig9_warm) = fig9_run.overall();
        let base = sweep.baseline();
        assert_eq!(base.cold, fig9_cold, "streams=1 must BE the Fig. 9 cold number");
        assert_eq!(base.warm, fig9_warm, "streams=1 must BE the Fig. 9 warm number");

        // Monotone cold-cache improvement as streams grow.
        for pair in sweep.points.windows(2) {
            assert!(
                pair[1].cold <= pair[0].cold,
                "{} streams slower than {}: {:?} > {:?}",
                pair[1].streams,
                pair[0].streams,
                pair[1].cold,
                pair[0].cold
            );
        }
        let wide = sweep.points.last().unwrap();
        assert!(
            wide.cold < base.cold,
            "8 streams must strictly beat serial on 20 Mbps cold: {:?} !< {:?}",
            wide.cold,
            base.cold
        );
    }
}
