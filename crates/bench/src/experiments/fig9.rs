//! Fig. 9: deployment time (pull + run) under different network bandwidths.

use std::fmt;
use std::time::Duration;

use gear_client::{DockerClient, GearClient};
use gear_corpus::Category;
use gear_simnet::Link;

use super::fig8::PublishedCorpus;
use super::{secs, ExperimentContext};
use crate::artifact::Metric;

/// Paper speedups of Gear over Docker, `(bandwidth, warm-cache, no-cache)`.
pub const PAPER_SPEEDUPS: [(&str, f64, f64); 4] = [
    ("904Mbps", 1.64, 1.40),
    ("100Mbps", 2.61, 1.92),
    ("20Mbps", 3.45, 2.23),
    ("5Mbps", 5.01, 2.95),
];

/// Average pull/run split of one system at one bandwidth for one category.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAverage {
    /// Mean pull-phase time.
    pub pull: Duration,
    /// Mean run-phase time.
    pub run: Duration,
    /// Deployments averaged.
    pub count: u32,
}

impl PhaseAverage {
    /// Mean total deployment time.
    pub fn total(&self) -> Duration {
        self.pull + self.run
    }

    /// Folds one deployment's phase split into the running mean.
    pub fn add(&mut self, pull: Duration, run: Duration) {
        // Running mean over count.
        let n = self.count as f64;
        self.pull = Duration::from_secs_f64((self.pull.as_secs_f64() * n + pull.as_secs_f64()) / (n + 1.0));
        self.run = Duration::from_secs_f64((self.run.as_secs_f64() * n + run.as_secs_f64()) / (n + 1.0));
        self.count += 1;
    }
}

/// Results for one bandwidth preset.
#[derive(Debug, Clone)]
pub struct BandwidthRun {
    /// Preset label, e.g. `"904Mbps"`.
    pub label: &'static str,
    /// Per-category `(docker, gear-no-cache, gear-cache)` averages.
    pub categories: Vec<(Category, PhaseAverage, PhaseAverage, PhaseAverage)>,
}

impl BandwidthRun {
    /// Over-all-deployments averages `(docker, cold, warm)`.
    pub fn overall(&self) -> (Duration, Duration, Duration) {
        let mut sums = (0.0f64, 0.0f64, 0.0f64);
        let mut n = 0u32;
        for (_, d, c, w) in &self.categories {
            sums.0 += d.total().as_secs_f64() * d.count as f64;
            sums.1 += c.total().as_secs_f64() * c.count as f64;
            sums.2 += w.total().as_secs_f64() * w.count as f64;
            n += d.count;
        }
        let n = n.max(1) as f64;
        (
            Duration::from_secs_f64(sums.0 / n),
            Duration::from_secs_f64(sums.1 / n),
            Duration::from_secs_f64(sums.2 / n),
        )
    }

    /// `(warm_speedup, cold_speedup)` of Gear over Docker.
    pub fn speedups(&self) -> (f64, f64) {
        let (d, c, w) = self.overall();
        (d.as_secs_f64() / w.as_secs_f64(), d.as_secs_f64() / c.as_secs_f64())
    }
}

/// The full Fig. 9 result (one entry per bandwidth preset).
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Runs at 904/100/20/5 Mbps.
    pub runs: Vec<BandwidthRun>,
}

impl Fig9 {
    /// Flattens the result into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for run in &self.runs {
            let (docker, cold, warm) = run.overall();
            let (warm_speedup, cold_speedup) = run.speedups();
            metrics.push(Metric::new(format!("{}/docker_secs", run.label), docker.as_secs_f64()));
            metrics.push(Metric::new(format!("{}/cold_secs", run.label), cold.as_secs_f64()));
            metrics.push(Metric::new(format!("{}/warm_secs", run.label), warm.as_secs_f64()));
            metrics.push(Metric::new(format!("{}/cold_speedup", run.label), cold_speedup));
            metrics.push(Metric::new(format!("{}/warm_speedup", run.label), warm_speedup));
        }
        metrics
    }
}

/// Deploys every image under Docker / Gear-cold / Gear-warm at each preset.
/// The four bandwidth sweeps are independent and run on separate threads.
pub fn run(ctx: &ExperimentContext, published: &PublishedCorpus) -> Fig9 {
    let runs = std::thread::scope(|scope| {
        // The intermediate Vec is the spawn barrier: collecting the
        // handles starts every worker before the first join. Inlining
        // (as `needless_collect` would suggest) serializes the sweep.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = Link::figure9_presets()
            .into_iter()
            .map(|(label, link)| scope.spawn(move || run_at(ctx, published, label, link)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("fig9 worker")).collect()
    });
    Fig9 { runs }
}

/// Runs the deployment sweep at a single link setting.
pub fn run_at(
    ctx: &ExperimentContext,
    published: &PublishedCorpus,
    label: &'static str,
    link: Link,
) -> BandwidthRun {
    let config = ctx.client_config.with_link(link);
    let mut categories: std::collections::HashMap<
        Category,
        (PhaseAverage, PhaseAverage, PhaseAverage),
    > = std::collections::HashMap::new();

    for series in &ctx.corpus.series {
        let entry = categories.entry(series.spec.category).or_default();
        let mut warm = GearClient::new(config);
        let mut cold = GearClient::new(config);
        for (image, trace) in series.images.iter().zip(&series.traces) {
            let mut docker = DockerClient::new(config);
            let (_, d) =
                docker.deploy(image.reference(), trace, &published.docker).expect("docker");
            entry.0.add(d.pull, d.run);

            cold.clear_cache();
            let (cid, c) = cold
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear cold");
            cold.destroy(cid);
            entry.1.add(c.pull, c.run);

            let (wid, w) = warm
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear warm");
            warm.destroy(wid);
            entry.2.add(w.pull, w.run);
        }
    }

    let categories = Category::ALL
        .iter()
        .filter_map(|c| categories.remove(c).map(|(d, cold, warm)| (*c, d, cold, warm)))
        .collect();
    BandwidthRun { label, categories }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9 — deployment time (pull+run) vs bandwidth")?;
        for run in &self.runs {
            let (d, c, w) = run.overall();
            let (warm_speedup, cold_speedup) = run.speedups();
            let paper = PAPER_SPEEDUPS.iter().find(|(l, _, _)| *l == run.label);
            writeln!(f, "[{}]", run.label)?;
            writeln!(
                f,
                "{:<22}{:>16}{:>16}{:>16}",
                "category", "docker", "gear no-cache", "gear cache"
            )?;
            for (cat, dd, cc, ww) in &run.categories {
                writeln!(
                    f,
                    "{:<22}{:>7}+{:>7}{:>8}+{:>7}{:>8}+{:>7}",
                    cat.name(),
                    secs(dd.pull),
                    secs(dd.run),
                    secs(cc.pull),
                    secs(cc.run),
                    secs(ww.pull),
                    secs(ww.run),
                )?;
            }
            writeln!(
                f,
                "avg docker {} | gear no-cache {} ({:.2}x) | gear cache {} ({:.2}x)",
                secs(d),
                secs(c),
                cold_speedup,
                secs(w),
                warm_speedup
            )?;
            if let Some((_, p_warm, p_cold)) = paper {
                writeln!(f, "paper speedups: cache {p_warm:.2}x, no-cache {p_cold:.2}x")?;
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
    fn gear_wins_and_gains_grow_at_low_bandwidth() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);
        let fast = run_at(&ctx, &published, "904Mbps", Link::paper_testbed());
        let slow = run_at(&ctx, &published, "5Mbps", Link::mbps(5.0));

        let (fast_warm, fast_cold) = fast.speedups();
        let (slow_warm, slow_cold) = slow.speedups();
        assert!(fast_warm > 1.0, "warm speedup at 904Mbps: {fast_warm}");
        assert!(fast_cold > 1.0, "cold speedup at 904Mbps: {fast_cold}");
        assert!(slow_warm > fast_warm, "speedup must grow as bandwidth falls");
        assert!(slow_cold > fast_cold);
        assert!(slow_warm > slow_cold, "cache must help");
    }

    #[test]
    fn gear_pull_shorter_run_longer() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);
        let run = run_at(&ctx, &published, "904Mbps", Link::paper_testbed());
        for (cat, docker, cold, _) in &run.categories {
            assert!(
                cold.pull < docker.pull,
                "{}: gear pull {:?} !< docker pull {:?}",
                cat.name(),
                cold.pull,
                docker.pull
            );
            assert!(
                cold.run > docker.run,
                "{}: gear run {:?} !> docker run {:?} (on-demand fetches)",
                cat.name(),
                cold.run,
                docker.run
            );
        }
    }
}
