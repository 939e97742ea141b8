//! Fig. 8: bandwidth usage during container deployments.
//!
//! Three systems deploy every image and run its startup task:
//!
//! * **Docker** — a fresh client per image: the whole image crosses the wire;
//! * **Gear (no cache)** — the shared cache is emptied before each
//!   deployment: index + every necessary file is downloaded;
//! * **Gear (cache)** — one persistent client per series: versions are
//!   deployed oldest-to-newest and the cache accumulates.

use std::fmt;

use gear_client::{DockerClient, GearClient};
use gear_core::{publish, Converter};
use gear_corpus::Category;
use gear_registry::{DockerRegistry, GearFileStore};

use super::{human_bytes, ExperimentContext};

/// Paper headline numbers: Gear without a cache moves 29.1 % of Docker's
/// bytes (−70.9 %); with a warm cache only 16.2 %.
/// Paper: Gear-no-cache bytes as a fraction of Docker bytes.
pub const PAPER_NO_CACHE_FRACTION: f64 = 0.291;
/// Paper: Gear-with-cache bytes as a fraction of Docker bytes.
pub const PAPER_CACHE_FRACTION: f64 = 0.162;

/// Average bytes per deployment for one category (paper scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct CategoryBandwidth {
    /// Docker: full image pull.
    pub docker: u64,
    /// Gear with an empty cache per deployment.
    pub gear_cold: u64,
    /// Gear with a persistent per-series cache.
    pub gear_warm: u64,
    /// Deployments measured.
    pub deployments: u64,
}

/// The Fig. 8 result.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Per-category averages.
    pub categories: Vec<(Category, CategoryBandwidth)>,
}

/// Prepared registries for the deployment experiments (shared with Fig. 9).
pub struct PublishedCorpus {
    /// Plain Docker registry with every original image.
    pub docker: DockerRegistry,
    /// Docker registry holding the Gear index images.
    pub gear_index: DockerRegistry,
    /// The Gear file store.
    pub gear_files: GearFileStore,
}

/// Converts and publishes the whole corpus once.
pub fn publish_corpus(ctx: &ExperimentContext) -> PublishedCorpus {
    let converter = Converter::new();
    let mut docker = DockerRegistry::new();
    let mut gear_index = DockerRegistry::new();
    let mut gear_files = GearFileStore::with_compression();
    for image in ctx.corpus.all_images() {
        docker.push_image(image);
        let conv = converter.convert(image).expect("corpus images convert");
        publish(&conv, &mut gear_index, &mut gear_files);
    }
    PublishedCorpus { docker, gear_index, gear_files }
}

/// Measures per-deployment bandwidth for all three systems.
pub fn run(ctx: &ExperimentContext, published: &PublishedCorpus) -> Fig8 {
    let mut per_cat: std::collections::HashMap<Category, CategoryBandwidth> =
        std::collections::HashMap::new();

    for series in &ctx.corpus.series {
        let entry = per_cat.entry(series.spec.category).or_default();
        // Persistent Gear client for the warm-cache scenario.
        let mut warm = GearClient::new(ctx.client_config);
        // Persistent cold client whose cache we empty each round (the index
        // level stays, as in the paper's second scenario).
        let mut cold = GearClient::new(ctx.client_config);

        for (image, trace) in series.images.iter().zip(&series.traces) {
            // Docker: fresh client per image = full pull.
            let mut docker = DockerClient::new(ctx.client_config);
            let (_, d) = docker
                .deploy(image.reference(), trace, &published.docker)
                .expect("docker deploy");
            entry.docker += d.bytes_pulled;

            cold.clear_cache();
            let (cid, c) = cold
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear cold deploy");
            cold.destroy(cid);
            entry.gear_cold += c.bytes_pulled;

            let (wid, w) = warm
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear warm deploy");
            warm.destroy(wid);
            entry.gear_warm += w.bytes_pulled;

            entry.deployments += 1;
        }
    }

    let mut categories: Vec<(Category, CategoryBandwidth)> = Category::ALL
        .iter()
        .filter_map(|c| per_cat.remove(c).map(|v| (*c, v)))
        .collect();
    for (_, v) in &mut categories {
        let n = v.deployments.max(1);
        v.docker /= n;
        v.gear_cold /= n;
        v.gear_warm /= n;
    }
    Fig8 { categories }
}

impl Fig8 {
    /// Overall byte totals `(docker, cold, warm)` weighting categories by
    /// their deployment counts.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64);
        for (_, v) in &self.categories {
            t.0 += v.docker * v.deployments;
            t.1 += v.gear_cold * v.deployments;
            t.2 += v.gear_warm * v.deployments;
        }
        t
    }

    /// Gear-cold bytes as a fraction of Docker bytes.
    pub fn cold_fraction(&self) -> f64 {
        let (d, c, _) = self.totals();
        c as f64 / d.max(1) as f64
    }

    /// Gear-warm bytes as a fraction of Docker bytes.
    pub fn warm_fraction(&self) -> f64 {
        let (d, _, w) = self.totals();
        w as f64 / d.max(1) as f64
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 — average bandwidth per deployment")?;
        writeln!(
            f,
            "{:<22}{:>12}{:>14}{:>14}",
            "category", "docker", "gear no-cache", "gear cache"
        )?;
        for (cat, v) in &self.categories {
            writeln!(
                f,
                "{:<22}{:>12}{:>14}{:>14}",
                cat.name(),
                human_bytes(v.docker),
                human_bytes(v.gear_cold),
                human_bytes(v.gear_warm)
            )?;
        }
        write!(
            f,
            "gear/docker bytes: no-cache {:.1}% (paper {:.1}%), cache {:.1}% (paper {:.1}%)",
            self.cold_fraction() * 100.0,
            PAPER_NO_CACHE_FRACTION * 100.0,
            self.warm_fraction() * 100.0,
            PAPER_CACHE_FRACTION * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gear_moves_fewer_bytes_than_docker() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);
        let fig = run(&ctx, &published);
        let (docker, cold, warm) = fig.totals();
        assert!(cold < docker, "cold {cold} vs docker {docker}");
        assert!(warm < cold, "warm {warm} vs cold {cold}");
        assert!(fig.warm_fraction() < fig.cold_fraction());
    }
}
