//! Shared set-up: everything a workload receives as input.
//!
//! One seeded corpus, pushed to a Docker-format registry (the baseline and
//! the read oracle) and converted + published into a Gear index registry
//! and file store. Every workload gets the same [`Inputs`]; `setup_s` is
//! the wall time of [`Inputs::build`].

use std::collections::HashSet;

use gear_client::ClientConfig;
use gear_core::{publish, Converter, ConverterOptions};
use gear_corpus::{Corpus, CorpusConfig, ImageSeries, StartupTrace};
use gear_image::Image;
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::DiskModel;

/// The corpus scale: the paper's 370 GB at 1/1024.
pub const SCALE_DENOM: u64 = 1024;
/// Versions kept per series (50 series × ≤ 4 = 199 images).
pub const MAX_VERSIONS: usize = 4;
/// `rollout` caches this share of what an unbounded cache would hold.
///
/// The version-major schedule is cyclic, so LRU has a cliff: below about
/// 0.35–0.45 of the resident bytes (it moves with the seed) a file is
/// evicted just before its next version asks for it and the hit ratio
/// falls from 0.42 to 0.05. Half the resident bytes sits above the cliff
/// for every seed tried while still evicting ~3 300 files a pass, so the
/// workload measures hits *and* eviction instead of one seed-dependent
/// side of the cliff.
pub const ROLLOUT_CACHE_SHARE: f64 = 0.5;

/// Generated inputs shared by all workloads.
pub struct Inputs {
    /// The seeded corpus.
    pub corpus: Corpus,
    /// Docker-format registry holding every original image: the baseline
    /// and, through [`Image::root_fs`], the byte-equality oracle.
    pub docker: DockerRegistry,
    /// Docker registry holding the Gear index images.
    pub index: DockerRegistry,
    /// The Gear file store.
    pub files: GearFileStore,
    /// Scaled bytes the rollout schedule leaves resident in an unbounded
    /// cache: the distinct Gear files all startup traces touch.
    pub rollout_resident_bytes: u64,
}

/// The converter every publish uses: the repository's Fig. 6 HDD
/// configuration, so `ConversionReport::duration` is paper-scale seconds.
/// Host work is that of `Converter::new()`: the options only feed the time
/// estimate, and `threads` stays 1.
pub fn converter() -> Converter {
    Converter::with_options(ConverterOptions {
        disk: DiskModel::hdd(),
        byte_scale: SCALE_DENOM,
        count_scale: 22.0,
        ..Default::default()
    })
}

/// The client cost model: the paper's testbed at the corpus scale.
pub fn client_config() -> ClientConfig {
    ClientConfig::paper_testbed(SCALE_DENOM)
}

impl Inputs {
    /// Generates the corpus from `seed` and publishes it.
    ///
    /// # Errors
    ///
    /// A description of the first image that failed to convert, or of a
    /// file store that does not verify.
    pub fn build(seed: u64) -> Result<Inputs, String> {
        let corpus = Corpus::generate(&CorpusConfig {
            seed,
            scale_denom: SCALE_DENOM,
            series: None,
            max_versions: Some(MAX_VERSIONS),
        });
        let converter = converter();
        let mut docker = DockerRegistry::new();
        let mut index = DockerRegistry::new();
        let mut files = GearFileStore::with_compression();
        let mut touched = HashSet::new();
        let mut rollout_resident_bytes = 0u64;
        for series in &corpus.series {
            for (image, trace) in series.images.iter().zip(&series.traces) {
                docker.push_image(image);
                let conversion = converter
                    .convert(image)
                    .map_err(|e| format!("set-up: {} does not convert: {e}", image.reference()))?;
                publish(&conversion, &mut index, &mut files);
                let gear_index = conversion.gear_image.index();
                for path in &trace.reads {
                    if let Some((fingerprint, size)) = gear_index.file_at(path) {
                        if touched.insert(fingerprint) {
                            rollout_resident_bytes += size;
                        }
                    }
                }
            }
        }
        let corrupt = files.verify();
        if !corrupt.is_empty() {
            return Err(format!(
                "set-up: {} stored objects fail verification",
                corrupt.len()
            ));
        }
        Ok(Inputs {
            corpus,
            docker,
            index,
            files,
            rollout_resident_bytes,
        })
    }

    /// Every `(image, trace)` pair in series-major order (all versions of
    /// the first series, then the next): the op order of `publish` and
    /// `deploy_cold`.
    pub fn series_major(&self) -> Vec<(&Image, &StartupTrace)> {
        self.corpus
            .series
            .iter()
            .flat_map(|s| s.images.iter().zip(&s.traces))
            .collect()
    }

    /// Every `(image, trace, previous version)` in version-major order (v1
    /// of every series, then v2, …): the op order of `rollout`.
    pub fn version_major(&self) -> Vec<(&Image, &StartupTrace, Option<&Image>)> {
        let mut ops = Vec::with_capacity(self.corpus.image_count());
        for v in 0..MAX_VERSIONS {
            for series in &self.corpus.series {
                if let Some(op) = nth_version(series, v) {
                    ops.push(op);
                }
            }
        }
        ops
    }

    /// The rollout client's cache capacity in scaled bytes.
    pub fn rollout_capacity(&self) -> u64 {
        (self.rollout_resident_bytes as f64 * ROLLOUT_CACHE_SHARE) as u64
    }
}

fn nth_version(series: &ImageSeries, v: usize) -> Option<(&Image, &StartupTrace, Option<&Image>)> {
    let image = series.images.get(v)?;
    let previous = v.checked_sub(1).map(|p| &series.images[p]);
    Some((image, &series.traces[v], previous))
}
