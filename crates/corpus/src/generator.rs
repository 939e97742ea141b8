//! Corpus generation: series states, version evolution, layering, traces.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use gear_archive::{Archive, ArchivePath, Entry, Metadata};
use gear_image::{Image, ImageBuilder, ImageRef, Layer};

use crate::catalog::{BaseFamily, Category, SeriesSpec, CATALOG};
use crate::content::{make_content, mutate_seeds, new_file_seeds};
use crate::trace::StartupTrace;

/// How to generate a corpus.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Global seed; different seeds give statistically equivalent corpora.
    pub seed: u64,
    /// Every full-scale byte count is divided by this factor. 1024 maps the
    /// paper's 370 GB corpus onto ~360 MB of synthetic content.
    pub scale_denom: u64,
    /// Restrict generation to these series names ([`None`] = all 50).
    pub series: Option<Vec<String>>,
    /// Cap the number of versions per series ([`None`] = catalog values).
    pub max_versions: Option<usize>,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { seed: 0x6EA2, scale_denom: 1024, series: None, max_versions: None }
    }
}

impl CorpusConfig {
    /// The paper-shaped full corpus: all 50 series, 971 images, 1/1024 scale.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A small corpus for unit tests: one series per category, 4 versions,
    /// 1/8192 scale.
    pub fn quick() -> Self {
        CorpusConfig {
            seed: 7,
            scale_denom: 8192,
            series: Some(
                ["debian", "python", "redis", "tomcat", "wordpress", "registry"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            ),
            max_versions: Some(4),
        }
    }

    /// The chunk size the Table II analysis should use at this scale: the
    /// paper's 128 KiB divided by `scale_denom`, floored at 16 bytes.
    pub fn scaled_chunk_size(&self) -> usize {
        ((128 * 1024) / self.scale_denom).max(16) as usize
    }
}

/// One generated image series: images plus their per-version startup traces.
#[derive(Debug, Clone)]
pub struct ImageSeries {
    /// The catalog entry this was generated from.
    pub spec: SeriesSpec,
    /// Images, oldest version first.
    pub images: Vec<Image>,
    /// `traces[i]` is the startup trace of `images[i]`.
    pub traces: Vec<StartupTrace>,
}

impl ImageSeries {
    /// The category of the series.
    pub fn category(&self) -> Category {
        self.spec.category
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All generated series, in catalog order.
    pub series: Vec<ImageSeries>,
    /// The configuration used.
    pub config: CorpusConfig,
}

impl Corpus {
    /// Generates a corpus (deterministic in `config`).
    pub fn generate(config: &CorpusConfig) -> Corpus {
        Generator::new(config.clone()).run()
    }

    /// Iterates over every image.
    pub fn all_images(&self) -> impl Iterator<Item = &Image> {
        self.series.iter().flat_map(|s| s.images.iter())
    }

    /// Total number of images.
    pub fn image_count(&self) -> usize {
        self.series.iter().map(|s| s.images.len()).sum()
    }

    /// Looks up a series by name.
    pub fn series_by_name(&self, name: &str) -> Option<&ImageSeries> {
        self.series.iter().find(|s| s.spec.name == name)
    }}

/// One synthetic file: identity, content seeds, size, and temperature.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileSpec {
    path: String,
    seeds: Vec<u64>,
    len: u64,
    hot: bool,
    exec: bool,
    /// Which application sub-layer the file ships in (0 for base/runtime).
    sublayer: usize,
}

impl FileSpec {
    fn content_key(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.seeds.hash(&mut h);
        self.len.hash(&mut h);
        h.finish()
    }
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix2(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

/// Bernoulli draw keyed by `key`.
#[inline]
fn roll(key: u64, p: f64) -> bool {
    (mix2(key, 0x5EED) as f64 / u64::MAX as f64) < p
}

/// Fraction of a file's blocks rewritten when the file churns.
const BLOCK_CHURN_ON_EDIT: f64 = 0.65;
/// New app files added per version, as a fraction of the group size.
const GROWTH_PER_VERSION: f64 = 0.02;
/// Base image release cadence for application images: one base refresh per
/// this many versions.
const BASE_RELEASE_EVERY: usize = 6;
/// Runtime layer refresh cadence for application images.
const RUNTIME_REV_EVERY: usize = 4;
/// Application content is split into this many Docker sub-layers.
const APP_SUBLAYERS: usize = 4;
/// Per-version refresh probability of each sub-layer, deepest first. The
/// deepest sub-layer (vendored dependencies) changes rarely and gives Docker
/// some genuine layer reuse across versions; the rest are rebuilt on almost
/// every release. Crucially, a *rebuilt* layer still contains mostly
/// unchanged files (per-file churn inside a refresh is
/// `cold_churn / mean(profile)`), which is exactly the redundancy Docker's
/// layer-level dedup cannot see and Gear's file-level sharing can — the
/// core economics of the paper's Fig. 7.
const SUBLAYER_PROFILE: [f64; APP_SUBLAYERS] = [0.30, 1.0, 1.0, 1.0];

/// Mean of [`SUBLAYER_PROFILE`].
fn mean_refresh_prob() -> f64 {
    SUBLAYER_PROFILE.iter().sum::<f64>() / APP_SUBLAYERS as f64
}

struct Generator {
    config: CorpusConfig,
    /// family × release → evolved base file set (shared across series).
    base_cache: HashMap<(BaseFamily, usize), Vec<FileSpec>>,
    /// family × release → the full-variant extras of the distro series.
    extras_cache: HashMap<(BaseFamily, usize), Vec<FileSpec>>,
    /// Layer cache: identical (group, revision) layers are built once and
    /// shared, mirroring how identical Docker layers get identical digests.
    layer_cache: HashMap<u64, Layer>,
    /// Content cache so identical file bodies share one allocation.
    content_cache: HashMap<u64, Bytes>,
    /// Images and files left out because a catalog name or a generated path
    /// is not valid. None is, for the catalog as it stands:
    /// `every_catalog_image_and_file_is_generated` pins that at zero.
    skipped: usize,
}

impl Generator {
    fn new(config: CorpusConfig) -> Self {
        Generator {
            config,
            base_cache: HashMap::new(),
            extras_cache: HashMap::new(),
            layer_cache: HashMap::new(),
            content_cache: HashMap::new(),
            skipped: 0,
        }
    }

    fn run(&mut self) -> Corpus {
        let wanted = wanted_specs(&self.config);
        let mut series = Vec::with_capacity(wanted.len());
        for spec in wanted {
            series.push(self.generate_series(spec));
        }
        Corpus { series, config: self.config.clone() }
    }

    fn generate_series(&mut self, spec: &'static SeriesSpec) -> ImageSeries {
        let versions = self
            .config
            .max_versions
            .map_or(spec.versions, |cap| spec.versions.min(cap));
        let series_seed = mix2(self.config.seed, splitmix(hash_str(spec.name)));
        let is_distro = spec.category == Category::LinuxDistro;

        // Non-base portion of the image (runtime + app groups).
        let base_mb = spec.family.base_size_mb();
        let scratch = spec.full_size_mb < base_mb * 1.2; // e.g. hello-world
        let rest_mb = if is_distro {
            0.0
        } else if scratch {
            spec.full_size_mb
        } else {
            (spec.full_size_mb - base_mb).max(base_mb * 0.2)
        };
        let runtime_mb = rest_mb * 0.35;
        let app_mb = rest_mb * 0.65;

        let mut runtime_files = if runtime_mb > 0.0 {
            self.new_group(
                mix2(series_seed, 1),
                &format!("opt/{}/runtime", spec.name),
                runtime_mb,
                spec.category.hot_fraction() * 0.45,
            )
        } else {
            Vec::new()
        };
        let mut app_files = if app_mb > 0.0 {
            let mut files = self.new_group(
                mix2(series_seed, 2),
                &format!("opt/{}/app", spec.name),
                app_mb,
                spec.category.hot_fraction(),
            );
            // Spread app files round-robin across the Docker sub-layers.
            for (i, file) in files.iter_mut().enumerate() {
                file.sublayer = i % APP_SUBLAYERS;
            }
            files
        } else {
            Vec::new()
        };

        // Within a refreshed sub-layer, per-file churn is scaled so the
        // *expected* per-file churn per version equals the category values.
        let refresh_probs = SUBLAYER_PROFILE;
        let mean_refresh = mean_refresh_prob();
        let cold_refresh_churn = (spec.category.cold_churn() / mean_refresh).min(0.97);
        let hot_refresh_churn = (spec.category.hot_churn() / mean_refresh).min(0.97);
        let mut app_rev = [0u64; APP_SUBLAYERS];

        let mut images = Vec::with_capacity(versions);
        let mut traces = Vec::with_capacity(versions);
        let mut runtime_rev_applied = 0usize;

        for v in 0..versions {
            // --- evolve groups ---------------------------------------------
            if v > 0 && !is_distro {
                let runtime_rev = v / RUNTIME_REV_EVERY;
                if runtime_rev > runtime_rev_applied {
                    runtime_rev_applied = runtime_rev;
                    evolve_group(
                        &mut runtime_files,
                        mix2(series_seed, 100 + runtime_rev as u64),
                        spec.category.cold_churn(),
                        spec.category.hot_churn() * 0.8,
                    );
                }
                for l in 0..APP_SUBLAYERS {
                    let refresh_key = mix2(series_seed, 0x900 + (v as u64) * 16 + l as u64);
                    if !roll(refresh_key, refresh_probs[l]) {
                        continue;
                    }
                    app_rev[l] += 1;
                    let rev_key =
                        mix2(series_seed, 0xA000 + (l as u64) * 0x1000 + app_rev[l]);
                    for (i, file) in app_files.iter_mut().enumerate() {
                        if file.sublayer != l {
                            continue;
                        }
                        let p = if file.hot { hot_refresh_churn } else { cold_refresh_churn };
                        if roll(mix2(rev_key, i as u64), p) {
                            file.seeds =
                                mutate_seeds(&file.seeds, rev_key, BLOCK_CHURN_ON_EDIT);
                        }
                    }
                    if l == APP_SUBLAYERS - 1 {
                        grow_group(
                            &mut app_files,
                            mix2(series_seed, 300 + v as u64),
                            &format!("opt/{}/app", spec.name),
                            self.config.scale_denom,
                        );
                    }
                }
            }

            // --- assemble layers --------------------------------------------
            let Ok(reference) = ImageRef::new(spec.name, &version_tag(v)) else {
                self.skipped += 1;
                continue;
            };
            let mut builder = ImageBuilder::new(reference)
                .env("PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin")
                .env(format!(
                    "{}_VERSION={}",
                    spec.name.to_uppercase().replace('-', "_"),
                    version_tag(v)
                ))
                .cmd([format!("/opt/{}/app/start", spec.name)]);

            let mut hot_paths: Vec<String> = Vec::new();

            if is_distro {
                // A distro image is its slim base plus the full-variant
                // extras, evolving together per release. Sharing the slim
                // files with app series' base layers enables the
                // cross-series dedup visible in the whole-registry results.
                let release = v;
                let mut all = self.base_files(spec.family, release).to_vec();
                all.extend(self.distro_extras(spec.family, release).to_vec());
                hot_paths.extend(all.iter().filter(|f| f.hot).map(|f| f.path.clone()));
                let layer = self.layer_for(mix2(spec.family.seed() ^ 0xD15, release as u64), &all);
                builder = builder.existing_layer(layer);
            } else {
                if !scratch {
                    let release = v / BASE_RELEASE_EVERY;
                    let base = self.base_files(spec.family, release).to_vec();
                    // App containers read a handful of stable base files
                    // (ld.so, libc, sh) at startup.
                    hot_paths.extend(
                        base.iter().filter(|f| f.hot).take(4).map(|f| f.path.clone()),
                    );
                    let layer = self.layer_for(mix2(spec.family.seed(), release as u64), &base);
                    builder = builder.existing_layer(layer);
                }
                if !runtime_files.is_empty() {
                    hot_paths
                        .extend(runtime_files.iter().filter(|f| f.hot).map(|f| f.path.clone()));
                    let key = mix2(series_seed, 0x4000 + runtime_rev_applied as u64);
                    let layer = self.layer_for(key, &runtime_files);
                    builder = builder.existing_layer(layer);
                }
                if !app_files.is_empty() {
                    hot_paths.extend(app_files.iter().filter(|f| f.hot).map(|f| f.path.clone()));
                    // One Docker layer per sub-layer, keyed on its revision:
                    // unrefreshed sub-layers keep their digest and dedup in
                    // the registry across versions.
                    for (l, rev) in app_rev.iter().enumerate() {
                        let files: Vec<FileSpec> = app_files
                            .iter()
                            .filter(|f| f.sublayer == l)
                            .cloned()
                            .collect();
                        if files.is_empty() {
                            continue;
                        }
                        let key = mix2(
                            series_seed,
                            0x8000 + (l as u64) * 0x0001_0000 + rev,
                        );
                        builder = builder.existing_layer(self.layer_for(key, &files));
                    }
                }
            }

            hot_paths.sort();
            hot_paths.dedup();
            images.push(builder.build());
            traces.push(StartupTrace { reads: hot_paths, task: spec.category.task() });
        }

        ImageSeries { spec: *spec, images, traces }
    }

    /// The (cached) base file set of `family` at `release`. Release r evolves
    /// deterministically from release r−1 with the distro churn parameters.
    fn base_files(&mut self, family: BaseFamily, release: usize) -> &[FileSpec] {
        if !self.base_cache.contains_key(&(family, release)) {
            let files = if release == 0 {
                new_group_impl(
                    mix2(family.seed(), 0xBA5E),
                    &format!("usr/{}", family_prefix(family)),
                    family.base_size_mb(),
                    Category::LinuxDistro.hot_fraction(),
                    self.config.scale_denom,
                )
            } else {
                let mut prev = self.base_files(family, release - 1).to_vec();
                evolve_group(
                    &mut prev,
                    mix2(family.seed(), 0xEE00 + release as u64),
                    Category::LinuxDistro.cold_churn(),
                    Category::LinuxDistro.hot_churn(),
                );
                prev
            };
            self.base_cache.insert((family, release), files);
        }
        &self.base_cache[&(family, release)]
    }

    /// The (cached) full-variant extras of the distro series for `family`
    /// at `release`: the content beyond the slim base (docs, locales,
    /// package metadata), evolving at the same cadence.
    fn distro_extras(&mut self, family: BaseFamily, release: usize) -> &[FileSpec] {
        if !self.extras_cache.contains_key(&(family, release)) {
            let full_mb = CATALOG
                .iter()
                .find(|s| s.category == Category::LinuxDistro && s.family == family)
                .map_or(family.base_size_mb() * 2.0, |s| s.full_size_mb);
            let extra_mb = (full_mb - family.base_size_mb()).max(full_mb * 0.05);
            let files = if release == 0 {
                new_group_impl(
                    mix2(family.seed(), 0xF011),
                    &format!("usr/{}/full", family_prefix(family)),
                    extra_mb,
                    Category::LinuxDistro.hot_fraction() * 0.5,
                    self.config.scale_denom,
                )
            } else {
                let mut prev = self.distro_extras(family, release - 1).to_vec();
                evolve_group(
                    &mut prev,
                    mix2(family.seed(), 0xFE00 + release as u64),
                    Category::LinuxDistro.cold_churn(),
                    Category::LinuxDistro.hot_churn(),
                );
                prev
            };
            self.extras_cache.insert((family, release), files);
        }
        &self.extras_cache[&(family, release)]
    }

    fn new_group(
        &mut self,
        identity: u64,
        prefix: &str,
        total_mb: f64,
        hot_fraction: f64,
    ) -> Vec<FileSpec> {
        new_group_impl(identity, prefix, total_mb, hot_fraction, self.config.scale_denom)
    }

    /// Builds (and caches) the layer whose diff is exactly `files`.
    fn layer_for(&mut self, key: u64, files: &[FileSpec]) -> Layer {
        if let Some(layer) = self.layer_cache.get(&key) {
            return layer.clone();
        }
        let mut archive = Archive::new();
        let mut dirs_done = std::collections::HashSet::new();
        let mut sorted: Vec<&FileSpec> = files.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        for file in sorted {
            let Ok(path) = ArchivePath::new(&file.path) else {
                self.skipped += 1;
                continue;
            };
            // Emit parent dirs once.
            let mut ancestors = Vec::new();
            let mut cur = path.parent();
            while let Some(p) = cur {
                if !dirs_done.insert(p.as_str().to_owned()) {
                    break;
                }
                cur = p.parent();
                ancestors.push(p);
            }
            for dir in ancestors.into_iter().rev() {
                archive.push(Entry::dir(dir, Metadata::dir_default()));
            }
            let content = self.content_for(file);
            let meta = if file.exec { Metadata::exec_default() } else { Metadata::file_default() };
            archive.push(Entry::file(path, meta, content));
        }
        archive.sort_by_path();
        let layer = Layer::from_archive(archive);
        self.layer_cache.insert(key, layer.clone());
        layer
    }

    fn content_for(&mut self, file: &FileSpec) -> Bytes {
        match self.content_cache.entry(file.content_key()) {
            MapEntry::Occupied(e) => e.get().clone(),
            MapEntry::Vacant(e) => {
                e.insert(make_content(&file.seeds, file.len)).clone()
            }
        }
    }
}

/// The catalog entries selected by `config.series`, in catalog order.
fn wanted_specs(config: &CorpusConfig) -> Vec<&'static SeriesSpec> {
    CATALOG
        .iter()
        .filter(|spec| match &config.series {
            Some(names) => names.iter().any(|n| n == spec.name),
            None => true,
        })
        .collect()
}

fn family_prefix(family: BaseFamily) -> &'static str {
    match family {
        BaseFamily::Debian => "debian",
        BaseFamily::Alpine => "alpine",
        BaseFamily::Ubuntu => "ubuntu",
        BaseFamily::Centos => "centos",
        BaseFamily::AmazonLinux => "amazonlinux",
        BaseFamily::Busybox => "busybox",
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn version_tag(v: usize) -> String {
    format!("{}.{}.{}", 1 + v / 10, (v / 2) % 5, v % 2)
}

/// How many files a group of `total_mb` (full scale) contains.
fn file_count_for(total_mb: f64) -> usize {
    ((total_mb * 0.55) as usize).clamp(3, 230)
}

fn new_group_impl(
    identity: u64,
    prefix: &str,
    total_mb: f64,
    hot_fraction: f64,
    scale_denom: u64,
) -> Vec<FileSpec> {
    let count = file_count_for(total_mb);
    let total_full_bytes = (total_mb * 1e6) as u64;
    // Skewed size distribution: weight_i in [0.15, ~5.15), a few large files
    // carry most bytes (like real images: small configs, big binaries).
    let weights: Vec<f64> = (0..count)
        .map(|i| {
            let u = mix2(identity, 10 + i as u64) as f64 / u64::MAX as f64;
            0.15 + 5.0 * u * u
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    (0..count)
        .map(|i| {
            let full = (total_full_bytes as f64 * weights[i] / weight_sum) as u64;
            let len = (full / scale_denom).max(24);
            let file_id = mix2(identity, 1000 + i as u64);
            let hot = roll(mix2(file_id, 0x407), hot_fraction);
            let exec = roll(mix2(file_id, 0xE7EC), 0.25);
            let sub = match mix2(file_id, 3) % 4 {
                0 => "lib",
                1 => "bin",
                2 => "share",
                _ => "etc",
            };
            FileSpec {
                path: format!("{prefix}/{sub}/f{i:04}"),
                seeds: new_file_seeds(file_id, len),
                len,
                hot,
                exec,
                sublayer: 0,
            }
        })
        .collect()
}

/// Evolves a group for one revision: each file churns with its
/// temperature's probability; churned files mutate a fraction of blocks.
fn evolve_group(files: &mut [FileSpec], revision_key: u64, cold_churn: f64, hot_churn: f64) {
    for (i, file) in files.iter_mut().enumerate() {
        let p = if file.hot { hot_churn } else { cold_churn };
        if roll(mix2(revision_key, i as u64), p) {
            file.seeds = mutate_seeds(&file.seeds, revision_key, BLOCK_CHURN_ON_EDIT);
        }
    }
}

/// Adds a few new cold files to a group (images grow over time).
fn grow_group(files: &mut Vec<FileSpec>, revision_key: u64, prefix: &str, scale_denom: u64) {
    let additions = ((files.len() as f64 * GROWTH_PER_VERSION).round() as usize).min(6);
    let avg_len = if files.is_empty() {
        1024
    } else {
        (files.iter().map(|f| f.len).sum::<u64>() / files.len() as u64).max(24)
    };
    for k in 0..additions {
        let id = mix2(revision_key, 0xADD + k as u64);
        let len = (avg_len / 2).max(24) * scale_denom / scale_denom.max(1); // scaled already
        files.push(FileSpec {
            path: format!("{prefix}/new/n{:016x}", id),
            seeds: new_file_seeds(id, len),
            len,
            hot: false,
            exec: false,
            sublayer: APP_SUBLAYERS - 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_hash::Fingerprint;

    fn quick() -> Corpus {
        Corpus::generate(&CorpusConfig::quick())
    }

    /// Every catalog name makes a valid image reference and every generated
    /// path a valid archive path, so the whole catalog, every version of it,
    /// generates with no image or file left out.
    #[test]
    fn every_catalog_image_and_file_is_generated() {
        let config = CorpusConfig {
            scale_denom: 1 << 20,
            series: None,
            max_versions: None,
            ..CorpusConfig::default()
        };
        let mut generator = Generator::new(config);
        let corpus = generator.run();
        assert_eq!(generator.skipped, 0);
        assert_eq!(corpus.image_count(), CATALOG.iter().map(|spec| spec.versions).sum::<usize>());
    }

    #[test]
    fn deterministic() {
        let a = quick();
        let b = quick();
        assert_eq!(a.image_count(), b.image_count());
        for (sa, sb) in a.series.iter().zip(&b.series) {
            for (ia, ib) in sa.images.iter().zip(&sb.images) {
                assert_eq!(ia.layers().len(), ib.layers().len());
                for (la, lb) in ia.layers().iter().zip(ib.layers()) {
                    assert_eq!(la.diff_id(), lb.diff_id());
                }
            }
        }
    }

    #[test]
    fn quick_corpus_shape() {
        let corpus = quick();
        assert_eq!(corpus.series.len(), 6);
        assert_eq!(corpus.image_count(), 24);
        for series in &corpus.series {
            assert_eq!(series.images.len(), series.traces.len());
            for image in &series.images {
                assert!(image.file_count() > 0, "{}", image.reference());
                assert!(image.content_bytes() > 0);
            }
        }
    }

    #[test]
    fn traces_reference_existing_files() {
        let corpus = quick();
        for series in &corpus.series {
            for (image, trace) in series.images.iter().zip(&series.traces) {
                assert!(!trace.is_empty(), "{} has an empty trace", image.reference());
                let rootfs = image.root_fs().unwrap();
                for path in &trace.reads {
                    assert!(
                        rootfs.get(path).is_some_and(|n| n.is_file()),
                        "{}: trace path {path} missing",
                        image.reference()
                    );
                }
            }
        }
    }

    #[test]
    fn consecutive_versions_share_files() {
        let corpus = quick();
        // quick() may not include tomcat; any app series works.
        let series = corpus.series_by_name("tomcat").or(corpus.series.first());
        let series = series.expect("non-empty corpus");
        let fingerprints = |img: &Image| -> std::collections::HashSet<Fingerprint> {
            img.layers()
                .iter()
                .flat_map(|l| l.archive().iter())
                .filter_map(|e| match &e.kind {
                    gear_archive::EntryKind::File { content, .. } => {
                        Some(Fingerprint::of(content))
                    }
                    _ => None,
                })
                .collect()
        };
        let v0 = fingerprints(&series.images[0]);
        let v1 = fingerprints(&series.images[1]);
        let shared = v0.intersection(&v1).count();
        assert!(shared > 0, "consecutive versions must share file content");
        assert!(
            shared < v1.len(),
            "consecutive versions must also differ (churn), shared {shared}/{}",
            v1.len()
        );
    }

    #[test]
    fn app_images_share_base_across_series() {
        let config = CorpusConfig {
            series: Some(vec!["python".into(), "redis".into()]), // both Debian-based
            max_versions: Some(1),
            ..CorpusConfig::quick()
        };
        let corpus = Corpus::generate(&config);
        let python = &corpus.series_by_name("python").unwrap().images[0];
        let redis = &corpus.series_by_name("redis").unwrap().images[0];
        // Bottom (base) layers must be the identical layer object.
        assert_eq!(
            python.layers()[0].diff_id(),
            redis.layers()[0].diff_id(),
            "same-family app images share their base layer"
        );
    }

    #[test]
    fn distro_images_are_single_layer() {
        let corpus = quick();
        let debian = corpus.series_by_name("debian").unwrap();
        for image in &debian.images {
            assert_eq!(image.layers().len(), 1);
        }
    }

    #[test]
    fn scaled_total_is_near_expected() {
        let corpus = quick();
        // Quick config: 6 series at 1/8192 scale; just assert sane volume.
        let total: u64 = corpus.all_images().map(|i| i.content_bytes()).sum();
        assert!(total > 50_000, "total {total}");
        assert!(total < 50_000_000, "total {total}");
    }

    #[test]
    fn version_tags_unique() {
        let tags: Vec<String> = (0..20).map(version_tag).collect();
        let mut dedup = tags.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len());
    }

    #[test]
    fn scaled_chunk_matches_paper_ratio() {
        assert_eq!(CorpusConfig::default().scaled_chunk_size(), 128);
        assert_eq!(
            CorpusConfig { scale_denom: 1, ..Default::default() }.scaled_chunk_size(),
            128 * 1024
        );
    }
}
