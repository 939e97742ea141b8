//! Images: a named stack of layers plus runtime config.

use gear_archive::Archive;
use gear_fs::{FsError, FsTree};

use crate::layer::Layer;
use crate::manifest::ImageConfig;
use crate::reference::ImageRef;

/// A read-only container image: an ordered stack of layers (bottom first)
/// with a runtime config, under a `repository:tag` name.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    reference: ImageRef,
    config: ImageConfig,
    layers: Vec<Layer>,
}

impl Image {
    /// The image's `repository:tag` name.
    pub fn reference(&self) -> &ImageRef {
        &self.reference
    }

    /// Runtime configuration.
    pub fn config(&self) -> &ImageConfig {
        &self.config
    }

    /// Layers, bottom first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total uncompressed (serialized) size of all layers.
    pub fn uncompressed_size(&self) -> u64 {
        self.layers.iter().map(Layer::wire_len).sum()
    }

    /// Total regular-file content bytes across layers (before whiteouts).
    pub fn content_bytes(&self) -> u64 {
        self.layers.iter().map(Layer::content_bytes).sum()
    }

    /// Total number of regular-file entries across layers.
    pub fn file_count(&self) -> usize {
        self.layers.iter().map(|l| l.archive().file_count()).sum()
    }

    /// Reconstructs the root file system by replaying all layers bottom-up —
    /// what the graph driver does to provide "a complete and correct root
    /// file system for the container" (paper §II-C).
    ///
    /// # Errors
    ///
    /// Propagates [`FsError`] from layer replay (e.g. a hardlink to a path
    /// deleted by a later whiteout).
    pub fn root_fs(&self) -> Result<FsTree, FsError> {
        let mut tree = FsTree::new();
        for layer in &self.layers {
            tree.apply_layer(layer.archive())?;
        }
        Ok(tree)
    }

    /// Returns a copy with `layer` stacked on top (`docker commit`).
    pub fn with_layer(&self, layer: Layer, reference: ImageRef) -> Image {
        let mut layers = self.layers.clone();
        layers.push(layer);
        Image { reference, config: self.config.clone(), layers }
    }
}

/// Builder for [`Image`] values.
///
/// ```
/// use gear_image::{ImageBuilder, ImageRef};
/// use gear_archive::Archive;
///
/// let image = ImageBuilder::new("app:1.0".parse::<ImageRef>()?)
///     .layer(Archive::new())
///     .env("MODE=prod")
///     .cmd(["/bin/app"])
///     .build();
/// assert_eq!(image.reference().to_string(), "app:1.0");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    reference: ImageRef,
    config: ImageConfig,
    layers: Vec<Layer>,
}

impl ImageBuilder {
    /// Starts a build for `reference` with no layers and a default config.
    pub fn new(reference: ImageRef) -> Self {
        ImageBuilder { reference, config: ImageConfig::default(), layers: Vec::new() }
    }

    /// Starts from an existing image's layers and config (a `FROM` clause).
    pub fn from_image(reference: ImageRef, base: &Image) -> Self {
        ImageBuilder {
            reference,
            config: base.config().clone(),
            layers: base.layers().to_vec(),
        }
    }

    /// Stacks a diff archive as the next layer.
    pub fn layer(mut self, archive: Archive) -> Self {
        self.layers.push(Layer::from_archive(archive));
        self
    }

    /// Stacks a pre-built layer (shares the underlying archive).
    pub fn existing_layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Stacks a whole tree serialized as a single layer.
    pub fn layer_from_tree(self, tree: &FsTree) -> Self {
        self.layer(tree.to_layer())
    }

    /// Adds one `KEY=value` environment variable.
    pub fn env(mut self, var: impl Into<String>) -> Self {
        self.config.env.push(var.into());
        self
    }

    /// Sets the entrypoint argv.
    pub fn entrypoint<I, S>(mut self, argv: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.config.entrypoint = argv.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the default command argv.
    pub fn cmd<I, S>(mut self, argv: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.config.cmd = argv.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the working directory.
    pub fn working_dir(mut self, dir: impl Into<String>) -> Self {
        self.config.working_dir = dir.into();
        self
    }

    /// Replaces the whole config (used by the Gear converter to copy the
    /// original image's configuration verbatim).
    pub fn config(mut self, config: ImageConfig) -> Self {
        self.config = config;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Image {
        Image { reference: self.reference, config: self.config, layers: self.layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_archive::{ArchivePath, Entry, Metadata};

    fn r(s: &str) -> ImageRef {
        s.parse().unwrap()
    }

    fn layer_with(path: &str, body: &[u8]) -> Archive {
        let mut a = Archive::new();
        a.push(Entry::file(
            ArchivePath::new(path).unwrap(),
            Metadata::file_default(),
            Bytes::copy_from_slice(body),
        ));
        a
    }

    #[test]
    fn root_fs_stacks_layers() {
        let image = ImageBuilder::new(r("nginx:1.17"))
            .layer(layer_with("etc/base", b"base"))
            .layer(layer_with("etc/app", b"app"))
            .build();
        let fs = image.root_fs().unwrap();
        assert!(fs.contains("etc/base"));
        assert!(fs.contains("etc/app"));
        assert_eq!(image.file_count(), 2);
    }

    #[test]
    fn upper_layer_overrides_lower() {
        let image = ImageBuilder::new(r("a:1"))
            .layer(layer_with("f", b"old"))
            .layer(layer_with("f", b"newer"))
            .build();
        let fs = image.root_fs().unwrap();
        assert_eq!(fs.get("f").unwrap().size(), 5);
    }

    #[test]
    fn whiteout_layer_removes() {
        let mut wh = Archive::new();
        wh.push(Entry::whiteout(ArchivePath::new("f").unwrap()));
        let image =
            ImageBuilder::new(r("a:1")).layer(layer_with("f", b"data")).layer(wh).build();
        assert!(!image.root_fs().unwrap().contains("f"));
    }

    #[test]
    fn from_image_shares_base_layers() {
        let base = ImageBuilder::new(r("debian:buster-slim"))
            .layer(layer_with("bin/sh", b"#!"))
            .env("PATH=/bin")
            .build();
        let derived = ImageBuilder::from_image(r("nginx:1.17"), &base)
            .layer(layer_with("usr/sbin/nginx", b"ELF"))
            .build();
        assert_eq!(derived.layers()[0].diff_id(), base.layers()[0].diff_id());
        assert_eq!(derived.config().env, vec!["PATH=/bin"]);
        assert_eq!(derived.layers().len(), 2);
    }

    #[test]
    fn commit_adds_layer() {
        let base = ImageBuilder::new(r("a:1")).layer(layer_with("f", b"1")).build();
        let committed =
            base.with_layer(Layer::from_archive(layer_with("g", b"2")), r("a:2"));
        assert_eq!(committed.layers().len(), 2);
        assert_eq!(committed.reference().tag(), "2");
        assert!(committed.root_fs().unwrap().contains("g"));
    }
}
