//! The Overlay2 graph-driver layout on a client (paper §II-B/§II-C).
//!
//! Layers are stored once by diff id and shared between every image that
//! stacks them — Docker's local layer-level sharing. Launching a container
//! union-mounts the image's (flattened) read-only layers under a fresh
//! writable layer.

use std::collections::HashMap;
use std::sync::Arc;

use gear_fs::{FrozenTree, FsError, UnionFs};
use gear_hash::Digest;

use crate::image::Image;
use crate::layer::Layer;
use crate::manifest::ImageConfig;
use crate::reference::ImageRef;

/// Aggregate statistics over an [`Overlay2Store`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Images registered.
    pub images: usize,
    /// Unique layers stored (shared layers counted once).
    pub unique_layers: usize,
    /// Total serialized bytes of unique layers — local disk usage.
    pub layer_bytes: u64,
}

#[derive(Debug, Clone)]
struct ImageRecord {
    config: ImageConfig,
    layer_ids: Vec<Digest>,
}

/// Client-side image store modelled on Docker's Overlay2 graph driver.
#[derive(Debug, Default)]
pub struct Overlay2Store {
    layers: HashMap<Digest, Layer>,
    images: HashMap<ImageRef, ImageRecord>,
    /// Flattened root trees, memoized per image (Overlay2 keeps merged dirs).
    flattened: HashMap<ImageRef, Arc<FrozenTree>>,
}

impl Overlay2Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a layer (no-op if already present). Returns whether it was new.
    pub fn add_layer(&mut self, layer: Layer) -> bool {
        self.layers.insert(layer.diff_id(), layer).is_none()
    }

    /// Registers an image, storing any of its layers not yet local.
    pub fn add_image(&mut self, image: &Image) {
        for layer in image.layers() {
            self.add_layer(layer.clone());
        }
        self.images.insert(
            image.reference().clone(),
            ImageRecord {
                config: image.config().clone(),
                layer_ids: image.layers().iter().map(Layer::diff_id).collect(),
            },
        );
        self.flattened.remove(image.reference());
    }

    /// Whether an image is registered.
    pub fn has_image(&self, reference: &ImageRef) -> bool {
        self.images.contains_key(reference)
    }

    /// Reconstructs a registered image from stored layers.
    pub fn image(&self, reference: &ImageRef) -> Option<Image> {
        let record = self.images.get(reference)?;
        let mut builder =
            crate::image::ImageBuilder::new(reference.clone()).config(record.config.clone());
        for id in &record.layer_ids {
            builder = builder.existing_layer(self.layers.get(id)?.clone());
        }
        Some(builder.build())
    }

    /// Union-mounts the image for a new container: its flattened read-only
    /// root as the lower, a fresh writable upper on top.
    ///
    /// The flattened tree is memoized, frozen once, so concurrent containers
    /// from the same image share it (Docker's layer sharing at runtime).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the image is not registered; layer-replay
    /// errors from corrupt diffs.
    pub fn mount(&mut self, reference: &ImageRef) -> Result<UnionFs, FsError> {
        if let Some(tree) = self.flattened.get(reference) {
            return Ok(UnionFs::over(vec![Arc::clone(tree)]));
        }
        let image = self
            .image(reference)
            .ok_or_else(|| FsError::NotFound(reference.to_string()))?;
        let tree = Arc::new(FrozenTree::from_tree(&image.root_fs()?));
        self.flattened.insert(reference.clone(), Arc::clone(&tree));
        Ok(UnionFs::over(vec![tree]))
    }

    /// Deregisters an image. Layers remain until [`Overlay2Store::gc`].
    pub fn remove_image(&mut self, reference: &ImageRef) -> bool {
        self.flattened.remove(reference);
        self.images.remove(reference).is_some()
    }

    /// Drops layers referenced by no registered image; returns bytes freed.
    pub fn gc(&mut self) -> u64 {
        let live: std::collections::HashSet<Digest> = self
            .images
            .values()
            .flat_map(|rec| rec.layer_ids.iter().copied())
            .collect();
        let mut freed = 0;
        self.layers.retain(|id, layer| {
            if live.contains(id) {
                true
            } else {
                freed += layer.wire_len();
                false
            }
        });
        freed
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            images: self.images.len(),
            unique_layers: self.layers.len(),
            layer_bytes: self.layers.values().map(Layer::wire_len).sum(),
        }
    }

    /// References of all registered images.
    pub fn image_refs(&self) -> Vec<ImageRef> {
        self.images.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use bytes::Bytes;
    use gear_archive::{Archive, ArchivePath, Entry, Metadata};
    use gear_fs::NoFetch;

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

    fn two_images() -> (Image, Image) {
        let base = ImageBuilder::new(r("debian:slim")).layer(layer_with("bin/sh", b"#!")).build();
        let app = ImageBuilder::from_image(r("nginx:1.17"), &base)
            .layer(layer_with("sbin/nginx", b"ELF"))
            .build();
        (base, app)
    }

    #[test]
    fn shared_layers_stored_once() {
        let (base, app) = two_images();
        let mut store = Overlay2Store::new();
        store.add_image(&base);
        store.add_image(&app);
        let stats = store.stats();
        assert_eq!(stats.images, 2);
        assert_eq!(stats.unique_layers, 2, "the base layer must be shared");
    }

    #[test]
    fn mount_serves_merged_rootfs() {
        let (_, app) = two_images();
        let mut store = Overlay2Store::new();
        store.add_image(&app);
        let mut mount = store.mount(app.reference()).unwrap();
        assert_eq!(&mount.read("bin/sh", &NoFetch).unwrap()[..], b"#!");
        assert_eq!(&mount.read("sbin/nginx", &NoFetch).unwrap()[..], b"ELF");
        // Writes stay in the container, not the image.
        mount.write("tmp/scratch", Bytes::from_static(b"x")).unwrap();
        let mut second = store.mount(app.reference()).unwrap();
        assert!(second.read("tmp/scratch", &NoFetch).is_err());
    }

    #[test]
    fn image_roundtrips_through_store() {
        let (_, app) = two_images();
        let mut store = Overlay2Store::new();
        store.add_image(&app);
        let back = store.image(app.reference()).unwrap();
        assert_eq!(back, app);
    }

    #[test]
    fn gc_frees_unreferenced_layers() {
        let (base, app) = two_images();
        let mut store = Overlay2Store::new();
        store.add_image(&base);
        store.add_image(&app);
        store.remove_image(app.reference());
        let freed = store.gc();
        assert_eq!(freed, app.layers()[1].wire_len());
        assert_eq!(store.stats().unique_layers, 1);
        // Base still mountable.
        assert!(store.mount(base.reference()).is_ok());
    }

    #[test]
    fn mount_unknown_image_errors() {
        let mut store = Overlay2Store::new();
        assert!(matches!(store.mount(&r("ghost:1")), Err(FsError::NotFound(_))));
    }
}
