//! The Docker registry: manifests + compressed blobs with layer-level dedup.

use std::collections::HashMap;

use gear_compress::Level;
use gear_hash::Digest;
use gear_image::{
    CompressedLayer, Descriptor, Image, ImageConfig, ImageRef, Layer, Manifest,
    MEDIA_TYPE_CONFIG, MEDIA_TYPE_LAYER,
};

/// Result of pushing an image (what actually crossed the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushReport {
    /// Layers uploaded because their digest was new to the registry.
    pub layers_uploaded: usize,
    /// Layers skipped by layer-level deduplication.
    pub layers_deduped: usize,
    /// Compressed bytes uploaded (layers + config + manifest).
    pub bytes_uploaded: u64,
}

/// Storage accounting for a registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of manifests (tagged images).
    pub manifests: usize,
    /// Number of unique blobs (layers + configs).
    pub blobs: usize,
    /// Total stored blob bytes (compressed).
    pub blob_bytes: u64,
    /// Total manifest bytes.
    pub manifest_bytes: u64,
}

impl RegistryStats {
    /// Total bytes on disk.
    pub fn total_bytes(&self) -> u64 {
        self.blob_bytes + self.manifest_bytes
    }
}

/// A centralized Docker registry (paper §II-B): layers stored as compressed
/// blobs keyed by digest, deduplicated at layer granularity; manifests keyed
/// by `repository:tag`.
#[derive(Debug, Default)]
pub struct DockerRegistry {
    manifests: HashMap<ImageRef, Manifest>,
    blobs: HashMap<Digest, Vec<u8>>,
}

impl DockerRegistry {
    /// Creates an empty registry compressing at the default level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an image: compresses each layer at [`Level::Default`], then
    /// [`DockerRegistry::push_layers`].
    pub fn push_image(&mut self, image: &Image) -> PushReport {
        let blobs = image
            .layers()
            .iter()
            .map(|layer| gear_compress::compress(&layer.archive().to_bytes(), Level::Default));
        self.push_layers(image.reference(), image.config(), blobs)
    }

    /// Pushes an image as its compressed layer blobs, bottom first: uploads
    /// the blobs whose digests are not yet stored (layer-level dedup),
    /// stores config and manifest.
    pub fn push_layers(
        &mut self,
        reference: &ImageRef,
        config: &ImageConfig,
        blobs: impl IntoIterator<Item = Vec<u8>>,
    ) -> PushReport {
        let mut report = PushReport::default();
        let blobs = blobs.into_iter();
        let mut layer_descs = Vec::with_capacity(blobs.size_hint().0);
        for blob in blobs {
            let digest = Digest::of(&blob);
            let size = blob.len() as u64;
            if let std::collections::hash_map::Entry::Vacant(slot) = self.blobs.entry(digest) {
                slot.insert(blob);
                report.layers_uploaded += 1;
                report.bytes_uploaded += size;
            } else {
                report.layers_deduped += 1;
            }
            layer_descs.push(Descriptor {
                media_type: MEDIA_TYPE_LAYER.to_owned(),
                digest,
                size,
            });
        }
        let config_json = config.to_json();
        let config_digest = Digest::of(&config_json);
        let config_size = config_json.len() as u64;
        if self.blobs.insert(config_digest, config_json).is_none() {
            report.bytes_uploaded += config_size;
        }
        let manifest = Manifest {
            schema_version: 2,
            config: Descriptor {
                media_type: MEDIA_TYPE_CONFIG.to_owned(),
                digest: config_digest,
                size: config_size,
            },
            layers: layer_descs,
        };
        report.bytes_uploaded += manifest.to_json().len() as u64;
        self.manifests.insert(reference.clone(), manifest);
        report
    }

    /// Retrieves the manifest for `reference` (the first step of a pull).
    pub fn manifest(&self, reference: &ImageRef) -> Option<&Manifest> {
        self.manifests.get(reference)
    }

    /// Raw (compressed) blob bytes.
    pub fn blob(&self, digest: Digest) -> Option<&[u8]> {
        self.blobs.get(&digest).map(Vec::as_slice)
    }

    /// Downloads and decompresses a layer blob.
    pub fn layer(&self, digest: Digest) -> Option<Layer> {
        let blob = self.blobs.get(&digest)?;
        let wire = gear_compress::decompress(blob).ok()?;
        let archive = gear_archive::Archive::from_bytes(&wire).ok()?;
        Some(Layer::from_archive(archive))
    }

    /// Downloads a compressed layer without decompressing (for relays).
    pub fn compressed_layer(&self, digest: Digest) -> Option<CompressedLayer> {
        let blob = self.blobs.get(&digest)?;
        CompressedLayer::from_stored(digest, blob.clone()).ok()
    }

    /// Parses a stored config blob.
    pub fn config(&self, digest: Digest) -> Option<ImageConfig> {
        let blob = self.blobs.get(&digest)?;
        ImageConfig::from_json(blob).ok()
    }

    /// Reconstructs a full [`Image`] (manifest + config + all layers).
    pub fn image(&self, reference: &ImageRef) -> Option<Image> {
        let manifest = self.manifests.get(reference)?;
        let config = self.config(manifest.config.digest)?;
        let mut builder =
            gear_image::ImageBuilder::new(reference.clone()).config(config);
        for desc in &manifest.layers {
            builder = builder.existing_layer(self.layer(desc.digest)?);
        }
        Some(builder.build())
    }

    /// Deletes a manifest (the tag); blobs remain until [`gc`](Self::gc).
    pub fn delete_image(&mut self, reference: &ImageRef) -> bool {
        self.manifests.remove(reference).is_some()
    }

    /// Drops blobs referenced by no manifest; returns bytes freed.
    pub fn gc(&mut self) -> u64 {
        let live: std::collections::HashSet<Digest> = self
            .manifests
            .values()
            .flat_map(|m| {
                m.layers.iter().map(|d| d.digest).chain(std::iter::once(m.config.digest))
            })
            .collect();
        let mut freed = 0;
        self.blobs.retain(|digest, blob| {
            if live.contains(digest) {
                true
            } else {
                freed += blob.len() as u64;
                false
            }
        });
        freed
    }

    /// All stored image references.
    pub fn image_refs(&self) -> Vec<ImageRef> {
        self.manifests.keys().cloned().collect()
    }

    /// Iterates over `(reference, manifest)` pairs (for persistence layers).
    pub fn manifests(&self) -> impl Iterator<Item = (&ImageRef, &Manifest)> {
        self.manifests.iter()
    }

    /// Iterates over stored blobs as `(digest, bytes)` (for persistence
    /// layers).
    pub fn blobs(&self) -> impl Iterator<Item = (Digest, &[u8])> {
        self.blobs.iter().map(|(d, b)| (*d, b.as_slice()))
    }

    /// Restores a blob from a persistence layer, verifying its digest.
    ///
    /// Returns false (and stores nothing) when `bytes` does not hash to
    /// `digest`.
    pub fn restore_blob(&mut self, digest: Digest, bytes: Vec<u8>) -> bool {
        if Digest::of(&bytes) != digest {
            return false;
        }
        self.blobs.insert(digest, bytes);
        true
    }

    /// Restores a manifest from a persistence layer.
    pub fn restore_manifest(&mut self, reference: ImageRef, manifest: Manifest) {
        self.manifests.insert(reference, manifest);
    }

    /// Integrity scan: re-hashes every blob and checks every manifest's
    /// references resolve. Returns human-readable findings (empty = clean).
    pub fn verify(&self) -> Vec<String> {
        let mut findings = Vec::new();
        for (digest, blob) in &self.blobs {
            if Digest::of(blob) != *digest {
                findings.push(format!("blob {digest} fails digest verification"));
            }
        }
        for (reference, manifest) in &self.manifests {
            for desc in manifest.layers.iter().chain(std::iter::once(&manifest.config)) {
                match self.blobs.get(&desc.digest) {
                    None => findings
                        .push(format!("{reference}: missing blob {}", desc.digest)),
                    Some(blob) if blob.len() as u64 != desc.size => findings.push(format!(
                        "{reference}: blob {} size {} != descriptor {}",
                        desc.digest,
                        blob.len(),
                        desc.size
                    )),
                    Some(_) => {}
                }
            }
        }
        findings.sort();
        findings
    }

    /// Storage accounting.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            manifests: self.manifests.len(),
            blobs: self.blobs.len(),
            blob_bytes: self.blobs.values().map(|b| b.len() as u64).sum(),
            manifest_bytes: self.manifests.values().map(|m| m.to_json().len() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_archive::{Archive, ArchivePath, Entry, Metadata};
    use gear_image::ImageBuilder;

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

    fn base_and_derived() -> (Image, Image) {
        let base =
            ImageBuilder::new(r("debian:slim")).layer(layer_with("bin/sh", b"#!/elf")).build();
        let app = ImageBuilder::from_image(r("nginx:1.17"), &base)
            .layer(layer_with("sbin/nginx", b"nginx-elf"))
            .env("NGINX_VERSION=1.17")
            .build();
        (base, app)
    }

    #[test]
    fn push_dedups_shared_layers() {
        let (base, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        let r1 = reg.push_image(&base);
        assert_eq!(r1.layers_uploaded, 1);
        assert_eq!(r1.layers_deduped, 0);
        let r2 = reg.push_image(&app);
        assert_eq!(r2.layers_uploaded, 1, "only the new top layer is uploaded");
        assert_eq!(r2.layers_deduped, 1);
        assert_eq!(reg.stats().manifests, 2);
        // 2 unique layers + 2 configs.
        assert_eq!(reg.stats().blobs, 4);
    }

    #[test]
    fn pull_roundtrips_image() {
        let (_, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        reg.push_image(&app);
        let pulled = reg.image(app.reference()).unwrap();
        assert_eq!(pulled, app);
        assert_eq!(pulled.config().env, vec!["NGINX_VERSION=1.17"]);
    }

    /// A relay gets the blob the registry holds, under the digest it holds
    /// it by — also when that blob was not compressed at the level a push
    /// uses, so that compressing the layer again would give other bytes.
    #[test]
    fn compressed_layer_is_the_stored_blob() {
        let (_, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        reg.push_image(&app);
        for desc in &reg.manifest(app.reference()).unwrap().layers.clone() {
            let served = reg.compressed_layer(desc.digest).unwrap();
            assert_eq!(served.digest(), desc.digest);
            assert_eq!(served.blob(), reg.blob(desc.digest).unwrap());
            assert_eq!(Some(served.to_layer().unwrap()), reg.layer(desc.digest));
        }
        // The long match lies behind forty short ones: past where the
        // default level stops looking, within reach of the best.
        let tail = b"abcd-a tail only a deep search finds again";
        let mut body = tail.to_vec();
        for i in 0..40u8 {
            body.extend_from_slice(&[b'a', b'b', b'c', b'd', i, i ^ 0x55]);
        }
        body.extend_from_slice(tail);
        let layer = Layer::from_archive(layer_with("opt/tool", &body));
        let best = layer.to_compressed(Level::Best);
        assert_ne!(best.blob(), layer.to_compressed(Level::Default).blob());
        assert!(reg.restore_blob(best.digest(), best.blob().to_vec()));
        assert_eq!(reg.compressed_layer(best.digest()), Some(best));
        // A blob that is no layer — a config — is no compressed layer.
        let config = reg.manifest(app.reference()).unwrap().config.digest;
        assert_eq!(reg.compressed_layer(config), None);
    }

    #[test]
    fn manifest_sizes_match_blob_store() {
        let (_, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        reg.push_image(&app);
        let manifest = reg.manifest(app.reference()).unwrap();
        for desc in &manifest.layers {
            assert_eq!(reg.blob(desc.digest).unwrap().len() as u64, desc.size);
        }
    }

    #[test]
    fn delete_and_gc() {
        let (base, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        reg.push_image(&base);
        reg.push_image(&app);
        assert!(reg.delete_image(app.reference()));
        let freed = reg.gc();
        assert!(freed > 0);
        // Base image must survive intact.
        assert!(reg.image(base.reference()).is_some());
        assert!(reg.image(app.reference()).is_none());
    }

    #[test]
    fn verify_flags_missing_and_mismatched_blobs() {
        let (_, app) = base_and_derived();
        let mut reg = DockerRegistry::new();
        reg.push_image(&app);
        assert!(reg.verify().is_empty(), "fresh registry must be clean");

        // Drop one blob behind the manifest's back.
        let digest = reg.manifest(app.reference()).unwrap().layers[0].digest;
        let mut broken = DockerRegistry::new();
        for (r, m) in reg.manifests() {
            broken.restore_manifest(r.clone(), m.clone());
        }
        for (d, b) in reg.blobs() {
            if d != digest {
                broken.restore_blob(d, b.to_vec());
            }
        }
        let findings = broken.verify();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("missing blob"));
    }

    #[test]
    fn unknown_lookups_are_none() {
        let reg = DockerRegistry::new();
        assert!(reg.manifest(&r("ghost:1")).is_none());
        assert!(reg.layer(Digest::of(b"nope")).is_none());
        assert!(reg.image(&r("ghost:1")).is_none());
    }
}
