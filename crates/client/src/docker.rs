//! The stock Docker baseline: pull the whole image, then launch.

use std::collections::HashSet;
use std::time::Duration;

use gear_fs::NoFetch;
use gear_hash::Digest;
use gear_image::{ImageRef, Overlay2Store};
use gear_registry::DockerRegistry;
use gear_simnet::NetMetrics;

use crate::config::ClientConfig;
use crate::gear::{ContainerId, DeployError};
use crate::report::DeploymentReport;

/// Parallel layer downloads Docker performs during a pull.
const PULL_PARALLELISM: u32 = 3;

/// A running Docker container: its mount plus the layer count of its image
/// (unmount teardown walks every layer's dentries).
#[derive(Debug)]
struct DockerContainer {
    mount: gear_fs::UnionFs,
    layer_count: usize,
}

/// Docker deployment client (paper §II-C): downloads the manifest, pulls all
/// layers missing locally, unpacks them into an Overlay2 store, and launches
/// the container from the complete root file system.
#[derive(Debug)]
pub struct DockerClient {
    config: ClientConfig,
    store: Overlay2Store,
    /// Compressed blob digests already pulled (layer reuse across versions).
    blobs: HashSet<Digest>,
    containers: std::collections::HashMap<ContainerId, DockerContainer>,
    metrics: NetMetrics,
    next_id: u64,
}

impl DockerClient {
    /// Creates a client with an empty local store.
    pub fn new(config: ClientConfig) -> Self {
        DockerClient {
            config,
            store: Overlay2Store::new(),
            blobs: HashSet::new(),
            containers: std::collections::HashMap::new(),
            metrics: NetMetrics::new(),
            next_id: 0,
        }
    }

    /// Network accounting so far.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Deploys a container the Docker way: full pull, then run.
    ///
    /// # Errors
    ///
    /// [`DeployError::ImageNotFound`] if the registry lacks the image;
    /// [`DeployError::Fs`] if a trace path cannot be read.
    pub fn deploy(
        &mut self,
        reference: &ImageRef,
        trace: &gear_corpus::StartupTrace,
        registry: &DockerRegistry,
    ) -> Result<(ContainerId, DeploymentReport), DeployError> {
        let mut report = DeploymentReport::new(reference.clone());

        // ---- pull phase ----------------------------------------------------
        let mut pull = Duration::ZERO;
        if !self.store.has_image(reference) {
            let manifest = registry
                .manifest(reference)
                .ok_or_else(|| DeployError::ImageNotFound(reference.clone()))?;
            let manifest_bytes = manifest.to_json().len() as u64;
            pull += self.config.request_time(manifest_bytes);
            report.bytes_pulled += manifest_bytes;
            report.requests += 1;
            self.metrics.download(manifest_bytes);

            // Layers missing locally are downloaded (up to 3 in parallel),
            // decompressed, and written into the Overlay2 store.
            let mut missing_count = 0u64;
            let mut missing_bytes = 0u64;
            for desc in &manifest.layers {
                if self.blobs.contains(&desc.digest) {
                    continue;
                }
                let layer = registry
                    .layer(desc.digest)
                    .ok_or_else(|| DeployError::ImageNotFound(reference.clone()))?;
                let scaled_compressed = self.config.scaled(desc.size);
                let scaled_raw = self.config.scaled(layer.wire_len());
                missing_count += 1;
                missing_bytes += scaled_compressed;
                report.requests += 1;
                self.metrics.download(scaled_compressed);
                pull += self.config.decompress(scaled_compressed);
                // Layers unpack through the page cache, overlapped with the
                // download — not at raw disk speed.
                pull += Duration::from_secs_f64(
                    scaled_raw as f64 / self.config.costs.unpack_bytes_per_sec,
                );
                self.blobs.insert(desc.digest);
                self.store.add_layer(layer);
            }
            report.bytes_pulled += missing_bytes;
            pull += self.config.amplified_fixed()
                * (missing_count.div_ceil(PULL_PARALLELISM as u64) as u32)
                + self.config.link.bandwidth.transfer_time(missing_bytes);

            let image = registry
                .image(reference)
                .ok_or_else(|| DeployError::ImageNotFound(reference.clone()))?;
            self.store.add_image(&image);
        }
        report.pull = pull;

        // ---- run phase -------------------------------------------------------
        let mut mount = self.store.mount(reference)?;
        let layer_count = self
            .store
            .image(reference)
            .map(|i| i.layers().len())
            .unwrap_or(1);
        let mut run = self.config.costs.container_start + self.config.costs.mount_setup;
        for path in &trace.reads {
            let content = mount.read(path, &NoFetch)?;
            run += self.config.local_read(self.config.scaled(content.len() as u64));
            report.files_fetched += 1;
        }
        run += trace.task.compute_time();
        report.run = run;

        let id = ContainerId::from_raw(self.next_id);
        self.next_id += 1;
        self.containers.insert(id, DockerContainer { mount, layer_count });
        Ok((id, report))
    }

    /// Serves `ops` requests on a running container (all reads local).
    ///
    /// # Errors
    ///
    /// [`DeployError::NoSuchContainer`] / [`DeployError::Fs`].
    pub fn serve(
        &mut self,
        id: ContainerId,
        ops: u64,
        op_compute: Duration,
        op_reads: &[String],
    ) -> Result<Duration, DeployError> {
        let config = self.config;
        let container =
            self.containers.get_mut(&id).ok_or(DeployError::NoSuchContainer(id))?;
        let mut elapsed = Duration::ZERO;
        for _ in 0..ops {
            for path in op_reads {
                let content = container.mount.read(path, &NoFetch)?;
                elapsed += config.local_read(config.scaled(content.len() as u64));
            }
            elapsed += op_compute;
        }
        Ok(elapsed)
    }

    /// Destroys a container; Docker's unmount walks the dentry/inode caches
    /// of every layer under the touched paths (hence the `layer_count`
    /// factor vs. Gear's flat index — paper Fig. 11b).
    pub fn destroy(&mut self, id: ContainerId) -> Duration {
        match self.containers.remove(&id) {
            Some(container) => {
                let inodes = container.mount.inode_count() as u32;
                self.config.costs.inode_teardown * inodes * (container.layer_count as u32 + 1)
            }
            None => Duration::ZERO,
        }
    }

    /// Removes a local image (its layers stay until [`Self::gc`]).
    pub fn remove_image(&mut self, reference: &ImageRef) -> bool {
        self.store.remove_image(reference)
    }

    /// Garbage-collects unreferenced layers; returns scaled bytes freed.
    pub fn gc(&mut self) -> u64 {
        self.store.gc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_corpus::{StartupTrace, TaskKind};
    use gear_fs::FsTree;
    use gear_image::ImageBuilder;

    fn registry_with(
        files: &[(&str, &[u8])],
        reference: &str,
    ) -> (DockerRegistry, ImageRef) {
        let mut tree = FsTree::new();
        for (p, c) in files {
            tree.create_file(p, Bytes::copy_from_slice(c)).unwrap();
        }
        let r: ImageRef = reference.parse().unwrap();
        let image = ImageBuilder::new(r.clone()).layer_from_tree(&tree).build();
        let mut reg = DockerRegistry::new();
        reg.push_image(&image);
        (reg, r)
    }

    fn trace(paths: &[&str]) -> StartupTrace {
        StartupTrace {
            reads: paths.iter().map(|s| s.to_string()).collect(),
            task: TaskKind::Echo,
        }
    }

    #[test]
    fn pull_downloads_whole_image_once() {
        let (reg, r) = registry_with(&[("a", b"uses"), ("b", b"all of it")], "full:1");
        let mut client = DockerClient::new(ClientConfig::default());
        let (_, first) = client.deploy(&r, &trace(&["a"]), &reg).unwrap();
        assert!(first.bytes_pulled > 9, "whole image pulled, not just 'a'");
        assert!(first.pull > Duration::ZERO);
        // Second deployment of the same image: no pull at all.
        let (_, second) = client.deploy(&r, &trace(&["a"]), &reg).unwrap();
        assert_eq!(second.pull, Duration::ZERO);
        assert_eq!(second.bytes_pulled, 0);
    }

    #[test]
    fn shared_layers_not_redownloaded() {
        let mut tree = FsTree::new();
        let base_body: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        tree.create_file("base/lib", Bytes::from(base_body)).unwrap();
        let base = ImageBuilder::new("app:1".parse::<ImageRef>().unwrap())
            .layer_from_tree(&tree)
            .build();
        let mut top = FsTree::new();
        top.create_file("app/v2", Bytes::from_static(b"new stuff")).unwrap();
        let v2 = ImageBuilder::from_image("app:2".parse().unwrap(), &base)
            .layer_from_tree(&top)
            .build();
        let mut reg = DockerRegistry::new();
        reg.push_image(&base);
        reg.push_image(&v2);

        let mut client = DockerClient::new(ClientConfig::default());
        let (_, r1) = client.deploy(&"app:1".parse().unwrap(), &trace(&["base/lib"]), &reg).unwrap();
        let (_, r2) = client.deploy(&"app:2".parse().unwrap(), &trace(&["app/v2"]), &reg).unwrap();
        assert!(
            r2.bytes_pulled < r1.bytes_pulled,
            "v2 should reuse the shared base layer ({} vs {})",
            r2.bytes_pulled,
            r1.bytes_pulled
        );
    }

    #[test]
    fn missing_image_errors() {
        let reg = DockerRegistry::new();
        let mut client = DockerClient::new(ClientConfig::default());
        assert!(matches!(
            client.deploy(&"ghost:1".parse().unwrap(), &trace(&[]), &reg),
            Err(DeployError::ImageNotFound(_))
        ));
    }

    #[test]
    fn destroy_costs_more_than_gear_like_flat_teardown() {
        let (reg, r) = registry_with(&[("a", b"x")], "one:1");
        let mut client = DockerClient::new(ClientConfig::default());
        let (id, _) = client.deploy(&r, &trace(&["a"]), &reg).unwrap();
        let teardown = client.destroy(id);
        // 1 touched inode × (layers + 1) ≥ flat per-inode cost.
        assert!(teardown >= ClientConfig::default().costs.inode_teardown * 2);
    }

    #[test]
    fn serve_reads_locally() {
        let (reg, r) = registry_with(&[("hot", b"hot bytes")], "one:1");
        let mut client = DockerClient::new(ClientConfig::default());
        let (id, _) = client.deploy(&r, &trace(&["hot"]), &reg).unwrap();
        let before = client.metrics();
        let elapsed = client
            .serve(id, 10, Duration::from_micros(100), &["hot".to_string()])
            .unwrap();
        assert!(elapsed >= Duration::from_millis(1));
        assert_eq!(client.metrics(), before, "service phase is fully local");
    }
}
