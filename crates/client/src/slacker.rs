//! The Slacker baseline: block-level lazy image pulls (paper Fig. 10).
//!
//! Slacker (Harter et al., FAST '16) backs each container with a per-container
//! virtual block device whose blocks are fetched lazily over NFS. Two
//! properties distinguish it from Gear, and both are modelled here:
//!
//! 1. **Block granularity** — a file read pulls every 4 KiB block it spans
//!    (plus file-system metadata blocks), so the request count is far higher
//!    than Gear's one-request-per-file, and fixed per-request costs bite as
//!    bandwidth drops.
//! 2. **No sharing** — the block device is private to each container: no
//!    cross-container or cross-version cache, so repeated deployments pay
//!    the same cost every time.

use std::collections::HashMap;
use std::time::Duration;

use gear_fs::{NoFetch, UnionFs};
use gear_image::ImageRef;
use gear_registry::DockerRegistry;
use gear_simnet::NetMetrics;

use crate::config::ClientConfig;
use crate::gear::{ContainerId, DeployError};
use crate::report::DeploymentReport;

/// Block size of the virtual block device.
const BLOCK_SIZE: u64 = 4096;
/// Extra blocks fetched per file for file-system metadata (inode, extent
/// tree, directory blocks).
const METADATA_BLOCKS_PER_FILE: u64 = 2;
/// NFS read-ahead keeps this many block requests in flight.
const PIPELINE: u32 = 32;

/// Slacker deployment client.
#[derive(Debug)]
pub struct SlackerClient {
    config: ClientConfig,
    containers: HashMap<ContainerId, UnionFs>,
    metrics: NetMetrics,
    next_id: u64,
}

impl SlackerClient {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        SlackerClient {
            config,
            containers: HashMap::new(),
            metrics: NetMetrics::new(),
            next_id: 0,
        }
    }

    /// Network accounting so far.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Deploys a container: flashes a fresh virtual block device (cheap
    /// metadata copy), then lazily pulls the blocks the startup trace reads.
    ///
    /// # Errors
    ///
    /// [`DeployError::ImageNotFound`] / [`DeployError::Fs`].
    pub fn deploy(
        &mut self,
        reference: &ImageRef,
        trace: &gear_corpus::StartupTrace,
        registry: &DockerRegistry,
    ) -> Result<(ContainerId, DeploymentReport), DeployError> {
        let mut report = DeploymentReport::new(reference.clone());
        let image = registry
            .image(reference)
            .ok_or_else(|| DeployError::ImageNotFound(reference.clone()))?;

        // Pull phase: snapshot/clone of the device metadata — Slacker's
        // headline feature is the ~instant pull.
        let metadata_bytes = 64 * 1024;
        report.pull = self.config.request_time(metadata_bytes);
        report.bytes_pulled += metadata_bytes;
        report.requests += 1;
        self.metrics.download(metadata_bytes);

        // Run phase: every trace read faults in the file's blocks. There is
        // no cross-container cache, so every deployment starts cold.
        let rootfs = image.root_fs()?;
        let mut mount = UnionFs::new(vec![std::sync::Arc::new(rootfs)]);
        let mut run = self.config.costs.container_start + self.config.costs.mount_setup;
        let mut total_blocks = 0u64;
        let mut total_bytes = 0u64;
        for path in &trace.reads {
            let content = mount.read(path, &NoFetch)?;
            let scaled = self.config.scaled(content.len() as u64);
            let blocks = scaled.div_ceil(BLOCK_SIZE) + METADATA_BLOCKS_PER_FILE;
            total_blocks += blocks;
            total_bytes += blocks * BLOCK_SIZE;
            report.files_fetched += 1;
            run += self.config.local_read(scaled);
        }
        // Blocks stream over NFS with read-ahead: fixed costs overlap
        // PIPELINE-deep; payload bytes serialize on the link.
        let fixed = self.config.link.rtt + self.config.link.request_overhead;
        run += fixed * (total_blocks.div_ceil(PIPELINE as u64) as u32);
        run += self.config.link.bandwidth.transfer_time(total_bytes);
        report.requests += total_blocks;
        report.bytes_pulled += total_bytes;
        self.metrics.download(total_bytes);
        run += trace.task.compute_time();
        report.run = run;

        let id = ContainerId::from_raw(self.next_id);
        self.next_id += 1;
        self.containers.insert(id, mount);
        Ok((id, report))
    }

    /// Destroys a container (drops its private block device).
    pub fn destroy(&mut self, id: ContainerId) -> Duration {
        match self.containers.remove(&id) {
            Some(mount) => self.config.costs.inode_teardown * (mount.inode_count() as u32),
            None => Duration::ZERO,
        }
    }

    /// Number of running containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_corpus::{StartupTrace, TaskKind};
    use gear_fs::FsTree;
    use gear_image::ImageBuilder;

    fn registry_with(files: &[(&str, &[u8])], reference: &str) -> (DockerRegistry, ImageRef) {
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
    fn pull_is_nearly_instant() {
        let body = vec![7u8; 100_000];
        let (reg, r) = registry_with(&[("big", &body)], "s:1");
        let mut client = SlackerClient::new(ClientConfig::default());
        let (_, report) = client.deploy(&r, &trace(&["big"]), &reg).unwrap();
        assert!(report.pull < Duration::from_millis(100));
        assert!(report.run > report.pull);
    }

    #[test]
    fn no_sharing_between_deployments() {
        let body = vec![1u8; 50_000];
        let (reg, r) = registry_with(&[("f", &body)], "s:1");
        let mut client = SlackerClient::new(ClientConfig::default());
        let (_, first) = client.deploy(&r, &trace(&["f"]), &reg).unwrap();
        let (_, second) = client.deploy(&r, &trace(&["f"]), &reg).unwrap();
        assert_eq!(
            first.bytes_pulled, second.bytes_pulled,
            "Slacker re-fetches blocks for every container"
        );
    }

    #[test]
    fn block_requests_exceed_file_requests() {
        let body = vec![1u8; 50_000];
        let (reg, r) = registry_with(&[("f", &body)], "s:1");
        let mut client = SlackerClient::new(ClientConfig {
            byte_scale: 1,
            ..ClientConfig::default()
        });
        let (_, report) = client.deploy(&r, &trace(&["f"]), &reg).unwrap();
        // 50 000 B / 4 KiB ≈ 13 blocks + metadata, + 1 metadata request.
        assert!(report.requests > 13, "requests = {}", report.requests);
    }

    #[test]
    fn degrades_faster_than_bandwidth_for_many_blocks() {
        let body = vec![1u8; 200_000];
        let (reg, r) = registry_with(&[("f", &body)], "s:1");
        let fast = ClientConfig { byte_scale: 64, ..ClientConfig::default() };
        let slow = ClientConfig {
            byte_scale: 64,
            link: gear_simnet::Link::mbps(20.0),
            ..ClientConfig::default()
        };
        let mut a = SlackerClient::new(fast);
        let mut b = SlackerClient::new(slow);
        let (_, fast_report) = a.deploy(&r, &trace(&["f"]), &reg).unwrap();
        let (_, slow_report) = b.deploy(&r, &trace(&["f"]), &reg).unwrap();
        assert!(slow_report.total() > fast_report.total() * 2);
    }

    #[test]
    fn destroy_drops_container() {
        let (reg, r) = registry_with(&[("f", b"x")], "s:1");
        let mut client = SlackerClient::new(ClientConfig::default());
        let (id, _) = client.deploy(&r, &trace(&["f"]), &reg).unwrap();
        assert_eq!(client.container_count(), 1);
        client.destroy(id);
        assert_eq!(client.container_count(), 0);
    }
}
