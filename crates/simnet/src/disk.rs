//! Local-storage timing model.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Sequential-throughput + per-file-overhead disk model.
///
/// The Gear paper attributes conversion time to file-system traversal plus
/// image build I/O, dominated by per-file costs for the many small files in
/// images, and reports a 65.7 % reduction for the `node` series when moving
/// from HDD to SSD (paper §V-B). The two presets are calibrated to that
/// observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Sequential throughput in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed cost per file touched (open/create/metadata/seek).
    pub per_file: Duration,
}

impl DiskModel {
    /// A 5900 rpm surveillance HDD (the paper's WD60PURX): ~110 MB/s
    /// sequential, ~3 ms of seek/metadata cost per small file.
    pub fn hdd() -> Self {
        DiskModel { bytes_per_sec: 110.0e6, per_file: Duration::from_micros(3000) }
    }

    /// A SATA SSD: ~500 MB/s sequential, ~80 µs per file.
    pub fn ssd() -> Self {
        DiskModel { bytes_per_sec: 500.0e6, per_file: Duration::from_micros(80) }
    }

    /// A PCIe NVMe drive: ~3 GB/s sequential, ~10 µs per file. On this
    /// class of storage conversion is CPU-bound (hashing + recompression),
    /// which is what the hot-path benchmarks want to expose.
    pub fn nvme() -> Self {
        DiskModel { bytes_per_sec: 3.0e9, per_file: Duration::from_micros(10) }
    }

    /// A RAM-backed filesystem (tmpfs): ~12 GB/s copy bandwidth, ~1 µs of
    /// VFS metadata cost per file. The fastest tier the tiering experiment
    /// sweeps — near-free, but not free, so tier placement still shows up
    /// in deployment times.
    pub fn ram() -> Self {
        DiskModel { bytes_per_sec: 12.0e9, per_file: Duration::from_micros(1) }
    }

    /// Time to read or write `bytes` spread over `files` files.
    pub fn io_time(&self, bytes: u64, files: u64) -> Duration {
        self.per_file * (files as u32) + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Time to stat/traverse `files` directory entries without reading data.
    pub fn traverse_time(&self, files: u64) -> Duration {
        // Metadata-only access: cheaper than a full per-file open+read.
        self.per_file / 2 * (files as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_is_much_faster_per_file() {
        // 10k small files totalling 100 MB: HDD should be several times
        // slower, dominated by per-file costs (the paper's Fig. 6 argument).
        let bytes = 100_000_000;
        let files = 10_000;
        let hdd = DiskModel::hdd().io_time(bytes, files);
        let ssd = DiskModel::ssd().io_time(bytes, files);
        let speedup = hdd.as_secs_f64() / ssd.as_secs_f64();
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    #[test]
    fn nvme_is_fastest_disk() {
        let bytes = 100_000_000;
        let files = 10_000;
        assert!(DiskModel::nvme().io_time(bytes, files) < DiskModel::ssd().io_time(bytes, files));
    }

    #[test]
    fn ram_beats_every_disk_but_is_not_free() {
        let bytes = 100_000_000;
        let files = 10_000;
        let ram = DiskModel::ram().io_time(bytes, files);
        assert!(ram < DiskModel::nvme().io_time(bytes, files));
        assert!(ram > Duration::ZERO);
    }

    #[test]
    fn io_time_scales_linearly() {
        let disk = DiskModel::ssd();
        let one = disk.io_time(1_000_000, 10);
        let two = disk.io_time(2_000_000, 20);
        assert!((two.as_secs_f64() - 2.0 * one.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn traverse_cheaper_than_io() {
        let disk = DiskModel::hdd();
        assert!(disk.traverse_time(1000) < disk.io_time(0, 1000));
    }
}
