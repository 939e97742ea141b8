//! Compression for container layers and Gear files.
//!
//! Docker registries store layers as compressed tarballs; Gear stores (and may
//! compress) individual files in its content-addressed pool. The choice of
//! *compression granularity* interacts with deduplication: compressing a whole
//! layer makes near-identical layers diverge byte-wise (defeating dedup below
//! layer granularity), while compressing per file keeps identical files
//! identical. This crate provides an LZSS compressor (with a CRC-32-checked
//! frame format) that exhibits exactly that behaviour, so the storage
//! experiments of the Gear paper (§V-C, Table II) can be reproduced without an
//! external zlib.
//!
//! # Examples
//!
//! ```
//! use gear_compress::{compress, decompress, Level};
//!
//! let data = b"abcabcabcabcabcabc-abcabcabcabcabcabc".repeat(20);
//! let framed = compress(&data, Level::Default);
//! assert!(framed.len() < data.len());
//! assert_eq!(decompress(&framed)?, data);
//! # Ok::<(), gear_compress::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
mod frame;
mod lzss;

pub use crc32::crc32;
pub use frame::{
    compress, compressed_size, compressed_size_with, decompress, DecompressError, FRAME_OVERHEAD,
};
pub use lzss::{Level, Lzss};

/// Summary statistics for a batch of compression operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Total uncompressed input bytes.
    pub input_bytes: u64,
    /// Total framed output bytes.
    pub output_bytes: u64,
    /// Number of items compressed.
    pub items: u64,
}

impl CompressionStats {
    /// Records one compression operation.
    pub fn record(&mut self, input: usize, output: usize) {
        self.input_bytes += input as u64;
        self.output_bytes += output as u64;
        self.items += 1;
    }

    /// `output / input`; 1.0 when nothing has been recorded.
    pub fn ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            1.0
        } else {
            self.output_bytes as f64 / self.input_bytes as f64
        }
    }

    /// Bytes saved relative to storing the inputs uncompressed (saturating).
    pub fn saved_bytes(&self) -> u64 {
        self.input_bytes.saturating_sub(self.output_bytes)
    }
}
