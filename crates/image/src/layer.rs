//! Image layers and their compressed distribution form.

use std::sync::Arc;

use gear_archive::Archive;
use gear_compress::{compress, decompress, DecompressError, Level};
use gear_hash::Digest;

/// A read-only image layer.
///
/// Identified by its *diff id* — the SHA-256 of the serialized (uncompressed)
/// archive — matching Docker's content addressing of layers. The same layer
/// object is shared (`Arc`) wherever it is stacked.
#[derive(Debug, Clone)]
pub struct Layer {
    diff_id: Digest,
    archive: Arc<Archive>,
    wire_len: u64,
}

impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        self.diff_id == other.diff_id
    }
}

impl Eq for Layer {}

impl Layer {
    /// Wraps an archive as a layer, computing its diff id.
    pub fn from_archive(archive: Archive) -> Self {
        let wire = archive.to_bytes();
        Layer {
            diff_id: Digest::of(&wire),
            wire_len: wire.len() as u64,
            archive: Arc::new(archive),
        }
    }

    /// SHA-256 of the serialized archive (Docker's `diff_id`).
    pub fn diff_id(&self) -> Digest {
        self.diff_id
    }

    /// The layer's diff entries.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Serialized (uncompressed) size in bytes.
    pub fn wire_len(&self) -> u64 {
        self.wire_len
    }

    /// Total regular-file content bytes in the diff.
    pub fn content_bytes(&self) -> u64 {
        self.archive.content_bytes()
    }

    /// Compresses the layer into its distribution blob.
    pub fn to_compressed(&self, level: Level) -> CompressedLayer {
        let blob = compress(&self.archive.to_bytes(), level);
        CompressedLayer { digest: Digest::of(&blob), diff_id: self.diff_id, blob }
    }
}

/// A compressed layer blob as stored in and served by a Docker registry.
///
/// Its `digest` (SHA-256 of the *compressed* bytes) is what manifests
/// reference and what layer-level deduplication compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLayer {
    digest: Digest,
    diff_id: Digest,
    blob: Vec<u8>,
}

impl CompressedLayer {
    /// SHA-256 of the compressed blob (the distribution digest).
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Diff id of the uncompressed layer inside.
    pub fn diff_id(&self) -> Digest {
        self.diff_id
    }

    /// The compressed bytes.
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// Compressed size in bytes — the number that crosses the network on a
    /// `docker pull`.
    pub fn size(&self) -> u64 {
        self.blob.len() as u64
    }

    /// Decompresses back into a [`Layer`].
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] if the blob is corrupt, or
    /// [`DecompressError::ChecksumMismatch`] if the decoded archive does not
    /// match the recorded diff id.
    pub fn to_layer(&self) -> Result<Layer, DecompressError> {
        let layer = unpack(&self.blob)?;
        if layer.diff_id() != self.diff_id {
            return Err(DecompressError::ChecksumMismatch);
        }
        Ok(layer)
    }

    /// Wraps a blob a registry holds under `digest`, as it is: the blob is
    /// decoded once, for the diff id of the layer inside, and not compressed
    /// again. `digest` is taken on the registry's word — it hashed the blob
    /// when the blob came in.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] if the blob does not decode to a layer —
    /// what [`CompressedLayer::to_layer`] would have reported.
    pub fn from_stored(digest: Digest, blob: Vec<u8>) -> Result<Self, DecompressError> {
        let diff_id = unpack(&blob)?.diff_id();
        Ok(CompressedLayer { digest, diff_id, blob })
    }
}

/// Decompresses and parses a distribution blob.
fn unpack(blob: &[u8]) -> Result<Layer, DecompressError> {
    let wire = decompress(blob)?;
    let archive = Archive::from_bytes(&wire).map_err(|_| DecompressError::CorruptPayload)?;
    Ok(Layer::from_archive(archive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gear_archive::{ArchivePath, Entry, Metadata};

    fn sample_archive(body: &'static [u8]) -> Archive {
        let mut a = Archive::new();
        a.push(Entry::dir(ArchivePath::new("opt").unwrap(), Metadata::dir_default()));
        a.push(Entry::file(
            ArchivePath::new("opt/app").unwrap(),
            Metadata::exec_default(),
            Bytes::from_static(body),
        ));
        a
    }

    #[test]
    fn diff_id_is_content_addressed() {
        let a = Layer::from_archive(sample_archive(b"v1"));
        let b = Layer::from_archive(sample_archive(b"v1"));
        let c = Layer::from_archive(sample_archive(b"v2"));
        assert_eq!(a.diff_id(), b.diff_id());
        assert_ne!(a.diff_id(), c.diff_id());
        assert_eq!(a, b);
    }

    #[test]
    fn compress_roundtrip() {
        let layer = Layer::from_archive(sample_archive(b"some executable bytes"));
        let compressed = layer.to_compressed(Level::Default);
        let back = compressed.to_layer().unwrap();
        assert_eq!(back.diff_id(), layer.diff_id());
        assert_eq!(back.archive(), layer.archive());
    }

    #[test]
    fn stored_blob_wraps_without_recompression() {
        let layer = Layer::from_archive(sample_archive(b"stored"));
        let pushed = layer.to_compressed(Level::Best);
        let wrapped =
            CompressedLayer::from_stored(pushed.digest(), pushed.blob().to_vec()).unwrap();
        assert_eq!(wrapped, pushed);
        assert_eq!(wrapped.to_layer().unwrap().archive(), layer.archive());
        let mut torn = pushed.blob().to_vec();
        torn.truncate(torn.len() / 2);
        assert!(CompressedLayer::from_stored(pushed.digest(), torn).is_err());
    }

    #[test]
    fn tampered_blob_rejected() {
        let layer = Layer::from_archive(sample_archive(b"bytes"));
        let mut compressed = layer.to_compressed(Level::Default);
        let n = compressed.blob.len();
        compressed.blob[n - 1] ^= 0xff;
        assert!(compressed.to_layer().is_err());
    }

    #[test]
    fn identical_layers_compress_to_identical_digests() {
        // The property layer-level dedup relies on.
        let l1 = Layer::from_archive(sample_archive(b"shared"));
        let l2 = Layer::from_archive(sample_archive(b"shared"));
        assert_eq!(
            l1.to_compressed(Level::Default).digest(),
            l2.to_compressed(Level::Default).digest()
        );
    }
}
