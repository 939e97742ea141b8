//! Image manifests and configs — the JSON documents a registry serves.

use gear_hash::Digest;
use serde::{Deserialize, Serialize};

/// Media type for layer blobs (mirrors the Docker schema2 constant).
pub const MEDIA_TYPE_LAYER: &str = "application/vnd.docker.image.rootfs.diff.tar.gzip";
/// Media type for config blobs.
pub const MEDIA_TYPE_CONFIG: &str = "application/vnd.docker.container.image.v1+json";

/// A content-addressed reference to a blob (layer or config).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// Blob media type.
    #[serde(rename = "mediaType")]
    pub media_type: String,
    /// SHA-256 of the blob as stored.
    pub digest: Digest,
    /// Blob size in bytes.
    pub size: u64,
}

/// The image manifest: config descriptor plus ordered layer descriptors
/// (bottom layer first), as retrieved first on every `docker pull`
/// (paper §II-C).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version (always 2 here).
    #[serde(rename = "schemaVersion")]
    pub schema_version: u32,
    /// Config blob reference.
    pub config: Descriptor,
    /// Layer blob references, bottom first.
    pub layers: Vec<Descriptor>,
}

impl Manifest {
    /// Serializes to canonical JSON bytes. (`serde_json::to_vec` never
    /// fails through the data model, so the default is never taken.)
    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_vec(self).unwrap_or_default()
    }

    /// Parses from JSON bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }

    /// SHA-256 of the serialized manifest — the digest a registry uses to
    /// address it.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.to_json())
    }

    /// Sum of layer blob sizes: the bytes a cold `docker pull` downloads
    /// (plus the manifest and config themselves).
    pub fn total_layer_bytes(&self) -> u64 {
        self.layers.iter().map(|d| d.size).sum()
    }
}

/// Runtime configuration carried alongside an image.
///
/// When Gear converts an image, these values are copied verbatim into the
/// single-layer index image so containers start with the same environment
/// (paper §III-C).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImageConfig {
    /// Environment variables (`KEY=value`).
    #[serde(default)]
    pub env: Vec<String>,
    /// Entrypoint argv prefix.
    #[serde(default)]
    pub entrypoint: Vec<String>,
    /// Default command argv.
    #[serde(default)]
    pub cmd: Vec<String>,
    /// Initial working directory.
    #[serde(default)]
    pub working_dir: String,
    /// Free-form labels.
    #[serde(default)]
    pub labels: Vec<(String, String)>,
}

impl ImageConfig {
    /// Serializes to JSON bytes (infallibly, as [`Manifest::to_json`]).
    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_vec(self).unwrap_or_default()
    }

    /// Parses from JSON bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }

    /// SHA-256 of the serialized config.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            schema_version: 2,
            config: Descriptor {
                media_type: MEDIA_TYPE_CONFIG.to_owned(),
                digest: Digest::of(b"config"),
                size: 42,
            },
            layers: vec![
                Descriptor {
                    media_type: MEDIA_TYPE_LAYER.to_owned(),
                    digest: Digest::of(b"layer0"),
                    size: 1000,
                },
                Descriptor {
                    media_type: MEDIA_TYPE_LAYER.to_owned(),
                    digest: Digest::of(b"layer1"),
                    size: 500,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let bytes = m.to_json();
        assert_eq!(Manifest::from_json(&bytes).unwrap(), m);
    }

    #[test]
    fn digest_changes_with_layers() {
        let mut m = sample();
        let d1 = m.digest();
        m.layers.pop();
        assert_ne!(m.digest(), d1);
    }

    #[test]
    fn total_layer_bytes_sums() {
        assert_eq!(sample().total_layer_bytes(), 1500);
    }

    #[test]
    fn config_roundtrip() {
        let c = ImageConfig {
            env: vec!["PATH=/bin".into(), "LANG=C".into()],
            entrypoint: vec!["/entrypoint.sh".into()],
            cmd: vec!["nginx".into(), "-g".into()],
            working_dir: "/srv".into(),
            labels: vec![("maintainer".into(), "gear".into())],
        };
        assert_eq!(ImageConfig::from_json(&c.to_json()).unwrap(), c);
    }

    #[test]
    fn config_defaults_from_empty_json() {
        let c = ImageConfig::from_json(b"{}").unwrap();
        assert_eq!(c, ImageConfig::default());
    }
}
