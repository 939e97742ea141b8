//! On-disk state for the `gear` CLI.
//!
//! A state directory holds both registries and the Gear file pool as plain
//! files, all content-addressed, so the layout is inspectable with ordinary
//! shell tools:
//!
//! ```text
//! <state>/
//!   docker/manifests/<repo>@<tag>.json     original images
//!   docker/blobs/<sha256>
//!   index/manifests/<repo>@<tag>.json      Gear index images
//!   index/blobs/<sha256>
//!   files/<md5>                            Gear file pool
//!   files/<id>.salt                        salt of a salted id, in decimal
//! ```
//!
//! A salted id names the second body of a real MD5 collision: it is
//! `Fingerprint::of_salted(body, salt)`, so its salt is kept beside the
//! body and the body is re-admitted with it.
//!
//! Everything is verified on load: blobs must hash to their file names and
//! Gear files to their fingerprints, so a tampered state directory is
//! rejected rather than silently served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use gear_hash::{Digest, Fingerprint};
use gear_image::{ImageRef, Manifest};
use gear_registry::{DockerRegistry, GearFile, GearFileStore};

/// File-name suffix of a salt sidecar in `files/`.
const SALT_SUFFIX: &str = ".salt";

/// The in-memory image stores the CLI operates on.
#[derive(Debug, Default)]
pub struct State {
    /// Original Docker images.
    pub docker: DockerRegistry,
    /// Gear index images.
    pub index: DockerRegistry,
    /// The Gear file pool.
    pub files: GearFileStore,
}

/// A state directory on disk.
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Wraps a path (not created until [`StateDir::init`] or a save).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StateDir { root: root.into() }
    }

    /// The root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Creates the directory layout.
    ///
    /// # Errors
    ///
    /// Propagates `std::io` errors.
    pub fn init(&self) -> io::Result<()> {
        for sub in
            ["docker/manifests", "docker/blobs", "index/manifests", "index/blobs", "files"]
        {
            fs::create_dir_all(self.root.join(sub))?;
        }
        Ok(())
    }

    /// Whether the layout exists.
    pub fn exists(&self) -> bool {
        self.root.join("files").is_dir()
    }

    /// Loads the full state, verifying every object against its name.
    ///
    /// # Errors
    ///
    /// I/O errors, malformed manifests, or corrupted (mis-hashing) objects —
    /// reported as `InvalidData`.
    pub fn load(&self) -> io::Result<State> {
        let mut state = State::default();
        load_registry(&self.root.join("docker"), &mut state.docker)?;
        load_registry(&self.root.join("index"), &mut state.index)?;
        let files_dir = self.root.join("files");
        if files_dir.is_dir() {
            let mut files = Vec::new();
            for entry in fs::read_dir(&files_dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(SALT_SUFFIX) {
                    continue;
                }
                let fingerprint: Fingerprint = name.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad file name {name}"))
                })?;
                let content = Bytes::from(fs::read(entry.path())?);
                let salt = read_salt(&files_dir.join(format!("{name}{SALT_SUFFIX}")))?;
                files.push(GearFile { fingerprint, content, salt });
            }
            state
                .files
                .upload_all(&files)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        Ok(state)
    }

    /// Writes the full state back, creating the layout if missing.
    ///
    /// # Errors
    ///
    /// Propagates `std::io` errors.
    pub fn save(&self, state: &State) -> io::Result<()> {
        self.init()?;
        save_registry(&self.root.join("docker"), &state.docker)?;
        save_registry(&self.root.join("index"), &state.index)?;
        let files_dir = self.root.join("files");
        for (fp, content) in state.files.iter() {
            let path = files_dir.join(fp.to_string());
            if !path.exists() {
                fs::write(path, content)?;
            }
            if let Some(salt) = state.files.salt(fp) {
                fs::write(files_dir.join(format!("{fp}{SALT_SUFFIX}")), salt.to_string())?;
            }
        }
        Ok(())
    }
}

/// The salt in the sidecar at `path`, or `None` when there is none.
fn read_salt(path: &Path) -> io::Result<Option<u64>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    text.trim().parse().map(Some).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad salt in {}", path.display()))
    })
}

fn manifest_file_name(reference: &ImageRef) -> String {
    format!("{}@{}.json", reference.repository().replace('/', "_"), reference.tag())
}

fn parse_manifest_file_name(name: &str) -> Option<ImageRef> {
    let stem = name.strip_suffix(".json")?;
    let (repo, tag) = stem.rsplit_once('@')?;
    ImageRef::new(repo, tag).ok()
}

fn load_registry(dir: &Path, registry: &mut DockerRegistry) -> io::Result<()> {
    let blobs = dir.join("blobs");
    if blobs.is_dir() {
        for entry in fs::read_dir(&blobs)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let digest: Digest = name.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad blob name {name}"))
            })?;
            let bytes = fs::read(entry.path())?;
            if !registry.restore_blob(digest, bytes) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("blob {name} fails digest verification"),
                ));
            }
        }
    }
    let manifests = dir.join("manifests");
    if manifests.is_dir() {
        for entry in fs::read_dir(&manifests)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let reference = parse_manifest_file_name(&name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad manifest name {name}"))
            })?;
            let manifest = Manifest::from_json(&fs::read(entry.path())?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            registry.restore_manifest(reference, manifest);
        }
    }
    Ok(())
}

fn save_registry(dir: &Path, registry: &DockerRegistry) -> io::Result<()> {
    let blobs = dir.join("blobs");
    for (digest, bytes) in registry.blobs() {
        let path = blobs.join(digest.to_string());
        if !path.exists() {
            fs::write(path, bytes)?;
        }
    }
    let manifests = dir.join("manifests");
    for (reference, manifest) in registry.manifests() {
        fs::write(manifests.join(manifest_file_name(reference)), manifest.to_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gear_core::{publish, Converter};
    use gear_fs::FsTree;
    use gear_image::ImageBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gear-cli-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_state() -> State {
        let mut tree = FsTree::new();
        tree.create_file("bin/app", Bytes::from_static(b"the binary")).unwrap();
        tree.create_file("etc/conf", Bytes::from_static(b"key=value")).unwrap();
        let image = ImageBuilder::new("app:1".parse::<ImageRef>().unwrap())
            .layer_from_tree(&tree)
            .build();
        let mut state = State::default();
        state.docker.push_image(&image);
        let conv = Converter::new().convert(&image).unwrap();
        publish(&conv, &mut state.index, &mut state.files);
        state
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = StateDir::new(temp_dir("roundtrip"));
        let state = sample_state();
        dir.save(&state).unwrap();
        let loaded = dir.load().unwrap();
        assert_eq!(loaded.docker.image_refs(), state.docker.image_refs());
        assert_eq!(loaded.index.image_refs(), state.index.image_refs());
        assert_eq!(loaded.files.object_count(), state.files.object_count());
        // Pulled image reconstructs identically.
        let r: ImageRef = "app:1".parse().unwrap();
        assert_eq!(loaded.docker.image(&r), state.docker.image(&r));
        fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn corrupted_blob_rejected_on_load() {
        let dir = StateDir::new(temp_dir("corrupt"));
        let state = sample_state();
        dir.save(&state).unwrap();
        // Flip a byte in some blob.
        let blob_dir = dir.root().join("docker/blobs");
        let victim = fs::read_dir(&blob_dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&victim, bytes).unwrap();
        let err = dir.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn tampered_gear_file_rejected_on_load() {
        let dir = StateDir::new(temp_dir("tamper"));
        let state = sample_state();
        dir.save(&state).unwrap();
        let files_dir = dir.root().join("files");
        let victim = fs::read_dir(&files_dir).unwrap().next().unwrap().unwrap().path();
        fs::write(&victim, b"swapped content").unwrap();
        let err = dir.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn a_salted_object_survives_save_and_load() {
        // Wang et al.'s colliding pair: one MD5, so the second body is
        // published under a salted id.
        let a = gear_hash::hex_decode(
            "d131dd02c5e6eec4693d9a0698aff95c2fcab58712467eab4004583eb8fb7f89\
             55ad340609f4b30283e488832571415a085125e8f7cdc99fd91dbdf280373c5b\
             d8823e3156348f5bae6dacd436c919c6dd53e2b487da03fd02396306d248cda0\
             e99f33420f577ee8ce54b67080a80d1ec69821bcb6a8839396f9652b6ff72a70",
        )
        .unwrap();
        let b = gear_hash::hex_decode(
            "d131dd02c5e6eec4693d9a0698aff95c2fcab50712467eab4004583eb8fb7f89\
             55ad340609f4b30283e4888325f1415a085125e8f7cdc99fd91dbd7280373c5b\
             d8823e3156348f5bae6dacd436c919c6dd53e23487da03fd02396306d248cda0\
             e99f33420f577ee8ce54b67080280d1ec69821bcb6a8839396f965ab6ff72a70",
        )
        .unwrap();
        let mut tree = FsTree::new();
        tree.create_file("pair/a", Bytes::from(a.clone())).unwrap();
        tree.create_file("pair/b", Bytes::from(b.clone())).unwrap();
        let image = ImageBuilder::new("pair:1".parse::<ImageRef>().unwrap())
            .layer_from_tree(&tree)
            .build();
        let mut state = State::default();
        let conv = Converter::new().convert(&image).unwrap();
        assert_eq!(conv.report.collisions, 1);
        publish(&conv, &mut state.index, &mut state.files);

        let dir = StateDir::new(temp_dir("salted"));
        dir.save(&state).unwrap();
        let loaded = dir.load().unwrap();
        assert!(loaded.files.verify().is_empty(), "the salted body verifies with its salt");
        assert_eq!(loaded.files.object_count(), 2);
        let index = conv.gear_image.index();
        for (path, body) in [("pair/a", &a), ("pair/b", &b)] {
            let (id, _) = index.file_at(path).unwrap();
            assert_eq!(loaded.files.download(id).as_deref(), Some(&body[..]), "{path}");
        }
        fs::remove_dir_all(dir.root()).unwrap();
    }

    #[test]
    fn incremental_save_is_idempotent() {
        let dir = StateDir::new(temp_dir("idempotent"));
        let state = sample_state();
        dir.save(&state).unwrap();
        dir.save(&state).unwrap(); // second save must not fail or duplicate
        let loaded = dir.load().unwrap();
        assert_eq!(loaded.files.object_count(), state.files.object_count());
        fs::remove_dir_all(dir.root()).unwrap();
    }
}
