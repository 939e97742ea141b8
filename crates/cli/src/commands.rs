//! The CLI's operations, separated from argument parsing for testability.

use std::fs;
use std::io;
use std::path::Path;

use bytes::Bytes;
use gear_client::{ClientConfig, GearClient};
use gear_core::{publish, Converter, GearImage};
use gear_corpus::{StartupTrace, TaskKind};
use gear_fs::FsTree;
use gear_image::{ImageBuilder, ImageRef};

use crate::state::State;

/// Builds a Docker image from a real directory on the host file system:
/// every regular file and symlink under `dir` becomes image content.
///
/// # Errors
///
/// I/O errors reading `dir`; `InvalidData` for paths that are not valid
/// image paths.
pub fn build(state: &mut State, dir: &Path, reference: &ImageRef) -> io::Result<BuildSummary> {
    let mut tree = FsTree::new();
    let mut files = 0u64;
    let mut bytes = 0u64;
    walk_into(dir, Path::new(""), &mut tree, &mut files, &mut bytes)?;
    let image = ImageBuilder::new(reference.clone()).layer_from_tree(&tree).build();
    state.docker.push_image(&image);
    Ok(BuildSummary { files, bytes })
}

/// What [`build`] ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildSummary {
    /// Regular files ingested.
    pub files: u64,
    /// Content bytes ingested.
    pub bytes: u64,
}

fn walk_into(
    host_dir: &Path,
    image_prefix: &Path,
    tree: &mut FsTree,
    files: &mut u64,
    bytes: &mut u64,
) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(host_dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let name = entry.file_name();
        let image_path = image_prefix.join(&name);
        let image_str = image_path.to_string_lossy().replace('\\', "/");
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            tree.mkdir_p(&image_str).map_err(invalid)?;
            walk_into(&entry.path(), &image_path, tree, files, bytes)?;
        } else if file_type.is_symlink() {
            let target = fs::read_link(entry.path())?;
            tree.insert(
                &image_str,
                gear_fs::Node::symlink(
                    gear_archive::Metadata::file_default(),
                    target.to_string_lossy().into_owned(),
                ),
            )
            .map_err(invalid)?;
        } else {
            let content = fs::read(entry.path())?;
            *files += 1;
            *bytes += content.len() as u64;
            tree.create_file(&image_str, Bytes::from(content)).map_err(invalid)?;
        }
    }
    Ok(())
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Converts a stored Docker image to the Gear format and publishes it.
///
/// # Errors
///
/// `NotFound` if the image is absent; `InvalidData` on conversion failure.
pub fn convert(state: &mut State, reference: &ImageRef) -> io::Result<ConvertSummary> {
    let image = state.docker.image(reference).ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no image {reference}"))
    })?;
    let conversion = Converter::new().convert(&image).map_err(invalid)?;
    let report = publish(&conversion, &mut state.index, &mut state.files);
    Ok(ConvertSummary {
        unique_files: conversion.report.unique_files,
        uploaded_files: report.files_uploaded,
        deduped_files: report.files_deduped,
        index_bytes: conversion.report.index_bytes,
    })
}

/// What [`convert`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertSummary {
    /// Unique Gear files in the image.
    pub unique_files: u64,
    /// Files newly uploaded to the pool.
    pub uploaded_files: u64,
    /// Files the pool already had.
    pub deduped_files: u64,
    /// Serialized index size.
    pub index_bytes: u64,
}

/// Lists images: `(reference, converted)` pairs, sorted.
pub fn images(state: &State) -> Vec<(ImageRef, bool)> {
    let mut out: Vec<(ImageRef, bool)> = state
        .docker
        .image_refs()
        .into_iter()
        .map(|r| {
            let converted = state.index.manifest(&r).is_some();
            (r, converted)
        })
        .collect();
    // Index-only images (e.g. committed Gear images) are listed too.
    for r in state.index.image_refs() {
        if !out.iter().any(|(existing, _)| *existing == r) {
            out.push((r, true));
        }
    }
    out.sort();
    out
}

/// Reads one file out of a converted image, through the index + file pool
/// (no container needed) — `gear cat app:1 etc/passwd`.
///
/// # Errors
///
/// `NotFound` for a missing image, path, or Gear file.
pub fn cat(state: &State, reference: &ImageRef, path: &str) -> io::Result<Bytes> {
    let gear = GearImage::pull(&state.index, reference).map_err(invalid)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no converted image {reference}"))
    })?;
    let (fp, _) = gear.index().file_at(path).ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("no file {path} in {reference}"))
    })?;
    state.files.download(fp).ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("gear file {fp} missing from pool"))
    })
}

/// Deploys a converted image in an ephemeral simulated client, reading the
/// given paths, and returns the deployment report.
///
/// # Errors
///
/// `NotFound`/`InvalidData` mapped from the deployment error.
pub fn deploy(
    state: &State,
    reference: &ImageRef,
    reads: Vec<String>,
) -> io::Result<gear_client::DeploymentReport> {
    let mut client = GearClient::new(ClientConfig::default());
    let trace = StartupTrace { reads, task: TaskKind::Generic };
    let (_, report) = client
        .deploy(reference, &trace, &state.index, &state.files)
        .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
    Ok(report)
}

/// Removes an image (original and Gear form) and garbage-collects; returns
/// bytes freed across both registries, or `None` (state untouched) when
/// neither held the reference. Gear files stay in the pool (they may be
/// shared by other images).
pub fn remove(state: &mut State, reference: &ImageRef) -> Option<u64> {
    let docker = state.docker.delete_image(reference).then(|| state.docker.gc());
    let index = state.index.delete_image(reference).then(|| state.index.gc());
    match (docker, index) {
        (None, None) => None,
        (docker, index) => Some(docker.unwrap_or(0) + index.unwrap_or(0)),
    }
}

/// Integrity scan over all three stores; returns findings (empty = clean).
pub fn verify(state: &State) -> Vec<String> {
    let mut findings = state.docker.verify();
    findings.extend(state.index.verify().into_iter().map(|f| format!("index: {f}")));
    findings.extend(
        state.files.verify().into_iter().map(|fp| format!("gear file {fp} corrupt")),
    );
    findings
}

/// Human-readable storage statistics.
pub fn stats(state: &State) -> String {
    let docker = state.docker.stats();
    let index = state.index.stats();
    let files = state.files.stats();
    format!(
        "docker registry : {} images, {} blobs, {} bytes\n\
         index registry  : {} indexes, {} bytes\n\
         gear file pool  : {} files, {} bytes stored ({} logical), {} dedup hits",
        docker.manifests,
        docker.blobs,
        docker.total_bytes(),
        index.manifests,
        index.total_bytes(),
        files.objects,
        files.stored_bytes,
        files.logical_bytes,
        files.dedup_hits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gear-cli-cmd-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_app_dir(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        fs::create_dir_all(dir.join("bin")).unwrap();
        fs::create_dir_all(dir.join("etc")).unwrap();
        fs::write(dir.join("bin/app"), b"real binary bytes").unwrap();
        fs::write(dir.join("etc/app.conf"), b"threads = 8").unwrap();
        dir
    }

    #[test]
    fn build_convert_cat_roundtrip() {
        let dir = sample_app_dir("roundtrip");
        let mut state = State::default();
        let r: ImageRef = "app:1".parse().unwrap();
        let summary = build(&mut state, &dir, &r).unwrap();
        assert_eq!(summary.files, 2);

        let conv = convert(&mut state, &r).unwrap();
        assert_eq!(conv.unique_files, 2);
        assert_eq!(conv.uploaded_files, 2);

        let content = cat(&state, &r, "bin/app").unwrap();
        assert_eq!(&content[..], b"real binary bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn convert_dedups_across_builds() {
        let dir = sample_app_dir("dedup");
        let mut state = State::default();
        let r1: ImageRef = "app:1".parse().unwrap();
        let r2: ImageRef = "app:2".parse().unwrap();
        build(&mut state, &dir, &r1).unwrap();
        build(&mut state, &dir, &r2).unwrap();
        convert(&mut state, &r1).unwrap();
        let second = convert(&mut state, &r2).unwrap();
        assert_eq!(second.uploaded_files, 0, "identical content must dedup");
        assert_eq!(second.deduped_files, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn images_marks_converted() {
        let dir = sample_app_dir("list");
        let mut state = State::default();
        let r1: ImageRef = "app:1".parse().unwrap();
        let r2: ImageRef = "other:1".parse().unwrap();
        build(&mut state, &dir, &r1).unwrap();
        build(&mut state, &dir, &r2).unwrap();
        convert(&mut state, &r1).unwrap();
        let list = images(&state);
        assert_eq!(list.len(), 2);
        assert!(list.contains(&(r1, true)));
        assert!(list.contains(&(r2, false)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deploy_reports_fetches() {
        let dir = sample_app_dir("deploy");
        let mut state = State::default();
        let r: ImageRef = "app:1".parse().unwrap();
        build(&mut state, &dir, &r).unwrap();
        convert(&mut state, &r).unwrap();
        let report = deploy(&state, &r, vec!["bin/app".into()]).unwrap();
        assert_eq!(report.files_fetched, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_frees_both_registries_and_keeps_pool() {
        let dir = sample_app_dir("remove");
        let mut state = State::default();
        let r: ImageRef = "app:1".parse().unwrap();
        build(&mut state, &dir, &r).unwrap();
        convert(&mut state, &r).unwrap();
        let pool_before = state.files.object_count();
        let freed = remove(&mut state, &r).expect("image was there");
        assert!(freed > 0);
        assert!(images(&state).is_empty());
        assert_eq!(
            state.files.object_count(),
            pool_before,
            "gear files remain shareable after image removal"
        );
        assert_eq!(remove(&mut state, &r), None, "second removal finds nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_clean_state_reports_nothing() {
        let dir = sample_app_dir("verify");
        let mut state = State::default();
        let r: ImageRef = "app:1".parse().unwrap();
        build(&mut state, &dir, &r).unwrap();
        convert(&mut state, &r).unwrap();
        assert!(verify(&state).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_image_errors() {
        let mut state = State::default();
        let r: ImageRef = "ghost:1".parse().unwrap();
        assert!(convert(&mut state, &r).is_err());
        assert!(cat(&state, &r, "x").is_err());
        assert!(deploy(&state, &r, vec![]).is_err());
    }

    #[test]
    fn stats_renders() {
        let state = State::default();
        let s = stats(&state);
        assert!(s.contains("gear file pool"));
    }
}
