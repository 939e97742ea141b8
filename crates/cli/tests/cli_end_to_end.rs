//! Black-box tests running the actual `gear` binary.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gear-bin-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn gear(state: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gear"))
        .env("GEAR_STATE", state)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Every file under `dir` with its bytes, sorted by path.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = fs::read(&path).unwrap();
                files.push((path, bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn full_workflow_through_the_binary() {
    let root = temp_root("workflow");
    let state = root.join("state");
    let app = root.join("app");
    fs::create_dir_all(app.join("bin")).unwrap();
    fs::write(app.join("bin/tool"), b"tool bytes").unwrap();
    fs::write(app.join("README"), b"docs").unwrap();

    assert!(gear(&state, &["init"]).status.success());
    let build = gear(&state, &["build", app.to_str().unwrap(), "tool:1.0"]);
    assert!(build.status.success(), "{build:?}");
    assert!(stdout(&build).contains("2 files"));

    let convert = gear(&state, &["convert", "tool:1.0"]);
    assert!(convert.status.success());
    assert!(stdout(&convert).contains("2 unique files"));

    let images = gear(&state, &["images"]);
    assert!(stdout(&images).contains("tool:1.0"));
    assert!(stdout(&images).contains("gear"));

    let cat = gear(&state, &["cat", "tool:1.0", "bin/tool"]);
    assert!(cat.status.success());
    assert_eq!(cat.stdout, b"tool bytes");

    let deploy = gear(&state, &["deploy", "tool:1.0", "bin/tool"]);
    assert!(deploy.status.success());
    assert!(stdout(&deploy).contains("1 files fetched"));

    let verify = gear(&state, &["verify"]);
    assert!(verify.status.success());
    assert!(stdout(&verify).contains("clean"));

    let rm = gear(&state, &["rm", "tool:1.0"]);
    assert!(rm.status.success());
    let images_after = gear(&state, &["images"]);
    assert!(!stdout(&images_after).contains("tool:1.0"));

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn verify_detects_on_disk_tampering() {
    let root = temp_root("tamper");
    let state = root.join("state");
    let app = root.join("app");
    fs::create_dir_all(&app).unwrap();
    fs::write(app.join("data"), b"original").unwrap();

    gear(&state, &["build", app.to_str().unwrap(), "t:1"]);
    gear(&state, &["convert", "t:1"]);

    // Corrupt a gear file on disk.
    let files_dir = state.join("files");
    let victim = fs::read_dir(&files_dir).unwrap().next().unwrap().unwrap().path();
    fs::write(&victim, b"tampered!").unwrap();

    // Load-time verification catches it before any command runs.
    let verify = gear(&state, &["verify"]);
    assert!(!verify.status.success());
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(stderr.contains("cannot load state") || stderr.contains("corrupt"), "{stderr}");

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn helpful_errors() {
    let root = temp_root("errors");
    let state = root.join("state");
    let unknown = gear(&state, &["frobnicate"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown command"));

    let bad_ref = gear(&state, &["convert", "not-a-ref"]);
    assert!(!bad_ref.status.success());

    let missing = gear(&state, &["cat", "ghost:1", "x"]);
    assert!(!missing.status.success());

    let help = gear(&state, &["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("usage"));

    // Removing an image that is not there fails and leaves the state
    // directory exactly as it was.
    let app = root.join("app");
    fs::create_dir_all(&app).unwrap();
    fs::write(app.join("data"), b"kept").unwrap();
    assert!(gear(&state, &["build", app.to_str().unwrap(), "app:1"]).status.success());
    assert!(gear(&state, &["convert", "app:1"]).status.success());
    let before = snapshot(&state);
    let ghost = gear(&state, &["rm", "ghost:1"]);
    assert_eq!(ghost.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&ghost.stderr), "gear: no such image ghost:1\n");
    assert!(ghost.stdout.is_empty());
    assert_eq!(snapshot(&state), before);

    fs::remove_dir_all(&root).unwrap();
}
