//! `gear` — the Gear image tool.
//!
//! ```text
//! gear [--state DIR] <command>
//!
//!   init                         create the state directory
//!   build <dir> <repo:tag>       build a Docker image from a host directory
//!   convert <repo:tag>           convert to the Gear format and publish
//!   images                       list images (and whether converted)
//!   cat <repo:tag> <path>        print a file from a converted image
//!   deploy <repo:tag> [paths..]  simulate a deployment reading the paths
//!   rm <repo:tag>                delete an image (both forms) and gc
//!   verify                       integrity-scan all stores
//!   stats                        registry/pool storage statistics
//! ```
//!
//! State defaults to `./.gear-state` or `$GEAR_STATE`.

mod commands;
mod state;

use std::io::Write;
use std::process::ExitCode;

use gear_image::ImageRef;
use state::StateDir;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gear: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut state_root = std::env::var("GEAR_STATE").unwrap_or_else(|_| ".gear-state".into());
    if args.first().map(String::as_str) == Some("--state") {
        args.remove(0);
        if args.is_empty() {
            return Err("--state needs a value".into());
        }
        state_root = args.remove(0);
    }
    let dir = StateDir::new(&state_root);
    let command = args.first().cloned().unwrap_or_else(|| "help".into());

    match command.as_str() {
        "init" => {
            dir.init().map_err(|e| e.to_string())?;
            println!("initialized {}", dir.root().display());
            Ok(())
        }
        "build" => {
            let [_, src, reference] = args.as_slice() else {
                return Err("usage: gear build <dir> <repo:tag>".into());
            };
            let reference: ImageRef = reference.parse().map_err(|e| format!("{e}"))?;
            let mut state = load(&dir)?;
            let summary = commands::build(&mut state, std::path::Path::new(src), &reference)
                .map_err(|e| e.to_string())?;
            save(&dir, &state)?;
            println!("built {reference}: {} files, {} bytes", summary.files, summary.bytes);
            Ok(())
        }
        "convert" => {
            let [_, reference] = args.as_slice() else {
                return Err("usage: gear convert <repo:tag>".into());
            };
            let reference: ImageRef = reference.parse().map_err(|e| format!("{e}"))?;
            let mut state = load(&dir)?;
            let summary =
                commands::convert(&mut state, &reference).map_err(|e| e.to_string())?;
            save(&dir, &state)?;
            println!(
                "converted {reference}: {} unique files ({} uploaded, {} deduped), index {} bytes",
                summary.unique_files,
                summary.uploaded_files,
                summary.deduped_files,
                summary.index_bytes
            );
            Ok(())
        }
        "images" => {
            let state = load(&dir)?;
            for (reference, converted) in commands::images(&state) {
                println!("{reference}\t{}", if converted { "gear" } else { "docker-only" });
            }
            Ok(())
        }
        "cat" => {
            let [_, reference, path] = args.as_slice() else {
                return Err("usage: gear cat <repo:tag> <path>".into());
            };
            let reference: ImageRef = reference.parse().map_err(|e| format!("{e}"))?;
            let state = load(&dir)?;
            let content =
                commands::cat(&state, &reference, path).map_err(|e| e.to_string())?;
            std::io::stdout().write_all(&content).map_err(|e| e.to_string())?;
            Ok(())
        }
        "deploy" => {
            if args.len() < 2 {
                return Err("usage: gear deploy <repo:tag> [paths..]".into());
            }
            let reference: ImageRef = args[1].parse().map_err(|e| format!("{e}"))?;
            let reads = args[2..].to_vec();
            let state = load(&dir)?;
            let report =
                commands::deploy(&state, &reference, reads).map_err(|e| e.to_string())?;
            println!(
                "deployed {}: pull {:?} + run {:?}, {} files fetched, {} bytes pulled",
                report.reference, report.pull, report.run, report.files_fetched,
                report.bytes_pulled
            );
            Ok(())
        }
        "rm" => {
            let [_, reference] = args.as_slice() else {
                return Err("usage: gear rm <repo:tag>".into());
            };
            let reference: ImageRef = reference.parse().map_err(|e| format!("{e}"))?;
            let mut state = load(&dir)?;
            let Some(freed) = commands::remove(&mut state, &reference) else {
                return Err(format!("no such image {reference}"));
            };
            // Rebuild the on-disk layout from scratch so deleted blobs go away.
            if dir.exists() {
                std::fs::remove_dir_all(dir.root()).map_err(|e| e.to_string())?;
            }
            save(&dir, &state)?;
            println!("removed {reference} ({freed} bytes freed)");
            Ok(())
        }
        "verify" => {
            let state = load(&dir)?;
            let findings = commands::verify(&state);
            if findings.is_empty() {
                println!("all stores verify clean");
                Ok(())
            } else {
                for finding in &findings {
                    eprintln!("{finding}");
                }
                Err(format!("{} integrity finding(s)", findings.len()))
            }
        }
        "stats" => {
            let state = load(&dir)?;
            println!("{}", commands::stats(&state));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!(
                "usage: gear [--state DIR] <init|build|convert|images|cat|deploy|rm|verify|stats> ..."
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `gear help`)")),
    }
}

fn load(dir: &StateDir) -> Result<state::State, String> {
    if dir.exists() {
        dir.load().map_err(|e| format!("cannot load state: {e}"))
    } else {
        Ok(state::State::default())
    }
}

fn save(dir: &StateDir, state: &state::State) -> Result<(), String> {
    dir.save(state).map_err(|e| format!("cannot save state: {e}"))
}
