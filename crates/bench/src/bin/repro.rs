//! Reproduction harness: regenerates every table and figure of the Gear
//! paper from the synthetic corpus.
//!
//! ```text
//! repro [--scale N] [--seed S] [--versions V] [--quick] [--json]
//!       [--baseline FILE] [--record-baseline FILE] [--trace DIR]
//!       <experiment>...
//! ```
//!
//! The experiments are the entries of `gear_bench::experiments::EXPERIMENTS`
//! (`repro --help` lists them); `all`, the default, runs every entry but
//! `profile`.
//!
//! `--quick` uses the small test corpus; the default is the paper-shaped
//! corpus (50 series, 971 images, 1/1024 scale) — expect a few minutes in a
//! release build.
//!
//! `--json` additionally writes each experiment's result to
//! `BENCH_<name>.json` in the working directory. Every run checks each
//! experiment's invariants (no lost deployment, no lost acknowledged blob,
//! fixed-seed determinism); `--baseline FILE` also checks the run against
//! the bounds recorded in FILE, which must all belong to experiments in the
//! run. Any violated bound prints a `REGRESSION` line and exits non-zero
//! (the CI smoke job). `--record-baseline FILE` writes the bounds the run's
//! experiments record as a fresh baseline.
//!
//! `profile` runs the instrumented deployment-path profile; `--trace DIR`
//! additionally writes its Perfetto `trace.json` and `metrics.json` into
//! `DIR` and validates them against `ci/trace-schema.json`, exiting
//! non-zero on any violation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gear_bench::artifact::{self, Baseline, BenchArtifact};
use gear_bench::experiments::{self, ExperimentContext, RunCtx};
use gear_corpus::CorpusConfig;

struct Args {
    config: CorpusConfig,
    experiments: Vec<String>,
    json: bool,
    quick: bool,
    baseline: Option<PathBuf>,
    record_baseline: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = CorpusConfig::paper();
    let mut experiments = Vec::new();
    let mut json = false;
    let mut quick = false;
    let mut baseline = None;
    let mut record_baseline = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                config.scale_denom = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                config.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--versions" => {
                let v = argv.next().ok_or("--versions needs a value")?;
                config.max_versions =
                    Some(v.parse().map_err(|_| format!("bad versions {v:?}"))?);
            }
            "--quick" => {
                config = CorpusConfig::quick();
                quick = true;
            }
            "--json" => json = true,
            "--baseline" => {
                let v = argv.next().ok_or("--baseline needs a file")?;
                baseline = Some(PathBuf::from(v));
            }
            "--record-baseline" => {
                let v = argv.next().ok_or("--record-baseline needs a file")?;
                record_baseline = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = argv.next().ok_or("--trace needs a directory")?;
                trace = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--scale N] [--seed S] [--versions V] [--quick] [--json] \
                     [--baseline FILE] [--record-baseline FILE] [--trace DIR] <{}|all>...",
                    experiments::names_usage(),
                ))
            }
            name if !name.starts_with('-') => experiments.push(name.to_owned()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_owned());
    }
    Ok(Args { config, experiments, json, quick, baseline, record_baseline, trace })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Everything that can be rejected without the corpus is rejected here:
    // generating and publishing it takes minutes at paper scale.
    let wanted = experiments::select(&args.experiments)?;
    if args.trace.is_some() && !wanted.iter().any(|e| e.name == "profile") {
        return Err("--trace exports the profile experiment's telemetry; add `profile`".into());
    }
    let baseline = args.baseline.as_deref().map(Baseline::load).transpose()?;
    let (scale_denom, seed) = (args.config.scale_denom, args.config.seed);
    if let Some(b) = baseline.as_ref().filter(|b| (b.scale_denom, b.seed) != (scale_denom, seed)) {
        return Err(format!(
            "baseline recorded at scale 1/{} seed {}, run uses scale 1/{scale_denom} seed {seed}",
            b.scale_denom, b.seed,
        ));
    }

    eprintln!(
        "generating corpus (scale 1/{scale_denom}, seed {seed}, {} series)...",
        args.config.series.as_ref().map_or(50, Vec::len),
    );
    let ctx = ExperimentContext::new(&args.config);
    eprintln!(
        "corpus ready: {} images, {} logical content",
        ctx.corpus.image_count(),
        experiments::human_bytes(
            ctx.corpus.all_images().map(|i| i.content_bytes()).sum::<u64>() * scale_denom
        )
    );
    // The deployment experiments share one published corpus.
    let published = wanted.iter().any(|e| e.needs_publish).then(|| {
        eprintln!("converting and publishing corpus to registries...");
        experiments::fig8::publish_corpus(&ctx)
    });
    let rc = RunCtx {
        ctx: &ctx,
        published: published.as_ref(),
        quick: args.quick,
        trace: args.trace.as_deref(),
    };

    let mut runs = Vec::new();
    for experiment in wanted {
        println!("{}", "=".repeat(72));
        let outcome =
            (experiment.run)(&rc).map_err(|e| format!("{} failed: {e}", experiment.name))?;
        println!("{}\n", outcome.text);
        // Written before any bound is judged, so a failing run leaves its
        // artifact behind to inspect.
        if args.json {
            let artifact = BenchArtifact::new(experiment.name, scale_denom, seed, &outcome);
            let path = artifact
                .write_to(Path::new("."))
                .map_err(|e| format!("writing {}: {e}", artifact.file_name()))?;
            eprintln!("wrote {}", path.display());
        }
        runs.push((experiment.name, outcome));
    }

    let problems = artifact::check(&runs, baseline.as_ref());
    for problem in &problems {
        eprintln!("REGRESSION {problem}");
    }
    if !problems.is_empty() {
        return Err(format!("{} bound(s) violated", problems.len()));
    }
    if let Some(path) = &args.baseline {
        eprintln!("baseline check passed ({})", path.display());
    }
    if let Some(path) = &args.record_baseline {
        let recorded = Baseline::record(scale_denom, seed, &runs);
        let json = serde_json::to_string(&recorded).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("recorded {} bounds to {}", recorded.bounds.len(), path.display());
    }
    Ok(())
}
