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

#[derive(Debug)]
struct Args {
    config: CorpusConfig,
    experiments: Vec<String>,
    json: bool,
    baseline: Option<PathBuf>,
    record_baseline: Option<PathBuf>,
    trace: Option<PathBuf>,
}

/// A numeric flag's value, at least `min`.
fn number(what: &str, value: Option<String>, min: u64) -> Result<u64, String> {
    let v = value.ok_or(format!("--{what} needs a value"))?;
    v.parse().ok().filter(|n| *n >= min).ok_or(format!("bad {what} {v:?}"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut json = false;
    let mut quick = false;
    let (mut scale, mut seed, mut versions) = (None, None, None);
    let mut baseline = None;
    let mut record_baseline = None;
    let mut trace = None;
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => scale = Some(number("scale", argv.next(), 1)?),
            "--seed" => seed = Some(number("seed", argv.next(), 0)?),
            "--versions" => versions = Some(number("versions", argv.next(), 1)? as usize),
            "--quick" => quick = true,
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
    // `--quick` picks the corpus the other three flags then adjust, wherever
    // it stood on the command line.
    let mut config = if quick { CorpusConfig::quick() } else { CorpusConfig::paper() };
    config.scale_denom = scale.unwrap_or(config.scale_denom);
    config.seed = seed.unwrap_or(config.seed);
    config.max_versions = versions.or(config.max_versions);
    if experiments.is_empty() {
        experiments.push("all".to_owned());
    }
    Ok(Args { config, experiments, json, baseline, record_baseline, trace })
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
    let args = parse_args(std::env::args().skip(1))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_table() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_owned));
        // (command line, the one-line error) — rejected before any corpus.
        for (line, message) in [
            ("--quick --scale 0 table2", "bad scale \"0\""),
            ("--versions 0", "bad versions \"0\""),
            ("--scale banana", "bad scale \"banana\""),
            ("--seed", "--seed needs a value"),
            ("--frobnicate", "unknown flag \"--frobnicate\""),
        ] {
            assert_eq!(parse(line).expect_err(line), message, "{line}");
        }
        // (command line, seed, scale, versions) — `--quick` never discards
        // a flag given before it.
        let quick = CorpusConfig::quick();
        for (line, seed, scale, versions) in [
            ("--quick", quick.seed, quick.scale_denom, quick.max_versions),
            ("--seed 3 --quick", 3, quick.scale_denom, quick.max_versions),
            ("--quick --seed 3", 3, quick.scale_denom, quick.max_versions),
            ("--scale 4096 --versions 2 --quick", quick.seed, 4096, Some(2)),
            ("--quick --versions 2 --scale 4096", quick.seed, 4096, Some(2)),
            ("--seed 3", 3, CorpusConfig::paper().scale_denom, None),
        ] {
            let args = parse(line).expect(line);
            let got = (args.config.seed, args.config.scale_denom, args.config.max_versions);
            assert_eq!(got, (seed, scale, versions), "{line}");
            assert_eq!(args.experiments, ["all"], "{line}");
        }
    }
}
