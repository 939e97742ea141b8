//! End-to-end benchmark of the Gear reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <publish|deploy_cold|rollout|fleet|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.jsonl B.jsonl
//! ```
//!
//! A run sets up the shared inputs from the seed, makes one verified
//! warm-up pass, then repeats identical passes until `--seconds` of
//! measured time have accumulated. It prints every metric as
//! `workload metric value unit` and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod alloc;
mod compare;
mod metrics;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde::value::Number;
use serde_json::Value;

use crate::alloc::COUNTERS;
use crate::setup::Inputs;
use crate::trace::Tracer;
use crate::workloads::{PassOutput, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The corpus seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0x6EA2;
/// Measured seconds per run when `--seconds` is absent (`run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A run never reports a median over fewer passes than this.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let text = value()?;
                args.seed = parse_seed(&text).ok_or_else(|| format!("bad --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {text:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, not {:?}",
            workloads::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(Command::Run(args))
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Where trace and result files go: `out/` beside this package's manifest
/// (`cargo run` exports its directory), else `benchmark/out` under the
/// working directory — inside the checkout either way.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// One measured pass: what it cost the host, around what it reported.
struct Measured {
    wall_s: f64,
    alloc_bytes: u64,
    allocs: u64,
    /// Peak live heap during the pass, above the level before pass 1.
    peak_above_bytes: u64,
    output: PassOutput,
}

fn measure(workload: &mut dyn Workload, inputs: &Inputs, baseline_live: u64) -> Measured {
    COUNTERS.reset_peak();
    let before = COUNTERS.snapshot();
    let start = Instant::now();
    let output = workload.pass(inputs, false);
    let wall_s = start.elapsed().as_secs_f64();
    let after = COUNTERS.snapshot();
    Measured {
        wall_s,
        alloc_bytes: after.total - before.total,
        allocs: after.calls - before.calls,
        peak_above_bytes: after.peak.saturating_sub(baseline_live),
        output,
    }
}

/// Everything one workload's run produced.
struct RunResult {
    workload: String,
    attempted: u64,
    failed: u64,
    /// Problems other than failed ops: a pass whose simulated-time or
    /// byte results differ from pass 1, a trace that does not nest.
    problems: Vec<String>,
    passes: usize,
    pass_wall_s: Vec<f64>,
    tail_p: f64,
    samples: u64,
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn run_workload(name: &str, args: &Args) -> Result<RunResult, String> {
    // Set up several times and report the median; traced runs do not
    // report `setup_s`, so they set up once.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut inputs = None;
    for _ in 0..repeats {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(Inputs::build(args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut workload =
        workloads::by_name(name, &inputs).ok_or_else(|| format!("cannot build workload {name}"))?;

    // Warm-up: fills caches and lazy state, and is the pass whose outputs
    // are checked against the oracles.
    let warm = workload.pass(&inputs, true);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);
    let mut problems = Vec::new();

    let baseline_live = COUNTERS.snapshot().live;
    let mut passes: Vec<Measured> = Vec::new();
    let mut measured_s = 0.0;
    while measured_s < args.seconds || passes.len() < MIN_PASSES {
        let pass = measure(workload.as_mut(), &inputs, baseline_live);
        measured_s += pass.wall_s;
        attempted += pass.output.ops;
        failed += pass.output.failed;
        if pass.output.sim != warm.sim {
            problems.push(format!(
                "pass {} differs from the warm-up pass in simulated time, bytes or counters",
                passes.len() + 1
            ));
        }
        passes.push(pass);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let median_wall = stats::median(&walls);
    let median_pass = &passes[stats::median_index(&walls)];
    let ops = warm.ops as f64;
    let sim = &warm.sim;

    let metrics = if args.trace {
        let start = Instant::now();
        let telemetered = workload.telemetry_pass(&inputs);
        let telemetry_wall = start.elapsed().as_secs_f64();
        attempted += telemetered.ops;
        failed += telemetered.failed;

        let tracer = Tracer::with_capacity(1 << 17);
        let start = Instant::now();
        let mut layers = workload.traced_pass(&inputs, &tracer);
        let traced_wall = start.elapsed().as_secs_f64();
        layers.push(("telemetry.overhead_ratio", telemetry_wall / median_wall));
        layers.push(("trace.overhead_ratio", traced_wall / median_wall));
        problems.extend(tracer.nesting_problems());
        let path = out_dir().join(format!("trace-{name}.json"));
        write_file(&path, &tracer.to_json())?;
        metrics::PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                let value = layers
                    .iter()
                    .find(|(n, _)| *n == metric)
                    .map_or(0.0, |(_, v)| *v);
                (metric, value, unit)
            })
            .collect()
    } else {
        let values = [
            stats::median(&setup_s),
            ops / median_wall,
            sim.p50_s,
            sim.tail_s,
            sim.total_s,
            sim.net_mb_per_op,
            workloads::mb(median_pass.peak_above_bytes),
            workloads::mb(median_pass.alloc_bytes) / ops,
            median_pass.allocs as f64 / ops,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };

    Ok(RunResult {
        workload: name.to_owned(),
        attempted,
        failed,
        problems,
        passes: passes.len(),
        pass_wall_s: walls,
        tail_p: sim.tail_p,
        samples: sim.samples,
        metrics,
    })
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn number(value: f64) -> Value {
    Value::Number(Number::F64(value))
}

fn whole(value: u64) -> Value {
    Value::Number(Number::U64(value))
}

/// `{"value": …, "unit": …}`, the shape of one metric in every output.
fn metric_entry(value: f64, unit: &str) -> Value {
    object(vec![
        ("value", number(value)),
        ("unit", Value::String(unit.into())),
    ])
}

/// The full result of one workload, for `--out`.
fn detail_json(r: &RunResult) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|&(n, v, u)| (n, metric_entry(v, u)))
        .collect();
    object(vec![
        ("workload", Value::String(r.workload.clone())),
        ("correct", Value::Bool(r.correct())),
        ("ops_attempted", whole(r.attempted)),
        ("ops_failed", whole(r.failed)),
        ("passes", whole(r.passes as u64)),
        (
            "pass_wall_s",
            Value::Array(r.pass_wall_s.iter().map(|w| number(*w)).collect()),
        ),
        ("sim_tail_percentile", number(r.tail_p)),
        ("sim_samples", whole(r.samples)),
        (
            "problems",
            Value::Array(r.problems.iter().cloned().map(Value::String).collect()),
        ),
        ("metrics", object(metrics)),
    ])
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::with_capacity(names.len());
    for name in &names {
        let result = run_workload(name, args)?;
        for &(metric, value, unit) in &result.metrics {
            println!("{name} {metric} {value} {unit}");
        }
        println!(
            "{name} ops_attempted {} ops_failed {} passes {} sim_tail p{} over {} samples",
            result.attempted,
            result.failed,
            result.passes,
            result.tail_p * 100.0,
            result.samples
        );
        for problem in &result.problems {
            eprintln!("{name}: {problem}");
        }
        results.push(result);
    }

    let detail = Value::Array(results.iter().map(detail_json).collect());
    let out = args.out.clone().unwrap_or_else(|| {
        let kind = if args.trace { "layers" } else { "result" };
        out_dir().join(format!("{kind}-{}.json", args.workload))
    });
    write_file(&out, &format!("{detail}\n"))?;

    // The last line: one object with exactly these four keys. A single
    // workload's metrics go by their names; `all` prefixes the workload.
    let correct = results.iter().all(RunResult::correct);
    let mut metrics = Vec::new();
    for r in &results {
        for &(metric, value, unit) in &r.metrics {
            let key = if names.len() == 1 {
                metric.to_owned()
            } else {
                format!("{}/{metric}", r.workload)
            };
            metrics.push((key, metric_entry(value, unit)));
        }
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", whole(attempted)),
        ("failed", whole(failed)),
        ("metrics", Value::Object(metrics.into_iter().collect())),
    ]);
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Err(usage) => Err(usage),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("gear-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_command_line_parses() {
        let Ok(Command::Run(args)) = parse(&[
            "--workload",
            "rollout",
            "--seed",
            "17",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]) else {
            panic!("driver arguments must parse");
        };
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("rollout", 17, 15.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fleet", "--trace", "yes"]).is_err());
        assert!(parse(&["--workload", "fleet", "--seconds", "0"]).is_err());
        assert!(parse(&[]).is_err());
        assert_eq!(parse_seed("0x6EA2"), Some(0x6EA2));
    }

    #[test]
    fn seed_changes_inputs_but_not_op_counts() {
        let (a, b) = (
            Inputs::build(1).expect("seed 1"),
            Inputs::build(2).expect("seed 2"),
        );
        assert_eq!(a.series_major().len(), b.series_major().len());
        assert_eq!(a.version_major().len(), a.series_major().len());
        assert_eq!(a.series_major().len(), 199);
        assert_ne!(
            a.files.stats().stored_bytes,
            b.files.stats().stored_bytes,
            "different seeds must generate different content"
        );
        // The same seed reproduces the same inputs.
        let again = Inputs::build(1).expect("seed 1 again");
        assert_eq!(a.files.stats(), again.files.stats());
        assert_eq!(a.rollout_resident_bytes, again.rollout_resident_bytes);
    }
}
