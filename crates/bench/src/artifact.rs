//! Machine-readable bench artifacts and the CI regression baseline.
//!
//! `repro --json` writes one `BENCH_<name>.json` per experiment — the
//! rendered table plus flat `key → value` metrics — so the perf trajectory
//! is tracked across commits. Every gate the harness enforces is a
//! [`Bound`] on one of those metrics: an experiment's [`Outcome`] carries
//! the invariants that must hold on every run and the pins
//! `--record-baseline` writes for it, a recorded [`Baseline`]
//! (`ci/bench-baseline-quick.json`) is nothing but such pins keyed
//! `<experiment>/<metric key>`, and [`check`] is the only comparison. No
//! bound has a tolerance: `repro` is a pure function of its seed, so a
//! recorded value that moves at all, either way, is a changed behaviour.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// One named scalar measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Flat key, e.g. `"20Mbps/streams4/cold_secs"`.
    pub key: String,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Creates a metric.
    pub fn new(key: impl Into<String>, value: f64) -> Self {
        Metric { key: key.into(), value }
    }

    /// A `0.0` / `1.0` metric for a boolean verdict.
    pub fn flag(key: impl Into<String>, value: bool) -> Self {
        Metric::new(key, if value { 1.0 } else { 0.0 })
    }
}

/// A floor and/or ceiling on one metric — the one shape every gate takes.
/// A pin is both at one value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bound {
    /// Metric key: as the experiment emits it inside an [`Outcome`],
    /// prefixed `<experiment>/` inside a [`Baseline`].
    pub key: String,
    /// The value must not fall below this.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min: Option<f64>,
    /// The value must not exceed this.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max: Option<f64>,
}

impl Bound {
    /// A lower bound.
    pub fn floor(key: impl Into<String>, min: f64) -> Self {
        Bound { key: key.into(), min: Some(min), max: None }
    }

    /// An upper bound.
    pub fn ceiling(key: impl Into<String>, max: f64) -> Self {
        Bound { key: key.into(), min: None, max: Some(max) }
    }

    /// An exact value: a floor and a ceiling at `value`.
    pub fn pin(key: impl Into<String>, value: f64) -> Self {
        Bound { key: key.into(), min: Some(value), max: Some(value) }
    }

    /// How `experiment`'s `metrics` break this bound, if they do: the metric
    /// named `key` is missing, below the floor, or above the ceiling.
    /// Values print in full, so one ulp off a pin reads as such.
    fn violation(&self, experiment: &str, key: &str, metrics: &[Metric]) -> Option<String> {
        let Some(metric) = metrics.iter().find(|m| m.key == key) else {
            return Some(format!("{experiment}/{key}: missing from the run"));
        };
        let value = metric.value;
        match (self.min, self.max) {
            (Some(min), _) if value < min => {
                Some(format!("{experiment}/{key}: {value} below floor {min}"))
            }
            (_, Some(max)) if value > max => {
                Some(format!("{experiment}/{key}: {value} above ceiling {max}"))
            }
            _ => None,
        }
    }
}

/// One ceiling per metric for which `max` returns a value, e.g. `Some(0.0)`
/// for a must-be-zero invariant.
pub fn ceilings(metrics: &[Metric], max: impl Fn(&Metric) -> Option<f64>) -> Vec<Bound> {
    metrics.iter().filter_map(|m| max(m).map(|max| Bound::ceiling(m.key.as_str(), max))).collect()
}

/// One pin at the measured value per metric `keep` selects.
pub fn pins(metrics: &[Metric], keep: impl Fn(&Metric) -> bool) -> Vec<Bound> {
    metrics.iter().filter(|m| keep(m)).map(|m| Bound::pin(m.key.as_str(), m.value)).collect()
}

/// What one experiment run hands the harness.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The rendered table, exactly as printed to stdout.
    pub text: String,
    /// Flat scalar metrics (empty for experiments that only render text).
    pub metrics: Vec<Metric>,
    /// Bounds on `metrics` that must hold on every run, baseline or not —
    /// losing a blob or drifting between fixed-seed runs is never an
    /// acceptable trade for speed.
    pub invariants: Vec<Bound>,
    /// Pins on `metrics` that `--record-baseline` writes, each at the
    /// measured value: simulated times, collector footprints and the like.
    pub recorded: Vec<Bound>,
}

impl Outcome {
    /// An outcome that is only the result's rendered table.
    pub fn text(result: &impl fmt::Display) -> Self {
        Outcome { text: result.to_string(), ..Outcome::default() }
    }
}

/// One finished experiment: its `repro` name and what it produced.
pub type Run = (&'static str, Outcome);

/// A per-experiment result file (`BENCH_<name>.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Experiment name as given on the `repro` command line.
    pub name: String,
    /// Corpus scale denominator the run used.
    pub scale_denom: u64,
    /// Corpus seed the run used.
    pub seed: u64,
    /// Flat scalar metrics (empty for experiments that only render text).
    pub metrics: Vec<Metric>,
    /// The rendered table, exactly as printed to stdout.
    pub text: String,
}

impl BenchArtifact {
    /// The artifact for one finished experiment.
    pub fn new(name: &str, scale_denom: u64, seed: u64, outcome: &Outcome) -> Self {
        BenchArtifact {
            name: name.to_owned(),
            scale_denom,
            seed,
            metrics: outcome.metrics.clone(),
            text: outcome.text.clone(),
        }
    }

    /// The file this artifact is written to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serializes to `dir/BENCH_<name>.json`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(&path, json)?;
        Ok(path)
    }
}

/// The recorded pins the CI smoke job compares a fresh run against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Corpus scale the baseline was recorded at.
    pub scale_denom: u64,
    /// Corpus seed the baseline was recorded at.
    pub seed: u64,
    /// Every recorded pin, keyed `<experiment>/<metric key>`.
    pub bounds: Vec<Bound>,
}

impl Baseline {
    /// Records every run's [`Outcome::recorded`] pins.
    pub fn record(scale_denom: u64, seed: u64, runs: &[Run]) -> Self {
        let bounds = runs
            .iter()
            .flat_map(|(name, outcome)| {
                outcome
                    .recorded
                    .iter()
                    .map(move |b| Bound { key: format!("{name}/{}", b.key), ..b.clone() })
            })
            .collect();
        Baseline { scale_denom, seed, bounds }
    }

    /// Loads a baseline from a JSON file.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or a message when the JSON does not parse.
    pub fn load(path: &Path) -> Result<Self, String> {
        let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_slice(&bytes).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// Every violated bound, one message each: each run's invariants, then —
/// given a baseline — its recorded bounds against the run of the experiment
/// their key names. A baseline experiment that is not among `runs` fails
/// with a single message rather than one per bound.
pub fn check(runs: &[Run], baseline: Option<&Baseline>) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, outcome) in runs {
        let broken = outcome.invariants.iter();
        problems.extend(broken.filter_map(|b| b.violation(name, &b.key, &outcome.metrics)));
    }
    let mut absent: Vec<&str> = Vec::new();
    for bound in baseline.map_or(&[][..], |b| &b.bounds) {
        let (experiment, key) = bound.key.split_once('/').unwrap_or((&bound.key, ""));
        match runs.iter().find(|(name, _)| *name == experiment) {
            Some((_, outcome)) => {
                problems.extend(bound.violation(experiment, key, &outcome.metrics));
            }
            None if absent.contains(&experiment) => {}
            None => {
                absent.push(experiment);
                problems.push(format!(
                    "baseline has bounds for {experiment}; add `{experiment}` to the run"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(name: &'static str, metrics: &[(&str, f64)]) -> Run {
        let metrics = metrics.iter().map(|(k, v)| Metric::new(*k, *v)).collect();
        (name, Outcome { metrics, ..Outcome::default() })
    }

    fn baseline(bounds: Vec<Bound>) -> Baseline {
        Baseline { scale_denom: 64, seed: 7, bounds }
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let (name, outcome) = run_of("fig9", &[("20Mbps/cold_secs", 1.25)]);
        let artifact = BenchArtifact::new(name, 1024, 7, &outcome);
        let json = serde_json::to_string(&artifact).unwrap();
        let back: BenchArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "fig9");
        assert_eq!(back.metrics, outcome.metrics);
        assert_eq!(artifact.file_name(), "BENCH_fig9.json");
    }

    #[test]
    fn a_pin_reports_any_other_value() {
        let pinned = baseline(vec![Bound::pin("exp/a/secs", 2.0)]);
        let [above, below] = [2.0f64.to_bits() + 1, 2.0f64.to_bits() - 1].map(f64::from_bits);
        for (case, metrics, violations) in [
            ("equal", &[("a/secs", 2.0)][..], 0),
            ("one ulp above", &[("a/secs", above)], 1),
            ("one ulp below", &[("a/secs", below)], 1),
            ("missing key", &[("b/secs", 2.0)], 1),
        ] {
            let problems = check(&[run_of("exp", metrics)], Some(&pinned));
            assert_eq!(problems.len(), violations, "{case}: {problems:?}");
            assert!(problems.iter().all(|p| p.starts_with("exp/a/secs: ")), "{case}: {problems:?}");
        }
        let problems = check(&[run_of("exp", &[("a/secs", above)])], Some(&pinned));
        assert_eq!(problems, ["exp/a/secs: 2.0000000000000004 above ceiling 2"]);
    }

    /// Invariant floors and ceilings keep their meaning: anything between
    /// them passes, a baseline or not.
    #[test]
    fn invariants_fire_without_a_baseline_and_against_an_empty_one() {
        let guarded = |metrics: &[(&str, f64)]| {
            let (name, mut outcome) = run_of("exp", metrics);
            outcome.invariants = vec![Bound::ceiling("a/secs", 2.0), Bound::floor("ratio", 1.5)];
            [(name, outcome)]
        };
        for (case, metrics, violations) in [
            ("at the bounds", &[("a/secs", 2.0), ("ratio", 1.5)][..], 0),
            ("inside the bounds", &[("a/secs", 1.0), ("ratio", 9.0)], 0),
            ("above the ceiling", &[("a/secs", 2.001), ("ratio", 1.5)], 1),
            ("below the floor", &[("a/secs", 2.0), ("ratio", 1.499)], 1),
            ("both broken", &[("a/secs", 3.0), ("ratio", 0.0)], 2),
            ("nothing measured", &[], 2),
        ] {
            for recorded in [None, Some(&baseline(Vec::new()))] {
                let problems = check(&guarded(metrics), recorded);
                assert_eq!(problems.len(), violations, "{case}: {problems:?}");
            }
        }
    }

    #[test]
    fn an_experiment_absent_from_the_run_yields_one_message() {
        let recorded = baseline(vec![
            Bound::pin("tiering/flat/cold_secs", 3.0),
            Bound::pin("tiering/flat/warm_secs", 2.0),
            Bound::pin("exp/secs", 1.0),
        ]);
        let problems = check(&[run_of("exp", &[("secs", 1.0)])], Some(&recorded));
        assert_eq!(problems, ["baseline has bounds for tiering; add `tiering` to the run"]);
    }

    #[test]
    fn record_prefixes_keys_and_roundtrips_without_nulls() {
        let (name, mut outcome) =
            run_of("exp", &[("a/warm_secs", 2.0), ("a/fill", 0.1), ("ratio", 3.0)]);
        outcome.recorded = pins(&outcome.metrics, |m| m.key.ends_with("_secs"));
        let runs = [(name, outcome)];
        let recorded = Baseline::record(64, 7, &runs);
        assert_eq!(
            recorded.bounds,
            [Bound::pin("exp/a/warm_secs", 2.0)],
            "only the selected metrics are recorded",
        );
        let json = serde_json::to_string(&recorded).unwrap();
        assert!(!json.contains("null"), "{json}");
        assert_eq!(serde_json::from_str::<Baseline>(&json).unwrap(), recorded);
        assert!(check(&runs, Some(&recorded)).is_empty(), "a run passes its own recording");
    }
}
