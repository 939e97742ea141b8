//! `--compare A.jsonl B.jsonl`: do two sets of runs of the same commit
//! agree within the benchmark's own bounds?
//!
//! Each input line is `<workload> <final JSON line of a run>`, as
//! `noise.sh` collects them. For every workload × end-to-end metric this
//! prints both sets' medians and spreads (distance between the quartiles
//! as a share of the median — the driver's acceptance measure), how much
//! worse B's median is than A's, and the bound from `BENCHMARK.json`. It
//! fails when a spread (`setup_s` excepted) or the gap exceeds the bound.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::stats;

/// `workload → metric → values`, one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

fn read_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("{}:{}: {why}", path.display(), n + 1);
        let (workload, json) = line
            .trim()
            .split_once(' ')
            .ok_or_else(|| bad("expected `<workload> <json>`"))?;
        let doc: Value = serde_json::from_str(json).map_err(|e| bad(&e.to_string()))?;
        if field(&doc, "correct").and_then(Value::as_bool) != Some(true) {
            return Err(bad("run is not correct"));
        }
        let metrics = field(&doc, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, entry) in metrics.iter() {
            let value = field(entry, "value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            set.entry(workload.to_owned())
                .or_default()
                .entry(name.to_owned())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// An end-to-end metric's declared direction and bound.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let candidates = [
        "BENCHMARK.json".to_owned(),
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../BENCHMARK.json"))
            .unwrap_or_default(),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in the working directory or beside benchmark/")?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = field(&doc, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    entries
        .iter()
        .map(|m| {
            Some(Declared {
                name: field(m, "name")?.as_str()?.to_owned(),
                higher_is_better: field(m, "better")?.as_str()? == "higher",
                bound: field(m, "bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// By how much of `a` is `b` worse (positive) or better (negative).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Distance between the quartiles of `values` as a share of their median.
fn spread(values: &[f64], median: f64) -> f64 {
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / median
}

/// Prints the comparison; `Ok(false)` when any bound is exceeded.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let declared = declared_metrics()?;
    println!(
        "{:<12}{:<16}{:>18}{:>9}{:>18}{:>9}{:>9}{:>8}",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "gap", "bound"
    );
    let mut within = true;
    for (workload, metrics_a) in &set_a {
        for metric in &declared {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&metric.name),
                set_b.get(workload).and_then(|m| m.get(&metric.name)),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from one set",
                    metric.name
                ));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{workload}/{}: each set needs at least two runs",
                    metric.name
                ));
            }
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (sa, sb) = (spread(va, ma), spread(vb, mb));
            let gap = worse_by(ma, mb, metric.higher_is_better);
            let spreads_ok = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let ok = spreads_ok && gap <= metric.bound;
            within &= ok;
            println!(
                "{:<12}{:<16}{:>18.6}{:>8.2}%{:>18.6}{:>8.2}%{:>8.2}%{:>7.1}%{}",
                workload,
                metric.name,
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                gap * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(2.0, 2.2, false) - 0.10).abs() < 1e-12);
    }
}
