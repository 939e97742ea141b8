//! Validates telemetry exports against the checked-in trace schema.
//!
//! `repro profile --trace DIR` writes `trace.json` and `metrics.json`, then
//! runs them through [`validate`] against `ci/trace-schema.json` — a
//! JSON-Schema-style document whose `x-` extension fields carry the
//! project-specific contract: required fields per event phase, required
//! span/instant categories, and required metric keys. On top of the
//! schema-driven checks, the validator re-derives every span's nanosecond
//! interval from its exported `ts`/`dur` and proves each Chrome-trace
//! track (`pid`/`tid` pair — fleet exports put one shard per `tid`) is
//! well-nested — no two spans on a track partially overlap.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use serde_json::Value;

/// Span intervals per Chrome-trace track: `(pid, tid)` → `[(start, end,
/// event index)]` in re-derived integer nanoseconds.
type Tracks = BTreeMap<(u64, u64), Vec<(u64, u64, usize)>>;

/// Object-field lookup (`None` for non-objects and absent keys).
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

/// Walks a path of object fields.
pub(crate) fn field_path<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| field(v, key))
}

/// The checked-in schema's location relative to this crate.
pub fn schema_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/trace-schema.json")
}

/// Loads `trace.json` and `metrics.json` from `dir` and validates them
/// against the checked-in schema.
///
/// # Errors
///
/// A message if any of the three files cannot be read or parsed; validation
/// findings are returned in the `Ok` vector (empty = clean).
pub fn validate_dir(dir: &Path) -> Result<Vec<String>, String> {
    let load = |path: &Path| -> Result<Value, String> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde_json::from_str(&raw).map_err(|e| format!("parsing {}: {e}", path.display()))
    };
    let trace = load(&dir.join("trace.json"))?;
    let metrics = load(&dir.join("metrics.json"))?;
    let schema = load(&schema_path())?;
    Ok(validate(&trace, &metrics, &schema))
}

/// Validates a parsed trace and metrics export against a parsed schema.
/// Returns one message per problem; an empty vector means the exports
/// satisfy the contract.
pub fn validate(trace: &Value, metrics: &Value, schema: &Value) -> Vec<String> {
    let mut problems = Vec::new();

    // Top-level required keys, straight from the schema document.
    for key in strings_at(schema, "required") {
        if field(trace, &key).is_none() {
            problems.push(format!("trace is missing top-level key {key:?}"));
        }
    }
    if let Some(unit) = field_path(schema, &["properties", "displayTimeUnit", "const"]) {
        if field(trace, "displayTimeUnit") != Some(unit) {
            problems.push(format!(
                "displayTimeUnit must be {unit}, got {:?}",
                field(trace, "displayTimeUnit")
            ));
        }
    }

    let Some(events) = field(trace, "traceEvents").and_then(Value::as_array) else {
        problems.push("traceEvents is not an array".to_owned());
        return problems;
    };
    if events.is_empty() {
        problems.push("trace has no events".to_owned());
    }

    // Per-event checks: known phase, required fields for that phase, sane
    // timestamps. Collects span intervals (per Chrome-trace track — fleet
    // exports put each shard on its own `tid`, and spans only nest within
    // a track) and categories along the way.
    let by_phase = field(schema, "x-event-required-fields");
    let mut tracks = Tracks::new();
    let mut categories = BTreeSet::new();
    for (index, event) in events.iter().enumerate() {
        let phase = field(event, "ph").and_then(Value::as_str).unwrap_or("");
        let Some(required) = by_phase.and_then(|p| field(p, phase)) else {
            problems.push(format!("event {index}: unknown phase {phase:?}"));
            continue;
        };
        for field in required.as_array().into_iter().flatten() {
            let field = field.as_str().unwrap_or_default();
            if self::field(event, field).is_none() {
                problems.push(format!("event {index} (ph {phase:?}) is missing {field:?}"));
            }
        }
        if let Some(cat) = field(event, "cat").and_then(Value::as_str) {
            categories.insert(cat.to_owned());
        }
        let ts = field(event, "ts").and_then(Value::as_f64);
        match ts {
            Some(ts) if ts >= 0.0 => {}
            _ => problems.push(format!("event {index}: ts must be a non-negative number")),
        }
        if phase == "X" {
            let dur = field(event, "dur").and_then(Value::as_f64);
            match (ts, dur) {
                (Some(ts), Some(dur)) if dur >= 0.0 => {
                    // Timestamps are exact decimal microseconds with a
                    // three-digit fraction; ×1000 recovers integer nanos.
                    let start = (ts * 1000.0).round() as u64;
                    let end = start + (dur * 1000.0).round() as u64;
                    let pid = field(event, "pid").and_then(Value::as_u64).unwrap_or(0);
                    let tid = field(event, "tid").and_then(Value::as_u64).unwrap_or(0);
                    tracks.entry((pid, tid)).or_default().push((start, end, index));
                }
                _ => problems.push(format!("event {index}: dur must be a non-negative number")),
            }
        }
    }

    // Well-nestedness per track: sorted by start (ties: longest first),
    // every span must sit fully inside whichever enclosing span on its
    // track is still open.
    for spans in tracks.values_mut() {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<(u64, u64, usize)> = Vec::new();
        for &(start, end, index) in spans.iter() {
            while open.last().is_some_and(|&(_, top_end, _)| top_end <= start) {
                open.pop();
            }
            if let Some(&(top_start, top_end, top_index)) = open.last() {
                if end > top_end {
                    problems.push(format!(
                        "span {index} [{start}, {end}) straddles span {top_index} \
                         [{top_start}, {top_end}): trace is not well-nested"
                    ));
                }
            }
            open.push((start, end, index));
        }
    }

    for cat in strings_at(schema, "x-required-categories") {
        if !categories.contains(&cat) {
            problems.push(format!("trace has no events in required category {cat:?}"));
        }
    }

    for key in strings_at(schema, "x-required-metric-keys") {
        let found = ["counters", "gauges", "sketches"]
            .iter()
            .any(|section| field_path(metrics, &[section, &key]).is_some());
        if !found {
            problems.push(format!("metrics export is missing required key {key:?}"));
        }
    }

    problems
}

/// The string entries of the array at `key` in `doc` (empty if absent).
fn strings_at(doc: &Value, key: &str) -> Vec<String> {
    field(doc, key)
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(Value::as_str)
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{profile, ExperimentContext};

    fn schema() -> Value {
        let raw = std::fs::read_to_string(schema_path()).expect("schema file");
        serde_json::from_str(&raw).expect("schema parses")
    }

    #[test]
    fn profile_exports_satisfy_the_schema() {
        let ctx = ExperimentContext::quick();
        let result = profile::run(&ctx);
        let trace: Value = serde_json::from_str(&result.trace_json).expect("trace parses");
        let metrics: Value = serde_json::from_str(&result.metrics_json).expect("metrics parse");
        let problems = validate(&trace, &metrics, &schema());
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn straddling_spans_are_rejected() {
        let trace: Value = serde_json::from_str(
            r#"{"displayTimeUnit":"ms","traceEvents":[
                {"ph":"X","pid":1,"tid":1,"cat":"client","name":"a","ts":0.000,"dur":10.000},
                {"ph":"X","pid":1,"tid":1,"cat":"client","name":"b","ts":5.000,"dur":10.000}
            ]}"#,
        )
        .unwrap();
        let metrics: Value = serde_json::from_str(
            r#"{"counters":{},"gauges":{},"sketches":{}}"#,
        )
        .unwrap();
        let problems = validate(&trace, &metrics, &schema());
        assert!(
            problems.iter().any(|p| p.contains("not well-nested")),
            "{problems:#?}"
        );
    }

    #[test]
    fn overlap_across_tracks_is_fine() {
        // Two shards exporting overlapping intervals on different tids is
        // the normal fleet shape.
        let trace: Value = serde_json::from_str(
            r#"{"displayTimeUnit":"ms","traceEvents":[
                {"ph":"X","pid":1,"tid":1,"cat":"client","name":"a","ts":0.000,"dur":10.000},
                {"ph":"X","pid":1,"tid":2,"cat":"client","name":"b","ts":5.000,"dur":10.000}
            ]}"#,
        )
        .unwrap();
        let metrics: Value = serde_json::from_str(
            r#"{"counters":{},"gauges":{},"sketches":{}}"#,
        )
        .unwrap();
        let problems = validate(&trace, &metrics, &schema());
        assert!(
            !problems.iter().any(|p| p.contains("not well-nested")),
            "cross-track overlap must pass: {problems:#?}"
        );
    }

    #[test]
    fn missing_fields_and_keys_are_reported() {
        let trace: Value =
            serde_json::from_str(r#"{"traceEvents":[{"ph":"X","ts":1.000}]}"#).unwrap();
        let metrics: Value = serde_json::from_str(
            r#"{"counters":{},"gauges":{},"sketches":{}}"#,
        )
        .unwrap();
        let problems = validate(&trace, &metrics, &schema());
        assert!(problems.iter().any(|p| p.contains("displayTimeUnit")));
        assert!(problems.iter().any(|p| p.contains("missing \"cat\"")));
        assert!(problems.iter().any(|p| p.contains("missing required key")));
    }
}
