//! `repro profile`: one instrumented pass over the whole deployment path.
//!
//! Not a paper figure — the observability companion to the other
//! experiments. A single [`gear_telemetry::Collector`] is threaded through
//! publish, cold and warm Gear deployments, a deployment under injected
//! faults, and a cooperative P2P cluster; the result is a per-phase
//! breakdown plus the Chrome/Perfetto `trace.json` and flat `metrics.json`
//! exports.
//!
//! Everything is stamped in simulated time from the deterministic cost
//! models, so the same corpus seed yields byte-identical exports.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use gear_client::GearClient;
use gear_core::{publish, Converter};
use gear_p2p::{Cluster, ClusterConfig};
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::{FaultKind, FaultPlan, RetryPolicy};
use gear_telemetry::Telemetry;

use super::{human_bytes, secs, ExperimentContext};

/// Series profiled (keeps the paper-scale run to a couple of minutes).
const PROFILE_SERIES: usize = 2;

/// Cluster size for the P2P phase.
const CLUSTER_NODES: usize = 3;

/// One profiled phase.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (also the `"profile"` span name in the trace).
    pub name: &'static str,
    /// Simulated time the phase advanced the telemetry cursor by.
    pub sim_time: Duration,
    /// Spans recorded during the phase.
    pub spans: usize,
    /// The phase's headline byte count (what moved, per its cost model).
    pub bytes: u64,
}

/// The `repro profile` result: per-phase breakdown plus the exports.
#[derive(Debug, Clone)]
pub struct Profile {
    /// One row per phase, in execution order.
    pub rows: Vec<PhaseRow>,
    /// Chrome/Perfetto trace export (deterministic for a fixed seed).
    pub trace_json: String,
    /// Flat metrics export (counters, gauges, sketches).
    pub metrics_json: String,
    /// Collector self-validation problems (empty on a healthy run).
    pub problems: Vec<String>,
    /// Distinct span/instant categories seen, sorted.
    pub categories: Vec<&'static str>,
    /// Total spans recorded.
    pub span_count: usize,
    /// Total instant events recorded.
    pub instant_count: usize,
}

impl Profile {
    /// Writes the telemetry exports into `dir` and validates them against
    /// the checked-in trace schema.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or one `TRACE VIOLATION` line per schema problem.
    pub fn export(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        std::fs::write(&trace, &self.trace_json)
            .map_err(|e| format!("writing {}: {e}", trace.display()))?;
        std::fs::write(&metrics, &self.metrics_json)
            .map_err(|e| format!("writing {}: {e}", metrics.display()))?;
        eprintln!("wrote {} and {}", trace.display(), metrics.display());
        let problems = crate::schema::validate_dir(dir)?;
        if problems.is_empty() {
            eprintln!("trace schema check passed ({})", crate::schema::schema_path().display());
            Ok(())
        } else {
            Err(problems
                .iter()
                .map(|p| format!("TRACE VIOLATION {p}"))
                .collect::<Vec<_>>()
                .join("\n"))
        }
    }
}

/// Profiles the full deployment path on the first [`PROFILE_SERIES`] series.
pub fn run(ctx: &ExperimentContext) -> Profile {
    let (telemetry, collector) = Telemetry::collector();
    let series: Vec<_> = ctx.corpus.series.iter().take(PROFILE_SERIES).collect();
    let mut rows = Vec::new();

    // Phase bookkeeping: bracket with a "profile" span, then diff the
    // cursor, the span count, and a byte counter across the phase.
    let phase = |name: &'static str,
                     bytes_key: &[&str],
                     body: &mut dyn FnMut(&Telemetry)|
     -> PhaseRow {
        let before = collector.metrics();
        let spans_before = collector.spans().len();
        let started = telemetry.now();
        let span = telemetry.span_start("profile", name);
        body(&telemetry);
        telemetry.span_end(span);
        let after = collector.metrics();
        let bytes = bytes_key
            .iter()
            .map(|key| after.counter(key) - before.counter(key))
            .sum();
        PhaseRow {
            name,
            sim_time: telemetry.now().saturating_sub(started),
            // The bracketing "profile" span itself is excluded.
            spans: collector.spans().len() - spans_before - 1,
            bytes,
        }
    };

    // Phase 1 — publish: convert the series and push them to fresh
    // registries with the store recording (`registry.*` counters, one
    // `store` instant per new object).
    let mut gear_index = DockerRegistry::new();
    let mut gear_files = GearFileStore::with_compression();
    gear_files.set_recorder(telemetry.clone());
    rows.push(phase("publish", &["registry.upload_bytes"], &mut |_| {
        let converter = Converter::new();
        for series in &series {
            for image in &series.images {
                let conv = converter.convert(image).expect("corpus images convert");
                publish(&conv, &mut gear_index, &mut gear_files);
            }
        }
    }));

    // Phase 2 — cold deployments with concurrent fetch streams: the cache
    // is cleared before every deployment, so each one exercises manifest,
    // index, pipelined registry fetches (simnet transfer spans), and the
    // union mount.
    rows.push(phase("deploy_cold", &["client.bytes_pulled"], &mut |t| {
        let mut client = GearClient::new(ctx.client_config.with_streams(4));
        client.set_recorder(t.clone());
        for series in &series {
            for (image, trace) in series.images.iter().zip(&series.traces) {
                client.clear_cache();
                let (cid, _) = client
                    .deploy(image.reference(), trace, &gear_index, &gear_files)
                    .expect("cold deploy");
                client.destroy(cid);
            }
        }
    }));

    // Phase 3 — warm deployments: one persistent client per series deploys
    // versions oldest-to-newest, so the shared cache absorbs most fetches.
    rows.push(phase("deploy_warm", &["client.bytes_pulled"], &mut |t| {
        for series in &series {
            let mut client = GearClient::new(ctx.client_config);
            client.set_recorder(t.clone());
            for (image, trace) in series.images.iter().zip(&series.traces) {
                let (cid, _) = client
                    .deploy(image.reference(), trace, &gear_index, &gear_files)
                    .expect("warm deploy");
                client.destroy(cid);
            }
        }
    }));

    // Phase 4 — a deployment under faults: a scripted drop window forces
    // two deterministic retries with backoff through the client's one
    // request retry loop, visible as `simnet` fault instants,
    // `simnet.faults` and `client.retries`.
    rows.push(phase("deploy_faulty", &["client.bytes_pulled"], &mut |t| {
        let mut client = GearClient::new(ctx.client_config);
        client.set_recorder(t.clone());
        client.inject_faults(
            FaultPlan::new(0x9206).fail_requests(1, 2, FaultKind::Drop),
            RetryPolicy::standard(0x9206),
        );
        let first = series.first().expect("profiled series");
        let (cid, report) = client
            .deploy(first.images[0].reference(), &first.traces[0], &gear_index, &gear_files)
            .expect("deploy under retries");
        assert_eq!(report.retries, 2, "both scripted drops are retried");
        client.destroy(cid);
    }));

    // Phase 5 — cooperative P2P: the newest image of the first series is
    // deployed across a LAN cluster; warm peers serve the cold ones.
    rows.push(phase(
        "p2p",
        &["p2p.peer_bytes", "p2p.registry_bytes"],
        &mut |t| {
            let mut cluster = Cluster::new(
                ClusterConfig::lan(CLUSTER_NODES).with_client(ctx.client_config),
            );
            cluster.set_recorder(t.clone());
            let first = series.first().expect("profiled series");
            let image = first.images.last().expect("versions");
            let trace = first.traces.last().expect("traces");
            for node in 0..CLUSTER_NODES {
                cluster
                    .deploy_on(node, image.reference(), trace, &gear_index, &gear_files)
                    .expect("cluster deploy");
            }
        },
    ));

    let spans = collector.spans();
    let instants = collector.instants();
    let mut categories: Vec<&'static str> =
        spans.iter().map(|s| s.cat).chain(instants.iter().map(|i| i.cat)).collect();
    categories.sort_unstable();
    categories.dedup();

    Profile {
        rows,
        trace_json: collector.trace_json(),
        metrics_json: collector.metrics_json(),
        problems: collector.validate(),
        categories,
        span_count: spans.len(),
        instant_count: instants.len(),
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Profile — instrumented deployment path ({PROFILE_SERIES} series)")?;
        writeln!(f, "{:<14}{:>12}{:>10}{:>14}", "phase", "sim time", "spans", "bytes")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<14}{:>12}{:>10}{:>14}",
                row.name,
                secs(row.sim_time),
                row.spans,
                human_bytes(row.bytes)
            )?;
        }
        writeln!(
            f,
            "{} spans + {} instants across {} categories: {}",
            self.span_count,
            self.instant_count,
            self.categories.len(),
            self.categories.join(" ")
        )?;
        if self.problems.is_empty() {
            write!(f, "trace self-check: well-nested, monotone")
        } else {
            for problem in &self.problems {
                writeln!(f, "TRACE PROBLEM: {problem}")?;
            }
            write!(f, "trace self-check: {} problem(s)", self.problems.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_the_deployment_path() {
        let ctx = ExperimentContext::quick();
        let result = run(&ctx);
        assert!(result.problems.is_empty(), "{:?}", result.problems);
        assert!(result.span_count > result.rows.len());
        for cat in ["client", "cache", "simnet", "fs", "registry", "p2p"] {
            assert!(
                result.categories.contains(&cat),
                "missing category {cat}: {:?}",
                result.categories
            );
        }
        let cold = result.rows.iter().find(|r| r.name == "deploy_cold").unwrap();
        let warm = result.rows.iter().find(|r| r.name == "deploy_warm").unwrap();
        assert!(warm.bytes < cold.bytes, "warm {} vs cold {}", warm.bytes, cold.bytes);
    }

    #[test]
    fn exports_are_deterministic() {
        let ctx = ExperimentContext::quick();
        let once = run(&ctx);
        let again = run(&ctx);
        assert_eq!(once.trace_json, again.trace_json);
        assert_eq!(once.metrics_json, again.metrics_json);
    }
}
