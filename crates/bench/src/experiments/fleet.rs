//! Fleet-scale deployment scenarios (`repro fleet`).
//!
//! ROADMAP item 2's end state: 10 000+ concurrent clients deploying over a
//! **three-level topology** (cloud → site → node) against a
//! **consistent-hash sharded registry** with admission control, driven by
//! the event-driven scheduler in `gear-simnet` — cost O(events), never
//! O(clients × polling). Three scenarios:
//!
//! * **flash_crowd** — 10 000 clients arrive within two seconds, round-robin
//!   over 64 nodes in 8 sites. Each site crosses the WAN roughly once; the
//!   LAN fan-out absorbs the rest.
//! * **rolling_update** — the same crowd arrives while a scripted shard
//!   outage covers the whole seeding phase (replicas must carry the down
//!   shard's keys), then every site is reset in sequence, forcing
//!   re-seeds over the backbone. Zero lost deployments is an invariant.
//! * **hetero_links** — half the sites sit behind 5 Mbps uplinks instead of
//!   20 Mbps; the tails show how the slowest uplink dominates p999.
//!
//! Makespan and p50/p99/p999 come from the fleet's merged
//! [`QuantileSketch`](gear_telemetry::QuantileSketch)s: each node records
//! into its own bounded flight-recorder shard, so collector memory stays
//! capped however many clients arrive (its footprint is a recorded pin),
//! and a fixed seed makes every report bit-identical and every merged
//! trace/metrics export byte-identical across runs.

use std::fmt;
use std::time::Duration;

use gear_core::{ConvertError, Converter};
use gear_p2p::{FleetConfig, FleetReport, FleetSim, Topology, TopologyConfig};
use gear_simnet::Link;
use gear_telemetry::SketchMergeError;

use super::{human_bytes, secs, ExperimentContext};
use crate::artifact::{ceilings, pins, Bound, Metric, Outcome};

/// Simulated clients per scenario.
pub const FLEET_CLIENTS: u32 = 10_000;

/// Edge sites in the topology.
pub const SITES: usize = 8;

/// Nodes per site (total nodes = `SITES × NODES_PER_SITE` = 64).
pub const NODES_PER_SITE: usize = 8;

/// Registry shards behind the hash ring.
pub const SHARDS: u32 = 4;

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (metric prefix).
    pub name: &'static str,
    /// The fleet simulation's report.
    pub report: FleetReport,
}

/// The `repro fleet` result.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Which series' newest image the fleet deployed.
    pub series: String,
    /// Gear files in the image.
    pub objects: usize,
    /// Total content bytes across the image's Gear files.
    pub image_bytes: u64,
    /// Total nodes in the topology.
    pub nodes: usize,
    /// Registry replication factor.
    pub replication: usize,
    /// One row per scenario.
    pub scenarios: Vec<Scenario>,
    /// Whether re-running the flash crowd reproduced a bit-identical
    /// report (fixed seed → fixed events, makespan, tails, traffic).
    pub deterministic: bool,
    /// Whether that re-run also reproduced byte-identical merged trace and
    /// metrics exports (fixed seed → fixed bytes).
    pub exports_identical: bool,
}

impl Fleet {
    /// Flattens the suite into metrics. Non-finite shard balances (a shard
    /// that served nothing) are clamped to a large sentinel so the JSON
    /// stays parseable.
    pub fn metrics(&self) -> Vec<Metric> {
        let finite = |v: f64| if v.is_finite() { v } else { 1e9 };
        let mut metrics = Vec::new();
        for scenario in &self.scenarios {
            let prefix = format!("fleet/{}", scenario.name);
            let r = &scenario.report;
            metrics.push(Metric::new(format!("{prefix}/makespan_secs"), r.makespan.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/p50_secs"), r.p50.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/p99_secs"), r.p99.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/p999_secs"), r.p999.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/max_secs"), r.max.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/completed"), f64::from(r.completed)));
            metrics.push(Metric::new(format!("{prefix}/lost"), f64::from(r.lost)));
            metrics.push(Metric::new(format!("{prefix}/retries"), r.retries as f64));
            metrics.push(Metric::new(
                format!("{prefix}/overload_rejections"),
                r.overload_rejections as f64,
            ));
            metrics.push(Metric::new(format!("{prefix}/shard_balance"), finite(r.shard_balance)));
            metrics.push(Metric::new(format!("{prefix}/registry_bytes"), r.registry_bytes as f64));
            metrics.push(Metric::new(format!("{prefix}/lan_bytes"), r.lan_bytes as f64));
            metrics.push(Metric::new(format!("{prefix}/backbone_bytes"), r.backbone_bytes as f64));
            metrics.push(Metric::new(format!("{prefix}/events"), r.events as f64));
            metrics.push(Metric::new(
                format!("{prefix}/validation_problems"),
                r.validation_problems as f64,
            ));
            metrics
                .push(Metric::new(format!("{prefix}/collector_bytes"), r.collector_bytes as f64));
            metrics.push(Metric::new(format!("{prefix}/dropped_spans"), r.dropped_spans as f64));
        }
        metrics.push(Metric::flag("fleet/deterministic", self.deterministic));
        metrics.push(Metric::flag("fleet/exports_identical", self.exports_identical));
        metrics
    }

    /// The suite's outcome. Invariants: zero lost deployments (replicas and
    /// retries must absorb every outage), zero span-tree violations in the
    /// fleet telemetry, and a fixed seed reproducing the report and the
    /// exports. A baseline pins every scenario's makespan, p999 and
    /// collector footprint, plus the flash crowd's shard balance (the
    /// outage and rolling-update scenarios skew balance by design, so only
    /// the clean crowd gates it).
    pub fn outcome(&self) -> Outcome {
        let metrics = self.metrics();
        let mut invariants = ceilings(&metrics, |m| {
            (m.key.ends_with("/lost") || m.key.ends_with("/validation_problems")).then_some(0.0)
        });
        invariants.push(Bound::floor("fleet/deterministic", 1.0));
        invariants.push(Bound::floor("fleet/exports_identical", 1.0));
        let recorded = pins(&metrics, |m| {
            m.key.ends_with("/makespan_secs")
                || m.key.ends_with("/p999_secs")
                || m.key.ends_with("/collector_bytes")
                || m.key == "fleet/flash_crowd/shard_balance"
        });
        Outcome { metrics, invariants, recorded, ..Outcome::text(self) }
    }
}

/// Why the fleet suite could not run.
#[derive(Debug)]
pub enum FleetError {
    /// The requested series is not in the corpus.
    SeriesMissing(String),
    /// The series has no images to deploy.
    SeriesEmpty(String),
    /// The newest image failed to convert to Gear files.
    Convert(ConvertError),
    /// The per-node sketches could not merge into the fleet metrics export.
    Merge(SketchMergeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::SeriesMissing(name) => write!(f, "series {name:?} not in corpus"),
            FleetError::SeriesEmpty(name) => write!(f, "series {name:?} has no images"),
            FleetError::Convert(e) => write!(f, "image conversion failed: {e}"),
            FleetError::Merge(e) => write!(f, "fleet sketches failed to merge: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Convert(e) => Some(e),
            FleetError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

/// Converts the series' newest image into the (fingerprint, content)
/// objects the sharded registry serves.
fn image_objects(
    ctx: &ExperimentContext,
    series_name: &str,
) -> Result<Vec<(gear_hash::Fingerprint, bytes::Bytes)>, FleetError> {
    let series = ctx
        .corpus
        .series_by_name(series_name)
        .ok_or_else(|| FleetError::SeriesMissing(series_name.to_owned()))?;
    let image = series
        .images
        .last()
        .ok_or_else(|| FleetError::SeriesEmpty(series_name.to_owned()))?;
    let conversion = Converter::new().convert(image).map_err(FleetError::Convert)?;
    Ok(conversion.files.into_iter().map(|f| (f.fingerprint, f.content)).collect())
}

fn standard_topology() -> Topology {
    Topology::new(TopologyConfig::edge_fleet(SITES, NODES_PER_SITE))
}

/// The flash crowd: everyone arrives within two seconds of a cold fleet.
/// Returns the report plus the fleet's merged `(trace, metrics)` exports
/// for the byte-identity check.
fn flash_crowd(
    objects: &[(gear_hash::Fingerprint, bytes::Bytes)],
    seed: u64,
) -> Result<(FleetReport, (String, String)), FleetError> {
    let mut sim = FleetSim::new(standard_topology(), FleetConfig::standard(seed), objects);
    sim.schedule_flash_crowd(FLEET_CLIENTS, Duration::ZERO, Duration::from_micros(200));
    let report = sim.run();
    let metrics_json = sim.fleet().metrics_json().map_err(FleetError::Merge)?;
    Ok((report, (sim.fleet().trace_json(), metrics_json)))
}

/// The rolling update: a shard outage covers the seeding phase, then every
/// site is reset in sequence once the crowd has landed.
fn rolling_update(
    objects: &[(gear_hash::Fingerprint, bytes::Bytes)],
    seed: u64,
) -> FleetReport {
    let mut sim = FleetSim::new(standard_topology(), FleetConfig::standard(seed), objects);
    // Shard 0 is down for the entire seeding phase: its keys must be
    // served by replicas or nothing completes.
    sim.schedule_shard_outage(0, Duration::ZERO, Duration::from_secs(120));
    sim.schedule_flash_crowd(FLEET_CLIENTS, Duration::ZERO, Duration::from_micros(500));
    // Site-by-site re-image, 30 s apart, well after the crowd seeded.
    for site in 0..SITES as u32 {
        sim.schedule_site_reset(site, Duration::from_secs(300 + 30 * u64::from(site)));
        // One straggler per site arrives after its reset and must re-seed.
        let node = sim.topology().site_nodes(site).start;
        sim.schedule_client(node, Duration::from_secs(301 + 30 * u64::from(site)));
    }
    sim.run()
}

/// Heterogeneous uplinks: sites 4..8 drop from 20 Mbps to 5 Mbps.
fn hetero_links(
    objects: &[(gear_hash::Fingerprint, bytes::Bytes)],
    seed: u64,
) -> FleetReport {
    let mut config = TopologyConfig::edge_fleet(SITES, NODES_PER_SITE);
    for site in SITES / 2..SITES {
        config.sites[site].uplink = Link::mbps(5.0);
    }
    let mut sim = FleetSim::new(Topology::new(config), FleetConfig::standard(seed), objects);
    sim.schedule_flash_crowd(FLEET_CLIENTS, Duration::ZERO, Duration::from_micros(200));
    sim.run()
}

/// Runs all three scenarios plus a determinism re-run of the flash crowd.
///
/// # Errors
///
/// [`FleetError`] when the series is missing, empty, or fails to convert,
/// or the fleet's sketches fail to merge.
pub fn run(ctx: &ExperimentContext, series_name: &str) -> Result<Fleet, FleetError> {
    let objects = image_objects(ctx, series_name)?;
    let seed = ctx.corpus.config.seed;
    let (crowd, exports) = flash_crowd(&objects, seed)?;
    let (again, exports_again) = flash_crowd(&objects, seed)?;
    let deterministic = crowd.makespan == again.makespan
        && crowd.p999 == again.p999
        && crowd.events == again.events
        && crowd.registry_bytes == again.registry_bytes
        && crowd.lan_bytes == again.lan_bytes;
    let image_bytes = objects.iter().map(|(_, c)| c.len() as u64).sum::<u64>();
    let scenarios = vec![
        Scenario { name: "flash_crowd", report: crowd },
        Scenario { name: "rolling_update", report: rolling_update(&objects, seed) },
        Scenario { name: "hetero_links", report: hetero_links(&objects, seed) },
    ];
    Ok(Fleet {
        series: series_name.to_owned(),
        objects: objects.len(),
        image_bytes,
        nodes: SITES * NODES_PER_SITE,
        replication: FleetConfig::standard(seed).replication,
        scenarios,
        deterministic,
        exports_identical: exports == exports_again,
    })
}

impl fmt::Display for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet deployment — {} clients per scenario, {} ({} Gear files, {}) over \
             {} nodes in {} sites, {}-shard registry (replication {})",
            FLEET_CLIENTS,
            self.series,
            self.objects,
            human_bytes(self.image_bytes),
            self.nodes,
            SITES,
            SHARDS,
            self.replication,
        )?;
        writeln!(
            f,
            "{:<16}{:>10}{:>10}{:>10}{:>10}{:>7}{:>9}{:>9}{:>10}",
            "scenario", "makespan", "p50", "p99", "p999", "lost", "retries", "balance", "events"
        )?;
        for s in &self.scenarios {
            let r = &s.report;
            writeln!(
                f,
                "{:<16}{:>10}{:>10}{:>10}{:>10}{:>7}{:>9}{:>9.2}{:>10}",
                s.name,
                secs(r.makespan),
                secs(r.p50),
                secs(r.p99),
                secs(r.p999),
                r.lost,
                r.retries,
                r.shard_balance,
                r.events,
            )?;
        }
        let crowd = &self.scenarios[0].report;
        writeln!(
            f,
            "flash-crowd traffic: registry {}, backbone {}, LAN {}; \
             report bit-identical across runs: {}",
            human_bytes(crowd.registry_bytes),
            human_bytes(crowd.backbone_bytes),
            human_bytes(crowd.lan_bytes),
            self.deterministic
        )?;
        write!(
            f,
            "flash-crowd flight recorders: {} resident, {} spans shed; \
             exports byte-identical across runs: {}",
            human_bytes(crowd.collector_bytes),
            crowd.dropped_spans,
            self.exports_identical
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_suite_completes_everyone_deterministically() {
        let ctx = ExperimentContext::quick();
        let fleet = run(&ctx, "redis").expect("redis in quick corpus");
        assert!(fleet.deterministic, "fixed seed must reproduce the report");
        assert!(fleet.exports_identical, "fixed seed must export identical bytes");
        assert_eq!(fleet.scenarios.len(), 3);
        for s in &fleet.scenarios {
            assert_eq!(s.report.lost, 0, "{} lost clients", s.name);
            assert_eq!(s.report.validation_problems, 0, "{}", s.name);
            assert!(s.report.completed >= FLEET_CLIENTS, "{}", s.name);
            assert!(s.report.p50 <= s.report.p999, "{}", s.name);
        }
        // The harness sees the same verdict: every invariant holds, and a
        // baseline pins 3 makespans + 3 p999s + 3 collector footprints +
        // the flash crowd's balance, which the run then matches exactly.
        let outcome = fleet.outcome();
        assert_eq!(outcome.recorded.len(), 10, "{:?}", outcome.recorded);
        assert!(outcome.recorded.iter().all(|b| b.min.is_some() && b.min == b.max));
        let runs = [("fleet", outcome)];
        let baseline = crate::artifact::Baseline::record(64, 7, &runs);
        assert_eq!(crate::artifact::check(&runs, Some(&baseline)), [""; 0]);
        // The outage scenario actually consulted the down shard.
        let rolling = &fleet.scenarios[1].report;
        assert!(rolling.shard_down_refusals > 0, "outage never exercised failover");
    }

    #[test]
    fn slow_uplinks_stretch_the_tail_not_the_median() {
        let ctx = ExperimentContext::quick();
        let fleet = run(&ctx, "redis").expect("redis in quick corpus");
        let crowd = &fleet.scenarios[0].report;
        let hetero = &fleet.scenarios[2].report;
        assert!(
            hetero.p999 >= crowd.p999,
            "5 Mbps uplinks cannot beat 20 Mbps: {:?} vs {:?}",
            hetero.p999,
            crowd.p999
        );
    }

    #[test]
    fn missing_series_is_an_error_not_a_panic() {
        let ctx = ExperimentContext::quick();
        match run(&ctx, "no-such-series") {
            Err(FleetError::SeriesMissing(name)) => assert_eq!(name, "no-such-series"),
            other => panic!("expected SeriesMissing, got {other:?}"),
        }
    }
}
