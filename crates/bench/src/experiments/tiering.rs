//! `repro tiering`: deployment time under a two-tier shared cache.
//!
//! The sweep crosses four L2 disk models (ram / nvme / ssd / hdd) with four
//! L1 memory budgets (⅛, ¼, ½ of the working set, and unbounded). Each
//! point deploys the whole corpus through one persistent Gear client whose
//! shared cache is a [`gear_store::TieredStore`]; an untiered client runs
//! the same schedule as the zero-cost reference. Versions are interleaved
//! round-robin across series (the access pattern of a node hosting many
//! services); the first round counts as *cold*, later rounds as *warm* —
//! warm deployments are where tier placement shows up, because that is
//! when the cache serves.

use std::fmt;
use std::time::Duration;

use gear_client::{GearClient, TierConfig};

use super::fig8::PublishedCorpus;
use super::{disk_models, human_bytes, secs, ExperimentContext};
use crate::artifact::{pins, Metric, Outcome};

/// L1 budgets as `(label, working-set divisor)`; `None` = unbounded.
pub const L1_BUDGETS: [(&str, Option<u64>); 4] =
    [("eighth", Some(8)), ("quarter", Some(4)), ("half", Some(2)), ("unbounded", None)];

/// One `(disk, L1 budget)` point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct TieringPoint {
    /// Disk-model label (`ram` / `nvme` / `ssd` / `hdd`).
    pub disk: &'static str,
    /// L1-budget label (`eighth` / `quarter` / `half` / `unbounded`).
    pub l1: &'static str,
    /// Mean first-version deployment time.
    pub cold: Duration,
    /// Mean repeat-version deployment time.
    pub warm: Duration,
    /// Bytes resident in L1 after the full schedule.
    pub l1_resident: u64,
    /// Bytes resident in L2 after the full schedule.
    pub l2_resident: u64,
}

impl TieringPoint {
    /// Fraction of the cached bytes that ended up L1-resident.
    pub fn l1_fill(&self) -> f64 {
        self.l1_resident as f64 / self.l2_resident.max(1) as f64
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Tiering {
    /// Unique Gear-file bytes in the published pool (corpus scale) — the
    /// working set the L1 budgets are fractions of.
    pub working_set: u64,
    /// Untiered reference: mean first-version deployment time.
    pub flat_cold: Duration,
    /// Untiered reference: mean repeat-version deployment time.
    pub flat_warm: Duration,
    /// One point per disk × L1 budget, disks in [`disk_models`] order.
    pub points: Vec<TieringPoint>,
}

/// Mean cold/warm deployment times for one client over the whole corpus.
///
/// Versions are deployed round-robin *across* series — version 0 of every
/// series, then version 1, and so on — the access pattern of a node hosting
/// many services at once. Consecutive deployments of one series are
/// separated by every other series, so a bounded L1 must hold the aggregate
/// hot set or pay L2 reads; a strictly per-series schedule would let even a
/// tiny LRU L1 keep each series resident and hide the tiers entirely.
fn run_schedule(
    ctx: &ExperimentContext,
    published: &PublishedCorpus,
    client: &mut GearClient,
) -> (Duration, Duration) {
    let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);
    let (mut cold_n, mut warm_n) = (0u32, 0u32);
    let rounds = ctx.corpus.series.iter().map(|s| s.images.len()).max().unwrap_or(0);
    for version in 0..rounds {
        for series in &ctx.corpus.series {
            let (Some(image), Some(trace)) =
                (series.images.get(version), series.traces.get(version))
            else {
                continue;
            };
            let (id, report) = client
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("gear deploy");
            client.destroy(id);
            if version == 0 {
                cold += report.total();
                cold_n += 1;
            } else {
                warm += report.total();
                warm_n += 1;
            }
        }
    }
    (cold / cold_n.max(1), warm / warm_n.max(1))
}

/// Runs the sweep. The four disk models are independent and run on
/// separate threads; results are joined in model order, so output is
/// deterministic.
pub fn run(ctx: &ExperimentContext, published: &PublishedCorpus) -> Tiering {
    let working_set = published.gear_files.stats().logical_bytes;

    let mut flat = GearClient::new(ctx.client_config);
    let (flat_cold, flat_warm) = run_schedule(ctx, published, &mut flat);

    let points = std::thread::scope(|scope| {
        // The intermediate Vec is the spawn barrier: collecting the
        // handles starts every worker before the first join. Inlining
        // (as `needless_collect` would suggest) serializes the sweep.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = disk_models()
            .into_iter()
            .map(|(disk_label, disk)| {
                scope.spawn(move || {
                    L1_BUDGETS
                        .into_iter()
                        .map(|(l1_label, divisor)| {
                            let tier = TierConfig {
                                l1_capacity: divisor.map(|d| working_set / d),
                                disk,
                            };
                            let mut client =
                                GearClient::new(ctx.client_config.with_tier(tier));
                            let (cold, warm) = run_schedule(ctx, published, &mut client);
                            let (l1_resident, l2_resident) = client.cache_tier_bytes();
                            TieringPoint {
                                disk: disk_label,
                                l1: l1_label,
                                cold,
                                warm,
                                l1_resident,
                                l2_resident,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("tiering worker")).collect()
    });

    Tiering { working_set, flat_cold, flat_warm, points }
}

impl Tiering {
    /// The point for `(disk, l1)`, if the sweep produced it.
    pub fn point(&self, disk: &str, l1: &str) -> Option<&TieringPoint> {
        self.points.iter().find(|p| p.disk == disk && p.l1 == l1)
    }

    /// Flattens the sweep into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        metrics.push(Metric::new("flat/cold_secs", self.flat_cold.as_secs_f64()));
        metrics.push(Metric::new("flat/warm_secs", self.flat_warm.as_secs_f64()));
        for point in &self.points {
            let prefix = format!("{}/l1_{}", point.disk, point.l1);
            metrics.push(Metric::new(format!("{prefix}/cold_secs"), point.cold.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/warm_secs"), point.warm.as_secs_f64()));
            metrics.push(Metric::new(format!("{prefix}/l1_fill"), point.l1_fill()));
        }
        metrics
    }

    /// The sweep's outcome. A baseline pins the deployment times (the
    /// `*_secs` metrics; residency gauges are diagnostics, not gates).
    pub fn outcome(&self) -> Outcome {
        let metrics = self.metrics();
        let recorded = pins(&metrics, |m| m.key.ends_with("_secs"));
        Outcome { metrics, recorded, ..Outcome::text(self) }
    }
}

impl fmt::Display for Tiering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tiering — deployment time vs L1 budget × L2 disk (working set {})",
            human_bytes(self.working_set)
        )?;
        writeln!(f, "{:<8}{:<12}{:>10}{:>10}{:>10}", "disk", "l1", "cold", "warm", "l1 fill")?;
        writeln!(
            f,
            "{:<8}{:<12}{:>10}{:>10}{:>10}",
            "flat",
            "(untiered)",
            secs(self.flat_cold),
            secs(self.flat_warm),
            "-"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:<8}{:<12}{:>10}{:>10}{:>9.0}%",
                p.disk,
                p.l1,
                secs(p.cold),
                secs(p.warm),
                p.l1_fill() * 100.0
            )?;
        }
        write!(
            f,
            "untiered warm is the floor; the gap to it is staged L2 traffic \
             (write-through + misses below the L1 budget)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig8::publish_corpus;

    #[test]
    fn slower_disks_and_smaller_l1_cost_more() {
        let ctx = ExperimentContext::quick();
        let published = publish_corpus(&ctx);
        let sweep = run(&ctx, &published);
        assert_eq!(sweep.points.len(), 16);
        assert!(sweep.flat_warm < sweep.flat_cold, "cache must help even untiered");

        // Tiering never beats the untiered cache — it only adds priced I/O.
        for p in &sweep.points {
            assert!(p.warm >= sweep.flat_warm, "{}/{}: {:?}", p.disk, p.l1, p.warm);
        }

        // At the tightest L1, a slower L2 disk means slower warm deploys.
        let ram = sweep.point("ram", "eighth").unwrap().warm;
        let hdd = sweep.point("hdd", "eighth").unwrap().warm;
        assert!(hdd > ram, "hdd {hdd:?} !> ram {ram:?}");

        // On the slow disk, growing the L1 budget recovers warm time.
        let unbounded = sweep.point("hdd", "unbounded").unwrap().warm;
        assert!(hdd > unbounded, "eighth {hdd:?} !> unbounded {unbounded:?}");

        // An unbounded L1 holds everything L2 holds.
        let p = sweep.point("ssd", "unbounded").unwrap();
        assert_eq!(p.l1_resident, p.l2_resident);
        // A bounded L1 holds strictly less.
        let p = sweep.point("ssd", "eighth").unwrap();
        assert!(p.l1_resident < p.l2_resident);
    }
}
