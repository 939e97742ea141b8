//! Crash-recovery sweep: journaled-store recovery across disk models and
//! crash points.
//!
//! Not a paper figure — the durability companion to the fault sweep. A
//! seeded synthetic workload of puts/gets/pins runs against a journaled
//! [`DiskStore`] whose [`CrashPlan`] cuts power at a scripted journal write
//! — before the cell, tearing the cell, or after it — for every
//! combination of disk model and crash point across many seeds. Each
//! crashed store is then recovered and the sweep reports the mean priced
//! recovery time (the sequential journal read on that disk model), the
//! mean number of replayed records, and the acknowledged-blob loss count,
//! which must be **zero**: an acknowledged put is exactly a committed
//! journal batch, and committed batches survive any crash.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use bytes::Bytes;
use gear_hash::Fingerprint;
use gear_simnet::{CrashPlan, CrashPoint, DiskModel};
use gear_store::{BlobStore, DiskStore, EvictionPolicy, JournalMedia};

use super::disk_models;
use crate::artifact::{ceilings, pins, Metric, Outcome};

/// Seeds swept per (disk model, crash point) cell.
pub const CRASH_SEEDS: u64 = 16;

/// Aggregated results for one (disk model, crash point) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCell {
    /// Disk-model label, e.g. `"hdd"`.
    pub disk: &'static str,
    /// Crash-point label (`"before"`, `"torn"`, `"after"`).
    pub point: &'static str,
    /// Seeds that actually crashed (all of them — the crash is scripted).
    pub crashes: u32,
    /// Mean priced recovery time (the journal read on this disk model).
    pub mean_recovery: Duration,
    /// Mean journal records replayed per recovery.
    pub mean_replayed: f64,
    /// Mean records discarded as uncommitted or torn per recovery.
    pub mean_discarded: f64,
    /// Acknowledged blobs missing after recovery, summed over all seeds.
    /// The whole point of the journal: this is always zero.
    pub lost_acked: u64,
}

/// The full crash sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// One cell per disk model × crash point.
    pub rows: Vec<CrashCell>,
    /// Seeds swept per cell.
    pub seeds: u64,
}

/// A deterministic put/get/pin workload for one seed: `(key, kind)` pairs.
/// Capacity is unbounded and the workload never evicts, so after recovery
/// *every* acknowledged put must still be resident — loss accounting needs
/// no shadow eviction model. Content is a pure function of the key
/// (see [`content_for`]), so re-putting a key dedups instead of colliding.
fn workload(seed: u64) -> Vec<(u8, u8)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
    let mut ops = Vec::with_capacity(64);
    for _ in 0..64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ops.push(((state >> 8) as u8, (state % 8) as u8));
    }
    ops
}

/// The blob a workload key always maps to (64 B – ~2.4 KB).
fn content_for(key: u8) -> Bytes {
    Bytes::from(vec![key; 64 + usize::from(key) * 9])
}

/// Runs one seed of the workload against a journaled store that crashes at
/// a scripted write, recovers it, and returns
/// `(recovery_cost, replayed, discarded, lost_acked, crashed)`.
fn run_seed(
    model: DiskModel,
    point: CrashPoint,
    seed: u64,
) -> (Duration, u64, u64, u64, bool) {
    let media = JournalMedia::new();
    // Spread the scripted cut across the journal (each put batch is 2
    // journal writes, Put + Commit; pins add more) while staying low
    // enough that every seed actually reaches its crash write.
    let plan = CrashPlan::new(seed).crash_at_write(4 + seed.wrapping_mul(13) % 48, point);
    let mut store = DiskStore::with_journal(
        EvictionPolicy::Lru,
        None,
        model,
        1,
        media.clone(),
        plan,
    );
    let mut acked: HashMap<Fingerprint, Bytes> = HashMap::new();
    for (key, kind) in workload(seed) {
        let fingerprint = Fingerprint::of(&[key]);
        match kind {
            0..=4 => {
                let content = content_for(key);
                if store.put(fingerprint, content.clone()) {
                    acked.insert(fingerprint, content);
                }
            }
            5 | 6 => {
                store.get(fingerprint);
            }
            _ => store.pin(fingerprint),
        }
        if store.is_crashed() {
            break;
        }
    }
    let crashed = store.is_crashed();
    drop(store);
    let (mut recovered, report) =
        DiskStore::recover(EvictionPolicy::Lru, None, model, 1, media);
    let lost = acked
        .iter()
        .filter(|(fp, content)| recovered.peek(**fp).as_ref() != Some(content))
        .count() as u64;
    (
        recovered.drain_cost(),
        report.replayed_records,
        report.discarded_records,
        lost,
        crashed,
    )
}

/// Sweeps every disk model × crash point over [`CRASH_SEEDS`] seeds.
pub fn run() -> Crash {
    run_with_seeds(CRASH_SEEDS)
}

/// The sweep at an explicit seed count (the CI job uses this to scale up).
pub fn run_with_seeds(seeds: u64) -> Crash {
    let mut rows = Vec::new();
    for (disk, model) in disk_models() {
        for point in CrashPoint::ALL {
            let mut recovery = Duration::ZERO;
            let mut replayed = 0u64;
            let mut discarded = 0u64;
            let mut lost = 0u64;
            let mut crashes = 0u32;
            for seed in 0..seeds {
                let (cost, rep, disc, seed_lost, crashed) = run_seed(model, point, seed);
                recovery += cost;
                replayed += rep;
                discarded += disc;
                lost += seed_lost;
                crashes += u32::from(crashed);
            }
            let n = seeds.max(1) as u32;
            rows.push(CrashCell {
                disk,
                point: point.label(),
                crashes,
                mean_recovery: recovery / n,
                mean_replayed: replayed as f64 / f64::from(n),
                mean_discarded: discarded as f64 / f64::from(n),
                lost_acked: lost,
            });
        }
    }
    Crash { rows, seeds }
}

impl Crash {
    /// Acknowledged blobs lost across the entire sweep (always zero).
    pub fn total_lost(&self) -> u64 {
        self.rows.iter().map(|r| r.lost_acked).sum()
    }

    /// Flattens the sweep into metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut metrics = Vec::new();
        for row in &self.rows {
            let prefix = format!("{}/{}", row.disk, row.point);
            metrics.push(Metric::new(
                format!("{prefix}/recovery_secs"),
                row.mean_recovery.as_secs_f64(),
            ));
            metrics.push(Metric::new(format!("{prefix}/replayed_records"), row.mean_replayed));
            metrics.push(Metric::new(format!("{prefix}/lost_acked"), row.lost_acked as f64));
        }
        metrics.push(Metric::new("lost_acked_total", self.total_lost() as f64));
        metrics
    }

    /// The sweep's outcome. Every cell's `lost_acked` is invariantly zero —
    /// losing an acknowledged blob is never an acceptable trade for speed.
    /// A baseline pins the recovery times (the `*_secs` metrics; record
    /// counts are diagnostics).
    pub fn outcome(&self) -> Outcome {
        let metrics = self.metrics();
        let invariants = ceilings(&metrics, |m| m.key.ends_with("lost_acked").then_some(0.0));
        let recorded = pins(&metrics, |m| m.key.ends_with("_secs"));
        Outcome { metrics, invariants, recorded, ..Outcome::text(self) }
    }
}

impl fmt::Display for Crash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Crash sweep — journaled-store recovery by disk model and crash point")?;
        writeln!(
            f,
            "({} seeds per cell; scripted power cut per seed; lost = acked blobs missing)",
            self.seeds
        )?;
        writeln!(
            f,
            "{:<8}{:<10}{:>10}{:>14}{:>12}{:>12}{:>8}",
            "disk", "point", "crashes", "recovery", "replayed", "discarded", "lost"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8}{:<10}{:>10}{:>14}{:>12.1}{:>12.1}{:>8}",
                row.disk,
                row.point,
                format!("{}/{}", row.crashes, self.seeds),
                format!("{:.3}ms", row.mean_recovery.as_secs_f64() * 1e3),
                row.mean_replayed,
                row.mean_discarded,
                row.lost_acked,
            )?;
        }
        writeln!(f, "total acked blobs lost: {}", self.total_lost())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_acked_blob_is_ever_lost() {
        let sweep = run_with_seeds(CRASH_SEEDS);
        assert_eq!(sweep.total_lost(), 0, "an acknowledged put vanished: {sweep}");
        // Every cell actually crashed in every seed — the sweep is not
        // vacuously green.
        for row in &sweep.rows {
            assert_eq!(u64::from(row.crashes), sweep.seeds, "{}/{} never crashed", row.disk, row.point);
            assert!(row.mean_replayed > 0.0, "{}/{} replayed nothing", row.disk, row.point);
        }
    }
}
