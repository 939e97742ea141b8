//! Deterministic crash-point injection for durable stores.
//!
//! A [`CrashPlan`] mirrors [`FaultPlan`](crate::FaultPlan), but where a fault
//! plan decides the fate of *network requests*, a crash plan decides the fate
//! of *journal writes*: a store consulting the plan before each write-ahead
//! journal append learns whether the simulated machine loses power at that
//! write — and, if so, what the durable medium is left holding. Decisions are
//! a pure function of the plan's seed and the write index, so a crash
//! schedule replays exactly: same seed, same workload, same crash, same
//! recovered state.
//!
//! A plan fires **at most once** — a machine that lost power is dead until
//! the store is recovered from its journal, at which point the harness
//! attaches a fresh plan if it wants to crash again.

use gear_telemetry::Telemetry;

/// What the durable medium holds after the power cut, relative to the
/// journal write the crash interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power was lost before the write reached the medium: the record is
    /// entirely absent from the journal.
    BeforeWrite,
    /// Power was lost mid-write: a torn record — a prefix of the encoded
    /// bytes — sits at the journal tail and must be detected and discarded
    /// by replay.
    TornWrite,
    /// Power was lost just after the write was durable: the record is
    /// intact, but nothing after it (in particular no commit marker for an
    /// operation still in flight) ever reached the medium.
    AfterWrite,
}

impl CrashPoint {
    /// Every crash point, in replay-severity order.
    pub const ALL: [CrashPoint; 3] =
        [CrashPoint::BeforeWrite, CrashPoint::TornWrite, CrashPoint::AfterWrite];

    /// Short lowercase label (`"before"` / `"torn"` / `"after"`), used as
    /// metric key suffix and sweep-table row name.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::BeforeWrite => "before",
            CrashPoint::TornWrite => "torn",
            CrashPoint::AfterWrite => "after",
        }
    }
}

/// A scripted crash: the journal write with index `at` is interrupted at
/// `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScriptedCrash {
    at: u64,
    point: CrashPoint,
}

/// A seeded, deterministic source of per-journal-write crash decisions.
///
/// Probabilistic crashes draw from the same splitmix64 stream the
/// [`FaultPlan`](crate::FaultPlan) uses, keyed by `(seed, write index)`;
/// scripted crashes ([`CrashPlan::crash_at_write`]) override the random
/// draw. Either way the plan fires at most once.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    seed: u64,
    crash_p: f64,
    scripted: Vec<ScriptedCrash>,
    writes: u64,
    fired: Option<(u64, CrashPoint)>,
    /// Observation channel only — recording never changes crash decisions.
    telemetry: Telemetry,
}

/// Telemetry is an observation channel, not plan state: two plans are equal
/// when they crash the same writes, recorder or not.
impl PartialEq for CrashPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.crash_p == other.crash_p
            && self.scripted == other.scripted
            && self.writes == other.writes
            && self.fired == other.fired
    }
}

impl CrashPlan {
    /// A plan that never crashes (the crash-free default).
    pub fn never() -> Self {
        Self::default()
    }

    /// An empty plan with the given seed; add crashes with
    /// [`CrashPlan::with_crash`] or [`CrashPlan::crash_at_write`].
    pub fn new(seed: u64) -> Self {
        CrashPlan { seed, ..Self::default() }
    }

    /// Sets the per-journal-write probability of a power cut. Which
    /// [`CrashPoint`] the cut hits is drawn from the same stream, uniformly
    /// over the three points.
    pub fn with_crash(mut self, probability: f64) -> Self {
        self.crash_p = probability.clamp(0.0, 1.0);
        self
    }

    /// Scripts a deterministic power cut at journal write `at` (0-based,
    /// counting every append the store attempts), interrupted at `point`.
    pub fn crash_at_write(mut self, at: u64, point: CrashPoint) -> Self {
        self.scripted.push(ScriptedCrash { at, point });
        self
    }

    /// Reports the (single) injected crash to `telemetry`: an instant event
    /// plus `simnet.crashes` / `simnet.crashes.<point>` counters.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Decides the fate of the next journal write, advancing the write
    /// counter. Returns `None` once the plan has fired: the machine is
    /// already dead, later writes never happen.
    pub fn next_write(&mut self) -> Option<CrashPoint> {
        if self.fired.is_some() {
            return None;
        }
        let index = self.writes;
        self.writes += 1;
        let point = self.decision_at(index)?;
        self.fired = Some((index, point));
        if self.telemetry.enabled() {
            self.telemetry.count("simnet.crashes", 1);
            self.telemetry.count(
                match point {
                    CrashPoint::BeforeWrite => "simnet.crashes.before",
                    CrashPoint::TornWrite => "simnet.crashes.torn",
                    CrashPoint::AfterWrite => "simnet.crashes.after",
                },
                1,
            );
            self.telemetry.instant("simnet", "crash");
        }
        Some(point)
    }

    /// The decision for journal write `index` without advancing any state
    /// (and ignoring whether the plan already fired).
    pub fn decision_at(&self, index: u64) -> Option<CrashPoint> {
        for s in &self.scripted {
            if s.at == index {
                return Some(s.point);
            }
        }
        let unit = crate::fault::unit_draw(self.seed, index);
        if unit < self.crash_p {
            // A second draw (offset stream) picks the crash point uniformly.
            let which = crate::fault::unit_draw(self.seed ^ 0x0063_7261_7368_u64, index);
            let idx = ((which * 3.0) as usize).min(2);
            return Some(CrashPoint::ALL[idx]);
        }
        None
    }

    /// Journal writes decided so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The crash this plan injected, as `(write index, point)`; `None`
    /// while the machine is still up.
    pub fn fired(&self) -> Option<(u64, CrashPoint)> {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_plan_never_crashes() {
        let mut plan = CrashPlan::never();
        assert!((0..200).all(|_| plan.next_write().is_none()));
        assert_eq!(plan.writes(), 200);
        assert_eq!(plan.fired(), None);
    }

    #[test]
    fn same_seed_same_crash() {
        let mut a = CrashPlan::new(7).with_crash(0.05);
        let mut b = CrashPlan::new(7).with_crash(0.05);
        let fate_a: Vec<_> = (0..400).map(|_| a.next_write()).collect();
        let fate_b: Vec<_> = (0..400).map(|_| b.next_write()).collect();
        assert_eq!(fate_a, fate_b);
        assert_eq!(a.fired(), b.fired());
        assert!(a.fired().is_some(), "p=0.05 over 400 writes fires with this seed");
    }

    #[test]
    fn fires_at_most_once() {
        let mut plan = CrashPlan::new(1).with_crash(1.0);
        assert!(plan.next_write().is_some(), "certain crash fires immediately");
        assert!((0..50).all(|_| plan.next_write().is_none()), "dead machines stay dead");
        assert_eq!(plan.fired().map(|(at, _)| at), Some(0));
    }

    #[test]
    fn scripted_crash_fires_exactly_at_index() {
        let mut plan = CrashPlan::new(0).crash_at_write(3, CrashPoint::TornWrite);
        for i in 0..3u64 {
            assert_eq!(plan.next_write(), None, "write {i}");
        }
        assert_eq!(plan.next_write(), Some(CrashPoint::TornWrite));
        assert_eq!(plan.fired(), Some((3, CrashPoint::TornWrite)));
    }

    #[test]
    fn decision_at_is_pure_and_covers_all_points() {
        let plan = CrashPlan::new(99).with_crash(0.5);
        let first: Vec<_> = (0..256).map(|i| plan.decision_at(i)).collect();
        let second: Vec<_> = (0..256).map(|i| plan.decision_at(i)).collect();
        assert_eq!(first, second);
        for point in CrashPoint::ALL {
            assert!(
                first.contains(&Some(point)),
                "p=0.5 over 256 draws must hit {point:?}"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CrashPoint::BeforeWrite.label(), "before");
        assert_eq!(CrashPoint::TornWrite.label(), "torn");
        assert_eq!(CrashPoint::AfterWrite.label(), "after");
    }
}
