//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] decides, per request, whether the simulated link misbehaves
//! and how: the response is dropped, stalled, bit-flipped, or truncated.
//! Decisions are a pure function of the plan's seed and the request index, so
//! a run is exactly reproducible — same seed, same faults, same simulated
//! timings. [`RetryPolicy`] describes how a client spends its retry budget
//! (attempts, per-attempt timeout, exponential backoff with seeded jitter)
//! and [`FaultInjector`] prices a request's failed attempts in simulated
//! time.

use std::time::Duration;

use gear_telemetry::Telemetry;

/// How one request misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The response never arrives; the caller waits its timeout for nothing.
    Drop,
    /// The response arrives, but only after the extra delay.
    Stall(Duration),
    /// The response arrives on time with flipped payload bits.
    Corrupt,
    /// The response arrives on time but cut short.
    Truncate,
}

impl FaultKind {
    /// Short lowercase label (`"drop"`, `"stall"`, ...), used as the metric
    /// key suffix and trace event name for injected faults.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Stall(_) => "stall",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
        }
    }
}

/// A scripted fault: every request whose index falls in `from..=to` fails
/// with `kind`, regardless of the random probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scripted {
    from: u64,
    to: u64,
    kind: FaultKind,
}

/// A seeded, deterministic source of per-request fault decisions.
///
/// Probabilistic faults draw from a splitmix64 stream keyed by
/// `(seed, request index)`, so the decision for request *n* does not depend
/// on how many requests preceded it in real time — replaying the same
/// request sequence replays the same faults. Scripted schedules
/// ([`FaultPlan::fail_requests`]) override the random draw.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    corrupt_p: f64,
    truncate_p: f64,
    stall_p: f64,
    stall: Duration,
    scripted: Vec<Scripted>,
    requests: u64,
    injected: u64,
    /// Where injected faults are reported (disabled by default; recording
    /// never changes fault decisions, so plans with and without a recorder
    /// behave identically).
    telemetry: Telemetry,
}

/// Telemetry is an observation channel, not plan state: two plans are equal
/// when they inject the same faults, recorder or not.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.drop_p == other.drop_p
            && self.corrupt_p == other.corrupt_p
            && self.truncate_p == other.truncate_p
            && self.stall_p == other.stall_p
            && self.stall == other.stall
            && self.scripted == other.scripted
            && self.requests == other.requests
            && self.injected == other.injected
    }
}

impl FaultPlan {
    /// A plan that never injects a fault.
    pub fn reliable() -> Self {
        Self::default()
    }

    /// An empty plan with the given seed; add faults with the `with_*`
    /// builders or [`FaultPlan::fail_requests`].
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Self::default() }
    }

    /// Sets the per-request probability of a dropped response.
    pub fn with_drop(mut self, probability: f64) -> Self {
        self.drop_p = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-request probability of a corrupted response.
    pub fn with_corrupt(mut self, probability: f64) -> Self {
        self.corrupt_p = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-request probability of a truncated response.
    pub fn with_truncate(mut self, probability: f64) -> Self {
        self.truncate_p = probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-request probability of a stalled response and the extra
    /// delay a stall adds.
    pub fn with_stall(mut self, probability: f64, delay: Duration) -> Self {
        self.stall_p = probability.clamp(0.0, 1.0);
        self.stall = delay;
        self
    }

    /// Scripts a deterministic failure window: every request with index in
    /// `from..=to` (0-based, counting every attempt) fails with `kind`.
    pub fn fail_requests(mut self, from: u64, to: u64, kind: FaultKind) -> Self {
        self.scripted.push(Scripted { from, to, kind });
        self
    }

    /// Reports every injected fault to `telemetry` (an instant event plus
    /// `simnet.faults` / `simnet.faults.<kind>` counters), stamped at the
    /// recorder's sim-time cursor.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Decides the fate of the next request, advancing the request counter.
    pub fn next_fault(&mut self) -> Option<FaultKind> {
        let index = self.requests;
        self.requests += 1;
        let fault = self.fault_at(index);
        if let Some(kind) = fault {
            self.injected += 1;
            if self.telemetry.enabled() {
                let (key, event) = match kind {
                    FaultKind::Drop => ("simnet.faults.drop", "fault.drop"),
                    FaultKind::Stall(_) => ("simnet.faults.stall", "fault.stall"),
                    FaultKind::Corrupt => ("simnet.faults.corrupt", "fault.corrupt"),
                    FaultKind::Truncate => ("simnet.faults.truncate", "fault.truncate"),
                };
                self.telemetry.count("simnet.faults", 1);
                self.telemetry.count(key, 1);
                self.telemetry.instant("simnet", event);
            }
        }
        fault
    }

    /// The decision for request `index` without advancing any state.
    pub fn fault_at(&self, index: u64) -> Option<FaultKind> {
        for s in &self.scripted {
            if (s.from..=s.to).contains(&index) {
                return Some(s.kind);
            }
        }
        let unit = unit_draw(self.seed, index);
        let mut threshold = self.drop_p;
        if unit < threshold {
            return Some(FaultKind::Drop);
        }
        threshold += self.stall_p;
        if unit < threshold {
            return Some(FaultKind::Stall(self.stall));
        }
        threshold += self.corrupt_p;
        if unit < threshold {
            return Some(FaultKind::Corrupt);
        }
        threshold += self.truncate_p;
        if unit < threshold {
            return Some(FaultKind::Truncate);
        }
        None
    }

    /// Requests decided so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// How a client spends its retry budget: attempt count, per-attempt timeout
/// (in simulated time), and exponential backoff with seeded jitter. All
/// waiting is charged as simulated time, never to wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Per-attempt budget in simulated time; an attempt exceeding it counts
    /// as failed and is charged exactly this long.
    pub timeout: Duration,
    /// Backoff before the second attempt; doubles every further attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff (before jitter).
    pub max_backoff: Duration,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A single attempt, no retries: faults surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            timeout: Duration::from_secs(30),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Four attempts, 2 s per-attempt timeout, 50 ms base backoff capped at
    /// 1 s — a typical client default.
    pub fn standard(jitter_seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout: Duration::from_secs(2),
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            jitter_seed,
        }
    }

    /// The backoff charged before attempt number `attempt` (1-based; attempt
    /// 0 is the first try and waits nothing): exponential in the attempt
    /// number, capped, plus up to 50 % seeded jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.max_backoff.max(self.base_backoff));
        let jitter = capped.mul_f64(0.5 * unit_draw(self.jitter_seed, attempt as u64));
        capped + jitter
    }
}

/// What the fault plan made of a request, decomposed so a caller can price
/// the two parts differently: `delay` only blocks the requester, while each
/// of the `transfers` occupies the wire for the request's nominal time (and
/// may overlap other requests in a multi-stream schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCharge {
    /// Time blocked outside the wire: drop timeouts, over-budget stalls,
    /// in-budget stall extras, and retry backoffs.
    pub delay: Duration,
    /// Times the payload crossed the wire: the delivered attempt plus every
    /// corrupted or truncated one that failed verification afterwards.
    pub transfers: u32,
}

impl RequestCharge {
    /// The charge of a request no fault touched.
    pub const CLEAN: RequestCharge = RequestCharge { delay: Duration::ZERO, transfers: 1 };

    /// The serial price: every transfer back to back, plus the delay.
    pub fn total(&self, nominal: Duration) -> Duration {
        self.delay + nominal * self.transfers
    }
}

/// A request consumed every attempt its [`RetryPolicy`] allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Attempts the policy allowed (all consumed).
    pub attempts: u32,
}

/// One requester's fault-injection state — an optional [`FaultPlan`] with
/// the [`RetryPolicy`] spent against it — and the single place a faulty
/// request is decomposed into simulated time. Inactive (the default), every
/// request is [`RequestCharge::CLEAN`] and no plan is consulted.
#[derive(Debug, Default)]
pub struct FaultInjector {
    active: Option<(FaultPlan, RetryPolicy)>,
    retries: u64,
}

impl FaultInjector {
    /// Starts drawing every request from `plan`, retrying under `policy`;
    /// the retry counter restarts at zero.
    pub fn inject(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        *self = FaultInjector { active: Some((plan, policy)), retries: 0 };
    }

    /// Stops injecting faults.
    pub fn clear(&mut self) {
        *self = FaultInjector::default();
    }

    /// Points the active plan's fault reports at `telemetry`.
    pub fn set_recorder(&mut self, telemetry: Telemetry) {
        if let Some((plan, _)) = &mut self.active {
            plan.set_recorder(telemetry);
        }
    }

    /// Failed attempts since [`FaultInjector::inject`] (zero when inactive).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// One attempt at a transfer of clean duration `nominal` — all a caller
    /// that switches source instead of retrying spends. `Ok(extra)` delivers
    /// it `extra` late; `Err` is what losing it burnt: the timeout for a
    /// drop or over-budget stall, one wasted transfer for corruption or
    /// truncation.
    pub fn attempt(&mut self, nominal: Duration) -> Result<Duration, RequestCharge> {
        let Some((plan, policy)) = &mut self.active else {
            return Ok(Duration::ZERO);
        };
        let lost = match plan.next_fault() {
            None => return Ok(Duration::ZERO),
            // Late but within the per-attempt budget: delivered.
            Some(FaultKind::Stall(extra)) if nominal + extra <= policy.timeout => {
                return Ok(extra)
            }
            Some(FaultKind::Drop | FaultKind::Stall(_)) => {
                RequestCharge { delay: policy.timeout, transfers: 0 }
            }
            Some(FaultKind::Corrupt | FaultKind::Truncate) => {
                RequestCharge { delay: Duration::ZERO, transfers: 1 }
            }
        };
        self.retries += 1;
        Err(lost)
    }

    /// One request of clean duration `nominal` under the full retry budget,
    /// with backoff before every retry.
    ///
    /// # Errors
    ///
    /// [`BudgetExhausted`] when every allowed attempt failed.
    pub fn request(&mut self, nominal: Duration) -> Result<RequestCharge, BudgetExhausted> {
        let Some((_, policy)) = self.active else {
            return Ok(RequestCharge::CLEAN);
        };
        let attempts = policy.max_attempts.max(1);
        let mut charge = RequestCharge { delay: Duration::ZERO, transfers: 0 };
        for attempt in 0..attempts {
            charge.delay += policy.backoff(attempt);
            match self.attempt(nominal) {
                Ok(extra) => {
                    charge.delay += extra;
                    charge.transfers += 1;
                    return Ok(charge);
                }
                Err(lost) => {
                    charge.delay += lost.delay;
                    charge.transfers += lost.transfers;
                }
            }
        }
        Err(BudgetExhausted { attempts })
    }
}

/// A uniform draw in `[0, 1)`, pure in `(seed, index)` (splitmix64).
/// Shared with [`CrashPlan`](crate::CrashPlan) so fault and crash schedules
/// stream from the same generator family.
pub(crate) fn unit_draw(seed: u64, index: u64) -> f64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53 significant bits → an exact double in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_faults() {
        let mut a = FaultPlan::new(7).with_drop(0.3).with_corrupt(0.2);
        let mut b = FaultPlan::new(7).with_drop(0.3).with_corrupt(0.2);
        let seq_a: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "p=0.5 over 200 draws must fault sometimes");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(1).with_drop(0.5);
        let mut b = FaultPlan::new(2).with_drop(0.5);
        let seq_a: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn reliable_plan_never_faults() {
        let mut plan = FaultPlan::reliable();
        assert!((0..100).all(|_| plan.next_fault().is_none()));
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.requests(), 100);
    }

    #[test]
    fn certain_drop_always_faults() {
        let mut plan = FaultPlan::new(9).with_drop(1.0);
        assert!((0..50).all(|_| plan.next_fault() == Some(FaultKind::Drop)));
    }

    #[test]
    fn scripted_window_fires_exactly() {
        let mut plan = FaultPlan::new(0).fail_requests(3, 7, FaultKind::Truncate);
        for i in 0..12u64 {
            let fault = plan.next_fault();
            if (3..=7).contains(&i) {
                assert_eq!(fault, Some(FaultKind::Truncate), "request {i}");
            } else {
                assert_eq!(fault, None, "request {i}");
            }
        }
        assert_eq!(plan.injected(), 5);
    }

    #[test]
    fn fault_at_is_pure() {
        let plan = FaultPlan::new(42).with_drop(0.4);
        let first: Vec<_> = (0..64).map(|i| plan.fault_at(i)).collect();
        let second: Vec<_> = (0..64).map(|i| plan.fault_at(i)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn injector_decomposes_a_faulty_request() {
        let nominal = Duration::from_millis(10);
        let stall = Duration::from_millis(300);
        let policy = RetryPolicy::standard(3);
        let mut faults = FaultInjector::default();
        assert_eq!(faults.request(nominal), Ok(RequestCharge::CLEAN), "inactive is clean");

        faults.inject(
            FaultPlan::new(0)
                .fail_requests(0, 0, FaultKind::Drop)
                .fail_requests(1, 1, FaultKind::Corrupt)
                .fail_requests(2, 2, FaultKind::Stall(stall)),
            policy,
        );
        // Drop (timeout), backoff, corrupt (wasted transfer), backoff,
        // in-budget stall (delivered late).
        let charge = faults.request(nominal).unwrap();
        assert_eq!(charge.transfers, 2);
        assert_eq!(charge.delay, policy.timeout + policy.backoff(1) + policy.backoff(2) + stall);
        assert_eq!(charge.total(nominal), charge.delay + nominal * 2);
        assert_eq!(faults.retries(), 2);
    }

    #[test]
    fn injector_exhausts_the_budget_and_counts_every_failure() {
        let mut faults = FaultInjector::default();
        faults.inject(FaultPlan::new(1).with_drop(1.0), RetryPolicy::standard(1));
        let timeout = RequestCharge { delay: Duration::from_secs(2), transfers: 0 };
        assert_eq!(faults.attempt(Duration::from_millis(1)), Err(timeout), "no retry");
        assert_eq!(
            faults.request(Duration::from_millis(1)),
            Err(BudgetExhausted { attempts: 4 })
        );
        assert_eq!(faults.retries(), 5);
        faults.clear();
        assert_eq!(faults.retries(), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy::standard(11);
        assert_eq!(policy.backoff(0), Duration::ZERO);
        let b1 = policy.backoff(1);
        let b2 = policy.backoff(2);
        assert!(b1 >= policy.base_backoff);
        assert!(b2 > b1, "exponential growth: {b1:?} !< {b2:?}");
        // Far attempts stay below cap + 50 % jitter.
        let far = policy.backoff(30);
        assert!(far <= policy.max_backoff.mul_f64(1.5));
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let a = RetryPolicy::standard(5);
        let b = RetryPolicy::standard(5);
        let c = RetryPolicy::standard(6);
        assert_eq!(a.backoff(3), b.backoff(3));
        assert_ne!(a.backoff(3), c.backoff(3), "different seed, different jitter");
    }
}
