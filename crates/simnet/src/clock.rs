//! Shared virtual clock.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A monotonically advancing simulated clock, cheaply cloneable and shared
/// between the components that charge time to it.
///
/// ```
/// use gear_simnet::VirtualClock;
/// use std::time::Duration;
///
/// let clock = VirtualClock::new();
/// let view = clock.clone(); // same underlying time
/// clock.advance(Duration::from_millis(250));
/// assert_eq!(view.elapsed(), Duration::from_millis(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<Mutex<u128>>,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update is one whole-number store, so a poisoned lock still
    /// guards a valid time.
    fn nanos(&self) -> MutexGuard<'_, u128> {
        self.nanos.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances simulated time by `d`.
    pub fn advance(&self, d: Duration) {
        *self.nanos() += d.as_nanos();
    }

    /// Time elapsed since the clock was created (or last [`reset`]).
    ///
    /// [`reset`]: VirtualClock::reset
    pub fn elapsed(&self) -> Duration {
        nanos_to_duration(*self.nanos())
    }

    /// Resets the clock to zero.
    pub fn reset(&self) {
        *self.nanos() = 0;
    }

    /// Runs `f` and returns how much simulated time it consumed along with
    /// its result.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (Duration, T) {
        let before = *self.nanos();
        let out = f();
        let after = *self.nanos();
        (nanos_to_duration(after - before), out)
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    let secs = (nanos / 1_000_000_000) as u64;
    let sub = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_shares() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        b.advance(Duration::from_millis(500));
        assert_eq!(a.elapsed(), Duration::from_millis(1500));
    }

    #[test]
    fn measure_reports_delta() {
        let clock = VirtualClock::new();
        clock.advance(Duration::from_secs(10));
        let (took, val) = clock.measure(|| {
            clock.advance(Duration::from_millis(42));
            7
        });
        assert_eq!(took, Duration::from_millis(42));
        assert_eq!(val, 7);
        assert_eq!(clock.elapsed(), Duration::from_millis(10_042));
    }

    #[test]
    fn reset_zeroes() {
        let clock = VirtualClock::new();
        clock.advance(Duration::from_secs(3));
        clock.reset();
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    #[test]
    fn large_accumulation_does_not_overflow() {
        let clock = VirtualClock::new();
        for _ in 0..1000 {
            clock.advance(Duration::from_secs(1_000_000));
        }
        assert_eq!(clock.elapsed().as_secs(), 1_000_000_000);
    }
}
