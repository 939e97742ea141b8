//! Property-based tests on the timing models' sanity invariants.

use std::time::Duration;

use gear_simnet::{Bandwidth, DiskModel, FaultInjector, FaultKind, FaultPlan, Link, RetryPolicy};
use proptest::prelude::*;

proptest! {
    /// Transfer time is monotone in bytes and inversely monotone in rate.
    #[test]
    fn transfer_monotonicity(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000, mbps in 1.0f64..10_000.0) {
        let bw = Bandwidth::mbps(mbps);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bw.transfer_time(lo) <= bw.transfer_time(hi));
        let faster = Bandwidth::mbps(mbps * 2.0);
        prop_assert!(faster.transfer_time(hi) <= bw.transfer_time(hi));
    }

    /// A request is never cheaper than its raw payload transfer.
    #[test]
    fn request_lower_bounds(bytes in 0u64..100_000_000, mbps in 1.0f64..1_000.0) {
        let link = Link::mbps(mbps);
        prop_assert!(link.request_time(bytes) >= link.bandwidth.transfer_time(bytes));
    }

    /// Disk I/O time decomposes additively over (bytes, files).
    #[test]
    fn disk_additivity(bytes in 0u64..1_000_000_000, files in 0u64..10_000) {
        let disk = DiskModel::hdd();
        let whole = disk.io_time(bytes, files);
        let parts = disk.io_time(bytes, 0) + disk.io_time(0, files);
        let delta = whole.abs_diff(parts);
        prop_assert!(delta < Duration::from_micros(5), "delta {delta:?}");
    }

    /// A fault plan's decisions are a pure function of (seed, request
    /// index): replays agree draw by draw, and `fault_at` predicts them.
    #[test]
    fn fault_plans_are_deterministic(
        seed in any::<u64>(),
        drop_p in 0.0f64..1.0,
        corrupt_p in 0.0f64..0.5,
        draws in 1usize..64,
    ) {
        let mut a = FaultPlan::new(seed).with_drop(drop_p).with_corrupt(corrupt_p);
        let mut b = FaultPlan::new(seed).with_drop(drop_p).with_corrupt(corrupt_p);
        for index in 0..draws {
            let predicted = a.fault_at(index as u64);
            prop_assert_eq!(a.next_fault(), b.next_fault());
            prop_assert_eq!(a.fault_at(index as u64), predicted, "fault_at must be pure");
        }
        prop_assert_eq!(a.injected(), b.injected());
    }

    /// Total simulated time over a request sequence is monotonically
    /// non-decreasing in the number of scripted faults: every injected
    /// fault costs time, never saves it.
    #[test]
    fn faulty_time_is_monotone_in_fault_count(
        requests in 1u64..32,
        payload in 1u64..1_000_000,
        kind in prop_oneof![
            Just(FaultKind::Drop),
            Just(FaultKind::Corrupt),
            Just(FaultKind::Truncate),
            (1u64..500).prop_map(|ms| FaultKind::Stall(Duration::from_millis(ms))),
        ],
    ) {
        let elapsed_with_faults = |faulted: u64| {
            let mut plan = FaultPlan::reliable();
            if faulted > 0 {
                plan = FaultPlan::new(0).fail_requests(0, faulted - 1, kind);
            }
            let mut faults = FaultInjector::default();
            faults.inject(plan, RetryPolicy::none());
            let nominal = Link::mbps(100.0).request_time(payload);
            let mut total = Duration::ZERO;
            for _ in 0..requests {
                total += match faults.attempt(nominal) {
                    Ok(extra) => nominal + extra,
                    Err(lost) => lost.total(nominal),
                };
            }
            total
        };
        let mut previous = elapsed_with_faults(0);
        for faulted in 1..=requests {
            let now = elapsed_with_faults(faulted);
            prop_assert!(
                now >= previous,
                "{faulted} faults took {now:?}, fewer took {previous:?}"
            );
            previous = now;
        }
    }
}
