//! Multi-stream transfer scheduling over a shared [`Link`].
//!
//! A [`Link`] prices one request at a time; real clients keep several
//! transfers in flight. This module computes how long a *batch* of requests
//! takes when up to `streams` of them run concurrently:
//!
//! * every request starts with a latency phase of `fixed` simulated time
//!   (RTT + per-request overhead, possibly amplified by the caller) that
//!   overlaps freely with everything else;
//! * transferring requests share the link's bandwidth **fairly** — with
//!   `k` payloads moving, each progresses at `bandwidth / k`;
//! * at most `max_buffered_bytes` of *undelivered* payload may be admitted:
//!   requests are started in order, delivered in order, and a request whose
//!   payload would overflow the window waits until the in-order delivery
//!   frontier drains (the bounded-memory pulling discipline — a consumer
//!   that unpacks files in order can never be forced to buffer more than
//!   the window).
//!
//! The schedule is a deterministic discrete-event simulation: charge = the
//! completion time of the *last* request, not the sum of all of them. With
//! `streams = 1` the schedule degenerates to exact sequential
//! [`Link::request_time`] arithmetic (same `Duration` sums, bit-for-bit),
//! which is what keeps single-stream experiments reproducible against
//! historical numbers.

use std::time::Duration;

use crate::link::Link;

/// How a batch of transfers may overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Concurrent requests kept in flight (`1` = strictly sequential).
    pub streams: usize,
    /// Bound on undelivered payload bytes (in flight or completed but
    /// blocked behind the in-order delivery frontier). A single payload
    /// larger than the window is still admitted — alone — so progress is
    /// always possible; the effective bound is
    /// `max(max_buffered_bytes, largest single payload)`.
    pub max_buffered_bytes: u64,
}

impl StreamConfig {
    /// Sequential transfers, unbounded window — the historical behaviour.
    pub fn sequential() -> Self {
        StreamConfig { streams: 1, max_buffered_bytes: u64::MAX }
    }

    /// `streams` concurrent transfers, unbounded window.
    pub fn concurrent(streams: usize) -> Self {
        StreamConfig { streams: streams.max(1), max_buffered_bytes: u64::MAX }
    }

    /// Caps the undelivered-bytes window.
    pub fn with_window(mut self, max_buffered_bytes: u64) -> Self {
        self.max_buffered_bytes = max_buffered_bytes;
        self
    }
}

/// The computed schedule of one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSchedule {
    /// Completion time of the whole batch (max over per-request completion
    /// times — the virtual-clock charge).
    pub duration: Duration,
    /// Per-request completion offsets, in submission order.
    pub completions: Vec<Duration>,
    /// Most requests simultaneously in flight at any instant.
    pub peak_in_flight: usize,
    /// Most undelivered payload bytes held at any instant.
    pub peak_buffered_bytes: u64,
    /// Requests whose start was delayed by the window (not by streams).
    pub window_stalls: u64,
}

impl StreamSchedule {
    fn empty() -> Self {
        StreamSchedule {
            duration: Duration::ZERO,
            completions: Vec::new(),
            peak_in_flight: 0,
            peak_buffered_bytes: 0,
            window_stalls: 0,
        }
    }

    /// Reports this schedule to `telemetry`: a complete `simnet/transfer`
    /// span starting at the recorder's sim-time cursor and lasting the batch
    /// duration, plus wire-level counters (`simnet.wire_bytes`,
    /// `simnet.transfers`, `simnet.window_stalls`), the
    /// `simnet.peak_buffered_bytes` high-water gauge, and one
    /// `simnet.transfer_bytes` sketch observation per payload. The cursor
    /// is not advanced — the caller owns pricing.
    pub fn record(&self, telemetry: &gear_telemetry::Telemetry, payloads: &[u64]) {
        if !telemetry.enabled() || payloads.is_empty() {
            return;
        }
        let wire_bytes: u64 = payloads.iter().sum();
        let span = telemetry.span_at("simnet", "transfer", telemetry.now(), self.duration);
        telemetry.span_arg(span, "bytes", wire_bytes);
        telemetry.span_arg(span, "transfers", payloads.len() as u64);
        telemetry.count("simnet.wire_bytes", wire_bytes);
        telemetry.count("simnet.transfers", payloads.len() as u64);
        telemetry.count("simnet.window_stalls", self.window_stalls);
        telemetry.gauge_max("simnet.peak_buffered_bytes", self.peak_buffered_bytes);
        telemetry.sketch("simnet.transfer_nanos", self.duration.as_nanos() as u64);
        for &payload in payloads {
            telemetry.sketch("simnet.transfer_bytes", payload);
        }
    }
}

/// One in-flight request inside the event loop.
struct InFlight {
    index: usize,
    /// Remaining latency seconds before the payload starts moving.
    latency_left: f64,
    /// Remaining payload bits.
    bits_left: f64,
}

impl Link {
    /// Schedules `payloads` (bytes, in submission order) over this link with
    /// `fixed` per-request latency and the given concurrency/window policy;
    /// see the module docs for the model.
    pub fn stream_schedule(
        &self,
        fixed: Duration,
        payloads: &[u64],
        config: StreamConfig,
    ) -> StreamSchedule {
        if payloads.is_empty() {
            return StreamSchedule::empty();
        }
        if config.streams <= 1 {
            return self.sequential_schedule(fixed, payloads, config.max_buffered_bytes);
        }
        self.concurrent_schedule(fixed, payloads, config)
    }

    /// Exact sequential arithmetic: the same per-request `Duration` values a
    /// caller charging `fixed + transfer_time(bytes)` one by one would sum.
    ///
    /// Runs on the event-driven [`crate::FifoLane`] core: a lone client
    /// booking back-to-back transfers onto a FIFO lane performs the exact
    /// same integer additions (`start + fixed + transfer_time`), so the
    /// schedule stays bit-identical to the historical eager sums.
    fn sequential_schedule(
        &self,
        fixed: Duration,
        payloads: &[u64],
        window: u64,
    ) -> StreamSchedule {
        let mut lane = crate::event::FifoLane::new(*self);
        let mut completions = Vec::with_capacity(payloads.len());
        let mut peak = 0u64;
        for &bytes in payloads {
            completions.push(lane.transfer_with_fixed(Duration::ZERO, fixed, bytes).done);
            peak = peak.max(bytes);
        }
        StreamSchedule {
            duration: lane.busy_until(),
            completions,
            peak_in_flight: 1,
            // Sequential delivery drains each payload before the next
            // starts; the window can only ever hold one payload.
            peak_buffered_bytes: peak.min(window.max(peak)),
            window_stalls: 0,
        }
    }

    fn concurrent_schedule(
        &self,
        fixed: Duration,
        payloads: &[u64],
        config: StreamConfig,
    ) -> StreamSchedule {
        let n = payloads.len();
        let fixed_s = fixed.as_secs_f64();
        let bits_per_sec = self.bandwidth.bits_per_sec().max(f64::MIN_POSITIVE);

        let mut now = 0.0f64;
        let mut next = 0usize; // next request to admit
        let mut active: Vec<InFlight> = Vec::with_capacity(config.streams);
        let mut done = vec![false; n];
        let mut completions_s = vec![0.0f64; n];
        let mut delivered = 0usize; // in-order delivery frontier
        let mut buffered: u64 = 0; // undelivered payload bytes admitted
        let mut peak_in_flight = 0usize;
        let mut peak_buffered = 0u64;
        let mut window_stalls = 0u64;
        let mut stall_counted = vec![false; n];

        loop {
            // Admit requests while a stream is free and the window allows.
            while next < n && active.len() < config.streams {
                let bytes = payloads[next];
                let fits =
                    buffered == 0 || buffered.saturating_add(bytes) <= config.max_buffered_bytes;
                if !fits {
                    if !stall_counted[next] {
                        stall_counted[next] = true;
                        window_stalls += 1;
                    }
                    break;
                }
                buffered += bytes;
                peak_buffered = peak_buffered.max(buffered);
                active.push(InFlight {
                    index: next,
                    latency_left: fixed_s,
                    bits_left: bytes as f64 * 8.0,
                });
                next += 1;
            }
            if active.is_empty() {
                break; // all admitted requests finished; window can't block here
            }
            peak_in_flight = peak_in_flight.max(active.len());

            // Next event: a latency phase expiring or a transfer draining at
            // the fair-share rate.
            let transferring = active.iter().filter(|r| r.latency_left <= 0.0).count();
            let rate = if transferring > 0 { bits_per_sec / transferring as f64 } else { 0.0 };
            let mut dt = f64::INFINITY;
            for request in &active {
                let eta = if request.latency_left > 0.0 {
                    request.latency_left
                } else if rate > 0.0 {
                    request.bits_left / rate
                } else {
                    f64::INFINITY
                };
                dt = dt.min(eta);
            }
            debug_assert!(dt.is_finite(), "stream schedule must always progress");
            now += dt;

            // Advance every request by dt and retire the finished ones.
            let mut index = 0;
            while index < active.len() {
                let request = &mut active[index];
                if request.latency_left > 0.0 {
                    request.latency_left -= dt;
                    if request.latency_left <= 1e-12 {
                        request.latency_left = 0.0;
                    }
                } else {
                    request.bits_left -= rate * dt;
                }
                if request.latency_left <= 0.0 && request.bits_left <= 1e-6 {
                    done[request.index] = true;
                    completions_s[request.index] = now;
                    active.swap_remove(index);
                } else {
                    index += 1;
                }
            }

            // Drain the in-order delivery frontier.
            while delivered < n && done[delivered] {
                buffered -= payloads[delivered];
                delivered += 1;
            }
        }

        let completions: Vec<Duration> =
            completions_s.iter().map(|&s| Duration::from_secs_f64(s)).collect();
        StreamSchedule {
            duration: Duration::from_secs_f64(now),
            completions,
            peak_in_flight,
            peak_buffered_bytes: peak_buffered,
            window_stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::mbps(80.0) // 10 MB/s
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let schedule =
            link().stream_schedule(Duration::from_millis(5), &[], StreamConfig::concurrent(4));
        assert_eq!(schedule.duration, Duration::ZERO);
        assert!(schedule.completions.is_empty());
    }

    #[test]
    fn sequential_matches_request_time_sums_exactly() {
        let link = link();
        let fixed = link.rtt + link.request_overhead;
        let payloads = [10_000u64, 250_000, 999, 0, 1_000_000];
        let schedule = link.stream_schedule(fixed, &payloads, StreamConfig::sequential());
        let mut expected = Duration::ZERO;
        for &bytes in &payloads {
            expected += link.request_time(bytes);
        }
        assert_eq!(schedule.duration, expected, "bit-for-bit sequential sums");
        assert_eq!(schedule.completions.len(), payloads.len());
        assert_eq!(*schedule.completions.last().unwrap(), expected);
        assert_eq!(schedule.peak_in_flight, 1);
    }

    #[test]
    fn more_streams_never_slower() {
        let link = link();
        let fixed = Duration::from_millis(8);
        let payloads: Vec<u64> = (0..40).map(|i| 20_000 + i * 1_000).collect();
        let mut previous =
            link.stream_schedule(fixed, &payloads, StreamConfig::sequential()).duration;
        for streams in [2usize, 4, 8, 16] {
            let t =
                link.stream_schedule(fixed, &payloads, StreamConfig::concurrent(streams)).duration;
            assert!(
                t <= previous,
                "{streams} streams took {t:?}, slower than fewer streams ({previous:?})"
            );
            previous = t;
        }
    }

    #[test]
    fn latency_overlap_saves_roughly_the_fixed_costs() {
        // 20 equal payloads with a fat fixed cost: 4 streams should cut the
        // serial fixed component by close to 4x while payload time is shared.
        let link = link();
        let fixed = Duration::from_millis(50);
        let payloads = [10_000u64; 20];
        let serial = link.stream_schedule(fixed, &payloads, StreamConfig::sequential());
        let wide = link.stream_schedule(fixed, &payloads, StreamConfig::concurrent(4));
        let payload_floor = link.bandwidth.transfer_time(payloads.iter().sum());
        assert!(wide.duration >= payload_floor, "cannot beat the shared link");
        assert!(
            wide.duration < serial.duration.mul_f64(0.5),
            "4 streams over latency-dominated work must at least halve the time: \
             {:?} !< {:?}/2",
            wide.duration,
            serial.duration
        );
    }

    #[test]
    fn fair_share_serializes_payload_bytes() {
        // Two large payloads over two streams: total time is bounded below
        // by total bits / bandwidth — concurrency overlaps latency, never
        // multiplies bandwidth.
        let link = link();
        let payloads = [2_000_000u64, 2_000_000];
        let schedule = link.stream_schedule(
            Duration::from_micros(100),
            &payloads,
            StreamConfig::concurrent(2),
        );
        let floor = link.bandwidth.transfer_time(4_000_000);
        assert!(schedule.duration >= floor);
        assert!(schedule.duration < floor + Duration::from_millis(5));
    }

    #[test]
    fn window_bounds_undelivered_bytes() {
        let link = link();
        let payloads = [30_000u64; 12];
        let config = StreamConfig::concurrent(8).with_window(70_000);
        let schedule = link.stream_schedule(Duration::from_millis(2), &payloads, config);
        assert!(
            schedule.peak_buffered_bytes <= 70_000,
            "window violated: {} > 70000",
            schedule.peak_buffered_bytes
        );
        assert!(schedule.window_stalls > 0, "a tight window must throttle admission");
        // The same batch with an unbounded window buffers more and is no slower.
        let open =
            link.stream_schedule(Duration::from_millis(2), &payloads, StreamConfig::concurrent(8));
        assert!(open.peak_buffered_bytes > schedule.peak_buffered_bytes);
        assert!(open.duration <= schedule.duration);
    }

    #[test]
    fn oversized_payload_is_admitted_alone() {
        let link = link();
        let payloads = [10_000u64, 500_000, 10_000];
        let config = StreamConfig::concurrent(4).with_window(50_000);
        let schedule = link.stream_schedule(Duration::from_millis(1), &payloads, config);
        assert_eq!(schedule.completions.len(), 3, "no payload may starve");
        // The oversized payload is the only resident while it moves.
        assert!(schedule.peak_buffered_bytes >= 500_000);
    }

    #[test]
    fn completion_offsets_are_consistent() {
        let link = link();
        let payloads = [40_000u64, 10_000, 25_000, 5_000];
        let schedule =
            link.stream_schedule(Duration::from_millis(3), &payloads, StreamConfig::concurrent(2));
        let max = schedule.completions.iter().max().copied().unwrap();
        assert_eq!(schedule.duration, max, "charge = max completion, not sum");
        assert!(schedule.peak_in_flight <= 2);
    }
}
