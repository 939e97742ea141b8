//! Event-driven scheduling core for fleet-scale simulations.
//!
//! The historical simnet pricing model charges whole transfers eagerly: a
//! caller asks a [`Link`] what a batch costs and advances its clock by the
//! answer. That is exact and fast for one client, but a fleet run with tens
//! of thousands of concurrent clients would pay O(clients × polling) to
//! interleave them. This module supplies the two primitives that make the
//! cost O(events) instead:
//!
//! * [`EventQueue`] — a priority queue keyed on simulated time with a
//!   monotonically increasing sequence number breaking ties in push order,
//!   so the processing order is a pure function of the pushes (no
//!   dependence on heap internals or iteration order). Events pushed in
//!   time order — a pre-scheduled crowd — wait in a sorted run and pop in
//!   O(1); only the rest pay for the binary heap beside it.
//! * [`FifoLane`] — a shared link serving transfers strictly in arrival
//!   order. Each transfer starts at `max(now, lane.busy_until)` and runs
//!   for `fixed + bandwidth.transfer_time(bytes)` of exact integer
//!   [`Duration`] arithmetic — the same sums the sequential scheduler has
//!   always produced, so single-stream schedules stay bit-identical.
//!
//! A driver owns one queue plus one lane per contended resource (a site
//! uplink, a registry shard's egress, a LAN segment), pops events in time
//! order, and books transfers onto lanes as they arise. Every completion
//! time is derived from exact `Duration` additions; there is no floating
//! point anywhere on this path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use crate::link::Link;

/// A deterministic priority queue of simulation events.
///
/// Events pop in ascending time order; events scheduled for the same
/// instant pop in the order they were pushed. Determinism is structural:
/// the key is `(time, push sequence)`, so two runs that push the same
/// events observe the same ordering regardless of where each entry waits.
///
/// Entries wait in one of two places. A push no earlier than the newest
/// entry of the *run* appends to it; its sequence number is the largest
/// yet, so the run stays sorted by key and its front pops in O(1). Every
/// other push goes to a binary heap, and a pop takes the smaller of the
/// run's front and the heap's top. A million arrivals scheduled in time
/// order before the run starts thus never touch the heap, which holds only
/// the events the simulation books as it goes.
#[derive(Debug)]
pub struct EventQueue<T> {
    run: VecDeque<Entry<T>>,
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: Duration,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { run: VecDeque::new(), heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `payload` to fire at simulated time `at`.
    pub fn push(&mut self, at: Duration, payload: T) {
        let entry = Entry { at, seq: self.seq, payload };
        self.seq += 1;
        if self.appends(at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Whether an entry at `at` pushed now keeps the run sorted.
    fn appends(&self, at: Duration) -> bool {
        self.run.back().is_none_or(|last| at >= last.at)
    }

    /// Removes and returns the earliest event, ties broken by push order.
    pub fn pop(&mut self) -> Option<(Duration, T)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(front), Some(Reverse(top))) => front < top,
            (front, _) => front.is_some(),
        };
        let entry =
            if from_run { self.run.pop_front() } else { self.heap.pop().map(|Reverse(e)| e) };
        entry.map(|entry| (entry.at, entry.payload))
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Total events ever pushed (the event-count cost of the run so far).
    pub fn pushed(&self) -> u64 {
        self.seq
    }
}

/// Pushes a batch in order, as that many [`EventQueue::push`]es would —
/// same sequence numbers, same pop order — but a batch in time order lands
/// in the run even when the run holds a later event. Before a batch whose
/// first event would not append, the run spills into the heap, so the
/// batch starts a fresh one. An entry spills at most once and then stays
/// in the heap, so spilling never costs more than pushing each entry to
/// the heap in the first place would have.
impl<T> Extend<(Duration, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (Duration, T)>>(&mut self, batch: I) {
        let mut batch = batch.into_iter().peekable();
        if batch.peek().is_some_and(|&(at, _)| !self.appends(at)) {
            self.heap.extend(self.run.drain(..).map(Reverse));
        }
        for (at, payload) in batch {
            self.push(at, payload);
        }
    }
}

/// One booked transfer on a [`FifoLane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSlot {
    /// When the transfer actually started (after any queueing delay).
    pub start: Duration,
    /// When the last byte was delivered.
    pub done: Duration,
}

impl LaneSlot {
    /// How long the transfer waited behind earlier traffic.
    pub fn queued(&self, requested_at: Duration) -> Duration {
        self.start.saturating_sub(requested_at)
    }
}

/// A shared link serving transfers strictly in arrival order.
///
/// The lane replaces eager whole-transfer pricing: instead of each client
/// charging the full link cost to a private clock, concurrent clients book
/// transfers onto the shared lane and observe queueing delay when it is
/// busy. All arithmetic is exact integer [`Duration`] addition — for a
/// single client the booked completion times are bit-identical to the
/// historical `fixed + transfer_time(bytes)` sums.
#[derive(Debug, Clone)]
pub struct FifoLane {
    link: Link,
    busy_until: Duration,
    transfers: u64,
    bytes: u64,
    busy: Duration,
    queued: Duration,
}

impl FifoLane {
    /// An idle lane over `link`.
    pub fn new(link: Link) -> Self {
        FifoLane {
            link,
            busy_until: Duration::ZERO,
            transfers: 0,
            bytes: 0,
            busy: Duration::ZERO,
            queued: Duration::ZERO,
        }
    }

    /// The underlying link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// When the lane next falls idle.
    pub fn busy_until(&self) -> Duration {
        self.busy_until
    }

    /// Transfers booked so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Payload bytes booked so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total service time booked (utilization numerator).
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Total time transfers spent queued behind earlier traffic.
    pub fn queued_time(&self) -> Duration {
        self.queued
    }

    /// Books a transfer of `bytes` requested at `now`, paying the link's
    /// own RTT + request overhead as the fixed phase.
    pub fn transfer(&mut self, now: Duration, bytes: u64) -> LaneSlot {
        self.transfer_with_fixed(now, self.link.rtt + self.link.request_overhead, bytes)
    }

    /// Books a transfer of `bytes` requested at `now` with an explicit
    /// per-request fixed phase (caller-amplified RTT/overhead).
    ///
    /// Service time is `fixed + bandwidth.transfer_time(bytes)` — the exact
    /// integer sum the sequential scheduler charges — starting at
    /// `max(now, busy_until)`.
    pub fn transfer_with_fixed(&mut self, now: Duration, fixed: Duration, bytes: u64) -> LaneSlot {
        let start = self.busy_until.max(now);
        let service = fixed + self.link.bandwidth.transfer_time(bytes);
        let done = start + service;
        self.busy_until = done;
        self.transfers += 1;
        self.bytes += bytes;
        self.busy += service;
        self.queued += start.saturating_sub(now);
        LaneSlot { start, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut queue = EventQueue::new();
        queue.push(Duration::from_millis(30), "c");
        queue.push(Duration::from_millis(10), "a");
        queue.push(Duration::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_push_order() {
        let mut queue = EventQueue::new();
        for label in 0..100u32 {
            queue.push(Duration::from_millis(5), label);
        }
        let order: Vec<u32> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "same-time events keep push order");
    }

    #[test]
    fn interleaved_pushes_stay_deterministic() {
        // Push/pop interleaving must not disturb the (time, seq) order.
        let mut queue = EventQueue::new();
        queue.push(Duration::from_millis(10), 0u32);
        queue.push(Duration::from_millis(10), 1);
        assert_eq!(queue.pop().map(|(_, p)| p), Some(0));
        queue.push(Duration::from_millis(10), 2);
        queue.push(Duration::from_millis(5), 3);
        assert_eq!(queue.pop().map(|(_, p)| p), Some(3));
        assert_eq!(queue.pop().map(|(_, p)| p), Some(1));
        assert_eq!(queue.pop().map(|(_, p)| p), Some(2));
        assert_eq!(queue.pushed(), 4);
    }

    #[test]
    fn an_earlier_batch_spills_the_run_and_keeps_key_order() {
        // The rolling-update shape: an outage's "up" event is scheduled
        // before the crowd it outlasts.
        let mut queue = EventQueue::new();
        queue.push(Duration::from_secs(120), "up");
        queue.extend([
            (Duration::ZERO, "a"),
            (Duration::from_secs(1), "b"),
            (Duration::from_secs(120), "c"),
        ]);
        assert_eq!(queue.heap.len(), 1, "only the spilled event waits in the heap");
        assert_eq!(queue.run.len(), 3, "the batch is a run of its own");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "up", "c"], "a tie pops in push order across the two");
        assert_eq!(queue.pushed(), 4);
    }

    mod matches_reference {
        use super::*;
        use proptest::prelude::*;

        /// `EventQueue` as it stood before the run, word for word: every
        /// entry in one binary heap keyed `(at, seq)`.
        struct Reference<T> {
            heap: BinaryHeap<Reverse<Entry<T>>>,
            seq: u64,
        }

        impl<T> Reference<T> {
            fn push(&mut self, at: Duration, payload: T) {
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Reverse(Entry { at, seq, payload }));
            }

            fn pop(&mut self) -> Option<(Duration, T)> {
                self.heap.pop().map(|Reverse(entry)| (entry.at, entry.payload))
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Push(u64),
            Extend(Vec<u64>),
            Pop,
        }

        /// Times from a handful of milliseconds, so ties are common and
        /// pushes land before the last pop; batches in time order or not.
        fn any_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..6u64).prop_map(Op::Push),
                (proptest::collection::vec(0..6u64, 0..10), any::<bool>()).prop_map(
                    |(mut times, sorted)| {
                        if sorted {
                            times.sort_unstable();
                        }
                        Op::Extend(times)
                    }
                ),
                Just(Op::Pop),
            ]
        }

        proptest! {
            /// Any program of pushes, batches and pops gives the same pop
            /// sequence as the all-heap queue, with the same `len`,
            /// `is_empty` and `pushed` after every step and when drained.
            #[test]
            fn after_every_step(program in proptest::collection::vec(any_op(), 0..60)) {
                let mut queue = EventQueue::new();
                let mut reference = Reference { heap: BinaryHeap::new(), seq: 0 };
                let mut label = 0u32;
                for op in program {
                    match op {
                        Op::Push(ms) => {
                            queue.push(Duration::from_millis(ms), label);
                            reference.push(Duration::from_millis(ms), label);
                            label += 1;
                        }
                        Op::Extend(times) => {
                            let batch: Vec<(Duration, u32)> = times
                                .into_iter()
                                .map(|ms| {
                                    label += 1;
                                    (Duration::from_millis(ms), label)
                                })
                                .collect();
                            queue.extend(batch.iter().copied());
                            for (at, payload) in batch {
                                reference.push(at, payload);
                            }
                        }
                        Op::Pop => prop_assert_eq!(queue.pop(), reference.pop()),
                    }
                    prop_assert_eq!(queue.len(), reference.heap.len());
                    prop_assert_eq!(queue.is_empty(), reference.heap.is_empty());
                    prop_assert_eq!(queue.pushed(), reference.seq);
                }
                while !reference.heap.is_empty() {
                    prop_assert_eq!(queue.pop(), reference.pop());
                }
                prop_assert_eq!(queue.pop(), None);
            }
        }
    }

    #[test]
    fn lane_matches_sequential_request_time_sums_exactly() {
        // The fleet lane and the historical sequential scheduler must be
        // the same integer arithmetic, bit for bit.
        let link = Link::mbps(80.0);
        let payloads = [10_000u64, 250_000, 999, 0, 1_000_000];
        let mut lane = FifoLane::new(link);
        let mut expected = Duration::ZERO;
        for &bytes in &payloads {
            let slot = lane.transfer(Duration::ZERO, bytes);
            expected += link.request_time(bytes);
            assert_eq!(slot.done, expected, "bit-for-bit sequential sums");
        }
        assert_eq!(lane.transfers(), payloads.len() as u64);
    }

    #[test]
    fn lane_queues_concurrent_arrivals_in_fifo_order() {
        let mut lane = FifoLane::new(Link::mbps(80.0));
        let first = lane.transfer(Duration::ZERO, 1_000_000);
        let second = lane.transfer(Duration::ZERO, 1_000_000);
        assert_eq!(second.start, first.done, "second waits for the lane");
        assert!(second.queued(Duration::ZERO) >= Duration::from_millis(100));
        assert_eq!(lane.queued_time(), second.queued(Duration::ZERO));
    }

    #[test]
    fn idle_lane_starts_immediately() {
        let mut lane = FifoLane::new(Link::mbps(80.0));
        lane.transfer(Duration::ZERO, 10_000);
        let late = lane.transfer(Duration::from_secs(5), 10_000);
        assert_eq!(late.start, Duration::from_secs(5), "idle lane serves on arrival");
        assert_eq!(late.queued(Duration::from_secs(5)), Duration::ZERO);
    }

    #[test]
    fn lane_accounts_bytes_and_busy_time() {
        let link = Link::mbps(80.0);
        let mut lane = FifoLane::new(link);
        lane.transfer(Duration::ZERO, 40_000);
        lane.transfer(Duration::ZERO, 60_000);
        assert_eq!(lane.bytes(), 100_000);
        assert_eq!(lane.busy_time(), link.request_time(40_000) + link.request_time(60_000));
        assert_eq!(lane.busy_until(), lane.busy_time(), "back-to-back service");
    }
}
