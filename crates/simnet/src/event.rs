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
//!   dependence on heap internals or iteration order). A pre-scheduled
//!   crowd is one spaced batch, a start, a spacing and an id range, that
//!   makes each event as it pops; every other event waits in a binary
//!   heap. The events of the front batch that pop before every other
//!   queued event can also be taken as a range
//!   ([`EventQueue::leading_spaced`], [`EventQueue::skip_spaced`]), so a
//!   simulation walks them in its own loop instead of popping each one.
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
use std::ops::Range;
use std::time::Duration;

use crate::link::Link;

/// A deterministic priority queue of simulation events.
///
/// Events pop in ascending time order; events scheduled for the same
/// instant pop in the order they were pushed. Determinism is structural:
/// the key is `(time, push sequence)`, so two runs that push the same
/// events observe the same ordering regardless of where each entry waits.
///
/// Entries wait in one of two places. A [`EventQueue::push_spaced`] batch
/// is held as its start, spacing and id range, and makes each event as it
/// pops, so a million arrivals scheduled at once are one item that never
/// touches the heap. Every [`EventQueue::push`] goes to a binary heap,
/// which holds the events the simulation books as it goes. The batches
/// wait in key order, and a pop takes the smaller of the front batch's
/// next event and the heap's top.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The spaced batches, in key order: each one starts no earlier than
    /// the one before ends.
    spaced: VecDeque<Spaced<T>>,
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    /// Events the spaced batches hold.
    batched: usize,
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

/// Events `make(id)` for each of `ids`, `spacing` apart; `at` and `seq`
/// are the next one's key.
#[derive(Debug)]
struct Spaced<T> {
    at: Duration,
    seq: u64,
    spacing: Duration,
    ids: Range<u32>,
    make: fn(u32) -> T,
    /// The last event's time.
    last: Duration,
}

/// The leading events of an [`EventQueue`]'s front spaced batch, as
/// [`EventQueue::leading_spaced`] gives them: one per id of `ids`, the
/// first at `at` and each next one `spacing` later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeadingSpaced {
    /// The first event's time.
    pub at: Duration,
    /// The gap between consecutive events.
    pub spacing: Duration,
    /// The ids the events are made from, in pop order.
    pub ids: Range<u32>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { spaced: VecDeque::new(), heap: BinaryHeap::new(), seq: 0, batched: 0 }
    }

    /// Schedules `payload` to fire at simulated time `at`.
    #[inline]
    pub fn push(&mut self, at: Duration, payload: T) {
        self.heap.push(Reverse(Entry { at, seq: self.seq, payload }));
        self.seq += 1;
    }

    /// Schedules `make(id)` for each of `ids`, the first at `start` and
    /// each next one `spacing` later: the same sequence numbers and pop
    /// order as that many [`EventQueue::push`]es, held as one item that
    /// makes each event as it pops. When `start` is earlier than the last
    /// event of the batches already held, their events spill into the heap
    /// first, so the batches stay in key order. An event spills at most once
    /// and then stays in the heap, so spilling never costs more than pushing
    /// each event to the heap in the first place.
    ///
    /// # Panics
    ///
    /// Panics when the last event's time, `start + spacing × (ids.len() −
    /// 1)`, overflows `Duration`.
    pub fn push_spaced(
        &mut self,
        start: Duration,
        spacing: Duration,
        ids: Range<u32>,
        make: fn(u32) -> T,
    ) {
        let Some(rest) = ids.len().checked_sub(1) else { return };
        // `ids.len()` fits a `u32`, so `rest` does too.
        let Some(last) = spacing.checked_mul(rest as u32).and_then(|span| start.checked_add(span))
        else {
            panic!("a spaced batch's last event overflows Duration");
        };
        if self.spaced.back().is_some_and(|batch| start < batch.last) {
            self.spill_batches();
        }
        self.batched += ids.len();
        self.spaced.push_back(Spaced { at: start, seq: self.seq, spacing, ids, make, last });
        self.seq += 1 + rest as u64;
    }

    /// Moves every event of the batches into the heap.
    fn spill_batches(&mut self) {
        for Spaced { at, seq, spacing, ids, make, .. } in self.spaced.drain(..) {
            self.heap.extend((0u32..).zip(ids).map(|(k, id)| {
                Reverse(Entry { at: at + spacing * k, seq: seq + u64::from(k), payload: make(id) })
            }));
        }
        self.batched = 0;
    }

    /// Removes and returns the earliest event, ties broken by push order.
    #[inline]
    pub fn pop(&mut self) -> Option<(Duration, T)> {
        if let Some(batch) = self.spaced.front() {
            if self.heap.peek().is_none_or(|Reverse(top)| (batch.at, batch.seq) < (top.at, top.seq))
            {
                return self.pop_spaced();
            }
        }
        self.heap.pop().map(|Reverse(entry)| (entry.at, entry.payload))
    }

    /// The front spaced batch's leading events, those that pop before every
    /// other queued event, or `None` when the next event is not a batch's.
    /// Event `k` of the batch is `make(ids.start + k)` at `at + spacing ×
    /// k`. The count is found in O(1): the gap to the heap's top divided by
    /// the spacing, with a tie at the top's instant broken by sequence
    /// number.
    #[inline]
    pub fn leading_spaced(&self) -> Option<LeadingSpaced> {
        let batch = self.spaced.front()?;
        // A batch holds at most `u32::MAX` events.
        let len = batch.ids.len() as u64;
        let count = match self.heap.peek() {
            None => len,
            Some(Reverse(top)) => {
                // The batch's sequence numbers are consecutive, so the top
                // was pushed before all of its events or after all of them,
                // and wins a tie with any of them when pushed before.
                let after = top.seq > batch.seq;
                if (top.at, after) < (batch.at, true) {
                    return None;
                }
                let gap = (top.at - batch.at).as_nanos();
                match batch.spacing.as_nanos() {
                    0 => len,
                    // Events `0..whole` land before the top, and event
                    // `whole` leads when it lands earlier or wins the tie.
                    spacing => match u64::try_from(gap / spacing) {
                        Ok(whole) => whole.saturating_add(u64::from(gap % spacing > 0 || after)),
                        Err(_) => len,
                    },
                }
            }
        };
        let start = batch.ids.start;
        let end = start + count.min(len) as u32;
        Some(LeadingSpaced { at: batch.at, spacing: batch.spacing, ids: start..end })
    }

    /// Removes the first `n` events of the front spaced batch without
    /// making them, as `n` calls of [`EventQueue::pop`] would remove them
    /// when they lead: `len`, `is_empty` and `pushed` read the same
    /// afterwards. Only the events [`EventQueue::leading_spaced`] names may
    /// be skipped this way; skipping more breaks the pop order.
    ///
    /// # Panics
    ///
    /// Panics when the front batch holds fewer than `n` events, or there
    /// is none and `n > 0`.
    pub fn skip_spaced(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        let Some(batch) = self.spaced.front_mut() else {
            panic!("no spaced batch to skip events of");
        };
        assert!(n as usize <= batch.ids.len(), "skipped past the end of a spaced batch");
        batch.ids.start += n;
        if batch.ids.is_empty() {
            self.spaced.pop_front();
        } else {
            batch.at += batch.spacing * n;
            batch.seq += u64::from(n);
        }
        self.batched -= n as usize;
    }

    /// Makes the next event of the front spaced batch. Out of line, so that
    /// `pop` stays small enough to inline.
    #[inline(never)]
    fn pop_spaced(&mut self) -> Option<(Duration, T)> {
        let batch = self.spaced.front_mut()?;
        let (at, id) = (batch.at, batch.ids.start);
        batch.ids.start += 1;
        let event = (batch.make)(id);
        if batch.ids.is_empty() {
            self.spaced.pop_front();
        } else {
            batch.at += batch.spacing;
            batch.seq += 1;
        }
        self.batched -= 1;
        Some((at, event))
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.batched + self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.spaced.is_empty() && self.heap.is_empty()
    }

    /// Total events ever pushed (the event-count cost of the run so far).
    pub fn pushed(&self) -> u64 {
        self.seq
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
    fn an_earlier_batch_keeps_key_order_with_a_later_event() {
        // The rolling-update shape: an outage's "up" event is scheduled
        // before the crowd it outlasts.
        let mut queue = EventQueue::new();
        queue.push(Duration::from_secs(120), 100);
        queue.push_spaced(Duration::ZERO, Duration::from_secs(60), 0..3, |id| id);
        assert_eq!(queue.heap.len(), 1, "only the single event waits in the heap");
        assert_eq!(queue.spaced.len(), 1, "the batch is one item");
        assert_eq!(queue.len(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [0, 1, 100, 2], "a tie pops in push order across the two");
        assert_eq!(queue.pushed(), 4);
    }

    #[test]
    fn a_batch_spills_by_expanding_into_the_heap() {
        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::from_secs(1), Duration::from_secs(1), 10..13, |id| id);
        assert_eq!(queue.pop(), Some((Duration::from_secs(1), 10)));
        queue.push_spaced(Duration::ZERO, Duration::ZERO, 20..22, |id| id);
        assert_eq!(queue.heap.len(), 2, "the first batch's two unpopped events spilled");
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| queue.pop().map(|(at, p)| (at.as_secs(), p))).collect();
        assert_eq!(order, [(0, 20), (0, 21), (2, 11), (3, 12)]);
    }

    #[test]
    fn a_million_event_batch_is_one_item() {
        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::ZERO, Duration::from_micros(2), 0..1_000_000, |id| id);
        assert_eq!((queue.spaced.len(), queue.heap.len()), (1, 0));
        assert_eq!(queue.len(), 1_000_000);
        assert_eq!(queue.pushed(), 1_000_000);
        assert_eq!(queue.pop(), Some((Duration::ZERO, 0)));
        assert_eq!(queue.len(), 999_999);
    }

    #[test]
    fn an_empty_batch_pushes_nothing() {
        let mut queue = EventQueue::new();
        queue.push(Duration::from_secs(5), 7);
        queue.push_spaced(Duration::from_secs(1), Duration::from_secs(1), 0..3, |id| id);
        // It starts before the held batch ends, yet spills nothing.
        queue.push_spaced(Duration::ZERO, Duration::MAX, 3..3, |id| id);
        assert_eq!((queue.len(), queue.pushed()), (4, 4));
        assert_eq!((queue.spaced.len(), queue.heap.len()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "a spaced batch's last event overflows Duration")]
    fn a_batch_that_ends_past_the_last_duration_is_rejected_when_pushed() {
        EventQueue::new().push_spaced(Duration::MAX, Duration::from_nanos(1), 0..2, |id| id);
    }

    /// Pushes `payload` at `ms` milliseconds.
    fn push_ms(queue: &mut EventQueue<u32>, ms: u64, payload: u32) {
        queue.push(Duration::from_millis(ms), payload);
    }

    /// The leading ids of the front batch, if it leads.
    fn leading_ids(queue: &EventQueue<u32>) -> Option<Range<u32>> {
        queue.leading_spaced().map(|leading| leading.ids)
    }

    #[test]
    fn a_lone_batch_leads_with_every_event() {
        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::from_secs(1), Duration::from_secs(2), 5..9, |id| id);
        let leading = queue.leading_spaced();
        let (at, spacing) = (Duration::from_secs(1), Duration::from_secs(2));
        assert_eq!(leading, Some(LeadingSpaced { at, spacing, ids: 5..9 }));
    }

    #[test]
    fn a_batch_behind_the_heaps_top_does_not_lead() {
        let mut queue = EventQueue::new();
        push_ms(&mut queue, 1_000, 100);
        queue.push_spaced(Duration::from_secs(2), Duration::from_secs(1), 0..3, |id| id);
        assert_eq!(queue.heap.len(), 1, "the single event waits in the heap");
        assert_eq!(leading_ids(&queue), None);
        assert_eq!(queue.pop(), Some((Duration::from_secs(1), 100)));
        assert_eq!(leading_ids(&queue), Some(0..3));
    }

    /// With spacing 0 every event of the batch ties with a top at its
    /// instant: the top pushed before the batch pops first, the top pushed
    /// after it pops last.
    #[test]
    fn a_spacing_0_batch_at_the_tops_instant_leads_by_sequence_number() {
        let mut queue = EventQueue::new();
        push_ms(&mut queue, 5, 100);
        queue.push_spaced(Duration::from_millis(5), Duration::ZERO, 0..4, |id| id);
        assert_eq!(leading_ids(&queue), None, "the top's seq is below the batch's");
        assert_eq!(queue.pop(), Some((Duration::from_millis(5), 100)));
        assert_eq!(leading_ids(&queue), Some(0..4));

        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::from_millis(5), Duration::ZERO, 0..4, |id| id);
        push_ms(&mut queue, 10, 100);
        push_ms(&mut queue, 5, 101);
        assert_eq!(queue.heap.len(), 2, "both single events wait in the heap");
        assert_eq!(leading_ids(&queue), Some(0..4), "the top's seq is above the batch's");
        queue.skip_spaced(4);
        assert_eq!(queue.pop(), Some((Duration::from_millis(5), 101)));
    }

    /// A top exactly 3 spacings after the batch's first event ties with
    /// event 3, which leads only when it was pushed first.
    #[test]
    fn a_gap_of_whole_spacings_breaks_the_tie_by_sequence_number() {
        let secs = Duration::from_secs;
        let mut queue = EventQueue::new();
        push_ms(&mut queue, 3_000, 100);
        queue.push_spaced(Duration::ZERO, secs(1), 0..10, |id| id);
        assert_eq!(leading_ids(&queue), Some(0..3), "the top pushed first pops before event 3");

        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::ZERO, secs(1), 0..10, |id| id);
        push_ms(&mut queue, 3_000, 100);
        assert_eq!(leading_ids(&queue), Some(0..4), "event 3 pushed first pops before the top");

        // Half a spacing later, event 3 is earlier whatever the order.
        let mut queue = EventQueue::new();
        push_ms(&mut queue, 3_500, 100);
        queue.push_spaced(Duration::ZERO, secs(1), 0..10, |id| id);
        assert_eq!(leading_ids(&queue), Some(0..4));
    }

    #[test]
    fn skipping_a_whole_batch_removes_it() {
        let mut queue = EventQueue::new();
        push_ms(&mut queue, 60_000, 100);
        queue.push_spaced(Duration::ZERO, Duration::from_secs(1), 0..5, |id| id);
        assert_eq!(queue.pop(), Some((Duration::ZERO, 0)));
        assert_eq!(leading_ids(&queue), Some(1..5));
        queue.skip_spaced(2);
        assert_eq!(leading_ids(&queue), Some(3..5), "the skip moved the batch's key");
        assert_eq!((queue.len(), queue.pushed()), (3, 6));
        queue.skip_spaced(2);
        assert!(queue.spaced.is_empty(), "the exhausted batch is gone");
        assert_eq!((queue.len(), queue.is_empty(), queue.pushed()), (1, false, 6));
        assert_eq!(leading_ids(&queue), None);
        assert_eq!(queue.pop(), Some((Duration::from_secs(60), 100)));
        assert!(queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "skipped past the end of a spaced batch")]
    fn skipping_past_a_batchs_end_is_rejected() {
        let mut queue = EventQueue::new();
        queue.push_spaced(Duration::ZERO, Duration::from_secs(1), 0..2, |id| id);
        queue.skip_spaced(3);
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
            /// Start and spacing in milliseconds, and the event count.
            Spaced(u64, u64, u32),
            Pop,
            /// Skip this many of the front batch's leading events, at most.
            Skip(u32),
        }

        /// Times from a handful of milliseconds, so ties are common, and
        /// pushes and batches land before the held batches' last event and
        /// before the last pop.
        fn any_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..6u64).prop_map(Op::Push),
                (0..6u64, 0..3u64, 0..10u32)
                    .prop_map(|(start, spacing, count)| Op::Spaced(start, spacing, count)),
                Just(Op::Pop),
                (0..12u32).prop_map(Op::Skip),
            ]
        }

        /// The reference's events in pop order, as `(at, seq, payload)`.
        fn sorted(reference: &Reference<u32>) -> Vec<(Duration, u64, u32)> {
            let mut events: Vec<_> =
                reference.heap.iter().map(|Reverse(e)| (e.at, e.seq, e.payload)).collect();
            events.sort_unstable();
            events
        }

        proptest! {
            /// Any program of pushes, spaced batches, pops and skips of
            /// the front batch's leading events gives the same pop sequence
            /// as the all-heap queue, with the same `len`, `is_empty` and
            /// `pushed` after every step and when drained. The leading
            /// events are exactly the reference's next ones from the batch,
            /// and a skip removes what the reference pops.
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
                        Op::Spaced(start, spacing, count) => {
                            let (start, spacing) =
                                (Duration::from_millis(start), Duration::from_millis(spacing));
                            queue.push_spaced(start, spacing, label..label + count, |id| id);
                            for k in 0..count {
                                reference.push(start + spacing * k, label + k);
                            }
                            label += count;
                        }
                        Op::Pop => prop_assert_eq!(queue.pop(), reference.pop()),
                        Op::Skip(at_most) => {
                            // The front batch's event `j` as the reference
                            // holds it: `(at, seq, payload)`.
                            let front = queue.spaced.front();
                            let key = front.map(|b| (b.at, b.seq, b.spacing, b.ids.clone()));
                            let event = |j: u32| {
                                let (at, seq, spacing, ids) = key.clone()?;
                                let id = ids.start.checked_add(j).filter(|id| ids.contains(id))?;
                                Some((at + spacing * j, seq + u64::from(j), id))
                            };
                            // The leading events are exactly the
                            // reference's next ones that are the batch's.
                            let events = sorted(&reference);
                            let leads = (0u32..)
                                .take_while(|&j| {
                                    event(j).is_some_and(|e| events.get(j as usize) == Some(&e))
                                })
                                .count();
                            let leading = queue.leading_spaced();
                            let ids = leading.as_ref().map_or(0..0, |l| l.ids.clone());
                            prop_assert_eq!(leading.is_some(), leads > 0);
                            prop_assert_eq!(ids.len(), leads);
                            if let (Some(leading), Some((at, _, first))) = (&leading, event(0)) {
                                prop_assert_eq!((leading.at, ids.start), (at, first));
                                prop_assert_eq!(Some(leading.spacing), key.as_ref().map(|k| k.2));
                            }
                            let n = at_most.min(leads as u32);
                            queue.skip_spaced(n);
                            for j in 0..n {
                                let popped = reference.pop();
                                prop_assert_eq!(popped, event(j).map(|(at, _, id)| (at, id)));
                            }
                        }
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
