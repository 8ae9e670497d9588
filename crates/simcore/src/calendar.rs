//! Arena-backed event heap — the simulator's hot-path queue.
//!
//! The module keeps the discrete-event-simulation name for the list of
//! pending future events, the event calendar; the data structure behind
//! it is a heap, not a bucketed calendar queue.
//!
//! A binary min-heap of compact `Copy` keys `(at, seq, slot)`; the event
//! payloads live in a slot arena (`Vec<Option<E>>` plus a free list) and
//! never move while pending, so a sift shuffles 24-byte keys, not
//! payloads. The heap's root is the minimum, so a peek and
//! [`EventQueue::pop_before`] — the question a loop that merges a second
//! event source asks on every step — cost O(1).
//!
//! Keys order by `(at, seq)`, a *unique* total order (seq is a monotone
//! insertion counter), so the pop sequence is identical, event for event,
//! to that of the test-only reference queue in [`crate::event`], one
//! binary heap of whole events.
//!
//! The pending set stays small — a handful to a few dozen events in every
//! serving loop — so an O(log n) sift over a few cache lines is cheaper
//! than any bucketed scheme built for thousands of pending timers.

use crate::event::ScheduledEvent;
use crate::time::{SimDuration, SimTime};

/// Compact pending-event key: everything ordering needs, payload elsewhere.
/// The derived order is `(at, seq)`; `slot` never decides, since no two
/// keys share a `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

/// A deterministic priority queue of future events.
///
/// Pops in the exact order of the reference queue in [`crate::event`],
/// with the same API and the same panics; see the module docs for the
/// layout. The queue also tracks the simulation clock:
/// [`EventQueue::pop`] advances `now` to the popped event's timestamp, and
/// scheduling an event in the past is rejected (it would make the simulation
/// non-causal).
///
/// # Examples
///
/// ```
/// use e3_simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// q.schedule_after(SimDuration::from_millis(1), "also-early");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "also-early");
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Payload arena; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Min-heap of the pending keys, one per occupied slot.
    heap: Vec<Key>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a simulation bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event arena overflow");
                self.slots.push(Some(event));
                s
            }
        };
        self.heap.push(Key {
            at: at.as_nanos(),
            seq,
            slot,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Moves the key at `i` up until its parent precedes it.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] < key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    /// Moves the key at `i` down until it precedes its children.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if key < self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = key;
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Moves the clock to `to` without popping an event. Lets a loop
    /// that serves events from outside the queue (a sorted arrival
    /// backlog) keep one clock with the queue.
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the clock, or a pending event is
    /// scheduled before `to` — the advance would silently skip it.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.now,
            "advance into the past: to={to} now={}",
            self.now
        );
        if let Some(at) = self.peek_time() {
            assert!(
                at >= to,
                "advance past a pending event: pending at={at}, advancing to {to}"
            );
        }
        self.now = to;
    }

    /// Reserves the next `n` sequence numbers for events a caller keeps
    /// outside the queue, and returns the first. Events scheduled later
    /// number after them, so a reserved `(at, seq)` orders against the
    /// queue exactly as if it had been scheduled now.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Pops the earliest event if it orders before `(at, seq)`, else
    /// leaves the queue untouched and returns `None`. The merge step of a
    /// loop holding events outside the queue under reserved sequence
    /// numbers ([`EventQueue::reserve_seqs`]).
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<ScheduledEvent<E>> {
        let m = self.heap.first()?;
        if (m.at, m.seq) < (at.as_nanos(), seq) {
            self.pop()
        } else {
            None
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let last = self.heap.pop()?;
        let key = match self.heap.first_mut() {
            Some(root) => {
                let key = std::mem::replace(root, last);
                self.sift_down(0);
                key
            }
            None => last,
        };
        let event = self.slots[key.slot as usize]
            .take()
            .expect("pending key points at an empty arena slot");
        self.free.push(key.slot);
        debug_assert!(
            key.at >= self.now.as_nanos(),
            "event queue went back in time"
        );
        self.now = SimTime::from_nanos(key.at);
        self.processed += 1;
        Some(ScheduledEvent {
            at: self.now,
            seq: key.seq,
            event,
        })
    }

    /// Timestamp of the next pending event, if any, without popping it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| SimTime::from_nanos(k.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReferenceQueue;
    use proptest::prop_assert;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_timestamps_interleaved_with_pops_stay_fifo() {
        // FIFO-within-timestamp must survive heap growth and sifts, not
        // just a single burst: schedule bursts at repeated instants and
        // check global (at, seq) order.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        let mut tag = 0u32;
        for wave in 0..20u64 {
            let t = SimTime::from_micros(wave * 7);
            for _ in 0..wave + 1 {
                q.schedule(t, tag);
                expect.push((t.as_nanos(), tag));
                tag += 1;
            }
        }
        let mut got: Vec<(u64, u32)> = Vec::new();
        while let Some(ev) = q.pop() {
            got.push((ev.at.as_nanos(), ev.event));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), "b");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(15));
        assert_eq!(ev.event, "b");
    }

    #[test]
    fn far_future_sentinels_coexist_with_dense_traffic() {
        // A handful of timers seconds out (plus a MAX sentinel) amid
        // dense sub-microsecond events: the far events must wait until
        // the dense prefix drains.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, u32::MAX);
        q.schedule(SimTime::from_secs_f64(30.0), 1_000_001);
        for i in 0..500u32 {
            q.schedule(SimTime::from_nanos(u64::from(i) * 800), i);
        }
        for i in 0..500u32 {
            assert_eq!(q.pop().unwrap().event, i);
        }
        assert_eq!(q.pop().unwrap().event, 1_000_001);
        assert_eq!(q.pop().unwrap().event, u32::MAX);
        assert!(q.pop().is_none());
    }

    #[test]
    fn earlier_schedule_after_peek_pops_first() {
        // A schedule after a peek may target an earlier time than the
        // peeked minimum; it becomes the new minimum.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(5.0), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        q.schedule(SimTime::from_millis(1), "near");
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.pop().unwrap().event, "far");
    }

    #[test]
    fn pop_before_orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule(t, "a"); // seq 0
        let first = q.reserve_seqs(3); // seqs 1..=3 held outside
        assert_eq!(first, 1);
        q.schedule(t, "b"); // seq 4: after every reserved number
                            // An outside event at an earlier time goes first.
        assert!(q.pop_before(SimTime::from_millis(1), first).is_none());
        // At the same time, seq decides: "a" precedes reserved seq 1...
        assert_eq!(q.pop_before(t, first).unwrap().event, "a");
        // ...and reserved seq 3 precedes "b".
        assert!(q.pop_before(t, first + 2).is_none());
        assert_eq!(q.len(), 1);
        // A later outside event lets "b" go.
        assert_eq!(
            q.pop_before(SimTime::from_millis(3), first).unwrap().event,
            "b"
        );
        assert!(q.pop_before(SimTime::MAX, u64::MAX).is_none());
    }

    #[test]
    fn advance_to_moves_the_clock_up_to_the_next_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(4), ());
        q.advance_to(SimTime::from_millis(4));
        assert_eq!(q.now(), SimTime::from_millis(4));
        assert_eq!(q.processed(), 0);
        assert!(q.pop().is_some());
    }

    #[test]
    #[should_panic(expected = "advance past a pending event")]
    fn advance_to_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.advance_to(SimTime::from_millis(2));
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.schedule(SimTime::from_micros(round * 10 + i), round * 8 + i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // Steady-state churn must not grow the arena past the high-water
        // mark of concurrently pending events.
        assert!(q.slots.len() <= 8);
    }

    /// What the queue must hold after every operation: no key precedes
    /// its heap parent, every key points at an occupied slot of its own,
    /// and every other slot is empty and on the free list.
    fn assert_invariants<E>(q: &EventQueue<E>) {
        for (i, k) in q.heap.iter().enumerate().skip(1) {
            assert!(q.heap[(i - 1) / 2] < *k, "key {i} precedes its parent");
        }
        let mut keyed = vec![false; q.slots.len()];
        for k in &q.heap {
            let slot = k.slot as usize;
            assert!(q.slots[slot].is_some(), "a key points at an empty slot");
            assert!(
                !std::mem::replace(&mut keyed[slot], true),
                "two keys share a slot"
            );
        }
        for &slot in &q.free {
            assert!(q.slots[slot as usize].is_none() && !keyed[slot as usize]);
        }
        assert_eq!(q.heap.len() + q.free.len(), q.slots.len());
    }

    /// The observable state both queues must agree on.
    macro_rules! state {
        ($q:expr) => {
            ($q.len(), $q.peek_time(), $q.now(), $q.processed())
        };
    }

    fn popped(ev: Option<ScheduledEvent<u32>>) -> Option<(SimTime, u64, u32)> {
        ev.map(|e| (e.at, e.seq, e.event))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random operation sequences, each word decoded into one
        /// operation applied to both queues: schedules at `now` plus a
        /// delay on a coarse grid (many equal timestamps), far-future
        /// timers and `SimTime::MAX` sentinels; pops; `pop_before`
        /// against reserved sequence numbers; and `advance_to` the next
        /// pending time. Every pop must return the same
        /// `(at, seq, payload)`, and length, next time, clock and pop
        /// count must agree after every operation.
        #[test]
        fn heap_replays_reference_queue(
            words in proptest::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            use proptest::prop_assert_eq;

            let mut q = EventQueue::new();
            let mut r = ReferenceQueue::new();
            let mut reserved = None;
            for (tag, w) in (0u32..).zip(words) {
                let arg = w >> 8;
                match w % 16 {
                    0..=6 => {
                        let delay = match arg % 8 {
                            0 => 0,
                            1..=5 => (arg >> 3) % 8 * 250,
                            6 => 1_000_000_000 + (arg >> 3) % 60_000_000_000,
                            _ => u64::MAX,
                        };
                        let at = SimTime::from_nanos(q.now().as_nanos().saturating_add(delay));
                        q.schedule(at, tag);
                        r.schedule(at, tag);
                    }
                    12 | 13 => {
                        // Half the time against a fresh reservation, else
                        // against an older one that events scheduled
                        // since then number after.
                        if arg % 2 == 0 || reserved.is_none() {
                            let n = (arg >> 1) % 4 + 1;
                            let first = q.reserve_seqs(n);
                            prop_assert_eq!(first, r.reserve_seqs(n));
                            reserved = Some((first, n));
                        }
                        let (first, n) = reserved.expect("reserved above");
                        let at = SimTime::from_nanos(
                            q.now().as_nanos().saturating_add((arg >> 3) % 8 * 250),
                        );
                        let seq = first + (arg >> 6) % n;
                        prop_assert_eq!(
                            popped(q.pop_before(at, seq)),
                            popped(r.pop_before(at, seq))
                        );
                    }
                    14 | 15 if arg % 8 != 0 => {
                        if let Some(at) = q.peek_time() {
                            q.advance_to(at);
                            r.advance_to(at);
                        }
                    }
                    _ => prop_assert_eq!(popped(q.pop()), popped(r.pop())),
                }
                assert_invariants(&q);
                prop_assert_eq!(state!(q), state!(r));
            }
            while !q.is_empty() {
                prop_assert_eq!(popped(q.pop()), popped(r.pop()));
                assert_invariants(&q);
            }
            prop_assert!(r.is_empty());
        }
    }
}
