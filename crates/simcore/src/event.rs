//! Scheduled events, and the reference queue the event heap is checked
//! against.
//!
//! A simulation is a loop that pops the earliest scheduled event, advances
//! the clock to its timestamp, and handles it (possibly scheduling more
//! events). Correctness of the reproduction demands *stable* ordering:
//! events scheduled for the same instant must pop in the order they were
//! scheduled, otherwise runs would not be reproducible. Every queue
//! guarantees this with a monotonically increasing sequence number.
//!
//! A test-only reference queue, a binary heap of whole events, is the
//! *specification*: obviously correct, one comparison path, no tuning
//! knobs. The simulator runs on the compact-key heap over a payload
//! arena ([`crate::calendar::EventQueue`]), which must pop the exact same
//! `(at, seq)` sequence; a differential test replays random operation
//! sequences on both queues to prove it.

#[cfg(test)]
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event of user-defined payload type `E` scheduled at a point in
/// simulated time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order, used to break ties deterministically.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

// The reference heap's order: `BinaryHeap` is a max-heap, so invert
// `(at, seq)` and the earliest (and, on ties, first-scheduled) event pops
// first.
#[cfg(test)]
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
#[cfg(test)]
impl<E> Eq for ScheduledEvent<E> {}
#[cfg(test)]
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
#[cfg(test)]
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference priority queue of future events: the specification
/// [`crate::calendar::EventQueue`] is tested against, with the same API,
/// the same panics and the same pop order.
///
/// The queue also tracks the simulation clock: `pop` advances `now` to
/// the popped event's timestamp, and scheduling an event in the past is
/// rejected (it would make the simulation non-causal).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ReferenceQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

#[cfg(test)]
impl<E> ReferenceQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
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
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Moves the clock to `to` without popping an event.
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the clock, or a pending event is
    /// scheduled before `to`.
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

    /// Reserves the next `n` sequence numbers for events kept outside the
    /// queue, and returns the first.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went back in time");
        self.now = ev.at;
        self.processed += 1;
        Some(ev)
    }

    /// Pops the earliest event if it orders before `(at, seq)`; otherwise
    /// returns `None` and leaves the queue untouched.
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<ScheduledEvent<E>> {
        let e = self.heap.peek()?;
        if (e.at, e.seq) < (at, seq) {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the next pending event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = ReferenceQueue::new();
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
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), "b");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(15));
        assert_eq!(ev.event, "b");
    }

    #[test]
    fn advance_moves_clock_without_popping() {
        let mut q: ReferenceQueue<()> = ReferenceQueue::new();
        q.advance_to(SimTime::from_millis(4));
        assert_eq!(q.now(), SimTime::from_millis(4));
        assert_eq!(q.processed(), 0);
        q.schedule(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(10)); // exactly onto the event: ok
        assert_eq!(q.now(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "advance past a pending event")]
    fn advance_past_pending_event_panics() {
        let mut q: ReferenceQueue<()> = ReferenceQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.advance_to(SimTime::from_millis(2));
    }

    #[test]
    fn pop_before_orders_by_time_then_seq() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule(t, "a"); // seq 0
        let first = q.reserve_seqs(3); // seqs 1..=3 held outside
        assert_eq!(first, 1);
        q.schedule(t, "b"); // seq 4
        assert!(q.pop_before(SimTime::from_millis(1), first).is_none());
        assert_eq!(q.pop_before(t, first).unwrap().event, "a");
        assert!(q.pop_before(t, first + 2).is_none());
        let b = q.pop_before(SimTime::from_millis(3), first).unwrap();
        assert_eq!((b.event, b.seq), ("b", 4));
        assert!(q.pop_before(SimTime::MAX, u64::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "advance into the past")]
    fn advance_to_into_the_past_panics() {
        let mut q: ReferenceQueue<()> = ReferenceQueue::new();
        q.advance_to(SimTime::from_millis(2));
        q.advance_to(SimTime::from_millis(1));
    }
}
