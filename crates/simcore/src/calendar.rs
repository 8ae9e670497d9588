//! Arena-backed calendar event queue — the simulator's hot-path queue.
//!
//! A calendar queue (Brown 1988) hashes each pending event into a bucket by
//! timestamp: bucket index is the timestamp's *virtual day* (`at >> width`)
//! masked into a power-of-two bucket array. Popping scans forward from a
//! cursor one virtual day at a time, so with bucket width tuned to the mean
//! inter-event gap, both `schedule` and `pop` are O(1) amortized — no
//! per-operation heap sift, no comparison cascade.
//!
//! Two representation choices keep the per-event cost flat:
//!
//! * **Arena payloads.** Event payloads live in a slot arena
//!   (`Vec<Option<E>>` plus a free list) and are never moved while pending;
//!   buckets hold only compact `Copy` keys `(at, seq, slot)`. Rebalancing
//!   the calendar shuffles 20-byte keys, not payloads.
//! * **Exact total order.** Within the cursor's current day the minimum key
//!   is selected by `(at, seq)`, which is a *unique* total order (seq is a
//!   monotone insertion counter). The pop sequence is therefore identical,
//!   event for event, to the reference binary-heap queue
//!   ([`crate::event::ReferenceQueue`]) — the golden figure outputs do not
//!   move by a byte.
//!
//! The classic calendar-queue weakness — a sparse far future (fault timers
//! seconds out amid microsecond event traffic) — is handled by falling back
//! to a direct min-scan of all buckets after a fruitless full wrap, and by
//! re-estimating the bucket width from the pending-event gap distribution
//! whenever the calendar is resized.

use crate::event::ScheduledEvent;
use crate::time::{SimDuration, SimTime};

/// Compact pending-event key: everything ordering needs, payload elsewhere.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn precedes(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

const MIN_BUCKETS: usize = 16;

/// A deterministic priority queue of future events.
///
/// Drop-in replacement for the binary-heap [`crate::event::ReferenceQueue`]
/// with the same API, the same panics, and the exact same pop order; see the
/// module docs for the layout. The queue also tracks the simulation clock:
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
    /// Power-of-two bucket array of compact keys.
    buckets: Vec<Vec<Key>>,
    /// Bucket width is `1 << wshift` nanoseconds.
    wshift: u32,
    /// Cursor: the virtual day (`at >> wshift`) the next pop scans first.
    /// Invariant: no pending key has a smaller virtual day.
    cur_day: u64,
    len: usize,
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
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            // ~65 µs days until the first resize measures real gaps.
            wshift: 16,
            cur_day: 0,
            len: 0,
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
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    #[inline]
    fn day_of(&self, at: u64) -> u64 {
        at >> self.wshift
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
        let nanos = at.as_nanos();
        let day = self.day_of(nanos);
        let idx = (day & self.mask()) as usize;
        self.buckets[idx].push(Key {
            at: nanos,
            seq,
            slot,
        });
        self.len += 1;
        // A peek may have advanced the cursor past this day; pull it back so
        // the cursor invariant (no pending key below `cur_day`) holds.
        if day < self.cur_day {
            self.cur_day = day;
        }
        if self.len > 2 * self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Advances the clock by `d` without popping an event, returning the
    /// new time. Lets barrier-style drivers (lockstep waves with no event
    /// interleaving) share the queue's clock with event-driven code.
    ///
    /// # Panics
    ///
    /// Panics if a pending event is scheduled before the new time — the
    /// advance would silently skip it.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        let to = self.now + d;
        if let Some(at) = self.peek_time() {
            assert!(
                at >= to,
                "advance past a pending event: pending at={at}, advancing to {to}"
            );
        }
        self.now = to;
        to
    }

    /// Finds the minimum pending key without removing it. Does not commit
    /// the cursor — `pop` re-derives the day from the returned key.
    fn find_min(&self) -> Option<Key> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut day = self.cur_day;
        // Walk at most one full lap of the calendar, one day per bucket.
        for _ in 0..self.buckets.len() {
            let mut best: Option<Key> = None;
            for k in &self.buckets[(day & mask) as usize] {
                // Buckets mix laps; only keys of the cursor's day count.
                if self.day_of(k.at) == day && best.is_none_or(|b| k.precedes(&b)) {
                    best = Some(*k);
                }
            }
            if best.is_some() {
                return best;
            }
            day = match day.checked_add(1) {
                Some(d) => d,
                None => break,
            };
        }
        // Sparse far future: nothing within a lap of the cursor. Direct
        // min-scan over every pending key (still exact, just not O(1)).
        let mut best: Option<Key> = None;
        for bucket in &self.buckets {
            for k in bucket {
                if best.is_none_or(|b| k.precedes(&b)) {
                    best = Some(*k);
                }
            }
        }
        best
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let key = self.find_min()?;
        self.cur_day = self.day_of(key.at);
        let idx = (self.cur_day & self.mask()) as usize;
        let bucket = &mut self.buckets[idx];
        let pos = bucket
            .iter()
            .position(|k| k.seq == key.seq)
            .expect("pending key vanished from its bucket");
        bucket.swap_remove(pos);
        let event = self.slots[key.slot as usize]
            .take()
            .expect("pending key points at an empty arena slot");
        self.free.push(key.slot);
        self.len -= 1;
        debug_assert!(
            key.at >= self.now.as_nanos(),
            "event queue went back in time"
        );
        self.now = SimTime::from_nanos(key.at);
        self.processed += 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
        Some(ScheduledEvent {
            at: self.now,
            seq: key.seq,
            event,
        })
    }

    /// Timestamp of the next pending event, if any, without popping it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.find_min().map(|k| SimTime::from_nanos(k.at))
    }

    /// Discards all pending events (the clock is left unchanged). Used when
    /// a simulation ends at a horizon with work still in flight.
    pub(crate) fn clear_pending(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.slots.clear();
        self.free.clear();
        self.len = 0;
        self.cur_day = self.day_of(self.now.as_nanos());
    }

    /// Resizes the calendar to `nbuckets` (clamped to a power of two of at
    /// least [`MIN_BUCKETS`]) and re-estimates the bucket width from the
    /// pending keys' gap distribution.
    fn rebuild(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.next_power_of_two().max(MIN_BUCKETS);
        let mut keys: Vec<Key> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            keys.append(bucket);
        }
        self.wshift = estimate_wshift(&mut keys);
        self.buckets.resize_with(nbuckets, Vec::new);
        self.buckets.truncate(nbuckets);
        let mask = nbuckets as u64 - 1;
        let mut min_day = u64::MAX >> self.wshift;
        for k in keys {
            let day = k.at >> self.wshift;
            min_day = min_day.min(day);
            self.buckets[(day & mask) as usize].push(k);
        }
        self.cur_day = if self.len == 0 {
            self.day_of(self.now.as_nanos())
        } else {
            min_day
        };
    }
}

/// Picks a bucket-width shift so one bucket day spans roughly the mean gap
/// between *near-term* pending events. Sorts `keys` by timestamp as a side
/// effect. The top quarter of timestamps is ignored: far-future outliers
/// (fault timers, horizon sentinels, `SimTime::MAX` deadlines) would
/// otherwise blow the width up and pack all near-term traffic into one day.
fn estimate_wshift(keys: &mut [Key]) -> u32 {
    if keys.len() < 2 {
        return 16;
    }
    keys.sort_unstable_by_key(|k| k.at);
    let kept = (keys.len() * 3 / 4).max(2);
    let span = keys[kept - 1].at - keys[0].at;
    let gap = (span / (kept as u64 - 1)).max(1);
    // Round the mean gap down to a power of two; clamp so `at >> wshift`
    // stays meaningful and a day is never wider than 2^40 ns (~18 min).
    (63 - gap.leading_zeros()).min(40)
}

impl<E> crate::event::SimQueue<E> for EventQueue<E> {
    fn new() -> Self {
        EventQueue::new()
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn processed(&self) -> u64 {
        EventQueue::processed(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }
    fn schedule(&mut self, at: SimTime, event: E) {
        EventQueue::schedule(self, at, event)
    }
    fn schedule_after(&mut self, delay: SimDuration, event: E) {
        EventQueue::schedule_after(self, delay, event)
    }
    fn advance(&mut self, d: SimDuration) -> SimTime {
        EventQueue::advance(self, d)
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn clear_pending(&mut self) {
        EventQueue::clear_pending(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // FIFO-within-timestamp must survive bucket resizes and cursor
        // movement, not just a single burst: interleave scheduling bursts
        // at repeated instants with pops and check global (at, seq) order.
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
    fn advance_moves_clock_without_popping() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(
            q.advance(SimDuration::from_millis(4)),
            SimTime::from_millis(4)
        );
        assert_eq!(q.now(), SimTime::from_millis(4));
        assert_eq!(q.processed(), 0);
        q.schedule(SimTime::from_millis(10), ());
        q.advance(SimDuration::from_millis(6)); // exactly onto the event: ok
        assert_eq!(q.now(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "advance past a pending event")]
    fn advance_past_pending_event_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.advance(SimDuration::from_millis(2));
    }

    #[test]
    fn clear_pending_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        q.clear_pending();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_sentinels_coexist_with_dense_traffic() {
        // The degenerate calendar case: a handful of timers seconds out
        // (plus a MAX sentinel) amid dense microsecond-scale events. Width
        // estimation must not collapse, and the direct-scan fallback must
        // find the far events once the dense prefix drains.
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
    fn peek_then_earlier_schedule_resets_cursor() {
        // peek_time scans forward; a later schedule may target an earlier
        // day than the last pop. The cursor must come back for it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(5.0), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        q.schedule(SimTime::from_millis(1), "near");
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.pop().unwrap().event, "far");
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
}
