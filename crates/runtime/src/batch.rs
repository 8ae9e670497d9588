//! Batching machinery: the frontend dynamic batcher and the per-stage
//! fusion buffers.
//!
//! §4: "E3 follows dynamic batching by queuing incoming requests and
//! waiting until it either has the target batch size or the queued inputs
//! would violate SLAs if not immediately scheduled." The same logic
//! governs fusion buffers at split boundaries (§3.3): partial results
//! queue until enough arrive to re-form a full batch, with a wait bound
//! so stragglers cannot stall the pipeline into SLO misses.

use std::collections::VecDeque;

use e3_simcore::SimTime;

use crate::sample::SimSample;

/// A batch of samples flowing between stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Member samples.
    pub samples: Vec<SimSample>,
    /// When the batch was formed (dispatched from a buffer).
    pub formed_at: SimTime,
}

impl Batch {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if empty (never produced by the buffers).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Most sample buffers a [`SamplePool`] keeps; bounds its growth when a
/// fault burst strands many batches at once.
const SAMPLE_POOL_CAP: usize = 64;

/// Recycled sample buffers: batches formed on a kernel's hot path draw
/// their `Vec<SimSample>` here instead of the allocator, and finished
/// batches return theirs, so the steady-state loop does not allocate.
#[derive(Debug, Default)]
pub(crate) struct SamplePool(Vec<Vec<SimSample>>);

impl SamplePool {
    /// Draws an empty sample buffer from the pool (or the allocator).
    pub(crate) fn get(&mut self) -> Vec<SimSample> {
        self.0.pop().unwrap_or_default()
    }

    /// Returns a sample buffer to the pool, cleared.
    pub(crate) fn put(&mut self, mut v: Vec<SimSample>) {
        if self.0.len() < SAMPLE_POOL_CAP {
            v.clear();
            self.0.push(v);
        }
    }
}

/// A target-size buffer with deadline-based partial flushing. Used both
/// as the frontend batcher and as each stage's fusion buffer.
#[derive(Debug, Clone)]
pub(crate) struct FusionBuffer {
    target: usize,
    pending: VecDeque<(SimSample, SimTime)>, // (sample, enqueue time)
}

impl FusionBuffer {
    /// Creates a buffer that aims for `target`-sized batches.
    ///
    /// # Panics
    ///
    /// Panics if `target == 0`.
    pub fn new(target: usize) -> Self {
        assert!(target >= 1, "batch target must be at least 1");
        FusionBuffer {
            target,
            pending: VecDeque::new(),
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a sample at time `now`.
    pub fn push(&mut self, sample: SimSample, now: SimTime) {
        self.pending.push_back((sample, now));
    }

    /// Reinserts a sample at the *head* of the buffer, resetting every
    /// pending enqueue time to `now`. Crash recovery re-queues an
    /// in-flight job ahead of the waiting ones; the wait clock restarts
    /// for the whole rebuilt buffer, exactly as if it had been drained
    /// and re-filled at `now`.
    pub(crate) fn push_front(&mut self, sample: SimSample, now: SimTime) {
        for (_, t) in &mut self.pending {
            *t = now;
        }
        self.pending.push_front((sample, now));
    }

    /// Enqueue time of the oldest waiting sample.
    pub(crate) fn oldest_enqueue(&self) -> Option<SimTime> {
        self.pending.front().map(|(_, t)| *t)
    }

    /// Takes a full batch if available, its buffer drawn from `pool`.
    pub(crate) fn take_full(&mut self, now: SimTime, pool: &mut SamplePool) -> Option<Batch> {
        if self.pending.len() < self.target {
            return None;
        }
        Some(self.take_up_to(self.target, now, pool))
    }

    /// Takes whatever is queued (possibly fewer than target) — the
    /// deadline-flush path. Returns `None` when empty.
    pub(crate) fn take_partial(&mut self, now: SimTime, pool: &mut SamplePool) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let n = self.pending.len().min(self.target);
        Some(self.take_up_to(n, now, pool))
    }

    fn take_up_to(&mut self, n: usize, now: SimTime, pool: &mut SamplePool) -> Batch {
        let mut samples = pool.get();
        samples.extend(self.pending.drain(..n).map(|(s, _)| s));
        Batch {
            samples,
            formed_at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64) -> SimSample {
        SimSample {
            id,
            arrival: SimTime::ZERO,
            layers_executed: 12,
            exited_early: false,
            correct: true,
            output_tokens: 1,
        }
    }

    #[test]
    fn full_batch_forms_at_target() {
        let mut b = FusionBuffer::new(4);
        let mut pool = SamplePool::default();
        for i in 0..3 {
            b.push(sample(i), SimTime::from_millis(i));
        }
        assert!(b.take_full(SimTime::from_millis(3), &mut pool).is_none());
        b.push(sample(3), SimTime::from_millis(3));
        let batch = b
            .take_full(SimTime::from_millis(3), &mut pool)
            .expect("full");
        assert_eq!(batch.len(), 4);
        assert!(b.is_empty());
    }

    #[test]
    fn partial_flush_takes_what_exists() {
        let mut b = FusionBuffer::new(8);
        let mut pool = SamplePool::default();
        b.push(sample(0), SimTime::ZERO);
        b.push(sample(1), SimTime::ZERO);
        let batch = b
            .take_partial(SimTime::from_millis(5), &mut pool)
            .expect("partial");
        assert_eq!(batch.len(), 2);
        assert!(b.take_partial(SimTime::from_millis(5), &mut pool).is_none());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = FusionBuffer::new(2);
        let mut pool = SamplePool::default();
        for i in 0..4 {
            b.push(sample(i), SimTime::ZERO);
        }
        let first = b.take_full(SimTime::ZERO, &mut pool).expect("full");
        assert_eq!(
            first.samples.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let second = b.take_full(SimTime::ZERO, &mut pool).expect("full");
        assert_eq!(
            second.samples.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn oldest_enqueue_tracks_head() {
        let mut b = FusionBuffer::new(4);
        assert!(b.oldest_enqueue().is_none());
        b.push(sample(0), SimTime::from_millis(7));
        b.push(sample(1), SimTime::from_millis(9));
        assert_eq!(b.oldest_enqueue(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn empty_buffer_flush_is_noop() {
        let mut b = FusionBuffer::new(4);
        let mut pool = SamplePool::default();
        assert!(b.is_empty());
        assert!(b.take_full(SimTime::from_millis(1), &mut pool).is_none());
        assert!(b.take_partial(SimTime::from_millis(1), &mut pool).is_none());
        assert!(b.oldest_enqueue().is_none());
    }

    #[test]
    fn batch_exactly_at_target_drains_buffer() {
        let mut b = FusionBuffer::new(3);
        let mut pool = SamplePool::default();
        for i in 0..3 {
            b.push(sample(i), SimTime::from_millis(i));
        }
        let batch = b
            .take_full(SimTime::from_millis(3), &mut pool)
            .expect("exactly full");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.formed_at, SimTime::from_millis(3));
        assert!(b.is_empty());
        assert!(b.oldest_enqueue().is_none(), "wait clock resets on drain");
    }

    #[test]
    fn oldest_enqueue_advances_as_head_drains() {
        let mut b = FusionBuffer::new(2);
        let mut pool = SamplePool::default();
        b.push(sample(0), SimTime::from_millis(1));
        b.push(sample(1), SimTime::from_millis(2));
        b.push(sample(2), SimTime::from_millis(3));
        b.take_full(SimTime::from_millis(3), &mut pool)
            .expect("full");
        // The surviving sample's enqueue time now bounds the wait.
        assert_eq!(b.oldest_enqueue(), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn take_full_respects_target_not_backlog() {
        let mut b = FusionBuffer::new(2);
        let mut pool = SamplePool::default();
        for i in 0..5 {
            b.push(sample(i), SimTime::ZERO);
        }
        let batch = b.take_full(SimTime::ZERO, &mut pool).expect("full");
        assert_eq!(batch.len(), 2);
        assert_eq!(b.pending.len(), 3);
    }

    #[test]
    fn formed_batches_reuse_pooled_buffers() {
        let mut b = FusionBuffer::new(2);
        let mut pool = SamplePool::default();
        for i in 0..4 {
            b.push(sample(i), SimTime::ZERO);
        }
        let first = b.take_full(SimTime::ZERO, &mut pool).expect("full");
        let buffer = first.samples.as_ptr();
        pool.put(first.samples);
        let second = b.take_full(SimTime::ZERO, &mut pool).expect("full");
        assert_eq!(
            second.samples.as_ptr(),
            buffer,
            "the returned buffer was not reused"
        );
        assert_eq!(
            second.samples.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }
}
